"""Semantic exception hierarchy shared by all synkit modules."""

# Condition number beyond which a system is treated as singular or rank
# deficient (SingularSystemError, RankDeficientError).
COND_LIMIT = 1e12


class SynkitError(Exception):
    """Base class for every error raised by synkit."""


class InvalidInputError(SynkitError, ValueError):
    """An input value lies outside its valid domain (NaN, nonpositive, ...)."""


class DimensionMismatchError(SynkitError):
    """Operands have incompatible shapes or lengths."""


class ZeroVarianceError(SynkitError):
    """Input carries no variation where variation is required."""


class EmptyDemoError(SynkitError):
    """A demonstration has fewer than two samples."""


class NonMonotonicTimeError(SynkitError):
    """Timestamps are not strictly increasing."""


class DegenerateComponentError(SynkitError):
    """A mixture component collapsed despite covariance regularization."""


class SingularSystemError(SynkitError):
    """A regression system is ill-conditioned beyond the solvable threshold."""


class SingularCovarianceError(SynkitError):
    """A covariance matrix required to be invertible is singular."""


class DegenerateCloudError(SynkitError):
    """A point cloud has no non-collinear triple to fit a plane through."""


class SingleClassError(SynkitError):
    """Classifier training data contains only one class."""


class RankDeficientError(SynkitError):
    """A matrix pseudo-inverse is unstable (rank-deficient beyond threshold)."""


class LengthMismatchError(SynkitError):
    """Paired sequences have different lengths."""


class UnknownTaskError(SynkitError):
    """Requested task id has no registered scenario."""


class ConfigInvalidError(SynkitError):
    """Pipeline configuration failed validation."""


class StageError(SynkitError):
    """A pipeline stage failed; carries the stage name plus the cause."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


class UsageError(SynkitError):
    """Command line invoked with invalid arguments."""
