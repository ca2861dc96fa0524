"""Probabilistic encoding of synergy trajectories.

Demonstrations are projected into synergy space, resampled onto a common
normalized time grid, fit with a Gaussian mixture over the joint (t, e)
space, and conditioned on time to yield a reference trajectory of means
and covariances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import JsonRecord, write_csv
from .errors import (
    DegenerateComponentError,
    DimensionMismatchError,
    EmptyDemoError,
    InvalidInputError,
    NonMonotonicTimeError,
)
from .synergy import SynergyBasis, _frozen, project

__all__ = [
    "SynergyTrajectory",
    "GmmModel",
    "ReferenceTrajectory",
    "interpolate_coefficients",
    "fit_gmm",
    "gmr_condition",
    "generate_reference",
]

# Relative covariance floor added each M-step, scaled by the data spread.
_COV_FLOOR = 1e-6
# Slack for the per-iteration log-likelihood monotonicity check.
_LL_SLACK = 1e-7


@dataclass(frozen=True)
class SynergyTrajectory:
    """Synergy coefficients sampled on a strictly increasing time grid."""

    times: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 2 or times.ndim != 1 or coeffs.shape[0] != times.shape[0]:
            raise DimensionMismatchError("coeffs must be (T, S) aligned with times")
        if times.shape[0] > 1 and not np.all(np.diff(times) > 0.0):
            raise NonMonotonicTimeError("trajectory times must strictly increase")
        object.__setattr__(self, "times", _frozen(times))
        object.__setattr__(self, "coeffs", _frozen(coeffs))

    @property
    def synergy_dim(self):
        return self.coeffs.shape[1]


@dataclass(frozen=True)
class GmmModel(JsonRecord):
    """Gaussian mixture over the joint (time, synergy) space.

    One-dimensional input (time) in the leading coordinate, S output
    coordinates after it. ``ll_history`` records the log-likelihood at each
    EM iteration (non-decreasing up to the covariance-floor perturbation).
    """

    priors: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    ll_history: np.ndarray

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float)
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        ll_history = _frozen(self.ll_history)
        _require_finite(priors=priors, means=means, covariances=covs, ll_history=ll_history)
        if priors.ndim != 1 or means.ndim != 2 or covs.ndim != 3:
            raise DimensionMismatchError("priors, means, covariances must be 1-, 2- and 3-D")
        n = priors.shape[0]
        if means.shape[0] != n or covs.shape[0] != n:
            raise DimensionMismatchError("priors, means, covariances disagree on N")
        if covs.shape[1] != means.shape[1] or covs.shape[2] != means.shape[1]:
            raise DimensionMismatchError("covariance blocks must be square over (t, e)")
        if np.any(priors <= 0.0) or abs(priors.sum() - 1.0) > 1e-9:
            raise InvalidInputError("priors must be positive and sum to 1")
        _require_positive_definite(covs, InvalidInputError, "not positive definite")
        object.__setattr__(self, "priors", _frozen(priors))
        object.__setattr__(self, "means", _frozen(means))
        object.__setattr__(self, "covariances", _frozen(covs))
        object.__setattr__(self, "ll_history", ll_history)

    @property
    def n_components(self):
        return self.priors.shape[0]

    @property
    def output_dim(self):
        return self.means.shape[1] - 1


@dataclass(frozen=True)
class ReferenceTrajectory(JsonRecord):
    """Per-time mean and covariance of the synergy coefficients."""

    times: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        _require_finite(times=times, means=means, covariances=covs)
        if means.ndim != 2 or times.ndim != 1 or means.shape[0] != times.shape[0]:
            raise DimensionMismatchError("means must be (T, S) aligned with times")
        s = means.shape[1]
        if covs.shape != (times.shape[0], s, s):
            raise DimensionMismatchError("covariances must be (T, S, S)")
        if times.shape[0] > 1 and not np.all(np.diff(times) > 0.0):
            raise NonMonotonicTimeError("reference times must strictly increase")
        object.__setattr__(self, "times", _frozen(times))
        object.__setattr__(self, "means", _frozen(means))
        object.__setattr__(self, "covariances", _frozen(covs))

    def __len__(self):
        return self.times.shape[0]

    @property
    def synergy_dim(self):
        return self.means.shape[1]

    def to_csv(self, path):
        """Write rows of t, mean components, then the flattened covariance."""
        s = self.synergy_dim
        header = (
            ["t"]
            + [f"mu{i + 1}" for i in range(s)]
            + [f"sigma{i + 1}{j + 1}" for i in range(s) for j in range(s)]
        )
        flat_covs = self.covariances.reshape(len(self), s * s)
        write_csv(path, header, np.column_stack([self.times, self.means, flat_covs]))


def normalize_times(times) -> np.ndarray:
    """Rescale raw timestamps onto [0, 1]."""
    times = np.asarray(times, dtype=float)
    span = times[-1] - times[0]
    if span <= 0.0:
        raise NonMonotonicTimeError("demo duration must be positive")
    return (times - times[0]) / span


def interpolate_coefficients(demos, basis: SynergyBasis, grid) -> list[SynergyTrajectory]:
    """Project demos into synergy space and resample on a common grid.

    Each demo is a ``(times, angles)`` pair with angles of shape (M, J).
    Times are normalized to [0, 1] per demo; coefficients are linearly
    interpolated onto ``grid`` (which must lie within [0, 1]).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DimensionMismatchError("grid must be a nonempty 1-D array")
    if grid.min() < -1e-12 or grid.max() > 1.0 + 1e-12:
        raise InvalidInputError("grid must lie within the normalized span [0, 1]")
    out = []
    for times, angles in demos:
        times = np.asarray(times, dtype=float)
        angles = np.asarray(angles, dtype=float)
        if times.ndim != 1 or times.shape[0] < 2:
            raise EmptyDemoError("each demo needs at least 2 samples")
        if not np.all(np.diff(times) > 0.0):
            raise NonMonotonicTimeError("demo times must strictly increase")
        if angles.shape != (times.shape[0], basis.joint_dim):
            raise DimensionMismatchError("demo angles must be (M, J)")
        tn = normalize_times(times)
        coeffs = np.stack([project(basis, q) for q in angles])
        resampled = np.column_stack(
            [np.interp(grid, tn, coeffs[:, j]) for j in range(coeffs.shape[1])]
        )
        out.append(SynergyTrajectory(times=grid, coeffs=resampled))
    return out


def _log_gauss(x, means, covs):
    """Log density of every N(means[k], covs[k]) at every row of x, shape (M, C).

    Multiplying by the inverse d x d Cholesky factors is far cheaper than
    solving against the M right-hand sides.
    """
    d = x.shape[1]
    chol = np.linalg.cholesky(covs)
    sol = np.linalg.inv(chol) @ _centered(x, means)
    log_det = np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    return (
        -0.5 * np.sum(sol**2, axis=1)
        - log_det[:, None]
        - 0.5 * d * np.log(2.0 * np.pi)
    ).T


def _centered(x, means):
    """Differences of the rows of x from every mean, laid out (C, d, M)."""
    return np.ascontiguousarray(x.T) - means[:, :, None]  # a strided x.T is 3x slower


def _posterior(x, priors, means, covs):
    """Per-row log evidence (M,) and normalized responsibilities (M, C)."""
    log_joint = np.log(priors) + _log_gauss(x, means, covs)
    top = log_joint.max(axis=1, keepdims=True)
    log_norm = top[:, 0] + np.log(np.exp(log_joint - top).sum(axis=1))
    return log_norm, np.exp(log_joint - log_norm[:, None])


def _require_finite(**arrays):
    """Raise InvalidInputError naming the first of the arrays holding NaN or Inf."""
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise InvalidInputError(f"{name} contains NaN or Inf")


def _require_positive_definite(covs, error, what):
    """Raise ``error`` naming the first covariance of a (C, d, d) stack that is not PD."""
    bad = np.flatnonzero(np.linalg.eigvalsh(covs).min(axis=1) <= 0.0)
    if bad.size:
        raise error(f"component {bad[0]} covariance {what}")


def _weighted_moments(x, weights, mass, floor):
    """Means (C, d) and floored covariances (C, d, d) of x under (M, C) weights."""
    means = (weights.T @ x) / mass[:, None]
    diff = _centered(x, means)
    covs = (diff * weights.T[:, None, :]) @ np.swapaxes(diff, 1, 2) / mass[:, None, None] + floor
    return means, 0.5 * (covs + np.swapaxes(covs, 1, 2))


def _kmeanspp_centers(x, n, rng):
    centers = [x[rng.integers(x.shape[0])]]
    for _ in range(1, n):
        d2 = np.min(
            np.sum((x[:, None, :] - np.asarray(centers)[None, :, :]) ** 2, axis=2),
            axis=1,
        )
        total = d2.sum()
        if total <= 0.0:
            centers.append(x[rng.integers(x.shape[0])])
            continue
        centers.append(x[rng.choice(x.shape[0], p=d2 / total)])
    return np.asarray(centers)


def _lloyd(x, centers, iters=10):
    for _ in range(iters):
        labels = np.argmin(
            np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1
        )
        for k in range(centers.shape[0]):
            mask = labels == k
            if not mask.any():
                # reseed an empty cluster on the point farthest from its center
                far = np.argmax(
                    np.min(np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)
                )
                centers[k] = x[far]
            else:
                centers[k] = x[mask].mean(axis=0)
    return np.argmin(np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)


def fit_gmm(trajectories, n_components: int = 5, seed: int = 0,
            max_iter: int = 200, tol: float = 1e-6) -> GmmModel:
    """Fit a Gaussian mixture to joint (t, e) samples by EM.

    Initialization is k-means++ seeding (plus a few Lloyd refinements) with
    the supplied seed; every M-step adds a trace-scaled identity floor to the
    covariances. Raises DegenerateComponentError when a component keeps
    collapsing despite the floor.
    """
    if n_components < 1:
        raise InvalidInputError("n_components must be >= 1")
    if max_iter < 1:
        raise InvalidInputError("max_iter must be >= 1")
    dims = {t.synergy_dim for t in trajectories}
    if len(dims) != 1:
        raise DimensionMismatchError("all trajectories must share the synergy dim")
    x = np.vstack([np.column_stack([t.times, t.coeffs]) for t in trajectories])
    m, d = x.shape
    if m < n_components * (d + 1):
        raise InvalidInputError(f"too few samples ({m}) for {n_components} components in {d}-D")

    spread = np.var(x, axis=0).mean()
    floor = _COV_FLOOR * max(spread, 1e-12) * np.eye(d)

    rng = np.random.default_rng(seed)
    labels = _lloyd(x, _kmeanspp_centers(x, n_components, rng))
    hard = (labels[:, None] == np.arange(n_components)).astype(float)
    counts = hard.sum(axis=0)
    hard[:, counts == 0] = 1.0  # an empty cluster starts from all the data
    means, covs = _weighted_moments(x, hard, hard.sum(axis=0), floor)
    priors = np.maximum(counts, 1.0) / m
    priors /= priors.sum()

    ll_history = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        # E-step
        log_norm, resp = _posterior(x, priors, means, covs)
        ll = float(log_norm.sum())
        if ll < prev_ll - _LL_SLACK * (1.0 + abs(prev_ll)):
            raise DegenerateComponentError("EM log-likelihood decreased")
        ll_history.append(ll)

        # M-step
        mass = resp.sum(axis=0)
        if np.any(mass < 1e-12 * m):
            raise DegenerateComponentError("a component lost all responsibility mass")
        priors = mass / m
        priors = priors / priors.sum()
        means, covs = _weighted_moments(x, resp, mass, floor)
        _require_positive_definite(covs, DegenerateComponentError,
                                   "collapsed below the regularization floor")
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll

    return GmmModel(priors=priors, means=means, covariances=covs,
                    ll_history=np.asarray(ll_history))


def gmr_condition(model: GmmModel, t):
    """Condition the mixture on time: (mean, covariance) over e.

    ``t`` is one time, giving shapes (S,) and (S, S), or a 1-D grid, giving
    (Q, S) and (Q, S, S). Each component contributes its Gaussian
    conditional, blended by the responsibilities of t under the marginal
    time densities; the blended covariance is moment-matched so it stays
    symmetric PSD.
    """
    t = np.asarray(t, dtype=float)
    q, s, n = t.size, model.output_dim, model.n_components
    gain = model.covariances[:, 0, 1:] / model.covariances[:, 0, :1]
    # (Q, C, S): every component's conditional mean at every time
    cond_means = model.means[:, 1:] + (t.reshape(q, 1, 1) - model.means[:, :1]) * gain
    cond_covs = model.covariances[:, 1:, 1:] - gain[:, :, None] * model.covariances[:, None, 0, 1:]
    h = gmr_responsibilities(model, t).reshape(q, n)
    mean = (h[:, None, :] @ cond_means)[:, 0, :]
    dm = cond_means - mean[:, None, :]
    cov = (h @ cond_covs.reshape(n, s * s)).reshape(q, s, s)
    cov += np.swapaxes(dm * h[:, :, None], 1, 2) @ dm
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    return mean.reshape(t.shape + (s,)), cov.reshape(t.shape + (s, s))


def gmr_responsibilities(model: GmmModel, t) -> np.ndarray:
    """Normalized component responsibilities: (C,) for one time, (Q, C) for a grid."""
    t = np.asarray(t, dtype=float)
    _, h = _posterior(t.reshape(-1, 1), model.priors, model.means[:, :1],
                      model.covariances[:, :1, :1])
    return h.reshape(t.shape + (model.n_components,))


def generate_reference(model: GmmModel, grid) -> ReferenceTrajectory:
    """Condition the mixture on every grid time to build the reference."""
    means, covs = gmr_condition(model, grid)
    return ReferenceTrajectory(times=grid, means=means, covariances=covs)
