"""Probabilistic encoding of synergy trajectories.

Demonstrations are projected into synergy space, resampled onto a common
normalized time grid, fit with a Gaussian mixture over the joint (t, e)
space, and conditioned on time to yield a reference trajectory of means
and covariances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import dump_json, load_json, write_csv
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
class GmmModel:
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
        n = priors.shape[0]
        if means.shape[0] != n or covs.shape[0] != n:
            raise DimensionMismatchError("priors, means, covariances disagree on N")
        if covs.shape[1] != means.shape[1] or covs.shape[2] != means.shape[1]:
            raise DimensionMismatchError("covariance blocks must be square over (t, e)")
        if np.any(priors <= 0.0) or abs(priors.sum() - 1.0) > 1e-9:
            raise ValueError("priors must be positive and sum to 1")
        for k in range(n):
            if np.linalg.eigvalsh(covs[k]).min() <= 0.0:
                raise ValueError(f"component {k} covariance not positive definite")
        object.__setattr__(self, "priors", _frozen(priors))
        object.__setattr__(self, "means", _frozen(means))
        object.__setattr__(self, "covariances", _frozen(covs))
        object.__setattr__(self, "ll_history", _frozen(self.ll_history))

    @property
    def n_components(self):
        return self.priors.shape[0]

    @property
    def output_dim(self):
        return self.means.shape[1] - 1

    def to_json(self, path):
        dump_json({
            "priors": self.priors.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "ll_history": self.ll_history.tolist(),
        }, path)

    @classmethod
    def from_json(cls, path):
        payload = load_json(path)
        return cls(
            priors=np.asarray(payload["priors"], dtype=float),
            means=np.asarray(payload["means"], dtype=float),
            covariances=np.asarray(payload["covariances"], dtype=float),
            ll_history=np.asarray(payload["ll_history"], dtype=float),
        )


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Per-time mean and covariance of the synergy coefficients."""

    times: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
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

    def to_json(self, path):
        dump_json({
            "times": self.times.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
        }, path)

    @classmethod
    def from_json(cls, path):
        payload = load_json(path)
        return cls(
            times=np.asarray(payload["times"], dtype=float),
            means=np.asarray(payload["means"], dtype=float),
            covariances=np.asarray(payload["covariances"], dtype=float),
        )

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
        raise ValueError("grid must lie within the normalized span [0, 1]")
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


def _log_gauss(x, mean, cov):
    """Log density of N(mean, cov) at rows of x."""
    d = x.shape[1]
    L = np.linalg.cholesky(cov)
    diff = x - mean[None, :]
    sol = np.linalg.solve(L, diff.T)
    return (
        -0.5 * np.sum(sol**2, axis=0)
        - np.sum(np.log(np.diag(L)))
        - 0.5 * d * np.log(2.0 * np.pi)
    )


def _logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


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
    labels = np.argmin(np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)
    return centers, labels


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
    dims = {t.synergy_dim for t in trajectories}
    if len(dims) != 1:
        raise DimensionMismatchError("all trajectories must share the synergy dim")
    x = np.vstack([np.column_stack([t.times, t.coeffs]) for t in trajectories])
    m, d = x.shape
    if m < n_components * (d + 1):
        raise ValueError(f"too few samples ({m}) for {n_components} components in {d}-D")

    spread = np.var(x, axis=0).mean()
    floor = _COV_FLOOR * max(spread, 1e-12) * np.eye(d)

    rng = np.random.default_rng(seed)
    centers, labels = _lloyd(x, _kmeanspp_centers(x, n_components, rng))
    priors = np.empty(n_components)
    means = np.empty((n_components, d))
    covs = np.empty((n_components, d, d))
    for k in range(n_components):
        mask = labels == k
        pts = x[mask] if mask.any() else x
        priors[k] = max(mask.sum(), 1) / m
        means[k] = pts.mean(axis=0)
        diff = pts - means[k]
        covs[k] = diff.T @ diff / max(pts.shape[0], 1) + floor
    priors /= priors.sum()

    ll_history = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        # E-step
        log_resp = np.stack(
            [np.log(priors[k]) + _log_gauss(x, means[k], covs[k]) for k in range(n_components)],
            axis=1,
        )
        log_norm = _logsumexp(log_resp, axis=1)
        ll = float(log_norm.sum())
        if ll < prev_ll - _LL_SLACK * (1.0 + abs(prev_ll)):
            raise DegenerateComponentError("EM log-likelihood decreased")
        ll_history.append(ll)
        resp = np.exp(log_resp - log_norm[:, None])

        # M-step
        mass = resp.sum(axis=0)
        if np.any(mass < 1e-12 * m):
            raise DegenerateComponentError("a component lost all responsibility mass")
        priors = mass / m
        priors = priors / priors.sum()
        means = (resp.T @ x) / mass[:, None]
        for k in range(n_components):
            diff = x - means[k]
            covs[k] = (resp[:, k][:, None] * diff).T @ diff / mass[k] + floor
            covs[k] = 0.5 * (covs[k] + covs[k].T)
            if np.linalg.eigvalsh(covs[k]).min() <= 0.0:
                raise DegenerateComponentError(
                    f"component {k} covariance collapsed below the regularization floor"
                )
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll

    return GmmModel(priors=priors, means=means, covariances=covs,
                    ll_history=np.asarray(ll_history))


def gmr_condition(model: GmmModel, t: float):
    """Condition the mixture on time, returning (mean, covariance) over e.

    Each component contributes its Gaussian conditional, blended by the
    responsibilities of t under the marginal time densities; the blended
    covariance is moment-matched so it stays symmetric PSD.
    """
    s = model.output_dim
    n = model.n_components
    cond_means = np.empty((n, s))
    cond_covs = np.empty((n, s, s))
    for k in range(n):
        mu_t = model.means[k, 0]
        s_tt = model.covariances[k, 0, 0]
        s_te = model.covariances[k, 0, 1:]
        gain = s_te / s_tt
        cond_means[k] = model.means[k, 1:] + gain * (t - mu_t)
        cond_covs[k] = model.covariances[k, 1:, 1:] - np.outer(gain, s_te)
    h = gmr_responsibilities(model, t)
    mean = h @ cond_means
    cov = np.zeros((s, s))
    for k in range(n):
        dm = cond_means[k] - mean
        cov += h[k] * (cond_covs[k] + np.outer(dm, dm))
    cov = 0.5 * (cov + cov.T)
    return mean, cov


def gmr_responsibilities(model: GmmModel, t: float) -> np.ndarray:
    """Normalized component responsibilities of a time point."""
    log_h = np.array(
        [
            np.log(model.priors[k])
            - 0.5
            * (
                (t - model.means[k, 0]) ** 2 / model.covariances[k, 0, 0]
                + np.log(2.0 * np.pi * model.covariances[k, 0, 0])
            )
            for k in range(model.n_components)
        ]
    )
    log_h -= _logsumexp(log_h[None, :], axis=1)
    return np.exp(log_h)


def generate_reference(model: GmmModel, grid) -> ReferenceTrajectory:
    """Condition the mixture on every grid time to build the reference."""
    grid = np.asarray(grid, dtype=float)
    means = np.empty((grid.shape[0], model.output_dim))
    covs = np.empty((grid.shape[0], model.output_dim, model.output_dim))
    for i, t in enumerate(grid):
        means[i], covs[i] = gmr_condition(model, float(t))
    return ReferenceTrajectory(times=grid, means=means, covariances=covs)
