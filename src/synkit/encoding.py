"""Probabilistic encoding of synergy trajectories.

Demonstrations are projected into synergy space, resampled onto a common
normalized time grid, fit with a Gaussian mixture over the joint (t, e)
space, and conditioned on time to yield a reference trajectory of means
and covariances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import JsonRecord, finite_array, freeze, write_csv
from .errors import (
    DegenerateComponentError,
    DimensionMismatchError,
    EmptyDemoError,
    InvalidInputError,
    NonMonotonicTimeError,
)
from .synergy import SynergyBasis, project

__all__ = [
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
_COLLAPSED = "collapsed below the regularization floor"


@dataclass(frozen=True, eq=False)
class GmmModel(JsonRecord):
    """Gaussian mixture over the joint (time, synergy) space.

    One-dimensional input (time) in the leading coordinate, S output
    coordinates after it. ``ll_history`` holds one entry per accepted EM
    iterate: the floor-matched objective, the log-likelihood with each
    component's density times exp(-0.5 * floor * tr(inv(cov))), which every
    floored M-step maximizes exactly, so the entries do not decrease.
    """

    priors: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    ll_history: np.ndarray

    def __post_init__(self):
        priors, means, covs, _ = freeze(self, "priors", "means", "covariances", "ll_history")
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

    @property
    def n_components(self):
        return self.priors.shape[0]

    @property
    def output_dim(self):
        return self.means.shape[1] - 1


@dataclass(frozen=True, eq=False)
class ReferenceTrajectory(JsonRecord):
    """Per-time mean and covariance of the synergy coefficients, plus ``spectrum``,
    the (T, S) ascending eigenvalues of the covariances, read-only and not a field."""

    times: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        times, means, covs = freeze(self, "times", "means", "covariances")
        if means.ndim != 2 or times.ndim != 1 or means.shape[0] != times.shape[0]:
            raise DimensionMismatchError("means must be (T, S) aligned with times")
        s = means.shape[1]
        if covs.shape != (times.shape[0], s, s):
            raise DimensionMismatchError("covariances must be (T, S, S)")
        spectrum = _spectrum(covs, "covariances")
        if np.any(spectrum < 0.0):
            raise InvalidInputError("covariances must be positive semidefinite")
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)
        if times.shape[0] > 1 and not np.all(np.diff(times) > 0.0):
            raise NonMonotonicTimeError("reference times must strictly increase")

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


def interpolate_coefficients(demos, basis: SynergyBasis, grid) -> np.ndarray:
    """Project demos into synergy space and resample on a common grid.

    Each demo is a ``(times, angles)`` pair with angles of shape (M, J).
    Times are normalized to [0, 1] per demo; coefficients are linearly
    interpolated onto ``grid``, which must strictly increase within [0, 1].
    Returns the (D, T, S) coefficients of the D demos on the T grid times.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DimensionMismatchError("grid must be a nonempty 1-D array")
    if not (grid.min() >= -1e-12 and grid.max() <= 1.0 + 1e-12):  # NaN is not within
        raise InvalidInputError("grid must lie within the normalized span [0, 1]")
    if not np.all(np.diff(grid) > 0.0):
        raise NonMonotonicTimeError("grid times must strictly increase")
    out = np.empty((len(demos), grid.size, basis.synergy_dim))
    for resampled, (times, angles) in zip(out, demos):
        times = np.asarray(times, dtype=float)
        angles = np.asarray(angles, dtype=float)
        if times.ndim != 1 or times.shape[0] < 2:
            raise EmptyDemoError("each demo needs at least 2 samples")
        if not np.all(np.diff(times) > 0.0):
            raise NonMonotonicTimeError("demo times must strictly increase")
        if angles.shape != (times.shape[0], basis.joint_dim):
            raise DimensionMismatchError("demo angles must be (M, J)")
        tn = (times - times[0]) / (times[-1] - times[0])
        coeffs = project(basis, angles)
        for j in range(coeffs.shape[1]):
            resampled[:, j] = np.interp(grid, tn, coeffs[:, j])
    return out


def _factor(covs, floor=0.0):
    """Inverse Cholesky factors (C, d, d) and log-normalizers (C,) of a covariance stack.

    One stacked Cholesky; a covariance that does not factor raises
    DegenerateComponentError. The log-normalizer is half the log-determinant
    plus ``0.5 * floor * tr(inv(cov))``: with that term the component is
    N(x | mean, cov) * exp(-0.5 * tr(inv(cov) @ floor * I)), the density
    whose exact M-step is the floored covariance, so every EM step is monotone.
    """
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        _require_positive_definite(covs, DegenerateComponentError, _COLLAPSED)
        raise DegenerateComponentError(f"a covariance {_COLLAPSED}") from None
    inv_chol = np.linalg.inv(chol)
    log_det = np.add.reduce(np.log(chol.diagonal(axis1=1, axis2=2)), axis=1)
    return inv_chol, log_det + 0.5 * floor * np.add.reduce(inv_chol * inv_chol, axis=(1, 2))


def _log_gauss(xt, means, factor, const):
    """Log density of every component at every column of xt (d, M), laid out (C, M).

    ``factor`` is ``_factor`` of the covariances and ``const`` is
    ``0.5 * d * log(2 pi)``. Multiplying by the inverse d x d Cholesky
    factors is far cheaper than solving against the M right-hand sides.
    """
    inv_chol, log_det = factor
    sol = inv_chol @ (xt - means[:, :, None])
    return -0.5 * np.add.reduce(sol * sol, axis=1) - log_det[:, None] - const


def _e_step(xt, priors, means, factor, const):
    """Summed log evidence of the columns of xt (d, M) and (C, M) responsibilities.

    With the floored ``factor`` of ``_factor`` the sum is the floor-matched
    objective that EM maximizes.
    """
    log_joint = _log_gauss(xt, means, factor, const) + np.log(priors)[:, None]
    top = np.maximum.reduce(log_joint, axis=0)
    log_norm = top + np.log(np.add.reduce(np.exp(log_joint - top), axis=0))
    log_joint -= log_norm
    return float(np.add.reduce(log_norm)), np.exp(log_joint, out=log_joint)


def _spectrum(covs, name):
    """Ascending eigenvalues of a (..., d, d) stack that passes np.allclose's symmetry test."""
    mirror = covs.swapaxes(-1, -2)
    if not np.all(np.abs(covs - mirror) <= 1e-12 + 1e-5 * np.abs(mirror)):
        raise InvalidInputError(f"{name} must be symmetric")
    return np.linalg.eigvalsh(covs)


def _require_positive_definite(covs, error, what):
    """Raise ``error`` naming the first covariance of a (C, d, d) stack that is not PD."""
    bad = np.flatnonzero(_spectrum(covs, "covariances").min(axis=1) <= 0.0)
    if bad.size:
        raise error(f"component {bad[0]} covariance {what}")


def _weighted_moments(x, xt, weights, mass, floor_eye):
    """Means (C, d) and floored covariances (C, d, d) under (C, M) weights.

    x is the (M, d) data and xt its contiguous (d, M) transpose; the
    covariances are re-symmetrized, since the stacked product is not
    bitwise symmetric.
    """
    means = weights @ x
    means /= mass[:, None]
    diff = xt - means[:, :, None]
    covs = (diff * weights[:, None, :]) @ diff.transpose(0, 2, 1)
    covs /= mass[:, None, None]
    covs += floor_eye
    covs += covs.transpose(0, 2, 1)  # numpy buffers the overlapping operand
    covs *= 0.5
    return means, covs


def _sq_dists(x, centers):
    """Squared distances (M, K) from every row of x to every center."""
    diff = x[:, None, :] - centers
    return np.add.reduce(diff * diff, axis=2)


def _kmeanspp_centers(x, n, rng):
    centers = [x[rng.integers(x.shape[0])]]
    for _ in range(1, n):
        d2 = np.minimum.reduce(_sq_dists(x, np.asarray(centers)), axis=1)
        total = np.add.reduce(d2)
        if total <= 0.0:
            centers.append(x[rng.integers(x.shape[0])])
            continue
        centers.append(x[rng.choice(x.shape[0], p=d2 / total)])
    return np.asarray(centers)


def _lloyd(x, centers, iters=10):
    """Labels of x after up to ``iters`` Lloyd updates of ``centers``, made in place.

    Stops early once the labels repeat those of an update that reseeded no
    empty cluster: from there on the centers repeat bit for bit.
    """
    k, d = centers.shape
    settled = None  # labels of the last update, when it reseeded no cluster
    for _ in range(iters):
        labels = _sq_dists(x, centers).argmin(axis=1)
        if settled is not None and np.array_equal(labels, settled):
            return labels
        counts = np.bincount(labels, minlength=k)
        sums = np.bincount((labels[:, None] * d + np.arange(d)).ravel(), weights=x.ravel(),
                           minlength=k * d).reshape(k, d)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        empty = np.flatnonzero(~filled)
        for j in empty:
            # reseed an empty cluster on the point farthest from every center
            centers[j] = x[np.minimum.reduce(_sq_dists(x, centers), axis=1).argmax()]
        settled = None if empty.size else labels
    return _sq_dists(x, centers).argmin(axis=1)


def _m_step(x, xt, resp, floor, floor_eye):
    """EM update from (C, M) responsibilities: (priors, means, covs) and its factor."""
    m = x.shape[0]
    mass = np.add.reduce(resp, axis=1)
    if np.minimum.reduce(mass) < 1e-12 * m:
        raise DegenerateComponentError("a component lost all responsibility mass")
    priors = mass / m
    means, covs = _weighted_moments(x, xt, resp, mass, floor_eye)
    return (priors / np.add.reduce(priors), means, covs), _factor(covs, floor)


def _squarem_step(data, theta0, theta1, theta2, stepmax):
    """One EM step from the SQUAREM extrapolation of theta0 -> theta1 -> theta2.

    ``data`` is ``(x, xt, floor, floor_eye, const)`` of the fit. The step
    length -alpha = |r| / |v| is clipped to [1, stepmax]; length 1
    extrapolates to theta2 itself.

    Returns (theta3, its objective, its responsibilities), or None when
    the extrapolated priors are not all positive or a covariance of the
    extrapolated point or of theta3 does not factor.
    """
    x, xt, floor, floor_eye, const = data
    r = [b - a for a, b in zip(theta0, theta1)]
    v = [c - 2.0 * b + a for a, b, c in zip(theta0, theta1, theta2)]
    r_norm = np.sqrt(sum([np.add.reduce(p * p, axis=None) for p in r]))
    v_norm = np.sqrt(sum([np.add.reduce(p * p, axis=None) for p in v]))
    alpha = -min(max(r_norm / v_norm, 1.0), stepmax) if v_norm > 0.0 else -1.0
    priors, means, covs = [a - 2.0 * alpha * dr + alpha**2 * dv
                           for a, dr, dv in zip(theta0, r, v)]
    if not np.logical_and.reduce(priors > 0.0):
        return None
    covs += covs.transpose(0, 2, 1)
    covs *= 0.5
    try:
        _, resp = _e_step(xt, priors / np.add.reduce(priors), means,
                          _factor(covs, floor), const)
        theta3, factor = _m_step(x, xt, resp, floor, floor_eye)
    except DegenerateComponentError:
        return None
    return (theta3, *_e_step(xt, theta3[0], theta3[1], factor, const))


def fit_gmm(times, coeffs, n_components: int = 5, seed: int = 0,
            max_iter: int = 200, tol: float = 1e-6) -> GmmModel:
    """Fit a Gaussian mixture to joint (t, e) samples by EM, accelerated by SQUAREM.

    ``coeffs`` holds the (D, T, S) synergy coefficients of D demos on the
    (T,) ``times``, as ``interpolate_coefficients`` returns them.

    Initialization is k-means++ seeding (plus a few Lloyd refinements) with
    the supplied seed; every M-step adds a trace-scaled identity floor to the
    covariances. The objective is the log-likelihood under the floor-matched
    densities of ``_factor``. Every two EM steps are extrapolated
    (Varadhan & Roland, Scand. J. Statist. 35, 2008) and stabilized by one
    more EM step, which is kept only if it does not lower the objective.
    ``max_iter`` bounds the M-steps; the fit stops once an accepted iterate
    gains less than ``tol`` and returns one EM step past it. Raises
    DegenerateComponentError when a component keeps collapsing despite the
    floor.
    """
    if n_components < 1:
        raise InvalidInputError("n_components must be >= 1")
    if max_iter < 1:
        raise InvalidInputError("max_iter must be >= 1")
    times, coeffs = finite_array(times, "times"), finite_array(coeffs, "coeffs")
    if times.ndim != 1 or coeffs.ndim != 3 or coeffs.shape[1] != times.shape[0]:
        raise DimensionMismatchError("coeffs must be (D, T, S) aligned with times (T,)")
    x = np.column_stack([np.tile(times, coeffs.shape[0]), coeffs.reshape(-1, coeffs.shape[2])])
    m, d = x.shape
    if m < n_components * (d + 1):
        raise InvalidInputError(f"too few samples ({m}) for {n_components} components in {d}-D")

    floor = _COV_FLOOR * max(np.var(x, axis=0).mean(), 1e-12)
    xt = np.ascontiguousarray(x.T)  # a strided x.T is 3x slower in every product
    floor_eye = floor * np.eye(d)
    const = 0.5 * d * np.log(2.0 * np.pi)

    rng = np.random.default_rng(seed)
    labels = _lloyd(x, _kmeanspp_centers(x, n_components, rng))
    # (C, M) hard weights as a transposed (M, C) array: BLAS rounds the first
    # product differently for a C-ordered copy, which moves gmm.json's bits
    hard = (labels[:, None] == np.arange(n_components)).astype(float).T
    counts = np.add.reduce(hard, axis=1)
    hard[counts == 0] = 1.0  # an empty cluster starts from all the data
    means, covs = _weighted_moments(x, xt, hard, np.add.reduce(hard, axis=1), floor_eye)
    priors = np.maximum(counts, 1.0) / m
    theta = (priors / np.add.reduce(priors), means, covs)

    ll, resp = _e_step(xt, theta[0], means, _factor(covs, floor), const)
    ll_history = [ll]
    cycle = [theta]  # EM iterates since the last accepted point
    steps = 0
    stepmax = 1.0  # x4 after an accepted extrapolation, /4 (down to 1) after a rejected one
    while True:
        theta, factor = _m_step(x, xt, resp, floor, floor_eye)
        steps += 1
        if steps >= max_iter or (len(ll_history) > 1 and ll_history[-1] - ll_history[-2] < tol):
            break
        ll, resp = _e_step(xt, theta[0], theta[1], factor, const)
        prev_ll = ll_history[-1]
        if ll < prev_ll - _LL_SLACK * (1.0 + abs(prev_ll)):
            raise DegenerateComponentError("EM log-likelihood decreased")
        ll_history.append(ll)
        cycle.append(theta)
        if len(cycle) == 3 and steps + 1 < max_iter:  # leave an M-step for the final update
            step = _squarem_step((x, xt, floor, floor_eye, const), *cycle, stepmax)
            steps += 1
            if step is not None and step[1] >= ll:
                theta, ll, resp = step
                ll_history.append(ll)
                stepmax *= 4.0
            else:
                stepmax = max(stepmax / 4.0, 1.0)
            cycle = [theta]

    return GmmModel(priors=theta[0], means=theta[1], covariances=theta[2],
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
    # (Q, C): responsibilities of every time under the marginal time densities
    h = _e_step(t.reshape(1, q), model.priors, model.means[:, :1],
                _factor(model.covariances[:, :1, :1]), 0.5 * np.log(2.0 * np.pi))[1].T
    mean = (h[:, None, :] @ cond_means)[:, 0, :]
    dm = cond_means - mean[:, None, :]
    cov = (h @ cond_covs.reshape(n, s * s)).reshape(q, s, s)
    cov += (dm * h[:, :, None]).transpose(0, 2, 1) @ dm
    cov += cov.transpose(0, 2, 1)
    cov *= 0.5
    return mean.reshape(t.shape + (s,)), cov.reshape(t.shape + (s, s))


def generate_reference(model: GmmModel, grid) -> ReferenceTrajectory:
    """Condition the mixture on every grid time to build the reference."""
    means, covs = gmr_condition(model, grid)
    return ReferenceTrajectory(times=grid, means=means, covariances=covs)
