"""Kernelized movement-primitive regression over a reference trajectory.

A kernel ridge regression in time reproduces the probabilistic reference
and adapts it to new objects: desired via/end-points are written into the
reference with small covariance (high confidence) and the model is refit.
Three stationary kernels are provided; all act per output dimension through
an identity block structure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import float_array, freeze
from .encoding import ReferenceTrajectory, _spectrum
from .errors import (
    COND_LIMIT,
    DimensionMismatchError,
    InvalidInputError,
    SingularCovarianceError,
    SingularSystemError,
)

__all__ = [
    "KernelSpec",
    "KmpModel",
    "ViaPoint",
    "kernel_eval",
    "build_kernel_matrix",
    "kmp_fit",
    "kmp_predict",
    "kmp_predict_cov",
    "insert_via_point",
    "apply_via_points",
    "fuse_priorities",
]

KERNEL_KINDS = ("exponential", "gaussian", "cauchy")

# query times per block in kmp_predict and kmp_predict_cov, above the
# pipeline's 201 dense points; bounds their memory at O(block * N * S^2)
_QUERY_BLOCK = 256

_SQRT_TINY = np.sqrt(np.finfo(float).tiny)
# The KMP covariance system is (2N)^2 float64, 32 N^2 bytes, with S = 2 in
# every run that fits KMP on the pipeline's reference; at most four such arrays
# are live at once (kernel, Kronecker product, solve copy, eigvalsh), 128 N^2
# bytes, which is 512 MB at 2,000 points. The subnormal cutoff's two boolean
# masks, 8 N^2 bytes, are freed before the solve copy or eigvalsh is made.
MAX_REFERENCE_POINTS = 2_000


@dataclass(frozen=True)
class KernelSpec:
    """Stationary kernel family with its hyper-parameters.

    ``l`` is the length scale, ``sigma2`` the scale factor (kernel value at
    zero lag). ``alpha`` is the Cauchy mixing coefficient controlling tail
    weight and must be given exactly for the Cauchy kind.
    """

    kind: str
    l: float = 0.05
    sigma2: float = 1.0
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidInputError(
                f"unknown kernel kind {self.kind!r}; choose from {KERNEL_KINDS}")
        if self.kind == "cauchy":
            if self.alpha is None:
                raise InvalidInputError("cauchy kernel requires alpha > 0")
        elif self.alpha is not None:
            raise InvalidInputError(
                f"alpha is only meaningful for the cauchy kernel, not {self.kind!r}")
        for name in ("l", "sigma2", "alpha"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < np.inf:
                raise InvalidInputError(
                    f"kernel parameter {name} must be finite and positive, got {value!r}")
        try:
            finite = _lag_divisor(self) < np.inf
        except OverflowError:  # l**2 of a Python float raises where numpy would give inf
            finite = False
        if not finite:
            raise InvalidInputError(
                f"kernel length scale l={self.l!r} is too large: the {self.kind} kernel's "
                f"{'2 alpha l^2' if self.kind == 'cauchy' else '2 l^2'} overflows")

    def to_dict(self):
        d = {"kind": self.kind, "l": self.l, "sigma2": self.sigma2}
        if self.alpha is not None:
            d["alpha"] = self.alpha
        return d


def _lag_divisor(spec: KernelSpec) -> float:
    """What kernel_eval divides the lag (squared, but for the exponential) by."""
    if spec.kind == "exponential":
        return spec.l
    return (2.0 * spec.alpha if spec.kind == "cauchy" else 2.0) * spec.l**2


def kernel_eval(spec: KernelSpec, t1, t2):
    """Evaluate the kernel at a pair of times (vectorized over arrays).

    exponential: sigma2 * exp(-|dt| / l)
    gaussian:    sigma2 * exp(-|dt|^2 / (2 l^2))
    cauchy:      sigma2 * (1 + |dt|^2 / (2 alpha l^2))^(-alpha)

    The lag array is made once and every later step writes into it. A lag
    so large that a step overflows gives the kernel's exact limit there, 0.
    """
    with np.errstate(over="ignore"):
        try:
            lag = np.subtract(t1, t2, dtype=float)
        except (ValueError, TypeError) as exc:  # ragged, non-numeric or unbroadcastable
            raise DimensionMismatchError(f"t1 and t2 do not broadcast as floats: {exc}") from None
        k = np.atleast_1d(lag)  # a scalar lag gets a one-element buffer
        np.abs(k, out=k)
        if spec.kind != "exponential":
            np.square(k, out=k)
        k /= _lag_divisor(spec)
        if spec.kind == "cauchy":
            k += 1.0
            k **= -spec.alpha
        else:
            np.negative(k, out=k)
            np.exp(k, out=k)
        k *= spec.sigma2
    return k if lag.ndim else k[0]


def build_kernel_matrix(spec: KernelSpec, times, dim: int = 1) -> np.ndarray:
    """Assemble the (N*dim) x (N*dim) block kernel matrix.

    Block (i, j) is ``k(t_i, t_j) * I_dim``: one shared scalar kernel acting
    identically on every output dimension. For ``dim == 1`` the fresh N x N
    kernel array itself is returned, so a caller may write into it.
    """
    times = float_array(times, "times")
    if times.ndim != 1 or times.size == 0:
        raise DimensionMismatchError("times must be a nonempty 1-D array")
    # an l**2 that underflows to 0 gives 0/0 here, which _require_conditioned reports
    with np.errstate(divide="ignore", invalid="ignore"):
        k = kernel_eval(spec, times[:, None], times[None, :])
    return k if dim == 1 else np.kron(k, np.eye(dim))


@dataclass(frozen=True, eq=False)
class ViaPoint:
    """Desired (time, value, confidence) constraint for adaptation.

    A small ``desired_cov`` means high confidence: the refit trajectory is
    pulled through ``desired_e`` at ``t_star``.
    """

    t_star: float
    desired_e: np.ndarray
    desired_cov: np.ndarray

    def __post_init__(self):
        e, cov = freeze(self, "desired_e", "desired_cov")
        if e.ndim != 1 or cov.shape != (e.shape[0], e.shape[0]):
            raise DimensionMismatchError("desired_cov must be S x S matching desired_e")
        if _spectrum(cov, "desired_cov").min() <= 0.0:
            raise InvalidInputError("desired_cov must be positive definite")


@dataclass(frozen=True, eq=False)
class KmpModel:
    """Fitted kernel regression over a reference trajectory.

    ``mean_factor`` is the (N, S) solution of (K + lambda I) W = mu for the
    reference means, with K the N x N scalar kernel matrix: the block kernel
    is K kron I_S, so one N x N system serves every output dimension.
    Prediction is a pure read-only product, safe to call concurrently.
    """

    kernel: KernelSpec
    lam: float
    reference: ReferenceTrajectory
    mean_factor: np.ndarray

    @property
    def n_reference(self):
        return len(self.reference)


def _symmetric_cond(a) -> float:
    """``np.linalg.cond`` of a symmetric matrix, from its eigenvalues instead of an SVD."""
    w = np.abs(np.linalg.eigvalsh(a))
    return np.inf if w.min() == 0.0 else float(w.max() / w.min())


def _drop_subnormal_products(a, sigma2):
    """Set to 0, in place, every entry of ``a`` below sigma2 * sqrt(tiny) in magnitude.

    LU runs several times slower on subnormal operands, and a kernel system can
    hold many (388 of the 40,000 entries of the Gaussian K + I at l = 0.02 and
    N = 200). Each dropped entry is below 1.5e-154 of the diagonal, which is at
    least sigma2, so within the 1e12 condition limit the solution keeps its bits.
    NaN is never below the cut and still reaches _require_conditioned.
    """
    cut = sigma2 * _SQRT_TINY
    small = a < cut
    small &= a > -cut
    np.copyto(a, 0.0, where=small)


def _require_conditioned(a, floor, spec: KernelSpec, system: str):
    """SingularSystemError if cond(a) > 1e12, InvalidInputError if ``a`` is not finite.

    ``a`` is a PSD kernel matrix plus a term whose least eigenvalue is at least
    ``floor``, so cond(a) <= ||a||_inf / floor. A bound within COND_LIMIT / 4
    (the margin covers eigvalsh's backward error) clears ``a`` unfactored;
    otherwise its eigenvalues decide.
    """
    if not np.isfinite(a).all():
        raise InvalidInputError(
            f"{spec.kind} kernel matrix is not finite at length scale l={spec.l!r}")
    with np.errstate(over="ignore"):  # a bound that overflows to inf goes to the eigenvalues
        if np.abs(a).sum(axis=1).max() <= floor * (COND_LIMIT / 4):
            return
    if _symmetric_cond(a) > COND_LIMIT:
        raise SingularSystemError(f"{system} condition estimate exceeds 1e12")


def kmp_fit(reference: ReferenceTrajectory, spec: KernelSpec, lam: float = 1.0) -> KmpModel:
    """Solve the mean regression system once for all output dimensions.

    Raises SingularSystemError when (K + lambda I) is conditioned beyond
    1e12; its spectrum is that of the block system (K + lambda I) kron I_S.
    K is PSD, so cond <= ||K + lambda I||_inf / lambda; when that bound is at
    most 2.5e11 no eigendecomposition runs, else the eigenvalues decide.
    The system is solved by factorization, never explicit inversion.
    """
    if not 0.0 < lam < np.inf:
        raise InvalidInputError(f"lambda must be finite and positive, got {lam!r}")
    if len(reference) == 0:
        raise DimensionMismatchError("reference trajectory is empty")
    if len(reference) > MAX_REFERENCE_POINTS:
        raise InvalidInputError(
            f"reference has {len(reference)} points, more than {MAX_REFERENCE_POINTS}")
    a_mean = build_kernel_matrix(spec, reference.times)
    # kernel values are >= +0, so adding lambda on the diagonal alone is K + lambda I
    a_mean.reshape(-1)[::len(reference) + 1] += lam
    _drop_subnormal_products(a_mean, spec.sigma2)
    _require_conditioned(a_mean, lam, spec, "(K + lambda I)")
    mean_factor = np.linalg.solve(a_mean, reference.means)
    return KmpModel(kernel=spec, lam=float(lam), reference=reference, mean_factor=mean_factor)


def kmp_predict(model: KmpModel, times) -> np.ndarray:
    """Expected synergy coordinates: (S,) for one query time, (Q, S) for a grid.

    Kernel rows are built for one block of query times at a time.
    """
    t = float_array(times, "times")
    flat = t.reshape(-1)
    means = np.empty((flat.size, model.reference.synergy_dim))
    for start in range(0, flat.size, _QUERY_BLOCK):
        block = flat[start:start + _QUERY_BLOCK]
        means[start:start + block.size] = (
            kernel_eval(model.kernel, block[:, None], model.reference.times) @ model.mean_factor)
    return means.reshape(t.shape + means.shape[1:])


def kmp_predict_cov(model: KmpModel, times) -> np.ndarray:
    """Predicted covariance, symmetric PSD: (S, S) for one time, (Q, S, S) for a grid.

    Solves (K kron I_S + lambda Sigma), with Sigma the block diagonal of
    reference covariances, against the stacked kernel rows of each block of
    query times. Raises SingularSystemError when that system is conditioned
    beyond 1e12: its least eigenvalue is at least lambda times the least
    eigenvalue of the reference covariances, which bounds the condition
    number by the system's row sums; only when that bound exceeds 2.5e11
    does the exact eigenvalue test run. Raises InvalidInputError when sigma2 / (lambda
    times that least eigenvalue) exceeds 1e13: at simulate's via points the rounding then
    reached 0.4% of the least variance, 11% at 1e15, and turned it negative at 1e16.
    """
    ref = model.reference
    least = float(ref.spectrum.min())
    if model.kernel.sigma2 > 1e13 * (model.lam * least):
        raise InvalidInputError(f"kernel sigma2={model.kernel.sigma2!r} over lambda={model.lam!r}"
                                f" and the least reference covariance eigenvalue {least!r}"
                                " exceeds 1e13: the least predicted variance is lost to rounding")
    n, s = len(ref), ref.synergy_dim
    a_cov = build_kernel_matrix(model.kernel, ref.times, s)
    diagonal = np.arange(n)
    # the fresh result is contiguous, so this reshape is a writable view
    a_cov.reshape(n, s, n, s)[diagonal, :, diagonal, :] += model.lam * ref.covariances
    _drop_subnormal_products(a_cov, model.kernel.sigma2)
    _require_conditioned(a_cov, model.lam * least, model.kernel, "(K + lambda Sigma)")
    flat = float_array(times, "times").reshape(-1)
    quad = np.empty((flat.size, s, s))
    for start in range(0, flat.size, _QUERY_BLOCK):
        block = flat[start:start + _QUERY_BLOCK]
        q = block.size
        rows = np.kron(kernel_eval(model.kernel, block[:, None], ref.times), np.eye(s))
        solved = np.linalg.solve(a_cov, rows.T).reshape(n * s, q, s).transpose(1, 0, 2)
        quad[start:start + q] = rows.reshape(q, s, n * s) @ solved
    cov = (n / model.lam) * (model.kernel.sigma2 * np.eye(s) - quad)
    return (0.5 * (cov + cov.transpose(0, 2, 1))).reshape(np.shape(times) + (s, s))


def insert_via_point(reference: ReferenceTrajectory, via: ViaPoint) -> ReferenceTrajectory:
    """Write a via-point into the reference trajectory.

    An existing point within half the median grid spacing (0 for a one-point
    reference) of the via time is replaced; otherwise the via-point is
    appended and the sequence re-sorted.
    """
    return apply_via_points(reference, [via])


def apply_via_points(reference: ReferenceTrajectory, via_points) -> ReferenceTrajectory:
    """Insert via-points in sequence, as insert_via_point does, and build the result once."""
    times = np.array(reference.times)
    means = np.array(reference.means)
    covs = np.array(reference.covariances)
    for via in via_points:
        if via.desired_e.shape[0] != means.shape[1]:
            raise DimensionMismatchError("via-point dimension does not match reference")
        r = 0.5 * float(np.median(np.diff(times))) if times.shape[0] > 1 else 0.0
        gaps = np.abs(times - via.t_star)
        nearest = int(np.argmin(gaps)) if gaps.size else None
        if nearest is not None and gaps[nearest] <= r:
            times[nearest] = via.t_star
            means[nearest] = via.desired_e
            covs[nearest] = via.desired_cov
        else:
            times = np.append(times, via.t_star)
            means = np.vstack([means, via.desired_e[None, :]])
            covs = np.concatenate([covs, via.desired_cov[None, :, :]], axis=0)
        order = np.argsort(times, kind="stable")
        times, means, covs = times[order], means[order], covs[order]
    return ReferenceTrajectory(times=times, means=means, covariances=covs)


def fuse_priorities(trajectories, priorities) -> ReferenceTrajectory:
    """Fuse trajectories on a shared grid by a weighted product of Gaussians.

    At each grid point the fused precision is ``sum_d w_d * Sigma_d^-1`` and
    the fused mean is the precision-weighted average; a larger priority
    weight w_d tightens that trajectory's covariance and dominates the fusion.

    ``priorities`` holds one weight spec per trajectory, each either a scalar
    or a per-point sequence; all weights must be positive.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise DimensionMismatchError("need at least one trajectory to fuse")
    t = trajectories[0].times
    s = trajectories[0].synergy_dim
    weights = []
    for traj, w in zip(trajectories, priorities, strict=True):
        if (traj.synergy_dim != s or traj.times.shape != t.shape
                or not np.allclose(traj.times, t, atol=1e-12)):
            raise DimensionMismatchError("trajectories must share grid and dimension")
        w = np.broadcast_to(float_array(w, "priorities"), t.shape)
        if not np.all((w > 0.0) & (w < np.inf)):
            raise InvalidInputError("priority weights must be finite and positive")
        weights.append(w)

    covs = np.stack([traj.covariances for traj in trajectories])  # (D, Q, S, S)
    spectra = np.stack([traj.spectrum for traj in trajectories])  # (D, Q, S), ascending
    singular = np.flatnonzero((~(spectra[..., -1] < COND_LIMIT * spectra[..., 0])).any(axis=0))
    if singular.size:
        raise SingularCovarianceError(f"covariance at grid point {singular[0]} is singular")
    # w_d Sigma_d^-1 at every grid point, summed over d for the fused precision
    weighted = np.stack(weights)[..., None, None] * np.linalg.inv(covs)
    moment = np.einsum("dqij,dqj->qi", weighted, np.stack([traj.means for traj in trajectories]))
    fused = np.linalg.inv(weighted.sum(axis=0))
    fused = 0.5 * (fused + fused.transpose(0, 2, 1))
    return ReferenceTrajectory(times=t, means=np.einsum("qij,qj->qi", fused, moment),
                               covariances=fused)


def prediction_table(model: KmpModel, times):
    """CSV ``(header, rows)`` of the prediction on ``times``: t, means, diagonal variances."""
    means = kmp_predict(model, times)
    variances = np.diagonal(kmp_predict_cov(model, times), axis1=1, axis2=2)
    s = means.shape[1]
    header = ["t"] + [f"mu{i + 1}" for i in range(s)] + [f"var{i + 1}" for i in range(s)]
    return header, np.column_stack([times, means, variances])
