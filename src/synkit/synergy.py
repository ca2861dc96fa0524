"""Postural-synergy subspace extraction and joint/synergy mappings.

A set of demonstrated hand postures is centered on a nominal posture and
decomposed by PCA into a small number of orthonormal synergy directions.
The retained directions form a basis used to project postures into synergy
coordinates and to reconstruct postures from them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import JsonRecord, finite_array, freeze
from .errors import DimensionMismatchError, InvalidInputError, ZeroVarianceError

__all__ = [
    "SynergyBasis",
    "fit_synergy_basis",
    "project",
    "reconstruct",
]


@dataclass(frozen=True, eq=False)
class SynergyBasis(JsonRecord):
    """Orthonormal synergy directions plus the nominal posture they are about.

    ``e_hat`` is J x S with orthonormal columns ordered by descending explained
    variance; ``variance_fractions`` holds the retained fractions.
    """

    e_hat: np.ndarray
    theta0: np.ndarray
    variance_fractions: np.ndarray

    def __post_init__(self):
        e_hat, theta0, fractions = freeze(self, "e_hat", "theta0", "variance_fractions")
        if e_hat.ndim != 2:
            raise DimensionMismatchError("e_hat must be a J x S matrix")
        if theta0.shape != (e_hat.shape[0],):
            raise DimensionMismatchError("theta0 length does not match e_hat rows")
        gram = e_hat.T @ e_hat
        if not np.allclose(gram, np.eye(e_hat.shape[1]), atol=1e-8):
            raise InvalidInputError("synergy columns must be orthonormal")
        if fractions.shape != (e_hat.shape[1],):
            raise DimensionMismatchError("one variance fraction per synergy column")

    @property
    def joint_dim(self):
        return self.e_hat.shape[0]

    @property
    def synergy_dim(self):
        return self.e_hat.shape[1]


def fit_synergy_basis(postures, variance_threshold: float = 0.85, theta0=None) -> SynergyBasis:
    """Extract the synergy basis by PCA on demonstrated postures, one per row.

    The basis keeps the nominal posture ``theta0`` (default: the postures'
    mean). Eigen-decomposes the sample covariance (divisor K-1) of the centered
    postures and retains the smallest number of components whose cumulative
    explained variance reaches ``variance_threshold``. Each retained column is
    flipped so its largest-magnitude entry is positive, making fits reproducible.

    Raises ZeroVarianceError when all demonstrations are identical.
    """
    if not 0.0 < variance_threshold <= 1.0:
        raise InvalidInputError("variance_threshold must lie in (0, 1]")
    postures = finite_array(postures, "postures")
    if postures.ndim != 2 or postures.shape[0] < 2:
        raise DimensionMismatchError(
            f"postures must form a 2-D array of at least 2 rows, got shape {postures.shape}")
    theta0 = postures.mean(axis=0) if theta0 is None else finite_array(theta0, "theta0")
    if theta0.shape != (postures.shape[1],):
        raise DimensionMismatchError(
            f"theta0 shape {theta0.shape} does not match joint dim {postures.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = postures - theta0  # centering in two steps keeps basis.json's bits
        centered = rows - rows.mean(axis=0, keepdims=True)
        cov = centered.T @ centered / (rows.shape[0] - 1)
    if not np.isfinite(cov).all():
        raise InvalidInputError("postures too large: their covariance overflows")
    if not np.any(np.abs(centered) > 0.0):
        raise ZeroVarianceError("all demonstrations identical; no synergy directions")
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    total = eigvals.sum()
    if total <= 0.0:
        raise ZeroVarianceError("zero total variance in the postures")
    fractions = eigvals / total
    n_keep = int(np.searchsorted(np.cumsum(fractions), variance_threshold - 1e-12) + 1)
    n_keep = min(n_keep, len(fractions))
    e_hat = eigvecs[:, order[:n_keep]].copy()  # C order: the bits downstream depend on it
    pivots = e_hat[np.argmax(np.abs(e_hat), axis=0), np.arange(n_keep)]
    e_hat[:, pivots < 0.0] *= -1.0
    return SynergyBasis(e_hat=e_hat, theta0=theta0, variance_fractions=fractions[:n_keep])


def project(basis: SynergyBasis, posture) -> np.ndarray:
    """Map postures (..., J) into synergy coordinates (..., S): ``e = E^T (q - theta0)``.

    With orthonormal columns the pseudo-inverse of the basis is its
    transpose. A stack is one matrix-vector product per posture, the same
    product a single posture gets, so the bytes do not depend on stacking.
    """
    posture = np.asarray(posture, dtype=float)
    if posture.shape[-1:] != (basis.joint_dim,):
        raise DimensionMismatchError(
            f"posture shape {posture.shape} does not end in joint dim {basis.joint_dim}"
        )
    return np.matmul(basis.e_hat.T, (posture - basis.theta0)[..., None])[..., 0]


def reconstruct(basis: SynergyBasis, e) -> np.ndarray:
    """Map synergy coordinates (..., S) back to joint space (..., J): ``E e + theta0``."""
    e = np.asarray(e, dtype=float)
    if e.shape[-1:] != (basis.synergy_dim,):
        raise DimensionMismatchError(
            f"coordinate shape {e.shape} does not end in synergy dim {basis.synergy_dim}"
        )
    return np.matmul(basis.e_hat, e[..., None])[..., 0] + basis.theta0

