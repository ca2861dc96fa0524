"""Contact-force modeling and tactile grip adaptation.

Contact forces balancing a grasped object are the pseudo-inverse wrench
distribution plus a stiffness response to synergy-space displacements.
Stability is the per-contact friction-cone ratio test; forces map to motor
currents through the hand Jacobian and motor constant, and the scalar grip
error maps back to a synergy correction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._io import float_array, freeze
from .errors import COND_LIMIT, DimensionMismatchError, InvalidInputError, RankDeficientError
from .synergy import SynergyBasis

__all__ = [
    "GraspModel",
    "contact_forces",
    "friction_cone_check",
    "motor_currents",
    "adapt_force",
    "grip_force",
]


@dataclass(frozen=True, eq=False)
class GraspModel:
    """Linear grasp mechanics for n_c point contacts.

    ``grasp_matrix`` (6 x 3 n_c) maps stacked contact-frame forces to the
    object wrench; ``stiffness`` (3 n_c x J) maps joint displacements to
    contact-force changes; ``hand_jacobian`` (3 n_c x J) and the diagonal
    ``motor_constant`` (J x J) relate motor currents to contact forces.
    """

    grasp_matrix: np.ndarray
    stiffness: np.ndarray
    hand_jacobian: np.ndarray
    motor_constant: np.ndarray

    def __post_init__(self):
        g, xi, jh, km = freeze(self, "grasp_matrix", "stiffness", "hand_jacobian",
                               "motor_constant")
        if g.ndim != 2 or g.shape[0] != 6 or g.shape[1] % 3 != 0:
            raise DimensionMismatchError("grasp matrix must be 6 x 3*n_c")
        if xi.shape[0] != g.shape[1]:
            raise DimensionMismatchError("stiffness rows must match contact dimension")
        if jh.shape[0] != g.shape[1]:
            raise DimensionMismatchError("hand Jacobian rows must match contact dimension")
        if km.shape != (jh.shape[1], jh.shape[1]):
            raise DimensionMismatchError("motor constant must be square over the joints")

    @property
    def n_contacts(self):
        return self.grasp_matrix.shape[1] // 3

    @property
    def joint_dim(self):
        return self.stiffness.shape[1]


def _stable_pinv(matrix, name):
    """``pinv(matrix)``, or RankDeficientError when its condition exceeds COND_LIMIT.

    One SVD serves the condition test and the pseudo-inverse, built as
    ``np.linalg.pinv`` builds it: no singular value passing the test falls
    below pinv's cutoff, so the result is bit-equal.
    """
    u, sv, vt = np.linalg.svd(matrix, full_matrices=False)
    if sv[-1] <= 0.0 or sv[0] / sv[-1] > COND_LIMIT:
        raise RankDeficientError(f"{name} pseudo-inverse is unstable (condition > 1e12)")
    return vt.T @ (np.divide(1.0, sv)[:, None] * u.T)


def contact_forces(model: GraspModel, omega, basis: SynergyBasis, delta_e) -> np.ndarray:
    """Contact forces balancing the external wrench plus a synergy displacement.

    Returns ``G^+ omega + stiffness . E . delta_e`` partitioned into one
    3-vector per contact (rows). Affine in (omega, delta_e).
    """
    omega = np.asarray(omega, dtype=float)
    delta_e = np.asarray(delta_e, dtype=float)
    if omega.shape != (6,):
        raise DimensionMismatchError("external wrench must be a 6-vector")
    if delta_e.shape != (basis.synergy_dim,):
        raise DimensionMismatchError("delta_e length must match the synergy dim")
    if basis.joint_dim != model.joint_dim:
        raise DimensionMismatchError("grasp model joints disagree with the basis")
    dq_ref = basis.e_hat @ delta_e
    flat = _stable_pinv(model.grasp_matrix, "grasp matrix") @ omega + model.stiffness @ dq_ref
    return flat.reshape(model.n_contacts, 3)


def friction_cone_check(force, mu: float):
    """Per-contact stability: normal-to-tangential ratio must exceed mu.

    ``force`` holds contact-frame 3-vectors along its last axis, z along
    the contact normal. Returns a bool array over the leading axes, or a
    Python bool for a single 3-vector. A positive normal with zero
    tangential is stable (infinite ratio); a non-positive normal never is.
    """
    if not 0.0 < mu < np.inf:
        raise InvalidInputError(f"friction coefficient mu must be positive and finite, got {mu!r}")
    f = float_array(force, "force")
    if f.shape[-1:] != (3,):
        raise DimensionMismatchError("forces must be 3-vectors along the last axis")
    fx, fy, fz = np.moveaxis(f, -1, 0)
    tangential = np.hypot(fx, fy)
    with np.errstate(divide="ignore", invalid="ignore"):
        stable = (fz > 0.0) & ((tangential == 0.0) | (fz / tangential > mu))
    return bool(stable) if stable.ndim == 0 else stable


def motor_currents(model: GraspModel, forces) -> np.ndarray:
    """Least-squares motor currents realizing the requested contact forces."""
    flat = float_array(forces, "forces").reshape(-1)
    if flat.shape[0] != 3 * model.n_contacts:
        raise DimensionMismatchError("forces must supply one 3-vector per contact")
    return _stable_pinv(model.hand_jacobian @ model.motor_constant,
                        "hand Jacobian times motor constant") @ flat


def realized_forces(model: GraspModel, currents) -> np.ndarray:
    """Contact forces produced by a current vector, per contact."""
    flat = model.hand_jacobian @ model.motor_constant @ np.asarray(currents, dtype=float)
    return flat.reshape(model.n_contacts, 3)


def grip_force(forces) -> float:
    """Scalar grip magnitude: mean normal (z) component over contacts."""
    forces = float_array(forces, "forces").reshape(-1, 3)
    return float(forces[:, 2].mean())


def normal_pattern(n_contacts: int) -> np.ndarray:
    """Stacked unit-normal direction: one +z per contact frame."""
    pattern = np.zeros(3 * n_contacts)
    pattern[2::3] = 1.0
    return pattern


def adapt_force(error: float, coupling_pinv: np.ndarray, gain: float = 0.5) -> np.ndarray:
    """Synergy correction reducing the scalar grip error (target minus measured).

    The error is distributed along each contact normal and pulled back
    through ``coupling_pinv``, the pseudo-inverse of the stiffness-basis
    product ``stiffness @ e_hat`` (a least-squares fit), scaled by ``gain``.
    Linear in the error and zero when it is zero.
    """
    if not 0.0 < gain < np.inf:
        raise InvalidInputError(f"gain must be positive and finite, got {gain!r}")
    if not np.isfinite(error):
        raise InvalidInputError(f"error must be finite, got {error!r}")
    return gain * (coupling_pinv @ (float(error) * normal_pattern(coupling_pinv.shape[1] // 3)))
