"""Contact-force modeling and tactile grip adaptation.

Contact forces balancing a grasped object are the pseudo-inverse wrench
distribution plus a stiffness response to synergy-space displacements.
Stability is the per-contact friction-cone ratio test; forces map to motor
currents through the hand Jacobian and motor constant, and grip errors map
back to synergy corrections.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import COND_LIMIT, DimensionMismatchError, LengthMismatchError, RankDeficientError
from .synergy import SynergyBasis

__all__ = [
    "GraspModel",
    "ForceProfile",
    "contact_forces",
    "friction_cone_check",
    "motor_currents",
    "adapt_force",
    "grip_force",
]


@dataclass(frozen=True)
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
        g = np.asarray(self.grasp_matrix, dtype=float)
        xi = np.asarray(self.stiffness, dtype=float)
        jh = np.asarray(self.hand_jacobian, dtype=float)
        km = np.asarray(self.motor_constant, dtype=float)
        if g.ndim != 2 or g.shape[0] != 6 or g.shape[1] % 3 != 0:
            raise DimensionMismatchError("grasp matrix must be 6 x 3*n_c")
        if xi.shape[0] != g.shape[1]:
            raise DimensionMismatchError("stiffness rows must match contact dimension")
        if jh.shape[0] != g.shape[1]:
            raise DimensionMismatchError("hand Jacobian rows must match contact dimension")
        if km.shape != (jh.shape[1], jh.shape[1]):
            raise DimensionMismatchError("motor constant must be square over the joints")
        for name, m in (("grasp_matrix", g), ("stiffness", xi),
                        ("hand_jacobian", jh), ("motor_constant", km)):
            if not np.isfinite(m).all():
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "grasp_matrix", g.copy())
        object.__setattr__(self, "stiffness", xi.copy())
        object.__setattr__(self, "hand_jacobian", jh.copy())
        object.__setattr__(self, "motor_constant", km.copy())

    @property
    def n_contacts(self):
        return self.grasp_matrix.shape[1] // 3

    @property
    def joint_dim(self):
        return self.stiffness.shape[1]

    def to_json(self, path):
        payload = {
            "grasp_matrix": self.grasp_matrix.tolist(),
            "stiffness": self.stiffness.tolist(),
            "hand_jacobian": self.hand_jacobian.tolist(),
            "motor_constant": self.motor_constant.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        return cls(
            grasp_matrix=np.asarray(payload["grasp_matrix"], dtype=float),
            stiffness=np.asarray(payload["stiffness"], dtype=float),
            hand_jacobian=np.asarray(payload["hand_jacobian"], dtype=float),
            motor_constant=np.asarray(payload["motor_constant"], dtype=float),
        )


@dataclass(frozen=True)
class ForceProfile:
    """Scalar grip-force magnitude over time, plus its nominal ramp rate."""

    times: np.ndarray
    forces: np.ndarray
    ramp_rate: float = 0.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        forces = np.asarray(self.forces, dtype=float)
        if times.shape != forces.shape or times.ndim != 1:
            raise DimensionMismatchError("times and forces must be matching 1-D arrays")
        if times.shape[0] > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("profile timestamps must increase")
        object.__setattr__(self, "times", times.copy())
        object.__setattr__(self, "forces", forces.copy())

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,force\n")
            for t, f in zip(self.times, self.forces):
                fh.write(f"{float(t)!r},{float(f)!r}\n")

    @classmethod
    def from_csv(cls, path, ramp_rate: float = 0.0):
        times, forces = [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                cells = [c.strip() for c in row if c.strip()]
                if not cells:
                    continue
                try:
                    t, f = float(cells[0]), float(cells[1])
                except (ValueError, IndexError):
                    if times:
                        raise LengthMismatchError(f"bad force profile row in {path}")
                    continue  # header
                times.append(t)
                forces.append(f)
        return cls(times=np.asarray(times), forces=np.asarray(forces), ramp_rate=ramp_rate)


def _check_pinv(matrix, name):
    if np.linalg.cond(matrix) > COND_LIMIT:
        raise RankDeficientError(f"{name} pseudo-inverse is unstable (condition > 1e12)")


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
    _check_pinv(model.grasp_matrix, "grasp matrix")
    dq_ref = basis.e_hat @ delta_e
    flat = np.linalg.pinv(model.grasp_matrix) @ omega + model.stiffness @ dq_ref
    return flat.reshape(model.n_contacts, 3)


def friction_cone_check(force, mu: float) -> bool:
    """Per-contact stability: normal-to-tangential ratio must exceed mu.

    ``force`` is a contact-frame 3-vector with z along the contact normal.
    A positive normal with zero tangential is stable (infinite ratio); a
    non-positive normal never is.
    """
    if mu <= 0.0:
        raise ValueError("friction coefficient must be positive")
    fx, fy, fz = (float(v) for v in np.asarray(force, dtype=float).reshape(3))
    if fz <= 0.0:
        return False
    tangential = float(np.hypot(fx, fy))
    if tangential == 0.0:
        return True
    return bool(fz / tangential > mu)


def motor_currents(model: GraspModel, forces) -> np.ndarray:
    """Least-squares motor currents realizing the requested contact forces."""
    flat = np.asarray(forces, dtype=float).reshape(-1)
    if flat.shape[0] != 3 * model.n_contacts:
        raise DimensionMismatchError("forces must supply one 3-vector per contact")
    a = model.hand_jacobian @ model.motor_constant
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 0.0 or sv[0] / sv[-1] > COND_LIMIT:
        raise RankDeficientError("hand Jacobian times motor constant is rank deficient")
    return np.linalg.pinv(a) @ flat


def realized_forces(model: GraspModel, currents) -> np.ndarray:
    """Contact forces produced by a current vector, per contact."""
    flat = model.hand_jacobian @ model.motor_constant @ np.asarray(currents, dtype=float)
    return flat.reshape(model.n_contacts, 3)


def grip_force(forces) -> float:
    """Scalar grip magnitude: mean normal (z) component over contacts."""
    forces = np.asarray(forces, dtype=float).reshape(-1, 3)
    return float(forces[:, 2].mean())


def normal_pattern(n_contacts: int) -> np.ndarray:
    """Stacked unit-normal direction: one +z per contact frame."""
    pattern = np.zeros(3 * n_contacts)
    pattern[2::3] = 1.0
    return pattern


def adapt_force(target: ForceProfile, measured: ForceProfile, model: GraspModel,
                basis: SynergyBasis, gain: float = 0.5) -> np.ndarray:
    """Synergy correction reducing the gap between target and measured grip.

    The profiles must share timestamps; the scalar error at the latest
    common time is distributed along each contact normal and pulled back
    through the stiffness-basis product by least squares, scaled by ``gain``.
    Linear in the force error and zero when the profiles match.
    """
    if gain <= 0.0:
        raise ValueError("gain must be positive")
    if target.times.shape != measured.times.shape or not np.allclose(
        target.times, measured.times, atol=1e-12
    ):
        raise DimensionMismatchError("force profiles must be time-aligned")
    if basis.joint_dim != model.joint_dim:
        raise DimensionMismatchError("grasp model joints disagree with the basis")
    error = float(target.forces[-1] - measured.forces[-1])
    desired_change = error * normal_pattern(model.n_contacts)
    coupling = model.stiffness @ basis.e_hat
    return gain * (np.linalg.pinv(coupling) @ desired_change)
