"""Trajectory reproduction metrics and the kernel comparison benchmark."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import dump_json, finite_array, float_array, format_cells, write_csv
from .encoding import ReferenceTrajectory
from .errors import DimensionMismatchError, LengthMismatchError, ZeroVarianceError
from .kmp import apply_via_points, kmp_fit, kmp_predict

__all__ = ["MetricReport", "pearson_r", "rmse", "component_scores", "benchmark_kernels"]


def pearson_r(actual, predicted) -> float:
    """Correlation coefficient between two equal-length sequences.

    Standard Pearson definition: centered cross moment over the product of
    standard deviations. Invariant under positive affine transforms of
    either argument; raises ZeroVarianceError when either input is constant.
    """
    a = float_array(actual, "actual").reshape(-1)
    p = float_array(predicted, "predicted").reshape(-1)
    if a.shape != p.shape:
        raise LengthMismatchError(f"length mismatch: {a.shape[0]} vs {p.shape[0]}")
    if a.shape[0] < 2:
        raise LengthMismatchError("need at least 2 points for a correlation")
    da = a - a.mean()
    dp = p - p.mean()
    denom = np.sqrt(np.sum(da**2)) * np.sqrt(np.sum(dp**2))
    if denom == 0.0:
        raise ZeroVarianceError("constant sequence has no correlation")
    return float(np.sum(da * dp) / denom)


def rmse(actual, predicted) -> float:
    """Root mean squared difference between two equal-length sequences."""
    a = float_array(actual, "actual").reshape(-1)
    p = float_array(predicted, "predicted").reshape(-1)
    if a.shape != p.shape:
        raise LengthMismatchError(f"length mismatch: {a.shape[0]} vs {p.shape[0]}")
    if a.shape[0] < 1:
        raise LengthMismatchError("need at least 1 point")
    return float(np.sqrt(np.mean((a - p) ** 2)))


@dataclass(frozen=True)
class MetricReport:
    """Per-kernel reproduction scores plus full provenance to re-run them.

    ``rows`` maps kernel kind to {"R": ..., "rmse": ...}; metadata carries
    the kernel specs, regularization, seed, and dataset id so a report can
    be reproduced bit-identically.
    """

    rows: dict
    kernel_specs: dict
    lam: float
    seed: int
    dataset_id: str

    def to_json(self):
        return dump_json({"rows": self.rows, "kernel_specs": self.kernel_specs,
                          "lambda": self.lam, "seed": self.seed, "dataset_id": self.dataset_id})

    def to_text(self):
        """Fixed-width comparison table, one row per kernel."""
        lines = [
            f"kernel benchmark  dataset={self.dataset_id}  lambda={self.lam}  seed={self.seed}",
            f"{'kernel':<14}{'R':>12}{'rMSE':>12}",
        ]
        for kind in sorted(self.rows):
            row = self.rows[kind]
            lines.append(f"{kind:<14}{row['R']:>12.4f}{row['rmse']:>12.4f}")
        return "\n".join(lines) + "\n"


def component_scores(actual, predicted):
    """Per-component R and rMSE, each (K, S), of a (K, T, S) stack of predicted
    mean arrays against one (T, S) actual mean array.

    Entry (k, j) is ``pearson_r`` and ``rmse`` of column j of ``actual`` and
    ``predicted[k]``, bit for bit: every sum runs along a contiguous row of
    T values, as it does for one column, and the arithmetic is the same.
    """
    a = finite_array(actual, "actual")
    p = finite_array(predicted, "predicted")
    if a.ndim != 2 or p.ndim != 3 or p.shape[1:] != a.shape:
        raise LengthMismatchError(f"shape mismatch: {a.shape} vs {p.shape[1:]} per prediction")
    if a.shape[0] < 2:
        raise LengthMismatchError("need at least 2 points for a correlation")
    a = np.ascontiguousarray(a.T)  # (S, T)
    p = np.ascontiguousarray(p.transpose(0, 2, 1))  # (K, S, T)
    da = a - a.mean(axis=-1, keepdims=True)
    dp = p - p.mean(axis=-1, keepdims=True)
    denom = np.sqrt(np.sum(da**2, axis=-1)) * np.sqrt(np.sum(dp**2, axis=-1))
    if (denom == 0.0).any():
        raise ZeroVarianceError("constant sequence has no correlation")
    return np.sum(da * dp, axis=-1) / denom, np.sqrt(np.mean((a - p) ** 2, axis=-1))


def benchmark_kernels(reference: ReferenceTrajectory, adaptations, kernel_specs, lam: float,
                      seed: int, grid, actual: ReferenceTrajectory, dataset_id: str,
                      dump_dir) -> MetricReport:
    """Compare kernels on reproduction plus adaptation of a reference.

    Every adaptation (a list of via-points, one per object instance; ``[]``
    reproduces the reference) is applied to the reference once. For each
    kernel, fit on every adapted reference, predict the mean trajectory on
    ``grid``, and score it against the ``actual`` trajectory with
    per-component R and rMSE, averaged over components and adaptations.
    Adapted references with the same times share one fit: KMP's block kernel
    ``K kron I_S`` acts on every output column alike, so their means are
    solved side by side in one system.

    Every predicted trajectory is written to ``dump_dir`` as CSV, once every
    kernel has been fitted, so a failed fit writes none.
    """
    specs, adaptations = list(kernel_specs), list(adaptations)
    if not specs or not adaptations or len(reference) == 0:
        raise LengthMismatchError(
            "need a nonempty reference, at least one adaptation and at least one kernel")
    grid = np.asarray(grid, dtype=float)
    if actual.means.shape[0] != grid.shape[0]:
        raise LengthMismatchError("actual trajectory must live on the evaluation grid")
    if actual.synergy_dim != reference.synergy_dim:
        raise DimensionMismatchError("actual and reference trajectories differ in dimension")

    adapted = [apply_via_points(reference, vias) for vias in adaptations]
    groups = {}
    for idx, ref in enumerate(adapted):
        groups.setdefault(ref.times.tobytes(), []).append(idx)
    systems = [(members, _side_by_side([adapted[i] for i in members]))
               for members in groups.values()]

    q, s = grid.shape[0], reference.synergy_dim
    rows, trajectories = {}, {}
    for spec in specs:
        predicted = np.empty((len(adapted), q, s))
        for members, stacked in systems:
            means = kmp_predict(kmp_fit(stacked, spec, lam), grid)
            predicted[members] = means.reshape(q, len(members), s).transpose(1, 0, 2)
        try:
            r, e = component_scores(actual.means, predicted)
        except ZeroVarianceError as exc:
            raise ZeroVarianceError(f"{spec!r} at lambda={lam!r}: {exc}") from None
        rows[spec.kind] = {"R": float(np.mean(np.mean(r, axis=1))),
                           "rmse": float(np.mean(np.mean(e, axis=1)))}
        for idx, means in enumerate(predicted):
            trajectories[f"trajectory_{spec.kind}_adaptation{idx}.csv"] = means

    header = (["t"] + [f"actual{j + 1}" for j in range(s)]
              + [f"predicted{j + 1}" for j in range(s)])
    width, shared = len(header), format_cells(np.column_stack([grid, actual.means]))
    cells = [""] * (q * width)
    for name, means in trajectories.items():
        predicted = format_cells(means)
        for j in range(width):
            cells[j::width] = shared[j::s + 1] if j <= s else predicted[j - s - 1::s]
        write_csv(Path(dump_dir) / name, header, cells)
    return MetricReport(
        rows=rows,
        kernel_specs={spec.kind: spec.to_dict() for spec in specs},
        lam=lam,
        seed=seed,
        dataset_id=dataset_id,
    )


def _side_by_side(references) -> ReferenceTrajectory:
    """One reference on the given ones' shared times: their means side by side,
    (N, k*S), and their covariances block-diagonal, (N, k*S, k*S)."""
    k = len(references)
    n, s = references[0].means.shape
    covs = np.zeros((n, k, s, k, s))
    diagonal = np.arange(k)
    covs[:, diagonal, :, diagonal, :] = np.stack([ref.covariances for ref in references])
    return ReferenceTrajectory(times=references[0].times,
                               means=np.hstack([ref.means for ref in references]),
                               covariances=covs.reshape(n, k * s, k * s))
