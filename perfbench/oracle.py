"""Plain dense-solve oracle for the kernel comparison, written from scratch.

Recomputes what ``evaluation.benchmark_kernels`` reports from the kernel
formulas alone: via-point insertion, the stacked ``(K kron I + lambda I)``
mean system solved densely, prediction on the grid, and per-component
Pearson R and rMSE averaged over components and adaptations.
"""
from __future__ import annotations

import numpy as np


def kernel(kind, l, sigma2, alpha, t1, t2):
    dt = np.abs(np.subtract.outer(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)))
    if kind == "exponential":
        return sigma2 * np.exp(-dt / l)
    if kind == "gaussian":
        return sigma2 * np.exp(-dt**2 / (2.0 * l * l))
    return sigma2 * (1.0 + dt**2 / (2.0 * alpha * l * l)) ** (-alpha)


def insert_vias(times, means, vias):
    """Replace the nearest point within half a grid step, else insert."""
    times, means = list(times), [np.asarray(m, dtype=float) for m in means]
    for t_star, desired in vias:
        radius = 0.5 * float(np.median(np.diff(times)))
        gaps = [abs(t - t_star) for t in times]
        k = int(np.argmin(gaps))
        if gaps[k] <= radius:
            times[k], means[k] = t_star, np.asarray(desired, dtype=float)
        else:
            times.append(t_star)
            means.append(np.asarray(desired, dtype=float))
        order = sorted(range(len(times)), key=lambda i: times[i])
        times, means = [times[i] for i in order], [means[i] for i in order]
    return np.asarray(times), np.vstack(means)


def predict_means(times, means, spec, lam, grid):
    n, s = means.shape
    big = np.kron(kernel(spec["kind"], spec["l"], spec["sigma2"], spec.get("alpha"),
                         times, times), np.eye(s))
    w = np.linalg.solve(big + lam * np.eye(n * s), means.reshape(n * s))
    cross = np.kron(kernel(spec["kind"], spec["l"], spec["sigma2"], spec.get("alpha"),
                           grid, times), np.eye(s))
    return (cross @ w).reshape(len(grid), s)


def score(actual, predicted):
    r, e = [], []
    for j in range(actual.shape[1]):
        a = actual[:, j] - actual[:, j].mean()
        p = predicted[:, j] - predicted[:, j].mean()
        r.append(float(a @ p / np.sqrt((a @ a) * (p @ p))))
        e.append(float(np.sqrt(np.mean((actual[:, j] - predicted[:, j]) ** 2))))
    return float(np.mean(r)), float(np.mean(e))
