"""Synthetic desk-scale data: demonstration sets and scene point clouds.

Two scenarios are registered: grasping an egg over a tray, and squeezing a
sauce bottle over a plate. Generators return both the data and the ground
truth that produced it so tests can score recovery against the truth.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, UnknownTaskError

__all__ = [
    "TASKS",
    "task_scenario",
    "nominal_posture",
    "coefficient_curves",
    "generate_synthetic_demos",
    "generate_synthetic_scene",
    "svm_training_fixture",
    "object_points",
]

TASKS = ("egg", "ketchup")

# Per-task scenario constants: hand geometry, synergy-space waypoints for the
# grasp and manipulation phases, grip-force regulation band, and the scene
# object layout. Waypoint values are the coordinates the simulated tasks
# steer through; forces in newtons, lengths in meters, masses in kilograms.
_NOMINAL_POSTURE = np.array([0.10, 0.15, 0.10, 0.15, 0.20, 0.10])

_SCENARIOS = {
    "egg": {
        # pre-shaping excursion sized so the coefficient cross-covariance is
        # zero and the fitted synergy axes line up with the hand directions
        "preshape_e": np.array([0.3711, 0.2621]),
        "grasp_time": 0.4,
        "grasp_e": np.array([-0.163, 0.231]),
        "manip_start_time": 0.6,
        "manip_start_e": np.array([-0.154, 0.242]),
        "manip_end_e": np.array([-0.090, 0.273]),
        "style_scales": (0.05, 0.10),
        "force_band": (2.38, 3.16),
        "mu": 0.64,
        "object_mass": 0.068,
        "target_label": "egg",
        "other_label": "tray",
        "objects": {
            "egg": {"kind": "ellipsoid", "axes": (0.022, 0.022, 0.030),
                    "center_xy": (0.10, 0.05), "points": 400},
            "tray": {"kind": "tray", "size": (0.14, 0.10, 0.045),
                     "center_xy": (-0.08, -0.06), "spacing": 0.008},
        },
    },
    "ketchup": {
        "preshape_e": np.array([0.2791, -0.1419]),
        "grasp_time": 0.4,
        "grasp_e": np.array([0.144, 0.283]),
        "manip_start_time": 0.6,
        "manip_start_e": np.array([0.152, 0.293]),
        "manip_end_e": np.array([0.311, 0.486]),
        "style_scales": (0.26, 0.05),
        "force_band": (2.38, 4.26),
        "mu": 0.71,
        "object_mass": 0.117,
        "target_label": "bottle",
        "other_label": "plate",
        "objects": {
            "bottle": {"kind": "cylinder", "radius": 0.030, "height": 0.150,
                       "center_xy": (0.09, 0.00), "points": (26, 18)},
            "plate": {"kind": "disc", "radius": 0.085,
                      "center_xy": (-0.10, 0.02), "spacing": 0.008},
        },
    },
}

TABLE_SIDE = 0.5
TABLE_GRID = 40
OBJECT_CLEARANCE = 0.012  # objects hover above the table so plane inliers stay clean


def task_scenario(task: str) -> dict:
    if task not in _SCENARIOS:
        raise UnknownTaskError(f"unknown task {task!r}; choose from {TASKS}")
    return _SCENARIOS[task]


def nominal_posture() -> np.ndarray:
    """The hand's rest posture; demonstrations are centered on it."""
    return _NOMINAL_POSTURE.copy()


def _hand_directions():
    """Two orthonormal joint-space directions spanned by the demonstrations.

    The first closes proximal and medial joints of all fingers together; the
    second moves thumb and index in opposition.
    """
    d1 = np.array([1.0, 1.0, 1.0, 1.0, 0.5, 0.5])
    d1 /= np.linalg.norm(d1)
    d2 = np.array([1.0, -1.0, 0.0, 0.0, 1.0, -1.0])
    d2 -= (d2 @ d1) * d1
    d2 /= np.linalg.norm(d2)
    return d1, d2


def smoothstep(u):
    """Cubic ease ``3u^2 - 2u^3`` from 0 at u=0 to 1 at u=1."""
    return u * u * (3.0 - 2.0 * u)


def coefficient_curves(task: str, times) -> np.ndarray:
    """Ground-truth synergy coefficients along a normalized time grid.

    Piecewise smoothstep through the task waypoints: neutral, a held
    pre-shaping excursion, grasp, manipulation start, manipulation end.
    Monotone per segment in each coordinate.
    """
    sc = task_scenario(task)
    times = np.asarray(times, dtype=float)
    knots = np.array([0.0, 0.12, 0.28, sc["grasp_time"], sc["manip_start_time"], 1.0])
    values = np.vstack([
        np.zeros(2), sc["preshape_e"], sc["preshape_e"],
        sc["grasp_e"], sc["manip_start_e"], sc["manip_end_e"],
    ])
    out = np.empty((times.shape[0], 2))
    for i, t in enumerate(times):
        seg = min(int(np.searchsorted(knots, t, side="right")) - 1, len(knots) - 2)
        seg = max(seg, 0)
        u = (t - knots[seg]) / (knots[seg + 1] - knots[seg])
        out[i] = values[seg] + (values[seg + 1] - values[seg]) * smoothstep(np.clip(u, 0.0, 1.0))
    return out


def _style_offsets(count, scales):
    """Deterministic zero-mean per-demo grip-style offsets.

    Orthogonal cosine/sine patterns over the demo index with unit sample
    variance, so the demo set spans both synergy directions with a fixed,
    seed-independent split.
    """
    k = np.arange(count)
    u1 = np.sqrt(2.0) * np.cos(2.0 * np.pi * (k + 0.5) / count)
    u2 = np.sqrt(2.0) * np.sin(2.0 * np.pi * (k + 0.5) / count)
    return np.column_stack([scales[0] * u1, scales[1] * u2])


def generate_synthetic_demos(task: str, count: int = 8, noise: float = 0.004,
                             seed: int = 7, samples_per_demo: int = 40):
    """Joint-space demonstrations for a task, plus the generating truth.

    Each demo is a ``(times, angles)`` pair with its own duration; angles
    follow the task coefficient curves along the two ground-truth directions,
    shifted by a per-demo grip-style offset, with additive Gaussian noise on
    top. At ``noise = 0`` the demos equal ``truth["clean_demos"]`` exactly.
    """
    sc = task_scenario(task)
    if count < 2:
        raise InvalidInputError("need at least 2 demonstrations")
    d1, d2 = _hand_directions()
    rng = np.random.default_rng(seed)
    demos = []
    grid = np.linspace(0.0, 1.0, samples_per_demo)
    coeffs = coefficient_curves(task, grid)
    offsets = _style_offsets(count, sc["style_scales"])
    directions = np.vstack([d1, d2])
    clean_demos = []
    for k in range(count):
        duration = 4.0 + 0.5 * k
        times = grid * duration
        clean = _NOMINAL_POSTURE[None, :] + (coeffs + offsets[k][None, :]) @ directions
        clean_demos.append(clean)
        angles = clean + noise * rng.standard_normal(clean.shape)
        demos.append((times, angles))
    truth = {
        "directions": directions,
        "theta0": _NOMINAL_POSTURE.copy(),
        "grid": grid,
        "coefficients": coeffs,
        "style_offsets": offsets,
        "clean_demos": clean_demos,
        "scenario": sc,
    }
    return demos, truth


def _fibonacci_ellipsoid(axes, center, n):
    golden = np.pi * (3.0 - np.sqrt(5.0))
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = golden * i
    unit = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return unit * np.asarray(axes)[None, :] + np.asarray(center)[None, :]


def _grid_rect(u_lo, u_hi, v_lo, v_hi, spacing):
    nu = max(int(round((u_hi - u_lo) / spacing)) + 1, 2)
    nv = max(int(round((v_hi - v_lo) / spacing)) + 1, 2)
    u, v = np.meshgrid(np.linspace(u_lo, u_hi, nu), np.linspace(v_lo, v_hi, nv))
    return u.ravel(), v.ravel()


def _tray_points(size, center_xy, spacing, z0):
    sx, sy, sz = size
    cx, cy = center_xy
    pts = []
    u, v = _grid_rect(-sx / 2, sx / 2, -sy / 2, sy / 2, spacing)
    pts.append(np.column_stack([cx + u, cy + v, np.full(u.shape, z0)]))
    u, w = _grid_rect(-sx / 2, sx / 2, 0.0, sz, spacing)
    for sign in (-1.0, 1.0):
        pts.append(np.column_stack([cx + u, np.full(u.shape, cy + sign * sy / 2), z0 + w]))
    v, w = _grid_rect(-sy / 2, sy / 2, 0.0, sz, spacing)
    for sign in (-1.0, 1.0):
        pts.append(np.column_stack([np.full(v.shape, cx + sign * sx / 2), cy + v, z0 + w]))
    return np.vstack(pts)


def _cylinder_points(radius, height, center_xy, z0, counts):
    n_theta, n_z = counts
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    z = np.linspace(0.0, height, n_z)
    tt, zz = np.meshgrid(theta, z)
    side = np.column_stack([
        center_xy[0] + radius * np.cos(tt.ravel()),
        center_xy[1] + radius * np.sin(tt.ravel()),
        z0 + zz.ravel(),
    ])
    cap = _disc_points(radius, center_xy, z0 + height, spacing=2.0 * np.pi * radius / n_theta)
    return np.vstack([side, cap])


def _disc_points(radius, center_xy, z, spacing):
    rings = [np.array([[center_xy[0], center_xy[1], z]])]
    n_rings = max(int(round(radius / spacing)), 1)
    for k in range(1, n_rings + 1):
        r = radius * k / n_rings
        n = max(int(round(2.0 * np.pi * r / spacing)), 6)
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        rings.append(np.column_stack([
            center_xy[0] + r * np.cos(theta),
            center_xy[1] + r * np.sin(theta),
            np.full(n, z),
        ]))
    return np.vstack(rings)


def object_points(spec):
    z0 = OBJECT_CLEARANCE
    if spec["kind"] == "ellipsoid":
        axes = spec["axes"]
        center = (*spec["center_xy"], z0 + axes[2])
        return _fibonacci_ellipsoid(axes, center, spec["points"])
    if spec["kind"] == "tray":
        return _tray_points(spec["size"], spec["center_xy"], spec["spacing"], z0)
    if spec["kind"] == "cylinder":
        return _cylinder_points(spec["radius"], spec["height"], spec["center_xy"], z0,
                                spec["points"])
    if spec["kind"] == "disc":
        return _disc_points(spec["radius"], spec["center_xy"], z0, spec["spacing"])
    raise UnknownTaskError(f"unknown object kind {spec['kind']!r}")


def generate_synthetic_scene(task: str, seed: int = 11, noise: float = 0.0008):
    """Table-top scene cloud plus ground-truth object annotations.

    The table is a jittered grid at z = 0; each task object is sampled on
    its surface, hovering ``OBJECT_CLEARANCE`` above the table so that plane
    inliers and object points are separable at the segmentation threshold.

    Returns ``(cloud, annotations)``; annotations list one record per object
    with its label, noiseless centroid, extents, and index range into the
    cloud.
    """
    sc = task_scenario(task)
    rng = np.random.default_rng(seed)
    xs, ys = _grid_rect(-TABLE_SIDE / 2, TABLE_SIDE / 2, -TABLE_SIDE / 2, TABLE_SIDE / 2,
                        TABLE_SIDE / (TABLE_GRID - 1))
    table = np.column_stack([xs, ys, np.zeros(xs.shape)])
    parts = [table]
    annotations = []
    start = table.shape[0]
    for label in sorted(sc["objects"]):
        clean = object_points(sc["objects"][label])
        annotations.append({
            "label": label,
            "centroid": clean.mean(axis=0).tolist(),
            "extents": (clean.max(axis=0) - clean.min(axis=0)).tolist(),
            "start": int(start),
            "count": int(clean.shape[0]),
        })
        parts.append(clean)
        start += clean.shape[0]
    cloud = np.vstack(parts)
    cloud = cloud + noise * rng.standard_normal(cloud.shape)
    meta = {
        "task": task,
        "seed": int(seed),
        "noise": float(noise),
        "table_points": int(table.shape[0]),
        "objects": annotations,
    }
    return cloud, meta


def svm_training_fixture(task: str, seed: int = 13, instances_per_class: int = 24):
    """Labeled feature vectors from size-jittered object instances.

    Each instance is a standalone sampled object with its dimensions scaled
    by up to +-10 percent; features follow the cluster featurization
    (extents, covariance spectrum, point count).
    """
    from .perception import Cluster, extract_features

    sc = task_scenario(task)
    rng = np.random.default_rng(seed)
    features, labels = [], []
    for label in sorted(sc["objects"]):
        spec = dict(sc["objects"][label])
        for _ in range(instances_per_class):
            jitter = 1.0 + 0.1 * rng.uniform(-1.0, 1.0)
            jittered = dict(spec)
            if spec["kind"] == "ellipsoid":
                jittered["axes"] = tuple(a * jitter for a in spec["axes"])
            elif spec["kind"] == "tray":
                jittered["size"] = tuple(s * jitter for s in spec["size"])
            elif spec["kind"] == "cylinder":
                jittered["radius"] = spec["radius"] * jitter
                jittered["height"] = spec["height"] * jitter
            elif spec["kind"] == "disc":
                jittered["radius"] = spec["radius"] * jitter
            pts = object_points(jittered)
            pts = pts + 0.0008 * rng.standard_normal(pts.shape)
            cluster = Cluster(indices=np.arange(pts.shape[0]), cloud=pts)
            features.append(extract_features(cluster))
            labels.append(label)
    return np.vstack(features), labels
