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
SAMPLES_PER_DEMO = 40
INSTANCES_PER_CLASS = 24  # object instances per label in svm_training_fixture


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
    seg = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, len(knots) - 2)
    u = np.clip((times - knots[seg]) / (knots[seg + 1] - knots[seg]), 0.0, 1.0)
    return values[seg] + (values[seg + 1] - values[seg]) * smoothstep(u)[:, None]


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


def generate_synthetic_demos(task: str, count: int = 8, noise: float = 0.004, seed: int = 7):
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
    grid = np.linspace(0.0, 1.0, SAMPLES_PER_DEMO)
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
        "clean_demos": clean_demos,
    }
    return demos, truth


def _segments(sizes):
    """Segment and within-segment index of every element of ragged segments."""
    segment = np.repeat(np.arange(sizes.size), sizes)
    return segment, np.arange(segment.size) - (np.cumsum(sizes) - sizes)[segment]


def _linspace_at(k, n, lo, hi):
    """Sample ``k`` of ``np.linspace(lo, hi, n)``, elementwise, with numpy's bytes.

    numpy's formula: ``k * ((hi - lo) / (n - 1)) + lo``, and the last of two
    or more samples is exactly ``hi``.
    """
    return np.where((k > 0) & (k == n - 1), hi, k * ((hi - lo) / np.maximum(n - 1, 1)) + lo)


def _disc_rings(radius, spacing):
    """Ring, radius and sample count of sampled discs, disc by disc.

    Disc i has ``max(round(radius[i] / spacing[i]), 1)`` rings evenly spaced
    out to its rim after a one-sample ring of radius 0 at its centre; a ring
    of radius r has ``max(round(2 pi r / spacing), 6)`` samples. Returns
    ``(disc, r, size)``, one entry per ring.
    """
    n_rings = np.maximum(np.rint(radius / spacing).astype(int), 1)
    disc, k = _segments(n_rings + 1)
    r = radius[disc] * k / n_rings[disc]
    size = np.maximum(np.rint(2.0 * np.pi * r / spacing[disc]).astype(int), 6)
    return disc, r, np.where(k == 0, 1, size)


def _instances(spec, jitters):
    """Every size-jittered instance of one object, as one ragged cloud.

    Instance i is the object with each dimension scaled by ``jitters[i]``;
    ``object_points`` is the one-instance case ``jitters=[1.0]``. Returns
    ``(points, counts)``: the instances' points one after another, and the
    point count of each.

    - ellipsoid: a Fibonacci sphere of ``points`` samples, scaled to the axes;
    - tray: the floor and the four walls of an open box, each a grid at about
      ``spacing`` (floor x fastest, walls along z slowest);
    - disc: concentric rings at about ``spacing`` (see ``_disc_rings``);
    - cylinder: ``points = (n_theta, n_z)`` side rings from the bottom up,
      then a disc cap with the side's angular spacing.
    """
    jitters = np.asarray(jitters, dtype=float)
    k = jitters.size
    kind, center_xy, z0 = spec["kind"], spec["center_xy"], OBJECT_CLEARANCE
    if kind == "ellipsoid":
        n = spec["points"]
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        phi = np.pi * (3.0 - np.sqrt(5.0)) * i
        unit = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
        axes = np.multiply.outer(jitters, spec["axes"])
        center = np.column_stack([np.full(k, center_xy[0]), np.full(k, center_xy[1]),
                                  z0 + axes[:, 2]])
        points = unit * axes[:, None, :] + center[:, None, :]
        return points.reshape(-1, 3), np.full(k, n)
    if kind == "tray":
        sx, sy, sz = np.multiply.outer(spec["size"], jitters)
        lo = np.column_stack([-sx / 2, -sy / 2, np.zeros(k)])
        hi = np.column_stack([sx / 2, sy / 2, sz])
        # samples along each axis at about the spacing, at least two
        n = np.maximum(np.rint((hi - lo) / spec["spacing"]).astype(int) + 1, 2)
        # each instance's linspace along x, y and z, padded to the longest
        # one; entries past an instance's own length are masked out below
        index = [np.arange(m) for m in n.max(axis=0)]
        axes = [_linspace_at(i, n[:, a, None], lo[:, a, None], hi[:, a, None])
                for a, i in enumerate(index)]
        valid = [i < n[:, a, None] for a, i in enumerate(index)]
        # the floor, then the walls at low and high y and at low and high x:
        # a grid on a fast and a slow axis, pinned to one end of the third
        faces = ((0, 1, 2, lo), (0, 2, 1, lo), (0, 2, 1, hi), (1, 2, 0, lo), (1, 2, 0, hi))
        shapes = [(index[slow].size, index[fast].size) for fast, slow, _, _ in faces]
        ends = np.cumsum([rows * cols for rows, cols in shapes])
        coords = np.empty((3, k, ends[-1]))
        mask = np.empty((k, ends[-1]), dtype=bool)
        for (fast, slow, pinned, end), shape, stop in zip(faces, shapes, ends):
            block = slice(stop - shape[0] * shape[1], stop)
            face = coords[:, :, block].reshape(3, k, *shape)
            face[fast] = axes[fast][:, None, :]
            face[slow] = axes[slow][:, :, None]
            face[pinned] = end[:, pinned, None, None]
            mask[:, block] = (valid[slow][:, :, None] & valid[fast][:, None, :]).reshape(k, -1)
        origin = (center_xy[0], center_xy[1], z0)
        return np.column_stack([c[mask] + o for c, o in zip(coords, origin)]), mask.sum(axis=1)
    if kind == "disc":
        radius = spec["radius"] * jitters
        disc, r, size = _disc_rings(radius, np.full(k, spec["spacing"]))
        z = np.full(r.size, z0)
    elif kind == "cylinder":
        n_theta, n_z = spec["points"]
        radius, height = spec["radius"] * jitters, spec["height"] * jitters
        cap, cap_r, cap_size = _disc_rings(radius, 2.0 * np.pi * radius / n_theta)
        # each cylinder's side rings, then its cap's rings
        disc = np.concatenate([np.repeat(np.arange(k), n_z), cap])
        order = np.argsort(disc, kind="stable")
        level = np.tile(np.arange(n_z), k)
        r = np.concatenate([np.repeat(radius, n_z), cap_r])[order]
        size = np.concatenate([np.full(k * n_z, n_theta), cap_size])[order]
        z = np.concatenate([z0 + _linspace_at(level, n_z, 0.0, np.repeat(height, n_z)),
                            (z0 + height)[cap]])[order]
        disc = disc[order]
    else:
        raise UnknownTaskError(f"unknown object kind {kind!r}")
    # ring s holds size[s] points of radius r[s] at height z[s], at the angles
    # np.linspace(0, 2 pi, size[s], endpoint=False)
    ring, m = _segments(size)
    theta = m * (2.0 * np.pi / size[ring])
    points = np.column_stack([center_xy[0] + r[ring] * np.cos(theta),
                              center_xy[1] + r[ring] * np.sin(theta), z[ring]])
    return points, np.bincount(disc, weights=size, minlength=k).astype(int)


def object_points(spec):
    """The surface samples of one object spec (see ``_instances``)."""
    return _instances(spec, [1.0])[0]


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
    axis = np.linspace(-TABLE_SIDE / 2, TABLE_SIDE / 2, TABLE_GRID)
    xs, ys = np.meshgrid(axis, axis)
    table = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
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


def svm_training_fixture(task: str, seed: int = 13):
    """Labeled feature vectors from size-jittered object instances.

    Each instance is a standalone sampled object with its dimensions scaled
    by up to +-10 percent, plus Gaussian sensor noise; features follow the
    cluster featurization (extents, covariance spectrum, point count). One
    uniform draw gives every jitter, class by class; the instances of each
    class are built at once, one normal draw gives the noise of all points,
    and every instance is featurized in one segmented call.
    """
    from .perception import _segment_features

    sc = task_scenario(task)
    rng = np.random.default_rng(seed)
    labels = sorted(sc["objects"])
    jitters = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, (len(labels), INSTANCES_PER_CLASS))
    clouds, counts = zip(*(_instances(sc["objects"][label], j)
                           for label, j in zip(labels, jitters)))
    cloud = np.vstack(clouds)
    cloud += 0.0008 * rng.standard_normal(cloud.shape)
    return (_segment_features(cloud, np.concatenate(counts)),
            [label for label in labels for _ in range(INSTANCES_PER_CLASS)])
