"""Dense table-top scenes and density-matched SVM fixtures for the benchmark.

Built from the public ``synthetic.object_points`` / ``task_scenario`` with
finer sampling, so perception sees larger clouds than the library's own
generator produces. Nothing in ``synkit.synthetic`` is modified.
"""
from __future__ import annotations

import numpy as np

from synkit import perception, synthetic

SCENE_NOISE = 0.0008  # the library generator's default sensor noise
TABLE_SIDE = 0.5


def dense_spec(spec, density):
    """An object spec sampled ``density`` times finer along each surface axis."""
    out = dict(spec)
    if spec["kind"] == "ellipsoid":
        out["points"] = int(round(spec["points"] * density * density))
    elif spec["kind"] in ("tray", "disc"):
        out["spacing"] = spec["spacing"] / density
    elif spec["kind"] == "cylinder":
        n_theta, n_z = spec["points"]
        out["points"] = (int(round(n_theta * density)), int(round(n_z * density)))
    return out


def _jittered(spec, jitter):
    """The size-jittered instance the library's SVM fixture draws."""
    out = dict(spec)
    if spec["kind"] == "ellipsoid":
        out["axes"] = tuple(a * jitter for a in spec["axes"])
    elif spec["kind"] == "tray":
        out["size"] = tuple(s * jitter for s in spec["size"])
    elif spec["kind"] == "cylinder":
        out["radius"] = spec["radius"] * jitter
        out["height"] = spec["height"] * jitter
    elif spec["kind"] == "disc":
        out["radius"] = spec["radius"] * jitter
    return out


def dense_scene(task, density, table_grid, seed):
    """Scene cloud plus ground truth: jittered table grid and dense objects.

    Returns ``(cloud, truth)`` where truth maps each object label to its
    noiseless centroid.
    """
    rng = np.random.default_rng(seed)
    axis = np.linspace(-TABLE_SIDE / 2, TABLE_SIDE / 2, table_grid)
    xs, ys = np.meshgrid(axis, axis)
    parts = [np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])]
    truth = {}
    objects = synthetic.task_scenario(task)["objects"]
    for label in sorted(objects):
        clean = synthetic.object_points(dense_spec(objects[label], density))
        truth[label] = clean.mean(axis=0)
        parts.append(clean)
    cloud = np.vstack(parts)
    return cloud + SCENE_NOISE * rng.standard_normal(cloud.shape), truth


def dense_svm(task, density, seed, instances_per_class=24):
    """Linear SVM trained on size-jittered instances at the scene's density."""
    rng = np.random.default_rng(seed)
    objects = synthetic.task_scenario(task)["objects"]
    features, labels = [], []
    for label in sorted(objects):
        spec = dense_spec(objects[label], density)
        for _ in range(instances_per_class):
            pts = synthetic.object_points(_jittered(spec, 1.0 + 0.1 * rng.uniform(-1.0, 1.0)))
            pts = pts + SCENE_NOISE * rng.standard_normal(pts.shape)
            cluster = perception.Cluster(indices=np.arange(pts.shape[0]), cloud=pts)
            features.append(perception.extract_features(cluster))
            labels.append(label)
    return perception.svm_train(np.vstack(features), labels, seed=seed)
