"""Desk-scale visual pipeline over 3-D point clouds.

A scene cloud is split into a dominant plane (background) and object
candidates by RANSAC, candidates are grouped by Euclidean clustering,
classified with a linear SVM on simple geometric features, reduced to
centroid poses, and finally mapped into synergy coordinates; the
configured chain of these steps is ``pipeline.detect_objects``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._io import JsonRecord, finite_array, float_array, freeze, text_lines, write_csv
from .errors import (
    DegenerateCloudError,
    DimensionMismatchError,
    InvalidInputError,
    SingleClassError,
    SingularSystemError,
)
from .synergy import SynergyBasis

__all__ = [
    "Cluster",
    "SvmModel",
    "load_cloud",
    "save_cloud",
    "ransac_plane",
    "euclidean_cluster",
    "extract_features",
    "svm_train",
    "svm_classify",
    "estimate_pose",
    "pose_to_synergy",
]

# point pairs distance-tested per vectorized step; bounds clustering memory
_PAIR_CHUNK = 4096
# cells whose neighbours are looked up per vectorized step; bounds clustering memory
_CELL_BLOCK = 4096
# plane-to-point distances per RANSAC scoring step; its distance and mask
# buffers hold 9 bytes per distance, 576 KiB (9 n bytes for a cloud of n > 2^16)
_SCORE_BLOCK = 1 << 16
# most RANSAC samples per fit; all their triples are held at once, ~0.2 GB at the bound
RANSAC_MAX_ITERATIONS = 1_000_000
# largest |coordinate| RANSAC takes: a triple's cross product is at most 8 s^2
# per axis, so the squares its norm sums stay below 192 s^4 < 1.8e308
RANSAC_MAX_SCALE = 1e76


@dataclass(frozen=True, eq=False)
class Cluster:
    """Indices of one connected object candidate within a source cloud."""

    indices: np.ndarray
    cloud: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))
        object.__setattr__(self, "cloud", np.asarray(self.cloud, dtype=float))

    @property
    def points(self) -> np.ndarray:
        return self.cloud[self.indices]

    def __len__(self):
        return self.indices.shape[0]


def load_cloud(path) -> np.ndarray:
    """Read an ASCII cloud: one "x y z" triple per line, '#' comments.

    The file is parsed in bulk; any file the bulk parser rejects (or reads
    with other than three columns) is parsed again line by line, which
    names the offending ``path:lineno``.
    """
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on an empty file
            cloud = np.loadtxt(fh, comments="#", ndmin=2)
    except ValueError:  # also undecodable text
        cloud = _parse_lines(path)
    if cloud.shape[1] != 3:  # rows of another width, or an empty file read as (0, 1)
        cloud = _parse_lines(path)
    return finite_array(cloud, f"{path}: cloud")


def _parse_lines(path) -> np.ndarray:
    """The line-by-line cloud parser behind ``load_cloud``'s error messages."""
    points = []
    for lineno, line in enumerate(text_lines(path), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        cells = body.split()
        if len(cells) != 3:
            raise DimensionMismatchError(f"{path}:{lineno}: expected 3 coordinates")
        try:
            points.append([float(c) for c in cells])
        except ValueError:
            raise DimensionMismatchError(
                f"{path}:{lineno}: non-numeric coordinate in {body!r}") from None
    return np.asarray(points, dtype=float).reshape(-1, 3)


def save_cloud(path, points) -> None:
    """Write (n, 3) points as "x y z" lines of ``repr`` floats, checked before opening."""
    write_csv(path, ("x", "y", "z"), float_array(points, "points"), sep=" ", head=False)


def ransac_plane(cloud, iterations: int = 200, inlier_threshold: float = 0.005,
                 seed: int = 0):
    """Fit the dominant plane by random triple sampling.

    Returns ``((normal, offset), inlier_indices, outlier_indices)``: the
    sampled plane ``normal @ x + offset = 0`` with the most inliers (points
    within the threshold), whose unit normal has a positive largest |entry|.
    Deterministic given the seed: the triples of all iterations come from
    one ``integers`` draw, and a triple that repeats an index is skipped
    with the collinear ones. Only when no drawn triple spans a plane are as
    many triples of distinct indices drawn from the same generator. All
    sampled planes are scored in blocks; ties go to the earliest sample.
    """
    if not 1 <= iterations <= RANSAC_MAX_ITERATIONS:
        raise InvalidInputError(f"iterations must lie in [1, {RANSAC_MAX_ITERATIONS}]")
    if not inlier_threshold > 0.0:
        raise InvalidInputError("inlier_threshold must be positive")
    points = finite_array(cloud, "cloud")
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 3:
        raise DegenerateCloudError("need at least 3 points of dimension 3")
    scale = float(np.max(np.abs(points), initial=1.0))
    if scale > RANSAC_MAX_SCALE:
        raise InvalidInputError(
            f"cloud scale {scale:g} (largest |coordinate|) exceeds {RANSAC_MAX_SCALE:g}, "
            "past which the plane fit overflows")
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    draw = rng.integers(n, size=(iterations, 3))
    for _ in range(2):
        triples = points[draw]
        p1 = triples[:, 0]
        cross = np.cross(triples[:, 1] - p1, triples[:, 2] - p1)
        norm = np.linalg.norm(cross, axis=1)
        candidates = np.flatnonzero(~(norm <= 1e-12 * scale * scale))  # skip collinear triples
        if candidates.size:
            break
        # no drawn triple spans a plane: as many again of distinct indices
        draw = np.array([rng.choice(n, 3, replace=False) for _ in range(iterations)])
    else:
        raise DegenerateCloudError("no non-collinear triple found")
    normals = cross[candidates] / norm[candidates, None]
    offsets = -np.einsum("ij,ij->i", normals, p1[candidates])
    counts = _inlier_counts(points, normals, offsets, inlier_threshold)
    # the first candidate with the most inliers wins; its plane is rebuilt
    # from its triple exactly as a lone candidate computes it
    p1, p2, p3 = triples[candidates[np.argmax(counts)]]
    cross = np.cross(p2 - p1, p3 - p1)
    normal = cross / np.linalg.norm(cross)
    offset = -float(normal @ p1)
    pivot = int(np.argmax(np.abs(normal)))
    if normal[pivot] < 0.0:
        normal, offset = -normal, -offset
    mask = np.abs(points @ normal + offset) <= inlier_threshold
    return (normal, offset), np.flatnonzero(mask), np.flatnonzero(~mask)


def _inlier_counts(points, normals, offsets, threshold):
    """Number of points within ``threshold`` of each plane ``(normals[k], offsets[k])``.

    Blocks of planes are scored against one contiguous (3, n) copy of the
    cloud, which the matmul reads faster than the strided ``points.T``, into
    distance and mask buffers allocated once; each row is counted on its
    own, since ``count_nonzero(axis=1)`` sums the bools through an intp cast.
    """
    n, planes = points.shape[0], normals.shape[0]
    xyz = np.ascontiguousarray(points.T)
    rows = max(1, _SCORE_BLOCK // n)
    distances, mask = np.empty((rows, n)), np.empty((rows, n), dtype=bool)
    counts = np.empty(planes, dtype=np.int64)
    for start in range(0, planes, rows):
        stop = min(start + rows, planes)
        dist, near = distances[:stop - start], mask[:stop - start]
        np.matmul(normals[start:stop], xyz, out=dist)
        dist += offsets[start:stop, None]
        np.abs(dist, out=dist)
        np.less_equal(dist, threshold, out=near)
        counts[start:stop] = [np.count_nonzero(row) for row in near]
    return counts


def _cell_codes(points, side):
    """Integer code of each point's grid cell (side ``side``), plus the code
    ranges ``k + low[r]`` to ``k + high[r]``, one per row ``r``, that hold the
    62 cells within two steps along each axis that follow the cell coded k."""
    cells = np.floor(points / side)
    codes = np.zeros(points.shape[0], dtype=np.int64)
    widths = []
    for axis in range(3):
        values, inverse = np.unique(cells[:, axis], return_inverse=True)
        # cells up to two apart keep their distance and all others are three
        # apart, so a width stays below 3n + 3 however far apart the points lie
        rank = np.concatenate([[0], np.cumsum(np.minimum(np.diff(values), 3))]).astype(np.int64)
        # two spare ranks past the end: a neighbour past either end aliases no cell
        widths.append(int(rank[-1]) + 3)
        codes = codes * widths[-1] + rank[inverse]
    _, wy, wz = widths
    rows = np.array([(dx * wy + dy) * wz for dx in (0, 1, 2) for dy in (-2, -1, 0, 1, 2)
                     if (dx, dy) > (0, 0)])
    return codes, np.concatenate([[1], rows - 2]), np.concatenate([[2], rows + 2])


def _roots(parent, nodes):
    """Root of each node, halving the paths it walks."""
    while True:
        up = parent[nodes]
        if np.array_equal(up, nodes):
            return nodes
        grand = parent[up]
        parent[nodes] = grand
        nodes = grand


def _link(parent, a, b):
    """Merge the components of each pair (a[k], b[k]).

    The larger root is hooked onto the smaller one, so every root is the
    smallest index of its component.
    """
    while a.size:
        a, b = _roots(parent, a), _roots(parent, b)
        split = a != b
        a, b = np.minimum(a[split], b[split]), np.maximum(a[split], b[split])
        np.minimum.at(parent, b, a)


def euclidean_cluster(cloud, epsilon: float, min_points: int = 1) -> list[Cluster]:
    """Group points into connected components of the <= epsilon graph.

    Two points are linked when their squared coordinate differences, summed
    x + y + z in double precision, are <= ``epsilon**2``. Components with
    fewer than ``min_points`` members are discarded; the surviving clusters
    come back ordered by descending size, ties broken by smallest member
    index. Union-find runs over sub-cells of side just under
    epsilon / sqrt(3), whose points are joined without a distance test. A
    pair of sub-cells up to two steps apart is skipped or joined when the
    bounding boxes of their points put every point pair beyond or within
    epsilon, rounded as the test is; the other pairs, nearest first, are
    distance-tested in fixed-size vectorized chunks until they are joined.
    """
    if not epsilon > 0.0:  # NaN too
        raise InvalidInputError(f"epsilon must be positive, got {epsilon!r}")
    if min_points < 1:
        raise InvalidInputError("min_points must be >= 1")
    points = finite_array(cloud, "cloud")
    if points.size == 0:
        return []
    if points.shape[1:] != (3,):
        raise DimensionMismatchError(f"cloud must be (n, 3), got shape {points.shape}")
    with np.errstate(over="ignore"):  # past 1.8e308
        extent = float(np.ptp(points, axis=0).max())
    if not extent <= 1e13 * epsilon:
        raise InvalidInputError("epsilon is too small for the extent of the cloud")
    # floor() may put a point a few ulps of the extent past its cell; the
    # shrink keeps a sub-cell's diagonal within epsilon, rounding included
    side = epsilon / np.sqrt(3.0) * (1.0 - 1e-9 - 2e-15 * extent / epsilon)
    codes, low, high = _cell_codes(points - points.min(axis=0), side)
    order = np.argsort(codes, kind="stable")
    xyz = points.T.take(order, axis=1)
    cells, first, counts = np.unique(codes[order], return_index=True, return_counts=True)
    lo, hi = np.minimum.reduceat(xyz, first, axis=1), np.maximum.reduceat(xyz, first, axis=1)
    parent = np.arange(cells.size)
    eps2 = epsilon * epsilon
    for block in range(0, cells.size, _CELL_BLOCK):
        # each cell a of the block against its neighbouring cells b
        own = cells[block:block + _CELL_BLOCK]
        start = np.searchsorted(cells, (low[:, None] + own).ravel(), side="left")
        found = np.searchsorted(cells, (high[:, None] + own).ravel(), side="right") - start
        a = np.repeat(np.tile(np.arange(block, block + own.size), low.size), found)
        b = np.arange(a.size) - np.repeat(np.cumsum(found) - found - start, found)
        # the smallest and largest squared distances between the boxes of a and
        # b, summed over the axes in the order the distance test sums them
        gap2 = span2 = 0.0
        for axis in range(3):
            ab, ba = lo[axis, a] - hi[axis, b], lo[axis, b] - hi[axis, a]
            gap2 = gap2 + np.maximum(np.maximum(ab, ba), 0.0) ** 2
            span2 = span2 + np.minimum(ab, ba) ** 2
        _link(parent, a[span2 <= eps2], b[span2 <= eps2])
        test = np.flatnonzero((gap2 <= eps2) & (span2 > eps2))
        test = test[np.argsort(span2[test], kind="stable")]  # nearest first
        a, b = a[test], b[test]
        while a.size:
            split = _roots(parent, a) != _roots(parent, b)
            a, b = a[split], b[split]
            if not a.size:
                break
            # the point pairs of the leading cell pairs: one chunk, or one cell
            # pair; numbered consecutively, pair k is of cell pair pair[k]
            sizes = counts[a] * counts[b]
            ends = np.cumsum(sizes)
            take = max(1, int(np.searchsorted(ends, _PAIR_CHUNK, side="right")))
            total = int(ends[take - 1])
            for chunk in range(0, total, _PAIR_CHUNK):
                k = np.arange(chunk, min(chunk + _PAIR_CHUNK, total))
                pair = np.searchsorted(ends, k, side="right")
                row, col = np.divmod(k - (ends - sizes)[pair], counts[b[pair]])
                i, j = first[a[pair]] + row, first[b[pair]] + col
                near = np.sum((xyz.take(i, axis=1) - xyz.take(j, axis=1)) ** 2, axis=0) <= eps2
                joined = np.flatnonzero(np.bincount(pair[near], minlength=1))
                _link(parent, a[joined], b[joined])
            a, b = a[take:], b[take:]
    labels = np.empty(len(points), dtype=np.int64)  # the root cell of each point's component
    labels[order] = np.repeat(_roots(parent, np.arange(cells.size)), counts)
    sizes = np.bincount(labels)
    members = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    kept = np.flatnonzero(sizes >= min_points)
    # descending size, then smallest member index: each component's first member
    kept = kept[np.lexsort((members[starts[kept]], -sizes[kept]))]
    return [Cluster(indices=members[starts[r]:starts[r] + sizes[r]], cloud=points)
            for r in kept]


def extract_features(cluster: Cluster) -> np.ndarray:
    """7-vector of cluster geometry: extents, covariance spectrum, size.

    Bounding-box extents (3), sample-covariance eigenvalues sorted
    descending (3, zero for a one-point cluster), and the point count (1).
    """
    pts = cluster.points
    if pts.shape[0] == 0:
        raise DimensionMismatchError("cannot featurize an empty cluster")
    return _segment_features(pts, np.array([pts.shape[0]]))[0]


def _segment_features(points, counts):
    """``extract_features`` of consecutive nonempty segments of a cloud, one row each.

    Segment s is the next ``counts[s]`` points. The extents are segment
    reductions and the eigenvalues come from one stacked ``eigvalsh``. Each
    segment's mean and ``c.T @ c`` are formed on its own, as for a lone
    cluster: a flat object's smallest eigenvalue moves by up to 1e-12
    relative when its covariance moves by one ulp.
    """
    starts = np.cumsum(counts) - counts
    extents = np.maximum.reduceat(points, starts) - np.minimum.reduceat(points, starts)
    cov = np.empty((counts.size, 3, 3))
    for s, segment in enumerate(np.split(points, starts[1:])):
        centered = segment - segment.sum(axis=0) / segment.shape[0]
        cov[s] = centered.T @ centered
    cov /= np.maximum(counts - 1, 1)[:, None, None]
    eigvals = np.linalg.eigvalsh(cov)[:, ::-1]
    return np.column_stack([extents, eigvals, counts])


@dataclass(frozen=True, eq=False)
class SvmModel(JsonRecord):
    """Linear soft-margin classifier with internal feature standardization.

    ``classes`` is the (negative, positive) pair of two different labels; the
    decision value is ``w . (x - mean) / scale + b`` and its sign picks the
    class (ties go to the positive class). ``objective_history`` holds the best
    training objective so far, at the start and after each solver iteration.
    """

    weights: np.ndarray
    bias: float
    classes: list
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    objective_history: np.ndarray

    def __post_init__(self):
        weights, mean, scale, _ = freeze(self, "weights", "feature_mean", "feature_scale",
                                         "objective_history")
        if not math.isfinite(self.bias):
            raise InvalidInputError(f"bias must be finite, got {self.bias!r}")
        if len(weights.shape) != 1 or {mean.shape, scale.shape} != {weights.shape}:
            raise DimensionMismatchError(
                "weights, feature_mean and feature_scale must be equal-length vectors")
        if np.any(scale <= 0.0):
            raise InvalidInputError("feature_scale must be positive")
        if len(self.classes) != 2:
            raise DimensionMismatchError(f"need exactly 2 classes, got {len(self.classes)}")
        if self.classes[0] == self.classes[1]:
            raise InvalidInputError(f"classes must be two different labels, got {self.classes!r}")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite iterate is never the best
def svm_train(features, labels, c: float = 10.0, epochs: int = 200, seed: int = 0) -> SvmModel:
    """Train a linear soft-margin SVM to the optimum of its hinge objective.

    Minimizes ``0.5 |w|^2 + c * mean(max(0, 1 - y (x w + b)))`` on standardized
    features through the dual, ``min 0.5 a'Qa - 1'a`` with ``Q = (y x)(y x)'``,
    ``y'a = 0`` and ``0 <= a <= c/n``, by Mehrotra's primal-dual interior-point
    method; the Woodbury identity reduces each Newton system to a (D+1)-square
    solve (Ferris & Munson, SIAM J. Optim. 13(3), 2002). ``w = x'(y a)``, and
    ``b`` is the multiplier of ``y'a = 0``. Stops once an iterate's objective
    exceeds the dual's ``1'a - 0.5 |w|^2`` by at most 1e-9 (1 + objective), or
    after ``epochs`` iterations; the model is the best iterate and
    ``objective_history`` its objective at the start and after each iteration.
    ``seed`` is unused. Raises SingleClassError unless both classes are present,
    SingularSystemError when a Newton system is singular (as it can be at a
    large ``c``) and InvalidInputError unless ``c`` is positive or when no
    iterate's objective is finite.
    """
    if not c > 0.0:  # NaN too
        raise InvalidInputError(f"svm_c must be positive, got {c!r}")
    x = finite_array(features, "features")
    if x.ndim != 2:
        raise DimensionMismatchError("features must form a 2-D array")
    labels = list(labels)
    if len(labels) != x.shape[0]:
        raise DimensionMismatchError("one label per feature row")
    classes = sorted(set(labels), key=str)
    if len(classes) != 2:
        raise SingleClassError(f"need exactly 2 classes, got {len(classes)}")
    y = np.where(np.asarray([lab == classes[1] for lab in labels]), 1.0, -1.0)

    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale > 1e-12, scale, 1.0)
    xs = (x - mean) / scale

    n = x.shape[0]
    rows = np.column_stack([xs, np.ones(n)])
    ridge = np.diag(np.append(np.ones(x.shape[1]), 0.0))
    # state: a, c/n - a (both kept positive) and their multipliers; y'a = 0 from the start
    alpha = c / n**2 * np.where(y > 0.0, np.sum(y < 0.0), np.sum(y > 0.0))
    state = np.vstack([alpha, c / n - alpha, np.ones((2, n))])
    b, best, history = 0.0, (np.inf,), []
    while True:
        w = xs.T @ (y * state[0])
        margins = y * (xs @ w + b)
        obj = 0.5 * float(w @ w) + c * float(np.mean(np.maximum(0.0, 1.0 - margins)))
        best = min(best, (obj, w, b), key=lambda entry: entry[0])
        history.append(best[0])
        if len(history) > epochs or obj - state[0].sum() + 0.5 * w @ w <= 1e-9 * (1.0 + obj):
            break
        box, duals = state[:2], state[2:]
        dinv = 1.0 / (duals / box).sum(axis=0)
        normal = rows.T @ (dinv[:, None] * rows) + ridge
        target = np.zeros((2, n))
        for corrector in (False, True):  # the step toward box * duals == target
            r = 1.0 - margins + target[0] / box[0] - target[1] / box[1]
            try:
                step_wb = np.linalg.solve(normal, rows.T @ (y * dinv * r))
            except np.linalg.LinAlgError:
                raise SingularSystemError(
                    f"SVM training at svm_c={c!r}: the Newton system is singular") from None
            step_box = dinv * (r - y * (rows @ step_wb)) * [[1.0], [-1.0]]
            step = np.concatenate([step_box, (target - duals * step_box) / box - duals])
            shrinking = step < 0.0
            length = min(1.0, float(np.min(-state[shrinking] / step[shrinking], initial=np.inf)))
            if not corrector:  # Mehrotra's centering and second-order terms
                moved = state + length * step
                comp, comp_aff = (box * duals).sum(), (moved[:2] * moved[2:]).sum()
                target = (comp_aff / comp) ** 3 * comp / (2 * n) - step_box * step[2:]
        state += 0.99 * length * step
        b += 0.99 * length * step_wb[-1]
    if not math.isfinite(best[0]):
        raise InvalidInputError(
            f"SVM training at svm_c={c!r}: no iterate has a finite objective")
    return SvmModel(weights=best[1], bias=best[2], classes=classes, feature_mean=mean,
                    feature_scale=scale, objective_history=np.asarray(history))


def svm_decision(model: SvmModel, features):
    """Decision value of a feature vector (D,), or of each row of a stack (..., D)."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1:] != model.weights.shape:
        raise DimensionMismatchError(
            f"feature shape {features.shape} does not end in model dim {model.weights.shape}"
        )
    xs = (features - model.feature_mean) / model.feature_scale
    return xs @ model.weights + model.bias


def svm_classify(model: SvmModel, feature):
    """Label a feature vector; returns ``(label, signed_score)``."""
    score = float(svm_decision(model, feature))
    label = model.classes[1] if score >= 0.0 else model.classes[0]
    return label, score


def estimate_pose(cluster: Cluster, label: str = "", score: float = 0.0) -> dict:
    """A cluster's segmentation record: label, score, centroid, box extents, size."""
    pts = cluster.points
    if pts.shape[0] == 0:
        raise DimensionMismatchError("cannot estimate the pose of an empty cluster")
    return {"label": label, "score": score, "centroid": pts.mean(axis=0).tolist(),
            "extents": (pts.max(axis=0) - pts.min(axis=0)).tolist(), "size": len(cluster)}


def pose_to_synergy(pose: dict, basis: SynergyBasis) -> np.ndarray:
    """Map an object record's pose to its (S,) synergy coordinates.

    The paper's map is ``E^T C A^+ op``: ``op`` is the pose 6-vector
    (centroid, extents) zero-padded to the joint dim, ``A`` the motion
    transfer and ``C`` the joint compliance matrix. synkit uses unit
    compliance and motion transfer, C = A = I, so the map is ``E^T op``.
    The centroid and extents must be finite 3-vectors, the extents nonnegative.
    """
    centroid, extents = (finite_array(pose[key], key) for key in ("centroid", "extents"))
    if centroid.shape != (3,) or extents.shape != (3,):
        raise DimensionMismatchError("centroid and extents must be 3-vectors")
    if np.any(extents < 0.0):
        raise InvalidInputError("extents must be nonnegative")
    j = basis.joint_dim
    op = np.concatenate([centroid, extents])
    if j < op.shape[0]:
        raise DimensionMismatchError(f"cannot embed a 6-D pose into {j} joints")
    op_embedded = np.zeros(j)
    op_embedded[: op.shape[0]] = op
    return basis.e_hat.T @ op_embedded
