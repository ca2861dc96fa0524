import re
import warnings

import numpy as np
import pytest

from synkit import perception, pipeline, synergy, synthetic
from synkit.errors import (
    DegenerateCloudError,
    DimensionMismatchError,
    InvalidInputError,
    SingleClassError,
    SingularSystemError,
)


def oracle_components(points, epsilon):
    """Brute-force connected components of the <= epsilon graph (BFS).

    Two points are linked when their squared coordinate differences, summed
    x + y + z, are <= epsilon**2, the predicate ``euclidean_cluster`` states.
    """
    n = points.shape[0]
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        comp = []
        while queue:
            i = queue.pop()
            comp.append(i)
            diff2 = (points - points[i]) ** 2
            d2 = diff2[:, 0] + diff2[:, 1] + diff2[:, 2]
            for j in np.flatnonzero((d2 <= epsilon ** 2) & ~np.asarray(seen)):
                seen[j] = True
                queue.append(int(j))
        comps.append(frozenset(comp))
    return set(comps)


def lstsq_plane(points):
    """Least-squares plane through points: returns a unit normal."""
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[-1]


def oracle_ransac(cloud, iterations, threshold, seed):
    """Per-sample RANSAC loop: ``(normal, offset, best_count)`` of the first
    sampled plane with the most points within the threshold. The triples
    are drawn as ``ransac_plane`` draws them, all in one call."""
    rng = np.random.default_rng(seed)
    scale = max(float(np.max(np.abs(cloud))), 1.0)
    best, best_count = None, -1
    for idx in rng.integers(cloud.shape[0], size=(iterations, 3)):
        p1, p2, p3 = cloud[idx]
        cross = np.cross(p2 - p1, p3 - p1)
        norm = np.linalg.norm(cross)
        if norm <= 1e-12 * scale * scale:
            continue
        normal = cross / norm
        offset = -float(normal @ p1)
        count = int(np.count_nonzero(np.abs(cloud @ normal + offset) <= threshold))
        if count > best_count:
            best, best_count = (normal, offset), count
    normal, offset = best
    if normal[int(np.argmax(np.abs(normal)))] < 0.0:
        normal, offset = -normal, -offset
    return normal, offset, best_count


def oracle_counts(points, normals, offsets, threshold):
    """Inlier count of each plane ``(normals[k], offsets[k])``, scored as
    ``ransac_plane`` scored before its buffers: ``normals[block] @ points.T``,
    ``+=``, ``abs`` and ``count_nonzero(axis=1)``, 2^15 distances a block."""
    counts = np.empty(normals.shape[0], dtype=np.int64)
    rows = max(1, (1 << 15) // points.shape[0])
    for start in range(0, normals.shape[0], rows):
        block = slice(start, start + rows)
        distances = normals[block] @ points.T
        distances += offsets[block, None]
        np.abs(distances, out=distances)
        counts[block] = np.count_nonzero(distances <= threshold, axis=1)
    return counts


def assert_plane_normal(normal):
    """The normal ``ransac_plane`` promises: a unit 3-vector whose
    largest-magnitude entry is positive."""
    assert normal.shape == (3,)
    assert abs(np.linalg.norm(normal) - 1.0) <= 1e-9
    assert normal[np.argmax(np.abs(normal))] > 0.0


def dense_egg_objects(rng):
    """The egg scene's objects sampled twice as finely, with sensor noise:
    about 4k points, some 30 to a clustering cell of side 0.02."""
    objects = synthetic.task_scenario("egg")["objects"]
    egg = dict(objects["egg"], points=4 * objects["egg"]["points"])
    tray = dict(objects["tray"], spacing=objects["tray"]["spacing"] / 2)
    clean = np.vstack([synthetic.object_points(egg), synthetic.object_points(tray)])
    return clean + 0.0008 * rng.standard_normal(clean.shape)


class TestRansac:
    def make_scene(self, rng):
        plane = np.column_stack([
            rng.uniform(-0.5, 0.5, 1000),
            rng.uniform(-0.5, 0.5, 1000),
            np.zeros(1000),
        ])
        objects = np.column_stack([
            rng.uniform(-0.5, 0.5, 200),
            rng.uniform(-0.5, 0.5, 200),
            rng.uniform(0.05, 0.2, 200),
        ])
        return np.vstack([plane, objects])

    @pytest.mark.filterwarnings("error")  # an overflow would warn before any error
    def test_cloud_past_the_scale_bound_rejected(self, rng):
        # the cube's corners give the largest cross products a cloud of that scale has
        corners = np.array(np.meshgrid([-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0])).reshape(3, -1).T
        cloud = np.vstack([corners, rng.uniform(-1.0, 1.0, (200, 3))])
        at_bound = perception.RANSAC_MAX_SCALE * cloud
        for seed in range(3):
            (normal, _), _, _ = perception.ransac_plane(at_bound, iterations=500,
                                                        inlier_threshold=1e73, seed=seed)
            assert_plane_normal(normal)
        with pytest.raises(InvalidInputError, match=r"cloud scale 1e\+80"):
            perception.ransac_plane(1e80 * cloud)

    def test_plane_recovery_with_ground_truth(self, rng):
        cloud = self.make_scene(rng)
        (fitted, _), inliers, outliers = perception.ransac_plane(
            cloud, iterations=200, inlier_threshold=0.005, seed=3)
        assert_plane_normal(fitted)
        inl = set(inliers.tolist())
        plane_idx = set(range(1000))
        assert len(inl & plane_idx) >= 990
        assert not (inl - plane_idx)
        # least-squares oracle: recovered normal is the true plane normal
        normal = lstsq_plane(cloud[sorted(inl & plane_idx)])
        assert abs(abs(float(fitted @ normal)) - 1.0) < 1e-6

    def test_coplanar_cloud_has_no_outliers(self, rng):
        pts = np.column_stack([
            rng.uniform(0.0, 1.0, 100),
            rng.uniform(0.0, 1.0, 100),
            np.zeros(100),
        ])
        _, inliers, outliers = perception.ransac_plane(pts, inlier_threshold=0.001, seed=0)
        assert outliers.size == 0
        assert inliers.size == 100

    def test_deterministic_given_seed(self, rng):
        cloud = self.make_scene(rng)
        (n1, d1), i1, o1 = perception.ransac_plane(cloud, iterations=100, seed=42)
        (n2, d2), i2, o2 = perception.ransac_plane(cloud, iterations=100, seed=42)
        assert np.array_equal(n1, n2)
        assert d1 == d2
        assert np.array_equal(i1, i2)

    def test_internal_argmax_consistency(self, rng):
        # mirror the sampler with the same seed: the returned plane's inlier
        # count must match the best candidate count
        cloud = self.make_scene(rng)
        iterations, threshold, seed = 150, 0.005, 9
        _, inliers, _ = perception.ransac_plane(
            cloud, iterations=iterations, inlier_threshold=threshold, seed=seed)
        assert inliers.size == oracle_ransac(cloud, iterations, threshold, seed)[2]

    @pytest.mark.parametrize("iterations", [200, 300])
    @pytest.mark.parametrize("seed", [0, 3, 11, 19])
    def test_matches_per_sample_oracle_bit_for_bit(self, rng, seed, iterations):
        table = np.column_stack([rng.uniform(-0.25, 0.25, (4000, 2)),
                                 0.0008 * rng.standard_normal(4000)])
        for cloud in (self.make_scene(rng), np.vstack([table, dense_egg_objects(rng)])):
            (got_normal, got_offset), inliers, outliers = perception.ransac_plane(
                cloud, iterations=iterations, inlier_threshold=0.005, seed=seed)
            normal, offset, _ = oracle_ransac(cloud, iterations, 0.005, seed)
            assert_plane_normal(got_normal)
            assert got_normal.tobytes() == normal.tobytes()
            assert got_offset == offset
            mask = np.abs(cloud @ normal + offset) <= 0.005
            assert np.array_equal(inliers, np.flatnonzero(mask))
            assert np.array_equal(outliers, np.flatnonzero(~mask))

    @pytest.mark.parametrize("case", ["one row per block", "short last block",
                                      "three points", "dense table"])
    def test_inlier_counts_match_block_oracle_count_for_count(self, rng, case):
        planes, threshold = 200, 0.005
        if case == "one row per block":
            cloud = rng.uniform(-1.0, 1.0, (perception._SCORE_BLOCK + 1000, 3))
            cloud[:40000, 2] = 0.002 * rng.standard_normal(40000)
            planes = 40
        elif case == "short last block":
            cloud = self.make_scene(rng)
            assert 2 * planes % (perception._SCORE_BLOCK // cloud.shape[0]) != 0
        elif case == "three points":
            # the plane z = 0.375 lies exactly 0.125 from two of the points
            cloud = np.array([[0.0, 0.0, 0.125], [1.0, 0.0, 0.25], [0.0, 1.0, 0.5]])
            threshold = 0.125
        else:
            table = np.column_stack([rng.uniform(-0.25, 0.25, (11000, 2)),
                                     0.0008 * rng.standard_normal(11000)])
            cloud = np.vstack([table, dense_egg_objects(rng)])
            assert 14000 < cloud.shape[0] < 16000
        # planes through sampled triples, as RANSAC draws them, and planes of
        # random orientation through single points of the cloud
        triples = cloud[[rng.choice(cloud.shape[0], 3, replace=False) for _ in range(planes)]]
        cross = np.cross(triples[:, 1] - triples[:, 0], triples[:, 2] - triples[:, 0])
        normals = np.vstack([cross / np.linalg.norm(cross, axis=1)[:, None],
                             rng.standard_normal((planes, 3))])
        normals[planes:] /= np.linalg.norm(normals[planes:], axis=1)[:, None]
        offsets = -np.einsum("ij,ij->i", normals, np.vstack([triples[:, 0], triples[:, 1]]))
        if case == "three points":
            normals, offsets = np.vstack([normals, [0.0, 0.0, 1.0]]), np.append(offsets, -0.375)
        counts = perception._inlier_counts(cloud, normals, offsets, threshold)
        assert counts.dtype == np.int64 and counts.shape == offsets.shape
        assert np.array_equal(counts, oracle_counts(cloud, normals, offsets, threshold))
        assert len(set(counts.tolist())) > 1

    def test_triples_with_a_repeated_index_are_skipped(self):
        # from three points most drawn triples repeat an index; those give a
        # zero cross product and never become a candidate plane
        cloud = np.array([[0.0, 0.0, 0.1], [1.0, 0.0, 0.2], [0.0, 1.0, 0.3]])
        draws = np.random.default_rng(5).integers(3, size=(30, 3))
        assert 0 < sum(len(set(t)) == 3 for t in draws.tolist()) < 30
        (normal, offset), inliers, outliers = perception.ransac_plane(
            cloud, iterations=30, inlier_threshold=1e-9, seed=5)
        assert np.array_equal(inliers, [0, 1, 2]) and outliers.size == 0
        assert np.allclose(cloud @ normal + offset, 0.0, atol=1e-12)

    def test_collinear_cloud_rejected(self):
        t = np.linspace(0.0, 1.0, 50)
        line = np.column_stack([t, 2.0 * t, -t])
        with pytest.raises(DegenerateCloudError):
            perception.ransac_plane(line, iterations=50, seed=1)
        for seed in range(10):
            with pytest.raises(DegenerateCloudError):
                perception.ransac_plane(line[:3], iterations=1, seed=seed)

    def test_few_point_cloud_draws_distinct_triples_when_none_is_valid(self):
        # one triple from three points repeats an index for 71 of these seeds;
        # then a triple of distinct indices is drawn, which spans the plane
        cloud = np.array([[0.0, 0.0, 0.1], [1.0, 0.0, 0.2], [0.0, 1.0, 0.3]])
        for seed in range(100):
            (normal, offset), inliers, outliers = perception.ransac_plane(
                cloud, iterations=1, inlier_threshold=1e-9, seed=seed)
            assert np.array_equal(inliers, [0, 1, 2]) and outliers.size == 0
            assert_plane_normal(normal)
            assert np.allclose(cloud @ normal + offset, 0.0, atol=1e-12)

    @pytest.mark.parametrize("kwargs, name", [
        ({"iterations": 0}, "iterations"),
        ({"iterations": perception.RANSAC_MAX_ITERATIONS + 1}, "iterations"),
        ({"inlier_threshold": 0.0}, "inlier_threshold"),
        ({"inlier_threshold": -1.0}, "inlier_threshold"),
        ({"inlier_threshold": float("nan")}, "inlier_threshold"),
    ])
    def test_bad_parameters_rejected(self, rng, kwargs, name):
        cloud = rng.uniform(-1.0, 1.0, size=(50, 3))
        with pytest.raises(InvalidInputError, match=name):
            perception.ransac_plane(cloud, seed=0, **kwargs)


class TestClustering:
    def test_two_blobs(self, rng):
        a = 0.002 * rng.standard_normal((50, 3))
        b = np.array([0.1, 0.0, 0.0]) + 0.002 * rng.standard_normal((50, 3))
        cloud = np.vstack([a, b])
        clusters = perception.euclidean_cluster(cloud, epsilon=0.01, min_points=10)
        assert len(clusters) == 2
        assert sorted(len(c) for c in clusters) == [50, 50]
        got = {frozenset(c.indices.tolist()) for c in clusters}
        assert got == oracle_components(cloud, 0.01)

    def test_single_point(self):
        clusters = perception.euclidean_cluster(np.array([[0.0, 0.0, 0.0]]),
                                                epsilon=0.01, min_points=1)
        assert len(clusters) == 1
        assert len(clusters[0]) == 1

    def test_small_blob_discarded(self, rng):
        blob = 0.001 * rng.standard_normal((5, 3))
        assert perception.euclidean_cluster(blob, epsilon=0.01, min_points=10) == []

    def test_matches_oracle_on_random_instances(self, rng):
        cases = []
        for _ in range(10):
            n = int(rng.integers(20, 300))
            cases.append((rng.uniform(0.0, 0.2, size=(n, 3)), float(rng.uniform(0.01, 0.05))))
        # negative coordinates, cells on both sides of zero
        cases.append((rng.uniform(-0.2, 0.1, size=(250, 3)), 0.03))
        # exact duplicates, linked at distance zero
        base = rng.uniform(0.0, 0.3, size=(80, 3))
        cases.append((rng.permutation(np.vstack([base, base, base[:20]])), 0.01))
        # one grid cell holding 20k candidate pairs, tested in several chunks:
        # a clump at one corner, then a pair at the far corner whose only
        # link is the last candidate pair
        clump = rng.uniform(0.0001, 0.0011, size=(200, 3))
        cases.append((np.vstack([clump, [[0.0095] * 3, [0.0096] * 3]]), 0.01))
        # with epsilon 1: cell (0, 1, 0) holds points 0 and 3, two components;
        # by the time it is tested against cell (1, 1, 0), point 1 there is
        # joined to 0 (through 2), but 3 still needs its own test to join
        cases.append((np.array([[0.9, 1.9, 0.7], [1.0, 1.3, 0.5],
                                [0.6, 1.7, 1.2], [0.1, 1.1, 0.3]]), 1.0))
        # and the converse: cell (1, 1, 0) holds points 0 and 2; point 3 in
        # cell (1, 0, 0) is joined to 0 (through 1) but not yet to 2
        cases.append((np.array([[1.5, 1.8, 0.9], [1.5, 0.9, 1.0],
                                [1.0, 1.3, 0.1], [1.3, 0.6, 0.3]]), 1.0))
        for cloud, eps in cases:
            clusters = perception.euclidean_cluster(cloud, epsilon=eps, min_points=1)
            got = {frozenset(c.indices.tolist()) for c in clusters}
            assert got == oracle_components(cloud, eps)

    def test_large_cloud_matches_oracle(self, rng):
        # a cloud spread over thousands of grid cells
        cloud = rng.uniform(0.0, 0.5, size=(2500, 3))
        eps = 0.03
        clusters = perception.euclidean_cluster(cloud, epsilon=eps, min_points=1)
        assert cloud.shape[0] > 2000
        got = {frozenset(c.indices.tolist()) for c in clusters}
        assert got == oracle_components(cloud, eps)

    def test_dense_scene_objects_match_oracle(self, rng):
        # dense surfaces: many neighbouring cells are joined before their
        # turn comes, so their distance tests are skipped
        cloud = dense_egg_objects(rng)
        clusters = perception.euclidean_cluster(cloud, epsilon=0.02, min_points=1)
        got = {frozenset(c.indices.tolist()) for c in clusters}
        assert got == oracle_components(cloud, 0.02)
        assert len(clusters[0]) + len(clusters[1]) > 0.99 * cloud.shape[0]

    def test_clusters_disjoint_connected_and_separated(self, rng):
        cloud = rng.uniform(0.0, 0.3, size=(400, 3))
        eps = 0.04
        clusters = perception.euclidean_cluster(cloud, epsilon=eps, min_points=3)
        assert len(clusters) > 1
        seen = set()
        for c in clusters:
            ids = set(c.indices.tolist())
            assert not (ids & seen)
            seen |= ids
            # the cluster's own points form one component
            assert oracle_components(c.points, eps) == {frozenset(range(len(c)))}
        # no point of one cluster within epsilon of a point of another
        for k, c in enumerate(clusters):
            for other in clusters[k + 1:]:
                gaps = np.linalg.norm(c.points[:, None, :] - other.points[None, :, :], axis=2)
                assert gaps.min() > eps
        # ordering: descending size, then smallest member index
        keys = [(-len(c), int(c.indices.min())) for c in clusters]
        assert keys == sorted(keys)
        assert len(set(len(c) for c in clusters)) < len(clusters)  # some sizes tie

    def test_sub_cell_boundaries_match_oracle(self, rng):
        side = 1.0 / np.sqrt(3.0)  # the sub-cell side for epsilon 1, up to its shrink
        cases = []
        # points just inside sub-cell faces: a thinned lattice of step just under
        # epsilon / sqrt(3), whose diagonal neighbours lie just within epsilon
        lattice = np.stack(np.meshgrid(*[np.arange(6)] * 3, indexing="ij"), -1).reshape(-1, 3)
        cases.append(side * (1.0 - 1e-7) * lattice[rng.random(lattice.shape[0]) < 0.4])
        # pairs exactly epsilon apart in exact binary coordinates, next to pairs
        # one ulp over it: the first are joined, the second are not; the last
        # two sub-cells hold two points each, and only one pair is within epsilon
        cases.append(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                               [1.0, 1.0, 1.0], [4.0, 0.0, 0.0], [np.nextafter(5.0, 6.0), 0.0, 0.0],
                               [0.25, 4.0, 0.5], [0.25, 4.0, 1.5], [0.25, 5.0, 1.5],
                               [0.25, np.nextafter(6.0, 7.0), 1.5], [0.0, 0.0, 3.0],
                               [0.0, 0.25, 3.0], [1.0, 0.0, 3.0], [1.0, 0.5, 3.0]]))
        # a point at the far corner of a sub-cell and one just inside the sub-cell
        # two further along one, two or three axes: closer than epsilon along one
        # or two, just farther along three (the grid starts at the origin point,
        # whose diagonal neighbour lies just over epsilon from it)
        near, far = side * (1.0 - 1e-6), 2.0 * side * (1.0 + 1e-7)
        pairs = [[0.0, 0.0, 0.0], [side * (1.0 + 1e-6)] * 3]
        for k, step in enumerate([(1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1), (0, 0, 1)]):
            corner = np.array([8.0 * (k + 1) * side + near, near, near])
            pairs += [corner, corner + np.multiply(step, far - near)]
        cases.append(np.array(pairs))
        # (x, x, x) with x = 1/sqrt(3) as a double: its squared length sums to one
        # ulp over epsilon**2 although its norm rounds to exactly epsilon
        x = 1.0 / np.sqrt(3.0)
        assert x * x + x * x + x * x > 1.0 and np.linalg.norm([x, x, x]) == 1.0
        cases.append(np.array([[0.0, 0.0, 0.0], [x, x, x]]))
        # random pairs just under and just over epsilon apart, in all directions
        start = rng.uniform(0.0, 3.0, size=(150, 3))
        toward = rng.standard_normal((150, 3))
        toward /= np.linalg.norm(toward, axis=1, keepdims=True)
        length = np.where(np.arange(150) % 2 == 0, 1.0 - 1e-7, 1.0 + 1e-7)
        cases.append(np.vstack([start, start + length[:, None] * toward]))
        # a cloud 1000 m from the origin, whose coordinates resolve only 1e-13 m
        cases.append(1000.0 + rng.uniform(0.0, 4.0, size=(400, 3)))
        for cloud in cases:
            clusters = perception.euclidean_cluster(cloud, epsilon=1.0, min_points=1)
            got = {frozenset(c.indices.tolist()) for c in clusters}
            assert got == oracle_components(cloud, 1.0)
        # the x2-density dense egg objects, shifted 1000 m
        cloud = 1000.0 + dense_egg_objects(rng)
        clusters = perception.euclidean_cluster(cloud, epsilon=0.02, min_points=1)
        got = {frozenset(c.indices.tolist()) for c in clusters}
        assert got == oracle_components(cloud, 0.02)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, np.nan])
    def test_epsilon_must_be_positive(self, epsilon):
        cloud = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="epsilon must be positive"):
            perception.euclidean_cluster(cloud, epsilon=epsilon)

    def test_epsilon_below_the_cloud_resolution_rejected(self):
        cloud = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="epsilon"):
            perception.euclidean_cluster(cloud, epsilon=1e-14)

    def test_discarded_points_belong_to_small_components(self, rng):
        cloud = np.vstack([
            0.002 * rng.standard_normal((40, 3)),
            np.array([1.0, 1.0, 1.0]) + 0.002 * rng.standard_normal((4, 3)),
        ])
        clusters = perception.euclidean_cluster(cloud, epsilon=0.02, min_points=10)
        kept = set()
        for c in clusters:
            kept |= set(c.indices.tolist())
        discarded = set(range(44)) - kept
        comps = oracle_components(cloud, 0.02)
        for comp in comps:
            if comp & discarded:
                assert len(comp) < 10


@pytest.mark.filterwarnings("error")  # no numpy warning before the error
@pytest.mark.parametrize("fit, bad", [
    ("ransac_plane", np.nan),
    ("ransac_plane", np.inf),
    ("euclidean_cluster", np.nan),
    ("euclidean_cluster", -np.inf),
])
def test_non_finite_cloud_rejected(rng, fit, bad):
    scattered = rng.uniform(0.0, 10.0, (50, 3))
    assert len(perception.euclidean_cluster(scattered, epsilon=0.1)) == 50
    cloud = np.vstack([scattered[:20], [[0.5, bad, 0.5]], scattered[20:]])
    kwargs = {"epsilon": 0.1} if fit == "euclidean_cluster" else {"seed": 0}
    with pytest.raises(InvalidInputError, match="NaN or Inf"):
        getattr(perception, fit)(cloud, **kwargs)


class TestFeaturesAndPose:
    def test_two_point_cluster_extents(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0]])
        cluster = perception.Cluster(indices=np.array([0, 1]), cloud=pts)
        feats = perception.extract_features(cluster)
        assert feats.shape == (7,)
        assert np.allclose(feats[:3], [0.25, 0.0, 0.0])
        assert feats[6] == 2.0

    def test_isotropic_blob_spectrum(self):
        rng = np.random.default_rng(77)
        pts = rng.standard_normal((800, 3))
        cluster = perception.Cluster(indices=np.arange(800), cloud=pts)
        feats = perception.extract_features(cluster)
        assert feats[3] / feats[5] < 2.0

    def test_features_deterministic(self, rng):
        pts = rng.standard_normal((60, 3))
        cluster = perception.Cluster(indices=np.arange(60), cloud=pts)
        assert np.array_equal(perception.extract_features(cluster),
                              perception.extract_features(cluster))

    def test_one_point_and_empty_clusters(self):
        pts = np.array([[0.1, -0.2, 0.3]])
        feats = perception.extract_features(perception.Cluster(indices=[0], cloud=pts))
        assert np.array_equal(feats, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            perception.extract_features(perception.Cluster(indices=[], cloud=pts))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_segment_features_match_per_cluster_features(self, seed):
        # ragged segments of anisotropic blobs, with a one-point segment
        rng = np.random.default_rng(seed)
        counts = np.concatenate([rng.integers(2, 400, 7), [1], rng.integers(2, 50, 4)])
        points = np.vstack([rng.normal(rng.uniform(-1, 1, 3), rng.uniform(0.001, 0.1, 3),
                                       (n, 3)) for n in counts])
        features = perception._segment_features(points, counts)
        for row, segment in zip(features, np.split(points, np.cumsum(counts)[:-1])):
            expected = [*(segment.max(axis=0) - segment.min(axis=0)), 0.0, 0.0, 0.0,
                        float(segment.shape[0])]
            if segment.shape[0] > 1:
                centered = segment - segment.mean(axis=0)
                cov = centered.T @ centered / (segment.shape[0] - 1)
                expected[3:6] = np.sort(np.linalg.eigvalsh(cov))[::-1]
            assert np.all(np.abs(row - expected) <= 1e-12 * np.abs(expected))
            cluster = perception.Cluster(indices=np.arange(segment.shape[0]), cloud=segment)
            assert np.array_equal(row, perception.extract_features(cluster))

    def test_pose_two_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        cluster = perception.Cluster(indices=np.array([0, 1]), cloud=pts)
        pose = perception.estimate_pose(cluster)
        assert np.allclose(pose.centroid, [0.5, 0.0, 0.0])
        assert np.allclose(pose.extents, [1.0, 0.0, 0.0])

    def test_pose_synthetic_sphere(self):
        # deterministic surface sampling; generator center is ground truth
        n = 1500
        i = np.arange(n)
        z = 1.0 - 2.0 * (i + 0.5) / n
        r = np.sqrt(1.0 - z * z)
        phi = np.pi * (3.0 - np.sqrt(5.0)) * i
        radius = 0.04
        center = np.array([0.3, -0.2, 0.5])
        pts = center + radius * np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
        cluster = perception.Cluster(indices=np.arange(n), cloud=pts)
        pose = perception.estimate_pose(cluster, label="sphere")
        assert np.linalg.norm(pose.centroid - center) < 0.05 * radius
        assert np.abs(pose.extents - 2.0 * radius).max() < 0.1 * (2.0 * radius)

    def test_pose_translation_equivariance(self, rng):
        pts = rng.standard_normal((200, 3))
        cluster = perception.Cluster(indices=np.arange(200), cloud=pts)
        v = np.array([1.5, -2.0, 0.25])
        shifted = perception.Cluster(indices=np.arange(200), cloud=pts + v)
        p0 = perception.estimate_pose(cluster)
        p1 = perception.estimate_pose(shifted)
        assert np.abs(p1.centroid - (p0.centroid + v)).max() < 1e-12


def oracle_svm_train(features, labels, c, epochs, seed):
    """The SVM training loop with the margins recomputed every epoch."""
    x = np.asarray(features, dtype=float)
    classes = tuple(sorted(set(labels), key=str))
    y = np.where(np.asarray([lab == classes[1] for lab in labels]), 1.0, -1.0)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale = np.where(scale > 1e-12, scale, 1.0)
    xs = (x - mean) / scale

    def objective(w, b):
        margins = y * (xs @ w + b)
        return 0.5 * float(w @ w) + c * float(np.mean(np.maximum(0.0, 1.0 - margins)))

    w = 1e-6 * np.random.default_rng(seed).standard_normal(x.shape[1])
    b = 0.0
    obj = objective(w, b)
    history = [obj]
    step = 1.0
    for _ in range(epochs):
        margins = y * (xs @ w + b)
        violating = margins < 1.0
        grad_w = w - c * (y[violating] @ xs[violating]) / x.shape[0]
        grad_b = -c * float(np.sum(y[violating])) / x.shape[0]
        accepted = False
        trial = step
        while trial > 1e-14:
            w_new = w - trial * grad_w
            b_new = b - trial * grad_b
            obj_new = objective(w_new, b_new)
            if obj_new < obj:
                w, b, obj = w_new, b_new, obj_new
                step = trial * 1.5
                accepted = True
                break
            trial *= 0.5
        history.append(obj)
        if not accepted:
            break
    return w, b, np.asarray(history)


class TestSvm:
    def separable(self, rng, margin=1.0, n=100):
        pos = rng.uniform(-1.0, 1.0, size=(n, 2)) + np.array([0.0, margin + 1.0])
        neg = rng.uniform(-1.0, 1.0, size=(n, 2)) - np.array([0.0, margin + 1.0])
        x = np.vstack([pos, neg])
        y = ["up"] * n + ["down"] * n
        return x, y

    def test_separable_data_perfect_training_accuracy(self, rng):
        x, y = self.separable(rng)
        model = perception.svm_train(x, y, c=10.0, epochs=200, seed=0)
        pred = [perception.svm_classify(model, f)[0] for f in x]
        assert pred == y

    def test_flipped_labels_invert_predictions(self, rng):
        x, y = self.separable(rng)
        flipped = ["down" if lab == "up" else "up" for lab in y]
        m1 = perception.svm_train(x, y, c=10.0, epochs=200, seed=0)
        m2 = perception.svm_train(x, flipped, c=10.0, epochs=200, seed=0)
        p1 = [perception.svm_classify(m1, f)[0] for f in x]
        p2 = [perception.svm_classify(m2, f)[0] for f in x]
        assert all(a != b for a, b in zip(p1, p2))

    def test_same_seed_identical_model(self, rng):
        x, y = self.separable(rng)
        m1 = perception.svm_train(x, y, seed=5)
        m2 = perception.svm_train(x, y, seed=5)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_objective_monotone_nonincreasing(self, rng):
        x, y = self.separable(rng, margin=0.1)
        model = perception.svm_train(x, y, c=5.0, epochs=300, seed=2)
        assert np.all(np.isfinite(model.objective_history))
        assert np.all(np.diff(model.objective_history) <= 1e-12)

    @pytest.mark.parametrize("task", synthetic.TASKS)
    def test_objective_at_most_subgradient_oracle(self, rng, task):
        features, labels = synthetic.svm_training_fixture(task, seed=3)
        cases = [(features, labels, 10.0, 200, 13), (*self.separable(rng, margin=0.1), 5.0, 300, 2)]
        for x, y, c, epochs, seed in cases:
            model = perception.svm_train(x, y, c=c, epochs=epochs, seed=seed)
            _, _, history = oracle_svm_train(x, y, c, epochs, seed)
            objective = model.objective_history[-1]
            assert objective <= history[-1] + 1e-12 * (1.0 + abs(objective))
            assert len(model.objective_history) - 1 < epochs  # the duality gap closed

    def test_known_optimum_with_two_support_vectors(self):
        # standardized, the points sit at +-1/sqrt(5) and +-3/sqrt(5); the inner
        # pair sets the hard margin, w = sqrt(5), b = 0, objective 2.5, and c is
        # large enough that no slack pays
        model = perception.svm_train([[3.0], [1.0], [-1.0], [-3.0]], ["b", "b", "a", "a"],
                                     c=100.0)
        assert abs(model.objective_history[-1] - 2.5) < 1e-9
        assert abs(model.weights[0] - np.sqrt(5.0)) < 1e-9
        assert abs(model.bias) < 1e-9

    def test_stacked_decision_matches_classify(self, rng):
        x, y = self.separable(rng)
        model = perception.svm_train(x, y, seed=4)
        scores = perception.svm_decision(model, x)
        assert scores.shape == (x.shape[0],)
        for feature, score in zip(x, scores):
            assert abs(score - perception.svm_classify(model, feature)[1]) < 1e-12
        with pytest.raises(DimensionMismatchError):
            perception.svm_decision(model, np.zeros((3, 5)))

    def test_singular_newton_system_is_a_semantic_error_naming_svm_c(self, monkeypatch):
        # whether a large c meets an exact zero pivot depends on the BLAS's
        # rounding, so the Newton matrix is made singular outright: all zeros
        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: real_solve(np.zeros_like(a), b))
        features, labels = synthetic.svm_training_fixture("egg", seed=13)
        with pytest.raises(SingularSystemError,
                           match=re.escape("svm_c=10.0: the Newton system is singular")):
            perception.svm_train(features, labels, c=10.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_objective_is_a_semantic_error_naming_svm_c(self):
        features, labels = synthetic.svm_training_fixture("egg", seed=13)
        with pytest.raises(InvalidInputError,
                           match=re.escape("svm_c=1e+160: no iterate has a finite objective")):
            perception.svm_train(features, labels, c=1e160)

    @pytest.mark.parametrize("task", synthetic.TASKS)
    def test_largest_allowed_c_converges_on_the_fixtures(self, task):
        for seed in (0, 13):
            features, labels = synthetic.svm_training_fixture(task, seed=seed)
            model = perception.svm_train(features, labels, c=pipeline.MAX_SVM_C)
            assert len(model.objective_history) - 1 < 200  # the duality gap closed

    def test_single_class_rejected(self, rng):
        x = rng.standard_normal((10, 2))
        with pytest.raises(SingleClassError):
            perception.svm_train(x, ["same"] * 10)

    def test_boundary_tie_goes_to_positive_class(self):
        model = perception.SvmModel(weights=np.array([1.0, -2.0]), bias=0.5,
                                    classes=["down", "up"], feature_mean=np.array([1.0, 1.0]),
                                    feature_scale=np.array([2.0, 4.0]),
                                    objective_history=np.array([0.0]))
        # standardized to (1.5, 1.0): the decision value is exactly 0
        assert perception.svm_classify(model, np.array([4.0, 5.0])) == ("up", 0.0)

    def test_classify_is_pure(self, rng):
        x, y = self.separable(rng)
        model = perception.svm_train(x, y, seed=1)
        out1 = perception.svm_classify(model, x[3])
        out2 = perception.svm_classify(model, x[3])
        assert out1 == out2

    def test_dimension_mismatch(self, rng):
        x, y = self.separable(rng)
        model = perception.svm_train(x, y, seed=1)
        with pytest.raises(DimensionMismatchError):
            perception.svm_classify(model, np.zeros(5))

    def test_json_round_trip(self, rng, tmp_path):
        x, y = self.separable(rng)
        model = perception.svm_train(x, y, seed=8)
        model.to_json(tmp_path / "svm.json")
        loaded = perception.SvmModel.from_json(tmp_path / "svm.json")
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.classes == model.classes


class TestPoseToSynergy:
    @pytest.fixture()
    def basis(self):
        e_hat = np.zeros((6, 2))
        e_hat[0, 0] = 1.0
        e_hat[3, 1] = 1.0
        return synergy.SynergyBasis(e_hat=e_hat, theta0=np.zeros(6),
                                    variance_fractions=np.array([0.6, 0.4]))

    def test_zero_pose_maps_to_zero(self, basis):
        pose = perception.ObjectPose(centroid=np.zeros(3), extents=np.zeros(3))
        e = perception.pose_to_synergy(pose, basis)
        assert np.abs(e).max() == 0.0

    def test_identity_matrices_reduce_to_projection(self, basis):
        pose = perception.ObjectPose(centroid=np.array([0.1, 0.2, 0.3]),
                                     extents=np.array([0.04, 0.05, 0.06]))
        embedded = np.concatenate([pose.centroid, pose.extents])  # 6 joints: no padding
        assert np.array_equal(perception.pose_to_synergy(pose, basis), basis.e_hat.T @ embedded)

    def test_linearity(self, basis, rng):
        p1 = perception.ObjectPose(centroid=rng.standard_normal(3),
                                   extents=np.abs(rng.standard_normal(3)))
        e1 = perception.pose_to_synergy(p1, basis)
        doubled = perception.ObjectPose(centroid=2.0 * p1.centroid,
                                        extents=2.0 * p1.extents)
        e2 = perception.pose_to_synergy(doubled, basis)
        assert np.abs(e2 - 2.0 * e1).max() < 1e-12
        # additivity over the pose vector through a second pose
        p3 = perception.ObjectPose(centroid=rng.standard_normal(3),
                                   extents=np.abs(rng.standard_normal(3)))
        e3 = perception.pose_to_synergy(p3, basis)
        summed = perception.ObjectPose(centroid=p1.centroid + p3.centroid,
                                       extents=p1.extents + p3.extents)
        e13 = perception.pose_to_synergy(summed, basis)
        assert np.abs(e13 - (e1 + e3)).max() < 1e-12


class TestCloudIo:
    def test_round_trip_with_comments(self, tmp_path, rng):
        pts = rng.standard_normal((20, 3))
        path = tmp_path / "cloud.xyz"
        perception.save_cloud(path, pts)
        text = "# header comment\n" + path.read_text()
        path.write_text(text)
        loaded = perception.load_cloud(path)
        assert np.array_equal(loaded, pts)

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\nnan 1 2\n")
        with pytest.raises(ValueError):
            perception.load_cloud(path)

    def test_rejects_wrong_width(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0\n")
        with pytest.raises(DimensionMismatchError):
            perception.load_cloud(path)

    @pytest.mark.parametrize("text", [
        "# header\n0.5 -1 2\n\n# between\n3 4 5  # trailing\n",
        "\n\n1 2 3\n\n",
        "1\t2\t3\n4\t 5\t6\n",
        "+1.5 -2.5 +0\n",
        "1_0 2 3\n",
        "",
        "# only a comment\n# and another\n",
    ], ids=["comments", "blank-lines", "tabs", "plus-signs", "underscore", "empty",
            "comment-only"])
    def test_bulk_parse_matches_line_loop(self, tmp_path, text):
        path = tmp_path / "cloud.xyz"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = perception.load_cloud(path)
        want = perception._parse_lines(path)
        assert cloud.shape == want.shape and cloud.shape[1] == 3
        assert cloud.tobytes() == want.tobytes()

    @pytest.mark.parametrize("content, error, message", [
        (b"0 0 0\n# note\n1 2\n", DimensionMismatchError, "bad.xyz:3: expected 3 coordinates"),
        (b"1\n2\n3\n", DimensionMismatchError, "bad.xyz:1: expected 3 coordinates"),
        (b"0 0 0\n1 2 3 4\n", DimensionMismatchError, "bad.xyz:2: expected 3 coordinates"),
        (bytes(range(256)), InvalidInputError, "bad.xyz: not a text file"),
    ], ids=["short-row", "one-column", "long-row", "binary"])
    def test_errors_name_the_file(self, tmp_path, content, error, message):
        path = tmp_path / "bad.xyz"
        path.write_bytes(content)
        with pytest.raises(error, match=message):
            perception.load_cloud(path)

    def test_rejects_non_numeric_coordinate_naming_its_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\n1 0 x\n")
        with pytest.raises(DimensionMismatchError, match="bad.xyz:2"):
            perception.load_cloud(path)
