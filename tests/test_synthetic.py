import numpy as np
import pytest

from synkit import perception, synergy, synthetic
from synkit.errors import UnknownTaskError

# The per-instance object geometry and SVM featurization as they were before
# the bulk builder, kept as oracles: one np.linspace / np.meshgrid call per
# grid and ring, one object per call.


def oracle_ellipsoid(axes, center, n):
    golden = np.pi * (3.0 - np.sqrt(5.0))
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = golden * i
    unit = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return unit * np.asarray(axes)[None, :] + np.asarray(center)[None, :]


def oracle_grid_rect(u_lo, u_hi, v_lo, v_hi, spacing):
    nu = max(int(round((u_hi - u_lo) / spacing)) + 1, 2)
    nv = max(int(round((v_hi - v_lo) / spacing)) + 1, 2)
    u, v = np.meshgrid(np.linspace(u_lo, u_hi, nu), np.linspace(v_lo, v_hi, nv))
    return u.ravel(), v.ravel()


def oracle_tray(size, center_xy, spacing, z0):
    sx, sy, sz = size
    cx, cy = center_xy
    u, v = oracle_grid_rect(-sx / 2, sx / 2, -sy / 2, sy / 2, spacing)
    pts = [np.column_stack([cx + u, cy + v, np.full(u.shape, z0)])]
    u, w = oracle_grid_rect(-sx / 2, sx / 2, 0.0, sz, spacing)
    for sign in (-1.0, 1.0):
        pts.append(np.column_stack([cx + u, np.full(u.shape, cy + sign * sy / 2), z0 + w]))
    v, w = oracle_grid_rect(-sy / 2, sy / 2, 0.0, sz, spacing)
    for sign in (-1.0, 1.0):
        pts.append(np.column_stack([np.full(v.shape, cx + sign * sx / 2), cy + v, z0 + w]))
    return np.vstack(pts)


def oracle_disc(radius, center_xy, z, spacing):
    rings = [np.array([[center_xy[0], center_xy[1], z]])]
    n_rings = max(int(round(radius / spacing)), 1)
    for k in range(1, n_rings + 1):
        r = radius * k / n_rings
        n = max(int(round(2.0 * np.pi * r / spacing)), 6)
        theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        rings.append(np.column_stack([center_xy[0] + r * np.cos(theta),
                                      center_xy[1] + r * np.sin(theta), np.full(n, z)]))
    return np.vstack(rings)


def oracle_cylinder(radius, height, center_xy, z0, counts):
    n_theta, n_z = counts
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    tt, zz = np.meshgrid(theta, np.linspace(0.0, height, n_z))
    side = np.column_stack([center_xy[0] + radius * np.cos(tt.ravel()),
                            center_xy[1] + radius * np.sin(tt.ravel()), z0 + zz.ravel()])
    cap = oracle_disc(radius, center_xy, z0 + height, spacing=2.0 * np.pi * radius / n_theta)
    return np.vstack([side, cap])


def oracle_object_points(spec):
    z0 = synthetic.OBJECT_CLEARANCE
    if spec["kind"] == "ellipsoid":
        axes = spec["axes"]
        return oracle_ellipsoid(axes, (*spec["center_xy"], z0 + axes[2]), spec["points"])
    if spec["kind"] == "tray":
        return oracle_tray(spec["size"], spec["center_xy"], spec["spacing"], z0)
    if spec["kind"] == "cylinder":
        return oracle_cylinder(spec["radius"], spec["height"], spec["center_xy"], z0,
                               spec["points"])
    return oracle_disc(spec["radius"], spec["center_xy"], z0, spec["spacing"])


def oracle_jittered(spec, jitter):
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


def oracle_fixture(task, seed=13, instances_per_class=24):
    """One uniform block of jitters, class by class, then one normal block of
    noise for all points; every instance is built and featurized on its own."""
    sc = synthetic.task_scenario(task)
    rng = np.random.default_rng(seed)
    labels = sorted(sc["objects"])
    jitters = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, (len(labels), instances_per_class))
    instances = [oracle_object_points(oracle_jittered(sc["objects"][label], float(jitter)))
                 for label, row in zip(labels, jitters) for jitter in row]
    sizes = [pts.shape[0] for pts in instances]
    noise = rng.standard_normal((sum(sizes), 3))
    features = []
    for pts, chunk in zip(instances, np.split(noise, np.cumsum(sizes)[:-1])):
        pts = pts + 0.0008 * chunk
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / (pts.shape[0] - 1)
        features.append(np.concatenate([pts.max(axis=0) - pts.min(axis=0),
                                        np.sort(np.linalg.eigvalsh(cov))[::-1],
                                        [float(pts.shape[0])]]))
    return np.vstack(features), [label for label in labels for _ in range(instances_per_class)]


def denser(spec, density):
    """A spec sampled ``density`` times finer along each surface axis."""
    out = dict(spec)
    if spec["kind"] == "ellipsoid":
        out["points"] = int(round(spec["points"] * density * density))
    elif spec["kind"] in ("tray", "disc"):
        out["spacing"] = spec["spacing"] / density
    else:
        n_theta, n_z = spec["points"]
        out["points"] = (int(round(n_theta * density)), int(round(n_z * density)))
    return out


OBJECT_SPECS = [pytest.param(spec, id=label) for task in synthetic.TASKS
                for label, spec in synthetic.task_scenario(task)["objects"].items()]


def principal_angle_deg(a, b):
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.degrees(np.arccos(np.clip(s.min(), -1.0, 1.0))))


class TestDemos:
    def test_zero_noise_equals_ground_truth(self):
        demos, truth = synthetic.generate_synthetic_demos("egg", count=4, noise=0.0, seed=3)
        for (times, angles), clean in zip(demos, truth["clean_demos"]):
            assert np.array_equal(angles, clean)

    def test_same_seed_identical(self):
        a, _ = synthetic.generate_synthetic_demos("egg", count=5, noise=0.01, seed=9)
        b, _ = synthetic.generate_synthetic_demos("egg", count=5, noise=0.01, seed=9)
        for (ta, qa), (tb, qb) in zip(a, b):
            assert np.array_equal(ta, tb)
            assert np.array_equal(qa, qb)

    @pytest.mark.parametrize("task", synthetic.TASKS)
    def test_pca_recovers_generative_directions(self, task):
        demos, truth = synthetic.generate_synthetic_demos(task, count=8, noise=0.004, seed=7)
        postures = np.vstack([angles for _, angles in demos])
        configs = synergy.ConfigurationMatrix.from_postures(
            postures, theta0=synthetic.nominal_posture())
        basis = synergy.fit_synergy_basis(configs, 0.85)
        assert basis.synergy_dim == 2
        assert principal_angle_deg(truth["directions"].T, basis.e_hat) < 5.0

    def test_unknown_task(self):
        with pytest.raises(UnknownTaskError):
            synthetic.generate_synthetic_demos("juggling", count=3, noise=0.0, seed=0)

    def test_count_validation_and_durations(self):
        with pytest.raises(ValueError):
            synthetic.generate_synthetic_demos("egg", count=1, noise=0.0, seed=0)
        demos, _ = synthetic.generate_synthetic_demos("egg", count=3, noise=0.0, seed=0)
        durations = [times[-1] for times, _ in demos]
        assert len(set(durations)) == 3  # distinct demo durations


class TestScene:
    @pytest.mark.parametrize("task", synthetic.TASKS)
    def test_segmentation_recovers_objects(self, task):
        cloud, meta = synthetic.generate_synthetic_scene(task, seed=11)
        _, _, outliers = perception.ransac_plane(cloud, iterations=300,
                                                 inlier_threshold=0.005, seed=11)
        clusters = perception.euclidean_cluster(cloud[outliers], epsilon=0.02,
                                                min_points=30)
        assert len(clusters) == len(meta["objects"]) >= 2

    def test_zero_noise_centroids_exact(self):
        cloud, meta = synthetic.generate_synthetic_scene("egg", seed=11, noise=0.0)
        for obj in meta["objects"]:
            pts = cloud[obj["start"]:obj["start"] + obj["count"]]
            err = np.linalg.norm(pts.mean(axis=0) - np.asarray(obj["centroid"]))
            assert err < 1e-3  # strictly below one millimeter

    def test_deterministic_given_seed(self):
        a, ma = synthetic.generate_synthetic_scene("ketchup", seed=4)
        b, mb = synthetic.generate_synthetic_scene("ketchup", seed=4)
        assert np.array_equal(a, b)
        assert ma == mb

    def test_objects_clear_of_table(self):
        cloud, meta = synthetic.generate_synthetic_scene("egg", seed=11, noise=0.0)
        for obj in meta["objects"]:
            pts = cloud[obj["start"]:obj["start"] + obj["count"]]
            assert pts[:, 2].min() >= synthetic.OBJECT_CLEARANCE - 1e-9

    def test_unknown_task(self):
        with pytest.raises(UnknownTaskError):
            synthetic.generate_synthetic_scene("juggling", seed=0)


class TestObjectGeometry:
    @pytest.mark.parametrize("density", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("spec", OBJECT_SPECS)
    def test_object_points_bit_identical_to_per_instance_oracle(self, spec, density):
        spec = denser(spec, density)
        points = synthetic.object_points(spec)
        expected = oracle_object_points(spec)
        assert points.shape == expected.shape
        assert points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("density", [1.0, 2.0])
    @pytest.mark.parametrize("spec", OBJECT_SPECS)
    def test_instances_bit_identical_to_per_instance_oracle(self, spec, density):
        spec = denser(spec, density)
        jitters = 1.0 + 0.1 * np.random.default_rng(5).uniform(-1.0, 1.0, 60)
        points, counts = synthetic._instances(spec, jitters)
        expected = [oracle_object_points(oracle_jittered(spec, float(j))) for j in jitters]
        assert counts.tolist() == [e.shape[0] for e in expected]
        assert points.tobytes() == np.vstack(expected).tobytes()

    def test_unknown_kind(self):
        spec = {"kind": "torus", "center_xy": (0.0, 0.0)}
        with pytest.raises(UnknownTaskError):
            synthetic.object_points(spec)


class TestFixture:
    @pytest.mark.parametrize("task", synthetic.TASKS)
    @pytest.mark.parametrize("seed", [0, 13, 29])
    def test_matches_per_instance_oracle(self, task, seed):
        features, labels = synthetic.svm_training_fixture(task, seed=seed)
        expected, expected_labels = oracle_fixture(task, seed=seed)
        assert labels == expected_labels
        assert features.shape == expected.shape
        assert np.all(np.abs(features - expected) <= 1e-12 * np.abs(expected))

    def test_svm_fixture_balanced_and_deterministic(self):
        fa, la = synthetic.svm_training_fixture("egg", seed=13)
        fb, lb = synthetic.svm_training_fixture("egg", seed=13)
        assert np.array_equal(fa, fb)
        assert la == lb
        assert sorted(set(la)) == ["egg", "tray"]
        assert la.count("egg") == la.count("tray")
