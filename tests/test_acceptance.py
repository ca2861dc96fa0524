"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from synkit import encoding, evaluation, kmp, perception, pipeline, synthetic
from synkit.cli import benchmark_dataset, cli_dispatch
from test_kmp import oracle_predict_mean
from test_perception import lstsq_plane, oracle_components


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] {name}: FAIL")
        raise
    print(f"\n[criterion {num}] {name}: PASS")


def test_criterion_1_kernel_validity_suite():
    with criterion(1, "kernel validity: symmetric PSD matrices on random grids"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(2, 51))
            times = np.sort(rng.uniform(0.0, 1.0, size=n))
            l = float(rng.uniform(0.01, 0.5))
            s2 = float(rng.uniform(0.1, 3.0))
            alpha = float(rng.uniform(0.2, 5.0))
            specs = [
                kmp.KernelSpec(kind="exponential", l=l, sigma2=s2),
                kmp.KernelSpec(kind="gaussian", l=l, sigma2=s2),
                kmp.KernelSpec(kind="cauchy", l=l, sigma2=s2, alpha=alpha),
            ]
            for spec in specs:
                mat = kmp.build_kernel_matrix(spec, times, dim=2)
                assert np.abs(mat - mat.T).max() < 1e-9
                assert np.linalg.eigvalsh(mat).min() >= -1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"kernel validity suite took {elapsed:.1f}s"


def test_criterion_2_kmp_reproduction(egg_learning):
    with criterion(2, "KMP reproduction at lambda=1e-8 (gaussian) rMSE < 1e-2"):
        reference = egg_learning["reference"]
        spec = kmp.KernelSpec(kind="gaussian", l=0.05, sigma2=1.0)
        model = kmp.kmp_fit(reference, spec, lam=1e-8)
        predictions = np.vstack([
            kmp.kmp_predict(model, float(t)) for t in reference.times
        ])
        assert evaluation.rmse(reference.means.ravel(), predictions.ravel()) < 1e-2
        # dense linear-solve oracle over a sample of training times
        for t in reference.times[::6]:
            want = oracle_predict_mean(reference, spec, 1e-8, float(t))
            got = kmp.kmp_predict(model, float(t))
            assert np.abs(got - want).max() < 1e-8


def test_criterion_3_via_point_attainment(egg_learning):
    with criterion(3, "via-point attainment within 0.01 for all three kernels"):
        reference = egg_learning["reference"]
        desired = np.array([-0.2, 0.18])
        via = kmp.ViaPoint(t_star=0.47, desired_e=desired,
                           desired_cov=1e-6 * np.eye(2))
        adapted = kmp.insert_via_point(reference, via)
        for kind in ("exponential", "gaussian", "cauchy"):
            spec = kmp.KernelSpec(kind=kind, l=0.05, sigma2=1.0,
                                  alpha=1.0 if kind == "cauchy" else None)
            model = kmp.kmp_fit(adapted, spec, lam=1e-8)
            got = kmp.kmp_predict(model, 0.47)
            assert np.abs(got - desired).max() < 0.01, kind


def test_criterion_4_kernel_ordering(tmp_path):
    with criterion(4, "kernel comparison ordering (rMSE exp>gauss>cauchy, R reversed)"):
        start = time.perf_counter()
        config = pipeline.default_config("egg")
        reference, dense, actual, adaptations = benchmark_dataset(config)
        specs = [
            kmp.KernelSpec(kind="exponential", l=0.02, sigma2=1.0),
            kmp.KernelSpec(kind="gaussian", l=0.02, sigma2=1.0),
            kmp.KernelSpec(kind="cauchy", l=0.02, sigma2=1.0, alpha=1.0),
        ]
        report = evaluation.benchmark_kernels(
            reference, adaptations, specs, lam=1.0, seed=config.seed,
            grid=dense, actual=actual, dataset_id="egg-synthetic", dump_dir=tmp_path)
        rows = report.rows
        assert rows["exponential"]["rmse"] > rows["gaussian"]["rmse"] > rows["cauchy"]["rmse"]
        assert rows["exponential"]["R"] < rows["gaussian"]["R"] < rows["cauchy"]["R"]
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"kernel benchmark took {elapsed:.1f}s"


def test_criterion_5_perception_suite():
    with criterion(5, "perception: plane recovery, clustering, centroids, SVM"):
        config = pipeline.default_config("egg")
        cloud, meta = synthetic.generate_synthetic_scene("egg", seed=config.ransac_seed)
        n_table = meta["table_points"]

        (fitted, _), inliers, outliers = perception.ransac_plane(
            cloud, iterations=config.ransac_iterations,
            inlier_threshold=0.005, seed=config.ransac_seed)
        inl = set(inliers.tolist())
        table_idx = set(range(n_table))
        assert len(inl & table_idx) >= 0.99 * n_table
        assert not (inl - table_idx), "object points contaminated the plane"
        # least-squares oracle on the known table points
        normal = lstsq_plane(cloud[:n_table])
        assert abs(abs(float(fitted @ normal)) - 1.0) < 1e-4

        objects_cloud = cloud[outliers]
        assert objects_cloud.shape[0] <= 2000
        clusters = perception.euclidean_cluster(
            objects_cloud, epsilon=config.cluster_epsilon,
            min_points=config.cluster_min_points)
        assert len(clusters) == len(meta["objects"])
        # brute-force connected-components oracle
        oracle = {c for c in oracle_components(objects_cloud, config.cluster_epsilon)
                  if len(c) >= config.cluster_min_points}
        assert {frozenset(c.indices.tolist()) for c in clusters} == oracle

        for obj in meta["objects"]:
            ann = np.asarray(obj["centroid"])
            err = min(np.linalg.norm(c.points.mean(axis=0) - ann) for c in clusters)
            assert err < 0.005, f"{obj['label']} centroid off by {err:.4f} m"

        rng = np.random.default_rng(17)
        pos = rng.uniform(-1.0, 1.0, size=(100, 2)) + np.array([0.0, 2.0])
        neg = rng.uniform(-1.0, 1.0, size=(100, 2)) - np.array([0.0, 2.0])
        feats = np.vstack([pos, neg])
        labels = ["a"] * 100 + ["b"] * 100
        svm = perception.svm_train(feats, labels, c=10.0, epochs=200, seed=17)
        assert all(perception.svm_classify(svm, f)[0] == lab
                   for f, lab in zip(feats, labels)), "SVM training accuracy below 100%"


def test_criterion_6_force_suite(egg_log, ketchup_log):
    with criterion(6, "force: cone truth table, superposition, task force bands"):
        from synkit import force as force_mod
        from test_force import make_basis, make_model, oracle_cone

        rng = np.random.default_rng(99)
        for _ in range(1000):
            f = rng.standard_normal(3) * rng.uniform(0.1, 10.0)
            mu = float(rng.uniform(0.1, 2.0))
            assert force_mod.friction_cone_check(f, mu) == oracle_cone(*f, mu)

        model = make_model(rng)
        basis = make_basis(rng)
        w1, w2 = rng.standard_normal((2, 6))
        d1, d2 = rng.standard_normal((2, 2))
        lhs = force_mod.contact_forces(model, w1 + w2, basis, d1 + d2)
        rhs = (force_mod.contact_forces(model, w1, basis, d1)
               + force_mod.contact_forces(model, w2, basis, d2))
        assert np.abs(lhs - rhs).max() < 1e-12

        egg_force = egg_log.stage("force")
        assert egg_force["mu"] == 0.64
        assert 2.38 <= egg_force["final_grip"] <= 3.16
        assert egg_force["all_stable"]
        ketchup_force = ketchup_log.stage("force")
        assert ketchup_force["mu"] == 0.71
        assert 2.38 <= ketchup_force["final_grip"] <= 4.26
        assert ketchup_force["all_stable"]


def _run_cli_snapshot(out, *argv):
    code = cli_dispatch([*argv, "--out", str(out)])
    assert code == 0, f"{argv} exited {code}"
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {str(p.relative_to(out)): p.read_bytes() for p in files}


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "bit-identical CLI outputs across repeated runs"):
        jobs = {
            "simulate": ("simulate", "--task", "egg"),
            "benchmark": ("benchmark-kernels", "--task", "egg"),
            "gen-demos": ("generate", "demos", "--task", "egg", "--seed", "5"),
            "gen-scene": ("generate", "scene", "--task", "ketchup", "--seed", "5"),
        }
        for name, argv in jobs.items():
            out = tmp_path / name  # identical config: same seeds, same out dir
            first = _run_cli_snapshot(out, *argv)
            second = _run_cli_snapshot(out, *argv)
            assert first.keys() == second.keys(), name
            for rel in first:
                assert first[rel] == second[rel], f"{name}: {rel} differs"


def test_criterion_8_gmm_gmr_properties(egg_learning):
    with criterion(8, "GMM/GMR: monotone EM, normalized priors, exact conditional"):
        model = egg_learning["gmm"]
        diffs = np.diff(model.ll_history)
        assert np.all(diffs >= -1e-7 * (1.0 + np.abs(model.ll_history[:-1])))
        assert float(model.priors.sum()) == pytest.approx(1.0, abs=1e-9)

        rng = np.random.default_rng(321)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            a = rng.standard_normal((dim, dim))
            cov = a @ a.T + 0.4 * np.eye(dim)
            mean = rng.standard_normal(dim)
            single = encoding.GmmModel(priors=np.array([1.0]), means=mean[None, :],
                                       covariances=cov[None, :, :],
                                       ll_history=np.array([0.0]))
            t = float(rng.standard_normal())
            got_mean, got_cov = encoding.gmr_condition(single, t)
            gain = cov[0, 1:] / cov[0, 0]
            want_mean = mean[1:] + gain * (t - mean[0])
            want_cov = cov[1:, 1:] - np.outer(gain, cov[0, 1:])
            assert np.abs(got_mean - want_mean).max() < 1e-9
            assert np.abs(got_cov - want_cov).max() < 1e-9


def test_criterion_9_metric_units():
    with criterion(9, "metric units: correlation and error identities"):
        rng = np.random.default_rng(55)
        a = rng.standard_normal(64)
        assert evaluation.pearson_r(a, a) == pytest.approx(1.0, abs=1e-12)
        assert evaluation.pearson_r(a, -a) == pytest.approx(-1.0, abs=1e-12)
        assert evaluation.rmse(a, a) == pytest.approx(0.0, abs=1e-12)
        assert evaluation.rmse(a, a + 1.3) == pytest.approx(1.3, abs=1e-12)
        p = rng.standard_normal(64)
        base = evaluation.pearson_r(a, p)
        for scale, shift in ((2.0, 1.0), (0.3, -4.0), (7.5, 0.0)):
            assert evaluation.pearson_r(scale * a + shift, p) == pytest.approx(
                base, abs=1e-9)
            assert evaluation.pearson_r(a, scale * p + shift) == pytest.approx(
                base, abs=1e-9)
