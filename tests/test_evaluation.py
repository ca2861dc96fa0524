import json

import numpy as np
import pytest

from synkit import evaluation, kmp
from synkit.errors import DimensionMismatchError, LengthMismatchError, ZeroVarianceError
from conftest import make_reference
from test_kmp import oracle_predict_mean

# hand-computed with the covariance / sigma-product formula:
# a=(1,2,3), p=(2,4,7): sum(da*dp)=5, denominator sqrt(2)*sqrt(114/9)*3 = sqrt(228)
PEARSON_123_247 = 15.0 / np.sqrt(228.0)


def oracle_pearson(a, p):
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    da = a - a.mean()
    dp = p - p.mean()
    return float(np.sum(da * dp) / (np.sqrt(np.sum(da**2)) * np.sqrt(np.sum(dp**2))))


class TestPearson:
    def test_identity_is_one(self, rng):
        a = rng.standard_normal(50)
        assert evaluation.pearson_r(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self, rng):
        a = rng.standard_normal(50)
        assert evaluation.pearson_r(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_value(self):
        got = evaluation.pearson_r([1.0, 2.0, 3.0], [2.0, 4.0, 7.0])
        assert got == pytest.approx(PEARSON_123_247, abs=1e-12)
        assert got == pytest.approx(oracle_pearson([1, 2, 3], [2, 4, 7]), abs=1e-15)

    def test_affine_invariance(self, rng):
        a = rng.standard_normal(40)
        p = rng.standard_normal(40)
        base = evaluation.pearson_r(a, p)
        assert evaluation.pearson_r(3.0 * a + 2.0, p) == pytest.approx(base, abs=1e-9)
        assert evaluation.pearson_r(a, 0.5 * p - 7.0) == pytest.approx(base, abs=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(ZeroVarianceError):
            evaluation.pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            evaluation.pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])


class TestRmse:
    def test_identical_sequences(self, rng):
        a = rng.standard_normal(30)
        assert evaluation.rmse(a, a) == 0.0

    def test_constant_offset(self, rng):
        a = rng.standard_normal(30)
        assert evaluation.rmse(a, a + 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_three_four_residuals(self):
        assert evaluation.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            np.sqrt(12.5), abs=1e-12)

    def test_symmetry_exact(self, rng):
        a = rng.standard_normal(20)
        p = rng.standard_normal(20)
        assert evaluation.rmse(a, p) == evaluation.rmse(p, a)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            evaluation.rmse([1.0], [1.0, 2.0])


class TestBatchedScoresAreBitForBit:
    """component_scores against per-column pearson_r and rmse, compared exactly."""

    @pytest.mark.parametrize("k,t,s", [(1, 2, 1), (3, 7, 2), (9, 201, 2), (4, 1000, 3),
                                       (2, 2001, 6)])
    def test_random_stacks(self, k, t, s, rng):
        actual = rng.standard_normal((t, s)) * rng.uniform(0.1, 10.0, s) + rng.uniform(-5, 5, s)
        predicted = actual + 0.3 * rng.standard_normal((k, t, s))
        r, e = evaluation.component_scores(actual, predicted)
        want_r = [[evaluation.pearson_r(actual[:, j], predicted[i, :, j]) for j in range(s)]
                  for i in range(k)]
        want_e = [[evaluation.rmse(actual[:, j], predicted[i, :, j]) for j in range(s)]
                  for i in range(k)]
        assert r.shape == e.shape == (k, s)
        assert np.array_equal(r, want_r) and np.array_equal(e, want_e)

    def test_constant_column_rejected(self, rng):
        predicted = rng.standard_normal((3, 10, 2))
        predicted[1, :, 0] = 4.0
        with pytest.raises(ZeroVarianceError):
            evaluation.component_scores(rng.standard_normal((10, 2)), predicted)

    @pytest.mark.parametrize("actual_shape,predicted_shape", [
        ((10, 2), (3, 9, 2)), ((10, 2), (3, 10, 3)), ((10, 2), (10, 2)), ((1, 2), (3, 1, 2))])
    def test_shape_mismatch_rejected(self, actual_shape, predicted_shape, rng):
        with pytest.raises(LengthMismatchError):
            evaluation.component_scores(rng.standard_normal(actual_shape),
                                        rng.standard_normal(predicted_shape))


class TestBenchmark:
    @pytest.fixture()
    def reference(self):
        times = np.linspace(0.0, 1.0, 15)
        means = np.column_stack([np.sin(np.pi * times), times**2])
        covs = np.tile((0.05 * np.eye(2))[None, :, :], (15, 1, 1))
        return make_reference(times, means, covs)

    def test_zero_adaptation_reproduces_reference(self, reference, tmp_path):
        spec = kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.0)
        report = evaluation.benchmark_kernels(
            reference, [[]], [spec], lam=1e-8, seed=0, grid=reference.times,
            actual=reference, dataset_id="unit", dump_dir=tmp_path)
        assert report.rows["gaussian"]["rmse"] < 1e-2

    def test_no_adaptation_rejected(self, reference, tmp_path):
        spec = kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.0)
        with pytest.raises(LengthMismatchError, match="at least one adaptation"):
            evaluation.benchmark_kernels(
                reference, [], [spec], lam=1e-8, seed=0, grid=reference.times,
                actual=reference, dataset_id="unit", dump_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_determinism(self, reference, tmp_path):
        specs = [
            kmp.KernelSpec(kind="exponential", l=0.05, sigma2=1.0),
            kmp.KernelSpec(kind="gaussian", l=0.05, sigma2=1.0),
            kmp.KernelSpec(kind="cauchy", l=0.05, sigma2=1.0, alpha=1.0),
        ]
        vias = [[kmp.ViaPoint(0.5, np.array([0.3, 0.1]), 1e-6 * np.eye(2))]]
        r1, r2 = (evaluation.benchmark_kernels(
            reference, vias, specs, lam=0.5, seed=3, grid=reference.times, actual=reference,
            dataset_id="unit", dump_dir=tmp_path / name) for name in ("a", "b"))
        assert r1.to_json() == r2.to_json()

    def test_report_provenance_and_formats(self, reference, tmp_path):
        spec = kmp.KernelSpec(kind="cauchy", l=0.05, sigma2=1.0, alpha=1.0)
        report = evaluation.benchmark_kernels(
            reference, [[]], [spec], lam=0.7, seed=11, grid=reference.times,
            actual=reference, dataset_id="unit", dump_dir=tmp_path)
        payload = json.loads(report.to_json())
        assert payload["lambda"] == 0.7
        assert payload["seed"] == 11
        assert payload["dataset_id"] == "unit"
        assert payload["kernel_specs"]["cauchy"]["alpha"] == 1.0
        text = report.to_text()
        assert "cauchy" in text and "rMSE" in text
        assert (tmp_path / "trajectory_cauchy_adaptation0.csv").exists()

    @pytest.mark.parametrize("case", ["mixed", "none"])
    def test_grouped_fits_match_separate_oracle_fits(self, reference, case, tmp_path,
                                                      monkeypatch):
        """Adaptations with the same via-point times share one fit per kernel."""
        specs = [
            kmp.KernelSpec(kind="exponential", l=0.1, sigma2=1.0),
            kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.0),
            kmp.KernelSpec(kind="cauchy", l=0.1, sigma2=1.0, alpha=1.0),
        ]
        cov = 1e-6 * np.eye(2)
        adaptations, fits_per_kernel = [[]], 1
        if case == "mixed":
            adaptations = [
                [kmp.ViaPoint(0.5, np.array([0.3, 0.1]), cov),
                 kmp.ViaPoint(1.0, np.array([0.2, 0.9]), cov)],
                [kmp.ViaPoint(0.5, np.array([0.4, 0.0]), cov),
                 kmp.ViaPoint(1.0, np.array([0.1, 1.1]), cov)],
                # beyond the grid radius: appended, so its times differ
                [kmp.ViaPoint(1.2, np.array([0.0, 1.4]), cov)],
                # replaces the point at 0.5: same length, other times
                [kmp.ViaPoint(0.52, np.array([0.3, 0.2]), cov),
                 kmp.ViaPoint(1.0, np.array([0.2, 0.9]), cov)],
            ]
            fits_per_kernel = 3
        grid = np.linspace(0.0, 1.2, 13)
        actual = make_reference(grid, np.column_stack([np.sin(np.pi * grid), grid**2]))
        fit_sizes = []
        real_fit = evaluation.kmp_fit

        def counting_fit(ref, spec, lam):
            fit_sizes.append(len(ref))
            return real_fit(ref, spec, lam)

        monkeypatch.setattr(evaluation, "kmp_fit", counting_fit)
        report = evaluation.benchmark_kernels(reference, adaptations, specs, lam=0.5, seed=0,
                                              grid=grid, actual=actual, dataset_id="unit",
                                              dump_dir=tmp_path)
        assert len(fit_sizes) == fits_per_kernel * len(specs)

        shared_cells = set()
        for spec in specs:
            r_scores, e_scores = [], []
            for idx, vias in enumerate(adaptations):
                adapted = kmp.apply_via_points(reference, vias)
                want = np.array([oracle_predict_mean(adapted, spec, 0.5, t) for t in grid])
                path = tmp_path / f"trajectory_{spec.kind}_adaptation{idx}.csv"
                lines = path.read_text().splitlines()
                dumped = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
                assert dumped.shape == (grid.shape[0], 5)
                assert np.array_equal(dumped[:, :3], np.column_stack([grid, actual.means]))
                assert np.abs(dumped[:, 3:] - want).max() < 1e-8
                shared_cells.add(tuple(",".join(line.split(",")[:3]) for line in lines))
                r_scores.append(np.mean([oracle_pearson(actual.means[:, j], want[:, j])
                                         for j in range(2)]))
                e_scores.append(np.mean(np.sqrt(np.mean((actual.means - want) ** 2, axis=0))))
            assert abs(report.rows[spec.kind]["R"] - np.mean(r_scores)) < 1e-8
            assert abs(report.rows[spec.kind]["rmse"] - np.mean(e_scores)) < 1e-8
        # t and actual cells are byte-identical in every dump of the call
        assert len(shared_cells) == 1

    @pytest.mark.parametrize("s", [1, 3])
    def test_actual_of_other_dimension_rejected(self, reference, s, tmp_path):
        actual = make_reference(reference.times, np.ones((len(reference), s)))
        spec = kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.0)
        with pytest.raises(DimensionMismatchError):
            evaluation.benchmark_kernels(reference, [[]], [spec], lam=1.0, seed=0,
                                         grid=reference.times, actual=actual,
                                         dataset_id="unit", dump_dir=tmp_path)

    def test_r_range_validation(self):
        with pytest.raises(ValueError):
            evaluation.MetricReport(rows={"gaussian": {"R": 1.5, "rmse": 0.1}},
                                    kernel_specs={}, lam=1.0, seed=0, dataset_id="x")
