import re

import numpy as np
import pytest

from synkit import encoding, kmp
from synkit.errors import (
    DimensionMismatchError,
    InvalidInputError,
    SingularCovarianceError,
    SingularSystemError,
)
from conftest import make_reference


def oracle_kernel(kind, l, s2, alpha, t1, t2):
    """Independent scalar kernel formulas for the oracle solver."""
    d = abs(t1 - t2)
    if kind == "exponential":
        return s2 * np.exp(-d / l)
    if kind == "gaussian":
        return s2 * np.exp(-(d**2) / (2 * l * l))
    return s2 * (1 + d**2 / (2 * alpha * l * l)) ** (-alpha)


def oracle_predict_mean(reference, spec, lam, t_star):
    """Dense linear-solve oracle for the mean prediction, from scratch."""
    times = np.asarray(reference.times)
    n = times.shape[0]
    s = reference.means.shape[1]
    alpha = spec.alpha if spec.alpha is not None else 1.0
    big = np.zeros((n * s, n * s))
    for i in range(n):
        for j in range(n):
            kij = oracle_kernel(spec.kind, spec.l, spec.sigma2, alpha, times[i], times[j])
            for d in range(s):
                big[i * s + d, j * s + d] = kij
    mu = reference.means.reshape(n * s)
    w = np.linalg.solve(big + lam * np.eye(n * s), mu)
    row = np.zeros((s, n * s))
    for i in range(n):
        k = oracle_kernel(spec.kind, spec.l, spec.sigma2, alpha, t_star, times[i])
        for d in range(s):
            row[d, i * s + d] = k
    return row @ w


def oracle_predict_cov(reference, spec, lam, t_star):
    """Dense linear-solve oracle for the covariance prediction, from scratch."""
    times = np.asarray(reference.times)
    n = times.shape[0]
    s = reference.means.shape[1]
    alpha = spec.alpha if spec.alpha is not None else 1.0
    big = np.zeros((n * s, n * s))
    for i in range(n):
        for j in range(n):
            kij = oracle_kernel(spec.kind, spec.l, spec.sigma2, alpha, times[i], times[j])
            for d in range(s):
                big[i * s + d, j * s + d] = kij
        big[i * s:(i + 1) * s, i * s:(i + 1) * s] += lam * reference.covariances[i]
    row = np.zeros((s, n * s))
    for i in range(n):
        k = oracle_kernel(spec.kind, spec.l, spec.sigma2, alpha, t_star, times[i])
        for d in range(s):
            row[d, i * s + d] = k
    k_self = oracle_kernel(spec.kind, spec.l, spec.sigma2, alpha, t_star, t_star)
    return (n / lam) * (k_self * np.eye(s) - row @ np.linalg.solve(big, row.T))


def random_spd_reference(rng, n=10, s=2):
    times = np.sort(rng.uniform(0.0, 1.0, n))
    times += np.arange(n) * 1e-6  # keep strictly increasing
    means = rng.standard_normal((n, s))
    covs = np.empty((n, s, s))
    for i in range(n):
        a = rng.standard_normal((s, s))
        covs[i] = a @ a.T + 0.1 * np.eye(s)
    return make_reference(times, means, covs)


def oracle_apply_via_points(reference, via_points):
    """The per-insert loop: a checked ReferenceTrajectory is built after every via-point."""
    out = reference
    for via in via_points:
        if via.desired_e.shape[0] != out.synergy_dim:
            raise DimensionMismatchError("via-point dimension does not match reference")
        r = 0.5 * float(np.median(np.diff(out.times))) if len(out) > 1 else 0.0
        times = np.array(out.times)
        means = np.array(out.means)
        covs = np.array(out.covariances)
        gaps = np.abs(times - via.t_star)
        nearest = int(np.argmin(gaps))
        if gaps[nearest] <= r:
            times[nearest] = via.t_star
            means[nearest] = via.desired_e
            covs[nearest] = via.desired_cov
        else:
            times = np.append(times, via.t_star)
            means = np.vstack([means, via.desired_e[None, :]])
            covs = np.concatenate([covs, via.desired_cov[None, :, :]], axis=0)
        order = np.argsort(times, kind="stable")
        out = encoding.ReferenceTrajectory(times=times[order], means=means[order],
                                           covariances=covs[order])
    return out


ALL_SPECS = [
    kmp.KernelSpec(kind="exponential", l=0.07, sigma2=1.3),
    kmp.KernelSpec(kind="gaussian", l=0.07, sigma2=1.3),
    kmp.KernelSpec(kind="cauchy", l=0.07, sigma2=1.3, alpha=1.0),
]


class TestKernelEval:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_zero_lag_equals_sigma2(self, spec):
        assert float(kmp.kernel_eval(spec, 0.37, 0.37)) == pytest.approx(spec.sigma2)

    def test_exponential_at_one_length_scale(self):
        spec = kmp.KernelSpec(kind="exponential", l=0.2, sigma2=2.0)
        assert float(kmp.kernel_eval(spec, 0.0, 0.2)) == pytest.approx(2.0 * np.exp(-1.0))

    def test_cauchy_large_alpha_approaches_gaussian(self):
        gauss = kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.0)
        cauchy = kmp.KernelSpec(kind="cauchy", l=0.1, sigma2=1.0, alpha=1e6)
        for d in np.linspace(0.0, 0.5, 51):
            kg = float(kmp.kernel_eval(gauss, 0.0, d))
            kc = float(kmp.kernel_eval(cauchy, 0.0, d))
            assert abs(kg - kc) < 1e-4

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_symmetry(self, spec, rng):
        for _ in range(100):
            t1, t2 = rng.standard_normal(2)
            assert kmp.kernel_eval(spec, t1, t2) == kmp.kernel_eval(spec, t2, t1)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_monotone_decay(self, spec):
        lags = np.linspace(0.0, 2.0, 200)
        vals = kmp.kernel_eval(spec, 0.0, lags)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_cauchy_heavier_tails_than_gaussian(self, rng):
        for _ in range(20):
            l = float(rng.uniform(0.02, 0.5))
            s2 = float(rng.uniform(0.5, 3.0))
            gauss = kmp.KernelSpec(kind="gaussian", l=l, sigma2=s2)
            cauchy = kmp.KernelSpec(kind="cauchy", l=l, sigma2=s2, alpha=1.0)
            lags = np.linspace(0.0, 3.0, 100)
            kg = kmp.kernel_eval(gauss, 0.0, lags)
            kc = kmp.kernel_eval(cauchy, 0.0, lags)
            assert np.all(kc >= kg * (1.0 - 1e-12))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.0, alpha=2.0)
        with pytest.raises(ValueError):
            kmp.KernelSpec(kind="cauchy", l=0.1, sigma2=1.0)
        with pytest.raises(ValueError):
            kmp.KernelSpec(kind="triangular", l=0.1, sigma2=1.0)
        with pytest.raises(ValueError):
            kmp.KernelSpec(kind="gaussian", l=-0.1, sigma2=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    @pytest.mark.parametrize("name", ["l", "sigma2", "alpha"])
    def test_spec_parameters_finite_and_positive(self, name, value):
        params = {"l": 0.1, "sigma2": 1.0, "alpha": 1.0, name: value}
        with pytest.raises(InvalidInputError, match=f"parameter {name} "):
            kmp.KernelSpec(kind="cauchy", **params)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, 0.0, -1.0])
    def test_fit_lambda_finite_and_positive(self, lam):
        ref = make_reference(np.linspace(0.0, 1.0, 5), np.zeros((5, 2)))
        with pytest.raises(InvalidInputError, match="lambda"):
            kmp.kmp_fit(ref, ALL_SPECS[1], lam)


def oracle_kernel_eval(spec, t1, t2):
    """kernel_eval as whole-array expressions, each step a fresh array."""
    dt = np.abs(np.asarray(t1, dtype=float) - np.asarray(t2, dtype=float))
    if spec.kind == "exponential":
        return spec.sigma2 * np.exp(-dt / spec.l)
    if spec.kind == "gaussian":
        return spec.sigma2 * np.exp(-(dt**2) / (2.0 * spec.l**2))
    return spec.sigma2 * (1.0 + dt**2 / (2.0 * spec.alpha * spec.l**2)) ** (-spec.alpha)


ORACLE_SPECS = [
    kmp.KernelSpec(kind="exponential", l=0.07, sigma2=1.3),
    kmp.KernelSpec(kind="gaussian", l=0.031, sigma2=0.6),
    kmp.KernelSpec(kind="cauchy", l=0.07, sigma2=1.3, alpha=1.0),
    kmp.KernelSpec(kind="cauchy", l=0.045, sigma2=2.7, alpha=2.5),
    kmp.KernelSpec(kind="cauchy", l=0.2, sigma2=0.9, alpha=0.3),
]


class TestInPlaceKernelIsBitForBit:
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"{s.kind}-{s.alpha}")
    def test_kernel_eval_scalar_and_arrays(self, spec, rng):
        times = np.sort(rng.uniform(0.0, 1.0, 40))
        queries = rng.uniform(-0.2, 1.2, 17)
        for t1, t2 in ((0.37, 0.12), (0.5, 0.5), (queries[:, None], times),
                       (times[:, None], times[None, :]), (times, 0.0)):
            got, want = kmp.kernel_eval(spec, t1, t2), oracle_kernel_eval(spec, t1, t2)
            assert np.ndim(got) == np.ndim(want) and type(got) is type(want)
            assert np.array_equal(got, want)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"{s.kind}-{s.alpha}")
    def test_overflowing_lags_give_zero_without_a_warning(self, spec):
        lags = np.array([1e160, -1e200, 1e308])
        assert np.array_equal(kmp.kernel_eval(spec, 0.0, lags), np.zeros(3))
        assert kmp.kernel_eval(spec, 1e308, -1e308) == 0.0

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 37.5])
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"{s.kind}-{s.alpha}")
    def test_mean_factor_matches_the_dense_sum(self, spec, lam, rng):
        for n in (1, 7, 60):
            ref = random_spd_reference(rng, n=n, s=3)
            n_ref = len(ref)
            a_mean = kmp.build_kernel_matrix(spec, ref.times) + lam * np.eye(n_ref)
            want = np.linalg.solve(a_mean, ref.means)
            assert np.array_equal(kmp.kmp_fit(ref, spec, lam).mean_factor, want)

    def test_scalar_kernel_matrix_is_the_kernel_array(self, rng):
        times = np.sort(rng.uniform(0.0, 1.0, 12))
        for spec in ORACLE_SPECS:
            want = np.kron(oracle_kernel_eval(spec, times[:, None], times[None, :]), np.eye(1))
            assert np.array_equal(kmp.build_kernel_matrix(spec, times), want)


class TestKernelMatrix:
    def test_single_time_scalar(self):
        spec = kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.7)
        mat = kmp.build_kernel_matrix(spec, [0.3], dim=1)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(1.7)

    def test_repeated_times_psd(self):
        spec = kmp.KernelSpec(kind="exponential", l=0.1, sigma2=1.0)
        mat = kmp.build_kernel_matrix(spec, [0.5, 0.5, 0.5], dim=2)
        assert np.abs(mat - mat.T).max() == 0.0
        assert np.linalg.eigvalsh(mat).min() >= -1e-9

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_random_grids_psd(self, spec, rng):
        for _ in range(20):
            times = np.sort(rng.uniform(0.0, 1.0, size=rng.integers(2, 30)))
            mat = kmp.build_kernel_matrix(spec, times, dim=2)
            assert np.abs(mat - mat.T).max() < 1e-12
            assert np.linalg.eigvalsh(mat).min() >= -1e-9

    def test_block_structure(self):
        spec = kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.0)
        times = np.array([0.0, 0.3])
        mat = kmp.build_kernel_matrix(spec, times, dim=2)
        k01 = float(kmp.kernel_eval(spec, 0.0, 0.3))
        assert mat[0, 2] == pytest.approx(k01)
        assert mat[0, 3] == 0.0
        assert mat[1, 3] == pytest.approx(k01)


class TestFitPredict:
    def test_scalar_closed_form_mean_factor(self):
        ref = make_reference([0.5], [[2.0]], [[[0.3]]])
        spec = kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.5)
        model = kmp.kmp_fit(ref, spec, lam=0.5)
        assert model.mean_factor[0] == pytest.approx(2.0 / (1.5 + 0.5))
        # prediction at the training time
        assert kmp.kmp_predict(model, 0.5)[0] == pytest.approx(1.5 * 2.0 / (1.5 + 0.5))

    def test_scalar_closed_form_cov(self):
        s2, lam, svar = 1.5, 0.5, 0.3
        ref = make_reference([0.5], [[2.0]], [[[svar]]])
        spec = kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=s2)
        model = kmp.kmp_fit(ref, spec, lam=lam)
        got = kmp.kmp_predict_cov(model, 0.5)[0, 0]
        want = (1.0 / lam) * (s2 - s2**2 / (s2 + lam * svar))
        assert got == pytest.approx(want, rel=1e-12)

    def test_interpolation_at_small_lambda_vs_oracle(self, rng):
        times = np.linspace(0.0, 1.0, 15)
        means = np.column_stack([np.sin(2 * np.pi * times), np.cos(np.pi * times)])
        covs = np.tile((0.05 * np.eye(2))[None, :, :], (15, 1, 1))
        ref = make_reference(times, means, covs)
        spec = kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.0)
        model = kmp.kmp_fit(ref, spec, lam=1e-8)
        for t in times:
            got = kmp.kmp_predict(model, float(t))
            want = oracle_predict_mean(ref, spec, 1e-8, float(t))
            assert np.abs(got - want).max() < 1e-8
        # interpolation property: reproduces the reference at training times
        pred = np.vstack([kmp.kmp_predict(model, float(t)) for t in times])
        assert np.sqrt(np.mean((pred - means) ** 2)) < 1e-3

    def test_constant_reference_reproduced(self, rng):
        # length scale well above the grid spacing so every kernel bridges gaps
        times = np.linspace(0.0, 1.0, 12)
        c = 0.8
        ref = make_reference(times, np.full((12, 1), c),
                             np.full((12, 1, 1), 0.02))
        for kind in ("exponential", "gaussian", "cauchy"):
            spec = kmp.KernelSpec(kind=kind, l=1.0, sigma2=1.0,
                                  alpha=1.0 if kind == "cauchy" else None)
            model = kmp.kmp_fit(ref, spec, lam=1e-6)
            got = kmp.kmp_predict(model, 0.5)[0]
            assert abs(got - c) < 1e-2 * abs(c)

    def test_determinism(self):
        times = np.linspace(0.0, 1.0, 9)
        ref = make_reference(times, np.sin(times)[:, None],
                             np.full((9, 1, 1), 0.1))
        spec = kmp.KernelSpec(kind="cauchy", l=0.05, sigma2=1.0, alpha=1.0)
        a = kmp.kmp_fit(ref, spec, lam=0.3)
        b = kmp.kmp_fit(ref, spec, lam=0.3)
        assert np.array_equal(a.mean_factor, b.mean_factor)
        grid = np.linspace(0.0, 1.0, 17)
        assert np.array_equal(kmp.kmp_predict_cov(a, grid), kmp.kmp_predict_cov(b, grid))

    def test_far_query_cov_approaches_prior_scale(self):
        times = np.linspace(0.0, 1.0, 8)
        ref = make_reference(times, np.zeros((8, 2)),
                             np.tile(np.eye(2)[None, :, :] * 0.1, (8, 1, 1)))
        spec = kmp.KernelSpec(kind="gaussian", l=0.02, sigma2=1.3)
        model = kmp.kmp_fit(ref, spec, lam=0.7)
        cov = kmp.kmp_predict_cov(model, 50.0)
        want = (len(ref) / 0.7) * 1.3 * np.eye(2)
        assert np.abs(cov - want).max() < 1e-9

    def test_random_cov_symmetric_psd(self, rng):
        ref = random_spd_reference(rng)
        for spec in ALL_SPECS:
            model = kmp.kmp_fit(ref, spec, lam=0.5)
            for t in rng.uniform(-0.2, 1.2, 10):
                cov = kmp.kmp_predict_cov(model, float(t))
                assert np.abs(cov - cov.T).max() < 1e-9
                assert np.linalg.eigvalsh(cov).min() >= -1e-9

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_cov_vs_oracle_on_grid(self, spec, rng):
        ref = random_spd_reference(rng)
        model = kmp.kmp_fit(ref, spec, lam=0.5)
        grid = np.linspace(-0.2, 1.2, 41)
        got = kmp.kmp_predict_cov(model, grid)
        assert got.shape == (41, 2, 2)
        for t, cov in zip(grid, got):
            want = oracle_predict_cov(ref, spec, 0.5, float(t))
            assert np.abs(cov - want).max() < 1e-9

    def test_cov_grid_spanning_several_blocks_vs_oracle(self, rng):
        ref = random_spd_reference(rng)
        spec = kmp.KernelSpec(kind="cauchy", l=0.1, sigma2=1.0, alpha=1.0)
        model = kmp.kmp_fit(ref, spec, lam=0.5)
        block = kmp._QUERY_BLOCK
        grid = np.linspace(-0.2, 1.2, 2 * block + 3)
        got = kmp.kmp_predict_cov(model, grid)
        assert got.shape == (grid.size, 2, 2)
        # both ends and either side of every block boundary
        for i in (0, block - 1, block, 2 * block - 1, 2 * block, grid.size - 1):
            want = oracle_predict_cov(ref, spec, 0.5, float(grid[i]))
            assert np.abs(got[i] - want).max() < 1e-9

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_grid_matches_single_times(self, spec, rng):
        model = kmp.kmp_fit(random_spd_reference(rng, s=3), spec, lam=0.5)
        grid = np.linspace(-0.2, 1.2, 23)
        means = kmp.kmp_predict(model, grid)
        covs = kmp.kmp_predict_cov(model, grid)
        assert means.shape == (23, 3) and covs.shape == (23, 3, 3)
        for t, mean, cov in zip(grid, means, covs):
            single_mean = kmp.kmp_predict(model, float(t))
            single_cov = kmp.kmp_predict_cov(model, float(t))
            assert single_mean.shape == (3,) and single_cov.shape == (3, 3)
            assert np.abs(single_mean - mean).max() < 1e-12
            assert np.abs(single_cov - cov).max() < 1e-12

    def test_mean_grid_spanning_several_blocks_matches_single_times(self, rng):
        model = kmp.kmp_fit(random_spd_reference(rng), ALL_SPECS[1], lam=0.5)
        grid = np.linspace(-0.2, 1.2, 2 * kmp._QUERY_BLOCK + 3)
        means = kmp.kmp_predict(model, grid)
        assert means.shape == (grid.size, 2)
        for t, mean in zip(grid, means):
            assert np.abs(kmp.kmp_predict(model, float(t)) - mean).max() < 1e-12

    def test_singular_cov_system_raises_on_every_prediction(self):
        # two times 1e-15 apart give K = 1.5 * ones(2, 2), so with Sigma = 0
        # K + lambda Sigma is singular while K + lambda I has condition 7
        ref = make_reference([0.5, 0.5 + 1e-15], [[2.0], [2.0]], np.zeros((2, 1, 1)))
        spec = kmp.KernelSpec(kind="gaussian", l=0.1, sigma2=1.5)
        model = kmp.kmp_fit(ref, spec, lam=0.5)
        for _ in range(2):
            with pytest.raises(SingularSystemError):
                kmp.kmp_predict_cov(model, 0.5)

    def test_singular_system_raises(self):
        times = np.array([0.2, 0.2 + 1e-15, 0.4])
        ref = make_reference(times, np.zeros((3, 1)), np.full((3, 1, 1), 1.0))
        spec = kmp.KernelSpec(kind="gaussian", l=0.3, sigma2=1.0)
        with pytest.raises(SingularSystemError):
            kmp.kmp_fit(ref, spec, lam=1e-16)


class TestViaPoints:
    @pytest.fixture()
    def reference(self):
        times = np.linspace(0.0, 1.0, 21)
        means = np.column_stack([np.sin(np.pi * times), 0.5 * times])
        covs = np.tile((0.05 * np.eye(2))[None, :, :], (21, 1, 1))
        return make_reference(times, means, covs)

    def test_replace_within_radius(self, reference):
        via = kmp.ViaPoint(t_star=0.5, desired_e=np.array([2.0, -1.0]),
                           desired_cov=1e-6 * np.eye(2))
        out = kmp.insert_via_point(reference, via)
        assert len(out) == len(reference)
        idx = int(np.argmin(np.abs(out.times - 0.5)))
        assert np.array_equal(out.means[idx], via.desired_e)

    # via times as a function of the reference's grid; the grid of
    # random_spd_reference spans [0, 1] and its half median spacing exceeds 1e-4
    VIA_PLANS = {
        "replace": lambda t: [t[2] + 1e-5, t[5] - 1e-5, t[0]],
        "append": lambda t: [1.5, -0.5, 2.5],
        "replace-appended": lambda t: [1.5, t[3], 1.5 + 1e-5],
        # the radius follows the grown grid: once 2..5 are in, the median
        # spacing is 1, so 5.4 replaces 5 where the first grid's radius would not
        "growing-grid": lambda t: [2.0, 3.0, 4.0, 5.0, 5.4],
        # the same before the grid, which only a grid sorted after each insert sees
        "growing-grid-before": lambda t: [-1.0, -2.0, -3.0, -4.0, -4.4],
    }

    @staticmethod
    def random_via(rng, t, s=2):
        a = rng.standard_normal((s, s))
        return kmp.ViaPoint(t_star=t, desired_e=rng.standard_normal(s),
                            desired_cov=a @ a.T + 1e-3 * np.eye(s))

    @pytest.mark.parametrize("plan", list(VIA_PLANS))
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_per_insert_oracle(self, plan, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n = 3 if plan.startswith("growing-grid") else 10
        reference = random_spd_reference(rng, n=n)
        vias = [self.random_via(rng, t) for t in self.VIA_PLANS[plan](reference.times)]
        want = oracle_apply_via_points(reference, vias)

        built = []
        check = encoding.ReferenceTrajectory.__post_init__

        def counted(record):
            built.append(record)
            check(record)

        monkeypatch.setattr(encoding.ReferenceTrajectory, "__post_init__", counted)
        got = kmp.apply_via_points(reference, vias)
        assert len(built) == 1 and built[0] is got  # built and checked once
        for name in ("times", "means", "covariances"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        if plan.startswith("growing-grid"):
            assert len(got) == n + 4 and vias[-1].t_star in got.times

    def test_wrong_dimension_mid_list_raises_as_oracle(self, rng):
        reference = random_spd_reference(rng)
        vias = [self.random_via(rng, 0.3), self.random_via(rng, 0.6, s=3),
                self.random_via(rng, 0.9)]
        with pytest.raises(DimensionMismatchError) as want:
            oracle_apply_via_points(reference, vias)
        with pytest.raises(DimensionMismatchError) as got:
            kmp.apply_via_points(reference, vias)
        assert str(got.value) == str(want.value)

    def test_via_point_into_empty_reference_is_appended(self, rng):
        empty = make_reference(np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2, 2)))
        via = self.random_via(rng, 0.4)
        out = kmp.insert_via_point(empty, via)
        assert out.times.tolist() == [0.4]
        assert np.array_equal(out.means, via.desired_e[None, :])
        assert np.array_equal(out.covariances, via.desired_cov[None, :, :])

    @pytest.mark.parametrize("off", [0.0, 0.5, -3.0])
    def test_symmetry_check_is_allclose(self, off):
        # near-symmetric covariances on both sides of allclose's bound
        # 1e-12 + 1e-5 |a.T|, accepted exactly when np.allclose accepts them
        bound = 1e-12 + 1e-5 * abs(off)
        verdicts = set()
        for skew in bound * np.linspace(0.99, 1.01, 41):
            cov = np.array([[10.0, off], [off + skew, 10.0]])
            symmetric = np.allclose(cov, cov.T, atol=1e-12)
            verdicts.add(symmetric)
            if symmetric:
                kmp.ViaPoint(t_star=0.5, desired_e=np.zeros(2), desired_cov=cov)
            else:
                with pytest.raises(InvalidInputError, match="symmetric"):
                    kmp.ViaPoint(t_star=0.5, desired_e=np.zeros(2), desired_cov=cov)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_via_attainment_all_kernels(self, reference, spec):
        desired = np.array([0.9, -0.4])
        via = kmp.ViaPoint(t_star=0.35, desired_e=desired,
                           desired_cov=1e-6 * np.eye(2))
        adapted = kmp.insert_via_point(reference, via)
        model = kmp.kmp_fit(adapted, spec, lam=1e-8)
        got = kmp.kmp_predict(model, 0.35)
        assert np.abs(got - desired).max() < 0.01
        # independent dense-solve oracle agrees
        want = oracle_predict_mean(adapted, spec, 1e-8, 0.35)
        assert np.abs(got - want).max() < 1e-6


class TestFusePriorities:
    def test_single_trajectory_identity(self, rng):
        times = np.linspace(0.0, 1.0, 5)
        means = rng.standard_normal((5, 2))
        covs = np.tile((0.3 * np.eye(2))[None, :, :], (5, 1, 1))
        ref = make_reference(times, means, covs)
        fused = kmp.fuse_priorities([ref], [1.0])
        assert np.abs(fused.means - ref.means).max() < 1e-12
        assert np.abs(fused.covariances - ref.covariances).max() < 1e-12

    def test_two_equal_gaussians(self):
        times = np.array([0.0])
        a = make_reference(times, [[0.0]], [[[1.0]]])
        b = make_reference(times, [[1.0]], [[[1.0]]])
        fused = kmp.fuse_priorities([a, b], [1.0, 1.0])
        assert fused.means[0, 0] == pytest.approx(0.5)
        assert fused.covariances[0, 0, 0] == pytest.approx(0.5)

    def test_large_priority_dominates(self):
        times = np.array([0.0])
        a = make_reference(times, [[0.0]], [[[1.0]]])
        b = make_reference(times, [[1.0]], [[[1.0]]])
        fused = kmp.fuse_priorities([a, b], [1e3, 1.0])
        # closed-form precision-weighted mean
        want = (1e3 * 0.0 + 1.0 * 1.0) / (1e3 + 1.0)
        assert abs(fused.means[0, 0] - want) < 1e-12
        assert abs(fused.means[0, 0]) < 1e-2

    def test_fused_precision_is_sum_of_scaled_precisions(self, rng):
        times = np.linspace(0.0, 1.0, 4)
        refs, weights = [], []
        for d in range(3):
            covs = np.empty((4, 2, 2))
            for i in range(4):
                a = rng.standard_normal((2, 2))
                covs[i] = a @ a.T + 0.2 * np.eye(2)
            refs.append(make_reference(times, rng.standard_normal((4, 2)), covs))
            weights.append(rng.uniform(0.5, 2.0, size=4))
        fused = kmp.fuse_priorities(refs, weights)
        for i in range(4):
            want = sum(w[i] * np.linalg.inv(r.covariances[i])
                       for r, w in zip(refs, weights))
            got = np.linalg.inv(fused.covariances[i])
            assert np.abs(got - want).max() < 1e-9
            assert np.linalg.eigvalsh(fused.covariances[i]).min() > 0.0

    def test_singular_covariance_rejected(self):
        times = np.array([0.0])
        bad = make_reference(times, [[0.0, 0.0]],
                             [[[1.0, 0.0], [0.0, 0.0]]])
        with pytest.raises(SingularCovarianceError):
            kmp.fuse_priorities([bad], [1.0])

    @pytest.mark.parametrize("weight", [np.nan, np.inf, 0.0, -1.0])
    def test_weights_finite_and_positive(self, weight):
        ref = make_reference(np.linspace(0.0, 1.0, 4), np.ones((4, 2)))
        with pytest.raises(InvalidInputError, match="priority weights"):
            kmp.fuse_priorities([ref, ref], [[1.0, weight, 1.0, 1.0], 1.0])

    def test_singular_error_names_first_grid_point(self):
        times = np.linspace(0.0, 1.0, 6)
        late = np.tile(np.eye(2), (6, 1, 1))
        late[4] = [[1.0, 0.0], [0.0, 0.0]]
        early = np.tile(np.eye(2), (6, 1, 1))
        early[2] = [[1.0, 1.0], [1.0, 1.0]]
        refs = [make_reference(times, np.zeros((6, 2)), c) for c in (late, early)]
        with pytest.raises(SingularCovarianceError, match="grid point 2 "):
            kmp.fuse_priorities(refs, [1.0, 1.0])


@pytest.mark.parametrize("kind", kmp.KERNEL_KINDS)
@pytest.mark.parametrize("n", [25, 100, 200])
def test_symmetric_cond_matches_numpy_cond(kind, n):
    """Both regression systems: K + lambda I and K kron I_S + lambda Sigma."""
    rng = np.random.default_rng(n)
    times = np.sort(rng.uniform(0.0, 1.0, n))
    s = 2
    factors = rng.standard_normal((n, s, s))
    sigma = np.zeros((n * s, n * s))
    for i, f in enumerate(factors):
        sigma[i * s:(i + 1) * s, i * s:(i + 1) * s] = f @ f.T + 0.1 * np.eye(s)
    for l in (0.02, 0.2):
        spec = kmp.KernelSpec(kind=kind, l=l, sigma2=1.0,
                              alpha=1.0 if kind == "cauchy" else None)
        for lam in (1e-6, 1e-3, 1.0):
            for a in (kmp.build_kernel_matrix(spec, times) + lam * np.eye(n),
                      kmp.build_kernel_matrix(spec, times, s) + lam * sigma):
                assert kmp._symmetric_cond(a) == pytest.approx(np.linalg.cond(a), rel=1e-6)


@pytest.mark.parametrize("n", [2, 25, 26, 100, 200])
def test_row_sum_bound_never_skips_an_ill_conditioned_system(n, monkeypatch):
    """Seeded sweep over kinds, l, lambda and sigma2, half with repeated times.

    Whenever ``_require_conditioned`` returns without the eigenvalue test,
    the dense test would also have passed; where it runs, it decides.
    Both systems: K + lambda I and K kron I_S + lambda Sigma.
    """
    dense_cond = kmp._symmetric_cond
    dense_calls = []
    monkeypatch.setattr(kmp, "_symmetric_cond",
                        lambda a: dense_calls.append(1) or dense_cond(a))
    rng = np.random.default_rng(n)
    s = 2
    skipped = raised = 0
    for kind in kmp.KERNEL_KINDS:
        for trial in range(8):
            l, lam, sigma2 = 10.0 ** rng.uniform([-3.0, -14.0, -2.0], [np.log10(3.0), 1.0, 2.0])
            spec = kmp.KernelSpec(kind=kind, l=l, sigma2=sigma2,
                                  alpha=1.0 if kind == "cauchy" else None)
            times = np.sort(rng.uniform(0.0, 1.0, n))
            if trial % 2:
                times = np.sort(np.repeat(times[: (n + 1) // 2], 2)[:n])
            factors = rng.standard_normal((n, s, s))
            covs = factors @ factors.transpose(0, 2, 1) + 10.0 ** rng.uniform(-6, 0) * np.eye(s)
            sigma = np.zeros((n * s, n * s))
            for i, c in enumerate(covs):
                sigma[i * s:(i + 1) * s, i * s:(i + 1) * s] = c
            for a, floor in (
                    (kmp.build_kernel_matrix(spec, times) + lam * np.eye(n), lam),
                    (kmp.build_kernel_matrix(spec, times, s) + lam * sigma,
                     lam * np.linalg.eigvalsh(covs).min())):
                singular = dense_cond(a) > kmp.COND_LIMIT
                calls = len(dense_calls)
                try:
                    kmp._require_conditioned(a, floor, spec, "system")
                except SingularSystemError:
                    assert singular
                    raised += 1
                else:
                    assert not singular
                skipped += len(dense_calls) == calls
    assert skipped and raised  # the sweep reaches both sides of the bound


def test_fit_on_a_well_conditioned_reference_runs_no_eigendecomposition(monkeypatch):
    n = 200
    rng = np.random.default_rng(5)
    ref = make_reference(np.linspace(0.0, 1.0, n), rng.standard_normal((n, 2)))
    real_eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *args, **kwargs: calls.append(1) or real_eigvalsh(*args, **kwargs))
    for spec in ALL_SPECS:
        model = kmp.kmp_fit(ref, spec, lam=1.0)
        expected = np.linalg.solve(kmp.build_kernel_matrix(spec, ref.times) + np.eye(n),
                                   ref.means)
        assert np.array_equal(model.mean_factor, expected)
    assert calls == []


def test_covariances_are_decomposed_once_per_reference(monkeypatch):
    """One eigvalsh per reference; kmp_predict_cov and fuse_priorities reuse its spectrum."""
    real_eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *args, **kwargs: calls.append(1) or real_eigvalsh(*args, **kwargs))
    monkeypatch.setattr(np.linalg, "cond", None)  # fuse_priorities runs no SVD
    ref = random_spd_reference(np.random.default_rng(3), n=25)
    assert len(calls) == 1
    for spec in ALL_SPECS:
        # lambda 1 and covariances above 0.1 I: the row-sum bound clears the system
        kmp.kmp_predict_cov(kmp.kmp_fit(ref, spec, lam=1.0), np.linspace(0.0, 1.0, 7))
    assert len(calls) == 1
    kmp.fuse_priorities([ref, ref], [1.0, 2.0])
    assert len(calls) == 2  # the fused reference's own check


@pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
def test_underflowing_length_scale_is_invalid_input(kind):
    ref = make_reference(np.linspace(0.0, 1.0, 5), np.zeros((5, 2)))
    spec = kmp.KernelSpec(kind=kind, l=1e-300, sigma2=1.0,
                          alpha=1.0 if kind == "cauchy" else None)
    with pytest.raises(InvalidInputError, match=rf"{kind} kernel.*l=1e-300"):
        kmp.kmp_fit(ref, spec, lam=1.0)


@pytest.mark.filterwarnings("error")
def test_overflowing_bound_defers_to_the_eigenvalues_without_a_warning():
    ref = make_reference(np.linspace(0.0, 1.0, 5), np.zeros((5, 2)))
    with pytest.raises(SingularSystemError):  # row sums of 5 * 1e308 overflow
        kmp.kmp_fit(ref, kmp.KernelSpec(kind="gaussian", l=1.0, sigma2=1e308), lam=1.0)
    model = kmp.kmp_fit(ref, ALL_SPECS[1], lam=1e300)  # lambda * COND_LIMIT / 4 overflows
    assert np.isfinite(kmp.kmp_predict_cov(model, 0.5)).all()


@pytest.mark.parametrize("kind,l,alpha,rejected", [
    ("gaussian", 1e200, None, True),
    ("cauchy", 1e200, 1.0, True),
    ("cauchy", 1e150, 1e10, True),  # l^2 is finite, 2 alpha l^2 is not
    ("gaussian", 1e150, None, False),
    ("cauchy", 1e150, 1.0, False),
    ("exponential", 1e200, None, False),  # divides by l itself
])
def test_length_scale_whose_square_overflows_is_invalid_input(kind, l, alpha, rejected):
    if rejected:
        with pytest.raises(InvalidInputError, match=re.escape(f"l={l!r} is too large")):
            kmp.KernelSpec(kind=kind, l=l, sigma2=1.0, alpha=alpha)
    else:
        kmp.KernelSpec(kind=kind, l=l, sigma2=1.0, alpha=alpha)


def subnormal_gaussian_reference(n, s):
    """A Gaussian kernel at l = 0.02 on n points of [0, 1]: far lags are subnormal."""
    rng = np.random.default_rng(n)
    ref = random_spd_reference(rng, n=n, s=s)
    spec = kmp.KernelSpec(kind="gaussian", l=0.02, sigma2=1.0)
    k = kmp.build_kernel_matrix(spec, ref.times)
    assert ((k > 0.0) & (k < np.finfo(float).tiny)).any()
    return ref, spec


def factored_systems(monkeypatch):
    """Every matrix np.linalg.solve factors from here on."""
    real_solve, systems = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: systems.append(a.copy()) or real_solve(a, b))
    return systems


def assert_no_subnormal(systems):
    assert systems and all(not (np.abs(a[a != 0.0]) < np.finfo(float).tiny).any()
                           for a in systems)


@pytest.mark.parametrize("lam", [1e-3, 1.0])
def test_subnormal_kernel_entries_leave_the_mean_factor_bit_for_bit(lam, monkeypatch):
    ref, spec = subnormal_gaussian_reference(200, 3)
    want = np.linalg.solve(kmp.build_kernel_matrix(spec, ref.times) + lam * np.eye(200),
                           ref.means)
    systems = factored_systems(monkeypatch)
    assert np.array_equal(kmp.kmp_fit(ref, spec, lam).mean_factor, want)
    assert_no_subnormal(systems)


def test_subnormal_kernel_entries_leave_the_covariance_at_the_oracle(monkeypatch):
    ref, spec = subnormal_gaussian_reference(120, 2)
    model = kmp.kmp_fit(ref, spec, lam=0.5)
    grid = np.array([-0.1, 0.0, 0.37, 1.0])
    systems = factored_systems(monkeypatch)
    got = kmp.kmp_predict_cov(model, grid)
    assert_no_subnormal(systems)
    monkeypatch.undo()
    for t, cov in zip(grid, got):
        assert np.abs(cov - oracle_predict_cov(ref, spec, 0.5, float(t))).max() < 1e-9


def test_subnormal_products_are_dropped_in_place_and_nan_is_kept():
    tiny = np.finfo(float).tiny
    a = np.array([[2.0, 1e-160, -1e-160, tiny / 4],
                  [np.nan, 1e-150, -1e-150, 0.0]])
    kmp._drop_subnormal_products(a, 1.0)
    assert np.array_equal(a, [[2.0, 0.0, 0.0, 0.0], [np.nan, 1e-150, -1e-150, 0.0]],
                          equal_nan=True)
    a = np.array([1e-140, 1e-130])
    kmp._drop_subnormal_products(a, 1e20)  # the cut scales with sigma2
    assert np.array_equal(a, [0.0, 1e-130])
