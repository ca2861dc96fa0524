import dataclasses
import re

import numpy as np
import pytest

from synkit import encoding, force, kmp, perception, pipeline, synergy
from synkit.errors import (
    DegenerateComponentError,
    DimensionMismatchError,
    EmptyDemoError,
    InvalidInputError,
    NonMonotonicTimeError,
    SynkitError,
)


@pytest.fixture()
def basis():
    e_hat = np.zeros((6, 2))
    e_hat[0, 0] = 1.0
    e_hat[1, 1] = 1.0
    return synergy.SynergyBasis(e_hat=e_hat, theta0=np.full(6, 0.2),
                                variance_fractions=np.array([0.7, 0.3]))


def closed_form_conditional(mean, cov, t):
    """Textbook conditional of a joint Gaussian over (t, e)."""
    mu_t, mu_e = mean[0], mean[1:]
    s_tt = cov[0, 0]
    s_te = cov[0, 1:]
    s_ee = cov[1:, 1:]
    cm = mu_e + s_te / s_tt * (t - mu_t)
    cc = s_ee - np.outer(s_te, s_te) / s_tt
    return cm, cc


class TestInterpolate:
    def test_constant_demo_gives_zero_trajectory(self, basis):
        times = np.linspace(0.0, 5.0, 10)
        angles = np.tile(basis.theta0, (10, 1))
        grid = np.linspace(0.0, 1.0, 7)
        (coeffs,) = encoding.interpolate_coefficients([(times, angles)], basis, grid)
        assert np.abs(coeffs).max() < 1e-12

    def test_linear_coefficients_interpolate_exactly(self, basis):
        times = np.array([0.0, 2.0])
        e_values = np.array([[0.0, 0.0], [1.0, -0.5]])
        angles = basis.theta0[None, :] + e_values @ basis.e_hat.T
        grid = np.array([0.5])
        (coeffs,) = encoding.interpolate_coefficients([(times, angles)], basis, grid)
        assert np.abs(coeffs[0] - np.array([0.5, -0.25])).max() < 1e-12

    def test_sine_coefficient_resampling_error(self, basis):
        times = np.linspace(0.0, 1.0, 400)
        e_values = np.column_stack([np.sin(2.0 * np.pi * times), np.zeros_like(times)])
        angles = basis.theta0[None, :] + e_values @ basis.e_hat.T
        grid = np.linspace(0.0, 1.0, 1000)
        (coeffs,) = encoding.interpolate_coefficients([(times, angles)], basis, grid)
        analytic = np.sin(2.0 * np.pi * grid)
        assert np.abs(coeffs[:, 0] - analytic).max() < 1e-3

    def test_empty_demo_rejected(self, basis):
        with pytest.raises(EmptyDemoError):
            encoding.interpolate_coefficients(
                [(np.array([0.0]), basis.theta0[None, :])], basis, np.array([0.0]))

    def test_angles_of_another_joint_count_rejected(self, basis):
        demo = (np.array([0.0, 1.0]), np.zeros((2, 5)))
        with pytest.raises(DimensionMismatchError, match="demo angles must be"):
            encoding.interpolate_coefficients([demo], basis, np.array([0.5]))

    def test_non_monotonic_time_rejected(self, basis):
        times = np.array([0.0, 2.0, 1.0])
        angles = np.tile(basis.theta0, (3, 1))
        with pytest.raises(NonMonotonicTimeError):
            encoding.interpolate_coefficients([(times, angles)], basis,
                                              np.array([0.5]))

    @pytest.mark.parametrize("grid,error", [
        ([0.0, 0.5, 0.5, 1.0], NonMonotonicTimeError), ([0.0, 1.0, 0.5], NonMonotonicTimeError),
        ([0.0, np.nan, 1.0], InvalidInputError), ([np.nan], InvalidInputError),
        ([0.0, 1.5], InvalidInputError), ([], DimensionMismatchError),
    ], ids=["repeated", "decreasing", "nan", "only-nan", "outside", "empty"])
    def test_bad_grid_rejected(self, basis, grid, error):
        demo = (np.array([0.0, 1.0]), np.tile(basis.theta0, (2, 1)))
        with pytest.raises(error, match="^grid"):
            encoding.interpolate_coefficients([demo], basis, np.array(grid))

    def test_coefficients_stack_as_demos_by_grid_by_synergies(self, basis):
        grid = np.linspace(0.0, 1.0, 5)
        demos = [(np.linspace(0.0, 2.0, 3), basis.theta0 + k * np.eye(6)[:3]) for k in (1, 2)]
        coeffs = encoding.interpolate_coefficients(demos, basis, grid)
        assert coeffs.shape == (2, 5, 2) and coeffs.dtype == np.float64
        assert np.array_equal(coeffs[1], 2.0 * coeffs[0])


LOG_2PI = np.log(2.0 * np.pi)


def oracle_log_gauss(x, mean, cov):
    """Log density of one Gaussian at rows of x, from slogdet and an explicit inverse."""
    d = x.shape[1]
    _, log_det = np.linalg.slogdet(cov)
    diff = x - mean
    maha = np.sum((diff @ np.linalg.inv(cov)) * diff, axis=1)
    return -0.5 * (maha + log_det + d * np.log(2.0 * np.pi))


class TestLogGauss:
    def test_batched_matches_per_component_oracle(self, rng):
        for n in range(1, 5):
            for d in (1, 2, 3):
                a = rng.standard_normal((n, d, d))
                covs = a @ np.swapaxes(a, 1, 2) + 0.2 * np.eye(d)
                means = rng.standard_normal((n, d))
                x = rng.standard_normal((40, d))
                got = encoding._log_gauss(np.ascontiguousarray(x.T), means,
                                          encoding._factor(covs), 0.5 * d * LOG_2PI)
                assert got.shape == (n, 40)
                for k in range(n):
                    want = oracle_log_gauss(x, means[k], covs[k])
                    assert np.abs(got[k] - want).max() < 1e-10


class TestFactor:
    def test_floor_adds_half_the_floored_trace_of_the_inverse(self, rng):
        a = rng.standard_normal((3, 4, 4))
        covs = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(4)
        inv_chol, log_det = encoding._factor(covs)
        _, floored = encoding._factor(covs, floor=0.3)
        for k in range(3):
            inv = np.linalg.inv(covs[k])
            assert np.abs(inv_chol[k].T @ inv_chol[k] - inv).max() < 1e-10
            assert log_det[k] == pytest.approx(0.5 * np.linalg.slogdet(covs[k])[1], abs=1e-12)
            assert floored[k] - log_det[k] == pytest.approx(0.15 * np.trace(inv), rel=1e-12)

    def test_indefinite_covariance_names_its_component(self):
        covs = np.stack([np.eye(2), np.diag([1.0, -1e-3]), np.eye(2)])
        with pytest.raises(DegenerateComponentError, match="component 1 covariance collapsed"):
            encoding._factor(covs)

    def test_covariance_only_cholesky_rejects_is_collapsed(self):
        # rotations of diag(1, 1, 1e-17): the first whose Cholesky fails although
        # eigvalsh puts all its eigenvalues above zero
        rng = np.random.default_rng(0)
        for _ in range(1000):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            cov = q @ np.diag([1.0, 1.0, 1e-17]) @ q.T
            cov = 0.5 * (cov + cov.T)
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                if np.linalg.eigvalsh(cov).min() > 0.0:
                    break
        else:
            pytest.fail("no such covariance among 1000 rotations")
        with pytest.raises(DegenerateComponentError, match="^a covariance collapsed"):
            encoding._factor(cov[None])

    def test_component_without_responsibility_mass_is_degenerate(self, rng):
        x = rng.standard_normal((10, 2))
        resp = np.vstack([np.ones(10), np.zeros(10)])
        with pytest.raises(DegenerateComponentError, match="lost all responsibility mass"):
            encoding._m_step(x, np.ascontiguousarray(x.T), resp, 1e-6, 1e-6 * np.eye(2))


# The EM step and Lloyd loop as written before they were fused: the fused
# code must reproduce them bit for bit.
def oracle_factor(covs, floor):
    chol = np.linalg.cholesky(covs)
    inv_chol = np.linalg.inv(chol)
    log_det = np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    return inv_chol, log_det + 0.5 * floor * np.sum(inv_chol**2, axis=(1, 2))


def oracle_centered(x, means):
    return np.ascontiguousarray(x.T) - means[:, :, None]


def oracle_log_gauss_stack(x, means, factor):
    inv_chol, log_det = factor
    sol = inv_chol @ oracle_centered(x, means)
    return (
        -0.5 * np.sum(sol**2, axis=1)
        - log_det[:, None]
        - 0.5 * x.shape[1] * np.log(2.0 * np.pi)
    ).T


def oracle_posterior(x, priors, means, factor):
    log_joint = np.log(priors) + oracle_log_gauss_stack(x, means, factor)
    top = log_joint.max(axis=1, keepdims=True)
    log_norm = top[:, 0] + np.log(np.exp(log_joint - top).sum(axis=1))
    return log_norm, np.exp(log_joint - log_norm[:, None])


def oracle_e_step(x, theta, factor):
    log_norm, resp = oracle_posterior(x, theta[0], theta[1], factor)
    return float(log_norm.sum()), resp


def oracle_weighted_moments(x, weights, mass, floor):
    means = (weights.T @ x) / mass[:, None]
    diff = oracle_centered(x, means)
    covs = (diff * weights.T[:, None, :]) @ np.swapaxes(diff, 1, 2) / mass[:, None, None]
    covs += floor * np.eye(x.shape[1])
    return means, 0.5 * (covs + np.swapaxes(covs, 1, 2))


def oracle_m_step(x, resp, floor):
    m = x.shape[0]
    mass = resp.sum(axis=0)
    priors = mass / m
    means, covs = oracle_weighted_moments(x, resp, mass, floor)
    return (priors / priors.sum(), means, covs), oracle_factor(covs, floor)


def oracle_sq_dists(x, centers):
    return np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)


def oracle_lloyd(x, centers, iters=10):
    k, d = centers.shape
    for _ in range(iters):
        labels = np.argmin(oracle_sq_dists(x, centers), axis=1)
        counts = np.bincount(labels, minlength=k)
        sums = np.bincount((labels[:, None] * d + np.arange(d)).ravel(), weights=x.ravel(),
                           minlength=k * d).reshape(k, d)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        for j in np.flatnonzero(~filled):
            centers[j] = x[np.argmax(np.min(oracle_sq_dists(x, centers), axis=1))]
    return np.argmin(oracle_sq_dists(x, centers), axis=1)


class TestFusedStepIsBitForBit:
    def test_e_and_m_step_match_the_unfused_oracle(self, rng):
        for d in (1, 2, 3, 4):
            for n in range(1, 6):
                x = rng.standard_normal((30 * n, d)) * rng.uniform(0.5, 2.0, size=d)
                xt = np.ascontiguousarray(x.T)
                floor = 1e-6 * np.var(x, axis=0).mean()
                const = 0.5 * d * LOG_2PI
                a = rng.standard_normal((n, d, d))
                covs = a @ np.swapaxes(a, 1, 2) + 0.05 * np.eye(d)
                priors, means = rng.dirichlet(np.ones(n)), rng.standard_normal((n, d))
                want_ll, want_resp = oracle_e_step(x, (priors, means, covs),
                                                   oracle_factor(covs, floor))
                got_ll, got_resp = encoding._e_step(xt, priors, means,
                                                    encoding._factor(covs, floor), const)
                assert got_ll == want_ll, (d, n)
                assert np.array_equal(got_resp.T, want_resp), (d, n)
                want_theta, want_factor = oracle_m_step(x, want_resp, floor)
                got_theta, got_factor = encoding._m_step(x, xt, got_resp, floor,
                                                         floor * np.eye(d))
                for got, want in zip((*got_theta, *got_factor), (*want_theta, *want_factor)):
                    assert np.array_equal(got, want), (d, n)


class TestLloyd:
    @pytest.fixture()
    def sq_dists_calls(self, monkeypatch):
        calls = []
        sq_dists = encoding._sq_dists

        def counted(*args):
            calls.append(None)
            return sq_dists(*args)

        monkeypatch.setattr(encoding, "_sq_dists", counted)
        return calls

    def test_early_exit_matches_ten_full_iterations(self, rng, sq_dists_calls):
        early = 0
        for trial in range(30):
            k, d = 1 + trial % 5, 1 + trial % 4
            x = rng.standard_normal((80, d)) + rng.integers(0, 3, size=(80, 1))
            start = x[rng.choice(80, size=k, replace=False)].copy()
            want = start.copy()
            want_labels = oracle_lloyd(x, want)
            got = start.copy()
            sq_dists_calls.clear()
            got_labels = encoding._lloyd(x, got)
            assert np.array_equal(got_labels, want_labels), trial
            assert np.array_equal(got, want), trial
            early += len(sq_dists_calls) < 11
        assert early > 0  # the exit fired, so the comparison covered it

    def test_no_early_exit_after_a_reseed(self, sq_dists_calls):
        # every point sits on a center and cluster 2 stays empty: each update
        # reseeds it and the labels repeat, which must not end the loop
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        start = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
        want = start.copy()
        want_labels = oracle_lloyd(x, want)
        got = start.copy()
        got_labels = encoding._lloyd(x, got)
        assert len(sq_dists_calls) == 21  # 10 label passes, 10 reseeds, the final labels
        assert np.array_equal(got_labels, want_labels)
        assert np.array_equal(got, want)

    def test_matches_per_cluster_means(self, rng):
        x = rng.standard_normal((120, 3))
        start = x[rng.choice(120, size=4, replace=False)].copy()
        want = start.copy()
        for _ in range(10):
            labels = np.argmin(((x[:, None, :] - want[None]) ** 2).sum(axis=2), axis=1)
            want = np.stack([x[labels == k].mean(axis=0) for k in range(4)])
        got = start.copy()
        got_labels = encoding._lloyd(x, got)
        assert np.abs(got - want).max() < 1e-12
        assert np.array_equal(got_labels,
                              np.argmin(((x[:, None, :] - want[None]) ** 2).sum(axis=2), axis=1))

    def test_empty_cluster_reseeds_on_the_farthest_point(self, rng):
        x = np.vstack([rng.normal(0.0, 0.01, size=(30, 2)), [[5.0, 5.0]]])
        centers = np.array([[0.0, 0.0], [0.01, 0.0], [100.0, 100.0]])
        labels = encoding._lloyd(x, centers)
        assert np.array_equal(centers[2], x[-1])
        assert labels[-1] == 2 and np.all(labels[:-1] != 2)


class TestKmeansPlusPlus:
    def test_centers_past_the_distinct_points_are_data_points_repeated_per_seed(self):
        # once every point sits on a chosen center, the remaining centers are
        # drawn uniformly from the data
        x = np.array([[0.0, 0.0], [1.0, 2.0]])
        for seed in range(5):
            centers = encoding._kmeanspp_centers(x, 3, np.random.default_rng(seed))
            assert centers.shape == (3, 2)
            assert all(any(np.array_equal(c, p) for p in x) for c in centers)
            assert {tuple(c) for c in centers[:2]} == {tuple(p) for p in x}
            again = encoding._kmeanspp_centers(x, 3, np.random.default_rng(seed))
            assert np.array_equal(centers, again)


def _single_gaussian_trajectories(rng, n=400):
    mean = np.array([0.3, -0.2])
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    e = rng.multivariate_normal(mean, cov, size=n)
    t = np.linspace(0.0, 1.0, n)
    return (t, e[None]), mean, cov, e


class TestFitGmm:
    def test_single_component_recovers_sample_moments(self, rng):
        (t, coeffs), mean, cov, e = _single_gaussian_trajectories(rng)
        model = encoding.fit_gmm(t, coeffs, n_components=1, seed=0)
        x = np.column_stack([t, e])
        # closed-form single-component MLE: the sample mean and covariance
        sample_mean = x.mean(axis=0)
        assert np.abs(model.means[0] - sample_mean).max() < 1e-9
        diff = x - sample_mean
        sample_cov = diff.T @ diff / x.shape[0]
        assert np.abs(model.covariances[0] - sample_cov).max() < 1e-3

    def test_well_separated_bimodal_responsibilities(self, rng):
        t = np.linspace(0.0, 1.0, 200)
        e1 = rng.normal(0.0, 0.05, size=(200, 1))
        e2 = rng.normal(5.0, 0.05, size=(200, 1))  # 100 sigma apart
        model = encoding.fit_gmm(t, np.stack([e1, e2]), n_components=2, seed=3)
        x = np.vstack([np.column_stack([t, e1]), np.column_stack([t, e2])])
        # brute-force oracle: label by nearest component mean
        labels = np.argmin(
            np.stack([np.sum((x - model.means[k]) ** 2, axis=1) for k in range(2)], axis=1),
            axis=1,
        )
        joint = np.exp(np.log(model.priors)
                       + encoding._log_gauss(x.T, model.means,
                                             encoding._factor(model.covariances), LOG_2PI).T)
        resp = joint / joint.sum(axis=1, keepdims=True)
        agree = 0
        for k in range(2):
            agree += np.sum((resp[:, k] > 0.99) & (labels == k))
        assert agree / x.shape[0] > 0.99

    def test_same_seed_identical_fit(self, rng):
        samples, *_ = _single_gaussian_trajectories(rng, n=150)
        a = encoding.fit_gmm(*samples, n_components=3, seed=11)
        b = encoding.fit_gmm(*samples, n_components=3, seed=11)
        assert np.array_equal(a.priors, b.priors)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covariances, b.covariances)

    def test_log_likelihood_monotone_and_priors_normalized(self, rng):
        samples, *_ = _single_gaussian_trajectories(rng, n=300)
        model = encoding.fit_gmm(*samples, n_components=4, seed=2)
        diffs = np.diff(model.ll_history)
        assert np.all(diffs >= -1e-7 * (1.0 + np.abs(model.ll_history[:-1])))
        assert float(model.priors.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_falling_log_likelihood_is_synkit_error(self, rng, monkeypatch):
        samples, *_ = _single_gaussian_trajectories(rng, n=300)
        calls = []
        log_gauss = encoding._log_gauss

        def falling(*args):
            calls.append(None)  # each E-step scores lower than the last
            return log_gauss(*args) - 10.0 * len(calls)

        monkeypatch.setattr(encoding, "_log_gauss", falling)
        with pytest.raises(SynkitError, match="log-likelihood decreased"):
            encoding.fit_gmm(*samples, n_components=2, seed=2)

    @pytest.mark.parametrize("times,coeffs,error,match", [
        (np.linspace(0.0, 1.0, 20), np.r_[np.zeros(79), np.nan].reshape(2, 20, 2),
         InvalidInputError, "^coeffs contains NaN or Inf"),
        (np.r_[np.linspace(0.0, 0.9, 19), np.inf], np.zeros((2, 20, 2)), InvalidInputError,
         "^times contains NaN or Inf"),
        (np.linspace(0.0, 1.0, 20), np.zeros((2, 19, 2)), DimensionMismatchError, "aligned"),
        (np.linspace(0.0, 1.0, 20), np.zeros((20, 2)), DimensionMismatchError, "aligned"),
        (np.linspace(0.0, 1.0, 20)[:, None], np.zeros((2, 20, 2)), DimensionMismatchError,
         "aligned"),
        (np.linspace(0.0, 1.0, 2), [[[0.0], [1.0, 2.0]]], DimensionMismatchError,
         "^coeffs is not a numeric array"),
        ({"a": 1.0}, np.zeros((2, 20, 2)), DimensionMismatchError, "^times is not a numeric array"),
    ], ids=["nan-coeffs", "inf-times", "grid-mismatch", "2-d-coeffs", "2-d-times", "ragged",
            "mapping"])
    def test_bad_samples_rejected(self, times, coeffs, error, match):
        with pytest.raises(error, match=match):
            encoding.fit_gmm(times, coeffs, n_components=2, seed=0)

    def test_joint_samples_are_each_demo_in_turn(self, rng, monkeypatch):
        t = np.linspace(0.0, 1.0, 30)
        coeffs = rng.standard_normal((3, 30, 2))
        seen = []
        lloyd = encoding._lloyd

        def recording(x, centers):
            seen.append(x.copy(order="K"))
            return lloyd(x, centers)

        monkeypatch.setattr(encoding, "_lloyd", recording)
        encoding.fit_gmm(t, coeffs, n_components=1, seed=0, max_iter=1)
        want = np.vstack([np.column_stack([t, c]) for c in coeffs])
        assert np.array_equal(seen[0], want) and seen[0].flags.c_contiguous

    @pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"n_components": 0},
                                        {"n_components": encoding.MAX_GMM_COMPONENTS + 1}],
                             ids=["max_iter", "n_components", "n_components-past-the-bound"])
    def test_zero_iterations_or_components_is_invalid_input(self, kwargs, rng):
        samples, *_ = _single_gaussian_trajectories(rng, n=150)
        with pytest.raises(InvalidInputError, match=f"^{next(iter(kwargs))} must be >= 1"):
            encoding.fit_gmm(*samples, **{"n_components": 2, "seed": 2, **kwargs})

    def test_component_samples_at_the_bound_fit_and_past_it_are_invalid_input(
            self, rng, monkeypatch):
        t, coeffs = np.linspace(0.0, 1.0, 30), rng.standard_normal((3, 30, 2))
        monkeypatch.setattr(encoding, "MAX_COMPONENT_SAMPLES", 2 * 3 * 30)
        encoding.fit_gmm(t, coeffs, n_components=2, seed=0)
        with pytest.raises(InvalidInputError, match=re.escape(
                "n_components * demos * times must be <= 180, got 3 * 3 * 30 = 270")):
            encoding.fit_gmm(t, coeffs, n_components=3, seed=0)


class TestEmOnTaskData:
    """EM on the default task configs run with ``--seed``: converged and monotone."""

    @pytest.fixture()
    def m_steps(self, monkeypatch):
        calls = []
        m_step = encoding._m_step

        def counted(*args):
            calls.append(None)
            return m_step(*args)

        monkeypatch.setattr(encoding, "_m_step", counted)
        return calls

    @staticmethod
    def check_fit(task, seed, m_steps):
        config = dataclasses.replace(pipeline.default_config(task), seed=seed, gmm_seed=seed)
        m_steps.clear()
        ll = pipeline.build_reference(config)[2].ll_history
        assert len(m_steps) < config.gmm_max_iter, (task, seed)
        assert ll[-1] - ll[-2] < config.gmm_tol, (task, seed)
        assert np.all(np.diff(ll) >= -encoding._LL_SLACK * (1.0 + np.abs(ll[:-1]))), (task, seed)

    @pytest.mark.parametrize("task", ["egg", "ketchup"])
    def test_seeds_converge_below_the_cap(self, task, m_steps):
        for seed in range(20):
            self.check_fit(task, seed, m_steps)

    @pytest.mark.parametrize("seed", [147, 1261])
    def test_ketchup_seeds_fit(self, seed, m_steps):
        self.check_fit("ketchup", seed, m_steps)

    def test_max_iter_bounds_the_m_steps(self, m_steps):
        config = dataclasses.replace(pipeline.default_config("ketchup"), gmm_max_iter=7)
        ll = pipeline.build_reference(config)[2].ll_history
        assert len(m_steps) == 7
        assert 1 < ll.shape[0] <= 7


class TestGmr:
    def test_single_component_matches_closed_form(self, rng):
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            cov = a @ a.T + 0.5 * np.eye(3)
            mean = rng.standard_normal(3)
            model = encoding.GmmModel(priors=np.array([1.0]), means=mean[None, :],
                                      covariances=cov[None, :, :],
                                      ll_history=np.array([0.0]))
            t = float(rng.standard_normal())
            got_mean, got_cov = encoding.gmr_condition(model, t)
            want_mean, want_cov = closed_form_conditional(mean, cov, t)
            assert np.abs(got_mean - want_mean).max() < 1e-9
            assert np.abs(got_cov - want_cov).max() < 1e-9

    def test_dominant_component_wins(self):
        # two components 10 sigma apart in time; conditioning at one center
        means = np.array([[0.0, 1.0], [10.0, -1.0]])
        covs = np.tile(np.diag([1.0, 0.1])[None, :, :], (2, 1, 1))
        model = encoding.GmmModel(priors=np.array([0.5, 0.5]), means=means,
                                  covariances=covs, ll_history=np.array([0.0]))
        mean, cov = encoding.gmr_condition(model, 0.0)
        want_mean, want_cov = closed_form_conditional(means[0], covs[0], 0.0)
        assert np.abs(mean - want_mean).max() < 1e-6
        assert np.abs(cov - want_cov).max() < 1e-6

    def test_zero_coupling_means_time_independent(self):
        means = np.array([[0.5, 2.0, -1.0]])
        covs = np.diag([0.2, 0.3, 0.4])[None, :, :]
        model = encoding.GmmModel(priors=np.array([1.0]), means=means,
                                  covariances=covs, ll_history=np.array([0.0]))
        m1, _ = encoding.gmr_condition(model, -3.0)
        m2, _ = encoding.gmr_condition(model, 7.0)
        assert np.abs(m1 - m2).max() < 1e-12

    def test_responsibilities_sum_to_one(self, rng):
        # without time coupling and with one shared output mean, every component
        # conditions to that mean, so the blend returns it only when the
        # responsibilities sum to one, out in the time tail too
        samples, *_ = _single_gaussian_trajectories(rng, n=200)
        fitted = encoding.fit_gmm(*samples, n_components=3, seed=5)
        means, covs = fitted.means.copy(), fitted.covariances.copy()
        means[:, 1:] = [0.7, -1.3]
        covs[:, 0, 1:] = covs[:, 1:, 0] = 0.0
        model = encoding.GmmModel(priors=fitted.priors, means=means, covariances=covs,
                                  ll_history=fitted.ll_history)
        for t in (-1.0, 0.0, 0.5, 2.0, 100.0):
            mean, _ = encoding.gmr_condition(model, t)
            assert mean.tolist() == pytest.approx([0.7, -1.3], abs=1e-9)

    def test_conditional_cov_symmetric_psd_random_models(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            means = rng.standard_normal((n, 3))
            covs = np.empty((n, 3, 3))
            for k in range(n):
                a = rng.standard_normal((3, 3))
                covs[k] = a @ a.T + 0.3 * np.eye(3)
            priors = rng.uniform(0.2, 1.0, size=n)
            priors /= priors.sum()
            model = encoding.GmmModel(priors=priors, means=means, covariances=covs,
                                      ll_history=np.array([0.0]))
            _, cov = encoding.gmr_condition(model, float(rng.standard_normal()))
            assert np.abs(cov - cov.T).max() < 1e-9
            assert np.linalg.eigvalsh(cov).min() >= -1e-9


class TestGenerateReference:
    def test_single_point_grid(self, rng):
        samples, *_ = _single_gaussian_trajectories(rng, n=200)
        model = encoding.fit_gmm(*samples, n_components=2, seed=9)
        ref = encoding.generate_reference(model, np.array([0.4]))
        mean, cov = encoding.gmr_condition(model, 0.4)
        assert np.array_equal(ref.means[0], mean)
        assert np.array_equal(ref.covariances[0], cov)

    def test_grid_matches_per_time_conditioning(self, rng):
        samples, *_ = _single_gaussian_trajectories(rng, n=300)
        model = encoding.fit_gmm(*samples, n_components=4, seed=8)
        grid = np.linspace(-0.1, 1.1, 50)
        ref = encoding.generate_reference(model, grid)
        for i, t in enumerate(grid):
            mean, cov = encoding.gmr_condition(model, float(t))
            assert np.abs(ref.means[i] - mean).max() < 1e-12
            assert np.abs(ref.covariances[i] - cov).max() < 1e-12

    def test_noiseless_linear_data_recovered(self):
        t = np.linspace(0.0, 1.0, 200)
        e = np.column_stack([0.5 + 0.8 * t])
        model = encoding.fit_gmm(t, e[None], n_components=3, seed=1)
        ref = encoding.generate_reference(model, t)
        assert np.abs(ref.means[:, 0] - (0.5 + 0.8 * t)).max() < 0.02

    def test_reference_covariances_psd(self, rng):
        samples, *_ = _single_gaussian_trajectories(rng, n=250)
        model = encoding.fit_gmm(*samples, n_components=3, seed=4)
        ref = encoding.generate_reference(model, np.linspace(0.0, 1.0, 31))
        for c in ref.covariances:
            assert np.linalg.eigvalsh(c).min() >= -1e-9

    def test_json_round_trip(self, rng, tmp_path):
        samples, *_ = _single_gaussian_trajectories(rng, n=150)
        model = encoding.fit_gmm(*samples, n_components=2, seed=6)
        ref = encoding.generate_reference(model, np.linspace(0.0, 1.0, 11))
        mpath = tmp_path / "gmm.json"
        rpath = tmp_path / "ref.json"
        model.to_json(mpath)
        ref.to_json(rpath)
        model2 = encoding.GmmModel.from_json(mpath)
        ref2 = encoding.ReferenceTrajectory.from_json(rpath)
        assert np.array_equal(model2.means, model.means)
        assert np.array_equal(ref2.means, ref.means)
        ref.to_csv(tmp_path / "ref.csv")
        header = (tmp_path / "ref.csv").read_text().splitlines()[0]
        assert header.startswith("t,mu1")


class TestNonFiniteRecords:
    GMM = {"priors": np.array([0.5, 0.5]), "means": np.zeros((2, 2)),
           "covariances": np.tile(np.eye(2), (2, 1, 1)), "ll_history": np.array([-3.0, -2.0])}
    REFERENCE = {"times": np.linspace(0.0, 1.0, 3), "means": np.zeros((3, 2)),
                 "covariances": np.tile(np.eye(2), (3, 1, 1))}
    SVM = {"weights": np.ones(2), "bias": 0.0, "classes": ["a", "b"],
           "feature_mean": np.zeros(2), "feature_scale": np.ones(2),
           "objective_history": np.array([1.0])}
    # valid fields of every model record; its ndarray fields are the stored arrays
    RECORDS = {
        encoding.GmmModel: GMM,
        encoding.ReferenceTrajectory: REFERENCE,
        synergy.SynergyBasis: {"e_hat": np.eye(3)[:, :2], "theta0": np.zeros(3),
                               "variance_fractions": np.array([0.6, 0.4])},
        kmp.ViaPoint: {"t_star": 0.5, "desired_e": np.zeros(2), "desired_cov": np.eye(2)},
        perception.SvmModel: SVM,
        force.GraspModel: {"grasp_matrix": np.ones((6, 9)), "stiffness": np.ones((9, 6)),
                           "hand_jacobian": np.ones((9, 6)), "motor_constant": np.eye(6)},
    }
    ARRAY_FIELDS = [(cls, name) for cls, fields in RECORDS.items()
                    for name, value in fields.items() if isinstance(value, np.ndarray)]

    @staticmethod
    def _spoiled(fields, name=None, value=None):
        """A copy of the fields, with the last entry of array ``name`` set to ``value``."""
        fields = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in fields.items()}
        if name is not None:
            fields[name].flat[-1] = value
        return fields

    @pytest.mark.parametrize("cls,name", ARRAY_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in ARRAY_FIELDS])
    def test_every_record_stores_a_read_only_finite_copy(self, cls, name):
        given = self._spoiled(self.RECORDS[cls])
        stored = getattr(cls(**given), name)
        assert stored.dtype == np.float64 and not stored.flags.writeable
        assert not np.shares_memory(stored, given[name])
        with pytest.raises(InvalidInputError, match=f"^{name} contains NaN or Inf"):
            cls(**self._spoiled(self.RECORDS[cls], name, np.nan))

    @pytest.mark.parametrize("cls,name", ARRAY_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in ARRAY_FIELDS])
    @pytest.mark.parametrize("value", [[[1.0], [2.0, 3.0]], {"a": 1.0}],
                             ids=["ragged", "mapping"])
    def test_every_record_names_an_array_numpy_cannot_read(self, cls, name, value):
        with pytest.raises(DimensionMismatchError, match=f"^{name} is not a numeric array"):
            cls(**{**self.RECORDS[cls], name: value})

    # a field of the wrong shape, the error and the text it must name
    SHAPES = [
        (encoding.GmmModel, "covariances", np.ones((2, 2, 3)), DimensionMismatchError,
         "must be square"),
        (synergy.SynergyBasis, "e_hat", np.ones(3), DimensionMismatchError,
         "^e_hat must be a J x S matrix"),
        (kmp.ViaPoint, "desired_cov", np.eye(3), DimensionMismatchError,
         "^desired_cov must be S x S"),
        (kmp.ViaPoint, "desired_cov", np.diag([1.0, 0.0]), InvalidInputError,
         "^desired_cov must be positive definite"),
        (force.GraspModel, "grasp_matrix", np.ones((5, 9)), DimensionMismatchError,
         "^grasp matrix must be 6 x 3"),
        (force.GraspModel, "stiffness", np.ones((8, 6)), DimensionMismatchError, "^stiffness rows"),
        (force.GraspModel, "hand_jacobian", np.ones((8, 6)), DimensionMismatchError,
         "^hand Jacobian rows"),
        (force.GraspModel, "motor_constant", np.eye(5), DimensionMismatchError,
         "^motor constant must be square"),
    ]

    @pytest.mark.parametrize("cls,name,value,error,match", SHAPES,
                             ids=[f"{c.__name__}.{n}" for c, n, _, _, _ in SHAPES])
    def test_every_record_rejects_a_field_of_the_wrong_shape(self, cls, name, value, error,
                                                              match):
        with pytest.raises(error, match=match):
            cls(**{**self.RECORDS[cls], name: value})

    @pytest.mark.parametrize("name,value", [
        ("bias", np.nan), ("bias", -np.inf),
        ("feature_scale", np.array([1.0, 0.0])), ("feature_scale", np.array([-1.0, 1.0])),
        ("classes", ["a", "a"]),
    ])
    def test_svm_rejects_non_finite_bias_non_positive_scale_and_equal_classes(self, name, value):
        with pytest.raises(InvalidInputError, match=f"^{name} must be"):
            perception.SvmModel(**{**self.SVM, name: value})

    @pytest.mark.parametrize("name", sorted(GMM))
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_gmm_model_names_the_non_finite_field(self, name, value):
        with pytest.raises(InvalidInputError, match=f"^{name} contains NaN or Inf"):
            encoding.GmmModel(**self._spoiled(self.GMM, name, value))

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_reference_names_the_non_finite_field(self, name, value):
        with pytest.raises(InvalidInputError, match=f"^{name} contains NaN or Inf"):
            encoding.ReferenceTrajectory(**self._spoiled(self.REFERENCE, name, value))


class TestCovarianceRule:
    """Every covariance record tests symmetry before ``eigvalsh``, which reads one triangle."""

    # its lower triangle, all eigvalsh reads, is the identity's
    UPPER_ONLY = np.array([[1.0, 5.0], [0.0, 1.0]])
    CASES = [
        (encoding.GmmModel, {**TestNonFiniteRecords.GMM,
                             "covariances": np.stack([np.eye(2), UPPER_ONLY])}, "covariances"),
        (encoding.ReferenceTrajectory, {**TestNonFiniteRecords.REFERENCE,
                                        "covariances": np.stack([np.eye(2), np.eye(2),
                                                                 UPPER_ONLY])}, "covariances"),
        (kmp.ViaPoint, {"t_star": 0.5, "desired_e": np.zeros(2), "desired_cov": UPPER_ONLY},
         "desired_cov"),
    ]

    @pytest.mark.parametrize("cls,fields,name", CASES, ids=[c[0].__name__ for c in CASES])
    def test_an_asymmetry_eigvalsh_cannot_see_is_rejected(self, cls, fields, name):
        assert np.array_equal(np.linalg.eigvalsh(self.UPPER_ONLY), [1.0, 1.0])
        with pytest.raises(InvalidInputError, match=f"^{name} must be symmetric$"):
            cls(**fields)

    def test_reference_keeps_its_spectrum_outside_its_fields(self, rng):
        factors = rng.standard_normal((4, 3, 3))
        covs = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(3)
        ref = encoding.ReferenceTrajectory(times=np.linspace(0.0, 1.0, 4),
                                           means=np.zeros((4, 3)), covariances=covs)
        assert np.array_equal(ref.spectrum, np.linalg.eigvalsh(ref.covariances))
        assert not ref.spectrum.flags.writeable
        assert "spectrum" not in ref.to_json() and "spectrum" not in repr(ref)
        assert "spectrum" not in {f.name for f in dataclasses.fields(ref)}
