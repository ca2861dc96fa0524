import json

import numpy as np
import pytest

from synkit import synergy
from synkit.errors import DimensionMismatchError, InvalidInputError, ZeroVarianceError


def brute_force_pca(rows):
    """Independent oracle: covariance by explicit loops, then eig."""
    rows = np.asarray(rows, dtype=float)
    k, j = rows.shape
    mean = rows.sum(axis=0) / k
    cov = np.zeros((j, j))
    for r in rows:
        d = r - mean
        cov += np.outer(d, d)
    cov /= k - 1
    vals, vecs = np.linalg.eig(cov)
    order = np.argsort(vals)[::-1]
    return vals[order].real, vecs[:, order].real


class TestFit:
    def test_single_direction_retains_one_component(self, rng):
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        amps = rng.standard_normal(100)
        postures = amps[:, None] * v[None, :]
        basis = synergy.fit_synergy_basis(postures, 0.85, theta0=np.zeros(6))
        assert basis.synergy_dim == 1
        # first column matches the generating direction up to sign
        oracle_vals, oracle_vecs = brute_force_pca(postures)
        dot = abs(float(basis.e_hat[:, 0] @ v))
        assert dot == pytest.approx(1.0, abs=1e-9)
        assert abs(float(basis.e_hat[:, 0] @ oracle_vecs[:, 0])) == pytest.approx(1.0, abs=1e-9)

    def test_identical_demos_raise_zero_variance(self):
        postures = np.tile(np.linspace(0.0, 1.0, 6), (5, 1))
        with pytest.raises(ZeroVarianceError):
            synergy.fit_synergy_basis(postures, 0.85)

    def test_two_factor_hand_data_retains_two(self, rng):
        d1 = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]) / 2.0
        d2 = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0]) / np.sqrt(2.0)
        a = rng.standard_normal(400)
        b = 0.6 * rng.standard_normal(400)
        postures = a[:, None] * d1 + b[:, None] * d2
        postures += 0.01 * rng.standard_normal(postures.shape)
        basis = synergy.fit_synergy_basis(postures, 0.85)
        assert basis.synergy_dim == 2
        oracle_vals, _ = brute_force_pca(postures)
        assert oracle_vals[1] > 100.0 * oracle_vals[2]  # two dominant modes

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatchError):
            synergy.fit_synergy_basis(np.array([[1.0, 2.0], [3.0]], dtype=object))

    POSTURES = np.arange(12.0).reshape(4, 3) ** 1.5
    SPOILED = np.arange(12).reshape(4, 3) == 7  # the one entry made NaN or Inf
    # postures, theta0, then the error and the text it must name
    INVALID = {
        "nan postures": (np.where(SPOILED, np.nan, POSTURES), None, InvalidInputError,
                         "^postures contains NaN or Inf"),
        "inf postures": (np.where(SPOILED, np.inf, POSTURES), None, InvalidInputError,
                         "^postures contains NaN or Inf"),
        "nan theta0": (POSTURES, [0.0, np.nan, 0.0], InvalidInputError,
                       "^theta0 contains NaN or Inf"),
        "1-D": (POSTURES[0], None, DimensionMismatchError, "2-D array of at least 2 rows"),
        "single row": (POSTURES[:1], None, DimensionMismatchError, "at least 2 rows"),
        "theta0 length": (POSTURES, np.zeros(4), DimensionMismatchError,
                          "does not match joint dim 3"),
        "covariance overflows": (1e200 * POSTURES, None, InvalidInputError, "overflows"),
        "centering overflows": (1e308 * (POSTURES > 5.0), [-1e308, 0.0, 0.0],
                                InvalidInputError, "overflows"),
        "covariance underflows": (1e-200 * POSTURES, None, ZeroVarianceError,
                                  "zero total variance"),
    }

    @pytest.mark.filterwarnings("error")  # an overflow must raise, not warn
    @pytest.mark.parametrize("case", INVALID)
    def test_invalid_input_rejected(self, case):
        postures, theta0, error, named = self.INVALID[case]
        with pytest.raises(error, match=named):
            synergy.fit_synergy_basis(postures, theta0=theta0)

    @pytest.mark.parametrize("threshold", [0.0, 1.5, np.nan])
    def test_variance_threshold_outside_the_unit_interval_rejected(self, threshold):
        with pytest.raises(InvalidInputError, match="^variance_threshold must lie in"):
            synergy.fit_synergy_basis(self.POSTURES, threshold)

    def test_fit_is_deterministic(self, rng):
        postures = rng.standard_normal((40, 6))
        b1 = synergy.fit_synergy_basis(postures, 0.9)
        b2 = synergy.fit_synergy_basis(postures, 0.9)
        assert np.array_equal(b1.e_hat, b2.e_hat)
        assert np.array_equal(b1.variance_fractions, b2.variance_fractions)

    def test_columns_c_ordered_with_largest_entry_positive(self, rng):
        # a loop over the columns is the reference for the flip
        postures = rng.standard_normal((40, 6))
        basis = synergy.fit_synergy_basis(postures, 0.9)
        assert basis.e_hat.flags.c_contiguous  # later products take their bits from the layout
        eigvecs = np.linalg.eigh(np.cov(postures, rowvar=False))[1][:, ::-1]
        for column, reference in zip(basis.e_hat.T, eigvecs.T):
            pivot = np.argmax(np.abs(reference))
            assert column[pivot] > 0.0
            assert np.allclose(column, np.sign(reference[pivot]) * reference)

    def test_columns_orthonormal_and_fractions_sum_to_one(self, rng):
        postures = rng.standard_normal((60, 6))
        full = synergy.fit_synergy_basis(postures, 1.0)
        gram = full.e_hat.T @ full.e_hat
        assert np.abs(gram - np.eye(full.synergy_dim)).max() < 1e-9
        assert np.all(full.variance_fractions >= 0.0)
        assert float(full.variance_fractions.sum()) == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(full.variance_fractions) <= 1e-12)


class TestProjectReconstruct:
    @pytest.fixture()
    def basis(self, rng):
        postures = rng.standard_normal((50, 6))
        return synergy.fit_synergy_basis(postures, 0.9)

    def test_nominal_posture_projects_to_zero(self, basis):
        assert np.abs(synergy.project(basis, basis.theta0)).max() < 1e-12

    def test_unit_coordinate_roundtrip(self, basis):
        e = np.zeros(basis.synergy_dim)
        e[0] = 1.0
        posture = basis.theta0 + basis.e_hat @ e
        assert np.abs(synergy.project(basis, posture) - e).max() < 1e-9

    def test_projection_matches_least_squares_oracle(self, basis, rng):
        posture = rng.standard_normal(6)
        e = synergy.project(basis, posture)
        e_lstsq, *_ = np.linalg.lstsq(basis.e_hat, posture - basis.theta0, rcond=None)
        assert np.abs(e - e_lstsq).max() < 1e-9

    def test_zero_coordinates_reconstruct_nominal(self, basis):
        assert np.array_equal(synergy.reconstruct(basis, np.zeros(basis.synergy_dim)),
                              basis.theta0)

    def test_project_after_reconstruct_is_identity(self, basis, rng):
        for _ in range(50):
            e = rng.standard_normal(basis.synergy_dim)
            back = synergy.project(basis, synergy.reconstruct(basis, e))
            assert np.abs(back - e).max() < 1e-9

    def test_reconstruct_after_project_for_in_span_postures(self, basis, rng):
        coeffs = rng.standard_normal(basis.synergy_dim)
        posture = basis.theta0 + basis.e_hat @ coeffs
        again = synergy.reconstruct(basis, synergy.project(basis, posture))
        assert np.abs(again - posture).max() < 1e-9

    def test_stacks_match_one_at_a_time_bit_for_bit(self, basis, rng):
        postures = rng.standard_normal((4, 10, basis.joint_dim))
        coords = synergy.project(basis, postures)
        assert coords.shape == (4, 10, basis.synergy_dim)
        joints = synergy.reconstruct(basis, coords)
        assert joints.shape == postures.shape
        for q, e, back in zip(postures.reshape(-1, basis.joint_dim),
                              coords.reshape(-1, basis.synergy_dim),
                              joints.reshape(-1, basis.joint_dim)):
            assert synergy.project(basis, q).tobytes() == e.tobytes()
            assert synergy.reconstruct(basis, e).tobytes() == back.tobytes()

    def test_dimension_mismatch(self, basis):
        with pytest.raises(DimensionMismatchError):
            synergy.project(basis, np.zeros(basis.joint_dim + 1))
        with pytest.raises(DimensionMismatchError):
            synergy.project(basis, np.zeros((3, basis.joint_dim + 1)))
        with pytest.raises(DimensionMismatchError):
            synergy.reconstruct(basis, np.zeros(basis.synergy_dim + 1))
        with pytest.raises(DimensionMismatchError):
            synergy.reconstruct(basis, np.zeros((3, basis.synergy_dim + 1)))


class TestPersistence:
    def test_json_round_trip(self, rng, tmp_path):
        postures = rng.standard_normal((30, 6))
        basis = synergy.fit_synergy_basis(postures, 0.9)
        path = tmp_path / "basis.json"
        basis.to_json(path)
        loaded = synergy.SynergyBasis.from_json(path)
        assert np.array_equal(loaded.e_hat, basis.e_hat)
        assert np.array_equal(loaded.theta0, basis.theta0)
        payload = json.loads(path.read_text())
        assert set(payload) == {"theta0", "e_hat", "variance_fractions"}
