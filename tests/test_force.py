import numpy as np
import pytest

from synkit import force, synergy
from synkit.errors import DimensionMismatchError, InvalidInputError, RankDeficientError


def make_basis(rng, j=6, s=2):
    q, _ = np.linalg.qr(rng.standard_normal((j, s)))
    return synergy.SynergyBasis(e_hat=q, theta0=np.zeros(j),
                                variance_fractions=np.linspace(0.6, 0.4, s))


def make_model(rng, n_contacts=3, j=6):
    g = rng.standard_normal((6, 3 * n_contacts))
    xi = rng.standard_normal((3 * n_contacts, j))
    jh, _ = np.linalg.qr(rng.standard_normal((3 * n_contacts, j)))
    km = np.diag(rng.uniform(0.5, 2.0, j))
    return force.GraspModel(grasp_matrix=g, stiffness=xi, hand_jacobian=jh,
                            motor_constant=km)


class TestContactForces:
    def test_zero_inputs_zero_forces(self, rng):
        model = make_model(rng)
        basis = make_basis(rng)
        out = force.contact_forces(model, np.zeros(6), basis, np.zeros(2))
        assert np.abs(out).max() == 0.0

    def test_zero_stiffness_matches_wrench_balance(self, rng):
        model = make_model(rng)
        model = force.GraspModel(grasp_matrix=model.grasp_matrix,
                                 stiffness=np.zeros_like(model.stiffness),
                                 hand_jacobian=model.hand_jacobian,
                                 motor_constant=model.motor_constant)
        basis = make_basis(rng)
        # wrench constructed inside the grasp matrix range
        omega = model.grasp_matrix @ rng.standard_normal(9)
        out = force.contact_forces(model, omega, basis, np.zeros(2)).reshape(-1)
        assert np.abs(model.grasp_matrix @ out - omega).max() < 1e-9

    def test_doubling_displacement_doubles_forces(self, rng):
        model = make_model(rng)
        basis = make_basis(rng)
        de = rng.standard_normal(2)
        f1 = force.contact_forces(model, np.zeros(6), basis, de)
        f2 = force.contact_forces(model, np.zeros(6), basis, 2.0 * de)
        assert np.abs(f2 - 2.0 * f1).max() < 1e-12

    def test_superposition(self, rng):
        model = make_model(rng)
        basis = make_basis(rng)
        w1, w2 = rng.standard_normal((2, 6))
        d1, d2 = rng.standard_normal((2, 2))
        lhs = force.contact_forces(model, w1 + w2, basis, d1 + d2)
        rhs = (force.contact_forces(model, w1, basis, d1)
               + force.contact_forces(model, w2, basis, d2)
               - force.contact_forces(model, np.zeros(6), basis, np.zeros(2)))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_dimension_checks(self, rng):
        model = make_model(rng)
        basis = make_basis(rng)
        with pytest.raises(DimensionMismatchError):
            force.contact_forces(model, np.zeros(5), basis, np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            force.contact_forces(model, np.zeros(6), basis, np.zeros(3))
        with pytest.raises(DimensionMismatchError, match="joints disagree with the basis"):
            force.contact_forces(model, np.zeros(6), make_basis(rng, j=5), np.zeros(2))

    def test_rank_deficient_grasp_matrix(self, rng):
        basis = make_basis(rng)
        g = np.zeros((6, 9))
        g[0, :] = 1.0  # rank 1
        model = force.GraspModel(grasp_matrix=g, stiffness=np.zeros((9, 6)),
                                 hand_jacobian=np.eye(9)[:, :6],
                                 motor_constant=np.eye(6))
        for _ in range(2):  # the error is raised on every use, not cached
            with pytest.raises(RankDeficientError):
                force.contact_forces(model, np.ones(6), basis, np.zeros(2))


class TestStablePinv:
    @pytest.mark.parametrize("shape", [(6, 6), (6, 12), (6, 9), (9, 6)])
    def test_bit_equal_to_numpy_pinv(self, rng, shape):
        for _ in range(20):
            for matrix in (rng.standard_normal(shape), rng.standard_normal(shape[::-1]).T):
                assert np.array_equal(force._stable_pinv(matrix, "m"), np.linalg.pinv(matrix))

    def test_rank_deficient_names_the_matrix(self):
        matrix = np.zeros((6, 6))
        matrix[:, 0] = 1.0
        with pytest.raises(RankDeficientError, match="grasp matrix pseudo-inverse"):
            force._stable_pinv(matrix, "grasp matrix")


def oracle_cone(fx, fy, fz, mu):
    """Direct transcription of the stability inequality."""
    tangential = np.sqrt(fx * fx + fy * fy)
    if fz <= 0.0:
        return False
    if tangential == 0.0:
        return True
    return fz / tangential > mu


class TestFrictionCone:
    def test_pure_normal_stable(self):
        assert force.friction_cone_check(np.array([0.0, 0.0, 1.0]), 0.64) is True

    def test_shallow_force_unstable(self):
        assert force.friction_cone_check(np.array([1.0, 0.0, 0.4]), 0.64) is False

    def test_scale_invariance(self, rng):
        for _ in range(50):
            f = rng.standard_normal(3)
            mu = float(rng.uniform(0.1, 2.0))
            assert (force.friction_cone_check(7.3 * f, mu)
                    == force.friction_cone_check(f, mu))

    def test_truth_table_against_oracle(self, rng):
        for _ in range(1000):
            f = rng.standard_normal(3) * rng.uniform(0.1, 10.0)
            mu = float(rng.uniform(0.1, 2.0))
            assert force.friction_cone_check(f, mu) == oracle_cone(*f, mu)

    def test_rotation_about_normal_invariance(self, rng):
        for _ in range(50):
            f = rng.standard_normal(3)
            mu = float(rng.uniform(0.1, 2.0))
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            rot = np.array([
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ])
            assert (force.friction_cone_check(rot @ f, mu)
                    == force.friction_cone_check(f, mu))

    def test_nonpositive_normal_never_stable(self):
        assert force.friction_cone_check(np.array([0.0, 0.0, 0.0]), 0.5) is False
        assert force.friction_cone_check(np.array([0.0, 0.0, -1.0]), 0.5) is False

    def test_stacked_forces_match_oracle_row_by_row(self, rng):
        mu = 0.5
        edges = np.array([
            [0.3, -0.2, 0.0],   # zero normal
            [0.0, 0.0, 0.0],    # zero normal and tangential
            [0.0, 0.0, -2.0],   # negative normal
            [0.0, 0.0, 1.5],    # zero tangential
            [-0.0, 0.0, 1e-300],
            [2.0, 0.0, 1.0],    # fz / |ft| == mu exactly: the test is strict
            [0.0, -4.0, 2.0],
            [2.0, 0.0, 1.0000000000000002],
        ])
        flat = np.vstack([rng.standard_normal((1000 - len(edges), 3))
                          * rng.uniform(0.1, 10.0, size=(1000 - len(edges), 1)), edges])
        want = [oracle_cone(*f, mu) for f in flat]
        got = force.friction_cone_check(flat, mu)
        assert got.dtype == bool and got.shape == (1000,)
        assert got.tolist() == want
        assert got[-8:].tolist() == [False, False, False, True, True, False, False, True]

        stacked = flat.reshape(125, 8, 3)  # (steps, n_c, 3)
        got = force.friction_cone_check(stacked, mu)
        assert got.shape == (125, 8)
        assert got.reshape(-1).tolist() == want

    def test_stacked_forces_validated(self):
        with pytest.raises(DimensionMismatchError):
            force.friction_cone_check(np.ones((4, 2)), 0.5)
        with pytest.raises(InvalidInputError):
            force.friction_cone_check(np.ones((4, 3)), 0.0)

    @pytest.mark.parametrize("mu", [np.nan, np.inf])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(InvalidInputError, match="friction coefficient mu"):
            force.friction_cone_check(np.array([0.0, 0.0, 1.0]), mu)


class TestMotorCurrents:
    def test_zero_forces_zero_currents(self, rng):
        model = make_model(rng)
        out = force.motor_currents(model, np.zeros((3, 3)))
        assert np.abs(out).max() == 0.0

    def test_one_force_per_contact_required(self, rng):
        with pytest.raises(DimensionMismatchError, match="one 3-vector per contact"):
            force.motor_currents(make_model(rng), np.zeros((2, 3)))

    def test_diagonal_system(self):
        model = force.GraspModel(
            grasp_matrix=np.eye(6),  # two contacts
            stiffness=np.zeros((6, 6)),
            hand_jacobian=np.eye(6),
            motor_constant=2.0 * np.eye(6),
        )
        f = np.arange(1.0, 7.0)
        out = force.motor_currents(model, f)
        assert np.abs(out - f / 2.0).max() < 1e-12

    def test_random_full_rank_reproduces_forces(self, rng):
        model = make_model(rng)
        currents = rng.standard_normal(6)
        f = model.hand_jacobian @ model.motor_constant @ currents  # in range
        out = force.motor_currents(model, f)
        back = (model.hand_jacobian @ model.motor_constant @ out)
        assert np.abs(back - f).max() < 1e-9

    def test_rank_deficient_rejected(self, rng):
        jh = np.zeros((9, 6))
        jh[:, 0] = 1.0
        model = force.GraspModel(grasp_matrix=rng.standard_normal((6, 9)),
                                 stiffness=np.zeros((9, 6)),
                                 hand_jacobian=jh, motor_constant=np.eye(6))
        for _ in range(2):  # the error is raised on every use, not cached
            with pytest.raises(RankDeficientError):
                force.motor_currents(model, np.ones(9))


def closing_model(rng, basis):
    """Rank-one closing stiffness along the first synergy, as the pipeline builds."""
    pattern = force.normal_pattern(3)
    xi = 40.0 * np.outer(pattern, basis.e_hat[:, 0])
    jh, _ = np.linalg.qr(rng.standard_normal((9, 6)))
    return force.GraspModel(grasp_matrix=rng.standard_normal((6, 9)),
                            stiffness=xi, hand_jacobian=jh,
                            motor_constant=np.eye(6))


def coupling_pinv(model, basis):
    return np.linalg.pinv(model.stiffness @ basis.e_hat)


class TestAdaptForce:
    def test_matching_profiles_zero_correction(self, rng):
        model = make_model(rng)
        basis = make_basis(rng)
        out = force.adapt_force(2.5 - 2.5, coupling_pinv(model, basis), gain=0.5)
        assert np.abs(out).max() < 1e-12

    def test_low_measurement_raises_predicted_grip(self, rng):
        basis = make_basis(rng)
        model = closing_model(rng, basis)
        correction = force.adapt_force(3.0 - 2.0, coupling_pinv(model, basis), gain=0.5)
        before = force.grip_force(force.contact_forces(model, np.zeros(6), basis,
                                                       np.zeros(2)))
        after = force.grip_force(force.contact_forces(model, np.zeros(6), basis,
                                                      correction))
        assert after > before

    @pytest.mark.parametrize("gain", [0.0, -0.5])
    def test_non_positive_gain_rejected(self, gain, rng):
        with pytest.raises(InvalidInputError, match="gain must be positive"):
            force.adapt_force(1.0, coupling_pinv(make_model(rng), make_basis(rng)), gain=gain)

    @pytest.mark.parametrize("gain", [np.nan, np.inf])
    def test_non_finite_gain_rejected(self, gain, rng):
        with pytest.raises(InvalidInputError, match="gain must be positive and finite"):
            force.adapt_force(1.0, coupling_pinv(make_model(rng), make_basis(rng)), gain=gain)

    @pytest.mark.parametrize("error", [np.nan, np.inf, -np.inf])
    def test_non_finite_error_rejected(self, error, rng):
        with pytest.raises(InvalidInputError, match="error must be finite"):
            force.adapt_force(error, coupling_pinv(make_model(rng), make_basis(rng)))

    def test_linearity_in_error(self, rng):
        model = make_model(rng)
        basis = make_basis(rng)
        pinv = coupling_pinv(model, basis)
        c1 = force.adapt_force(3.0 - 2.0, pinv, gain=0.5)
        c2 = force.adapt_force(5.0 - 1.0, pinv, gain=0.5)
        c12 = force.adapt_force((3.0 + 5.0) - (2.0 + 1.0), pinv, gain=0.5)
        assert np.abs(c12 - (c1 + c2)).max() < 1e-12

    def test_closed_loop_error_decreases(self, rng):
        basis = make_basis(rng)
        model = closing_model(rng, basis)
        pinv = coupling_pinv(model, basis)
        target_value = 3.0
        delta_e = np.zeros(2)
        for gain in (0.25, 0.5, 1.0):
            delta_e[:] = 0.0
            predicted = force.grip_force(
                force.contact_forces(model, np.zeros(6), basis, delta_e))
            err = abs(target_value - predicted)
            for _ in range(40):
                delta_e = delta_e + force.adapt_force(target_value - predicted, pinv,
                                                      gain=gain)
                predicted = force.grip_force(
                    force.contact_forces(model, np.zeros(6), basis, delta_e))
                new_err = abs(target_value - predicted)
                assert new_err < err or new_err < 1e-12
                err = new_err
            assert err < 0.01
