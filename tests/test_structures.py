import numpy as np
import pytest

from biham.linalg import DEFAULT_TOL, StructureError, op_norm
from biham.structures import (
    AdmissibleTriple,
    ComplexStructure,
    LinearField,
    MetricTensor,
    QuadraticForm,
    SymplecticForm,
    ViolationReport,
    check_admissible,
    field_preserves,
    hermitian_product,
    lie_bracket,
    metric_hamiltonian,
    phase_generator,
    phase_group,
    poisson_bracket,
    polar_admissible,
    symmetrize_metric,
)
from conftest import diag_triple, random_spd, random_symplectic_form, standard_triple
import loop_oracle


class TestWrapperTypes:
    def test_metric_symmetrizes_rounding_noise(self):
        m = MetricTensor([[1.0, 1e-14], [0.0, 1.0]])
        np.testing.assert_array_equal(m.m, m.m.T)

    def test_metric_rejects_asymmetric(self):
        with pytest.raises(StructureError):
            MetricTensor([[1.0, 0.5], [0.0, 1.0]])

    def test_metric_rejects_indefinite(self):
        with pytest.raises(StructureError):
            MetricTensor(np.diag([1.0, -2.0]))

    def test_metric_is_read_only(self):
        m = MetricTensor(np.eye(2))
        with pytest.raises(ValueError):
            m.m[0, 0] = 5.0

    def test_symplectic_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            SymplecticForm(np.zeros((3, 3)))

    def test_symplectic_rejects_degenerate(self):
        with pytest.raises(StructureError):
            SymplecticForm(np.zeros((2, 2)))

    def test_symplectic_rejects_symmetric_part(self):
        with pytest.raises(StructureError):
            SymplecticForm([[0.0, 1.0], [-1.0, 0.5]])

    def test_complex_structure_accepts_rotation(self):
        ComplexStructure([[0.0, 1.0], [-1.0, 0.0]])

    def test_complex_structure_rejects_wrong_square(self):
        with pytest.raises(StructureError):
            ComplexStructure(np.diag([1.0, -1.0]))

    def test_quadratic_form_value(self):
        q = QuadraticForm(np.diag([2.0, 4.0]))
        assert q.value([1.0, 1.0]) == pytest.approx(3.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MetricTensor([[np.nan, 0.0], [0.0, 1.0]])


class TestCheckAdmissible:
    def test_standard_structures(self):
        t = check_admissible(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        assert isinstance(t, AdmissibleTriple)
        np.testing.assert_allclose(t.j, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_weighted_diagonal_pair(self):
        # metric diag(1, 4) pairs with sqrt(1*4) = 2 off-diagonal form
        t = check_admissible(np.diag([1.0, 4.0]), [[0.0, 2.0], [-2.0, 0.0]])
        assert isinstance(t, AdmissibleTriple)
        np.testing.assert_allclose(t.j, [[0.0, 2.0], [-0.5, 0.0]], atol=1e-15)

    def test_j_is_the_read_only_mapped_back_j_w(self):
        rng = np.random.default_rng(5)
        t = polar_admissible(random_spd(rng, 6), random_symplectic_form(rng, 6))
        assert np.array_equal(t.j, t.g.frame @ t.j_w @ t.g.frame_inv)
        with pytest.raises(ValueError):
            t.j[0, 0] = 1.0

    def test_mismatched_scaling_reports_violation(self):
        report = check_admissible(np.diag([1.0, 4.0]), [[0.0, 1.0], [-1.0, 0.0]])
        assert isinstance(report, ViolationReport)
        assert not report
        assert report.names == ("J_metric_invariance",)
        # J_w = diag(1, 1/2) omega diag(1, 1/2) has J_w.T J_w = I / 4, so
        # the residual against I is 3/4
        violation = report.violations[0]
        assert violation.residual == pytest.approx(0.75)

    def test_invariants_hold_for_random_admissible_triples(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 4, 8):
            t = polar_admissible(random_spd(rng, 2 * n),
                                 random_symplectic_form(rng, 2 * n))
            dim = 2 * n
            j, g, w = t.j, t.g.m, t.omega.m
            assert op_norm(j @ j + np.eye(dim)) <= 1e-9 * dim
            assert op_norm(j.T @ g @ j - g) <= 1e-9 * op_norm(g)
            assert op_norm(g @ j + j.T @ g) <= 1e-9 * op_norm(g)
            assert op_norm(j.T @ w @ j - w) <= 1e-9 * op_norm(w)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            check_admissible(np.eye(3), np.zeros((3, 3)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_admissible(np.eye(2), np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]))

    def test_degenerate_form_reports_violation(self):
        # degenerate relative to its own scale: singular values 1 and 1e-13;
        # the triple judges its form's nondegeneracy through J, with no SVD
        omega = np.kron(np.diag([1.0, 1e-13]), [[0.0, 1.0], [-1.0, 0.0]])
        report = check_admissible(np.eye(4), omega)
        assert isinstance(report, ViolationReport)
        assert report.names == ("J_metric_invariance",)

    @pytest.mark.parametrize("scale", [1e-160, 1e-13, 1e160])
    def test_rescaled_triple_stays_admissible(self, scale):
        # the thresholds scale with the tensors: a uniformly rescaled
        # admissible triple is admissible with the same J
        g = np.diag([1.0, 4.0])
        t = check_admissible(scale * g, scale * np.array([[0.0, 2.0], [-2.0, 0.0]]))
        assert isinstance(t, AdmissibleTriple)
        np.testing.assert_allclose(t.j, [[0.0, 2.0], [-0.5, 0.0]], atol=1e-15)


class TestSymmetrizeMetric:
    def test_invariant_metric_is_fixed_point(self):
        t = diag_triple(1.0, 4.0)
        gs = symmetrize_metric(t.g, ComplexStructure(t.j))
        np.testing.assert_allclose(gs.m, t.g.m, atol=1e-15)

    def test_identity_with_orthogonal_complex_structure(self):
        j = ComplexStructure([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(symmetrize_metric(np.eye(2), j).m, np.eye(2),
                                   atol=1e-15)

    def test_averages_non_invariant_metric(self):
        j = ComplexStructure([[0.0, 1.0], [-1.0, 0.0]])
        gs = symmetrize_metric(np.diag([1.0, 2.0]), j)
        np.testing.assert_allclose(gs.m, np.diag([1.5, 1.5]), atol=1e-15)

    def test_result_is_invariant_under_j(self):
        rng = np.random.default_rng(8)
        t = polar_admissible(random_spd(rng, 4), random_symplectic_form(rng, 4))
        g = random_spd(rng, 4)
        gs = symmetrize_metric(g, ComplexStructure(t.j))
        j = t.j
        assert op_norm(j.T @ gs.m @ j - gs.m) <= 1e-9 * op_norm(gs.m)


class TestPolarAdmissible:
    def test_admissible_input_is_unchanged(self):
        t_in = diag_triple(1.0, 4.0)
        t_out = polar_admissible(t_in.g, t_in.omega)
        np.testing.assert_allclose(t_out.g.m, t_in.g.m, atol=1e-12)
        np.testing.assert_allclose(t_out.j, t_in.j, atol=1e-12)

    def test_rescales_mismatched_diagonal_pair(self):
        # worked case: A = inv(g) w has -A^2 = I/4, so P = I/2 and the
        # rescaled metric is g/2 with J doubled
        t = polar_admissible(np.diag([1.0, 4.0]), [[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(t.j, [[0.0, 2.0], [-0.5, 0.0]], atol=1e-12)
        np.testing.assert_allclose(t.g.m, np.diag([0.5, 2.0]), atol=1e-12)
        # defining property: omega(x, y) = g_omega(J x, y)
        resid = op_norm(t.g.m @ t.j - t.omega.m)
        assert resid <= 1e-10

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_output_always_admissible(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(25):
            g = random_spd(rng, dim)
            w = random_symplectic_form(rng, dim)
            t = polar_admissible(g, w)
            again = check_admissible(t.g, t.omega)
            assert isinstance(again, AdmissibleTriple)
            np.testing.assert_allclose(again.j, t.j, atol=1e-9)

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_j_agrees_with_the_retired_second_route(self, dim):
        # the check polar_admissible retired, at its old threshold: the
        # triple's J against A inv(P) formed from the input pair
        rng = np.random.default_rng(dim)
        for _ in range(25):
            g, w = random_spd(rng, dim), random_symplectic_form(rng, dim)
            resid, thr = loop_oracle.polar_consistency(g, w, polar_admissible(g, w), DEFAULT_TOL)
            assert resid <= thr


class TestHermitianProduct:
    def test_imaginary_part_vanishes_on_diagonal(self):
        t = standard_triple(2)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal(4)
            re, im = hermitian_product(t, x, x)
            assert re == pytest.approx(x @ x)
            assert abs(im) <= 1e-12 * (x @ x)

    def test_standard_basis_vectors(self):
        t = standard_triple(1)
        assert hermitian_product(t, [1.0, 0.0], [0.0, 1.0]) == (0.0, 1.0)

    def test_weighted_basis_vectors(self):
        t = diag_triple(1.0, 4.0)
        re, im = hermitian_product(t, [1.0, 0.0], [0.0, 1.0])
        assert re == 0.0
        assert im == pytest.approx(2.0)  # the (1, 2) entry of the form

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hermitian_product(standard_triple(1), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


class TestPhaseGenerator:
    def test_standard_triple(self):
        f = phase_generator(standard_triple(1))
        np.testing.assert_allclose(f.matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_weighted_triple(self):
        f = phase_generator(diag_triple(1.0, 4.0))
        np.testing.assert_allclose(f.matrix, [[0.0, 2.0], [-0.5, 0.0]], atol=1e-15)

    def test_identity_with_inverse_form(self):
        # J = -inv(omega) g is forced by J^2 = -I; check the residual
        rng = np.random.default_rng(9)
        t = polar_admissible(random_spd(rng, 6), random_symplectic_form(rng, 6))
        resid = op_norm(t.j + np.linalg.solve(t.omega.m, t.g.m))
        assert resid <= 1e-9 * op_norm(t.g.m)
        phase_generator(t)  # must not raise


class TestFieldPreserves:
    def test_phase_generator_preserves(self):
        t = diag_triple(1.0, 4.0)
        assert field_preserves(phase_generator(t), t)

    def test_dilation_never_preserves(self):
        t = standard_triple(2)
        report = field_preserves(LinearField.dilation(4), t)
        assert not report
        assert report.metric_residual > 0.1

    def test_reflection_fails_metric_skewness(self):
        t = standard_triple(1)
        report = field_preserves(LinearField(np.diag([1.0, -1.0])), t)
        assert not report
        assert report.metric_residual > 0.1  # g A symmetric, not skew


class TestPhaseGroup:
    def test_time_zero_is_identity(self):
        t = diag_triple(1.0, 4.0)
        np.testing.assert_array_equal(phase_group(t, 0.0), np.eye(2))

    def test_quarter_period_is_complex_structure(self):
        t = diag_triple(1.0, 4.0)
        np.testing.assert_allclose(phase_group(t, np.pi / 2),
                                   [[0.0, 2.0], [-0.5, 0.0]], atol=1e-15)

    def test_half_period_is_minus_identity(self):
        t = standard_triple(2)
        np.testing.assert_allclose(phase_group(t, np.pi), -np.eye(4), atol=1e-15)

    def test_one_parameter_group_law(self):
        t = diag_triple(0.3, 2.7)
        rng = np.random.default_rng(12)
        for _ in range(25):
            a, b = rng.uniform(-10, 10, size=2)
            lhs = phase_group(t, a) @ phase_group(t, b)
            np.testing.assert_allclose(lhs, phase_group(t, a + b), atol=1e-10)

    def test_preserves_both_tensors(self):
        t = diag_triple(2.0, 5.0)
        for time in (0.3, 1.7, -4.0):
            o = phase_group(t, time)
            assert op_norm(o.T @ t.g.m @ o - t.g.m) <= 1e-9 * op_norm(t.g.m)
            assert op_norm(o.T @ t.omega.m @ o - t.omega.m) <= 1e-9 * op_norm(t.omega.m)


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        x = LinearField([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(lie_bracket(x, x).matrix, np.zeros((2, 2)))

    def test_dilation_is_central(self):
        rng = np.random.default_rng(13)
        x = LinearField(rng.standard_normal((4, 4)))
        np.testing.assert_array_equal(
            lie_bracket(LinearField.dilation(4), x).matrix, np.zeros((4, 4)))

    def test_sign_convention(self):
        # bracket matrix is minus the matrix commutator
        a = LinearField(np.diag([1.0, 2.0]))
        b = LinearField([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(lie_bracket(a, b).matrix,
                                      [[0.0, 1.0], [0.0, 0.0]])


class TestPoissonBracket:
    def test_self_bracket_vanishes(self):
        w = SymplecticForm([[0.0, 1.0], [-1.0, 0.0]])
        f = QuadraticForm(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(poisson_bracket(f, f, w).matrix,
                                   np.zeros((2, 2)), atol=1e-15)

    def test_norm_with_itself(self):
        w = SymplecticForm([[0.0, 1.0], [-1.0, 0.0]])
        f = QuadraticForm(np.eye(2))
        np.testing.assert_allclose(poisson_bracket(f, f, w).matrix,
                                   np.zeros((2, 2)), atol=1e-15)

    def test_compatible_energies_commute(self, ref2d_pair):
        p = ref2d_pair
        e1 = metric_hamiltonian(p.t1.g)
        e2 = metric_hamiltonian(p.t2.g)
        for w in (p.t1.omega, p.t2.omega):
            bracket = poisson_bracket(e1, e2, w)
            assert op_norm(bracket.matrix) <= 1e-12

    def test_hamiltonian_field_convention_recovers_phase_generator(self):
        # the Hamiltonian field of the metric energy is the phase generator
        t = diag_triple(1.0, 4.0)
        m = -np.linalg.solve(t.omega.m, metric_hamiltonian(t.g).matrix)
        np.testing.assert_allclose(m, t.j, atol=1e-15)


class TestSymplecticPairingInvariance:
    def test_omega_j_antisymmetry(self):
        rng = np.random.default_rng(14)
        t = polar_admissible(random_spd(rng, 6), random_symplectic_form(rng, 6))
        w, j = t.omega.m, t.j
        for _ in range(20):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            assert (j @ x) @ w @ y + x @ w @ (j @ y) == pytest.approx(0.0, abs=1e-9)
