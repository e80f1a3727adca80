import numpy as np
import pytest
import scipy.linalg

from biham import dynamics
from biham.cli import CONSERVATION_TIMES
from biham.commutant import bicommutant_dim, commutant_dim, complexify, transfer_operator
from biham.compatibility import check_compatible
from biham.decomposition import synthesize_pair
from biham.dynamics import (
    FlowOverflowError,
    _probe_flows,
    bi_preserving_algebra,
    certify_recursion,
    conservation_probe,
    flow,
    recursion_basis,
)
from biham.linalg import commutator, op_norm
from biham.structures import LinearField, check_admissible, field_preserves, phase_group
from conftest import S_BLOCK, standard_triple


def projection_residual(matrix, basis):
    """Relative distance of a matrix from the span of the basis matrices."""
    v = matrix.ravel()
    proj = np.zeros_like(v)
    for b in basis:
        bv = b.ravel()
        proj = proj + (bv @ v) * bv
    return np.linalg.norm(v - proj) / np.linalg.norm(v)


class TestBiPreservingAlgebra:
    def test_single_phase_generator_in_2d(self):
        t = standard_triple(1)
        alg = bi_preserving_algebra(check_compatible(t, t))
        assert alg.dim == 1
        assert projection_residual(t.j.m, alg.basis) <= 1e-12

    def test_reference_4d_two_torus(self, ref4d_pair):
        alg = bi_preserving_algebra(ref4d_pair)
        assert alg.dim == 2
        # the block rotations span the algebra
        s_top = np.zeros((4, 4))
        s_top[:2, :2] = S_BLOCK
        s_bot = np.zeros((4, 4))
        s_bot[2:, 2:] = S_BLOCK
        for m in (s_top, s_bot):
            assert projection_residual(m, alg.basis) <= 1e-10

    def test_identity_pair_gives_full_unitary_algebra(self):
        t = standard_triple(2)
        alg = bi_preserving_algebra(check_compatible(t, t))
        assert alg.dim == 4  # dim u(2)

    @pytest.mark.parametrize("spec,expected", [
        ([(2.0, 1, 1), (3.0, -1, 1)], 2),
        ([(2.0, 1, 2)], 4),
        ([(1.0, 1, 1), (2.0, 1, 1), (3.0, 1, 1)], 3),
        ([(1.5, 1, 2), (4.0, -1, 1)], 5),
    ])
    def test_dimension_matches_signature(self, spec, expected):
        alg = bi_preserving_algebra(synthesize_pair(spec, seed=17))
        assert alg.dim == expected

    @pytest.mark.parametrize("spec,alg_dim,comm_dim,bicomm_dim", [
        ([(2.0, 1, 1), (3.0, -1, 1)], 2, 2, 2),
        ([(2.0, 1, 2), (3.0, -1, 1)], 5, 5, 2),
    ])
    def test_second_triple_scaled_by_1e8(self, spec, alg_dim, comm_dim, bicomm_dim):
        # the four tensors differ in norm by 1e8, so no single rank threshold
        # fits a joint system of their preservation constraints
        p = synthesize_pair(spec, seed=3)
        t2 = check_admissible(1e8 * p.t2.g.m, 1e8 * p.t2.omega.m)
        scaled = check_compatible(p.t1, t2)
        assert scaled
        alg = bi_preserving_algebra(scaled)
        assert alg.dim == alg_dim
        for m in alg.basis:
            assert field_preserves(LinearField(m), scaled.t1)
            assert field_preserves(LinearField(m), scaled.t2)
        h1, h2, _ = complexify(scaled)
        op = transfer_operator(h1, h2, scaled.tol)
        assert commutant_dim(op) == comm_dim
        assert bicommutant_dim(op) == bicomm_dim

    def test_every_element_preserves_both_triples(self, ref4d_pair):
        alg = bi_preserving_algebra(ref4d_pair)
        for m in alg.basis:
            f = LinearField(m)
            assert field_preserves(f, ref4d_pair.t1)
            assert field_preserves(f, ref4d_pair.t2)


class TestRecursionBasis:
    def test_2d_single_field(self, ref2d_pair):
        rb = recursion_basis(ref2d_pair)
        assert len(rb.fields) == 1
        np.testing.assert_allclose(rb.fields[0].matrix, ref2d_pair.t1.j.m)

    def test_reference_4d_fields(self, ref4d_pair):
        rb = recursion_basis(ref4d_pair)
        j1 = np.kron(np.eye(2), S_BLOCK)
        tj1 = np.kron(np.diag([2.0, -3.0]), S_BLOCK)
        np.testing.assert_allclose(rb.fields[0].matrix, j1, atol=1e-12)
        np.testing.assert_allclose(rb.fields[1].matrix, tj1, atol=1e-12)

    def test_identity_pair_repeats(self):
        t = standard_triple(2)
        rb = recursion_basis(check_compatible(t, t))
        np.testing.assert_allclose(rb.fields[0].matrix, rb.fields[1].matrix,
                                   atol=1e-14)


class TestCertifyRecursion:
    def test_reference_4d_passes(self, ref4d_pair):
        cert = certify_recursion(recursion_basis(ref4d_pair), ref4d_pair)
        assert cert.all_pass
        assert cert.rank == 2 == cert.expected_rank
        assert cert.distinct_t_eigenvalues == 2
        assert cert.nijenhuis_residual <= 1e-12

    def test_identity_pair_fails_rank_only(self):
        t = standard_triple(2)
        p = check_compatible(t, t)
        cert = certify_recursion(recursion_basis(p), p)
        assert cert.preserves_all and cert.commute
        assert cert.nijenhuis_residual <= 1e-12
        assert cert.rank == 1
        assert cert.distinct_t_eigenvalues == 1
        assert cert.vandermonde_consistent  # rank matches cluster count
        assert not cert.all_pass

    @pytest.mark.parametrize("spec,expected_rank", [
        # distinct recursion eigenvalues: {2} -> 1 of n=2
        ([(2.0, 1, 2)], 1),
        # {2, -2} -> 2 of n=2
        ([(2.0, 1, 1), (2.0, -1, 1)], 2),
        # {1, 2, -5} -> 3 of n=4
        ([(1.0, 1, 1), (2.0, 1, 2), (5.0, -1, 1)], 3),
        # {1, -1} -> 2 of n=8
        ([(1.0, 1, 4), (1.0, -1, 4)], 2),
    ])
    def test_rank_equals_distinct_eigenvalue_count(self, spec, expected_rank):
        p = synthesize_pair(spec, seed=29)
        cert = certify_recursion(recursion_basis(p), p)
        assert cert.rank == expected_rank
        assert cert.distinct_t_eigenvalues == expected_rank
        assert cert.vandermonde_consistent

    @pytest.mark.parametrize("dim", [4, 16, 32])
    def test_generic_pairs_pass(self, dim):
        n = dim // 2
        spec = [(1.0 + k, 1 if k % 2 == 0 else -1, 1) for k in range(n)]
        p = synthesize_pair(spec, seed=dim)
        cert = certify_recursion(recursion_basis(p), p)
        assert cert.all_pass
        assert cert.rank == n

    def test_recursion_fields_live_in_the_algebra(self, ref4d_pair):
        alg = bi_preserving_algebra(ref4d_pair)
        for f in recursion_basis(ref4d_pair).fields:
            assert projection_residual(f.matrix, alg.basis) <= 1e-9

    def test_nijenhuis_identity_for_arbitrary_fields(self, ref4d_pair):
        big_t = ref4d_pair.recursion_operator
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            resid = op_norm(commutator(big_t @ a, big_t)
                            - big_t @ commutator(a, big_t))
            assert resid <= 1e-12 * max(1.0, op_norm(big_t) ** 2 * op_norm(a))


class TestFlow:
    def test_time_zero(self):
        f = LinearField([[3.0, 1.0], [0.0, -2.0]])
        np.testing.assert_array_equal(flow(f, 0.0), np.eye(2))

    def test_quarter_turn_rotation(self):
        f = LinearField([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(flow(f, np.pi / 2),
                                   [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_matches_phase_group(self, ref2d_pair):
        t1 = ref2d_pair.t1
        f = LinearField(t1.j.m)
        for time in (-3.0, 0.2, 1.0, 7.7):
            np.testing.assert_allclose(flow(f, time), phase_group(t1, time),
                                       atol=1e-10)

    def test_general_exponential_path(self):
        f = LinearField(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(flow(f, 2.0), np.diag([np.e**2, np.e**-2]),
                                   rtol=1e-12)

    def test_group_property(self):
        rng = np.random.default_rng(33)
        a = rng.standard_normal((3, 3)) * 0.4
        f = LinearField(a)
        for _ in range(10):
            s, t = rng.uniform(-10, 10, size=2) * 0.3
            np.testing.assert_allclose(flow(f, s) @ flow(f, t), flow(f, s + t),
                                       atol=1e-9 * np.exp(abs(s) + abs(t)))

    def test_overflow_reported(self):
        f = LinearField(np.diag([800.0, -800.0]))
        with pytest.raises(FlowOverflowError):
            flow(f, 2.0)

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValueError):
            flow(LinearField(np.eye(2)), np.inf)


class TestConservationProbe:
    TIMES = tuple(0.1 * k for k in range(1, 101))

    def test_phase_generator_conserves_everything(self, ref2d_pair):
        f = LinearField(ref2d_pair.t1.j.m)
        report = conservation_probe(f, ref2d_pair, self.TIMES)
        assert report.max_drift <= 1e-9
        assert set(report.drifts) == {"g1", "g2", "omega1", "omega2"}

    def test_dilation_drifts_exponentially(self, ref2d_pair):
        f = LinearField.dilation(2)
        report = conservation_probe(f, ref2d_pair, (1.0,))
        # the metric rescales by e^{2t}, so the relative drift is e^2 - 1
        assert report.drifts["g1"] == pytest.approx(np.e**2 - 1.0, rel=1e-9)

    def test_recursion_field_conserves(self, ref4d_pair):
        second = recursion_basis(ref4d_pair).fields[1]
        report = conservation_probe(second, ref4d_pair, self.TIMES)
        assert report.max_drift <= 1e-9


class TestProbePaths:
    SPECS = [
        [(2.0, 1, 1)],
        [(2.0, 1, 1), (3.0, -1, 1)],
        [(1.5, 1, 2), (4.0, -1, 1)],
        [(0.5, 1, 1), (1.25, -1, 1), (2.0, 1, 1), (2.75, -1, 1)],
        [(2.0, 1, 2), (3.0, -1, 2)],
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_spectral_flows_match_expm(self, spec, monkeypatch):
        pair = synthesize_pair(spec, seed=41)
        fields = [LinearField(m) for m in bi_preserving_algebra(pair).basis]
        fields += [LinearField(f.matrix / op_norm(f.matrix))
                   for f in recursion_basis(pair).fields]
        # g1-skew fields never reach the matrix-exponential path
        monkeypatch.setattr(dynamics, "flow", None)
        for f in fields:
            flows = _probe_flows(f, pair, CONSERVATION_TIMES)
            assert flows.shape == (len(CONSERVATION_TIMES), pair.dim, pair.dim)
            for t, o in zip(CONSERVATION_TIMES, flows):
                assert np.abs(o - scipy.linalg.expm(t * f.matrix)).max() <= 1e-10

    def test_large_norm_skew_field_conserves(self, ref4d_pair):
        # scaling and squaring overflows on this field at t = 0.1; the
        # eigenvector flow stays g1-orthogonal at any norm
        f = LinearField(1e20 * ref4d_pair.recursion_operator @ ref4d_pair.t1.j.m)
        report = conservation_probe(f, ref4d_pair, CONSERVATION_TIMES)
        assert report.max_drift <= 1e-12

    def test_non_skew_field_overflows(self, ref2d_pair):
        f = LinearField(np.diag([800.0, -800.0]))
        assert not field_preserves(f, ref2d_pair.t1)
        with pytest.raises(FlowOverflowError):
            conservation_probe(f, ref2d_pair, CONSERVATION_TIMES)

    def test_rejects_nonfinite_time(self, ref2d_pair):
        f = LinearField(ref2d_pair.t1.j.m)
        with pytest.raises(ValueError):
            conservation_probe(f, ref2d_pair, (1.0, np.nan))

    def test_no_times(self, ref4d_pair):
        report = conservation_probe(LinearField(ref4d_pair.t1.j.m), ref4d_pair, ())
        assert report.drifts == {"g1": 0.0, "g2": 0.0, "omega1": 0.0, "omega2": 0.0}
