import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from biham import dynamics
from biham.commutant import bicommutant_dim, commutant_dim, complexify, transfer_operator
from biham.compatibility import check_compatible
from biham.decomposition import DecompositionError, decompose, synthesize_pair
from biham.dynamics import (
    FlowOverflowError,
    RecursionBasis,
    _power_basis_log10_condition,
    _probe_flows,
    bi_preserving_algebra,
    certify_recursion,
    conservation_probe,
    flow,
    recursion_basis,
)
from biham.linalg import (
    NumericalCheckError,
    cluster_eigenvalues,
    commutator,
    eig_self_adjoint,
    op_norm,
)
from biham.structures import LinearField, check_admissible, field_preserves, phase_group
from conftest import S_BLOCK, conditioned_pair, generic_spec, standard_triple, whitened
import loop_oracle

# the probe's sampled times, covering (0, 10], the horizon of the certified
# drift bound of the recursion family
CONSERVATION_TIMES = tuple(0.1 * k for k in range(1, 101))


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
        alg = bi_preserving_algebra(decompose(check_compatible(t, t)))
        assert alg.dim == 1
        assert projection_residual(t.j, alg.basis) <= 1e-12

    def test_reference_4d_two_torus(self, ref4d_pair):
        alg = bi_preserving_algebra(decompose(ref4d_pair))
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
        alg = bi_preserving_algebra(decompose(check_compatible(t, t)))
        assert alg.dim == 4  # dim u(2)

    @pytest.mark.parametrize("spec,expected", [
        ([(2.0, 1, 1), (3.0, -1, 1)], 2),
        ([(2.0, 1, 2)], 4),
        ([(1.0, 1, 1), (2.0, 1, 1), (3.0, 1, 1)], 3),
        ([(1.5, 1, 2), (4.0, -1, 1)], 5),
    ])
    def test_dimension_matches_signature(self, spec, expected):
        alg = bi_preserving_algebra(decompose(synthesize_pair(spec, seed=17)))
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
        alg = bi_preserving_algebra(decompose(scaled))
        assert alg.dim == alg_dim
        for m in alg.basis:
            assert field_preserves(LinearField(m), scaled.t1)
            assert field_preserves(LinearField(m), scaled.t2)
        h1, h2, _ = complexify(decompose(scaled))
        op = transfer_operator(h1, h2, scaled.tol)
        assert commutant_dim(op) == comm_dim
        assert bicommutant_dim(op) == bicomm_dim

    def test_every_element_preserves_both_triples(self, ref4d_pair):
        alg = bi_preserving_algebra(decompose(ref4d_pair))
        for m in alg.basis:
            f = LinearField(m)
            assert field_preserves(f, ref4d_pair.t1)
            assert field_preserves(f, ref4d_pair.t2)


class TestRecursionBasis:
    def test_2d_single_field(self, ref2d_pair):
        rb = recursion_basis(ref2d_pair)
        assert len(rb.fields) == 1
        np.testing.assert_allclose(rb.fields[0].matrix, ref2d_pair.t1.j)

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

    def test_fields_name_the_first_power_out_of_range(self):
        # a valid pair whose raw powers T^k J1 grow like (4e9)^k: the fields
        # once overflowed with a matmul RuntimeWarning and a bare ValueError
        p = synthesize_pair([(1e8 * (1 + k), (-1) ** k, 1) for k in range(40)], 1)
        rb = recursion_basis(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalCheckError, match=r"T\^\d+ @ J1") as info:
                rb.fields
        k = int(re.search(r"T\^(\d+)", str(info.value)).group(1))
        frame, frame_inv = p.t1.g.frame, p.t1.g.frame_inv
        powers = [p.t1.j_w]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(k):
                powers.append(p.recursion_operator_w @ powers[-1])
            finite = [np.isfinite(frame @ a @ frame_inv).all() for a in powers]
        assert all(finite[:k]) and not finite[k]
        # the unit directions stay in range and certify
        assert np.isfinite(rb.directions_w).all()
        assert certify_recursion(rb, decompose(p)).all_pass


class TestCertifyRecursion:
    def test_reference_4d_passes(self, ref4d_pair):
        cert = certify_recursion(recursion_basis(ref4d_pair), decompose(ref4d_pair))
        assert cert.all_pass
        assert cert.rank == 2 == cert.expected_rank
        assert cert.distinct_t_eigenvalues == 2

    def test_identity_pair_fails_rank_only(self):
        t = standard_triple(2)
        p = check_compatible(t, t)
        cert = certify_recursion(recursion_basis(p), decompose(p))
        assert cert.preserves_all and cert.commute
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
        cert = certify_recursion(recursion_basis(p), decompose(p))
        assert cert.rank == expected_rank
        assert cert.distinct_t_eigenvalues == expected_rank
        assert cert.vandermonde_consistent

    @pytest.mark.parametrize("spec", [
        [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(6)],  # generic
        [(2.0, 1, 2), (3.0, -1, 2)],  # two classes
        [(1.0, 1, 1), (2.0, 1, 2), (5.0, -1, 3)],  # three classes
        [(2.0, 1, 1), (2.0, -1, 1)],  # equal lambda, opposite signs
        None,  # identity pair
    ])
    def test_distinct_t_eigenvalues_match_t_spectrum(self, spec):
        # oracle: the clusters of T's own spectrum, which the certificate
        # counts from the decomposition's (lambda, sign) classes instead
        if spec is None:
            p = check_compatible(standard_triple(3), standard_triple(3))
        else:
            p = synthesize_pair(spec, seed=11)
        t_evals, _ = eig_self_adjoint(whitened(p.recursion_operator, p), p.tol)
        expected = len(cluster_eigenvalues(t_evals, p.tol.cluster_gap))
        cert = certify_recursion(recursion_basis(p), decompose(p))
        assert cert.distinct_t_eigenvalues == expected

    @pytest.mark.parametrize("dim", [4, 16, 32])
    def test_generic_pairs_pass(self, dim):
        n = dim // 2
        spec = [(1.0 + k, 1 if k % 2 == 0 else -1, 1) for k in range(n)]
        p = synthesize_pair(spec, seed=dim)
        cert = certify_recursion(recursion_basis(p), decompose(p))
        assert cert.all_pass
        assert cert.rank == n

    # the power stack T^k J1 is a Vandermonde system in T's eigenvalues; an
    # SVD of it read ranks 22/24, 25/32, 32/64 and 5/8 on these pairs
    @pytest.mark.parametrize("spec", [
        [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(24)],
        [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(32)],
        [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(64)],
        [(1.0 + 0.01 * k, 1, 1) for k in range(8)],
    ], ids=["generic48", "generic64", "generic128", "dim16_eigenvalues_0.01_apart"])
    def test_full_rank_where_the_power_stack_is_ill_conditioned(self, spec):
        p = synthesize_pair(spec, seed=1)
        cert = certify_recursion(recursion_basis(p), decompose(p))
        assert cert.rank == cert.expected_rank == len(spec)
        assert cert.vandermonde_consistent
        assert cert.all_pass

    def test_recursion_fields_live_in_the_algebra(self, ref4d_pair):
        alg = bi_preserving_algebra(decompose(ref4d_pair))
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


def uncertified_pair():
    """Generic dim 8 with cond(g1) = 9e6, beyond the advertised 1e6: its
    adapted frame's bound (1.2e-9) exceeds ``rel``, while its directions
    measure within ``rel`` (5.0e-10 at most)."""
    return conditioned_pair(generic_spec(4), 3e3, seed=10)


class TestCertificateFaults:
    """The recursion certificate measures preservation on the directions
    and reads the rank, and the commutation wherever its bound decides, off
    the adapted frame and the coordinate elements, so a fault in either must
    fail it."""

    SPEC = [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(6)]

    def test_passes_untampered(self):
        p = synthesize_pair(self.SPEC, seed=3)
        assert certify_recursion(recursion_basis(p), decompose(p)).all_pass

    def test_tampered_frame_fails(self):
        p = synthesize_pair(self.SPEC, seed=3)
        d = decompose(p)
        bad = d.frame_w.copy()
        bad[:, 0] += 1e-6 * d.frame_w[:, 1]
        d = dataclasses.replace(d, frame_w=bad)
        bound, e = d.frame_certificate
        assert bound > p.tol.rel and e > 1e-7
        rb = recursion_basis(p)
        cert = certify_recursion(rb, d)
        assert not cert.vandermonde_consistent and not cert.holds
        # the untouched directions are measured, not judged by the frame
        measured = loop_oracle.direction_residuals(rb.directions_w, p)
        assert cert.preserves_all and cert.commute
        assert measured["commutator"] <= cert.max_commutator_residual <= p.tol.rel
        with pytest.raises(DecompositionError, match="not certified"):
            bi_preserving_algebra(d)

    def test_tampered_direction_fails(self):
        p = synthesize_pair(self.SPEC, seed=3)
        rb = recursion_basis(p)
        dirs = rb.directions_w.copy()
        sym = np.random.default_rng(5).standard_normal((p.dim, p.dim))
        dirs[2] += 1e-6 * (sym + sym.T)
        tampered = RecursionBasis(p, dirs)
        # the oracle sees the fault the certificate must not miss
        measured = loop_oracle.direction_residuals(dirs, p)
        assert measured["preservation"] > p.tol.rel and measured["commutator"] > p.tol.rel
        cert = certify_recursion(tampered, decompose(p))
        assert not cert.preserves_all and not cert.commute
        assert not cert.vandermonde_consistent
        assert cert.max_preservation_residual >= measured["preservation"]
        assert cert.max_commutator_residual >= measured["commutator"]

    def test_uncertified_frame_keeps_measured_verdicts(self):
        # the certificate does not raise; its verdicts are those of the
        # measured directions, and the algebra, which needs the certified
        # frame, names the failure
        p = uncertified_pair()
        d = decompose(p)
        assert d.frame_certificate[0] > p.tol.rel
        rb = recursion_basis(p)
        cert = certify_recursion(rb, d)
        measured = loop_oracle.direction_residuals(rb.directions_w, p)
        assert max(measured["preservation"], measured["commutator"]) <= p.tol.rel
        assert cert.preserves_all and cert.commute
        assert cert.rank == cert.expected_rank == 4
        with pytest.raises(DecompositionError, match="not certified"):
            bi_preserving_algebra(d)


class TestPowerBasisCondition:
    @pytest.mark.parametrize("nodes", [[2.0, -3.0], [0.5, -1.25, 2.0, -2.75],
                                       [1.0, 1.01, 1.02], [1e3, -2e3, 5e-2], [7.0]])
    def test_bounds_the_condition_number(self, nodes):
        v = np.vander(nodes, increasing=True).T  # v[k, i] = x_i^k
        kappa = np.linalg.norm(v, np.inf) * np.linalg.norm(np.linalg.inv(v), np.inf)
        assert math.log10(kappa) <= _power_basis_log10_condition(nodes) + 1e-12

    def test_attained_on_two_nodes(self):
        # V = [[1, 1], [2, -3]]: |V| = 5 and |inv(V)| = 0.8
        assert _power_basis_log10_condition([2.0, -3.0]) == pytest.approx(math.log10(4.0))

    def test_finite_beyond_the_floating_point_range(self):
        # the nodes of the pair whose raw powers overflow: |V| alone is
        # about (4e9)^39, beyond the largest double
        nodes = [1e8 * (1 + k) * (-1) ** k for k in range(40)]
        value = _power_basis_log10_condition(nodes)
        assert math.isfinite(value) and value > 308


class TestDriftBound:
    """The certified drift bound against the sampled probe (the oracle), on
    each pair rebuilt in t1's g1-orthonormal frame, where the probe
    measures the drift the bound is stated for."""

    @pytest.mark.parametrize("spec", [
        [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(n)]
        for n in (4, 8, 16)
    ] + [
        [(2.0, 1, 4), (3.0, -1, 4)],
        [(2.0, 1, 8), (3.0, -1, 8)],
        [(1.0, 1, 4), (2.0, 1, 4), (5.0, -1, 4)],
        [(1.0, 1, 4), (2.0, 1, 4), (5.0, -1, 8)],
    ], ids=["generic8", "generic16", "generic32", "two_class16", "two_class32",
            "three_class24", "three_class32"])
    def test_sampled_drift_stays_within_the_bound(self, spec):
        p = loop_oracle.in_t1_frame(synthesize_pair(spec, seed=7))
        bound = certify_recursion(recursion_basis(p), decompose(p)).max_conservation_drift
        # the probe's own rounding: it flows by eigenvectors that are
        # orthogonal to a few m * eps only, and the drift of g1, exactly 0
        # for a g1-skew field, reads up to 3.7 m * eps on these pairs
        allowance = 10 * p.dim * np.finfo(float).eps
        assert loop_oracle.probed_drift(p, CONSERVATION_TIMES) <= bound + allowance


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
        f = LinearField(t1.j)
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

    def test_overflow_of_the_scaled_field_reported(self):
        f = LinearField([[1e10, 1.0], [0.0, 1.0]])
        with pytest.raises(FlowOverflowError):
            flow(f, 1e300)

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValueError):
            flow(LinearField(np.eye(2)), np.inf)


class TestConservationProbe:
    def test_phase_generator_conserves_everything(self, ref2d_pair):
        f = LinearField(ref2d_pair.t1.j)
        report = conservation_probe(f, ref2d_pair, CONSERVATION_TIMES)
        assert report.max_drift <= 1e-9
        assert set(report.drifts) == {"g1", "g2", "omega1", "omega2"}

    def test_dilation_drifts_exponentially(self, ref2d_pair):
        f = LinearField.dilation(2)
        report = conservation_probe(f, ref2d_pair, (1.0,))
        # the metric rescales by e^{2t}, so the relative drift is e^2 - 1
        assert report.drifts["g1"] == pytest.approx(np.e**2 - 1.0, rel=1e-9)

    def test_recursion_field_conserves(self, ref4d_pair):
        second = recursion_basis(ref4d_pair).fields[1]
        report = conservation_probe(second, ref4d_pair, CONSERVATION_TIMES)
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
        fields = [LinearField(m) for m in bi_preserving_algebra(decompose(pair)).basis]
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
        f = LinearField(1e20 * ref4d_pair.recursion_operator @ ref4d_pair.t1.j)
        report = conservation_probe(f, ref4d_pair, CONSERVATION_TIMES)
        assert report.max_drift <= 1e-12

    def test_non_skew_field_overflows(self, ref2d_pair):
        f = LinearField(np.diag([800.0, -800.0]))
        assert not field_preserves(f, ref2d_pair.t1)
        with pytest.raises(FlowOverflowError):
            conservation_probe(f, ref2d_pair, CONSERVATION_TIMES)

    def test_rejects_nonfinite_time(self, ref2d_pair):
        f = LinearField(ref2d_pair.t1.j)
        with pytest.raises(ValueError):
            conservation_probe(f, ref2d_pair, (1.0, np.nan))

    def test_no_times(self, ref4d_pair):
        report = conservation_probe(LinearField(ref4d_pair.t1.j), ref4d_pair, ())
        assert report.drifts == {"g1": 0.0, "g2": 0.0, "omega1": 0.0, "omega2": 0.0}


class TestAlgebraFaults:
    """A decomposition whose block bases no longer span joint eigenspaces
    fails the algebra's check."""

    @pytest.mark.parametrize("angle", [1e-3, 1e-6])
    def test_tampered_block_bases_raise(self, angle):
        d = decompose(synthesize_pair([(2.0, 1, 2), (3.0, -1, 1)], seed=5))
        # tilt the first block's axes (frame columns 0, 1) towards the second
        # block's axis and partner (columns 2 and n + 2)
        q, n = d.frame_w, d.pair.dim // 2
        mixed = np.array(q)
        mixed[:, :2] = np.cos(angle) * q[:, :2] + np.sin(angle) * q[:, [2, n + 2]]
        tampered = dataclasses.replace(d, frame_w=mixed)
        with pytest.raises(DecompositionError):
            bi_preserving_algebra(tampered)

    def test_untampered_decomposition_passes(self):
        d = decompose(synthesize_pair([(2.0, 1, 2), (3.0, -1, 1)], seed=5))
        assert bi_preserving_algebra(d).dim == 5
