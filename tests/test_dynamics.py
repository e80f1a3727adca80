import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biham import dynamics
from biham.commutant import bicommutant_dim, commutant_dim, complexify, transfer_operator
from biham.compatibility import check_compatible
from biham.decomposition import DecompositionError, decompose, synthesize_pair
from biham.dynamics import (
    FlowOverflowError,
    _power_basis_log10_condition,
    _probe_flows,
    RecursionCertificate,
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
from conftest import (S_BLOCK, conditioned_basis, conditioned_pair, congruent, generic_spec,
                      j_invariant_basis, standard_triple, whitened)
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
        h1, h2 = complexify(decompose(scaled))
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
        assert len(rb) == 1
        np.testing.assert_allclose(rb[0].matrix, ref2d_pair.t1.j)

    def test_reference_4d_fields(self, ref4d_pair):
        rb = recursion_basis(ref4d_pair)
        j1 = np.kron(np.eye(2), S_BLOCK)
        tj1 = np.kron(np.diag([2.0, -3.0]), S_BLOCK)
        np.testing.assert_allclose(rb[0].matrix, j1, atol=1e-12)
        np.testing.assert_allclose(rb[1].matrix, tj1, atol=1e-12)

    def test_identity_pair_repeats(self):
        t = standard_triple(2)
        rb = recursion_basis(check_compatible(t, t))
        np.testing.assert_allclose(rb[0].matrix, rb[1].matrix,
                                   atol=1e-14)

    @pytest.mark.parametrize("spec", [
        [(2.0, 1, 1), (3.0, -1, 1)],
        generic_spec(4),
        [(1.5, 1, 1), (2.5, -1, 2)],
    ], ids=["two_class4", "generic8", "repeated8"])
    def test_is_the_tuple_of_powers(self, spec):
        # the family itself, no record around it: field k is T^k @ J1 in
        # the input coordinates
        p = synthesize_pair(spec, seed=5)
        rb = recursion_basis(p)
        assert type(rb) is tuple and len(rb) == p.dim // 2
        power = p.t1.j
        for k, field in enumerate(rb):
            assert isinstance(field, LinearField)
            if k:
                power = p.recursion_operator @ power
            np.testing.assert_allclose(field.matrix, power, rtol=0.0,
                                       atol=1e-10 * op_norm(power))

    def test_fields_name_the_first_power_out_of_range(self):
        # a valid pair whose raw powers T^k J1 grow like (4e9)^k: the fields
        # once overflowed with a matmul RuntimeWarning and a bare ValueError
        p = synthesize_pair([(1e8 * (1 + k), (-1) ** k, 1) for k in range(40)], 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalCheckError, match=r"T\^\d+ @ J1") as info:
                recursion_basis(p)
        k = int(re.search(r"T\^(\d+)", str(info.value)).group(1))
        frame, frame_inv = p.t1.g.frame, p.t1.g.frame_inv
        powers = [p.t1.j_w]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(k):
                powers.append(p.recursion_operator_w @ powers[-1])
            finite = [np.isfinite(frame @ a @ frame_inv).all() for a in powers]
        assert all(finite[:k]) and not finite[k]
        # the unit directions stay in range and certify
        assert np.isfinite(loop_oracle.unit_directions(p)).all()
        assert certify_recursion(decompose(p)).all_pass


class TestCertifyRecursion:
    def test_reference_4d_passes(self, ref4d_pair):
        cert = certify_recursion(decompose(ref4d_pair))
        assert cert.all_pass
        assert cert.rank == 2 == cert.expected_rank
        assert cert.rank == 2

    def test_identity_pair_fails_rank_only(self):
        t = standard_triple(2)
        p = check_compatible(t, t)
        cert = certify_recursion(decompose(p))
        assert cert.preserves_all
        assert cert.rank == 1
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
        cert = certify_recursion(decompose(p))
        assert cert.rank == expected_rank
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
        cert = certify_recursion(decompose(p))
        assert cert.rank == expected

    @pytest.mark.parametrize("dim", [4, 16, 32])
    def test_generic_pairs_pass(self, dim):
        n = dim // 2
        spec = [(1.0 + k, 1 if k % 2 == 0 else -1, 1) for k in range(n)]
        p = synthesize_pair(spec, seed=dim)
        cert = certify_recursion(decompose(p))
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
        cert = certify_recursion(decompose(p))
        assert cert.rank == cert.expected_rank == len(spec)
        assert cert.vandermonde_consistent
        assert cert.all_pass

    def test_reads_only_the_decomposition(self):
        # cond(g1) = 1e6: the bound on the powers could not decide here, so
        # the certificate stacked and measured them; it now reads the
        # decomposition's frame certificate, and no field of the family
        p = conditioned_pair(generic_spec(32), 1e3, seed=1)
        cert = certify_recursion(decompose(p))
        assert cert.all_pass and cert.rank == 32

    @pytest.mark.parametrize("alias", [
        "commute", "max_commutator_residual", "distinct_t_eigenvalues"])
    def test_one_field_per_fact(self, ref4d_pair, alias):
        # commutation is judged by preserves_all, and the count of distinct
        # T eigenvalues is the rank: the record stores neither twice
        cert = certify_recursion(decompose(ref4d_pair))
        assert alias not in RecursionCertificate._fields
        assert not hasattr(cert, alias)

    @pytest.mark.parametrize("case, holds, all_pass", [
        ("generic", True, True), ("identity", True, False), ("uncertified", False, False)])
    def test_holds_is_preservation_and_vandermonde(self, case, holds, all_pass):
        # the CLI's exit code reads ``holds``: a pair that is not generic
        # still holds, and an uncertified frame fails it
        if case == "generic":
            p = synthesize_pair(generic_spec(4), seed=3)
        elif case == "identity":
            t = standard_triple(2)
            p = check_compatible(t, t)
        else:
            p = uncertified_pair()
        cert = certify_recursion(decompose(p))
        assert cert.holds == (cert.preserves_all and cert.vandermonde_consistent) == holds
        assert cert.all_pass == all_pass

    def test_recursion_fields_live_in_the_algebra(self, ref4d_pair):
        alg = bi_preserving_algebra(decompose(ref4d_pair))
        for f in recursion_basis(ref4d_pair):
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
    """Generic dim 8 with cond(g1) = 6.4e7, beyond the advertised 1e6: its
    frame certificate reads 1.05e-9, above ``rel``, and so does the
    measured preservation of its unit directions (1.15e-9).  Of 1051
    compatible generic and two-class pairs of dims 8 and 16 at cond(g1)
    9e6 to 1.4e8 (basis seeds 0-199), it and one other are the only ones
    whose certificate exceeds ``rel``."""
    return conditioned_pair(generic_spec(4), 8e3, seed=197)


class TestCertificateFaults:
    """The recursion certificate reads the family's span off the adapted
    frame, and the frame certificate judges the pair on that frame, so a
    fault in either must fail it."""

    SPEC = [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(6)]

    def test_passes_untampered(self):
        p = synthesize_pair(self.SPEC, seed=3)
        assert certify_recursion(decompose(p)).all_pass

    @pytest.mark.parametrize("scale, skew", [(1.0, 1e-6), (1.5, 0.0)], ids=["skewed", "scaled"])
    def test_tampered_frame_fails(self, scale, skew):
        # the frame is no free field: it is built from T_c's eigenvectors V,
        # so a tampered eigensolve moves it, and V's departure from unitary
        # reads in e, through V^H (Z^H Z) V - I
        p = synthesize_pair(self.SPEC, seed=3)
        bad = scale * p.v
        bad[:, 0] += skew * p.v[:, 1]
        p = p.replace(v=bad)
        d = decompose(p)
        with pytest.raises(TypeError):
            d.replace(frame_w=d.frame_w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound, e = d.frame_certificate
            cert = certify_recursion(d)
        assert bound > p.tol.rel and e > 1e-7
        q = d.frame_w
        assert e == pytest.approx(np.linalg.norm(q.T @ q - np.eye(p.dim)), rel=1e-6)
        # the directions, which T and J1 give, measure within rel, but the
        # frame that carries the span fails its own certificate
        measured = loop_oracle.direction_residuals(loop_oracle.unit_directions(p), p)
        assert max(measured["preservation"], measured["commutator"]) <= p.tol.rel
        assert not (cert.preserves_all or cert.vandermonde_consistent)
        if e >= 1.0:
            # past e = 1 (1.25 sqrt(m) when scaled) every bound leaves its domain
            assert cert.max_preservation_residual == cert.max_conservation_drift == math.inf
        with pytest.raises(DecompositionError, match="not certified"):
            bi_preserving_algebra(d)

    def test_tampered_direction_fails(self):
        # a fault in omega2 moves T, and with it every direction after J1;
        # the frame certificate measures omega2 on the frame, through the
        # pair's coordinate blocks, so the certificate of the pair the
        # decomposition carries cannot miss it
        p = synthesize_pair(self.SPEC, seed=3)
        sym = np.random.default_rng(5).standard_normal((p.dim, p.dim))
        # T = inv(J1) omega2 is built from omega2: move T by 1e-6 (sym + sym.T)
        tampered = loop_oracle.with_omega2(p, p.omega2_w + p.t1.j_w @ (1e-6 * (sym + sym.T)))
        # the oracle sees the fault the certificate must not miss, and so
        # does the retired action-form check of the generators
        measured = loop_oracle.direction_residuals(loop_oracle.unit_directions(tampered), p)
        assert measured["preservation"] > p.tol.rel and measured["commutator"] > p.tol.rel
        d = decompose(p).replace(pair=tampered)
        assert loop_oracle.generator_action_residual(d) > p.tol.rel
        cert = certify_recursion(d)
        assert not cert.preserves_all
        assert not cert.vandermonde_consistent

    def test_uncertified_frame_fails_the_span(self):
        # cond(g1) = 6.4e7, beyond the advertised 1e6: the certificate does
        # not raise, but the pair's backward error, read off the frame,
        # exceeds rel, as the measured directions' preservation does; the
        # span's preservation and commutation read that backward error, and
        # the algebra, which needs the same frame, names the failure
        p = uncertified_pair()
        d = decompose(p)
        bound, _ = d.frame_certificate
        assert bound > p.tol.rel
        measured = loop_oracle.direction_residuals(loop_oracle.unit_directions(p), p)
        assert measured["preservation"] > p.tol.rel
        cert = certify_recursion(d)
        assert not cert.preserves_all
        assert cert.max_preservation_residual == bound
        assert loop_oracle.pair_backward_error(d) <= bound
        assert cert.rank == cert.expected_rank == 4
        with pytest.raises(DecompositionError, match="not certified"):
            bi_preserving_algebra(d)


@st.composite
def family_pairs(draw):
    """A synthesized pair of dim <= 32 with distinct eigenvalues on a 0.125
    grid in [0.5, 8], plain, after a ``conditioned_basis(dim, 1e3)``
    congruence, or, at dims 8-24, after a ``j_invariant_basis`` congruence
    of cond 1e3 (both cond(g1) = 1e6); a congruence that leaves the
    admissible range is rejected."""
    lams = draw(st.lists(st.integers(0, 60), min_size=1, max_size=6, unique=True))
    spec, room = [], 16
    for k in lams:
        mult = draw(st.integers(1, min(3, room)))
        spec.append((0.5 + 0.125 * k, draw(st.sampled_from((1, -1))), mult))
        room -= mult
        if room == 0:
            break
    seed = draw(st.integers(0, 2**16))
    pair = synthesize_pair(spec, seed=seed)
    n = pair.dim // 2
    basis = draw(st.sampled_from(("plain", "conditioned", "j-invariant")
                                 if 4 <= n <= 12 else ("plain", "conditioned")))
    if basis == "plain":
        return pair
    p = (conditioned_basis(pair.dim, 1e3, np.random.default_rng(seed)) if basis == "conditioned"
         else j_invariant_basis(n, 1e3, seed))
    doc = congruent(pair, p)
    t1 = check_admissible(doc["g1"], doc["omega1"])
    t2 = check_admissible(doc["g2"], doc["omega2"])
    # g2 carries cond(G) on top of the congruence's 1e6
    assume(t1 and t2)
    moved = check_compatible(t1, t2)
    assume(moved)
    return moved


class TestPowerFreeBounds:
    """The oracle's telescoped bound, read off the frame by the retired
    row-sum certificate with no power formed, against the measured
    residuals of the unit directions; and the certificate's verdicts
    against the same measurement.  The certificate's values are the pair's
    backward error, not bounds on the powers' rounding, which reads up to
    3x above them at cond(g1) = 1e6."""

    @settings(max_examples=40, deadline=None)
    @given(p=family_pairs())
    def test_bounds_cover_the_measurement_and_verdicts_agree(self, p):
        rel = p.tol.rel
        d = decompose(p)
        dirs = loop_oracle.unit_directions(p)
        measured = loop_oracle.direction_residuals(dirs, p)
        rho = loop_oracle.inclusion_residual(dirs, d)
        beta, e = loop_oracle.row_sum_frame_certificate(d)
        assert e < 1e-12
        bound = loop_oracle.telescoped_bounds(p, d)
        assert bound["preservation"] >= measured["preservation"]
        assert bound["commutator"] >= measured["commutator"]
        assert bound["drift"] >= measured["drift"]
        assert bound["inclusion"] >= rho
        cert = certify_recursion(d)
        # the backward error formed densely stays within the certificate's,
        # but for the dense product's own rounding (at most 0.6 m eps on
        # 2000 such pairs, where the departure has rank one)
        backward, _ = d.frame_certificate
        eps = np.finfo(float).eps
        assert loop_oracle.pair_backward_error(d) <= backward + 4 * p.dim * eps
        # the verdicts are those of the measurement, and a pass of the
        # retired certificate stays a pass
        assert cert.preserves_all == (measured["preservation"] <= rel)
        assert cert.preserves_all == (measured["commutator"] <= rel)
        assert cert.vandermonde_consistent == (rho <= rel)
        assert cert.preserves_all or not beta <= rel


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
        bound = certify_recursion(decompose(p)).max_conservation_drift
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
        second = recursion_basis(ref4d_pair)[1]
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
                   for f in recursion_basis(pair)]
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
        p = synthesize_pair([(2.0, 1, 2), (3.0, -1, 1)], seed=5)
        d = decompose(p)
        # tilt the eigenvectors of the first block's coordinates towards
        # the second block's, so its axes and partners tilt with them:
        # decompose reads the residuals of the untampered eigensolve and
        # passes, the frame is built from the tampered one
        first, second = d.blocks[0].coordinates, d.blocks[1].coordinates
        mixed = np.array(p.v)
        mixed[:, first] = np.cos(angle) * p.v[:, first] + np.sin(angle) * p.v[:, second]
        tampered = decompose(p.replace(v=mixed))
        with pytest.raises(DecompositionError):
            bi_preserving_algebra(tampered)

    def test_untampered_decomposition_passes(self):
        d = decompose(synthesize_pair([(2.0, 1, 2), (3.0, -1, 1)], seed=5))
        assert bi_preserving_algebra(d).dim == 5
