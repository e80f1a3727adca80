"""The stacked verifications against the per-block and per-pair loops.

The pencil verdicts, read off each block's (lambda, sign) and gamma, equal
those of one solve per block, with the coefficients equal to rounding.
``decompose`` judges its blocks on n x n residuals in J1's complex
coordinates; wherever it passes, the real-form per-block and per-pair
checks it replaced pass their row-sum thresholds, and a tampered pair
fails both.  The element-wise checks of the algebra, the recursion family, the commutant
and the bicommutant, which the frame certificates replaced, pass wherever
the certificates pass, and each measured residual of the family stays
within the bound the certificate reports for it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import loop_oracle
from biham.commutant import (
    HermitianForm,
    bicommutant_dim,
    commutant_dim,
    complexify,
    transfer_operator,
)
from biham.compatibility import check_compatible, pencil_member
from biham.decomposition import DecompositionError, decompose, synthesize_pair
from biham.dynamics import bi_preserving_algebra, certify_recursion, recursion_basis
from biham.structures import AdmissibleTriple, ViolationReport, check_admissible
from biham.linalg import StructureError, Tolerance, op_norm
from conftest import conditioned_basis, conditioned_pair, congruent, standard_triple
from test_commutant import operator_from_spectrum


def generic_spec(n):
    return [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(n)]


def two_class_spec(dim):
    n = dim // 2
    return [(2.0, 1, n // 2), (3.0, -1, n - n // 2)]


def three_class_spec(dim):
    n = dim // 2
    a = -(-n // 3)
    b = -(-(n - a) // 2)
    return [(1.5, 1, a), (2.5, -1, b), (4.0, 1, n - a - b)]


def identity_pair():
    t = standard_triple(3)
    return check_compatible(t, t)


PAIRS = [pytest.param(lambda d=d: synthesize_pair(generic_spec(d // 2), seed=d),
                      id=f"generic-{d}") for d in (2, 4, 8, 12, 16, 24, 32)]
PAIRS += [pytest.param(lambda d=d, f=f: synthesize_pair(f(d), seed=d), id=f"{name}-{d}")
          for name, f in (("two-class", two_class_spec), ("three-class", three_class_spec))
          for d in (16, 24)]
PAIRS += [pytest.param(identity_pair, id="identity-6")]


def retired_thresholds(p):
    """The row-sum thresholds of the real-form decomposition checks: per
    block [g2, omega2, J2], then the g2-orthogonality of a pair."""
    norms = np.array([op_norm(p.metric_operator_w), op_norm(p.omega2_w), op_norm(p.t1.j_w)])
    return p.tol.rel * norms, p.tol.rel * norms[0]


def assert_directions_within_bounds(p, drift_within_rel=True):
    """Certificate first, then every measured residual of the unit
    directions within the oracle's telescoped bound and within the retired
    row-sum certificate's value for it, and that within ``rel``; the
    reported values are backward errors, which the dense backward error of
    the pair stays within.  The retired values bound the generators'
    backward error, not the powers' rounding; on these pairs they cover it
    too.  The drift is no verdict: at cond(g1) = 1e6 its measured value
    already exceeds ``rel``."""
    d = decompose(p)
    cert = certify_recursion(recursion_basis(p), d)
    assert cert.preserves_all and cert.commute
    measured = loop_oracle.direction_residuals(loop_oracle.unit_directions(p), p)
    bound = loop_oracle.telescoped_bounds(p, d)
    assert all(measured[k] <= bound[k] for k in measured)
    retired = loop_oracle.row_sum_recursion_values(d)
    assert measured["preservation"] <= retired["preservation"] <= p.tol.rel
    assert measured["commutator"] <= retired["commutator"] <= p.tol.rel
    assert measured["drift"] <= retired["drift"]
    assert retired["drift"] <= p.tol.rel or not drift_within_rel
    assert loop_oracle.pair_backward_error(d) <= cert.max_preservation_residual <= p.tol.rel
    assert cert.max_conservation_drift <= p.tol.rel or not drift_within_rel


def assert_retired_block_checks_pass(d):
    """Every real-form per-block and cross-block check of the loop oracle
    within its row-sum threshold, for a pair ``decompose`` passed."""
    per_block, cross = loop_oracle.decomposition_residuals(d)
    block_thr, cross_thr = retired_thresholds(d.pair)
    assert (per_block <= block_thr).all()
    assert len(cross) == len(d.blocks) * (len(d.blocks) - 1) // 2
    assert all(value <= cross_thr for value in cross.values())


@pytest.mark.parametrize("make_pair", PAIRS)
class TestStackedEqualsLoops:
    def test_decomposition_residuals(self, make_pair):
        assert_retired_block_checks_pass(decompose(make_pair()))

    def test_max_commutator_residual(self, make_pair):
        p = make_pair()
        d = decompose(p)
        cert = certify_recursion(recursion_basis(p), d)
        measured = loop_oracle.max_commutator_residual(loop_oracle.unit_directions(p))
        assert measured <= loop_oracle.telescoped_bounds(p, d)["commutator"]
        assert measured <= cert.max_commutator_residual <= p.tol.rel

    @pytest.mark.parametrize("gamma", [0.5, 0.0, -0.05])
    def test_pencil_verdicts(self, make_pair, gamma):
        # read off (lambda, sign, gamma) against one solve per block: the
        # same verdicts, the coefficients to rounding (measured at most
        # 9.6e-15 relative) and both residuals at rounding
        d = decompose(make_pair())
        member = pencil_member(d, gamma)
        expected = loop_oracle.pencil_verdicts(d, gamma)
        assert len(member.blocks) == len(expected)
        for v, (coeff, resid, admissible) in zip(member.blocks, expected):
            assert v.admissible == admissible
            assert abs(v.jsq_coefficient - coeff) <= 1e-13 * abs(coeff)
            assert v.residual <= 1e-12 and resid <= 1e-12


class TestTamperedPairs:
    """Residuals far above rounding, on the tampered pairs of
    ``test_decomposition.TestDecomposeFaults``: ``decompose`` refuses the
    pair, and the real-form loops see each fault at its block."""

    EPS = 1e-5

    def test_every_check_tampered(self):
        p = synthesize_pair([(1.0, 1, 1), (2.0, -1, 1), (3.0, 1, 1)], seed=4)
        d = decompose(p)
        b = [block.basis_w for block in d.blocks]
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        g2 = self.EPS * (b[0] @ b[0].T + b[1] @ b[2].T + b[2] @ b[1].T)
        w2 = self.EPS * (b[1] @ skew @ b[1].T)
        tampered = loop_oracle.with_forms(p, p.metric_operator_w + g2, p.omega2_w + w2)
        with pytest.raises(DecompositionError):
            decompose(tampered)
        per_block, cross = loop_oracle.decomposition_residuals(d.replace(pair=tampered))
        block_thr, cross_thr = retired_thresholds(tampered)
        # g2 on block 0; J2 = inv(G) omega2 on blocks 0, 1 and 2
        assert per_block[0, 0] > 1e-6 and (per_block[:, 2] > block_thr[2]).all()
        assert cross[1, 2] > cross_thr


COMPLEXIFIED = [pytest.param(spec, id=name) for name, spec in (
    ("generic-8", generic_spec(4)),
    ("generic-32", generic_spec(16)),
    ("two-class-16", two_class_spec(16)),
    ("three-class-24", three_class_spec(24)),
    ("one-class-32", [(2.0, 1, 16)]),
)]


def assert_operator_elements_commute(op):
    """Certificate first (the dimensions), then every retired element-wise
    check at its allowance."""
    assert commutant_dim(op) == len(op.commutant_basis)
    assert bicommutant_dim(op) == len(op.cluster_frames)
    resid = loop_oracle.operator_space_residuals(op)
    assert resid["commutant_vs_operator"] <= op.tol.cluster_gap
    assert resid["bicommutant_vs_operator"] <= op.tol.rel
    assert resid["bicommutant_vs_commutant"] <= op.tol.rel


def assert_algebra_elements_preserve(d):
    alg = bi_preserving_algebra(d)
    assert len(alg.basis) == alg.dim
    assert loop_oracle.algebra_preservation_residual(alg, d.pair) <= d.tol.rel


SCALED = [pytest.param(spec, id=name) for name, spec in (
    ("generic-4", [(2.0, 1, 1), (3.0, -1, 1)]),
    ("two-class-6", [(2.0, 1, 2), (3.0, -1, 1)]),
)]


def scaled_pair(spec):
    p = synthesize_pair(spec, seed=3)
    return check_compatible(p.t1, check_admissible(1e8 * p.t2.g.m, 1e8 * p.t2.omega.m))


def ill_conditioned_operator():
    """A first form of condition number 1e6 and a spectrum with two double
    eigenvalues."""
    rng = np.random.default_rng(3)
    n = 6
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h1 = q @ np.diag(np.logspace(0.0, 6.0, n)) @ q.conj().T
    h1 = 0.5 * (h1 + h1.conj().T)
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v = np.linalg.solve(np.linalg.cholesky(h1).conj().T, q2)  # h1-orthonormal
    h2 = h1 @ v @ np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 4.0]) @ np.linalg.inv(v)
    return transfer_operator(HermitianForm(h1), HermitianForm(0.5 * (h2 + h2.conj().T)))


class TestBicommutantBound:
    """The element-wise checks of the commutant and the bicommutant, for
    dims up to 32: wherever ``decompose`` certifies the pair (for forms,
    their realified pair), every basis element of the operator read off
    it passes the check it replaced."""

    @pytest.mark.parametrize("spec", COMPLEXIFIED)
    def test_complexified_pairs(self, spec):
        p = synthesize_pair(spec, seed=1)
        h1, h2, _ = complexify(decompose(p))
        assert_operator_elements_commute(transfer_operator(h1, h2, p.tol))

    @pytest.mark.parametrize("evals", [[1.0, 2.0, 3.0], [1.0, 1.0, 3.0],
                                       [1.0, 1.0, 2.0, 4.0], [1.0] * 4 + [5.0] * 4])
    def test_random_forms(self, evals):
        assert_operator_elements_commute(
            operator_from_spectrum(evals, np.random.default_rng(11)))

    @pytest.mark.parametrize("spec", SCALED)
    def test_second_triple_scaled_by_1e8(self, spec):
        d = decompose(scaled_pair(spec))
        h1, h2, _ = complexify(d)
        assert_operator_elements_commute(transfer_operator(h1, h2, d.tol))

    def test_ill_conditioned_first_form(self):
        # the form whose biorthogonality bound once exceeded rel and fell
        # back to the element-wise check
        op = ill_conditioned_operator()
        assert_operator_elements_commute(op)
        assert (commutant_dim(op), bicommutant_dim(op)) == (10, 4)


RECURSION_PAIRS = [
    pytest.param(lambda: synthesize_pair([(2.0, 1, 16)], seed=1), True, id="one-class-32"),
    *(pytest.param(lambda s=spec.values[0]: scaled_pair(s), True, id=f"{spec.id}-scaled-1e8")
      for spec in SCALED),
    # cond(g1) = 1e6; basis seed 29 at dim 16 once failed a derived
    # preservation bound 4-8x above the measured residuals
    *(pytest.param(lambda s=spec, k=seed: conditioned_pair(s, 1e3, seed=k), False,
                   id=f"{name}-cond-1e6-seed-{seed}")
      for name, spec, seed in (("generic-8", generic_spec(4), 2),
                               ("two-class-16", two_class_spec(16), 2),
                               ("generic-16", generic_spec(8), 29),
                               ("two-class-16", two_class_spec(16), 29))),
]


class TestRecursionBounds:
    """The element-wise preservation, commutation and drift of the
    recursion family, measured direction by direction, against the values
    the certificate reports, on pairs beyond the stacked-loop set: one
    class, the second triple scaled by 1e8, and cond(g1) = 1e6."""

    @pytest.mark.parametrize("make_pair, drift_within_rel", RECURSION_PAIRS)
    def test_directions_within_bounds(self, make_pair, drift_within_rel):
        assert_directions_within_bounds(make_pair(), drift_within_rel)


class TestGeneratorBackwardError:
    """The generators' backward error, formed densely with inv(Q) from the
    departure of J1 and omega2 from their canonical forms on the frame,
    within the ``max_commutator_residual`` the certificate reads off the
    frame certificate alone; and the retired action form of the same
    check within ``rel``, its old threshold, on these valid pairs."""

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3], ids=lambda s: (
        "plain" if s is None else f"cond-1e6-seed-{s}"))
    @pytest.mark.parametrize("dim", [8, 16, 24, 32])
    @pytest.mark.parametrize("spec", [lambda dim: generic_spec(dim // 2), two_class_spec],
                             ids=["generic", "two-class"])
    def test_dense_backward_error_within_the_reported_value(self, spec, dim, seed):
        p = (synthesize_pair(spec(dim), seed=dim) if seed is None
             else conditioned_pair(spec(dim), 1e3, seed=seed))
        d = decompose(p)
        cert = certify_recursion(recursion_basis(p), d)
        assert cert.commute
        assert loop_oracle.generator_backward_error(d) <= cert.max_commutator_residual
        assert loop_oracle.generator_action_residual(d) <= p.tol.rel


class TestAlgebraElements:
    """The per-element preservation check the certificate of the adapted
    frame replaced: wherever ``bi_preserving_algebra`` passes, every basis
    element preserves all four tensors within ``rel``."""

    @pytest.mark.parametrize("spec", COMPLEXIFIED)
    def test_complexified_pairs(self, spec):
        assert_algebra_elements_preserve(decompose(synthesize_pair(spec, seed=1)))

    @pytest.mark.parametrize("spec", SCALED)
    def test_second_triple_scaled_by_1e8(self, spec):
        assert_algebra_elements_preserve(decompose(scaled_pair(spec)))

    @pytest.mark.parametrize("spec", [generic_spec(4), two_class_spec(16)],
                             ids=["generic-8", "two-class-16"])
    def test_first_metric_of_condition_number_1e6(self, spec):
        # the certificate reads t1's g1-orthonormal frame; the elements
        # are orthonormalized in the original coordinates
        assert_algebra_elements_preserve(decompose(conditioned_pair(spec, 1e3, seed=2)))


FIXTURES = Path(__file__).parent / "fixtures"
# a tolerance no nonzero residual passes: every residual is then reported
STRICT = Tolerance(rel=1e-300, cluster_gap=1e-7)


def exact(items):
    """Key order and every float to the bit (NaN equal to NaN)."""
    return [(k, repr(float(v))) for k, v in items]


def fixture_triples(name):
    doc = json.loads((FIXTURES / name).read_text())
    return [(np.array(doc[g]), np.array(doc[w])) for g, w in (("g1", "omega1"), ("g2", "omega2"))
            if g in doc]


def synth_triples(spec, seed):
    p = synthesize_pair(spec, seed=seed)
    return [(p.t1.g.m, p.t1.omega.m), (p.t2.g.m, p.t2.omega.m)]


def scaled_triples(spec):
    p = synthesize_pair(spec, seed=3)
    return [(p.t1.g.m, p.t1.omega.m), (1e8 * p.t2.g.m, 1e8 * p.t2.omega.m)]


def mixed_triples():
    # the first triple of one synthesized pair, the second of another
    a, b = synth_triples(generic_spec(4), 1), synth_triples(generic_spec(4), 2)
    return [a[0], b[1]]


S_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])
DEGENERATE_OMEGA = np.kron(np.diag([1.0, 0.0]), S_BLOCK)
# inputs with two admissible triples
PAIR_SETS = (
    [pytest.param(lambda name=name: fixture_triples(name), id=name)
     for name in ("compatible_2d.json", "incompatible_2d.json", "reference_4d.json")]
    + [pytest.param(lambda d=d, f=f: synth_triples(f(d), d), id=f"{name}-{d}")
       for name, f in (("generic", lambda d: generic_spec(d // 2)), ("two-class", two_class_spec),
                       ("three-class", three_class_spec))
       for d in (8, 16, 24, 32, 48, 64)]
    + [pytest.param(lambda s=spec.values[0]: scaled_triples(s), id=f"{spec.id}-scaled-1e8")
       for spec in SCALED]
    + [pytest.param(mixed_triples, id="incompatible-8")]
)
TRIPLE_SETS = PAIR_SETS + [
    pytest.param(lambda: fixture_triples("single_2d.json"), id="single_2d.json"),
    pytest.param(lambda: [(np.eye(4), np.kron(np.eye(2), S_BLOCK)),
                          (np.eye(4), DEGENERATE_OMEGA)], id="degenerate-omega"),
]


@pytest.mark.parametrize("tol", [Tolerance(), STRICT], ids=["default", "strict"])
class TestPerCheckEqualsGrouped:
    """The admissibility residual, ``J_metric_invariance``, with its
    verdict, equals the per-check form's to the bit, at the default
    tolerance and at one that reports every residual; at the default
    tolerance the two J checks it retired pass their old thresholds
    wherever it passes.  The compatibility verdict equals that of the
    real-form checks the block suite replaced, the transfer identity g1 G
    = g2 among them: it is not judged, and holds at its old threshold on
    every pair the block suite accepts."""

    @pytest.mark.parametrize("make_triples", TRIPLE_SETS)
    def test_admissibility(self, make_triples, tol):
        for g, w in make_triples():
            # exactly symmetric inputs pass their symmetry checks at any
            # tolerance and reach the J check
            g, w = 0.5 * (g + g.T), 0.5 * (w - w.T)
            result = check_admissible(g, w, tol)
            try:
                residuals = loop_oracle.admissibility_residuals(g, w, tol)
            except StructureError as err:
                expected, residuals = {err.check: err.residual}, {}
            else:
                resid, thr = residuals["J_metric_invariance"]
                expected = {} if resid <= thr else {"J_metric_invariance": resid}
            if isinstance(result, AdmissibleTriple):
                assert expected == {}
                if tol != STRICT:
                    assert all(resid <= thr for resid, thr in residuals.values())
            else:
                assert exact((v.name, v.residual) for v in result.violations) == \
                    exact(expected.items())

    @pytest.mark.parametrize("make_triples", PAIR_SETS)
    def test_compatibility(self, make_triples, tol):
        # admissible at the default tolerance, checked for compatibility at tol
        triples = [check_admissible(g, w) for g, w in make_triples()]
        result = check_compatible(*triples, tol)
        certificates, _ = loop_oracle.compatibility_residuals(*triples, tol)
        assert isinstance(result, ViolationReport) == (certificates is None)
        if certificates is not None:
            assert "metric_transfer" not in result.certificates
            assert certificates["metric_transfer"] <= loop_oracle.threshold(
                tol, triples[0].g.m, result.metric_operator)


TAMPERED_SPECS = [pytest.param(spec, id=name) for name, spec in (
    ("generic-8", generic_spec(4)),
    ("two-class-16", two_class_spec(16)),
    ("spread-30-8", [(1.0, 1, 1), (30.0, -1, 1), (5.0, 1, 2)]),
)]


class TestBlockResidualsReadTheRealForm:
    """The block suite's residuals are the Frobenius norms of the real-form
    residuals it retires, on pairs made incompatible far above rounding
    (one triple moved by the congruence P = I + 1e-6 X, which keeps it
    admissible), in a basis of condition number 10: |[g2, J1]|_F and
    |[omega2, J1]|_F over lam_max, read off the anti-linear blocks, and
    |J2 + J2.T|_F, read off H, K and the anti-linear blocks with no solve,
    to first order in the latter: the second-order terms, G's largest
    eigenvalue against H's among them, stay below 1e-5 of each residual
    here (measured 6.4e-6 at most)."""

    @pytest.mark.parametrize("moved", ["1", "2"])
    @pytest.mark.parametrize("spec", TAMPERED_SPECS)
    def test_residuals_equal_real_form(self, spec, moved):
        p = synthesize_pair(spec, seed=2)
        rng = np.random.default_rng(7)
        doc = congruent(p, conditioned_basis(p.dim, 10.0, rng))
        move = np.eye(p.dim) + 1e-6 * rng.standard_normal((p.dim, p.dim))
        for name in (f"g{moved}", f"omega{moved}"):
            doc[name] = move.T @ doc[name] @ move
        triples = [check_admissible(doc[g], doc[w]) for g, w in (("g1", "omega1"),
                                                                  ("g2", "omega2"))]
        report = check_compatible(*triples, STRICT)
        got = {v.name: v.residual for v in report.violations}
        want = loop_oracle.compatibility_frobenius(*triples)
        assert list(got) == list(want)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-4)


@pytest.mark.parametrize("make_triples", TRIPLE_SETS)
def test_squared_plus_identity_within_invariance_and_skewness(make_triples):
    # J_w^2 + I = -(J_w.T J_w - I) + (J_w + J_w.T) J_w, and J_w is skew to
    # the rounding of forming it: J^2 = -I is the metric invariance
    for g, w in make_triples():
        g, w = 0.5 * (g + g.T), 0.5 * (w - w.T)
        try:
            residuals = loop_oracle.admissibility_residuals(g, w, Tolerance())
        except StructureError:
            continue
        square, invariance, skew = (residuals[name][0] for name in (
            "J_squared_plus_identity", "J_metric_invariance", "J_metric_skewness"))
        assert square <= invariance + skew * op_norm(loop_oracle.j_in_frame(g, w, Tolerance()))


def test_per_check_form_rejects_the_malformed_fixture_alike():
    # the fifth fixture has odd dimension: both forms refuse it the same way
    [(g, w)] = fixture_triples("malformed_dim3.json")
    with pytest.raises(ValueError) as grouped:
        check_admissible(g, w)
    with pytest.raises(ValueError) as per_check:
        loop_oracle.admissibility_violations(g, w, Tolerance())
    assert str(grouped.value) == str(per_check.value)


class TestFrameDeparture:
    """The lemma of the frame term, checked on frames of known departure."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("m", [4, 12])
    def test_bounds_the_frame_term(self, seed, m):
        rng = np.random.default_rng(seed)
        q = np.eye(m) + 1e-3 * rng.standard_normal((m, m))
        e = op_norm(q.T @ q - np.eye(m))
        p, r = rng.standard_normal((2, m, m))
        sym = p + p.T
        for left, conversion in ((p, m ** 1.5), (sym, float(m))):
            term = q @ (left @ (q.T @ q - np.eye(m)) @ r - r @ (q.T @ q - np.eye(m)) @ left) @ q.T
            a, b = q @ left @ q.T, q @ r @ q.T
            bound = loop_oracle.frame_departure(e, conversion, 1.0)
            assert op_norm(term) <= bound * op_norm(a) * op_norm(b)
            assert op_norm(term) <= loop_oracle.frame_departure(e, np.sqrt(m), 1.0) * (
                np.linalg.norm(a) * np.linalg.norm(b))

    @pytest.mark.parametrize("e", [1.0, 2.0, np.nan])
    def test_no_bound_off_a_frame(self, e):
        assert loop_oracle.frame_departure(e, 4.0, 1.0) == np.inf
