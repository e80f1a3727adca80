import math
import warnings

import numpy as np
import pytest

from biham.cli import InputDocument, analyze
from biham.compatibility import (
    CompatiblePair,
    check_compatible,
    pencil_member,
    positivity_range,
)
from biham.decomposition import DecompositionError, _realify, decompose, synthesize_pair
from biham.linalg import DEFAULT_TOL, StructureError, commutator, eig_self_adjoint, op_norm
from biham.structures import ViolationReport, check_admissible, form_pair
from conftest import (
    S_BLOCK,
    conditioned_basis,
    conditioned_pair,
    congruent,
    generic_spec,
    j_invariant_tensors,
    standard_triple,
    whitened,
)
import loop_oracle
from corpus import tampered_documents
from test_loop_oracle import three_class_spec, two_class_spec
from loop_oracle import (
    relation_residuals,
    retired_relation_violations,
)


class TestCheckCompatible:
    def test_reference_pair(self, ref2d_pair):
        p = ref2d_pair
        np.testing.assert_allclose(p.metric_operator, 2.0 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(p.recursion_operator, 2.0 * np.eye(2), atol=1e-12)
        assert max(p.certificates[k] for k in (
            "g2_J1_skew", "omega2_J1_symmetric", "g1_J2_skew")) <= 1e-12

    def test_self_compatibility(self):
        t = standard_triple(3)
        p = check_compatible(t, t)
        assert isinstance(p, CompatiblePair)
        np.testing.assert_allclose(p.metric_operator, np.eye(6), atol=1e-14)
        np.testing.assert_allclose(p.recursion_operator, np.eye(6), atol=1e-14)

    def test_mismatched_ratios_are_incompatible(self, incompatible_triples):
        t1, t2 = incompatible_triples
        report = check_compatible(t1, t2)
        assert isinstance(report, ViolationReport)
        # in two dimensions H and K are 1 x 1, so J2's fault is all in the
        # anti-linear blocks
        assert report.names == ("g2_J1_skew", "g1_J2_skew")
        by_name = {v.name: v.residual for v in report.violations}
        # frozen value from direct evaluation in the g1-orthonormal frame
        # W = diag(1, 1/2): G = diag(2, 3/2) and [G, J1] = [[0, 1/2], [1/2, 0]],
        # of Frobenius norm 1/sqrt(2), over max |mu| = sqrt(3), the modulus
        # of T_c = i K for omega2 = sqrt(3) J1 there (this far from
        # compatible, not H's eigenvalue (2 + 3/2) / 2)
        assert by_name["g2_J1_skew"] == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)

    S4 = np.kron(np.eye(2), S_BLOCK)

    @pytest.mark.parametrize("first, second, name, residual", [
        # g1 = 1e-300 I puts t1's frame at 1e150, where g2 = 1e10 I reads
        # 1e310 and overflows
        ((1e-300 * np.eye(4), 1e-300 * S4), (1e10 * np.eye(4), 1e10 * S4), "G_finite", math.inf),
        # metrics of condition number 1e6, each with complex structure S,
        # in unrelated bases: min |mu| is within rel of max |mu|
        (j_invariant_tensors(4, 1e3, 1), j_invariant_tensors(4, 1e3, 11),
         "G_positive_spectrum", 7.921e-6),
    ], ids=["G_finite", "G_positive_spectrum"])
    def test_g_refused_before_the_checks(self, first, second, name, residual):
        report = check_compatible(check_admissible(*first), check_admissible(*second))
        assert isinstance(report, ViolationReport)
        assert report.names == (name,)
        assert report.violations[0].residual == pytest.approx(residual, rel=1e-3)

    def test_verdict_is_symmetric(self, ref2d_pair, incompatible_triples):
        assert isinstance(check_compatible(ref2d_pair.t2, ref2d_pair.t1),
                          CompatiblePair)
        t1, t2 = incompatible_triples
        assert isinstance(check_compatible(t2, t1), ViolationReport)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_compatible(standard_triple(1), standard_triple(2))

    def test_metric_operator_spectrum_positive(self, ref4d_pair):
        evals, _ = eig_self_adjoint(whitened(ref4d_pair.metric_operator, ref4d_pair))
        assert evals[0] > 0
        np.testing.assert_allclose(evals, [2.0, 2.0, 3.0, 3.0], atol=1e-12)

    def test_recursion_eigenvalues_are_signed_metric_eigenvalues(self, ref4d_pair):
        p = ref4d_pair
        t_evals, _ = eig_self_adjoint(whitened(p.recursion_operator, p))
        np.testing.assert_allclose(t_evals, [-3.0, -3.0, 2.0, 2.0], atol=1e-12)
        g_evals, _ = eig_self_adjoint(whitened(p.metric_operator, p))
        np.testing.assert_allclose(np.sort(np.abs(t_evals)), g_evals, atol=1e-12)

    def test_squares_agree(self, ref4d_pair):
        p = ref4d_pair
        gsq = p.metric_operator @ p.metric_operator
        tsq = p.recursion_operator @ p.recursion_operator
        assert op_norm(tsq - gsq) <= 1e-9 * op_norm(gsq)

    def test_synthesized_pairs_always_compatible(self):
        for seed in range(5):
            p = synthesize_pair([(1.5, 1, 1), (4.0, -1, 2)], seed=seed)
            assert isinstance(p, CompatiblePair)
            q = check_compatible(p.t2, p.t1)
            assert isinstance(q, CompatiblePair)


class TestBasisInvariance:
    """A family where ``g1_J2_skew`` is the only failing check: g1 = I, J1
    the standard form, g2 and omega2 the real images of H and H^1/2 (-i S)
    H^1/2, H = diag(lambda) + s X with X Hermitian of unit spectral norm,
    so both are J1-invariant, J2^2 = -I, and J2 is g1-skew only at s = 0.
    Thirty orthogonal congruences of it get one verdict, and one reading,
    at 0.8x and 1.25x of the boundary, which lies between s = 1.48e-9 and
    1.5e-9.  The Frobenius norms make the verdict basis-invariant; the
    row-sum norms once split rotated copies of a like pair over a band of
    perturbations about 30% wide."""

    LAM = np.repeat([1.5, 2.5, 4.0], [6, 6, 4])
    SIGN = np.repeat([1, -1, 1], [6, 6, 4])

    def documents(self, s):
        a = np.random.default_rng(0).standard_normal((2, 16, 16))
        x = a[0] + 1j * a[1]
        x = x + x.conj().T
        h = np.diag(self.LAM) + s * x / np.linalg.norm(x, 2)
        w, u = np.linalg.eigh(h)
        root = (u * np.sqrt(w)) @ u.conj().T
        tensors = (np.eye(32), _realify(1j * np.eye(16)), _realify(h),
                   _realify(root @ np.diag(-1j * self.SIGN) @ root))
        for k in range(30):
            q, _ = np.linalg.qr(np.random.default_rng(100 + k).standard_normal((32, 32)))
            yield InputDocument(32, *(q.T @ m @ q for m in tensors), DEFAULT_TOL)

    @pytest.mark.parametrize("s, code", [(1.2e-9, 0), (1.85e-9, 1)])
    def test_rotated_copies_agree(self, s, code):
        reports = [analyze(doc) for doc in self.documents(s)]
        assert {c for _, c in reports} == {code}
        compat = [r["residuals"]["compatibility"] for r, _ in reports]
        if code:
            assert {tuple(c) for c in compat} == {("g1_J2_skew",)}
        readings = np.array([c["g1_J2_skew"] for c in compat])
        assert readings.max() <= (1.0 + 1e-4) * readings.min()


class TestRelationSuite:
    """Every relation a compatible pair satisfies, measured on its own
    (``loop_oracle.relation_residuals``); ``check_compatible`` judges the
    four conditions and the checks they do not imply, and ``decompose``
    certifies the rest block by block."""

    def test_reference_2d(self, ref2d_pair):
        suite = relation_residuals(ref2d_pair)
        assert max(suite.values()) <= 1e-12

    def test_reference_4d(self, ref4d_pair):
        suite = relation_residuals(ref4d_pair)
        assert max(suite.values()) <= 1e-12

    def test_identity_pair(self):
        t = standard_triple(2)
        suite = relation_residuals(check_compatible(t, t))
        assert max(suite.values()) <= 1e-14

    def test_synthesized(self):
        p = synthesize_pair([(2.0, 1, 2), (5.0, -1, 1)], seed=3)
        suite = relation_residuals(p)
        assert max(suite.values()) <= 1e-10

    @pytest.mark.parametrize("scale", [1e8, 1e-8])
    def test_every_residual_is_relative(self, ref4d_pair, scale):
        # the reference pair in a random orthonormal basis, where its
        # products round, with the second triple rescaled
        rotation = conditioned_basis(4, 1.0, np.random.default_rng(3))
        doc = congruent(ref4d_pair, rotation, c2=scale)
        p = check_compatible(check_admissible(doc["g1"], doc["omega1"]),
                             check_admissible(doc["g2"], doc["omega2"]))
        suite = relation_residuals(p)
        assert max(suite.values()) <= p.tol.rel


def block_suite_refuses(t1, t2):
    """Whether ``check_compatible`` or ``decompose`` refuses the pair; the
    decomposition, when there is one, else ``None``."""
    pair = check_compatible(t1, t2)
    if isinstance(pair, ViolationReport):
        return True, None
    try:
        return False, decompose(pair)
    except DecompositionError:
        return True, None


def retired_block_violations(d):
    """Whether a decomposition fails a real-form per-block or cross-block
    check of the loop oracle at its row-sum threshold."""
    p = d.pair
    per_block, cross = loop_oracle.decomposition_residuals(d)
    norms = [op_norm(p.metric_operator_w), op_norm(p.omega2_w), op_norm(p.t1.j_w)]
    return (not (per_block <= p.tol.rel * np.array(norms)).all()
            or any(not value <= p.tol.rel * norms[0] for value in cross.values()))


class TestRetiredChecks:
    """The relations and checks ``check_admissible``, ``check_compatible``
    and ``decompose`` no longer judge follow from the checks they keep: no
    tampered input fails one of them and passes, at cond(G) up to 1e6
    here."""

    def test_tampered_inputs_failing_a_retired_relation_are_refused(self):
        retired = {"admissibility": 0, "J_squared_plus_identity": 0, "compatibility": 0,
                   "real_form": 0}
        for doc in tampered_documents():
            triples = []
            for g, w in ((doc["g1"], doc["omega1"]), (doc["g2"], doc["omega2"])):
                t = check_admissible(g, w)
                try:
                    # the J checks check_admissible implies, at their old
                    # thresholds
                    failed = loop_oracle.admissibility_violations(g, w, DEFAULT_TOL)
                    failed.pop("J_metric_invariance", None)
                except StructureError:
                    # no J to judge: the metric or the form is refused as it is
                    failed = {}
                if failed:
                    retired["admissibility"] += 1
                    retired["J_squared_plus_identity"] += "J_squared_plus_identity" in failed
                    assert isinstance(t, ViolationReport) and t.names == ("J_metric_invariance",)
                triples.append(t)
            if any(isinstance(t, ViolationReport) for t in triples):
                continue
            refused, d = block_suite_refuses(*triples)
            failed = retired_relation_violations(*triples, DEFAULT_TOL)
            # None: refused before G is formed, with no relation to judge
            if failed:
                retired["compatibility"] += 1
                assert refused, failed
            # the real-form checks the block suite replaced, at their old
            # row-sum thresholds: compatibility's, then decompose's
            _, violations = loop_oracle.compatibility_residuals(*triples, DEFAULT_TOL)
            if violations or (d is not None and retired_block_violations(d)):
                retired["real_form"] += 1
                assert refused, violations
        # the corpus reaches every kind of failure
        assert min(retired.values()) > 0

    def test_block_faults_failing_a_retired_check_are_refused(self):
        # faults that commute with J1, so check_compatible's J1 checks pass
        # them, of eps max |mu| in t1's frame: g2 or omega2 on a block, a
        # Hermitian g2 within a block of rank 2 or more, g2 across two
        # blocks.  Wherever a sub-block check of E or R that decompose
        # retired fails, decompose's J2 check refuses the pair, or else its
        # frame certificate exceeds rel
        retired = {"failed": 0, "J2 = sign * J1": 0}
        for spec in (generic_spec(4), two_class_spec(8), three_class_spec(12),
                     two_class_spec(16)):
            for cond in (1.0, 1e3):
                p = conditioned_pair(spec, cond, seed=1)
                frame_inv, scale = p.t1.g.frame_inv, p.metric_eigenvalues[-1]
                for g2, w2 in block_faults(decompose(p), np.random.default_rng(0)):
                    for eps in np.logspace(-11, -7.5, 8):
                        g2_w, w2_w = p.metric_operator_w + eps * scale * g2, \
                            p.omega2_w + eps * scale * w2
                        q = check_compatible(p.t1, form_pair(frame_inv.T @ g2_w @ frame_inv,
                                                             frame_inv.T @ w2_w @ frame_inv))
                        if isinstance(q, ViolationReport):
                            continue
                        per_block, cross = loop_oracle.coordinate_block_norms(q)
                        if (per_block <= q.tol.rel).all() and \
                                all(v <= q.tol.rel for v in cross.values()):
                            continue
                        retired["failed"] += 1
                        try:
                            d = decompose(q)
                        except DecompositionError as err:
                            retired["J2 = sign * J1"] += str(err).startswith("J2 = sign * J1")
                            continue
                        assert d.frame_certificate[0] > q.tol.rel, (spec, cond, eps)
        assert min(retired.values()) > 0

    def test_pair_only_t_symmetry_refuses(self):
        # T's symmetry residual is [omega2, J1], omega2_J1_symmetric's; in
        # row-sum norms rel |T| was the tighter threshold, and this tampered
        # omega1 put it 1.6x above that and at 0.63x of rel |omega2| |J1|.
        # In the Frobenius norm, over the spectral |omega2| |J1|, the two
        # thresholds agree, and the one check refuses it
        p = synthesize_pair([(2.0, 1, 2), (3.0, -1, 2)], seed=0)
        x = np.random.default_rng(4).standard_normal((8, 8))
        w1 = p.t1.omega.m + 10 ** -9.6 * np.abs(p.t1.omega.m).max() * (x - x.T)
        report = check_compatible(check_admissible(p.t1.g.m, w1), p.t2)
        assert isinstance(report, ViolationReport)
        assert report.names == ("omega2_J1_symmetric",)


def block_faults(d, rng):
    """Unit faults of (g2, omega2) in t1's frame that commute with J1, on
    the largest block of ``d`` (B = [C, D], J1 B = B J_c) and across its
    first two: B B.T on g2, B J_c B.T on omega2, a realified Hermitian
    B H B.T on g2 where the block has rank 2 or more, and the first
    coordinate's [C, D] of one block against the other's on g2."""
    bases = [b.basis_w for b in d.blocks]
    ranks = [b.dim // 2 for b in d.blocks]
    b, r = bases[int(np.argmax(ranks))], max(ranks)
    zero = np.zeros((d.pair.dim,) * 2)
    yield b @ b.T, zero
    yield zero, b @ np.kron(S_BLOCK.T, np.eye(r)) @ b.T
    if r > 1:
        a, s = rng.standard_normal((2, r, r))
        h = np.block([[a + a.T, s.T - s], [s - s.T, a + a.T]])
        yield b @ h @ b.T / np.linalg.norm(h, 2), zero
    first, second = [x[:, [0, x.shape[1] // 2]] for x in bases[:2]]
    yield first @ second.T + second @ first.T, zero


class TestPencil:
    def test_gamma_zero_recovers_first_triple(self, ref4d_pair):
        member = pencil_member(decompose(ref4d_pair), 0.0)
        np.testing.assert_array_equal(member.g, ref4d_pair.t1.g.m)
        np.testing.assert_array_equal(member.omega, ref4d_pair.t1.omega.m)
        assert member.admissible
        assert all(v.admissible for v in member.blocks)

    def test_positive_block_scales_without_breaking(self, ref2d_pair):
        member = pencil_member(decompose(ref2d_pair), 1.0)
        np.testing.assert_allclose(member.g, np.diag([3.0, 12.0]), atol=1e-12)
        np.testing.assert_allclose(member.omega, [[0.0, 6.0], [-6.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(member.j, ref2d_pair.t1.j, atol=1e-12)
        assert member.admissible

    def test_negative_block_obstruction(self, ref4d_pair):
        member = pencil_member(decompose(ref4d_pair), 1.0)
        assert not member.admissible
        first, second = member.blocks
        assert first.sign == 1 and first.admissible
        assert first.jsq_coefficient == pytest.approx(-1.0, abs=1e-12)
        # scaling law (1 - 3)/(1 + 3) = -1/2, squared: -1/4
        assert second.sign == -1 and not second.admissible
        assert second.jsq_coefficient == pytest.approx(-0.25, abs=1e-12)
        assert second.residual <= 1e-12

    def test_members_commute_on_admissible_blocks(self, ref4d_pair):
        m1 = pencil_member(decompose(ref4d_pair), 0.5)
        m2 = pencil_member(decompose(ref4d_pair), 2.0)
        for block in decompose(ref4d_pair).blocks:
            b = block.basis
            j1 = np.linalg.solve(b.T @ m1.g @ b, b.T @ m1.omega @ b)
            j2 = np.linalg.solve(b.T @ m2.g @ b, b.T @ m2.omega @ b)
            assert op_norm(commutator(j1, j2)) <= 1e-12

    def test_out_of_range_gamma_rejected(self, ref4d_pair):
        with pytest.raises(StructureError):
            pencil_member(decompose(ref4d_pair), -0.5)  # below -1/3

    def test_infinite_gamma_rejected(self, ref4d_pair):
        with pytest.raises(ValueError):
            pencil_member(decompose(ref4d_pair), math.inf)

    def test_extreme_gamma_member_stays_finite(self, ref4d_pair):
        # the pair of tests/fixtures/reference_4d.json: J_c once solved
        # (I + gamma G) X = J1 + gamma omega2 unscaled, which overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            member = pencil_member(decompose(ref4d_pair), 1e308)
            j = member.j
        assert member.admissible
        # J_c tends to J2 as gamma grows
        np.testing.assert_allclose(j, ref4d_pair.t2.j, atol=1e-12)

    def test_extreme_negative_gamma_refused_with_finite_eigenvalue(self, ref4d_pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructureError) as info:
                pencil_member(decompose(ref4d_pair), -1e308)
        # 1 / c - 3 over c = 1e308, the eigenvalue of g_c relative to c g1,
        # with G's largest eigenvalue 3 as read off J1's complex coordinates
        assert info.value.residual == -ref4d_pair.metric_eigenvalues[-1]
        assert "min eigenvalue -3.000e+00 relative to 1.000e+308 g1" in str(info.value)


class TestPositivityRange:
    def test_reference_2d(self, ref2d_pair):
        lo, hi = positivity_range(ref2d_pair)
        assert lo == pytest.approx(-0.5, abs=1e-12)
        assert hi == math.inf

    def test_identity_pair(self):
        t = standard_triple(2)
        lo, hi = positivity_range(check_compatible(t, t))
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == math.inf

    def test_reference_4d(self, ref4d_pair):
        lo, _ = positivity_range(ref4d_pair)
        assert lo == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_boundary_behavior(self, ref4d_pair):
        lo, _ = positivity_range(ref4d_pair)
        assert pencil_member(decompose(ref4d_pair), lo + 1e-3)  # just inside: fine
        with pytest.raises(StructureError):
            pencil_member(decompose(ref4d_pair), lo - 1e-3)
