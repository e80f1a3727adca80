import math

import numpy as np
import pytest

from biham.compatibility import (
    CompatiblePair,
    check_compatible,
    pencil_member,
    positivity_range,
)
from biham.decomposition import decompose, synthesize_pair
from biham.linalg import DEFAULT_TOL, StructureError, commutator, eig_self_adjoint, op_norm
from biham.structures import ViolationReport, check_admissible
from conftest import conditioned_basis, congruent, generic_spec, standard_triple, whitened
from loop_oracle import (
    relation_residuals,
    retired_relation_violations,
    symplectic_invariance_violation,
)


class TestCheckCompatible:
    def test_reference_pair(self, ref2d_pair):
        p = ref2d_pair
        np.testing.assert_allclose(p.metric_operator, 2.0 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(p.recursion_operator, 2.0 * np.eye(2), atol=1e-12)
        assert max(p.certificates[k] for k in (
            "g2_J1_skew", "omega2_J1_symmetric", "g1_J2_skew",
            "omega1_J2_symmetric", "J1_J2_commutator")) <= 1e-12

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
        names = report.names
        assert "J1_J2_commutator" in names
        assert "g1_J2_skew" in names
        by_name = {v.name: v.residual for v in report.violations}
        # frozen values from direct evaluation of the two diagonal triples in
        # the g1-orthonormal frame W = diag(1, 1/2), where J2 reads
        # [[0, sqrt(3)/2], [-2/sqrt(3), 0]]
        root3 = math.sqrt(3.0)
        assert by_name["J1_J2_commutator"] == pytest.approx(root3 / 6.0, rel=1e-12)
        assert by_name["g1_J2_skew"] == pytest.approx(root3 / 6.0, rel=1e-12)

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


def tampered_documents():
    """Inputs near compatible pairs: generic, two- and three-class pairs of
    dims 4-16 and pairs whose eigenvalues spread from 1 to 1e3 and to 1e6
    (cond(G) up to 1e6), plain and after a ``conditioned_basis(dim, 1e3)``
    congruence, with g1, omega1, g2 and omega2 tampered singly and in
    pairs by s max|m| (X +- X.T), symmetric for a metric and skew for a
    form, at s from 1e-13 to 10**-9.5; no larger s leaves both triples
    admissible here."""
    for dim in (4, 8, 12, 16):
        n = dim // 2
        specs = (generic_spec(n), [(2.0, 1, n // 2), (3.0, -1, n - n // 2)],
                 [(1.5, 1, n - n // 2), (2.5, -1, 1), (4.0, 1, n // 2 - 1)],
                 *([(top ** (k / (n - 1)), (-1) ** k, 1) for k in range(n)]
                   for top in (1e3, 1e6)))
        for spec in specs:
            pair = synthesize_pair([c for c in spec if c[2]], seed=0)
            rng = np.random.default_rng(dim)
            for basis in (np.eye(dim), conditioned_basis(dim, 1e3, rng)):
                doc = congruent(pair, basis)
                for names in (("g1",), ("omega1",), ("g2",), ("omega2",), ("g1", "g2"),
                              ("omega1", "omega2"), ("g1", "omega2"), ("omega1", "g2")):
                    for s in np.logspace(-13, -9.5, 8):
                        tampered = dict(doc)
                        for name in names:
                            x = rng.standard_normal((dim, dim))
                            x = x + x.T if name.startswith("g") else x - x.T
                            tampered[name] = doc[name] + s * np.abs(doc[name]).max() * x
                        yield tampered


class TestRetiredChecks:
    """The relations ``check_admissible`` and ``check_compatible`` no
    longer judge follow from the checks they keep: no tampered input fails
    one of them and passes, at cond(G) up to 1e6 here."""

    def test_tampered_inputs_failing_a_retired_relation_are_refused(self):
        retired = {"admissibility": 0, "compatibility": 0}
        for doc in tampered_documents():
            triples = []
            for g, w in ((doc["g1"], doc["omega1"]), (doc["g2"], doc["omega2"])):
                t = check_admissible(g, w)
                try:
                    failed = symplectic_invariance_violation(g, w, DEFAULT_TOL)
                except StructureError:
                    # no J to judge: the metric or the form is refused as it is
                    failed = {}
                if failed:
                    retired["admissibility"] += 1
                    assert isinstance(t, ViolationReport) and "J_metric_invariance" in t.names
                triples.append(t)
            if any(isinstance(t, ViolationReport) for t in triples):
                continue
            failed = retired_relation_violations(*triples, DEFAULT_TOL)
            # None: refused before G is formed, with no relation to judge
            if failed:
                retired["compatibility"] += 1
                assert isinstance(check_compatible(*triples), ViolationReport), failed
        # the corpus reaches both kinds of failure
        assert min(retired.values()) > 0

    def test_pair_only_t_symmetry_refuses(self):
        # T's symmetry residual is [omega2, J1], omega2_J1_symmetric's, but
        # rel |T| is the tighter threshold: this tampered omega1 puts the
        # residual 1.6x above it and at 0.63x of rel |omega2| |J1|
        p = synthesize_pair([(2.0, 1, 2), (3.0, -1, 2)], seed=0)
        x = np.random.default_rng(4).standard_normal((8, 8))
        w1 = p.t1.omega.m + 10 ** -9.6 * np.abs(p.t1.omega.m).max() * (x - x.T)
        report = check_compatible(check_admissible(p.t1.g.m, w1), p.t2)
        assert isinstance(report, ViolationReport)
        assert report.names == ("T_selfadjoint_g1",)


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
