
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biham.cli import InputDocument, analyze
from biham.compatibility import check_compatible, pencil_member
from biham.decomposition import (
    DecompositionError,
    canonical_basis,
    decompose,
    group_signature,
    is_generic,
    synthesize_pair,
)
from biham.dynamics import bi_preserving_algebra, certify_recursion, recursion_basis
from biham.linalg import Tolerance, op_norm, same_cluster
from biham.structures import check_admissible
from conftest import (
    same_sign_chain_document,
    spectrum_document,
    standard_triple,
    within_gap_chain_document,
)
import loop_oracle


def block_data(decomposition):
    return [(b.eigenvalue, b.sign, b.dim) for b in decomposition.blocks]


class TestDecompose:
    def test_reference_4d(self, ref4d_pair):
        d = decompose(ref4d_pair)
        data = block_data(d)
        assert len(data) == 2
        assert data[0] == (pytest.approx(2.0, abs=1e-12), 1, 2)
        assert data[1] == (pytest.approx(3.0, abs=1e-12), -1, 2)

    def test_identity_pair_single_block(self):
        t = standard_triple(2)
        d = decompose(check_compatible(t, t))
        assert block_data(d) == [(pytest.approx(1.0), 1, 4)]

    def test_reference_2d(self, ref2d_pair):
        d = decompose(ref2d_pair)
        assert block_data(d) == [(pytest.approx(2.0), 1, 2)]

    def test_equal_eigenvalue_opposite_signs_ordering(self):
        p = synthesize_pair([(2.0, -1, 1), (2.0, 1, 1)], seed=0)
        d = decompose(p)
        data = block_data(d)
        assert data[0][1] == 1 and data[1][1] == -1  # plus comes first
        assert data[0][0] == pytest.approx(2.0, rel=1e-9)

    def test_block_bases_are_g1_orthonormal_eigenvectors(self, ref4d_pair):
        p = ref4d_pair
        d = decompose(p)
        for b in d.blocks:
            c = b.basis
            np.testing.assert_allclose(c.T @ p.t1.g.m @ c, np.eye(b.dim), atol=1e-12)
            assert op_norm(p.metric_operator @ c - b.eigenvalue * c) <= 1e-9
            assert op_norm(p.recursion_operator @ c
                           - b.sign * b.eigenvalue * c) <= 1e-9

    def test_cross_block_biorthogonality(self):
        p = synthesize_pair([(1.0, 1, 2), (2.5, 1, 1), (2.5, -1, 1)], seed=5)
        d = decompose(p)
        for i in range(len(d.blocks)):
            for k in range(i + 1, len(d.blocks)):
                for g in (p.t1.g.m, p.t2.g.m):
                    assert op_norm(d.blocks[i].basis.T @ g @ d.blocks[k].basis) <= 1e-9

    def test_per_block_proportionality(self):
        p = synthesize_pair([(0.5, 1, 1), (3.0, -1, 2)], seed=9)
        g1, w1 = p.t1.g.m, p.t1.omega.m
        g2, w2 = p.t2.g.m, p.t2.omega.m
        for b in decompose(p).blocks:
            c = b.basis
            lam, sign = b.eigenvalue, b.sign
            assert op_norm(c.T @ g2 @ c - lam * (c.T @ g1 @ c)) <= 1e-9 * op_norm(g2)
            assert op_norm(c.T @ w2 @ c - sign * lam * (c.T @ w1 @ c)) <= 1e-9 * op_norm(w2)
            assert op_norm(p.t2.j @ c - sign * (p.t1.j @ c)) <= 1e-9


class TestDecomposeFaults:
    """Each fault of g2 or omega2 on the blocks, tampered with in t1's
    g1-orthonormal frame, fails :func:`decompose`'s one check, J2 = sign *
    J1, which names the first block it fails on; the frame certificate
    exceeds ``rel`` on it, and the sub-block checks of E and R that
    ``decompose`` retired (``loop_oracle.coordinate_block_norms``) see it
    at its block or pair of blocks alone.

    Blocks (ascending): 0 = (1, +), 1 = (2, -), 2 = (3, +).  Every fault is
    confined to the span of the named blocks, of size EPS, far above the
    threshold rule's 1e-9 and far below the cluster gap: EPS / 3 over max
    |mu| = 3 in E or R, and in Y times max |mu| / |mu| of the row's
    coordinate.  ``decompose`` reads the residual Y that
    ``check_compatible`` formed, formed again here from the tampered real
    matrices (``loop_oracle.with_forms``).
    """

    EPS = 1e-5
    SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])

    @pytest.fixture
    def pair(self):
        return synthesize_pair([(1.0, 1, 1), (2.0, -1, 1), (3.0, 1, 1)], seed=4)

    @staticmethod
    def bases(pair):
        return [b.basis_w for b in decompose(pair).blocks]

    @staticmethod
    def tampered(pair, g2=None, omega2=None):
        """The pair with g2 or omega2 in t1's frame moved by the given
        matrix, and the residual ``decompose`` reads formed again."""
        return loop_oracle.with_forms(pair, pair.metric_operator_w + (0 if g2 is None else g2),
                                      pair.omega2_w + (0 if omega2 is None else omega2))

    def assert_refused(self, pair, tampered, message, seen):
        """``decompose`` refuses with ``message``, the frame certificate
        exceeds rel, and the retired checks fail at ``seen`` alone, with
        EPS / 3: (block, "E") or (block, "R") on a block, or the pair (i,
        k) of blocks for E across."""
        with pytest.raises(DecompositionError, match=message):
            decompose(tampered)
        assert decompose(pair).replace(pair=tampered).frame_certificate[0] > pair.tol.rel
        per_block, cross = loop_oracle.coordinate_block_norms(tampered)
        norms = {**{(b, check): value for b, row in enumerate(per_block)
                    for check, value in zip("ER", row)}, **cross}
        assert [key for key, value in norms.items() if value > pair.tol.rel] == [seen]
        assert norms[seen] == pytest.approx(self.EPS / 3.0, rel=1e-6)

    def test_g2_proportionality(self, pair):
        b = self.bases(pair)[1]
        self.assert_refused(pair, self.tampered(pair, g2=self.EPS * (b @ b.T)),
                            r"J2 = sign \* J1 fails on block \(lambda=2, sign=-1\) "
                            r"with residual 5\.0\d*e-06", (1, "E"))

    def test_omega2_proportionality(self, pair):
        # T_c = i K keeps K's anti-Hermitian part only: a symmetric part of
        # omega2, a Hermitian part of K, is what the retired R check saw
        b = self.bases(pair)[1]
        self.assert_refused(pair, self.tampered(pair, omega2=self.EPS * (b @ b.T)),
                            r"J2 = sign \* J1 fails on block \(lambda=2, sign=-1\) "
                            r"with residual 5\.0\d*e-06", (1, "R"))

    def test_j2_equals_sign_j1(self):
        # J2 is judged against each coordinate's own |mu|: a g2 fault within
        # rel lambda_max = 3e-9 passes the g2 check, but is 1e-7 relative to
        # the block of lambda 0.01
        pair = synthesize_pair([(0.01, 1, 1), (2.0, -1, 1), (3.0, 1, 1)], seed=4)
        b = self.bases(pair)[0]
        tampered = self.tampered(pair, g2=1e-9 * (b @ b.T))
        with pytest.raises(DecompositionError,
                           match=r"J2 = sign \* J1 fails on block \(lambda=0.01, sign=\+1\)"):
            decompose(tampered)

    def test_g2_orthogonality(self, pair):
        # E is Hermitian: the fault is in the columns of both blocks, and
        # block 1's (its rows block 2's, of |mu| = max |mu|) fail first
        b = self.bases(pair)
        self.assert_refused(pair, self.tampered(pair, g2=self.EPS * (b[1] @ b[2].T
                                                                     + b[2] @ b[1].T)),
                            r"J2 = sign \* J1 fails on block \(lambda=2, sign=-1\) "
                            r"with residual 3\.33\d*e-06", (1, 2))


class TestIsGeneric:
    def test_reference_4d_is_generic(self, ref4d_pair):
        assert is_generic(decompose(ref4d_pair))

    def test_identity_pair_is_not(self):
        t = standard_triple(2)
        assert not is_generic(decompose(check_compatible(t, t)))

    def test_2d_always_generic(self, ref2d_pair):
        assert is_generic(decompose(ref2d_pair))


class TestCanonicalBasis:
    def test_standard_identity_pair(self):
        t = standard_triple(1)
        p = check_compatible(t, t)
        frame = canonical_basis(decompose(p).blocks[0])
        np.testing.assert_allclose(np.abs(frame.e1), [1.0, 0.0], atol=1e-12)
        # e2 = J1 e1 by definition, which rotates e1 by a quarter turn
        np.testing.assert_allclose(frame.e2, t.j @ frame.e1, atol=1e-12)
        assert frame.eigenvalue == pytest.approx(1.0)
        assert frame.metric_ratio == pytest.approx(1.0)

    def test_weighted_pair_frame(self, ref2d_pair):
        p = ref2d_pair
        frame = canonical_basis(decompose(p).blocks[0])
        g1 = p.t1.g.m
        len1 = frame.e1 @ g1 @ frame.e1
        assert len1 == pytest.approx(1.0, abs=1e-12)
        assert frame.e2 @ g1 @ frame.e2 == pytest.approx(1.0, abs=1e-12)
        assert frame.e1 @ g1 @ frame.e2 == pytest.approx(0.0, abs=1e-12)
        # orientation: omega1(e1, e2) = -g1(e1, e1)
        assert frame.e1 @ p.t1.omega.m @ frame.e2 == pytest.approx(-1.0, abs=1e-12)
        assert frame.metric_ratio == pytest.approx(2.0, abs=1e-12)
        # with e1 = (1, 0) the partner is J1 e1 = (0, -1/2)
        if frame.e1[0] > 0:
            np.testing.assert_allclose(frame.e2, [0.0, -0.5], atol=1e-12)

    def test_opposite_sign_block(self, ref4d_pair):
        p = ref4d_pair
        blocks = decompose(p).blocks
        frame = canonical_basis(blocks[1])
        assert blocks[1].sign == -1
        np.testing.assert_allclose(p.t2.j @ frame.e1, -(p.t1.j @ frame.e1),
                                   atol=1e-12)

    def test_reads_each_block_off_its_own_pair(self):
        # no pair is passed: the frame and the metric ratio are those of
        # ``b.pair``, block by block
        p = synthesize_pair([(1.5, 1, 1), (2.5, -1, 1), (4.0, 1, 1)], seed=7)
        for b in decompose(p).blocks:
            assert b.pair is p
            frame = canonical_basis(b)
            assert frame.e1 @ p.t1.g.m @ frame.e1 == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(frame.e2, p.t1.j @ frame.e1, atol=1e-12)
            np.testing.assert_allclose(p.t2.j @ frame.e1, b.sign * frame.e2, atol=1e-10)
            assert frame.metric_ratio == pytest.approx(b.eigenvalue, rel=1e-10)

    def test_rejects_big_block(self):
        t = standard_triple(2)
        p = check_compatible(t, t)
        with pytest.raises(ValueError):
            canonical_basis(decompose(p).blocks[0])


def assert_one_block_per_class(d):
    """Every block is a whole (lambda, sign) class, and the group signature
    has one U(r) factor per block."""
    classes = [(b.eigenvalue, b.sign) for b in d.blocks]
    assert len(set(classes)) == len(classes)
    assert group_signature(d).multiplicities == tuple(b.dim // 2 for b in d.blocks)


def analyze_document(doc):
    return analyze(InputDocument(doc["dim"], doc["g1"], doc["omega1"],
                                 doc["g2"], doc["omega2"], Tolerance()))


class TestSameSignChain:
    """A G cluster within the gap, lambda = 1, 1 + 0.45e-7, 1 + 0.9e-7 with
    signs +, -, +, is one (lambda, sign) class per sign: a U(2) block and a
    U(1) block beside lambda = 3's, and an algebra of dimension 4 + 1 + 1.
    Judged against the cluster mean at rel |G|, the spread of 4.5e-8 once
    failed "g2 proportional to g1" beside lambda = 3."""

    @pytest.mark.parametrize("seed", range(20))
    def test_one_block_per_class(self, seed):
        doc = within_gap_chain_document(seed)
        p = check_compatible(check_admissible(doc["g1"], doc["omega1"]),
                             check_admissible(doc["g2"], doc["omega2"]))
        d = decompose(p)
        assert [(b.sign, b.dim) for b in d.blocks] == [(1, 4), (-1, 2), (1, 2)]
        assert_one_block_per_class(d)
        assert group_signature(d).complex_form == "U(2)×U(1)×U(1)"
        assert bi_preserving_algebra(d).dim == 6
        assert certify_recursion(d).vandermonde_consistent


class TestWideChain:
    """lambda = 1, 1 + 0.9e-7, 1 + 1.8e-7 chain in steps within the gap into
    one cluster of spread 1.8e-7, wider than the gap: ``decompose`` refuses
    it by name, whatever the unrelated fourth eigenvalue, and no later
    stage runs.  The transfer operator once refused it beside 1000 while
    ``decompose`` refused it beside 3, each by its own rule."""

    @pytest.mark.parametrize("lam4", [3.0, 1000.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_refused_by_decompose(self, lam4, seed):
        report, code = analyze_document(same_sign_chain_document(seed, lam4))
        assert code == 1
        assert report["compatible"] is True
        assert report["blocks"] is None
        assert report["recursion"] is None and report["algebra_dim"] is None
        assert "operator" not in report["residuals"]
        assert report["residuals"]["pipeline_error"] == (
            "cluster width fails: eigenvalues 1 .. 1.00000018 of G chain into one "
            "cluster of spread 1.800e-07, wider than cluster_gap 1e-07; give a "
            "smaller cluster_gap")


CLOSE_EIGENVALUES = [
    pytest.param(delta, signs, seed,
                 id=f"delta={delta:g}-{''.join('+-'[s < 0] for s in signs)}-{seed}")
    for delta in (5e-9, 5e-8)
    for signs in ((1, 1, -1, 1), (1, -1, -1, 1))
    for seed in range(10)
]


class TestCloseEigenvalues:
    """lambda = 1, 1 + delta closer than the gap: one cluster, judged once,
    by ``decompose``.  The verdict on it does not depend on the unrelated
    fourth eigenvalue.  Judged against the cluster mean at rel |G|, every
    lambda4 = 5 document once exited 1 while lambda4 = 1000 passed."""

    @pytest.mark.parametrize("delta, signs, seed", CLOSE_EIGENVALUES)
    def test_verdict_does_not_depend_on_an_unrelated_block(self, delta, signs, seed):
        summaries = []
        for lam4 in (5.0, 1000.0):
            report, code = analyze_document(
                spectrum_document([1.0, 1.0 + delta, 3.0, lam4], signs, seed))
            assert code == 0, report["residuals"].get("pipeline_error")
            rec, op = report["recursion"], report["residuals"]["operator"]
            summaries.append(([(b["sign"], b["dim"]) for b in report["blocks"]],
                              report["algebra_dim"], rec["rank"], rec["vandermonde_consistent"],
                              op["commutant_dim"], op["bicommutant_dim"]))
        assert summaries[0] == summaries[1]
        blocks = summaries[0][0]
        assert summaries[0][1:] == (sum((dim // 2) ** 2 for _, dim in blocks), len(blocks),
                                    True, 6, 3)


NEAR_DEGENERATE = [
    pytest.param(lam4, delta, signs, seed,
                 id=f"lambda4={lam4:g}-delta={delta:g}-{''.join('+-'[s < 0] for s in signs)}-{seed}")
    for lam4, deltas, seeds in ((5.0, (2e-7, 5e-7, 1e-6), range(20)),
                                (1000.0, (1e-5, 1e-4), range(10)))
    for delta in deltas
    for signs in ((1, 1, -1, 1), (1, -1, -1, 1))
    for seed in seeds
]


class TestNearDegenerateSpectrum:
    """Two eigenvalues 2e-7 to 1e-4 apart (relative), farther than the
    cluster gap: four (lambda, sign) classes.  G's eigenvectors are fixed
    only to about eps |G| / delta there (Davis & Kahan 1970), so a frame
    read off them was not J1-invariant to ``rel`` and these valid pairs
    exited 1; J1's complex coordinates do not depend on delta."""

    @pytest.mark.parametrize("lam4, delta, signs, seed", NEAR_DEGENERATE)
    def test_four_classes_certified(self, lam4, delta, signs, seed):
        doc = spectrum_document([1.0, 1.0 + delta, 3.0, lam4], signs, seed)
        report, code = analyze_document(doc)
        assert code == 0
        assert len({(b["lambda"], b["sign"]) for b in report["blocks"]}) == 4
        assert report["algebra_dim"] == 4
        assert report["recursion"]["vandermonde_consistent"] is True
        p = check_compatible(check_admissible(doc["g1"], doc["omega1"]),
                             check_admissible(doc["g2"], doc["omega2"]))
        assert decompose(p).frame_certificate[0] <= 1e-12


class TestGroupSignature:
    def test_generic_4d(self, ref4d_pair):
        sig = group_signature(decompose(ref4d_pair))
        assert sig.multiplicities == (1, 1)
        assert sig.complex_form == "U(1)×U(1)"
        assert sig.real_form == "SO(2)×SO(2)"

    def test_identity_pair_full_group(self):
        t = standard_triple(3)
        sig = group_signature(decompose(check_compatible(t, t)))
        assert sig.multiplicities == (3,)
        assert sig.complex_form == "U(3)"
        assert sig.real_form == "U_r(6;g,ω)"

    def test_mixed_ranks(self):
        p = synthesize_pair([(2.0, 1, 2), (5.0, -1, 1)], seed=21)
        sig = group_signature(decompose(p))
        assert sorted(sig.multiplicities) == [1, 2]
        assert sig.complex_form == "U(2)×U(1)"

    def test_rank_sums_to_half_dimension(self):
        p = synthesize_pair([(1.0, 1, 2), (2.0, -1, 3), (7.0, 1, 1)], seed=2)
        sig = group_signature(decompose(p))
        assert sig.rank == p.dim // 2


class TestSynthesizePair:
    def test_round_trip_two_blocks(self):
        p = synthesize_pair([(2.0, 1, 1), (3.0, -1, 1)], seed=42)
        data = block_data(decompose(p))
        assert data[0] == (pytest.approx(2.0, rel=1e-9), 1, 2)
        assert data[1] == (pytest.approx(3.0, rel=1e-9), -1, 2)

    def test_round_trip_multiplicity(self):
        p = synthesize_pair([(2.0, 1, 2)], seed=7)
        sig = group_signature(decompose(p))
        assert sig.multiplicities == (2,)
        assert sig.complex_form == "U(2)"

    def test_trivial_spec_keeps_triples_equivalent(self):
        p = synthesize_pair([(1.0, 1, 3)], seed=1)
        d = decompose(p)
        assert block_data(d) == [(pytest.approx(1.0, rel=1e-9), 1, 6)]
        assert group_signature(d).complex_form == "U(3)"

    def test_first_triple_is_standard(self):
        p = synthesize_pair([(2.0, 1, 1), (3.0, -1, 1)], seed=11)
        np.testing.assert_allclose(p.t1.g.m, np.eye(4), atol=1e-12)

    def test_reproducible_for_fixed_seed(self):
        a = synthesize_pair([(2.0, 1, 1), (3.0, -1, 2)], seed=123)
        b = synthesize_pair([(2.0, 1, 1), (3.0, -1, 2)], seed=123)
        np.testing.assert_array_equal(a.t2.g.m, b.t2.g.m)
        np.testing.assert_array_equal(a.t2.omega.m, b.t2.omega.m)
        c = synthesize_pair([(2.0, 1, 1), (3.0, -1, 2)], seed=124)
        assert op_norm(a.t2.g.m - c.t2.g.m) > 1e-3

    @pytest.mark.parametrize("bad", [
        [],
        [(0.0, 1, 1)],
        [(-2.0, 1, 1)],
        [(2.0, 2, 1)],
        [(2.0, 1, 0)],
        [(2.0, 1, 1), (2.0, 1, 1)],
        [(1.0, 1, 1), (1.00000005, 1, 1), (3.0, -1, 1)],
    ])
    def test_rejects_inconsistent_specs(self, bad):
        with pytest.raises(ValueError):
            synthesize_pair(bad, seed=0)

    def test_rejects_a_chain_decompose_refuses(self):
        # lambda = 1, 1 + 0.9e-7, 1 + 1.8e-7 with signs +, -, +: no two of
        # one sign within the gap, yet one chain wider than it; judged by
        # decompose's rule, the spec is refused instead of synthesized
        spec = [(1.0, 1, 1), (1.00000009, -1, 1), (1.00000018, 1, 1), (3.0, 1, 1)]
        with pytest.raises(ValueError, match=r"cluster width fails: eigenvalues 1 \.\. "
                                             r"1\.00000018 of G chain"):
            synthesize_pair(spec, seed=0)

    def test_chain_within_the_gap_round_trips(self):
        p = synthesize_pair([(1.0, 1, 2), (1.00000005, -1, 1), (3.0, 1, 1)], seed=2)
        assert [(b.sign, b.dim) for b in decompose(p).blocks] == [(1, 4), (-1, 2), (1, 2)]

    def test_same_eigenvalue_opposite_signs_allowed(self):
        p = synthesize_pair([(2.0, 1, 1), (2.0, -1, 1)], seed=4)
        sig = group_signature(decompose(p))
        assert sig.multiplicities == (1, 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_random_specs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n_blocks = int(rng.integers(1, 4))
        spec = []
        used = {1: set(), -1: set()}
        for _ in range(n_blocks):
            sign = int(rng.choice([-1, 1]))
            lam = float(np.round(rng.uniform(0.5, 8.0), 3))
            while lam in used[sign]:
                lam = float(np.round(rng.uniform(0.5, 8.0), 3))
            used[sign].add(lam)
            spec.append((lam, sign, int(rng.integers(1, 3))))
        p = synthesize_pair(spec, seed=seed)
        d = decompose(p)
        recovered = sorted((round(b.eigenvalue, 6), b.sign, b.dim // 2) for b in d.blocks)
        expected = sorted((round(lam, 6), sign, mult) for lam, sign, mult in spec)
        assert recovered == expected
        assert_one_block_per_class(d)


@st.composite
def block_specs(draw):
    """A ``synthesize_pair`` spec of dim <= 16: up to four entries, some
    eigenvalues spread over [0.5, 8], some within a few cluster gaps of
    one another, so that chains of either width come up."""
    specs, room = [], 8
    for _ in range(draw(st.integers(1, 4))):
        if room == 0:
            break
        base = draw(st.sampled_from((1.0, 2.5)))
        lam = draw(st.one_of(st.floats(0.5, 8.0),
                             st.builds(lambda k: base * (1.0 + k * 4e-8), st.integers(0, 3))))
        mult = draw(st.integers(1, min(3, room)))
        specs.append((lam, draw(st.sampled_from((1, -1))), mult))
        room -= mult
    return specs


class TestStoredFrame:
    """``decompose`` lays the adapted frame out once: every block's basis is
    its columns of ``frame_w``, the partners are J1 times the axes, the
    frame is orthonormal, and the per-coordinate arrays match the blocks.
    Every spec that ``synthesize_pair`` accepts decomposes back."""

    @settings(max_examples=60, deadline=None)
    @given(spec=block_specs(), seed=st.integers(0, 2**16))
    def test_blocks_read_the_one_frame(self, spec, seed):
        try:
            p = synthesize_pair(spec, seed=seed)
        except ValueError:
            assume(False)
        d = decompose(p)
        q, n = d.frame_w, p.dim // 2
        c, dd = q[:, :n], q[:, n:]
        assert not q.flags.writeable
        assert op_norm(dd - p.t1.j_w @ c) <= 1e-12
        assert op_norm(q.T @ q - np.eye(p.dim)) <= 1e-12
        lo = 0
        for b in d.blocks:
            hi = lo + b.dim // 2
            np.testing.assert_array_equal(b.basis_w, np.hstack((c[:, lo:hi], dd[:, lo:hi])))
            assert (d.coordinate_sign[lo:hi] == b.sign).all()
            assert all(same_cluster(lam, b.eigenvalue, p.tol.cluster_gap)
                       for lam in d.coordinate_lambda[lo:hi])
            lo = hi
        assert lo == n == len(d.coordinate_sign) == len(d.coordinate_lambda)
        recovered = sorted((b.sign, b.dim // 2) for b in d.blocks)
        assert recovered == sorted((sign, mult) for _, sign, mult in spec)


class TestBuiltOnFirstUse:
    """The matrices no verdict reads are built on first read, each by the
    formula that once built it eagerly, and are read-only."""

    SPEC = [(1.5, 1, 2), (2.5, -1, 1), (4.0, 1, 1)]

    @staticmethod
    def assert_read_only_equal(got, expected):
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, expected)

    def test_block_bases(self):
        p = synthesize_pair(self.SPEC, seed=4)
        d = decompose(p)
        n, lo = p.dim // 2, 0
        for block in d.blocks:
            hi = lo + block.dim // 2
            basis_w = d.frame_w[:, np.r_[lo:hi, n + lo:n + hi]]
            self.assert_read_only_equal(block.basis_w, basis_w)
            self.assert_read_only_equal(block.basis, p.t1.g.frame @ basis_w)
            lo = hi
        assert lo == n

    def test_recursion_operator_and_j(self):
        p = synthesize_pair(self.SPEC, seed=4)
        frame, frame_inv = p.t1.g.frame, p.t1.g.frame_inv
        self.assert_read_only_equal(p.recursion_operator,
                                    frame @ p.recursion_operator_w @ frame_inv)
        for t in (p.t1, p.t2):
            self.assert_read_only_equal(t.j, t.g.frame @ t.j_w @ t.g.frame_inv)

    @pytest.mark.parametrize("gamma", [0.5, -0.05, 2.0])
    def test_pencil_member(self, gamma):
        p = synthesize_pair(self.SPEC, seed=4)
        member = pencil_member(decompose(p), gamma)
        self.assert_read_only_equal(member.g, p.t1.g.m + gamma * p.t2.g.m)
        self.assert_read_only_equal(member.omega, p.t1.omega.m + gamma * p.t2.omega.m)
        j_w = np.linalg.solve(np.eye(p.dim) + gamma * p.metric_operator_w,
                              p.t1.j_w + gamma * p.omega2_w)
        self.assert_read_only_equal(member.j, p.t1.g.frame @ j_w @ p.t1.g.frame_inv)

    def test_recursion_fields(self):
        p = synthesize_pair(self.SPEC, seed=4)
        frame, frame_inv = p.t1.g.frame, p.t1.g.frame_inv
        power = p.t1.j_w
        for k, field in enumerate(recursion_basis(p)):
            if k:
                power = p.recursion_operator_w @ power
            self.assert_read_only_equal(field.matrix, frame @ power @ frame_inv)
