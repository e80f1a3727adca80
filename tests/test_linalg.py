import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_oracle
from biham.structures import MetricTensor, QuadraticForm, SymplecticForm

from biham.commutant import HermitianForm
from biham.linalg import (
    RankAmbiguityError,
    StructureError,
    Tolerance,
    as_matrix,
    cluster_eigenvalues,
    commutator,
    _expm,
    eig_self_adjoint,
    op_norm,
    op_norms,
    orthonormal_span,
    sym_sqrt,
)


def brute_force_product(a, b):
    """Triple-loop matrix product, used as an oracle for numpy routines."""
    n = a.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(a[i, k] * b[k, j] for k in range(n))
    return out


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rel == 1e-9
        assert tol.cluster_gap == 1e-7

    @pytest.mark.parametrize("kwargs", [
        {"rel": 0.0}, {"rel": -1e-9}, {"cluster_gap": 0.0},
        {"rel": 1e-6, "cluster_gap": 1e-9},
        # non-finite or huge values would make every threshold infinite
        {"rel": float("inf"), "cluster_gap": float("inf")},
        {"rel": float("nan")}, {"cluster_gap": float("nan")},
        {"rel": 1e300, "cluster_gap": 1e300}, {"cluster_gap": float("inf")},
        {"rel": 1.0, "cluster_gap": 1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)


class TestOpNorms:
    """One stacked reduction gives every matrix the norm ``op_norm`` gives
    it alone, to the bit, whatever the layout: the check groups rely on it
    to keep every residual and threshold of the per-check form."""

    @staticmethod
    def stack(dim, complex_entries):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((5, dim, dim))
        if complex_entries:
            a = a + 1j * rng.standard_normal((5, dim, dim))
        return a

    @pytest.mark.parametrize("dim", [2, 8, 9, 24, 64])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_stack_equals_each_matrix(self, dim, complex_entries):
        a = self.stack(dim, complex_entries)
        assert op_norms(a).tolist() == [op_norm(m) for m in a]
        assert op_norms(list(a)).tolist() == [op_norm(m) for m in a]

    @pytest.mark.parametrize("dim", [2, 8, 9, 24, 64])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_stack_of_transposed_views(self, dim, complex_entries):
        # at dims 8 and up numpy sums a transposed view's rows in another
        # order than a C-ordered copy's
        views = [m.T for m in self.stack(dim, complex_entries)]
        expected = [op_norm(np.ascontiguousarray(v)) for v in views]
        assert [op_norm(v) for v in views] == expected
        assert op_norms(views).tolist() == expected
        assert op_norms(np.stack(views)).tolist() == expected
        assert op_norms(self.stack(dim, complex_entries).swapaxes(1, 2)).tolist() == expected


class TestPrecomputedNorms:
    """``Tolerance.threshold`` on the factors' norms, taken beforehand."""

    def test_nan_on_overflow(self):
        big = op_norm(np.full((4, 4), 1e200))
        assert np.isnan(Tolerance().threshold(big, big))


class TestSymmetricPart:
    # the check names are keys of the CLI report's residuals section
    @pytest.mark.parametrize("build, check, message", [
        (sym_sqrt, "symmetric", "matrix is not symmetric"),
        (MetricTensor, "metric_symmetric", "metric is not symmetric"),
        (QuadraticForm, "quadratic form_symmetric", "quadratic form is not symmetric"),
        (HermitianForm, "hermitian_symmetric", "form is not conjugate-symmetric"),
    ])
    def test_rejects_asymmetric_with_named_check(self, build, check, message):
        with pytest.raises(StructureError, match=message) as info:
            build(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert info.value.check == check
        assert info.value.residual == 1.0

    def test_symplectic_form_rejects_symmetric_part(self):
        with pytest.raises(StructureError, match="symplectic form is not antisymmetric") as info:
            SymplecticForm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert info.value.check == "symplectic form_antisymmetric"
        assert info.value.residual == 1.0

    # each constructor keeps symmetric_part's fresh array, the one it builds
    # from its input: read-only, and no later write to the input reaches it
    @pytest.mark.parametrize("build, stored, m", [
        (sym_sqrt, lambda r: r, [[2.0, 1.0], [1.0, 2.0]]),
        (MetricTensor, lambda r: r.m, [[2.0, 1.0], [1.0, 2.0]]),
        (QuadraticForm, lambda r: r.matrix, [[2.0, 1.0], [1.0, 2.0]]),
        (HermitianForm, lambda r: r.h, [[2.0, 1j], [-1j, 2.0]]),
        (SymplecticForm, lambda r: r.m, [[0.0, 1.0], [-1.0, 0.0]]),
    ], ids=["sym_sqrt", "MetricTensor", "QuadraticForm", "HermitianForm", "SymplecticForm"])
    def test_stores_a_read_only_array_of_its_own(self, build, stored, m):
        m = np.array(m)
        kept = stored(build(m))
        before = kept.copy()
        assert not kept.flags.writeable
        assert not np.shares_memory(kept, m)
        m[...] = 7.0
        np.testing.assert_array_equal(kept, before)

    def test_hermitian_form_takes_conjugate_transpose(self):
        h = HermitianForm(np.array([[2.0, 1j], [-1j, 2.0]]))
        assert h.h[0, 1] == 1j and h.h[1, 0] == -1j


class TestAsMatrix:
    def test_complex_dtype(self):
        m = as_matrix([[1.0, 2j], [0.0, 1.0]], "form", dtype=np.complex128)
        assert m.dtype == np.complex128 and not m.flags.writeable

    @pytest.mark.parametrize("bad", [complex(np.inf, 0.0), complex(0.0, np.nan)])
    def test_complex_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="form contains non-finite entries"):
            as_matrix([[1.0, bad], [0.0, 1.0]], "form", dtype=np.complex128)


class TestMetricFrame:
    # the adjoint of a for the metric g, inv(g) @ a.T @ g, is the transpose
    # in the g-orthonormal frame W: W @ (inv(W) @ a @ W).T @ inv(W)
    @staticmethod
    def adjoint(a, g):
        metric = MetricTensor(g)
        w, w_inv = metric.frame, metric.frame_inv
        return w @ (w_inv @ a @ w).T @ w_inv

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_frame_is_metric_orthonormal(self, n):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n))
        g = g @ g.T + n * np.eye(n)
        metric = MetricTensor(g)
        np.testing.assert_allclose(metric.frame.T @ g @ metric.frame, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(metric.frame @ metric.frame_inv, np.eye(n), atol=1e-12)

    def test_identity_is_self_adjoint(self):
        np.testing.assert_allclose(self.adjoint(np.eye(2), np.diag([1.0, 4.0])),
                                   np.eye(2), atol=1e-15)

    def test_euclidean_metric_gives_transpose(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        np.testing.assert_allclose(self.adjoint(a, np.eye(5)), a.T, atol=1e-14)

    def test_involution(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            a = rng.standard_normal((n, n))
            g = rng.standard_normal((n, n))
            g = g @ g.T + n * np.eye(n)
            twice = self.adjoint(self.adjoint(a, g), g)
            assert op_norm(twice - a) <= 1e-12 * op_norm(a)

    def test_weighted_example(self):
        # inv(g) @ a.T @ g computed by hand for g = diag(1, 4)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        adj = self.adjoint(a, np.diag([1.0, 4.0]))
        np.testing.assert_allclose(adj, [[0.0, 0.0], [0.25, 0.0]], atol=1e-15)

    def test_defining_pairing_on_random_vectors(self):
        rng = np.random.default_rng(7)
        n = 6
        a = rng.standard_normal((n, n))
        g = rng.standard_normal((n, n))
        g = g @ g.T + n * np.eye(n)
        adj = self.adjoint(a, g)
        for _ in range(20):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            assert (adj @ x) @ g @ y == pytest.approx(x @ g @ (a @ y), rel=1e-11)

    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
    def test_scale_free_positive_definiteness(self, scale):
        # a threshold relative to max(1, norm) rejected every metric below
        # norm 1e-9; the rule compares eigenvalues with each other
        assert MetricTensor(scale * np.diag([1.0, 2.0])).dim == 2
        with pytest.raises(StructureError, match="not positive-definite"):
            MetricTensor(scale * np.diag([1.0, 1e-10]))

    def test_rejects_indefinite_metric(self):
        with pytest.raises(StructureError):
            MetricTensor(np.diag([1.0, -1.0]))


class TestSymSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(sym_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(sym_sqrt(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-14)

    @pytest.mark.parametrize("n", [2, 7, 32])
    def test_round_trip_random_spd(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        m = a @ a.T + 0.1 * np.eye(n)
        p = sym_sqrt(m)
        assert op_norm(p - p.T) == 0.0
        assert op_norm(p @ p - m) <= 1e-10 * op_norm(m)

    def test_clips_tiny_negative_eigenvalues(self):
        p = sym_sqrt(np.diag([1.0, -1e-15]))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-7)

    def test_rejects_asymmetric(self):
        with pytest.raises(StructureError):
            sym_sqrt([[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_negative(self):
        with pytest.raises(StructureError):
            sym_sqrt(np.diag([1.0, -0.5]))


class TestEigSelfAdjoint:
    def test_identity(self):
        w, basis = eig_self_adjoint(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-14)

    def test_diagonal_with_multiplicities(self):
        w, _ = eig_self_adjoint(np.diag([2.0, 2.0, 3.0, 3.0]))
        np.testing.assert_allclose(w, [2.0, 2.0, 3.0, 3.0], atol=1e-14)

    def test_conjugation_invariance(self):
        # rotating a diagonal operator by an orthogonal matrix keeps its
        # spectrum; the solver must recover it in an orthonormal basis
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        g_op = q.T @ np.diag([2.0, 2.0, 3.0, 3.0]) @ q
        w, basis = eig_self_adjoint(g_op)
        np.testing.assert_allclose(w, [2.0, 2.0, 3.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 6, 16])
    def test_reconstruction_and_metric_orthonormality(self, n):
        # a g-self-adjoint operator is symmetric in the g-orthonormal frame;
        # its eigenvectors mapped back form a g-orthonormal eigenbasis
        rng = np.random.default_rng(n + 100)
        g = rng.standard_normal((n, n))
        g = g @ g.T + n * np.eye(n)
        sym = rng.standard_normal((n, n))
        a = np.linalg.solve(g, sym + sym.T)  # g-self-adjoint by construction
        metric = MetricTensor(g)
        w, vecs = eig_self_adjoint(metric.frame_inv @ a @ metric.frame)
        basis = metric.frame @ vecs
        assert list(w) == sorted(w)
        np.testing.assert_allclose(basis.T @ g @ basis, np.eye(n), atol=1e-9)
        recon = basis @ np.diag(w) @ np.linalg.inv(basis)
        assert op_norm(recon - a) <= 1e-9 * op_norm(a)

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(StructureError, match="operator is not symmetric") as info:
            eig_self_adjoint([[0.0, 1.0], [0.0, 0.0]])
        assert info.value.check == "self_adjoint"


class TestClusterEigenvalues:
    def test_forced_merge(self):
        assert cluster_eigenvalues([2.0, 2.0 + 1e-12, 3.0], 1e-7) == [
            (pytest.approx(2.0), 2), (3.0, 1)]

    def test_singletons(self):
        assert cluster_eigenvalues([1.0, 2.0, 3.0], 1e-7) == [
            (1.0, 1), (2.0, 1), (3.0, 1)]

    def test_threshold_arithmetic(self):
        out = cluster_eigenvalues([2.0, 2.0000001, 2.00002], 1e-7)
        assert [mult for _, mult in out] == [2, 1]
        assert out[0][0] == pytest.approx(2.00000005, abs=1e-12)
        assert out[1][0] == pytest.approx(2.00002)

    def test_empty(self):
        assert cluster_eigenvalues([], 1e-7) == []

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_gap_is_relative_at_every_scale(self, scale):
        # a gap of cluster_gap * max(1, |v|) merged 2e-8 and 3e-8
        out = cluster_eigenvalues([2.0 * scale, 3.0 * scale, 3.0 * scale * (1 + 1e-9)], 1e-7)
        assert [mult for _, mult in out] == [1, 2]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            cluster_eigenvalues([2.0, 1.0], 1e-7)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), max_size=30),
           st.floats(min_value=1e-12, max_value=1.0))
    def test_multiplicities_sum_to_input_length(self, values, gap):
        values = sorted(values)
        clusters = cluster_eigenvalues(values, gap)
        assert sum(mult for _, mult in clusters) == len(values)


@st.composite
def chained_values(draw):
    """Sorted values of both signs in chains of up to 13, each step 0 (a
    tie) to 1.1 times the gap, so chains both hold and break, then inf
    appended once or twice (with -inf in front the second time) or not at
    all, and a NaN inserted at some position or none; and the gap."""
    gap = draw(st.floats(min_value=1e-12, max_value=1e-3))
    values = []
    for base in draw(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=8)):
        chain = [base]
        step = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.1]))
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            chain.append(chain[-1] + step * gap * abs(chain[-1]))
        values.extend(chain)
    values.sort()
    ends = draw(st.integers(min_value=0, max_value=2))
    values = [-math.inf] * (ends // 2) + values + [math.inf] * ends
    if draw(st.booleans()):
        values.insert(draw(st.integers(min_value=0, max_value=len(values))), float("nan"))
    return values, gap


class TestClusterEigenvaluesEqualsVectorized:
    @settings(max_examples=200, deadline=None)
    @given(chained_values())
    def test_equal_to_the_vectorized_rule(self, case):
        # the same clusters as every neighbour judged at once on numpy
        # arrays, and every mean to the bit (NaN equal to NaN); inf against
        # inf, like a NaN, equals nothing
        values, gap = case
        assert [(repr(mean), count) for mean, count in cluster_eigenvalues(values, gap)] == \
            [(repr(mean), count) for mean, count in loop_oracle.vectorized_clusters(values, gap)]


class TestCommutator:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(commutator(a, a), np.zeros((4, 4)))

    def test_identity_commutes(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(commutator(np.eye(3), b), np.zeros((3, 3)))

    def test_mismatched_complex_structures(self):
        # the two 2-d complex structures of the incompatible diagonal pair
        a = np.array([[0.0, 2.0], [-0.5, 0.0]])
        b = np.array([[0.0, np.sqrt(3.0)], [-np.sqrt(3.0) / 3.0, 0.0]])
        expected = brute_force_product(a, b) - brute_force_product(b, a)
        result = commutator(a, b)
        np.testing.assert_allclose(result, expected, atol=1e-15)
        root3 = np.sqrt(3.0)
        np.testing.assert_allclose(result, np.diag([-root3 / 6.0, root3 / 6.0]),
                                   atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))


class TestRankAndNullSpace:
    def test_orthonormal_span_keeps_the_span(self):
        rng = np.random.default_rng(0)
        mats = rng.standard_normal((3, 4, 4)) * np.array([1e-8, 1.0, 1e8])[:, None, None]
        basis = orthonormal_span(mats, 1e-9)
        rows = basis.reshape(3, -1)
        np.testing.assert_allclose(rows @ rows.T, np.eye(3), atol=1e-12)
        for m in mats:
            v = m.ravel() / np.linalg.norm(m)
            np.testing.assert_allclose(rows.T @ (rows @ v), v, atol=1e-12)

    def test_orthonormal_span_complex(self):
        rng = np.random.default_rng(1)
        mats = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        rows = orthonormal_span(mats, 1e-9).reshape(2, -1)
        np.testing.assert_allclose(rows.conj() @ rows.T, np.eye(2), atol=1e-12)

    def test_orthonormal_span_rejects_dependent_input(self):
        a = np.diag([1.0, 2.0])
        with pytest.raises(RankAmbiguityError):
            orthonormal_span([a, np.eye(2), 3.0 * a], 1e-9)


class TestExpm:
    """The numpy Padé-13 exponential against ``scipy.linalg.expm``, the
    oracle, to a relative error of 1e-12 in the largest entry."""

    @staticmethod
    def assert_matches_oracle(a):
        ref = scipy.linalg.expm(a)
        assert np.abs(_expm(a) - ref).max() <= 1e-12 * np.abs(ref).max()

    # 1-norms 1e-3 .. 1e3 take 0 to 8 squarings
    @pytest.mark.parametrize("norm", np.logspace(-3.0, 3.0, 13))
    def test_random_non_skew_field_at_dim_16(self, norm):
        a = np.random.default_rng(7).standard_normal((16, 16))
        self.assert_matches_oracle(a * (norm / np.abs(a).sum(axis=0).max()))

    @pytest.mark.parametrize("norm", [1e-3, 0.5, 3.0, 1e3])
    def test_non_normal_jordan_like_field(self, norm):
        a = -np.eye(8) + np.diag(np.ones(7), 1)
        self.assert_matches_oracle(a * (norm / np.abs(a).sum(axis=0).max()))

    @pytest.mark.parametrize("t", [1e-3, 1.0, 30.0, 300.0])
    def test_dilation(self, t):
        a = t * np.diag([1.0, -1.0])
        self.assert_matches_oracle(a)
        np.testing.assert_allclose(_expm(a), np.diag(np.exp([t, -t])), rtol=1e-13)
