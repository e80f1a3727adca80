import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biham.linalg import (
    RankAmbiguityError,
    StructureError,
    Tolerance,
    cluster_eigenvalues,
    commutator,
    eig_self_adjoint,
    metric_adjoint,
    numerical_rank,
    op_norm,
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
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)


class TestMetricAdjoint:
    def test_identity_is_self_adjoint(self):
        np.testing.assert_allclose(metric_adjoint(np.eye(2), np.diag([1.0, 4.0])),
                                   np.eye(2), atol=1e-15)

    def test_euclidean_metric_gives_transpose(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        np.testing.assert_array_equal(metric_adjoint(a, np.eye(5)), a.T)

    def test_weighted_example(self):
        # inv(g) @ a.T @ g computed by hand for g = diag(1, 4)
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        adj = metric_adjoint(a, np.diag([1.0, 4.0]))
        np.testing.assert_allclose(adj, [[0.0, 0.0], [0.25, 0.0]], atol=1e-15)

    def test_defining_pairing_on_random_vectors(self):
        rng = np.random.default_rng(7)
        n = 6
        a = rng.standard_normal((n, n))
        g = rng.standard_normal((n, n))
        g = g @ g.T + n * np.eye(n)
        adj = metric_adjoint(a, g)
        for _ in range(20):
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            assert (adj @ x) @ g @ y == pytest.approx(x @ g @ (a @ y), rel=1e-11)

    def test_involution(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            a = rng.standard_normal((n, n))
            g = rng.standard_normal((n, n))
            g = g @ g.T + n * np.eye(n)
            twice = metric_adjoint(metric_adjoint(a, g), g)
            assert op_norm(twice - a) <= 1e-12 * max(1.0, op_norm(a))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            metric_adjoint(np.eye(2), np.eye(3))

    def test_rejects_indefinite_metric(self):
        with pytest.raises(StructureError):
            metric_adjoint(np.eye(2), np.diag([1.0, -1.0]))


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
        w, basis = eig_self_adjoint(np.eye(3), np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-14)

    def test_diagonal_with_multiplicities(self):
        w, _ = eig_self_adjoint(np.diag([2.0, 2.0, 3.0, 3.0]), np.eye(4))
        np.testing.assert_allclose(w, [2.0, 2.0, 3.0, 3.0], atol=1e-14)

    def test_conjugation_invariance(self):
        # rotating a diagonal operator by an orthogonal matrix keeps its
        # spectrum; the solver must recover it in a g-orthonormal basis
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        g_op = q.T @ np.diag([2.0, 2.0, 3.0, 3.0]) @ q
        w, basis = eig_self_adjoint(g_op, np.eye(4))
        np.testing.assert_allclose(w, [2.0, 2.0, 3.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 6, 16])
    def test_reconstruction_and_metric_orthonormality(self, n):
        rng = np.random.default_rng(n + 100)
        g = rng.standard_normal((n, n))
        g = g @ g.T + n * np.eye(n)
        sym = rng.standard_normal((n, n))
        a = np.linalg.solve(g, sym + sym.T)  # g-self-adjoint by construction
        w, basis = eig_self_adjoint(a, g)
        assert list(w) == sorted(w)
        np.testing.assert_allclose(basis.T @ g @ basis, np.eye(n), atol=1e-9)
        recon = basis @ np.diag(w) @ np.linalg.inv(basis)
        assert op_norm(recon - a) <= 1e-9 * max(1.0, op_norm(a))

    def test_rejects_non_self_adjoint(self):
        with pytest.raises(StructureError):
            eig_self_adjoint([[0.0, 1.0], [0.0, 0.0]], np.eye(2))


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
    def test_rank_of_projector(self):
        rank, s, gap = numerical_rank(np.diag([1.0, 1.0, 0.0]), 1e-9)
        assert rank == 2
        assert gap == np.inf or gap > 1e9
        assert s[0] == pytest.approx(1.0)

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
