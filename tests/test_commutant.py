import numpy as np
import pytest

from biham.commutant import (
    HermitianForm,
    bicommutant_basis,
    bicommutant_dim,
    biunitary_sample,
    commutant_basis,
    commutant_dim,
    complexify,
    is_generic_operator,
    norm_bounds,
    transfer_operator,
)
from biham.compatibility import check_compatible
from biham.decomposition import decompose, synthesize_pair
from biham.linalg import StructureError, commutator, op_norm
from conftest import standard_triple


def random_hermitian_pd(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z @ z.conj().T + n * np.eye(n)


def operator_from_spectrum(evals, rng):
    """Random Hermitian-form pair whose transfer operator has the given
    spectrum: an independent construction used as oracle."""
    n = len(evals)
    h1 = random_hermitian_pd(rng, n)
    l = np.linalg.cholesky(h1)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v = np.linalg.solve(l.conj().T, q)  # h1-orthonormal columns
    f = v @ np.diag(evals) @ np.linalg.inv(v)
    h2 = h1 @ f
    h2 = 0.5 * (h2 + h2.conj().T)
    return transfer_operator(HermitianForm(h1), HermitianForm(h2))


class TestHermitianForm:
    def test_symmetrizes_rounding_noise(self):
        h = HermitianForm([[1.0, 1e-14j], [0.0, 2.0]])
        np.testing.assert_allclose(h.h, h.h.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StructureError):
            HermitianForm([[1.0, 1.0j], [1.0j, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(StructureError):
            HermitianForm(np.diag([1.0, -1.0]))


class TestTransferOperator:
    def test_equal_forms_give_identity(self):
        rng = np.random.default_rng(0)
        h = HermitianForm(random_hermitian_pd(rng, 3))
        op = transfer_operator(h, h)
        np.testing.assert_allclose(op.matrix, np.eye(3), atol=1e-12)

    def test_diagonal_case(self):
        op = transfer_operator(HermitianForm(np.eye(2)),
                               HermitianForm(np.diag([2.0, 3.0])))
        np.testing.assert_allclose(op.matrix, np.diag([2.0, 3.0]), atol=1e-14)
        np.testing.assert_allclose(op.eigenvalues, [2.0, 3.0], atol=1e-14)

    def test_transfer_identity_on_vectors(self):
        rng = np.random.default_rng(1)
        h1 = HermitianForm(random_hermitian_pd(rng, 4))
        h2 = HermitianForm(random_hermitian_pd(rng, 4))
        op = transfer_operator(h1, h2)
        for _ in range(10):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            lhs = np.conj(x) @ h2.h @ y
            rhs = np.conj(op.matrix @ x) @ h1.h @ y
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_self_adjoint_for_both_forms(self):
        rng = np.random.default_rng(2)
        h1 = HermitianForm(random_hermitian_pd(rng, 5))
        h2 = HermitianForm(random_hermitian_pd(rng, 5))
        f = transfer_operator(h1, h2).matrix
        for h in (h1.h, h2.h):
            prod = h @ f
            assert op_norm(prod - prod.conj().T) <= 1e-10 * op_norm(prod)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transfer_operator(HermitianForm(np.eye(2)), HermitianForm(np.eye(3)))


class TestNormBounds:
    def test_identity(self):
        op = transfer_operator(HermitianForm(np.eye(3)), HermitianForm(np.eye(3)))
        a, b = norm_bounds(op)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(1.0)

    def test_diagonal_case(self):
        op = transfer_operator(HermitianForm(np.eye(2)),
                               HermitianForm(np.diag([2.0, 3.0])))
        a, b = norm_bounds(op)
        assert a == pytest.approx(1.0 / np.sqrt(3.0))
        assert b == pytest.approx(1.0 / np.sqrt(2.0))
        # chain: 1/b^2 = 2 <= |F| = 3 <= 1/a^2 = 3
        assert 1.0 / b**2 == pytest.approx(2.0)
        assert 1.0 / a**2 == pytest.approx(3.0)

    def test_lower_bound_never_exceeds_upper(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h1 = HermitianForm(random_hermitian_pd(rng, 4))
            h2 = HermitianForm(random_hermitian_pd(rng, 4))
            a, b = norm_bounds(transfer_operator(h1, h2))
            assert a <= b * (1 + 1e-12)

    def test_norm_equivalence_on_random_vectors(self):
        rng = np.random.default_rng(4)
        h1 = HermitianForm(random_hermitian_pd(rng, 6))
        h2 = HermitianForm(random_hermitian_pd(rng, 6))
        op = transfer_operator(h1, h2)
        a, b = norm_bounds(op)
        for _ in range(100):
            x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            n1 = np.sqrt(np.real(np.conj(x) @ h1.h @ x))
            n2 = np.sqrt(np.real(np.conj(x) @ h2.h @ x))
            assert a * n2 <= n1 * (1 + 1e-12)
            assert n1 <= b * n2 * (1 + 1e-12)


class TestCommutant:
    def test_simple_spectrum(self):
        rng = np.random.default_rng(5)
        op = operator_from_spectrum([1.0, 2.0, 3.0], rng)
        assert commutant_dim(op) == 3

    def test_identity_commutes_with_everything(self):
        op = transfer_operator(HermitianForm(np.eye(3)), HermitianForm(np.eye(3)))
        assert commutant_dim(op) == 9

    def test_one_double_eigenvalue(self):
        rng = np.random.default_rng(6)
        op = operator_from_spectrum([1.0, 1.0, 2.0], rng)
        assert commutant_dim(op) == 5  # 2^2 + 1^2

    @pytest.mark.parametrize("gap", [1e-9, 1e-8, 5e-8])
    def test_eigenvalues_within_cluster_gap_merge(self, gap):
        # closer than cluster_gap (1e-7) apart: one cluster of multiplicity 2
        op = operator_from_spectrum([1.0, 1.0 + gap, 2.0], np.random.default_rng(18))
        assert commutant_dim(op) == 5
        assert bicommutant_dim(op) == 2
        assert not is_generic_operator(op)

    def test_basis_elements_commute_with_operator(self):
        rng = np.random.default_rng(7)
        op = operator_from_spectrum([1.0, 1.0, 2.0, 4.0], rng)
        for b in commutant_basis(op):
            assert op_norm(commutator(op.matrix, b)) <= 1e-10 * op_norm(op.matrix)


class TestBicommutant:
    def test_simple_spectrum(self):
        rng = np.random.default_rng(8)
        assert bicommutant_dim(operator_from_spectrum([1.0, 2.0, 3.0], rng)) == 3

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(9)
        assert bicommutant_dim(operator_from_spectrum([1.0, 1.0, 2.0], rng)) == 2

    def test_identity(self):
        op = transfer_operator(HermitianForm(np.eye(3)), HermitianForm(np.eye(3)))
        assert bicommutant_dim(op) == 1

    def test_bicommutant_commutes_with_commutant(self):
        rng = np.random.default_rng(10)
        op = operator_from_spectrum([1.0, 1.0, 3.0], rng)
        cb = commutant_basis(op)
        for b in bicommutant_basis(op):
            for c in cb:
                assert op_norm(commutator(b, c)) <= 1e-10


class TestGenericity:
    def test_simple_spectrum_is_generic(self):
        rng = np.random.default_rng(11)
        assert is_generic_operator(operator_from_spectrum([1.0, 2.0, 3.0], rng))

    def test_degenerate_spectrum_is_not(self):
        rng = np.random.default_rng(12)
        assert not is_generic_operator(operator_from_spectrum([1.0, 1.0, 2.0], rng))

    def test_identity_is_not_generic(self):
        op = transfer_operator(HermitianForm(np.eye(2)), HermitianForm(np.eye(2)))
        assert not is_generic_operator(op)


class TestBiunitarySample:
    def test_zero_polynomial_gives_identity(self):
        rng = np.random.default_rng(13)
        op = operator_from_spectrum([1.0, 2.0], rng)
        np.testing.assert_allclose(biunitary_sample(op, [0.0], 1.0), np.eye(2),
                                   atol=1e-12)

    def test_spectral_phases(self):
        op = transfer_operator(HermitianForm(np.eye(2)),
                               HermitianForm(np.diag([2.0, 3.0])))
        u = biunitary_sample(op, [0.0, 1.0], np.pi)  # f(x) = x
        np.testing.assert_allclose(u, np.diag([1.0, -1.0]), atol=1e-12)

    def test_random_polynomials_preserve_both_forms(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            h1 = HermitianForm(random_hermitian_pd(rng, 4))
            h2 = HermitianForm(random_hermitian_pd(rng, 4))
            op = transfer_operator(h1, h2)
            coeffs = rng.standard_normal(4)
            u = biunitary_sample(op, coeffs, rng.uniform(-3, 3))
            for h in (h1.h, h2.h):
                assert op_norm(u.conj().T @ h @ u - h) <= 1e-10 * op_norm(h)


class TestComplexify:
    def test_2d_reference_pair(self, ref2d_pair):
        h1, h2, signs = complexify(ref2d_pair)
        assert h1.dim == h2.dim == 1
        assert signs == (1,)
        op = transfer_operator(h1, h2)
        np.testing.assert_allclose(op.eigenvalues, [2.0], atol=1e-12)

    def test_4d_reference_pair(self, ref4d_pair):
        h1, h2, signs = complexify(ref4d_pair)
        assert h1.dim == 2
        assert signs == (1, -1)
        op = transfer_operator(h1, h2)
        np.testing.assert_allclose(op.eigenvalues, [2.0, 3.0], atol=1e-12)

    def test_identity_pair(self):
        t = standard_triple(2)
        h1, h2, _ = complexify(check_compatible(t, t))
        np.testing.assert_allclose(h1.h, h2.h, atol=1e-12)
        op = transfer_operator(h1, h2)
        np.testing.assert_allclose(op.matrix, np.eye(2), atol=1e-12)

    def test_first_form_is_standard(self, ref4d_pair):
        h1, _, _ = complexify(ref4d_pair)
        np.testing.assert_allclose(h1.h, np.eye(2), atol=1e-12)

    def test_multiplicity_block(self):
        p = synthesize_pair([(2.0, 1, 2)], seed=15)
        h1, h2, signs = complexify(p)
        assert signs == (1, 1)
        op = transfer_operator(h1, h2)
        np.testing.assert_allclose(op.eigenvalues, [2.0, 2.0], atol=1e-10)
        assert commutant_dim(op) == 4

    def test_eigenvalues_match_real_decomposition(self):
        p = synthesize_pair([(1.5, 1, 1), (2.5, -1, 2), (6.0, 1, 1)], seed=16)
        h1, h2, _ = complexify(p)
        op = transfer_operator(h1, h2)
        expected = sorted(
            [b.eigenvalue for b in decompose(p).blocks for _ in range(b.dim // 2)])
        np.testing.assert_allclose(op.eigenvalues, expected, atol=1e-9)
