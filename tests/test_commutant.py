import dataclasses

import numpy as np
import pytest

from biham import commutant
from biham.commutant import (
    HermitianForm,
    bicommutant_basis,
    bicommutant_dim,
    biunitary_sample,
    commutant_dim,
    complexify,
    is_generic_operator,
    norm_bounds,
    read_off_operator,
    transfer_operator,
)
from biham.compatibility import check_compatible
from biham.decomposition import DecompositionError, decompose, synthesize_pair
from biham.linalg import DEFAULT_TOL, StructureError, Tolerance, commutator, op_norm
from conftest import standard_triple


def random_hermitian_pd(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z @ z.conj().T + n * np.eye(n)


def operator_from_spectrum(evals, rng, tol=DEFAULT_TOL):
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
    return transfer_operator(HermitianForm(h1), HermitianForm(h2), tol)


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

    def test_operator_tolerance_decides_clusters(self):
        # 1e-5 apart: two clusters at the default cluster gap, one at 1e-4
        spectrum = [1.0, 1.0 + 1e-5, 2.0]
        loose = Tolerance(rel=1e-9, cluster_gap=1e-4)
        op = operator_from_spectrum(spectrum, np.random.default_rng(19), loose)
        assert op.tol == loose
        assert (commutant_dim(op), bicommutant_dim(op)) == (5, 2)
        op = operator_from_spectrum(spectrum, np.random.default_rng(19))
        assert (commutant_dim(op), bicommutant_dim(op)) == (3, 3)

    def test_basis_elements_commute_with_operator(self):
        rng = np.random.default_rng(7)
        op = operator_from_spectrum([1.0, 1.0, 2.0, 4.0], rng)
        for b in op.commutant_basis:
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
        cb = op.commutant_basis
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

    @pytest.mark.parametrize("coeffs, t", [([1.0], np.inf), ([1.0], np.nan),
                                           ([np.nan], 1.0), ([0.0, np.inf], 1.0)])
    def test_non_finite_argument_is_a_value_error(self, coeffs, t):
        # a bad argument is not a fault of the operator: no StructureError,
        # and no RuntimeWarning on the way
        op = operator_from_spectrum([1.0, 2.0], np.random.default_rng(13))
        with pytest.raises(ValueError, match="must be finite|finite real sequence") as err:
            biunitary_sample(op, coeffs, t)
        assert not isinstance(err.value, StructureError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("coeffs, t", [([1e308, 1e308], 1.0), ([0.0, 1e200], 1e200)])
    def test_overflowing_phase_is_a_value_error(self, coeffs, t):
        # finite arguments whose phases f(lambda) * t overflow name the
        # arguments, with no RuntimeWarning and no failed unitarity check
        op = transfer_operator(HermitianForm(np.eye(2)), HermitianForm(np.diag([2.0, 3.0])))
        with pytest.raises(ValueError, match=r"poly_coeffs and time .* floating-point range"):
            biunitary_sample(op, coeffs, t)


class TestComplexify:
    def test_2d_reference_pair(self, ref2d_pair):
        h1, h2, signs = complexify(decompose(ref2d_pair))
        assert h1.dim == h2.dim == 1
        assert signs == (1,)
        op = transfer_operator(h1, h2)
        np.testing.assert_allclose(op.eigenvalues, [2.0], atol=1e-12)

    def test_4d_reference_pair(self, ref4d_pair):
        h1, h2, signs = complexify(decompose(ref4d_pair))
        assert h1.dim == 2
        assert signs == (1, -1)
        op = transfer_operator(h1, h2)
        np.testing.assert_allclose(op.eigenvalues, [2.0, 3.0], atol=1e-12)

    def test_identity_pair(self):
        t = standard_triple(2)
        h1, h2, _ = complexify(decompose(check_compatible(t, t)))
        np.testing.assert_allclose(h1.h, h2.h, atol=1e-12)
        op = transfer_operator(h1, h2)
        np.testing.assert_allclose(op.matrix, np.eye(2), atol=1e-12)

    def test_first_form_is_standard(self, ref4d_pair):
        h1, _, _ = complexify(decompose(ref4d_pair))
        np.testing.assert_allclose(h1.h, np.eye(2), atol=1e-12)

    def test_multiplicity_block(self):
        p = synthesize_pair([(2.0, 1, 2)], seed=15)
        h1, h2, signs = complexify(decompose(p))
        assert signs == (1, 1)
        op = transfer_operator(h1, h2)
        np.testing.assert_allclose(op.eigenvalues, [2.0, 2.0], atol=1e-10)
        assert commutant_dim(op) == 4

    def test_eigenvalues_match_real_decomposition(self):
        p = synthesize_pair([(1.5, 1, 1), (2.5, -1, 2), (6.0, 1, 1)], seed=16)
        h1, h2, _ = complexify(decompose(p))
        op = transfer_operator(h1, h2)
        expected = sorted(
            [b.eigenvalue for b in decompose(p).blocks for _ in range(b.dim // 2)])
        np.testing.assert_allclose(op.eigenvalues, expected, atol=1e-9)


class TestReadOff:
    """The transfer operator of a decomposed pair, read off its blocks."""

    def test_makes_no_eigensolve_and_no_certificate(self, monkeypatch):
        d = decompose(synthesize_pair([(2.0, 1, 4), (3.0, -1, 4)], seed=21))
        calls = {"eigh": 0, "certify": 0}
        eigh, certify = np.linalg.eigh, commutant._certify_spectrum

        def counting_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        def counting_certify(*args, **kwargs):
            calls["certify"] += 1
            return certify(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(commutant, "_certify_spectrum", counting_certify)
        op = read_off_operator(d)
        dims = (commutant_dim(op), bicommutant_dim(op), is_generic_operator(op))
        u = biunitary_sample(op, [0.5, 1.0], 0.7)
        assert calls == {"eigh": 0, "certify": 0}
        assert dims == (32, 2, False)
        assert op.eigenvalues.tolist() == [b.eigenvalue for b in d.blocks for _ in range(4)]
        for h in (op.h1.h, op.h2.h):
            assert op_norm(u.conj().T @ h @ u - h) <= 1e-12 * op_norm(h)

    def test_forms_of_the_read_off_are_factored(self):
        # the diagonal forms carry the frames of any HermitianForm: the
        # forms path rebuilds the same operator from them
        op = read_off_operator(decompose(synthesize_pair([(1.5, 1, 2), (2.5, -1, 1)], seed=4)))
        for form in (op.h1, op.h2):
            np.testing.assert_allclose(form.frame.conj().T @ form.h @ form.frame, np.eye(3),
                                       atol=1e-14)
            np.testing.assert_allclose(form.frame @ form.frame_inv, np.eye(3), atol=1e-14)
        rebuilt = transfer_operator(op.h1, op.h2, op.tol)
        np.testing.assert_allclose(rebuilt.eigenvalues, op.eigenvalues, rtol=1e-14)
        assert (commutant_dim(rebuilt), bicommutant_dim(rebuilt)) == (5, 2)


class TestSpectralFaults:
    """Spectral data that no longer match the operator fail the checks of
    the commutant and the bicommutant."""

    @staticmethod
    def tampered(op, angle):
        # rotate the first eigenvector towards the last, which lies in
        # another eigenvalue cluster
        v = np.array(op.eigenvectors)
        first, last = v[:, 0].copy(), v[:, -1].copy()
        v[:, 0] = np.cos(angle) * first + np.sin(angle) * last
        v[:, -1] = np.cos(angle) * last - np.sin(angle) * first
        return dataclasses.replace(op, eigenvectors=v)

    @pytest.mark.parametrize("angle", [1e-3, 1e-6])
    def test_tampered_eigenvectors_raise(self, angle):
        op = operator_from_spectrum([1.0, 1.0, 2.0, 4.0], np.random.default_rng(20))
        with pytest.raises(StructureError):
            commutant_dim(self.tampered(op, angle))
        with pytest.raises(StructureError):
            bicommutant_dim(self.tampered(op, angle))

    def test_wide_cluster_fails_the_one_width_rule(self):
        # 1, 1 + 0.9e-7, 1 + 1.8e-7 chain at the default gap into one
        # cluster of spread 1.8e-7: refused by decompose's rule, naming F
        op = operator_from_spectrum([1.0, 1.0 + 0.9e-7, 1.0 + 1.8e-7, 3.0],
                                    np.random.default_rng(22))
        with pytest.raises(DecompositionError,
                           match=r"^cluster width fails: eigenvalues 1 \.\. 1\.0000001\d* of the "
                                 r"transfer operator chain into one cluster"):
            commutant_dim(op)

    def test_untampered_operator_passes(self):
        op = operator_from_spectrum([1.0, 1.0, 2.0, 4.0], np.random.default_rng(20))
        assert (commutant_dim(op), bicommutant_dim(op)) == (6, 3)
