
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from biham.linalg import (
    DEFAULT_TOL,
    NumericalCheckError,
    StructureError,
    Tolerance,
    cluster_eigenvalues,
    commutator,
    op_norm,
)
from conftest import standard_triple
from loop_oracle import (
    hermitian_frame,
    realification,
    realified_transfer_operator,
    transfer_operator_oracle,
)


def random_hermitian_pd(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z @ z.conj().T + n * np.eye(n)


def forms_with_spectrum(evals, rng):
    """Random Hermitian forms h1, h2 whose transfer operator has the given
    spectrum: an independent construction used as oracle."""
    n = len(evals)
    h1 = random_hermitian_pd(rng, n)
    l = np.linalg.cholesky(h1)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v = np.linalg.solve(l.conj().T, q)  # h1-orthonormal columns
    f = v @ np.diag(evals) @ np.linalg.inv(v)
    h2 = h1 @ f
    return HermitianForm(h1), HermitianForm(0.5 * (h2 + h2.conj().T))


def operator_from_spectrum(evals, rng, tol=DEFAULT_TOL):
    return transfer_operator(*forms_with_spectrum(evals, rng), tol)


class TestHermitianForm:
    def test_symmetrizes_rounding_noise(self):
        h = HermitianForm([[1.0, 1e-14j], [0.0, 2.0]])
        np.testing.assert_allclose(h.h, h.h.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StructureError):
            HermitianForm([[1.0, 1.0j], [1.0j, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(StructureError) as err:
            HermitianForm(np.diag([1.0, -1.0]))
        assert err.value.check == "metric_positive_definite"
        assert err.value.residual == -1.0
        # the refusal names the form the caller gave, not a metric
        assert str(err.value) == "hermitian form is not positive-definite (min eigenvalue -1.000e+00)"

    def test_factored_once_in_its_own_frame(self):
        # one complex whitening: W^H h W = I and W inv(W) = I; an indefinite
        # form gets the refusal of the retired realified metric
        # g = [[A, -B], [B, A]], which has h's spectrum twice
        h = HermitianForm(random_hermitian_pd(np.random.default_rng(3), 3))
        np.testing.assert_allclose(h.frame.conj().T @ h.h @ h.frame, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(h.frame @ h.frame_inv, np.eye(3), atol=1e-14)
        indefinite = np.array([[1.0, 2.0j], [-2.0j, 1.0]])
        with pytest.raises(StructureError) as err:
            HermitianForm(indefinite)
        with pytest.raises(StructureError) as retired:
            realification(indefinite)
        assert str(err.value) == str(retired.value)
        assert err.value.check == retired.value.check == "metric_positive_definite"
        assert err.value.residual == pytest.approx(retired.value.residual, rel=1e-14)

    # spectra from k * rel up to 1, the min/max ratio k * rel at least 10x
    # away from rel on either side, zero or negative (indefinite); k = -inf
    # stands for min -1, far below any threshold
    @pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(rel=1e-4, cluster_gap=1e-3)])
    @pytest.mark.parametrize("k", [1e3, 10.0, 0.1, 1e-3, 0.0, -10.0, -np.inf])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_refuses_by_the_constructed_spectrum(self, n, k, tol):
        # judged from the spectrum built in, min max(k rel, -1) and max 1:
        # positive-definite iff min > rel; a refusal names that min, which
        # eigh returns to a few eps of the form's norm 1
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        low = max(k * tol.rel, -1.0)
        h = (q * np.linspace(low, 1.0, n)) @ q.conj().T
        if low > tol.rel:
            HermitianForm(h, tol)
            return
        with pytest.raises(StructureError) as refused:
            HermitianForm(h, tol)
        assert refused.value.check == "metric_positive_definite"
        assert abs(refused.value.residual - low) <= 4 * np.finfo(float).eps


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

    @pytest.mark.parametrize("n", [1, 4])
    def test_factors_each_form_once(self, monkeypatch, n):
        # from raw matrices: one complex n x n whitening per form, validating
        # it, then the eigh of F in the first form's frame; forms built
        # before the call were factored already
        rng = np.random.default_rng(n)
        h1, h2 = random_hermitian_pd(rng, n), random_hermitian_pd(rng, n)
        forms = HermitianForm(h1), HermitianForm(h2)
        solved = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            solved.append((a.shape[0], a.dtype.kind))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        transfer_operator(h1, h2)
        assert solved == [(n, "c")] * 3
        solved.clear()
        transfer_operator(*forms)
        assert solved == [(n, "c")]

    def test_refusal_names_the_pipeline_check(self):
        # F = diag(1e-5, 1e5): min lambda is below rel max lambda, which
        # the forms route refuses by check_compatible's name for G
        with pytest.raises(StructureError, match="spectrum is not positive") as err:
            transfer_operator(np.diag([1.0, 1e-5]), np.diag([1e-5, 1.0]))
        assert err.value.check == "G_positive_spectrum"
        assert err.value.residual == pytest.approx(1e-5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_forms_on_scales_far_apart_fail_g_finite(self):
        # F_w = W^H h2 W overflows: refused by name before any eigh, with
        # no RuntimeWarning, as the realified route refused it
        for route in (transfer_operator, realified_transfer_operator):
            with pytest.raises(StructureError) as err:
                route(1e-300 * np.eye(2), 1e300 * np.eye(2))
            assert err.value.check == "G_finite"
            assert err.value.residual == np.inf


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
        calls = {"eigh": 0}
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        op = read_off_operator(d)
        dims = (commutant_dim(op), bicommutant_dim(op), is_generic_operator(op))
        u = biunitary_sample(op, [0.5, 1.0], 0.7)
        assert calls == {"eigh": 0}
        assert dims == (32, 2, False)
        assert op.eigenvalues.tolist() == [b.eigenvalue for b in d.blocks for _ in range(4)]
        for h in (op.h1, op.h2):
            assert op_norm(u.conj().T @ h @ u - h) <= 1e-12 * op_norm(h)

    def test_builds_no_form(self, monkeypatch):
        def refusing(*args, **kwargs):
            raise AssertionError("read_off_operator built a HermitianForm")

        d = decompose(synthesize_pair([(1.5, 1, 2), (2.5, -1, 1)], seed=4))
        monkeypatch.setattr(HermitianForm, "__init__", refusing)
        op = read_off_operator(d)
        np.testing.assert_array_equal(op.h1, np.eye(3))
        np.testing.assert_array_equal(op.h2, np.diag(op.eigenvalues))
        assert op.matrix is op.h2 and op.eigenvectors is op.h1
        assert not op.h1.flags.writeable and not op.h2.flags.writeable

    def test_forms_of_the_read_off_rebuild_it(self):
        # the read-off's forms are plain matrices: the forms route validates
        # and factors them, and rebuilds the same operator
        op = read_off_operator(decompose(synthesize_pair([(1.5, 1, 2), (2.5, -1, 1)], seed=4)))
        rebuilt = transfer_operator(op.h1, op.h2, op.tol)
        np.testing.assert_allclose(rebuilt.eigenvalues, op.eigenvalues, rtol=1e-14)
        assert (commutant_dim(rebuilt), bicommutant_dim(rebuilt)) == (5, 2)


class TestSpectralFaults:
    """Spectral data that no longer match the operator fail the retired
    route's certificate (``tests/loop_oracle.py``): the data are replaced
    after construction, which only a certificate read on first use sees."""

    @staticmethod
    def tampered(op, angle):
        # rotate the first eigenvector towards the last, which lies in
        # another eigenvalue cluster
        v = np.array(op.eigenvectors)
        first, last = v[:, 0].copy(), v[:, -1].copy()
        v[:, 0] = np.cos(angle) * first + np.sin(angle) * last
        v[:, -1] = np.cos(angle) * last - np.sin(angle) * first
        return op.replace(eigenvectors=v)

    @staticmethod
    def oracle_operator():
        return transfer_operator_oracle(
            *forms_with_spectrum([1.0, 1.0, 2.0, 4.0], np.random.default_rng(20)))

    @pytest.mark.parametrize("angle", [1e-3, 1e-6])
    def test_tampered_eigenvectors_raise(self, angle):
        op = self.oracle_operator()
        with pytest.raises(StructureError, match="eigenpairs do not reproduce it"):
            commutant_dim(self.tampered(op, angle))
        with pytest.raises(StructureError) as err:
            bicommutant_dim(self.tampered(op, angle))
        assert err.value.check == "transfer_eigenpairs"

    def test_wide_cluster_fails_the_one_width_rule(self):
        # 1, 1 + 0.9e-7, 1 + 1.8e-7 chain at the default gap into one
        # cluster of spread 1.8e-7: the forms route refuses it by
        # decompose's one width rule, naming G
        forms = forms_with_spectrum([1.0, 1.0 + 0.9e-7, 1.0 + 1.8e-7, 3.0],
                                    np.random.default_rng(22))
        with pytest.raises(DecompositionError,
                           match=r"^cluster width fails: eigenvalues 1 \.\. 1\.0000001\d* of G "
                                 r"chain into one cluster"):
            transfer_operator(*forms)

    def test_untampered_operator_passes(self):
        op = operator_from_spectrum([1.0, 1.0, 2.0, 4.0], np.random.default_rng(20))
        assert (commutant_dim(op), bicommutant_dim(op)) == (6, 3)
        oracle = self.oracle_operator()
        assert (commutant_dim(oracle), bicommutant_dim(oracle)) == (6, 3)
        np.testing.assert_allclose(op.eigenvalues, oracle.eigenvalues, rtol=1e-12)


@st.composite
def form_spectra(draw):
    """Ascending positive spectra of n <= 16, with runs of values closer
    than the default ``cluster_gap``, and a seed for the forms."""
    n = draw(st.integers(1, 16))
    evals = [draw(st.floats(0.1, 10.0))]
    for _ in range(n - 1):
        step = draw(st.sampled_from(["equal", "inside", "apart"]))
        if step == "apart":
            # close but distinct down to ten times the gap
            evals.append(evals[-1] * (1.0 + 10.0 ** draw(st.floats(-6.0, 0.0))))
        else:
            # within the gap, well under it so the chain stays narrow
            evals.append(evals[-1] * (1.0 + (0.0 if step == "equal" else 1e-9)))
    return evals, draw(st.integers(0, 2**32 - 1))


class TestForms:
    """The forms route against a dense ``eigh`` of F in the first form's
    frame, at n <= 16 and always at n = 1."""

    @settings(max_examples=60, deadline=None)
    @given(form_spectra())
    @example(([1.5], 0))
    def test_matches_dense_eigh(self, case):
        evals, seed = case
        h1, h2 = forms_with_spectrum(evals, np.random.default_rng(seed))
        op = transfer_operator(h1, h2)
        w, _ = hermitian_frame(h1.h)
        f_w = w.conj().T @ h2.h @ w
        dense = np.linalg.eigvalsh(0.5 * (f_w + f_w.conj().T))
        np.testing.assert_allclose(op.eigenvalues, dense, rtol=1e-12, atol=0.0)
        assert op.cluster_sizes == tuple(
            m for _, m in cluster_eigenvalues(dense, DEFAULT_TOL.cluster_gap))
        np.testing.assert_allclose(op.eigenvectors.conj().T @ h1.h @ op.eigenvectors,
                                   np.eye(len(evals)), atol=1e-12)


def conditioned_forms(seed, c, n=6):
    """Forms h1 = Q diag(logspace(0, log10 c, n)) Q^H of condition number
    c, Q a seeded random unitary, and h2 = A A^H + n I, A complex
    Gaussian."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (q * np.logspace(0.0, np.log10(c), n)) @ q.conj().T, a @ a.conj().T + n * np.eye(n)


class TestConditionedForms:
    """Valid forms with cond(h1) up to 1e8 pass, with the eigenvalues of a
    dense generalized ``eigh`` to eps cond(h1): the realified route judged
    the rounding of the realification and refused 14 of these 20 at 1e7,
    and all 20 at 1e8."""

    @pytest.mark.parametrize("c", [1e6, 1e7, 1e8])
    def test_every_form_passes(self, c):
        for seed in range(20):
            h1, h2 = conditioned_forms(seed, c)
            op = transfer_operator(h1, h2)
            np.testing.assert_allclose(op.eigenvalues, scipy.linalg.eigh(h2, h1, eigvals_only=True),
                                       rtol=1e-15 * c, atol=0.0)


class TestRealifiedRoute:
    """No input goes from pass to refusal: every pair of forms that the
    retired realified route (``loop_oracle.realified_transfer_operator``)
    accepts, the forms route accepts, with the same clusters and
    eigenvalues within ``rtol``."""

    @staticmethod
    def accepted_alike(h1, h2, rtol):
        try:
            retired = realified_transfer_operator(h1, h2)
        except NumericalCheckError:
            return False
        op = transfer_operator(h1, h2)
        assert op.cluster_sizes == retired.cluster_sizes
        np.testing.assert_allclose(op.eigenvalues, retired.eigenvalues, rtol=rtol, atol=0.0)
        return True

    @settings(max_examples=60, deadline=None)
    @given(form_spectra())
    @example(([1.5], 0))
    @example(([1.0, 1.0, 1.0 + 1e-9, 2.0], 3))
    def test_form_spectra(self, case):
        evals, seed = case
        h1, h2 = forms_with_spectrum(evals, np.random.default_rng(seed))
        self.accepted_alike(h1.h, h2.h, 1e-12)

    def test_conditioned_forms(self):
        # both routes whiten h1, each to about eps cond(h1): they agree to
        # that, 1.8e-10 relative here
        c = 1e6
        assert all([self.accepted_alike(*conditioned_forms(seed, c), 1e-15 * c)
                    for seed in range(20)])
