"""Complexified picture: two Hermitian forms and their transfer operator.

Two positive-definite Hermitian forms h1, h2 on C^n (conjugate-linear in the
*first* argument throughout this module) determine a transfer operator F by

    (x, y)_2 = (F x, y)_1     i.e.     F = inv(H1) @ H2

as matrices.  F is self-adjoint for both forms, with positive spectrum; its
extreme eigenvalues give the best constants of the norm equivalence
``a * |x|_2 <= |x|_1 <= b * |x|_2``.

Operators unitary for both forms commute with F, so the bi-unitary group
lives in the commutant of F.  F has h1-orthonormal eigenvectors V.  The
commutant is ``⊕ gl(p)``, spanned by ``V E_ab inv(V)`` with a and b in one
eigenvalue cluster of multiplicity p, and the bicommutant is spanned by the
clusters' spectral projectors; so their dimensions are the sum of the p^2
and the number of clusters, equal exactly when the spectrum is simple (the
genericity criterion).  Both are read off the cluster sizes; the
orthonormal bases are built only on request, each by one QR.

:func:`read_off_operator` reads the operator of a decomposed pair off its
blocks, with no eigensolve; forms given on their own go through
:func:`transfer_operator`, which realifies them into a compatible pair and
reads its operator off that pair's decomposition, so every spectral fact
has one route and one certificate, ``decompose``'s.  :func:`complexify`
turns a decomposition into two such forms.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .compatibility import check_compatible
from .decomposition import BlockDecomposition, decompose
from .linalg import (
    DEFAULT_TOL,
    Record,
    StructureError,
    Tolerance,
    frozen,
    op_norm,
    op_norms,
    orthonormal_span,
    symmetric_part,
)
from .structures import MetricTensor, ViolationReport, check_admissible

__all__ = [
    "HermitianForm",
    "TransferOperator",
    "transfer_operator",
    "read_off_operator",
    "norm_bounds",
    "commutant_dim",
    "bicommutant_basis",
    "bicommutant_dim",
    "is_generic_operator",
    "biunitary_sample",
    "complexify",
]


class HermitianForm:
    """Positive-definite Hermitian Gram matrix ``h``; value ``conj(x) @ h @
    y`` (conjugate-linear in the first argument).  Factored once, on
    validation, as the :class:`~biham.structures.MetricTensor` ``metric`` of
    its realification g = [[A, -B], [B, A]] (h = A + iB, x = a + ib read as
    (a, b)): g has h's spectrum with every eigenvalue twice, so the metric's
    own check, ``metric_positive_definite``, judges h's positivity, and a
    refusal names the Hermitian form.
    """

    def __init__(self, h, tol: Tolerance = DEFAULT_TOL):
        self.h = symmetric_part(h, tol, "hermitian form", "hermitian_symmetric",
                                dtype=np.complex128)
        a, b = self.h.real, self.h.imag
        try:
            self.metric = MetricTensor(np.block([[a, -b], [b, a]]), tol)
        except StructureError as err:
            # g is exactly symmetric, so only its positivity can fail
            raise StructureError(
                f"hermitian form is not positive-definite (min eigenvalue {err.residual:.3e})",
                check=err.check, residual=err.residual) from None

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    def __repr__(self) -> str:
        return f"HermitianForm(dim={self.dim})"


class TransferOperator(Record):
    """Operator carrying one Hermitian form into the other, together with
    the two forms' read-only Hermitian matrices ``h1`` and ``h2``, validated
    by the entry point that built the operator, its spectral data
    (eigenvalues ascending, eigenvector columns orthonormal for the first
    form), the tolerance of its checks and the multiplicities of its
    eigenvalue clusters, ascending, read off the blocks of the
    decomposition that certified the spectral data
    (:func:`read_off_operator`, :func:`transfer_operator`)."""

    matrix: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    tol: Tolerance
    cluster_sizes: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def cluster_frames(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per eigenvalue cluster, the eigenvector columns V_c and the
        matching rows of inv(V) = V^H @ H1 (V is h1-orthonormal), built once,
        on first use."""
        v = self.eigenvectors
        v_inv = v.conj().T @ self.h1
        ends = np.cumsum([0, *self.cluster_sizes])
        return tuple((frozen(v[:, a:b]), frozen(v_inv[a:b])) for a, b in zip(ends, ends[1:]))

    @cached_property
    def commutant_basis(self) -> np.ndarray:
        """Orthonormal basis (stacked k x n x n) of the commutant, spanned
        by ``V E_ab inv(V)`` for a, b in one eigenvalue cluster; built on
        request, once, by one QR."""
        gens = [np.einsum("ia,bj->abij", vc, vc_inv).reshape(-1, self.dim, self.dim)
                for vc, vc_inv in self.cluster_frames]
        return frozen(orthonormal_span(np.concatenate(gens), self.tol.rel))


def _passed(result):
    """A pipeline stage's result, or the :class:`StructureError` naming the
    first check of its :class:`ViolationReport`."""
    if isinstance(result, ViolationReport):
        first = result.violations[0]
        raise StructureError(str(result), check=first.name, residual=first.residual)
    return result


def transfer_operator(h1: HermitianForm, h2: HermitianForm,
                      tol: Tolerance = DEFAULT_TOL) -> TransferOperator:
    """Build the transfer operator F = inv(H1) @ H2 of two Hermitian forms,
    with no eigensolve and no certificate of its own.

    Each form h = A + iB realifies into the triple of its ``metric`` g =
    [[A, -B], [B, A]] and omega = [[B, A], [-A, B]] on R^2n (h = g + i
    omega), whose complex structure is multiplication by -i for both: the
    triples are a compatible pair with every sign +, T_c is F in J1's
    complex coordinates, and :func:`~biham.decomposition.decompose`
    certifies its spectrum.  Each metric was factored once, when its form
    was validated, and is judged no further.  The operator is
    :func:`read_off_operator`'s, its clusters the blocks, carried back to
    C^n: the eigenvectors V are the axes C of the adapted frame read as
    complex vectors, h1-orthonormal as [C, D] is g1-orthonormal, the
    eigenvalues the axes' own |mu| (``coordinate_lambda``), and F is read
    off the pair's G = inv(g1) g2, the realified F [[Re F, -Im F], [Im F,
    Re F]].  A form, a triple or a pair that fails a check raises
    :class:`StructureError` naming the first; a cluster wider than
    ``cluster_gap`` raises :class:`~biham.decomposition.DecompositionError`.
    """
    h1, h2 = [h if isinstance(h, HermitianForm) else HermitianForm(h, tol) for h in (h1, h2)]
    if h1.dim != h2.dim:
        raise ValueError(f"dimension mismatch: {h1.dim} vs {h2.dim}")
    t1, t2 = [_passed(check_admissible(h.metric, np.block([[h.h.imag, h.h.real],
                                                           [-h.h.real, h.h.imag]]), tol))
              for h in (h1, h2)]
    d = decompose(_passed(check_compatible(t1, t2, tol)))
    n, big_g = h1.dim, d.pair.metric_operator
    axes = t1.g.frame @ d.frame_w[:, :n]
    v = frozen(axes[:n] + 1j * axes[n:], copy=False)
    f = frozen(big_g[:n, :n] + 1j * big_g[n:, :n], copy=False)
    return read_off_operator(d).replace(matrix=f, h1=h1.h, h2=h2.h,
                                        eigenvalues=d.coordinate_lambda, eigenvectors=v)


def read_off_operator(d: BlockDecomposition) -> TransferOperator:
    """The transfer operator of a decomposed pair, with no eigensolve and
    no spectral certificate of its own: on the axes C of the adapted frame
    (:func:`complexify`'s coordinates) h1 = I and h2 = diag(lambda), each
    block's lambda once per complex dimension, as ``decompose`` certified,
    so F = h2, its eigenvectors are the identity and its clusters the
    blocks of equal lambda (both signs of a cluster share its mean).  The
    forms are the plain read-only matrices I and diag(lambda), no
    :class:`HermitianForm`: the pair they come from was validated and
    decomposed already."""
    ranks = {}
    for b in d.blocks:  # both signs of a cluster share its mean
        ranks[b.eigenvalue] = ranks.get(b.eigenvalue, 0) + b.dim // 2
    lam = frozen(np.repeat(list(ranks), list(ranks.values())), copy=False)
    eye = frozen(np.eye(len(lam), dtype=np.complex128), copy=False)
    f = frozen(np.diag(lam + 0j), copy=False)
    return TransferOperator(f, eye, f, lam, eye, d.tol, tuple(ranks.values()))


def norm_bounds(op: TransferOperator) -> tuple[float, float]:
    """Best constants (a, b) of the norm equivalence
    ``a * |x|_2 <= |x|_1 <= b * |x|_2``.

    Since ``|x|_2^2 = (F x, x)_1`` ranges over the spectrum of F times
    ``|x|_1^2``, the constants are a = 1/sqrt(max eigenvalue) and
    b = 1/sqrt(min eigenvalue); they bound the operator norm of F through
    ``1/b^2 <= |F|_1 <= 1/a^2`` (the right bound is attained).
    """
    lam_min = float(op.eigenvalues[0])
    lam_max = float(op.eigenvalues[-1])
    a = 1.0 / np.sqrt(lam_max)
    b = 1.0 / np.sqrt(lam_min)
    return a, b


def commutant_dim(op: TransferOperator) -> int:
    """Complex dimension of the commutant: the sum of the squared
    eigenvalue multiplicities, read from the certified cluster sizes."""
    return sum([p * p for p in op.cluster_sizes])


def bicommutant_basis(op: TransferOperator) -> np.ndarray:
    """Orthonormal basis of the joint commutant of the whole commutant,
    spanned by the spectral projectors ``V_c inv(V)_c`` of the eigenvalue
    clusters of F; built by one QR."""
    projectors = np.array([vc @ vc_inv for vc, vc_inv in op.cluster_frames])
    return orthonormal_span(projectors, op.tol.rel)


def bicommutant_dim(op: TransferOperator) -> int:
    """Complex dimension of the bicommutant: the number of distinct
    eigenvalue clusters of F (the minimal-polynomial degree of a
    diagonalizable operator), one spectral projector each."""
    return len(op.cluster_sizes)


def is_generic_operator(op: TransferOperator) -> bool:
    """Genericity of the pair of forms: bicommutant equals commutant, that
    is, every eigenvalue cluster of the transfer operator is simple."""
    return commutant_dim(op) == bicommutant_dim(op)


def biunitary_sample(op: TransferOperator, poly_coeffs, t: float) -> np.ndarray:
    """Sample of the bi-unitary family exp(i * f(F) * t) for a real
    polynomial f (coefficients in ascending order).

    Computed spectrally from the operator's cluster frames; the result is
    verified to preserve both Hermitian forms.  Arguments whose phases
    f(lambda) * t leave the floating-point range raise ``ValueError``.
    """
    coeffs = np.asarray(poly_coeffs, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.size == 0 or not np.isfinite(coeffs).all():
        raise ValueError("poly_coeffs must be a non-empty 1-d finite real sequence")
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        args = np.polynomial.polynomial.polyval(op.eigenvalues, coeffs) * t
    if not np.isfinite(args).all():
        raise ValueError(f"poly_coeffs and time {t!r} give phases f(F) * t beyond "
                         "the floating-point range")
    phases = np.exp(1j * args)
    vs, v_invs = zip(*op.cluster_frames)
    u = (np.hstack(vs) * phases) @ np.vstack(v_invs)
    n_u = op_norm(u)
    for name, h in (("first", op.h1), ("second", op.h2)):
        resid, n_h = op_norms([u.conj().T @ h @ u - h, h]).tolist()
        if not resid <= op.tol.threshold(n_u, n_h, n_u):
            raise StructureError(
                f"sample fails unitarity for the {name} form (residual {resid:.3e})",
                check="biunitary_sample", residual=resid,
            )
    return u


def complexify(d: BlockDecomposition) -> tuple[HermitianForm, HermitianForm, tuple[int, ...]]:
    """Turn the block decomposition of a compatible real pair into two
    Hermitian forms on C^n.

    The first complex structure defines the multiplication by i; on the
    axes C of the decomposition's frame ``frame_w``, orthonormal in t1's
    g1-orthonormal frame, the first form becomes the identity.  The second
    form is assembled per coordinate, by its ``coordinate_sign``, as
    g2 - i * omega2 where the complex structures agree and as the
    conjugate g2 + i * omega2 where they are opposite (conjugation restores
    sesquilinearity there without changing the bi-unitary group).  Returns
    the two forms and the sign applied to each complex coordinate.
    """
    p = d.pair
    cols, sign_rows = d.frame_w[:, :p.dim // 2], d.coordinate_sign[:, None]

    def form_matrix(g: np.ndarray, w: np.ndarray) -> np.ndarray:
        gm = cols.T @ g @ cols
        wm = cols.T @ w @ cols
        return gm - 1j * sign_rows * wm

    h1 = HermitianForm(form_matrix(np.eye(p.dim), p.t1.j_w), d.tol)
    h2 = HermitianForm(form_matrix(p.metric_operator_w, p.omega2_w), d.tol)
    return h1, h2, tuple(d.coordinate_sign.tolist())
