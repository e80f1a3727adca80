"""Complexified picture: two Hermitian forms and their transfer operator.

Two positive-definite Hermitian forms h1, h2 on C^n (conjugate-linear in the
*first* argument throughout this module) determine a transfer operator F by

    (x, y)_2 = (F x, y)_1     i.e.     F = inv(H1) @ H2

as matrices.  F is self-adjoint for both forms, with positive spectrum; its
extreme eigenvalues give the best constants of the norm equivalence
``a * |x|_2 <= |x|_1 <= b * |x|_2``.

Operators unitary for both forms commute with F, so the bi-unitary group
lives in the commutant of F.  In the h1-orthonormal frame W of
:class:`HermitianForm` F is the Hermitian ``F_w = W^H @ H2 @ W``, whose
eigenvectors U give h1-orthonormal eigenvectors V = W U of F.  The
commutant is ``⊕ gl(p)``, spanned by ``V E_ab inv(V)`` with a and b in one
eigenvalue cluster of multiplicity p, and the bicommutant is spanned by the
clusters' spectral projectors; so their dimensions are the sum of the p^2
and the number of clusters, equal exactly when the spectrum is simple (the
genericity criterion).  Both are read off the cluster sizes; the
orthonormal bases are built only on request, each by one QR.

:func:`read_off_operator` reads the operator of a decomposed pair off its
blocks, with no eigensolve; forms given on their own go through
:func:`transfer_operator`, which certifies its spectral frame once, in
O(n^3).  :func:`complexify` turns a decomposition into two such forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .decomposition import BlockDecomposition, _chain_clusters
from .linalg import (
    DEFAULT_TOL,
    StructureError,
    Tolerance,
    as_matrix,
    frame_departure,
    frozen,
    op_norm,
    op_norms,
    orthonormal_span,
    symmetric_part,
    whitening,
)

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
    """Positive-definite Hermitian Gram matrix; value ``conj(x) @ h @ y``
    (conjugate-linear in the first argument).  Factored once, on validation,
    into an h-orthonormal ``frame`` W (``W^H @ h @ W = I``) and ``frame_inv``.
    """

    def __init__(self, h, tol: Tolerance = DEFAULT_TOL):
        h = as_matrix(h, "hermitian form", dtype=np.complex128)
        herm = symmetric_part(h, tol, "form", "hermitian_symmetric")
        self.frame, self.frame_inv = whitening(herm, tol, "form",
                                               "hermitian_positive_definite")
        self.h = frozen(herm)

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    def __repr__(self) -> str:
        return f"HermitianForm(dim={self.dim})"


@dataclass(frozen=True)
class TransferOperator:
    """Operator carrying one Hermitian form into the other, together with
    its spectral data (eigenvalues ascending, eigenvector columns
    orthonormal for the first form), the tolerance of its checks and the
    Hermitian ``matrix_w`` = F in the first form's frame, which the
    eigenvalues diagonalize.  ``block_sizes`` holds the cluster sizes of an
    operator read off a decomposition, which certified its spectral data
    (:func:`read_off_operator`), and is empty for one built from forms."""

    matrix: np.ndarray
    h1: HermitianForm
    h2: HermitianForm
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    tol: Tolerance
    matrix_w: np.ndarray
    block_sizes: tuple[int, ...] = ()

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def cluster_sizes(self) -> tuple[int, ...]:
        """Multiplicities of the eigenvalue clusters in ascending order: the
        ``block_sizes``, or else read once, on first use, after the
        spectral data pass :func:`_certify_spectrum`."""
        return self.block_sizes or _certify_spectrum(self)

    @cached_property
    def cluster_frames(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per eigenvalue cluster, the eigenvector columns V_c and the
        matching rows of inv(V) = V^H @ H1 (V is h1-orthonormal), built once,
        on first use."""
        v = self.eigenvectors
        v_inv = v.conj().T @ self.h1.h
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


def _certify_spectrum(op: TransferOperator) -> tuple[int, ...]:
    """Certify the spectral frame in h1's frame W; return the cluster sizes.

    With U = inv(W) V, e = |U^H U - I|, C the cluster midpoints of the
    eigenvalues Λ, |.| the row-sum norm and
    eta = 2 n^1.5 e (1 + e) / (1 - e)^2 * max(1, max Λ / |F_w|), it checks
    eta <= rel (unitarity), 2 |F_w - U Λ U^H| / |F_w| + eta <= rel
    (eigenpairs), that the eigenvalues chain into clusters no wider than
    cluster_gap by the one width rule, ``decomposition._chain_clusters``
    (a :class:`~biham.decomposition.DecompositionError` if not), and
    2 |F_w - U C U^H| / |F_w| + eta <= cluster_gap (spread).

    Implication: the commutant is {x = U M U^H}, M block-diagonal by
    cluster, and the bicommutant {y = U S U^H}, S constant per cluster (W
    carries both to the original coordinates by a similarity).  With
    E = U^H U - I,

        [F_w, x] = [F_w - U C U^H, x] + U (C E M - M E C) U^H,
        [F_w, y] = [F_w - U Λ U^H, y] + U (Λ E S - S E Λ) U^H,
        [y, x]   = U (S E M - M E S) U^H.

    Each last term is the frame term of :func:`linalg.frame_departure`
    with U for Q: in [y, x] both factors are elements, converted at
    sqrt(n) each, so it is at most eta |y| |x|; in the other two C or Λ
    enters directly, |C|_2 <= |Λ|_2 = max Λ, with one conversion, which
    the factor max(1, max Λ / |F_w|) covers.  So every element of the
    spans, not only of a basis, passes the element-wise check this
    replaces: |[F_w, x]| <= cluster_gap |F_w| |x|, |[F_w, y]| <= rel
    |F_w| |y| and |[y, x]| <= rel |y| |x|.  Rounding: ``eigh`` is backward
    stable (Golub & Van Loan, *Matrix Computations*, 4th ed., §8.1), so e
    and the eigenpair residual are O(n eps): eta is 1e-10 at n = 128.
    """
    tol, n = op.tol, op.dim
    f_w = op.matrix_w
    u = op.h1.frame_inv @ op.eigenvectors
    uh, lam = u.conj().T, op.eigenvalues
    sizes = tuple(m for _, m in _chain_clusters(lam, tol.cluster_gap,
                                                of="the transfer operator"))
    ends = np.cumsum([0, *sizes])
    mid = np.repeat(0.5 * (lam[ends[:-1]] + lam[ends[1:] - 1]), sizes)
    e, f_norm, pairs, clusters = op_norms([uh @ u - np.eye(n), f_w, f_w - (u * lam) @ uh,
                                           f_w - (u * mid) @ uh]).tolist()
    eta = frame_departure(e, n ** 1.5, max(1.0, float(lam[-1]) / f_norm))
    for check, what, value, bound in (
        ("unitary", "eigenvectors are not unitary", eta, tol.rel),
        ("eigenpairs", "eigenpairs do not reproduce it", 2.0 * pairs / f_norm + eta, tol.rel),
        ("cluster_spread", "eigenvalue clusters do not reproduce it within the cluster gap",
         2.0 * clusters / f_norm + eta, tol.cluster_gap),
    ):
        if not value <= bound:
            raise StructureError(f"transfer operator: {what} (residual {value:.3e})",
                                 check=f"transfer_{check}", residual=value)
    return sizes


def transfer_operator(h1: HermitianForm, h2: HermitianForm,
                      tol: Tolerance = DEFAULT_TOL) -> TransferOperator:
    """Build the transfer operator F = inv(H1) @ H2 of two Hermitian forms.

    In the first form's frame W, F reads ``F_w = W^H @ H2 @ W``.  Verifies
    that ``F_w`` is Hermitian (F is self-adjoint for the first form, and by
    ``H1 @ F = H2`` for the second), has positive spectrum, and that the
    reported F reproduces the second form, ``(x, y)_2 = (F x, y)_1``.
    """
    if not isinstance(h1, HermitianForm):
        h1 = HermitianForm(h1, tol)
    if not isinstance(h2, HermitianForm):
        h2 = HermitianForm(h2, tol)
    if h1.dim != h2.dim:
        raise ValueError(f"dimension mismatch: {h1.dim} vs {h2.dim}")
    f_w = symmetric_part(h1.frame.conj().T @ h2.h @ h1.frame, tol,
                         "transfer operator in the first form's frame", "transfer_self_adjoint")
    evals, vecs = np.linalg.eigh(f_w)
    if evals[0] <= 0:
        raise StructureError(
            f"transfer operator spectrum is not positive (min {evals[0]:.3e})",
            check="transfer_positive", residual=float(evals[0]),
        )
    f = h1.frame @ f_w @ h1.frame_inv
    resid, n_h1, n_f = op_norms([h1.h @ f - h2.h, h1.h, f]).tolist()
    if not resid <= tol.threshold(n_h1, n_f):
        raise StructureError(
            f"transfer identity H1 @ F = H2 fails (residual {resid:.3e})",
            check="transfer_identity", residual=resid,
        )
    return TransferOperator(frozen(f), h1, h2, frozen(evals), frozen(h1.frame @ vecs), tol,
                            frozen(f_w))


def read_off_operator(d: BlockDecomposition) -> TransferOperator:
    """The transfer operator of a decomposed pair, with no eigensolve and
    no spectral certificate of its own: on the axes C of the adapted frame
    (:func:`complexify`'s coordinates) h1 = I and h2 = diag(lambda), each
    block's lambda once per complex dimension, as ``decompose`` certified,
    so F = diag(lambda), its eigenvectors are the identity and its clusters
    the blocks of equal lambda (both signs of a cluster share its mean)."""
    lam = frozen(np.repeat([b.eigenvalue for b in d.blocks], [b.dim // 2 for b in d.blocks]))
    h1, h2 = object.__new__(HermitianForm), object.__new__(HermitianForm)
    for form, w in ((h1, np.ones_like(lam)), (h2, lam)):
        # a diagonal form is factored with no eigensolve: its frame is diag(w^-1/2)
        root = np.sqrt(w + 0j)
        form.h, form.frame, form.frame_inv = (frozen(np.diag(x)) for x in (w + 0j, 1 / root, root))
    return TransferOperator(h2.h, h1, h2, lam, h1.h, d.tol, h2.h,
                            tuple(np.unique(lam, return_counts=True)[1].tolist()))


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
    return sum(p * p for p in op.cluster_sizes)


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
    for name, h in (("first", op.h1.h), ("second", op.h2.h)):
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
