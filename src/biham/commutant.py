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
blocks, with no eigensolve; forms given on their own stay in C^n:
:func:`transfer_operator` takes one ``eigh`` of F in the first form's
frame and judges it by the rules the pair route applies to G, its
positivity threshold and ``decompose``'s one rule of eigenvalue equality.
:func:`complexify` turns a decomposition into two such forms.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .decomposition import BlockDecomposition, _chain_clusters
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
    """Positive-definite Hermitian Gram matrix ``h``; value ``conj(x) @ h @
    y`` (conjugate-linear in the first argument).  Factored once, on
    validation, by one complex ``eigh`` into an h-orthonormal ``frame`` W
    (``W^H @ h @ W = I``) and ``frame_inv``, positive-definite by the
    threshold rule of a real metric, ``metric_positive_definite``; a
    refusal names the Hermitian form.
    """

    def __init__(self, h, tol: Tolerance = DEFAULT_TOL):
        self.h = symmetric_part(h, tol, "hermitian form", "hermitian_symmetric",
                                dtype=np.complex128)
        self.frame, self.frame_inv = whitening(self.h, tol, "hermitian form",
                                               "metric_positive_definite")

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
    eigenvalue clusters, ascending, by ``decompose``'s one rule of
    eigenvalue equality: read off the blocks of a decomposition
    (:func:`read_off_operator`) or off the eigenvalues of one ``eigh``
    (:func:`transfer_operator`)."""

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


def transfer_operator(h1: HermitianForm, h2: HermitianForm,
                      tol: Tolerance = DEFAULT_TOL) -> TransferOperator:
    """Build the transfer operator F = inv(H1) @ H2 of two Hermitian forms
    by one ``eigh`` of F_w = W^H @ H2 @ W = U diag(lambda) U^H in the first
    form's frame W, where F reads ``W @ F_w @ inv(W)``: its eigenvectors V =
    W U are h1-orthonormal.

    Each form was factored once, when it was validated, and is judged no
    further.  The pair route's rules judge F_w as they judge G in t1's
    frame (:func:`~biham.compatibility.check_compatible`): non-finite
    entries, where the forms' scales lie far apart, fail ``G_finite``, and a
    spectrum with min lambda <= rel max lambda fails ``G_positive_spectrum``,
    each a :class:`StructureError`.  The eigenvalues chain into clusters by
    ``decompose``'s one rule of eigenvalue equality; a cluster wider than
    ``cluster_gap`` raises :class:`~biham.decomposition.DecompositionError`.
    Both complex structures are multiplication by -i, so realifying the
    forms into a compatible pair would add no fact, only rounding; that
    route is kept as an oracle in ``tests/loop_oracle.py``.
    """
    h1, h2 = [h if isinstance(h, HermitianForm) else HermitianForm(h, tol) for h in (h1, h2)]
    if h1.dim != h2.dim:
        raise ValueError(f"dimension mismatch: {h1.dim} vs {h2.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        f_w = h1.frame.conj().T @ h2.h @ h1.frame
    if not np.isfinite(f_w).all():
        raise StructureError("transfer operator is not finite in the first form's frame",
                             check="G_finite", residual=np.inf)
    lam, u = np.linalg.eigh(f_w)
    if not lam[0] > tol.rel * lam[-1]:
        raise StructureError(
            f"transfer operator spectrum is not positive (min eigenvalue {lam[0]:.3e} "
            f"of max {lam[-1]:.3e})", check="G_positive_spectrum", residual=float(lam[0]))
    sizes = tuple([count for _, count in _chain_clusters(lam.tolist(), tol.cluster_gap,
                                                         "; give a smaller cluster_gap")])
    f = frozen(h1.frame @ f_w @ h1.frame_inv, copy=False)
    return TransferOperator(f, h1.h, h2.h, frozen(lam, copy=False),
                            frozen(h1.frame @ u, copy=False), tol, sizes)


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


def complexify(d: BlockDecomposition) -> tuple[HermitianForm, HermitianForm]:
    """Turn the block decomposition of a compatible real pair into two
    Hermitian forms on C^n.

    The first complex structure defines the multiplication by i; on the
    axes C of the decomposition's frame ``frame_w``, orthonormal in t1's
    g1-orthonormal frame, the first form becomes the identity.  The second
    form is assembled per coordinate, by its ``coordinate_sign``, as
    g2 - i * omega2 where the complex structures agree and as the
    conjugate g2 + i * omega2 where they are opposite (conjugation restores
    sesquilinearity there without changing the bi-unitary group).  Returns
    the two forms; the sign applied to each complex coordinate is the
    decomposition's ``coordinate_sign``.
    """
    p = d.pair
    cols, sign_rows = d.frame_w[:, :p.dim // 2], d.coordinate_sign[:, None]

    def form_matrix(g: np.ndarray, w: np.ndarray) -> np.ndarray:
        gm = cols.T @ g @ cols
        wm = cols.T @ w @ cols
        return gm - 1j * sign_rows * wm

    h1 = HermitianForm(form_matrix(np.eye(p.dim), p.t1.j_w), d.tol)
    h2 = HermitianForm(form_matrix(p.metric_operator_w, p.omega2_w), d.tol)
    return h1, h2
