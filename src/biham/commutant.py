"""Complexified picture: two Hermitian forms and their transfer operator.

Two positive-definite Hermitian forms h1, h2 on C^n (conjugate-linear in the
*first* argument throughout this module) determine a transfer operator F by

    (x, y)_2 = (F x, y)_1     i.e.     F = inv(H1) @ H2

as matrices.  F is self-adjoint for both forms, with positive spectrum; its
extreme eigenvalues give the best constants of the norm equivalence
``a * |x|_2 <= |x|_1 <= b * |x|_2``.

Operators unitary for both forms commute with F, so the bi-unitary group
lives in the commutant of F.  In the h1-orthonormal frame W of
:class:`HermitianForm` F is the Hermitian matrix ``W^H @ H2 @ W``, whose
eigenvectors U give h1-orthonormal eigenvectors V = W U of F (so
inv(V) = V^H @ H1).  That gives both spaces from the spectral data
directly: the commutant is spanned by V E_ab inv(V) with a
and b in one eigenvalue cluster (dimension: the sum of the squared
multiplicities), the bicommutant by the spectral projectors of the clusters
(dimension: the number of distinct eigenvalues).  Each basis is
orthonormalized by one QR; every commutant element is checked to commute
with F, every bicommutant element with F, and the bicommutant with the
whole commutant through the biorthogonality of the cluster frames.
That costs O(n^3 + k n^2) for k basis elements, plus O(k^2 n^2) for the QR
and O(k n^3) for the checks, instead of the O(n^6) time and O(n^4) memory
of Kronecker/SVD null spaces.  The two dimensions agree exactly when the
spectrum is simple, which is the genericity criterion for the pair of
forms.  The :class:`TransferOperator` carries its tolerance and builds its
cluster frames and commutant basis once, on first use, for every function
here.

:func:`complexify` bridges from the real picture: the block decomposition
of a compatible pair of real triples becomes a pair of Hermitian forms on
C^n using the first complex structure for the multiplication.  On blocks
where the two complex structures are opposite, the second form is
conjugated to restore sesquilinearity; that leaves the bi-unitary group
unchanged.  Eigenvalues of the resulting transfer operator reproduce the
block eigenvalues of the real decomposition, one copy per complex
dimension of the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .decomposition import BlockDecomposition
from .linalg import (
    DEFAULT_TOL,
    StructureError,
    Tolerance,
    as_matrix,
    cluster_eigenvalues,
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
    orthonormal for the first form) and the tolerance of its checks."""

    matrix: np.ndarray
    h1: HermitianForm
    h2: HermitianForm
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    tol: Tolerance

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def cluster_frames(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per eigenvalue cluster, the eigenvector columns V_c and the
        matching rows of inv(V) = V^H @ H1 (V is h1-orthonormal), built once,
        on first use."""
        v = self.eigenvectors
        v_inv = v.conj().T @ self.h1.h
        sizes = [m for _, m in cluster_eigenvalues(self.eigenvalues, self.tol.cluster_gap)]
        ends = np.cumsum([0] + sizes)
        return tuple((frozen(v[:, a:b]), frozen(v_inv[a:b])) for a, b in zip(ends, ends[1:]))

    @cached_property
    def commutant_basis(self) -> np.ndarray:
        """Orthonormal basis (stacked k x n x n) of all complex matrices
        commuting with the operator, built once, on first use.

        Spanned by ``V E_ab inv(V)`` for eigenvector indices a, b in the
        same eigenvalue cluster (``⊕ gl(p)``, one factor per cluster of
        multiplicity p).  Every element is verified to commute with F up to
        the cluster tolerance, the eigenvalue spread a cluster may carry.
        """
        gens = [np.einsum("ia,bj->abij", vc, vc_inv).reshape(-1, self.dim, self.dim)
                for vc, vc_inv in self.cluster_frames]
        basis = orthonormal_span(np.concatenate(gens), self.tol.rel)
        _check_commutes(basis, [self.matrix], self.tol.cluster_gap, "commutant")
        return frozen(basis)


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
                         "transfer operator in the first form's frame",
                         "transfer_self_adjoint")
    evals, vecs = np.linalg.eigh(f_w)
    if evals[0] <= 0:
        raise StructureError(
            f"transfer operator spectrum is not positive (min {evals[0]:.3e})",
            check="transfer_positive", residual=float(evals[0]),
        )
    f = h1.frame @ f_w @ h1.frame_inv
    resid = op_norm(h1.h @ f - h2.h)
    if not resid <= tol.threshold(h1.h, f):
        raise StructureError(
            f"transfer identity H1 @ F = H2 fails (residual {resid:.3e})",
            check="transfer_identity", residual=resid,
        )
    return TransferOperator(frozen(f), h1, h2, frozen(evals), frozen(h1.frame @ vecs), tol)


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


def _check_commutes(elements: np.ndarray, against, allowance: float,
                    what: str) -> None:
    """Raise unless every element commutes with every matrix in ``against``:
    the residual |[a, x]| must stay within ``allowance * |a| * |x|``."""
    elem_norms = op_norms(elements)
    for a in against:
        comm = a @ elements - elements @ a
        resid = op_norms(comm) / (op_norm(a) * elem_norms)
        worst = float(resid.max())
        if worst > allowance:
            raise StructureError(
                f"{what} element fails to commute (relative residual {worst:.3e})",
                check=f"{what}_commutes", residual=worst,
            )


def commutant_dim(op: TransferOperator) -> int:
    """Complex dimension of the commutant: the sum of the squared
    eigenvalue multiplicities."""
    return len(op.commutant_basis)


def bicommutant_basis(op: TransferOperator) -> np.ndarray:
    """Orthonormal basis of the joint commutant of the whole commutant.

    Spanned by the spectral projectors ``V_c inv(V)_c`` of the eigenvalue
    clusters of F.  Every element is verified to commute with F, and the
    whole bicommutant with the whole commutant by one check of the
    biorthogonality of the cluster frames (:func:`_commutation_bound`).
    Where that bound is inconclusive, every element is checked against
    every element of the operator's commutant basis instead.
    """
    projectors = np.array([vc @ vc_inv for vc, vc_inv in op.cluster_frames])
    basis = orthonormal_span(projectors, op.tol.rel)
    _check_commutes(basis, [op.matrix], op.tol.rel, "bicommutant")
    if not _commutation_bound(op) <= op.tol.rel:
        _check_commutes(op.commutant_basis, basis, op.tol.rel, "bicommutant")
    return basis


def _commutation_bound(op: TransferOperator) -> float:
    """Bound on ``|[x, a]| / (|x| |a|)`` over every element x of the
    bicommutant and a of the commutant, from one O(n^3) product.

    With V the eigenvector columns and U = inv(V) the rows of the cluster
    frames, let D = U V - I and kappa = |V| |U|.  A commutant element is
    a = V M U with M block-diagonal by cluster and a bicommutant element
    x = V S U with S constant on each cluster, so SM = MS and

        [x, a] = V (S D M - M D S) U.

    Since V S = x V inv(I + D) and M U = inv(I + D) U a, each term is at
    most kappa |D| / (1 - |D|)^2 |x| |a|: the bound is twice that.  The
    computed D is within n eps kappa of the exact one (dot products of
    length n), which ``delta`` adds.  So a bound at most ``rel`` implies
    the element-wise check this replaces, for the whole spans; that check
    formed each commutator in floating point, which adds O(n eps) |x| |a|
    of rounding, and O(n eps) more for the QR's departure of the bases
    from these forms, both far below ``rel``.  The frames are
    biorthogonal when U V = I, which is when D and the bound are 0.
    """
    vs, v_invs = zip(*op.cluster_frames)
    v, v_inv = np.hstack(vs), np.vstack(v_invs)
    kappa = op_norm(v) * op_norm(v_inv)
    delta = op_norm(v_inv @ v - np.eye(op.dim)) + op.dim * np.finfo(float).eps * kappa
    return 2.0 * kappa * delta / (1.0 - delta) ** 2 if delta < 1.0 else math.inf


def bicommutant_dim(op: TransferOperator) -> int:
    """Complex dimension of the bicommutant: the number of distinct
    eigenvalue clusters of F (the minimal-polynomial degree of a
    diagonalizable operator), one spectral projector each."""
    return len(bicommutant_basis(op))


def is_generic_operator(op: TransferOperator) -> bool:
    """Genericity of the pair of forms: bicommutant equals commutant.

    Equivalent to all eigenvalue clusters of the transfer operator being
    simple, since the sum of the squared multiplicities equals the number
    of clusters exactly when every multiplicity is one.
    """
    return commutant_dim(op) == bicommutant_dim(op)


def biunitary_sample(op: TransferOperator, poly_coeffs, t: float) -> np.ndarray:
    """Sample of the bi-unitary family exp(i * f(F) * t) for a real
    polynomial f (coefficients in ascending order).

    Computed spectrally from the operator's cluster frames; the result is
    verified to preserve both Hermitian forms.
    """
    coeffs = np.asarray(poly_coeffs, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("poly_coeffs must be a non-empty 1-d real sequence")
    t = float(t)
    vals = np.polynomial.polynomial.polyval(op.eigenvalues, coeffs)
    phases = np.exp(1j * vals * t)
    vs, v_invs = zip(*op.cluster_frames)
    u = (np.hstack(vs) * phases) @ np.vstack(v_invs)
    for name, h in (("first", op.h1.h), ("second", op.h2.h)):
        resid = op_norm(u.conj().T @ h @ u - h)
        if not resid <= op.tol.threshold(u, h, u):
            raise StructureError(
                f"sample fails unitarity for the {name} form (residual {resid:.3e})",
                check="biunitary_sample", residual=resid,
            )
    return u


def complexify(d: BlockDecomposition) -> tuple[HermitianForm, HermitianForm, tuple[int, ...]]:
    """Turn the block decomposition of a compatible real pair into two
    Hermitian forms on C^n.

    The first complex structure defines the multiplication by i; in the
    decomposition's adapted frame, orthonormal in t1's g1-orthonormal
    frame, the first form becomes the identity.  The second form is assembled blockwise as g2 - i * omega2 on
    blocks where the complex structures agree and as the conjugate
    g2 + i * omega2 where they are opposite (conjugation restores
    sesquilinearity there without changing the bi-unitary group).  Returns
    the two forms and the sign applied to each complex coordinate.
    """
    p = d.pair
    cols, signs = d.adapted_frame
    sign_rows = np.array(signs, dtype=float)[:, None]

    def form_matrix(g: np.ndarray, w: np.ndarray) -> np.ndarray:
        gm = cols.T @ g @ cols
        wm = cols.T @ w @ cols
        return gm - 1j * sign_rows * wm

    h1 = HermitianForm(form_matrix(np.eye(p.dim), p.t1.j_w), d.tol)
    h2 = HermitianForm(form_matrix(p.metric_operator_w, p.omega2_w), d.tol)
    return h1, h2, signs
