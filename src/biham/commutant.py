"""Complexified picture: two Hermitian forms and their transfer operator.

Two positive-definite Hermitian forms h1, h2 on C^n (conjugate-linear in the
*first* argument throughout this module) determine a transfer operator F by

    (x, y)_2 = (F x, y)_1     i.e.     F = inv(H1) @ H2

as matrices.  F is self-adjoint for both forms, with positive spectrum; its
extreme eigenvalues give the best constants of the norm equivalence
``a * |x|_2 <= |x|_1 <= b * |x|_2``.

Operators unitary for both forms commute with F, so the bi-unitary group
lives in the commutant of F.  F is diagonalized by h1-orthonormal
eigenvectors V (so inv(V) = V^H @ H1), which gives both spaces from the
spectral data directly: the commutant is spanned by V E_ab inv(V) with a
and b in one eigenvalue cluster (dimension: the sum of the squared
multiplicities), the bicommutant by the spectral projectors of the clusters
(dimension: the number of distinct eigenvalues).  Each basis is
orthonormalized by one QR; every commutant element is checked to commute
with F, every bicommutant element with F and with the whole commutant.
That costs O(n^3 + k n^2) for k basis elements, plus O(k^2 n^2) for the QR
and O(k n^3) for the checks, instead of the O(n^6) time and O(n^4) memory
of Kronecker/SVD null spaces.  The two dimensions agree exactly when the
spectrum is simple, which is the genericity criterion for the pair of
forms.

:func:`complexify` bridges from the real picture: a compatible pair of real
triples becomes a pair of Hermitian forms on C^n using the first complex
structure for the multiplication.  On blocks where the two complex
structures are opposite, the second form is conjugated to restore
sesquilinearity; that leaves the bi-unitary group unchanged.  Eigenvalues of
the resulting transfer operator reproduce the block eigenvalues of the real
decomposition, one copy per complex dimension of the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .compatibility import CompatiblePair
from .decomposition import adapted_frame, decompose
from .linalg import (
    DEFAULT_TOL,
    StructureError,
    Tolerance,
    as_complex_matrix,
    cluster_eigenvalues,
    frozen,
    op_norm,
    orthonormal_span,
    scale_of,
)

__all__ = [
    "HermitianForm",
    "TransferOperator",
    "transfer_operator",
    "norm_bounds",
    "commutant_basis",
    "commutant_dim",
    "bicommutant_basis",
    "bicommutant_dim",
    "is_generic_operator",
    "biunitary_sample",
    "complexify",
]


class HermitianForm:
    """Positive-definite Hermitian Gram matrix; value ``conj(x) @ h @ y``
    (conjugate-linear in the first argument)."""

    def __init__(self, h, tol: Tolerance = DEFAULT_TOL):
        h = as_complex_matrix(h, "hermitian form")
        resid = op_norm(h - h.conj().T)
        if resid > tol.rel * scale_of(h):
            raise StructureError(
                f"form is not conjugate-symmetric (residual {resid:.3e})",
                check="hermitian_symmetric", residual=resid,
            )
        herm = 0.5 * (h + h.conj().T)
        w = np.linalg.eigvalsh(herm)
        if w[0] <= tol.rel * scale_of(herm):
            raise StructureError(
                f"form is not positive-definite (min eigenvalue {w[0]:.3e})",
                check="hermitian_positive_definite", residual=float(w[0]),
            )
        self.h = frozen(herm)

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    def __repr__(self) -> str:
        return f"HermitianForm(dim={self.dim})"


@dataclass(frozen=True)
class TransferOperator:
    """Operator carrying one Hermitian form into the other, together with
    its spectral data: eigenvalues ascending, eigenvector columns
    orthonormal for the first form."""

    matrix: np.ndarray
    h1: HermitianForm
    h2: HermitianForm
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def transfer_operator(h1: HermitianForm, h2: HermitianForm,
                      tol: Tolerance = DEFAULT_TOL) -> TransferOperator:
    """Build the transfer operator F = inv(H1) @ H2 of two Hermitian forms.

    Verifies that F is self-adjoint for both forms, has positive spectrum,
    and reproduces the second form on random probe vectors:
    ``(x, y)_2 = (F x, y)_1``.
    """
    if not isinstance(h1, HermitianForm):
        h1 = HermitianForm(h1, tol)
    if not isinstance(h2, HermitianForm):
        h2 = HermitianForm(h2, tol)
    if h1.dim != h2.dim:
        raise ValueError(f"dimension mismatch: {h1.dim} vs {h2.dim}")
    f = np.linalg.solve(h1.h, h2.h)
    for name, h in (("first", h1.h), ("second", h2.h)):
        prod = h @ f
        resid = op_norm(prod - prod.conj().T)
        if resid > tol.rel * scale_of(prod):
            raise StructureError(
                f"transfer operator not self-adjoint for the {name} form "
                f"(residual {resid:.3e})",
                check="transfer_self_adjoint", residual=resid,
            )
    evals, vecs = scipy.linalg.eigh(h2.h, h1.h)
    if evals[0] <= 0:
        raise StructureError(
            f"transfer operator spectrum is not positive (min {evals[0]:.3e})",
            check="transfer_positive", residual=float(evals[0]),
        )
    rng = np.random.default_rng(0)
    for _ in range(8):
        x = rng.standard_normal(h1.dim) + 1j * rng.standard_normal(h1.dim)
        y = rng.standard_normal(h1.dim) + 1j * rng.standard_normal(h1.dim)
        lhs = np.conj(x) @ h2.h @ y
        rhs = np.conj(f @ x) @ h1.h @ y
        if abs(lhs - rhs) > tol.rel * max(1.0, abs(lhs)) * scale_of(h2.h):
            raise StructureError(
                f"transfer identity fails on probe vectors (|diff| {abs(lhs - rhs):.3e})",
                check="transfer_identity", residual=float(abs(lhs - rhs)),
            )
    return TransferOperator(frozen(f), h1, h2, frozen(evals), frozen(vecs))


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
    if not (1.0 / b**2 <= lam_max * (1 + 1e-12) and lam_max <= (1.0 / a**2) * (1 + 1e-12)):
        raise StructureError("norm-bound chain 1/b^2 <= |F| <= 1/a^2 violated",
                             check="norm_bound_chain")
    return a, b


def _cluster_spectral_frames(op: TransferOperator,
                             tol: Tolerance) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per eigenvalue cluster of F, the eigenvector columns V_c and the
    matching rows of inv(V) = V^H @ H1 (V is h1-orthonormal)."""
    v = op.eigenvectors
    v_inv = v.conj().T @ op.h1.h
    frames = []
    start = 0
    for _, mult in cluster_eigenvalues(op.eigenvalues, tol.cluster_gap):
        frames.append((v[:, start:start + mult], v_inv[start:start + mult]))
        start += mult
    return frames


def _check_commutes(elements: np.ndarray, against, allowance: float,
                    what: str) -> None:
    """Raise unless every element commutes with every matrix in ``against``:
    the residual |[a, x]| must stay within ``allowance * max(1, |a|) * |x|``."""
    elem_norms = np.abs(elements).sum(axis=2).max(axis=1)
    for a in against:
        comm = a @ elements - elements @ a
        resid = np.abs(comm).sum(axis=2).max(axis=1) / (scale_of(a) * elem_norms)
        worst = float(resid.max())
        if worst > allowance:
            raise StructureError(
                f"{what} element fails to commute (relative residual {worst:.3e})",
                check=f"{what}_commutes", residual=worst,
            )


def commutant_basis(op: TransferOperator, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (stacked k x n x n) of all complex matrices
    commuting with the transfer operator.

    Spanned by ``V E_ab inv(V)`` for eigenvector indices a, b in the same
    eigenvalue cluster (``⊕ gl(p)``, one factor per cluster of
    multiplicity p).  Every element is verified to commute with F up to the
    cluster tolerance, the eigenvalue spread a cluster may carry.
    """
    gens = [np.einsum("ia,bj->abij", vc, vc_inv).reshape(-1, op.dim, op.dim)
            for vc, vc_inv in _cluster_spectral_frames(op, tol)]
    basis = orthonormal_span(np.concatenate(gens), tol.rel)
    _check_commutes(basis, [op.matrix], tol.cluster_gap, "commutant")
    return basis


def commutant_dim(op: TransferOperator, tol: Tolerance = DEFAULT_TOL) -> int:
    """Complex dimension of the commutant: the sum of the squared
    eigenvalue multiplicities."""
    return len(commutant_basis(op, tol))


def bicommutant_basis(op: TransferOperator, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the joint commutant of the whole commutant.

    Spanned by the spectral projectors ``V_c inv(V)_c`` of the eigenvalue
    clusters of F.  Every element is verified to commute with F and with
    every element of :func:`commutant_basis`.
    """
    projectors = np.array([vc @ vc_inv for vc, vc_inv in _cluster_spectral_frames(op, tol)])
    basis = orthonormal_span(projectors, tol.rel)
    _check_commutes(basis, [op.matrix], tol.rel, "bicommutant")
    _check_commutes(commutant_basis(op, tol), basis, tol.rel, "bicommutant")
    return basis


def bicommutant_dim(op: TransferOperator, tol: Tolerance = DEFAULT_TOL) -> int:
    """Complex dimension of the bicommutant: the number of distinct
    eigenvalue clusters of F (the minimal-polynomial degree of a
    diagonalizable operator), one spectral projector each."""
    return len(bicommutant_basis(op, tol))


def is_generic_operator(op: TransferOperator, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Genericity of the pair of forms: bicommutant equals commutant.

    Equivalent to all eigenvalue clusters of the transfer operator being
    simple, since the sum of the squared multiplicities equals the number
    of clusters exactly when every multiplicity is one.
    """
    return commutant_dim(op, tol) == bicommutant_dim(op, tol)


def biunitary_sample(op: TransferOperator, poly_coeffs, t: float,
                     tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Sample of the bi-unitary family exp(i * f(F) * t) for a real
    polynomial f (coefficients in ascending order).

    Computed spectrally from the eigendecomposition of the transfer
    operator; the result is verified to preserve both Hermitian forms.
    """
    coeffs = np.asarray(poly_coeffs, dtype=np.float64)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("poly_coeffs must be a non-empty 1-d real sequence")
    t = float(t)
    vals = np.polynomial.polynomial.polyval(op.eigenvalues, coeffs)
    phases = np.exp(1j * vals * t)
    v = op.eigenvectors
    v_inv = v.conj().T @ op.h1.h  # inverse, since v is h1-orthonormal
    u = (v * phases) @ v_inv
    for name, h in (("first", op.h1.h), ("second", op.h2.h)):
        resid = op_norm(u.conj().T @ h @ u - h)
        if resid > tol.rel * scale_of(h):
            raise StructureError(
                f"sample fails unitarity for the {name} form (residual {resid:.3e})",
                check="biunitary_sample", residual=resid,
            )
    return u


def complexify(p: CompatiblePair,
               tol: Tolerance | None = None) -> tuple[HermitianForm, HermitianForm, tuple[int, ...]]:
    """Turn a compatible real pair into two Hermitian forms on C^n.

    The first complex structure defines the multiplication by i; in an
    adapted g1-orthonormal basis the first form becomes the identity.  The
    second form is assembled blockwise as g2 - i * omega2 on blocks where
    the complex structures agree and as the conjugate g2 + i * omega2 where
    they are opposite (conjugation restores sesquilinearity there without
    changing the bi-unitary group).  Returns the two forms and the sign
    applied to each complex coordinate.
    """
    tol = tol or p.tol
    d = decompose(p, tol)
    cols, signs = adapted_frame(d)
    sign_rows = np.array(signs, dtype=float)[:, None]

    def form_matrix(g: np.ndarray, w: np.ndarray) -> np.ndarray:
        gm = cols.T @ g @ cols
        wm = cols.T @ w @ cols
        return gm - 1j * sign_rows * wm

    h1 = HermitianForm(form_matrix(p.t1.g.m, p.t1.omega.m), tol)
    h2 = HermitianForm(form_matrix(p.t2.g.m, p.t2.omega.m), tol)
    return h1, h2, signs
