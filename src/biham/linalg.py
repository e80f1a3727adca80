"""Dense linear-algebra primitives shared by every other module.

Conventions used throughout the package:

* matrices are square ``numpy`` arrays (``float64``, or ``complex128`` on the
  complexified side), validated on entry and treated as immutable afterwards;
* a bilinear form with Gram matrix ``m`` takes the value ``x @ m @ y``;
* operator norms are estimated by the maximum absolute row sum (the induced
  infinity norm), and tolerance checks compare residuals against
  ``rel * max(1, norm)`` so that they are invariant under rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class NumericalCheckError(ValueError):
    """A quantitative invariant failed beyond the configured tolerance."""


class StructureError(NumericalCheckError):
    """An input matrix lacks a required structural property (symmetry,
    positive-definiteness, nondegeneracy, ...).

    Carries the name of the failed check and the offending residual so
    callers can assemble machine-readable violation reports.
    """

    def __init__(self, message: str, *, check: str = "", residual: float = float("nan")):
        super().__init__(message)
        self.check = check or message
        self.residual = float(residual)


class RankAmbiguityError(NumericalCheckError):
    """Singular values fall too close to a rank threshold to call the rank."""


@dataclass(frozen=True)
class Tolerance:
    """Relative tolerances: ``rel`` for residual checks, ``cluster_gap``
    for deciding when two eigenvalues count as equal."""

    rel: float = 1e-9
    cluster_gap: float = 1e-7

    def __post_init__(self):
        if not self.rel > 0:
            raise ValueError(f"rel must be positive, got {self.rel}")
        if not self.cluster_gap > 0:
            raise ValueError(f"cluster_gap must be positive, got {self.cluster_gap}")
        if self.cluster_gap < self.rel:
            raise ValueError(
                f"cluster_gap ({self.cluster_gap}) must be at least rel ({self.rel})"
            )


DEFAULT_TOL = Tolerance()


def as_matrix(a, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    """Validate ``a`` as a finite square float64 matrix and return a
    read-only copy."""
    arr = np.array(a, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must have positive dimension")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must be {dim}x{dim}, got {arr.shape[0]}x{arr.shape[0]}")
    arr.setflags(write=False)
    return arr


def as_complex_matrix(a, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    """Validate ``a`` as a finite square complex128 matrix (read-only copy)."""
    arr = np.array(a, dtype=np.complex128, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must have positive dimension")
    if not np.isfinite(arr.real).all() or not np.isfinite(arr.imag).all():
        raise ValueError(f"{name} contains non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must be {dim}x{dim}, got {arr.shape[0]}x{arr.shape[0]}")
    arr.setflags(write=False)
    return arr


def frozen(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a read-only array (copies only if needed)."""
    arr = np.array(a, copy=True)
    arr.setflags(write=False)
    return arr


def op_norm(a: np.ndarray) -> float:
    """Induced infinity norm (maximum absolute row sum)."""
    return float(np.abs(a).sum(axis=1).max())


def scale_of(a: np.ndarray) -> float:
    """Scale used for relative tolerance checks: ``max(1, op_norm(a))``."""
    return max(1.0, op_norm(a))


def cholesky_spd(g: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Symmetrizes inputs whose asymmetry is below tolerance, rejects the rest.
    """
    asym = op_norm(g - g.T)
    if asym > tol.rel * scale_of(g):
        raise StructureError(
            f"matrix is not symmetric (residual {asym:.3e})",
            check="symmetric", residual=asym,
        )
    sym = 0.5 * (g + g.T)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(sym)
        raise StructureError(
            f"matrix is not positive-definite (min eigenvalue {w[0]:.3e})",
            check="positive_definite", residual=float(w[0]),
        ) from None


def metric_adjoint(a, g, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Adjoint of ``a`` with respect to the inner product with SPD Gram
    matrix ``g``.

    The adjoint ``b`` is characterised by ``g(b x, y) = g(x, a y)`` for all
    vectors; in matrix form it is ``inv(g) @ a.T @ g``.  For the Euclidean
    metric this reduces to the plain transpose, and symmetric matrices need
    not be self-adjoint when ``g`` is not a multiple of the identity.
    """
    a = as_matrix(a, "a")
    g = as_matrix(g, "g", dim=a.shape[0])
    chol = cholesky_spd(g, tol)
    return scipy.linalg.cho_solve((chol, True), a.T @ g)


def sym_sqrt(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Symmetric nonnegative square root of a symmetric PSD matrix.

    Eigenvalues in ``[-rel * norm, 0)`` are treated as rounding noise and
    clipped to zero; anything more negative is an error.
    """
    m = as_matrix(m, "m")
    nrm = op_norm(m)
    asym = op_norm(m - m.T)
    if asym > tol.rel * max(1.0, nrm):
        raise StructureError(
            f"matrix is not symmetric (residual {asym:.3e})",
            check="symmetric", residual=asym,
        )
    sym = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(sym)
    if w[0] < -tol.rel * max(1.0, nrm):
        raise StructureError(
            f"matrix has eigenvalue {w[0]:.3e} below the PSD tolerance",
            check="positive_semidefinite", residual=float(w[0]),
        )
    p = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return 0.5 * (p + p.T)


def eig_self_adjoint(a, g, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of an operator ``a`` that is self-adjoint with
    respect to the SPD metric ``g``.

    Whitens with the Cholesky factor ``g = L L^T``, solves the ordinary
    symmetric eigenproblem for ``L^T a L^{-T}``, and maps the eigenvectors
    back.  Returns ``(eigenvalues, basis)`` with eigenvalues ascending and
    basis columns g-orthonormal (``basis.T @ g @ basis = I``), so that
    ``a @ basis = basis @ diag(eigenvalues)``.
    """
    a = as_matrix(a, "a")
    g = as_matrix(g, "g", dim=a.shape[0])
    adj = metric_adjoint(a, g, tol)
    resid = op_norm(adj - a)
    if resid > tol.rel * scale_of(a):
        raise StructureError(
            f"operator is not self-adjoint w.r.t. the metric (residual {resid:.3e})",
            check="self_adjoint", residual=resid,
        )
    chol = cholesky_spd(g, tol)
    # b = L^T a L^{-T}, symmetric exactly when g a is symmetric
    yt = scipy.linalg.solve_triangular(chol, a.T, lower=True)
    b = chol.T @ yt.T
    b = 0.5 * (b + b.T)
    w, u = np.linalg.eigh(b)
    basis = scipy.linalg.solve_triangular(chol.T, u, lower=False)
    return w, basis


def cluster_eigenvalues(values, cluster_gap: float) -> list[tuple[float, int]]:
    """Merge an ascending list of eigenvalues into clusters.

    A value joins the current cluster when its gap to the previous value is
    at most ``cluster_gap * max(1, |value|)``.  Returns ``(mean, count)``
    pairs; the counts always add up to ``len(values)``.
    """
    vals = [float(v) for v in values]
    if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
        raise ValueError("values must be sorted in ascending order")
    clusters: list[list[float]] = []
    for v in vals:
        if clusters and v - clusters[-1][-1] <= cluster_gap * max(1.0, abs(v)):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(sum(c) / len(c), len(c)) for c in clusters]


def commutator(a, b) -> np.ndarray:
    """Matrix bracket ``a @ b - b @ a``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def numerical_rank(a, rel: float) -> tuple[int, np.ndarray, float]:
    """Numerical rank of ``a`` with threshold ``rel * sigma_max``.

    Returns ``(rank, singular_values, gap)`` where ``gap`` is the ratio of
    the smallest kept to the largest dropped singular value (``inf`` when
    nothing is dropped or everything is).
    """
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, s, float("inf")
    thr = rel * s[0]
    rank = int((s > thr).sum())
    if 0 < rank < s.size and s[rank] > 0.0:
        gap = float(s[rank - 1] / s[rank])
    else:
        gap = float("inf")
    return rank, s, gap


def orthonormal_span(mats, rel: float) -> np.ndarray:
    """Frobenius-orthonormal basis (stacked like the input) of the span of
    k linearly independent matrices, from one QR factorization of their
    k x n^2 stack.

    Each matrix is scaled to unit Frobenius norm first, so ``|R_ii|`` is the
    distance of the i-th one from the span of those before it; a distance
    at most ``rel`` means the inputs are not independent and raises
    :class:`RankAmbiguityError`.
    """
    mats = np.asarray(mats)
    rows = mats.reshape(mats.shape[0], -1)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    q, r = np.linalg.qr(rows.T)
    dist = np.abs(np.diagonal(r))
    if dist.min() <= rel:
        raise RankAmbiguityError(
            f"matrices are not linearly independent: element {int(dist.argmin())} "
            f"lies within {float(dist.min()):.3e} of the span of those before it"
        )
    return q.T.reshape(mats.shape)
