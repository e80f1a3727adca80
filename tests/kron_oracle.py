"""Brute-force Kronecker/SVD solver, kept as a test oracle.

Writes each linear matrix constraint ``L(X) = 0`` as a Kronecker-product
system over the n^2 entries of ``X`` and reads off an orthonormal basis of
its solutions from the SVD.  That costs O(n^6) time and O(n^4) memory, so
the oracle refuses matrices larger than :data:`MAX_DIM`; the package builds
the same spaces from spectral data instead.
"""

import numpy as np

from biham.linalg import RankAmbiguityError, op_norm

MAX_DIM = 16


def svd_null_space(a, rel: float, guard: float = 16.0,
                   floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the right null space of ``a`` via SVD.

    Null directions are those with singular value at most
    ``rel * max(sigma_max, floor)``; ``floor`` supplies the natural scale of
    the problem for operators that may be numerically close to zero (for
    them sigma_max alone would promote rounding noise to signal).  Singular
    values within a factor ``guard`` of the threshold make the rank decision
    ambiguous and raise :class:`RankAmbiguityError`.

    Returns ``(basis, singular_values)`` with basis vectors stacked as rows.
    """
    a = np.asarray(a)
    if a.shape[0] < a.shape[1]:
        a = np.vstack([a, np.zeros((a.shape[1] - a.shape[0], a.shape[1]), dtype=a.dtype)])
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    thr = rel * max(smax, floor)
    if thr > 0.0 and guard > 1.0:
        band = s[(s > thr / guard) & (s < thr * guard)]
        if band.size:
            raise RankAmbiguityError(
                "cannot decide numerical rank: singular values "
                f"{[float(x) for x in band]} lie within a factor {guard} of the "
                f"threshold {thr:.3e}"
            )
    return vh[s <= thr].conj(), s


def _check_size(dim: int) -> None:
    if dim > MAX_DIM:
        raise ValueError(f"the Kronecker oracle handles dims up to {MAX_DIM}, got {dim}")


def bi_preserving_algebra(pair, rel: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (k x m x m) of the real matrices A with
    ``tau @ A + A.T @ tau = 0`` for all four tensors of the pair."""
    m = pair.dim
    _check_size(m)
    eye = np.eye(m)
    perm = np.arange(m * m).reshape(m, m).T.ravel()  # vec(A) -> vec(A.T)
    tensors = (pair.t1.g.m, pair.t2.g.m, pair.t1.omega.m, pair.t2.omega.m)
    system = np.vstack([np.kron(tau, eye) + np.kron(eye, tau.T)[:, perm]
                        for tau in tensors])
    floor = 2.0 * max(op_norm(tau) for tau in tensors)
    vecs, _ = svd_null_space(system, rel, floor=floor)
    return vecs.reshape(-1, m, m)


def commuting_null_space(mats, rel: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (k x n x n) of the matrices commuting with every
    matrix in ``mats``."""
    dim = mats[0].shape[0]
    _check_size(dim)
    eye = np.eye(dim)
    rows = np.vstack([np.kron(m, eye) - np.kron(eye, m.T) for m in mats])
    # the commutator map with m has operator norm at most 2 |m|; use that as
    # the scale so operators close to a multiple of I keep a full commutant
    floor = 2.0 * max(op_norm(m) for m in mats)
    vecs, _ = svd_null_space(rows, rel, floor=floor)
    return vecs.reshape(-1, dim, dim)


def commutant(op, rel: float = 1e-9) -> np.ndarray:
    return commuting_null_space([op.matrix], rel)


def bicommutant(op, rel: float = 1e-9) -> np.ndarray:
    return commuting_null_space(list(commutant(op, rel)), rel)


def span_residual(mats, basis) -> float:
    """Largest relative distance of a matrix in ``mats`` from the span of
    the orthonormal ``basis`` (complex Frobenius inner product)."""
    q = np.asarray(basis).reshape(len(basis), -1)
    worst = 0.0
    for m in mats:
        v = np.asarray(m).ravel()
        proj = q.T @ (q.conj() @ v)
        worst = max(worst, float(np.linalg.norm(v - proj) / np.linalg.norm(v)))
    return worst
