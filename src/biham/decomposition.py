"""Bi-orthogonal block decomposition of a compatible pair.

Diagonalizing the metric operator G (self-adjoint for g1) splits the space
into eigenspaces that are orthogonal for *both* metrics; the recursion
operator T refines each eigenspace into blocks where T = +-lambda.  On every
block the two structures are proportional:

    g2 = lambda * g1,   omega2 = sign * lambda * omega1,   J2 = sign * J1.

Every block is even-dimensional.  The pair is *generic* when all blocks are
two-dimensional; the group of transformations preserving both structures is
then an n-torus, and in general a product of unitary groups, one U(r) factor
of rank r = dim/2 per block class.

:func:`synthesize_pair` inverts the decomposition: it assembles a pair with
prescribed (lambda, sign, multiplicity) data in canonical coordinates and
hides it behind a seeded orthogonal change of basis commuting with J1, which
makes it the natural round-trip oracle for :func:`decompose`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compatibility import CompatiblePair, check_compatible
from .linalg import (
    DEFAULT_TOL,
    NumericalCheckError,
    Tolerance,
    cluster_eigenvalues,
    eig_self_adjoint,
    frozen,
    op_norm,
    scale_of,
)
from .structures import ViolationReport, check_admissible

__all__ = [
    "Block",
    "BlockDecomposition",
    "GroupSignature",
    "CanonicalBlockBasis",
    "DecompositionError",
    "decompose",
    "is_generic",
    "canonical_basis",
    "group_signature",
    "adapted_frame",
    "synthesize_pair",
]


class DecompositionError(NumericalCheckError):
    """The joint eigenstructure of (G, T) is inconsistent with a compatible
    pair (T eigenvalue away from +-lambda, odd block, lost orthogonality)."""


@dataclass(frozen=True)
class Block:
    """One joint eigenspace: G = eigenvalue, T = sign * eigenvalue on it.

    ``basis`` holds g1-orthonormal columns spanning the block.
    """

    eigenvalue: float
    sign: int
    dim: int
    basis: np.ndarray

    def __repr__(self) -> str:
        return (f"Block(eigenvalue={self.eigenvalue:.6g}, sign={self.sign:+d}, "
                f"dim={self.dim})")


@dataclass(frozen=True)
class BlockDecomposition:
    """Ordered blocks (ascending eigenvalue, + before -) of a compatible pair."""

    blocks: tuple[Block, ...]
    pair: CompatiblePair
    tol: Tolerance

    @property
    def dim(self) -> int:
        return self.pair.dim


@dataclass(frozen=True)
class GroupSignature:
    """Signature of the group preserving both structures.

    ``multiplicities`` lists one rank r per block class; the group is the
    product of the corresponding U(r) factors (complex picture) or of their
    real 2r-dimensional realizations (real picture, SO(2) factors in the
    generic all-ranks-one case).
    """

    multiplicities: tuple[int, ...]
    complex_form: str
    real_form: str

    @property
    def rank(self) -> int:
        return sum(self.multiplicities)


@dataclass(frozen=True)
class CanonicalBlockBasis:
    """Canonical 2-dimensional block frame: e2 = J1 @ e1 with g1(e1, e1) = 1.

    ``metric_ratio`` is the measured ratio g2/g1 on the block and agrees
    with the block eigenvalue.  The orientation convention makes
    omega1(e1, e2) = -g1(e1, e1).
    """

    e1: np.ndarray
    e2: np.ndarray
    eigenvalue: float
    metric_ratio: float


def decompose(p: CompatiblePair, tol: Tolerance | None = None) -> BlockDecomposition:
    """Compute the bi-orthogonal block decomposition of a compatible pair.

    G is diagonalized in a g1-orthonormal basis, its eigenvalues clustered,
    and T diagonalized inside each cluster; T must take the values
    +-lambda there.  Per-block proportionality of the structures and
    cross-block bi-orthogonality are verified before returning.
    """
    tol = tol or p.tol
    g1, w1 = p.t1.g.m, p.t1.omega.m
    g2, w2 = p.t2.g.m, p.t2.omega.m
    j1, j2 = p.t1.j.m, p.t2.j.m
    big_t = p.recursion_operator

    evals, basis = eig_self_adjoint(p.metric_operator, g1, tol)
    blocks: list[Block] = []
    col = 0
    for lam, mult in cluster_eigenvalues(evals, tol.cluster_gap):
        sub = basis[:, col:col + mult]
        col += mult
        # T preserves the eigenspace; express it there in g1-orthonormal coords
        t_sub = sub.T @ g1 @ (big_t @ sub)
        sym_resid = op_norm(t_sub - t_sub.T)
        if sym_resid > tol.rel * scale_of(t_sub):
            raise DecompositionError(
                f"recursion operator is not symmetric on the eigenspace of "
                f"{lam:.6g} (residual {sym_resid:.3e})"
            )
        mu, vecs = np.linalg.eigh(0.5 * (t_sub + t_sub.T))
        start = 0
        for mu_val, mu_mult in cluster_eigenvalues(mu, tol.cluster_gap):
            cols = sub @ vecs[:, start:start + mu_mult]
            start += mu_mult
            if abs(abs(mu_val) - lam) > tol.cluster_gap * max(1.0, lam):
                raise DecompositionError(
                    f"T eigenvalue {mu_val:.6g} is not +-{lam:.6g}; "
                    "the pair is not compatible or is too ill-conditioned"
                )
            if mu_mult % 2 != 0:
                raise DecompositionError(
                    f"block for (lambda={lam:.6g}, mu={mu_val:.6g}) has odd "
                    f"dimension {mu_mult}"
                )
            blocks.append(Block(float(lam), 1 if mu_val > 0 else -1,
                                mu_mult, frozen(cols)))

    blocks.sort(key=lambda b: (b.eigenvalue, -b.sign))

    if sum(b.dim for b in blocks) != p.dim:
        raise DecompositionError("block dimensions do not add up to the space dimension")

    for b in blocks:
        c = b.basis
        lam, sign = b.eigenvalue, b.sign
        checks = (
            ("g2 proportional to g1",
             op_norm(c.T @ g2 @ c - lam * (c.T @ g1 @ c)), scale_of(g2)),
            ("omega2 proportional to omega1",
             op_norm(c.T @ w2 @ c - sign * lam * (c.T @ w1 @ c)), scale_of(w2)),
            ("J2 = sign * J1",
             op_norm(j2 @ c - sign * (j1 @ c)), scale_of(j1)),
        )
        for what, resid, scl in checks:
            if resid > tol.rel * scl:
                raise DecompositionError(
                    f"{what} fails on block (lambda={lam:.6g}, sign={sign:+d}) "
                    f"with residual {resid:.3e}"
                )
    for i in range(len(blocks)):
        for k in range(i + 1, len(blocks)):
            for name, gm in (("g1", g1), ("g2", g2)):
                resid = op_norm(blocks[i].basis.T @ gm @ blocks[k].basis)
                if resid > tol.rel * scale_of(gm):
                    raise DecompositionError(
                        f"blocks {i} and {k} are not {name}-orthogonal "
                        f"(residual {resid:.3e})"
                    )
    return BlockDecomposition(tuple(blocks), p, tol)


def is_generic(d: BlockDecomposition) -> bool:
    """True when every block has the minimum possible dimension two."""
    return all(b.dim == 2 for b in d.blocks)


def canonical_basis(b: Block, p: CompatiblePair,
                    tol: Tolerance | None = None) -> CanonicalBlockBasis:
    """Canonical frame of a two-dimensional block.

    ``e1`` is the first basis column normalized to g1(e1, e1) = 1 and
    ``e2 = J1 @ e1``; the frame is g1-orthogonal with equal lengths, carries
    omega1(e1, e2) = -g1(e1, e1), and the measured metric ratio g2/g1 on the
    block equals the block eigenvalue.
    """
    tol = tol or p.tol
    if b.dim != 2:
        raise ValueError(f"canonical frame needs a 2-dimensional block, got dim {b.dim}")
    g1, w1, j1, j2 = p.t1.g.m, p.t1.omega.m, p.t1.j.m, p.t2.j.m
    g2 = p.t2.g.m
    e1 = b.basis[:, 0]
    e1 = e1 / np.sqrt(float(e1 @ g1 @ e1))
    e2 = j1 @ e1

    len1 = float(e1 @ g1 @ e1)
    checks = (
        ("frame is not g1-orthogonal", abs(float(e1 @ g1 @ e2))),
        ("frame lengths are unequal", abs(float(e2 @ g1 @ e2) - len1)),
        ("omega1(e1, e2) != -g1(e1, e1)", abs(float(e1 @ w1 @ e2) + len1)),
        ("J2 e1 != sign * J1 e1", float(np.abs(j2 @ e1 - b.sign * e2).max())),
    )
    for what, resid in checks:
        if resid > tol.rel * max(1.0, op_norm(j1)):
            raise DecompositionError(f"{what} (residual {resid:.3e})")
    ratio = float(e1 @ g2 @ e1) / len1
    if abs(ratio - b.eigenvalue) > tol.cluster_gap * max(1.0, b.eigenvalue):
        raise DecompositionError(
            f"measured metric ratio {ratio:.6g} disagrees with block "
            f"eigenvalue {b.eigenvalue:.6g}"
        )
    return CanonicalBlockBasis(frozen(e1), frozen(e2), b.eigenvalue, ratio)


def group_signature(d: BlockDecomposition) -> GroupSignature:
    """Signature of the group preserving both structures of the pair.

    Blocks sharing (eigenvalue, sign) within the cluster tolerance merge
    into one factor of rank dim/2.  Blocks with equal eigenvalue but
    opposite sign stay separate: their complex structures differ, so no
    bi-unitary transformation mixes them.
    """
    tol = d.tol
    factors: list[list[float | int]] = []  # [eigenvalue, sign, dim]
    for b in d.blocks:
        merged = False
        for f in factors:
            if f[1] == b.sign and abs(b.eigenvalue - f[0]) <= tol.cluster_gap * max(1.0, b.eigenvalue):
                f[2] += b.dim
                merged = True
                break
        if not merged:
            factors.append([b.eigenvalue, b.sign, b.dim])
    ranks = tuple(int(f[2]) // 2 for f in factors)
    complex_form = "×".join(f"U({r})" for r in ranks)
    if all(r == 1 for r in ranks):
        real_form = "×".join("SO(2)" for _ in ranks)
    else:
        real_form = "×".join(f"U_r({2 * r};g,ω)" for r in ranks)
    return GroupSignature(ranks, complex_form, real_form)


def adapted_frame(d: BlockDecomposition) -> tuple[np.ndarray, tuple[int, ...]]:
    """Complex basis vectors (columns) adapted to the decomposition.

    Within each block, picks g1-orthonormal vectors c with partners
    J1 @ c so that the real block basis is (c_1, J1 c_1, c_2, J1 c_2, ...);
    the c's are the complex coordinate axes.  Returns the stacked c columns
    and the block sign carried by each.
    """
    p = d.pair
    g1, j1 = p.t1.g.m, p.t1.j.m
    cols: list[np.ndarray] = []
    signs: list[int] = []
    for block in d.blocks:
        chosen: list[np.ndarray] = []
        candidates = [block.basis[:, k] for k in range(block.dim)]
        for _ in range(block.dim // 2):
            best, best_norm = None, 0.0
            for v in candidates:
                r = v.copy()
                for u in chosen:  # two Gram-Schmidt sweeps for stability
                    r = r - float(u @ g1 @ r) * u
                for u in chosen:
                    r = r - float(u @ g1 @ r) * u
                nrm = float(np.sqrt(r @ g1 @ r))
                if nrm > best_norm:
                    best, best_norm = r, nrm
            assert best is not None and best_norm > 0.0
            c = best / best_norm
            chosen.extend((c, j1 @ c))
            cols.append(c)
            signs.append(block.sign)
    return np.column_stack(cols), tuple(signs)


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _realify(u: np.ndarray) -> np.ndarray:
    """Real 2n x 2n image of a complex n x n matrix: each entry a + i b
    becomes the 2 x 2 block [[a, b], [-b, a]], so multiplication by i maps
    to the standard block-diagonal complex structure."""
    eye2 = np.eye(2)
    s2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(u.real, eye2) + np.kron(u.imag, s2)


def synthesize_pair(block_specs, seed: int,
                    tol: Tolerance = DEFAULT_TOL) -> CompatiblePair:
    """Construct a compatible pair with prescribed block data.

    ``block_specs`` is an iterable of ``(eigenvalue, sign, multiplicity)``
    triples with positive eigenvalues, signs +-1, and eigenvalues pairwise
    distinct within each sign class.  In canonical coordinates the pair is

        g1 = I, omega1 = blockdiag(S),
        g2 = blockdiag(eigenvalue * I), omega2 = blockdiag(sign * eigenvalue * S)

    with S the standard 2 x 2 symplectic block; all four tensors are then
    conjugated by a seeded random orthogonal matrix commuting with J1 (the
    real image of a Haar-random unitary), which keeps the first triple's
    structure intact and scrambles the second.  Reproducible bit-for-bit for
    a fixed seed (numpy PCG64 generator).

    The result always passes :func:`check_compatible` and decomposes back to
    the prescribed data.
    """
    specs = [(float(lam), int(sign), int(mult)) for lam, sign, mult in block_specs]
    if not specs:
        raise ValueError("block_specs must not be empty")
    for lam, sign, mult in specs:
        if not (np.isfinite(lam) and lam > 0):
            raise ValueError(f"block eigenvalue must be positive, got {lam}")
        if sign not in (-1, 1):
            raise ValueError(f"block sign must be +1 or -1, got {sign}")
        if mult < 1:
            raise ValueError(f"block multiplicity must be >= 1, got {mult}")
    for s in (-1, 1):
        lams = sorted(lam for lam, sign, _ in specs if sign == s)
        for a, b in zip(lams, lams[1:]):
            if b - a <= tol.cluster_gap * max(1.0, b):
                raise ValueError(
                    f"block eigenvalues {a} and {b} with sign {s:+d} are not "
                    "distinguishable at the cluster tolerance"
                )

    per_coord = [(lam, sign) for lam, sign, mult in specs for _ in range(mult)]
    n = len(per_coord)
    eye2 = np.eye(2)
    s2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lams = np.array([lam for lam, _ in per_coord])
    signs = np.array([sign for _, sign in per_coord], dtype=float)

    g1 = np.eye(2 * n)
    w1 = np.kron(np.eye(n), s2)
    g2 = np.kron(np.diag(lams), eye2)
    w2 = np.kron(np.diag(signs * lams), s2)

    q = _realify(_haar_unitary(n, np.random.default_rng(seed)))
    g1, w1 = q.T @ g1 @ q, q.T @ w1 @ q
    g2, w2 = q.T @ g2 @ q, q.T @ w2 @ q

    t1 = check_admissible(g1, w1, tol)
    t2 = check_admissible(g2, w2, tol)
    if isinstance(t1, ViolationReport) or isinstance(t2, ViolationReport):
        raise DecompositionError("synthesized triples failed admissibility; "
                                 "the requested data is too ill-conditioned")
    pair = check_compatible(t1, t2, tol)
    if isinstance(pair, ViolationReport):
        raise DecompositionError(f"synthesized pair failed compatibility: {pair}")
    return pair
