"""Bi-orthogonal block decomposition of a compatible pair.

The first triple makes R^2n the Hermitian space C^n: its complex
coordinates are J1's -i eigenvectors.  On a compatible pair the recursion
operator T is complex-linear there, a Hermitian n x n matrix, and its
eigenvectors split the space into blocks orthogonal for *both* metrics,
one per (lambda, sign) class, where T = sign * lambda and the metric
operator G = |T| = lambda.  On every block the two structures are
proportional:

    g2 = lambda * g1,   omega2 = sign * lambda * omega1,   J2 = sign * J1.

Every block is even-dimensional.  The pair is *generic* when all blocks are
two-dimensional; the group of transformations preserving both structures is
then an n-torus, and in general a product of unitary groups, one U(r) factor
of rank r = dim/2 per block.

:func:`synthesize_pair` inverts the decomposition: it assembles a pair with
prescribed (lambda, sign, multiplicity) data in canonical coordinates and
hides it behind a seeded orthogonal change of basis commuting with J1, which
makes it the natural round-trip oracle for :func:`decompose`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compatibility import CompatiblePair, check_compatible
from .linalg import (
    DEFAULT_TOL,
    NumericalCheckError,
    Tolerance,
    cluster_eigenvalues,
    frame_departure,
    frozen,
    op_norms,
    same_cluster,
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
    "synthesize_pair",
]


class DecompositionError(NumericalCheckError):
    """The blocks of T's complex eigenvectors are inconsistent with a
    compatible pair (a cluster wider than ``cluster_gap``, a structure not
    proportional on a block, or G not orthogonal across blocks), or a
    transfer operator's cluster that the same width rule refuses."""


@dataclass(frozen=True)
class Block:
    """One joint eigenspace: G = eigenvalue, T = sign * eigenvalue on it.
    The blocks of a decomposition have distinct (eigenvalue, sign): each is
    the whole (lambda, sign) eigenspace of T.

    ``basis_w`` holds the block's orthonormal columns [C, D] in t1's
    g1-orthonormal frame W: its r complex coordinate axes C, then their
    partners D = J1 C.  ``basis`` holds the same columns in the original
    coordinates, g1-orthonormal there.
    """

    eigenvalue: float
    sign: int
    dim: int
    basis: np.ndarray
    basis_w: np.ndarray

    def __repr__(self) -> str:
        return (f"Block(eigenvalue={self.eigenvalue:.6g}, sign={self.sign:+d}, "
                f"dim={self.dim})")


@dataclass(frozen=True)
class BlockDecomposition:
    """Ordered blocks (ascending eigenvalue, + before -) of a compatible pair;
    carries the pair, its tolerance and the adapted frame, laid out once by
    :func:`decompose`: ``frame_w`` is Q = [C, D] in t1's g1-orthonormal
    frame, the complex coordinate axes C in block order, then their
    partners D = J1 C (orthonormal to rounding even where J1 is orthogonal
    only to a larger residual), and ``coordinate_lambda`` and
    ``coordinate_sign`` hold each axis's own |mu| and its block's sign.  A
    block's ``basis_w`` is its columns of C, then the same columns of D."""

    blocks: tuple[Block, ...]
    pair: CompatiblePair
    frame_w: np.ndarray
    coordinate_lambda: np.ndarray
    coordinate_sign: np.ndarray

    @property
    def tol(self) -> Tolerance:
        """The pair's tolerance: one per decomposition."""
        return self.pair.tol

    @cached_property
    def frame_certificate(self) -> tuple[float, float]:
        """``(bound, e)``: how far every field of the realified ``⊕ u(r)``
        on the adapted frame may be from preserving all four tensors, and
        how far the frame is from orthonormal; measured once, on first use,
        by one O(m^3) check, and never raises (the stages that rely on it
        compare ``bound`` with ``rel``).

        Let Q = ``frame_w``, e = |Q.T Q - I|, |.| the row-sum norm, and for
        tau = J1, G, omega2 let tau_c be its canonical block form
        ([[0, -I], [I, 0]], diag(lam, lam) and diag(s lam, s lam) times the
        first, lam and s ``coordinate_lambda`` and ``coordinate_sign``) and
        d = max |tau - Q tau_c Q.T| / |tau|.  As Q [[0, -I], [I, 0]] =
        [D, -C], each Q tau_c Q.T is one product, with no dense tau_c.  Then

            bound = 2 d + 2 m e (1 + e) (1 + d) / (1 - e)^2

        (inf when e >= 1) and every A in the span satisfies
        |tau A + A.T tau| <= bound |tau| |A|.

        Proof: the span is {A = Q K Q.T}, K skew and commuting with every
        tau_c, so A is skew (g1 = I is preserved) and with O = Q.T Q - I

            tau A + A.T tau = [tau - Q tau_c Q.T, A] + Q (tau_c O K - K O tau_c) Q.T.

        The first term is at most 2 d |tau| |A|.  The second is the frame
        term of :func:`linalg.frame_departure` for a = Q tau_c Q.T, normal
        (symmetric or skew) and of norm at most (1 + d) |tau|, and b = A,
        converted at sqrt(m): at most the rest of the bound times |tau| |A|.
        Rounding: the departures are measured like
        every residual of the threshold rule; the frame comes from backward
        stable ``eigh`` (Golub & Van Loan, *Matrix Computations*, 4th ed.,
        §8.1), so e is O(m eps) and d O((m + cond(g1)) eps): on 320
        congruences of generic and two-class pairs of dims 8-32 at
        cond(g1) = 1e6 the bound is at most 3.8e-10 (median 4.9e-11).
        A block's lam spread by up to ``cluster_gap``, so a merged u(r) field
        preserves G and omega2 only within the bound plus 2 (1 + e) spread
        (spectral norm), spread the largest (max - min) lam / |tau| of a block.
        """
        p, q = self.pair, self.frame_w
        n, m = p.dim // 2, p.dim
        lam = np.tile(self.coordinate_lambda, 2)
        q_rot = np.hstack((q[:, n:], -q[:, :n]))
        canon = np.array([q_rot, q * lam, q_rot * (np.tile(self.coordinate_sign, 2) * lam)])
        taus = np.array([p.t1.j_w, p.metric_operator_w, p.omega2_w])
        n_g2, n_w2 = p.norms_w
        norms = op_norms(np.concatenate((taus - canon @ q.T, [q.T @ q - np.eye(m)])))
        dep = float((norms[:3] / (p.t1.j_w_norm, n_g2, n_w2)).max())
        e = float(norms[3])
        return 2.0 * dep + frame_departure(e, m, 1.0 + dep), e


@dataclass(frozen=True)
class GroupSignature:
    """Signature of the group preserving both structures.

    ``multiplicities`` lists one rank r per block; the group is the
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

    ``metric_ratio`` is the measured ratio g2/g1 on the block, the
    coordinate's own eigenvalue.  The orientation convention makes
    omega1(e1, e2) = -g1(e1, e1).
    """

    e1: np.ndarray
    e2: np.ndarray
    eigenvalue: float
    metric_ratio: float


def decompose(p: CompatiblePair) -> BlockDecomposition:
    """Compute the bi-orthogonal block decomposition of a compatible pair.

    In t1's g1-orthonormal frame, the top n eigenvectors Z of the Hermitian
    ``i J1`` (J1 Z = -i Z, Z^H Z = I) are the complex coordinates of the
    first triple.  On a compatible pair T commutes with J1, so there it is
    the Hermitian n x n matrix ``T_c = Z^H T Z``, and one ``eigh`` of T_c
    gives its eigenvalues mu and eigenvectors V.  The magnitudes |mu| are
    chain-clustered at ``cluster_gap``, each cluster is split by the sign
    of mu, and both parts take the cluster's mean as lambda.  This is the
    one judge of eigenvalue equality: a chain whose spread, (max - min) /
    max, exceeds ``cluster_gap`` is refused.  One permutation puts V's
    columns in block order; the columns of ``sqrt(2) Z V`` are then the
    axes C (real parts) and their partners D = J1 C (imaginary parts) of
    the frame ``frame_w`` = [C, D], stored once, and each block's basis is
    its columns of C, then of D: every block is J1-invariant and
    2r-dimensional, and the blocks are g1-orthogonal, by construction.
    The part of T that anticommutes with J1 never enters;
    the pair certified it zero to rounding.

    Per-block proportionality of the structures (the g2 check measures
    G = |T|) and cross-block g2-orthogonality are verified before
    returning, from one set of dense products (:func:`_block_residuals`).
    Proportionality is measured against each coordinate's own |mu|, so
    ``rel`` judges rounding only.  An error names the first failing block
    (then check) or pair in block order.
    """
    tol, n = p.tol, p.dim // 2
    _, z = np.linalg.eigh(1j * p.t1.j_w)
    z = z[:, n:]
    t_c = z.conj().T @ p.recursion_operator_w @ z
    mu, v = np.linalg.eigh(0.5 * (t_c + t_c.conj().T))

    # one permutation of eigh's output into block order: lambda ascends by
    # cluster, + before - within one (a zero mu joins the + part)
    order = np.argsort(np.abs(mu), kind="stable")
    clusters = _chain_clusters(np.abs(mu[order]), tol.cluster_gap,
                               "; give a smaller cluster_gap in the file's 'tol'")
    cluster = np.repeat(np.arange(len(clusters)), [count for _, count in clusters])
    order = order[np.lexsort((mu[order] < 0.0, cluster))]
    mu, axes = mu[order], np.sqrt(2.0) * (z @ v[:, order])
    sign = np.where(mu < 0.0, -1, 1)
    frame_w = frozen(np.hstack((axes.real, axes.imag)))

    # a block is a run of one (cluster, sign): the same columns of C and D
    starts = np.flatnonzero(np.diff(2 * cluster + (sign < 0), prepend=-1))
    blocks = []
    for lo, hi in zip(starts, np.append(starts[1:], n)):
        basis_w = frame_w[:, np.r_[lo:hi, n + lo:n + hi]]
        blocks.append(Block(clusters[cluster[lo]][0], int(sign[lo]), basis_w.shape[1],
                            frozen(p.t1.g.frame @ basis_w), frozen(basis_w)))

    d = BlockDecomposition(tuple(blocks), p, frame_w, frozen(np.abs(mu)), frozen(sign))
    per_block, cross = _block_residuals(d)
    n_g2, n_w2 = p.norms_w
    thresholds = np.array([tol.threshold(n_g2), tol.threshold(n_w2),
                           tol.threshold(p.t1.j_w_norm)])
    failing = ~(per_block <= thresholds)
    if failing.any():
        i, check = np.argwhere(failing)[0]
        b = blocks[i]
        what = ("g2 proportional to g1", "omega2 proportional to omega1",
                "J2 = sign * J1")[check]
        raise DecompositionError(
            f"{what} fails on block (lambda={b.eigenvalue:.6g}, sign={b.sign:+d}) "
            f"with residual {per_block[i, check]:.3e}"
        )
    # only the pairs i < k are checked
    failing = np.triu(~(cross <= thresholds[0]), 1)
    if failing.any():
        i, k = np.argwhere(failing)[0]
        raise DecompositionError(
            f"blocks {i} and {k} are not g2-orthogonal (residual {cross[i, k]:.3e})"
        )
    return d


def _chain_clusters(lam, cluster_gap: float, advice: str = "",
                    of: str = "G") -> list[tuple[float, int]]:
    """The one rule of eigenvalue equality: the ascending ``lam``, the
    eigenvalues ``of`` an operator, chained at ``cluster_gap``
    (:func:`cluster_eigenvalues`), and a chain whose spread, (max - min) /
    max, exceeds ``cluster_gap`` refused with :class:`DecompositionError`,
    its message naming the operator and ending in ``advice``."""
    clusters = cluster_eigenvalues(lam, cluster_gap)
    ends = np.cumsum([0] + [count for _, count in clusters])
    for lo, hi in zip(ends, ends[1:]):
        low, high = lam[lo], lam[hi - 1]
        if not same_cluster(low, high, cluster_gap):
            raise DecompositionError(
                f"cluster width fails: eigenvalues {low:.9g} .. {high:.9g} of {of} chain into one "
                f"cluster of spread {(high - low) / high:.3e}, wider than cluster_gap "
                f"{cluster_gap:g}{advice}")
    return clusters


def _block_residuals(d: BlockDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the checks of :func:`decompose`, from one set of dense
    products of the frame Q = [C, D] (the (i, k) sub-block of Q.T @ M @ Q,
    folded over both halves, is B_i.T @ M @ B_k for the blocks' bases B).

    ``per_block[i]`` holds, for block i, the row-sum norms of
    B.T g2 B - B.T B L, B.T omega2 B - sign B.T J1 B L (L the block's
    ``coordinate_lambda`` on [C, D]) and J2 B - sign J1 B; ``cross[i, k]``
    that of B_i.T g2 B_k, meaningful for i < k.
    """
    p, q = d.pair, d.frame_w
    j1, j2 = p.t1.j_w, p.j2_w
    g2, w2 = p.metric_operator_w, p.omega2_w
    ranks = [b.dim // 2 for b in d.blocks]
    starts = np.cumsum([0] + ranks[:-1])
    lam, sign = np.tile(d.coordinate_lambda, 2), np.tile(d.coordinate_sign, 2)
    gram2, j1q = q.T @ g2 @ q, j1 @ q
    per_block = np.stack([
        np.diagonal(_block_norms(gram2 - lam * (q.T @ q), starts)),
        np.diagonal(_block_norms(q.T @ w2 @ q - (sign * lam) * (q.T @ j1q), starts)),
        _block_norms(j2 @ q - sign * j1q, starts).max(axis=0),
    ], axis=1)
    return per_block, _block_norms(gram2, starts)


def _block_norms(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Row-sum norm (the package's operator norm) of every sub-block of
    ``a`` when both axes are cut at the block starts ``starts`` of the C
    half and again of the D half, each block's two segments folded into
    one: entry (i, k) belongs to row block i and column block k."""
    c, cuts = len(starts), np.concatenate((starts, starts + a.shape[1] // 2))
    row_sums = np.add.reduceat(np.abs(a), cuts, axis=1)
    row_max = np.maximum.reduceat(row_sums[:, :c] + row_sums[:, c:], cuts, axis=0)
    return np.maximum(row_max[:c], row_max[c:])


def is_generic(d: BlockDecomposition) -> bool:
    """True when every block has the minimum possible dimension two."""
    return all(b.dim == 2 for b in d.blocks)


def canonical_basis(b: Block, p: CompatiblePair) -> CanonicalBlockBasis:
    """Canonical frame of a two-dimensional block, read off the block.

    ``e1`` is the block's axis normalized to g1(e1, e1) = 1 and
    ``e2 = J1 @ e1``.  :func:`decompose` built the block's [C, D] from one
    unitary and certified J2 = sign * J1 on it, and the first triple is
    admissible, so the frame is g1-orthogonal with equal lengths and
    carries omega1(e1, e2) = -g1(e1, e1); the measured metric ratio g2/g1
    on the block is the coordinate's own eigenvalue.
    """
    if b.dim != 2:
        raise ValueError(f"canonical frame needs a 2-dimensional block, got dim {b.dim}")
    e1 = b.basis_w[:, 0]
    e1 = e1 / np.linalg.norm(e1)
    ratio = float(e1 @ p.metric_operator_w @ e1)
    frame = p.t1.g.frame
    return CanonicalBlockBasis(frozen(frame @ e1), frozen(frame @ (p.t1.j_w @ e1)),
                               b.eigenvalue, ratio)


def group_signature(d: BlockDecomposition) -> GroupSignature:
    """Signature of the group preserving both structures of the pair: one
    U(r) factor of rank r = dim/2 per block, each block being a whole
    (eigenvalue, sign) class.  Blocks with equal eigenvalue but opposite
    sign stay separate: their complex structures differ, so no bi-unitary
    transformation mixes them.
    """
    ranks = tuple(b.dim // 2 for b in d.blocks)
    complex_form = "×".join(f"U({r})" for r in ranks)
    if all(r == 1 for r in ranks):
        real_form = "×".join("SO(2)" for _ in ranks)
    else:
        real_form = "×".join(f"U_r({2 * r};g,ω)" for r in ranks)
    return GroupSignature(ranks, complex_form, real_form)


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
    triples with positive eigenvalues and signs +-1, judged by
    :func:`decompose`'s one rule: the eigenvalues of both signs chain at
    ``cluster_gap``, and each chain must be at most ``cluster_gap`` wide
    and hold at most one entry of each sign; any other spec raises
    ``ValueError``.  In canonical coordinates the pair is

        g1 = I, omega1 = blockdiag(S),
        g2 = blockdiag(eigenvalue * I), omega2 = blockdiag(sign * eigenvalue * S)

    with S the standard 2 x 2 symplectic block; all four tensors are then
    conjugated by a seeded random orthogonal matrix commuting with J1 (the
    real image of a Haar-random unitary), which keeps the first triple's
    structure intact and scrambles the second.  Reproducible bit-for-bit for
    a fixed seed (numpy PCG64 generator).

    The result always passes :func:`check_compatible` and decomposes back to
    the prescribed data.  A spec whose dense matrices cannot be allocated
    raises ``ValueError`` before any per-coordinate data is built.
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
    # decompose's rule: every eigenvalue, of either sign, chained at the
    # gap; a chain no wider than the gap holds at most one entry per sign
    ordered, at = sorted(specs), 0
    for _, count in _chain_clusters([lam for lam, _, _ in ordered], tol.cluster_gap):
        chain, at = ordered[at:at + count], at + count
        if len({sign for _, sign, _ in chain}) < count:
            raise ValueError(f"block eigenvalues {chain[0][0]} .. {chain[-1][0]} hold two "
                             "entries of one sign, not distinguishable at the cluster tolerance")

    mults = [mult for _, _, mult in specs]
    n = sum(mults)
    rng = np.random.default_rng(seed)
    try:
        # the dense matrices before any per-coordinate data: a dimension
        # beyond memory is refused at once
        g1 = np.eye(2 * n)
        eye2 = np.eye(2)
        s2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        lams = np.repeat([lam for lam, _, _ in specs], mults)
        signs = np.repeat([float(sign) for _, sign, _ in specs], mults)
        w1 = np.kron(np.eye(n), s2)
        g2 = np.kron(np.diag(lams), eye2)
        w2 = np.kron(np.diag(signs * lams), s2)
    except (MemoryError, ValueError) as err:
        # numpy raises ValueError for a shape whose byte size overflows
        raise ValueError(f"a pair of dimension {2 * n} does not fit in memory: {err}") from None

    q = _realify(_haar_unitary(n, rng))
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
