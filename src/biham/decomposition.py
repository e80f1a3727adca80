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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compatibility import CompatiblePair, check_compatible
from .linalg import (
    DEFAULT_TOL,
    NumericalCheckError,
    Tolerance,
    cluster_eigenvalues,
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
    proportional on a block, or G not orthogonal across blocks)."""


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
    carries the pair, its tolerance, its adapted frame and each complex
    coordinate's own |mu| in the frame's order (``coordinate_lambda``)."""

    blocks: tuple[Block, ...]
    pair: CompatiblePair
    coordinate_lambda: np.ndarray

    @property
    def tol(self) -> Tolerance:
        """The pair's tolerance: one per decomposition."""
        return self.pair.tol

    @cached_property
    def adapted_frame(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Complex basis vectors (columns) adapted to the decomposition, in
        t1's g1-orthonormal frame, their partners and the block sign
        carried by each.

        Each block's basis is [C, D], its axes C and their partners
        D = J1 C from :func:`decompose`'s one unitary; the axes are the
        complex coordinate axes, and [axes, partners] is orthonormal to
        rounding even where J1 is orthogonal only to a larger residual.
        Sliced out of the blocks once per decomposition, on first use.
        """
        cols = np.hstack([b.basis_w[:, :b.dim // 2] for b in self.blocks])
        partners = np.hstack([b.basis_w[:, b.dim // 2:] for b in self.blocks])
        signs = tuple(b.sign for b in self.blocks for _ in range(b.dim // 2))
        return frozen(cols), frozen(partners), signs

    @cached_property
    def frame_certificate(self) -> tuple[float, float]:
        """``(bound, e)``: how far every field of the realified ``⊕ u(r)``
        on the adapted frame may be from preserving all four tensors, and
        how far the frame is from orthonormal; measured once, on first use,
        by one O(m^3) check, and never raises (the stages that rely on it
        compare ``bound`` with ``rel``).

        In t1's frame let Q = [C, D] (axes and partners), e = |Q.T Q - I|,
        |.| the row-sum norm, and for tau = J1, G, omega2 let tau_c be its
        canonical block form ([[0, -I], [I, 0]], diag(lam, lam) and that
        first form times diag(s lam, s lam), lam each coordinate's |mu|) and
        d = max |tau - Q tau_c Q.T| / |tau|.  Then

            bound = 2 d + 2 m e (1 + e) (1 + d) / (1 - e)^2

        (inf when e >= 1) and every A in the span satisfies
        |tau A + A.T tau| <= bound |tau| |A|.

        Proof: the span is {A = Q K Q.T}, K skew and commuting with every
        tau_c, so A is skew (g1 = I is preserved) and with O = Q.T Q - I

            tau A + A.T tau = [tau - Q tau_c Q.T, A] + Q (tau_c O K - K O tau_c) Q.T.

        The first term is at most 2 d |tau| |A|.  In the spectral norm,
        where |O| <= e as O is symmetric, |Q|^2 <= 1 + e, |K| <= |A| /
        (1 - e) and |tau_c| <= (1 + d) |tau| / (1 - e) (symmetric and skew
        matrices have spectral norm at most row-sum norm); |z| <= sqrt(m)
        |z|_2 and |A|_2 <= sqrt(m) |A| bound the second by the rest of the
        bound times |tau| |A|.  Rounding: the departures are measured like
        every residual of the threshold rule; the frame comes from backward
        stable ``eigh`` (Golub & Van Loan, *Matrix Computations*, 4th ed.,
        §8.1), so e is O(m eps) and d O((m + cond(g1)) eps): on 320
        congruences of generic and two-class pairs of dims 8-32 at
        cond(g1) = 1e6 the bound is at most 3.8e-10 (median 4.9e-11).
        A block's lam spread by up to ``cluster_gap``, so a merged u(r) field
        preserves G and omega2 only within the bound plus 2 (1 + e) spread
        (spectral norm), spread the largest (max - min) lam / |tau| of a block.
        """
        p, (cols, partners, signs) = self.pair, self.adapted_frame
        q = np.hstack((cols, partners))
        n, m = cols.shape[1], p.dim
        lam = np.tile(self.coordinate_lambda, 2)
        rot = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
        canon = np.array([rot, np.diag(lam), (np.tile(signs, 2) * lam)[:, None] * rot])
        taus = np.array([p.t1.j_w, p.metric_operator_w, p.omega2_w])
        n_g2, n_w2, _ = p.norms_w
        norms = op_norms(np.concatenate((taus - q @ canon @ q.T, [q.T @ q - np.eye(m)])))
        dep = float((norms[:3] / (p.t1.j_w_norm, n_g2, n_w2)).max())
        e = float(norms[3])
        bound = (2.0 * dep + 2.0 * m * e * (1.0 + e) * (1.0 + dep) / (1.0 - e) ** 2
                 if e < 1.0 else math.inf)
        return bound, e


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
    max, exceeds ``cluster_gap`` is refused.  The columns of ``sqrt(2) Z V``
    give each block's axes C (real parts) and their partners D = J1 C
    (imaginary parts), and the block's basis is [C, D]: every block is
    J1-invariant and 2r-dimensional, and the blocks are g1-orthogonal, by
    construction.  The part of T that anticommutes with J1 never enters;
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

    order = np.argsort(np.abs(mu), kind="stable")
    mu, lam_c, axes = mu[order], np.abs(mu[order]), np.sqrt(2.0) * (z @ v[:, order])

    # lambda ascends, + before - (a zero mu joins the + part)
    blocks: list[Block] = []
    coords = []
    clusters = cluster_eigenvalues(lam_c, tol.cluster_gap)
    ends = np.cumsum([0] + [count for _, count in clusters])
    for (lam, _), lo, hi in zip(clusters, ends, ends[1:]):
        low, high = lam_c[lo], lam_c[hi - 1]
        if not same_cluster(low, high, tol.cluster_gap):
            raise DecompositionError(
                f"cluster width fails: eigenvalues {low:.9g} .. {high:.9g} of G chain into one "
                f"cluster of spread {(high - low) / high:.3e}, wider than cluster_gap "
                f"{tol.cluster_gap:g}; give a smaller cluster_gap in the file's 'tol'")
        for sign in (1, -1):
            part = (mu[lo:hi] >= 0.0) == (sign > 0)
            if part.any():
                cols = axes[:, lo:hi][:, part]
                basis_w = np.hstack((cols.real, cols.imag))
                blocks.append(Block(float(lam), sign, basis_w.shape[1],
                                    frozen(p.t1.g.frame @ basis_w), frozen(basis_w)))
                coords.append(lam_c[lo:hi][part])

    d = BlockDecomposition(tuple(blocks), p, frozen(np.concatenate(coords)))
    per_block, cross = _block_residuals(d)
    n_g2, n_w2, _ = p.norms_w
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


def _block_residuals(d: BlockDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the checks of :func:`decompose`, from one set of dense
    products of the stacked bases C (the (i, k) sub-block of C.T @ M @ C
    is B_i.T @ M @ B_k).

    ``per_block[i]`` holds, for block i, the row-sum norms of
    B.T g2 B - B.T B L, B.T omega2 B - sign B.T J1 B L (L the block's
    ``coordinate_lambda`` on [C, D]) and J2 B - sign J1 B; ``cross[i, k]``
    that of B_i.T g2 B_k, meaningful for i < k.
    """
    p, blocks = d.pair, d.blocks
    j1, j2 = p.t1.j_w, p.j2_w
    g2, w2 = p.metric_operator_w, p.omega2_w
    dims = [b.dim for b in blocks]
    starts = np.cumsum([0] + dims[:-1])
    ends = np.cumsum([0] + [r // 2 for r in dims])
    lam = np.concatenate([np.tile(d.coordinate_lambda[a:b], 2) for a, b in zip(ends, ends[1:])])
    sign = np.repeat([b.sign for b in blocks], dims)
    c = np.hstack([b.basis_w for b in blocks])
    gram2, j1c = c.T @ g2 @ c, j1 @ c
    per_block = np.stack([
        np.diagonal(_block_norms(gram2 - lam * (c.T @ c), starts)),
        np.diagonal(_block_norms(c.T @ w2 @ c - (sign * lam) * (c.T @ j1c), starts)),
        _block_norms(j2 @ c - sign * j1c, starts).max(axis=0),
    ], axis=1)
    return per_block, _block_norms(gram2, starts)


def _block_norms(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Row-sum norm (the package's operator norm) of every sub-block of
    ``a`` when both axes are cut at ``starts``: entry (i, k) belongs to row
    block i and column block k."""
    row_sums = np.add.reduceat(np.abs(a), starts, axis=1)
    return np.maximum.reduceat(row_sums, starts, axis=0)


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
    for s in (-1, 1):
        lams = sorted(lam for lam, sign, _ in specs if sign == s)
        for a, b in zip(lams, lams[1:]):
            if same_cluster(a, b, tol.cluster_gap):
                raise ValueError(
                    f"block eigenvalues {a} and {b} with sign {s:+d} are not "
                    "distinguishable at the cluster tolerance"
                )

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
