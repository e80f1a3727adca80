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
from functools import cached_property

import numpy as np

from .compatibility import CompatiblePair, check_compatible
from .linalg import (
    DEFAULT_TOL,
    NumericalCheckError,
    Record,
    Tolerance,
    cluster_eigenvalues,
    frozen,
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
    compatible pair (a cluster wider than ``cluster_gap``, or J2 not sign *
    J1 on a block), also where the eigenvalues of two forms' transfer
    operator chain into a cluster wider than ``cluster_gap``."""


class Block(Record, hidden=("pair", "coordinates")):
    """One joint eigenspace: G = eigenvalue, T = sign * eigenvalue on it.
    The blocks of a decomposition have distinct (eigenvalue, sign): each is
    the whole (lambda, sign) eigenspace of T.

    The block owns the ``dim // 2`` complex coordinates from ``start`` of
    its decomposition's adapted frame, the columns ``coordinates`` of the
    ``pair``'s T_c eigenvectors.  ``basis_w`` holds the block's orthonormal
    columns [C, D] in t1's g1-orthonormal frame W, read off the pair's
    ``eigenframe_w``: its r complex coordinate axes C, then their partners
    D = J1 C.  ``basis`` holds the same columns in the original
    coordinates, g1-orthonormal there.  Both are read-only and built on
    first use.
    """

    eigenvalue: float
    sign: int
    dim: int
    start: int
    pair: CompatiblePair
    coordinates: np.ndarray

    @cached_property
    def basis_w(self) -> np.ndarray:
        return _frame_columns(self.pair, self.coordinates)

    @cached_property
    def basis(self) -> np.ndarray:
        return frozen(self.pair.t1.g.frame @ self.basis_w)

    def __repr__(self) -> str:
        return (f"Block(eigenvalue={self.eigenvalue:.6g}, sign={self.sign:+d}, "
                f"dim={self.dim})")


class BlockDecomposition(Record):
    """Ordered blocks (ascending eigenvalue, + before -) of a compatible pair;
    carries the pair and its tolerance, ``coordinates``, the column of T_c's
    eigenvectors ``pair.v`` behind each complex coordinate in block order,
    and ``coordinate_lambda`` and ``coordinate_sign``, each coordinate's own
    |mu| and its block's sign, laid out once by :func:`decompose`.  The
    adapted frame ``frame_w`` is Q = [C, D] in t1's g1-orthonormal frame,
    ``pair.eigenframe_w`` in block order: the complex coordinate axes C,
    then their partners D = J1 C (orthonormal to rounding even where J1 is
    orthogonal only to a larger residual).  A block's ``basis_w`` is its
    columns of C, then the same columns of D."""

    blocks: tuple[Block, ...]
    pair: CompatiblePair
    coordinates: np.ndarray
    coordinate_lambda: np.ndarray
    coordinate_sign: np.ndarray

    @property
    def tol(self) -> Tolerance:
        """The pair's tolerance: one per decomposition."""
        return self.pair.tol

    @cached_property
    def frame_w(self) -> np.ndarray:
        """Q, read-only and built on first use from the pair: no free
        field, so the frame certificate covers it."""
        return _frame_columns(self.pair, self.coordinates)

    @cached_property
    def frame_certificate(self) -> tuple[float, float]:
        """``(bound, e)``: how far the pair is from one that the adapted
        frame puts exactly in canonical form, a backward error, and how far
        the frame is from orthonormal; read once, on first use, off the n x n
        blocks the pair keeps, with no m x m product, and never raises (the
        stages that rely on it compare ``bound`` with ``rel``).

        Let Q = ``frame_w`` = sqrt(2) [Re U, Im U], U = Z V in block order
        (Z J1's complex coordinates, V T_c's eigenvectors), and for tau = g1
        (I), J1, G and omega2 in t1's frame let tau_c be its canonical form
        on [C, D]: I, J_c = [[0, -I], [I, 0]], diag(lam, lam) and diag(s lam,
        s lam) J_c, lam and s ``coordinate_lambda`` and ``coordinate_sign``.
        As Q = [U, conj(U)] W with W = [[I, -iI], [I, iI]] / sqrt(2) unitary,

            |Q.T tau Q - tau_c|_F = sqrt(2) hypot(|U^H tau U - H_c|_F, |U^T tau U|_F)

        with H_c = I, -i I, diag(lam) and -i diag(s lam), and U^H tau U =
        V^H (Z^H tau Z) V and U^T tau U = V^T (Z^T tau Z) V turn the pair's
        ``coordinate_blocks`` by V (Frobenius norms do not depend on the
        coordinates' order).  With e that residual for tau = g1,

            bound = max_tau |Q.T tau Q - tau_c|_F / |tau_c|_2 / (1 - e)

        (inf unless e < 1), |tau_c|_2 being 1 for g1 and J1 and max |mu| for
        G and omega2, and tau' = Q^-T tau_c Q^-1, every |tau - tau'|_2 <=
        ``bound`` |tau_c|_2: the pair is within ``bound`` of the pair tau',
        a backward error (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 2nd ed., SIAM 2002, ch. 1).

        Proof: Q.T (tau - tau') Q = Q.T tau Q - tau_c, and the singular
        values of Q are at least sqrt(1 - e), as |Q.T Q - I|_2 <= e.  Every
        field Q K Q^-1, K skew and commuting with every tau_c (the realified
        ``⊕ u(1)``, or ``⊕ u(r)`` where a block's lam are equal), preserves
        every tau' exactly: tau' Q K Q^-1 + Q^-T K.T Q.T tau' = Q^-T (tau_c K
        + K.T tau_c) Q^-1 = 0.  A field A = Q K Q.T of the algebra's basis is
        (Q K Q^-1) Q Q.T, within e / (1 - e) |A| <= ``bound`` |A| of one, as
        |Q Q.T - I|_2 = |Q.T Q - I|_2 <= e.  So every field of the span is
        within ``bound`` of a field that preserves exactly a pair within
        ``bound`` of the input.  The lam of a block spread by up to
        ``cluster_gap``, so a u(r) field that mixes a block's coordinates
        preserves exactly the pair of each block's mean lam instead, within
        ``bound`` plus the spread (max - min) lam / max |mu| / (1 - e).
        Rounding: the blocks are measured like every residual of the
        threshold rule; Z and V come from backward stable ``eigh`` (Golub &
        Van Loan, *Matrix Computations*, 4th ed., §8.1), so e is O(m eps),
        and J1's departure is its own rounding, O(cond(g1) eps): ``bound`` is
        2.0e-10 on the two-class dim-512 pair at cond(g1) = 1e6, and 8.4e-14
        on the generic dim-512 pair, where e is 7.7e-14.
        """
        p = self.pair
        n, v, t = p.dim // 2, p.v, p.mu / p.metric_eigenvalues[-1]
        # U^H tau U, then U^T tau U, for tau = g1, J1, G and omega2, G and
        # omega2 over max |mu|, less the canonical diagonals
        turned = np.empty((2, 4, n, n), dtype=np.complex128)
        np.matmul(v.conj().T @ p.coordinate_blocks[0], v, out=turned[0])
        np.matmul(v.T @ p.coordinate_blocks[1], v, out=turned[1])
        diag = turned[0].reshape(4, -1)[:, ::n + 1]
        diag[0] -= 1.0
        diag[1] -= -1j
        diag[2] -= np.abs(t)
        diag[3] -= -1j * t
        real = turned.view(np.float64)
        # |Q.T tau Q - tau_c|_F^2 / 2 for each tau
        half_sq = np.einsum("kaij,kaij->a", real, real)
        e = math.sqrt(2.0 * float(half_sq[0]))
        return (math.sqrt(2.0 * float(half_sq.max())) / (1.0 - e) if e < 1.0 else math.inf), e


def _frame_columns(p: CompatiblePair, cols: np.ndarray) -> np.ndarray:
    """The axes, then the partners, of the pair's ``eigenframe_w`` at the
    eigenvector columns ``cols``: a fresh read-only copy."""
    return frozen(p.eigenframe_w[:, np.concatenate((cols, cols + p.dim // 2))], copy=False)


class GroupSignature(Record):
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


class CanonicalBlockBasis(Record):
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

    Reads T_c's eigenpairs (mu, V) in J1's complex coordinates Z and the
    residual Y on them off the pair (:func:`check_compatible`), with no
    eigensolve and no product.  The |mu| chain at ``cluster_gap`` (a wider
    chain is refused: the one judge of eigenvalue equality), each cluster
    split by the sign of mu, both parts taking its mean as lambda.  In
    block order, ``sqrt(2) Z V`` holds the axes C (real parts) and partners
    D = J1 C (imaginary parts) of ``frame_w`` = [C, D], built on first use;
    a block's basis is its columns of C, then of D (:attr:`Block.basis_w`),
    J1-invariant and g1-orthogonal to the others by construction.

    One more check is judged: J2 = sign * J1 on each block's whole columns.
    For B = [C, D], Y is, up to the anti-linear blocks and to first order in
    nu - 1 and E, the realified (J2 - s J1) B (realifying keeps the
    spectral norm, and the Frobenius one times sqrt(2)); a block's columns
    of Y pass in the Frobenius norm, free of V's unitary freedom in a
    block, at ``rel`` times |J1|_2 = 1.  That check bounds g2 and omega2 on
    the blocks too.  With E = V^H N H N V - L and R = V^H N K N V + i
    diag(mu) over max |mu| (:func:`check_compatible`), Y = diag(max |mu| /
    |mu|) (R + i E S) entrywise, and max |mu| / |mu| >= 1, so on any
    columns |E| <= |Y| + |R|: g2 proportional to g1 on each block and
    g2-orthogonal across blocks.  R is the Hermitian part of N K N turned
    by V, which for an antisymmetric omega2 is rounding and ``eigh``'s
    residual alone: omega2 proportional to omega1.  The E and R sub-block
    norms, and the real form's row-sum residuals, are kept as oracles in
    ``tests/loop_oracle.py``.  An error names the first failing block.
    """
    tol, mu = p.tol, p.mu.tolist()
    # one permutation of eigh's output into block order: lambda ascends by
    # cluster, + before - within one (a zero mu joins the + part); a block
    # is a run of one (cluster, sign), the same columns of C and D
    ranked = sorted(range(len(mu)), key=[abs(x) for x in mu].__getitem__)
    clusters = _chain_clusters([abs(mu[k]) for k in ranked], tol.cluster_gap,
                               "; give a smaller cluster_gap")
    order, specs = [], []
    for mean, count in clusters:
        chain, ranked = ranked[:count], ranked[count:]
        for sign in (1, -1):
            part = [k for k in chain if (mu[k] < 0.0) == (sign < 0)]
            if part:
                specs.append((mean, sign, 2 * len(part), len(order)))
                order += part
    index = frozen(np.array(order), copy=False)
    blocks = tuple([Block(lam, sign, dim, start, p, index[start:start + dim // 2])
                    for lam, sign, dim, start in specs])

    # J2 on each block's whole columns of Y, in block order
    columns = (abs(p.y) ** 2).sum(axis=0).tolist()
    for b in blocks:
        resid = math.sqrt(sum([columns[k] for k in order[b.start:b.start + b.dim // 2]]))
        if not resid <= tol.rel:
            raise DecompositionError(
                f"J2 = sign * J1 fails on block (lambda={b.eigenvalue:.6g}, sign={b.sign:+d}) "
                f"with residual {resid:.3e}")
    lam, signs = [abs(mu[k]) for k in order], [-1 if mu[k] < 0.0 else 1 for k in order]
    return BlockDecomposition(blocks, p, index, frozen(np.array(lam), copy=False),
                              frozen(np.array(signs), copy=False))


def _chain_clusters(lam, cluster_gap: float, advice: str = "") -> list[tuple[float, int]]:
    """The one rule of eigenvalue equality: the ascending ``lam``, G's
    eigenvalues, chained at ``cluster_gap`` (:func:`cluster_eigenvalues`),
    and a chain whose spread, (max - min) / max, exceeds ``cluster_gap``
    refused with :class:`DecompositionError`, its message ending in
    ``advice``.  A chain of one (finite) value has spread 0, and is not
    judged again."""
    clusters, at = cluster_eigenvalues(lam, cluster_gap), 0
    for _, count in clusters:
        low, high, at = lam[at], lam[at + count - 1], at + count
        if count > 1 and not same_cluster(low, high, cluster_gap):
            raise DecompositionError(
                f"cluster width fails: eigenvalues {low:.9g} .. {high:.9g} of G chain into "
                f"one cluster of spread {(high - low) / high:.3e}, wider than cluster_gap "
                f"{cluster_gap:g}{advice}")
    return clusters


def is_generic(d: BlockDecomposition) -> bool:
    """True when every block has the minimum possible dimension two."""
    return all([b.dim == 2 for b in d.blocks])


def canonical_basis(b: Block) -> CanonicalBlockBasis:
    """Canonical frame of a two-dimensional block, read off the block and
    its pair ``b.pair``.

    ``e1`` is the block's axis normalized to g1(e1, e1) = 1 and
    ``e2 = J1 @ e1``.  :func:`decompose` built the block's [C, D] from one
    unitary and certified J2 = sign * J1 on it, and the first triple is
    admissible, so the frame is g1-orthogonal with equal lengths and
    carries omega1(e1, e2) = -g1(e1, e1); the measured metric ratio g2/g1
    on the block is the coordinate's own eigenvalue.
    """
    p = b.pair
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
    ranks = tuple([b.dim // 2 for b in d.blocks])
    complex_form = "×".join([f"U({r})" for r in ranks])
    if ranks.count(1) == len(ranks):
        real_form = "×".join(["SO(2)"] * len(ranks))
    else:
        real_form = "×".join([f"U_r({2 * r};g,ω)" for r in ranks])
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
