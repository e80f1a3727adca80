"""Dynamics preserving both structures of a compatible pair.

The linear fields whose flows preserve g1, g2, omega1 and omega2, i.e. the
matrices A with

    tau @ A + A.T @ tau = 0,    tau in {g1, g2, omega1, omega2},

form a Lie algebra.  On each block of the decomposition g2 = lambda * g1,
omega2 = +-lambda * omega1 and J2 = +-J1, so the algebra is the direct sum
of one u(r) per block of complex rank r.  It is built here from that
structure: the u(r) generators in each block's complex coordinates,
realified with J1, in O(m^3 + k m^2) time and O(k m^2) memory for k
generators on R^m, then orthonormalized by one QR in O(k^2 m^2).  A
Kronecker/SVD null space of the four constraints would cost O(m^6) time
and O(m^4) memory.  The dimension is checked against the sum of the
squared ranks of the group signature, and every element against both
triples (O(k m^3)); for a generic pair the dimension is exactly n and the
algebra is a maximal torus.

The recursion operator T generates a distinguished commuting family inside
it: the fields with matrices J1, T @ J1, ..., T^(n-1) @ J1.  Because T is a
constant invertible (1,1)-tensor it satisfies the Nijenhuis condition, which
at matrix level is the identity [T A, T] = T [A, T]; preservation and
pairwise commutation of the family follow.  The family is linearly
independent exactly when T has n distinct eigenvalues (Vandermonde
argument on the minimal polynomial), so its certified rank equals the
number of distinct T eigenvalues, the (lambda, sign) classes of the blocks.

Every stage here computes in t1's g1-orthonormal frame, where the fields
that preserve g1 are skew matrices, and maps back only the fields it
reports.  The conservation probe flows a field over N sampled times along
one of two paths.  A field that preserves g1 within ``tol.rel`` (every
algebra element and every recursion field) is a real skew matrix in that
frame, so one Hermitian eigensolve gives its flow at every time, O(m^3) per
field plus batched O(N m^3) products (the eigenvector method for normal
matrices; Moler & Van Loan, SIAM Rev. 2003).  This is the flow of the
field's g1-skew part, unitary at any norm.  Any other field, such as the
dilation, takes one scaling-and-squaring matrix exponential per time (N
expm calls), which raises :class:`FlowOverflowError` when it overflows.
Either way the drift of all four tensors is measured on every flow in the
original coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .compatibility import CompatiblePair
from .decomposition import BlockDecomposition, DecompositionError, group_signature
from .linalg import (
    DEFAULT_TOL,
    NumericalCheckError,
    Tolerance,
    commutator,
    frozen,
    numerical_rank,
    op_norm,
    orthonormal_span,
)
from .structures import LinearField, preservation_residuals

__all__ = [
    "BiPreservingAlgebra",
    "RecursionBasis",
    "RecursionCertificate",
    "ConservationReport",
    "FlowOverflowError",
    "bi_preserving_algebra",
    "recursion_basis",
    "certify_recursion",
    "flow",
    "conservation_probe",
]


class FlowOverflowError(NumericalCheckError):
    """The matrix exponential overflowed for the requested time."""


@dataclass(frozen=True)
class BiPreservingAlgebra:
    """Orthonormalized basis of the Lie algebra of fields preserving all
    four tensors of the pair; dimension = sum of squared signature ranks."""

    basis: tuple[np.ndarray, ...]
    dim: int


@dataclass(frozen=True)
class RecursionBasis:
    """The commuting family generated by the recursion operator:
    fields with matrices T^k @ J1 for k = 0 .. n-1.

    ``directions_w`` stacks them in t1's g1-orthonormal frame, each of unit
    norm: the powers scale like lambda^k and leave the floating-point range
    for extreme spectra, while every check of the family is scale-free.
    """

    pair: CompatiblePair
    directions_w: np.ndarray

    @cached_property
    def fields(self) -> tuple[LinearField, ...]:
        p = self.pair
        mats = [p.t1.j_w]
        for _ in range(p.dim // 2 - 1):
            mats.append(p.recursion_operator_w @ mats[-1])
        return tuple(LinearField(p.t1.g.frame @ m @ p.t1.g.frame_inv) for m in mats)

    @property
    def unit_fields(self) -> tuple[LinearField, ...]:
        """The directions in the original coordinates, each of unit norm."""
        raw = self.pair.t1.g.frame @ self.directions_w @ self.pair.t1.g.frame_inv
        return tuple(LinearField(m / op_norm(m)) for m in raw)


@dataclass(frozen=True)
class RecursionCertificate:
    """Certification report for a recursion family."""

    preserves_all: bool
    max_preservation_residual: float
    commute: bool
    max_commutator_residual: float
    rank: int
    expected_rank: int
    singular_values: tuple[float, ...]
    rank_gap: float
    distinct_t_eigenvalues: int
    vandermonde_consistent: bool
    nijenhuis_residual: float
    all_pass: bool


@dataclass(frozen=True)
class ConservationReport:
    """Worst relative drift of each tensor under the flow of one field,
    over the sampled times."""

    drifts: dict[str, float]
    times: tuple[float, ...]

    @property
    def max_drift(self) -> float:
        return max(self.drifts.values())


def bi_preserving_algebra(d: BlockDecomposition) -> BiPreservingAlgebra:
    """All linear fields preserving both triples of the decomposed pair,
    block by block.

    On a block of complex rank r the two structures are proportional, so
    the fields preserving both are those preserving the first triple there:
    u(r) in the block's complex coordinates, spanned by i E_aa, E_ab - E_ba
    and i (E_ab + E_ba) for a < b.  In t1's g1-orthonormal frame a complex
    matrix Z = X + iY is realified with J1 as the real field

        (C X + D Y) @ C.T + (D X - C Y) @ D.T,    D = J1 @ C,

    where the columns C are the block's orthonormal complex axes from
    :attr:`BlockDecomposition.adapted_frame`.  The generators of all blocks
    are mapped back to the original coordinates and orthonormalized there
    in the Frobenius inner product by one QR.  The dimension is
    cross-checked against the group signature (sum of squared ranks) and
    every basis element is re-verified to preserve both triples.
    """
    p, tol = d.pair, d.tol
    j1 = p.t1.j_w
    frame, frame_inv = p.t1.g.frame, p.t1.g.frame_inv
    cols, _ = d.adapted_frame
    gens = []
    start = 0
    for block in d.blocks:
        r = block.dim // 2
        c = cols[:, start:start + r]
        start += r
        dj = j1 @ c
        # realified matrix units: unit[a, b] is the real field of E_ab
        unit = np.einsum("ia,jb->abij", c, c) + np.einsum("ia,jb->abij", dj, dj)
        i_unit = np.einsum("ia,jb->abij", dj, c) - np.einsum("ia,jb->abij", c, dj)
        diag, upper = np.diag_indices(r), np.triu_indices(r, 1)
        lower = upper[::-1]
        gens.extend((i_unit[diag], unit[upper] - unit[lower],
                     i_unit[upper] + i_unit[lower]))
    basis = orthonormal_span(frame @ np.concatenate(gens) @ frame_inv, tol.rel)

    expected = sum(r * r for r in group_signature(d).multiplicities)
    if len(basis) != expected:
        raise DecompositionError(
            f"bi-preserving algebra has dimension {len(basis)}, expected "
            f"{expected} from the group signature"
        )
    worst = _max_preservation_residual(frame_inv @ basis @ frame, p)
    if not worst <= tol.rel:
        raise DecompositionError(
            f"algebra element fails preservation (residual {worst:.3e})")
    return BiPreservingAlgebra(tuple(frozen(a) for a in basis), len(basis))


def _max_preservation_residual(mats_w: np.ndarray, p: CompatiblePair) -> float:
    """Worst relative residual of the four invariance conditions over a
    stack of fields given in t1's g1-orthonormal frame."""
    residuals = (preservation_residuals(mats_w, np.eye(p.dim), p.t1.j_w)
                 + preservation_residuals(mats_w, p.metric_operator_w, p.omega2_w))
    return float(max(r.max() for r in residuals))


def recursion_basis(p: CompatiblePair) -> RecursionBasis:
    """The candidate commuting family T^k @ J1, k = 0 .. n-1.

    Built unconditionally, as unit-norm directions in t1's g1-orthonormal
    frame; :func:`certify_recursion` decides whether it is an actual basis
    (full rank requires genericity).
    """
    dirs = [p.t1.j_w / op_norm(p.t1.j_w)]
    for _ in range(p.dim // 2 - 1):
        nxt = p.recursion_operator_w @ dirs[-1]
        dirs.append(nxt / op_norm(nxt))
    return RecursionBasis(p, frozen(np.array(dirs)))


def certify_recursion(rb: RecursionBasis, d: BlockDecomposition) -> RecursionCertificate:
    """Certify the recursion family of the decomposed pair: preservation of
    all four tensors, pairwise commutation, numerical rank with
    singular-value gap, the Vandermonde consistency between rank and the
    number of (lambda, sign) classes of the blocks, and the matrix
    Nijenhuis identity [T A, T] = T [A, T] for A = J1.  Every check reads
    the family in t1's g1-orthonormal frame."""
    p, tol = d.pair, d.tol
    mats = rb.directions_w
    n = p.dim // 2

    max_pres = _max_preservation_residual(mats, p)
    preserves_all = max_pres <= tol.rel

    # the directions have unit norm, so each commutator is relative
    max_comm = 0.0
    for i in range(len(mats)):
        for k in range(i + 1, len(mats)):
            max_comm = max(max_comm, op_norm(commutator(mats[i], mats[k])))
    commute = max_comm <= tol.rel

    # rank of the set of directions, each of unit Frobenius norm
    rows = mats.reshape(len(mats), -1)
    stacked = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    rank, s, rank_gap = numerical_rank(stacked, tol.rel)

    distinct = len(group_signature(d).multiplicities)
    vandermonde_consistent = rank == min(distinct, n)

    big_t, a = p.recursion_operator_w, p.t1.j_w
    nij = op_norm(commutator(big_t @ a, big_t) - big_t @ commutator(a, big_t))
    nij_ok = nij <= tol.threshold(big_t, big_t, a)

    return RecursionCertificate(
        preserves_all=preserves_all,
        max_preservation_residual=max_pres,
        commute=commute,
        max_commutator_residual=max_comm,
        rank=rank,
        expected_rank=n,
        singular_values=tuple(float(x) for x in s),
        rank_gap=rank_gap,
        distinct_t_eigenvalues=distinct,
        vandermonde_consistent=vandermonde_consistent,
        nijenhuis_residual=float(nij),
        all_pass=(preserves_all and commute and rank == n
                  and vandermonde_consistent and nij_ok),
    )


def flow(field: LinearField, t: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Time-t flow exp(t * A) of a linear field.

    When A @ A = -c^2 I (phase-generator-like fields) the closed form
    cos(c t) I + sin(c t) / c * A is used; otherwise the general scaling-and-
    squaring matrix exponential.  Overflow raises
    :class:`FlowOverflowError`.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    a = field.matrix
    m = a.shape[0]
    if t == 0.0:
        return np.eye(m)
    a2 = a @ a
    c2 = -float(np.trace(a2)) / m
    if c2 > 0.0 and op_norm(a2 + c2 * np.eye(m)) <= tol.threshold(a, a):
        c = np.sqrt(c2)
        out = np.cos(c * t) * np.eye(m) + (np.sin(c * t) / c) * a
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = scipy.linalg.expm(t * a)
    if not np.isfinite(out).all():
        raise FlowOverflowError(
            f"matrix exponential overflowed for t={t} (field norm {op_norm(a):.3e})"
        )
    return out


def _probe_flows(field: LinearField, p: CompatiblePair, times: tuple[float, ...]) -> np.ndarray:
    """Flows of the field at every sampled time, stacked as (len(times), m, m).

    A field that preserves g1 within the threshold rule takes the spectral
    path: in the g1-orthonormal frame W it is the real skew matrix
    S = inv(W) A W, and with (mu, U) = eigh(i K) for the skew part K of S,

        exp(t A) = W Re(U diag(exp(-i mu t)) U^H) inv(W)

    for all times at once, the flow of A's g1-skew part.  Any other field
    takes :func:`flow`, one matrix exponential per time.
    """
    tol = p.tol
    a = field.matrix
    frame, frame_inv = p.t1.g.frame, p.t1.g.frame_inv
    s = frame_inv @ a @ frame
    if not op_norm(s + s.T) <= tol.threshold(s):
        return np.array([flow(field, t, tol) for t in times]).reshape(-1, *a.shape)
    mu, u = np.linalg.eigh(1j * (0.5 * (s - s.T)))
    left = frame @ u
    right = u.conj().T @ frame_inv
    phase = np.exp(-1j * np.multiply.outer(times, mu))
    return ((left * phase[:, None, :]) @ right).real


def conservation_probe(field: LinearField, p: CompatiblePair,
                       times) -> ConservationReport:
    """Finite-time invariance check: worst relative drift of each of the
    four tensors under the flow of the field, over the sampled times.

    A field that preserves g1 within ``tol.rel`` is flowed from one
    Hermitian eigensolve, as the flow of its g1-skew part; any other field
    by one matrix exponential per time (see :func:`_probe_flows`).  On both
    paths the drift ``||O^T tau O - tau|| / ||tau||`` is measured for all
    four tensors at every sampled time, in the original coordinates.

    Fields inside the bi-preserving algebra drift only at rounding level;
    for any other field the report documents how the tensors move.
    """
    times = tuple(float(t) for t in times)
    if not np.isfinite(times).all():
        raise ValueError("time must be finite")
    tensors = {
        "g1": p.t1.g.m,
        "g2": p.t2.g.m,
        "omega1": p.t1.omega.m,
        "omega2": p.t2.omega.m,
    }
    o = _probe_flows(field, p, times)
    o_t = np.swapaxes(o, 1, 2)
    drifts = {
        name: float(np.abs(o_t @ tau @ o - tau).sum(axis=2).max(initial=0.0)) / op_norm(tau)
        for name, tau in tensors.items()
    }
    return ConservationReport(drifts, times)
