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
number of distinct T eigenvalue clusters.

The conservation probe flows a field over N sampled times along one of two
paths.  A field that preserves g1 within ``tol.rel`` (every algebra element
and every recursion field) is g1-skew: whitened by the Cholesky factor of
g1 it is a real skew matrix, so one Hermitian eigensolve gives its flow at
every time, O(m^3) per field plus batched O(N m^3) products (the
eigenvector method for normal matrices; Moler & Van Loan, SIAM Rev. 2003).
This is the flow of the field's g1-skew part, unitary at any norm.  Any
other field, such as the dilation, takes one scaling-and-squaring matrix
exponential per time (N expm calls), which raises
:class:`FlowOverflowError` when it overflows.  Either way the drift of all
four tensors is measured on every flow in the original coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .compatibility import CompatiblePair
from .decomposition import DecompositionError, adapted_frame, decompose, group_signature
from .linalg import (
    DEFAULT_TOL,
    NumericalCheckError,
    Tolerance,
    cholesky_spd,
    cluster_eigenvalues,
    commutator,
    eig_self_adjoint,
    frozen,
    numerical_rank,
    op_norm,
    orthonormal_span,
)
from .structures import LinearField, field_preserves

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

    pair: CompatiblePair
    basis: tuple[np.ndarray, ...]
    dim: int


@dataclass(frozen=True)
class RecursionBasis:
    """The commuting family generated by the recursion operator:
    fields with matrices T^k @ J1 for k = 0 .. n-1."""

    pair: CompatiblePair
    fields: tuple[LinearField, ...]

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(f.matrix for f in self.fields)


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


def bi_preserving_algebra(p: CompatiblePair,
                          tol: Tolerance | None = None) -> BiPreservingAlgebra:
    """All linear fields preserving both triples, block by block.

    On a block of complex rank r the two structures are proportional, so
    the fields preserving both are those preserving the first triple there:
    u(r) in the block's complex coordinates, spanned by i E_aa, E_ab - E_ba
    and i (E_ab + E_ba) for a < b.  A complex matrix Z = X + iY is
    realified with J1 as the real field

        (C X + D Y) @ C.T @ g1 + (D X - C Y) @ D.T @ g1,    D = J1 @ C,

    where the columns C are the block's g1-orthonormal complex axes from
    :func:`adapted_frame`.  The generators of all blocks are orthonormalized
    in the Frobenius inner product by one QR.  The dimension is
    cross-checked against the group signature (sum of squared ranks) and
    every basis element is re-verified to preserve both triples.
    """
    tol = tol or p.tol
    d = decompose(p, tol)
    g1, j1 = p.t1.g.m, p.t1.j.m
    cols, _ = adapted_frame(d)
    gens = []
    start = 0
    for block in d.blocks:
        r = block.dim // 2
        c = cols[:, start:start + r]
        start += r
        dj = j1 @ c
        cw, dw = c.T @ g1, dj.T @ g1
        # realified matrix units: unit[a, b] is the real field of E_ab
        unit = np.einsum("ia,bj->abij", c, cw) + np.einsum("ia,bj->abij", dj, dw)
        i_unit = np.einsum("ia,bj->abij", dj, cw) - np.einsum("ia,bj->abij", c, dw)
        diag, upper = np.diag_indices(r), np.triu_indices(r, 1)
        lower = upper[::-1]
        gens.extend((i_unit[diag], unit[upper] - unit[lower],
                     i_unit[upper] + i_unit[lower]))
    mats = tuple(frozen(a) for a in orthonormal_span(np.concatenate(gens), tol.rel))

    expected = sum(r * r for r in group_signature(d).multiplicities)
    if len(mats) != expected:
        raise DecompositionError(
            f"bi-preserving algebra has dimension {len(mats)}, expected "
            f"{expected} from the group signature"
        )
    for a in mats:
        f = LinearField(a)
        for t in (p.t1, p.t2):
            report = field_preserves(f, t, tol)
            if not report:
                raise DecompositionError(
                    "algebra element fails preservation (residuals "
                    f"{report.metric_residual:.3e}, {report.symplectic_residual:.3e})"
                )
    return BiPreservingAlgebra(p, mats, len(mats))


def recursion_basis(p: CompatiblePair) -> RecursionBasis:
    """The candidate commuting family T^k @ J1, k = 0 .. n-1.

    Built unconditionally; :func:`certify_recursion` decides whether it is
    an actual basis (full rank requires genericity).
    """
    n = p.dim // 2
    mats = []
    cur = p.t1.j.m
    for _ in range(n):
        mats.append(LinearField(cur))
        cur = p.recursion_operator @ cur
    return RecursionBasis(p, tuple(mats))


def certify_recursion(rb: RecursionBasis, p: CompatiblePair,
                      tol: Tolerance | None = None) -> RecursionCertificate:
    """Certify the recursion family: preservation of all four tensors,
    pairwise commutation, numerical rank with singular-value gap, the
    Vandermonde consistency between rank and the number of distinct
    recursion-operator eigenvalues, and the matrix Nijenhuis identity
    [T A, T] = T [A, T] for A = J1."""
    tol = tol or p.tol
    mats = rb.matrices
    n = p.dim // 2

    max_pres = 0.0
    for f in rb.fields:
        for t in (p.t1, p.t2):
            rep = field_preserves(f, t, tol)
            max_pres = max(max_pres, rep.metric_residual, rep.symplectic_residual)
    preserves_all = max_pres <= tol.rel

    max_comm = 0.0
    for i in range(len(mats)):
        for k in range(i + 1, len(mats)):
            scl = max(1.0, op_norm(mats[i]) * op_norm(mats[k]))
            max_comm = max(max_comm, op_norm(commutator(mats[i], mats[k])) / scl)
    commute = max_comm <= tol.rel

    # rank of the set of directions: normalize rows first, since the raw
    # powers of T scale like lambda^k and would swamp the threshold
    stacked = np.stack([m.ravel() / np.linalg.norm(m.ravel()) for m in mats])
    rank, s, rank_gap = numerical_rank(stacked, tol.rel)

    t_evals, _ = eig_self_adjoint(p.recursion_operator, p.t1.g.m, tol)
    distinct = len(cluster_eigenvalues(t_evals, tol.cluster_gap))
    vandermonde_consistent = rank == min(distinct, n)

    big_t = p.recursion_operator
    a = p.t1.j.m
    nij = op_norm(commutator(big_t @ a, big_t) - big_t @ commutator(a, big_t))
    nij_ok = nij <= 1e-12 * max(1.0, op_norm(big_t) ** 2 * op_norm(a))

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
    if c2 > 0.0 and op_norm(a2 + c2 * np.eye(m)) <= tol.rel * max(1.0, op_norm(a2)):
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

    A field that preserves g1 within ``tol.rel`` takes the spectral path:
    whitened by g1 = L L^T it is the real skew matrix S = L^T A L^-T, and
    with (mu, U) = eigh(i K) for the skew part K of S,

        exp(t A) = L^-T Re(U diag(exp(-i mu t)) U^H) L^T

    for all times at once, the flow of A's g1-skew part.  Any other field
    takes :func:`flow`, one matrix exponential per time.
    """
    tol = p.tol
    a = field.matrix
    if field_preserves(field, p.t1, tol).metric_residual > tol.rel:
        return np.array([flow(field, t, tol) for t in times]).reshape(-1, *a.shape)
    chol = cholesky_spd(p.t1.g.m, tol)
    s = chol.T @ scipy.linalg.solve_triangular(chol, a.T, lower=True).T
    mu, u = np.linalg.eigh(1j * (0.5 * (s - s.T)))
    left = scipy.linalg.solve_triangular(chol.T, u, lower=False)  # L^-T U
    right = u.conj().T @ chol.T  # U^H L^T
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
