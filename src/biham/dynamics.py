"""Dynamics preserving both structures of a compatible pair.

The linear fields whose flows preserve g1, g2, omega1 and omega2, i.e. the
matrices A with

    tau @ A + A.T @ tau = 0,    tau in {g1, g2, omega1, omega2},

form a Lie algebra.  On each block of the decomposition g2 = lambda * g1,
omega2 = +-lambda * omega1 and J2 = +-J1, so the algebra is ``⊕ u(r)``, one
factor per block of complex rank r (a maximal torus for a generic pair).
Its dimension is read off the adapted frame after one O(m^3) certificate of
that frame; the basis is built only on request.

The recursion operator T generates a distinguished commuting family in
its centre, the fields J1, T @ J1, ..., T^(n-1) @ J1, whose span is that of
the block elements P_b @ J1 for T's spectral projectors P_b: its rank is
the number of blocks, one per (lambda, sign) class (Vandermonde).
:func:`certify_recursion` reads that span, and how nearly J1 and omega2
generate it, off the certificate of the adapted frame, with no T formed;
:func:`recursion_basis` forms nothing.  :func:`conservation_probe` samples
the drift of any field instead.  Every stage computes in t1's
g1-orthonormal frame, where the fields preserving g1 are skew, and maps
back only the fields it reports.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .compatibility import CompatiblePair
from .decomposition import BlockDecomposition, DecompositionError
from .linalg import (
    DEFAULT_TOL,
    NumericalCheckError,
    Record,
    Tolerance,
    _expm,
    frozen,
    op_norm,
    op_norms,
    orthonormal_span,
)
from .structures import LinearField

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


class BiPreservingAlgebra(Record):
    """The Lie algebra of fields preserving all four tensors of a decomposed
    pair; dimension = sum of squared signature ranks."""

    decomposition: BlockDecomposition
    dim: int

    @cached_property
    def basis(self) -> tuple[np.ndarray, ...]:
        """Frobenius-orthonormal basis in the original coordinates, built
        once, on first use, by one QR of the u(r) generators of each block,
        E_ab - E_ba for a < b and i (E_ab + E_ba) for a >= b.  In t1's
        frame Z = X + iY is realified as ``Q_b [[X, -Y], [Y, X]] Q_b.T`` on
        the block's columns Q_b = ``basis_w`` of the adapted frame, the
        frame its certificate covers."""
        d = self.decomposition
        gens = []
        for block in d.blocks:
            r, q_b = block.dim // 2, block.basis_w
            # e[a r + c] = E_ac, and upper marks a < c
            e = np.eye(r * r).reshape(r * r, r, r)
            upper = np.triu(np.ones((r, r)), 1).reshape(-1, 1, 1)
            x, y = upper * (e - e.swapaxes(1, 2)), (1.0 - upper) * (e + e.swapaxes(1, 2))
            gens.append(q_b @ np.block([[x, -y], [y, x]]) @ q_b.T)
        frame, frame_inv = d.pair.t1.g.frame, d.pair.t1.g.frame_inv
        basis = orthonormal_span(frame @ np.concatenate(gens) @ frame_inv, d.tol.rel)
        return tuple(frozen(a) for a in basis)


class RecursionBasis(Record):
    """The commuting family generated by the recursion operator of ``pair``:
    fields with matrices T^k @ J1 for k = 0 .. n-1.  Nothing is formed on
    construction, and :func:`certify_recursion` reads only ``pair``, to
    refuse another pair's decomposition.  ``fields`` holds the raw powers,
    built on first use; they scale like lambda^k and leave the
    floating-point range for extreme spectra."""

    pair: CompatiblePair

    @cached_property
    def fields(self) -> tuple[LinearField, ...]:
        """The raw powers T^k @ J1 in the original coordinates.  Raises
        :class:`NumericalCheckError` naming the first power that leaves the
        floating-point range."""
        p = self.pair
        frame, frame_inv = p.t1.g.frame, p.t1.g.frame_inv
        power, fields = p.t1.j_w, []
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(p.dim // 2):
                if k:
                    power = p.recursion_operator_w @ power
                mat = frame @ power @ frame_inv
                if not np.isfinite(mat).all():
                    raise NumericalCheckError(
                        f"recursion field T^{k} @ J1 leaves the floating-point range")
                fields.append(LinearField(mat))
        return tuple(fields)


class RecursionCertificate(Record):
    """Certification report for a recursion family.  ``holds`` when every
    prediction of the theory for a compatible pair came true; ``all_pass``
    also needs full rank, that is, a generic pair."""

    preserves_all: bool
    max_preservation_residual: float
    commute: bool
    max_commutator_residual: float
    rank: int
    expected_rank: int
    distinct_t_eigenvalues: int
    vandermonde_consistent: bool
    max_conservation_drift: float
    power_basis_log10_condition: float

    @property
    def holds(self) -> bool:
        return self.preserves_all and self.commute and self.vandermonde_consistent

    @property
    def all_pass(self) -> bool:
        return self.holds and self.rank == self.expected_rank


class ConservationReport(Record):
    """Worst relative drift of each tensor under the flow of one field,
    over the sampled times."""

    drifts: dict[str, float]
    times: tuple[float, ...]

    @property
    def max_drift(self) -> float:
        return max(self.drifts.values())


def bi_preserving_algebra(d: BlockDecomposition) -> BiPreservingAlgebra:
    """All linear fields preserving both triples of the decomposed pair:
    ``⊕ u(r)``, one factor per block (the group signature's U(r)), of
    dimension the sum of the r^2, on a frame certified by
    :attr:`BlockDecomposition.frame_certificate`: its fields are within
    the backward error ``bound`` of fields that preserve exactly a pair
    within ``bound`` of the input, and ``bound`` must be at most ``rel``."""
    dim = sum([(b.dim // 2) ** 2 for b in d.blocks])
    bound, _ = d.frame_certificate
    if not bound <= d.tol.rel:
        raise DecompositionError(
            f"bi-preserving algebra is not certified: the adapted frame departs "
            f"from the canonical block forms (bound {bound:.3e})")
    return BiPreservingAlgebra(d, dim)


def recursion_basis(p: CompatiblePair) -> RecursionBasis:
    """The candidate commuting family T^k @ J1, k = 0 .. n-1, with nothing
    formed; :func:`certify_recursion` decides whether it is an actual basis
    (full rank requires genericity) off the decomposition's frame.
    """
    return RecursionBasis(p)


def certify_recursion(rb: RecursionBasis, d: BlockDecomposition) -> RecursionCertificate:
    """Certify the recursion family J1, T J1, ..., T^(n-1) J1 of the
    decomposed pair: preservation of all four tensors and pairwise
    commutation within ``tol.rel``, the rank and a drift bound, read off
    ``(bound, e) = d.frame_certificate`` with no matrix work and no T.
    Another pair's family ``rb`` raises ``ValueError``.  The matrix Nijenhuis
    identity [T A, T] = T [A, T] holds for every pair of matrices, as both
    sides are T A T - T^2 A, so it is not judged.  |.|_2 is the spectral
    norm and |.| the row-sum norm.

    Generation.  In t1's g1-orthonormal frame let Q = [C, D] =
    ``d.frame_w``, J_c the canonical rotation (Q J_c = [D, -C]), K_j its
    part on the j-th complex coordinate and mu = ``coordinate_sign *
    coordinate_lambda`` on [C, D].  The frame certificate puts the pair
    within the backward error ``bound`` of the pair tau' = Q^-T tau_c Q^-1
    (see ``frame_certificate``).  That pair's J1' = inv(g1') omega1' is
    Q J_c Q^-1 and its T' = inv(omega1') omega2' is Q diag(mu) Q^-1, so
    every power is

        T'^k J1' = Q diag(mu)^k J_c Q^-1 = sum_j mu_j^k P_j J1'

    for the spectral projectors P_j = Q E_j Q^-1 (Higham, *Functions of
    Matrices*, SIAM 2008, §1.2): the family lies exactly in the span of
    the coordinate elements Q K_j Q^-1, with no factor of n or of the
    powers' growth.  The nodes of a block's coordinates are equal at
    ``cluster_gap`` and the c block nodes s_b lambda_b are distinct, so by
    the Vandermonde theorem the family spans the c block elements P_b J1':
    its rank is c.

    Span bounds.  Each span element is X = Q K Q^-1 for a combination K of
    the K_j.

    * Preservation and commutation.  X preserves all four tensors of the
      pair tau' exactly, and the Q K Q^-1 commute, as the K do: the
      family is exact for a pair within ``bound`` of the input, so both
      read the backward error ``bound`` (Higham, *Accuracy and Stability
      of Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 1).
    * Rank.  The Frobenius-normalized Z_j = Q K_j Q.T have Gram matrix
      within gram = (2 e + e^2) / (1 - 2 e - e^2) of I, as <Z_j, Z_k>_F =
      tr((I + O) K_j.T (I + O) K_k), O = Q.T Q - I with |O|_2 <= e, and
      tr(K_j.T K_k) = 2 for j = k, else 0; the span elements are the Z_j
      times the invertible inv(Q Q.T).
    * Drift.  With beta = ``bound``, |tau - tau'|_2 <= beta |tau_c|_2 gives
      |tau X + X.T tau|_2 <= 2 beta |tau_c|_2 |X|_2, so the g1-symmetric
      part of X is at most beta |X|_2 and its g1-skew part S has |tau S +
      S.T tau|_2 <= 2 beta (|tau_c|_2 + |tau|_2) |X|_2, while |tau_c|_2 <=
      (1 + e) |tau|_2 / (1 - (1 + e) beta).  By Duhamel's formula the
      orthogonal flow of S drifts tau by at most t times that; over t in
      [0, 10], for |X|_2 = 1 and in the row-sum norm (|Y| <= sqrt(m) |Y|_2,
      and |tau|_2 <= |tau| as tau is normal), the relative drift is at
      most 20 sqrt(m) beta (1 + (1 + e) / (1 - (1 + e) beta)).

    Values.  ``max_preservation_residual`` and ``max_commutator_residual``
    are ``bound``, and ``vandermonde_consistent`` is gram <= ``rel`` and
    ``bound`` <= ``rel``; each flag compares its values with ``rel``, so a
    frame or a pair that fails the certificate fails all three flags, and
    so does a NaN.  ``max_conservation_drift`` is the drift bound; it is reported,
    not judged.  Rounding: ``bound`` and e carry theirs (see
    ``frame_certificate``), and nothing else is measured.  On the
    two-class dim-512 pair (``2:+:128,3:-:128``) moved by a congruence of
    cond(g1) = 1e6, ``bound`` is 2.0e-10.

    ``power_basis_log10_condition`` is log10 of Gautschi's bound on the
    condition number of the Vandermonde matrix of the nodes
    (:func:`_power_basis_log10_condition`): an observable of how far the
    raw powers are from a usable basis, not a verdict.
    """
    if rb.pair is not d.pair:
        raise ValueError("the recursion family is not that of the decomposed pair")
    m, rel = d.pair.dim, d.tol.rel
    bound, e = d.frame_certificate
    gram = (2.0 * e + e * e) / (1.0 - 2.0 * e - e * e) if e < 0.4 else math.inf
    grown = (1.0 + e) * bound
    drift = (20.0 * math.sqrt(m) * bound * (1.0 + (1.0 + e) / (1.0 - grown))
             if grown < 1.0 else math.inf)
    certified = bound <= rel
    # a NaN fails every comparison, so every flag
    return RecursionCertificate(
        certified, bound, certified, bound, len(d.blocks), m // 2, len(d.blocks),
        gram <= rel and certified, drift,
        _power_basis_log10_condition([b.sign * b.eigenvalue for b in d.blocks]))


def _power_basis_log10_condition(nodes) -> float:
    """log10 of Gautschi's bound on the infinity-norm condition number of
    the Vandermonde matrix V[k, i] = x_i^k, k < c, of c distinct nodes
    (Gautschi, Numer. Math. 4, 1962):

        |V| = max(c, sum_i |x_i|^(c-1)),
        |inv(V)| <= max_i prod_(j != i) (1 + |x_j|) / |x_i - x_j|,

    summed in logarithms: the plain value leaves the floating-point range
    for many or large nodes (|V| alone is about 1e375 for the 40 nodes
    1e8 .. 4e9).  One logarithm serves both: of the gaps |x_i - x_j| with
    1 + |x_i| on the diagonal, whose trace less row i is row i's log of the
    product, and of |x_i - 0| in a last column."""
    x = np.array([*nodes, 0.0])
    c = len(x) - 1
    logs = np.abs(x[:c, None] - x)
    logs.flat[::c + 2] = 1.0 + logs[:, c]
    np.log(logs, out=logs)
    norm = max(math.log(c), float(np.logaddexp.reduce((c - 1) * logs[:, c])))
    return (norm + float(logs.trace() - logs[:, :c].sum(axis=1).min())) / math.log(10.0)


def flow(field: LinearField, t: float, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Time-t flow exp(t * A) of a linear field.

    When A @ A = -c^2 I (phase-generator-like fields) the closed form
    cos(c t) I + sin(c t) / c * A is used; otherwise a numpy Padé-13 scaling-
    and-squaring matrix exponential.  Overflow raises
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
    n_a = op_norm(a)
    if c2 > 0.0 and op_norm(a2 + c2 * np.eye(m)) <= tol.threshold(n_a, n_a):
        c = np.sqrt(c2)
        out = np.cos(c * t) * np.eye(m) + (np.sin(c * t) / c) * a
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _expm(t * a)
    if not np.isfinite(out).all():
        raise FlowOverflowError(
            f"matrix exponential overflowed for t={t} (field norm {n_a:.3e})"
        )
    return out


def _probe_flows(field: LinearField, p: CompatiblePair, times: tuple[float, ...]) -> np.ndarray:
    """Flows of the field at every sampled time, stacked as (len(times), m, m).

    A field that preserves g1 within the threshold rule takes the spectral
    path: in the g1-orthonormal frame W it is the real skew matrix
    S = inv(W) A W, and with (mu, U) = eigh(i K) for the skew part K of S,

        exp(t A) = W Re(U diag(exp(-i mu t)) U^H) inv(W)

    for all times at once, the flow of A's g1-skew part (the eigenvector
    method for normal matrices; Moler & Van Loan, SIAM Rev. 2003).  Any
    other field takes :func:`flow`, one matrix exponential per time.
    """
    tol = p.tol
    a = field.matrix
    frame, frame_inv = p.t1.g.frame, p.t1.g.frame_inv
    s = frame_inv @ a @ frame
    skew, n_s = op_norms([s + s.T, s]).tolist()
    if not skew <= tol.threshold(n_s):
        return np.array([flow(field, t, tol) for t in times]).reshape(-1, *a.shape)
    mu, u = np.linalg.eigh(1j * (0.5 * (s - s.T)))
    left = frame @ u
    right = u.conj().T @ frame_inv
    phase = np.exp(-1j * np.multiply.outer(times, mu))
    return ((left * phase[:, None, :]) @ right).real


def conservation_probe(field: LinearField, p: CompatiblePair,
                       times) -> ConservationReport:
    """Finite-time invariance check: worst relative drift
    ``||O^T tau O - tau|| / ||tau||`` of each of the four tensors, in the
    original coordinates, over the flows O of the field at the sampled
    times (:func:`_probe_flows`).  It serves any field; the recursion
    certificate bounds the drift of its own family without sampling, and
    this probe is that bound's test oracle.
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
