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
its centre, the fields J1, T @ J1, ..., T^(n-1) @ J1, whose rank is the
number of blocks, one per (lambda, sign) class (Vandermonde).  T is
constant, so the matrix Nijenhuis identity [T A, T] = T [A, T] holds for
every A (both sides are T A T - T^2 A) and is not judged.
:func:`certify_recursion` reads the family's preservation, commutation
and drift bounds off the same frame certificate, with no product of two
directions, and measures the directions only where a bound exceeds
``rel``; :func:`conservation_probe` samples the drift of any field
instead.  Every stage computes in t1's g1-orthonormal frame, where the
fields preserving g1 are skew, and maps back only the fields it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compatibility import CompatiblePair
from .decomposition import BlockDecomposition, DecompositionError
from .linalg import (
    DEFAULT_TOL,
    NumericalCheckError,
    Tolerance,
    _expm,
    frame_departure,
    frozen,
    op_norm,
    op_norms,
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
        the block's columns Q_b = [C_b, D_b] of the decomposition's
        ``frame_w``, the frame its certificate covers."""
        d = self.decomposition
        q, n = d.frame_w, d.pair.dim // 2
        gens, lo = [], 0
        for block in d.blocks:
            r, hi = block.dim // 2, lo + block.dim // 2
            # e[a r + c] = E_ac, and upper marks a < c
            e = np.eye(r * r).reshape(r * r, r, r)
            upper = np.triu(np.ones((r, r)), 1).reshape(-1, 1, 1)
            x, y = upper * (e - e.swapaxes(1, 2)), (1.0 - upper) * (e + e.swapaxes(1, 2))
            q_b = q[:, np.r_[lo:hi, n + lo:n + hi]]
            gens.append(q_b @ np.block([[x, -y], [y, x]]) @ q_b.T)
            lo = hi
        frame, frame_inv = d.pair.t1.g.frame, d.pair.t1.g.frame_inv
        basis = orthonormal_span(frame @ np.concatenate(gens) @ frame_inv, d.tol.rel)
        return tuple(frozen(a) for a in basis)


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
        """The raw powers T^k @ J1 in the original coordinates.  Raises
        :class:`NumericalCheckError` naming the first power that leaves the
        floating-point range, which ``directions_w`` never do."""
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


@dataclass(frozen=True)
class RecursionCertificate:
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
    """All linear fields preserving both triples of the decomposed pair:
    ``⊕ u(r)``, one factor per block (the group signature's U(r)), of
    dimension the sum of the r^2, on a frame certified by
    :attr:`BlockDecomposition.frame_certificate`."""
    dim = sum((b.dim // 2) ** 2 for b in d.blocks)
    bound, _ = d.frame_certificate
    if not bound <= d.tol.rel:
        raise DecompositionError(
            f"bi-preserving algebra is not certified: the adapted frame departs "
            f"from the canonical block forms (bound {bound:.3e})")
    return BiPreservingAlgebra(d, dim)


def recursion_basis(p: CompatiblePair) -> RecursionBasis:
    """The candidate commuting family T^k @ J1, k = 0 .. n-1.

    Built unconditionally, as unit-norm directions in t1's g1-orthonormal
    frame, in one preallocated stack; :func:`certify_recursion` decides
    whether it is an actual basis (full rank requires genericity).
    """
    m = p.dim
    dirs = np.empty((m // 2, m, m))
    np.divide(p.t1.j_w, p.t1.j_w_norm, out=dirs[0])
    for k in range(1, m // 2):
        np.matmul(p.recursion_operator_w, dirs[k - 1], out=dirs[k])
        dirs[k] /= op_norm(dirs[k])
    dirs.setflags(write=False)
    return RecursionBasis(p, dirs)


def certify_recursion(rb: RecursionBasis, d: BlockDecomposition) -> RecursionCertificate:
    """Certify the recursion family of the decomposed pair, read as unit
    directions s_k in t1's g1-orthonormal frame: preservation of all four
    tensors and pairwise commutation within ``tol.rel``, the rank and a
    drift bound.  The matrix Nijenhuis identity [T A, T] = T [A, T] holds
    for every pair of matrices, as both sides are T A T - T^2 A, so it is
    not judged.  Every number but the rank is first a bound read off the
    certificate of the adapted frame, ``(beta, e) = d.frame_certificate``,
    and one measured distance of each direction from the coordinate
    elements, with no product of two directions.  Where the preservation
    or the commutation bound exceeds ``tol.rel``, the directions are
    measured instead (:func:`_measured_preservation`,
    :func:`_max_commutator`), so each verdict is the measured one wherever
    its bound cannot decide, and nothing is raised.

    Coordinate elements: with c_j, d_j the axis and partner of the j-th of
    the n complex coordinates of the adapted frame Q = [C, D] and K_j the
    canonical rotation on it, Z_j = Q K_j Q.T = d_j c_j.T - c_j d_j.T,
    which is P_j J1 for the projector P_j onto the coordinate.  K_j is skew
    and commutes with every K_k and every canonical form (each coordinate
    at its own |mu|), so each combination of the Z_j lies in the realified
    ``⊕ u(1)`` that the frame certificate covers, with no spread term.

    Rank: T^k J1 = sum_j (s_j |mu_j|)^k P_j J1.  The check is that the
    Frobenius-normalized Z_j have Gram matrix I and that every normalized
    direction t_k = s_k / |s_k|_F lies within rho of their span, both
    within ``tol.rel`` (``vandermonde_consistent``).  rho is measured
    (:func:`_inclusion_residual`); the Gram matrix is not formed, as
    <Z_j, Z_k>_F = tr((I + O) K_j.T (I + O) K_k) with O = Q.T Q - I puts it
    within (2 e + e^2) / (1 - 2 e - e^2) of I (|O|_2 <= e, and
    tr(K_j.T K_k) = 2 for j = k, else 0).  The nodes of a block's
    coordinates are equal at ``cluster_gap``, and the c block nodes
    s_i lambda_i distinct, so by the Vandermonde theorem the rank is c.

    Bounds: |.| is the row-sum norm, |.|_1 the column-sum norm and |s_k| =
    1.  Write s_k = Y_k + E_k with Y_k = |s_k|_F X_k for the element X_k of
    the span that :func:`_inclusion_residual` subtracts; it measures
    eps = max_k |E_k| and eps1 = max_k |E_k|_1, and a = max_k |s_k|_F.

    * Preservation.  For tau in J1, G, omega2, |tau Y + Y.T tau| <=
      beta |tau| |Y| with |Y| <= 1 + eps, and |tau E + E.T tau| <=
      (eps + eps1) |tau|, so the relative residual of every s_k is at most
      P = beta (1 + eps) + eps + eps1, ``max_preservation_residual``; Y is
      skew, so that of g1 is at most P1 = eps + eps1.
    * Commutation.  Y_j = Q K Q.T and Y_k = Q K' Q.T for combinations of
      the rotations, and K K' = K' K, so [Y_j, Y_k] = Q (K O K' - K' O K) Q.T,
      the frame term of :func:`linalg.frame_departure` with |Y|_2 <= |Y|_F
      <= a (1 + rho).  The terms with an E add 2 (2 (1 + eps) eps +
      eps^2), so |[s_j, s_k]| <= sqrt(m) a^2 2 e (1 + e) (1 + rho)^2 /
      (1 - e)^2 + 4 eps + 6 eps^2, ``max_commutator_residual``.
    * Drift.  For s_k with symmetric part S and skew part K,
      K.T tau + tau K = (s.T tau + tau s) - (S tau + tau S) has row-sum
      norm at most (P + P1) |tau|.  The flow exp(t K) is orthogonal, so by
      Duhamel's formula the relative drift of tau over t in [0, 10] is at
      most 10 sqrt(m) (P + P1), ``max_conservation_drift``; that of g1 is
      0.  It is reported, not judged.  Where P is replaced by measured
      residuals r, the drift bound is 10 sqrt(m) max_k (r_tau + r_g1).

    Each reported value is its bound, or the measured value where the
    bound exceeds ``rel``.  Rounding: beta and e carry theirs (see
    ``frame_certificate``); eps, eps1, rho and the measured residuals are
    taken from the stored directions like every residual of the threshold
    rule, so they carry the rounding of the directions (O(n eps) per power)
    and of their products with Q and the tensors.  On the synthesized
    pairs to dim 256, P and the commutator bound stay below 5e-11 and the
    drift bound below 1e-8.  At cond(g1) = 1e6 the rounding of the whitened
    tensors, about eps cond(g1), puts beta at up to 3.8e-10 and eps at up
    to 1.3e-10: on 320 congruences of generic and two-class pairs of dims
    8-32, P and the commutator bound reach 5.8e-10, 2-6x above the
    measured residuals, and none exceeds ``rel``.  Where one does, the
    verdict goes to the measurement.

    ``power_basis_log10_condition`` is log10 of Gautschi's bound on the
    condition number of the Vandermonde matrix of the nodes
    (:func:`_power_basis_log10_condition`): an observable of how far the
    raw powers are from a usable basis, not a verdict.
    """
    p, tol = d.pair, d.tol
    m, n = p.dim, p.dim // 2
    beta, e = d.frame_certificate
    rho, alpha, eps, eps1 = _inclusion_residual(rb.directions_w, d)
    gram = (2.0 * e + e * e) / (1.0 - 2.0 * e - e * e) if e < 0.4 else math.inf

    pres_g1 = eps + eps1
    pres = beta * (1.0 + eps) + pres_g1
    drift = 10.0 * math.sqrt(m) * (pres + pres_g1)
    comm = (frame_departure(e, math.sqrt(m) * alpha ** 2, (1.0 + rho) ** 2)
            + 4.0 * eps + 6.0 * eps ** 2)
    if not pres <= tol.rel:
        pres, drift = _measured_preservation(rb.directions_w, p)
    if not comm <= tol.rel:
        comm = _max_commutator(rb.directions_w)

    nodes = [b.sign * b.eigenvalue for b in d.blocks]
    return RecursionCertificate(
        preserves_all=pres <= tol.rel,
        max_preservation_residual=pres,
        commute=comm <= tol.rel,
        max_commutator_residual=comm,
        rank=len(d.blocks),
        expected_rank=n,
        distinct_t_eigenvalues=len(d.blocks),
        vandermonde_consistent=bool(gram <= tol.rel and rho <= tol.rel),
        max_conservation_drift=drift,
        power_basis_log10_condition=_power_basis_log10_condition(nodes),
    )


# entries of one (rows, m, m) working stack, about 2 MB
_CHUNK_ENTRIES = 1 << 18


def _inclusion_residual(mats: np.ndarray,
                        d: BlockDecomposition) -> tuple[float, float, float, float]:
    """``(rho, a, eps, eps1)`` of :func:`certify_recursion` for a stack of
    unit directions s: with t = s / |s|_F and X = sum_j <t, Z_j>_F / 2 Z_j,
    each coordinate projected on its own (the projection onto the span of
    the coordinate elements when Q is orthonormal; any element of the span
    serves the bounds), the largest |t - X|_F, |s|_F, and row-sum and
    column-sum norms of E = |s|_F (t - X).

    No Z_j is formed: with W = t Q, <t, Z_j>_F = d_j.T W[:, j] -
    c_j.T W[:, n + j], the sum of the two halves of the column sums of
    W * [D, -C], and X = [D, -C] diag(w, w) Q.T for w = <t, Z>_F / 2;
    two O(m^3) products per direction, in chunks of directions.  The difference t - X is
    formed, never read as |t|^2 - |X|^2, which cancels the digits ``rel``
    needs."""
    q, n, m = d.frame_w, d.pair.dim // 2, d.pair.dim
    q_dual = np.hstack((q[:, n:], -q[:, :n]))
    step = max(1, _CHUNK_ENTRIES // (m * m))
    rho = alpha = eps = eps1 = 0.0
    for lo in range(0, len(mats), step):
        chunk = mats[lo:lo + step]
        norms = np.sqrt(np.einsum("kij,kij->k", chunk, chunk))
        unit = chunk / norms[:, None, None]
        w_q = unit @ q
        coef = np.einsum("kij,ij->kj", w_q, q_dual)
        w = np.tile(0.5 * (coef[:, :n] + coef[:, n:]), 2)
        unit -= (q_dual * w[:, None, :]) @ q.T
        rho = max(rho, float(np.sqrt(np.einsum("kij,kij->k", unit, unit)).max()))
        alpha = max(alpha, float(norms.max()))
        np.abs(unit, out=unit)
        eps = max(eps, float((norms * unit.sum(axis=2).max(axis=1)).max()))
        eps1 = max(eps1, float((norms * unit.sum(axis=1).max(axis=1)).max()))
    return rho, alpha, eps, eps1


def _measured_preservation(mats: np.ndarray, p: CompatiblePair) -> tuple[float, float]:
    """The measured ``(pres, drift)`` of :func:`certify_recursion` for a
    stack of directions s: the largest relative residual of ``tau s + s.T
    tau`` over tau in g1 = I, J1, G and omega2, and the largest 10 sqrt(m)
    (r_tau + r_g1) over the directions; one product with each tensor per
    direction, in chunks of directions."""
    eye = np.eye(p.dim)
    step = max(1, _CHUNK_ENTRIES // mats[0].size)
    pres = drift = 0.0
    for lo in range(0, len(mats), step):
        chunk = mats[lo:lo + step]
        r = (preservation_residuals(chunk, eye, p.t1.j_w)
             + preservation_residuals(chunk, p.metric_operator_w, p.omega2_w))
        pres = max(pres, float(max(x.max() for x in r)))
        drift = max(drift, float(max((x + r[0]).max() for x in r[1:])))
    return pres, 10.0 * math.sqrt(p.dim) * drift


def _max_commutator(mats: np.ndarray) -> float:
    """Largest row-sum norm of the commutators of all pairs of unit
    directions, one stacked product per direction against a chunk of
    those after it."""
    step = max(1, _CHUNK_ENTRIES // mats[0].size)
    worst = 0.0
    for i in range(len(mats) - 1):
        for lo in range(i + 1, len(mats), step):
            rest = mats[lo:lo + step]
            worst = max(worst, float(op_norms(mats[i] @ rest - rest @ mats[i]).max()))
    return worst


def _power_basis_log10_condition(nodes) -> float:
    """log10 of Gautschi's bound on the infinity-norm condition number of
    the Vandermonde matrix V[k, i] = x_i^k, k < c, of c distinct nodes
    (Gautschi, Numer. Math. 4, 1962):

        |V| = max(c, sum_i |x_i|^(c-1)),
        |inv(V)| <= max_i prod_(j != i) (1 + |x_j|) / |x_i - x_j|,

    summed in logarithms: the plain value leaves the floating-point range
    for many or large nodes (|V| alone is about 1e375 for the 40 nodes
    1e8 .. 4e9)."""
    x = np.asarray(nodes, dtype=float)
    c = len(x)
    norm = max(math.log(c), float(np.logaddexp.reduce((c - 1) * np.log(np.abs(x)))))
    gaps = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(gaps, 1.0)
    terms = np.log1p(np.abs(x))[None, :] - np.log(gaps)
    np.fill_diagonal(terms, 0.0)
    return (norm + float(terms.sum(axis=1).max())) / math.log(10.0)


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
