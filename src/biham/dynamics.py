"""Dynamics preserving both structures of a compatible pair.

The linear fields whose flows preserve g1, g2, omega1 and omega2, i.e. the
matrices A with

    tau @ A + A.T @ tau = 0,    tau in {g1, g2, omega1, omega2},

form a Lie algebra.  On each block of the decomposition g2 = lambda * g1,
omega2 = +-lambda * omega1 and J2 = +-J1, so the algebra is ``⊕ u(r)``, one
factor per block of complex rank r (a maximal torus for a generic pair).
Its dimension is read off the adapted frame after one O(m^3) certificate of
that frame; the basis is built only on request.

The recursion operator T generates a distinguished commuting family inside
it, the fields J1, T @ J1, ..., T^(n-1) @ J1; it satisfies the Nijenhuis
identity [T A, T] = T [A, T], and its rank is the number of (lambda, sign)
classes (Vandermonde).  :func:`certify_recursion` certifies the family and
bounds the drift of the four tensors along its flows without sampling one;
:func:`conservation_probe` samples the drift of any field instead.  Every
stage computes in t1's g1-orthonormal frame, where the fields preserving g1
are skew, and maps back only the fields it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .compatibility import CompatiblePair
from .decomposition import BlockDecomposition, DecompositionError, group_signature
from .linalg import (
    DEFAULT_TOL,
    NumericalCheckError,
    Tolerance,
    commutator,
    _expm,
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
        once, on first use, by one QR of the u(r) generators i E_aa,
        E_ab - E_ba and i (E_ab + E_ba), a < b.  In t1's frame Z = X + iY
        is realified as ``(C X + D Y) @ C.T + (D X - C Y) @ D.T`` with the
        block's axes C and partners D = J1 @ C from
        :attr:`BlockDecomposition.adapted_frame`: four outer products per
        generator, one stacked product per block rank."""
        d = self.decomposition
        p = d.pair
        cols, partners, _ = d.adapted_frame
        ranks = [b.dim // 2 for b in d.blocks]
        starts = np.cumsum([0] + ranks[:-1])
        gens: list = [None] * len(ranks)
        for r in sorted(set(ranks)):
            # the k blocks of rank r at once, their axes C and partners D
            # as rows (k, r, m)
            at = [i for i, q in enumerate(ranks) if q == r]
            c = np.stack([cols[:, s:s + r].T for s in starts[at]])
            dj = np.stack([partners[:, s:s + r].T for s in starts[at]])
            rows = np.concatenate((c, dj, -c, -dj, np.zeros((len(at), 1, p.dim))), axis=1)
            left, right = _u_generator_terms(r)
            # (k, r^2, m, 4) @ (k, r^2, 4, m): every generator of every block
            stacked = rows[:, left].swapaxes(2, 3) @ rows[:, right]
            for i, block_gens in zip(at, stacked):
                gens[i] = block_gens
        frame, frame_inv = p.t1.g.frame, p.t1.g.frame_inv
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
        p = self.pair
        mats = [p.t1.j_w]
        for _ in range(p.dim // 2 - 1):
            mats.append(p.recursion_operator_w @ mats[-1])
        return tuple(LinearField(p.t1.g.frame @ m @ p.t1.g.frame_inv) for m in mats)


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
    nijenhuis_residual: float
    nijenhuis_holds: bool
    max_conservation_drift: float

    @property
    def holds(self) -> bool:
        return (self.preserves_all and self.commute and self.vandermonde_consistent
                and self.nijenhuis_holds)

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
    ``⊕ u(r)``, of dimension the sum of the r^2 over the blocks, checked
    against the group signature, on a certified frame
    (:func:`_certify_adapted_frame`)."""
    dim = sum((b.dim // 2) ** 2 for b in d.blocks)
    expected = sum(r * r for r in group_signature(d).multiplicities)
    if dim != expected:
        raise DecompositionError(f"bi-preserving algebra has dimension {dim}, "
                                 f"expected {expected} from the group signature")
    _certify_adapted_frame(d)
    return BiPreservingAlgebra(d, dim)


def _certify_adapted_frame(d: BlockDecomposition) -> None:
    """Certify that every field of the realified ``⊕ u(r)`` preserves all
    four tensors within ``rel``, from one O(m^3) check of its frame.

    In t1's frame let Q = [C, D] (axes and partners), e = |Q.T Q - I|, |.|
    the row-sum norm, and for tau = J1, G, omega2 let tau_c be its
    canonical block form ([[0, -I], [I, 0]], diag(lam, lam) and that first
    form times diag(s lam, s lam), per complex coordinate) and
    d = max |tau - Q tau_c Q.T| / |tau|.  The check is

        bound = 2 d + 2 m e (1 + e) (1 + d) / (1 - e)^2 <= rel.

    Implication: the span is {A = Q K Q.T}, K skew and commuting with every
    tau_c, so A is skew (g1 = I is preserved) and with O = Q.T Q - I

        tau A + A.T tau = [tau - Q tau_c Q.T, A] + Q (tau_c O K - K O tau_c) Q.T.

    The first term is at most 2 d |tau| |A|.  In the spectral norm, where
    |O| <= e as O is symmetric, |Q|^2 <= 1 + e, |K| <= |A| / (1 - e) and |tau_c| <= (1 + d) |tau| /
    (1 - e) (symmetric and skew matrices have spectral norm at most
    row-sum norm); |z| <= sqrt(m) |z|_2 and |A|_2 <= sqrt(m) |A| bound the
    second by the rest of the bound times |tau| |A|.  So every element of
    the span, not only of a basis, passes the element-wise check this
    replaces.  Rounding: the departures are measured like every residual
    of the threshold rule; the frame comes from backward stable ``eigh``
    (Golub & Van Loan, *Matrix Computations*, 4th ed., §8.1), so e is
    O(m eps) and d O((m + cond(g1)) eps): the bound is 2.3e-10 at
    cond(g1) = 1e6.
    """
    p, (cols, partners, signs) = d.pair, d.adapted_frame
    q = np.hstack((cols, partners))
    n, m = cols.shape[1], p.dim
    lam = np.tile(np.repeat([b.eigenvalue for b in d.blocks], [b.dim // 2 for b in d.blocks]), 2)
    rot = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    canon = np.array([rot, np.diag(lam), (np.tile(signs, 2) * lam)[:, None] * rot])
    taus = np.array([p.t1.j_w, p.metric_operator_w, p.omega2_w])
    dep = float((op_norms(taus - q @ canon @ q.T) / op_norms(taus)).max())
    e = op_norm(q.T @ q - np.eye(m))
    bound = (2.0 * dep + 2.0 * m * e * (1.0 + e) * (1.0 + dep) / (1.0 - e) ** 2
             if e < 1.0 else math.inf)
    if not bound <= d.tol.rel:
        raise DecompositionError(
            f"bi-preserving algebra is not certified: the adapted frame departs "
            f"from the canonical block forms (bound {bound:.3e})")


def _u_generator_terms(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (r^2, 4) into ``[C, D, -C, -D, 0]`` (a block's axes and
    partners as rows, then one zero row) of the four
    outer products whose sum is each realified u(r) generator: generator g
    is the sum over t of ``outer(rows[left[g, t]], rows[right[g, t]])``.

    The generators are i E_aa, D_a C_a - C_a D_a; then for a < b,
    E_ab - E_ba, C_a C_b - C_b C_a + D_a D_b - D_b D_a; and i (E_ab + E_ba),
    D_a C_b - C_a D_b + D_b C_a - C_b D_a (each product an outer product).
    """
    e, (a, b) = np.arange(r), np.triu_indices(r, 1)
    c, d, neg_c, neg_d = 0, r, 2 * r, 3 * r
    zero = np.full(r, 4 * r)
    left = np.concatenate((np.column_stack((d + e, neg_c + e, zero, zero)),
                           np.column_stack((c + a, neg_c + b, d + a, neg_d + b)),
                           np.column_stack((d + a, neg_c + a, d + b, neg_c + b))))
    right = np.concatenate((np.column_stack((c + e, d + e, zero, zero)),
                            np.column_stack((c + b, c + a, d + b, d + a)),
                            np.column_stack((c + b, d + b, c + a, d + a))))
    return left, right


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
    """Certify the recursion family of the decomposed pair, read as unit
    directions in t1's g1-orthonormal frame: preservation of all four
    tensors and pairwise commutation within ``tol.rel``, the rank, the
    matrix Nijenhuis identity [T A, T] = T [A, T] for A = J1 on T / |T|,
    and a drift bound.  The n(n-1)/2 commutators are formed as n - 1
    stacked products, direction i against all directions after it.

    Rank: with P_i = B_i B_i.T the projector onto the i-th of c (lambda,
    sign) classes, T^k J1 = sum_i (s_i lambda_i)^k P_i J1.  The check is
    that the normalized P_i J1 have Gram matrix I and that every direction
    lies in their span, within ``tol.rel`` (``vandermonde_consistent``).
    The c nodes s_i lambda_i are distinct and c <= n, so by the Vandermonde
    theorem the first c powers span all the P_i J1: the rank is c.

    Drift: for a unit direction s with symmetric part E and skew part K,
    K.T tau + tau K = (s.T tau + tau s) - (E tau + tau E) has row-sum norm
    at most (r_tau + r_g1) |tau|, r being the preservation residuals.  The
    flow exp(t K) is orthogonal, so by Duhamel's formula the relative drift
    of tau over t in [0, 10] is at most 10 sqrt(m) (r_tau + r_g1); that of
    g1 is 0.
    """
    p, tol = d.pair, d.tol
    mats = rb.directions_w
    m, n = p.dim, p.dim // 2

    residuals = (preservation_residuals(mats, np.eye(m), p.t1.j_w)
                 + preservation_residuals(mats, p.metric_operator_w, p.omega2_w))
    max_pres = float(max(r.max() for r in residuals))
    drift = 10.0 * math.sqrt(m) * float(max((r + residuals[0]).max() for r in residuals[1:]))

    # the directions have unit norm, so each commutator is relative; one
    # stacked product per direction takes all its later partners at once
    max_comm = max((float(op_norms(mats[i] @ mats[i + 1:] - mats[i + 1:] @ mats[i]).max())
                    for i in range(n - 1)), default=0.0)

    j1 = p.t1.j_w
    classes = [np.hstack([b.basis_w for b in c]) for c in d.classes]
    basis = np.array([(b @ (b.T @ j1)).ravel() for b in classes])
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    rows = (mats / np.linalg.norm(mats, axis=(1, 2))[:, None, None]).reshape(n, -1)
    gram_error = np.abs(basis @ basis.T - np.eye(len(basis))).max()
    inclusion = np.linalg.norm(rows - (rows @ basis.T) @ basis, axis=1).max()

    big_t = p.recursion_operator_w / op_norm(p.recursion_operator_w)
    nij = op_norm(commutator(big_t @ j1, big_t) - big_t @ commutator(j1, big_t))

    return RecursionCertificate(
        preserves_all=max_pres <= tol.rel,
        max_preservation_residual=max_pres,
        commute=max_comm <= tol.rel,
        max_commutator_residual=max_comm,
        rank=len(basis),
        expected_rank=n,
        distinct_t_eigenvalues=len(d.classes),
        vandermonde_consistent=bool(gram_error <= tol.rel and inclusion <= tol.rel),
        nijenhuis_residual=float(nij),
        nijenhuis_holds=nij <= tol.threshold(big_t, big_t, j1),
        max_conservation_drift=drift,
    )


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
    if c2 > 0.0 and op_norm(a2 + c2 * np.eye(m)) <= tol.threshold(a, a):
        c = np.sqrt(c2)
        out = np.cos(c * t) * np.eye(m) + (np.sin(c * t) / c) * a
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _expm(t * a)
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

    for all times at once, the flow of A's g1-skew part (the eigenvector
    method for normal matrices; Moler & Van Loan, SIAM Rev. 2003).  Any
    other field takes :func:`flow`, one matrix exponential per time.
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
