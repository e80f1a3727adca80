"""Compatibility of two admissible triples and the pencil they generate.

Two triples are *compatible* when the phase generator of each preserves the
Hermitian structure of the other.  For constant tensors that reduces to four
matrix conditions:

    g2 @ J1 + J1.T @ g2 = 0        omega2 @ J1   symmetric
    g1 @ J2 + J2.T @ g1 = 0        omega1 @ J2   symmetric

Compatibility forces [J1, J2] = 0 and makes the derived operators

    G = inv(g1) @ g2        (metric operator)
    T = inv(omega1) @ omega2  (recursion operator)

a commuting family together with the two complex structures: G and T are
self-adjoint and the J's skew-adjoint for both metrics, G = -J1 @ T @ J2,
[G, T] = 0, the spectrum of G is positive, and T^2 = G^2.  Those relations
follow from the four conditions, and :func:`~biham.decomposition.decompose`
certifies them block by block; the pair keeps itself in t1's
g1-orthonormal frame, where G and T are symmetric, and the eigenvalues of
G for every later stage.

A compatible pair also spans the *pencil*  g_c = g1 + c * g2,
omega_c = omega1 + c * omega2, whose members are admissible block by block
exactly where the two complex structures agree: :func:`pencil_member` reads
each block's verdict off the decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    StructureError,
    Tolerance,
    commutator,
    frozen,
    op_norms,
)
from .structures import AdmissibleTriple, Violation, ViolationReport

if TYPE_CHECKING:
    from .decomposition import BlockDecomposition

__all__ = [
    "CompatiblePair",
    "PencilBlockVerdict",
    "PencilMember",
    "check_compatible",
    "pencil_member",
    "positivity_range",
]


@dataclass(frozen=True)
class CompatiblePair:
    """Two admissible triples that passed every compatibility check, plus the
    derived metric operator G = inv(g1) @ g2 and recursion operator
    T = inv(omega1) @ omega2, G's eigenvalues (ascending) and, in
    ``certificates``, the residual of every check :func:`check_compatible`
    made: the four conditions, [J1, J2] = 0, T's symmetry, the transfer
    identity g1 G = g2 and G's smallest eigenvalue.

    The fields ending in ``_w`` hold the pair in t1's g1-orthonormal frame
    ``W = t1.g.frame``, where g1 = I and omega1 = ``t1.j_w``: G (there also
    g2) and T are symmetric, and J2 is orthogonal and skew.  G's
    eigenvalues serve the positivity check and the pencil; no eigenvector
    of G is kept, as :func:`~biham.decomposition.decompose` reads its frame
    off J1's complex coordinates and T.
    """

    t1: AdmissibleTriple
    t2: AdmissibleTriple
    metric_operator: np.ndarray
    recursion_operator: np.ndarray
    metric_eigenvalues: np.ndarray
    certificates: dict[str, float]
    tol: Tolerance
    metric_operator_w: np.ndarray
    recursion_operator_w: np.ndarray
    omega2_w: np.ndarray
    j2_w: np.ndarray

    @property
    def dim(self) -> int:
        return self.t1.dim

    @cached_property
    def norms_w(self) -> tuple[float, float]:
        """:func:`op_norm` of ``metric_operator_w`` and ``omega2_w``, the
        factors of the decomposition and frame thresholds: taken once, on
        first use, in one reduction."""
        return tuple(op_norms([self.metric_operator_w, self.omega2_w]).tolist())


def _sym_defect(m: np.ndarray) -> np.ndarray:
    """``m - m.T``, zero when ``m`` is symmetric."""
    return m - m.T


def _skew_defect(m: np.ndarray) -> np.ndarray:
    """``m + m.T``, zero when ``m`` is skew."""
    return m + m.T


def check_compatible(t1: AdmissibleTriple, t2: AdmissibleTriple,
                     tol: Tolerance = DEFAULT_TOL):
    """Decide compatibility of two admissible triples.

    Works in t1's g1-orthonormal frame, where g1 = I and omega1 = J1: checks
    G's positive spectrum, the four matrix conditions and [J1, J2] = 0, then
    builds G and T and checks T's symmetry and, in the input coordinates,
    the transfer identity g1 G = g2.  The other relations of the commuting
    family, the vanishing Poisson brackets of the two quadratic energies
    among them, follow from the four conditions and are not judged here.
    The kept residuals bound theirs with no factor of cond(G): for one,
    [inv(omega2), G] = inv(J2) (J2 + J2.T) inv(J2).T, and G + J1 T J2 =
    G (I + J2^2) is t2's certified J^2 + I under a congruence of norm |G|.
    No tampered input with cond(G) up to 5e8 was found to fail one of them
    at its former threshold and pass.  The checks but ``metric_transfer``
    read G, T and omega2 divided by G's largest eigenvalue, so no product
    overflows on a valid pair; the pair stores them unscaled.
    Returns a :class:`CompatiblePair` carrying every residual, or a
    :class:`ViolationReport` naming each failed condition.
    """
    if t1.dim != t2.dim:
        raise ValueError(f"dimension mismatch: {t1.dim} vs {t2.dim}")
    frame, frame_inv = t1.g.frame, t1.g.frame_inv
    j1 = t1.j_w
    # g2 and omega2 in t1's frame, where g2 is also G = W^-1 inv(g1) g2 W;
    # triples whose scales differ beyond the floating-point range overflow
    with np.errstate(over="ignore", invalid="ignore"):
        g2_in = frame.T @ t2.g.m @ frame
        w2 = frame.T @ t2.omega.m @ frame
    if not (np.isfinite(g2_in).all() and np.isfinite(w2).all()):
        return ViolationReport("compatibility", (Violation("G_finite", math.inf),))
    g2 = 0.5 * (g2_in + g2_in.T)
    evals = np.linalg.eigvalsh(g2)
    if not evals[0] > tol.rel * evals[-1]:
        return ViolationReport("compatibility",
                               (Violation("G_positive_spectrum", float(evals[0])),))
    j2 = np.linalg.solve(g2, w2)

    certificates: dict[str, float] = {}
    violations: list[Violation] = []

    def record(name: str, resid: float, threshold: float) -> None:
        certificates[name] = resid
        if not resid <= threshold:
            violations.append(Violation(name, resid))

    # a residual that overflows fails its check; each group of checks takes
    # its residual norms and the norms of its new factors in one reduction
    with np.errstate(over="ignore", invalid="ignore"):
        # every check is homogeneous in the second triple's scale: reading G,
        # T and omega2 over G's largest eigenvalue keeps every product in range
        scale = evals[-1]
        g2_s, w2_s = g2 / scale, w2 / scale
        n_j1 = t1.j_w_norm
        skew_g2, sym_w2, skew_j2, sym_j1j2, jj_comm, n_g2, n_w2, n_j2 = op_norms([
            _skew_defect(g2_s @ j1), _sym_defect(w2_s @ j1), _skew_defect(j2),
            _sym_defect(j1 @ j2), commutator(j1, j2), g2_s, w2_s, j2]).tolist()
        record("g2_J1_skew", skew_g2, tol.threshold(n_g2, n_j1))
        record("omega2_J1_symmetric", sym_w2, tol.threshold(n_w2, n_j1))
        record("g1_J2_skew", skew_j2, tol.threshold(n_j2))
        record("omega1_J2_symmetric", sym_j1j2, tol.threshold(n_j1, n_j2))
        record("J1_J2_commutator", jj_comm, tol.threshold(n_j1, n_j2))
        if violations:
            return ViolationReport("compatibility", tuple(violations))

        # T - T.T is [omega2, J1], omega2_J1_symmetric's residual, but in
        # row-sum norms, where |J1| >= 1, rel |T| is the tighter threshold
        big_t = np.linalg.solve(j1, w2)
        t_s = big_t / scale
        # the reported, unscaled G must carry g1 into g2 (an overflow fails)
        big_g, t_orig = frame @ g2 @ frame_inv, frame @ big_t @ frame_inv
        t_g1, transfer, n_t, n_g1, n_big_g = op_norms([
            _sym_defect(t_s), t1.g.m @ big_g - t2.g.m, t_s, t1.g.m, big_g]).tolist()
        record("T_selfadjoint_g1", t_g1, tol.threshold(n_t))
        record("metric_transfer", transfer, tol.threshold(n_g1, n_big_g))
    certificates["G_min_eigenvalue"] = float(evals[0])
    if violations:
        return ViolationReport("compatibility", tuple(violations))

    return CompatiblePair(t1, t2, frozen(big_g), frozen(t_orig), frozen(evals), certificates,
                          tol, frozen(g2), frozen(big_t), frozen(w2), frozen(j2))


@dataclass(frozen=True)
class PencilBlockVerdict:
    """Admissibility of a pencil member restricted to one decomposition
    block, read off the block's (lambda, sign) and gamma.
    ``jsq_coefficient`` is the scalar c with (J_c|block)^2 = c * I, the mean
    of -f_j^2 over the block's complex coordinates; ``residual`` is the
    largest departure of a coordinate's -f_j^2 from it; admissibility on the
    block means c = -1."""

    eigenvalue: float
    sign: int
    dim: int
    jsq_coefficient: float
    residual: float
    admissible: bool


@dataclass(frozen=True)
class PencilMember:
    """One member g_c = g1 + c g2, omega_c = omega1 + c omega2 of the pencil
    spanned by a compatible pair, with J_c = inv(g_c) @ omega_c and
    admissibility verdicts per block, read off the decomposition; the
    member is admissible on the whole space (J_c^2 = -I) iff every block
    is.  No verdict reads ``g``, ``omega`` or ``j``."""

    gamma: float
    g: np.ndarray
    omega: np.ndarray
    j: np.ndarray
    admissible: bool
    blocks: tuple[PencilBlockVerdict, ...]


def pencil_member(d: BlockDecomposition, gamma: float) -> PencilMember:
    """Evaluate the pencil of the decomposed pair at parameter ``gamma``.

    :func:`~biham.decomposition.decompose` certified g2 = lambda_j g1 and
    omega2 = s lambda_j omega1 on each complex coordinate j of a block of
    sign s (lambda_j the coordinate's own |mu|), so there
    g_c = (1 + gamma lambda_j) g1, omega_c = (1 + s gamma lambda_j) omega1
    and J_c = f_j J1 with f_j = (1 + s gamma lambda_j) / (1 + gamma lambda_j):
    (J_c|coordinate)^2 = -f_j^2.  Every verdict is read off those numbers,
    with no solve and no matrix check: a block is admissible when
    max |1 - f_j^2| <= rel * max f_j^2, the rule |J_b^2 + I| <= rel |J_b|^2
    in the block's canonical [C, D] basis, where |J_b| = max |f_j|: within
    ``rel``, when s = +1 or gamma = 0.  The member is admissible iff every
    block is.

    Raises :class:`StructureError` when ``g_c`` is not positive-definite
    (``gamma`` outside :func:`positivity_range`).
    """
    p, tol = d.pair, d.tol
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    # in t1's frame g_c is I + gamma * G, with eigenvalues 1 + gamma * lambda
    scales = 1.0 + gamma * p.metric_eigenvalues
    if not scales.min() > tol.rel * scales.max():
        raise StructureError(
            f"pencil metric is not positive-definite at gamma={gamma} "
            f"(min eigenvalue {scales.min():.3e} relative to g1)",
            check="pencil_metric_positive", residual=float(scales.min()),
        )
    # one entry per complex coordinate, cut into blocks at ``starts``
    ranks = np.array([b.dim // 2 for b in d.blocks])
    starts = np.cumsum(ranks) - ranks
    lam, signs = d.coordinate_lambda, d.coordinate_sign
    f_sq = ((1.0 + signs * gamma * lam) / (1.0 + gamma * lam)) ** 2
    coeffs = -np.add.reduceat(f_sq, starts) / ranks
    resids = np.maximum.reduceat(np.abs(f_sq + np.repeat(coeffs, ranks)), starts)
    admissible = (np.maximum.reduceat(np.abs(1.0 - f_sq), starts)
                  <= tol.rel * np.maximum.reduceat(f_sq, starts))
    verdicts = tuple(PencilBlockVerdict(b.eigenvalue, b.sign, b.dim, float(c), float(r), bool(a))
                     for b, c, r, a in zip(d.blocks, coeffs, resids, admissible))

    g_c = p.t1.g.m + gamma * p.t2.g.m
    w_c = p.t1.omega.m + gamma * p.t2.omega.m
    j_w = np.linalg.solve(np.eye(p.dim) + gamma * p.metric_operator_w,
                          p.t1.j_w + gamma * p.omega2_w)
    j_c = p.t1.g.frame @ j_w @ p.t1.g.frame_inv
    return PencilMember(gamma, frozen(g_c), frozen(w_c), frozen(j_c),
                        bool(admissible.all()), verdicts)


def positivity_range(p: CompatiblePair) -> tuple[float, float]:
    """Open interval of pencil parameters keeping g_c positive-definite.

    Since g_c = g1 @ (I + c G) and the spectrum of G is positive, the
    interval is ``(-1 / max eigenvalue of G, +inf)``; it always contains 0.
    """
    return (-1.0 / float(p.metric_eigenvalues[-1]), math.inf)
