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
are verified numerically and stored as certificates on the pair, which
also keeps the eigendecomposition of G for every later stage.

A compatible pair also spans the *pencil*  g_c = g1 + c * g2,
omega_c = omega1 + c * omega2, whose members are admissible block by block
exactly where the two complex structures agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    StructureError,
    Tolerance,
    commutator,
    eig_self_adjoint,
    frozen,
    metric_adjoint,
    op_norm,
    scale_of,
)
from .structures import (
    AdmissibleTriple,
    Violation,
    ViolationReport,
    lie_bracket,
    metric_hamiltonian,
    phase_generator,
    poisson_bracket,
)

if TYPE_CHECKING:
    from .decomposition import BlockDecomposition

__all__ = [
    "CompatiblePair",
    "PencilBlockVerdict",
    "PencilMember",
    "check_compatible",
    "verify_relation_suite",
    "pencil_member",
    "positivity_range",
]


@dataclass(frozen=True)
class CompatiblePair:
    """Two admissible triples that passed every compatibility check, plus the
    derived metric operator G = inv(g1) @ g2 and recursion operator
    T = inv(omega1) @ omega2, G's eigenvalues (ascending) with a
    g1-orthonormal eigenbasis, and the residuals of all verified relations."""

    t1: AdmissibleTriple
    t2: AdmissibleTriple
    metric_operator: np.ndarray
    recursion_operator: np.ndarray
    metric_eigenvalues: np.ndarray
    metric_eigenbasis: np.ndarray
    certificates: dict[str, float]
    tol: Tolerance

    @property
    def dim(self) -> int:
        return self.t1.dim


def _sym_resid(m: np.ndarray) -> float:
    return op_norm(m - m.T)


def _skew_resid(m: np.ndarray) -> float:
    return op_norm(m + m.T)


def check_compatible(t1: AdmissibleTriple, t2: AdmissibleTriple,
                     tol: Tolerance = DEFAULT_TOL):
    """Decide compatibility of two admissible triples.

    Checks the four matrix conditions, then builds G and T and verifies the
    whole commuting-family relation suite (including the vanishing of the
    phase-generator bracket and of both mutual Poisson brackets of the two
    quadratic energies).  Returns a :class:`CompatiblePair` carrying every
    residual, or a :class:`ViolationReport` naming each failed condition.
    """
    if t1.dim != t2.dim:
        raise ValueError(f"dimension mismatch: {t1.dim} vs {t2.dim}")
    g1, w1, j1 = t1.g.m, t1.omega.m, t1.j.m
    g2, w2, j2 = t2.g.m, t2.omega.m, t2.j.m

    certificates: dict[str, float] = {}
    violations: list[Violation] = []

    def record(name: str, resid: float, threshold: float) -> None:
        certificates[name] = float(resid)
        if resid > threshold:
            violations.append(Violation(name, float(resid)))

    record("g2_J1_skew", _skew_resid(g2 @ j1), tol.rel * scale_of(g2 @ j1))
    record("omega2_J1_symmetric", _sym_resid(w2 @ j1), tol.rel * scale_of(w2 @ j1))
    record("g1_J2_skew", _skew_resid(g1 @ j2), tol.rel * scale_of(g1 @ j2))
    record("omega1_J2_symmetric", _sym_resid(w1 @ j2), tol.rel * scale_of(w1 @ j2))

    jj_scale = tol.rel * max(1.0, op_norm(j1) * op_norm(j2))
    record("J1_J2_commutator", op_norm(commutator(j1, j2)), jj_scale)
    if violations:
        return ViolationReport("compatibility", tuple(violations))

    gamma_bracket = lie_bracket(phase_generator(t1, tol), phase_generator(t2, tol))
    record("phase_generator_commutator", op_norm(gamma_bracket.matrix), jj_scale)

    e1, e2 = metric_hamiltonian(t1.g), metric_hamiltonian(t2.g)
    energy_scale = tol.rel * max(1.0, op_norm(g1) * op_norm(g2))
    record("poisson_bracket_omega1", op_norm(poisson_bracket(e1, e2, t1.omega, tol).matrix),
           energy_scale)
    record("poisson_bracket_omega2", op_norm(poisson_bracket(e1, e2, t2.omega, tol).matrix),
           energy_scale)

    big_g = np.linalg.solve(g1, g2)
    big_t = np.linalg.solve(w1, w2)
    gt_scale = max(1.0, op_norm(big_g) * op_norm(big_t))
    record("G_T_commutator", op_norm(commutator(big_g, big_t)), tol.rel * gt_scale)
    record("G_plus_J1_T_J2", op_norm(big_g + j1 @ big_t @ j2),
           tol.rel * max(1.0, op_norm(big_g)))
    for name, op in (("G", big_g), ("T", big_t)):
        for metric_name, gm in (("g1", g1), ("g2", g2)):
            prod = gm @ op
            record(f"{name}_selfadjoint_{metric_name}", _sym_resid(prod),
                   tol.rel * scale_of(prod))
    record("metric_transfer", op_norm(g1 @ big_g - g2), tol.rel * scale_of(g2))
    gsq = big_g @ big_g
    record("T_sq_minus_G_sq", op_norm(big_t @ big_t - gsq), tol.rel * scale_of(gsq))

    if violations:
        return ViolationReport("compatibility", tuple(violations))

    evals, basis = eig_self_adjoint(big_g, g1, tol)
    certificates["G_min_eigenvalue"] = float(evals[0])
    if evals[0] <= tol.rel * max(1.0, float(evals[-1])):
        violations.append(Violation("G_positive_spectrum", float(evals[0])))
        return ViolationReport("compatibility", tuple(violations))

    return CompatiblePair(t1, t2, frozen(big_g), frozen(big_t), frozen(evals),
                          frozen(basis), certificates, tol)


def verify_relation_suite(p: CompatiblePair) -> dict[str, float]:
    """Residuals of the full relation suite of a compatible pair.

    Pure report: commutation of G and T with both complex structures and
    with each other, the identity G = -J1 @ T @ J2, self-adjointness of G
    and T and skew-adjointness of both J's with respect to both metrics, and
    the transfer identity g1(G x, y) = g2(x, y).  The residuals that
    :func:`check_compatible` already measured are read from the pair's
    certificates.
    """
    g1, j1 = p.t1.g.m, p.t1.j.m
    g2, j2 = p.t2.g.m, p.t2.j.m
    big_g, big_t = p.metric_operator, p.recursion_operator
    tol = p.tol

    out: dict[str, float] = {}
    for name, op in (("G", big_g), ("T", big_t)):
        out[f"{name}_J1_commutator"] = op_norm(commutator(op, j1))
        out[f"{name}_J2_commutator"] = op_norm(commutator(op, j2))
    for name in ("G_T_commutator", "G_plus_J1_T_J2"):
        out[name] = p.certificates[name]
    for name, op in (("G", big_g), ("T", big_t)):
        out[f"{name}_adjoint_g1"] = op_norm(metric_adjoint(op, g1, tol) - op)
        out[f"{name}_adjoint_g2"] = op_norm(metric_adjoint(op, g2, tol) - op)
    out["J1_adjoint_g2_plus_J1"] = op_norm(metric_adjoint(j1, g2, tol) + j1)
    out["J2_adjoint_g1_plus_J2"] = op_norm(metric_adjoint(j2, g1, tol) + j2)
    out["metric_transfer"] = p.certificates["metric_transfer"]
    return out


@dataclass(frozen=True)
class PencilBlockVerdict:
    """Admissibility of a pencil member restricted to one decomposition
    block.  ``jsq_coefficient`` is the scalar c with (J_c|block)^2 = c * I;
    admissibility on the block means c = -1."""

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
    admissibility verdicts for the whole space and per block."""

    gamma: float
    g: np.ndarray
    omega: np.ndarray
    j: np.ndarray
    admissible: bool
    blocks: tuple[PencilBlockVerdict, ...]


def pencil_member(d: BlockDecomposition, gamma: float) -> PencilMember:
    """Evaluate the pencil of the decomposed pair at parameter ``gamma``.

    On a block of the decomposition, where g2 = r * g1 and
    omega2 = s * r * omega1 (s = +-1), the candidate complex structure
    scales as ``J_c = (1 + s * gamma * r) / (1 + gamma * r) * J1``, so the
    member is admissible on the block iff s = +1 or gamma = 0.  The
    verdicts report the measured coefficient of ``(J_c|block)^2`` for each
    block.

    Raises :class:`StructureError` when ``g_c`` is not positive-definite
    (``gamma`` outside :func:`positivity_range`).
    """
    p, tol = d.pair, d.tol
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    g_c = p.t1.g.m + gamma * p.t2.g.m
    w_c = p.t1.omega.m + gamma * p.t2.omega.m
    wmin = float(np.linalg.eigvalsh(0.5 * (g_c + g_c.T))[0])
    if wmin <= tol.rel * scale_of(g_c):
        raise StructureError(
            f"pencil metric is not positive-definite at gamma={gamma} "
            f"(min eigenvalue {wmin:.3e})",
            check="pencil_metric_positive", residual=wmin,
        )
    j_c = np.linalg.solve(g_c, w_c)
    dim = p.dim
    global_resid = op_norm(j_c @ j_c + np.eye(dim))
    admissible = global_resid <= tol.rel * dim

    verdicts = []
    for block in d.blocks:
        b = block.basis
        gb = b.T @ g_c @ b
        wb = b.T @ w_c @ b
        jb = np.linalg.solve(gb, wb)
        jb2 = jb @ jb
        coeff = float(np.trace(jb2) / block.dim)
        resid = op_norm(jb2 - coeff * np.eye(block.dim))
        block_adm = op_norm(jb2 + np.eye(block.dim)) <= tol.rel * block.dim
        verdicts.append(PencilBlockVerdict(block.eigenvalue, block.sign, block.dim,
                                           coeff, resid, block_adm))
    return PencilMember(gamma, frozen(g_c), frozen(w_c), frozen(j_c),
                        admissible, tuple(verdicts))


def positivity_range(p: CompatiblePair) -> tuple[float, float]:
    """Open interval of pencil parameters keeping g_c positive-definite.

    Since g_c = g1 @ (I + c G) and the spectrum of G is positive, the
    interval is ``(-1 / max eigenvalue of G, +inf)``; it always contains 0.
    """
    return (-1.0 / float(p.metric_eigenvalues[-1]), math.inf)
