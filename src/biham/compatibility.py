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
certifies them block by block.  Both read one eigensolve of the pair's
two Hermitian forms on C^n, in J1's complex coordinates, which the pair keeps.

A compatible pair also spans the *pencil*  g_c = g1 + c * g2,
omega_c = omega1 + c * omega2, whose members are admissible block by block
exactly where the two complex structures agree: :func:`pencil_member` reads
each block's verdict off the decomposition.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Record,
    StructureError,
    Tolerance,
    frozen,
)
from .structures import AdmissibleTriple, FormPair, Violation, ViolationReport

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


class CompatiblePair(Record):
    """Two triples that passed every compatibility check, plus the
    eigenvalues (ascending) of the metric operator G = inv(g1) @ g2 and, in
    ``certificates``, the residual of every check :func:`check_compatible`
    made.  ``t1`` is admissible; ``t2`` is the second triple as given, an
    :class:`~biham.structures.AdmissibleTriple` or a
    :class:`~biham.structures.FormPair`, of which the pair reads ``g.m``
    and ``omega.m`` alone.

    The fields ending in ``_w`` hold G (there also g2) and omega2 in t1's
    g1-orthonormal frame; ``mu`` and ``v`` are T_c's eigenpairs and ``y``
    the residual Y of :func:`check_compatible`, which ``decompose`` reads
    (with R, Y bounds the residual E; the pair keeps neither), and
    ``coordinate_blocks`` the Hermitian Z^H tau Z and anti-linear Z^T tau Z
    blocks, in J1's complex coordinates Z, of tau = g1 (I), J1, G and
    omega2 in t1's frame, the last two over max |mu|, which the frame
    certificate reads.  ``eigenframe_w``, sqrt(2) [Re Z V,
    Im Z V] (T_c's eigenvectors as real columns in t1's frame), T and J2 in
    t1's frame, and G and T in the input coordinates are built on first
    use, by one product or one solve each; no check reads any of them.
    """

    t1: AdmissibleTriple
    t2: AdmissibleTriple | FormPair
    metric_eigenvalues: np.ndarray
    certificates: dict[str, float]
    tol: Tolerance
    metric_operator_w: np.ndarray
    omega2_w: np.ndarray
    mu: np.ndarray
    v: np.ndarray
    y: np.ndarray
    coordinate_blocks: np.ndarray

    @property
    def dim(self) -> int:
        return self.t1.dim

    @cached_property
    def eigenframe_w(self) -> np.ndarray:
        axes = np.sqrt(2.0) * (self.t1.complex_coordinates[1] @ self.v)
        return frozen(np.concatenate((axes.real, axes.imag), axis=1), copy=False)

    @cached_property
    def recursion_operator_w(self) -> np.ndarray:
        return frozen(np.linalg.solve(self.t1.j_w, self.omega2_w))

    @cached_property
    def j2_w(self) -> np.ndarray:
        return frozen(np.linalg.solve(self.metric_operator_w, self.omega2_w))

    @cached_property
    def metric_operator(self) -> np.ndarray:
        """G in the input coordinates, ``W @ metric_operator_w @ inv(W)``:
        read-only, built on first use (no check reads it)."""
        frame = self.t1.g.frame
        with np.errstate(over="ignore", invalid="ignore"):
            return frozen(frame @ self.metric_operator_w @ self.t1.g.frame_inv, copy=False)

    @cached_property
    def recursion_operator(self) -> np.ndarray:
        """T in the input coordinates, ``W @ recursion_operator_w @ inv(W)``:
        read-only, built on first use (no check reads it)."""
        frame = self.t1.g.frame
        with np.errstate(over="ignore", invalid="ignore"):
            return frozen(frame @ self.recursion_operator_w @ self.t1.g.frame_inv)


def check_compatible(t1: AdmissibleTriple, t2: AdmissibleTriple | FormPair,
                     tol: Tolerance = DEFAULT_TOL):
    """Decide compatibility in J1's complex coordinates, by one n x n
    eigensolve and no solve.  Of ``t2`` it reads the matrices ``g.m`` and
    ``omega.m`` alone, so a :class:`~biham.structures.FormPair`, with no
    frame, serves as well as an admissible triple.

    In t1's g1-orthonormal frame (g1 = I, omega1 = J1), with ``(nu, Z) =
    t1.complex_coordinates``, one stacked product gives, for M = g1, J1,
    g2 and omega2, the Hermitian blocks Z^H M Z and the anti-linear
    Z^T M Z, which the pair keeps for the frame certificate; for g2 and
    omega2 they are H, K and the A.  T_c = Z^H T Z = i diag(1 / nu) K is
    similar to the Hermitian i N K N, N = diag(nu^-1/2), whose ``eigh``
    gives mu and V.
    With L = diag(|mu|), S = diag(sign mu) (zero counts +), it forms

        E = V^H N H N V - L,  R = V^H N K N V + i diag(mu),  Y = inv(L) (R + i E S),

    E and R over max |mu|, and the pair keeps Y.  G's spectrum is |mu| (N
    H N = V L V^H to first order in E): positive when min |mu| > rel max
    |mu|, and min |mu| is ``G_min_eigenvalue``.  Residuals are Frobenius
    norms (Z is fixed up to a unitary) over max |mu|, against ``rel`` times
    spectral factor norms:

    * ``g2_J1_skew``, ``omega2_J1_symmetric``: both J1 conditions read
      [M, J1] = 0, and [M, J1] is [[0, 2i conj(A)], [-2i A, 0]] in the
      unitary basis [Z, conj(Z)], so |[M, J1]|_F = 2 sqrt(2) |A|_F.
    * ``g1_J2_skew``: |J2 + J2.T|_F to first order in E, R, nu - 1 and the
      A.  Where the A vanish J2 is inv(H) K = N V inv(L + E) K' V^H inv(N)
      on Z, K' = V^H N K N V = R - i diag(mu), and inv(L + E) K' = -i S + Y
      to first order, so V^H J2 V = -i S + Y - i [Delta, S], Delta =
      V^H (N - I) V.  J2 is real, so in the unitary basis [Z V, conj(Z V)]
      J2 + J2.T = J2 + J2^H has the diagonal blocks X and conj(X), X =
      Y + Y^H - 2i [Delta, S], and, to first order in the A (A' = V^T A V),
      the off-diagonal Y_a and conj(Y_a), Y_a = inv(L) A'_w - A'_w inv(L) +
      conj(K') M - M K', M = inv(L) A'_g inv(L): |J2 + J2.T|_F =
      sqrt(2) hypot(|X|_F, |Y_a|_F).  It passes at rel sqrt(m) / 2, the
      Frobenius-to-spectral ratio of an m x m Gaussian matrix, as J2's
      rounding fills all its entries.  [J1, J2] = 0 follows, and T_c is
      Hermitian, so T's symmetry ([omega2, J1] again) is not judged.

    The constants come from the margins on the tests' tamper corpus, where
    no input failing a retired real-form check (``tests/loop_oracle.py``)
    passes here and in ``decompose``.  Returns a :class:`CompatiblePair` or a
    :class:`ViolationReport` naming each failed condition.
    """
    if t1.dim != t2.dim:
        raise ValueError(f"dimension mismatch: {t1.dim} vs {t2.dim}")
    frame = t1.g.frame
    n, (nu, z) = t1.dim // 2, t1.complex_coordinates
    certificates: dict[str, float] = {}
    violations: list[Violation] = []

    def record(name: str, resid: float, threshold: float) -> None:
        certificates[name] = resid
        if not resid <= threshold:
            violations.append(Violation(name, resid))

    # scales far apart overflow, and fail their check
    with np.errstate(over="ignore", invalid="ignore"):
        # J1, g2 (also G) and omega2 in t1's frame, then P = X.T M X for X =
        # [Re Z, Im Z] and M = I and those three: Z^H M Z = P11 + P22 +
        # i (P12 - P21), Z^T M Z = P11 - P22 + i (P12 + P21)
        g2_in = frame.T @ t2.g.m @ frame
        forms = np.array([t1.j_w, g2_in + g2_in.T, frame.T @ t2.omega.m @ frame])
        forms[1] *= 0.5
        x = np.concatenate((z.real, z.imag), axis=1)
        p = np.empty((4, t1.dim, t1.dim))
        np.matmul(x.T, x, out=p[0])
        np.matmul(x.T @ forms, x, out=p[1:])
        p11, p12, p21, p22 = p[:, :n, :n], p[:, :n, n:], p[:, n:, :n], p[:, n:, n:]
        blocks = np.empty((2, 4, n, n), dtype=np.complex128)
        np.add(p11, p22, out=blocks[0].real)
        np.subtract(p12, p21, out=blocks[0].imag)
        np.subtract(p11, p22, out=blocks[1].real)
        np.add(p12, p21, out=blocks[1].imag)
        if not np.isfinite(blocks).all():
            return ViolationReport("compatibility", (Violation("G_finite", math.inf),))
        herm, anti = blocks[:, 2:]  # g2 and omega2
        root = np.sqrt(nu)
        hk = herm / root[:, None] / root  # N H N, N K N
        t_c = 0.5j * hk[1]  # i N K N, halved first so no finite K overflows
        mu, v = np.linalg.eigh(t_c + t_c.conj().T)
        lam, sign = np.abs(mu), np.where(mu < 0.0, -1, 1)
        low, scale = float(lam.min()), float(lam.max())
        if not low > tol.rel * scale:
            return ViolationReport("compatibility", (Violation("G_positive_spectrum", low),))

        # over max |mu| no product overflows on a valid pair (one that does
        # fails its check); K' = V^H N K N V, Delta and the A' in V's basis
        inv = scale / lam
        mats = np.zeros((3, n, n), dtype=np.complex128)
        np.divide(hk, scale, out=mats[:2])
        mats[2].flat[::n + 1] = 1.0 / root - 1.0
        e, r, delta = v.conj().T @ mats @ v
        blocks[:, 2:] /= scale  # the pair keeps g2 and omega2 over max |mu|
        a_g, a_w = v.T @ anti @ v
        k_v = r.copy()
        e.flat[::n + 1] -= lam / scale
        r.flat[::n + 1] += 1j * mu / scale
        y = inv[:, None] * (r + 1j * e * sign)
        m_g = inv[:, None] * a_g * inv
        skew_g2, sym_w2, lin_j2, anti_j2 = np.linalg.norm(np.array(
            [a_g, a_w, y + y.conj().T - 2j * delta * (sign - sign[:, None]),
             (inv[:, None] - inv) * a_w + k_v.conj() @ m_g - m_g @ k_v]),
            axis=(-2, -1)).tolist()
        root2 = math.sqrt(2.0)
        record("g2_J1_skew", 2.0 * root2 * skew_g2, tol.rel)
        record("omega2_J1_symmetric", 2.0 * root2 * sym_w2, tol.rel)
        record("g1_J2_skew", root2 * math.hypot(lin_j2, anti_j2), tol.rel * 0.5 * math.sqrt(t1.dim))
    certificates["G_min_eigenvalue"] = low
    if violations:
        return ViolationReport("compatibility", tuple(violations))
    fields = [frozen(a, copy=False)  # each the pair's own, fresh
              for a in (np.repeat(np.sort(lam), 2), *forms[1:], mu, v, y, blocks)]
    return CompatiblePair(t1, t2, fields[0], certificates, tol, *fields[1:])


class PencilBlockVerdict(Record):
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


class PencilMember(Record, hidden=("pair",)):
    """One member g_c = g1 + c g2, omega_c = omega1 + c omega2 of the pencil
    spanned by the compatible ``pair``, with J_c = inv(g_c) @ omega_c and
    admissibility verdicts per block, read off the decomposition; the
    member is admissible on the whole space (J_c^2 = -I) iff every block
    is.  No verdict reads ``g``, ``omega`` or ``j``: each is read-only and
    built on first use, ``j`` by one solve in t1's frame."""

    gamma: float
    admissible: bool
    blocks: tuple[PencilBlockVerdict, ...]
    pair: CompatiblePair

    @cached_property
    def g(self) -> np.ndarray:
        """g_c = g1 + gamma g2, formed as written: where |gamma| |g2|
        passes about 1e308 its entries leave the floating-point range,
        although the member is judged, and ``j`` built, over
        max(1, |gamma|)."""
        return frozen(self.pair.t1.g.m + self.gamma * self.pair.t2.g.m)

    @cached_property
    def omega(self) -> np.ndarray:
        """omega_c = omega1 + gamma omega2, formed as written: like ``g``,
        outside the floating-point range for an extreme gamma."""
        return frozen(self.pair.t1.omega.m + self.gamma * self.pair.t2.omega.m)

    @cached_property
    def j(self) -> np.ndarray:
        """J_c = inv(g_c) omega_c, solved in t1's frame over
        c = max(1, |gamma|) as (I / c + (gamma / c) G) X = J1 / c +
        (gamma / c) omega2, so it stays finite for every finite gamma; for
        |gamma| <= 1 that is the unscaled solve, bit for bit."""
        p, gamma = self.pair, self.gamma
        c = max(1.0, abs(gamma))
        j_w = np.linalg.solve(np.eye(p.dim) / c + (gamma / c) * p.metric_operator_w,
                              p.t1.j_w / c + (gamma / c) * p.omega2_w)
        return frozen(p.t1.g.frame @ j_w @ p.t1.g.frame_inv)


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

    Both the positivity and f_j are judged over c = max(1, |gamma|), as
    (1 / c + (gamma / c) lambda), which no finite gamma overflows; for
    |gamma| <= 1 that is 1 + gamma lambda itself.  A refusal names the
    smallest eigenvalue relative to g1, or, where that overflows, the
    scaled one relative to c g1.

    Raises :class:`StructureError` when ``g_c`` is not positive-definite
    (``gamma`` outside :func:`positivity_range`).
    """
    p, tol = d.pair, d.tol
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    c = max(1.0, abs(gamma))
    one, gamma_c = 1.0 / c, gamma / c
    # in t1's frame g_c / c is I / c + (gamma / c) G, with eigenvalues
    # 1 / c + (gamma / c) lambda
    scales = one + gamma_c * p.metric_eigenvalues
    if not scales.min() > tol.rel * scales.max():
        # the eigenvalue itself, c times the scaled one, where that is finite
        low, scale = c * float(scales.min()), "g1"
        if not math.isfinite(low):
            low, scale = float(scales.min()), f"{c:.3e} g1"
        raise StructureError(
            f"pencil metric is not positive-definite at gamma={gamma} "
            f"(min eigenvalue {low:.3e} relative to {scale})",
            check="pencil_metric_positive", residual=low,
        )
    # one entry per complex coordinate, cut into blocks at their starts
    starts, ranks = [b.start for b in d.blocks], [b.dim // 2 for b in d.blocks]
    lam, signs = d.coordinate_lambda, d.coordinate_sign
    f_sq = ((one + signs * gamma_c * lam) / (one + gamma_c * lam)) ** 2
    coeffs = -np.add.reduceat(f_sq, starts) / ranks
    resids, departs, peaks = np.maximum.reduceat(
        [np.abs(f_sq + np.repeat(coeffs, ranks)), np.abs(1.0 - f_sq), f_sq], starts, axis=1)
    admissible = (departs <= tol.rel * peaks).tolist()
    verdicts = tuple([PencilBlockVerdict(b.eigenvalue, b.sign, b.dim, c, r, a) for b, c, r, a
                      in zip(d.blocks, coeffs.tolist(), resids.tolist(), admissible)])
    return PencilMember(gamma, all(admissible), verdicts, p)


def positivity_range(p: CompatiblePair) -> tuple[float, float]:
    """Open interval of pencil parameters keeping g_c positive-definite.

    Since g_c = g1 @ (I + c G) and the spectrum of G is positive, the
    interval is ``(-1 / max eigenvalue of G, +inf)``; it always contains 0.
    """
    return (-1.0 / float(p.metric_eigenvalues[-1]), math.inf)
