"""Hermitian structures on an even-dimensional real vector space.

A *metric* g (symmetric positive-definite), a *symplectic form* omega
(antisymmetric nondegenerate) and a *complex structure* J (with J^2 = -I)
form an **admissible triple** when J = inv(g) @ omega.  Admissibility is
equivalent to

    J^2 = -I,        J.T @ g @ J = g,        g @ J + J.T @ g = 0,
    J.T @ omega @ J = omega,

i.e. J is at once an infinitesimal and a finite rotation and an
infinitesimal and finite symplectic map.  The pair (g, omega) then packages
into the Hermitian product  h(x, y) = g(x, y) + i * omega(x, y), linear in
the first argument for the complex multiplication  (a + i b) x = a x + b J x.

Linear dynamics enter through :class:`LinearField`: the matrix ``A`` stands
for the vector field with components ``A[i, j] * x[j]``.  The dilation
(Liouville) field is the one with ``A = I``; the phase generator of a triple
is the field with matrix J, whose flow cos(t) I + sin(t) J preserves all
three tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    StructureError,
    Tolerance,
    as_matrix,
    commutator,
    eig_self_adjoint,
    frozen,
    op_norm,
    scale_of,
    symmetric_part,
)

__all__ = [
    "MetricTensor",
    "SymplecticForm",
    "ComplexStructure",
    "AdmissibleTriple",
    "LinearField",
    "QuadraticForm",
    "Violation",
    "ViolationReport",
    "PreservationReport",
    "check_admissible",
    "symmetrize_metric",
    "polar_admissible",
    "hermitian_product",
    "phase_generator",
    "field_preserves",
    "phase_group",
    "lie_bracket",
    "metric_hamiltonian",
    "poisson_bracket",
]


class MetricTensor:
    """Symmetric positive-definite Gram matrix; value ``g(x, y) = x @ m @ y``."""

    def __init__(self, m, tol: Tolerance = DEFAULT_TOL):
        m = as_matrix(m, "metric")
        sym = symmetric_part(m, tol, "metric", "metric_symmetric")
        w = np.linalg.eigvalsh(sym)
        if w[0] <= tol.rel * scale_of(sym):
            raise StructureError(
                f"metric is not positive-definite (min eigenvalue {w[0]:.3e})",
                check="metric_positive_definite", residual=float(w[0]),
            )
        self.m = frozen(sym)

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    def __repr__(self) -> str:
        return f"MetricTensor(dim={self.dim})"


class SymplecticForm:
    """Antisymmetric nondegenerate Gram matrix on an even-dimensional space."""

    def __init__(self, m, tol: Tolerance = DEFAULT_TOL):
        m = as_matrix(m, "symplectic form")
        if m.shape[0] % 2 != 0:
            raise ValueError(
                f"symplectic form needs even dimension, got {m.shape[0]}"
            )
        anti = symmetric_part(m, tol, "symplectic form", "symplectic form_antisymmetric",
                              anti=True)
        smin = float(np.linalg.svd(anti, compute_uv=False)[-1])
        if smin <= tol.rel * scale_of(anti):
            raise StructureError(
                f"symplectic form is degenerate (min singular value {smin:.3e})",
                check="symplectic_nondegenerate", residual=smin,
            )
        self.m = frozen(anti)

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    def __repr__(self) -> str:
        return f"SymplecticForm(dim={self.dim})"


class ComplexStructure:
    """Linear complex structure: a real matrix with ``m @ m = -I``."""

    def __init__(self, m, tol: Tolerance = DEFAULT_TOL):
        m = as_matrix(m, "complex structure")
        resid = op_norm(m @ m + np.eye(m.shape[0]))
        if resid > tol.rel * m.shape[0]:
            raise StructureError(
                f"matrix squared is not -I (residual {resid:.3e})",
                check="complex_structure_square", residual=resid,
            )
        self.m = frozen(m)

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    def __repr__(self) -> str:
        return f"ComplexStructure(dim={self.dim})"


@dataclass(frozen=True)
class AdmissibleTriple:
    """Validated bundle (g, omega, J) with J = inv(g) @ omega and J^2 = -I.

    Construct through :func:`check_admissible` or :func:`polar_admissible`;
    instances are immutable and safe to share.
    """

    g: MetricTensor
    omega: SymplecticForm
    j: ComplexStructure
    dim: int

    def __repr__(self) -> str:
        return f"AdmissibleTriple(dim={self.dim})"


@dataclass(frozen=True)
class LinearField:
    """Linear vector field with components ``matrix[i, j] * x[j]``."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_matrix(self.matrix, "field matrix"))

    @classmethod
    def dilation(cls, dim: int) -> "LinearField":
        """The dilation (Liouville) field, matrix = identity."""
        return cls(np.eye(dim))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class QuadraticForm:
    """Quadratic function ``x -> 0.5 * x @ matrix @ x`` with symmetric matrix."""

    matrix: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        m = as_matrix(self.matrix, "quadratic form")
        sym = symmetric_part(m, self.tol, "quadratic form", "quadratic form_symmetric")
        object.__setattr__(self, "matrix", frozen(sym))

    def value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * float(x @ self.matrix @ x)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Violation:
    """One failed check together with its residual norm."""

    name: str
    residual: float


@dataclass(frozen=True)
class ViolationReport:
    """Falsy result naming every invariant a candidate object failed."""

    subject: str
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return False

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.violations)

    def __str__(self) -> str:
        parts = ", ".join(f"{v.name} (residual {v.residual:.3e})" for v in self.violations)
        return f"{self.subject} failed: {parts}"


@dataclass(frozen=True)
class PreservationReport:
    """Whether a linear field preserves a triple, with the two residuals
    (relative to ``max(1, norm)`` of the respective products)."""

    preserves: bool
    metric_residual: float
    symplectic_residual: float

    def __bool__(self) -> bool:
        return self.preserves


def check_admissible(g, omega, tol: Tolerance = DEFAULT_TOL):
    """Decide whether a metric and a symplectic form define an admissible
    triple, i.e. whether ``J = inv(g) @ omega`` squares to ``-I``.

    ``g`` and ``omega`` may be raw matrices or already-validated
    :class:`MetricTensor` / :class:`SymplecticForm` objects.  Returns the
    :class:`AdmissibleTriple` on success and a :class:`ViolationReport`
    naming each failed invariant otherwise.  Structural problems (odd or
    mismatched dimension, non-finite entries) raise ``ValueError``.
    """
    violations: list[Violation] = []
    metric = symp = None
    try:
        metric = g if isinstance(g, MetricTensor) else MetricTensor(g, tol)
    except StructureError as err:
        violations.append(Violation(err.check, err.residual))
    try:
        symp = omega if isinstance(omega, SymplecticForm) else SymplecticForm(omega, tol)
    except StructureError as err:
        violations.append(Violation(err.check, err.residual))
    if violations:
        return ViolationReport("admissibility", tuple(violations))
    assert metric is not None and symp is not None
    if metric.dim != symp.dim:
        raise ValueError(f"dimension mismatch: metric is {metric.dim}, form is {symp.dim}")
    if metric.dim % 2 != 0:
        raise ValueError(f"admissible triples need even dimension, got {metric.dim}")

    dim = metric.dim
    jm = np.linalg.solve(metric.m, symp.m)
    eye = np.eye(dim)

    checks = (
        ("J_squared_plus_identity", op_norm(jm @ jm + eye), tol.rel * dim),
        ("J_metric_invariance", op_norm(jm.T @ metric.m @ jm - metric.m),
         tol.rel * scale_of(metric.m)),
        ("J_metric_skewness", op_norm(metric.m @ jm + jm.T @ metric.m),
         tol.rel * scale_of(metric.m)),
        ("J_symplectic_invariance", op_norm(jm.T @ symp.m @ jm - symp.m),
         tol.rel * scale_of(symp.m)),
    )
    for name, resid, thr in checks:
        if resid > thr:
            violations.append(Violation(name, resid))
    if violations:
        return ViolationReport("admissibility", tuple(violations))
    return AdmissibleTriple(metric, symp, ComplexStructure(jm, tol), dim)


def symmetrize_metric(g, j: ComplexStructure, tol: Tolerance = DEFAULT_TOL) -> MetricTensor:
    """Average a symmetric PD matrix with its pullback along ``j``:
    ``g_s = 0.5 * (J.T @ g @ J + g)``.

    The result is invariant under ``j`` by construction and stays positive
    definite, so it is always an admissible partner for the complex
    structure.  Metrics that are already invariant are fixed points.
    """
    gm = g.m if isinstance(g, MetricTensor) else MetricTensor(g, tol).m
    jm = j.m
    if jm.shape[0] != gm.shape[0]:
        raise ValueError("metric and complex structure dimensions differ")
    gs = 0.5 * (jm.T @ gm @ jm + gm)
    return MetricTensor(gs, tol)


def polar_admissible(g, omega, tol: Tolerance = DEFAULT_TOL) -> AdmissibleTriple:
    """Build an admissible triple from *any* metric/symplectic pair by the
    polar construction.

    Writing ``omega(x, y) = g(A x, y)`` defines ``A = inv(g) @ omega``,
    skew-adjoint for ``g``, with ``-A @ A`` positive and g-self-adjoint.
    Taking ``P`` as its g-self-adjoint square root, the rescaled structure

        J = A @ inv(P),      g_omega(x, y) = g(P x, y)

    satisfies ``J^2 = -I`` and ``omega = g_omega @ J``, so
    ``(g_omega, omega, J)`` is admissible.  If the input pair was already
    admissible then ``P = I`` and the metric is returned unchanged.
    """
    metric = g if isinstance(g, MetricTensor) else MetricTensor(g, tol)
    symp = omega if isinstance(omega, SymplecticForm) else SymplecticForm(omega, tol)
    if metric.dim != symp.dim:
        raise ValueError(f"dimension mismatch: metric is {metric.dim}, form is {symp.dim}")

    a = np.linalg.solve(metric.m, symp.m)
    # skew-adjointness of A w.r.t. g means g @ A is antisymmetric; g @ A = omega
    skew = op_norm(metric.m @ a + a.T @ metric.m)
    if skew > tol.rel * scale_of(symp.m):
        raise StructureError(
            f"Riesz operator is not skew-adjoint for the metric (residual {skew:.3e})",
            check="riesz_skew_adjoint", residual=skew,
        )
    w, basis = eig_self_adjoint(-(a @ a), metric.m, tol)
    if w[0] <= tol.rel * max(1.0, float(w[-1])):
        raise StructureError(
            f"square root factor is singular (min eigenvalue {w[0]:.3e})",
            check="polar_factor_singular", residual=float(w[0]),
        )
    # basis is g-orthonormal, so inv(basis) = basis.T @ g
    binv = basis.T @ metric.m
    p = basis @ np.diag(np.sqrt(w)) @ binv
    p_inv = basis @ np.diag(1.0 / np.sqrt(w)) @ binv
    jm = a @ p_inv
    g_omega = metric.m @ p
    g_omega = 0.5 * (g_omega + g_omega.T)
    triple = check_admissible(MetricTensor(g_omega, tol), symp, tol)
    if isinstance(triple, ViolationReport):
        raise StructureError(f"polar construction failed: {triple}", check="polar_admissible")
    # the construction determines J directly; make sure both routes agree
    drift = op_norm(triple.j.m - jm)
    if drift > tol.rel * scale_of(jm):
        raise StructureError(
            f"polar complex structure disagrees with inv(g_omega) @ omega "
            f"(residual {drift:.3e})",
            check="polar_consistency", residual=drift,
        )
    return triple


def hermitian_product(t: AdmissibleTriple, x, y) -> tuple[float, float]:
    """Value of the Hermitian product of the triple on two real vectors.

    Returns ``(g(x, y), omega(x, y))`` as the real and imaginary part.  With
    the complex multiplication ``(a + i b) x = a x + b J x`` this pairing is
    linear in the first argument and conjugate-linear in the second, and the
    imaginary part vanishes on the diagonal.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != (t.dim,) or y.shape != (t.dim,):
        raise ValueError(f"vectors must have shape ({t.dim},)")
    return float(x @ t.g.m @ y), float(x @ t.omega.m @ y)


def phase_generator(t: AdmissibleTriple, tol: Tolerance = DEFAULT_TOL) -> LinearField:
    """The Hamiltonian field of the quadratic energy ``0.5 * g(x, x)``.

    Its matrix is exactly J; equivalently ``-inv(omega) @ g``, an identity
    forced by ``J^2 = -I``.  The residual between the two expressions is
    checked rather than silently absorbed.
    """
    resid = op_norm(t.omega.m @ t.j.m + t.g.m)
    if resid > tol.rel * scale_of(t.g.m):
        raise StructureError(
            f"phase generator identity omega @ J = -g violated (residual {resid:.3e})",
            check="phase_generator_identity", residual=resid,
        )
    return LinearField(t.j.m)


def field_preserves(field: LinearField, t: AdmissibleTriple,
                    tol: Tolerance = DEFAULT_TOL) -> PreservationReport:
    """Does the flow of the field preserve the triple?

    Invariance of the symplectic form means ``omega @ A`` is symmetric,
    invariance of the metric means ``g @ A`` is antisymmetric.  Residuals are
    reported relative to ``max(1, norm)`` of the respective product.
    """
    a = field.matrix
    if a.shape[0] != t.dim:
        raise ValueError(f"field dimension {a.shape[0]} does not match triple dimension {t.dim}")
    ga = t.g.m @ a
    wa = t.omega.m @ a
    g_resid = op_norm(ga + ga.T) / scale_of(ga)
    w_resid = op_norm(wa - wa.T) / scale_of(wa)
    ok = g_resid <= tol.rel and w_resid <= tol.rel
    return PreservationReport(ok, g_resid, w_resid)


def phase_group(t: AdmissibleTriple, time: float) -> np.ndarray:
    """One-parameter invariance group of the triple:
    ``O(t) = cos(t) I + sin(t) J``.

    Satisfies ``O(t).T @ g @ O(t) = g``, the same for omega, and the group
    law ``O(t) @ O(s) = O(t + s)``.
    """
    time = float(time)
    if not np.isfinite(time):
        raise ValueError("time must be finite")
    return np.cos(time) * np.eye(t.dim) + np.sin(time) * t.j.m


def lie_bracket(x: LinearField, y: LinearField) -> LinearField:
    """Lie bracket of two linear fields.

    The field-matrix correspondence is a Lie-algebra *anti*-isomorphism, so
    the bracket of the fields carries matrix ``-(A @ B - B @ A)``.  The sign
    is applied here and nowhere else.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return LinearField(-commutator(x.matrix, y.matrix))


def metric_hamiltonian(g: MetricTensor) -> QuadraticForm:
    """Quadratic energy ``x -> 0.5 * g(x, x)`` of a metric."""
    return QuadraticForm(g.m)


def poisson_bracket(f: QuadraticForm, h: QuadraticForm, omega: SymplecticForm,
                    tol: Tolerance = DEFAULT_TOL) -> QuadraticForm:
    """Poisson bracket of two quadratic forms for the given symplectic form.

    The Hamiltonian field of a form with matrix ``F`` is
    ``M_F = -inv(omega) @ F`` (the sign convention that makes the metric
    Hamiltonian generate the phase group).  The bracket is represented by the
    symmetrized product ``sym(M_h.T @ omega @ M_f)``; it vanishes exactly
    when the two flows commute symplectically.
    """
    if not (f.dim == h.dim == omega.dim):
        raise ValueError("quadratic forms and symplectic form must share one dimension")
    m_f = -np.linalg.solve(omega.m, f.matrix)
    m_h = -np.linalg.solve(omega.m, h.matrix)
    b = m_h.T @ omega.m @ m_f
    return QuadraticForm(0.5 * (b + b.T), tol)
