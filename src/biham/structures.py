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

from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Record,
    StructureError,
    Tolerance,
    as_matrix,
    commutator,
    frozen,
    op_norm,
    op_norms,
    sym_sqrt,
    symmetric_part,
    whitening,
)

__all__ = [
    "MetricTensor",
    "SymplecticForm",
    "ComplexStructure",
    "AdmissibleTriple",
    "GramMatrix",
    "FormPair",
    "LinearField",
    "QuadraticForm",
    "Violation",
    "ViolationReport",
    "PreservationReport",
    "check_admissible",
    "form_pair",
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
    """Symmetric positive-definite Gram matrix; value ``g(x, y) = x @ m @ y``.
    Factored once, on validation, into a g-orthonormal ``frame`` W (``W.T @
    m @ W = I``) and ``frame_inv``; in that frame a form b reads ``W.T @ b @
    W`` and an operator a reads ``frame_inv @ a @ W``."""

    def __init__(self, m, tol: Tolerance = DEFAULT_TOL):
        self.m = symmetric_part(m, tol, "metric", "metric_symmetric")
        self.frame, self.frame_inv = whitening(self.m, tol, "metric",
                                               "metric_positive_definite")

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    def __repr__(self) -> str:
        return f"MetricTensor(dim={self.dim})"


class SymplecticForm:
    """Antisymmetric nondegenerate Gram matrix on an even-dimensional space,
    nondegenerate by one SVD (a triple's form by :func:`check_admissible`)."""

    def __init__(self, m, tol: Tolerance = DEFAULT_TOL):
        self.m = _antisymmetric(m, tol)
        s = np.linalg.svd(self.m, compute_uv=False)
        smin = float(s[-1])
        if not smin > tol.rel * s[0]:
            raise StructureError(
                f"symplectic form is degenerate (min singular value {smin:.3e})",
                check="symplectic_nondegenerate", residual=smin,
            )

    @classmethod
    def _of_triple(cls, m, tol: Tolerance) -> "SymplecticForm":
        """The form of a triple, checked for antisymmetry only."""
        form = cls.__new__(cls)
        form.m = _antisymmetric(m, tol)
        return form

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    def __repr__(self) -> str:
        return f"SymplecticForm(dim={self.dim})"


def _antisymmetric(m, tol: Tolerance) -> np.ndarray:
    """The read-only antisymmetric part of an even-dimensional matrix."""
    part = symmetric_part(m, tol, "symplectic form", "symplectic form_antisymmetric", anti=True)
    if part.shape[0] % 2 != 0:
        raise ValueError(f"symplectic form needs even dimension, got {part.shape[0]}")
    return part


class ComplexStructure:
    """Linear complex structure given on its own: a real matrix with ``m @
    m = -I``, checked in its own coordinates.  The J of a triple is judged
    in the metric's frame instead (:func:`check_admissible`)."""

    def __init__(self, m, tol: Tolerance = DEFAULT_TOL):
        m = as_matrix(m, "complex structure")
        resid, norm = op_norms([m @ m + np.eye(m.shape[0]), m]).tolist()
        if not resid <= tol.threshold(norm, norm):
            raise StructureError(
                f"matrix squared is not -I (residual {resid:.3e})",
                check="complex_structure_square", residual=resid,
            )
        self.m = m

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    def __repr__(self) -> str:
        return f"ComplexStructure(dim={self.dim})"


class AdmissibleTriple(Record):
    """Validated bundle (g, omega, J) with J = inv(g) @ omega and J^2 = -I.

    ``j_w`` is J in the frame W = ``g.frame``, orthogonal and skew there (it
    is also omega there), where admissibility is judged.
    ``j`` is the read-only matrix ``W @ j_w @ inv(W)``, J in the input
    coordinates, and ``complex_coordinates`` its (nu, Z), both built on
    first use.  Construct through :func:`check_admissible` or
    :func:`polar_admissible`; instances are immutable and safe to share.
    """

    g: MetricTensor
    omega: SymplecticForm
    dim: int
    j_w: np.ndarray

    @cached_property
    def j(self) -> np.ndarray:
        return frozen(self.g.frame @ self.j_w @ self.g.frame_inv)

    @cached_property
    def complex_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """``(nu, Z)``, the top n eigenpairs of ``1j * j_w`` from one
        ``eigh``: ``j_w @ Z = -i Z diag(nu)``, ``Z^H Z = I``, nu = 1 to
        within the metric invariance's residual."""
        nu, z = np.linalg.eigh(1j * self.j_w)
        return frozen(nu[self.dim // 2:], copy=False), frozen(z[:, self.dim // 2:], copy=False)

    def __repr__(self) -> str:
        return f"AdmissibleTriple(dim={self.dim})"


class GramMatrix(Record):
    """A read-only Gram matrix ``m``, checked for its symmetry (a metric's)
    or antisymmetry (a form's) alone."""

    m: np.ndarray

    @property
    def dim(self) -> int:
        return self.m.shape[0]


class FormPair(Record):
    """A metric ``g`` and a form ``omega`` of one even dimension, checked
    for structure alone by :func:`form_pair`: neither is factored, nor
    judged positive-definite or nondegenerate.  It is all that
    :func:`~biham.compatibility.check_compatible` reads of a pair's second
    triple (``g.m``, ``omega.m`` and ``dim``): a pair whose decomposition
    certifies its adapted frame (``BlockDecomposition.frame_certificate``)
    lies within that certificate's backward error of a pair admissible in
    both triples, so the second triple needs no factoring of its own."""

    g: GramMatrix
    omega: GramMatrix
    dim: int


class LinearField(Record):
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


class QuadraticForm(Record, hidden=("tol",)):
    """Quadratic function ``x -> 0.5 * x @ matrix @ x`` with symmetric matrix."""

    matrix: np.ndarray
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "matrix", symmetric_part(
            self.matrix, self.tol, "quadratic form", "quadratic form_symmetric"))

    def value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * float(x @ self.matrix @ x)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class Violation(Record):
    """One failed check together with its residual norm."""

    name: str
    residual: float


class ViolationReport(Record):
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


class PreservationReport(Record):
    """Whether a linear field preserves a triple, with the two residuals of
    :func:`preservation_residuals` in the triple's g-orthonormal frame."""

    preserves: bool
    metric_residual: float
    symplectic_residual: float

    def __bool__(self) -> bool:
        return self.preserves


def check_admissible(g, omega, tol: Tolerance = DEFAULT_TOL):
    """Decide whether a metric and a symplectic form define an admissible
    triple, i.e. whether ``J = inv(g) @ omega`` squares to ``-I``.

    ``g`` and ``omega`` may be raw matrices or already-validated
    :class:`MetricTensor` / :class:`SymplecticForm` objects.  One check is
    judged, ``J_metric_invariance``: |J_w.T J_w - I| <= rel |J_w|^2 on
    ``J_w = W.T @ omega @ W`` in the g-orthonormal frame W, where rounding
    does not grow with cond(g).  omega is exactly antisymmetric (its
    antisymmetric part 0.5 (m - m.T), formed in IEEE arithmetic), so J_w
    is skew up to the rounding of forming it, about eps cond(g) |J_w|, and
    J_w^2 + I = -(J_w.T J_w - I) + (J_w + J_w.T) J_w: J^2 = -I, the metric
    invariance and the skewness are one fact there, judged once.  The
    symplectic invariance follows from the metric invariance, and so does
    omega's nondegeneracy, so a raw omega gets no SVD: with delta = rel
    |J_w|^2 >= |J_w.T J_w - I|_2, every singular value s of J_w has |s^2 -
    1| <= delta, so cond(omega) <= cond(g) (1 + delta) / (1 - delta).  J
    is mapped back as ``W @ J_w @ inv(W)`` only when read
    (:attr:`AdmissibleTriple.j`), and not checked.  Returns the
    :class:`AdmissibleTriple` on success and a :class:`ViolationReport`
    naming each failed invariant otherwise.
    Structural problems (odd or mismatched dimension, non-finite entries)
    raise ``ValueError``.
    """
    violations: list[Violation] = []
    metric = symp = None
    try:
        metric = g if isinstance(g, MetricTensor) else MetricTensor(g, tol)
    except StructureError as err:
        violations.append(Violation(err.check, err.residual))
    try:
        symp = (omega if isinstance(omega, SymplecticForm)
                else SymplecticForm._of_triple(omega, tol))
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
    # J = inv(g) @ omega reads W.T @ omega @ W in the g-orthonormal frame W;
    # metric and form on scales far apart overflow here, and an overflowed
    # (non-finite) residual fails its check
    with np.errstate(over="ignore", invalid="ignore"):
        jw = metric.frame.T @ symp.m @ metric.frame
        resid, nj = op_norms([jw.T @ jw - np.eye(dim), jw]).tolist()
    if not resid <= tol.threshold(nj, nj):
        return ViolationReport("admissibility", (Violation("J_metric_invariance", resid),))
    return AdmissibleTriple(metric, symp, dim, frozen(jw, copy=False))


def form_pair(g, omega, tol: Tolerance = DEFAULT_TOL) -> FormPair:
    """The symmetric part of ``g`` and the antisymmetric part of ``omega``
    as a :class:`FormPair`, by the checks :func:`check_admissible` makes
    first: :class:`StructureError` names ``metric_symmetric``, else
    ``symplectic form_antisymmetric``; an odd or mismatched dimension
    raises ``ValueError``."""
    metric = GramMatrix(symmetric_part(g, tol, "metric", "metric_symmetric"))
    form = GramMatrix(_antisymmetric(omega, tol))
    if metric.dim != form.dim:
        raise ValueError(f"dimension mismatch: metric is {metric.dim}, form is {form.dim}")
    return FormPair(metric, form, metric.dim)


def symmetrize_metric(g, j: ComplexStructure, tol: Tolerance = DEFAULT_TOL) -> MetricTensor:
    """Average a symmetric PD matrix with its pullback along ``j``, a
    :class:`ComplexStructure` (a triple's J enters as
    ``ComplexStructure(t.j)``): ``g_s = 0.5 * (J.T @ g @ J + g)``.

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
    ``(g_omega, omega, J)`` is admissible.  In the g-orthonormal frame A is
    the skew matrix ``A_w = W.T @ omega @ W`` and P is ``sym_sqrt(-A_w @
    A_w)``.  If the input pair was already admissible then ``P = I`` and the
    metric is returned unchanged.  J is the triple's, judged by
    :func:`check_admissible` on (g_omega, omega); ``A @ inv(P)``, the same
    matrix in exact arithmetic, is not formed.
    """
    metric = g if isinstance(g, MetricTensor) else MetricTensor(g, tol)
    symp = omega if isinstance(omega, SymplecticForm) else SymplecticForm(omega, tol)
    if metric.dim != symp.dim:
        raise ValueError(f"dimension mismatch: metric is {metric.dim}, form is {symp.dim}")

    frame, frame_inv = metric.frame, metric.frame_inv
    a_w = frame.T @ symp.m @ frame
    skew, n_a = op_norms([a_w + a_w.T, a_w]).tolist()
    if not skew <= tol.threshold(n_a):
        raise StructureError(
            f"Riesz operator is not skew-adjoint for the metric (residual {skew:.3e})",
            check="riesz_skew_adjoint", residual=skew,
        )
    p_w = sym_sqrt(-(a_w @ a_w), tol)
    # a singular P fails the positive-definiteness of g_omega
    triple = check_admissible(MetricTensor(frame_inv.T @ p_w @ frame_inv, tol), symp, tol)
    if isinstance(triple, ViolationReport):
        raise StructureError(f"polar construction failed: {triple}", check="polar_admissible")
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


def phase_generator(t: AdmissibleTriple) -> LinearField:
    """The Hamiltonian field of the quadratic energy ``0.5 * g(x, x)``.

    Its matrix is exactly J; equivalently ``-inv(omega) @ g``, an identity
    forced by ``J^2 = -I``: in the g-orthonormal frame ``omega @ J + g``
    reads ``J_w @ J_w + I``, which :func:`check_admissible` bounds by
    the metric invariance and J_w's skew rounding.
    """
    return LinearField(t.j)


def preservation_residuals(a, g, w) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of ``tau @ a + a.T @ tau = 0`` for tau in (g, w), a
    symmetric and a skew form, over the product of the norms of tau and the
    field ``a`` (0 for a zero field), for one field or a stack (..., m, m)
    given in the frame of the forms: above ``tol.rel`` fails the rule."""
    a = np.asarray(a)
    norms = op_norms(a)
    out = []
    for form, sign in ((g, 1.0), (w, -1.0)):
        fa = form @ a
        resid = op_norms(fa + sign * np.swapaxes(fa, -1, -2))
        scale = op_norm(form) * norms
        out.append(np.divide(resid, scale, out=np.zeros_like(resid), where=scale > 0))
    return out[0], out[1]


def field_preserves(field: LinearField, t: AdmissibleTriple,
                    tol: Tolerance = DEFAULT_TOL) -> PreservationReport:
    """Does the flow of the field preserve the triple?

    Invariance of the symplectic form means ``omega @ A`` is symmetric,
    invariance of the metric means ``g @ A`` is antisymmetric.  Both are
    measured in the triple's g-orthonormal frame, where g is the identity
    and omega is ``t.j_w`` (:func:`preservation_residuals`).
    """
    a = field.matrix
    if a.shape[0] != t.dim:
        raise ValueError(f"field dimension {a.shape[0]} does not match triple dimension {t.dim}")
    a_w = t.g.frame_inv @ a @ t.g.frame
    g_resid, w_resid = (float(r) for r in preservation_residuals(a_w, np.eye(t.dim), t.j_w))
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
    return np.cos(time) * np.eye(t.dim) + np.sin(time) * t.j


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
