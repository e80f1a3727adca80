"""Dense linear-algebra primitives shared by every other module.

Conventions used throughout the package:

* matrices are square ``numpy`` arrays (``float64``, or ``complex128`` on the
  complexified side), validated on entry and treated as immutable afterwards;
* a bilinear form with Gram matrix ``m`` takes the value ``x @ m @ y``;
* every metric is factored once, when it is validated, into a frame ``W``
  with ``W.T @ g @ W = I`` (:func:`whitening`), and a pair's second metric
  needs no frame of its own (``structures.FormPair``): later stages work
  with the tensors in the g1-orthonormal frame, where J1 is orthogonal and
  skew and the metric and recursion operators are symmetric, and map back
  only the matrices they report;
* every check follows the threshold rule of :class:`Tolerance`.  The
  checks on n x n blocks in J1's complex coordinates (compatibility, the
  decomposition and the frame certificate) take Frobenius residuals
  against spectral factor norms; the rest take row sums (:func:`op_norm`,
  the induced infinity norm): admissibility and the complex structure,
  the symmetric and self-adjoint parts, field preservation, the flow and
  its probe, and the commutant's checks;
* every result is an immutable :class:`Record`.
"""

from __future__ import annotations

import math

import numpy as np


class Record:
    """Base of the package's immutable results.

    A subclass declares its fields by annotation, in order; a class
    attribute of the same name is the field's default.  Fields are taken
    positionally or by keyword (a missing or unknown one raises
    ``TypeError``), then ``__post_init__`` runs if the class or a base
    defines one: it may validate and normalize them through
    ``object.__setattr__``.  After that a record is read-only: assigning or
    deleting an attribute raises
    ``AttributeError``, while a ``functools.cached_property`` still stores
    its value in the instance ``__dict__``.  Repr, equality and hash are
    over the fields, but for those named in the class keyword ``hidden``
    (kept, but left out of all three).  :meth:`replace` returns a modified,
    validated copy.  No code is generated per class.
    """

    _fields = ()    # every field, in declaration order
    _shown = ()     # the fields of repr, equality and hash
    _defaults = {}  # field name -> default
    __post_init__ = None  # a subclass's validation, if it has one

    def __init_subclass__(cls, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own annotations, in order: on Python 3.10+ the
        # attribute holds only the class's own, and it also evaluates them
        # where they are stored lazily (PEP 649)
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields += own
        cls._shown += tuple(name for name in own if name not in hidden)
        cls._defaults = {**cls._defaults,
                         **{name: vars(cls)[name] for name in own if name in vars(cls)}}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        if self.__post_init__:
            self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in self._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[f] if f in values else self._defaults[f] for f in fields]

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot assign to {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._shown))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def replace(self, **changes) -> "Record":
        """A new record of the same class with ``changes`` applied to its
        fields, validated like any other."""
        return type(self)(**{**{f: self.__dict__[f] for f in self._fields}, **changes})


class NumericalCheckError(ValueError):
    """A quantitative invariant failed beyond the configured tolerance."""


class StructureError(NumericalCheckError):
    """An input matrix lacks a required structural property (symmetry,
    positive-definiteness, nondegeneracy, ...).

    Carries the name of the failed check and the offending residual so
    callers can assemble machine-readable violation reports.
    """

    def __init__(self, message: str, *, check: str = "", residual: float = float("nan")):
        super().__init__(message)
        self.check = check or message
        self.residual = float(residual)


class RankAmbiguityError(NumericalCheckError):
    """Matrices that should be linearly independent are not, within ``rel``."""


class Tolerance(Record):
    """Relative tolerances, finite and in (0, 1): ``rel`` for residual
    checks, ``cluster_gap`` for deciding when two eigenvalues are equal.

    The threshold rule, the one every check in the package follows:

    * a residual passes when it is at most ``rel`` times the product of the
      norms of the matrices in the expression (:meth:`threshold`), e.g.
      ``rel * |A| * |B|`` for ``A @ B - B @ A``, taken in a g1-orthonormal
      frame wherever the stage has one (an orthonormal basis counts as norm
      1).  The ratio is a normwise backward error (Higham, *Accuracy and
      Stability of Numerical Algorithms*, 2nd ed., ch. 1): rescaling a
      tensor scales residual and threshold alike, and whitened tensors
      carry no condition number of g1;
    * a matrix is positive-definite (nondegenerate) when its smallest
      eigenvalue (singular value) exceeds ``rel`` times its largest;
    * two eigenvalues are equal when they differ by at most ``cluster_gap``
      times the larger magnitude (:func:`same_cluster`), and a cluster is
      at most ``cluster_gap`` wide (``decompose`` refuses a wider chain).
    """

    rel: float = 1e-9
    cluster_gap: float = 1e-7

    def __post_init__(self):
        for name in ("rel", "cluster_gap"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be finite and in (0, 1), got {value}")
        if self.cluster_gap < self.rel:
            raise ValueError(
                f"cluster_gap ({self.cluster_gap}) must be at least rel ({self.rel})"
            )

    def threshold(self, *norms: float) -> float:
        """``rel`` times the product of ``norms``, the :func:`op_norm` of
        each factor taken beforehand, multiplied in the order given; NaN,
        which no residual passes, when that product overflows."""
        bound = self.rel * math.prod(norms)
        return bound if math.isfinite(bound) else math.nan


DEFAULT_TOL = Tolerance()


def as_matrix(a, name: str = "matrix", dtype=np.float64) -> np.ndarray:
    """Validate ``a`` as a finite square matrix of the given dtype (float64,
    or complex128 on the complexified side) and return a read-only copy;
    :func:`symmetric_part` makes the same checks and keeps no copy."""
    return frozen(_checked(np.array(a, dtype=dtype), name), copy=False)


def _checked(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``, once it is a finite square matrix of positive dimension."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must have positive dimension")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frozen(a: np.ndarray, copy: bool = True) -> np.ndarray:
    """Return ``a`` read-only: a copy by default, so later writes to ``a``
    cannot reach it; with ``copy=False`` ``a`` itself, for an array a stage
    has just computed that shares no memory with its arguments."""
    if copy:
        a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


def op_norm(a: np.ndarray) -> float:
    """Induced infinity norm (maximum absolute row sum)."""
    return float(op_norms(a))


def op_norms(a) -> np.ndarray:
    """:func:`op_norm` of each matrix in a stack of shape (..., m, m), or in
    a sequence of equal-shaped matrices, which is stacked: one reduction
    for every norm a check group needs.

    The absolute values are laid out in C order before the row sums, whose
    rounding depends on the layout, so a matrix gets the same norm, to the
    bit, alone, inside a stack or as a transposed view."""
    return np.maximum.reduce(np.add.reduce(np.abs(a, order="C"), axis=-1), axis=-1)


def symmetric_part(m, tol: Tolerance, name: str = "matrix", check: str = "symmetric",
                   anti: bool = False, dtype=np.float64) -> np.ndarray:
    """Symmetric part ``0.5 * (m + mᴴ)`` of ``m``, or with ``anti`` its
    antisymmetric part ``0.5 * (m - mᴴ)``: a fresh read-only array.

    ``m``, read as ``dtype``, gets :func:`as_matrix`'s checks and messages
    but no copy.  The other part is rounding noise when ``op_norm(m ∓ mᴴ) <=
    tol.threshold(op_norm(m))``; beyond that :class:`StructureError` names
    ``check``.  ``mᴴ`` is the conjugate transpose, so complex input is
    checked for conjugate symmetry.
    """
    m = _checked(np.asarray(m, dtype=dtype), name)
    mh = m.conj().T
    resid, norm = op_norms([m + mh if anti else m - mh, m]).tolist()
    if not resid <= tol.threshold(norm):
        kind = "antisymmetric" if anti else (
            "conjugate-symmetric" if np.iscomplexobj(m) else "symmetric")
        raise StructureError(
            f"{name} is not {kind} (residual {resid:.3e})",
            check=check, residual=resid,
        )
    return frozen(0.5 * (m - mh if anti else m + mh), copy=False)


def whitening(sym: np.ndarray, tol: Tolerance, name: str,
              check: str) -> tuple[np.ndarray, np.ndarray]:
    """Frame ``W = V diag(w^-1/2)`` with ``Wᴴ @ sym @ W = I``, and
    ``inv(W) = diag(w^1/2) Vᴴ``, from one eigendecomposition ``sym = V
    diag(w) Vᴴ`` of a (conjugate-)symmetric matrix.  Raises
    :class:`StructureError` naming ``check`` unless ``sym`` is
    positive-definite by the threshold rule.
    """
    w, v = np.linalg.eigh(sym)
    if not w[0] > tol.rel * w[-1]:
        raise StructureError(
            f"{name} is not positive-definite (min eigenvalue {w[0]:.3e})",
            check=check, residual=float(w[0]),
        )
    root = np.sqrt(w)
    return frozen(v / root, copy=False), frozen(root[:, None] * v.conj().T, copy=False)


def sym_sqrt(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Symmetric nonnegative square root of a symmetric PSD matrix, read-only.

    Eigenvalues in ``[-tol.threshold(op_norm(m)), 0)`` are treated as
    rounding noise and clipped to zero; anything more negative is an error.
    """
    m = np.asarray(m, dtype=np.float64)
    sym = symmetric_part(m, tol)
    w, v = np.linalg.eigh(sym)
    if not w[0] >= -tol.threshold(op_norm(m)):
        raise StructureError(
            f"matrix has eigenvalue {w[0]:.3e} below the PSD tolerance",
            check="positive_semidefinite", residual=float(w[0]),
        )
    p = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return frozen(0.5 * (p + p.T), copy=False)


def eig_self_adjoint(a_w, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors U of an operator
    self-adjoint for a metric g, given in a g-orthonormal frame W as the
    symmetric ``a_w = inv(W) @ a @ W``; ``W @ U`` is a g-orthonormal
    eigenbasis of ``a``.  Raises :class:`StructureError` (check
    ``self_adjoint``) unless ``a_w`` is symmetric by the threshold rule."""
    sym = symmetric_part(a_w, tol, "operator", "self_adjoint")
    return np.linalg.eigh(sym)


def same_cluster(a: float, b: float, cluster_gap: float) -> bool:
    """Whether two eigenvalues count as equal: ``|a - b|`` at most
    ``cluster_gap`` times the larger magnitude, judged on Python floats.  A
    NaN, or inf against inf, equals nothing."""
    return abs(a - b) <= cluster_gap * max(abs(a), abs(b))


def cluster_eigenvalues(values, cluster_gap: float) -> list[tuple[float, int]]:
    """Merge an ascending list of eigenvalues into clusters.

    The values are read once as Python floats, and a value joins the
    current cluster when it is :func:`same_cluster` as the previous one.
    Returns ``(mean, count)`` pairs, each mean a Python ``sum`` in order;
    the counts always add up to ``len(values)``.
    """
    vals = [float(v) for v in values]
    if any(a > b for a, b in zip(vals, vals[1:])):
        raise ValueError("values must be sorted in ascending order")
    cuts = [k for k in range(1, len(vals)) if not same_cluster(vals[k - 1], vals[k], cluster_gap)]
    ends = [0, *cuts, len(vals)] if vals else [0]
    return [(sum(vals[lo:hi]) / (hi - lo), hi - lo) for lo, hi in zip(ends, ends[1:])]


def commutator(a, b) -> np.ndarray:
    """Matrix bracket ``a @ b - b @ a``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def orthonormal_span(mats, rel: float) -> np.ndarray:
    """Frobenius-orthonormal basis (stacked like the input) of the span of
    k linearly independent matrices, from one QR factorization of their
    k x n^2 stack.

    Each matrix is scaled to unit Frobenius norm first, so ``|R_ii|`` is the
    distance of the i-th one from the span of those before it; a distance
    at most ``rel`` means the inputs are not independent and raises
    :class:`RankAmbiguityError`.
    """
    mats = np.asarray(mats)
    rows = mats.reshape(mats.shape[0], -1)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    q, r = np.linalg.qr(rows.T)
    dist = np.abs(np.diagonal(r))
    if dist.min() <= rel:
        raise RankAmbiguityError(
            f"matrices are not linearly independent: element {int(dist.argmin())} "
            f"lies within {float(dist.min()):.3e} of the span of those before it"
        )
    return q.T.reshape(mats.shape)


# Coefficients b_0 .. b_13 of the [13/13] Padé approximant of exp, with
# p(A) = sum_j b_j A^j and r_13(A) = p(-A)^-1 p(A), and theta_13: the largest
# 1-norm of A for which r_13(A) has a backward error below the unit roundoff
# of float64 (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3).
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
            33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real square matrix by Padé-13 scaling and
    squaring (Higham 2005).

    Beyond theta_13 in the 1-norm, ``a`` is scaled by 2^-s into the ball of
    radius theta_13; r_13 is taken there (six products and one solve) and
    squared s times.  The result overflows to inf or NaN, which callers
    check, when the exponential leaves the floating-point range or ``a`` is
    not finite.
    """
    a = np.asarray(a, dtype=np.float64)
    ident = np.eye(a.shape[0])
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan)
    s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    a = np.ldexp(a, -s)
    b = _PADE_13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r
