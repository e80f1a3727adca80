"""Per-check, per-block, per-pair and per-element verification loops, kept
as a test oracle.

The package verifies the block decomposition and the pencil's per-block
verdicts from stacked products, one set per stage, and certifies the
bi-preserving algebra, the recursion family, the commutant and the
bicommutant from the frames they are built from.  These are the checks
they replaced: one small dense product per block, per pair of blocks or
directions, or per basis element, each read with ``op_norm``.  The
admissibility check takes the norms of its residual and its factor in one
reduction; here each residual and each factor of each threshold gets its
own ``op_norm``, beside the three J checks it implies and no longer judges
(``admissibility_residuals``), and so does ``polar_admissible``'s retired
second route to J (``polar_consistency``).  Compatibility and the
decomposition judge the pair on n x n blocks in J1's complex coordinates;
their former real-form checks, with their row-sum thresholds, are kept
here (``compatibility_residuals``, ``decomposition_residuals``), with the
real-form Frobenius residuals the blocks read off
(``compatibility_frobenius``), the sub-block checks of E and R that
``decompose`` retired for its J2 check (``coordinate_block_norms``), and
``with_forms`` builds the tampered pairs that ``decompose``'s own check
must refuse.  The relations those
checks imply and no longer judge are kept here too, each with the
threshold it was judged against, and so are the recursion family's
floating-point powers, which the certificate no longer forms, as unit
directions with the telescoped bound that once judged them.  The frame
certificate now reads the pair's backward error off n x n blocks; the
row-sum certificate it replaced is kept with its values and its frame-term
lemma (``row_sum_frame_certificate``, ``row_sum_recursion_values``,
``frame_departure``), beside the dense form of the new claim
(``pair_backward_error``).  The transfer
operator of two forms is read off their realified pair's decomposition;
the route it replaced, one ``eigh`` of F in the first form's frame and a
certificate of its own, is kept as ``transfer_operator_oracle``, with the
complex factoring of a form that it read (``hermitian_frame``).
"""

import math
from functools import cached_property

import numpy as np

from biham.commutant import HermitianForm, bicommutant_basis
from biham.compatibility import check_compatible
from biham.decomposition import _chain_clusters
from biham.dynamics import conservation_probe
from biham.linalg import (
    DEFAULT_TOL,
    Record,
    StructureError,
    Tolerance,
    commutator,
    frozen,
    op_norm,
    op_norms,
    sym_sqrt,
    symmetric_part,
    whitening,
)
from biham.structures import (
    LinearField,
    MetricTensor,
    SymplecticForm,
    check_admissible,
    preservation_residuals,
)


def threshold(tol, *factors):
    """The threshold rule with one ``op_norm`` per factor: ``rel`` times
    the product of the norms, NaN when it overflows."""
    bound = tol.rel * math.prod(op_norm(f) for f in factors)
    return bound if math.isfinite(bound) else math.nan


def admissibility_residuals(g, omega, tol):
    """``{check: (residual, threshold)}`` of the four J checks, one norm per
    residual and per factor: ``check_admissible`` judges
    ``J_metric_invariance`` alone.  It implies the other three: retired
    ``J_squared_plus_identity`` and ``J_metric_skewness`` within J_w's skew
    rounding times |J_w|, and ``J_symplectic_invariance``, J.T @ omega @ J
    = omega, which reads ``(J.T @ J - I) @ J`` in the g-orthonormal frame,
    within the metric invariance's threshold times |J_w|.  The metric and
    the form are validated by the package."""
    jw = j_in_frame(g, omega, tol)
    eye = np.eye(len(jw))
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            "J_squared_plus_identity": (op_norm(jw @ jw + eye), threshold(tol, jw, jw)),
            "J_metric_invariance": (op_norm(jw.T @ jw - eye), threshold(tol, jw, jw)),
            "J_metric_skewness": (op_norm(jw + jw.T), threshold(tol, jw)),
            "J_symplectic_invariance": (op_norm(jw.T @ jw @ jw - jw),
                                        threshold(tol, jw, jw, jw)),
        }


def admissibility_violations(g, omega, tol):
    """``{check: residual}`` of every J check of
    :func:`admissibility_residuals` that fails its threshold, in order;
    ``{}`` where all four pass."""
    return {name: resid for name, (resid, thr) in admissibility_residuals(g, omega, tol).items()
            if not resid <= thr}


def polar_consistency(g, omega, triple, tol):
    """``(residual, threshold)`` of the check ``polar_admissible`` retired:
    its ``triple.j`` against J = A inv(P) formed a second way, ``W
    solve(P_w, A_w) inv(W)`` in the input metric's frame W, at rel |J|.
    The two routes give one matrix in exact arithmetic."""
    metric, symp = MetricTensor(g, tol), SymplecticForm(omega, tol)
    a_w = metric.frame.T @ symp.m @ metric.frame
    jm = metric.frame @ np.linalg.solve(sym_sqrt(-(a_w @ a_w), tol), a_w) @ metric.frame_inv
    return op_norm(triple.j - jm), threshold(tol, jm)


def j_in_frame(g, omega, tol):
    """J of the metric and the form in the metric's orthonormal frame, the
    form checked for antisymmetry only, as ``check_admissible`` checks it."""
    metric, symp = MetricTensor(g, tol), SymplecticForm._of_triple(omega, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        return metric.frame.T @ symp.m @ metric.frame


def _pair_in_t1_frame(t1, t2, tol):
    """``(g2_in, g2, w2, evals, j2)``, the second triple in t1's
    g1-orthonormal frame as ``check_compatible`` reads it (G unsymmetrized
    and symmetrized, omega2, G's ascending eigenvalues and J2), with ``{}``;
    or ``None`` with the one violation that stops it before G is used."""
    frame = t1.g.frame
    with np.errstate(over="ignore", invalid="ignore"):
        g2_in = frame.T @ t2.g.m @ frame
        w2 = frame.T @ t2.omega.m @ frame
    if not (np.isfinite(g2_in).all() and np.isfinite(w2).all()):
        return None, {"G_finite": math.inf}
    g2 = 0.5 * (g2_in + g2_in.T)
    evals = np.linalg.eigvalsh(g2)
    if not evals[0] > tol.rel * evals[-1]:
        return None, {"G_positive_spectrum": float(evals[0])}
    return (g2_in, g2, w2, evals, np.linalg.solve(g2, w2)), {}


def _sym(m):
    return op_norm(m - m.T)


def _skew(m):
    return op_norm(m + m.T)


def compatibility_residuals(t1, t2, tol):
    """``(certificates, violations)`` of the real-form compatibility checks
    that the block suite of ``check_compatible`` replaced, in their order,
    one row-sum norm per residual and per factor: the certificates of a
    compatible pair with ``{}``, or ``(None, violations)``."""
    frame_pair, violations = _pair_in_t1_frame(t1, t2, tol)
    if frame_pair is None:
        return None, violations
    g2_in, g2, w2, evals, j2 = frame_pair
    frame, frame_inv = t1.g.frame, t1.g.frame_inv
    j1 = t1.j_w
    certificates = {}

    def record(name, resid, thr):
        certificates[name] = float(resid)
        if not resid <= thr:
            violations[name] = float(resid)

    with np.errstate(over="ignore", invalid="ignore"):
        scale = evals[-1]
        g2_s, w2_s = g2 / scale, w2 / scale
        record("g2_J1_skew", _skew(g2_s @ j1), threshold(tol, g2_s, j1))
        record("omega2_J1_symmetric", _sym(w2_s @ j1), threshold(tol, w2_s, j1))
        record("g1_J2_skew", _skew(j2), threshold(tol, j2))
        record("omega1_J2_symmetric", _sym(j1 @ j2), threshold(tol, j1, j2))
        record("J1_J2_commutator", op_norm(commutator(j1, j2)), threshold(tol, j1, j2))
        if violations:
            return None, violations
        t_s = np.linalg.solve(j1, w2) / scale
        record("T_selfadjoint_g1", _sym(t_s), threshold(tol, t_s))
        big_g = frame @ g2 @ frame_inv
        record("metric_transfer", op_norm(t1.g.m @ big_g - t2.g.m),
               threshold(tol, t1.g.m, big_g))
    certificates["G_min_eigenvalue"] = float(evals[0])
    return (None, violations) if violations else (certificates, {})


def compatibility_frobenius(t1, t2):
    """The real-form residuals the block suite of ``check_compatible``
    reads off J1's complex coordinates, measured by products and a solve
    in t1's frame: ``g2_J1_skew`` and ``omega2_J1_symmetric``, the
    Frobenius norms of [g2, J1] and [omega2, J1] over G's largest
    eigenvalue, and ``g1_J2_skew``, that of J2 + J2.T."""
    frame_pair, _ = _pair_in_t1_frame(t1, t2, DEFAULT_TOL)
    _, g2, w2, evals, j2 = frame_pair
    j1 = t1.j_w
    scale = evals[-1]
    return {"g2_J1_skew": np.linalg.norm(commutator(g2, j1)) / scale,
            "omega2_J1_symmetric": np.linalg.norm(commutator(w2, j1)) / scale,
            "g1_J2_skew": np.linalg.norm(j2 + j2.T)}


def retired_relation_violations(t1, t2, tol):
    """``{relation: residual}`` of every commuting-family relation that
    ``check_compatible`` no longer judges and that fails the threshold it
    was judged against, on G, T and omega2 divided by G's largest
    eigenvalue, one norm per residual and per factor; ``None`` where
    ``check_compatible`` stops before G is used.  Each follows from the
    four compatibility conditions."""
    frame_pair, _ = _pair_in_t1_frame(t1, t2, tol)
    if frame_pair is None:
        return None
    g2_in, g2, w2, evals, j2 = frame_pair
    j1 = t1.j_w
    out = {}

    def judge(name, resid, thr):
        if not resid <= thr:
            out[name] = float(resid)

    with np.errstate(over="ignore", invalid="ignore"):
        scale = evals[-1]
        g2_s, w2_s, g_s = g2 / scale, w2 / scale, g2_in / scale
        t_s = np.linalg.solve(j1, w2) / scale
        judge("phase_generator_commutator", op_norm(commutator(j1, j2)),
              threshold(tol, j1, j2))
        # the Poisson bracket of the energies of g1 = I and G for a form w
        # is [inv(w), G] / 2
        for name, w in (("poisson_bracket_omega1", j1), ("poisson_bracket_omega2", w2_s)):
            w_inv = np.linalg.inv(w)
            judge(name, 0.5 * op_norm(commutator(w_inv, g2_s)), threshold(tol, w_inv, g2_s))
        judge("G_T_commutator", op_norm(commutator(g2_s, t_s)), threshold(tol, g2_s, t_s))
        judge("G_plus_J1_T_J2", op_norm(g2_s + j1 @ t_s @ j2), threshold(tol, j1, t_s, j2))
        judge("G_selfadjoint_g1", _sym(g_s), threshold(tol, g_s))
        judge("G_selfadjoint_g2", _sym(g2_s @ g_s), threshold(tol, g2_s, g_s))
        judge("T_selfadjoint_g2", _sym(g2_s @ t_s), threshold(tol, g2_s, t_s))
        judge("T_sq_minus_G_sq", op_norm(t_s @ t_s - g2_s @ g2_s), threshold(tol, t_s, t_s))
    return out


def relation_residuals(p):
    """The relation suite of a compatible pair, each relation measured on
    its own in t1's g1-orthonormal frame: commutation of G and T with both
    complex structures and with each other, G = -J1 @ T @ J2, T^2 = G^2,
    self-adjointness of G and T and skew-adjointness of both J's for both
    metrics (the g1-adjoint is the transpose, the g2-adjoint of a is
    ``inv(G) @ a.T @ G``) and the two Poisson brackets [inv(w), G] / 2 of
    the energies of g1 and g2 for w in omega1, omega2 (over |inv(w)|), on
    G, T and omega2 divided by G's largest eigenvalue, and the transfer
    identity g1(G x, y) = g2(x, y) in the original coordinates over
    ``|g1| |G|``.  Every residual is relative and compares with ``tol.rel``
    at any scale of the second triple.  G is read unsymmetrized off the
    second metric, so its symmetry is measured."""
    frame = p.t1.g.frame
    j1 = p.t1.j_w
    scale = p.metric_eigenvalues[-1]
    big_g = frame.T @ p.t2.g.m @ frame / scale
    w2 = frame.T @ p.t2.omega.m @ frame / scale
    j2 = np.linalg.solve(big_g, w2)
    big_t = np.linalg.solve(j1, w2)

    def g2_adjoint(a):
        return np.linalg.solve(big_g, a.T @ big_g)

    out = {}
    for name, op in (("G", big_g), ("T", big_t)):
        out[f"{name}_J1_commutator"] = op_norm(commutator(op, j1))
        out[f"{name}_J2_commutator"] = op_norm(commutator(op, j2))
        out[f"{name}_adjoint_g1"] = op_norm(op - op.T)
        out[f"{name}_adjoint_g2"] = op_norm(g2_adjoint(op) - op)
    out["J1_adjoint_g2_plus_J1"] = op_norm(g2_adjoint(j1) + j1)
    out["J2_adjoint_g1_plus_J2"] = op_norm(j2 + j2.T)
    out["G_T_commutator"] = op_norm(commutator(big_g, big_t))
    out["G_plus_J1_T_J2"] = op_norm(big_g + j1 @ big_t @ j2)
    out["T_sq_minus_G_sq"] = op_norm(big_t @ big_t - big_g @ big_g)
    for name, w in (("poisson_bracket_omega1", j1), ("poisson_bracket_omega2", w2)):
        w_inv = np.linalg.inv(w)
        out[name] = 0.5 * op_norm(commutator(w_inv, big_g)) / op_norm(w_inv)
    g1, g = p.t1.g.m, p.metric_operator
    out["metric_transfer"] = op_norm(g1 @ g - p.t2.g.m) / op_norm(g1) / op_norm(g)
    return out


def decomposition_residuals(d):
    """Per-block residuals [g2, omega2, J2 checks] and, for each pair
    i < k, the g2-orthogonality residual of the real-form checks that
    ``decompose``'s n x n residuals replaced, in row-sum norms; g2 and omega2
    are measured against each complex coordinate's own |mu|, the block's
    slice of ``coordinate_lambda`` on its columns [C, D]."""
    p, blocks = d.pair, d.blocks
    j1, j2 = p.t1.j_w, p.j2_w
    g2, w2 = p.metric_operator_w, p.omega2_w
    per_block, at = [], 0
    for b in blocks:
        r = b.dim // 2
        lam = np.diag(np.tile(d.coordinate_lambda[at:at + r], 2))
        at += r
        c, sign = b.basis_w, b.sign
        per_block.append([
            op_norm(c.T @ g2 @ c - (c.T @ c) @ lam),
            op_norm(c.T @ w2 @ c - sign * (c.T @ j1 @ c) @ lam),
            op_norm(j2 @ c - sign * (j1 @ c)),
        ])
    cross = {}
    for i in range(len(blocks)):
        for k in range(i + 1, len(blocks)):
            cross[i, k] = op_norm(blocks[i].basis_w.T @ g2 @ blocks[k].basis_w)
    return np.array(per_block), cross


def coordinate_blocks(t1, g2_w, omega2_w, scale):
    """The Hermitian Z^H tau Z and anti-linear Z^T tau Z blocks of tau = I,
    J1, ``g2_w / scale`` and ``omega2_w / scale`` in J1's complex
    coordinates Z, by direct complex products: the pair's
    ``coordinate_blocks`` for ``scale`` its max |mu|."""
    z = t1.complex_coordinates[1]
    taus = np.stack((np.eye(t1.dim), t1.j_w, g2_w / scale, omega2_w / scale))
    return np.array([z.conj().T @ taus @ z, z.T @ taus @ z])


def with_omega2(p, omega2_w):
    """The pair ``p`` with omega2 in t1's frame replaced by ``omega2_w``,
    unjudged, and its coordinate blocks formed again; T_c's eigenpairs and
    the residual Y stay those of ``p``, so the frame is ``p``'s and only
    the frame certificate reads the change."""
    blocks = coordinate_blocks(p.t1, p.metric_operator_w, omega2_w, p.metric_eigenvalues[-1])
    return p.replace(omega2_w=omega2_w, coordinate_blocks=blocks)


def with_forms(p, g2_w, omega2_w):
    """The pair ``p`` with g2 and omega2 in t1's frame replaced by ``g2_w``
    and ``omega2_w``, unjudged, and T_c's eigenpairs, the coordinate blocks
    and the residual Y that ``decompose`` reads formed again from them, by
    direct complex products (:func:`coordinate_residuals`): a tampered pair
    for ``decompose``'s own check, which ``check_compatible`` might refuse
    first."""
    nu, z = p.t1.complex_coordinates
    root = np.sqrt(nu)
    k = z.conj().T @ omega2_w @ z / root[:, None] / root
    mu, v = np.linalg.eigh(0.5j * (k - k.conj().T))
    lam = np.abs(mu)
    tampered = p.replace(metric_operator_w=g2_w, omega2_w=omega2_w,
                         metric_eigenvalues=np.repeat(np.sort(lam), 2), mu=mu, v=v,
                         coordinate_blocks=coordinate_blocks(p.t1, g2_w, omega2_w, lam.max()))
    return tampered.replace(y=coordinate_residuals(tampered)[2])


def coordinate_residuals(p):
    """``(E, R, Y)`` of ``check_compatible`` on T_c's eigenvectors V, E and
    R over max |mu|, by direct complex products from the pair's Hermitian
    coordinate blocks H and K of g2 and omega2 (over max |mu|): E = V^H N H
    N V - L, R = V^H N K N V + i diag(mu) and Y = inv(L) (R + i E S), N =
    diag(nu^-1/2).  The pair keeps Y alone."""
    root = np.sqrt(p.t1.complex_coordinates[0])
    h, k = p.coordinate_blocks[0, 2:] / root[:, None] / root
    mu, v = p.mu, p.v
    lam = np.abs(mu)
    scale = lam.max()
    e = v.conj().T @ h @ v - np.diag(lam / scale)
    r = v.conj().T @ k @ v + np.diag(1j * mu / scale)
    return e, r, (r + 1j * e * np.where(mu < 0.0, -1, 1)) / (lam / scale)[:, None]


def block_coordinates(p):
    """Each block's columns of T_c's eigenvectors, in ``decompose``'s block
    order: |mu| chained at ``cluster_gap`` (a wider chain raises
    ``DecompositionError``), each chain split by sign, + first."""
    lam = np.abs(p.mu)
    ranked = np.argsort(lam, kind="stable")
    cols, at = [], 0
    for _, count in _chain_clusters(lam[ranked].tolist(), p.tol.cluster_gap):
        chain, at = ranked[at:at + count], at + count
        cols += [part for part in (chain[p.mu[chain] >= 0.0], chain[p.mu[chain] < 0.0])
                 if part.size]
    return cols


def coordinate_block_norms(p):
    """``(per_block, cross)``: the checks ``decompose`` retired, in J1's
    complex coordinates, each passing at ``rel``.  ``per_block[b]`` is
    [|E|_F, |R|_F] on block b's own coordinates (g2 proportional to g1,
    omega2 proportional to omega1), ``cross[i, k]`` |E|_F between the
    coordinates of blocks i < k (their g2-orthogonality), all over max |mu|
    (:func:`coordinate_residuals`, :func:`block_coordinates`)."""
    e, r, _ = coordinate_residuals(p)
    cols = block_coordinates(p)
    per_block = np.array([[np.linalg.norm(m[np.ix_(c, c)]) for m in (e, r)] for c in cols])
    cross = {(i, k): np.linalg.norm(e[np.ix_(cols[i], cols[k])])
             for i in range(len(cols)) for k in range(i + 1, len(cols))}
    return per_block, cross


def max_commutator_residual(mats):
    """Largest row-sum norm of the commutators of all pairs of directions."""
    worst = 0.0
    for i in range(len(mats)):
        for k in range(i + 1, len(mats)):
            worst = max(worst, op_norm(commutator(mats[i], mats[k])))
    return worst


def direction_residuals(mats, p):
    """Measured relative residuals of the unit directions in t1's
    g1-orthonormal frame, one direction at a time: ``preservation`` of g1,
    J1, G and omega2, ``commutator`` over all pairs, and ``drift``, the
    Duhamel bound 10 sqrt(m) (r_tau + r_g1) on the measured residuals r."""
    eye = np.eye(p.dim)
    pres, drift = 0.0, 0.0
    for a in mats:
        r_g1, r_j1 = (float(r) for r in preservation_residuals(a, eye, p.t1.j_w))
        r_g2, r_w2 = (float(r) for r in preservation_residuals(a, p.metric_operator_w,
                                                               p.omega2_w))
        pres = max(pres, r_g1, r_j1, r_g2, r_w2)
        drift = max(drift, 10.0 * math.sqrt(p.dim) * (max(r_j1, r_g2, r_w2) + r_g1))
    return {"preservation": pres, "commutator": max_commutator_residual(mats),
            "drift": drift}


def unit_directions(p):
    """The unit directions T^k J1 / |T^k J1|, k = 0 .. n-1, of the
    recursion family in t1's g1-orthonormal frame, each the product of T
    with the one before, divided by its row-sum norm: the powers that the
    certificate once stacked and measured."""
    dirs = [p.t1.j_w / op_norm(p.t1.j_w)]
    for _ in range(p.dim // 2 - 1):
        power = p.recursion_operator_w @ dirs[-1]
        dirs.append(power / op_norm(power))
    return dirs


def inclusion_residual(mats, d):
    """Largest |t - X|_F over the directions, t = s / |s|_F and X = sum_j
    <t, Z_j>_F / 2 Z_j for the coordinate elements Z_j = d_j c_j.T - c_j
    d_j.T of the adapted frame [C, D], each formed on its own."""
    q, n = d.frame_w, d.pair.dim // 2
    zs = [np.outer(q[:, n + j], q[:, j]) - np.outer(q[:, j], q[:, n + j]) for j in range(n)]
    worst = 0.0
    for s in mats:
        t = s / np.linalg.norm(s)
        x = sum(0.5 * np.vdot(t, z) * z for z in zs)
        worst = max(worst, float(np.linalg.norm(t - x)))
    return worst


def frame_departure(e, conversion, scale):
    """``2 conversion e (1 + e) scale / (1 - e)^2``, inf unless e < 1: the
    frame term of a row-sum certificate that bounds every element of a
    span (the package's certificates read backward errors in the spectral
    norm instead, and need no conversion).

    Lemma: for m x m Q with E = Q^H Q - I of row-sum norm |E| <= e < 1,
    a = Q P Q^H and b = Q R Q^H,

        |Q (P E R - R E P) Q^H| <= 2 sqrt(m) e (1 + e) |P|_2 |R|_2
                                <= 2 sqrt(m) e (1 + e) |a|_2 |b|_2 / (1 - e)^2,

    as |z| <= sqrt(m) |z|_2, |E|_2 <= |E| (E is Hermitian), |Q|_2^2 <= 1 + e
    and the singular values of Q are at least sqrt(1 - e).  The caller
    bounds sqrt(m) |a|_2 |b|_2 by ``conversion * scale`` times its own
    norms of a and b: |a|_2 <= |a| for a normal a, whose spectral radius is
    below every induced norm, and |a|_2 <= sqrt(m) |a| and |a|_2 <= |a|_F
    for every a.
    """
    if not e < 1.0:
        return math.inf
    return 2.0 * conversion * e * (1.0 + e) * scale / (1.0 - e) ** 2


def row_sum_frame_certificate(d):
    """The retired certificate of the adapted frame, ``(bound, e)`` in row
    sums, judged ``bound <= rel``: e = |Q.T Q - I| for Q = ``frame_w``, d
    the largest |tau - Q tau_c Q.T| / |tau| over tau = J1, G and omega2
    (canonical forms from ``coordinate_lambda`` and ``coordinate_sign``),
    and bound = 2 d + 2 m e (1 + e) (1 + d) / (1 - e)^2, a bound on the
    forward residual |tau A + A.T tau| / (|tau| |A|) of every A = Q K Q.T
    in the realified ``⊕ u(r)``.  One (6, m, m) stack and four m x m
    products; it counts J1's own departure twice and carries a factor m."""
    p, q = d.pair, d.frame_w
    n, m = p.dim // 2, p.dim
    lam = np.concatenate((d.coordinate_lambda,) * 2)
    res = np.empty((6, m, m))
    canon, res[3], res[4] = res[:3], p.metric_operator_w, p.omega2_w
    canon[0, :, :n], canon[0, :, n:] = q[:, n:], -q[:, :n]
    np.multiply(q, lam, out=canon[1])
    np.multiply(canon[0], np.concatenate((d.coordinate_sign,) * 2) * lam, out=canon[2])
    np.subtract((p.t1.j_w, *res[3:5]), canon @ q.T, out=res[:3])
    np.matmul(q.T, q, out=res[5])
    res[5].flat[::m + 1] -= 1.0
    norms = op_norms(res)
    dep = float((norms[:3] / (op_norm(p.t1.j_w), *norms[3:5])).max())
    e = float(norms[5])
    return 2.0 * dep + frame_departure(e, m, 1.0 + dep), e


def row_sum_recursion_values(d):
    """The retired recursion certificate's values, read off
    :func:`row_sum_frame_certificate`: ``preservation`` P = (bound + 2 f)
    / (1 - f) with f = sqrt(m) e / (1 - e), a bound on the forward
    residual of every span element in row sums, ``commutator`` bound / 2
    and ``drift`` 10 sqrt(m) (P + 2 f / (1 - f)); each was judged against
    ``rel`` but the drift."""
    bound, e = row_sum_frame_certificate(d)
    f = math.sqrt(d.pair.dim) * e / (1.0 - e) if e < 1.0 else math.inf
    pres, pres_g1 = ((bound + 2.0 * f) / (1.0 - f), 2.0 * f / (1.0 - f)) if f < 1.0 else (
        math.inf, math.inf)
    return {"preservation": pres, "commutator": bound / 2.0,
            "drift": 10.0 * math.sqrt(d.pair.dim) * (pres + pres_g1)}


def pair_backward_error(d):
    """The frame certificate's claim formed densely with ``inv(Q)``: the
    largest |tau - Q^-T tau_c Q^-1|_2 / |tau_c|_2 over tau = I, J1, G and
    omega2 in t1's frame, for Q = ``frame_w`` and the canonical forms
    tau_c = I, J_c, diag(lam, lam) and diag(s lam, s lam) J_c on [C, D]."""
    p, q, n = d.pair, d.frame_w, d.pair.dim // 2
    q_inv = np.linalg.inv(q)
    lam = np.tile(d.coordinate_lambda, 2)
    j_c = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    mu = np.tile(d.coordinate_sign, 2) * lam
    canon = (np.eye(p.dim), j_c, np.diag(lam), mu[:, None] * j_c)
    taus = (np.eye(p.dim), p.t1.j_w, p.metric_operator_w, p.omega2_w)
    scales = (1.0, 1.0, lam.max(), lam.max())
    return max(np.linalg.norm(tau - q_inv.T @ c @ q_inv, 2) / s
               for tau, c, s in zip(taus, canon, scales))


def telescoped_bounds(p, d):
    """Bounds on the measured ``preservation``, ``commutator`` and
    ``drift`` of the unit directions (:func:`direction_residuals`) and on
    their ``inclusion`` residual, read off the frame with no power formed
    (the certificate's bound before it read the generators instead), with
    beta and e from :func:`row_sum_frame_certificate`.

    With L the largest lambda, nu = ``coordinate_sign * coordinate_lambda``
    / L, R = T Q / L - Q diag(nu) and S = J1 Q - Q J_c, telescoping T^k Q /
    L^k = Q diag(nu)^k + sum_(i<k) (T / L)^i R diag(nu)^(k-1-i) puts every
    T^k J1 / L^k within delta = ((n - 1) |R|_2 + |S|_2) max(1, tau)^(n-1)
    / sqrt(1 - e) + e (1 + e) / (1 - e) of Q diag(nu)^k J_c Q.T in the
    spectral norm, tau = (sqrt(1 + e) + |R|_2) / sqrt(1 - e) bounding |T /
    L|_2 (Stewart & Sun, *Matrix Perturbation Theory*, 1990).  That span
    element is within e (1 + sqrt(1 + e)) of a normal matrix of norm 1, so
    with zeta = delta + e (1 + sqrt(1 + e)) each direction is within eps =
    sqrt(m) delta / (1 - sqrt(m) zeta) of the span in the row-sum and
    column-sum norms, its Frobenius direction within rho = sqrt(m) delta /
    (1 - zeta), and its span part has |Y|_2 <= y = (1 + e) / (1 - sqrt(m)
    zeta).  Then P = beta (1 + eps) + 2 eps bounds the preservation, the
    frame term of :func:`frame_departure` at sqrt(m) y^2 plus 4 eps + 6
    eps^2 the commutators, and 10 sqrt(m) (P + 2 eps) the drift; all inf
    where the bound cannot hold."""
    q, m, n = d.frame_w, p.dim, p.dim // 2
    beta, e = row_sum_frame_certificate(d)
    top = float(d.coordinate_lambda.max())
    nu = np.tile(d.coordinate_sign * d.coordinate_lambda, 2) / top
    r = np.linalg.norm((p.recursion_operator_w / top) @ q - q * nu, 2)
    s = np.linalg.norm(p.t1.j_w @ q - np.hstack((q[:, n:], -q[:, :n])), 2)
    root = math.sqrt(m)
    out = dict.fromkeys(("preservation", "commutator", "drift", "inclusion"), math.inf)
    if not e < 0.5:
        return out
    tau = (math.sqrt(1.0 + e) + r) / math.sqrt(1.0 - e)
    growth = math.exp(min((n - 1) * math.log(max(tau, 1.0)), 700.0))
    delta = ((n - 1) * r + s) * growth / math.sqrt(1.0 - e) + e * (1.0 + e) / (1.0 - e)
    zeta = delta + e * (1.0 + math.sqrt(1.0 + e))
    if not root * zeta < 1.0:
        return out
    eps = root * delta / (1.0 - root * zeta)
    y = (1.0 + e) / (1.0 - root * zeta)
    pres = beta * (1.0 + eps) + 2.0 * eps
    return {"preservation": pres,
            "commutator": frame_departure(e, root, y * y) + 4.0 * eps + 6.0 * eps ** 2,
            "drift": 10.0 * root * (pres + 2.0 * eps),
            "inclusion": root * delta / (1.0 - zeta)}


def generator_action_residual(d):
    """The retired action form of the generators' check, max(|R|, |S|) for
    R = T Q / L - Q diag(nu) and S = J1 Q - Q J_c, with Q = [C, D] the
    adapted frame, nu each coordinate's ``sign * lambda`` over the largest
    lambda L and J_c the canonical rotation, T solved from the pair and
    each residual read with ``op_norm``.  It was judged against ``rel``;
    it carries |Q| of about 0.8 sqrt(m), which the departure form
    (:func:`generator_backward_error`) does not."""
    p, q, n = d.pair, d.frame_w, d.pair.dim // 2
    top = float(d.coordinate_lambda.max())
    nu = np.tile(d.coordinate_sign * d.coordinate_lambda, 2) / top
    t = np.linalg.solve(p.t1.j_w, p.omega2_w)
    return max(op_norm((t / top) @ q - q * nu),
               op_norm(p.t1.j_w @ q - np.hstack((q[:, n:], -q[:, :n]))))


def generator_backward_error(d):
    """The departure form of the generators' backward error, formed
    densely with ``inv(Q)``: max |tau - Q tau_c inv(Q)| / |tau| over tau =
    J1 and omega2, with tau_c = J_c and diag(sign * lambda) J_c on [C, D].
    The pair (Q J_c inv(Q), Q omega2_c inv(Q)) has its recursion family
    exactly in the span of the coordinate elements."""
    p, q, n = d.pair, d.frame_w, d.pair.dim // 2
    q_inv = np.linalg.inv(q)
    q_rot = np.hstack((q[:, n:], -q[:, :n]))  # Q J_c
    mu = np.tile(d.coordinate_sign * d.coordinate_lambda, 2)
    return max(op_norm(p.t1.j_w - q_rot @ q_inv) / op_norm(p.t1.j_w),
               op_norm(p.omega2_w - (q_rot * mu) @ q_inv) / op_norm(p.omega2_w))


def in_t1_frame(q):
    """The pair rebuilt in its own t1's g1-orthonormal frame, where g1 is
    I and the row-sum drift the certificate bounds is the one the probe
    measures."""
    p = check_compatible(check_admissible(np.eye(q.dim), q.t1.j_w),
                         check_admissible(q.metric_operator_w, q.omega2_w))
    assert np.array_equal(p.t1.g.frame, np.eye(p.dim))
    return p


def probed_drift(p, times):
    """Largest drift the sampled probe measures over the unit directions of
    ``p``, which must be given in its own t1's frame (:func:`in_t1_frame`)."""
    return max(conservation_probe(LinearField(d), p, times).max_drift
               for d in unit_directions(p))


def pencil_verdicts(d, gamma):
    """(jsq_coefficient, residual, admissible) of the pencil member at
    ``gamma`` restricted to each block, one solve per block."""
    p, tol = d.pair, d.tol
    g_w = np.eye(p.dim) + gamma * p.metric_operator_w
    w_w = p.t1.j_w + gamma * p.omega2_w
    out = []
    for block in d.blocks:
        b = block.basis_w
        jb = np.linalg.solve(b.T @ g_w @ b, b.T @ w_w @ b)
        jb2 = jb @ jb
        coeff = float(np.trace(jb2) / block.dim)
        resid = op_norm(jb2 - coeff * np.eye(block.dim))
        admissible = op_norm(jb2 + np.eye(block.dim)) <= threshold(tol, jb, jb)
        out.append((coeff, resid, admissible))
    return out


def commutation_residual(elements, against):
    """Largest ``|[a, x]| / (|a| |x|)`` over every element x and every
    matrix a in ``against``."""
    worst = 0.0
    for a in against:
        comm = a @ elements - elements @ a
        worst = max(worst, float((op_norms(comm) / (op_norm(a) * op_norms(elements))).max()))
    return worst


def operator_space_residuals(op):
    """The element-wise checks of the commutant and the bicommutant, in the
    original coordinates: commutant elements against F (allowance
    ``cluster_gap``), bicommutant elements against F and against every
    commutant element (allowance ``rel``)."""
    comm, bicomm = op.commutant_basis, bicommutant_basis(op)
    return {"commutant_vs_operator": commutation_residual(comm, [op.matrix]),
            "bicommutant_vs_operator": commutation_residual(bicomm, [op.matrix]),
            "bicommutant_vs_commutant": commutation_residual(bicomm, comm)}


def algebra_preservation_residual(alg, p):
    """Largest relative residual of the invariance of g1, omega1, g2 and
    omega2 over the algebra's basis elements, in t1's g1-orthonormal frame."""
    mats_w = p.t1.g.frame_inv @ np.array(alg.basis) @ p.t1.g.frame
    residuals = (preservation_residuals(mats_w, np.eye(p.dim), p.t1.j_w)
                 + preservation_residuals(mats_w, p.metric_operator_w, p.omega2_w))
    return float(max(r.max() for r in residuals))


def hermitian_frame(h, tol=DEFAULT_TOL):
    """The retired factoring of a Hermitian form: one complex ``eigh`` of
    ``h`` into an h-orthonormal frame W and inv(W), positive-definite by the
    threshold rule (``hermitian_positive_definite``).  ``HermitianForm`` now
    factors its realified metric instead, judged by
    ``metric_positive_definite``."""
    return whitening(h, tol, "hermitian form", "hermitian_positive_definite")


class OracleTransferOperator(Record):
    """The transfer operator as ``transfer_operator`` once built it from two
    forms: F, the forms' matrices, its spectral data from one ``eigh``, the
    tolerance and ``matrix_w`` = F in the first form's frame, which the
    eigenvalues diagonalize.  Its cluster sizes are read on first use, after
    the spectral data pass :func:`certify_spectrum`, so data replaced after
    construction are judged too.  The package's ``commutant_dim``,
    ``bicommutant_dim`` and ``is_generic_operator`` read it like a
    ``TransferOperator``."""

    matrix: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    tol: Tolerance
    matrix_w: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[0]

    @cached_property
    def cluster_sizes(self):
        return certify_spectrum(self)


def certify_spectrum(op):
    """Certify the spectral frame in h1's frame W; return the cluster sizes.

    With U = inv(W) V, e = |U^H U - I|, C the cluster midpoints of the
    eigenvalues Λ, |.| the row-sum norm and
    eta = 2 n^1.5 e (1 + e) / (1 - e)^2 * max(1, max Λ / |F_w|), it checks
    eta <= rel (``transfer_unitary``), 2 |F_w - U Λ U^H| / |F_w| + eta <=
    rel (``transfer_eigenpairs``), that the eigenvalues chain into clusters
    no wider than cluster_gap by ``decompose``'s width rule (a
    ``DecompositionError`` if not), and 2 |F_w - U C U^H| / |F_w| + eta <=
    cluster_gap (``transfer_cluster_spread``).

    Implication: the commutant is {x = U M U^H}, M block-diagonal by
    cluster, and the bicommutant {y = U S U^H}, S constant per cluster.
    With E = U^H U - I,

        [F_w, x] = [F_w - U C U^H, x] + U (C E M - M E C) U^H,
        [F_w, y] = [F_w - U Λ U^H, y] + U (Λ E S - S E Λ) U^H,
        [y, x]   = U (S E M - M E S) U^H,

    each last term the frame term of :func:`frame_departure` with U for
    Q, so every element of the spans passes |[F_w, x]| <= cluster_gap |F_w|
    |x|, |[F_w, y]| <= rel |F_w| |y| and |[y, x]| <= rel |y| |x|.
    """
    tol, n = op.tol, op.dim
    f_w = op.matrix_w
    u = hermitian_frame(op.h1, tol)[1] @ op.eigenvectors
    uh, lam = u.conj().T, op.eigenvalues
    sizes = tuple(m for _, m in _chain_clusters(lam, tol.cluster_gap))
    ends = np.cumsum([0, *sizes])
    mid = np.repeat(0.5 * (lam[ends[:-1]] + lam[ends[1:] - 1]), sizes)
    e, f_norm, pairs, clusters = op_norms([uh @ u - np.eye(n), f_w, f_w - (u * lam) @ uh,
                                           f_w - (u * mid) @ uh]).tolist()
    eta = frame_departure(e, n ** 1.5, max(1.0, float(lam[-1]) / f_norm))
    for check, what, value, bound in (
        ("unitary", "eigenvectors are not unitary", eta, tol.rel),
        ("eigenpairs", "eigenpairs do not reproduce it", 2.0 * pairs / f_norm + eta, tol.rel),
        ("cluster_spread", "eigenvalue clusters do not reproduce it within the cluster gap",
         2.0 * clusters / f_norm + eta, tol.cluster_gap),
    ):
        if not value <= bound:
            raise StructureError(f"transfer operator: {what} (residual {value:.3e})",
                                 check=f"transfer_{check}", residual=value)
    return sizes


def transfer_operator_oracle(h1, h2, tol=DEFAULT_TOL):
    """F = inv(H1) @ H2 of two forms by one ``eigh`` of the Hermitian
    ``F_w = W^H @ H2 @ W`` in the first form's frame W, with the checks
    that route made: ``F_w`` Hermitian (``transfer_self_adjoint``), its
    spectrum positive (``transfer_positive``) and ``H1 @ F = H2``
    (``transfer_identity``), each at its old threshold; the spectral frame
    is certified on first use of the cluster sizes."""
    if not isinstance(h1, HermitianForm):
        h1 = HermitianForm(h1, tol)
    if not isinstance(h2, HermitianForm):
        h2 = HermitianForm(h2, tol)
    frame, frame_inv = hermitian_frame(h1.h, tol)
    f_w = symmetric_part(frame.conj().T @ h2.h @ frame, tol,
                         "transfer operator in the first form's frame", "transfer_self_adjoint",
                         dtype=np.complex128)
    evals, vecs = np.linalg.eigh(f_w)
    if evals[0] <= 0:
        raise StructureError(
            f"transfer operator spectrum is not positive (min {evals[0]:.3e})",
            check="transfer_positive", residual=float(evals[0]),
        )
    f = frame @ f_w @ frame_inv
    resid, n_h1, n_f = op_norms([h1.h @ f - h2.h, h1.h, f]).tolist()
    if not resid <= tol.threshold(n_h1, n_f):
        raise StructureError(
            f"transfer identity H1 @ F = H2 fails (residual {resid:.3e})",
            check="transfer_identity", residual=resid,
        )
    return OracleTransferOperator(frozen(f), h1.h, h2.h, frozen(evals), frozen(frame @ vecs),
                                  tol, frozen(f_w))
