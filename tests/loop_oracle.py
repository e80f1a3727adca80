"""Per-check, per-block, per-pair and per-element verification loops, kept
as a test oracle.

The package verifies the block decomposition and the pencil's per-block
verdicts from stacked products, one set per stage, and certifies the
bi-preserving algebra, the recursion family, the commutant and the
bicommutant from the frames they are built from.  These are the checks
they replaced: one small dense product per block, per pair of blocks or
directions, or per basis element, each read with ``op_norm``.  The
admissibility and compatibility checks take the norms of each check group
in one reduction and carry the factor norms; here each residual and each
factor of each threshold gets its own ``op_norm``.  The relations those
checks imply and no longer judge are kept here too, each with the
threshold it was judged against.
"""

import math

import numpy as np

from biham.commutant import bicommutant_basis
from biham.compatibility import check_compatible
from biham.dynamics import conservation_probe, recursion_basis
from biham.linalg import commutator, op_norm, op_norms
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


def admissibility_violations(g, omega, tol):
    """``{check: residual}`` of every check ``check_admissible`` fails, in
    its order, one norm per residual and per factor; ``{}`` for an
    admissible triple.  The metric and the form are validated by the
    package."""
    jw = _j_in_frame(g, omega, tol)
    eye = np.eye(len(jw))
    with np.errstate(over="ignore", invalid="ignore"):
        checks = (
            ("J_squared_plus_identity", op_norm(jw @ jw + eye), threshold(tol, jw, jw)),
            ("J_metric_invariance", op_norm(jw.T @ jw - eye), threshold(tol, jw, jw)),
            ("J_metric_skewness", op_norm(jw + jw.T), threshold(tol, jw)),
        )
    return {name: resid for name, resid, thr in checks if not resid <= thr}


def symplectic_invariance_violation(g, omega, tol):
    """``{"J_symplectic_invariance": residual}`` where J.T @ omega @ J =
    omega, which ``check_admissible`` no longer judges, fails the threshold
    it was judged against, else ``{}``: in the g-orthonormal frame it reads
    ``(J.T @ J - I) @ J``, within the metric invariance's threshold times
    |J|."""
    jw = _j_in_frame(g, omega, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = op_norm(jw.T @ jw @ jw - jw)
        thr = threshold(tol, jw, jw, jw)
    return {} if resid <= thr else {"J_symplectic_invariance": resid}


def _j_in_frame(g, omega, tol):
    """J of the metric and the form in the metric's orthonormal frame."""
    metric, symp = MetricTensor(g, tol), SymplecticForm(omega, tol)
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
    """``(certificates, violations)`` of ``check_compatible``, key order
    included, one norm per residual and per factor: the certificates of a
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
    i < k, the g2-orthogonality residual of ``decompose``; g2 and omega2
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
               for d in recursion_basis(p).directions_w)


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
