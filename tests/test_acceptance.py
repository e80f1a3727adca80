"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them while the suite runs).
"""

import functools
import json
import math

import numpy as np

from biham import (
    HermitianForm,
    bi_preserving_algebra,
    bicommutant_dim,
    biunitary_sample,
    certify_recursion,
    check_admissible,
    check_compatible,
    cluster_eigenvalues,
    commutant_dim,
    commutator,
    complexify,
    conservation_probe,
    decompose,
    flow,
    group_signature,
    is_generic_operator,
    norm_bounds,
    pencil_member,
    phase_group,
    polar_admissible,
    positivity_range,
    recursion_basis,
    synthesize_pair,
    transfer_operator,
)
from biham.cli import main
from biham.linalg import op_norm
from biham.structures import AdmissibleTriple, LinearField, ViolationReport
from conftest import S_BLOCK, diag_triple

from test_cli import FIXTURES


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE FAIL [{num}] {description}")
                raise
            print(f"ACCEPTANCE PASS [{num}] {description}")
            return result
        return wrapper
    return deco


def reference_4d_pair():
    t1 = check_admissible(np.eye(4), np.kron(np.eye(2), S_BLOCK))
    t2 = check_admissible(np.diag([2.0, 2.0, 3.0, 3.0]),
                          np.kron(np.diag([2.0, -3.0]), S_BLOCK))
    return check_compatible(t1, t2)


def random_block_specs(rng, n):
    """Random (eigenvalue, sign, multiplicity) data with total rank n,
    eigenvalues well separated within each sign class."""
    specs = []
    remaining = n
    grid = iter(0.5 * (1 + np.arange(64))[rng.permutation(64)])
    while remaining > 0:
        mult = int(rng.integers(1, min(3, remaining) + 1))
        specs.append((float(next(grid)), int(rng.choice([-1, 1])), mult))
        remaining -= mult
    return specs


@criterion(1, "2-dimensional worked example reproduced")
def test_criterion_1_two_dimensional_example():
    rng = np.random.default_rng(101)
    for _ in range(100):
        rho1, rho2 = rng.uniform(0.2, 5.0, size=2)
        root = math.sqrt(rho1 * rho2)
        j_closed = np.array([[0.0, math.sqrt(rho2 / rho1)],
                             [-math.sqrt(rho1 / rho2), 0.0]])
        omega_closed = np.array([[0.0, root], [-root, 0.0]])

        # route 1: the closed-form symplectic partner is admissible and
        # produces exactly the closed-form complex structure
        t1 = check_admissible(np.diag([rho1, rho2]), omega_closed)
        assert isinstance(t1, AdmissibleTriple)
        assert op_norm(t1.j - j_closed) <= 1e-12

        # route 2: the polar construction from the unscaled standard form
        # finds the same complex structure independently
        t_polar = polar_admissible(np.diag([rho1, rho2]), S_BLOCK)
        assert op_norm(t_polar.j - j_closed) <= 1e-12

        # any other scaling of the form is rejected
        bad = check_admissible(np.diag([rho1, rho2]), 1.7 * omega_closed)
        assert isinstance(bad, ViolationReport)

        # compatibility holds exactly for equal metric ratios
        scale = rng.uniform(0.3, 3.0)
        sigma1, sigma2 = scale * rho1, scale * rho2
        t2 = diag_triple(sigma1, sigma2)
        assert check_compatible(t1, t2)

        skew = rng.uniform(1.05, 2.0)
        t2_bad = diag_triple(sigma1, sigma2 * skew)
        assert isinstance(check_compatible(t1, t2_bad), ViolationReport)

        # the invariance group matches its closed form
        for time in rng.uniform(-7.0, 7.0, size=3):
            closed = math.cos(time) * np.eye(2) + math.sin(time) * j_closed
            assert op_norm(phase_group(t1, time) - closed) <= 1e-12
            assert op_norm(flow(LinearField(t1.j), time) - closed) <= 1e-12


@criterion(2, "block decomposition round trip across dims 2..32")
def test_criterion_2_decomposition_round_trip():
    rng = np.random.default_rng(202)
    dims = [2] * 30 + [4] * 25 + [8] * 20 + [16] * 15 + [32] * 10
    assert len(dims) == 100
    for case, dim in enumerate(dims):
        n = dim // 2
        specs = random_block_specs(rng, n)
        pair = synthesize_pair(specs, seed=300 + case)
        dec = decompose(pair)

        recovered = sorted((round(b.eigenvalue, 6), b.sign, b.dim // 2)
                           for b in dec.blocks)
        expected = sorted((round(lam, 6), sign, mult) for lam, sign, mult in specs)
        assert [(s, m) for _, s, m in recovered] == [(s, m) for _, s, m in expected]
        for (lam_rec, _, _), (lam_exp, _, _) in zip(recovered, expected):
            assert abs(lam_rec - lam_exp) <= 1e-8 * lam_exp

        g1, w1 = pair.t1.g.m, pair.t1.omega.m
        g2, w2 = pair.t2.g.m, pair.t2.omega.m
        blocks = dec.blocks
        for i in range(len(blocks)):
            for k in range(i + 1, len(blocks)):
                for g in (g1, g2):
                    assert op_norm(blocks[i].basis.T @ g @ blocks[k].basis) <= 1e-9
        for b in blocks:
            c, lam, sign = b.basis, b.eigenvalue, b.sign
            assert op_norm(c.T @ g2 @ c - lam * (c.T @ g1 @ c)) <= 1e-9 * op_norm(g2)
            assert op_norm(c.T @ w2 @ c - sign * lam * (c.T @ w1 @ c)) <= 1e-9 * op_norm(w2)
            assert op_norm(pair.t2.j @ c - sign * (pair.t1.j @ c)) <= 1e-9


@criterion(3, "bi-preserving algebra dimension and recursion torus")
def test_criterion_3_group_theory_consistency():
    rng = np.random.default_rng(303)
    cases = [2] * 6 + [4] * 6 + [8] * 6 + [16] * 4 + [32] * 2
    for case, dim in enumerate(cases):
        n = dim // 2
        generic = case % 2 == 0
        if generic:
            specs = [(0.5 + 0.75 * k, int(rng.choice([-1, 1])), 1) for k in range(n)]
        else:
            specs = random_block_specs(rng, n)
        pair = synthesize_pair(specs, seed=500 + case)
        sig = group_signature(decompose(pair))
        alg = bi_preserving_algebra(decompose(pair))
        assert alg.dim == sum(r * r for r in sig.multiplicities)

        if all(r == 1 for r in sig.multiplicities):
            assert alg.dim == n
            cert = certify_recursion(recursion_basis(pair), decompose(pair))
            assert cert.rank == n
            assert cert.max_commutator_residual <= 1e-10
            # the torus sits inside the algebra: projection residuals vanish
            for f in recursion_basis(pair).fields:
                v = f.matrix.ravel()
                v = v / np.linalg.norm(v)
                proj = np.zeros_like(v)
                for b in alg.basis:
                    bv = b.ravel()
                    proj = proj + (bv @ v) * bv
                assert np.linalg.norm(v - proj) <= 1e-9


@criterion(4, "recursion rank degeneration and Nijenhuis identity")
def test_criterion_4_recursion_degeneration():
    for n in (2, 4, 8):
        for k in (1, 2, 3):
            if k > n:
                continue
            # k block classes with distinct signed eigenvalues, ranks
            # splitting n as evenly as possible
            base = [n // k + (1 if i < n % k else 0) for i in range(k)]
            specs = [(1.0 + i, 1 if i % 2 == 0 else -1, r)
                     for i, r in enumerate(base)]
            pair = synthesize_pair(specs, seed=40 + 10 * n + k)
            cert = certify_recursion(recursion_basis(pair), decompose(pair))
            assert cert.distinct_t_eigenvalues == k
            assert cert.rank == k
            assert cert.vandermonde_consistent

    rng = np.random.default_rng(404)
    for _ in range(50):
        m = int(rng.integers(2, 9))
        t = rng.standard_normal((m, m))
        a = rng.standard_normal((m, m))
        resid = op_norm(commutator(t @ a, t) - t @ commutator(a, t))
        assert resid <= 1e-12


def _operator_with_spectrum(evals, rng):
    n = len(evals)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h1 = z @ z.conj().T + n * np.eye(n)
    l = np.linalg.cholesky(h1)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v = np.linalg.solve(l.conj().T, q)
    f = v @ np.diag(evals) @ np.linalg.inv(v)
    h2 = h1 @ f
    return transfer_operator(HermitianForm(h1), HermitianForm(0.5 * (h2 + h2.conj().T)))


@criterion(5, "transfer-operator commutant suite")
def test_criterion_5_operator_suite():
    rng = np.random.default_rng(505)

    # commutant arithmetic over 100 random Hermitian pairs
    sizes = [2] * 25 + [3] * 20 + [4] * 20 + [6] * 15 + [8] * 10 + [12] * 6 + [16] * 4
    assert len(sizes) == 100
    for n in sizes:
        parts = []
        remaining = n
        while remaining > 0:
            part = int(rng.integers(1, min(3, remaining) + 1))
            parts.append(part)
            remaining -= part
        evals = np.repeat(1.0 + np.arange(len(parts)), parts)
        op = _operator_with_spectrum(evals, rng)
        assert commutant_dim(op) == sum(p * p for p in parts)
        assert bicommutant_dim(op) == len(parts)
        assert is_generic_operator(op) == all(p == 1 for p in parts)
        clusters = cluster_eigenvalues(op.eigenvalues, 1e-7)
        assert is_generic_operator(op) == all(m == 1 for _, m in clusters)

        a, b = norm_bounds(op)
        lam_max = float(op.eigenvalues[-1])
        assert 1.0 / b**2 <= lam_max * (1 + 1e-12)
        assert lam_max <= (1.0 / a**2) * (1 + 1e-12)

    # complexification agrees with the real block decomposition
    for case in range(20):
        n = int(rng.integers(1, 9))
        pair = synthesize_pair(random_block_specs(rng, n), seed=700 + case)
        h1, h2, _ = complexify(decompose(pair))
        op = transfer_operator(h1, h2)
        expected = sorted(b.eigenvalue for b in decompose(pair).blocks
                          for _ in range(b.dim // 2))
        assert np.max(np.abs(op.eigenvalues - np.array(expected))) <= 1e-9

    # bi-unitary samples preserve both forms
    for _ in range(20):
        n = int(rng.integers(2, 9))
        evals = 0.5 + rng.uniform(0.0, 4.0, size=n)
        op = _operator_with_spectrum(np.sort(evals), rng)
        u = biunitary_sample(op, rng.standard_normal(4), float(rng.uniform(-3, 3)))
        for h in (op.h1, op.h2):
            assert op_norm(u.conj().T @ h @ u - h) <= 1e-10 * op_norm(h)

    # norm equivalence on 1000 random unit vectors
    op = _operator_with_spectrum(np.array([0.5, 1.0, 2.5, 4.0, 7.0]), rng)
    a, b = norm_bounds(op)
    for _ in range(1000):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x = x / np.linalg.norm(x)
        n1 = math.sqrt(float(np.real(np.conj(x) @ op.h1 @ x)))
        n2 = math.sqrt(float(np.real(np.conj(x) @ op.h2 @ x)))
        assert a * n2 - n1 <= 1e-12
        assert n1 - b * n2 <= 1e-12


@criterion(6, "flows of the bi-preserving algebra conserve all four tensors")
def test_criterion_6_conservation():
    times = tuple(0.1 * k for k in range(1, 101))  # covers (0, 10]
    pairs = [
        check_compatible(diag_triple(1.0, 4.0), diag_triple(2.0, 8.0)),
        reference_4d_pair(),
        synthesize_pair([(2.0, 1, 2)], seed=61),
        synthesize_pair([(1.5, 1, 2), (3.0, -1, 1)], seed=62),
        synthesize_pair([(0.5, 1, 1), (1.0, -1, 1), (2.0, 1, 1), (4.0, -1, 1)], seed=63),
    ]
    for pair in pairs:
        for element in bi_preserving_algebra(decompose(pair)).basis:
            report = conservation_probe(LinearField(element), pair, times)
            assert report.max_drift <= 1e-9


@criterion(7, "pencil obstruction on the two-block reference pair")
def test_criterion_7_pencil():
    pair = reference_4d_pair()
    lo, hi = positivity_range(pair)
    assert abs(lo - (-1.0 / 3.0)) <= 1e-12
    assert hi == math.inf

    member = pencil_member(decompose(pair), 1.0)
    assert not member.admissible
    first, second = member.blocks
    assert first.sign == 1 and first.admissible
    assert abs(first.jsq_coefficient + 1.0) <= 1e-12
    assert second.sign == -1 and not second.admissible
    assert abs(second.jsq_coefficient + 0.25) <= 1e-12
    assert second.residual <= 1e-12


@criterion(8, "CLI determinism and exit-code contract")
def test_criterion_8_cli_determinism(capsys):
    def run(*argv):
        code = main([str(a) for a in argv])
        out = capsys.readouterr().out
        return code, out

    expected_codes = {
        "compatible_2d.json": 0,
        "incompatible_2d.json": 1,
        "malformed_dim3.json": 2,
    }
    for fixture, expected in expected_codes.items():
        code1, out1 = run("check", FIXTURES / fixture)
        code2, out2 = run("check", FIXTURES / fixture)
        assert code1 == code2 == expected
        assert out1 == out2

    for argv in (("decompose", FIXTURES / "reference_4d.json"),
                 ("recursion", FIXTURES / "reference_4d.json"),
                 ("pencil", FIXTURES / "reference_4d.json", "--gamma", "1.0"),
                 ("commutant", FIXTURES / "reference_4d.json")):
        code1, out1 = run(*argv)
        code2, out2 = run(*argv)
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)  # well-formed
