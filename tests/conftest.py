import numpy as np
import pytest

from biham import check_admissible, check_compatible, synthesize_pair
from biham.decomposition import _haar_unitary, _realify

S_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])


def standard_triple(n: int):
    """Admissible triple with g = I and the standard symplectic blocks."""
    triple = check_admissible(np.eye(2 * n), np.kron(np.eye(n), S_BLOCK))
    assert not isinstance(triple, tuple)
    return triple


def diag_triple(rho1: float, rho2: float, sign: float = 1.0):
    """The 2-dimensional triple with g = diag(rho1, rho2) and the unique
    admissible symplectic form (up to sign)."""
    root = sign * np.sqrt(rho1 * rho2)
    return check_admissible(np.diag([rho1, rho2]),
                            [[0.0, root], [-root, 0.0]])


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def random_symplectic_form(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random nondegenerate antisymmetric matrix of even size n."""
    while True:
        a = rng.standard_normal((n, n))
        w = a - a.T
        if np.linalg.svd(w, compute_uv=False)[-1] > 1e-3:
            return w


def generic_spec(n: int) -> list:
    """``synthesize_pair`` spec of n complex dimensions, lambda_k =
    0.5 + 0.75 k with alternating signs: one block per dimension."""
    return [(0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(n)]


def whitened(op, pair):
    """An operator of the pair's original coordinates in t1's g1-orthonormal
    frame."""
    return pair.t1.g.frame_inv @ op @ pair.t1.g.frame


def conditioned_basis(dim: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Random change of basis P with condition number ``cond``: two random
    orthogonal factors around log-spaced singular values."""
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q1 @ np.diag(np.logspace(0.0, np.log10(cond), dim)) @ q2


def congruent(pair, p, c1: float = 1.0, c2: float = 1.0) -> dict:
    """Input document of the pair after the congruence c_i * P.T @ (g_i,
    omega_i) @ P: the same pair in another basis, each triple rescaled."""
    tensors = {"g1": (c1, pair.t1.g.m), "omega1": (c1, pair.t1.omega.m),
               "g2": (c2, pair.t2.g.m), "omega2": (c2, pair.t2.omega.m)}
    doc = {name: c * (p.T @ m @ p) for name, (c, m) in tensors.items()}
    return {"dim": pair.dim, **doc}


def j_invariant_basis(n: int, cond: float, seed: int) -> np.ndarray:
    """Change of basis B on R^2n of condition number ``cond`` that commutes
    with S = kron(I_n, S_BLOCK): the real image of U1 @ diag(logspace(0,
    log10 cond, n)) @ U2 for Haar unitaries U1 then U2 drawn from
    ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    u1 = _haar_unitary(n, rng)
    u2 = _haar_unitary(n, rng)
    return _realify(u1 @ np.diag(np.logspace(0.0, np.log10(cond), n)) @ u2)


def j_invariant_tensors(n: int, cond: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Metric and form on R^2n whose complex structure is exactly S, with
    cond(g) = cond^2: B = :func:`j_invariant_basis` commutes with S, so g =
    B.T @ B and omega = B.T @ S @ B (symmetrized and antisymmetrized) have
    inv(g) @ omega = inv(B) @ S @ B = S."""
    b = j_invariant_basis(n, cond, seed)
    g, w = b.T @ b, b.T @ np.kron(np.eye(n), S_BLOCK) @ b
    return 0.5 * (g + g.T), 0.5 * (w - w.T)


def spectrum_document(lam, sign, seed: int) -> dict:
    """Input document of a pair with one complex dimension per (lambda,
    sign) entry, in canonical coordinates, then moved by the real image of
    a Haar unitary drawn from ``default_rng(seed)``."""
    lam, sign = np.asarray(lam, dtype=float), np.asarray(sign, dtype=float)
    n = len(lam)
    q = _realify(_haar_unitary(n, np.random.default_rng(seed)))
    tensors = {"g1": np.eye(2 * n), "omega1": np.kron(np.eye(n), S_BLOCK),
               "g2": np.kron(np.diag(lam), np.eye(2)),
               "omega2": np.kron(np.diag(sign * lam), S_BLOCK)}
    return {"dim": 2 * n, **{name: q.T @ m @ q for name, m in tensors.items()}}


def same_sign_chain_document(seed: int, lam4: float = 1000.0) -> dict:
    """Input document of a dim-8 pair, one complex dimension per (lambda,
    sign): lambda = 1, 1 + 0.9e-7, 1 + 1.8e-7 with signs +, -, + chain in
    steps within the default gap into one cluster of spread 1.8e-7, wider
    than the gap, beside lambda = ``lam4`` (+) (:func:`spectrum_document`)."""
    return spectrum_document([1.0, 1.0 + 0.9e-7, 1.0 + 1.8e-7, lam4],
                             [1.0, -1.0, 1.0, 1.0], seed)


def within_gap_chain_document(seed: int) -> dict:
    """Input document of a dim-8 pair: lambda = 1, 1 + 0.45e-7, 1 + 0.9e-7
    with signs +, -, + form one cluster of spread 0.9e-7, within the
    default gap, beside lambda = 3 (+) (:func:`spectrum_document`)."""
    return spectrum_document([1.0, 1.0 + 0.45e-7, 1.0 + 0.9e-7, 3.0],
                             [1.0, -1.0, 1.0, 1.0], seed)


def conditioned_pair(spec, cond_basis: float, seed: int):
    """The synthesized pair of ``spec`` after a random congruence of
    condition number ``cond_basis``: its first metric has condition number
    cond_basis^2."""
    pair = synthesize_pair(spec, seed=seed)
    doc = congruent(pair, conditioned_basis(pair.dim, cond_basis, np.random.default_rng(seed)))
    return check_compatible(check_admissible(doc["g1"], doc["omega1"]),
                            check_admissible(doc["g2"], doc["omega2"]))


@pytest.fixture
def ref2d_pair():
    """Compatible diagonal pair: metric ratios 4 = 4, eigenvalue 2."""
    t1 = diag_triple(1.0, 4.0)
    t2 = diag_triple(2.0, 8.0)
    pair = check_compatible(t1, t2)
    assert pair
    return pair


@pytest.fixture
def incompatible_triples():
    """Diagonal triples with metric ratios 4 vs 3: not compatible."""
    return diag_triple(1.0, 4.0), diag_triple(2.0, 6.0)


@pytest.fixture
def ref4d_pair():
    """Two-block reference pair: (lambda=2, +) and (lambda=3, -)."""
    g1 = np.eye(4)
    w1 = np.kron(np.eye(2), S_BLOCK)
    g2 = np.diag([2.0, 2.0, 3.0, 3.0])
    w2 = np.kron(np.diag([2.0, -3.0]), S_BLOCK)
    t1 = check_admissible(g1, w1)
    t2 = check_admissible(g2, w2)
    pair = check_compatible(t1, t2)
    assert pair
    return pair
