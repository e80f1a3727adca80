"""Fuzz target for the CLI: random, asymmetric, near-singular and
1e+-300-scaled documents, some with one matrix entry that is no JSON float,
must end in exit code 0, 1 or 2, never in an uncaught exception (a
traceback) or a floating-point warning."""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biham.cli import main
from biham.decomposition import synthesize_pair

S_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])
COMMANDS = (("check",), ("decompose",), ("recursion",), ("commutant",),
            ("pencil", "--gamma", "0.5"), ("pencil", "--gamma", "-3"))


@st.composite
def matrices(draw, n: int):
    """One n x n matrix: random, symmetric, antisymmetric, near-singular or
    the canonical tensor, then scaled by a power of ten up to 1e+-300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "symmetric", "antisymmetric",
                                 "near_singular", "identity", "standard")))
    a = rng.standard_normal((n, n))
    if kind == "symmetric":
        a = a @ a.T
    elif kind == "antisymmetric":
        a = a - a.T
    elif kind == "near_singular":
        a[:, -1] = a[:, 0] * (1.0 + 1e-15)
        a = a @ a.T
    elif kind == "identity":
        a = np.eye(n)
    elif kind == "standard":
        a = np.kron(np.eye(n // 2), S_BLOCK)
    return a * 10.0 ** draw(st.sampled_from((-300, -160, -20, -8, 0, 8, 20, 160, 300)))


@st.composite
def documents(draw):
    if draw(st.booleans()):
        # a valid pair, each tensor scaled on its own
        spec = draw(st.sampled_from(([(2.0, 1, 1)], [(2.0, 1, 1), (3.0, -1, 1)],
                                     [(1.5, 1, 2), (4.0, -1, 1)])))
        pair = synthesize_pair(spec, seed=draw(st.integers(0, 100)))
        tensors = (pair.t1.g.m, pair.t1.omega.m, pair.t2.g.m, pair.t2.omega.m)
        scales = [10.0 ** draw(st.sampled_from((-300, -20, -8, 0, 8, 20, 300)))
                  for _ in tensors]
        mats = [c * m for c, m in zip(scales, tensors)]
        n = pair.dim
    else:
        n = draw(st.sampled_from((2, 4, 6)))
        mats = [draw(matrices(n)) for _ in range(4)]
    doc = {"dim": n, "g1": mats[0], "omega1": mats[1]}
    if draw(st.booleans()):
        doc.update(g2=mats[2], omega2=mats[3])
    doc = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    if draw(st.integers(0, 3)) == 0:
        # one entry that is no JSON float: an integer beyond the float
        # range, a numeric string or a boolean, each refused with exit 2
        field = draw(st.sampled_from(sorted(k for k in doc if k != "dim")))
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        doc[field][row][col] = draw(st.sampled_from((10**400, -10**400, "1.5", "0", True, False)))
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents(), command=st.sampled_from(COMMANDS))
def test_cli_exit_code_contract(tmp_path, capsys, doc, command):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    code = main([command[0], str(path), *command[1:]])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 2:
        assert set(json.loads(out)) >= {"schema_version", "admissible", "residuals"}


def test_overflowing_complex_structure_fails_admissibility(tmp_path, capsys):
    # found by the fuzz target: J = inv(g) @ omega of the second triple is
    # about 1e308 * S, and J.T @ J overflows (J @ J once did, with a
    # RuntimeWarning)
    doc = {"dim": 2, "g1": [[1e-300, 0.0], [0.0, 1e-300]],
           "omega1": [[0.0, 1e-300], [-1e-300, 0.0]],
           "g2": [[2e-08, 0.0], [0.0, 2e-08]], "omega2": [[0.0, 2e300], [-2e300, 0.0]]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["admissible"] == {"triple1": True, "triple2": False}
    # a non-finite residual is reported as null
    assert report["residuals"]["triple2"] == {"J_metric_invariance": None}
