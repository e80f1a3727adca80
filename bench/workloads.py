"""Benchmark documents: what each workload analyzes and how it is made.

Each workload is a fixed list of documents whose inputs are drawn from the
run's ``--seed``.  A run sweeps the list, every document once, as often as
its time allows.  Every document is then visited several times, spread over the run, and the
median of its visits' relative latencies (see ``run.relative``) is its own.

Compatible pairs are written with the program's own ``biham synth`` (called
in-process), and their ground truth comes from the spec alone (see
``oracle``).  The other inputs are written here with numpy, so that their
verdicts follow from the construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import numpy as np

import oracle

SCAN_GAMMA = 0.5  # inside every pair's positivity range (-1 / max lambda, +inf)


def generic_spec(dim: int) -> tuple:
    """All blocks two-dimensional: lambda_k = 0.5 + 0.75 k, alternating signs."""
    return tuple((0.5 + 0.75 * k, 1 if k % 2 == 0 else -1, 1) for k in range(dim // 2))


def two_class_spec(dim: int) -> tuple:
    n = dim // 2
    return ((2.0, 1, n // 2), (3.0, -1, n - n // 2))


def three_class_spec(dim: int) -> tuple:
    n = dim // 2
    a = -(-n // 3)
    b = -(-(n - a) // 2)
    return ((1.5, 1, a), (2.5, -1, b), (4.0, 1, n - a - b))


@dataclass(frozen=True)
class Doc:
    """One input document and the command that analyzes it.

    ``kind`` is ``pair`` (synthesized from ``spec``), ``synth`` (the CLI
    writes the pair itself), ``single``, ``incompatible``, or a malformed
    variant: ``odd_dim``, ``lone_g2``, ``non_finite``.
    """

    kind: str
    spec: tuple = ()
    dim: int = 0
    argv: tuple = ("check",)
    gamma: float | None = None
    seed: int | None = None  # a fixed input basis instead of one drawn from --seed

    @property
    def label(self) -> str:
        """Subcommand, kind and dimension; for specs, also the number of entries."""
        dim = self.dim or 2 * sum(m for _, _, m in self.spec)
        return f"{self.argv[0]}:{self.kind}:{dim}" + (f"/{len(self.spec)}" if self.spec else "")


# Generic pairs at dims 8-32.  Dim 24 is weighted so that the median falls
# inside the dim-24 class, not between two classes; a sweep is short, so
# each document gets several visits.  At dim 32 the conservation probe
# overflows on about one random basis in four (6 of seeds 0-23): a known
# defect that makes the document's cost flip between a 0.5 s failure and a
# 3.5 s success.  So the dim-32 document is a fixed reproducer, seed 1, the
# first basis that overflows: the defect shows in every sweep and the cost
# of the sweep does not depend on --seed.
GENERIC_DOCS = tuple(Doc("pair", generic_spec(d), gamma=SCAN_GAMMA)
                     for d in (8, 16, 24, 24, 24, 24)) + (
    Doc("pair", generic_spec(32), gamma=SCAN_GAMMA, seed=1),)

# Two and three block classes at dims 16 and 24: the commutant null spaces
# grow with the squared class sizes and dominate from dim 24 on.  Dim 32 is
# left out: a dim-32 document takes 6-14 s, so it gets one or two visits per
# run, and its bicommutant SVD, bound by memory traffic, changes speed by 15%
# within seconds with other tenants' memory use, which the reference does
# not follow; a single visit of it spread the run's tail by 10-14%.
DEGENERATE_DOCS = tuple(Doc("pair", make(d), gamma=SCAN_GAMMA)
                        for d in (16, 24) for make in (two_class_spec, three_class_spec))

# Small documents, one `python -m biham` process each: every subcommand,
# every exit code, and the one write path.
CLI_DOCS = (
    Doc("single", dim=4),
    Doc("pair", generic_spec(4)),
    Doc("pair", two_class_spec(8), argv=("decompose", "--tol", "1e-8")),
    Doc("pair", generic_spec(6), argv=("recursion",)),
    Doc("pair", generic_spec(8), argv=("pencil", "--gamma")),
    Doc("pair", three_class_spec(8), argv=("commutant",)),
    Doc("synth", two_class_spec(8), argv=("synth",)),
    Doc("incompatible", dim=4),
    Doc("odd_dim", dim=3),
    Doc("lone_g2", generic_spec(4), argv=("decompose", "--tol", "1e-8")),
    Doc("non_finite", two_class_spec(8), argv=("recursion",)),
    Doc("pair", generic_spec(2), argv=("commutant",)),
)

DOCUMENTS = {"cli-startup": CLI_DOCS, "generic-scan": GENERIC_DOCS,
             "degenerate-scan": DEGENERATE_DOCS}


def spec_text(spec) -> str:
    return ",".join(f"{lam!r}:{'+' if s > 0 else '-'}:{m}" for lam, s, m in spec)


def pencil_gamma(spec, rng: random.Random) -> float:
    """A pencil parameter inside (-1 / max lambda, +inf), drawn from the seed."""
    lam_max = max(lam for lam, _, _ in spec)
    return rng.choice((-0.5 / lam_max, 0.25, 2.0))


def expectation(doc: Doc, gamma: float | None) -> dict:
    if doc.kind == "pair":
        return oracle.expected_pair(doc.spec, gamma)
    if doc.kind == "single":
        return oracle.expected_single()
    if doc.kind == "incompatible":
        return oracle.expected_incompatible()
    if doc.kind in ("odd_dim", "lone_g2", "non_finite"):
        return oracle.expected_malformed()
    raise ValueError(f"no report expectation for a {doc.kind} document")


def synth_argv(spec, seed: int, out: str) -> list[str]:
    return ["synth", "--spec", spec_text(spec), "--seed", str(seed), "--out", out]


def run_synth(spec, seed: int, out: str) -> None:
    """Write a compatible pair with the package's own `synth` command."""
    from biham import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(synth_argv(spec, seed, out))
    if code != 0:
        raise RuntimeError(f"biham synth exited {code} for spec {spec_text(spec)}")


def _random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diagonal(r))


def _standard_omega(dim: int) -> np.ndarray:
    return np.kron(np.eye(dim // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _dump(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: v.tolist() if isinstance(v, np.ndarray) else v
                   for k, v in doc.items()}, fh)


def write_input(doc: Doc, seed: int, path: str) -> None:
    """Write the input file of ``doc`` (``synth`` documents have none)."""
    rng = np.random.default_rng(seed)
    if doc.kind == "pair":
        run_synth(doc.spec, seed, path)
    elif doc.kind == "single":
        # g = A^T A and omega = A^T S A for invertible A: J = A^-1 S A squares to -I
        a = np.eye(doc.dim) + 0.3 * rng.standard_normal((doc.dim, doc.dim))
        _dump(path, {"dim": doc.dim, "g1": a.T @ a, "omega1": a.T @ _standard_omega(doc.dim) @ a})
    elif doc.kind == "incompatible":
        # second structure J2 = A^-1 S A with A = diag(1, 2, 1, ...): the
        # commutator [S, J2] has norm 2 - 1/2 on the first block, so the
        # pair stays incompatible under any orthogonal change of basis q
        q = _random_orthogonal(doc.dim, rng)
        s = _standard_omega(doc.dim)
        a = np.eye(doc.dim)
        a[1, 1] = 2.0
        _dump(path, {"dim": doc.dim, "g1": np.eye(doc.dim), "omega1": q.T @ s @ q,
                     "g2": q.T @ a.T @ a @ q, "omega2": q.T @ a.T @ s @ a @ q})
    elif doc.kind == "odd_dim":
        zero = np.zeros((doc.dim, doc.dim))
        _dump(path, {"dim": doc.dim, "g1": np.eye(doc.dim), "omega1": zero})
    elif doc.kind in ("lone_g2", "non_finite"):
        run_synth(doc.spec, seed, path)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if doc.kind == "lone_g2":
            del data["omega2"]
            text = json.dumps(data)
        else:
            data["g2"][0][0] = "OVERFLOW"
            text = json.dumps(data).replace('"OVERFLOW"', "1e999")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif doc.kind != "synth":
        raise ValueError(f"unknown document kind {doc.kind}")


def check_synth_output(spec, path: str) -> str:
    """Verify a file written by `biham synth` against its spec with numpy
    alone: inv(g1) g2 has eigenvalues lambda and inv(omega1) omega2 has
    sign * lambda, each with multiplicity 2 m.  Returns a problem or ''."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        g1, w1, g2, w2 = (np.array(data[k], dtype=float) for k in ("g1", "omega1", "g2", "omega2"))
    except (OSError, ValueError, KeyError) as err:
        return f"unreadable synth output: {err}"
    dim = 2 * sum(m for _, _, m in spec)
    if data.get("dim") != dim or g1.shape != (dim, dim):
        return f"synth output has dim {data.get('dim')}, expected {dim}"
    want_g = sorted(lam for lam, _, m in spec for _ in range(2 * m))
    want_t = sorted(s * lam for lam, s, m in spec for _ in range(2 * m))
    got_g = sorted(np.linalg.eigvals(np.linalg.solve(g1, g2)).real)
    got_t = sorted(np.linalg.eigvals(np.linalg.solve(w1, w2)).real)
    for want, got in ((want_g, got_g), (want_t, got_t)):
        if not np.allclose(got, want, rtol=oracle.REL, atol=oracle.REL):
            return f"synth output spectrum {np.round(got, 6).tolist()} != {want}"
    return ""
