"""The exit-code corpus: the documents on which a change to a verdict is
compared, with every seed fixed.  A helper, not a test module.

:func:`documents` yields ``(label, document)`` in one fixed order:

* ``fixture:<name>``: every file in ``tests/fixtures``, read by
  ``cli.load_document`` (a malformed one exits 2);
* ``synth:<spec>-<dim>-seed<k>``: ``synthesize_pair`` of the generic,
  two-, three- and one-class specs at dims 8, 32 and 128, seeds 1-3 (36);
* ``tampered:<i>``: the i-th of :func:`tampered_documents` (2560);
* ``conditioned:<spec>-<dim>-seed<k>``: the generic and two-class pairs
  of dims 8, 16, 24 and 32 after ``conftest.conditioned_pair``'s
  congruence by ``conditioned_basis(dim, 1e3, default_rng(k))``, seeds
  0-39, so cond(g1) = 1e6 (320);
* ``j-invariant:<dim>-seed<k>``: the generic pair of seed k at dims 16
  and 24 after the congruence by ``j_invariant_basis(dim // 2, 1e3, k)``,
  seeds 0-39 (80).

A document is a fixture's path or a read-only mapping of the four
matrices and ``dim``, judged at the default tolerance.  Both lists are
built once per process and shared by every caller, so each array is
read-only: no test can change another test's input.  Run as a script, the
module prints one line per document, its label, exit code and the SHA-256
of its report, so two checkouts compare by ``diff``::

    PYTHONPATH=src python tests/corpus.py > codes.txt
"""

import hashlib
from functools import cache
from pathlib import Path
from types import MappingProxyType

import numpy as np

from biham import cli
from biham.decomposition import synthesize_pair
from biham.linalg import DEFAULT_TOL, frozen
from conftest import conditioned_basis, congruent, generic_spec, j_invariant_basis
from test_loop_oracle import three_class_spec, two_class_spec

FIXTURES = Path(__file__).parent / "fixtures"

SPECS = (("generic", lambda dim: generic_spec(dim // 2)), ("two-class", two_class_spec),
         ("three-class", three_class_spec), ("one-class", lambda dim: [(2.0, 1, dim // 2)]))


@cache
def tampered_documents():
    """Inputs near compatible pairs: generic, two- and three-class pairs of
    dims 4-16 and pairs whose eigenvalues spread from 1 to 1e3 and to 1e6
    (cond(G) up to 1e6), plain and after a ``conditioned_basis(dim, 1e3)``
    congruence, with g1, omega1, g2 and omega2 tampered singly and in
    pairs by s max|m| (X +- X.T), symmetric for a metric and skew for a
    form, at s from 1e-13 to 10**-9.5; no larger s leaves both triples
    admissible here.  A tuple of read-only documents."""
    return tuple(map(_read_only, _tampered()))


def _tampered():
    for dim in (4, 8, 12, 16):
        n = dim // 2
        specs = (generic_spec(n), [(2.0, 1, n // 2), (3.0, -1, n - n // 2)],
                 [(1.5, 1, n - n // 2), (2.5, -1, 1), (4.0, 1, n // 2 - 1)],
                 *([(top ** (k / (n - 1)), (-1) ** k, 1) for k in range(n)]
                   for top in (1e3, 1e6)))
        for spec in specs:
            pair = synthesize_pair([c for c in spec if c[2]], seed=0)
            rng = np.random.default_rng(dim)
            for basis in (np.eye(dim), conditioned_basis(dim, 1e3, rng)):
                doc = congruent(pair, basis)
                for names in (("g1",), ("omega1",), ("g2",), ("omega2",), ("g1", "g2"),
                              ("omega1", "omega2"), ("g1", "omega2"), ("omega1", "g2")):
                    for s in np.logspace(-13, -9.5, 8):
                        tampered = dict(doc)
                        for name in names:
                            x = rng.standard_normal((dim, dim))
                            x = x + x.T if name.startswith("g") else x - x.T
                            tampered[name] = doc[name] + s * np.abs(doc[name]).max() * x
                        yield tampered


def _read_only(doc):
    """The document as a read-only mapping of read-only arrays."""
    return MappingProxyType({k: frozen(v, copy=False) if isinstance(v, np.ndarray) else v
                             for k, v in doc.items()})


@cache
def documents():
    """Every corpus document, as ``(label, document)``, in a fixed order:
    a tuple."""
    return tuple((label, _read_only(doc) if isinstance(doc, dict) else doc)
                 for label, doc in _labelled())


def _labelled():
    for path in sorted(FIXTURES.glob("*.json")):
        yield f"fixture:{path.name}", path
    for dim in (8, 32, 128):
        for name, spec in SPECS:
            for seed in (1, 2, 3):
                pair = synthesize_pair(spec(dim), seed=seed)
                yield f"synth:{name}-{dim}-seed{seed}", {
                    "dim": dim, "g1": pair.t1.g.m, "omega1": pair.t1.omega.m,
                    "g2": pair.t2.g.m, "omega2": pair.t2.omega.m}
    for i, doc in enumerate(tampered_documents()):
        yield f"tampered:{i}", doc
    for name, spec in SPECS[:2]:
        for dim in (8, 16, 24, 32):
            for seed in range(40):
                pair = synthesize_pair(spec(dim), seed=seed)
                basis = conditioned_basis(dim, 1e3, np.random.default_rng(seed))
                yield f"conditioned:{name}-{dim}-seed{seed}", congruent(pair, basis)
    for dim in (16, 24):
        for seed in range(40):
            pair = synthesize_pair(generic_spec(dim // 2), seed=seed)
            yield (f"j-invariant:{dim}-seed{seed}",
                   congruent(pair, j_invariant_basis(dim // 2, 1e3, seed)))


def input_document(doc) -> cli.InputDocument:
    """The validated document: a fixture through ``cli.load_document``
    (``cli.InputError`` where it is malformed), a dict at the default
    tolerance."""
    if isinstance(doc, Path):
        return cli.load_document(str(doc))
    return cli.InputDocument(doc["dim"], doc["g1"], doc["omega1"], doc["g2"], doc["omega2"],
                             DEFAULT_TOL)


def run(doc) -> tuple[int, str | None]:
    """The exit code of ``biham check`` on the document and its report's
    text (``None`` for exit 2)."""
    try:
        report, code = cli.analyze(input_document(doc))
    except cli.InputError:
        return 2, None
    return code, cli._dump_report(report)


if __name__ == "__main__":
    for label, doc in documents():
        code, text = run(doc)
        digest = "-" if text is None else hashlib.sha256(text.encode()).hexdigest()
        print(label, code, digest)
