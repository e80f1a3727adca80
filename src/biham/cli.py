"""Command-line interface: file ingestion, analysis pipeline, JSON reports.

Input files are UTF-8 JSON with fields ``dim``, ``g1``, ``omega1`` and
optionally ``g2``/``omega2`` (both or neither) and ``tol``; matrices are
row-major arrays of arrays of numbers.

One rule sets the tolerance: ``decompose --tol x`` or the file's ``tol``
(x means ``{"rel": x}``) gives ``rel`` and ``cluster_gap``, each optional.
A missing ``rel`` comes from BIHAM_TOL, else the default 1e-9; a missing
``cluster_gap`` is max(1e-7, rel).  ``synth`` reads BIHAM_TOL alone.

Every analysis command emits one JSON report with a fixed key set
(missing sections are ``null``) and the exit code encodes the outcome:

    0   every requested check passed
    1   a mathematical check failed (the report names it), a check of the
        recursion certificate included; a rank below n is no failure
    2   unreadable or schema-invalid input

Reports are deterministic: identical input (and seed, where applicable)
produces byte-identical output.  Floats are serialized as their shortest
round-trip decimal; unbounded interval ends are ``null``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from .commutant import bicommutant_dim, commutant_dim, is_generic_operator, read_off_operator
from .compatibility import check_compatible, pencil_member, positivity_range
from .decomposition import decompose, group_signature, is_generic, synthesize_pair
from .dynamics import bi_preserving_algebra, certify_recursion, recursion_basis
from .linalg import NumericalCheckError, Record, StructureError, Tolerance
from .structures import ViolationReport, check_admissible, form_pair

SCHEMA_VERSION = 10


class InputError(ValueError):
    """Malformed input file or command line (exit code 2)."""


class InputDocument(Record):
    dim: int
    g1: np.ndarray
    omega1: np.ndarray
    g2: np.ndarray | None
    omega2: np.ndarray | None
    tol: Tolerance

    @property
    def has_pair(self) -> bool:
        return self.g2 is not None


def _parse_matrix(obj, name: str, dim: int) -> np.ndarray:
    try:
        arr = np.array(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise InputError(f"field '{name}' is not a numeric matrix: {err}") from None
    if arr.shape != (dim, dim):
        raise InputError(f"field '{name}' must be a {dim}x{dim} matrix, got shape {arr.shape}")
    if not {type(x) for row in obj for x in row} <= {int, float}:
        raise InputError(f"field '{name}' holds an entry that is not a JSON number")
    if not np.isfinite(arr).all():
        raise InputError(f"field '{name}' contains non-finite entries")
    return arr


def _tolerance(rel: float | None = None, cluster_gap: float | None = None) -> Tolerance:
    """The one tolerance rule (see the module docstring), for the ``rel``
    and ``cluster_gap`` that ``--tol`` or the file's ``tol`` gives."""
    try:
        if rel is None:
            rel = float(os.environ.get("BIHAM_TOL", Tolerance.rel))
        if cluster_gap is None:
            cluster_gap = max(Tolerance.cluster_gap, rel)
        return Tolerance(rel, cluster_gap)
    except ValueError as err:
        raise InputError(f"invalid tolerance from --tol, 'tol' or BIHAM_TOL: {err}") from None


def _number(value, what: str) -> float:
    """A parsed JSON number as a float, else an :class:`InputError` saying
    ``what``.  A boolean is no number; an integer beyond the float range
    becomes an infinity, which every tolerance refuses by name."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def load_document(path: str, tol_override: float | None = None) -> InputDocument:
    """Load and schema-validate an input file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise InputError(f"{path} is not valid JSON: {err}") from None
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to parse") from None
    if not isinstance(raw, dict):
        raise InputError("input document must be a JSON object")

    if "dim" not in raw:
        raise InputError("missing required field 'dim'")
    dim = raw["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise InputError(f"'dim' must be a positive integer, got {dim!r}")
    if dim % 2 != 0:
        raise InputError("dimension must be even")

    for req in ("g1", "omega1"):
        if req not in raw:
            raise InputError(f"missing required field '{req}'")
    if ("g2" in raw) != ("omega2" in raw):
        raise InputError("fields 'g2' and 'omega2' must be given together")

    g1 = _parse_matrix(raw["g1"], "g1", dim)
    omega1 = _parse_matrix(raw["omega1"], "omega1", dim)
    g2 = _parse_matrix(raw["g2"], "g2", dim) if "g2" in raw else None
    omega2 = _parse_matrix(raw["omega2"], "omega2", dim) if "omega2" in raw else None

    spec = raw.get("tol", {}) if tol_override is None else {"rel": tol_override}
    if not isinstance(spec, dict):  # tol: x means tol: {"rel": x}
        spec = {"rel": _number(spec, "'tol' must be a number or an object")}
    given = {}
    for key, value in spec.items():
        if key not in ("rel", "cluster_gap"):
            raise InputError(f"unknown key {key!r} in 'tol': "
                             "expected 'rel' and 'cluster_gap' only")
        given[key] = _number(value, f"'tol' key {key!r} must be a number")
    return InputDocument(dim, g1, omega1, g2, omega2, _tolerance(**given))


def _py(value):
    """Convert numpy scalars/arrays into plain JSON-serializable values.

    Non-finite floats become null (JSON has no Infinity/NaN).
    """
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if not math.isfinite(v) else v
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _py(value.tolist())
    if isinstance(value, dict):
        return {k: _py(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [v if type(v) is float and math.isfinite(v) else _py(v) for v in value]
    return value


def _violation_dict(report: ViolationReport) -> dict:
    return {v.name: _py(v.residual) for v in report.violations}


def _empty_report() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "admissible": None,
        "compatible": None,
        "blocks": None,
        "generic": {"real": None, "operator": None},
        "signature_complex": None,
        "signature_real": None,
        "recursion": None,
        "pencil_range": None,
        "algebra_dim": None,
        "residuals": {},
    }


@contextmanager
def _stage(errors: list[str]):
    """Run one analysis stage; a failed check ends it, its message kept in ``errors``."""
    try:
        yield
    except NumericalCheckError as err:
        errors.append(str(err))


def analyze(doc: InputDocument, gamma: float | None = None) -> tuple[dict, int]:
    """Run the full analysis pipeline on an input document.

    Returns the report dictionary and the exit code (0 or 1).
    """
    report = _empty_report()
    residuals = report["residuals"]
    if gamma is not None:
        report["pencil_member"] = None
    failed = False

    # a pair's second triple is judged by the frame certificate of its
    # decomposition, which within rel puts the input within rel of a pair
    # admissible in both triples.  check_admissible judges it only where a
    # stage refuses, to explain the refusal; where it passes, the stages'
    # results stand
    t1 = check_admissible(doc.g1, doc.omega1, doc.tol)
    compat = dec = second = None
    errors: list[str] = []
    if doc.has_pair and not isinstance(t1, ViolationReport):
        try:
            second = form_pair(doc.g2, doc.omega2, doc.tol)
        except StructureError:
            pass  # check_admissible names the same failure
        else:
            compat = check_compatible(t1, second, doc.tol)
            if not isinstance(compat, ViolationReport):
                with _stage(errors):
                    dec = decompose(compat)
    triples = [t1]
    if doc.has_pair:
        certified = dec is not None and dec.frame_certificate[0] <= doc.tol.rel
        triples.append(second if certified else check_admissible(doc.g2, doc.omega2, doc.tol))
    admissible = {}
    for name, t in zip(("triple1", "triple2"), triples):
        admissible[name] = ok = not isinstance(t, ViolationReport)
        residuals[name] = {} if ok else _violation_dict(t)
        failed = failed or not ok
    report["admissible"] = admissible

    pair = None
    if doc.has_pair and not failed:
        if isinstance(compat, ViolationReport):
            report["compatible"] = False
            residuals["compatibility"] = _violation_dict(compat)
            failed = True
        else:
            pair = compat
            report["compatible"] = True
            residuals["compatibility"] = _py(dict(pair.certificates))

    if pair is not None:
        # the stages after decompose depend on it alone; errors join in order
        if dec is not None:
            sig = group_signature(dec)
            report["blocks"] = [
                {"lambda": _py(b.eigenvalue), "sign": b.sign, "dim": b.dim}
                for b in dec.blocks
            ]
            report["generic"]["real"] = is_generic(dec)
            report["signature_complex"] = sig.complex_form
            report["signature_real"] = sig.real_form

            report["pencil_range"] = _py(positivity_range(pair))

            with _stage(errors):
                cert = certify_recursion(recursion_basis(pair), dec)
                failed = failed or not cert.holds
                report["recursion"] = {
                    "rank": cert.rank,
                    "expected_rank": cert.expected_rank,
                    "preserves_all": cert.preserves_all,
                    "commute": cert.commute,
                    "distinct_t_eigenvalues": cert.distinct_t_eigenvalues,
                    "vandermonde_consistent": cert.vandermonde_consistent,
                    "max_preservation_residual": _py(cert.max_preservation_residual),
                    "max_commutator_residual": _py(cert.max_commutator_residual),
                    "max_conservation_drift": _py(cert.max_conservation_drift),
                    "power_basis_log10_condition": _py(cert.power_basis_log10_condition),
                    "all_pass": cert.all_pass,
                }

            with _stage(errors):
                report["algebra_dim"] = bi_preserving_algebra(dec).dim

            op = read_off_operator(dec)
            report["generic"]["operator"] = is_generic_operator(op)
            residuals["operator"] = {
                "eigenvalues": _py(op.eigenvalues),
                "commutant_dim": commutant_dim(op),
                "bicommutant_dim": bicommutant_dim(op),
                "sign_pattern": dec.coordinate_sign.tolist(),
            }

            if gamma is not None:
                with _stage(errors):
                    member = pencil_member(dec, gamma)
                    report["pencil_member"] = {
                        "gamma": _py(member.gamma),
                        "admissible": member.admissible,
                        "blocks": [
                            {"lambda": _py(v.eigenvalue), "sign": v.sign, "dim": v.dim,
                             "admissible": v.admissible,
                             "jsq_coefficient": _py(v.jsq_coefficient)}
                            for v in member.blocks
                        ],
                    }
        if errors:
            residuals["pipeline_error"] = "; ".join(errors)
            failed = True
    elif gamma is not None:
        residuals["pencil_member"] = (
            "not computed: the two triples are not a compatible pair" if doc.has_pair
            else "not computed: the document has no second triple")
        failed = True

    return report, (1 if failed else 0)


def _dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file renamed over ``path``.  The file gets
    the mode a plain ``open(path, "w")`` would leave: the existing file's,
    or 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".biham-", suffix=".tmp")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_synth_spec(text: str) -> list[tuple[float, int, int]]:
    """Parse 'lambda:sign:multiplicity' triples, e.g. '2:+:1,3:-:1'."""
    specs = []
    for part in text.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise InputError(f"bad spec entry {part!r}: expected lambda:sign:multiplicity")
        lam_s, sign_s, mult_s = fields
        try:
            lam = float(lam_s)
        except ValueError:
            raise InputError(f"bad eigenvalue {lam_s!r} in spec") from None
        if sign_s == "+":
            sign = 1
        elif sign_s == "-":
            sign = -1
        else:
            raise InputError(f"bad sign {sign_s!r} in spec: expected '+' or '-'")
        try:
            mult = int(mult_s)
        except ValueError:
            raise InputError(f"bad multiplicity {mult_s!r} in spec") from None
        specs.append((lam, sign, mult))
    return specs


def _option_type(convert, ok, need: str):
    """argparse type: the text read by ``convert`` (``int`` or ``float``)
    and passing ``ok``; anything else exits 2 naming the option, so a
    ``nan`` gamma or a negative seed is refused like any other bad number."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"value must be {need}, got {text!r}")
        return value
    return parse


def _run_analysis(args: argparse.Namespace) -> int:
    doc = load_document(args.file, getattr(args, "tol", None))
    report, code = analyze(doc, gamma=getattr(args, "gamma", None))
    text = _dump_report(report)
    output = getattr(args, "output", None)
    if output:
        _write_atomic(output, text)
    else:
        sys.stdout.write(text)
    return code


def _cmd_synth(args: argparse.Namespace) -> int:
    specs, tol = _parse_synth_spec(args.spec), _tolerance()
    try:
        pair = synthesize_pair(specs, args.seed, tol)
    except ValueError as err:
        raise InputError(f"invalid spec: {err}") from None
    doc = {
        "dim": pair.dim,
        "g1": _py(pair.t1.g.m),
        "omega1": _py(pair.t1.omega.m),
        "g2": _py(pair.t2.g.m),
        "omega2": _py(pair.t2.omega.m),
    }
    _write_atomic(args.out, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    sys.stdout.write(f"wrote {args.out} (dim {pair.dim})\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biham",
        description="Analyze one or two Hermitian structures (metric + symplectic "
                    "form) on an even-dimensional real space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate admissibility and compatibility")
    p_check.add_argument("file")
    p_check.set_defaults(func=_run_analysis)

    p_dec = sub.add_parser("decompose", help="block decomposition and group signature")
    p_dec.add_argument("file")
    p_dec.add_argument("--tol", type=float, default=None,
                       help="relative tolerance override")
    p_dec.add_argument("--output", default=None, help="write the report to this file")
    p_dec.set_defaults(func=_run_analysis)

    p_rec = sub.add_parser("recursion", help="recursion family certificate and drifts")
    p_rec.add_argument("file")
    p_rec.set_defaults(func=_run_analysis)

    p_pen = sub.add_parser("pencil", help="evaluate the structure pencil at gamma")
    p_pen.add_argument("file")
    p_pen.add_argument("--gamma", type=_option_type(float, math.isfinite, "finite"),
                       required=True)
    p_pen.set_defaults(func=_run_analysis)

    p_com = sub.add_parser("commutant", help="transfer-operator commutant analysis")
    p_com.add_argument("file")
    p_com.set_defaults(func=_run_analysis)

    p_syn = sub.add_parser("synth", help="synthesize a compatible pair input file")
    p_syn.add_argument("--spec", required=True,
                       help="comma-separated lambda:sign:multiplicity triples, "
                            "e.g. '2:+:1,3:-:1'")
    p_syn.add_argument("--seed", type=_option_type(int, lambda v: v >= 0, "non-negative"),
                       required=True)
    p_syn.add_argument("--out", required=True)
    p_syn.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
