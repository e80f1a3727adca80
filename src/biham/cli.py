"""Command-line interface: file ingestion, analysis pipeline, JSON reports.

Input files are UTF-8 JSON with fields ``dim``, ``g1``, ``omega1`` and
optionally ``g2``/``omega2`` (both or neither) and ``tol``; matrices are
row-major arrays of arrays of numbers.  Every analysis command emits one
JSON report with a fixed key set (missing sections are ``null``) and the
exit code encodes the outcome:

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
from dataclasses import dataclass

import numpy as np

from .commutant import bicommutant_dim, commutant_dim, is_generic_operator, read_off_operator
from .compatibility import check_compatible, pencil_member, positivity_range
from .decomposition import decompose, group_signature, is_generic, synthesize_pair
from .dynamics import bi_preserving_algebra, certify_recursion, recursion_basis
from .linalg import NumericalCheckError, Tolerance
from .structures import ViolationReport, check_admissible

SCHEMA_VERSION = 3


class InputError(ValueError):
    """Malformed input file or command line (exit code 2)."""


@dataclass
class InputDocument:
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
    except (TypeError, ValueError) as err:
        raise InputError(f"field '{name}' is not a numeric matrix: {err}") from None
    if arr.shape != (dim, dim):
        raise InputError(f"field '{name}' must be a {dim}x{dim} matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"field '{name}' contains non-finite entries")
    return arr


def default_tolerance() -> Tolerance:
    """Default tolerance, honoring the BIHAM_TOL environment override."""
    env = os.environ.get("BIHAM_TOL")
    if env is None:
        return Tolerance()
    try:
        rel = float(env)
    except ValueError:
        raise InputError(f"BIHAM_TOL must be a number, got {env!r}") from None
    return _tolerance_from_rel(rel)


def _tolerance_from_rel(rel: float) -> Tolerance:
    try:
        return Tolerance(rel=rel, cluster_gap=max(Tolerance().cluster_gap, rel))
    except ValueError as err:
        raise InputError(str(err)) from None


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number (a boolean is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value: int | float) -> float:
    """A JSON number as a float; an integer beyond the float range becomes
    an infinity, which every tolerance refuses by name."""
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

    if tol_override is not None:
        tol = _tolerance_from_rel(tol_override)
    elif "tol" in raw:
        spec = raw["tol"]
        if _is_number(spec):
            tol = _tolerance_from_rel(_as_float(spec))
        elif isinstance(spec, dict):
            for key, value in spec.items():
                if key not in ("rel", "cluster_gap"):
                    raise InputError(f"unknown key {key!r} in 'tol': "
                                     "expected 'rel' and 'cluster_gap' only")
                if not _is_number(value):
                    raise InputError(f"'tol' key {key!r} must be a number, got {value!r}")
            base = default_tolerance()
            rel = _as_float(spec.get("rel", base.rel))
            gap = _as_float(spec.get("cluster_gap", max(base.cluster_gap, rel)))
            try:
                tol = Tolerance(rel=rel, cluster_gap=gap)
            except ValueError as err:
                raise InputError(f"invalid 'tol' field: {err}") from None
        else:
            raise InputError("'tol' must be a number or an object")
    else:
        tol = default_tolerance()
    return InputDocument(dim, g1, omega1, g2, omega2, tol)


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
        return [_py(x) for x in value.tolist()]
    if isinstance(value, dict):
        return {k: _py(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
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

    triples = []
    admissible = {}
    inputs = [("triple1", doc.g1, doc.omega1)]
    if doc.has_pair:
        inputs.append(("triple2", doc.g2, doc.omega2))
    for name, g, w in inputs:
        result = check_admissible(g, w, doc.tol)
        if isinstance(result, ViolationReport):
            admissible[name] = False
            residuals[name] = _violation_dict(result)
            failed = True
        else:
            admissible[name] = True
            residuals[name] = {}
            triples.append(result)
    report["admissible"] = admissible

    pair = None
    if doc.has_pair and len(triples) == 2:
        result = check_compatible(triples[0], triples[1], doc.tol)
        if isinstance(result, ViolationReport):
            report["compatible"] = False
            residuals["compatibility"] = _violation_dict(result)
            failed = True
        else:
            pair = result
            report["compatible"] = True
            residuals["compatibility"] = _py(dict(pair.certificates))

    if pair is not None:
        # the stages after decompose depend on it alone; errors join in order
        errors: list[str] = []
        dec = None
        with _stage(errors):
            dec = decompose(pair)
        if dec is not None:
            sig = group_signature(dec)
            report["blocks"] = [
                {"lambda": _py(b.eigenvalue), "sign": b.sign, "dim": b.dim}
                for b in dec.blocks
            ]
            report["generic"]["real"] = is_generic(dec)
            report["signature_complex"] = sig.complex_form
            report["signature_real"] = sig.real_form

            lo, hi = positivity_range(pair)
            report["pencil_range"] = [_py(lo), _py(hi)]

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
        if lam <= 0 or mult <= 0:
            raise InputError(f"spec entry {part!r} needs positive eigenvalue and multiplicity")
        specs.append((lam, sign, mult))
    return specs


def _finite_float(text: str) -> float:
    """argparse type: ``nan`` and ``inf`` exit 2 like any other bad number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite, got {text!r}")
    return value


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
    specs = _parse_synth_spec(args.spec)
    try:
        pair = synthesize_pair(specs, args.seed, default_tolerance())
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
    p_pen.add_argument("--gamma", type=_finite_float, required=True)
    p_pen.set_defaults(func=_run_analysis)

    p_com = sub.add_parser("commutant", help="transfer-operator commutant analysis")
    p_com.add_argument("file")
    p_com.set_defaults(func=_run_analysis)

    p_syn = sub.add_parser("synth", help="synthesize a compatible pair input file")
    p_syn.add_argument("--spec", required=True,
                       help="comma-separated lambda:sign:multiplicity triples, "
                            "e.g. '2:+:1,3:-:1'")
    p_syn.add_argument("--seed", type=int, required=True)
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
