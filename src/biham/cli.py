"""Command-line interface: file ingestion, analysis pipeline, JSON reports.

Input files are UTF-8 JSON with fields ``dim``, ``g1``, ``omega1`` and
optionally ``g2``/``omega2`` (both or neither) and ``tol``; matrices are
row-major arrays of arrays of numbers.  Every analysis command emits one
JSON report with a fixed key set (missing sections are ``null``) and the
exit code encodes the outcome:

    0   every requested check passed
    1   a mathematical check failed (the report names it)
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
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .commutant import (
    bicommutant_dim,
    commutant_dim,
    complexify,
    transfer_operator,
)
from .compatibility import check_compatible, pencil_member, positivity_range
from .decomposition import decompose, group_signature, is_generic, synthesize_pair
from .dynamics import bi_preserving_algebra, certify_recursion, conservation_probe, recursion_basis
from .linalg import NumericalCheckError, Tolerance, op_norm
from .structures import LinearField, ViolationReport, check_admissible

SCHEMA_VERSION = 1
CONSERVATION_TIMES = tuple(0.1 * k for k in range(1, 101))


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


def load_document(path: str, tol_override: float | None = None) -> InputDocument:
    """Load and schema-validate an input file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from None
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
        if isinstance(spec, (int, float)) and not isinstance(spec, bool):
            tol = _tolerance_from_rel(float(spec))
        elif isinstance(spec, dict):
            base = default_tolerance()
            try:
                rel = float(spec.get("rel", base.rel))
                gap = float(spec.get("cluster_gap", max(base.cluster_gap, rel)))
                tol = Tolerance(rel=rel, cluster_gap=gap)
            except (TypeError, ValueError) as err:
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


def analyze(doc: InputDocument, gamma: float | None = None) -> tuple[dict, int]:
    """Run the full analysis pipeline on an input document.

    Returns the report dictionary and the exit code (0 or 1).
    """
    report = _empty_report()
    residuals = report["residuals"]
    failed = False

    triples = []
    admissible = {}
    inputs = [("triple1", doc.g1, doc.omega1)]
    if doc.has_pair:
        inputs.append(("triple2", doc.g2, doc.omega2))
    for name, g, w in inputs:
        try:
            result = check_admissible(g, w, doc.tol)
        except NumericalCheckError as err:
            admissible[name] = False
            residuals[name] = {getattr(err, "check", "error"): _py(getattr(err, "residual", None))}
            failed = True
            continue
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
        try:
            dec = decompose(pair)
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

            rb = recursion_basis(pair)
            cert = certify_recursion(rb, pair)
            # unit-norm fields: the raw powers T^k J1 grow like lambda^k
            drift = max(
                conservation_probe(LinearField(f.matrix / op_norm(f.matrix)), pair,
                                   CONSERVATION_TIMES).max_drift
                for f in rb.fields
            )
            report["recursion"] = {
                "rank": cert.rank,
                "expected_rank": cert.expected_rank,
                "preserves_all": cert.preserves_all,
                "commute": cert.commute,
                "distinct_t_eigenvalues": cert.distinct_t_eigenvalues,
                "vandermonde_consistent": cert.vandermonde_consistent,
                "nijenhuis_residual": _py(cert.nijenhuis_residual),
                "max_preservation_residual": _py(cert.max_preservation_residual),
                "max_commutator_residual": _py(cert.max_commutator_residual),
                "max_conservation_drift": _py(drift),
                "all_pass": cert.all_pass,
            }

            report["algebra_dim"] = bi_preserving_algebra(pair).dim

            h1, h2, signs = complexify(pair)
            op = transfer_operator(h1, h2, pair.tol)
            comm_dim = commutant_dim(op, pair.tol)
            bicomm_dim = bicommutant_dim(op, pair.tol)
            report["generic"]["operator"] = comm_dim == bicomm_dim
            residuals["operator"] = {
                "eigenvalues": _py(op.eigenvalues),
                "commutant_dim": comm_dim,
                "bicommutant_dim": bicomm_dim,
                "sign_pattern": list(signs),
            }

            if gamma is not None:
                member = pencil_member(pair, gamma)
                report["pencil_member"] = {
                    "gamma": _py(member.gamma),
                    "admissible": member.admissible,
                    "blocks": [
                        {
                            "lambda": _py(v.eigenvalue),
                            "sign": v.sign,
                            "dim": v.dim,
                            "admissible": v.admissible,
                            "jsq_coefficient": _py(v.jsq_coefficient),
                        }
                        for v in member.blocks
                    ],
                }
        except NumericalCheckError as err:
            residuals["pipeline_error"] = str(err)
            failed = True
    elif gamma is not None and pair is None:
        failed = True

    return report, (1 if failed else 0)


def _dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".biham-", suffix=".tmp")
    try:
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


def _run_analysis(args: argparse.Namespace, gamma: float | None = None) -> int:
    tol_override = getattr(args, "tol", None)
    doc = load_document(args.file, tol_override)
    report, code = analyze(doc, gamma=gamma)
    text = _dump_report(report)
    output = getattr(args, "output", None)
    if output:
        _write_atomic(output, text)
    else:
        sys.stdout.write(text)
    return code


def _cmd_check(args: argparse.Namespace) -> int:
    return _run_analysis(args)


def _cmd_decompose(args: argparse.Namespace) -> int:
    return _run_analysis(args)


def _cmd_recursion(args: argparse.Namespace) -> int:
    return _run_analysis(args)


def _cmd_pencil(args: argparse.Namespace) -> int:
    return _run_analysis(args, gamma=args.gamma)


def _cmd_commutant(args: argparse.Namespace) -> int:
    return _run_analysis(args)


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
    p_check.set_defaults(func=_cmd_check)

    p_dec = sub.add_parser("decompose", help="block decomposition and group signature")
    p_dec.add_argument("file")
    p_dec.add_argument("--tol", type=float, default=None,
                       help="relative tolerance override")
    p_dec.add_argument("--output", default=None, help="write the report to this file")
    p_dec.set_defaults(func=_cmd_decompose)

    p_rec = sub.add_parser("recursion", help="recursion family certificate and drifts")
    p_rec.add_argument("file")
    p_rec.set_defaults(func=_cmd_recursion)

    p_pen = sub.add_parser("pencil", help="evaluate the structure pencil at gamma")
    p_pen.add_argument("file")
    p_pen.add_argument("--gamma", type=float, required=True)
    p_pen.set_defaults(func=_cmd_pencil)

    p_com = sub.add_parser("commutant", help="transfer-operator commutant analysis")
    p_com.add_argument("file")
    p_com.set_defaults(func=_cmd_commutant)

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
