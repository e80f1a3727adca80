"""Ground truth for benchmark documents, derived from how each was built.

Every compatible pair is made by ``synthesize_pair`` from a block spec
``((lambda, sign, multiplicity), ...)``.  From the spec alone, never from an
earlier report of the program, follow:

* the blocks ``(lambda, sign, 2 * m)``, where ``m`` sums the spec entries
  sharing ``(lambda, sign)``, sorted by ``(lambda, -sign)``;
* the group signature ``U(m_1)×...×U(m_k)`` and the algebra dimension
  ``sum m^2``;
* the recursion rank, the number of distinct values ``sign * lambda``;
* the transfer operator: eigenvalue ``lambda`` with multiplicity
  ``p_lambda`` (both signs merged), ``commutant_dim = sum p^2``,
  ``bicommutant_dim`` = number of distinct lambda, ``generic.operator``
  iff every ``p = 1``;
* the positivity range ``(-1 / max lambda, +inf)`` and, at ``gamma``, the
  pencil coefficient ``-((1 + gamma s lambda) / (1 + gamma lambda))^2`` per
  block, admissible iff ``s = +1``.

Other documents are built so that their verdict is known: a single
triple (exit 0), an incompatible pair whose complex structures provably do
not commute (exit 1), and malformed files (exit 2).

:func:`judge` sorts a result into ``ok``, ``failed`` (the program declared a
failure: exit 1 naming a pipeline error, with every value it did report
right) or ``wrong`` (a value or exit code that contradicts the truth).
"""

from __future__ import annotations

import copy
import math
from collections import OrderedDict

REL = 1e-6  # relative agreement required of reported eigenvalues


def merged_classes(spec) -> "OrderedDict[tuple[float, int], int]":
    """Multiplicity per (lambda, sign), in the decomposition's block order."""
    classes: dict[tuple[float, int], int] = {}
    for lam, sign, mult in spec:
        classes[(float(lam), int(sign))] = classes.get((float(lam), int(sign)), 0) + int(mult)
    return OrderedDict(sorted(classes.items(), key=lambda kv: (kv[0][0], -kv[0][1])))


def expected_pair(spec, gamma: float | None = None) -> dict:
    """Every checked report field for a synthesized compatible pair."""
    classes = merged_classes(spec)
    n = sum(classes.values())
    per_lambda: dict[float, int] = {}
    for (lam, _), m in classes.items():
        per_lambda[lam] = per_lambda.get(lam, 0) + m
    ranks = list(classes.values())
    distinct = len(classes)
    out = {
        "exit": 0,
        "admissible": {"triple1": True, "triple2": True},
        "compatible": True,
        "blocks": [(lam, s, 2 * m) for (lam, s), m in classes.items()],
        "generic.real": all(m == 1 for m in ranks),
        "generic.operator": all(p == 1 for p in per_lambda.values()),
        "signature_complex": "×".join(f"U({r})" for r in ranks),
        "signature_real": ("×".join("SO(2)" for _ in ranks) if all(r == 1 for r in ranks)
                           else "×".join(f"U_r({2 * r};g,ω)" for r in ranks)),
        "algebra_dim": sum(m * m for m in ranks),
        "recursion": {"rank": distinct, "expected_rank": n,
                      "distinct_t_eigenvalues": distinct, "vandermonde_consistent": True,
                      "preserves_all": True, "commute": True, "all_pass": distinct == n},
        "pencil_range": -1.0 / max(per_lambda),
        "operator": {"eigenvalues": sorted(lam for lam, p in per_lambda.items()
                                           for _ in range(p)),
                     "commutant_dim": sum(p * p for p in per_lambda.values()),
                     "bicommutant_dim": len(per_lambda),
                     "sign_pattern": [s for (_, s), m in classes.items() for _ in range(m)]},
    }
    if gamma is not None:
        out["pencil_member"] = {
            "gamma": gamma,
            "admissible": all(s == 1 for (_, s) in classes),
            "blocks": [(lam, s, 2 * m, s == 1,
                        -((1 + gamma * s * lam) / (1 + gamma * lam)) ** 2)
                       for (lam, s), m in classes.items()],
        }
    return out


def expected_single() -> dict:
    return {"exit": 0, "admissible": {"triple1": True}, "compatible": None, "blocks": None}


def expected_incompatible() -> dict:
    return {"exit": 1, "admissible": {"triple1": True, "triple2": True},
            "compatible": False, "blocks": None}


def expected_malformed() -> dict:
    return {"exit": 2}


def _close(a, b, rel: float = REL) -> bool:
    return (isinstance(a, (int, float)) and not isinstance(a, bool)
            and math.isfinite(a) and abs(a - b) <= rel * max(1.0, abs(b)))


def _compare_pair(exp: dict, report: dict) -> tuple[list[str], list[str]]:
    """Mismatches of non-null fields, and expected fields the report left null."""
    bad: list[str] = []
    missing: list[str] = []

    def field(name, value, ok) -> None:
        if value is None:
            missing.append(name)
        elif not ok(value):
            bad.append(f"{name}={value!r}")

    field("admissible", report.get("admissible"), lambda v: v == exp["admissible"])
    field("compatible", report.get("compatible"), lambda v: v == exp["compatible"])
    field("blocks", report.get("blocks"), lambda v: len(v) == len(exp["blocks"]) and all(
        _close(b.get("lambda"), lam) and b.get("sign") == s and b.get("dim") == d
        for b, (lam, s, d) in zip(v, exp["blocks"])))
    generic = report.get("generic") or {}
    field("generic.real", generic.get("real"), lambda v: v == exp["generic.real"])
    field("generic.operator", generic.get("operator"), lambda v: v == exp["generic.operator"])
    for key in ("signature_complex", "signature_real", "algebra_dim"):
        field(key, report.get(key), lambda v, key=key: v == exp[key])
    field("recursion", report.get("recursion"),
          lambda v: all(v.get(k) == x for k, x in exp["recursion"].items()))
    field("pencil_range", report.get("pencil_range"),
          lambda v: _close(v[0], exp["pencil_range"]) and v[1] is None)
    op = (report.get("residuals") or {}).get("operator")
    field("operator", op, lambda v: (
        len(v.get("eigenvalues", [])) == len(exp["operator"]["eigenvalues"])
        and all(_close(a, b) for a, b in zip(v["eigenvalues"], exp["operator"]["eigenvalues"]))
        and all(v.get(k) == exp["operator"][k]
                for k in ("commutant_dim", "bicommutant_dim", "sign_pattern"))))
    if "pencil_member" in exp:
        pm = exp["pencil_member"]
        field("pencil_member", report.get("pencil_member"), lambda v: (
            v.get("gamma") == pm["gamma"] and v.get("admissible") == pm["admissible"]
            and len(v.get("blocks", [])) == len(pm["blocks"])
            and all(_close(b.get("lambda"), lam) and b.get("sign") == s and b.get("dim") == d
                    and b.get("admissible") == adm and _close(b.get("jsq_coefficient"), c)
                    for b, (lam, s, d, adm, c) in zip(v["blocks"], pm["blocks"]))))
    return bad, missing


def judge(exp: dict, code: int, report: dict | None) -> tuple[str, str]:
    """Classify one result as ``ok``, ``failed`` or ``wrong``, with a reason."""
    if exp["exit"] == 2:
        if code == 2 and report is None:
            return "ok", ""
        return "wrong", f"malformed input gave exit {code}"
    if report is None:
        return "wrong", f"exit {code} without a report"
    if "algebra_dim" not in exp:  # single triple or incompatible pair
        bad = [k for k in ("admissible", "compatible", "blocks") if report.get(k) != exp[k]]
        if code != exp["exit"]:
            bad.append(f"exit {code}")
        return ("wrong", ", ".join(bad)) if bad else ("ok", "")
    bad, missing = _compare_pair(exp, report)
    if bad:
        return "wrong", ", ".join(bad)
    if code == 0 and not missing:
        return "ok", ""
    error = (report.get("residuals") or {}).get("pipeline_error")
    if code == 1 and error:
        return "failed", f"pipeline error: {error}"
    return "wrong", f"exit {code}, null fields {missing}"


def ideal_report(exp: dict) -> dict:
    """The report a correct program would print for a pair expectation."""
    report = {
        "admissible": dict(exp["admissible"]), "compatible": exp["compatible"],
        "blocks": [{"lambda": lam, "sign": s, "dim": d} for lam, s, d in exp["blocks"]],
        "generic": {"real": exp["generic.real"], "operator": exp["generic.operator"]},
        "signature_complex": exp["signature_complex"],
        "signature_real": exp["signature_real"],
        "algebra_dim": exp["algebra_dim"],
        "recursion": dict(exp["recursion"]),
        "pencil_range": [exp["pencil_range"], None],
        "residuals": {"operator": {k: list(v) if isinstance(v, list) else v
                                   for k, v in exp["operator"].items()}},
    }
    if "pencil_member" in exp:
        pm = exp["pencil_member"]
        report["pencil_member"] = {
            "gamma": pm["gamma"], "admissible": pm["admissible"],
            "blocks": [{"lambda": lam, "sign": s, "dim": d, "admissible": adm,
                        "jsq_coefficient": c} for lam, s, d, adm, c in pm["blocks"]]}
    return report


def self_test() -> list[str]:
    """Check that the oracle accepts a right report and rejects wrong ones.

    Returns the problems found (empty when the oracle behaves).
    """
    problems = []
    exp = expected_pair([(2.0, 1, 2), (3.0, -1, 1), (3.0, 1, 1)], gamma=0.5)
    good = ideal_report(exp)
    if judge(exp, 0, good)[0] != "ok":
        problems.append(f"right report rejected: {judge(exp, 0, good)[1]}")

    def mutated(edit):
        r = copy.deepcopy(good)
        edit(r)
        return r

    wrong_reports = {
        "block dim": mutated(lambda r: r["blocks"][0].update(dim=2)),
        "block sign": mutated(lambda r: r["blocks"][1].update(sign=-1)),
        "block lambda": mutated(lambda r: r["blocks"][0].update({"lambda": 2.001})),
        "signature": mutated(lambda r: r.update(signature_complex="U(1)×U(1)×U(2)")),
        "algebra_dim": mutated(lambda r: r.update(algebra_dim=r["algebra_dim"] + 1)),
        "commutant_dim": mutated(lambda r: r["residuals"]["operator"].update(commutant_dim=6)),
        "bicommutant_dim": mutated(lambda r: r["residuals"]["operator"].update(bicommutant_dim=3)),
        "recursion rank": mutated(lambda r: r["recursion"].update(rank=4)),
        "generic.operator": mutated(lambda r: r["generic"].update(operator=True)),
        "compatible": mutated(lambda r: r.update(compatible=False)),
        "pencil coefficient": mutated(
            lambda r: r["pencil_member"]["blocks"][2].update(jsq_coefficient=-1.0)),
    }
    for name, report in wrong_reports.items():
        if judge(exp, 0, report)[0] != "wrong":
            problems.append(f"wrong {name} accepted")
    if judge(exp, 1, good)[0] != "wrong":
        problems.append("exit 1 on a right report accepted")
    declared = mutated(lambda r: (r.update(algebra_dim=None, recursion=None),
                                  r["residuals"].update(pipeline_error="overflow")))
    if judge(exp, 1, declared)[0] != "failed":
        problems.append("declared pipeline failure not classed as failed")
    if judge(exp, 0, declared)[0] != "wrong":
        problems.append("exit 0 with null fields accepted")
    if judge(expected_malformed(), 0, good)[0] != "wrong":
        problems.append("exit 0 on malformed input accepted")
    if judge(expected_incompatible(), 1, {"admissible": {"triple1": True, "triple2": True},
                                          "compatible": True, "blocks": None})[0] != "wrong":
        problems.append("incompatible pair reported compatible accepted")
    return problems


if __name__ == "__main__":
    import sys
    found = self_test()
    for line in found:
        print(f"oracle self-test: {line}")
    print("oracle self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
