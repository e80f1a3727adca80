#!/usr/bin/env python3
"""Compare two sets of benchmark results, a parent commit's and a change's.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are ``results.jsonl`` files written by ``bench/run.py``
(or directories holding one).  Runs are paired by workload, trace mode and
seed.  For each workload and metric the table gives each side's median and
quartiles, the pairs the change won, and a verdict:

* ``improved``: the change wins at least 9 of every 10 pairs (ties count
  for neither) and the medians differ, in the better direction, by more
  than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json`` (per-layer metrics, which have
  no bound: loses 9 of 10 pairs by more than the parent's spread);
* ``unresolved``: either side's interquartile range exceeds the bound, and
  not every change run beats every parent run;
* ``unchanged`` otherwise.

A gain does not count when the change fails more documents than the
parent; such a metric reads ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

WIN_SHARE = 0.9


def load(path: str) -> dict:
    """{(workload, trace): {seed: result}} from a results file."""
    p = Path(path)
    if p.is_dir():
        p = p / "results.jsonl"
    runs: dict = defaultdict(dict)
    with open(p, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                meta = rec["meta"]
                runs[(meta["workload"], meta["trace"])][meta["seed"]] = rec["result"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict, change: dict, better: str, bound: float | None,
            more_failures: bool) -> tuple[str, str]:
    """Verdict for one metric from {seed: value} of each side."""
    sign = -1.0 if better == "lower" else 1.0
    p_vals, c_vals = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    losses = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    won = f"{wins}/{len(seeds)}"
    gain = sign * (cm - pm)
    spread = p3 - p1
    scale = abs(pm) or 1.0
    if bound is not None and ((p3 - p1) / scale > bound or (c3 - c1) / (abs(cm) or 1.0) > bound):
        if min(sign * c for c in c_vals) > max(sign * p for p in p_vals) and not more_failures:
            return "improved", won
        return "unresolved", won
    if seeds and wins >= WIN_SHARE * len(seeds) and gain > spread:
        return ("unresolved" if more_failures else "improved"), won
    if bound is not None:
        return ("worse" if -gain > bound * scale else "unchanged"), won
    if seeds and losses >= WIN_SHARE * len(seeds) and -gain > spread:
        return "worse", won
    return "unchanged", won


def cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def failed_share(runs: dict) -> float:
    attempted = sum(r["attempted"] for r in runs.values())
    return sum(r["failed"] for r in runs.values()) / attempted if attempted else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':<16} {'metric':<46} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>6}  verdict")
    for key in sorted(parent.keys() & change.keys()):
        p_runs, c_runs = parent[key], change[key]
        p_fail, c_fail = failed_share(p_runs), failed_share(c_runs)
        wrong = [side for side, runs in (("parent", p_runs), ("change", c_runs))
                 if not all(r["correct"] for r in runs.values())]
        print(f"{key[0]} trace={key[1]}: failed share parent {p_fail:.4f}, change {c_fail:.4f}"
              + (f"; incorrect output on: {', '.join(wrong)}" if wrong else ""))
        names = sorted({m for r in p_runs.values() for m in r["metrics"]})
        for name in names:
            p = {s: r["metrics"][name]["value"] for s, r in p_runs.items() if name in r["metrics"]}
            c = {s: r["metrics"][name]["value"] for s, r in c_runs.items() if name in r["metrics"]}
            if not p or not c:
                continue
            better, bound = rules.get(name, ("lower", None))
            result, won = verdict(p, c, better, bound, c_fail > p_fail)
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            print(f"{key[0]:<16} {name:<46} {cell(pq):<34} {cell(cq):<34} {won:>6}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
