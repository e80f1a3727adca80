#!/usr/bin/env python3
"""Benchmark of the biham package: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py``):

* ``cli-startup``: sequential ``python -m biham`` processes on small
  documents, every subcommand and exit code;
* ``generic-scan``: in-process ``cli.analyze`` on generic pairs, dims 8-32;
* ``degenerate-scan``: in-process ``cli.analyze`` on pairs with two and
  three block classes, dims 16 and 24.

Each run is a closed loop with one client: it sweeps the workload's
documents, with inputs drawn from ``--seed``, for as many whole sweeps as
fit in ``--seconds`` (at least one).  Every result is checked against ground
truth derived from how its input was built (``oracle.py``).  With
``--trace 0`` the last line holds the end-to-end metrics, with latencies
relative to a reference timed around each visit (see ``relative``); with
``--trace 1`` each sweep runs untraced, then with spans, then with
allocation peaks, and the last line holds the per-layer metrics.  Spans go to
``.bench_out/spans/`` and every result, with its run metadata, is appended
to ``.bench_out/results.jsonl``.
"""

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

IMPORT_PROBE = (
    "import json, sys, time\n"
    "n0 = len(sys.modules); t0 = time.perf_counter()\n"
    "import biham\n"
    "t1 = time.perf_counter()\n"
    "print(json.dumps({'import_s': t1 - t0, 'modules_loaded': len(sys.modules) - n0,"
    " 'scipy_loaded': sum(1 for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
)


@dataclass
class Visit:
    """One analysis of one document of the run's set."""

    index: int        # the document's position in the set
    label: str
    latency_s: float  # the analysis itself: one CLI process, or one analyze() call
    ref_s: float      # the host's reference job, timed just before and after it
    status: str       # ok, failed or wrong (see oracle.judge)
    reason: str


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd, workdir: Path) -> tuple[int, str, str, float, float]:
    """Run a child to completion: exit code, stdout, stderr, wall s, peak RSS MB."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"), wall,
            usage.ru_maxrss / 1024.0)


def import_probes(workdir: Path) -> list[dict]:
    """`import biham` in fresh interpreters: one untimed warm-up, then repeats."""
    probes = []
    for i in range(SETUP_REPEATS + 1):
        code, out, err, _, _ = spawn([sys.executable, "-c", IMPORT_PROBE], workdir)
        if code != 0:
            raise RuntimeError(f"import biham failed: {err.strip()}")
        if i:
            probes.append(json.loads(out))
    return probes


def interpreter_floor(workdir: Path) -> float:
    return spawn([sys.executable, "-c", "pass"], workdir)[3]


class ReferenceJob:
    """A fixed numeric job of the scans' kind: LAPACK factorizations of a
    Kronecker product and of a symmetric matrix, plus pure-Python work.  Its
    inputs are built once and do not depend on --seed or on biham; its wall
    time, taken around every scan visit, is that visit's reference (see
    ``relative``)."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 16))
        s = rng.standard_normal((128, 128))
        self.np, self.kron, self.sym = np, np.kron(a, a.T), s + s.T

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.np.linalg.svd(self.kron)
        self.np.linalg.eigh(self.sym)
        sum(i * i for i in range(40000))
        return time.perf_counter() - t0


# -- scans -----------------------------------------------------------------

def scan_pass(items, workdir: Path, tracer=None, tag: str = "") -> tuple[list, float]:
    """Synthesize, load and analyze the documents of one sweep in-process."""
    from biham import cli

    visits, reference = [], ReferenceJob()
    start = time.perf_counter()
    for k, (i, doc, seed, gamma) in enumerate(items):
        path = str(workdir / f"doc{i}.json")
        if tracer is not None:
            tracer.doc = f"{tag}d{i}v{k}"
        workloads.write_input(doc, seed, path)
        before = reference()
        t1 = time.perf_counter()
        try:
            loaded = cli.load_document(path)
            t1 = time.perf_counter()
            report, code = cli.analyze(loaded, gamma=gamma)
        except Exception as err:  # noqa: BLE001  (any exception breaks the exit-code contract)
            report, code = None, f"raised {type(err).__name__}: {err}"
        t2 = time.perf_counter()
        ref = (before + reference()) / 2.0
        if report is None:
            status, reason = "wrong", code
        else:
            status, reason = oracle.judge(workloads.expectation(doc, gamma), code, report)
        visits.append(Visit(i, doc.label, t2 - t1, ref, status, reason))
    return visits, time.perf_counter() - start


# -- cli-startup -------------------------------------------------------------

def cli_pass(items, workdir: Path, tracer=None, tag: str = "") -> tuple[list, float, float]:
    """One `biham` process per document (with a tracer, the traced stand-in),
    each between two bare interpreter starts, its reference.  Returns the
    visits, the sweep's wall time and the peak RSS of the CLI processes."""
    visits, peak_rss = [], 0.0
    span_file = workdir / "spans.jsonl"
    start = time.perf_counter()
    floor = interpreter_floor(workdir)
    for k, (i, doc, seed, gamma) in enumerate(items):
        path = str(workdir / f"doc{i}.json")
        workloads.write_input(doc, seed, path)
        if doc.kind == "synth":
            argv = workloads.synth_argv(doc.spec, seed, path)
        else:
            argv = [doc.argv[0], path, *doc.argv[1:]]
            if gamma is not None:
                argv.append(repr(gamma))
        span_file.unlink(missing_ok=True)
        if tracer is None:
            cmd = [sys.executable, "-m", "biham", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "tracechild.py"), str(span_file),
                   f"{tag}v{k}.", str(int(tracer.memory)), *argv]
        code, out, err, wall, rss = spawn(cmd, workdir)
        peak_rss = max(peak_rss, rss)
        if doc.kind == "synth":
            problem = workloads.check_synth_output(doc.spec, path) if code == 0 else f"exit {code}"
            status, reason = ("wrong", problem) if problem else ("ok", "")
        else:
            try:
                report = json.loads(out) if out.strip() else None
            except ValueError:
                status, reason = "wrong", f"unparseable report: {out[:80]!r}"
            else:
                status, reason = oracle.judge(workloads.expectation(doc, gamma), code, report)
        if code == 2 and status == "ok" and not err.startswith("error:"):
            status, reason = "wrong", f"exit 2 without an error message: {err[:80]!r}"
        t2 = time.perf_counter()
        after = interpreter_floor(workdir)
        visits.append(Visit(i, doc.label, wall, (floor + after) / 2.0, status, reason))
        floor = after
        if tracer is not None:
            tracer.doc = f"{tag}d{i}v{k}"
            t1 = time.perf_counter()
            process = tracer.add("cli.process", t1 - wall, t1, label=doc.label)
            written = span_file.read_text(encoding="utf-8") if span_file.exists() else ""
            for line in written.splitlines():  # spans from tracechild.py
                span = json.loads(line)
                span.update(doc=tracer.doc, parent=span["parent"] or process)
                tracer.spans.append(span)
            tracer.add("cli.interpreter", t2, t2 + after)
    return visits, time.perf_counter() - start, peak_rss


# -- the run -----------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Sweep the workload's documents while another sweep, as long as the last
    one, still ends within ``seconds``; at least once.  Traced, each sweep
    runs untraced, then with spans, then with allocation peaks."""
    rng = random.Random(seed)
    docs = workloads.DOCUMENTS[name]
    seeds = [rng.randrange(2 ** 31) for _ in docs]
    gammas = [workloads.pencil_gamma(doc.spec, rng) if doc.argv[0] == "pencil" else doc.gamma
              for doc in docs]
    items = [(i, doc, seeds[i] if doc.seed is None else doc.seed, gammas[i])
             for i, doc in enumerate(docs)]
    tracers = (None, tracing.Tracer(), tracing.Tracer(memory=True)) if trace else (None,)
    visits, overheads, peak_rss, sweeps = [], [], 0.0, 0
    start = time.perf_counter()
    while True:
        sweep_start = time.perf_counter()
        walls = []
        for p, tracer in enumerate(tracers):
            tag = f"s{sweeps}p{p}"
            if name == "cli-startup":
                res, wall, rss = cli_pass(items, workdir, tracer, tag)
                if tracer is None:
                    peak_rss = max(peak_rss, rss)
            else:
                if tracer is not None:
                    tracer.install()
                try:
                    res, wall = scan_pass(items, workdir, tracer, tag)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
            visits.extend(res)
            walls.append(wall)
        if trace:
            overheads.append(walls[1] - walls[0])
        sweeps += 1
        now = time.perf_counter()
        if now + (now - sweep_start) - start > seconds:  # the next sweep would overrun
            break
    if name != "cli-startup":
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return visits, sweeps, peak_rss, tracers[1:], overheads


def fastest(visits: list) -> dict[int, float]:
    """Each document's fastest visit, in seconds (reported beside the metrics)."""
    best: dict[int, float] = {}
    for v in visits:
        best[v.index] = min(best.get(v.index, math.inf), v.latency_s)
    return best


def relative(visits: list) -> dict[int, float]:
    """Each document's latency relative to the host: the median over its
    visits of latency / reference.  The host this was tuned on (2 shared
    vCPUs) changes speed by up to 1.5x for seconds to minutes at a time, so
    whole runs can land in a slow spell and their seconds read 20-40% high;
    the reference, timed next to each visit, slows with the visit, and the
    ratio stays put."""
    ratios: dict[int, list] = {}
    for v in visits:
        ratios.setdefault(v.index, []).append(v.latency_s / v.ref_s)
    return {i: statistics.median(r) for i, r in ratios.items()}


def latency_stats(per_doc: dict[int, float]) -> dict:
    """Median and tail over the run's documents.  The tail is the highest
    percentile with TAIL_BEYOND documents beyond it, or the maximum when
    there are too few documents for one."""
    ranked = sorted(per_doc.values())
    n = len(ranked)
    p50 = (ranked[(n - 1) // 2] + ranked[n // 2]) / 2.0
    beyond = TAIL_BEYOND if n >= 2 * TAIL_BEYOND else 0
    return {"p50": p50, "tail": ranked[n - beyond - 1], "n": n, "beyond": beyond,
            "tail_percentile": round(100.0 * (n - beyond) / n, 2)}


def end_to_end(visits, setup_s: float, peak_rss: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics, the sample counts behind them, and the same
    latencies in seconds (each document at its fastest visit)."""
    rel = latency_stats(relative(visits))
    wall = latency_stats(fastest(visits))
    values = {
        "latency_p50_rel": (rel["p50"], "x"),
        "latency_tail_rel": (rel["tail"], "x"),
        "ok_ratio": (sum(v.status == "ok" for v in visits) / len(visits), "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (setup_s, "s"),
    }
    per_doc = {"n": rel["n"], "visits_per_document": len(visits) / rel["n"]}
    samples = {"latency_p50_rel": {**per_doc, "percentile": 50.0},
               "latency_tail_rel": {**per_doc, "percentile": rel["tail_percentile"],
                                    "beyond": rel["beyond"]},
               "setup_s": {"n": SETUP_REPEATS, "percentile": 50.0}}
    seconds = {"latency_p50_s": wall["p50"], "latency_tail_s": wall["tail"],
               "reference_s": statistics.median(v.ref_s for v in visits)}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, samples, seconds


def per_layer(tracers, sweeps: int, probes: list, floor_s: float, overheads: list,
              workload: str) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run; busy time and counts are per sweep."""
    tracer, memory = tracers
    totals = tracing.layer_totals(tracer.spans)
    peaks = tracing.layer_totals(memory.spans)
    out = {}
    for module, function in tracing.TRACED:
        name = f"{module}.{function}"
        row = totals[name]
        out[f"{name}.busy_s"] = (row["busy_s"] / sweeps, "s")
        out[f"{name}.calls"] = (row["calls"] / sweeps, "count")
        out[f"{name}.failed"] = (row["failed"] / sweeps, "count")
        if name in tracing.HEAVY:
            out[f"{name}.peak_alloc_mb"] = (peaks[name]["peak_alloc_mb"], "MB")
    if workload == "cli-startup":
        # every document is a process that starts an interpreter and imports
        import_s = totals["import.biham"]["busy_s"] / sweeps
        interp_s = totals["cli.interpreter"]["busy_s"] / sweeps
    else:
        # the scan process starts and imports once; setup measured both
        import_s = statistics.median(p["import_s"] for p in probes)
        interp_s = floor_s
    out["import.biham.busy_s"] = (import_s, "s")
    for key in ("modules_loaded", "scipy_loaded"):
        out[f"import.biham.{key}"] = (statistics.median(p[key] for p in probes), "count")
    out["cli.interpreter.busy_s"] = (interp_s, "s")
    out["trace.overhead_s"] = (statistics.mean(overheads), "s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
    return metrics, stage_shares(tracer, workload)


def stage_shares(tracer, workload: str) -> dict:
    """Where the traced wall time went: for scans, the share of cli.analyze
    spent in each module's stages (inclusive); for cli-startup, the share of
    process wall spent importing, in cli.main, and starting a bare interpreter."""
    spans = tracer.spans
    if workload == "cli-startup":
        wall = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.process")
        parts = {}
        for s in spans:
            if s["name"] in ("import.biham", "cli.main", "cli.interpreter"):
                parts[s["name"]] = parts.get(s["name"], 0.0) + s["end"] - s["start"]
        return {k: v / wall for k, v in parts.items()}
    analyze = {s["id"]: s["end"] - s["start"] for s in spans if s["name"] == "cli.analyze"}
    total = sum(analyze.values())
    parts = {}
    for s in spans:
        if s["parent"] in analyze:
            module = s["name"].split(".")[0]
            parts[module] = parts.get(module, 0.0) + s["end"] - s["start"]
    return {k: v / total for k, v in sorted(parts.items(), key=lambda kv: -kv[1])}


def run_metadata(args, sweeps: int, n_visits: int, samples: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "biham").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (ImportError, KeyError, TypeError):
        blas = None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas, "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "machine": platform.machine(),
        "sweeps": sweeps, "visits": n_visits, "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-startup", "generic-scan",
                                                              "degenerate-scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biham" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC / 'biham'}; "
                         "run from a biham checkout\n")
        return 2
    problems = oracle.self_test()
    if problems:
        sys.stderr.write("error: oracle self-test failed: " + "; ".join(problems) + "\n")
        return 1
    sys.path.insert(0, str(SRC))

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{run_id}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = import_probes(workdir)
        setup_s = statistics.median(p["import_s"] for p in probes)
        floor_s = (statistics.median(interpreter_floor(workdir) for _ in range(SETUP_REPEATS))
                   if args.trace else None)
        import biham.cli  # noqa: F401  (loaded before the tracer wraps its functions)

        visits, sweeps, peak_rss, tracers, overheads = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = {s: sum(v.status == s for v in visits) for s in ("ok", "failed", "wrong")}
    e2e, samples, seconds = end_to_end(visits, setup_s, peak_rss)
    meta = run_metadata(args, sweeps, len(visits), samples)
    print(f"biham benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  sweeps {sweeps}, visits {len(visits)} of {samples['latency_p50_rel']['n']} documents: "
          f"{counts['ok']} ok, {counts['failed']} failed, {counts['wrong']} wrong")
    for reason in sorted({f"{v.label}: {v.status}: {v.reason}" for v in visits
                          if v.status != "ok"})[:5]:
        print(f"  {reason[:160]}")
    n_bad = counts["failed"] + counts["wrong"]
    labels = {v.index: v.label for v in visits}
    best = fastest(visits)
    by_time = sorted(best.items(), key=lambda kv: kv[1])
    print("  fastest visit per document: "
          + ", ".join(f"{labels[i]} {t:.3f}" for i, t in by_time))
    detail = {"failed_ratio": n_bad / len(visits), **seconds,
              "fastest_s": {f"{labels[i]}#{i}": t for i, t in best.items()}}
    if args.trace:
        metrics, shares = per_layer(tracers, sweeps, probes, floor_s, overheads, args.workload)
        detail["stage_shares"] = shares
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracers[0].dump(spans_dir / f"{run_id}.jsonl")
        for key in sorted(metrics):
            print(f"  {key:<46} {metrics[key]['value']:>12.6g} {metrics[key]['unit']}")
        print("  stage shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    else:
        metrics = e2e
        for key, m in metrics.items():
            note = samples.get(key, {})
            note = f"  (p{note['percentile']:g} of n={note['n']})" if "percentile" in note else ""
            print(f"  {key:<16} {m['value']:>12.6g} {m['unit']}{note}")
        print(f"  {'failed_ratio':<16} {detail['failed_ratio']:>12.6g} ratio"
              f"  ({n_bad} of {len(visits)})")
        for key, value in seconds.items():
            print(f"  {key:<16} {value:>12.6g} s  (not a metric: seconds on this host)")
    result = {"correct": counts["wrong"] == 0, "attempted": len(visits),
              "failed": n_bad, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta, "detail": detail, "result": result}) + "\n")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
