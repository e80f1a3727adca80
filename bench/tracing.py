"""Spans around the calls the benchmark makes into the biham layers.

A :class:`Tracer` replaces each traced function with a wrapper in every
``biham`` module that binds it, so calls made by ``cli.analyze`` and calls
the layers make to each other are both seen.  Each call becomes one span
``(id, name, start, end, parent, doc, failed)``; spans stay in memory until
:meth:`Tracer.dump` writes them as JSON lines.  A tracer made with
``memory=True`` also records the tracemalloc peak of each call of the four
heaviest functions (``peak_alloc_mb``); tracemalloc slows the many small
allocations of the flows severalfold, so memory is measured on a pass of
its own and its times are not used.  All timestamps come from
``time.perf_counter``, which on Linux reads the system-wide monotonic
clock, so spans written by child processes line up with the parent's.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import defaultdict

# The public functions timed, in the order cli.analyze reaches them, and
# the four whose null spaces or flows allocate most.
TRACED = (
    ("cli", "main"),
    ("cli", "load_document"),
    ("cli", "analyze"),
    ("structures", "check_admissible"),
    ("compatibility", "check_compatible"),
    ("decomposition", "decompose"),
    ("linalg", "eig_self_adjoint"),
    ("decomposition", "group_signature"),
    ("compatibility", "positivity_range"),
    ("dynamics", "recursion_basis"),
    ("dynamics", "certify_recursion"),
    ("dynamics", "conservation_probe"),
    ("dynamics", "bi_preserving_algebra"),
    ("commutant", "complexify"),
    ("commutant", "transfer_operator"),
    ("commutant", "is_generic_operator"),
    ("commutant", "commutant_dim"),
    ("commutant", "bicommutant_dim"),
    ("compatibility", "pencil_member"),
    ("decomposition", "synthesize_pair"),
)
HEAVY = frozenset({
    "dynamics.conservation_probe",
    "dynamics.bi_preserving_algebra",
    "commutant.bicommutant_dim",
    "commutant.is_generic_operator",
})
MB = float(1 << 20)


class Tracer:
    """Records one span per call of the traced functions while installed."""

    def __init__(self, id_prefix: str = "", memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.doc = None
        self._prefix = id_prefix
        self._stack: list[int] = []
        self._mem: list[list[int]] = []  # [current at entry, carried peak]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def add(self, name: str, start: float, end: float, parent=None,
            failed: bool = False, **extra) -> str:
        sid = f"{self._prefix}{len(self.spans)}"
        self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                           "parent": parent, "doc": self.doc,
                           "failed": failed, **extra})
        return sid

    def _wrap(self, name: str, fn):
        heavy = self.memory and name in HEAVY
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.spans[tracer._stack[-1]]["id"] if tracer._stack else None
            tracer.add(name, 0.0, 0.0, parent)
            tracer._stack.append(index)
            if heavy:
                tracer._mem_enter()
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                span = tracer.spans[index]
                span.update(start=start, end=end, failed=failed)
                if heavy:
                    span["peak_alloc_mb"] = tracer._mem_exit()
                tracer._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            # keep the enclosing heavy call's peak before resetting it
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, 0])

    def _mem_exit(self) -> float:
        current0, carried = self._mem.pop()
        peak = max(carried, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()
        return (peak - current0) / MB

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function wherever a loaded biham module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "biham" or n.startswith("biham."))]
        for modname, fname in TRACED:
            original = getattr(sys.modules[f"biham.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[str, float]:
    """Self time of every span: its duration minus what its children cover."""
    child_time: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time[s["id"]] for s in spans}


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per traced name: summed self time, calls, failed calls, peak allocation."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {
        f"{m}.{f}": {"busy_s": 0.0, "calls": 0, "failed": 0, "peak_alloc_mb": 0.0}
        for m, f in TRACED
    }
    for s in spans:
        row = out.setdefault(s["name"], {"busy_s": 0.0, "calls": 0, "failed": 0,
                                         "peak_alloc_mb": 0.0})
        row["busy_s"] += own[s["id"]]
        row["calls"] += 1
        row["failed"] += int(s["failed"])
        row["peak_alloc_mb"] = max(row["peak_alloc_mb"], s.get("peak_alloc_mb", 0.0))
    return out
