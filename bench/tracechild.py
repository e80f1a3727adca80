"""Traced stand-in for ``python -m biham``, used by the cli-startup traced run.

    python bench/tracechild.py SPAN_FILE ID_PREFIX MEMORY <biham arguments>

Times ``import biham`` as a fresh interpreter pays it (with the number of
modules it loads, and how many of them are scipy's), wraps the traced
functions, runs ``biham.cli.main`` on the remaining arguments, writes the
spans to SPAN_FILE and exits with the CLI's exit code.  MEMORY is 1 for the
pass that records allocation peaks.
"""

import sys
import time

n0 = len(sys.modules)
t0 = time.perf_counter()
import biham  # noqa: E402  (timed import)
t1 = time.perf_counter()
modules_loaded = len(sys.modules) - n0
scipy_loaded = sum(1 for name in sys.modules if name == "scipy" or name.startswith("scipy."))

import biham.cli  # noqa: E402  (what `python -m biham` adds to the import)
from tracing import Tracer  # noqa: E402

tracer = Tracer(id_prefix=sys.argv[2], memory=sys.argv[3] == "1")
tracer.add("import.biham", t0, t1, modules_loaded=modules_loaded, scipy_loaded=scipy_loaded)
tracer.install()
code = 1
try:
    code = biham.cli.main(sys.argv[4:])
finally:
    tracer.dump(sys.argv[1])
sys.exit(code)
