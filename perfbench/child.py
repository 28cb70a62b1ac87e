"""Traced stand-in for ``python -m dacr``, used by cli-oneshot's traced run.

Usage: ``PERFBENCH_SPANS=<file> PYTHONPATH=src python perfbench/child.py
<dacr arguments>``. Times ``import numpy`` and ``import dacr.cli`` as
spans, wraps dacr's public functions, runs ``dacr.cli.main`` and, at
exit, writes every span to the file named by PERFBENCH_SPANS. An
exception that escapes ``main`` still prints its traceback and exits 1,
as ``python -m dacr`` does.
"""

import os
import sys
import time

t0 = time.perf_counter_ns()
import numpy  # noqa: E402,F401

t1 = time.perf_counter_ns()
import dacr.cli  # noqa: E402

t2 = time.perf_counter_ns()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import json  # noqa: E402

from tracer import Tracer  # noqa: E402


def _main() -> int:
    tracer = Tracer()
    tracer.add_span("startup.import_numpy", t0, t1)
    tracer.add_span("startup.import_dacr", t1, t2)
    tracer.install()
    try:
        return dacr.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(_main())
