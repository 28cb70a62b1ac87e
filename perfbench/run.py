"""dacr benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-oneshot|control-loop|backbone-export \
        --seed N --seconds S --trace 0|1

One client drives dacr in a closed loop: the next request starts when
the previous one has returned, and never more than one child process
runs at a time. Every output is checked against an independent NumPy
reference (see oracle.py). With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it measures half the time
untraced and half traced and reports the per-layer metrics. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import stats
from speed import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
SETUP_REPS = 5
STARTUP_REPS = 5
WORKLOADS = ("cli-oneshot", "control-loop", "backbone-export")
SEVERITY = (checks.OK, checks.FAILED, checks.WRONG)


@dataclass
class Phase:
    """One closed-loop measurement."""

    wall_ns: list[int] = field(default_factory=list)
    cpu_ns: list[int] = field(default_factory=list)  # calling thread's CPU time
    factors: list[float] = field(default_factory=list)  # speed factor per op
    outcomes: dict = field(default_factory=dict)  # pool index -> worst verdict
    busy_s: float = 0.0  # wall time minus time spent checking and probing

    @property
    def throughput(self) -> float:
        return len(self.wall_ns) / self.busy_s

    @property
    def mean_factor(self) -> float:
        """Speed factor averaged over the busy time."""
        return sum(w * f for w, f in zip(self.wall_ns, self.factors)) / sum(self.wall_ns)

    def latencies(self, wl) -> list[int]:
        """Per-op latency: the op's CPU time for in-process workloads,
        whose ops never block, so that preemption by other tenants of a
        shared machine (spikes of up to ~10 ms) does not set the tail;
        wall time for workloads that wait on a child process."""
        return self.cpu_ns if wl.in_process else self.wall_ns


def closed_loop(wl, seconds: float, run, first_op: int = 0, on_op=None, after=None) -> Phase:
    """Run ops back to back until ``seconds`` have passed, the whole pool
    has run at least once and a round is complete. Checking, ``after``
    and speed probes are timed apart and excluded from the busy time."""
    phase = Phase()
    probe = SpeedProbe(wl.speed_kernel)
    probe.warm()
    clock, cpu = time.perf_counter_ns, time.thread_time_ns
    aside = 0
    start = clock()
    deadline = start + int(seconds * 1e9)
    i = 0
    while i < len(wl.ops) or i % wl.round_len or clock() < deadline:
        index = i % len(wl.ops)
        op = wl.ops[index]
        if on_op is not None:
            on_op(first_op + i)
        t0 = clock()
        probe.update()
        before = probe.factor
        t1 = clock()
        c1 = cpu()
        result = run(op)
        c2 = cpu()
        t2 = clock()
        phase.cpu_ns.append(c2 - c1)
        phase.wall_ns.append(t2 - t1)
        probe.update()  # a long op gets the mean of the speeds around it
        phase.factors.append((before + probe.factor) / 2)
        aside += t1 - t0
        phase.outcomes[index] = worst(phase.outcomes.get(index, checks.OK), wl.check(op, result))
        if after is not None:
            after(first_op + i, op, result, phase.wall_ns[-1])
        aside += clock() - t2
        i += 1
    phase.busy_s = (clock() - start - aside) / 1e9
    return phase


def worst(a: str, b: str) -> str:
    return max(a, b, key=SEVERITY.index)


def settle() -> None:
    """The pools are the benchmark's data, not the program's: keep the
    cyclic collector from scanning them during measurement."""
    gc.collect()
    gc.freeze()


def load_workload(name: str, seed: int, workdir: Path):
    if name == "cli-oneshot":
        import cli_oneshot as module
    elif name == "control-loop":
        import control_loop as module
    else:
        import backbone_export as module
    return module.Workload(ROOT, seed, workdir)


def timed_setups(wl) -> tuple[float, float]:
    """Set up SETUP_REPS times; the median in seconds, normalised and raw."""
    probe = SpeedProbe(wl.speed_kernel)
    times, raw = [], []
    for _ in range(SETUP_REPS):
        probe.warm()
        t0 = time.perf_counter()
        wl.setup()
        raw.append(time.perf_counter() - t0)
        times.append(raw[-1] * probe.factor)
    return statistics.median(times), statistics.median(raw)


def startup_split(env: dict) -> dict:
    """startup.* from separate child processes: a bare interpreter,
    ``import numpy`` and ``import dacr.cli``, interleaved; the medians'
    differences, in ms."""
    codes = {"bare": "pass", "numpy": "import numpy", "dacr": "import dacr.cli"}
    times = {k: [] for k in codes}
    for _ in range(STARTUP_REPS):
        for key, code in codes.items():
            t0 = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times[key].append(time.perf_counter_ns() - t0)
    med = {k: statistics.median(v) / 1e6 for k, v in times.items()}
    return {
        "startup.interpreter_ms": (med["bare"], "ms"),
        "startup.import_numpy_ms": (med["numpy"] - med["bare"], "ms"),
        "startup.import_dacr_ms": (med["dacr"] - med["numpy"], "ms"),
    }


def end_to_end(wl, phase: Phase, setup: tuple[float, float]) -> tuple[dict, dict, dict]:
    """Normalised end-to-end metrics (see speed.py), the raw values, and
    the record of the tail percentile."""
    raw_lat = phase.latencies(wl)
    lat = [x * f for x, f in zip(raw_lat, phase.factors)]
    tail, pct = stats.tail(lat)
    tail_record = {
        "percentile": pct,
        "samples": len(lat),
        "beyond": stats.TAIL_BEYOND,
        "clock": "thread CPU time" if wl.in_process else "wall",
    }
    metrics = {
        "setup_s": (setup[0], "s"),
        "latency_ms_p50": (statistics.median(lat) / 1e6, "ms"),
        "latency_ms_tail": (tail / 1e6, "ms"),
        "throughput_per_s": (phase.throughput / phase.mean_factor, "1/s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    raw = {
        "setup_s": setup[1],
        "latency_ms_p50": statistics.median(raw_lat) / 1e6,
        "latency_ms_tail": stats.tail(raw_lat)[0] / 1e6,
        "throughput_per_s": phase.throughput,
        "speed_factor_median": statistics.median(phase.factors),
    }
    return metrics, raw, tail_record


def traced(wl, seconds: float, name: str) -> tuple[dict, list[Phase]]:
    untraced = closed_loop(wl, seconds / 2, wl.run)
    tracer = Tracer()
    latencies: dict[int, int] = {}
    in_bytes, out_bytes = [], []

    def after(i, op, result, latency_ns):
        latencies[i] = latency_ns
        in_bytes.append(getattr(op, "input_bytes", 0))
        out_bytes.append(wl.output_bytes(result))
        spans = result[-1] if isinstance(result, tuple) and isinstance(result[-1], Path) else None
        if spans is not None and spans.exists():
            with open(spans, encoding="utf-8") as fh:
                tracer.merge(json.load(fh))
            spans.unlink()

    def on_op(i):
        tracer.current_op = i

    if wl.in_process:
        tracer.install()
        wl.setup()  # op 0: traced set-up, so validation and pair builds are seen
        settle()
    try:
        phase = closed_loop(wl, seconds / 2, wl.run_traced, first_op=1, on_op=on_op, after=after)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(latencies)
    metrics["io.input_bytes"] = (statistics.median(in_bytes), "bytes")
    metrics["io.output_bytes"] = (statistics.median(out_bytes), "bytes")
    metrics["trace.overhead_ratio"] = (
        (phase.throughput / phase.mean_factor) / (untraced.throughput / untraced.mean_factor), "ratio")
    metrics.update(startup_split(dict(os.environ, PYTHONPATH=str(ROOT / "src"))))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{name}.npz")
    print(f"untraced wall-time p50 = {statistics.median(untraced.wall_ns) / 1e6!r} ms")
    return metrics, [untraced, phase]


def environment(args, wl, tail) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "sizes": wl.sizes(),
        "latency_ms_tail": tail,
        "clients": 1,
        "loop": "closed",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dacr" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"perfbench: no dacr sources under {ROOT} (need src/dacr and tests/golden)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    wl = load_workload(args.workload, args.seed % 2**63, workdir)
    try:
        setup = timed_setups(wl)
        settle()
        raw, tail = {}, None
        if args.trace:
            metrics, phases = traced(wl, args.seconds, args.workload)
        else:
            phase = closed_loop(wl, args.seconds, wl.run)
            metrics, raw, tail = end_to_end(wl, phase, setup)
            phases = [phase]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # attempted and failed count distinct requests of the pool, each run
    # at least once; a request fails if any of its runs failed. So both
    # depend on the seed and the code, not on how many rounds fit in the
    # time.
    outcomes: dict[int, str] = {}
    for p in phases:
        for index, verdict in p.outcomes.items():
            outcomes[index] = worst(outcomes.get(index, checks.OK), verdict)
    verdicts = Counter(outcomes.values())
    failures = Counter((wl.kind(wl.ops[index]), v) for index, v in outcomes.items() if v != checks.OK)
    attempted = len(outcomes)
    failed = verdicts[checks.FAILED] + verdicts[checks.WRONG]
    if args.trace:
        metrics["failed_ratio"] = (failed / attempted, "ratio")

    env = environment(args, wl, tail)
    OUT.mkdir(exist_ok=True)
    (OUT / f"env-{args.workload}.json").write_text(json.dumps(env, indent=2) + "\n", encoding="utf-8")
    print("environment: " + json.dumps(env))
    print(f"requests run: {sum(len(p.wall_ns) for p in phases)} over a pool of {len(wl.ops)}")
    for (kind, verdict), count in sorted(failures.items()):
        print(f"{verdict}: {kind} x{count}")
    for metric, value in raw.items():
        print(f"raw {metric} = {value!r}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value!r} {unit}")
    print(json.dumps({
        "correct": verdicts[checks.WRONG] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
