"""backbone-export: in-process ``cli.main`` with large outputs.

Why: emission (``repr`` and ``json.dumps`` of float lists) and
``arc.sample_backbone`` do most of the work, the write side of ``io``
against the small reads of cli-oneshot. A change that speeds parsing but
slows emission shows here.

Standard output is captured in memory. One round holds every request
kind once, with fixed sizes; contents (arcs, arrangements, states) come
from the seed. The pool holds ROUNDS rounds of fresh contents and the
run cycles through it.
"""

from __future__ import annotations

import contextlib
import io as _io
import resource
from pathlib import Path

from dacr import cli

import checks
import gen
from checks import Request

SAMPLE_POINTS = (10_000, 20_000, 40_000, 70_000, 100_000)
# A round is ordered by cost as: ten chain and matrix requests and the
# 10^4-point CSV sample below, three 10^4-point JSON samples (the median,
# kept inside one kind), then ten larger samples. Three 10^5-point JSON
# samples per round give the tail (10 samples beyond) a kind of its own.
SAMPLES = (
    tuple((p, f) for p in SAMPLE_POINTS for f in ("csv", "json"))
    + ((10_000, "json"),) * 2
    + ((100_000, "json"),) * 2
)
MATRIX_JOINTS = 192
ROUNDS = 3

# Chain requests: (command, coupling, segments).
CHAIN_REQUESTS = (
    ("forward", "independent", 16),
    ("forward", "independent", 64),
    ("forward", "interdependent", 16),
    ("forward", "interdependent", 64),
    ("inverse", "independent", 16),
    ("inverse", "interdependent", 16),
    ("inverse", "interdependent", 64),
)


def _round(files: gen.Files, rng) -> list[Request]:
    reqs = []
    for points, fmt in SAMPLES:
        a = gen.arc_truth(rng)
        inp, ib = files.write(a)
        reqs.append(Request(f"sample {fmt} {points}", ["sample", "--input", inp, "--points", str(points),
                                                       "--format", fmt], 0,
                            checks.expect_backbone(a, points, fmt), ib))
    for fmt in ("csv", "json"):
        seg = gen.segment(rng, "type0", False, n=MATRIX_JOINTS)
        robot, rb = files.write(gen.robot_json([seg]))
        reqs.append(Request(f"matrix {fmt} {MATRIX_JOINTS}", ["matrix", "--robot", robot, "--format", fmt], 0,
                            checks.expect_matrices(gen.mp_inv_ref(seg), fmt), rb))
    for command, coupling, count in CHAIN_REQUESTS:
        make = gen.interdependent_chain if coupling == "interdependent" else gen.independent_chain
        segs = make(rng, count)
        robot, rb = files.write(gen.robot_json(segs, coupling))
        if command == "forward":
            st = gen.chain_state(rng, segs, coupling)
            inp, ib = files.write({"convention": st["convention"], "segments": [{"values": v} for v in st["values"]]})
            check = checks.expect_chain_clarke(st["cc"])
        else:
            cmd = gen.chain_command(rng, segs, coupling)
            inp, ib = files.write({"segments": [{"cc": c} for c in cmd["cc"]]})
            check = checks.expect_chain_state("q" if coupling == "interdependent" else "rho", cmd["expect"])
        reqs.append(Request(f"chain {command} {coupling} x{count}",
                            ["chain", command, "--robot", robot, "--input", inp], 0, check, rb + ib))
    return reqs


def build_pool(seed: int, workdir: Path) -> list[Request]:
    rng = gen.rng_for(seed, "backbone-export")
    workdir.mkdir(parents=True, exist_ok=True)
    files = gen.Files(workdir)
    return [req for _ in range(ROUNDS) for req in _round(files, rng)]


class Workload:
    name = "backbone-export"
    speed_kernel = "allocating"
    in_process = True

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        self.ops: list[Request] = []
        self.round_len = len(SAMPLES) + 2 + len(CHAIN_REQUESTS)

    def setup(self) -> None:
        self.ops = build_pool(self.seed, self.workdir / "inputs")

    def run(self, req: Request):
        out, err = _io.StringIO(), _io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(req.argv)
        except Exception as exc:  # escaped the CLI's error contract
            return 1, out.getvalue(), f"Traceback: {exc!r}", None
        return code, out.getvalue(), err.getvalue(), None

    run_traced = run

    def check(self, req: Request, result) -> str:
        code, out, err, _ = result
        return checks.verdict(req, code, out, err)

    def kind(self, req: Request) -> str:
        return req.kind

    def output_bytes(self, result) -> int:
        return len(result[1])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def sizes(self) -> dict:
        return {
            "sample_points": list(SAMPLE_POINTS),
            "matrix_joints": MATRIX_JOINTS,
            "chain_segments": sorted({count for *_, count in CHAIN_REQUESTS}),
            "requests_per_round": self.round_len,
            "rounds_in_pool": ROUNDS,
        }
