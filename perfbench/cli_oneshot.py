"""cli-oneshot: every request is a fresh ``python -m dacr`` process.

Why: this is what a script user pays. Interpreter start, ``import
numpy``, the dacr import and argparse do nearly all the work, so
start-up and CLI changes show here and per-call library changes should
not.

Inputs: robots of 1-4 segments, types 0-3, 3-12 joints, written as small
JSON files. One round holds every command family, weighted toward
``forward`` and ``inverse``, the five golden worked examples and four
invalid requests with documented exit codes. The pool is ROUNDS rounds
with fresh seeded contents; the run cycles through it.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import gen
import oracle
from checks import Request

ROUNDS = 2
SAMPLE_POINTS = (20, 200)

GOLDEN_CASES = (
    ("matrix.expected.json", ["matrix", "--robot", "half_plane_robot.json"]),
    ("recover_length.expected.json", ["recover-length", "--robot", "sym3_robot.json", "--input", "recover_q.json"]),
    ("type3_forward.expected.json", ["forward", "--robot", "type3_robot.json", "--input", "type3_q.json"]),
    ("chain_forward.expected.json", ["chain", "forward", "--robot", "chain_robot.json", "--input", "chain_q.json"]),
    ("arc_from_clarke.expected.json", ["arc", "from-clarke", "--input", "arc_cc.json", "--d", "10", "--l", "100"]),
)

# (type, convention, symmetric) of the single-segment forward requests;
# "q+beta" is a type-3 q state that carries beta, so no fixed point runs.
FORWARD_CASES = (
    ("type0", "rho", True), ("type0", "rho", False), ("type0", "q", True),
    ("type1", "rho", True), ("type1", "q", True),
    ("type2", "rho", True), ("type2", "q", True),
    ("type3", "rho", True), ("type3", "q+beta", True), ("type3", "q", True), ("type3", "q", True),
)
INVERSE_CASES = (("type0", True), ("type0", False), ("type1", True), ("type2", True), ("type3", True))


def _state_doc(state: dict) -> dict:
    doc = {"convention": state["convention"], "values": state["values"]}
    for key in ("beta", "alpha"):
        if state[key] is not None:
            doc[key] = state[key]
    return doc


def _robot_around(rng, target: dict) -> tuple[list[dict], int]:
    """A 1-4 segment independent robot with ``target`` at a random index."""
    count = int(rng.integers(1, 5))
    index = int(rng.integers(count))
    segs = [
        gen.segment(rng, f"type{int(rng.integers(4))}", bool(rng.integers(2)))
        for _ in range(count)
    ]
    segs[index] = target
    return segs, index


def _single(files: gen.Files, rng, kind: str, target: dict, command: str, payload, expect_code, check) -> Request:
    """``command`` on ``target`` inside a random robot, with ``payload``
    (if any) as the input file."""
    segs, index = _robot_around(rng, target)
    robot, size = files.write(gen.robot_json(segs))
    argv = [command, "--robot", robot, "--segment", str(index)]
    if payload is not None:
        inp, ib = files.write(payload)
        argv += ["--input", inp]
        size += ib
    return Request(kind, argv, expect_code, check, size)


def _round(files: gen.Files, rng, golden: Path) -> list[Request]:
    reqs: list[Request] = []

    for t, conv, sym in FORWARD_CASES:
        seg = gen.segment(rng, t, sym)
        st = gen.segment_state(rng, seg, "q" if conv.startswith("q") else "rho")
        doc = _state_doc(st)
        beta, beta_rel = st["beta"], oracle.REL_LINEAR
        if conv == "q" and t == "type1":
            doc.pop("beta")
        elif conv == "q" and t == "type3":
            doc.pop("beta")  # recovered by the twist fixed point
            beta_rel = oracle.REL_ITERATIVE
        check = checks.expect_clarke(st["cc"], beta, st["alpha"], beta_rel)
        reqs.append(_single(files, rng, f"forward {t} {conv}", seg, "forward", doc, 0, check))

    for t, sym in INVERSE_CASES:
        seg = gen.segment(rng, t, sym)
        cmd = gen.command_state(rng, seg)
        doc = {"cc": cmd["cc"]}
        for key in ("beta", "alpha"):
            if cmd[key] is not None:
                doc[key] = cmd[key]
        conv = "q" if t in gen.LENGTH_TYPES else "rho"
        beta = cmd["beta"] if t == "type3" else None
        check = checks.expect_joint(conv, gen.inverse_truth(seg, cmd), beta, cmd["alpha"])
        reqs.append(_single(files, rng, f"inverse {t}", seg, "inverse", doc, 0, check))

    for coupling in ("independent", "interdependent"):
        count = int(rng.integers(2, 5))
        segs = (gen.interdependent_chain if coupling == "interdependent" else gen.independent_chain)(rng, count)
        robot, rb = files.write(gen.robot_json(segs, coupling))
        st = gen.chain_state(rng, segs, coupling)
        inp, ib = files.write({"convention": st["convention"], "segments": [{"values": v} for v in st["values"]]})
        for command in (["forward"], ["chain", "forward"]):
            reqs.append(Request(f"{' '.join(command)} {coupling}", [*command, "--robot", robot, "--input", inp],
                                0, checks.expect_chain_clarke(st["cc"]), rb + ib))
        cmd = gen.chain_command(rng, segs, coupling)
        inp, ib = files.write({"segments": [{"cc": c} for c in cmd["cc"]]})
        conv = "q" if coupling == "interdependent" else "rho"
        for command in (["inverse"], ["chain", "inverse"]):
            reqs.append(Request(f"{' '.join(command)} {coupling}", [*command, "--robot", robot, "--input", inp],
                                0, checks.expect_chain_state(conv, cmd["expect"]), rb + ib))
        if coupling == "interdependent":
            rhos = [gen.mp_inv_ref(s) @ c for s, c in zip(segs, cmd["cc"])]
            inp, ib = files.write({"convention": "rho", "segments": [{"values": r} for r in rhos]})
            reqs.append(Request("chain accumulate", ["chain", "accumulate", "--robot", robot, "--input", inp],
                                0, checks.expect_chain_state("q", cmd["expect"]), rb + ib))

    seg = gen.segment(rng, "type0", bool(rng.integers(2)))
    robot, rb = files.write(gen.robot_json([seg]))
    reqs.append(Request("validate robot", ["validate", "--robot", robot], 0,
                        checks.expect_fields(valid=True), rb))
    st = gen.segment_state(rng, seg, "rho")
    inp, ib = files.write(_state_doc(st))
    reqs.append(Request("validate state", ["validate", "--robot", robot, "--input", inp], 0,
                        checks.expect_fields(valid=True), rb + ib))
    m = gen.mp_inv_ref(seg)
    raw = st["values"] + rng.normal(0.0, 1.0, seg["n"])
    inp, ib = files.write({"convention": "rho", "values": raw})
    reqs.append(Request("project", ["project", "--robot", robot, "--input", inp], 0,
                        checks.expect_joint("rho", m @ oracle.pinv(m) @ raw), rb + ib))

    for fmt in ("json", "csv"):
        reqs.append(Request(f"matrix {fmt}", ["matrix", "--robot", robot, "--format", fmt], 0,
                            checks.expect_matrices(m, fmt), rb))

    seg = gen.segment(rng, "type1", True)
    st = gen.segment_state(rng, seg, "q")
    robot, rb = files.write(gen.robot_json([seg]))
    inp, ib = files.write({"convention": "q", "values": st["values"]})
    reqs.append(Request("recover-length", ["recover-length", "--robot", robot, "--input", inp], 0,
                        checks.expect_fields(length=st["beta"]), rb + ib))

    a = gen.arc_truth(rng)
    d = float(rng.uniform(*gen.RADIUS))
    inp, ib = files.write(a)
    mag = d * a["l"] * a["kappa"]
    cc = [mag * np.cos(a["theta"]), mag * np.sin(a["theta"])]
    reqs.append(Request("arc to-clarke", ["arc", "to-clarke", "--input", inp, "--d", repr(d)], 0,
                        checks.expect_fields(cc=cc), ib))
    inp2, ib2 = files.write({"cc": cc})
    reqs.append(Request("arc from-clarke", ["arc", "from-clarke", "--input", inp2, "--d", repr(d), "--l", repr(a["l"])],
                        0, checks.expect_arc(a["kappa"], a["theta"], a["l"]), ib2))
    points = int(rng.integers(SAMPLE_POINTS[0], SAMPLE_POINTS[1] + 1))
    fmt = ("csv", "json")[int(rng.integers(2))]
    reqs.append(Request(f"sample {fmt}", ["sample", "--input", inp, "--points", str(points), "--format", fmt], 0,
                        checks.expect_backbone(a, points, fmt), ib))

    for expected, argv in GOLDEN_CASES:
        argv = [str(golden / x) if x.endswith(".json") else x for x in argv]
        size = sum(os.path.getsize(x) for x in argv if x.endswith(".json"))
        reqs.append(Request(f"golden {expected}", argv, 0,
                            checks.expect_bytes((golden / expected).read_bytes()), size))

    reqs.extend(_invalid(files, rng))
    return reqs


def _invalid(files: gen.Files, rng) -> list[Request]:
    never = checks.expect_fields()
    out = []
    # Off the manifold: joint lengths with a non-constant error added. With
    # three joints every q is on the manifold, so this needs at least four.
    seg = gen.segment(rng, "type1", True, n=int(rng.integers(4, gen.N_JOINTS[1] + 1)))
    st = gen.segment_state(rng, seg, "q")
    bad = st["values"] + rng.normal(0.0, 1.0, seg["n"]) * seg["length"] * 0.05
    out.append(_single(files, rng, "invalid off-manifold", seg, "recover-length",
                       {"convention": "q", "values": bad}, oracle.EXIT_OFF_MANIFOLD, never))
    # Wrong length: one value more than the segment has joints.
    seg = gen.segment(rng, "type0", True)
    st = gen.segment_state(rng, seg, "rho")
    out.append(_single(files, rng, "invalid wrong-length", seg, "forward",
                       {"convention": "rho", "values": np.append(st["values"], 0.0)},
                       oracle.EXIT_WRONG_LENGTH, never))
    # q on an asymmetric arrangement: constants are not filtered.
    seg = gen.segment(rng, "type0", False)
    st = gen.segment_state(rng, seg, "q")
    out.append(_single(files, rng, "invalid asymmetric-q", seg, "forward",
                       {"convention": "q", "values": st["values"]}, oracle.EXIT_ASYMMETRIC_Q, never))
    # Degenerate: every joint on one line through the axis.
    n = int(rng.integers(3, 7))
    seg = gen.segment(rng, "type0", False, n=n)
    seg["psi"] = [float(np.pi * (i % 2)) for i in range(n)]
    out.append(_single(files, rng, "invalid degenerate", seg, "matrix", None, oracle.EXIT_DEGENERATE, never))
    return out


def build_pool(seed: int, workdir: Path, golden: Path) -> list[Request]:
    rng = gen.rng_for(seed, "cli-oneshot")
    workdir.mkdir(parents=True, exist_ok=True)
    files = gen.Files(workdir)
    return [req for _ in range(ROUNDS) for req in _round(files, rng, golden)]


class Workload:
    name = "cli-oneshot"
    speed_kernel = "allocating"
    in_process = False

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.root, self.seed, self.workdir = root, seed, workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.ops: list[Request] = []
        self.round_len = 1

    def setup(self) -> None:
        self.ops = build_pool(self.seed, self.workdir / "inputs", self.root / "tests" / "golden")
        self.round_len = len(self.ops) // ROUNDS
        # Warm start: bytecode caches exist before anything is timed.
        subprocess.run([sys.executable, "-m", "dacr", "--help"], env=self.env, capture_output=True, check=True)

    def run(self, req: Request):
        proc = subprocess.run([sys.executable, "-m", "dacr", *req.argv], env=self.env, capture_output=True)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode(), None

    def run_traced(self, req: Request):
        spans = self.workdir / "child-spans.json"
        env = dict(self.env, PERFBENCH_SPANS=str(spans))
        child = Path(__file__).with_name("child.py")
        proc = subprocess.run([sys.executable, str(child), *req.argv], env=env, capture_output=True)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode(), spans

    def check(self, req: Request, result) -> str:
        code, out, err, _ = result
        return checks.verdict(req, code, out, err)

    def kind(self, req: Request) -> str:
        return req.kind

    def output_bytes(self, result) -> int:
        return len(result[1].encode())

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def sizes(self) -> dict:
        return {
            "requests_in_pool": len(self.ops),
            "segments_per_robot": [1, 4],
            "joints": list(gen.N_JOINTS),
            "input_bytes_median": float(np.median([r.input_bytes for r in self.ops])),
            "sample_points": list(SAMPLE_POINTS),
        }
