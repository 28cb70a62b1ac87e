"""control-loop: in-process library calls, one tick at a time.

Why: this is a real-time controller's per-tick cost, where per-call
overhead does the work: argument checks and dataclasses around a 2 x n
matmul, chain calls that rebuild every pair, and the type-3 twist fixed
point. There is no import, parse or emit, so CLI and io changes should
show nothing here.

Each tick takes the next robot of a seeded fleet and runs, for every
segment, the forward map of a fresh joint state, ``clarke_to_arc`` and
the inverse of a commanded Clarke state. The fleet's composition is
fixed (SINGLE and CHAINS); arrangements, lengths and states are drawn
from the seed.
Pairs of single-segment robots are built in set-up.
"""

from __future__ import annotations

import resource
from pathlib import Path

import numpy as np
from dacr.errors import DacrError

import adapter
import checks
import gen
import oracle

# Fleet slots: (segment type, convention, symmetric) for single segments,
# (coupling, segment count) for chains. Each slot holds VARIANTS robots
# of that shape with their own seeded geometry, each with STATES states.
# Every round visits each slot once, so the latency distribution is a
# fixed mixture; the slot count is odd so that the median falls inside
# one slot's ticks rather than on the gap between two.
SINGLE = (
    ("type0", "rho", True), ("type0", "rho", False),
    ("type1", "rho", True), ("type1", "rho", False), ("type1", "q", True),
    ("type2", "rho", True),
    ("type3", "rho", True), ("type3", "q", True), ("type3", "q", True),
)
# The two-segment interdependent chain is the median slot; three copies
# of it keep the median inside its ticks.
CHAINS = (
    tuple(("independent", k) for k in range(1, 7))
    + tuple(("interdependent", k) for k in range(1, 7))
    + (("interdependent", 2),) * 2
)
VARIANTS = 16
STATES = 16


def build_fleet(seed: int) -> list[list[dict]]:
    """Slots of robot descriptions with their states, ground truth included."""
    rng = gen.rng_for(seed, "control-loop")
    fleet = []
    for t, conv, sym in SINGLE:
        slot = []
        for _ in range(VARIANTS):
            seg = gen.segment(rng, t, sym)
            ticks = [(gen.segment_state(rng, seg, conv), gen.command_state(rng, seg)) for _ in range(STATES)]
            slot.append({"kind": "single", "name": f"{t} {conv}{'' if sym else ' asym'}", "desc": [seg], "ticks": ticks})
        fleet.append(slot)
    for coupling, count in CHAINS:
        make = gen.interdependent_chain if coupling == "interdependent" else gen.independent_chain
        slot = []
        for _ in range(VARIANTS):
            segs = make(rng, count)
            ticks = [(gen.chain_state(rng, segs, coupling), gen.chain_command(rng, segs, coupling))
                     for _ in range(STATES)]
            slot.append({"kind": coupling, "name": f"{coupling} x{count}", "desc": segs, "ticks": ticks})
        fleet.append(slot)
    return fleet


def check_tick(robot: dict, state: dict, cmd: dict, result) -> None:
    """Compare one tick's result with the ground truth; raises Mismatch."""
    ccs, beta, bends, back = result
    segs = robot["desc"]
    if robot["kind"] == "single":
        seg = segs[0]
        truth_cc, lengths = [state["cc"]], [state["l"]]
        rel = oracle.REL_ITERATIVE if (seg["type"], state["convention"]) == ("type3", "q") else oracle.REL_LINEAR
        if state["beta"] is not None:
            oracle.close(beta, state["beta"], rel, "beta")
        expect_back = [gen.inverse_truth(seg, cmd)]
    else:
        truth_cc, lengths = state["cc"], [s["length"] for s in segs]
        rel = oracle.REL_LINEAR
        expect_back = cmd["expect"]
    oracle.close([[c.rho_re, c.rho_im] for c in ccs], truth_cc, what="cc")
    for (kappa, theta), cc, seg, l in zip(bends, truth_cc, segs, lengths):
        # kappa and theta of the true bend; the arc length used is the
        # recovered one, so the iterative tolerance carries over.
        oracle.close(kappa, np.hypot(*cc) / (seg["d"] * (beta if beta is not None else l)), rel, "kappa")
        oracle.angle_close(theta, np.arctan2(cc[1], cc[0]))
    for got, expected in zip(back, expect_back, strict=True):
        oracle.close(got, expected, what="inverse")


class Workload:
    name = "control-loop"
    speed_kernel = "interpreter"
    in_process = True

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.ops: list[tuple[int, int, int]] = []
        self.round_len = len(SINGLE) + len(CHAINS)

    def setup(self) -> None:
        self.fleet = build_fleet(self.seed)
        self.prepared = [[adapter.prepare(r["kind"], r["desc"]) for r in slot] for slot in self.fleet]
        # A round visits every slot once; successive rounds step through
        # the slot's variants, then through their states.
        self.ops = [
            (s, v, k)
            for k in range(STATES) for v in range(VARIANTS) for s in range(self.round_len)
        ]

    def run(self, op):
        s, v, k = op
        state, cmd = self.fleet[s][v]["ticks"][k]
        try:
            return adapter.tick(self.prepared[s][v], state, cmd)
        except DacrError as exc:
            return ("error", exc)
        except Exception as exc:  # a non-contract exception is a failed tick
            return ("crash", exc)

    run_traced = run

    def check(self, op, result) -> str:
        if isinstance(result[0], str):
            return checks.FAILED
        s, v, k = op
        robot = self.fleet[s][v]
        try:
            check_tick(robot, *robot["ticks"][k], result)
        except oracle.Mismatch:
            return checks.WRONG
        return checks.OK

    def kind(self, op) -> str:
        return self.fleet[op[0]][0]["name"]

    def output_bytes(self, result) -> int:
        return 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def sizes(self) -> dict:
        return {
            "slots": self.round_len,
            "single_segment_slots": len(SINGLE),
            "robots_per_slot": VARIANTS,
            "states_per_robot": STATES,
            "chain_segments": [1, 6],
            "joints": list(gen.N_JOINTS),
        }
