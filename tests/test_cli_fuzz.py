"""Differential fuzz test of the CLI against the library it dispatches to.

Generated robot, state and flag files go through ``cli.main`` in
process. Whatever the input, the exit code is one of the documented
0-5, no exception escapes, stderr is empty or one ``error:`` line (no
NumPy warning), a usage error exits 2, a second run gives the same
bytes, and a successful ``forward``/``inverse`` prints exactly
``io.dump_json`` of the library result. At least 20 of the 200
requests reach the tolerance rule (an explicit --tol checked, or the
default tolerance scaled), so a change to that rule is seen.
"""

import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dacr.clarke
import dacr.segments
from dacr import chain_forward, chain_inverse, io, segment_forward, segment_inverse
from dacr.chain import ChainClarke, ChainState
from dacr.cli import main

NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 4.0, 100.0, 1e-300, 5e-324, 1e300, -1.7e308]),
    st.floats(-1e3, 1e3),
)
# Arrangements: the symmetric ones, and explicit ones that are valid in
# a robot but refused by some operations: half-plane (no filter
# property), collinear (degenerate), unequal radii.
SYMMETRIC = st.builds(lambda n: {"symmetric": {"n": n, "d": 10.0}}, st.integers(3, 6))
EXPLICIT = st.sampled_from(
    [
        [(0.0, 10.0), (math.pi / 2, 10.0), (math.pi, 10.0)],
        [(0.0, 10.0), (math.pi, 10.0)],
        [(0.0, 10.0), (2 * math.pi / 3, 10.0), (4 * math.pi / 3, 20.0)],
    ]
).map(lambda joints: {"explicit": [{"psi": p, "d": d} for p, d in joints]})
ARRANGEMENTS = st.one_of(SYMMETRIC, SYMMETRIC, EXPLICIT)
LENGTHS = st.sampled_from([4.0, 100.0])
TYPES = st.sampled_from(["type0", "type1", "type2", "type3"])
# Anything the schema accepts, mostly refused by validate_robot.
ANY_SEGMENT = st.fixed_dictionaries(
    {
        "type": TYPES,
        "length": st.sampled_from([4.0, 1e300, 0.0, -1.0]),
        "joints": st.one_of(
            ARRANGEMENTS,
            st.builds(
                lambda n, d: {"symmetric": {"n": n, "d": d}},
                st.integers(2, 4),
                st.sampled_from([10.0, 1e-3, 0.0, -1.0]),
            ),
        ),
    }
)


@st.composite
def robots(draw):
    """Mostly valid robot descriptions, and one in four anything."""
    coupling = draw(st.sampled_from(["independent", "interdependent"]))
    m = draw(st.sampled_from([1, 1, 1, 2, 2, 3, 0]))
    if draw(st.integers(0, 3)) == 0:
        segments = draw(st.lists(ANY_SEGMENT, min_size=m, max_size=m))
    elif coupling == "interdependent":
        joints = draw(ARRANGEMENTS)
        segments = [{"type": "type0", "length": draw(LENGTHS), "joints": joints} for _ in range(m)]
    else:
        segment = st.fixed_dictionaries({"type": TYPES, "length": LENGTHS, "joints": ARRANGEMENTS})
        segments = draw(st.lists(segment, min_size=m, max_size=m))
    return {"coupling": coupling, "segments": segments}


SCALARS = st.fixed_dictionaries(
    {}, optional={"beta": st.sampled_from([4.0, 100.0, 0.0, -2.0, 1.7e308]), "alpha": NUMBERS}
)
CONVENTIONS = st.sampled_from(["rho", "q"])
CC = st.lists(NUMBERS, min_size=2, max_size=2)


def joint_count(seg) -> int:
    joints = seg["joints"]
    return joints["symmetric"]["n"] if "symmetric" in joints else len(joints["explicit"])


@st.composite
def vectors(draw, robot):
    """A joint vector sized for a segment of the robot, on the manifold
    (and shifted by a length) or arbitrary."""
    sizes = [joint_count(seg) for seg in robot["segments"]]
    n = draw(st.one_of(st.sampled_from(sizes), st.integers(2, 6)) if sizes else st.integers(2, 6))
    if draw(st.booleans()):
        return draw(st.lists(NUMBERS, min_size=n, max_size=n))
    a, b = draw(NUMBERS), draw(NUMBERS)
    shift = draw(st.sampled_from([0.0, 4.0, 5.0, 100.0]))
    return [shift - a * math.cos(2 * math.pi * i / n) - b * math.sin(2 * math.pi * i / n)
            for i in range(n)]


@st.composite
def scalars(draw, robot, convention):
    """beta and alpha: mostly those segment 0's type needs, or any."""
    if not robot["segments"] or draw(st.integers(0, 3)) == 0:
        return draw(SCALARS)
    t = robot["segments"][0]["type"]
    out = {}
    if (t == "type1" and convention == "rho") or (t == "type3" and draw(st.booleans())):
        out["beta"] = draw(st.sampled_from([4.0, 100.0]))
    if t in ("type2", "type3"):
        out["alpha"] = draw(st.sampled_from([0.3, -0.1, 0.0]))
    return out


@st.composite
def joint_states(draw, robot, chain):
    convention = draw(CONVENTIONS)
    if chain and draw(st.integers(0, 3)):
        # The convention the chain commands accept, mostly.
        convention = "q" if robot["coupling"] == "interdependent" else "rho"
    if not chain:
        values = draw(vectors(robot))
        return {"convention": convention, "values": values, **draw(scalars(robot, convention))}
    m = draw(st.sampled_from([len(robot["segments"]), len(robot["segments"]), 1, 2]))
    segments = [{"values": draw(vectors(robot))} for _ in range(m)]
    return {"convention": convention, "segments": segments}


@st.composite
def clarke_states(draw, robot, chain):
    if not chain:
        return {"cc": draw(CC), **draw(scalars(robot, "rho"))}
    m = draw(st.sampled_from([len(robot["segments"]), len(robot["segments"]), 1, 2]))
    return {"segments": [{"cc": draw(CC)} for _ in range(m)]}


ARCS = st.fixed_dictionaries({"kappa": NUMBERS, "theta": NUMBERS, "l": NUMBERS})
FLAGS = st.sampled_from(["0.3", "1", "10", "0", "1e-300", "1e308", "-1"])
SEGMENT_INDEX = st.sampled_from(["0", "0", "1", "-1"])


@st.composite
def tolerance_requests(draw):
    """Requests that reach the tolerance rule: ``forward`` or
    ``recover-length`` of an on-manifold q on a symmetric type-1 or
    type-3 segment, or ``validate`` of an on-manifold rho, with or
    without --tol."""
    command = draw(st.sampled_from(["forward", "recover-length", "validate"]))
    seg_type = draw(st.sampled_from(["type1", "type3"]))
    joints = draw(SYMMETRIC)
    robot = {"segments": [{"type": seg_type, "length": 100.0, "joints": joints}]}
    n, unit = joints["symmetric"]["n"], st.floats(-50.0, 50.0)
    a, b = draw(unit), draw(unit)
    convention, shift = ("rho", 0.0) if command == "validate" else ("q", draw(LENGTHS))
    values = [shift - a * math.cos(2 * math.pi * i / n) - b * math.sin(2 * math.pi * i / n)
              for i in range(n)]
    doc = {"convention": convention, "values": values}
    if seg_type == "type3":
        doc["alpha"] = draw(st.sampled_from([0.3, -0.1, 0.0]))
    argv = [*command.split(), "--robot", "{robot}", "--input", "{input}", "--segment", "0"]
    if draw(st.booleans()):
        argv += ["--tol", draw(FLAGS)]
    return argv, robot, doc, None


@st.composite
def requests(draw):
    """(argv with {robot}/{input} placeholders, robot doc, input doc, the
    usage fault put into argv or None)."""
    if draw(st.integers(0, 3)) == 0:
        return draw(tolerance_requests())
    command = draw(
        st.sampled_from(
            ["forward", "inverse"] * 3
            + ["validate", "project", "recover-length", "matrix", "arc to-clarke",
               "arc from-clarke", "sample", "chain forward", "chain inverse",
               "chain accumulate"]
        )
    )
    argv = command.split()
    robot = draw(robots())
    doc = None
    # Single-segment commands get a chain state one time in four, and
    # chain commands a single-segment one.
    chain = command.startswith("chain") != (draw(st.integers(0, 3)) == 0)
    if command in ("arc to-clarke", "sample"):
        doc = draw(ARCS)
    elif command in ("inverse", "arc from-clarke", "chain inverse"):
        doc = draw(clarke_states(robot, chain))
    elif command != "matrix" and not (command == "validate" and draw(st.booleans())):
        doc = draw(joint_states(robot, chain))
    if not command.startswith(("arc", "sample")):
        argv += ["--robot", "{robot}"]
    if doc is not None:
        argv += ["--input", "{input}"]
    if command in ("forward", "inverse", "validate", "project", "recover-length", "matrix"):
        argv += ["--segment", draw(SEGMENT_INDEX)]
    if command in ("forward", "validate", "recover-length") and draw(st.booleans()):
        argv += ["--tol", draw(FLAGS)]
    if command in ("forward", "inverse") and draw(st.integers(0, 3)) == 0:
        argv += ["--alpha", draw(FLAGS)]
    if command.startswith("arc"):
        argv += ["--d", draw(FLAGS)]
    if command == "arc from-clarke":
        argv += ["--l", draw(FLAGS)]
    if command == "sample":
        argv += ["--points", draw(st.sampled_from(["2", "3", "1"]))]
    if command in ("matrix", "sample"):
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    fault = draw(st.sampled_from([None] * 5 + ["missing", "mistyped", "unknown"]))
    words = len(command.split())
    typed = [i for i, a in enumerate(argv) if a in ("--segment", "--points", "--d")]
    if fault == "missing":
        # The first flag is always a required one.
        del argv[words:words + 2]
    elif fault == "mistyped" and typed:
        argv[draw(st.sampled_from(typed)) + 1] = draw(st.sampled_from(["x", "", "1,5", "0x10"]))
    elif fault:
        # A flag the command lacks; also the fault of a command without
        # a typed flag to spoil.
        fault = "unknown"
        lacking = "--l" if command != "arc from-clarke" else "--robot"
        argv += [draw(st.sampled_from(["--beta", lacking])), "1"]
    return argv, robot, doc, fault


def run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def library_result(argv, robot_path, input_path):
    """What ``forward``/``inverse`` should print, computed with the library."""
    robot = io.load_robot(robot_path)
    flags = dict(zip(argv[1::2], argv[2::2]))
    alpha = float(flags["--alpha"]) if "--alpha" in flags else None
    if argv[0] == "forward":
        state = io.load_state(input_path)
        if isinstance(state, ChainState):
            data = io.chain_clarke_dict(chain_forward(robot, state))
        else:
            state = state if alpha is None else replace(state, alpha=alpha)
            tol = float(flags["--tol"]) if "--tol" in flags else None
            seg = robot.segments[int(flags["--segment"])]
            data = io.clarke_state_dict(segment_forward(seg, state, tol))
    else:
        state = io.load_clarke(input_path)
        if isinstance(state, ChainClarke):
            data = io.chain_state_dict(chain_inverse(robot, state))
        else:
            state = state if alpha is None else replace(state, alpha=alpha)
            seg = robot.segments[int(flags["--segment"])]
            data = io.joint_state_dict(segment_inverse(seg, state))
    text = StringIO()
    io.dump_json(data, text)
    return text.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_cli_contract(workdir, monkeypatch):
    # Every call of the tolerance rule, which judges each residual against
    # an explicit tol or the default bound.
    tol_calls = []
    for module in (dacr.clarke, dacr.segments):
        rule = module._bound
        monkeypatch.setattr(module, "_bound", lambda *args, rule=rule: tol_calls.append(1) or rule(*args))
    reached = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(request=requests())
    def check(request):
        argv, robot, doc, fault = request
        paths = {"robot": workdir / "robot.json", "input": workdir / "input.json"}
        paths["robot"].write_text(json.dumps(robot))
        if doc is not None:
            paths["input"].write_text(json.dumps(doc))
        argv = [a.format(**{k: str(p) for k, p in paths.items()}) for a in argv]

        before = len(tol_calls)
        code, out, err = run(argv)
        reached.append(len(tol_calls) > before)
        assert code in range(6), (argv, code, err)
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1
                             and err.endswith("\n")), (argv, err)
        assert run(argv) == (code, out, err)
        if fault:
            # A usage error: a required flag missing, a value of the wrong
            # type or a flag the command lacks.
            assert (code, out) == (2, "") and err, (argv, code, err)
        if err:
            assert out == ""
        elif code == 0 and argv[0] in ("forward", "inverse"):
            with np.errstate(all="ignore"):
                assert out == library_result(argv, str(paths["robot"]), str(paths["input"]))

    check()
    assert sum(reached) >= 20, f"{sum(reached)} of {len(reached)} requests reached the tolerance rule"
