"""Command-line front end.

Loads robot descriptions and joint states from JSON, runs the library
operations, and emits results as JSON (or CSV for matrices and sampled
backbones). Exit codes are a stable contract:

    0  success
    1  input is well-formed but invalid (failed validation, off-manifold
       joint lengths, out-of-domain values)
    2  unreadable input or schema violation
    3  degenerate joint arrangement
    4  dimension or convention mismatch
    5  arrangement lacks the offset-filtering property required by the
       requested operation

Each code is the ``exit_code`` of the DacrError class raised (2 for an
OSError); the refusal is one ``error: <message>`` line on stderr.

Every command is deterministic; identical inputs produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from io import StringIO
from typing import IO, Any, Callable

import numpy as np

from . import io
from .arc import arc_to_clarke, clarke_to_arc, sample_backbone
from .chain import (
    ChainClarke,
    ChainState,
    chain_forward,
    chain_inverse,
    interdependent_accumulate,
)
from .chain import validate_displacement as validate_chain_displacement
from .clarke import ClarkePair, build_pair, project, validate_displacement
from .errors import ConventionMismatch, DacrError, DimensionMismatch, DomainError, SchemaError
from .model import DISPLACEMENT_REL, RobotSpec, SegmentSpec, validate_robot
from .segments import (
    Convention,
    JointState,
    recover_length,
    segment_forward,
    segment_inverse,
)

# What every handler returns: its result, and the exit code. The result
# is JSON-able data, or a CSV writer that takes the output stream.
_Result = tuple[Any, int]


# ---------------------------------------------------------------------------
# shared plumbing


def _emit(result: Any, out: str | None) -> None:
    """Write a command's result to stdout or to the --out file.

    Stdout is written as the result renders, so a large CSV goes out
    block by block. The --out file is opened only after the whole text
    has rendered, so a command that fails leaves it as it was.
    """
    write = result if callable(result) else lambda fh: io.dump_json(result, fh)
    if out is None:
        write(sys.stdout)
        return
    text = StringIO()
    write(text)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text.getvalue())


def _load_robot(args: argparse.Namespace) -> RobotSpec:
    """Load the robot description; DomainError naming every violation."""
    robot = io.load_robot(args.robot)
    violations = validate_robot(robot)
    if violations:
        raise DomainError("invalid robot: " + "; ".join(
            f"{'robot' if v.segment is None else f'segment {v.segment}'}: {v.field}: {v.message}"
            for v in violations
        ))
    return robot


def _segment(robot: RobotSpec, index: int) -> SegmentSpec:
    if not (0 <= index < len(robot.segments)):
        raise DimensionMismatch(
            f"segment index {index} out of range for {len(robot.segments)} segment(s)"
        )
    return robot.segments[index]


def _single_state(
    args: argparse.Namespace, convention: Convention, what: str
) -> tuple[ClarkePair, JointState]:
    """The selected segment's pair and a single-segment state in one convention."""
    robot = _load_robot(args)
    state = io.load_state(args.input)
    if isinstance(state, ChainState) or state.convention is not convention:
        raise ConventionMismatch(f"{what} applies to a single {convention.value} state")
    return build_pair(_segment(robot, args.segment).arrangement), state


def _chain_input(
    args: argparse.Namespace, load: Callable[[str], Any]
) -> tuple[RobotSpec, ChainState | ChainClarke]:
    """The robot and a chain-shaped state, as the chain commands need."""
    robot = _load_robot(args)
    state = load(args.input)
    if not isinstance(state, (ChainState, ChainClarke)):
        raise SchemaError("chain commands need a chain-shaped state with 'segments'")
    return robot, state


# ---------------------------------------------------------------------------
# command handlers


def _cmd_matrix(args: argparse.Namespace) -> _Result:
    pair = build_pair(_segment(_load_robot(args), args.segment).arrangement)
    if args.format == "json":
        return {
            "mp": pair.mp,
            "mp_inv": pair.mp_inv,
            "projector": pair.projector,
            "filter_ok": pair.filter_ok,
        }, 0

    def write(fh: IO[str]) -> None:
        io.write_matrix_csv("mp", pair.mp, fh)
        io.write_matrix_csv("mp_inv", pair.mp_inv, fh)
        io.write_matrix_csv("projector", pair.projector, fh)
        fh.write(f"filter_ok\n{'true' if pair.filter_ok else 'false'}\n")

    return write, 0


def _cmd_forward(args: argparse.Namespace) -> _Result:
    robot = _load_robot(args)
    state = io.load_state(args.input)
    if isinstance(state, ChainState):
        return io.chain_clarke_dict(chain_forward(robot, state)), 0
    seg = _segment(robot, args.segment)
    if args.alpha is not None:
        state = replace(state, alpha=args.alpha)
    return io.clarke_state_dict(segment_forward(seg, state, args.tol)), 0


def _cmd_inverse(args: argparse.Namespace) -> _Result:
    robot = _load_robot(args)
    state = io.load_clarke(args.input)
    if isinstance(state, ChainClarke):
        return io.chain_state_dict(chain_inverse(robot, state)), 0
    seg = _segment(robot, args.segment)
    if args.alpha is not None:
        state = replace(state, alpha=args.alpha)
    return io.joint_state_dict(segment_inverse(seg, state)), 0


def _cmd_validate(args: argparse.Namespace) -> _Result:
    if args.input is None:
        violations = validate_robot(io.load_robot(args.robot))
        return io.violations_dict(violations), 1 if violations else 0
    robot = _load_robot(args)
    state = io.load_state(args.input)
    if isinstance(state, ChainState):
        checks = validate_chain_displacement(robot, state, args.tol)
        valid = all(c.valid for c in checks)
        return {"valid": valid, "segments": [asdict(c) for c in checks]}, 0 if valid else 1
    if state.convention is not Convention.RHO:
        raise ConventionMismatch("displacement validation applies to rho states")
    pair = build_pair(_segment(robot, args.segment).arrangement)
    check = validate_displacement(pair, state.values, args.tol)
    return asdict(check), 0 if check.valid else 1


def _cmd_project(args: argparse.Namespace) -> _Result:
    pair, state = _single_state(args, Convention.RHO, "projection")
    projected = JointState(convention=Convention.RHO, values=project(pair, state.values))
    return io.joint_state_dict(projected), 0


def _cmd_recover_length(args: argparse.Namespace) -> _Result:
    pair, state = _single_state(args, Convention.Q, "length recovery")
    return {"length": recover_length(pair, state.values, tol=args.tol)}, 0


def _cmd_arc_to_clarke(args: argparse.Namespace) -> _Result:
    cc = arc_to_clarke(io.load_arc(args.input), args.d)
    return {"cc": [cc.rho_re, cc.rho_im]}, 0


def _cmd_arc_from_clarke(args: argparse.Namespace) -> _Result:
    state = io.load_clarke(args.input)
    if isinstance(state, ChainClarke):
        raise SchemaError("arc from-clarke takes a single Clarke state, not a chain")
    return io.arc_dict(clarke_to_arc(state.cc, args.d, args.l)), 0


def _cmd_sample(args: argparse.Namespace) -> _Result:
    polyline = sample_backbone(io.load_arc(args.input), args.points)
    if args.format == "json":
        return {"s": polyline.s, "points": polyline.points}, 0
    return (lambda fh: io.write_polyline_csv(polyline, fh)), 0


def _cmd_chain_forward(args: argparse.Namespace) -> _Result:
    robot, state = _chain_input(args, io.load_state)
    return io.chain_clarke_dict(chain_forward(robot, state)), 0


def _cmd_chain_inverse(args: argparse.Namespace) -> _Result:
    robot, state = _chain_input(args, io.load_clarke)
    return io.chain_state_dict(chain_inverse(robot, state)), 0


def _cmd_chain_accumulate(args: argparse.Namespace) -> _Result:
    robot, state = _chain_input(args, io.load_state)
    if state.convention is not Convention.RHO:
        raise ConventionMismatch("accumulation starts from per-segment rho vectors")
    return io.chain_state_dict(interdependent_accumulate(robot, state.per_segment)), 0


# ---------------------------------------------------------------------------
# parser


def _add_robot(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--robot", required=True, help="robot description JSON file")


def _add_out(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="output file (default: standard output)")


def _add_segment(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--segment", type=int, default=0, help="segment index (default 0)")


def _add_input(sp: argparse.ArgumentParser, help_text: str) -> None:
    sp.add_argument("--input", required=True, help=help_text)


def _add_tol(sp: argparse.ArgumentParser, help_text: str) -> None:
    sp.add_argument("--tol", type=float, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dacr",
        description="Clarke-transform kinematics for displacement-actuated "
        "continuum robots.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("matrix", help="emit the transform matrices of one segment")
    _add_robot(p)
    _add_segment(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("forward", help="joint state to Clarke state")
    _add_robot(p)
    _add_input(p, "joint-state or chain-state JSON file")
    _add_segment(p)
    _add_tol(p, "off-manifold tolerance for q-side mappings")
    p.add_argument("--alpha", type=float, default=None, help="twist joint value override")
    _add_out(p)
    p.set_defaults(handler=_cmd_forward)

    p = sub.add_parser("inverse", help="Clarke state to joint state")
    _add_robot(p)
    _add_input(p, "Clarke-state or chain Clarke JSON file")
    _add_segment(p)
    p.add_argument("--alpha", type=float, default=None, help="twist joint value override")
    _add_out(p)
    p.set_defaults(handler=_cmd_inverse)

    p = sub.add_parser("validate", help="validate a robot or a displacement state")
    _add_robot(p)
    p.add_argument("--input", help="optional joint-state or chain-state JSON file")
    _add_segment(p)
    _add_tol(p, f"residual tolerance (default {DISPLACEMENT_REL} * max(1, max|rho|))")
    _add_out(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("project", help="project a vector onto the displacement manifold")
    _add_robot(p)
    _add_input(p, "joint-state JSON file (rho convention)")
    _add_segment(p)
    _add_out(p)
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("recover-length", help="recover segment length from joint lengths")
    _add_robot(p)
    _add_input(p, "joint-state JSON file (q convention)")
    _add_segment(p)
    _add_tol(p, "off-manifold tolerance")
    _add_out(p)
    p.set_defaults(handler=_cmd_recover_length)

    p = sub.add_parser("arc", help="constant-curvature arc bridge")
    arc_sub = p.add_subparsers(dest="subcommand", required=True, metavar="direction")

    q = arc_sub.add_parser("to-clarke", help="arc parameters to Clarke coordinates")
    _add_input(q, "arc-parameter JSON file {kappa, theta, l}")
    q.add_argument("--d", type=float, required=True, help="radial joint distance")
    _add_out(q)
    q.set_defaults(handler=_cmd_arc_to_clarke)

    q = arc_sub.add_parser("from-clarke", help="Clarke coordinates to arc parameters")
    _add_input(q, "Clarke-state JSON file {cc: [re, im]}")
    q.add_argument("--d", type=float, required=True, help="radial joint distance")
    q.add_argument("--l", type=float, required=True, help="segment length")
    _add_out(q)
    q.set_defaults(handler=_cmd_arc_from_clarke)

    p = sub.add_parser("sample", help="sample the backbone arc as a polyline")
    _add_input(p, "arc-parameter JSON file {kappa, theta, l}")
    p.add_argument("--points", type=int, required=True, help="sample count (>= 2)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out(p)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("chain", help="multi-segment operations")
    chain_sub = p.add_subparsers(dest="subcommand", required=True, metavar="operation")

    q = chain_sub.add_parser("forward", help="chain state to per-segment Clarke coordinates")
    _add_robot(q)
    _add_input(q, "chain-state JSON file")
    _add_out(q)
    q.set_defaults(handler=_cmd_chain_forward)

    q = chain_sub.add_parser("inverse", help="per-segment Clarke coordinates to chain state")
    _add_robot(q)
    _add_input(q, "chain Clarke JSON file {segments: [{cc: ...}]}")
    _add_out(q)
    q.set_defaults(handler=_cmd_chain_inverse)

    q = chain_sub.add_parser("accumulate", help="per-segment rho to coupled joint lengths")
    _add_robot(q)
    _add_input(q, "chain-state JSON file (rho convention)")
    _add_out(q)
    q.set_defaults(handler=_cmd_chain_accumulate)

    return parser


def _check_finite_flags(args: argparse.Namespace) -> None:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"--{name} must be a finite number, got {value}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # No NumPy warning reaches stderr; the finiteness checks refuse overflows.
    try:
        with np.errstate(all="ignore"):
            _check_finite_flags(args)
            result, code = args.handler(args)
            _emit(result, args.out)
        return code
    except (DacrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, DacrError) else 2


if __name__ == "__main__":
    sys.exit(main())
