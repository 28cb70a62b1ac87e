"""Command-line front end.

Loads robot descriptions and joint states from JSON, runs the library
operations, and emits results as JSON (or CSV for matrices and sampled
backbones). Exit codes are a stable contract:

    0  success
    1  input is well-formed but invalid (failed validation, off-manifold
       joint lengths, out-of-domain values, too many sample points)
    2  unreadable input, schema violation or usage error (unknown or
       missing flag, wrongly typed value)
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
import functools
import inspect
import math
import sys
from dataclasses import asdict, replace
from io import StringIO
from typing import IO, Any, Callable, NoReturn

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
    ExtendedClarkeState,
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


def _load_robot(path: str) -> RobotSpec:
    """Load the robot description; DomainError naming every violation."""
    robot = io.load_robot(path)
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
    robot: str, input: str, segment: int, convention: Convention, what: str
) -> tuple[ClarkePair, JointState]:
    """The selected segment's pair and a single-segment state in one convention."""
    spec = _load_robot(robot)
    state = io.load_state(input)
    if isinstance(state, ChainState) or state.convention is not convention:
        raise ConventionMismatch(f"{what} applies to a single {convention.value} state")
    return build_pair(_segment(spec, segment).arrangement), state


def _chain_input(
    robot: str, input: str, load: Callable[[str], Any]
) -> tuple[RobotSpec, ChainState | ChainClarke]:
    """The robot and a chain-shaped state, as the chain commands need."""
    spec = _load_robot(robot)
    state = load(input)
    if not isinstance(state, (ChainState, ChainClarke)):
        raise SchemaError("chain commands need a chain-shaped state with 'segments'")
    return spec, state


# ---------------------------------------------------------------------------
# command handlers
#
# Each parameter of a handler is the --flag of the same name: one without
# a default is required, one with a default is optional with that default.


def _cmd_matrix(robot: str, segment: int = 0, format: str = "json") -> _Result:
    pair = build_pair(_segment(_load_robot(robot), segment).arrangement)
    if format == "json":
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


def _cmd_forward(
    robot: str, input: str, segment: int = 0, tol: float | None = None, alpha: float | None = None
) -> _Result:
    spec = _load_robot(robot)
    state = io.load_state(input)
    if isinstance(state, ChainState):
        return io.chain_clarke_dict(chain_forward(spec, state)), 0
    seg = _segment(spec, segment)
    if alpha is not None:
        state = replace(state, alpha=alpha)
    return io.clarke_state_dict(segment_forward(seg, state, tol)), 0


def _cmd_inverse(robot: str, input: str, segment: int = 0, alpha: float | None = None) -> _Result:
    spec = _load_robot(robot)
    state = io.load_clarke(input)
    if isinstance(state, ChainClarke):
        return io.chain_state_dict(chain_inverse(spec, state)), 0
    seg = _segment(spec, segment)
    if alpha is not None:
        state = replace(state, alpha=alpha)
    return io.joint_state_dict(segment_inverse(seg, state)), 0


def _cmd_validate(
    robot: str, input: str | None = None, segment: int = 0, tol: float | None = None
) -> _Result:
    if input is None:
        violations = validate_robot(io.load_robot(robot))
        return io.violations_dict(violations), 1 if violations else 0
    spec = _load_robot(robot)
    state = io.load_state(input)
    if isinstance(state, ChainState):
        checks = validate_chain_displacement(spec, state, tol)
        valid = all(c.valid for c in checks)
        return {"valid": valid, "segments": [asdict(c) for c in checks]}, 0 if valid else 1
    if state.convention is not Convention.RHO:
        raise ConventionMismatch("displacement validation applies to rho states")
    pair = build_pair(_segment(spec, segment).arrangement)
    check = validate_displacement(pair, state.values, tol)
    return asdict(check), 0 if check.valid else 1


def _cmd_project(robot: str, input: str, segment: int = 0) -> _Result:
    pair, state = _single_state(robot, input, segment, Convention.RHO, "projection")
    projected = JointState(convention=Convention.RHO, values=project(pair, state.values))
    return io.joint_state_dict(projected), 0


def _cmd_recover_length(
    robot: str, input: str, segment: int = 0, tol: float | None = None
) -> _Result:
    pair, state = _single_state(robot, input, segment, Convention.Q, "length recovery")
    return {"length": recover_length(pair, state.values, tol=tol)}, 0


def _cmd_arc_to_clarke(input: str, d: float) -> _Result:
    return io.clarke_state_dict(ExtendedClarkeState(arc_to_clarke(io.load_arc(input), d))), 0


def _cmd_arc_from_clarke(input: str, d: float, l: float) -> _Result:
    state = io.load_clarke(input)
    if isinstance(state, ChainClarke):
        raise SchemaError("arc from-clarke takes a single Clarke state, not a chain")
    return io.arc_dict(clarke_to_arc(state.cc, d, l)), 0


def _cmd_sample(input: str, points: int, format: str = "csv") -> _Result:
    polyline = sample_backbone(io.load_arc(input), points)
    if format == "json":
        return {"s": polyline.s, "points": polyline.points}, 0
    return (lambda fh: io.write_polyline_csv(polyline, fh)), 0


def _cmd_chain_forward(robot: str, input: str) -> _Result:
    spec, state = _chain_input(robot, input, io.load_state)
    return io.chain_clarke_dict(chain_forward(spec, state)), 0


def _cmd_chain_inverse(robot: str, input: str) -> _Result:
    spec, state = _chain_input(robot, input, io.load_clarke)
    return io.chain_state_dict(chain_inverse(spec, state)), 0


def _cmd_chain_accumulate(robot: str, input: str) -> _Result:
    spec, state = _chain_input(robot, input, io.load_state)
    if state.convention is not Convention.RHO:
        raise ConventionMismatch("accumulation starts from per-segment rho vectors")
    return io.chain_state_dict(interdependent_accumulate(spec, state.per_segment)), 0


# ---------------------------------------------------------------------------
# parser

# The type and shared help of each flag; a command's entry in _COMMANDS
# adds its own help or choices. Every command also takes --out.
_FLAGS: dict[str, dict[str, Any]] = {
    "robot": {"help": "robot description JSON file"},
    "input": {},
    "segment": {"type": int, "help": "segment index (default 0)"},
    "tol": {"type": float},
    "alpha": {"type": float, "help": "twist joint value override"},
    "d": {"type": float, "help": "radial joint distance"},
    "l": {"type": float, "help": "segment length"},
    "points": {"type": int, "help": "sample count (>= 2)"},
    "format": {},
    "out": {"help": "output file (default: standard output)"},
}

# (command path, help, handler, per-command flag settings), in the order
# of `dacr --help`.
_COMMANDS: tuple[tuple[str, str, Callable[..., _Result], dict[str, dict[str, Any]]], ...] = (
    ("matrix", "emit the transform matrices of one segment", _cmd_matrix,
     {"format": {"choices": ("json", "csv")}}),
    ("forward", "joint state to Clarke state", _cmd_forward,
     {"input": {"help": "joint-state or chain-state JSON file"},
      "tol": {"help": "off-manifold tolerance for q-side mappings"}}),
    ("inverse", "Clarke state to joint state", _cmd_inverse,
     {"input": {"help": "Clarke-state or chain Clarke JSON file"}}),
    ("validate", "validate a robot or a displacement state", _cmd_validate,
     {"input": {"help": "optional joint-state or chain-state JSON file"},
      "tol": {"help": f"residual tolerance (default {DISPLACEMENT_REL} * max(1, max|rho|))"}}),
    ("project", "project a vector onto the displacement manifold", _cmd_project,
     {"input": {"help": "joint-state JSON file (rho convention)"}}),
    ("recover-length", "recover segment length from joint lengths", _cmd_recover_length,
     {"input": {"help": "joint-state JSON file (q convention)"},
      "tol": {"help": "off-manifold tolerance"}}),
    ("arc to-clarke", "arc parameters to Clarke coordinates", _cmd_arc_to_clarke,
     {"input": {"help": "arc-parameter JSON file {kappa, theta, l}"}}),
    ("arc from-clarke", "Clarke coordinates to arc parameters", _cmd_arc_from_clarke,
     {"input": {"help": "Clarke-state JSON file {cc: [re, im]}"}}),
    ("sample", "sample the backbone arc as a polyline", _cmd_sample,
     {"input": {"help": "arc-parameter JSON file {kappa, theta, l}"},
      "format": {"choices": ("csv", "json")}}),
    ("chain forward", "chain state to per-segment Clarke coordinates", _cmd_chain_forward,
     {"input": {"help": "chain-state JSON file"}}),
    ("chain inverse", "per-segment Clarke coordinates to chain state", _cmd_chain_inverse,
     {"input": {"help": "chain Clarke JSON file {segments: [{cc: ...}]}"}}),
    ("chain accumulate", "per-segment rho to coupled joint lengths", _cmd_chain_accumulate,
     {"input": {"help": "chain-state JSON file (rho convention)"}}),
)

# Each command group's help, and the metavar of its subcommands.
_GROUPS = {
    "arc": ("constant-curvature arc bridge", "direction"),
    "chain": ("multi-segment operations", "operation"),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are SchemaErrors (exit 2)."""

    def error(self, message: str) -> NoReturn:
        raise SchemaError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dacr",
        description="Clarke-transform kinematics for displacement-actuated "
        "continuum robots.",
    )
    subparsers = {"": parser.add_subparsers(required=True, metavar="command")}
    for path, help_text, handler, flags in _COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subparsers:
            group_help, metavar = _GROUPS[group]
            p = subparsers[""].add_parser(group, help=group_help)
            subparsers[group] = p.add_subparsers(required=True, metavar=metavar)
        p = subparsers[group].add_parser(name, help=help_text)
        for param in inspect.signature(handler).parameters.values():
            required = param.default is param.empty
            kwargs = {**_FLAGS[param.name], **flags.get(param.name, {})}
            kwargs |= {"required": True} if required else {"default": param.default}
            p.add_argument(f"--{param.name}", **kwargs)
        p.add_argument("--out", **_FLAGS["out"])
        p.set_defaults(handler=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`main`'s parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _check_finite_flags(flags: dict[str, Any]) -> None:
    for name, value in flags.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"--{name} must be a finite number, got {value}")


def main(argv: list[str] | None = None) -> int:
    # No NumPy warning reaches stderr; the finiteness checks refuse overflows.
    try:
        flags = vars(_parser().parse_args(argv))
        handler, out = flags.pop("handler"), flags.pop("out")
        with np.errstate(all="ignore"):
            _check_finite_flags(flags)
            result, code = handler(**flags)
            _emit(result, out)
        return code
    except (DacrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, DacrError) else 2


if __name__ == "__main__":
    sys.exit(main())
