"""Loading and emission of robot descriptions, states, and results.

Every number is emitted as its ``repr``, the shortest decimal string
that round-trips to the same IEEE-754 double: lossless and stable
across platforms, so emitted files can be compared byte-for-byte. JSON
text is exactly ``json.dumps(obj, indent=2)``, written as unjoined
pieces; float arrays are formatted in row blocks by orjson, indented at
their nesting depth, and re-spelled where it differs from ``repr`` (the
positional 0.000015 only in blocks with 0 < |x| < 1e-4). NaN and
infinity have no JSON form and are refused with :class:`~dacr.errors.DomainError`.

Every document is read by one field reader, ``_fields``: a key without a
default is required, only the optional ``beta`` and ``alpha`` may be null,
and a field is named by its path, as ``segments[1].joints.symmetric.n``.
Schema errors (text that is not UTF-8, malformed or too deeply nested
JSON, wrong shape, missing or unknown keys, wrong JSON types or enum values)
raise :class:`~dacr.errors.SchemaError`; value-domain problems inside
a well-formed document surface as :class:`~dacr.errors.DomainError`
from the constructors, or as violations from :func:`~dacr.model.validate_robot`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict
from functools import partial
from typing import IO, Any, Iterator

import numpy as np

from .arc import ArcParameters, BackbonePolyline
from .chain import ChainClarke, ChainState
from .clarke import ClarkeCoordinates
from .errors import DimensionMismatch, DomainError, SchemaError
from .model import (
    Coupling,
    JointArrangement,
    RobotSpec,
    SegmentSpec,
    SegmentType,
    Violation,
    _member,
    make_symmetric_arrangement,
)
from .segments import Convention, ExtendedClarkeState, JointState

# ---------------------------------------------------------------------------
# parsing


def _reject_constant(name: str) -> float:
    raise SchemaError(f"non-finite JSON constant {name!r} is not allowed")


def loads_strict(text: str) -> Any:
    """Parse JSON, rejecting the NaN/Infinity extensions."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # also too-long integers, too-deep nesting
        raise SchemaError(f"malformed JSON: {exc}") from exc


def _load_json_file(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None
    return loads_strict(text)


def _as_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be a JSON object")
    return value


def _refuse_unknown(data: dict, known, where: str) -> None:
    for key in data:
        if key not in known:
            raise SchemaError(f"{where} has unknown key {key!r}")


def _fields(data: Any, where: str, nested: bool = False, **spec) -> dict[str, Any]:
    """The keys of ``spec`` read from the JSON object ``data``, in order.

    Each key maps to a reader ``read(value, name)``, to ``(read, default)``,
    or to None if it is only emitted, and so accepted and ignored. A key
    without a default is required; one whose default is None may also be
    null. A field is named by its key, or ``where.key`` when ``nested``; a
    missing key, and once all are read an undeclared one, is reported at ``where``.
    """
    data = _as_mapping(data, where)
    fields = {}
    for key, read in spec.items():
        if read is None:
            continue
        optional = isinstance(read, tuple)
        if key in data and not (optional and data[key] is None and read[1] is None):
            fields[key] = (read[0] if optional else read)(data[key], f"{where}.{key}" if nested else key)
        elif optional:
            fields[key] = read[1]
        else:
            raise SchemaError(f"{where} is missing required key {key!r}")
    _refuse_unknown(data, spec, where)
    return fields


def _each(value: Any, where: str, **spec) -> list[dict[str, Any]]:
    """The fields of each object in the JSON array ``value``, named ``where[i]``."""
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be an array")
    return [_fields(item, f"{where}[{i}]", nested=True, **spec) for i, item in enumerate(value)]


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise DomainError(f"{where} must be a finite number")
    return number


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer")
    return value


def _as_numbers(value: Any, where: str) -> list[float]:
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be an array of numbers")
    return [_as_number(x, f"{where}[{i}]") for i, x in enumerate(value)]


def _as_cc(value: Any, where: str) -> ClarkeCoordinates:
    pair = _as_numbers(value, where)
    if len(pair) != 2:
        raise SchemaError(f"{where} must hold exactly two numbers")
    return ClarkeCoordinates(*pair)


def _as_joints(joints: Any, where: str) -> JointArrangement:
    """One of ``{"symmetric": {"n", "d"}}`` or ``{"explicit": [{"psi", "d"}, ...]}``, and no other key."""
    joints = _as_mapping(joints, where)
    if ("symmetric" in joints) == ("explicit" in joints):
        raise SchemaError(f"{where} must have exactly one of 'symmetric' or 'explicit'")
    _refuse_unknown(joints, ("symmetric", "explicit"), where)
    if "symmetric" in joints:
        sym = _fields(joints["symmetric"], f"{where}.symmetric", nested=True, n=_as_int, d=_as_number)
        return make_symmetric_arrangement(**sym)
    entries = _each(joints["explicit"], f"{where}.explicit", psi=_as_number, d=_as_number)
    return JointArrangement(psi=[e["psi"] for e in entries], d=[e["d"] for e in entries])


# The readers that more than one document kind declares.
_CONVENTION = partial(_member, Convention, error=SchemaError)
_JOINT_SCALARS = dict(beta=(_as_number, None), alpha=(_as_number, None))


def parse_robot(data: Any) -> RobotSpec:
    """Build a RobotSpec from decoded robot-description JSON.

    Expected shape::

        { "coupling": "independent" | "interdependent",   (default independent)
          "segments": [
            { "type": "type0"|"type1"|"type2"|"type3",    (default type0)
              "length": <number>,
              "joints": { "symmetric": {"n": <int>, "d": <number>} }
                      | { "explicit": [ {"psi": <rad>, "d": <number>}, ... ] } } ] }

    Raises:
        SchemaError: structural problems.
        DomainError: well-formed but out-of-domain values, from the
            constructors (e.g. a symmetric arrangement with n < 3).
    """
    fields = _fields(
        data, "robot description",
        coupling=(partial(_member, Coupling, error=SchemaError), Coupling.INDEPENDENT),
        segments=partial(_each, type=(partial(_member, SegmentType, error=SchemaError), SegmentType.TYPE0),
                         length=_as_number, joints=_as_joints))
    segments = tuple(SegmentSpec(s["joints"], s["length"], s["type"]) for s in fields["segments"])
    return RobotSpec(segments=segments, coupling=fields["coupling"])


def load_robot(path: str) -> RobotSpec:
    """Load a robot description from a JSON file."""
    return parse_robot(_load_json_file(path))


def parse_joint_state(data: Any) -> JointState:
    """Build a JointState from decoded joint-state JSON.

    Expected shape: ``{"convention": "rho"|"q", "values": [...],
    "beta": <num, optional>, "alpha": <num, optional>}``.
    """
    return JointState(**_fields(data, "joint state", convention=_CONVENTION, values=_as_numbers, **_JOINT_SCALARS))


def parse_chain_state(data: Any) -> ChainState:
    """Build a ChainState from decoded chain-state JSON.

    Expected shape: ``{"convention": "rho"|"q",
    "segments": [{"values": [...]}, ...]}``.
    """
    fields = _fields(data, "chain state", convention=_CONVENTION, segments=partial(_each, values=_as_numbers))
    return ChainState(fields["convention"], tuple(seg["values"] for seg in fields["segments"]))


def _load_by_shape(path: str, where: str, single, chain):
    data = _as_mapping(_load_json_file(path), where)
    return (chain if "segments" in data else single)(data)


def load_state(path: str) -> JointState | ChainState:
    """Load a state file: a chain state if it has ``segments``, else a joint state."""
    return _load_by_shape(path, "state", parse_joint_state, parse_chain_state)


def parse_clarke_state(data: Any) -> ExtendedClarkeState:
    """Build an ExtendedClarkeState from decoded JSON.

    Expected shape: ``{"cc": [<re>, <im>], "beta": <num, optional>,
    "alpha": <num, optional>}``.
    """
    return ExtendedClarkeState(**_fields(data, "Clarke state", cc=_as_cc, **_JOINT_SCALARS))


def parse_chain_clarke(data: Any) -> ChainClarke:
    """Build a ChainClarke from decoded JSON.

    Expected shape: ``{"segments": [{"cc": [<re>, <im>]}, ...]}``.
    """
    segments = _fields(data, "chain Clarke state", segments=partial(_each, cc=_as_cc))["segments"]
    return ChainClarke(tuple(seg["cc"] for seg in segments))


def load_clarke(path: str) -> ExtendedClarkeState | ChainClarke:
    """Load a Clarke-side state file, dispatching on shape as :func:`load_state` does."""
    return _load_by_shape(path, "Clarke state", parse_clarke_state, parse_chain_clarke)


# The arc document: phi and theta_defined are derived, so they are emitted only.
_ARC = dict(kappa=_as_number, theta=(_as_number, 0.0), l=_as_number, phi=None, theta_defined=None)


def parse_arc(data: Any) -> ArcParameters:
    """Build ArcParameters from decoded JSON.

    Expected shape: ``{"kappa": <num>, "theta": <num>, "l": <num>}`` (theta
    optional, default 0); the emitted ``phi`` and ``theta_defined`` are ignored.
    """
    return ArcParameters(**_fields(data, "arc parameters", **_ARC))


def load_arc(path: str) -> ArcParameters:
    """Load arc parameters from a JSON file."""
    return parse_arc(_load_json_file(path))


# ---------------------------------------------------------------------------
# emission

# Rows per block of a formatted float array: orjson's output and its
# rewrites never exceed one block, and CSV is written block by block.
_BLOCK_ROWS = 4096

_NON_FINITE = "result holds a non-finite number, which JSON and CSV cannot carry"


def _finite_array(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise DomainError(_NON_FINITE)
    return a


def _with_joint_scalars(out: dict, state: JointState | ExtendedClarkeState) -> dict:
    """``out`` and the state's ``beta`` and ``alpha``, each only if set."""
    return out | {key: getattr(state, key) for key in _JOINT_SCALARS if getattr(state, key) is not None}


def clarke_state_dict(state: ExtendedClarkeState) -> dict:
    return _with_joint_scalars({"cc": [state.cc.rho_re, state.cc.rho_im]}, state)


def joint_state_dict(state: JointState) -> dict:
    out = {"convention": state.convention.value, "values": state.values.tolist()}
    return _with_joint_scalars(out, state)


def chain_clarke_dict(cc: ChainClarke) -> dict:
    return {"segments": [{"cc": [c.rho_re, c.rho_im]} for c in cc.per_segment]}


def chain_state_dict(state: ChainState) -> dict:
    return {
        "convention": state.convention.value,
        "segments": [{"values": v.tolist()} for v in state.per_segment],
    }


def arc_dict(arc: ArcParameters) -> dict:
    return {key: getattr(arc, key) for key in _ARC}


def violations_dict(violations: list[Violation]) -> dict:
    return {"valid": not violations, "violations": [asdict(v) for v in violations]}


def _exponent_form(m: re.Match) -> bytes:
    """repr's 1.5e-05 for orjson's 0.000015; unchanged after a digit, as the tail of 10.000015."""
    if m.string[m.start() - 1 : m.start()].isdigit():
        return m[0]
    return m[1] + (b"." + m[2] if m[2] else b"") + b"e-05"


def _format_blocks(a: np.ndarray, level: int | None) -> Iterator[str]:
    """Each ``_BLOCK_ROWS``-row block of a finite float array in ``repr``'s
    spelling: its items, indented by orjson for nesting depth ``level``, or
    with ``None`` the compact rows of a 2-D table. orjson's 1e16, 1.5e-7 and
    0.000015 are rewritten; the last only in blocks holding 0 < |x| < 1e-4."""
    import orjson  # here, so that a process that emits no array never loads it

    option = orjson.OPT_SERIALIZE_NUMPY | (0 if level is None else orjson.OPT_INDENT_2)
    # Indented, the block's own "[" follows the L(L+3) characters that open
    # L wrappers, and its items end before its "\n" + indent + "]".
    head, tail = (2, 2) if level is None else (level * (level + 3) + 1, level * (level + 3) + 2)
    for start in range(0, a.shape[0], _BLOCK_ROWS):
        block = np.ascontiguousarray(a[start : start + _BLOCK_ROWS])
        wrapped = block
        for _ in range(level or 0):
            wrapped = [wrapped]
        try:
            text = orjson.dumps(wrapped, option=option)
        except orjson.JSONEncodeError:  # a float array's only failure: nesting past orjson's limit
            raise DomainError("result nests too deeply to encode as JSON") from None
        if b"e" in text:
            text = re.sub(rb"e-(\d)\b", rb"e-0\1", text.replace(b"e", b"e+").replace(b"e+-", b"e-"))
        if ((np.abs(block) < 1e-4) & (block != 0)).any():
            text = re.sub(rb"0\.0000([1-9])(\d*)", _exponent_form, text)
        yield str(memoryview(text)[head : len(text) - tail], "ascii")


def _pieces(obj: Any, level: int) -> Iterator[str]:
    """``json.dumps(obj, indent=2)`` at nesting depth ``level``, in pieces;
    a float ndarray's are the blocks of :func:`_format_blocks`."""
    if isinstance(obj, np.ndarray) and obj.ndim and obj.shape[0]:
        for i, block in enumerate(_format_blocks(_finite_array(obj), level)):
            yield "," if i else "["
            yield block
        yield "\n" + "  " * level + "]"
    elif isinstance(obj, np.ndarray):
        yield from _pieces(_finite_array(obj).tolist(), level)
    elif isinstance(obj, (dict, list, tuple)) and obj:
        is_dict = isinstance(obj, dict)
        inner = "\n" + "  " * (level + 1)
        for i, item in enumerate(obj.items() if is_dict else obj):
            yield ("," if i else "{" if is_dict else "[") + inner
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise DomainError(f"JSON object keys must be strings, got {key!r}")
                yield json.dumps(key) + ": "
            yield from _pieces(item, level + 1)
        yield "\n" + "  " * level + ("}" if is_dict else "]")
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError(_NON_FINITE)
        yield float.__repr__(obj)  # as json.dumps spells a finite float
    else:
        yield json.dumps(obj)  # also an empty list, tuple or dict


def dump_json(obj: Any, stream: IO[str]) -> None:
    """Write an object as two-space-indented JSON with a trailing newline.

    The text is byte for byte ``json.dumps(obj, indent=2)``; float
    ndarrays may stand in for nested lists. Its pieces are never joined,
    but all are made first: nothing is written unless the whole encodes.

    Raises:
        DomainError: if a number is NaN or infinite, a key is not a string,
            a leaf has no JSON form (as 1+2j), or obj nests too deeply.
    """
    try:
        pieces = list(_pieces(obj, 0))
    except RecursionError:
        raise DomainError("result nests too deeply to encode as JSON") from None
    except (TypeError, ValueError) as exc:  # from json.dumps or float() of a leaf
        raise DomainError(f"result cannot be encoded as JSON: {exc}") from None
    stream.writelines(pieces)
    stream.write("\n")


def _write_csv(header: str, table: np.ndarray, stream: IO[str]) -> None:
    table = _finite_array(table)
    if table.ndim != 2:
        raise DimensionMismatch(f"a CSV table must be two-dimensional, got shape {table.shape}")
    stream.write(header)
    for rows in _format_blocks(table, None):
        stream.write(rows.replace("],[", "\n"))
        stream.write("\n")  # apart: appending it would copy the block once more


def write_matrix_csv(name: str, matrix: np.ndarray, stream: IO[str]) -> None:
    """Write one matrix as a name line followed by comma-separated rows.

    Raises:
        DimensionMismatch: if the matrix is not 2-D; nothing is written.
        DomainError: if an entry is NaN or infinite; nothing is written.
    """
    _write_csv(name + "\n", matrix, stream)


def write_polyline_csv(polyline: BackbonePolyline, stream: IO[str]) -> None:
    """Write a sampled backbone as ``s,x,y,z`` rows, full precision.

    Raises:
        DomainError: if a value is NaN or infinite; nothing is written.
    """
    _write_csv("s,x,y,z\n", np.column_stack((polyline.s, polyline.points)), stream)
