"""Multi-segment composition.

Independent actuation (each segment driven locally) is just the
per-segment forward transform applied block-diagonally. Interdependent
actuation (distal actuation paths routed through proximal segments)
couples joint lengths additively:

    q^1 = l^1 * ones - rho^1
    q^j = l^j * ones - rho^j + q^(j-1)      for j >= 2

and is undone on the Clarke side by the block lower-bidiagonal pattern
cc^1 = -mp @ q^1, cc^j = mp @ q^(j-1) - mp @ q^j. The per-segment
constants l^j telescope into the q vectors but are filtered out by the
transform, so the Clarke coordinates never depend on them.

Interdependent composition is defined for bending-only segments with one
shared arrangement: the rule is :func:`dacr.model.interdependent_violations`.
A chain state computed here is checked finite and frozen once, in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clarke import (
    ClarkeCoordinates,
    ClarkePair,
    DisplacementCheck,
    _as_vector,
    _check_finite,
    _check_length,
    _forward,
    _validate_displacement,
    build_pair,
    inverse,
)
from .errors import (
    ArrangementMismatch,
    ConventionMismatch,
    DimensionMismatch,
    DomainError,
    FilterPropertyUnavailable,
)
from .model import Coupling, RobotSpec, _checked, _member, _readonly, interdependent_violations
from .segments import Convention


@dataclass(frozen=True)
class ChainState:
    """One joint-space vector per segment, all in a single convention."""

    convention: Convention
    per_segment: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "convention", _member(Convention, self.convention, "convention"))
        object.__setattr__(self, "per_segment", _frozen_rows(self.per_segment))


def _frozen_rows(rows) -> tuple[np.ndarray, ...]:
    """Each row as a private read-only finite 1-D float copy. One finiteness test
    covers all rows; only if it fails (a non-finite or non-numeric entry, a row
    not 1-D, no rows) is each row checked alone, so the first faulty row raises."""
    try:
        rows = tuple(rows)  # a generator is read once, for both passes
    except TypeError:
        raise DomainError(f"a chain state needs a sequence of rows, got {rows!r}") from None
    try:
        vectors = [_readonly(values) for values in rows]
        flat = np.concatenate(vectors)  # raises, or is not 1-D, for a row that is not 1-D
        ok = flat.ndim == 1 and np.count_nonzero(np.isfinite(flat)) == flat.shape[0]
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        vectors = [_readonly(_as_vector(v, name=f"segment {i} values")) for i, v in enumerate(rows)]
    return tuple(vectors)


@dataclass(frozen=True)
class ChainClarke:
    """Clarke coordinates per segment, in chain order."""

    per_segment: tuple[ClarkeCoordinates, ...]


def _check_segment_count(robot: RobotSpec, count: int) -> None:
    if count != len(robot.segments):
        raise DimensionMismatch(f"state has {count} segments, robot has {len(robot.segments)}")


def _independent_segments(robot: RobotSpec, vectors: tuple[np.ndarray, ...]):
    """Each segment's pair and vector, the segment count checked first, then each length."""
    _check_segment_count(robot, len(vectors))
    for seg, rho in zip(robot.segments, vectors):
        pair = build_pair(seg.arrangement)
        _check_length(rho, pair.n, "rho")
        yield pair, rho


def _shared_pair(robot: RobotSpec) -> ClarkePair:
    """The single Clarke pair shared by an interdependent chain, checked
    on the first call and returned as the same object on every later one.

    The pair is memoised on the robot, with the read-only (m,) lengths
    array of :func:`_accumulate`. The robot is frozen down to its read-only
    arrays, so the memo can never go stale; a ``dataclasses.replace`` copy
    is checked anew. A failed check stores nothing.

    Raises:
        ConventionMismatch: robot is not interdependent, or has segments
            with length/twist joints.
        DomainError: robot has no segments.
        ArrangementMismatch: segments do not share one arrangement.
        FilterPropertyUnavailable: the shared arrangement does not
            filter constant offsets, so the telescoped lengths would
            leak into the Clarke coordinates.
    """
    pair = getattr(robot, "_shared_pair", None)
    if pair is not None:
        return pair
    if robot.coupling is not Coupling.INTERDEPENDENT:
        raise ConventionMismatch("robot couples segments independently; use independent_forward")
    if not robot.segments:
        raise DomainError("robot has no segments")
    # Segment types are reported before arrangements.
    faults = sorted(interdependent_violations(robot.segments), key=lambda v: v.field == "joints")
    if faults:
        error = ArrangementMismatch if faults[0].field == "joints" else ConventionMismatch
        raise error(f"segment {faults[0].segment}: {faults[0].message}")
    pair = build_pair(robot.segments[0].arrangement)
    if not pair.filter_ok:
        raise FilterPropertyUnavailable(
            "interdependent composition requires an arrangement that filters "
            "constant offsets"
        )
    object.__setattr__(robot, "_lengths", _readonly([seg.length for seg in robot.segments]))
    object.__setattr__(robot, "_shared_pair", pair)
    return pair


def chain_forward(robot: RobotSpec, state: ChainState) -> ChainClarke:
    """Per-segment Clarke coordinates of a chain, dispatched on its coupling.

    Raises:
        As :func:`interdependent_forward` or :func:`independent_forward`.
    """
    if robot.coupling is Coupling.INTERDEPENDENT:
        return interdependent_forward(robot, state)
    return independent_forward(robot, state)


def chain_inverse(robot: RobotSpec, cc: ChainClarke) -> ChainState:
    """Joint-space vectors realizing per-segment Clarke coordinates,
    dispatched on the chain's coupling; roundtrips with :func:`chain_forward`.
    An independent chain gets displacements from each segment's own pair.

    Raises:
        DimensionMismatch, DomainError: segment count mismatch, or an overflowing
            reconstruction; others as :func:`interdependent_inverse`.
    """
    if robot.coupling is Coupling.INTERDEPENDENT:
        return interdependent_inverse(robot, cc)
    _check_segment_count(robot, len(cc.per_segment))
    rho = (inverse(build_pair(seg.arrangement), c) for seg, c in zip(robot.segments, cc.per_segment))
    return _checked(ChainState, convention=Convention.RHO, per_segment=tuple(_readonly(r, True) for r in rho))


def validate_displacement(
    robot: RobotSpec, state: ChainState, tol: float | None = None
) -> tuple[DisplacementCheck, ...]:
    """Check every segment's displacement vector against its own manifold,
    as :func:`dacr.clarke.validate_displacement` does for one segment,
    with the same default tolerance.

    Raises:
        ConventionMismatch: state holds q, not displacements.
        DimensionMismatch: segment count or vector length mismatch.
        DomainError: tol is negative or NaN.
    """
    if state.convention is not Convention.RHO:
        raise ConventionMismatch("displacement validation applies to rho states")
    pairs = _independent_segments(robot, state.per_segment)
    return tuple(_validate_displacement(pair, rho, tol) for pair, rho in pairs)


def independent_forward(robot: RobotSpec, state: ChainState) -> ChainClarke:
    """Per-segment forward transform for independently actuated chains.

    Each segment's Clarke coordinates come from its own matrix pair;
    segments may differ in joint count and arrangement.

    Raises:
        ConventionMismatch: robot is interdependent, or state holds q
            (the q convention flips the sign; convert or use the
            interdependent operations).
        DimensionMismatch: segment count or vector length mismatch.
    """
    if robot.coupling is not Coupling.INDEPENDENT:
        raise ConventionMismatch(
            "robot couples segments interdependently; use interdependent_forward"
        )
    if state.convention is not Convention.RHO:
        raise ConventionMismatch("independent_forward expects displacements (rho)")
    pairs = _independent_segments(robot, state.per_segment)
    return ChainClarke(per_segment=tuple(_forward(pair, rho) for pair, rho in pairs))


def interdependent_accumulate(robot: RobotSpec, rho_per_seg) -> ChainState:
    """Accumulate per-segment displacements into coupled joint lengths.

    q^1 = l^1*ones - rho^1, then q^j = l^j*ones - rho^j + q^(j-1), with
    the segment lengths l^j of the robot description.

    Args:
        robot: interdependent robot description.
        rho_per_seg: one displacement vector per segment, read as ChainState rows.

    Raises:
        ConventionMismatch, ArrangementMismatch, FilterPropertyUnavailable,
        DimensionMismatch: see :func:`_shared_pair`.
    """
    pair = _shared_pair(robot)
    try:
        rho = np.asarray(rho_per_seg, dtype=float)  # the one conversion of clean rows
    except (TypeError, ValueError, OverflowError):
        rho = None
    if rho is None or rho.ndim != 2 or rho.shape[1] != pair.n or not np.isfinite(rho).all():
        rows = _frozen_rows(rho_per_seg)  # names the first faulty row
        for j, r in enumerate(rows):
            _check_length(r, pair.n, f"segment {j} rho")
        rho = np.array(rows)
    return _accumulate(robot, rho)


def _accumulate(robot: RobotSpec, rho: np.ndarray) -> ChainState:
    """:func:`interdependent_accumulate` on a finite (m, n) stack.

    One running sum down the stack: row j is l^j - rho^j + q^(j-1),
    added in the order of the recurrence, so the result is that of the
    recurrence bit for bit. Adding +0.0 turns a -0.0 into +0.0, as the
    recurrence's start from zeros does. The new stack is checked finite once
    and frozen in place; a sum that overflows is refused as a caller's rows are.
    """
    _check_segment_count(robot, len(rho))
    q = np.add.accumulate(robot._lengths[:, None] - rho, axis=0) + 0.0
    if np.count_nonzero(np.isfinite(q)) != q.size:
        return ChainState(convention=Convention.Q, per_segment=tuple(q))
    return _checked(ChainState, convention=Convention.Q, per_segment=tuple(_readonly(q, own=True)))


def interdependent_forward(robot: RobotSpec, state: ChainState) -> ChainClarke:
    """Clarke coordinates of an interdependent chain from coupled q.

    cc^1 = -mp @ q^1 and cc^j = mp @ q^(j-1) - mp @ q^j: the diagonal
    -mp / subdiagonal +mp block pattern, valid for any segment count.
    The accumulated constants drop out via the filter property, so the
    result matches the per-segment forward transform of the underlying
    displacements.

    Raises:
        ConventionMismatch: wrong coupling, segment types, or a rho
            state.
        ArrangementMismatch, FilterPropertyUnavailable, DimensionMismatch:
            see :func:`_shared_pair`.
    """
    pair = _shared_pair(robot)
    if state.convention is not Convention.Q:
        raise ConventionMismatch("interdependent_forward expects joint lengths (q)")
    _check_segment_count(robot, len(state.per_segment))
    mp, n, out, prev = pair.mp, pair.n, [], None
    for q in state.per_segment:
        _check_length(q, n, "q")
        cur = mp @ q
        out.append(ClarkeCoordinates(*(-cur if prev is None else prev - cur).tolist()))
        prev = cur
    return ChainClarke(per_segment=tuple(out))


def interdependent_inverse(robot: RobotSpec, cc: ChainClarke) -> ChainState:
    """Coupled joint lengths realizing given per-segment Clarke coordinates.

    Reconstructs all displacement vectors in one stacked product, which
    on the contiguous (m, 2) stack gives each row of
    :func:`~dacr.clarke.inverse` bit for bit, then accumulates.
    Roundtrips with :func:`interdependent_forward`.

    Raises:
        ConventionMismatch, ArrangementMismatch, FilterPropertyUnavailable,
        DimensionMismatch: see :func:`interdependent_accumulate`.
        DomainError: a reconstruction overflows.
    """
    pair = _shared_pair(robot)
    stack = np.array([(c.rho_re, c.rho_im) for c in cc.per_segment]).reshape(-1, 2)
    rho = np.matmul(pair.mp_inv, stack[..., None])[..., 0]
    return _accumulate(robot, _check_finite(rho, "reconstructed rho"))
