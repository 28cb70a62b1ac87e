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
shared arrangement; length/twist joints have no composition rule across
a shared actuation path, and element-wise q addition presumes aligned
routing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clarke import ClarkeCoordinates, ClarkePair, _as_vector, build_pair, forward, inverse
from .errors import (
    ArrangementMismatch,
    ConventionMismatch,
    DimensionMismatch,
    FilterPropertyUnavailable,
)
from .model import Coupling, RobotSpec, SegmentType, arrangements_match
from .segments import Convention


@dataclass(frozen=True)
class ChainState:
    """One joint-space vector per segment, all in a single convention."""

    convention: Convention
    per_segment: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "convention", Convention(self.convention))
        vectors = []
        for i, values in enumerate(self.per_segment):
            v = _as_vector(values, name=f"segment {i} values")
            v.flags.writeable = False
            vectors.append(v)
        object.__setattr__(self, "per_segment", tuple(vectors))


@dataclass(frozen=True)
class ChainClarke:
    """Clarke coordinates per segment, in chain order."""

    per_segment: tuple[ClarkeCoordinates, ...]


def _check_segment_count(robot: RobotSpec, count: int) -> None:
    if count != len(robot.segments):
        raise DimensionMismatch(
            f"state has {count} segments, robot has {len(robot.segments)}"
        )


def _shared_pair(robot: RobotSpec) -> ClarkePair:
    """Build the single Clarke pair shared by an interdependent chain.

    Raises:
        ConventionMismatch: robot is not interdependent, or has segments
            with length/twist joints.
        ArrangementMismatch: segments do not share one arrangement.
        FilterPropertyUnavailable: the shared arrangement does not
            filter constant offsets, so the telescoped lengths would
            leak into the Clarke coordinates.
    """
    if robot.coupling is not Coupling.INTERDEPENDENT:
        raise ConventionMismatch(
            "robot couples segments independently; use independent_forward"
        )
    for j, seg in enumerate(robot.segments):
        if seg.seg_type is not SegmentType.TYPE0:
            raise ConventionMismatch(
                f"interdependent chains support only bending-only segments "
                f"(segment {j} is {seg.seg_type.value})"
            )
    first = robot.segments[0].arrangement
    for j, seg in enumerate(robot.segments[1:], start=1):
        if not arrangements_match(first, seg.arrangement):
            raise ArrangementMismatch(
                f"segment {j} arrangement differs from segment 0; "
                "interdependent routing requires aligned joints"
            )
    pair = build_pair(first)
    if not pair.filter_ok:
        raise FilterPropertyUnavailable(
            "interdependent composition requires an arrangement that filters "
            "constant offsets"
        )
    return pair


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
    _check_segment_count(robot, len(state.per_segment))
    out = []
    for seg, rho in zip(robot.segments, state.per_segment):
        out.append(forward(build_pair(seg.arrangement), rho))
    return ChainClarke(per_segment=tuple(out))


def independent_inverse(robot: RobotSpec, cc: ChainClarke) -> ChainState:
    """Per-segment displacements realizing given Clarke coordinates for
    independently actuated chains; roundtrips with :func:`independent_forward`.

    Raises:
        ConventionMismatch: robot is interdependent.
        DimensionMismatch: segment count mismatch.
    """
    if robot.coupling is not Coupling.INDEPENDENT:
        raise ConventionMismatch(
            "robot couples segments interdependently; use interdependent_inverse"
        )
    _check_segment_count(robot, len(cc.per_segment))
    vectors = tuple(
        inverse(build_pair(seg.arrangement), c)
        for seg, c in zip(robot.segments, cc.per_segment)
    )
    return ChainState(convention=Convention.RHO, per_segment=vectors)


def interdependent_accumulate(
    robot: RobotSpec, rho_per_seg, l_per_seg=None
) -> ChainState:
    """Accumulate per-segment displacements into coupled joint lengths.

    q^1 = l^1*ones - rho^1, then q^j = l^j*ones - rho^j + q^(j-1).

    Args:
        robot: interdependent robot description.
        rho_per_seg: one displacement vector per segment.
        l_per_seg: segment lengths; defaults to the lengths in the
            robot description.

    Raises:
        ConventionMismatch, ArrangementMismatch, FilterPropertyUnavailable,
        DimensionMismatch: see :func:`_shared_pair`.
    """
    return _accumulate(_shared_pair(robot), robot, rho_per_seg, l_per_seg)


def _accumulate(pair: ClarkePair, robot: RobotSpec, rho_per_seg, l_per_seg) -> ChainState:
    """:func:`interdependent_accumulate` on an already checked shared pair."""
    rho_per_seg = [_as_vector(r, pair.n, f"segment {j} rho") for j, r in enumerate(rho_per_seg)]
    _check_segment_count(robot, len(rho_per_seg))
    if l_per_seg is None:
        l_per_seg = [seg.length for seg in robot.segments]
    lengths = [float(l) for l in l_per_seg]
    if len(lengths) != len(rho_per_seg):
        raise DimensionMismatch(
            f"got {len(lengths)} lengths for {len(rho_per_seg)} segments"
        )
    ones = np.ones(pair.n)
    q_prev = np.zeros(pair.n)
    out = []
    for length, rho in zip(lengths, rho_per_seg):
        q_prev = length * ones - rho + q_prev
        out.append(q_prev)
    return ChainState(convention=Convention.Q, per_segment=tuple(out))


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
    out = []
    q_prev = None
    for q in state.per_segment:
        q = _as_vector(q, pair.n, "q")
        cc = -(pair.mp @ q) if q_prev is None else pair.mp @ q_prev - pair.mp @ q
        out.append(ClarkeCoordinates(float(cc[0]), float(cc[1])))
        q_prev = q
    return ChainClarke(per_segment=tuple(out))


def interdependent_inverse(
    robot: RobotSpec, cc: ChainClarke, l_per_seg=None
) -> ChainState:
    """Coupled joint lengths realizing given per-segment Clarke coordinates.

    Reconstructs each segment's displacement vector, then accumulates.
    Roundtrips with :func:`interdependent_forward`.

    Raises:
        ConventionMismatch, ArrangementMismatch, FilterPropertyUnavailable,
        DimensionMismatch: see :func:`interdependent_accumulate`.
    """
    pair = _shared_pair(robot)
    return _accumulate(pair, robot, [inverse(pair, c) for c in cc.per_segment], l_per_seg)
