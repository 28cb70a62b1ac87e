"""The library boundary: every state holds private copies of its arrays,
and input that NumPy or float() cannot turn into numbers, or that names
no enum member, is refused with a DacrError."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dacr.chain as chain_module
from dacr import (
    ArcParameters,
    BackbonePolyline,
    ChainState,
    ClarkeCoordinates,
    Convention,
    Coupling,
    DacrError,
    DomainError,
    ExtendedClarkeState,
    JointArrangement,
    JointState,
    RobotSpec,
    SegmentSpec,
    SegmentType,
    arc_to_clarke,
    arc_to_displacements,
    build_pair,
    clarke_to_arc,
    forward,
    helical_offset,
    interdependent_accumulate,
    make_symmetric_arrangement,
    project,
    recover_length,
    sample_backbone,
    segment_forward,
    type1_forward_from_q,
    type3_forward_from_q,
    validate_displacement,
    validate_robot,
)

FINITE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(1, 4), n=st.integers(2, 6), data=st.data())
def test_states_hold_private_read_only_copies(m, n, data):
    # Every array handed in is a view of one 2-D buffer, itself a view of base.
    base = np.array(data.draw(st.lists(FINITE, min_size=m * n + 1, max_size=m * n + 1)))
    buffer = base[1:].reshape(m, n)
    rows = tuple(buffer)
    scalar_row = buffer[0, 0, ...]  # a 0-d view: the per-row path of ChainState
    arrangement = JointArrangement(psi=rows[0], d=rows[-1])
    poly = BackbonePolyline(s=rows[0], points=buffer)
    held = [
        JointState(Convention.RHO, rows[0]).values,
        *ChainState(Convention.Q, rows).per_segment,
        *ChainState(Convention.Q, (scalar_row, *rows)).per_segment,
        arrangement.psi,
        arrangement.d,
        poly.s,
        poly.points,
    ]
    before = [a.tobytes() for a in held]

    for row in rows:
        row[:] = np.nan
    scalar_row[...] = -1.0
    base[:] = np.inf

    assert [a.tobytes() for a in held] == before
    assert all(a.flags.writeable for a in (base, buffer, scalar_row, *rows))
    assert not any(a.flags.writeable for a in held)


SYM3 = make_symmetric_arrangement(3, 10.0)
PAIR = build_pair(SYM3)
CHAIN = RobotSpec((SegmentSpec(SYM3, 100.0),), Coupling.INTERDEPENDENT)

# Every public entry that takes a joint-space vector, or a sequence of them.
VECTOR_ENTRIES = {
    "forward": lambda v: forward(PAIR, v),
    "project": lambda v: project(PAIR, v),
    "validate_displacement": lambda v: validate_displacement(PAIR, v),
    "recover_length": lambda v: recover_length(PAIR, v),
    "type1_forward_from_q": lambda v: type1_forward_from_q(PAIR, v),
    "type3_forward_from_q": lambda v: type3_forward_from_q(PAIR, v, 0.1, 10.0),
    "JointState": lambda v: JointState(Convention.Q, v),
    "ChainState row": lambda v: ChainState(Convention.Q, ([100.0, 100.0, 100.0], v)),
    "ChainState rows": lambda v: ChainState(Convention.Q, v),
    "interdependent_accumulate": lambda v: interdependent_accumulate(CHAIN, (v,)),
    "JointArrangement psi": lambda v: JointArrangement(psi=v, d=[1.0, 1.0, 1.0]),
    "JointArrangement d": lambda v: JointArrangement(psi=[0.0, 2.0, 4.0], d=v),
}

LEAVES = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([math.nan, math.inf, 10**400, -(10**400)]),
    st.text(max_size=4),
    st.none(),
)
# Text, None, integers past double range, and nested lists, ragged or not,
# of numbers, text and None.
UNCONVERTIBLE = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(entry=st.sampled_from(sorted(VECTOR_ENTRIES)), value=UNCONVERTIBLE)
def test_only_dacr_errors_escape_for_any_vector_input(entry, value):
    try:
        VECTOR_ENTRIES[entry](value)
    except DacrError:
        pass


@pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["10**400", "-10**400"])
@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
def test_integer_past_double_range_is_a_domain_error(entry, big):
    with pytest.raises(DomainError, match="must hold numbers"):
        VECTOR_ENTRIES[entry]([big, 0.0, 0.0])


ARC = ArcParameters(0.01, 0.5, 100.0)
CC = ClarkeCoordinates(3.0, 4.0)
RHO = [2.0, -1.0, -1.0]
Q = [98.0, 101.0, 101.0]
TYPE1 = SegmentSpec(SYM3, 100.0, SegmentType.TYPE1)

# Every public scalar or enum parameter, as a function of its value.
SCALAR_ENTRIES = {
    "SegmentSpec length": lambda v: SegmentSpec(SYM3, v),
    "SegmentSpec seg_type": lambda v: SegmentSpec(SYM3, 100.0, v),
    "RobotSpec coupling": lambda v: RobotSpec((), v),
    "JointState convention": lambda v: JointState(v, RHO),
    "ChainState convention": lambda v: ChainState(v, (RHO,)),
    "JointState beta": lambda v: JointState(Convention.Q, Q, beta=v),
    "JointState alpha": lambda v: JointState(Convention.Q, Q, alpha=v),
    "ExtendedClarkeState beta": lambda v: ExtendedClarkeState(CC, beta=v),
    "ExtendedClarkeState alpha": lambda v: ExtendedClarkeState(CC, alpha=v),
    "ClarkeCoordinates rho_re": lambda v: ClarkeCoordinates(v, 0.0),
    "ClarkeCoordinates rho_im": lambda v: ClarkeCoordinates(0.0, v),
    "ArcParameters kappa": lambda v: ArcParameters(v, 0.0, 100.0),
    "ArcParameters theta": lambda v: ArcParameters(0.01, v, 100.0),
    "ArcParameters l": lambda v: ArcParameters(0.01, 0.0, v),
    "make_symmetric_arrangement n": lambda v: make_symmetric_arrangement(v, 10.0),
    "make_symmetric_arrangement d": lambda v: make_symmetric_arrangement(3, v),
    "helical_offset alpha": lambda v: helical_offset(v, 10.0, 100.0),
    "helical_offset d": lambda v: helical_offset(0.1, v, 100.0),
    "helical_offset l": lambda v: helical_offset(0.1, 10.0, v),
    "clarke_to_arc d": lambda v: clarke_to_arc(CC, v, 100.0),
    "clarke_to_arc l": lambda v: clarke_to_arc(CC, 10.0, v),
    "arc_to_clarke d": lambda v: arc_to_clarke(ARC, v),
    "arc_to_displacements d": lambda v: arc_to_displacements(PAIR, ARC, v),
    "sample_backbone points": lambda v: sample_backbone(ARC, v),
    "validate_displacement tol": lambda v: validate_displacement(PAIR, RHO, v),
    "chain validate_displacement tol": lambda v: chain_module.validate_displacement(
        RobotSpec((SegmentSpec(SYM3, 100.0),)), ChainState(Convention.RHO, (RHO,)), v),
    "recover_length tol": lambda v: recover_length(PAIR, Q, v),
    "type1_forward_from_q tol": lambda v: type1_forward_from_q(PAIR, Q, v),
    "type3_forward_from_q tol": lambda v: type3_forward_from_q(PAIR, Q, 0.1, 10.0, tol=v),
    "type3_forward_from_q alpha": lambda v: type3_forward_from_q(PAIR, Q, v, 10.0),
    "type3_forward_from_q d": lambda v: type3_forward_from_q(PAIR, Q, 0.1, v),
    "segment_forward tol": lambda v: segment_forward(TYPE1, JointState(Convention.Q, Q), v),
    "interdependent_accumulate rows": lambda v: interdependent_accumulate(CHAIN, v),
}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(entry=st.sampled_from(sorted(SCALAR_ENTRIES)), value=UNCONVERTIBLE)
def test_only_dacr_errors_escape_for_any_scalar_input(entry, value):
    try:
        SCALAR_ENTRIES[entry](value)
    except DacrError:
        pass


@pytest.mark.parametrize("call", [
    lambda: SegmentSpec(SYM3, 100.0, "abc"),
    lambda: ArcParameters("x", 0, 1),
    lambda: helical_offset("a", 1, 1),
    lambda: sample_backbone(ARC, math.inf),
    lambda: make_symmetric_arrangement(10**400, 1),
    lambda: make_symmetric_arrangement(1e300, 1),  # whole, but NumPy cannot index it
    lambda: ClarkeCoordinates(None, 1),
    lambda: JointState("x", RHO),
    lambda: RobotSpec((), "x"),
    lambda: interdependent_accumulate(CHAIN, None),
])
def test_unconvertible_scalars_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_a_scalar_is_what_float_reads():
    assert make_symmetric_arrangement("3", "10").n == make_symmetric_arrangement(3.0, 10).n == 3
    assert sample_backbone(ARC, "3").points.shape == (3, 3)
    assert ClarkeCoordinates("3", 4) == CC
    assert JointState(Convention.Q, Q, beta="2").beta == 2.0
    assert validate_displacement(PAIR, RHO, math.inf).valid
    for whole in (3.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="n >= 3"):
            make_symmetric_arrangement(whole, 10.0)


@pytest.mark.parametrize("call, message", [
    (lambda: RobotSpec(None), "robot segments must be a sequence, got None"),
    (lambda: RobotSpec(("x",)), "robot segment 0 must be a SegmentSpec, got 'x'"),
    (lambda: RobotSpec((SegmentSpec(SYM3, 1.0), 2.0)), "robot segment 1 must be a SegmentSpec, got 2.0"),
    (lambda: SegmentSpec("x", 1.0), "segment arrangement must be a JointArrangement, got 'x'"),
    (lambda: build_pair("x"), "build_pair needs a JointArrangement, got 'x'"),
    (lambda: make_symmetric_arrangement(2**63 - 1, 1.0), "cannot allocate 9223372036854775807 joints"),
    (lambda: make_symmetric_arrangement(2**60, 1.0), f"cannot allocate {2**60} joints"),
])
def test_objects_of_the_wrong_kind_are_domain_errors_naming_them(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


# Every public parameter that takes a library object, as a function of its value.
OBJECT_ENTRIES = {
    "RobotSpec segments": lambda v: validate_robot(RobotSpec(v)),
    "RobotSpec segment": lambda v: validate_robot(RobotSpec((v,))),
    "SegmentSpec arrangement": lambda v: validate_robot(RobotSpec((SegmentSpec(v, 1.0),))),
    "build_pair": build_pair,
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(entry=st.sampled_from(sorted(OBJECT_ENTRIES)), value=UNCONVERTIBLE)
def test_only_dacr_errors_escape_for_any_object_input(entry, value):
    try:
        OBJECT_ENTRIES[entry](value)
    except DacrError:
        pass
