"""The library boundary: every state holds private copies of its arrays,
and input NumPy cannot turn into numbers is refused with a DacrError."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dacr import (
    BackbonePolyline,
    ChainState,
    Convention,
    Coupling,
    DacrError,
    JointArrangement,
    JointState,
    RobotSpec,
    SegmentSpec,
    build_pair,
    forward,
    interdependent_accumulate,
    make_symmetric_arrangement,
    project,
    recover_length,
    type1_forward_from_q,
    type3_forward_from_q,
    validate_displacement,
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
    st.sampled_from([math.nan, math.inf]),
    st.text(max_size=4),
    st.none(),
)
# Text, None, and nested lists, ragged or not, of numbers, text and None.
UNCONVERTIBLE = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(entry=st.sampled_from(sorted(VECTOR_ENTRIES)), value=UNCONVERTIBLE)
def test_only_dacr_errors_escape_for_any_vector_input(entry, value):
    try:
        VECTOR_ENTRIES[entry](value)
    except DacrError:
        pass
