"""JSON/CSV parsing and emission."""

import copy
import io
import json
import math
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dacr import (
    ArcParameters,
    BackbonePolyline,
    ChainClarke,
    ChainState,
    ClarkeCoordinates,
    Convention,
    Coupling,
    DimensionMismatch,
    DomainError,
    ExtendedClarkeState,
    JointState,
    SchemaError,
    SegmentType,
    Violation,
    sample_backbone,
)
import dacr.io
from dacr.io import (
    arc_dict,
    chain_clarke_dict,
    chain_state_dict,
    clarke_state_dict,
    dump_json,
    joint_state_dict,
    load_clarke,
    load_robot,
    load_state,
    loads_strict,
    parse_arc,
    parse_chain_clarke,
    parse_chain_state,
    parse_clarke_state,
    parse_joint_state,
    parse_robot,
    violations_dict,
    write_matrix_csv,
    write_polyline_csv,
)

SYMMETRIC_ROBOT = {
    "coupling": "independent",
    "segments": [
        {"type": "type0", "length": 100.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
    ],
}


class TestLoadsStrict:
    def test_plain_document(self):
        assert loads_strict('{"a": [1, 2.5]}') == {"a": [1, 2.5]}

    @pytest.mark.parametrize("text", ["{", "", "[1,]", '{"a": 1,}'])
    def test_malformed(self, text):
        with pytest.raises(SchemaError):
            loads_strict(text)

    @pytest.mark.parametrize("text", ['{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}'])
    def test_non_finite_rejected(self, text):
        with pytest.raises(SchemaError):
            loads_strict(text)

    def test_overlong_integer_is_schema_error(self):
        with pytest.raises(SchemaError):
            loads_strict("1" + "0" * 5000)

    def test_too_deep_nesting_is_schema_error(self):
        with pytest.raises(SchemaError, match="malformed JSON"):
            loads_strict("[" * 100_000 + "]" * 100_000)


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1" + "0" * 400])
    def test_overflow_is_domain_error(self, text):
        with pytest.raises(DomainError, match="beta must be a finite number"):
            parse_joint_state(loads_strict(
                '{"convention": "rho", "values": [2, -1, -1], "beta": %s}' % text))
        with pytest.raises(DomainError, match=r"values\[1\] must be a finite number"):
            parse_joint_state(loads_strict('{"convention": "rho", "values": [2, %s, -1]}' % text))
        with pytest.raises(DomainError, match="l must be a finite number"):
            parse_arc(loads_strict('{"kappa": 0.1, "l": %s}' % text))


class TestParseRobot:
    def test_symmetric_segment(self):
        robot = parse_robot(SYMMETRIC_ROBOT)
        assert robot.coupling is Coupling.INDEPENDENT
        assert len(robot.segments) == 1
        seg = robot.segments[0]
        assert seg.seg_type is SegmentType.TYPE0
        assert seg.length == 100.0
        assert seg.arrangement.n == 3
        np.testing.assert_array_equal(seg.arrangement.d, [10.0, 10.0, 10.0])

    def test_defaults(self):
        robot = parse_robot({
            "segments": [{"length": 5, "joints": {"symmetric": {"n": 4, "d": 1}}}],
        })
        assert robot.coupling is Coupling.INDEPENDENT
        assert robot.segments[0].seg_type is SegmentType.TYPE0

    def test_explicit_arrangement(self):
        robot = parse_robot({
            "segments": [{
                "length": 2.0,
                "joints": {"explicit": [
                    {"psi": 0.0, "d": 1.0},
                    {"psi": 1.5707963267948966, "d": 1.0},
                    {"psi": 3.141592653589793, "d": 1.0},
                ]},
            }],
        })
        np.testing.assert_array_equal(
            robot.segments[0].arrangement.psi,
            [0.0, 1.5707963267948966, 3.141592653589793],
        )

    def test_interdependent_coupling(self):
        doc = dict(SYMMETRIC_ROBOT, coupling="interdependent")
        assert parse_robot(doc).coupling is Coupling.INTERDEPENDENT

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("segments"),
        lambda d: d.update(segments={}),
        lambda d: d.update(coupling="serial"),
        lambda d: d["segments"][0].pop("length"),
        lambda d: d["segments"][0].pop("joints"),
        lambda d: d["segments"][0].update(type="type9"),
        lambda d: d["segments"][0].update(length="100"),
        lambda d: d["segments"][0].update(length=True),
        lambda d: d["segments"][0].update(joints={}),
        lambda d: d["segments"][0].update(
            joints={"symmetric": {"n": 3, "d": 1}, "explicit": []}),
        lambda d: d["segments"][0].update(joints={"symmetric": {"n": 3.0, "d": 1}}),
        lambda d: d["segments"][0].update(joints={"symmetric": {"d": 1}}),
        lambda d: d["segments"][0].update(joints={"explicit": [{"psi": 0.0}]}),
        lambda d: d["segments"][0].update(joints={"explicit": {"psi": 0.0, "d": 1}}),
    ])
    def test_schema_errors(self, mutate):
        doc = json.loads(json.dumps(SYMMETRIC_ROBOT))
        mutate(doc)
        with pytest.raises(SchemaError):
            parse_robot(doc)

    def test_domain_error_passes_through(self):
        # Well-formed document, out-of-domain value: not a schema problem.
        doc = {"segments": [{"length": 1, "joints": {"symmetric": {"n": 2, "d": 1}}}]}
        with pytest.raises(DomainError):
            parse_robot(doc)

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            parse_robot([1, 2, 3])


class TestParseStates:
    def test_joint_state(self):
        state = parse_joint_state({"convention": "rho", "values": [1, 0, -1]})
        assert state.convention is Convention.RHO
        np.testing.assert_array_equal(state.values, [1.0, 0.0, -1.0])
        assert state.beta is None
        assert state.alpha is None

    def test_joint_state_with_extensions(self):
        state = parse_joint_state(
            {"convention": "q", "values": [9, 10, 11], "beta": 10, "alpha": 0.25})
        assert state.beta == 10.0
        assert state.alpha == 0.25

    @pytest.mark.parametrize("doc", [
        {"values": [1, 2]},
        {"convention": "lengths", "values": [1, 2]},
        {"convention": "rho"},
        {"convention": "rho", "values": [1, "2"]},
        {"convention": "rho", "values": 3},
        {"convention": "rho", "values": [1, 2], "beta": "10"},
    ])
    def test_joint_state_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            parse_joint_state(doc)

    def test_chain_state(self):
        state = parse_chain_state({
            "convention": "q",
            "segments": [{"values": [1, 2, 3]}, {"values": [4, 5, 6, 7]}],
        })
        assert state.convention is Convention.Q
        assert len(state.per_segment) == 2
        np.testing.assert_array_equal(state.per_segment[1], [4.0, 5.0, 6.0, 7.0])

    @pytest.mark.parametrize("doc", [
        {"segments": [{"values": [1]}]},
        {"convention": "rho", "segments": {"values": [1]}},
        {"convention": "rho", "segments": [{"vals": [1]}]},
        {"convention": "rho", "segments": [[1, 2]]},
    ])
    def test_chain_state_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            parse_chain_state(doc)

    def test_load_state_dispatch(self, tmp_path):
        single = tmp_path / "single.json"
        single.write_text('{"convention": "rho", "values": [1, 0, -1]}')
        chain = tmp_path / "chain.json"
        chain.write_text('{"convention": "rho", "segments": [{"values": [1, 0, -1]}]}')
        assert isinstance(load_state(str(single)), JointState)
        assert isinstance(load_state(str(chain)), ChainState)


class TestParseClarke:
    def test_single(self):
        state = parse_clarke_state({"cc": [2.0, -0.5]})
        assert state.cc == ClarkeCoordinates(2.0, -0.5)
        assert state.beta is None

    def test_with_beta_alpha(self):
        state = parse_clarke_state({"cc": [1, 0], "beta": 4, "alpha": 0.3})
        assert (state.beta, state.alpha) == (4.0, 0.3)

    @pytest.mark.parametrize("doc", [
        {},
        {"cc": [1.0]},
        {"cc": [1.0, 2.0, 3.0]},
        {"cc": "1,2"},
        {"cc": [1.0, True]},
    ])
    def test_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            parse_clarke_state(doc)

    def test_chain(self):
        cc = parse_chain_clarke({"segments": [{"cc": [1, 0]}, {"cc": [0, 2]}]})
        assert cc.per_segment == (ClarkeCoordinates(1.0, 0.0), ClarkeCoordinates(0.0, 2.0))

    def test_load_clarke_dispatch(self, tmp_path):
        single = tmp_path / "cc.json"
        single.write_text('{"cc": [1, 0]}')
        chain = tmp_path / "ccs.json"
        chain.write_text('{"segments": [{"cc": [1, 0]}]}')
        assert isinstance(load_clarke(str(single)), ExtendedClarkeState)
        assert isinstance(load_clarke(str(chain)), ChainClarke)


class TestParseArc:
    def test_full(self):
        arc = parse_arc({"kappa": 0.005, "theta": 1.2, "l": 100})
        assert (arc.kappa, arc.theta, arc.l) == (0.005, 1.2, 100.0)

    def test_theta_defaults_to_zero(self):
        assert parse_arc({"kappa": 0.1, "l": 5}).theta == 0.0

    @pytest.mark.parametrize("doc", [{"theta": 0, "l": 5}, {"kappa": 0.1}, {"kappa": "x", "l": 1}])
    def test_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            parse_arc(doc)

    def test_domain_error_passes_through(self):
        with pytest.raises(DomainError):
            parse_arc({"kappa": -0.1, "l": 5})


class TestUndeclaredKeys:
    """A key a document does not declare is refused, named by its path, after
    the object's declared keys have been read. parse_outcomes.json pins one
    undeclared key in each object of each document kind."""

    def test_misspelt_required_key_is_reported_missing(self):
        with pytest.raises(SchemaError, match="missing required key 'kappa'"):
            parse_arc({"Kappa": 0.01, "l": 100})

    def test_declared_keys_are_read_first(self):
        with pytest.raises(SchemaError, match="values\\[1\\] must be a number"):
            parse_joint_state({"convention": "rho", "zz": 0, "values": [1, "2", 3]})

    def test_emitted_arc_keys_are_ignored(self):
        arc = parse_arc({"kappa": 0.01, "l": 100, "phi": 7.0, "theta_defined": False})
        assert (arc.phi, arc.theta_defined) == (1.0, True)


# One valid document per parse_* kind. Every case below starts from one of
# them; the robot has one symmetric and one explicit segment.
VALID_DOCUMENTS = {
    "robot": (parse_robot, {
        "coupling": "interdependent",
        "segments": [
            {"type": "type1", "length": 100.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
            {"type": "type3", "length": 80.0, "joints": {"explicit": [
                {"psi": 0.0, "d": 5.0},
                {"psi": 2.0943951023931953, "d": 5.0},
                {"psi": 4.1887902047863905, "d": 5.0},
            ]}},
        ],
    }),
    "joint state": (parse_joint_state, {
        "convention": "q", "values": [101.0, 99.5, 99.5], "beta": 100.0, "alpha": 0.25}),
    "chain state": (parse_chain_state, {
        "convention": "rho",
        "segments": [{"values": [1.0, -0.5, -0.5]}, {"values": [0.0, 0.5, -0.5]}],
    }),
    "Clarke state": (parse_clarke_state, {"cc": [1.0, -2.0], "beta": 100.0, "alpha": 0.25}),
    "chain Clarke state": (parse_chain_clarke, {"segments": [{"cc": [1.0, -2.0]}, {"cc": [0.0, 0.5]}]}),
    "arc": (parse_arc, {"kappa": 0.01, "theta": 0.5, "l": 100.0}),
}

# Each stands in for a key's value and for a whole document.
REPLACEMENTS = {
    "null": None, "true": True, '"x"': "x", "[]": [], "{}": {}, "[1]": [1],
    "10**400": 10**400, "1e400": json.loads("1e400"), "-1": -1, "0": 0,
}


def key_paths(doc, prefix=""):
    """``(path, keys)`` for every key of a document, objects and arrays alike."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        if isinstance(key, int):
            path = f"{prefix}[{key}]"
        else:
            path = f"{prefix}.{key}" if prefix else key
        yield path, (key,)
        for sub, keys in key_paths(value, path):
            yield sub, (key, *keys)


def at(doc, keys):
    """The value of ``doc`` that ``keys`` lead to."""
    for key in keys:
        doc = doc[key]
    return doc


def parse_cases():
    """``(case, parse, document)``: each valid document, each key dropped or
    replaced by each of REPLACEMENTS, and each replacement as the document;
    after them all, each object given an undeclared key ``zz``, and the arc
    as arc_dict emits it, with ``phi`` and ``theta_defined``."""
    for kind, (parse, valid) in VALID_DOCUMENTS.items():
        yield f"{kind}: valid", parse, valid
        for path, keys in key_paths(valid):
            for label, value in {"drop": None, **REPLACEMENTS}.items():
                doc = copy.deepcopy(valid)
                parent = at(doc, keys[:-1])
                if label == "drop":
                    del parent[keys[-1]]
                    yield f"{kind}: drop {path}", parse, doc
                else:
                    parent[keys[-1]] = copy.deepcopy(value)
                    yield f"{kind}: {path} = {label}", parse, doc
        for label, value in REPLACEMENTS.items():
            yield f"{kind}: document = {label}", parse, copy.deepcopy(value)
    for kind, (parse, valid) in VALID_DOCUMENTS.items():
        for path, keys in [("document", ()), *key_paths(valid)]:
            doc = copy.deepcopy(valid)
            if isinstance(at(doc, keys), dict):
                at(doc, keys)["zz"] = 0
                yield f"{kind}: add zz to {path}", parse, doc
    yield "arc: as emitted", parse_arc, arc_dict(parse_arc(VALID_DOCUMENTS["arc"][1]))


def parse_outcomes():
    """Each case's outcome: None if it parses, else ``[error class, message]``."""
    outcomes = {}
    for case, parse, doc in parse_cases():
        try:
            parse(doc)
        except Exception as exc:  # noqa: BLE001 - a leaked Python error is an outcome too
            outcomes[case] = [type(exc).__name__, str(exc)]
        else:
            outcomes[case] = None
    return outcomes


class TestParseOutcomes:
    """Every parse outcome is pinned by tests/golden/parse_outcomes.json, which
    was written by ``parse_outcomes()`` from the per-document parsers that
    io's field reader replaced. The field reader changed one message, by
    hand in the golden: ``'segments' must be an array`` reads
    ``segments must be an array``. The cases with an undeclared key and the
    emitted arc were appended after the first 715, which they leave as
    they were, when the reader began to refuse undeclared keys."""

    def test_every_case_keeps_its_class_and_message(self):
        golden = json.loads((Path(__file__).parent / "golden" / "parse_outcomes.json").read_text())
        outcomes = parse_outcomes()
        assert list(outcomes) == list(golden)
        changed = {case: (golden[case], got) for case, got in outcomes.items() if got != golden[case]}
        assert changed == {}


class TestRobotFile:
    def test_load_robot(self, tmp_path):
        path = tmp_path / "robot.json"
        path.write_text(json.dumps(SYMMETRIC_ROBOT))
        robot = load_robot(str(path))
        assert robot.segments[0].length == 100.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_robot(str(tmp_path / "nope.json"))

    def test_non_utf8_file_is_schema_error(self, tmp_path):
        path = tmp_path / "robot.json"
        path.write_bytes(b'\xff\xfe{"segments": []}')
        with pytest.raises(SchemaError, match="not UTF-8 text"):
            load_robot(str(path))


class TestEmission:
    def test_matrix_rows_are_plain_floats(self):
        # An integer array is emitted as floats, never as JSON integers.
        buf = io.StringIO()
        dump_json({"m": np.array([[1, 2], [3, 4]])}, buf)
        assert buf.getvalue() == json.dumps({"m": [[1.0, 2.0], [3.0, 4.0]]}, indent=2) + "\n"
        assert "1.0" in buf.getvalue()

    def test_clarke_state_dict_drops_missing_extensions(self):
        assert clarke_state_dict(ExtendedClarkeState(ClarkeCoordinates(2.0, 0.0))) == {
            "cc": [2.0, 0.0],
        }

    def test_integer_clarke_coordinates_are_emitted_as_floats(self):
        cc = ClarkeCoordinates(1, 2)
        assert (type(cc.rho_re), type(cc.rho_im)) == (float, float)
        buf = io.StringIO()
        dump_json(clarke_state_dict(ExtendedClarkeState(cc)), buf)
        assert buf.getvalue() == '{\n  "cc": [\n    1.0,\n    2.0\n  ]\n}\n'

    def test_clarke_state_dict_keeps_extensions(self):
        state = ExtendedClarkeState(ClarkeCoordinates(2.0, 0.0), beta=4.0, alpha=0.3)
        assert clarke_state_dict(state) == {"cc": [2.0, 0.0], "beta": 4.0, "alpha": 0.3}

    def test_joint_state_dict(self):
        state = JointState(Convention.Q, np.array([9.0, 10.0, 11.0]), beta=10.0)
        assert joint_state_dict(state) == {
            "convention": "q",
            "values": [9.0, 10.0, 11.0],
            "beta": 10.0,
        }

    def test_chain_dicts(self):
        cc = ChainClarke((ClarkeCoordinates(1.0, 0.0), ClarkeCoordinates(0.0, -2.0)))
        assert chain_clarke_dict(cc) == {
            "segments": [{"cc": [1.0, 0.0]}, {"cc": [0.0, -2.0]}],
        }
        state = ChainState(Convention.RHO, (np.array([1.0, 0.0, -1.0]),))
        assert chain_state_dict(state) == {
            "convention": "rho",
            "segments": [{"values": [1.0, 0.0, -1.0]}],
        }

    def test_arc_dict(self):
        arc = ArcParameters(kappa=0.005, theta=0.0, l=100.0)
        assert arc_dict(arc) == {
            "kappa": 0.005,
            "theta": 0.0,
            "l": 100.0,
            "phi": 0.5,
            "theta_defined": True,
        }

    def test_violations_dict(self):
        assert violations_dict([]) == {"valid": True, "violations": []}
        out = violations_dict([Violation(segment=0, field="length", message="must be positive")])
        assert out["valid"] is False
        assert out["violations"] == [
            {"segment": 0, "field": "length", "message": "must be positive"},
        ]

    def test_dump_json_format(self):
        buf = io.StringIO()
        dump_json({"a": 1.5}, buf)
        assert buf.getvalue() == '{\n  "a": 1.5\n}\n'

    def test_peak_memory_is_about_the_text(self):
        # The pieces are written unjoined: at its peak, dump_json holds
        # about one copy of its text.
        poly = sample_backbone(ArcParameters(kappa=0.013, theta=0.9, l=42.0), points=100_000)
        buf = io.StringIO()
        tracemalloc.start()
        try:
            dump_json({"s": poly.s, "points": poly.points}, buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * len(buf.getvalue())

    def test_parse_dump_roundtrip_preserves_doubles(self):
        # repr-based emission is lossless: the decoded value is bitwise
        # identical to the original.
        values = [0.1, 1 / 3, 5e-324, 1.7976931348623157e308]
        buf = io.StringIO()
        dump_json({"values": values}, buf)
        assert loads_strict(buf.getvalue())["values"] == values


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308]
)
TEXT = st.text() | st.sampled_from(['"quoted"', "back\\slash", "tab\tnew\nline", "\x00\x1f", "\u00e9\u4e2d\U0001f600"])


# Values where orjson's spelling and repr's differ, or sit at an edge of
# the set io._format_blocks respells, 0 < |x| < 1e-4 or |x| >= 1e16:
# signed zero, subnormal and normal minima, the positional range
# 1e-5 <= |x| < 1e-4, the bounds 1e-5, 1e-4 and 1e16 with their
# neighbours on both sides, the largest double, and numbers whose tails
# look like the positional range.
SPELLING_BOUNDS = (1e-05, 1e-4, 1e16)
SPELLING_EDGES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308,
    1.5e-05, -1.5e-05,
    *SPELLING_BOUNDS,
    *(math.nextafter(x, side) for x in SPELLING_BOUNDS for side in (0.0, math.inf)),
    1.7976931348623157e308,
    10.00001, 100.000012,
]
BIT_PATTERNS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(
    lambda x: x == x and abs(x) != float("inf")
)
DOUBLES = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(1e-5, 1e-4).flatmap(lambda x: st.sampled_from([x, -x]))
    | BIT_PATTERNS
    | st.sampled_from(SPELLING_EDGES + [-x for x in SPELLING_EDGES])
)


@st.composite
def float_arrays(draw):
    k = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(0,), (k,), (k, 1), (1, k), (0, k), (k, 0), (k, 3)]))
    return draw(arrays(np.float64, shape, elements=FLOATS | DOUBLES))


JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | TEXT | float_arrays(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=25,
)


def as_lists(obj):
    """The same document with every ndarray replaced by nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(x) for x in obj]
    return obj


class TestDumpJsonIdentity:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(obj=JSON_TREES)
    def test_matches_json_dumps(self, obj):
        buf = io.StringIO()
        dump_json(obj, buf)
        assert buf.getvalue() == json.dumps(as_lists(obj), indent=2) + "\n"

    @pytest.mark.parametrize("shape, text", [
        ((0,), "[]"),
        ((0, 2), "[]"),
        ((2, 0), "[\n  [],\n  []\n]"),
    ])
    def test_empty_shapes(self, shape, text):
        buf = io.StringIO()
        dump_json(np.zeros(shape), buf)
        assert buf.getvalue() == text + "\n"

    def test_higher_rank_array(self):
        a = np.arange(8.0).reshape(2, 2, 2)
        buf = io.StringIO()
        dump_json({"a": a}, buf)
        assert buf.getvalue() == json.dumps({"a": a.tolist()}, indent=2) + "\n"

    def test_non_string_key_refused(self):
        buf = io.StringIO()
        with pytest.raises(DomainError, match="keys must be strings"):
            dump_json({"ok": 1.0, 1: 2.0}, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("leaf", [object(), 1 + 2j, {1.0, 2.0}, np.array(["x"]), np.array([1 + 2j])],
                             ids=["object", "complex", "set", "text-array", "complex-array"])
    def test_unencodable_leaf_refused_before_writing(self, leaf):
        buf = io.StringIO()
        with pytest.raises(DomainError, match="cannot be encoded as JSON"):
            dump_json({"ok": [1.0], "a": leaf}, buf)
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("obj", [
        {"beta": float("inf")},
        {"cc": [float("-inf"), 0.0]},
        {"x": float("nan")},
        {"ok": [1.0], "points": np.array([[0.0, 1.0], [np.nan, 2.0]])},
        np.array([1.0, np.inf]),
    ])
    def test_non_finite_refused_before_writing(self, obj):
        buf = io.StringIO()
        with pytest.raises(DomainError, match="non-finite"):
            dump_json(obj, buf)
        assert buf.getvalue() == ""

    @staticmethod
    def nested(obj, depth):
        for _ in range(depth):
            obj = [obj]
        return obj

    def test_array_under_255_lists_encodes(self):
        buf = io.StringIO()
        dump_json(self.nested(np.array([1.0, 2.0]), 255), buf)
        assert buf.getvalue() == json.dumps(self.nested([1.0, 2.0], 255), indent=2) + "\n"

    # orjson refuses an array under 256 wrappers; Python's recursion limit,
    # any list nested 2000 deep.
    @pytest.mark.parametrize("bottom, depth", [
        (np.array([1.0, 2.0]), 256),
        (np.array([1.0, 2.0]), 2000),
        (1.0, 2000),
    ], ids=["array-256", "array-2000", "float-2000"])
    def test_too_deep_refused_before_writing(self, bottom, depth):
        buf = io.StringIO()
        with pytest.raises(DomainError, match="nests too deeply"):
            dump_json(self.nested(bottom, depth), buf)
        assert buf.getvalue() == ""


def reference_matrix_csv(name, matrix):
    """The per-row writer that preceded the block writer."""
    rows = [[float(x) for x in row] for row in np.asarray(matrix, dtype=float)]
    return name + "\n" + "".join(",".join(repr(x) for x in row) + "\n" for row in rows)


def reference_polyline_csv(poly):
    """The per-row writer that preceded the block writer."""
    return "s,x,y,z\n" + "".join(
        f"{float(s)!r},{float(x)!r},{float(y)!r},{float(z)!r}\n"
        for s, (x, y, z) in zip(poly.s, poly.points)
    )


class TestCsvIdentity:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(matrix=arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 6)), elements=FLOATS))
    def test_matrix_matches_per_row_writer(self, matrix):
        buf = io.StringIO()
        write_matrix_csv("mp", matrix, buf)
        assert buf.getvalue() == reference_matrix_csv("mp", matrix)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(table=arrays(np.float64, st.tuples(st.integers(0, 8), st.just(4)), elements=FLOATS))
    def test_polyline_matches_per_row_writer(self, table):
        poly = BackbonePolyline(s=table[:, 0], points=table[:, 1:])
        buf = io.StringIO()
        write_polyline_csv(poly, buf)
        assert buf.getvalue() == reference_polyline_csv(poly)

    def test_many_blocks(self):
        poly = sample_backbone(ArcParameters(kappa=0.013, theta=0.9, l=42.0), points=10_001)
        buf = io.StringIO()
        write_polyline_csv(poly, buf)
        assert buf.getvalue() == reference_polyline_csv(poly)

    def test_integer_matrix_prints_floats(self):
        buf = io.StringIO()
        write_matrix_csv("m", np.array([[1, 2], [3, 4]]), buf)
        assert buf.getvalue() == "m\n1.0,2.0\n3.0,4.0\n"

    def test_non_finite_refused_before_writing(self):
        buf = io.StringIO()
        with pytest.raises(DomainError, match="non-finite"):
            write_matrix_csv("mp", np.array([[1.0, np.inf]]), buf)
        poly = BackbonePolyline(s=[0.0, 1.0], points=[[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]])
        with pytest.raises(DomainError, match="non-finite"):
            write_polyline_csv(poly, buf)
        assert buf.getvalue() == ""


class TestCsvWriters:
    @pytest.mark.filterwarnings("error")  # and without NumPy's ComplexWarning
    def test_complex_refused_before_writing(self):
        buf = io.StringIO()
        with pytest.raises(DomainError, match="complex number"):
            write_matrix_csv("m", np.array([[1 + 2j, 3]]), buf)
        assert buf.getvalue() == ""

    def test_matrix_block(self):
        buf = io.StringIO()
        write_matrix_csv("mp_inv", np.array([[1.0, 0.0], [-0.5, 0.5]]), buf)
        assert buf.getvalue() == "mp_inv\n1.0,0.0\n-0.5,0.5\n"

    def test_polyline_header_and_rows(self):
        poly = sample_backbone(ArcParameters(kappa=0.0, theta=0.0, l=100.0), points=2)
        buf = io.StringIO()
        write_polyline_csv(poly, buf)
        assert buf.getvalue() == "s,x,y,z\n0.0,0.0,0.0,0.0\n100.0,0.0,0.0,100.0\n"

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 2)])
    def test_table_not_two_dimensional_is_refused_before_writing(self, shape):
        buf = io.StringIO()
        with pytest.raises(DimensionMismatch, match=r"must be two-dimensional, got shape"):
            write_matrix_csv("m", np.ones(shape), buf)
        assert buf.getvalue() == ""

    def test_polyline_values_roundtrip(self):
        poly = sample_backbone(ArcParameters(kappa=0.013, theta=0.9, l=42.0), points=4)
        buf = io.StringIO()
        write_polyline_csv(poly, buf)
        lines = buf.getvalue().splitlines()[1:]
        parsed = np.array([[float(tok) for tok in line.split(",")] for line in lines])
        np.testing.assert_array_equal(parsed[:, 0], poly.s)
        np.testing.assert_array_equal(parsed[:, 1:], poly.points)


def nest(a, level):
    """a inside level lists and objects, with the same document as lists."""
    doc, expect = a, a.tolist()
    for i in range(level):
        doc, expect = ([doc], [expect]) if i % 2 == 0 else ({"k": doc}, {"k": expect})
    return doc, expect


def repr_rows(name, table):
    return name + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


class TestArraySpelling:
    """Every float array is formatted by io._format_blocks; its text must be
    byte for byte what json.dumps and repr write, in every block."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        a=arrays(np.float64, st.lists(st.integers(0, 9), min_size=1, max_size=2).map(tuple), elements=DOUBLES),
        level=st.integers(0, 5),
        block_rows=st.integers(1, 4),
    )
    def test_json_matches_json_dumps(self, a, level, block_rows):
        doc, expect = nest(a, level)
        buf = io.StringIO()
        with mock.patch.object(dacr.io, "_BLOCK_ROWS", block_rows):
            assert "".join(dacr.io._pieces(doc, 0)) == json.dumps(expect, indent=2)
            dump_json(doc, buf)
        assert buf.getvalue() == json.dumps(expect, indent=2) + "\n"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        table=arrays(np.float64, st.tuples(st.integers(0, 9), st.integers(1, 4)), elements=DOUBLES),
        block_rows=st.integers(1, 4),
    )
    def test_csv_rows_match_repr(self, table, block_rows):
        buf = io.StringIO()
        with mock.patch.object(dacr.io, "_BLOCK_ROWS", block_rows):
            write_matrix_csv("m", table, buf)
        assert buf.getvalue() == repr_rows("m", table)

    @pytest.mark.parametrize("x", SPELLING_EDGES + [-x for x in SPELLING_EDGES])
    def test_edge_value(self, x):
        a = np.array([[x, 1.0], [2.5, x]])
        assert "".join(dacr.io._pieces(a, 0)) == json.dumps(a.tolist(), indent=2)
        buf = io.StringIO()
        write_matrix_csv("m", a, buf)
        assert buf.getvalue() == repr_rows("m", a)

    @pytest.mark.parametrize("level", range(6))
    def test_real_blocks(self, level):
        # Random bit patterns and the edge values across three real blocks.
        rows = 2 * dacr.io._BLOCK_ROWS + 1
        bits = np.random.default_rng(level).integers(0, 2**64, size=(rows, 3), dtype=np.uint64)
        a = bits.view(np.float64)
        a[~np.isfinite(a)] = 0.5
        a.flat[np.linspace(0, a.size - 1, len(SPELLING_EDGES)).astype(int)] = SPELLING_EDGES
        doc, expect = nest(a, level)
        buf = io.StringIO()
        dump_json(doc, buf)
        assert buf.getvalue() == json.dumps(expect, indent=2) + "\n"
        buf = io.StringIO()
        write_matrix_csv("m", a, buf)
        assert buf.getvalue() == repr_rows("m", a)

    # Three-row blocks: the first masked throughout, the second only at its
    # first and last items, and the third not at all.
    MASKED_AT_ENDS = np.array([
        [1e-05, -3e16], [2e-300, 1.5e-05], [5e-324, 1.7976931348623157e308],
        [1e16, 0.5], [2.0, 0.25], [-0.75, -1e-07],
        [1.0, 2.0], [1e-4, 9999999999999998.0], [0.0, -0.0],
    ])

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("a", [MASKED_AT_ENDS, MASKED_AT_ENDS.ravel()], ids=["2d", "1d"])
    def test_json_masked_at_block_ends(self, a, level):
        doc, expect = nest(a, level)
        buf = io.StringIO()
        with mock.patch.object(dacr.io, "_BLOCK_ROWS", 3):
            dump_json(doc, buf)
        assert buf.getvalue() == json.dumps(expect, indent=2) + "\n"

    def test_csv_masked_at_block_ends(self):
        buf = io.StringIO()
        with mock.patch.object(dacr.io, "_BLOCK_ROWS", 3):
            write_matrix_csv("m", self.MASKED_AT_ENDS, buf)
        assert buf.getvalue() == repr_rows("m", self.MASKED_AT_ENDS)

    @pytest.mark.parametrize("indent", [False, True])
    def test_orjson_writes_nan_as_null(self, indent):
        # The respelling relies on it: each masked value goes to orjson as NaN.
        import orjson

        option = orjson.OPT_SERIALIZE_NUMPY | (orjson.OPT_INDENT_2 if indent else 0)
        text = orjson.dumps(np.array([[np.nan, 1.0], [2.5, np.nan]]), option=option).decode()
        layout = {"indent": 2} if indent else {"separators": (",", ":")}
        assert text == json.dumps([[None, 1.0], [2.5, None]], **layout)
