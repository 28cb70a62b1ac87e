"""Command-line interface: happy paths, flags, and the exit-code contract."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dacr import (
    ArrangementMismatch,
    ConventionMismatch,
    DacrError,
    DegenerateArrangement,
    DimensionMismatch,
    DomainError,
    FilterPropertyUnavailable,
    OffManifold,
    SchemaError,
    UnsupportedArrangement,
    build_pair,
    cli,
    make_symmetric_arrangement,
)
from dacr.cli import main

GOLDEN = Path(__file__).parent / "golden"

SYM3 = {
    "coupling": "independent",
    "segments": [
        {"type": "type0", "length": 100.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
    ],
}
SYM4 = {
    "segments": [
        {"type": "type0", "length": 100.0, "joints": {"symmetric": {"n": 4, "d": 10.0}}},
    ],
}
# Explicit half-plane arrangement: well-posed but does not filter offsets.
HALF_PLANE = {
    "segments": [
        {"type": "type0", "length": 100.0, "joints": {"explicit": [
            {"psi": 0.0, "d": 10.0},
            {"psi": math.pi / 2, "d": 10.0},
            {"psi": math.pi, "d": 10.0},
        ]}},
    ],
}
TYPE3_LONG_ARM = {
    "segments": [
        {"type": "type3", "length": 4.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
    ],
}
CHAIN2 = {
    "coupling": "interdependent",
    "segments": [
        {"type": "type0", "length": 10.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
        {"type": "type0", "length": 20.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
    ],
}


@pytest.fixture
def write(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestMatrix:
    def test_json_output(self, capsys, write):
        robot = write("robot.json", SYM3)
        doc = run_json(capsys, ["matrix", "--robot", robot])
        mp = np.array(doc["mp"])
        mp_inv = np.array(doc["mp_inv"])
        assert mp.shape == (2, 3)
        assert mp_inv.shape == (3, 2)
        np.testing.assert_allclose(mp, (2.0 / 3.0) * mp_inv.T, atol=1e-15)
        np.testing.assert_allclose(mp @ mp_inv, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(np.array(doc["projector"]), mp_inv @ mp, atol=1e-15)
        assert doc["filter_ok"] is True

    def test_half_plane_does_not_filter(self, capsys, write):
        robot = write("robot.json", HALF_PLANE)
        doc = run_json(capsys, ["matrix", "--robot", robot])
        assert doc["filter_ok"] is False
        np.testing.assert_allclose(doc["mp"], [[0.5, 0.0, -0.5], [0.0, 1.0, 0.0]], atol=1e-16)

    def test_csv_format(self, capsys, write):
        robot = write("robot.json", SYM3)
        code, out, _ = run(capsys, ["matrix", "--robot", robot, "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "mp"
        assert lines[3] == "mp_inv"
        assert lines[7] == "projector"
        assert lines[11] == "filter_ok"
        assert lines[12] == "true"
        assert len(lines[1].split(",")) == 3

    def test_out_file_matches_stdout(self, capsys, write, tmp_path):
        robot = write("robot.json", SYM3)
        _, out, _ = run(capsys, ["matrix", "--robot", robot])
        dest = tmp_path / "matrix.json"
        code, stdout, _ = run(capsys, ["matrix", "--robot", robot, "--out", str(dest)])
        assert code == 0
        assert stdout == ""
        assert dest.read_text() == out

    # 10^4 rows cross io._BLOCK_ROWS: several blocks reach --out through
    # its in-memory buffer, and stdout directly.
    @pytest.mark.parametrize("fmt, points", [("csv", 5), ("json", 5), ("csv", 10_000), ("json", 10_000)],
                             ids=["csv", "json", "csv-10000", "json-10000"])
    def test_sample_out_file_matches_stdout(self, capsys, write, tmp_path, fmt, points):
        assert 10_000 > 2 * cli.io._BLOCK_ROWS
        argv = ["sample", "--input", write("arc.json", {"kappa": 0.01, "l": 100.0}),
                "--points", str(points), "--format", fmt]
        _, out, _ = run(capsys, argv)
        dest = tmp_path / f"sample.{fmt}"
        code, stdout, _ = run(capsys, [*argv, "--out", str(dest)])
        assert code == 0
        assert stdout == ""
        assert dest.read_bytes() == out.encode()

    @pytest.mark.parametrize("argv, expected_code", [
        (["arc", "to-clarke", "--input", "{arc}", "--d", "1e308"], 1),
        (["forward", "--robot", "{robot}", "--input", "{state}"], 4),
    ], ids=["non-finite-result", "dimension-mismatch"])
    def test_out_file_kept_when_command_fails(self, capsys, write, tmp_path, argv, expected_code):
        files = {
            "arc": write("arc.json", {"kappa": 1.0, "theta": 0.0, "l": 10.0}),
            "robot": write("robot.json", SYM3),
            "state": write("state.json", {"convention": "rho", "values": [1.0, 0.0]}),
        }
        dest = tmp_path / "out.json"
        dest.write_text("keep")
        code, out, err = run(capsys, [*(a.format(**files) for a in argv), "--out", str(dest)])
        assert code == expected_code
        assert out == ""
        assert "error:" in err
        assert dest.read_text() == "keep"

    def test_byte_identical_across_runs(self, capsys, write):
        robot = write("robot.json", SYM3)
        _, first, _ = run(capsys, ["matrix", "--robot", robot])
        _, second, _ = run(capsys, ["matrix", "--robot", robot])
        assert first == second


class TestForward:
    def test_rho_state(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "rho", "values": [2.0, -1.0, -1.0]})
        doc = run_json(capsys, ["forward", "--robot", robot, "--input", state])
        assert doc["cc"][0] == pytest.approx(2.0, abs=1e-12)
        assert doc["cc"][1] == pytest.approx(0.0, abs=1e-12)
        assert "beta" not in doc

    def test_q_state_filters_length(self, capsys, write):
        # q = 100 - rho, and -mp @ q == mp @ rho because the constant is
        # filtered: both routes land on the same Clarke coordinates.
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "q", "values": [98.0, 101.0, 101.0]})
        doc = run_json(capsys, ["forward", "--robot", robot, "--input", state])
        assert doc["cc"][0] == pytest.approx(2.0, abs=1e-12)
        assert doc["cc"][1] == pytest.approx(0.0, abs=1e-12)

    def test_type1_from_q(self, capsys, write):
        robot = write("robot.json", {
            "segments": [{"type": "type1", "length": 100.0,
                          "joints": {"symmetric": {"n": 4, "d": 10.0}}}],
        })
        state = write("state.json", {"convention": "q", "values": [9.0, 10.0, 11.0, 10.0]})
        doc = run_json(capsys, ["forward", "--robot", robot, "--input", state])
        assert doc["cc"][0] == pytest.approx(1.0, abs=1e-12)
        assert doc["cc"][1] == pytest.approx(0.0, abs=1e-12)
        assert doc["beta"] == pytest.approx(10.0, abs=1e-12)

    def test_type3_alpha_override(self, capsys, write):
        robot = write("robot.json", {
            "segments": [{"type": "type3", "length": 4.0,
                          "joints": {"symmetric": {"n": 3, "d": 10.0}}}],
        })
        state = write("state.json", {"convention": "q", "values": [3.0, 6.0, 6.0], "beta": 4.0})
        doc = run_json(
            capsys,
            ["forward", "--robot", robot, "--input", state, "--alpha", "0.3"],
        )
        assert doc["cc"][0] == pytest.approx(2.0, abs=1e-12)
        assert doc["beta"] == 4.0
        assert doc["alpha"] == 0.3

    def test_chain_state_delegates(self, capsys, write):
        robot = write("robot.json", CHAIN2)
        state = write("state.json", {
            "convention": "q",
            "segments": [{"values": [8.0, 11.0, 11.0]}, {"values": [30.0, 30.0, 30.0]}],
        })
        doc = run_json(capsys, ["forward", "--robot", robot, "--input", state])
        assert doc["segments"][0]["cc"][0] == pytest.approx(2.0, abs=1e-12)
        assert doc["segments"][1]["cc"][0] == pytest.approx(-2.0, abs=1e-12)

    def test_type3_mean_below_twist_arm_is_domain_error(self, capsys, write):
        robot = write("robot.json", TYPE3_LONG_ARM)
        state = write("state.json", {"convention": "q", "values": [18.0, 21.0, 21.0],
                                     "alpha": 2.0})
        code, out, err = run(capsys, ["forward", "--robot", robot, "--input", state])
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_length_hint_flag_is_gone(self, capsys, write):
        robot = write("robot.json", TYPE3_LONG_ARM)
        state = write("state.json", {"convention": "q", "values": [5.0, 5.0, 5.0], "alpha": 0.3})
        code, out, err = run(capsys, ["forward", "--robot", robot, "--input", state, "--l", "8"])
        assert (code, out) == (2, "")
        assert err == "error: dacr: unrecognized arguments: --l 8\n"


class TestInverse:
    def test_type0(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("cc.json", {"cc": [2.0, 0.0]})
        doc = run_json(capsys, ["inverse", "--robot", robot, "--input", state])
        assert doc["convention"] == "rho"
        np.testing.assert_allclose(doc["values"], [2.0, -1.0, -1.0], atol=1e-12)

    def test_type1_needs_beta(self, capsys, write):
        robot = write("robot.json", {
            "segments": [{"type": "type1", "length": 100.0,
                          "joints": {"symmetric": {"n": 4, "d": 10.0}}}],
        })
        state = write("cc.json", {"cc": [1.0, 0.0], "beta": 10.0})
        doc = run_json(capsys, ["inverse", "--robot", robot, "--input", state])
        assert doc["convention"] == "q"
        np.testing.assert_allclose(doc["values"], [9.0, 10.0, 11.0, 10.0], atol=1e-12)

        bare = write("bare.json", {"cc": [1.0, 0.0]})
        code, _, err = run(capsys, ["inverse", "--robot", robot, "--input", bare])
        assert code == 4
        assert "beta" in err

    def test_type3_composes_helical_offset(self, capsys, write):
        # 3-4-5 triangle: alpha*d = 3, beta = 4, so the twist adds exactly 1.
        robot = write("robot.json", {
            "segments": [{"type": "type3", "length": 4.0,
                          "joints": {"symmetric": {"n": 3, "d": 10.0}}}],
        })
        state = write("cc.json", {"cc": [2.0, 0.0], "beta": 4.0, "alpha": 0.3})
        doc = run_json(capsys, ["inverse", "--robot", robot, "--input", state])
        assert doc["convention"] == "q"
        np.testing.assert_allclose(doc["values"], [3.0, 6.0, 6.0], atol=1e-12)
        assert doc["beta"] == 4.0
        assert doc["alpha"] == 0.3

    def test_chain_clarke_delegates(self, capsys, write):
        # Interdependent robots invert to accumulated joint lengths, not
        # per-segment displacements.
        robot = write("robot.json", CHAIN2)
        state = write("ccs.json", {"segments": [{"cc": [2.0, 0.0]}, {"cc": [-2.0, 0.0]}]})
        doc = run_json(capsys, ["inverse", "--robot", robot, "--input", state])
        assert doc["convention"] == "q"
        np.testing.assert_allclose(doc["segments"][0]["values"], [8.0, 11.0, 11.0], atol=1e-12)
        np.testing.assert_allclose(doc["segments"][1]["values"], [30.0, 30.0, 30.0], atol=1e-12)


class TestValidate:
    def test_robot_only_valid(self, capsys, write):
        robot = write("robot.json", SYM3)
        code, out, _ = run(capsys, ["validate", "--robot", robot])
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_robot_only_invalid(self, capsys, write):
        bad = json.loads(json.dumps(SYM3))
        bad["segments"][0]["length"] = -1.0
        robot = write("robot.json", bad)
        code, out, _ = run(capsys, ["validate", "--robot", robot])
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["violations"][0]["field"] == "length"

    def test_state_on_manifold(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "rho", "values": [2.0, -1.0, -1.0]})
        code, out, _ = run(capsys, ["validate", "--robot", robot, "--input", state])
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["residual_norm"] < 1e-12

    def test_state_off_manifold(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "rho", "values": [3.0, 0.0, 0.0]})
        code, out, _ = run(capsys, ["validate", "--robot", robot, "--input", state])
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["residual_norm"] == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_tol_loosens_the_check(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "rho", "values": [3.0, 0.0, 0.0]})
        code, out, _ = run(
            capsys, ["validate", "--robot", robot, "--input", state, "--tol", "10"])
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_default_tol_scales_with_rho(self, capsys, write):
        # The exact on-manifold rho of cc (1e7, 3e7) has a residual of
        # about 1.7e-8, beyond an absolute 1e-9.
        robot = write("robot.json", SYM3)
        rho = build_pair(make_symmetric_arrangement(3, 10.0)).mp_inv @ [1e7, 3e7]
        state = write("state.json", {"convention": "rho", "values": rho.tolist()})
        code, out, _ = run(capsys, ["validate", "--robot", robot, "--input", state])
        assert (code, json.loads(out)["valid"]) == (0, True)
        code, out, _ = run(
            capsys, ["validate", "--robot", robot, "--input", state, "--tol", "1e-9"])
        assert (code, json.loads(out)["valid"]) == (1, False)

    def test_state_of_huge_displacements(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "rho", "values": [1e308, -5e307, -5e307]})
        doc = run_json(capsys, ["validate", "--robot", robot, "--input", state])
        assert doc["valid"] is True and math.isfinite(doc["residual_norm"])

    def test_chain_state(self, capsys, write):
        robot = write("robot.json", CHAIN2)
        state = write("state.json", {
            "convention": "rho",
            "segments": [{"values": [2.0, -1.0, -1.0]}, {"values": [3.0, 0.0, 0.0]}],
        })
        code, out, _ = run(capsys, ["validate", "--robot", robot, "--input", state])
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["segments"][0]["valid"] is True
        assert doc["segments"][1]["valid"] is False


class TestProjectAndRecover:
    def test_project(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "rho", "values": [3.0, 0.0, 0.0]})
        doc = run_json(capsys, ["project", "--robot", robot, "--input", state])
        np.testing.assert_allclose(doc["values"], [2.0, -1.0, -1.0], atol=1e-12)

    def test_recover_length(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "q", "values": [98.0, 101.0, 101.0]})
        doc = run_json(capsys, ["recover-length", "--robot", robot, "--input", state])
        assert doc["length"] == pytest.approx(100.0, abs=1e-9)

    def test_recover_length_off_manifold(self, capsys, write):
        # Needs n=4: with three symmetric joints every q is explainable,
        # but [1,-1,1,-1] perturbations never are.
        robot = write("robot.json", SYM4)
        state = write("state.json", {"convention": "q", "values": [15.0, 5.0, 15.0, 5.0]})
        code, _, err = run(capsys, ["recover-length", "--robot", robot, "--input", state])
        assert code == 1
        assert "error:" in err

    def test_recover_length_tol_flag(self, capsys, write):
        robot = write("robot.json", SYM4)
        state = write(
            "state.json", {"convention": "q", "values": [100.1, 99.9, 100.1, 99.9]})
        code, _, _ = run(capsys, ["recover-length", "--robot", robot, "--input", state])
        assert code == 1
        doc = run_json(
            capsys, ["recover-length", "--robot", robot, "--input", state, "--tol", "1.0"])
        assert doc["length"] == pytest.approx(100.0, abs=1e-12)

    def test_recover_length_of_huge_joint_lengths(self, capsys, write):
        # |q - mean(q)| squared overflows; the residual is rescaled.
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "q", "values": [1e300, 1.0000000000000002e300, 1e300]})
        doc = run_json(capsys, ["recover-length", "--robot", robot, "--input", state])
        assert doc["length"] == pytest.approx(1e300, rel=1e-15)


class TestArcCommands:
    def test_to_clarke(self, capsys, write):
        arc = write("arc.json", {"kappa": 0.005, "theta": 0.0, "l": 100.0})
        doc = run_json(capsys, ["arc", "to-clarke", "--input", arc, "--d", "10"])
        assert doc["cc"] == [5.0, 0.0]

    def test_from_clarke(self, capsys, write):
        cc = write("cc.json", {"cc": [5.0, 0.0]})
        doc = run_json(
            capsys, ["arc", "from-clarke", "--input", cc, "--d", "10", "--l", "100"])
        assert doc["kappa"] == pytest.approx(0.005, rel=1e-15)
        assert doc["theta"] == 0.0
        assert doc["phi"] == pytest.approx(0.5, rel=1e-15)
        assert doc["theta_defined"] is True

    def test_from_clarke_straight(self, capsys, write):
        cc = write("cc.json", {"cc": [0.0, 0.0]})
        doc = run_json(
            capsys, ["arc", "from-clarke", "--input", cc, "--d", "10", "--l", "100"])
        assert doc["kappa"] == 0.0
        assert doc["theta_defined"] is False

    def test_from_clarke_underflowing_curvature_is_straight(self, capsys, write):
        cc = write("cc.json", {"cc": [5e-324, 0.0]})
        doc = run_json(
            capsys, ["arc", "from-clarke", "--input", cc, "--d", "10", "--l", "100"])
        assert doc["kappa"] == 0.0
        assert doc["theta_defined"] is False

    def test_sample_csv(self, capsys, write):
        arc = write("arc.json", {"kappa": 0.0, "theta": 0.0, "l": 100.0})
        code, out, _ = run(capsys, ["sample", "--input", arc, "--points", "2"])
        assert code == 0
        assert out == "s,x,y,z\n0.0,0.0,0.0,0.0\n100.0,0.0,0.0,100.0\n"

    def test_sample_json(self, capsys, write):
        arc = write("arc.json", {"kappa": 0.01, "theta": 0.0, "l": 50.0})
        doc = run_json(
            capsys, ["sample", "--input", arc, "--points", "5", "--format", "json"])
        assert doc["s"] == [0.0, 12.5, 25.0, 37.5, 50.0]
        assert len(doc["points"]) == 5
        assert doc["points"][0] == [0.0, 0.0, 0.0]


class TestChainCommands:
    def test_forward(self, capsys, write):
        robot = write("robot.json", CHAIN2)
        state = write("state.json", {
            "convention": "q",
            "segments": [{"values": [8.0, 11.0, 11.0]}, {"values": [30.0, 30.0, 30.0]}],
        })
        doc = run_json(capsys, ["chain", "forward", "--robot", robot, "--input", state])
        assert doc["segments"][0]["cc"][0] == pytest.approx(2.0, abs=1e-12)
        assert doc["segments"][1]["cc"][0] == pytest.approx(-2.0, abs=1e-12)

    def test_inverse_roundtrips_forward(self, capsys, write):
        robot = write("robot.json", CHAIN2)
        cc = write("cc.json", {"segments": [{"cc": [2.0, 0.0]}, {"cc": [-2.0, 0.0]}]})
        inv = run_json(capsys, ["chain", "inverse", "--robot", robot, "--input", cc])
        assert inv["convention"] == "q"
        state = write("state.json", inv)
        fwd = run_json(capsys, ["chain", "forward", "--robot", robot, "--input", state])
        assert fwd["segments"][0]["cc"][0] == pytest.approx(2.0, abs=1e-9)
        assert fwd["segments"][1]["cc"][0] == pytest.approx(-2.0, abs=1e-9)

    def test_accumulate(self, capsys, write):
        robot = write("robot.json", CHAIN2)
        state = write("state.json", {
            "convention": "rho",
            "segments": [{"values": [2.0, -1.0, -1.0]}, {"values": [-2.0, 1.0, 1.0]}],
        })
        doc = run_json(capsys, ["chain", "accumulate", "--robot", robot, "--input", state])
        assert doc["convention"] == "q"
        np.testing.assert_allclose(doc["segments"][0]["values"], [8.0, 11.0, 11.0], atol=1e-12)
        np.testing.assert_allclose(doc["segments"][1]["values"], [30.0, 30.0, 30.0], atol=1e-12)

    def test_forward_rejects_single_state(self, capsys, write):
        robot = write("robot.json", CHAIN2)
        state = write("state.json", {"convention": "q", "values": [8.0, 11.0, 11.0]})
        code, _, err = run(capsys, ["chain", "forward", "--robot", robot, "--input", state])
        assert code == 2
        assert "error:" in err


class TestRoundTrips:
    """An emitted document that is also an input kind reads back, as
    emitted, through the command that takes that kind."""

    @staticmethod
    def emitted(capsys, write, argv):
        code, out, err = run(capsys, argv)
        assert code == 0, err
        return write("emitted.json", out)

    @pytest.mark.parametrize("cc", [[3.0, 4.0], [0.0, 0.0]], ids=["bent", "straight"])
    def test_arc_from_clarke_feeds_to_clarke_and_sample(self, capsys, write, cc):
        # The arc carries the derived phi and theta_defined, which the arc
        # document declares as emitted only: they are accepted and ignored.
        arc = self.emitted(capsys, write, ["arc", "from-clarke", "--input",
                                           write("cc.json", {"cc": cc}), "--d", "10", "--l", "100"])
        assert {"phi", "theta_defined"} <= json.loads(Path(arc).read_text()).keys()
        doc = run_json(capsys, ["arc", "to-clarke", "--input", arc, "--d", "10"])
        np.testing.assert_allclose(doc["cc"], cc, rtol=1e-12, atol=1e-12)
        doc = run_json(capsys, ["sample", "--input", arc, "--points", "3", "--format", "json"])
        assert doc["s"] == [0.0, 50.0, 100.0]

    @pytest.mark.parametrize("segment_type, cc", [
        ("type0", {"cc": [2.0, 0.0]}),
        ("type1", {"cc": [1.0, -0.5], "beta": 10.0}),
        ("type3", {"cc": [2.0, 0.0], "beta": 4.0, "alpha": 0.3}),
    ])
    def test_inverse_feeds_forward(self, capsys, write, segment_type, cc):
        robot = write("robot.json", {"segments": [
            {"type": segment_type, "length": 4.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
        ]})
        state = self.emitted(capsys, write, ["inverse", "--robot", robot,
                                             "--input", write("cc.json", cc)])
        doc = run_json(capsys, ["forward", "--robot", robot, "--input", state])
        np.testing.assert_allclose(doc.pop("cc"), cc.pop("cc"), atol=1e-12)
        assert doc == cc

    @pytest.mark.parametrize("segment_type, state", [
        ("type1", {"convention": "q", "values": [9.0, 10.5, 10.5]}),
        ("type3", {"convention": "q", "values": [21.0, 22.0, 22.0], "alpha": 2.0}),
    ])
    def test_forward_with_extensions_feeds_inverse(self, capsys, write, segment_type, state):
        robot = write("robot.json", {"segments": [
            {"type": segment_type, "length": 4.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
        ]})
        cc = self.emitted(capsys, write, ["forward", "--robot", robot,
                                          "--input", write("q.json", state)])
        assert "beta" in json.loads(Path(cc).read_text())
        doc = run_json(capsys, ["inverse", "--robot", robot, "--input", cc])
        np.testing.assert_allclose(doc["values"], state["values"], rtol=1e-12)
        assert (doc["convention"], doc.get("alpha")) == ("q", state.get("alpha"))

    def test_project_feeds_forward(self, capsys, write):
        robot = write("robot.json", SYM3)
        rho = write("rho.json", {"convention": "rho", "values": [3.0, 0.0, 0.0]})
        projected = self.emitted(capsys, write, ["project", "--robot", robot, "--input", rho])
        doc = run_json(capsys, ["forward", "--robot", robot, "--input", projected])
        np.testing.assert_allclose(doc["cc"], [2.0, 0.0], atol=1e-12)

    def test_chain_forward_feeds_chain_inverse(self, capsys, write):
        robot, q = str(GOLDEN / "chain_robot.json"), GOLDEN / "chain_q.json"
        cc = self.emitted(capsys, write, ["chain", "forward", "--robot", robot, "--input", str(q)])
        doc = run_json(capsys, ["chain", "inverse", "--robot", robot, "--input", cc])
        expect = json.loads(q.read_text())
        assert doc["convention"] == expect["convention"]
        np.testing.assert_allclose([s["values"] for s in doc["segments"]],
                                   [s["values"] for s in expect["segments"]], rtol=1e-12)

    def test_chain_inverse_feeds_chain_forward(self, capsys, write):
        robot, cc = str(GOLDEN / "chain_robot.json"), GOLDEN / "chain_forward.expected.json"
        q = self.emitted(capsys, write, ["chain", "inverse", "--robot", robot, "--input", str(cc)])
        doc = run_json(capsys, ["chain", "forward", "--robot", robot, "--input", q])
        np.testing.assert_allclose([s["cc"] for s in doc["segments"]],
                                   [s["cc"] for s in json.loads(cc.read_text())["segments"]],
                                   rtol=1e-12, atol=1e-12)

    def test_arc_to_clarke_feeds_from_clarke(self, capsys, write):
        arc = {"kappa": 0.01, "theta": 0.5, "l": 100.0}
        cc = self.emitted(capsys, write, ["arc", "to-clarke", "--input", write("arc.json", arc),
                                          "--d", "10"])
        doc = run_json(capsys, ["arc", "from-clarke", "--input", cc, "--d", "10", "--l", "100"])
        np.testing.assert_allclose([doc["kappa"], doc["theta"], doc["l"]], list(arc.values()),
                                   rtol=1e-12)

    def test_chain_accumulate_feeds_chain_forward(self, capsys, write):
        robot = write("robot.json", CHAIN2)
        rho = {"convention": "rho",
               "segments": [{"values": [2.0, -1.0, -1.0]}, {"values": [-2.0, 1.0, 1.0]}]}
        state = self.emitted(capsys, write, ["chain", "accumulate", "--robot", robot,
                                             "--input", write("rho.json", rho)])
        doc = run_json(capsys, ["chain", "forward", "--robot", robot, "--input", state])
        np.testing.assert_allclose([s["cc"] for s in doc["segments"]],
                                   [[2.0, 0.0], [-2.0, 0.0]], atol=1e-12)


class TestExitCodes:
    def test_code_1_invalid_robot(self, capsys, write):
        # One error line names every violation.
        bad = {"segments": [
            {"length": 0.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
            {"length": 4.0, "joints": {"explicit": [
                {"psi": 0.0, "d": -1.0}, {"psi": 2.0, "d": 1.0}, {"psi": 4.0, "d": 1.0}]}},
        ]}
        code, out, err = run(capsys, ["matrix", "--robot", write("robot.json", bad)])
        assert (code, out) == (1, "")
        assert err == (
            "error: invalid robot: segment 0: length: non-positive segment length; "
            "segment 1: joints.d: non-positive radial distance at joint 0\n"
        )

    def test_documented_codes_live_on_the_error_classes(self):
        documented = {
            DacrError: 1, DomainError: 1, OffManifold: 1, SchemaError: 2,
            DegenerateArrangement: 3, DimensionMismatch: 4, ConventionMismatch: 4,
            ArrangementMismatch: 4, UnsupportedArrangement: 4, FilterPropertyUnavailable: 5,
        }
        assert {cls: cls.exit_code for cls in documented} == documented

    def test_code_is_the_exit_code_of_the_error_class(self, capsys, write, monkeypatch):
        class Custom(DomainError):
            exit_code = 3

        def fail(arrangement):
            raise Custom("custom")

        monkeypatch.setattr(cli, "build_pair", fail)
        robot = write("robot.json", SYM3)
        assert run(capsys, ["matrix", "--robot", robot])[:2] == (3, "")

    def test_code_1_overflowing_d_times_l(self, capsys, write):
        # 5 / inf would be kappa 0: a bent arc reported as straight.
        cc = write("cc.json", {"cc": [3.0, 4.0]})
        argv = ["arc", "from-clarke", "--input", cc, "--d", "1e308", "--l", "1e308"]
        assert run(capsys, argv) == (1, "", "error: d * l overflows (d = 1e+308, l = 1e+308)\n")

    @pytest.mark.parametrize(
        "command, state",
        [("recover-length", {"convention": "q", "values": [98.0, 101.0, 101.0]}),
         ("validate", {"convention": "rho", "values": [2.0, -1.0, -1.0]})],
    )
    def test_code_1_negative_tol(self, capsys, write, command, state):
        # Not an off-manifold error or "valid": false: no residual is below -1.
        argv = [command, "--robot", write("robot.json", SYM3),
                "--input", write("state.json", state), "--tol", "-1"]
        assert run(capsys, argv) == (1, "", "error: tol must be non-negative, got -1.0\n")

    def test_code_1_non_positive_recovered_length(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "q", "values": [-5.0, -5.0, -5.0]})
        code, out, err = run(capsys, ["recover-length", "--robot", robot, "--input", state])
        assert (code, out) == (1, "")
        assert "recovered length must be positive" in err

    @pytest.mark.parametrize("command", ["recover-length", "forward"])
    def test_code_4_long_q_before_filter_property(self, capsys, write, command):
        robot = write("robot.json", HALF_PLANE)
        state = write("state.json", {"convention": "q", "values": [98.0, 101.0, 101.0, 1.0]})
        code, _, err = run(capsys, [command, "--robot", robot, "--input", state])
        assert code == 4
        assert "q has length 4, expected 3" in err

    def test_code_1_domain_error(self, capsys, write):
        arc = write("arc.json", {"kappa": -0.1, "theta": 0.0, "l": 100.0})
        code, _, err = run(capsys, ["sample", "--input", arc, "--points", "10"])
        assert code == 1
        assert "error:" in err

    def test_code_1_unallocatable_sample_count(self, capsys, write):
        arc = write("arc.json", {"kappa": 0.01, "theta": 0.0, "l": 100.0})
        code, out, err = run(capsys, ["sample", "--input", arc, "--points", str(10**15)])
        assert (code, out) == (1, "")
        assert err == f"error: cannot allocate {10**15} sample points\n"

    def test_code_2_malformed_json(self, capsys, write):
        robot = write("robot.json", "{not json")
        code, _, err = run(capsys, ["matrix", "--robot", robot])
        assert code == 2
        assert "error:" in err

    def test_code_2_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["matrix", "--robot", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in err

    def test_code_2_schema_violation(self, capsys, write):
        robot = write("robot.json", {"segments": [{"length": 1.0}]})
        code, _, _ = run(capsys, ["matrix", "--robot", robot])
        assert code == 2

    def test_code_2_non_finite_number(self, capsys, write):
        robot = write("robot.json", '{"segments": [{"length": NaN, '
                      '"joints": {"symmetric": {"n": 3, "d": 1}}}]}')
        code, _, _ = run(capsys, ["matrix", "--robot", robot])
        assert code == 2

    def test_code_1_overflowing_inverse_is_one_error_line(self, capsys, write):
        robot = write("robot.json", {"segments": [
            {"type": "type1", "length": 100.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
        ]})
        cc = write("cc.json", {"cc": [-1.7e308, -1.7e308], "beta": 4.0})
        code, out, err = run(capsys, ["inverse", "--robot", robot, "--input", cc])
        assert (code, out, err) == (1, "", "error: reconstructed rho must be finite\n")

    @pytest.mark.parametrize("command", ["recover-length", "forward"])
    def test_code_1_nan_residual_is_off_manifold(self, capsys, write, command):
        # The mean of q overflows; refused at the residual check, not as
        # a non-finite beta afterwards.
        robot = write("robot.json", {"segments": [
            {"type": "type1", "length": 100.0, "joints": {"symmetric": {"n": 5, "d": 10.0}}},
        ]})
        state = write("state.json", {"convention": "q",
                                     "values": [6e-8, 1.6e308, 1e308, -1e308, -1.6e308]})
        code, out, err = run(capsys, [command, "--robot", robot, "--input", state])
        assert (code, out) == (1, "")
        assert err.startswith("error: joint lengths are not consistent")

    @pytest.mark.parametrize("argv", [
        ["arc", "to-clarke", "--d", "10"],
        ["sample", "--points", "3", "--format", "json"],
        ["sample", "--points", "3", "--format", "csv"],
    ], ids=["arc-to-clarke", "sample-json", "sample-csv"])
    def test_code_1_non_finite_result(self, capsys, write, argv):
        # Finite inputs whose result overflows: kappa * l is not finite.
        arc = write("arc.json", {"kappa": 1e308, "theta": 0.0, "l": 1e10})
        code, out, err = run(capsys, [*argv, "--input", arc])
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("argv, flag", [
        (["arc", "to-clarke", "--input", "{arc}"], "d"),
        (["arc", "from-clarke", "--input", "{cc}", "--d", "10"], "l"),
        (["forward", "--robot", "{robot}", "--input", "{state}"], "alpha"),
        (["inverse", "--robot", "{robot}", "--input", "{cc}"], "alpha"),
        (["forward", "--robot", "{robot}", "--input", "{state}"], "tol"),
        (["validate", "--robot", "{robot}", "--input", "{state}"], "tol"),
    ], ids=["arc-d", "arc-l", "forward-alpha", "inverse-alpha", "forward-tol", "validate-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_code_1_non_finite_flag(self, capsys, write, argv, flag, value):
        files = {
            "arc": write("arc.json", {"kappa": 0.01, "l": 100.0}),
            "cc": write("cc.json", {"cc": [2.0, 0.0]}),
            "robot": write("robot.json", SYM3),
            "state": write("state.json", {"convention": "rho", "values": [2.0, -1.0, -1.0]}),
        }
        code, out, err = run(capsys, [*(a.format(**files) for a in argv), f"--{flag}={value}"])
        assert code == 1
        assert out == ""
        assert f"--{flag} must be a finite number" in err

    def test_code_3_degenerate_arrangement(self, capsys, write):
        robot = write("robot.json", {
            "segments": [{"length": 1.0, "joints": {"explicit": [
                {"psi": 0.0, "d": 1.0}, {"psi": 0.0, "d": 1.0}, {"psi": 0.0, "d": 1.0},
            ]}}],
        })
        code, _, err = run(capsys, ["matrix", "--robot", robot])
        assert code == 3
        assert "error:" in err

    def test_code_4_dimension_mismatch(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "rho", "values": [1.0, 0.0]})
        code, _, _ = run(capsys, ["forward", "--robot", robot, "--input", state])
        assert code == 4

    def test_code_4_segment_out_of_range(self, capsys, write):
        robot = write("robot.json", SYM3)
        code, _, _ = run(capsys, ["matrix", "--robot", robot, "--segment", "3"])
        assert code == 4

    def test_code_4_convention_mismatch(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "q", "values": [98.0, 101.0, 101.0]})
        code, _, _ = run(capsys, ["project", "--robot", robot, "--input", state])
        assert code == 4

    def test_code_4_validate_on_single_q_state(self, capsys, write):
        robot = write("robot.json", SYM3)
        state = write("state.json", {"convention": "q", "values": [98.0, 101.0, 101.0]})
        code, out, err = run(capsys, ["validate", "--robot", robot, "--input", state])
        assert (code, out) == (4, "")
        assert err == "error: displacement validation applies to rho states\n"

    def test_code_4_accumulate_on_q_chain_state(self, capsys, write):
        robot = write("robot.json", CHAIN2)
        state = write("state.json", {
            "convention": "q",
            "segments": [{"values": [8.0, 11.0, 11.0]}, {"values": [30.0, 30.0, 30.0]}],
        })
        code, out, err = run(capsys, ["chain", "accumulate", "--robot", robot, "--input", state])
        assert (code, out) == (4, "")
        assert err == "error: accumulation starts from per-segment rho vectors\n"

    def test_code_4_chain_count_mismatch(self, capsys, write):
        robot = write("robot.json", CHAIN2)
        state = write("state.json", {
            "convention": "q", "segments": [{"values": [8.0, 11.0, 11.0]}],
        })
        code, _, _ = run(capsys, ["chain", "forward", "--robot", robot, "--input", state])
        assert code == 4

    def test_code_5_filter_property_unavailable(self, capsys, write):
        robot = write("robot.json", HALF_PLANE)
        state = write("state.json", {"convention": "q", "values": [98.0, 101.0, 101.0]})
        code, _, err = run(capsys, ["forward", "--robot", robot, "--input", state])
        assert code == 5
        assert "error:" in err

    def test_code_5_type3_q_with_beta(self, capsys, write):
        robot = json.loads(json.dumps(HALF_PLANE))
        robot["segments"][0]["type"] = "type3"
        robot = write("robot.json", robot)
        state = write("state.json", {
            "convention": "q", "values": [99.0, 100.0, 101.0], "beta": 100.0, "alpha": 0.3,
        })
        code, out, err = run(capsys, ["forward", "--robot", robot, "--input", state])
        assert code == 5
        assert out == ""
        assert "error:" in err

    def test_code_5_recover_length(self, capsys, write):
        robot = write("robot.json", HALF_PLANE)
        state = write("state.json", {"convention": "q", "values": [98.0, 101.0, 101.0]})
        code, _, _ = run(capsys, ["recover-length", "--robot", robot, "--input", state])
        assert code == 5

    def test_usage_error_is_one_error_line(self, capsys):
        for argv in (
            [],
            ["matrix"],  # missing --robot
            ["matrix", "--robot", "robot.json", "--segment", "x"],
            ["sample", "--input", "arc.json", "--points", "many"],
            ["arc", "to-clarke", "--input", "arc.json", "--d", "ten"],
            ["chain", "forward", "--robot", "r.json", "--input", "s.json", "--segment", "0"],
            ["nonsense"],
        ):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: dacr") and err.count("\n") == 1, (argv, err)

    @pytest.mark.parametrize("argv", [[], ["chain"], ["arc", "from-clarke"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: dacr") and captured.err == ""


class TestParserReuse:
    """``main`` parses with one parser per process; every call behaves as
    with a fresh parser."""

    def test_calls_match_a_fresh_parser(self, capsys, write, monkeypatch):
        robot = write("robot.json", {"segments": [
            {"type": "type1", "length": 100.0, "joints": {"symmetric": {"n": 4, "d": 10.0}}},
        ]})
        state = write("state.json", {"convention": "q", "values": [100.1, 99.9, 100.1, 99.9]})
        forward = ["forward", "--robot", robot, "--input", state]
        calls = [
            [*forward, "--tol", "1.0"],
            forward,  # off the manifold at the default tol, so --tol is not kept
            [*forward, "--segment", "x"],
            ["forward", "--help"],
            ["matrix", "--robot", robot],
        ]

        def outcomes():
            seen = []
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = ("exit", exc.code)
                captured = capsys.readouterr()
                seen.append((code, captured.out, captured.err))
            return seen

        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        reused = outcomes()
        assert [code for code, _, _ in reused] == [0, 1, 2, ("exit", 0), 0]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert outcomes() == reused
