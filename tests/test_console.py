"""Process-level checks of the ``dacr`` command, one table run by one runner.

Each row is an id, an argv, the input documents written into ``tmp_path``
(named in the argv as ``{tmp}/<name>``; ``{golden}`` is ``tests/golden``)
and one expectation:

- ``("golden", name)``: exit 0, empty stderr, and stdout equal to
  ``tests/golden/<name>`` byte for byte;
- ``("code", code, stderr_has)``: that exit code, empty stdout, exactly one
  stderr line, starting ``error: ``, no traceback, and ``stderr_has`` (if
  not None) in it;
- ``("respell", "json" | "csv")``: exit 0, and every number spelled as
  Python spells it: the JSON is ``json.dumps(json.loads(out), indent=2)``,
  each CSV number row is ``repr`` of its floats;
- ``("out_matches_stdout",)``: exit 0, and ``--out FILE`` writes the bytes
  that stdout gets.

Every row runs ``python -m dacr``, which exits with ``cli.main``'s return
value; the installed ``dacr`` script calls the same ``main``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

SAMPLE_ARC = {"arc.json": {"kappa": 0.013, "theta": 0.9, "l": 42.0}}
SAMPLE_5000 = ["sample", "--input", "{tmp}/arc.json", "--points", "5000", "--format"]
# 20000 rows are five blocks, so the value gate of the positional rewrite
# and the depth slice run past the first block.
SAMPLE_20000 = ["sample", "--input", "{tmp}/arc.json", "--points", "20000", "--format", "json"]
SYM3 = "{golden}/sym3_robot.json"
TYPE1 = {"segments": [
    {"type": "type1", "length": 100.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
]}
# A type-3 arm whose twist term alpha*d = 20 outweighs beta = 4: mean(q) =
# hypot(20, 4), so beta = sqrt((m - 20) * (m + 20)) = 4 and cc = (2, 0).
H = math.hypot(20.0, 4.0)
LONG_ARM = {
    "robot.json": {"segments": [
        {"type": "type3", "length": 4.0, "joints": {"symmetric": {"n": 3, "d": 10.0}}},
    ]},
    "state.json": {"convention": "q", "values": [H - 2.0, H + 1.0, H + 1.0], "alpha": 2.0},
}
# The curvature overflows at --d 1e-10 --l 1, the bending angle l * kappa
# at --d 1e-300 --l 1e300.
BIG_CC = {"cc.json": '{"cc": [1e300, 1e300]}'}

ROWS = [
    pytest.param(["chain", "inverse", "--robot", "{golden}/chain_robot.json",
                  "--input", "{golden}/chain_forward.expected.json"],
                 {}, ("golden", "chain_inverse.expected.json"), id="chain-inverse-golden"),
    pytest.param(["forward", "--robot", "{tmp}/robot.json", "--input", "{tmp}/state.json"],
                 LONG_ARM, ("golden", "type3_long_arm_forward.expected.json"),
                 id="type3-long-twist-golden"),
    pytest.param([*SAMPLE_5000, "json"], SAMPLE_ARC, ("respell", "json"), id="sample-json-respell"),
    pytest.param([*SAMPLE_5000, "csv"], SAMPLE_ARC, ("respell", "csv"), id="sample-csv-respell"),
    pytest.param(SAMPLE_20000, SAMPLE_ARC, ("respell", "json"), id="sample-20000-json-respell"),
    pytest.param(SAMPLE_20000, SAMPLE_ARC, ("out_matches_stdout",), id="sample-20000-json-out"),
    pytest.param(["matrix", "--robot", "{golden}/half_plane_robot.json", "--format", "csv"],
                 {}, ("respell", "csv"), id="matrix-csv-respell"),
    pytest.param(["matrix", "--robot", "{tmp}/robot.json"],
                 {"robot.json": b'\xff\xfe{"segments": []}'}, ("code", 2, "not UTF-8"),
                 id="non-utf8-robot"),
    pytest.param(["matrix", "--robot", "{tmp}/robot.json"],
                 {"robot.json": "[" * 100_000 + "]" * 100_000}, ("code", 2, None),
                 id="too-deep-robot"),
    pytest.param(["matrix", "--robot", "{tmp}/robot.json"], {"robot.json": {"segments": {}}},
                 ("code", 2, "segments must be an array"), id="object-segments"),
    pytest.param(["forward", "--robot", SYM3, "--input", "{tmp}/state.json"],
                 {"state.json": {"convention": "rho", "values": [1, "2", 3]}},
                 ("code", 2, "values[1] must be a number"), id="text-joint-value"),
    # With no --points, argparse would exit 2 for the missing flag.
    pytest.param(["sample", "--input", "{tmp}/arc.json", "--points", "2"],
                 {"arc.json": {"kappa": None, "l": 1}}, ("code", 2, "kappa must be a number"),
                 id="null-kappa"),
    # A misspelt optional key would otherwise take its default, theta 0.
    pytest.param(["arc", "to-clarke", "--input", "{tmp}/arc.json", "--d", "10"],
                 {"arc.json": {"kappa": 0.01, "l": 100, "Theta": 1.0}},
                 ("code", 2, "unknown key 'Theta'"), id="misspelt-theta"),
    # 1e400 is valid JSON but parses to inf, which must not come back out
    # as the non-JSON token Infinity.
    pytest.param(["forward", "--robot", SYM3, "--input", "{tmp}/state.json"],
                 {"state.json": '{"convention": "rho", "values": [1e400, 0, 0]}'},
                 ("code", 1, "finite"), id="overflowing-value-forward"),
    pytest.param(["chain", "forward", "--robot", SYM3, "--input", "{tmp}/state.json"],
                 {"state.json": '{"convention": "rho", "segments": [{"values": [1e400, 0.0, 0.0]}]}'},
                 ("code", 1, "finite"), id="overflowing-value-chain-forward"),
    pytest.param(["forward", "--robot", "{tmp}/robot.json", "--input", "{tmp}/state.json"],
                 {"robot.json": TYPE1,
                  "state.json": '{"convention": "rho", "values": [2, -1, -1], "beta": 1e400}'},
                 ("code", 1, "beta must be a finite number"), id="overflowing-beta"),
    pytest.param(["arc", "from-clarke", "--input", "{tmp}/cc.json", "--d", "1e-308", "--l", "1e-300"],
                 {"cc.json": {"cc": [2.0, 0.0]}}, ("code", 1, "underflows"),
                 id="underflowing-d-times-l"),
    pytest.param(["arc", "from-clarke", "--input", "{tmp}/cc.json", "--d", "1e-10", "--l", "1"],
                 BIG_CC, ("code", 1, "kappa is non-finite"), id="overflowing-curvature"),
    pytest.param(["arc", "from-clarke", "--input", "{tmp}/cc.json", "--d", "1e-300", "--l", "1e300"],
                 BIG_CC, ("code", 1, "phi is non-finite"), id="overflowing-bending-angle"),
]


def dacr(argv):
    return subprocess.run([sys.executable, "-m", "dacr", *argv], capture_output=True)


@pytest.mark.parametrize("argv, documents, expect", ROWS)
def test_console(tmp_path, argv, documents, expect):
    for name, doc in documents.items():
        if isinstance(doc, bytes):
            (tmp_path / name).write_bytes(doc)
        else:
            (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [a.format(tmp=tmp_path, golden=GOLDEN) for a in argv]
    kind, *args = expect

    if kind == "out_matches_stdout":
        dest = tmp_path / "out"
        stdout, to_file = dacr(argv), dacr([*argv, "--out", str(dest)])
        assert (stdout.returncode, to_file.returncode, to_file.stdout) == (0, 0, b"")
        assert dest.read_bytes() == stdout.stdout
        return

    run = dacr(argv)
    err = run.stderr.decode()
    if kind == "code":
        code, stderr_has = args
        assert (run.returncode, run.stdout) == (code, b""), err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err
        assert stderr_has is None or stderr_has in err, err
        return

    assert (run.returncode, err) == (0, "")
    if kind == "golden":
        assert run.stdout == (GOLDEN / args[0]).read_bytes()
        return
    assert kind == "respell"
    text = run.stdout.decode()
    if args == ["json"]:
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    else:
        rows = [r for r in text.splitlines() if r and r[0] in "-0123456789"]
        bad = [r for r in rows if r != ",".join(repr(float(x)) for x in r.split(","))]
        assert rows and not bad, bad[:3]
