"""Self-tests of the benchmark: tail rule, seeded inputs, oracle.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import backbone_export  # noqa: E402
import checks  # noqa: E402
import cli_oneshot  # noqa: E402
import control_loop  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from dacr import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    assert stats.tail(samples) == (90, 90.0)
    value, pct = stats.tail(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    value, pct = stats.tail(list(range(1000)))
    assert sum(s > value for s in range(1000)) == 10 and pct == 99.0
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def _pool_files(build, tmp_path: Path, name: str, seed: int) -> tuple[list, dict]:
    workdir = tmp_path / name
    reqs = build(seed, workdir)
    argv = [[a.replace(str(workdir), "") for a in r.argv] for r in reqs]
    return argv, {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("build", [
    lambda seed, d: cli_oneshot.build_pool(seed, d, GOLDEN),
    backbone_export.build_pool,
])
def test_same_seed_gives_same_inputs(build, tmp_path):
    first = _pool_files(build, tmp_path, "a", 7)
    assert first == _pool_files(build, tmp_path, "b", 7)
    assert first != _pool_files(build, tmp_path, "c", 8)


def test_same_seed_gives_same_fleet():
    def flat(fleet):
        return [
            np.concatenate([np.ravel(v) for v in state["values"]]).tolist()
            for slot in fleet for robot in slot for state, _ in robot["ticks"]
        ]

    assert flat(control_loop.build_fleet(3)) == flat(control_loop.build_fleet(3))
    assert flat(control_loop.build_fleet(3)) != flat(control_loop.build_fleet(4))


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _perturb(text: str) -> str:
    """Change the units digit of the first number without an exponent:
    a shift of 1, far above any tolerance."""
    m = re.search(r"\d\.\d+(?![\de])", text)
    assert m, "no number to perturb"
    at = m.start()
    digit = "1" if text[at] != "1" else "2"
    return text[:at] + digit + text[at + 1:]


def test_oracle_accepts_dacr_and_rejects_perturbed_output(tmp_path):
    reqs = cli_oneshot.build_pool(5, tmp_path, GOLDEN)
    checked = 0
    for req in reqs:
        if req.kind.startswith("forward type3 q"):
            continue  # the twist fixed point may not converge on these
        code, out = _run_cli(req.argv)
        assert checks.verdict(req, code, out, "") == checks.OK, req.kind
        if code == 0 and req.kind.split()[0] in ("forward", "inverse", "project", "golden", "matrix", "sample"):
            assert checks.verdict(req, code, _perturb(out), "") == checks.WRONG, req.kind
            checked += 1
    assert checked > 20


def test_verdict_rules_for_invalid_requests():
    req = checks.Request("invalid", [], oracle.EXIT_WRONG_LENGTH, checks.expect_fields(), 0)
    assert checks.verdict(req, 4, "", "error: ...") == checks.OK
    assert checks.verdict(req, 1, "", "error: ...") == checks.FAILED
    assert checks.verdict(req, 0, "{}", "") == checks.WRONG
    ok = checks.Request("valid", [], 0, checks.expect_fields(), 0)
    assert checks.verdict(ok, 1, "", "Traceback (most recent call last):") == checks.FAILED


def test_control_loop_check_rejects_perturbed_tick():
    wl = control_loop.Workload(ROOT, 9, Path("."))
    wl.setup()
    op = wl.ops[0]
    result = wl.run(op)
    assert wl.check(op, result) == checks.OK
    ccs, beta, bends, back = result
    moved = [back[0] * (1 + 1e-7)]
    assert wl.check(op, (ccs, beta, bends, moved)) == checks.WRONG


class _Pool:
    """Four requests in rounds of two; request 1 always fails and
    request 2 returns a wrong value on its second run."""

    speed_kernel = "interpreter"
    in_process = True
    ops = [0, 1, 2, 3]
    round_len = 2

    def __init__(self):
        self.runs = [0] * len(self.ops)

    def run(self, op):
        self.runs[op] += 1
        return op

    def check(self, op, result):
        if op == 1:
            return checks.FAILED
        return checks.WRONG if op == 2 and self.runs[op] > 1 else checks.OK


def test_outcomes_count_each_pool_request_once_with_its_worst_verdict():
    wl = _Pool()
    first = run.closed_loop(wl, 0.0, wl.run)
    assert wl.runs == [1, 1, 1, 1]  # the whole pool runs even with no time left
    assert first.outcomes == {0: checks.OK, 1: checks.FAILED, 2: checks.OK, 3: checks.OK}
    second = run.closed_loop(wl, 0.0, wl.run)
    assert second.outcomes[1] == checks.FAILED and second.outcomes[2] == checks.WRONG
