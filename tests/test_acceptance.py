"""Acceptance suite: one test per numbered criterion.

Every test reports "[criterion NN] <description>: PASS|FAIL" through the
terminal-summary hook in conftest.py. Tolerances are part of the
contract and must not be loosened here.
"""

import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from dacr import (
    ArcParameters,
    ChainState,
    ClarkeCoordinates,
    Convention,
    Coupling,
    DegenerateArrangement,
    JointArrangement,
    JointState,
    RobotSpec,
    SegmentSpec,
    SegmentType,
    arc_to_clarke,
    build_mp_inv,
    build_pair,
    clarke_to_arc,
    forward,
    helical_offset,
    interdependent_accumulate,
    interdependent_forward,
    inverse,
    make_symmetric_arrangement,
    recover_length,
    segment_forward,
    type1_forward_from_q,
    type1_inverse_to_q,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(report, num, description):
    try:
        yield
    except BaseException:
        report.append(f"[criterion {num:02d}] {description}: FAIL")
        raise
    report.append(f"[criterion {num:02d}] {description}: PASS")


def random_arrangement(rng, n_lo, n_hi):
    """A non-degenerate random arrangement with n in [n_lo, n_hi]."""
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        arr = JointArrangement(
            psi=rng.uniform(0.0, 2.0 * np.pi, n),
            d=rng.uniform(0.5, 20.0, n),
        )
        mp_inv = build_mp_inv(arr)
        ev = np.linalg.eigvalsh(mp_inv.T @ mp_inv)
        if ev[0] <= ev[1] / 1e8:
            continue  # directions collapsed onto a line; redraw
        return arr


def test_criterion_01_right_inverse(acceptance_report):
    with criterion(acceptance_report, 1,
                   "right-inverse identity on 1000 random arrangements"):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            arr = random_arrangement(rng, 2, 16)
            pair = build_pair(arr)
            worst = max(worst, float(np.abs(pair.mp @ pair.mp_inv - np.eye(2)).max()))
        assert worst < 1e-10


def test_criterion_02_symmetric_closed_form(acceptance_report):
    with criterion(acceptance_report, 2,
                   "symmetric closed form matches the pseudoinverse for n in [3,32]"):
        for n in range(3, 33):
            arr = make_symmetric_arrangement(n, 3.7)
            mp_inv = build_mp_inv(arr)
            closed = (2.0 / n) * mp_inv.T
            assert np.abs(closed - np.linalg.pinv(mp_inv)).max() < 1e-10
            # the library pair is built from the closed form
            np.testing.assert_array_equal(build_pair(arr).mp, closed)


def test_criterion_03_filter_property(acceptance_report):
    with criterion(acceptance_report, 3,
                   "symmetric arrangements filter constants; half-plane does not"):
        for n in range(3, 33):
            pair = build_pair(make_symmetric_arrangement(n, 10.0))
            filtered = pair.mp @ np.ones(n)
            assert float(np.linalg.norm(filtered)) < 1e-10
            assert float(np.linalg.norm(pair.mp_inv @ filtered)) < 1e-10
            assert pair.filter_ok
        half_plane = build_pair(JointArrangement(
            psi=np.array([0.0, np.pi / 2, np.pi]), d=np.full(3, 10.0)))
        assert float(np.linalg.norm(half_plane.mp @ np.ones(3))) == 1.0
        assert not half_plane.filter_ok


def test_criterion_04_sum_constraint(acceptance_report):
    with criterion(acceptance_report, 4,
                   "reconstructed displacements sum to zero"):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(3, 17))
            pair = build_pair(make_symmetric_arrangement(n, float(rng.uniform(0.5, 20.0))))
            cc = ClarkeCoordinates(*rng.uniform(-10.0, 10.0, 2))
            assert abs(float(np.sum(inverse(pair, cc)))) < 1e-9 * n


def test_criterion_05_magnitude_relation(acceptance_report):
    with criterion(acceptance_report, 5,
                   "squared Clarke magnitude is 2/n of the displacement energy"):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(3, 17))
            pair = build_pair(make_symmetric_arrangement(n, float(rng.uniform(0.5, 20.0))))
            rho = inverse(pair, ClarkeCoordinates(*rng.normal(0.0, 3.0, 2)))
            cc = forward(pair, rho)
            lhs = cc.rho_re**2 + cc.rho_im**2
            rhs = (2.0 / n) * float(rho @ rho)
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1e-30)
        # spot value: rho = [2,-1,-1] carries energy 6; (2/3)*6 == |(2,0)|^2
        pair = build_pair(make_symmetric_arrangement(3, 10.0))
        cc = forward(pair, np.array([2.0, -1.0, -1.0]))
        assert (2.0 / 3.0) * 6.0 == 4.0
        assert abs(cc.rho_re**2 + cc.rho_im**2 - 4.0) <= 1e-10 * 4.0


def test_criterion_06_length_recovery(acceptance_report):
    with criterion(acceptance_report, 6, "length recovery from joint lengths"):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(3, 17))
            pair = build_pair(make_symmetric_arrangement(n, float(rng.uniform(0.5, 20.0))))
            l = float(rng.uniform(0.1, 1000.0))
            q = l - inverse(pair, ClarkeCoordinates(*rng.normal(0.0, 3.0, 2)))
            assert abs(recover_length(pair, q) - l) <= 1e-8 * l
        pair = build_pair(make_symmetric_arrangement(3, 10.0))
        assert abs(recover_length(pair, [98.0, 101.0, 101.0]) - 100.0) <= 1e-8 * 100.0


def test_criterion_07_type1_roundtrip(acceptance_report):
    with criterion(acceptance_report, 7, "length-joint roundtrip is the identity"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(3, 17))
            pair = build_pair(make_symmetric_arrangement(n, float(rng.uniform(0.5, 20.0))))
            beta = float(rng.uniform(1.0, 100.0))
            q = beta - inverse(pair, ClarkeCoordinates(*rng.normal(0.0, 0.1 * beta, 2)))
            back = type1_inverse_to_q(pair, type1_forward_from_q(pair, q))
            assert float(np.abs(back - q).max()) < 1e-9


def test_criterion_08_twist_immunity(acceptance_report):
    with criterion(acceptance_report, 8,
                   "twist never leaks into the Clarke coordinates"):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            d = float(rng.uniform(0.5, 20.0))
            pair = build_pair(make_symmetric_arrangement(n, d))
            beta = float(rng.uniform(1.0, 50.0))
            q = beta - inverse(pair, ClarkeCoordinates(*rng.normal(0.0, 0.1 * beta, 2)))
            seg = SegmentSpec(pair.arrangement, beta, SegmentType.TYPE3)

            def cc(alpha):
                state = JointState(Convention.Q, q, beta=beta, alpha=alpha)
                return segment_forward(seg, pair, state).cc

            reference = cc(0.0)
            for _ in range(20):
                assert cc(float(rng.uniform(-np.pi, np.pi))) == reference
        # 3-4-5 case: alpha*d = 3 with beta = 4 adds exactly 1
        for d in (10.0, 2.0, 0.5):
            assert helical_offset(3.0 / d, d, 4.0) == 1.0


def test_criterion_09_chain_consistency(acceptance_report):
    with criterion(acceptance_report, 9, "interdependent chains compose consistently"):
        rng = np.random.default_rng(9)
        for m in range(1, 9):
            arr = make_symmetric_arrangement(int(rng.integers(3, 7)),
                                             float(rng.uniform(0.5, 20.0)))
            pair = build_pair(arr)

            def chain(lengths):
                return RobotSpec(
                    segments=tuple(
                        SegmentSpec(arrangement=arr, length=float(l), seg_type=SegmentType.TYPE0)
                        for l in lengths
                    ),
                    coupling=Coupling.INTERDEPENDENT,
                )

            robot = chain(rng.uniform(5.0, 50.0, m))
            rhos = [inverse(pair, ClarkeCoordinates(*rng.normal(0.0, 3.0, 2)))
                    for _ in range(m)]
            expected = [forward(pair, rho) for rho in rhos]

            for rob in (robot, chain(rng.uniform(1.0, 500.0, m))):
                q = interdependent_accumulate(rob, rhos)
                ccs = interdependent_forward(rob, q).per_segment
                for cc, ref in zip(ccs, expected):
                    assert abs(cc.rho_re - ref.rho_re) < 1e-9
                    assert abs(cc.rho_im - ref.rho_im) < 1e-9

        # worked case on the two-segment chain
        arr = make_symmetric_arrangement(3, 10.0)
        robot = RobotSpec(
            segments=(
                SegmentSpec(arrangement=arr, length=10.0, seg_type=SegmentType.TYPE0),
                SegmentSpec(arrangement=arr, length=20.0, seg_type=SegmentType.TYPE0),
            ),
            coupling=Coupling.INTERDEPENDENT,
        )
        state = ChainState(
            convention=Convention.Q,
            per_segment=(np.array([8.0, 11.0, 11.0]), np.array([30.0, 30.0, 30.0])),
        )
        first, second = interdependent_forward(robot, state).per_segment
        assert abs(first.rho_re - 2.0) < 1e-9 and abs(first.rho_im) < 1e-9
        assert abs(second.rho_re + 2.0) < 1e-9 and abs(second.rho_im) < 1e-9


def test_criterion_10_arc_roundtrip(acceptance_report):
    with criterion(acceptance_report, 10,
                   "arc bridge roundtrip and straight-configuration zeros"):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            arc = ArcParameters(
                kappa=float(rng.uniform(1e-4, 0.5)),
                theta=float(rng.uniform(0.0, 2.0 * np.pi)),
                l=float(rng.uniform(0.1, 500.0)),
            )
            d = float(rng.uniform(0.1, 50.0))
            back = clarke_to_arc(arc_to_clarke(arc, d), d, arc.l)
            assert abs(back.kappa - arc.kappa) <= 1e-10 * max(1.0, arc.kappa)
            dtheta = (back.theta - arc.theta + np.pi) % (2.0 * np.pi) - np.pi
            assert abs(dtheta) < 1e-10
        straight = arc_to_clarke(ArcParameters(kappa=0.0, theta=1.0, l=10.0), d=5.0)
        assert (straight.rho_re, straight.rho_im) == (0.0, 0.0)
        back = clarke_to_arc(ClarkeCoordinates(0.0, 0.0), d=5.0, l=10.0)
        assert back.kappa == 0.0 and not back.theta_defined


def test_criterion_11_cli_golden_files(acceptance_report, tmp_path):
    cases = [
        ("matrix.expected.json",
         ["matrix", "--robot", str(GOLDEN / "half_plane_robot.json")]),
        ("recover_length.expected.json",
         ["recover-length", "--robot", str(GOLDEN / "sym3_robot.json"),
          "--input", str(GOLDEN / "recover_q.json")]),
        ("type3_forward.expected.json",
         ["forward", "--robot", str(GOLDEN / "type3_robot.json"),
          "--input", str(GOLDEN / "type3_q.json")]),
        ("chain_forward.expected.json",
         ["chain", "forward", "--robot", str(GOLDEN / "chain_robot.json"),
          "--input", str(GOLDEN / "chain_q.json")]),
        ("arc_from_clarke.expected.json",
         ["arc", "from-clarke", "--input", str(GOLDEN / "arc_cc.json"),
          "--d", "10", "--l", "100"]),
    ]
    with criterion(acceptance_report, 11,
                   "CLI reproduces the frozen worked examples byte-for-byte"):
        for name, argv in cases:
            expected = (GOLDEN / name).read_bytes()
            out_file = tmp_path / name
            run = subprocess.run(
                [sys.executable, "-m", "dacr", *argv, "--out", str(out_file)],
                capture_output=True,
            )
            assert run.returncode == 0, run.stderr.decode()
            assert out_file.read_bytes() == expected, name
            # stdout emission must be byte-identical to file emission
            run = subprocess.run(
                [sys.executable, "-m", "dacr", *argv], capture_output=True)
            assert run.returncode == 0, run.stderr.decode()
            assert run.stdout == expected, name


def test_degenerate_arrangements_are_rejected_not_mangled():
    # Guard for criterion 1's "non-degenerate" qualifier: collapsed
    # arrangements raise instead of returning garbage matrices.
    with np.errstate(all="raise"):
        try:
            build_pair(JointArrangement(psi=np.zeros(3), d=np.full(3, 1.0)))
        except DegenerateArrangement:
            pass
        else:
            raise AssertionError("collapsed arrangement was not rejected")
