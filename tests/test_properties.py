"""Randomized invariant sweeps across arrangements, segments, and chains.

Each sweep draws a few hundred seeded random cases; arrangements with a
badly conditioned normal matrix are redrawn, since no tolerance holds
uniformly as the joint directions collapse onto a line.
"""

import numpy as np

from dacr import (
    ClarkeCoordinates,
    Convention,
    Coupling,
    JointArrangement,
    JointState,
    RobotSpec,
    SegmentSpec,
    SegmentType,
    build_mp_inv,
    build_pair,
    forward,
    interdependent_accumulate,
    interdependent_forward,
    interdependent_inverse,
    inverse,
    make_symmetric_arrangement,
    project,
    segment_forward,
    type1_forward_from_q,
    type1_inverse_to_q,
    validate_displacement,
)

MAX_COND = 1e4


def random_arrangement(rng, n_max=12):
    """A well-conditioned arrangement with arbitrary angles and radii."""
    n = int(rng.integers(3, n_max + 1))
    while True:
        arr = JointArrangement(
            psi=rng.uniform(0.0, 2.0 * np.pi, n),
            d=rng.uniform(0.5, 20.0, n),
        )
        gram = build_mp_inv(arr).T @ build_mp_inv(arr)
        ev = np.linalg.eigvalsh(gram)
        if ev[0] > ev[1] / MAX_COND:
            return arr


def random_symmetric(rng, n_max=12):
    n = int(rng.integers(3, n_max + 1))
    return make_symmetric_arrangement(n, float(rng.uniform(0.5, 20.0)))


def random_cc(rng, scale=10.0):
    return ClarkeCoordinates(
        float(rng.uniform(-scale, scale)), float(rng.uniform(-scale, scale))
    )


class TestTransformPairInvariants:
    def test_right_inverse(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            pair = build_pair(random_arrangement(rng))
            err = np.abs(pair.mp @ pair.mp_inv - np.eye(2)).max()
            assert err < 1e-10

    def test_projector_idempotent(self):
        rng = np.random.default_rng(102)
        for _ in range(300):
            p = build_pair(random_arrangement(rng)).projector
            assert np.abs(p @ p - p).max() < 1e-10

    def test_forward_of_inverse_is_identity(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            pair = build_pair(random_arrangement(rng))
            cc = random_cc(rng)
            back = forward(pair, inverse(pair, cc))
            assert abs(back.rho_re - cc.rho_re) < 1e-9
            assert abs(back.rho_im - cc.rho_im) < 1e-9

    def test_inverse_lands_on_manifold(self):
        rng = np.random.default_rng(104)
        for _ in range(300):
            pair = build_pair(random_arrangement(rng))
            assert validate_displacement(pair, inverse(pair, random_cc(rng)), tol=1e-9).valid

    def test_projection_fixes_the_manifold(self):
        rng = np.random.default_rng(105)
        for _ in range(300):
            pair = build_pair(random_arrangement(rng))
            rho = inverse(pair, random_cc(rng))
            np.testing.assert_allclose(project(pair, rho), rho, atol=1e-9)

    def test_projection_output_is_on_manifold(self):
        rng = np.random.default_rng(106)
        for _ in range(300):
            pair = build_pair(random_arrangement(rng))
            arbitrary = rng.uniform(-10.0, 10.0, pair.n)
            assert validate_displacement(pair, project(pair, arbitrary), tol=1e-9).valid


class TestSymmetricInvariants:
    def test_filter_annihilates_constants(self):
        rng = np.random.default_rng(201)
        for _ in range(300):
            pair = build_pair(random_symmetric(rng))
            assert pair.filter_ok
            c = float(rng.uniform(-1e3, 1e3))
            shifted = forward(pair, np.full(pair.n, c))
            assert abs(shifted.rho_re) < 1e-9 * max(1.0, abs(c))
            assert abs(shifted.rho_im) < 1e-9 * max(1.0, abs(c))

    def test_constant_offset_immunity(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            pair = build_pair(random_symmetric(rng))
            rho = inverse(pair, random_cc(rng))
            c = float(rng.uniform(-100.0, 100.0))
            base = forward(pair, rho)
            shifted = forward(pair, rho + c)
            scale = max(1.0, abs(c))
            assert abs(shifted.rho_re - base.rho_re) < 1e-9 * scale
            assert abs(shifted.rho_im - base.rho_im) < 1e-9 * scale

    def test_magnitude_relation(self):
        # For on-manifold displacements of a symmetric arrangement,
        # |cc|^2 = (2/n) * |rho|^2.
        rng = np.random.default_rng(203)
        for _ in range(300):
            pair = build_pair(random_symmetric(rng))
            cc = random_cc(rng)
            rho = inverse(pair, cc)
            lhs = cc.rho_re**2 + cc.rho_im**2
            rhs = (2.0 / pair.n) * float(rho @ rho)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)


class TestSegmentInvariants:
    def test_type1_roundtrip(self):
        rng = np.random.default_rng(301)
        for _ in range(300):
            pair = build_pair(random_symmetric(rng))
            beta = float(rng.uniform(1.0, 200.0))
            q = beta - inverse(pair, random_cc(rng, scale=0.2 * beta))
            state = type1_forward_from_q(pair, q)
            back = type1_inverse_to_q(pair, state)
            np.testing.assert_allclose(back, q, atol=1e-9 * max(1.0, beta))

    def test_type3_twist_immunity(self):
        rng = np.random.default_rng(302)
        for _ in range(100):
            pair = build_pair(random_symmetric(rng))
            beta = float(rng.uniform(1.0, 50.0))
            q = beta - inverse(pair, random_cc(rng, scale=0.2 * beta))
            seg = SegmentSpec(pair.arrangement, beta, SegmentType.TYPE3)

            def cc(alpha):
                state = JointState(Convention.Q, q, beta=beta, alpha=alpha)
                return segment_forward(seg, state).cc

            reference = cc(0.0)
            for _ in range(5):
                assert cc(float(rng.uniform(-2.0, 2.0))) == reference


class TestChainInvariants:
    @staticmethod
    def chain_robot(arr, lengths):
        return RobotSpec(
            segments=tuple(
                SegmentSpec(arrangement=arr, length=l, seg_type=SegmentType.TYPE0)
                for l in lengths
            ),
            coupling=Coupling.INTERDEPENDENT,
        )

    def test_forward_is_length_independent(self):
        rng = np.random.default_rng(401)
        for _ in range(100):
            arr = random_symmetric(rng)
            m = int(rng.integers(1, 7))
            lengths = rng.uniform(5.0, 50.0, m)
            pair = build_pair(arr)
            rhos = [inverse(pair, random_cc(rng)) for _ in range(m)]

            def ccs_with(lengths):
                robot = self.chain_robot(arr, lengths)
                q = interdependent_accumulate(robot, rhos)
                return interdependent_forward(robot, q).per_segment

            base = ccs_with(lengths)
            other = ccs_with(rng.uniform(1.0, 500.0, m))
            for a, b in zip(base, other):
                assert abs(a.rho_re - b.rho_re) < 1e-6
                assert abs(a.rho_im - b.rho_im) < 1e-6

    def test_forward_of_accumulate_recovers_per_segment_transform(self):
        rng = np.random.default_rng(402)
        for _ in range(100):
            arr = random_symmetric(rng)
            m = int(rng.integers(1, 9))
            robot = self.chain_robot(arr, rng.uniform(5.0, 50.0, m))
            pair = build_pair(arr)
            rhos = [inverse(pair, random_cc(rng)) for _ in range(m)]
            q = interdependent_accumulate(robot, rhos)
            ccs = interdependent_forward(robot, q).per_segment
            for cc, rho in zip(ccs, rhos):
                direct = forward(pair, rho)
                assert abs(cc.rho_re - direct.rho_re) < 1e-9 * max(1.0, abs(direct.rho_re))
                assert abs(cc.rho_im - direct.rho_im) < 1e-9 * max(1.0, abs(direct.rho_im))

    def test_inverse_roundtrips_forward(self):
        rng = np.random.default_rng(403)
        for _ in range(100):
            arr = random_symmetric(rng)
            m = int(rng.integers(1, 7))
            robot = self.chain_robot(arr, rng.uniform(5.0, 50.0, m))
            pair = build_pair(arr)
            rhos = [inverse(pair, random_cc(rng)) for _ in range(m)]
            q = interdependent_accumulate(robot, rhos)
            back = interdependent_inverse(robot, interdependent_forward(robot, q))
            for a, b in zip(back.per_segment, q.per_segment):
                np.testing.assert_allclose(a, b, atol=1e-8)
