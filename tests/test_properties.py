"""Randomized invariant sweeps across arrangements, segments, and chains.

Each sweep draws a few hundred seeded random cases; arrangements with a
badly conditioned normal matrix are redrawn, since no tolerance holds
uniformly as the joint directions collapse onto a line. The hypothesis
properties at the end state acceptance criteria 01, 03-05, 08 and 09
over generated arrangements, scales from 1e-3 to 1e7 and chains of 1 to
8 segments, with tolerances relative to the data.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# the identities as hypothesis properties

SCALES = st.floats(-3.0, 7.0).map(lambda e: 10.0**e)
ANGLE = st.floats(0.0, 2.0 * math.pi)


@st.composite
def arrangements(draw, n_min=2):
    """Any angles and radii whose Gram matrix has condition at most MAX_COND."""
    n = draw(st.integers(n_min, 16))
    psi = np.array(draw(st.lists(ANGLE, min_size=n, max_size=n)))
    d = draw(SCALES) * np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    arr = JointArrangement(psi=psi, d=d)
    ev = np.linalg.eigvalsh(build_mp_inv(arr).T @ build_mp_inv(arr))
    assume(ev[0] > ev[1] / MAX_COND)
    return arr


@st.composite
def even_arrangements(draw, n_max=16):
    """Evenly spaced joints on one radius, at any rotation: the closed
    form at rotation 0, the pseudoinverse otherwise."""
    n = draw(st.integers(3, n_max))
    offset = draw(st.one_of(st.just(0.0), ANGLE))
    psi = np.mod(offset + 2.0 * np.pi * np.arange(n) / n, 2.0 * np.pi)
    return JointArrangement(psi=psi, d=np.full(n, draw(SCALES)))


@st.composite
def clarke_coordinates(draw, scale=None):
    """cc of magnitude ``scale`` (drawn when None) in any direction."""
    r = draw(SCALES) if scale is None else scale
    angle = draw(ANGLE)
    return ClarkeCoordinates(r * math.cos(angle), r * math.sin(angle))


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


class TestIdentityProperties:
    @PROPERTY
    @given(arr=arrangements())
    def test_criterion_01_right_inverse(self, arr):
        pair = build_pair(arr)
        assert np.abs(pair.mp @ pair.mp_inv - np.eye(2)).max() <= 1e-12

    @PROPERTY
    @given(arr=even_arrangements(), c=SCALES, cc=clarke_coordinates())
    def test_criterion_03_filter_property(self, arr, c, cc):
        pair = build_pair(arr)
        assert pair.filter_ok
        assert np.abs(pair.mp @ np.full(pair.n, c)).max() <= 1e-13 * c
        rho = inverse(pair, cc)
        base, shifted = forward(pair, rho), forward(pair, rho + c)
        tol = 1e-13 * (c + math.hypot(cc.rho_re, cc.rho_im))
        assert abs(shifted.rho_re - base.rho_re) <= tol
        assert abs(shifted.rho_im - base.rho_im) <= tol

    @PROPERTY
    @given(arr=even_arrangements(), cc=clarke_coordinates())
    def test_criterion_04_sum_constraint(self, arr, cc):
        rho = inverse(build_pair(arr), cc)
        assert abs(float(np.sum(rho))) <= 1e-14 * arr.n * math.hypot(cc.rho_re, cc.rho_im)

    @PROPERTY
    @given(arr=even_arrangements(), cc=clarke_coordinates())
    def test_criterion_05_magnitude_relation(self, arr, cc):
        pair = build_pair(arr)
        rho = inverse(pair, cc)
        lhs = cc.rho_re**2 + cc.rho_im**2
        rhs = (2.0 / pair.n) * float(rho @ rho)
        assert abs(lhs - rhs) <= 1e-13 * lhs

    @PROPERTY
    @given(
        arr=even_arrangements(),
        beta=SCALES,
        data=st.data(),
        alphas=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=5),
    )
    def test_criterion_08_twist_immunity(self, arr, beta, data, alphas):
        pair = build_pair(arr)
        q = beta - inverse(pair, data.draw(clarke_coordinates(0.1 * beta)))
        seg = SegmentSpec(arr, beta, SegmentType.TYPE3)

        def cc(alpha):
            return segment_forward(seg, JointState(Convention.Q, q, beta=beta, alpha=alpha)).cc

        reference = cc(0.0)
        assert all(cc(alpha) == reference for alpha in alphas)

    @PROPERTY
    @given(arr=even_arrangements(n_max=8), m=st.integers(1, 8), scale=SCALES, data=st.data())
    def test_criterion_09_chain_consistency(self, arr, m, scale, data):
        pair = build_pair(arr)
        lengths = data.draw(st.lists(st.floats(0.5, 5.0), min_size=m, max_size=m))
        robot = TestChainInvariants.chain_robot(arr, [scale * x for x in lengths])
        ccs = [data.draw(clarke_coordinates(scale)) for _ in range(m)]
        rhos = [inverse(pair, cc) for cc in ccs]
        q = interdependent_accumulate(robot, rhos)
        tol = 1e-13 * max(float(np.abs(v).max()) for v in q.per_segment)
        for got, rho in zip(interdependent_forward(robot, q).per_segment, rhos):
            want = forward(pair, rho)
            assert abs(got.rho_re - want.rho_re) <= tol
            assert abs(got.rho_im - want.rho_im) <= tol
