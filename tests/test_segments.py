"""Segment-type mappings: joint lengths, recovery, extensions, twist."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacr import (
    ClarkeCoordinates,
    Convention,
    ConventionMismatch,
    DegenerateArrangement,
    DimensionMismatch,
    DomainError,
    ExtendedClarkeState,
    FilterPropertyUnavailable,
    JointArrangement,
    JointState,
    OffManifold,
    SegmentSpec,
    SegmentType,
    UnsupportedArrangement,
    build_pair,
    common_radius,
    forward,
    helical_offset,
    inverse,
    make_symmetric_arrangement,
    recover_length,
    segment_forward,
    segment_inverse,
    type1_forward_from_q,
    type1_inverse_to_q,
    type3_forward_from_q,
)
from dacr.segments import OFF_MANIFOLD_REL

PAIR3 = build_pair(make_symmetric_arrangement(3, 10.0))
PAIR4 = build_pair(make_symmetric_arrangement(4, 10.0))
ASYM = build_pair(
    JointArrangement(psi=np.array([0.0, np.pi / 2, np.pi]), d=np.full(3, 10.0))
)


def joint_lengths(l, rho):
    """Joint lengths from displacements: q_i = l - rho_i."""
    return l - np.asarray(rho, dtype=float)


def rho_forward(pair, seg_type, rho, beta=None, alpha=None):
    """segment_forward on a displacement state of the given segment type."""
    seg = SegmentSpec(arrangement=pair.arrangement, length=1.0, seg_type=seg_type)
    state = JointState(convention=Convention.RHO, values=rho, beta=beta, alpha=alpha)
    return segment_forward(seg, state)


def type3_q_forward(pair, q, beta, alpha):
    """segment_forward on a type-3 joint-length state that carries beta."""
    seg = SegmentSpec(arrangement=pair.arrangement, length=1.0, seg_type=SegmentType.TYPE3)
    state = JointState(convention=Convention.Q, values=q, beta=beta, alpha=alpha)
    return segment_forward(seg, state)


class TestJointScalars:
    @pytest.mark.parametrize("name", ["beta", "alpha"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, float("1e400")])
    def test_non_finite_refused(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            JointState(Convention.RHO, [2.0, -1.0, -1.0], **{name: value})
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            ExtendedClarkeState(ClarkeCoordinates(2.0, 0.0), **{name: value})

    def test_stored_as_float(self):
        state = ExtendedClarkeState(ClarkeCoordinates(2.0, 0.0), beta=4, alpha=np.float64(0.5))
        assert (type(state.beta), type(state.alpha)) == (float, float)


class TestRecoverLength:
    def test_worked_example(self):
        assert recover_length(PAIR3, [98.0, 101.0, 101.0]) == pytest.approx(100.0, rel=1e-12)

    def test_straight_configuration(self):
        assert recover_length(PAIR3, [7.0, 7.0, 7.0]) == pytest.approx(7.0, rel=1e-12)

    def test_asymmetric_arrangement_refused(self):
        with pytest.raises(FilterPropertyUnavailable):
            recover_length(ASYM, [98.0, 101.0, 101.0])

    def test_non_finite_refused(self):
        with pytest.raises(DomainError, match="finite"):
            recover_length(PAIR3, [98.0, np.inf, 101.0])

    def test_off_manifold_input_refused(self):
        # [1, -1, 1, -1] is orthogonal to both matrix columns and to the
        # constant direction, so no length choice can explain it.
        with pytest.raises(OffManifold):
            recover_length(PAIR4, [15.0, 5.0, 15.0, 5.0])

    def test_off_manifold_tolerance_overridable(self):
        value = recover_length(PAIR4, [15.0, 5.0, 15.0, 5.0], tol=100.0)
        assert value == pytest.approx(10.0, rel=1e-12)

    def test_three_joints_are_never_off_manifold(self):
        # With n=3 the displacement manifold plus the constant direction
        # already spans R^3, so any q decomposes exactly.
        assert recover_length(PAIR3, [98.0, 101.0, 140.0]) == pytest.approx(
            np.mean([98.0, 101.0, 140.0]), rel=1e-12)

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            recover_length(PAIR3, [1.0, 2.0])

    def test_nan_residual_is_off_manifold(self):
        # The sum overflows, so beta is inf and the residual NaN; the
        # residual check refuses it instead of passing length inf on.
        pair = build_pair(make_symmetric_arrangement(5, 10.0))
        q = [6e-8, 1.6e308, 1e308, -1e308, -1.6e308]
        seg = SegmentSpec(arrangement=pair.arrangement, length=100.0, seg_type=SegmentType.TYPE1)
        for call in (lambda: recover_length(pair, q), lambda: type1_forward_from_q(pair, q),
                     lambda: segment_forward(seg, JointState(Convention.Q, q))):
            with np.errstate(all="ignore"), pytest.raises(OffManifold, match="joint lengths"):
                call()

    def test_random_constructions(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 17))
            pair = build_pair(make_symmetric_arrangement(n, float(rng.uniform(1, 20))))
            cc = ClarkeCoordinates(*rng.normal(0, 3, 2))
            l = float(rng.uniform(1e-3, 1e3))
            q = joint_lengths(l, inverse(pair, cc))
            assert recover_length(pair, q) == pytest.approx(l, rel=1e-8)

    def test_agrees_with_plain_mean_on_valid_input(self):
        # The projector contributes nothing on the constraint manifold,
        # so the full formula and the mean must coincide.
        q = joint_lengths(12.5, inverse(PAIR4, ClarkeCoordinates(1.0, -2.0)))
        assert recover_length(PAIR4, q) == pytest.approx(float(np.mean(q)), abs=1e-10)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 16),
        d=st.floats(0.5, 20.0),
        l=st.floats(0.1, 1000.0),
        re=st.floats(-10.0, 10.0),
        im=st.floats(-10.0, 10.0),
    )
    def test_mean_equals_projector_formula(self, n, d, l, re, im):
        # recover_length returns mean(q); the paper's formula
        # (1/n) * ones.T @ (I + mp_inv @ mp) @ q must agree on the
        # domain of acceptance criterion 06.
        pair = build_pair(make_symmetric_arrangement(n, d))
        q = l - inverse(pair, ClarkeCoordinates(re, im))
        formula = float(np.ones(n) @ (q + pair.projector @ q)) / n
        assert abs(recover_length(pair, q) - formula) <= 1e-9 * max(1.0, float(np.abs(q).max()))


class TestTypeOne:
    def test_forward_passes_beta_through(self):
        state = rho_forward(PAIR3, SegmentType.TYPE1, [2.0, -1.0, -1.0], beta=5.0)
        assert state.cc.rho_re == pytest.approx(2.0, abs=1e-12)
        assert state.beta == 5.0
        assert state.alpha is None

    def test_forward_zero(self):
        state = rho_forward(PAIR3, SegmentType.TYPE1, np.zeros(3), beta=0.0)
        assert (state.cc.rho_re, state.cc.rho_im, state.beta) == (0.0, 0.0, 0.0)

    def test_forward_four_joints(self):
        state = rho_forward(PAIR4, SegmentType.TYPE1, [1.0, 0.0, -1.0, 0.0], beta=-2.0)
        assert state.cc.rho_re == pytest.approx(1.0, abs=1e-12)
        assert state.beta == -2.0

    def test_forward_from_q_worked_example(self):
        state = type1_forward_from_q(PAIR3, [98.0, 101.0, 101.0])
        assert state.cc.rho_re == pytest.approx(2.0, abs=1e-12)
        assert state.cc.rho_im == pytest.approx(0.0, abs=1e-12)
        assert state.beta == pytest.approx(100.0, rel=1e-12)

    def test_forward_from_q_straight(self):
        state = type1_forward_from_q(PAIR3, [9.0, 9.0, 9.0])
        assert state.cc.rho_re == pytest.approx(0.0, abs=1e-12)
        assert state.beta == pytest.approx(9.0, rel=1e-12)

    def test_forward_from_q_four_joints(self):
        state = type1_forward_from_q(PAIR4, [9.0, 10.0, 11.0, 10.0])
        assert state.cc.rho_re == pytest.approx(1.0, abs=1e-12)
        assert state.beta == pytest.approx(10.0, rel=1e-12)

    def test_forward_from_q_needs_filter_property(self):
        with pytest.raises(FilterPropertyUnavailable):
            type1_forward_from_q(ASYM, [98.0, 101.0, 101.0])

    def test_inverse_worked_example(self):
        q = type1_inverse_to_q(PAIR3, ExtendedClarkeState(ClarkeCoordinates(2.0, 0.0), beta=100.0))
        np.testing.assert_allclose(q, [98.0, 101.0, 101.0], atol=1e-12)

    def test_inverse_straight(self):
        q = type1_inverse_to_q(PAIR3, ExtendedClarkeState(ClarkeCoordinates(0.0, 0.0), beta=7.0))
        np.testing.assert_array_equal(q, [7.0, 7.0, 7.0])

    def test_inverse_four_joints_exact(self):
        q = type1_inverse_to_q(PAIR4, ExtendedClarkeState(ClarkeCoordinates(1.0, 0.0), beta=10.0))
        np.testing.assert_array_equal(q, [9.0, 10.0, 11.0, 10.0])

    def test_inverse_needs_beta(self):
        with pytest.raises(ConventionMismatch):
            type1_inverse_to_q(PAIR3, ExtendedClarkeState(ClarkeCoordinates(1.0, 0.0)))

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = joint_lengths(
                float(rng.uniform(1, 50)), inverse(PAIR4, ClarkeCoordinates(*rng.normal(0, 2, 2)))
            )
            back = type1_inverse_to_q(PAIR4, type1_forward_from_q(PAIR4, q))
            np.testing.assert_allclose(back, q, atol=1e-9)


class TestHelicalOffset:
    def test_zero_twist(self):
        assert helical_offset(0.0, 5.0, 3.0) == 0.0

    def test_pythagorean_triple_is_exact(self):
        # alpha*d = 3, l = 4 unrolls to a 3-4-5 triangle.
        assert helical_offset(0.3, 10.0, 4.0) == 1.0
        assert helical_offset(3.0, 1.0, 4.0) == 1.0

    @pytest.mark.parametrize("alpha", [0.1, 1.0, np.pi, 17.3])
    def test_even_in_alpha(self, alpha):
        assert helical_offset(alpha, 2.0, 5.0) == helical_offset(-alpha, 2.0, 5.0)

    def test_strictly_increasing_in_magnitude(self):
        values = [helical_offset(a, 2.0, 5.0) for a in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_alpha_avoids_cancellation(self):
        # Rationalized form: (alpha*d)^2 / (hypot + l), never sqrt minus l.
        tiny = helical_offset(1e-9, 1.0, 1.0)
        assert tiny == pytest.approx(0.5e-18, rel=1e-12)

    @pytest.mark.parametrize("d, l", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, d, l):
        with pytest.raises(DomainError):
            helical_offset(1.0, d, l)

    @pytest.mark.parametrize(
        "alpha, d",
        [(1e200, 1e200), (1e150, 1e150), (math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf),
         (1.0, math.inf)],
    )
    def test_non_finite_offset_is_domain_error(self, alpha, d):
        # inf/inf, a NaN factor or an overflowing (alpha*d)**2.
        with pytest.raises(DomainError, match="helical offset is not finite"):
            helical_offset(alpha, d, 1.0)

    def test_overflowing_twist_arm_in_type3_inverse(self):
        seg = SegmentSpec(arrangement=PAIR3.arrangement, length=1.0, seg_type=SegmentType.TYPE3)
        state = ExtendedClarkeState(ClarkeCoordinates(1.0, 0.0), beta=4.0, alpha=1e308)
        with pytest.raises(DomainError, match="helical offset is not finite"):
            segment_inverse(seg, state)


class TestTypeThree:
    def test_forward_worked_example(self):
        # l=4, alpha*d=3 gives offset 1, so q = 5 - rho with rho=[2,-1,-1].
        state = type3_q_forward(PAIR3, [3.0, 6.0, 6.0], beta=4.0, alpha=0.3)
        assert state.cc.rho_re == pytest.approx(2.0, abs=1e-12)
        assert state.cc.rho_im == pytest.approx(0.0, abs=1e-12)
        assert state.beta == 4.0
        assert state.alpha == 0.3

    def test_forward_straight_twisted(self):
        state = type3_q_forward(PAIR3, [5.0, 5.0, 5.0], beta=4.0, alpha=1.2)
        assert state.cc.rho_re == pytest.approx(0.0, abs=1e-12)
        assert state.cc.rho_im == pytest.approx(0.0, abs=1e-12)

    def test_zero_twist_reduces_to_type1_on_q(self):
        q = [98.0, 101.0, 101.0]
        with_twist = type3_q_forward(PAIR3, q, beta=100.0, alpha=0.0)
        plain = type1_forward_from_q(PAIR3, q)
        assert with_twist.cc == plain.cc

    def test_cc_is_bitwise_independent_of_alpha(self):
        q = [3.0, 6.0, 6.0]
        reference = type3_q_forward(PAIR3, q, beta=4.0, alpha=0.0).cc
        for alpha in np.random.default_rng(3).uniform(-np.pi, np.pi, 50):
            assert type3_q_forward(PAIR3, q, beta=4.0, alpha=float(alpha)).cc == reference

    def test_forward_from_q_worked_example(self):
        state = type3_forward_from_q(PAIR3, [3.0, 6.0, 6.0], alpha=0.3, d=10.0)
        assert state.cc.rho_re == pytest.approx(2.0, abs=1e-12)
        assert state.beta == pytest.approx(4.0, rel=1e-9)
        assert state.alpha == 0.3

    def test_forward_from_q_straight_untwisted(self):
        state = type3_forward_from_q(PAIR3, [6.0, 6.0, 6.0], alpha=0.0, d=10.0)
        assert state.cc.rho_re == pytest.approx(0.0, abs=1e-12)
        assert state.beta == pytest.approx(6.0, rel=1e-12)

    def test_compensation_does_not_change_cc(self):
        q = [3.0, 6.0, 6.0]
        compensated = type3_forward_from_q(PAIR3, q, alpha=0.3, d=10.0)
        raw = type3_q_forward(PAIR3, q, beta=0.0, alpha=0.3)
        assert compensated.cc == raw.cc

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 8),
        d=st.floats(0.5, 20.0),
        l=st.floats(0.5, 100.0),
        ratio=st.floats(0.0, 100.0),
        sign=st.sampled_from([-1.0, 1.0]),
        re=st.floats(-0.05, 0.05),
        im=st.floats(-0.05, 0.05),
    )
    def test_closed_form_recovers_length(self, n, d, l, ratio, sign, re, im):
        # |alpha*d| / beta up to 100: far beyond where a fixed point on
        # the length contracts usefully.
        alpha = sign * ratio * l / d
        pair = build_pair(make_symmetric_arrangement(n, d))
        q = (l + helical_offset(alpha, d, l)) - inverse(pair, ClarkeCoordinates(re * l, im * l))
        state = type3_forward_from_q(pair, q, alpha=alpha, d=d)
        assert state.beta == pytest.approx(l, rel=1e-8)
        assert state.alpha == alpha

    def test_large_twist_arm_worked_example(self):
        # alpha*d = 20 against beta = 4: mean(q) = hypot(20, 4).
        q = np.hypot(20.0, 4.0) - np.array([2.0, -1.0, -1.0])
        state = type3_forward_from_q(PAIR3, q, alpha=2.0, d=10.0)
        assert state.beta == pytest.approx(4.0, rel=1e-12)
        assert state.cc.rho_re == pytest.approx(2.0, abs=1e-12)

    def test_length_hint_is_ignored(self):
        q = [3.0, 6.0, 6.0]
        hinted = type3_forward_from_q(PAIR3, q, 0.3, 10.0, 1e6)
        assert hinted == type3_forward_from_q(PAIR3, q, 0.3, 10.0)

    @pytest.mark.parametrize(
        "q, alpha",
        [
            ([0.0, 3.0, 3.0], 0.3),
            ([1.0, 3.0, 2.0], -0.3),
            ([-1.0, -1.0, -1.0], 0.0),
            ([5.0, 5.0, 5.0], 0.5),
        ],
    )
    def test_mean_not_above_twist_arm_is_domain_error(self, q, alpha):
        # mean(q) <= |alpha*d| (equal in the last case): no positive
        # length explains q.
        with pytest.raises(DomainError):
            type3_forward_from_q(PAIR3, q, alpha=alpha, d=10.0)

    def test_non_positive_radius_is_domain_error(self):
        with pytest.raises(DomainError):
            type3_forward_from_q(PAIR3, [3.0, 6.0, 6.0], alpha=0.3, d=0.0)

    def test_error_precedence(self):
        with pytest.raises(DimensionMismatch):
            type3_forward_from_q(ASYM, [1.0, 1.0], alpha=0.3, d=10.0)
        with pytest.raises(FilterPropertyUnavailable):
            type3_forward_from_q(ASYM, [1.0, 1.0, 1.0], alpha=0.3, d=10.0)

    def test_forward_from_q_needs_filter_property(self):
        with pytest.raises(FilterPropertyUnavailable):
            type3_forward_from_q(ASYM, [3.0, 6.0, 6.0], alpha=0.3, d=10.0)

    def test_generalized_offset_immunity(self):
        # Any scalar added uniformly to q leaves the coordinates alone.
        q = np.array([3.0, 6.0, 6.0])
        base = type3_q_forward(PAIR3, q, beta=4.0, alpha=0.3).cc
        for delta in (0.1, 17.0, -250.0, 1e3):
            shifted = type3_q_forward(PAIR3, q + delta, beta=4.0, alpha=0.3).cc
            assert shifted.rho_re == pytest.approx(base.rho_re, abs=1e-9)
            assert shifted.rho_im == pytest.approx(base.rho_im, abs=1e-9)


class TestTypeTwo:
    def test_forward_passes_alpha_through(self):
        state = rho_forward(PAIR3, SegmentType.TYPE2, [2.0, -1.0, -1.0], alpha=0.3)
        assert state.cc.rho_re == pytest.approx(2.0, abs=1e-12)
        assert state.alpha == 0.3
        assert state.beta is None

    def test_forward_zero(self):
        state = rho_forward(PAIR3, SegmentType.TYPE2, np.zeros(3), alpha=1.0)
        assert (state.cc.rho_re, state.cc.rho_im) == (0.0, 0.0)

    def test_matches_type3_with_length_dropped(self):
        rho = [2.0, -1.0, -1.0]
        two = rho_forward(PAIR3, SegmentType.TYPE2, rho, alpha=0.3)
        three = type3_q_forward(PAIR3, joint_lengths(4.0 + 1.0, rho), beta=4.0, alpha=0.3)
        assert two.cc.rho_re == pytest.approx(three.cc.rho_re, abs=1e-12)
        assert two.cc.rho_im == pytest.approx(three.cc.rho_im, abs=1e-12)
        assert two.alpha == three.alpha
        assert two.beta is None


class TestSegmentDispatch:
    @staticmethod
    def seg(pair, seg_type, length=4.0):
        return SegmentSpec(arrangement=pair.arrangement, length=length, seg_type=seg_type)

    @pytest.mark.parametrize(
        "seg_type, alpha", [(SegmentType.TYPE0, None), (SegmentType.TYPE2, 0.3)]
    )
    def test_q_forward_filters_the_constant(self, seg_type, alpha):
        state = JointState(convention=Convention.Q, values=[98.0, 101.0, 101.0], alpha=alpha)
        out = segment_forward(self.seg(PAIR3, seg_type), state)
        assert out.cc.rho_re == pytest.approx(2.0, abs=1e-12)
        assert (out.beta, out.alpha) == (None, alpha)

    def test_q_forward_needs_filter_property(self):
        state = JointState(convention=Convention.Q, values=[98.0, 101.0, 101.0])
        with pytest.raises(FilterPropertyUnavailable):
            segment_forward(self.seg(ASYM, SegmentType.TYPE0), state)

    @pytest.mark.parametrize("length", [100.0, 200.0])
    def test_type3_q_with_beta_needs_filter_property(self, length):
        # Without the filter property -mp @ q would carry the length into
        # cc: on the half-plane arrangement rho_im came out as -length.
        q = joint_lengths(length, [1.0, 0.0, -1.0])
        state = JointState(convention=Convention.Q, values=q, beta=length, alpha=0.3)
        with pytest.raises(FilterPropertyUnavailable):
            segment_forward(self.seg(ASYM, SegmentType.TYPE3), state)

    def test_type3_q_without_beta_recovers_it(self):
        state = JointState(convention=Convention.Q, values=[3.0, 6.0, 6.0], alpha=0.3)
        out = segment_forward(self.seg(PAIR3, SegmentType.TYPE3), state)
        assert out.beta == pytest.approx(4.0, rel=1e-12)
        assert out.cc == type3_q_forward(PAIR3, [3.0, 6.0, 6.0], 4.0, 0.3).cc

    @pytest.mark.parametrize(
        "seg_type, beta, alpha",
        [
            (SegmentType.TYPE0, 1.0, None),
            (SegmentType.TYPE0, None, 0.3),
            (SegmentType.TYPE2, None, None),
            (SegmentType.TYPE1, None, None),
        ],
    )
    def test_joint_values_must_match_type(self, seg_type, beta, alpha):
        state = JointState(Convention.RHO, [2.0, -1.0, -1.0], beta=beta, alpha=alpha)
        with pytest.raises(ConventionMismatch):
            segment_forward(self.seg(PAIR3, seg_type), state)

    def test_type1_q_with_beta_refused(self):
        state = JointState(convention=Convention.Q, values=[98.0, 101.0, 101.0], beta=100.0)
        with pytest.raises(ConventionMismatch):
            segment_forward(self.seg(PAIR3, SegmentType.TYPE1), state)

    @pytest.mark.parametrize(
        "seg_type, beta, alpha, convention",
        [
            (SegmentType.TYPE0, None, None, Convention.RHO),
            (SegmentType.TYPE1, 100.0, None, Convention.Q),
            (SegmentType.TYPE2, None, 0.3, Convention.RHO),
            (SegmentType.TYPE3, 4.0, 0.3, Convention.Q),
        ],
    )
    def test_inverse_roundtrips_forward(self, seg_type, beta, alpha, convention):
        seg = self.seg(PAIR3, seg_type)
        cc = ClarkeCoordinates(2.0, -0.5)
        back = segment_inverse(seg, ExtendedClarkeState(cc, beta=beta, alpha=alpha))
        assert back.convention is convention
        kept_beta = beta if seg_type is SegmentType.TYPE3 else None
        assert (back.beta, back.alpha) == (kept_beta, alpha)
        again = segment_forward(seg, JointState(convention, back.values, alpha=alpha))
        assert again.cc.rho_re == pytest.approx(2.0, abs=1e-12)
        assert again.cc.rho_im == pytest.approx(-0.5, abs=1e-12)
        if beta is not None:
            assert again.beta == pytest.approx(beta, rel=1e-12)

    def test_type3_inverse_adds_helical_offset(self):
        # beta = 4, alpha*d = 3: offset 1, so q = 5 - [2, -1, -1].
        state = ExtendedClarkeState(ClarkeCoordinates(2.0, 0.0), beta=4.0, alpha=0.3)
        back = segment_inverse(self.seg(PAIR3, SegmentType.TYPE3), state)
        np.testing.assert_allclose(back.values, [3.0, 6.0, 6.0], atol=1e-12)

    def test_inverse_needs_beta(self):
        state = ExtendedClarkeState(ClarkeCoordinates(2.0, 0.0), alpha=0.3)
        with pytest.raises(ConventionMismatch):
            segment_inverse(self.seg(PAIR3, SegmentType.TYPE3), state)


class TestSignConvention:
    def test_q_route_agrees_with_rho_route(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pair = build_pair(make_symmetric_arrangement(int(rng.integers(3, 10)), 1.0))
            rho = inverse(pair, ClarkeCoordinates(*rng.normal(0, 2, 2)))
            l = float(rng.uniform(1, 30))
            from_rho = pair.mp @ rho
            from_q = -(pair.mp @ joint_lengths(l, rho))
            np.testing.assert_allclose(from_q, from_rho, atol=1e-9 * max(1.0, l))


class TestCommonRadius:
    def test_symmetric(self):
        assert common_radius(make_symmetric_arrangement(3, 10.0)) == 10.0

    def test_unequal_radii_refused(self):
        arr = JointArrangement(psi=np.array([0.0, 2.0, 4.0]), d=np.array([1.0, 1.0, 2.0]))
        with pytest.raises(UnsupportedArrangement):
            common_radius(arr)


class TestSingleValidation:
    """Each input vector is checked once between entering the library and
    leaving it: by the public function it is passed to, or by the state
    that holds it."""

    Q3 = [3.0, 6.0, 6.0]

    def test_recover_length(self, validations):
        recover_length(PAIR3, self.Q3)
        assert validations == ["q"]

    def test_type1_forward_from_q(self, validations):
        type1_forward_from_q(PAIR3, [98.0, 101.0, 101.0])
        assert validations == ["q"]

    def test_type3_forward_from_q(self, validations):
        type3_forward_from_q(PAIR3, self.Q3, 0.3, 10.0)
        assert validations == ["q"]

    @pytest.mark.parametrize(
        "seg_type, beta, alpha",
        [
            (SegmentType.TYPE0, None, None),
            (SegmentType.TYPE1, None, None),
            (SegmentType.TYPE2, None, 0.3),
            (SegmentType.TYPE3, None, 0.3),
            (SegmentType.TYPE3, 4.0, 0.3),
        ],
    )
    def test_segment_forward_on_q(self, validations, seg_type, beta, alpha):
        seg = SegmentSpec(arrangement=PAIR3.arrangement, length=4.0, seg_type=seg_type)
        state = JointState(convention=Convention.Q, values=self.Q3, beta=beta, alpha=alpha)
        segment_forward(seg, state)
        assert validations == ["values"]


# Finite floats with both signed zeros drawn often.
FINITE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def reference_recover_length(pair, q, tol=None):
    """Length recovery as written with NumPy's reductions, kept as the
    reference for the kernel that replaces them. A non-positive length
    is refused before the residual is checked."""
    q = np.asarray(q, dtype=float)
    length = float(np.mean(q))
    if not (length > 0.0):
        raise DomainError(f"recovered length {length}")
    if tol is None:
        tol = OFF_MANIFOLD_REL * max(1.0, float(np.max(np.abs(q))))
    centered = q - length
    residual = float(np.linalg.norm(centered - pair.projector @ centered))
    if residual > tol:
        raise OffManifold(f"residual {residual:.3e} > tol {tol:.3e}")
    return length


def outcome(fn, *args, **kwargs):
    """The result of a call, or the class of the DacrError it raised."""
    try:
        return fn(*args, **kwargs)
    except (OffManifold, DomainError) as exc:
        return type(exc)


class TestKernelsMatchReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), data=st.data())
    def test_reductions_bit_for_bit(self, n, data):
        q = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
        assert bits(q.sum() / q.shape[0]) == bits(np.mean(q))
        assert bits(np.abs(q).max()) == bits(np.max(np.abs(q)))
        assert bits(math.sqrt(q @ q)) == bits(np.linalg.norm(q))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 12),
        l=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e4)),
        noise=st.sampled_from([0.0, 1e-9, 1e-3]),
        tol=st.sampled_from([None, math.inf, 1e-6]),
        data=st.data(),
    )
    def test_recover_length(self, n, l, noise, tol, data):
        # On and off the manifold: both sides must accept or refuse alike
        # and return the same bits.
        pair = build_pair(make_symmetric_arrangement(n, 10.0))
        rho = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
        q = l - (pair.projector @ rho + noise * rho)
        got = outcome(recover_length, pair, q, tol=tol)
        want = outcome(reference_recover_length, pair, q, tol=tol)
        if isinstance(want, float):
            assert bits(got) == bits(want)
        else:
            assert got is want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 12),
        l=st.floats(0.5, 200.0),
        alpha=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-math.pi, math.pi)),
        data=st.data(),
    )
    def test_type3_forward_from_q(self, n, l, alpha, data):
        d = 10.0
        pair = build_pair(make_symmetric_arrangement(n, d))
        cc = data.draw(st.tuples(FINITE, FINITE))
        rho = inverse(pair, ClarkeCoordinates(cc[0] * 1e-6, cc[1] * 1e-6))
        q = (l + helical_offset(alpha, d, l)) - rho

        m = float(np.mean(q))
        a = abs(alpha * d)
        beta = outcome(reference_recover_length, pair, q - (m - math.sqrt((m - a) * (m + a))))
        got = outcome(type3_forward_from_q, pair, q, alpha, d)
        if not isinstance(beta, float):
            assert got is beta
            return
        assert bits(got.beta) == bits(beta)
        want_cc = -(pair.mp @ q)
        assert bits(got.cc.rho_re) == bits(want_cc[0])
        assert bits(got.cc.rho_im) == bits(want_cc[1])


def reference_type1_inverse_to_q(pair, state):
    """The type-I inverse as written before it went through ``inverse``."""
    return -(pair.mp_inv @ state.cc.as_array()) + state.beta * np.ones(pair.n)


def reference_type3_inverse(pair, state, d):
    """The type-III inverse as written before it went through ``inverse``."""
    offset = helical_offset(state.alpha, d, state.beta)
    return -(pair.mp_inv @ state.cc.as_array()) + (state.beta + offset)


# Finite floats up to the largest, so that some sums overflow.
WIDE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308]),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestInverseThroughClarkeInverse:
    """Joint lengths come back through ``clarke.inverse``: every finite
    result keeps the bits of the old formula, and an overflow is refused."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(3, 12), re=WIDE, im=WIDE, beta=WIDE)
    def test_type1_inverse_to_q(self, n, re, im, beta):
        pair = build_pair(make_symmetric_arrangement(n, 10.0))
        state = ExtendedClarkeState(ClarkeCoordinates(re, im), beta=beta)
        with np.errstate(all="ignore"):
            want = reference_type1_inverse_to_q(pair, state)
            if not np.isfinite(want).all():
                with pytest.raises(DomainError):
                    type1_inverse_to_q(pair, state)
                return
            got = type1_inverse_to_q(pair, state)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 12),
        re=WIDE,
        im=WIDE,
        beta=st.one_of(st.floats(1e-3, 1e6), st.just(1.7e308)),
        alpha=st.floats(-math.pi, math.pi),
    )
    def test_type3_segment_inverse(self, n, re, im, beta, alpha):
        pair = build_pair(make_symmetric_arrangement(n, 10.0))
        seg = SegmentSpec(arrangement=pair.arrangement, length=1.0, seg_type=SegmentType.TYPE3)
        state = ExtendedClarkeState(ClarkeCoordinates(re, im), beta=beta, alpha=alpha)
        with np.errstate(all="ignore"):
            want = reference_type3_inverse(pair, state, 10.0)
            if not np.isfinite(want).all():
                with pytest.raises(DomainError):
                    segment_inverse(seg, state)
                return
            got = segment_inverse(seg, state)
        assert got.values.tobytes() == want.tobytes()

    def test_overflowing_type1_inverse_is_domain_error(self):
        # Was [inf, 8.5e307, 8.5e307].
        state = ExtendedClarkeState(ClarkeCoordinates(-1.7e308, 0.0), beta=1.7e308)
        with np.errstate(all="ignore"), pytest.raises(DomainError, match="joint lengths"):
            type1_inverse_to_q(PAIR3, state)


def q_maps(pair):
    """Each q-side map as a function of q, for the given pair."""

    def seg(t, **scalars):
        spec = SegmentSpec(arrangement=pair.arrangement, length=4.0, seg_type=t)
        return lambda q: segment_forward(spec, JointState(Convention.Q, q, **scalars))

    return {
        "recover_length": lambda q: recover_length(pair, q),
        "type1_forward_from_q": lambda q: type1_forward_from_q(pair, q),
        "type3_forward_from_q": lambda q: type3_forward_from_q(pair, q, 0.3, 10.0),
        "segment type0": seg(SegmentType.TYPE0),
        "segment type1": seg(SegmentType.TYPE1),
        "segment type2": seg(SegmentType.TYPE2, alpha=0.3),
        "segment type3": seg(SegmentType.TYPE3, alpha=0.3),
        "segment type3 with beta": seg(SegmentType.TYPE3, beta=4.0, alpha=0.3),
    }


class TestOneQInputCheck:
    """Every q-side map checks its input in one order: the vector, the
    filter property, the common radius, the value domain, the residual."""

    Q3 = [3.0, 6.0, 6.0]
    # Not evenly spaced and not one radius: no filter property, no twist.
    NEITHER = build_pair(
        JointArrangement(psi=np.array([0.0, np.pi / 2, np.pi]), d=np.array([10.0, 10.0, 20.0]))
    )
    # Evenly spaced, so constants are filtered, but with unequal radii.
    UNEQUAL = build_pair(
        JointArrangement(psi=2 * np.pi * np.arange(3) / 3, d=np.array([10.0, 10.0, 20.0]))
    )

    @pytest.mark.parametrize("name", list(q_maps(PAIR3)))
    def test_vector_before_filter_property(self, name):
        # A 4-vector on the 3-joint half-plane arrangement: types 0-2 and
        # length recovery exited 5 here, type 3 exited 4.
        with pytest.raises(DimensionMismatch):
            q_maps(ASYM)[name]([98.0, 101.0, 101.0, 1.0])

    @pytest.mark.parametrize("name", ["recover_length", "type1_forward_from_q",
                                      "type3_forward_from_q"])
    def test_non_finite_long_vector_is_dimension_mismatch(self, name):
        with pytest.raises(DimensionMismatch):
            q_maps(PAIR3)[name]([np.inf, 1.0, 1.0, 1.0])

    def test_filter_property_before_radius(self):
        with pytest.raises(FilterPropertyUnavailable):
            q_maps(self.NEITHER)["segment type3"](self.Q3)
        with pytest.raises(FilterPropertyUnavailable):
            type3_forward_from_q(ASYM, self.Q3, alpha=0.3, d=0.0)

    def test_radius_before_value_domain(self):
        with pytest.raises(UnsupportedArrangement):
            q_maps(self.UNEQUAL)["segment type3"]([-1.0, -1.0, -1.0])
        with pytest.raises(DomainError, match="radial distance"):
            type3_forward_from_q(PAIR3, [-1.0, -1.0, -1.0], alpha=0.3, d=0.0)

    @pytest.mark.parametrize("name", ["recover_length", "type1_forward_from_q", "segment type1"])
    @pytest.mark.parametrize("q", [[-5.0, -5.0, -5.0], [-5.0, -4.0, -6.0], [0.0, 1.0, -1.0]])
    def test_non_positive_recovered_length_before_residual(self, name, q):
        # recover_length([-5, -5, -5]) returned -5.0; the middle q is also
        # off the manifold.
        with pytest.raises(DomainError, match="recovered length must be positive"):
            q_maps(PAIR3)[name](q)

    def test_type3_mean_check_before_residual(self):
        with pytest.raises(DomainError, match="twist arm"):
            type3_forward_from_q(PAIR3, [-5.0, -4.0, -6.0], alpha=0.3, d=10.0)


class TestSegmentMapsDeriveTheirPair:
    DEGENERATE = JointArrangement(psi=np.array([0.0, np.pi]), d=np.full(2, 10.0))

    def test_signatures_take_no_pair(self):
        assert list(inspect.signature(segment_forward).parameters) == ["seg", "state", "tol"]
        assert list(inspect.signature(segment_inverse).parameters) == ["seg", "state"]

    def test_pair_follows_the_segment(self):
        # The state's length is that of the segment's own arrangement.
        seg = SegmentSpec(arrangement=PAIR4.arrangement, length=4.0)
        out = segment_forward(seg, JointState(Convention.RHO, [1.0, 0.0, -1.0, 0.0]))
        assert out.cc == forward(PAIR4, [1.0, 0.0, -1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            segment_forward(seg, JointState(Convention.RHO, [2.0, -1.0, -1.0]))

    def test_degenerate_arrangement_before_joint_values(self):
        seg = SegmentSpec(arrangement=self.DEGENERATE, length=4.0)
        with pytest.raises(DegenerateArrangement):
            segment_forward(seg, JointState(Convention.Q, [1.0, 2.0, 3.0], beta=1.0))
        with pytest.raises(DegenerateArrangement):
            segment_inverse(seg, ExtendedClarkeState(ClarkeCoordinates(1.0, 0.0), beta=1.0))
