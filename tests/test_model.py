"""Robot description model: arrangements, segments, validation, tolerances."""

import math

import numpy as np
import pytest

import dacr.chain as chain_module
from dacr import (
    ChainState,
    Convention,
    Coupling,
    DomainError,
    JointArrangement,
    JointState,
    OffManifold,
    RobotSpec,
    SegmentSpec,
    SegmentType,
    build_pair,
    make_symmetric_arrangement,
    recover_length,
    segment_forward,
    type1_forward_from_q,
    type3_forward_from_q,
    validate_displacement,
    validate_robot,
)
from dacr.model import TWO_PI, arrangements_match


def seg(arrangement, length=100.0, seg_type=SegmentType.TYPE0):
    return SegmentSpec(arrangement=arrangement, length=length, seg_type=seg_type)


class TestJointArrangement:
    def test_angles_normalized_into_range(self):
        arr = JointArrangement(psi=np.array([-np.pi / 3, TWO_PI, 7.0]), d=np.ones(3))
        np.testing.assert_allclose(arr.psi, [5 * np.pi / 3, 0.0, 7.0 - TWO_PI], atol=1e-15)
        assert np.all(arr.psi >= 0.0) and np.all(arr.psi < TWO_PI)

    def test_tiny_negative_angle_clamps_to_zero(self):
        # -1e-18 % 2pi rounds up to exactly 2pi, which is outside the range.
        arr = JointArrangement(psi=np.array([-1e-18, 1.0]), d=np.ones(2))
        assert arr.psi[0] == 0.0

    def test_arrays_are_read_only(self):
        arr = make_symmetric_arrangement(3, 10.0)
        with pytest.raises(ValueError):
            arr.psi[0] = 1.0
        with pytest.raises(ValueError):
            arr.d[0] = 1.0

    @pytest.mark.parametrize(
        "psi, d",
        [
            ([0.0], [1.0]),  # fewer than two joints
            ([0.0, 1.0], [1.0]),  # length mismatch
            ([0.0, np.nan], [1.0, 1.0]),  # non-finite angle
            ([0.0, 1.0], [1.0, np.inf]),  # non-finite distance
        ],
    )
    def test_rejects_malformed_inputs(self, psi, d):
        with pytest.raises(DomainError):
            JointArrangement(psi=np.array(psi), d=np.array(d))

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(DomainError):
            JointArrangement(psi=np.zeros((2, 2)), d=np.ones((2, 2)))


class TestSymmetricArrangement:
    def test_three_joints(self):
        arr = make_symmetric_arrangement(3, 10.0)
        np.testing.assert_array_equal(arr.psi, TWO_PI * np.arange(3) / 3)
        np.testing.assert_array_equal(arr.d, [10.0, 10.0, 10.0])

    def test_four_joints(self):
        arr = make_symmetric_arrangement(4, 1.0)
        np.testing.assert_array_equal(arr.psi, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    @pytest.mark.parametrize("n, d", [(2, 10.0), (1, 1.0), (3, 0.0), (3, -1.0)])
    def test_precondition_boundaries(self, n, d):
        with pytest.raises(DomainError):
            make_symmetric_arrangement(n, d)

    @pytest.mark.parametrize("n", range(3, 65))
    def test_is_symmetric_for_all_supported_counts(self, n):
        assert make_symmetric_arrangement(n, 2.5).is_symmetric()

    def test_not_symmetric_when_angles_uneven(self):
        arr = JointArrangement(psi=np.array([0.0, np.pi / 2, np.pi]), d=np.full(3, 10.0))
        assert not arr.is_symmetric()

    def test_not_symmetric_when_radii_differ(self):
        arr = JointArrangement(psi=TWO_PI * np.arange(3) / 3, d=np.array([10.0, 10.0, 9.0]))
        assert not arr.is_symmetric()

    def test_symmetry_tolerates_tiny_perturbation(self):
        psi = TWO_PI * np.arange(3) / 3 + 1e-12
        arr = JointArrangement(psi=psi, d=np.full(3, 10.0))
        assert arr.is_symmetric()


class TestArrangementsMatch:
    def test_matches_across_wraparound(self):
        a = JointArrangement(psi=np.array([0.0, 1.0]), d=np.ones(2))
        b = JointArrangement(psi=np.array([TWO_PI - 1e-12, 1.0]), d=np.ones(2))
        assert arrangements_match(a, b)

    def test_rejects_different_counts(self):
        a = make_symmetric_arrangement(3, 1.0)
        b = make_symmetric_arrangement(4, 1.0)
        assert not arrangements_match(a, b)


class TestValidateRobot:
    def test_symmetric_type0_segment_is_valid(self):
        robot = RobotSpec(segments=(seg(make_symmetric_arrangement(3, 10.0)),))
        assert validate_robot(robot) == []

    def test_symmetric_constructor_always_validates(self):
        for n in (3, 5, 8, 64):
            robot = RobotSpec(segments=(seg(make_symmetric_arrangement(n, 0.5), length=1.0),))
            assert validate_robot(robot) == []

    def test_empty_robot(self):
        report = validate_robot(RobotSpec(segments=()))
        assert len(report) == 1
        assert report[0].segment is None
        assert "no segments" in report[0].message

    def test_non_positive_radial_distance(self):
        arr = JointArrangement(psi=np.array([0.0, 1.0, 2.0]), d=np.array([1.0, 0.0, 1.0]))
        report = validate_robot(RobotSpec(segments=(seg(arr),)))
        assert [v.field for v in report] == ["joints.d"]
        assert "non-positive radial distance" in report[0].message

    @pytest.mark.parametrize("length", [np.inf, -np.inf, np.nan])
    def test_non_finite_length_refused(self, length):
        with pytest.raises(DomainError, match="finite"):
            seg(make_symmetric_arrangement(3, 1.0), length=length)

    def test_non_positive_length(self):
        robot = RobotSpec(segments=(seg(make_symmetric_arrangement(3, 1.0), length=0.0),))
        report = validate_robot(robot)
        assert [v.field for v in report] == ["length"]

    def test_interdependent_arrangement_mismatch(self):
        robot = RobotSpec(
            segments=(
                seg(make_symmetric_arrangement(3, 10.0)),
                seg(make_symmetric_arrangement(4, 10.0)),
            ),
            coupling=Coupling.INTERDEPENDENT,
        )
        report = validate_robot(robot)
        mismatches = [v for v in report if "arrangement mismatch" in v.message]
        assert len(mismatches) == 1
        assert mismatches[0].segment == 1

    def test_interdependent_rejects_extended_segment_types(self):
        arr = make_symmetric_arrangement(3, 10.0)
        robot = RobotSpec(
            segments=(seg(arr), seg(arr, seg_type=SegmentType.TYPE1)),
            coupling=Coupling.INTERDEPENDENT,
        )
        report = validate_robot(robot)
        assert [v.segment for v in report] == [1]
        assert "type-0" in report[0].message

    def test_interdependent_aligned_type0_chain_is_valid(self):
        arr = make_symmetric_arrangement(3, 10.0)
        robot = RobotSpec(
            segments=(seg(arr, 10.0), seg(arr, 20.0)),
            coupling=Coupling.INTERDEPENDENT,
        )
        assert validate_robot(robot) == []


class TestEnums:
    def test_segment_type_joint_flags(self):
        assert not SegmentType.TYPE0.has_length_joint
        assert SegmentType.TYPE1.has_length_joint
        assert not SegmentType.TYPE1.has_twist_joint
        assert SegmentType.TYPE2.has_twist_joint
        assert SegmentType.TYPE3.has_length_joint and SegmentType.TYPE3.has_twist_joint

    def test_specs_coerce_string_enum_values(self):
        s = SegmentSpec(make_symmetric_arrangement(3, 1.0), length=5, seg_type="type2")
        assert s.seg_type is SegmentType.TYPE2
        assert isinstance(s.length, float)
        robot = RobotSpec(segments=[s], coupling="interdependent")
        assert robot.coupling is Coupling.INTERDEPENDENT
        assert isinstance(robot.segments, tuple)


ARR3 = make_symmetric_arrangement(3, 10.0)
RHO = [2.0, -1.0, -1.0]
Q = [98.0, 101.0, 101.0]
# Every library entry point that uses an explicit tol, as a function of it.
TOL_ENTRY_POINTS = {
    "clarke.validate_displacement": lambda tol: validate_displacement(build_pair(ARR3), RHO, tol),
    "chain.validate_displacement": lambda tol: chain_module.validate_displacement(
        RobotSpec(segments=(seg(ARR3),)), ChainState(Convention.RHO, (RHO,)), tol),
    "recover_length": lambda tol: recover_length(build_pair(ARR3), Q, tol),
    "type1_forward_from_q": lambda tol: type1_forward_from_q(build_pair(ARR3), Q, tol),
    "type3_forward_from_q": lambda tol: type3_forward_from_q(build_pair(ARR3), Q, 0.1, 10.0, tol=tol),
    "segment_forward": lambda tol: segment_forward(
        seg(ARR3, seg_type=SegmentType.TYPE1), JointState(Convention.Q, Q), tol),
}


class TestExplicitTolerance:
    @pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
    def test_negative_or_nan_tol_is_refused_where_it_is_used(self, entry):
        call = TOL_ENTRY_POINTS[entry]
        for tol in (-1.0, -1e-300, -math.inf, math.nan):
            with pytest.raises(DomainError, match="tol must be non-negative"):
                call(tol)
        # 0 is a valid bound, which accepts only a residual of exactly 0.
        for tol in (0.0, -0.0, 1e-9, math.inf):
            try:
                call(tol)
            except OffManifold:
                assert tol == 0.0

    def test_unused_tol_stays_ignored(self):
        state = JointState(Convention.Q, Q)
        assert segment_forward(seg(ARR3), state, -1.0) == segment_forward(seg(ARR3), state)
        rho = JointState(Convention.RHO, RHO)
        assert segment_forward(seg(ARR3), rho, math.nan) == segment_forward(seg(ARR3), rho)
