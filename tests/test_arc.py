"""Constant-curvature bridge and backbone sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacr import (
    ArcParameters,
    ClarkeCoordinates,
    DomainError,
    arc_to_clarke,
    arc_to_displacements,
    build_pair,
    clarke_to_arc,
    inverse,
    make_symmetric_arrangement,
    sample_backbone,
    validate_displacement,
)

BENT = ArcParameters(kappa=0.005, theta=0.0, l=100.0)


class TestArcParameters:
    def test_phi_is_derived(self):
        assert BENT.phi == 100.0 * 0.005

    @pytest.mark.parametrize("kappa, defined", [(0.0, False), (5e-324, True), (0.1, True)])
    def test_theta_defined_is_derived_from_kappa(self, kappa, defined):
        assert ArcParameters(kappa=kappa, theta=1.0, l=10.0).theta_defined is defined

    def test_theta_defined_is_not_a_field(self):
        with pytest.raises(TypeError):
            ArcParameters(kappa=0.0, theta=0.0, l=1.0, theta_defined=True)

    def test_theta_normalized(self):
        arc = ArcParameters(kappa=0.1, theta=-np.pi / 3, l=1.0)
        assert arc.theta == pytest.approx(5 * np.pi / 3, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        {"kappa": -0.1, "theta": 0.0, "l": 1.0},
        {"kappa": 0.1, "theta": 0.0, "l": 0.0},
        {"kappa": 0.1, "theta": 0.0, "l": -5.0},
    ])
    def test_domain_errors(self, kwargs):
        with pytest.raises(DomainError):
            ArcParameters(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"kappa": np.inf, "theta": 0.0, "l": 1.0},
        {"kappa": 1.0, "theta": np.nan, "l": 1.0},
        {"kappa": 1.0, "theta": 0.0, "l": np.inf},
        {"kappa": np.inf, "theta": np.nan, "l": 1.0},
        {"kappa": 1e308, "theta": 0.0, "l": 1e10},  # phi = l * kappa overflows
    ], ids=["kappa", "theta", "l", "kappa-theta", "phi"])
    def test_non_finite_refused(self, kwargs):
        with pytest.raises(DomainError, match="non-finite"):
            ArcParameters(**kwargs)


class TestArcToClarke:
    def test_worked_example(self):
        cc = arc_to_clarke(BENT, d=10.0)
        assert cc.rho_re == 5.0
        assert cc.rho_im == 0.0

    def test_straight_maps_to_zero(self):
        for theta in (0.0, 1.0, 3.0):
            cc = arc_to_clarke(ArcParameters(kappa=0.0, theta=theta, l=50.0), d=10.0)
            assert (cc.rho_re, cc.rho_im) == (0.0, 0.0)

    def test_quarter_plane_angle(self):
        cc = arc_to_clarke(ArcParameters(kappa=0.005, theta=np.pi / 2, l=100.0), d=10.0)
        assert abs(cc.rho_re) < 1e-12
        assert cc.rho_im == pytest.approx(5.0, rel=1e-15)

    def test_overflow_raises(self):
        # d * l * kappa = inf; cos(0) * inf is inf and sin(0) * inf is NaN.
        with pytest.raises(DomainError, match="finite"):
            arc_to_clarke(ArcParameters(1.0, 0.0, 10.0), 1e308)

    def test_rejects_non_positive_d(self):
        with pytest.raises(DomainError):
            arc_to_clarke(BENT, d=0.0)


class TestClarkeToArc:
    def test_worked_example(self):
        arc = clarke_to_arc(ClarkeCoordinates(5.0, 0.0), d=10.0, l=100.0)
        assert arc.kappa == pytest.approx(0.005, rel=1e-15)
        assert arc.theta == 0.0
        assert arc.phi == pytest.approx(0.5, rel=1e-15)
        assert arc.theta_defined

    def test_straight_configuration_flagged(self):
        arc = clarke_to_arc(ClarkeCoordinates(0.0, 0.0), d=10.0, l=100.0)
        assert arc.kappa == 0.0
        assert arc.theta == 0.0
        assert not arc.theta_defined

    @pytest.mark.parametrize("cc", [(-0.0, 0.0), (-0.0, -0.0)])
    def test_negative_zero_is_straight_with_theta_zero(self, cc):
        # atan2(0, -0.0) is pi; the straight branch reports 0.
        arc = clarke_to_arc(ClarkeCoordinates(*cc), d=10.0, l=100.0)
        assert (arc.kappa, arc.theta, arc.theta_defined) == (0.0, 0.0, False)

    def test_underflowing_curvature_is_straight(self):
        arc = clarke_to_arc(ClarkeCoordinates(5e-324, 0.0), d=10.0, l=100.0)
        assert arc.kappa == 0.0
        assert not arc.theta_defined

    def test_underflowing_curvature_reports_theta_zero(self):
        # Straight, so not theta pi/4 with theta_defined False.
        arc = clarke_to_arc(ClarkeCoordinates(1e-300, 1e-300), d=1e50, l=1e50)
        assert (arc.kappa, arc.theta, arc.theta_defined) == (0.0, 0.0, False)

    @pytest.mark.parametrize("cc, d, l", [((3.0, 4.0), 1e308, 1e308), ((1e300, 0.0), 1e308, 10.0)])
    def test_overflowing_d_times_l_is_domain_error(self, cc, d, l):
        # norm / inf would be kappa 0: a bent arc reported as straight.
        with pytest.raises(DomainError, match="d \\* l overflows"):
            clarke_to_arc(ClarkeCoordinates(*cc), d=d, l=l)

    def test_zero_cc_is_straight_whatever_d_times_l(self):
        arc = clarke_to_arc(ClarkeCoordinates(0.0, 0.0), d=1e308, l=1e308)
        assert (arc.kappa, arc.theta) == (0.0, 0.0)

    def test_quarter_plane_angle(self):
        arc = clarke_to_arc(ClarkeCoordinates(0.0, 5.0), d=10.0, l=100.0)
        assert arc.theta == pytest.approx(np.pi / 2, rel=1e-15)

    def test_negative_imaginary_part_wraps(self):
        arc = clarke_to_arc(ClarkeCoordinates(0.0, -5.0), d=10.0, l=100.0)
        assert arc.theta == pytest.approx(3 * np.pi / 2, rel=1e-15)

    @pytest.mark.parametrize("d, l", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_domain_errors(self, d, l):
        with pytest.raises(DomainError):
            clarke_to_arc(ClarkeCoordinates(1.0, 0.0), d=d, l=l)

    def test_underflowing_d_times_l_is_domain_error(self):
        with pytest.raises(DomainError, match="underflows"):
            clarke_to_arc(ClarkeCoordinates(2.0, 0.0), d=1e-308, l=1e-300)

    def test_overflowing_curvature_is_domain_error(self):
        with pytest.raises(DomainError, match="non-finite"):
            clarke_to_arc(ClarkeCoordinates(1e300, 0.0), d=1e-10, l=1e-10)

    def test_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            arc = ArcParameters(
                kappa=float(rng.uniform(1e-4, 0.5)),
                theta=float(rng.uniform(0.0, 2 * np.pi)),
                l=float(rng.uniform(0.1, 500.0)),
            )
            d = float(rng.uniform(0.1, 50.0))
            back = clarke_to_arc(arc_to_clarke(arc, d), d, arc.l)
            assert back.kappa == pytest.approx(arc.kappa, abs=1e-10, rel=1e-10)
            theta_diff = (back.theta - arc.theta + np.pi) % (2 * np.pi) - np.pi
            assert abs(theta_diff) < 1e-10


class TestArcToDisplacements:
    def test_worked_example(self):
        pair = build_pair(make_symmetric_arrangement(3, 10.0))
        rho = arc_to_displacements(pair, BENT, d=10.0)
        np.testing.assert_allclose(rho, [5.0, -2.5, -2.5], atol=1e-12)

    def test_straight_gives_zero_vector(self):
        pair = build_pair(make_symmetric_arrangement(3, 10.0))
        rho = arc_to_displacements(pair, ArcParameters(kappa=0.0, theta=1.0, l=10.0), d=10.0)
        np.testing.assert_array_equal(rho, np.zeros(3))

    def test_four_joint_quadrants(self):
        pair = build_pair(make_symmetric_arrangement(4, 10.0))
        arc = ArcParameters(kappa=0.005, theta=np.pi / 2, l=100.0)
        rho = arc_to_displacements(pair, arc, d=10.0)
        np.testing.assert_allclose(rho, [0.0, 5.0, 0.0, -5.0], atol=1e-12)

    def test_agrees_with_inverse_transform_route(self):
        # Reconstruction through the Clarke coordinates, which the library
        # does, vs the direct cosine evaluation, kept here as the reference.
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            d = float(rng.uniform(0.5, 20.0))
            pair = build_pair(make_symmetric_arrangement(n, d))
            arc = ArcParameters(
                kappa=float(rng.uniform(0.0, 0.3)),
                theta=float(rng.uniform(0.0, 2 * np.pi)),
                l=float(rng.uniform(0.5, 200.0)),
            )
            direct = d * arc.l * arc.kappa * np.cos(arc.theta - pair.arrangement.psi)
            reconstructed = arc_to_displacements(pair, arc, d)
            np.testing.assert_allclose(direct, reconstructed, atol=1e-10)

    def test_is_the_inverse_of_arc_to_clarke(self):
        pair = build_pair(make_symmetric_arrangement(5, 4.0))
        arc = ArcParameters(kappa=0.08, theta=2.2, l=60.0)
        np.testing.assert_array_equal(
            arc_to_displacements(pair, arc, 4.0), inverse(pair, arc_to_clarke(arc, 4.0))
        )

    @pytest.mark.parametrize("d", [1e308, 0.0, -1.0])
    def test_overflow_and_non_positive_d_are_domain_errors(self, d):
        # At d = 1e308 the displacements were [inf, -inf, -inf].
        pair = build_pair(make_symmetric_arrangement(3, 10.0))
        with np.errstate(all="ignore"), pytest.raises(DomainError):
            arc_to_displacements(pair, ArcParameters(1.0, 0.0, 10.0), d)

    def test_output_satisfies_displacement_constraint(self):
        pair = build_pair(make_symmetric_arrangement(5, 4.0))
        arc = ArcParameters(kappa=0.08, theta=2.2, l=60.0)
        check = validate_displacement(pair, arc_to_displacements(pair, arc, 4.0), tol=1e-9)
        assert check.valid


class TestSampleBackbone:
    def test_straight_two_points(self):
        poly = sample_backbone(ArcParameters(kappa=0.0, theta=0.0, l=100.0), points=2)
        np.testing.assert_array_equal(poly.s, [0.0, 100.0])
        np.testing.assert_array_equal(poly.points, [[0.0, 0.0, 0.0], [0.0, 0.0, 100.0]])

    def test_first_point_at_origin(self):
        poly = sample_backbone(ArcParameters(kappa=0.02, theta=1.3, l=40.0), points=17)
        np.testing.assert_array_equal(poly.points[0], [0.0, 0.0, 0.0])

    def test_half_circle_endpoint(self):
        kappa = 0.01
        arc = ArcParameters(kappa=kappa, theta=0.0, l=np.pi / kappa)
        poly = sample_backbone(arc, points=9)
        np.testing.assert_allclose(poly.points[-1], [2.0 / kappa, 0.0, 0.0], atol=1e-9)

    def test_bends_toward_theta_direction(self):
        poly = sample_backbone(ArcParameters(kappa=0.01, theta=np.pi / 2, l=50.0), points=5)
        assert np.all(np.abs(poly.points[1:, 0]) < 1e-12)
        assert np.all(poly.points[1:, 1] > 0.0)

    def test_chord_length_converges_to_arc_length(self):
        arc = ArcParameters(kappa=0.005, theta=0.7, l=100.0)
        poly = sample_backbone(arc, points=1000)
        chord = float(np.sum(np.linalg.norm(np.diff(poly.points, axis=0), axis=1)))
        assert abs(chord - arc.l) / arc.l < 1e-3

    def test_consecutive_spacing_bounded_by_arc_step(self):
        arc = ArcParameters(kappa=0.05, theta=0.0, l=30.0)
        poly = sample_backbone(arc, points=13)
        step = arc.l / 12
        spacing = np.linalg.norm(np.diff(poly.points, axis=0), axis=1)
        assert np.all(spacing <= step + 1e-12)

    def test_endpoint_never_beyond_arc_length(self):
        for kappa in (0.0, 0.001, 0.02, 0.1):
            arc = ArcParameters(kappa=kappa, theta=0.3, l=80.0)
            poly = sample_backbone(arc, points=50)
            reach = float(np.linalg.norm(poly.points[-1]))
            if kappa == 0.0:
                assert reach == 80.0
            else:
                assert reach < 80.0

    def test_near_straight_tip(self):
        # The cancelling (1 - cos(kappa s)) / kappa put this tip at x = 0.
        tip = sample_backbone(ArcParameters(kappa=1e-12, theta=0.0, l=100.0), 3).points[-1]
        assert tip[0] == pytest.approx(5e-9, rel=1e-14)
        assert tip[2] == 100.0

    @pytest.mark.parametrize("points", [0, 1, -3])
    def test_needs_two_points(self, points):
        with pytest.raises(DomainError):
            sample_backbone(BENT, points=points)

    # Counts beyond the user address space only: a smaller one may
    # really be allocated.
    @pytest.mark.parametrize("points", [10**15, 10**30, 2**63 - 1],
                             ids=["unallocatable", "too-large", "intp-max"])
    def test_refuses_a_count_it_cannot_allocate(self, points):
        with pytest.raises(DomainError, match=f"{points} sample points"):
            sample_backbone(BENT, points=points)


ANGLES = st.floats(0.0, 2.0 * np.pi, exclude_max=True)
LENGTHS = st.floats(1e-3, 1e3)


class TestSampleBackboneAccuracy:
    @staticmethod
    def cancelling(arc, s):
        """The previous formula, kept as the reference away from kappa = 0."""
        radial = (1.0 - np.cos(arc.kappa * s)) / arc.kappa
        return np.column_stack((
            radial * np.cos(arc.theta), radial * np.sin(arc.theta),
            np.sin(arc.kappa * s) / arc.kappa,
        ))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(phi=st.floats(1e-12, 1e-3), theta=ANGLES, l=LENGTHS, points=st.integers(2, 40))
    def test_matches_series_near_straight(self, phi, theta, l, points):
        arc = ArcParameters(kappa=phi / l, theta=theta, l=l)
        poly = sample_backbone(arc, points)
        t = arc.kappa * poly.s
        radial = arc.kappa * poly.s**2 / 2 * (1 - t**2 / 12 + t**4 / 360)
        z = poly.s * (1 - t**2 / 6 + t**4 / 120)
        bound = 1e-14 * radial
        assert np.all(np.abs(poly.points[:, 0] - radial * np.cos(arc.theta)) <= bound)
        assert np.all(np.abs(poly.points[:, 1] - radial * np.sin(arc.theta)) <= bound)
        assert np.all(np.abs(poly.points[:, 2] - z) <= 1e-14 * z)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(phi=st.floats(1e-2, np.pi), theta=ANGLES, l=LENGTHS, points=st.integers(2, 40))
    def test_agrees_with_cancelling_formula(self, phi, theta, l, points):
        arc = ArcParameters(kappa=phi / l, theta=theta, l=l)
        poly = sample_backbone(arc, points)
        bent = arc.kappa * poly.s >= 1e-2
        want = self.cancelling(arc, poly.s)[bent]
        error = np.linalg.norm(poly.points[bent] - want, axis=1)
        assert np.all(error <= 1e-12 * np.linalg.norm(want, axis=1))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(theta=ANGLES, l=LENGTHS, points=st.integers(2, 40))
    def test_straight_is_the_z_axis_bit_for_bit(self, theta, l, points):
        poly = sample_backbone(ArcParameters(kappa=0.0, theta=theta, l=l), points)
        zeros = np.zeros_like(poly.s)
        assert poly.points.tobytes() == np.column_stack((zeros, zeros, poly.s)).tobytes()
