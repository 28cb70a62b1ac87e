"""Clarke matrix construction and the forward/inverse/projection maps."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dacr import (
    ClarkeCoordinates,
    DegenerateArrangement,
    DimensionMismatch,
    DomainError,
    JointArrangement,
    build_mp_inv,
    build_pair,
    forward,
    inverse,
    make_symmetric_arrangement,
    project,
    validate_displacement,
)
from dacr.clarke import _pseudoinverse_mp


def arrangement(psi):
    psi = np.asarray(psi, dtype=float)
    return JointArrangement(psi=psi, d=np.ones(len(psi)))


SYM3 = make_symmetric_arrangement(3, 10.0)
ASYM = arrangement([0.0, np.pi / 2, np.pi])


class TestBuildMpInv:
    @pytest.mark.parametrize(
        "psi",
        [
            [0.0, 2 * np.pi / 3, 4 * np.pi / 3],
            [0.0, np.pi / 2, np.pi],
            [0.3, 1.1, 2.9, 4.2, 5.5],
        ],
    )
    def test_rows_match_scalar_trig(self, psi):
        mp_inv = build_mp_inv(arrangement(psi))
        for i, angle in enumerate(psi):
            assert mp_inv[i, 0] == math.cos(angle)
            assert mp_inv[i, 1] == math.sin(angle)

    def test_symmetric_three_joint_rows(self):
        mp_inv = build_mp_inv(SYM3)
        np.testing.assert_allclose(
            mp_inv,
            [[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]],
            atol=1e-15,
        )


class TestBuildPair:
    def test_symmetric_closed_form_value(self):
        pair = build_pair(SYM3)
        expected = (2.0 / 3.0) * np.array(
            [[1.0, -0.5, -0.5], [0.0, math.sqrt(3) / 2, -math.sqrt(3) / 2]]
        )
        np.testing.assert_allclose(pair.mp, expected, atol=1e-15)
        assert pair.filter_ok

    def test_symmetric_matches_pseudoinverse_route(self):
        # The closed form must agree with the general least-squares route,
        # which build_pair only takes for other arrangements.
        for n in range(3, 33):
            pair = build_pair(make_symmetric_arrangement(n, 1.0))
            np.testing.assert_allclose(
                pair.mp, _pseudoinverse_mp(pair.mp_inv), atol=1e-10
            )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 32),
        d=st.floats(0.5, 20.0),
        eps_psi=st.floats(0.0, 1e-9),
        eps_d=st.floats(0.0, 1e-9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_perturbed_symmetric_closed_form_matches_pseudoinverse(
        self, n, d, eps_psi, eps_d, seed
    ):
        # Symmetry detection admits perturbations up to 1e-9 in psi and
        # (relative) in d; the closed form taken there stays within 1e-8
        # of the pseudoinverse of the perturbed arrangement.
        rng = np.random.default_rng(seed)
        arr = JointArrangement(
            psi=2.0 * np.pi * np.arange(n) / n + eps_psi * rng.choice([-1.0, 1.0], n),
            d=d * (1.0 + eps_d * np.concatenate(([0.0], rng.uniform(-1.0, 1.0, n - 1)))),
        )
        assume(arr.is_symmetric())
        mp_inv = build_mp_inv(arr)
        mp = build_pair(arr).mp
        np.testing.assert_array_equal(mp, (2.0 / n) * mp_inv.T)
        assert np.abs(mp - np.linalg.pinv(mp_inv)).max() <= 1e-8

    def test_two_joint_symmetric_pattern_is_degenerate(self):
        # psi = [0, pi] matches the evenly-spaced pattern but spans one
        # bending direction only, so no closed form applies.
        arr = JointArrangement(psi=np.array([0.0, np.pi]), d=np.full(2, 3.0))
        assert arr.is_symmetric()
        with pytest.raises(DegenerateArrangement):
            build_pair(arr)

    def test_pseudoinverse_matches_numpy_oracle(self):
        for psi in ([0.1, 1.9, 4.0], [0.0, np.pi / 2, np.pi], [0.5, 2.0, 3.5, 5.0]):
            pair = build_pair(arrangement(psi))
            np.testing.assert_allclose(pair.mp, np.linalg.pinv(pair.mp_inv), atol=1e-12)

    def test_asymmetric_hand_computed_matrix(self):
        # Gram matrix is diag(2, 1), so mp halves the cosine row only.
        pair = build_pair(ASYM)
        np.testing.assert_allclose(pair.mp, [[0.5, 0.0, -0.5], [0.0, 1.0, 0.0]], atol=1e-15)
        assert not pair.filter_ok
        np.testing.assert_allclose(pair.mp @ np.ones(3), [0.0, 1.0], atol=1e-15)

    def test_brute_force_least_squares_oracle(self):
        # Column k of mp is the least-squares solution of mp_inv @ x = e_k.
        for psi in ([0.2, 2.2], [0.1, 1.9, 4.0], [0.0, 1.0, 2.5, 4.0, 5.5]):
            pair = build_pair(arrangement(psi))
            n = pair.n
            columns = [np.linalg.lstsq(pair.mp_inv, e, rcond=None)[0] for e in np.eye(n)]
            np.testing.assert_allclose(pair.mp, np.column_stack(columns), atol=1e-10)

    @pytest.mark.parametrize("psi", [[0.0, np.pi], [1.0, 1.0], [0.5, 0.5 + np.pi, 0.5]])
    def test_collinear_joints_are_degenerate(self, psi):
        with pytest.raises(DegenerateArrangement):
            build_pair(arrangement(psi))

    def test_two_orthogonal_joints_are_fine(self):
        pair = build_pair(arrangement([0.0, np.pi / 2]))
        np.testing.assert_allclose(pair.mp @ pair.mp_inv, np.eye(2), atol=1e-15)

    def test_right_inverse_identity(self):
        for arr in (SYM3, ASYM, make_symmetric_arrangement(7, 3.0)):
            pair = build_pair(arr)
            np.testing.assert_allclose(pair.mp @ pair.mp_inv, np.eye(2), atol=1e-12)

    def test_projector_idempotent(self):
        pair = build_pair(ASYM)
        p = pair.projector
        np.testing.assert_allclose(p @ p, p, atol=1e-12)

    def test_matrices_read_only(self):
        pair = build_pair(SYM3)
        for matrix in (pair.mp, pair.mp_inv, pair.projector):
            with pytest.raises(ValueError):
                matrix[0, 0] = 9.0


class TestPairMemo:
    def test_same_pair_on_every_call(self):
        arr = arrangement([0.1, 1.9, 4.0])
        assert build_pair(arr) is build_pair(arr)

    def test_projector_is_stored(self):
        pair = build_pair(arrangement([0.1, 1.9, 4.0]))
        assert pair.projector is pair.projector
        np.testing.assert_array_equal(pair.projector, pair.mp_inv @ pair.mp)

    def test_degenerate_raises_on_every_call(self):
        arr = arrangement([0.0, np.pi])
        for _ in range(2):
            with pytest.raises(DegenerateArrangement):
                build_pair(arr)

    @pytest.mark.parametrize("psi", [[0.1, 1.9, 4.0], [0.0, np.pi / 2, np.pi]])
    def test_memoised_pair_matches_fresh_build_bit_for_bit(self, psi):
        arr = arrangement(psi)
        build_pair(arr)
        memo = build_pair(arr)
        fresh = build_pair(JointArrangement(psi=arr.psi.copy(), d=arr.d.copy()))
        assert fresh is not memo
        for field in ("mp", "mp_inv", "projector"):
            assert getattr(memo, field).tobytes() == getattr(fresh, field).tobytes()
        assert memo.filter_ok == fresh.filter_ok


class TestForward:
    def test_worked_example(self):
        cc = forward(build_pair(SYM3), [2.0, -1.0, -1.0])
        assert cc.rho_re == pytest.approx(2.0, abs=1e-12)
        assert cc.rho_im == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector(self):
        cc = forward(build_pair(ASYM), np.zeros(3))
        assert (cc.rho_re, cc.rho_im) == (0.0, 0.0)

    def test_four_joint_example(self):
        cc = forward(build_pair(make_symmetric_arrangement(4, 1.0)), [1.0, 0.0, -1.0, 0.0])
        assert cc.rho_re == pytest.approx(1.0, abs=1e-12)
        assert cc.rho_im == pytest.approx(0.0, abs=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            forward(build_pair(SYM3), [1.0, 2.0])


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("op", [forward, project, validate_displacement])
    def test_rejected(self, op, bad):
        with pytest.raises(DomainError, match="finite"):
            op(build_pair(SYM3), [bad, 0.0, 0.0])

    def test_wrong_length_reported_first(self):
        with pytest.raises(DimensionMismatch):
            forward(build_pair(SYM3), [math.nan, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_clarke_coordinates_refused(self, bad):
        with pytest.raises(DomainError, match="finite"):
            ClarkeCoordinates(bad, 0.0)
        with pytest.raises(DomainError, match="finite"):
            ClarkeCoordinates(0.0, bad)

    def test_inverse_of_nan_coordinates_raises(self):
        # The coordinates are refused when built, so no NaN reaches mp_inv.
        with pytest.raises(DomainError):
            inverse(build_pair(SYM3), ClarkeCoordinates(math.nan, 0.0))

    def test_overflowing_forward_raises(self):
        # Finite joint values whose Clarke coordinates overflow.
        with pytest.raises(DomainError), np.errstate(all="ignore"):
            forward(build_pair(SYM3), [1.5e308, -1.5e308, -1.5e308])

    def test_overflowing_inverse_raises(self):
        # Finite coordinates whose reconstruction overflows.
        with pytest.raises(DomainError, match="finite"), np.errstate(all="ignore"):
            inverse(build_pair(SYM3), ClarkeCoordinates(-1.7e308, 1.7e308))

    def test_inverse_with_finite_reconstruction_is_kept(self):
        # |re| + |im| overflows, yet every reconstructed entry is finite.
        with np.errstate(all="raise"):
            rho = inverse(build_pair(SYM3), ClarkeCoordinates(1.2e308, 1.2e308))
        assert np.count_nonzero(np.isfinite(rho)) == 3

    def test_overflowing_projection_raises(self):
        # Finite joint values whose projection overflows.
        with pytest.raises(DomainError, match="finite"), np.errstate(all="ignore"):
            project(build_pair(SYM3), [1.5e308, -1.5e308, -1.5e308])


class TestInverse:
    def test_worked_example(self):
        rho = inverse(build_pair(SYM3), ClarkeCoordinates(2.0, 0.0))
        np.testing.assert_allclose(rho, [2.0, -1.0, -1.0], atol=1e-12)

    def test_zero_coordinates(self):
        np.testing.assert_array_equal(
            inverse(build_pair(SYM3), ClarkeCoordinates(0.0, 0.0)), np.zeros(3)
        )

    def test_asymmetric_example(self):
        rho = inverse(build_pair(ASYM), ClarkeCoordinates(1.0, 2.0))
        np.testing.assert_allclose(rho, [1.0, 2.0, -1.0], atol=1e-12)

    def test_roundtrip_through_forward(self):
        pair = build_pair(ASYM)
        cc = ClarkeCoordinates(-3.7, 0.45)
        out = forward(pair, inverse(pair, cc))
        assert out.rho_re == pytest.approx(cc.rho_re, abs=1e-10)
        assert out.rho_im == pytest.approx(cc.rho_im, abs=1e-10)


class TestProject:
    def test_constant_vector_is_filtered(self):
        np.testing.assert_allclose(project(build_pair(SYM3), np.ones(3)), np.zeros(3), atol=1e-15)

    def test_on_manifold_vector_is_fixed(self):
        np.testing.assert_allclose(
            project(build_pair(SYM3), [2.0, -1.0, -1.0]), [2.0, -1.0, -1.0], atol=1e-12
        )

    def test_single_joint_spike(self):
        np.testing.assert_allclose(
            project(build_pair(SYM3), [3.0, 0.0, 0.0]), [2.0, -1.0, -1.0], atol=1e-12
        )

    def test_idempotent(self):
        pair = build_pair(ASYM)
        once = project(pair, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(project(pair, once), once, atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            project(build_pair(SYM3), np.ones(4))


class TestValidateDisplacement:
    def test_on_manifold(self):
        check = validate_displacement(build_pair(SYM3), [2.0, -1.0, -1.0], tol=1e-9)
        assert check.valid
        assert check.residual_norm < 1e-14

    def test_constant_vector_invalid(self):
        check = validate_displacement(build_pair(SYM3), [1.0, 1.0, 1.0], tol=1e-9)
        assert not check.valid
        assert check.residual_norm == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_tolerance_is_caller_overridable(self):
        assert validate_displacement(build_pair(SYM3), [1.0, 1.0, 1.0], tol=2.0).valid

    def test_planar_antipodal_pair(self):
        """Two opposite joints in the plane: rho = [a, -a] is the whole
        manifold. The matrix pair itself is degenerate (only one bending
        direction is observable), so the check runs against a
        rank-revealing projector built straight from the angle matrix.
        """
        psi = np.array([0.0, np.pi])
        a_mat = np.column_stack([np.cos(psi), np.sin(psi)])
        projector = a_mat @ np.linalg.pinv(a_mat)
        for a in (0.7, -2.0, 0.0):
            rho = np.array([a, -a])
            assert abs(rho.sum()) < 1e-12
            np.testing.assert_allclose(projector @ rho, rho, atol=1e-12)
        with pytest.raises(DegenerateArrangement):
            build_pair(arrangement(psi))


# Finite floats with both signed zeros drawn often; the kernels must
# match the NumPy reductions they replace bit for bit.
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e6, 1e6, allow_subnormal=True),
)


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestResidualKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(3, 12), data=st.data())
    def test_matches_linalg_norm_bit_for_bit(self, n, data):
        pair = build_pair(make_symmetric_arrangement(n, 10.0))
        rho = np.array(data.draw(st.lists(FINITE, min_size=n, max_size=n)))
        reference = float(np.linalg.norm(rho - pair.projector @ rho))
        check = validate_displacement(pair, rho)
        assert bits(check.residual_norm) == bits(reference)
        assert check.valid == (reference <= 1e-9)
