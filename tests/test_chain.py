"""Multi-segment composition: block-diagonal and coupled joint lengths."""

import numpy as np
import pytest

import dacr.chain as chain_module
from dacr import (
    ArrangementMismatch,
    ChainClarke,
    ChainState,
    ClarkeCoordinates,
    ConventionMismatch,
    Convention,
    Coupling,
    DimensionMismatch,
    FilterPropertyUnavailable,
    JointArrangement,
    RobotSpec,
    SegmentSpec,
    SegmentType,
    build_pair,
    independent_forward,
    independent_inverse,
    interdependent_accumulate,
    interdependent_forward,
    interdependent_inverse,
    inverse,
    make_symmetric_arrangement,
)

ARR3 = make_symmetric_arrangement(3, 10.0)
ARR4 = make_symmetric_arrangement(4, 10.0)


def robot(arrangements, lengths, coupling):
    return RobotSpec(
        segments=tuple(
            SegmentSpec(arrangement=a, length=l) for a, l in zip(arrangements, lengths)
        ),
        coupling=coupling,
    )


def interdependent(m=2, lengths=(10.0, 20.0)):
    return robot([ARR3] * m, lengths[:m], Coupling.INTERDEPENDENT)


def coupling_matrix(mp, m):
    """The explicit block lower-bidiagonal map: -mp on the diagonal,
    +mp on the first subdiagonal. Used as an independent route against
    the sequential implementation."""
    n = mp.shape[1]
    big = np.zeros((2 * m, n * m))
    for j in range(m):
        big[2 * j : 2 * j + 2, n * j : n * (j + 1)] = -mp
        if j > 0:
            big[2 * j : 2 * j + 2, n * (j - 1) : n * j] = mp
    return big


class TestAccumulate:
    def test_first_segment(self):
        state = interdependent_accumulate(interdependent(1, (10.0,)), [[2.0, -1.0, -1.0]])
        np.testing.assert_array_equal(state.per_segment[0], [8.0, 11.0, 11.0])
        assert state.convention is Convention.Q

    def test_two_segments_worked_example(self):
        state = interdependent_accumulate(
            interdependent(), [[2.0, -1.0, -1.0], [-2.0, 1.0, 1.0]]
        )
        np.testing.assert_array_equal(state.per_segment[0], [8.0, 11.0, 11.0])
        np.testing.assert_array_equal(state.per_segment[1], [30.0, 30.0, 30.0])

    def test_zero_displacements_telescope(self):
        rob = robot([ARR3] * 3, (3.0, 4.0, 5.0), Coupling.INTERDEPENDENT)
        state = interdependent_accumulate(rob, [np.zeros(3)] * 3)
        for q, total in zip(state.per_segment, (3.0, 7.0, 12.0)):
            np.testing.assert_array_equal(q, np.full(3, total))

    def test_explicit_lengths_override_robot(self):
        state = interdependent_accumulate(
            interdependent(), [np.zeros(3), np.zeros(3)], l_per_seg=[1.0, 2.0]
        )
        np.testing.assert_array_equal(state.per_segment[1], [3.0, 3.0, 3.0])

    def test_length_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            interdependent_accumulate(
                interdependent(), [np.zeros(3), np.zeros(3)], l_per_seg=[1.0]
            )


class TestInterdependentForward:
    def test_worked_example(self):
        cc = interdependent_forward(
            interdependent(),
            ChainState(Convention.Q, ([8.0, 11.0, 11.0], [30.0, 30.0, 30.0])),
        )
        assert cc.per_segment[0].rho_re == pytest.approx(2.0, abs=1e-12)
        assert cc.per_segment[0].rho_im == pytest.approx(0.0, abs=1e-12)
        assert cc.per_segment[1].rho_re == pytest.approx(-2.0, abs=1e-12)
        assert cc.per_segment[1].rho_im == pytest.approx(0.0, abs=1e-12)

    def test_straight_chain_maps_to_zero(self):
        cc = interdependent_forward(
            interdependent(), ChainState(Convention.Q, ([4.0] * 3, [9.0] * 3))
        )
        for c in cc.per_segment:
            assert abs(c.rho_re) < 1e-12 and abs(c.rho_im) < 1e-12

    def test_single_segment_reduces_to_negated_forward(self):
        q = np.array([8.0, 11.0, 11.0])
        cc = interdependent_forward(
            interdependent(1, (10.0,)), ChainState(Convention.Q, (q,))
        ).per_segment[0]
        expected = -(build_pair(ARR3).mp @ q)
        assert (cc.rho_re, cc.rho_im) == (expected[0], expected[1])

    def test_matches_explicit_coupling_matrix(self):
        rng = np.random.default_rng(13)
        pair = build_pair(ARR3)
        for m in range(1, 9):
            rob = robot([ARR3] * m, rng.uniform(1, 30, m), Coupling.INTERDEPENDENT)
            rhos = [inverse(pair, ClarkeCoordinates(*rng.normal(0, 2, 2))) for _ in range(m)]
            state = interdependent_accumulate(rob, rhos)
            sequential = interdependent_forward(rob, state)
            stacked = coupling_matrix(pair.mp, m) @ np.concatenate(state.per_segment)
            for j, c in enumerate(sequential.per_segment):
                np.testing.assert_allclose(
                    [c.rho_re, c.rho_im], stacked[2 * j : 2 * j + 2], atol=1e-9
                )

    def test_composition_recovers_per_segment_transform(self):
        rng = np.random.default_rng(17)
        pair = build_pair(ARR3)
        for m in (1, 3, 8):
            rob = robot([ARR3] * m, rng.uniform(1, 30, m), Coupling.INTERDEPENDENT)
            rhos = [inverse(pair, ClarkeCoordinates(*rng.normal(0, 2, 2))) for _ in range(m)]
            cc = interdependent_forward(rob, interdependent_accumulate(rob, rhos))
            for c, rho in zip(cc.per_segment, rhos):
                np.testing.assert_allclose([c.rho_re, c.rho_im], pair.mp @ rho, atol=1e-9)

    def test_output_invariant_to_segment_lengths(self):
        rhos = [[2.0, -1.0, -1.0], [-2.0, 1.0, 1.0]]
        rob = interdependent()
        a = interdependent_forward(rob, interdependent_accumulate(rob, rhos, [10.0, 20.0]))
        b = interdependent_forward(rob, interdependent_accumulate(rob, rhos, [500.0, 0.25]))
        for ca, cb in zip(a.per_segment, b.per_segment):
            assert ca.rho_re == pytest.approx(cb.rho_re, abs=1e-9)
            assert ca.rho_im == pytest.approx(cb.rho_im, abs=1e-9)

    def test_rejects_rho_state(self):
        with pytest.raises(ConventionMismatch):
            interdependent_forward(
                interdependent(), ChainState(Convention.RHO, (np.zeros(3), np.zeros(3)))
            )

    def test_rejects_independent_robot(self):
        rob = robot([ARR3] * 2, (10.0, 20.0), Coupling.INDEPENDENT)
        with pytest.raises(ConventionMismatch):
            interdependent_forward(rob, ChainState(Convention.Q, (np.zeros(3), np.zeros(3))))

    def test_rejects_mismatched_arrangements(self):
        rob = robot([ARR3, ARR4], (10.0, 20.0), Coupling.INTERDEPENDENT)
        with pytest.raises(ArrangementMismatch):
            interdependent_forward(rob, ChainState(Convention.Q, (np.zeros(3), np.zeros(4))))

    def test_rejects_extended_segment_types(self):
        rob = RobotSpec(
            segments=(
                SegmentSpec(ARR3, 10.0),
                SegmentSpec(ARR3, 20.0, SegmentType.TYPE1),
            ),
            coupling=Coupling.INTERDEPENDENT,
        )
        with pytest.raises(ConventionMismatch):
            interdependent_forward(rob, ChainState(Convention.Q, (np.zeros(3), np.zeros(3))))

    def test_rejects_arrangement_without_filter_property(self):
        asym = JointArrangement(psi=np.array([0.0, np.pi / 2, np.pi]), d=np.full(3, 10.0))
        rob = robot([asym] * 2, (10.0, 20.0), Coupling.INTERDEPENDENT)
        with pytest.raises(FilterPropertyUnavailable):
            interdependent_forward(rob, ChainState(Convention.Q, (np.zeros(3), np.zeros(3))))

    def test_rejects_wrong_segment_count(self):
        with pytest.raises(DimensionMismatch):
            interdependent_forward(interdependent(), ChainState(Convention.Q, (np.zeros(3),)))


class TestInterdependentInverse:
    def test_worked_example(self):
        state = interdependent_inverse(
            interdependent(),
            ChainClarke((ClarkeCoordinates(2.0, 0.0), ClarkeCoordinates(-2.0, 0.0))),
            l_per_seg=[10.0, 20.0],
        )
        np.testing.assert_allclose(state.per_segment[0], [8.0, 11.0, 11.0], atol=1e-12)
        np.testing.assert_allclose(state.per_segment[1], [30.0, 30.0, 30.0], atol=1e-12)

    def test_zero_coordinates_give_constant_vectors(self):
        state = interdependent_inverse(
            interdependent(),
            ChainClarke((ClarkeCoordinates(0.0, 0.0), ClarkeCoordinates(0.0, 0.0))),
            l_per_seg=[3.0, 4.0],
        )
        np.testing.assert_array_equal(state.per_segment[0], [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(state.per_segment[1], [7.0, 7.0, 7.0])

    def test_single_segment(self):
        state = interdependent_inverse(
            interdependent(1, (100.0,)), ChainClarke((ClarkeCoordinates(2.0, 0.0),))
        )
        np.testing.assert_allclose(state.per_segment[0], [98.0, 101.0, 101.0], atol=1e-12)

    def test_roundtrip_with_forward(self):
        rng = np.random.default_rng(29)
        for m in (1, 2, 5):
            rob = robot([ARR4] * m, rng.uniform(1, 30, m), Coupling.INTERDEPENDENT)
            cc_in = ChainClarke(
                tuple(ClarkeCoordinates(*rng.normal(0, 2, 2)) for _ in range(m))
            )
            cc_out = interdependent_forward(rob, interdependent_inverse(rob, cc_in))
            for a, b in zip(cc_in.per_segment, cc_out.per_segment):
                assert b.rho_re == pytest.approx(a.rho_re, abs=1e-9)
                assert b.rho_im == pytest.approx(a.rho_im, abs=1e-9)


class TestIndependentForward:
    def test_two_segments(self):
        rob = robot([ARR3, ARR3], (10.0, 20.0), Coupling.INDEPENDENT)
        cc = independent_forward(
            rob, ChainState(Convention.RHO, ([2.0, -1.0, -1.0], [-2.0, 1.0, 1.0]))
        )
        assert cc.per_segment[0].rho_re == pytest.approx(2.0, abs=1e-12)
        assert cc.per_segment[1].rho_re == pytest.approx(-2.0, abs=1e-12)

    def test_all_zero(self):
        rob = robot([ARR3, ARR4], (10.0, 20.0), Coupling.INDEPENDENT)
        cc = independent_forward(rob, ChainState(Convention.RHO, (np.zeros(3), np.zeros(4))))
        for c in cc.per_segment:
            assert (c.rho_re, c.rho_im) == (0.0, 0.0)

    def test_segments_with_different_joint_counts(self):
        rob = robot([ARR3, ARR4], (10.0, 20.0), Coupling.INDEPENDENT)
        cc = independent_forward(
            rob, ChainState(Convention.RHO, ([2.0, -1.0, -1.0], [1.0, 0.0, -1.0, 0.0]))
        )
        assert cc.per_segment[0].rho_re == pytest.approx(2.0, abs=1e-12)
        assert cc.per_segment[1].rho_re == pytest.approx(1.0, abs=1e-12)

    def test_rejects_q_state(self):
        rob = robot([ARR3], (10.0,), Coupling.INDEPENDENT)
        with pytest.raises(ConventionMismatch):
            independent_forward(rob, ChainState(Convention.Q, (np.zeros(3),)))

    def test_rejects_interdependent_robot(self):
        with pytest.raises(ConventionMismatch):
            independent_forward(
                interdependent(), ChainState(Convention.RHO, (np.zeros(3), np.zeros(3)))
            )


class TestIndependentInverse:
    def test_segments_with_different_joint_counts(self):
        rob = robot([ARR3, ARR4], (10.0, 20.0), Coupling.INDEPENDENT)
        out = independent_inverse(
            rob, ChainClarke((ClarkeCoordinates(2.0, 0.0), ClarkeCoordinates(1.0, 0.0)))
        )
        assert out.convention is Convention.RHO
        np.testing.assert_allclose(out.per_segment[0], [2.0, -1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(out.per_segment[1], [1.0, 0.0, -1.0, 0.0], atol=1e-12)

    def test_roundtrip_with_forward(self):
        rob = robot([ARR3, ARR4, ARR3], (10.0, 20.0, 5.0), Coupling.INDEPENDENT)
        pairs = [(1.0, -2.0), (0.5, 3.0), (0.0, 0.0)]
        cc = ChainClarke(tuple(ClarkeCoordinates(re, im) for re, im in pairs))
        back = independent_forward(rob, independent_inverse(rob, cc))
        for a, b in zip(back.per_segment, cc.per_segment):
            assert a.rho_re == pytest.approx(b.rho_re, abs=1e-12)
            assert a.rho_im == pytest.approx(b.rho_im, abs=1e-12)

    def test_rejects_wrong_segment_count(self):
        rob = robot([ARR3, ARR3], (10.0, 20.0), Coupling.INDEPENDENT)
        with pytest.raises(DimensionMismatch):
            independent_inverse(rob, ChainClarke((ClarkeCoordinates(0.0, 0.0),)))

    def test_rejects_interdependent_robot(self):
        cc = ChainClarke((ClarkeCoordinates(0.0, 0.0), ClarkeCoordinates(0.0, 0.0)))
        with pytest.raises(ConventionMismatch):
            independent_inverse(interdependent(), cc)


class TestPairsBuiltOnce:
    """A chain call reuses the pair of every arrangement it has seen, so
    repeated calls on one robot skip the symmetry test (and the rest of
    the build) after the first."""

    @pytest.fixture
    def symmetry_tests(self, monkeypatch):
        calls = []
        original = JointArrangement.is_symmetric

        def counted(arr):
            calls.append(arr)
            return original(arr)

        monkeypatch.setattr(JointArrangement, "is_symmetric", counted)
        return calls

    def test_independent_forward(self, symmetry_tests):
        arrs = [make_symmetric_arrangement(3, 10.0), make_symmetric_arrangement(4, 10.0)]
        rob = robot(arrs, (10.0, 20.0), Coupling.INDEPENDENT)
        state = ChainState(Convention.RHO, (np.zeros(3), np.zeros(4)))
        for _ in range(5):
            independent_forward(rob, state)
        assert len(symmetry_tests) == 2
        assert {id(a) for a in symmetry_tests} == {id(a) for a in arrs}

    def test_interdependent_inverse(self, symmetry_tests):
        rob = robot([make_symmetric_arrangement(3, 10.0)] * 3, (1.0, 2.0, 3.0),
                    Coupling.INTERDEPENDENT)
        cc = ChainClarke(tuple(ClarkeCoordinates(1.0, 0.5) for _ in range(3)))
        for _ in range(5):
            interdependent_inverse(rob, cc)
        assert len(symmetry_tests) == 1

    @pytest.mark.parametrize("m", [2, 4, 9])
    def test_interdependent_inverse_checks_chain_once(self, monkeypatch, m):
        calls = []
        original = chain_module.arrangements_match

        def counted(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(chain_module, "arrangements_match", counted)
        rob = robot([make_symmetric_arrangement(3, 10.0)] * m, [1.0] * m,
                    Coupling.INTERDEPENDENT)
        cc = ChainClarke(tuple(ClarkeCoordinates(1.0, 0.5) for _ in range(m)))
        interdependent_inverse(rob, cc)
        assert len(calls) == m - 1
