"""Multi-segment composition: block-diagonal and coupled joint lengths."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dacr.chain as chain_module
import dacr.model as model_module
from dacr import (
    ArrangementMismatch,
    ChainClarke,
    ChainState,
    ClarkeCoordinates,
    ConventionMismatch,
    Convention,
    Coupling,
    DimensionMismatch,
    DomainError,
    FilterPropertyUnavailable,
    JointArrangement,
    RobotSpec,
    SegmentSpec,
    SegmentType,
    build_pair,
    chain_forward,
    chain_inverse,
    forward,
    independent_forward,
    interdependent_accumulate,
    interdependent_forward,
    interdependent_inverse,
    inverse,
    make_symmetric_arrangement,
    validate_displacement,
    validate_robot,
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
            interdependent(2, (1.0, 2.0)), [np.zeros(3), np.zeros(3)]
        )
        np.testing.assert_array_equal(state.per_segment[1], [3.0, 3.0, 3.0])

    def test_rows_are_read_as_chain_state_rows(self):
        rob = interdependent()
        # Every row is checked finite before any length: a short NaN row is a DomainError.
        with pytest.raises(DomainError, match="^segment 1 values must be finite$"):
            interdependent_accumulate(rob, [np.zeros(3), [np.nan, 0.0]])
        with pytest.raises(DomainError, match="^segment 0 values must hold numbers"):
            interdependent_accumulate(rob, ["abc", np.zeros(3)])
        with pytest.raises(DimensionMismatch, match="^segment 1 rho has length 2, expected 3$"):
            interdependent_accumulate(rob, [np.zeros(3), np.zeros(2)])
        # A well-shaped stack still names its first faulty row, before the segment count.
        stack = np.zeros((3, 3))
        stack[2, 0], stack[1, 1] = np.inf, np.nan
        with pytest.raises(DomainError, match="^segment 1 values must be finite$"):
            interdependent_accumulate(rob, stack)
        with pytest.raises(DimensionMismatch, match="^segment 0 rho has length 4, expected 3$"):
            interdependent_accumulate(rob, np.zeros((3, 4)))
        with pytest.raises(DimensionMismatch, match="^state has 3 segments, robot has 2$"):
            interdependent_accumulate(rob, np.zeros((3, 3)))


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
        a, b = (
            interdependent_forward(rob, interdependent_accumulate(rob, rhos))
            for rob in (interdependent(2, (10.0, 20.0)), interdependent(2, (500.0, 0.25)))
        )
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
            interdependent(2, (10.0, 20.0)),
            ChainClarke((ClarkeCoordinates(2.0, 0.0), ClarkeCoordinates(-2.0, 0.0))),
        )
        np.testing.assert_allclose(state.per_segment[0], [8.0, 11.0, 11.0], atol=1e-12)
        np.testing.assert_allclose(state.per_segment[1], [30.0, 30.0, 30.0], atol=1e-12)

    def test_zero_coordinates_give_constant_vectors(self):
        state = interdependent_inverse(
            interdependent(2, (3.0, 4.0)),
            ChainClarke((ClarkeCoordinates(0.0, 0.0), ClarkeCoordinates(0.0, 0.0))),
        )
        np.testing.assert_array_equal(state.per_segment[0], [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(state.per_segment[1], [7.0, 7.0, 7.0])

    def test_single_segment(self):
        state = interdependent_inverse(
            interdependent(1, (100.0,)), ChainClarke((ClarkeCoordinates(2.0, 0.0),))
        )
        np.testing.assert_allclose(state.per_segment[0], [98.0, 101.0, 101.0], atol=1e-12)

    @pytest.mark.parametrize("m, lengths", [(1, (10.0,)), (2, (10.0, 20.0)), (2, (1.0,))],
                             ids=["state-count", "state-count-2", "length-count"])
    def test_overflow_reported_before_count_mismatch(self, m, lengths):
        # Finite coordinates whose reconstruction overflows, on a chain
        # whose counts disagree as well: the overflow is reported.
        cc = ChainClarke((ClarkeCoordinates(-1.7e308, 1.7e308),) * 2)
        with pytest.raises(DomainError, match="finite"), np.errstate(all="ignore"):
            interdependent_inverse(interdependent(m, lengths), cc)

    @pytest.mark.parametrize("call", [
        lambda rob: interdependent_inverse(rob, ChainClarke((ClarkeCoordinates(1e308, 0.0),) * 2)),
        lambda rob: interdependent_accumulate(rob, [[1e308, -5e307, -5e307]] * 2),
    ], ids=["inverse", "accumulate"])
    def test_overflowing_sum_is_refused_as_caller_rows_are(self, call):
        # Each reconstruction is finite; only the running sum of segment 1 overflows.
        with pytest.raises(DomainError, match="^segment 1 values must be finite$"), \
                np.errstate(all="ignore"):
            call(interdependent(2, (10.0, 20.0)))

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
        out = chain_inverse(
            rob, ChainClarke((ClarkeCoordinates(2.0, 0.0), ClarkeCoordinates(1.0, 0.0)))
        )
        assert out.convention is Convention.RHO
        np.testing.assert_allclose(out.per_segment[0], [2.0, -1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(out.per_segment[1], [1.0, 0.0, -1.0, 0.0], atol=1e-12)

    def test_roundtrip_with_forward(self):
        rob = robot([ARR3, ARR4, ARR3], (10.0, 20.0, 5.0), Coupling.INDEPENDENT)
        pairs = [(1.0, -2.0), (0.5, 3.0), (0.0, 0.0)]
        cc = ChainClarke(tuple(ClarkeCoordinates(re, im) for re, im in pairs))
        back = independent_forward(rob, chain_inverse(rob, cc))
        for a, b in zip(back.per_segment, cc.per_segment):
            assert a.rho_re == pytest.approx(b.rho_re, abs=1e-12)
            assert a.rho_im == pytest.approx(b.rho_im, abs=1e-12)

    def test_rejects_wrong_segment_count(self):
        rob = robot([ARR3, ARR3], (10.0, 20.0), Coupling.INDEPENDENT)
        with pytest.raises(DimensionMismatch):
            chain_inverse(rob, ChainClarke((ClarkeCoordinates(0.0, 0.0),)))


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
        original = model_module.arrangements_match

        def counted(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(model_module, "arrangements_match", counted)
        rob = robot([make_symmetric_arrangement(3, 10.0)] * m, [1.0] * m,
                    Coupling.INTERDEPENDENT)
        cc = ChainClarke(tuple(ClarkeCoordinates(1.0, 0.5) for _ in range(m)))
        interdependent_inverse(rob, cc)
        assert len(calls) == m - 1


class TestChainMemo:
    """The interdependent chain check runs once per robot; its pair is
    memoised on the frozen RobotSpec."""

    @pytest.fixture
    def chain_checks(self, monkeypatch):
        calls = []
        original = model_module.arrangements_match

        def counted(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(model_module, "arrangements_match", counted)
        return calls

    def test_same_pair_on_every_call(self, chain_checks):
        rob = interdependent(m=2)
        first = chain_module._shared_pair(rob)
        assert all(chain_module._shared_pair(rob) is first for _ in range(5))
        cc = ChainClarke((ClarkeCoordinates(1.0, 0.5), ClarkeCoordinates(0.0, -1.0)))
        state = interdependent_inverse(rob, cc)
        interdependent_forward(rob, state)
        interdependent_accumulate(rob, [np.zeros(3), np.zeros(3)])
        assert len(chain_checks) == 1

    @pytest.mark.parametrize("bad, error", [
        (robot([ARR3, ARR4], (1.0, 2.0), Coupling.INTERDEPENDENT), ArrangementMismatch),
        (RobotSpec((SegmentSpec(ARR3, 1.0, SegmentType.TYPE1),), Coupling.INTERDEPENDENT),
         ConventionMismatch),
        (robot([JointArrangement(psi=np.array([0.0, np.pi / 2, np.pi]), d=np.ones(3))] * 2,
               (1.0, 2.0), Coupling.INTERDEPENDENT), FilterPropertyUnavailable),
        (robot([ARR3, ARR3], (1.0, 2.0), Coupling.INDEPENDENT), ConventionMismatch),
    ], ids=["mismatched", "type1", "non-filtering", "independent"])
    def test_failed_check_raises_every_time_and_stores_nothing(self, bad, error):
        for _ in range(3):
            with pytest.raises(error):
                chain_module._shared_pair(bad)
        assert "_shared_pair" not in vars(bad)

    def test_replace_checks_anew(self, chain_checks):
        rob = interdependent(m=3, lengths=(1.0, 2.0, 3.0))
        pair = chain_module._shared_pair(rob)
        copy = dataclasses.replace(rob)
        assert "_shared_pair" not in vars(copy)
        assert chain_module._shared_pair(copy) is pair
        assert len(chain_checks) == 4

    def test_lengths_are_one_read_only_array(self):
        rob = interdependent(m=3, lengths=(1.0, 2.0, 3.0))
        cc = ChainClarke(tuple(ClarkeCoordinates(1.0, 0.5) for _ in range(3)))
        interdependent_inverse(rob, cc)
        lengths = vars(rob)["_lengths"]
        for _ in range(3):
            interdependent_inverse(rob, cc)
            interdependent_accumulate(rob, [np.zeros(3)] * 3)
            assert vars(rob)["_lengths"] is lengths
        assert as_bits([lengths]) == as_bits([[1.0, 2.0, 3.0]])
        assert lengths.dtype == np.float64 and not lengths.flags.writeable

    @pytest.mark.parametrize("bad", [
        robot([ARR3, ARR4], (1.0, 2.0), Coupling.INTERDEPENDENT),
        RobotSpec((SegmentSpec(ARR3, 1.0, SegmentType.TYPE1),), Coupling.INTERDEPENDENT),
        robot([ARR3, ARR3], (1.0, 2.0), Coupling.INDEPENDENT),
    ], ids=["mismatched", "type1", "independent"])
    def test_failed_check_stores_no_lengths(self, bad):
        for _ in range(2):
            with pytest.raises((ArrangementMismatch, ConventionMismatch)):
                interdependent_accumulate(bad, [np.zeros(3)] * len(bad.segments))
        assert "_lengths" not in vars(bad)

    def test_replace_builds_lengths_anew(self):
        rob = interdependent(m=2, lengths=(1.0, 2.0))
        interdependent_accumulate(rob, [np.zeros(3)] * 2)
        copy = dataclasses.replace(rob, segments=rob.segments[::-1])
        assert "_lengths" not in vars(copy)
        state = interdependent_accumulate(copy, [np.zeros(3)] * 2)
        assert as_bits(state.per_segment) == as_bits([[2.0] * 3, [3.0] * 3])
        assert vars(copy)["_lengths"] is not vars(rob)["_lengths"]

    def test_memo_equals_fresh_check(self):
        rob = interdependent(m=2)
        memo = chain_module._shared_pair(rob)
        fresh_robot = robot([make_symmetric_arrangement(3, 10.0)] * 2, (10.0, 20.0),
                            Coupling.INTERDEPENDENT)
        fresh = chain_module._shared_pair(fresh_robot)
        assert fresh is not memo
        for name in ("mp", "mp_inv", "projector"):
            assert getattr(fresh, name).tobytes() == getattr(memo, name).tobytes()
        assert fresh.filter_ok == memo.filter_ok


class TestInterdependentRule:
    """The chain check and validate_robot apply one rule, written in model."""

    ROTATED3 = JointArrangement(psi=0.1 + 2 * np.pi / 3 * np.arange(3), d=np.full(3, 10.0))

    @staticmethod
    def reference_error(rob):
        """The chain check as it was written before it moved to model:
        segment types first, then arrangements against segment 0."""
        if any(seg.seg_type is not SegmentType.TYPE0 for seg in rob.segments):
            return ConventionMismatch
        first = rob.segments[0].arrangement
        if any(seg.arrangement.n != first.n
               or not np.allclose(seg.arrangement.psi, first.psi, rtol=0.0, atol=1e-9)
               for seg in rob.segments[1:]):
            return ArrangementMismatch
        return None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(segments=st.lists(
        st.tuples(st.sampled_from([ARR3, ARR4, ROTATED3]), st.sampled_from(list(SegmentType))),
        min_size=1, max_size=4))
    def test_same_error_class_as_before(self, segments):
        rob = RobotSpec(tuple(SegmentSpec(a, 1.0, t) for a, t in segments),
                        Coupling.INTERDEPENDENT)
        want = self.reference_error(rob)
        if want is None:
            assert chain_module._shared_pair(rob) is build_pair(rob.segments[0].arrangement)
        else:
            with pytest.raises(want):
                chain_module._shared_pair(rob)
        assert bool(validate_robot(rob)) == (want is not None)

    def test_type_reported_before_arrangement(self):
        rob = RobotSpec((SegmentSpec(ARR3, 1.0), SegmentSpec(ARR4, 1.0, SegmentType.TYPE2)),
                        Coupling.INTERDEPENDENT)
        with pytest.raises(ConventionMismatch, match="segment 1: .*type-0"):
            chain_module._shared_pair(rob)
        assert [v.field for v in validate_robot(rob)] == ["joints", "type"]


class TestEmptyInterdependentRobot:
    EMPTY = RobotSpec((), Coupling.INTERDEPENDENT)

    @pytest.mark.parametrize(
        "call",
        [
            lambda rob: interdependent_forward(rob, ChainState(Convention.Q, ())),
            lambda rob: interdependent_inverse(rob, ChainClarke(())),
            lambda rob: interdependent_accumulate(rob, []),
        ],
        ids=["forward", "inverse", "accumulate"],
    )
    def test_is_domain_error(self, call):
        # Was an IndexError from the shared pair lookup.
        with pytest.raises(DomainError, match="robot has no segments"):
            call(self.EMPTY)


class TestChainSingleValidation:
    """Each ChainState a caller builds is checked once, in one pass over its
    rows; valid rows are never checked one by one. A state of rows the
    library has just computed and checked is not checked again."""

    @pytest.mark.parametrize("m", [1, 3])
    def test_interdependent_forward(self, validations, m):
        rob = interdependent(m=m, lengths=(1.0, 2.0, 3.0))
        state = ChainState(Convention.Q, tuple(np.full(3, 1.0 + j) for j in range(m)))
        interdependent_forward(rob, state)
        assert validations == ["chain rows"]

    @pytest.mark.parametrize("m", [1, 3])
    def test_interdependent_inverse(self, validations, m):
        rob = interdependent(m=m, lengths=(1.0, 2.0, 3.0))
        cc = ChainClarke(tuple(ClarkeCoordinates(1.0, -0.5) for _ in range(m)))
        interdependent_inverse(rob, cc)
        assert validations == []

    def test_independent_chain_inverse(self, validations):
        rob = robot([ARR3, ARR4], (1.0, 2.0), Coupling.INDEPENDENT)
        chain_inverse(rob, ChainClarke((ClarkeCoordinates(1.0, -0.5), ClarkeCoordinates(0.0, 2.0))))
        assert validations == []

    def test_independent_forward(self, validations):
        rob = robot([ARR3, ARR4], (1.0, 2.0), Coupling.INDEPENDENT)
        independent_forward(rob, ChainState(Convention.RHO, (np.zeros(3), np.zeros(4))))
        assert validations == ["chain rows"]

    @pytest.mark.parametrize("rows", [
        [[2.0, -1.0, -1.0], [-2.0, 1.0, 1.0]],
        (np.array([2.0, -1.0, -1.0]), np.array([-2.0, 1.0, 1.0])),
        np.array([[2.0, -1.0, -1.0], [-2.0, 1.0, 1.0]]),
    ], ids=["lists", "arrays", "stack"])
    def test_interdependent_accumulate(self, validations, rows):
        # Clean rows are converted once, as one (m, n) stack, and never checked row by row.
        state = interdependent_accumulate(interdependent(), rows)
        assert validations == []
        assert as_bits(state.per_segment) == as_bits([[8.0, 11.0, 11.0], [30.0, 30.0, 30.0]])
        assert not any(r.flags.writeable for r in state.per_segment)

    def test_interdependent_accumulate_holds_no_caller_array(self):
        rho = np.zeros((2, 3))
        state = interdependent_accumulate(interdependent(), rho)
        rho[:] = 1.0
        assert as_bits(state.per_segment) == as_bits([[10.0] * 3, [30.0] * 3])

    def test_interdependent_accumulate_rows_read_once(self, validations):
        # Rows the stack cannot take (a generator) fall back to the row checks.
        rows = (np.zeros(3) for _ in range(2))
        state = interdependent_accumulate(interdependent(), rows)
        assert validations == ["chain rows"]
        assert as_bits(state.per_segment) == as_bits([[10.0] * 3, [30.0] * 3])


class TestChainStateRows:
    """The one-pass check of a ChainState's rows keeps the per-row errors:
    their class, message and order."""

    def test_rows_become_read_only_float_vectors(self):
        state = ChainState(Convention.RHO, ([1, 2, 3], np.arange(4.0)))
        assert [v.dtype for v in state.per_segment] == [np.float64] * 2
        assert not any(v.flags.writeable for v in state.per_segment)
        assert as_bits(state.per_segment) == as_bits([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]])

    def test_scalar_row_is_a_vector_of_length_one(self):
        state = ChainState(Convention.Q, (2.0, np.float64(3.0)))
        assert as_bits(state.per_segment) == as_bits([[2.0], [3.0]])

    def test_no_rows(self):
        assert ChainState(Convention.Q, ()).per_segment == ()

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            (([np.nan, 0.0], np.zeros((2, 2))), DomainError, "segment 0 values must be finite"),
            ((np.zeros((2, 2)), [np.nan, 0.0]), DimensionMismatch, "segment 0 values must be one-dimensional"),
            (([0.0], [1.0], [0.0, np.inf]), DomainError, "segment 2 values must be finite"),
            ((np.zeros((1, 3)), np.zeros((1, 3))), DimensionMismatch, "segment 0 values must be one-dimensional"),
            (([1.0], 2.0, [[3.0]]), DimensionMismatch, "segment 2 values must be one-dimensional"),
            (([1.0], ["a", 1.0]), DomainError, "segment 1 values must hold numbers"),
            (([1.0], [[1.0], [2.0, 3.0]]), DomainError, "segment 1 values must hold numbers"),
            (None, DomainError, "a chain state needs a sequence of rows"),
        ],
    )
    def test_first_faulty_row_raises_its_own_error(self, rows, error, message):
        with pytest.raises(error, match=message):
            ChainState(Convention.RHO, rows)

    def test_rows_from_a_generator_are_read_once(self):
        # Both passes see the same rows, so a faulty row is not dropped
        # by a second read of a spent generator.
        with pytest.raises(DomainError, match="segment 1 values must be finite"):
            ChainState(Convention.RHO, (row for row in ([0.0], [np.nan])))
        state = ChainState(Convention.RHO, (row for row in ([0.0], [1.0])))
        assert as_bits(state.per_segment) == as_bits([[0.0], [1.0]])


class TestChainDispatch:
    def test_forward_and_inverse_follow_coupling(self):
        coupled = interdependent(m=2)
        cc = ChainClarke((ClarkeCoordinates(1.0, 0.5), ClarkeCoordinates(0.0, -1.0)))
        q = chain_inverse(coupled, cc)
        assert q.convention is Convention.Q
        assert as_bits(q.per_segment) == as_bits(interdependent_inverse(coupled, cc).per_segment)
        assert chain_forward(coupled, q) == interdependent_forward(coupled, q)

        local = robot([ARR3, ARR4], (1.0, 2.0), Coupling.INDEPENDENT)
        rho = chain_inverse(local, cc)
        assert rho.convention is Convention.RHO
        per_segment = [inverse(build_pair(a), c) for a, c in zip((ARR3, ARR4), cc.per_segment)]
        assert as_bits(rho.per_segment) == as_bits(per_segment)
        assert chain_forward(local, rho) == independent_forward(local, rho)

    def test_validate_matches_per_segment_check(self):
        local = robot([ARR3, ARR4], (1.0, 2.0), Coupling.INDEPENDENT)
        state = ChainState(Convention.RHO, ([2.0, -1.0, -1.0], [1.0, 1.0, 1.0, 1.0]))
        checks = chain_module.validate_displacement(local, state, tol=1e-9)
        assert checks == (
            validate_displacement(build_pair(ARR3), state.per_segment[0], 1e-9),
            validate_displacement(build_pair(ARR4), state.per_segment[1], 1e-9),
        )
        assert [c.valid for c in checks] == [True, False]

    def test_validate_default_tolerance_is_the_segment_default(self):
        big = inverse(build_pair(ARR3), ClarkeCoordinates(1e7, 3e7))
        local = robot([ARR3, ARR4], [10.0, 20.0], Coupling.INDEPENDENT)
        state = ChainState(Convention.RHO, (big, np.zeros(4)))
        checks = chain_module.validate_displacement(local, state)
        assert checks[0] == validate_displacement(build_pair(ARR3), big)
        assert checks[0].valid and checks[1].valid
        assert not chain_module.validate_displacement(local, state, tol=1e-9)[0].valid

    def test_validate_refuses_q_and_wrong_counts(self):
        local = robot([ARR3, ARR4], (1.0, 2.0), Coupling.INDEPENDENT)
        with pytest.raises(ConventionMismatch):
            chain_module.validate_displacement(
                local, ChainState(Convention.Q, (np.ones(3), np.ones(4))))
        with pytest.raises(DimensionMismatch):
            chain_module.validate_displacement(local, ChainState(Convention.RHO, (np.ones(3),)))
        with pytest.raises(DimensionMismatch):
            chain_module.validate_displacement(
                local, ChainState(Convention.RHO, (np.ones(3), np.ones(3))))


# Finite floats with both signed zeros drawn often.
FINITE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


def as_bits(vectors):
    return [np.asarray(v, dtype=float).tobytes() for v in vectors]


def cc_bits(chain_cc):
    return [np.array([c.rho_re, c.rho_im]).tobytes() for c in chain_cc.per_segment]


class TestChainKernelsMatchReference:
    """The stacked kernels against the per-segment loops they replace,
    kept here as the reference; equal bit for bit, signed zeros included."""

    @staticmethod
    def reference_accumulate(rho_per_seg, lengths):
        n = len(rho_per_seg[0])
        ones, q_prev, out = np.ones(n), np.zeros(n), []
        for length, rho in zip(lengths, rho_per_seg):
            q_prev = length * ones - np.asarray(rho, dtype=float) + q_prev
            out.append(q_prev)
        return out

    @staticmethod
    def reference_forward(mp, q_per_seg):
        out, q_prev = [], None
        for q in q_per_seg:
            cc = -(mp @ q) if q_prev is None else mp @ q_prev - mp @ q
            out.append(np.array([float(cc[0]), float(cc[1])]))
            q_prev = q
        return out

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(3, 8), m=st.integers(1, 6), data=st.data())
    def test_accumulate_and_forward(self, n, m, data):
        arr = make_symmetric_arrangement(n, 10.0)
        rho = [data.draw(st.lists(FINITE, min_size=n, max_size=n)) for _ in range(m)]
        lengths = data.draw(st.lists(FINITE, min_size=m, max_size=m))
        rob = robot([arr] * m, lengths, Coupling.INTERDEPENDENT)
        q = interdependent_accumulate(rob, rho)
        want = self.reference_accumulate(rho, lengths)
        assert as_bits(q.per_segment) == as_bits(want)

        mp = build_pair(arr).mp
        got = interdependent_forward(rob, q)
        assert cc_bits(got) == as_bits(self.reference_forward(mp, q.per_segment))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(3, 8), m=st.integers(1, 6), data=st.data())
    def test_inverse(self, n, m, data):
        arr = make_symmetric_arrangement(n, 10.0)
        lengths = data.draw(st.lists(st.floats(0.5, 200.0), min_size=m, max_size=m))
        rob = robot([arr] * m, lengths, Coupling.INTERDEPENDENT)
        coords = [ClarkeCoordinates(*data.draw(st.tuples(FINITE, FINITE))) for _ in range(m)]
        got = interdependent_inverse(rob, ChainClarke(tuple(coords)))
        pair = build_pair(arr)
        want = self.reference_accumulate([inverse(pair, c) for c in coords], lengths)
        assert as_bits(got.per_segment) == as_bits(want)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 24),
        m=st.integers(1, 16),
        scale=st.floats(-3.0, 7.0).map(lambda e: 10.0**e),
        data=st.data(),
    )
    def test_stacked_inverse_over_scales(self, n, m, scale, data):
        """The one stacked product against per-segment ``inverse`` and a
        ``cumsum``, the inverse as it was written segment by segment."""
        arr = make_symmetric_arrangement(n, 10.0)
        lengths = data.draw(st.lists(st.floats(0.5, 200.0), min_size=m, max_size=m))
        unit = st.floats(-1.0, 1.0)
        coords = [
            ClarkeCoordinates(*(scale * x for x in data.draw(st.tuples(unit, unit))))
            for _ in range(m)
        ]
        rob = robot([arr] * m, lengths, Coupling.INTERDEPENDENT)
        got = interdependent_inverse(rob, ChainClarke(tuple(coords)))
        pair = build_pair(arr)
        rho = np.array([inverse(pair, c) for c in coords])
        want = (np.array(lengths)[:, None] - rho).cumsum(axis=0) + 0.0
        assert as_bits(got.per_segment) == as_bits(want)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ns=st.lists(st.integers(3, 8), min_size=1, max_size=5), data=st.data())
    def test_computed_rows_are_frozen_reference_bits(self, ns, data):
        """The states the library computes hold read-only float64 rows with
        the reference loops' bits: chain_inverse on an independent chain,
        and interdependent_inverse and interdependent_accumulate on a chain
        of the first joint count."""
        arrs = [make_symmetric_arrangement(n, 10.0) for n in ns]
        lengths = data.draw(st.lists(st.floats(0.5, 200.0), min_size=len(ns), max_size=len(ns)))
        coords = tuple(ClarkeCoordinates(*data.draw(st.tuples(FINITE, FINITE))) for _ in ns)
        rho = [data.draw(st.lists(FINITE, min_size=ns[0], max_size=ns[0])) for _ in ns]
        independent = robot(arrs, lengths, Coupling.INDEPENDENT)
        coupled = robot([arrs[0]] * len(ns), lengths, Coupling.INTERDEPENDENT)
        pair = build_pair(arrs[0])
        states = [
            (chain_inverse(independent, ChainClarke(coords)),
             [inverse(build_pair(a), c) for a, c in zip(arrs, coords)]),
            (interdependent_inverse(coupled, ChainClarke(coords)),
             self.reference_accumulate([inverse(pair, c) for c in coords], lengths)),
            (interdependent_accumulate(coupled, rho), self.reference_accumulate(rho, lengths)),
        ]
        for state, want in states:
            assert as_bits(state.per_segment) == as_bits(want)
            assert all(r.dtype == np.float64 and r.ndim == 1 for r in state.per_segment)
            assert not any(r.flags.writeable for r in state.per_segment)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ns=st.lists(st.integers(3, 8), min_size=1, max_size=5), data=st.data())
    def test_independent_forward(self, ns, data):
        arrs = [make_symmetric_arrangement(n, 10.0) for n in ns]
        rob = robot(arrs, [1.0] * len(ns), Coupling.INDEPENDENT)
        rho = [data.draw(st.lists(FINITE, min_size=n, max_size=n)) for n in ns]
        got = chain_forward(rob, ChainState(Convention.RHO, tuple(rho)))
        want = [forward(build_pair(a), r) for a, r in zip(arrs, rho)]
        assert got.per_segment == tuple(want)
        assert cc_bits(got) == cc_bits(ChainClarke(tuple(want)))
