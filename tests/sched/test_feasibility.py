"""Tests for idle-time feasibility and schedule-space enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.sched import (
    PeriodicSchedule,
    derive_timing,
    enumerate_idle_feasible,
    idle_feasible,
)
from repro.sched.feasibility import max_sampling_periods
from repro.units import Clock
from repro.wcet.results import TaskWcets

_CLOCKS = st.sampled_from([20e6, 1e9, 3.3e6, 7.0, 123456.789]).map(Clock)


def _wcets(cold_min: int, warm_min: int):
    return st.builds(
        TaskWcets,
        name=st.just("app"),
        cold_cycles=st.integers(cold_min, 10**7),
        warm_cycles=st.integers(warm_min, 10**7),
    )


class TestIdleFeasibility:
    def test_round_robin_feasible(self, case_study):
        assert idle_feasible(
            PeriodicSchedule.of(1, 1, 1), case_study.apps, case_study.clock
        )

    def test_paper_optimum_feasible(self, case_study):
        assert idle_feasible(
            PeriodicSchedule.of(3, 2, 3), case_study.apps, case_study.clock
        )

    def test_huge_counts_infeasible(self, case_study):
        assert not idle_feasible(
            PeriodicSchedule.of(10, 10, 10), case_study.apps, case_study.clock
        )

    def test_max_sampling_periods_values(self, case_study, clock):
        wcets = [app.wcets for app in case_study.apps]
        periods = max_sampling_periods(PeriodicSchedule.of(3, 2, 3), wcets, clock)
        assert periods[0] == pytest.approx(2490.25e-6)
        assert periods[1] == pytest.approx(3204.70e-6)
        assert periods[2] == pytest.approx(2866.45e-6)


class TestEnumeration:
    def test_case_study_space_size(self, case_study):
        """Our WCETs/limits admit 77 schedules (the paper reports 76 —
        one boundary schedule of difference; see EXPERIMENTS.md)."""
        space = enumerate_idle_feasible(case_study.apps, case_study.clock)
        assert len(space) == 77

    def test_enumeration_matches_brute_force(self, case_study):
        """Cross-check the pruned recursion against a plain filter."""
        space = set(
            s.counts for s in enumerate_idle_feasible(case_study.apps, case_study.clock)
        )
        brute = set()
        for m1 in range(1, 12):
            for m2 in range(1, 12):
                for m3 in range(1, 12):
                    schedule = PeriodicSchedule.of(m1, m2, m3)
                    if idle_feasible(schedule, case_study.apps, case_study.clock):
                        brute.add(schedule.counts)
        assert space == brute

    def test_contains_paper_schedules(self, case_study):
        space = {
            s.counts for s in enumerate_idle_feasible(case_study.apps, case_study.clock)
        }
        assert (1, 1, 1) in space
        assert (3, 2, 3) in space
        assert (4, 2, 2) in space
        assert (1, 2, 1) in space
        assert (2, 2, 2) in space

    def test_lexicographic_order(self, case_study):
        space = enumerate_idle_feasible(case_study.apps, case_study.clock)
        assert space == sorted(space)


class TestMaxSamplingPeriods:
    """The closed form against ``max_period`` over ``derive_timing``."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_wcets(1, 1), st.integers(1, 40)), min_size=1, max_size=5),
        _CLOCKS,
    )
    def test_matches_derive_timing(self, apps, clock):
        wcets = [w for w, _ in apps]
        schedule = PeriodicSchedule(tuple(m for _, m in apps))
        expected = [
            app.max_period for app in derive_timing(schedule, wcets, clock).apps
        ]
        assert max_sampling_periods(schedule, wcets, clock) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(_wcets(-5, -5), st.integers(1, 4)), min_size=1, max_size=4
        ),
        _CLOCKS,
    )
    def test_same_errors_as_derive_timing(self, apps, clock):
        wcets = [w for w, _ in apps]
        schedule = PeriodicSchedule(tuple(m for _, m in apps))
        try:
            expected = [
                app.max_period for app in derive_timing(schedule, wcets, clock).apps
            ]
        except ScheduleError as error:
            with pytest.raises(ScheduleError) as got:
                max_sampling_periods(schedule, wcets, clock)
            assert str(got.value) == str(error)
        else:
            assert max_sampling_periods(schedule, wcets, clock) == expected

    @pytest.mark.parametrize(
        "cycles, counts",
        [
            ([(0, 100), (500, 400)], (1, 1)),
            ([(-3, 100), (500, 400)], (2, 1)),
            ([(100, 0), (500, 400)], (2, 1)),
            ([(100, -1), (500, 400)], (3, 2)),
            ([(500, 400)], (1, 2)),  # one WCET entry for two applications
        ],
    )
    def test_invalid_inputs_raise_the_same_error(self, cycles, counts, clock):
        wcets = [TaskWcets("app", cold, warm) for cold, warm in cycles]
        schedule = PeriodicSchedule(counts)
        with pytest.raises(ScheduleError) as expected:
            derive_timing(schedule, wcets, clock)
        with pytest.raises(ScheduleError) as got:
            max_sampling_periods(schedule, wcets, clock)
        assert str(got.value) == str(expected.value)
