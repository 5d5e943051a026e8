"""Schedule feasibility (paper eq. (4)) and schedule-space enumeration.

The *idle-time* constraint is checkable before any controller design:
every application's longest sampling period must not exceed its maximum
allowed idle time.  The *settling-deadline* constraint (eq. (3)) is only
known after the (expensive) control-performance evaluation and is
handled by the evaluator.

Enumeration exploits monotonicity: growing any ``m_j`` grows every other
application's idle gap, so once a partial assignment (with all remaining
counts at their minimum) violates eq. (4), the whole subtree is
infeasible.
"""

from __future__ import annotations

from ..core.application import ControlApplication
from ..errors import ScheduleError
from ..units import Clock
from ..wcet.results import TaskWcets
from .schedule import PeriodicSchedule
from .timing import derive_timing

#: Hard cap on any m_i during enumeration — far above anything a real
#: idle-time constraint admits; purely a runaway guard.
MAX_COUNT = 256


def max_sampling_periods(
    schedule: PeriodicSchedule, wcets: list[TaskWcets], clock: Clock
) -> list[float]:
    """Longest sampling period of each application under ``schedule``.

    Closed form of ``max_period`` over :func:`derive_timing`'s patterns,
    with the same floating-point operations in the same order: a burst's
    periods are its cold and warm execution times, the last one extended
    by the other applications' bursts ``delta >= 0`` (so no middle warm
    period is ever the longest).
    """
    counts = schedule.counts
    cold = [clock.cycles_to_seconds(w.wcet_cycles(1)) for w in wcets]
    warm = [clock.cycles_to_seconds(w.wcet_cycles(2)) for w in wcets]
    if len(wcets) != schedule.n_apps or not all(
        c > 0 and (m == 1 or h > 0) for c, h, m in zip(cold, warm, counts)
    ):
        derive_timing(schedule, wcets, clock)  # raises its ScheduleError
    durations = [
        clock.cycles_to_seconds(w.wcet_cycles(1) + (m - 1) * w.wcet_cycles(2))
        for w, m in zip(wcets, counts)
    ]
    total = sum(durations)
    return [
        c + (total - d) if m == 1 else max(c, h + (total - d))
        for c, h, d, m in zip(cold, warm, durations, counts)
    ]


def idle_feasible(
    schedule: PeriodicSchedule,
    apps: list[ControlApplication],
    clock: Clock,
) -> bool:
    """Whether the schedule satisfies every max-idle-time bound (eq. (4))."""
    if schedule.n_apps != len(apps):
        raise ScheduleError(
            f"schedule has {schedule.n_apps} apps, problem has {len(apps)}"
        )
    wcets = [app.wcets for app in apps]
    periods = max_sampling_periods(schedule, wcets, clock)
    return all(
        period <= app.max_idle + 1e-15
        for period, app in zip(periods, apps)
    )


def enumerate_idle_feasible(
    apps: list[ControlApplication],
    clock: Clock,
    max_count: int = MAX_COUNT,
) -> list[PeriodicSchedule]:
    """All idle-feasible periodic schedules, in lexicographic order.

    This is the space the paper's exhaustive search walks (76 schedules
    in the case study, two of which later fail the settling-deadline
    constraint).
    """
    n = len(apps)
    if n == 0:
        raise ScheduleError("need at least one application")
    wcets = [app.wcets for app in apps]
    feasible: list[PeriodicSchedule] = []

    def decided_feasible(counts: list[int], n_decided: int) -> bool:
        """Eq. (4) restricted to the first ``n_decided`` applications.

        Undecided applications are set to their most lenient value (1)
        for the *decided* apps' constraints; their own constraints are
        not monotone at m = 1 -> 2 and must not prune the subtree.
        """
        schedule = PeriodicSchedule(tuple(counts))
        periods = max_sampling_periods(schedule, wcets, clock)
        return all(
            periods[i] <= apps[i].max_idle + 1e-15 for i in range(n_decided)
        )

    def recurse(prefix: list[int]) -> None:
        index = len(prefix)
        if index == n:
            schedule = PeriodicSchedule(tuple(prefix))
            if idle_feasible(schedule, apps, clock):
                feasible.append(schedule)
            return
        for count in range(1, max_count + 1):
            probe = prefix + [count] + [1] * (n - index - 1)
            if not decided_feasible(probe, index + 1):
                if count == 1:
                    # m_i = 1 inflates this app's own gap by the cold/warm
                    # difference; larger counts may still be feasible.
                    continue
                break
            recurse(prefix + [count])

    recurse([])
    return feasible
