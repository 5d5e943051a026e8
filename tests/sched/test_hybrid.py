"""Tests for the hybrid gradient/annealing search (paper Section IV)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SearchError
from repro.sched import HybridOptions, PeriodicSchedule, hybrid_search
from repro.sched.hybrid import _ROUND_BATCH

from .fakes import FakeEvaluator, box_feasible, concave_peak


def feasible_fn(limit=8):
    box = box_feasible(limit)
    return lambda schedule: box(schedule.counts)


class TestClimbing:
    def test_reaches_unimodal_peak(self):
        evaluator = FakeEvaluator(concave_peak((3, 2, 3)))
        result = hybrid_search(
            evaluator, [PeriodicSchedule.of(1, 1, 1)], feasible_fn()
        )
        assert result.best_schedule.counts == (3, 2, 3)
        assert result.best_value == pytest.approx(1.0)

    def test_path_is_step_one_neighbors(self):
        evaluator = FakeEvaluator(concave_peak((4, 1, 2)))
        result = hybrid_search(
            evaluator, [PeriodicSchedule.of(1, 1, 1)], feasible_fn()
        )
        path = [s.counts for s, _ in result.traces[0].path]
        for a, b in zip(path, path[1:]):
            assert sum(abs(x - y) for x, y in zip(a, b)) == 1

    def test_cheaper_than_exhaustive(self):
        evaluator = FakeEvaluator(concave_peak((3, 2, 3)))
        result = hybrid_search(
            evaluator, [PeriodicSchedule.of(1, 1, 1)], feasible_fn()
        )
        # The full box has 8^3 = 512 schedules; the walk must touch few.
        assert result.n_evaluations < 60

    def test_multi_start_shares_cache_but_counts_per_start(self):
        evaluator = FakeEvaluator(concave_peak((2, 2, 2)))
        result = hybrid_search(
            evaluator,
            [PeriodicSchedule.of(1, 1, 1), PeriodicSchedule.of(4, 4, 4)],
            feasible_fn(),
        )
        assert result.best_schedule.counts == (2, 2, 2)
        assert len(result.traces) == 2
        # Requested evaluations per start sum to at least the union size.
        assert result.n_evaluations >= evaluator.n_schedule_evaluations


class TestConstraints:
    def test_never_moves_to_infeasible_point(self):
        # Feasible box m_i <= 3, objective pulls toward (5, 1, 1).
        evaluator = FakeEvaluator(concave_peak((5, 1, 1)))
        result = hybrid_search(
            evaluator, [PeriodicSchedule.of(1, 1, 1)], feasible_fn(3)
        )
        assert result.best_schedule.counts == (3, 1, 1)
        for schedule, _ in result.traces[0].path:
            assert all(c <= 3 for c in schedule.counts)

    def test_settling_infeasible_blocks_moves(self):
        """Points violating eq. (3) (discovered post-evaluation) are
        evaluated but never moved into — the paper's 'second best
        direction' rule."""
        bad = {(2, 1, 1)}
        evaluator = FakeEvaluator(
            concave_peak((3, 1, 1)),
            feasible=lambda counts: counts not in bad,
        )
        # A detour around the blocked point temporarily worsens the
        # objective, so the tolerance feature must be enabled.
        result = hybrid_search(
            evaluator,
            [PeriodicSchedule.of(1, 1, 1)],
            feasible_fn(),
            HybridOptions(tolerance=0.06),
        )
        visited = {s.counts for s, _ in result.traces[0].path}
        assert (2, 1, 1) not in visited
        assert (2, 1, 1) in set(evaluator.calls)  # evaluated, then rejected
        assert result.best_schedule.counts == (3, 1, 1)  # detour succeeded

    def test_infeasible_start_rejected(self):
        evaluator = FakeEvaluator(concave_peak((1, 1, 1)))
        with pytest.raises(SearchError):
            hybrid_search(evaluator, [PeriodicSchedule.of(9, 9, 9)], feasible_fn(3))

    def test_empty_starts_rejected(self):
        with pytest.raises(SearchError):
            hybrid_search(FakeEvaluator(concave_peak((1, 1, 1))), [], feasible_fn())


class TestTolerance:
    def make_two_peak_landscape(self):
        """A 1-D-ish landscape with a small dip between two peaks:
        f(m,1,1): m=1: 0.5, m=2: 0.6, m=3: 0.55, m=4: 0.9."""
        values = {1: 0.5, 2: 0.6, 3: 0.55, 4: 0.9}

        def objective(counts):
            m = counts[0]
            penalty = 0.2 * (counts[1] - 1 + counts[2] - 1)
            return values.get(m, 0.0) - penalty

        return objective

    def test_zero_tolerance_traps_at_local_peak(self):
        evaluator = FakeEvaluator(self.make_two_peak_landscape())
        result = hybrid_search(
            evaluator,
            [PeriodicSchedule.of(1, 1, 1)],
            feasible_fn(4),
            HybridOptions(tolerance=0.0),
        )
        assert result.best_schedule.counts == (2, 1, 1)

    def test_tolerance_escapes_shallow_dip(self):
        """The paper's simulated-annealing-style feature: accepting a
        small loss walks through the dip to the global peak."""
        evaluator = FakeEvaluator(self.make_two_peak_landscape())
        result = hybrid_search(
            evaluator,
            [PeriodicSchedule.of(1, 1, 1)],
            feasible_fn(4),
            HybridOptions(tolerance=0.08),
        )
        assert result.best_schedule.counts == (4, 1, 1)
        assert result.best_value == pytest.approx(0.9)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(SearchError):
            HybridOptions(tolerance=-0.1)


# ---------------------------------------------------------------------------
# Lockstep rounds vs the sequential walk
# ---------------------------------------------------------------------------


def _sequential_walk(evaluator, idle_feasible_fn, start, options):
    """The hybrid walk as it ran before lockstep rounds: one start at a
    time, every value fetched from the (caching) evaluator on demand.
    Kept verbatim as the reference oracle."""
    requested = set()

    def value(schedule):
        requested.add(schedule.counts)
        return evaluator.evaluate(schedule).overall

    if not idle_feasible_fn(start):
        raise SearchError(f"start schedule {start} violates the idle-time bound")

    trace_path = []
    current = start
    current_value = value(current)
    trace_path.append((current, current_value))
    visited = {current.counts}

    for _ in range(options.max_steps):
        dim_neighbors = []
        batch = []
        for dim in range(current.n_apps):
            plus = current.neighbor(dim, +1)
            minus = current.neighbor(dim, -1)
            if plus is not None and not idle_feasible_fn(plus):
                plus = None
            if minus is not None and not idle_feasible_fn(minus):
                minus = None
            dim_neighbors.append((plus, minus))
            batch.extend(n for n in (plus, minus) if n is not None)
        requested.update(n.counts for n in batch)
        neighbor_values = {n.counts: evaluator.evaluate(n).overall for n in batch}

        gradients = []
        for plus, minus in dim_neighbors:
            v_plus = neighbor_values[plus.counts] if plus is not None else None
            v_minus = neighbor_values[minus.counts] if minus is not None else None
            if v_plus is not None and v_minus is not None:
                gradients.append((v_plus - v_minus) / 2.0)
            elif v_plus is not None:
                gradients.append(v_plus - current_value)
            elif v_minus is not None:
                gradients.append(current_value - v_minus)
            else:
                gradients.append(None)

        candidates = []
        for dim, gradient in enumerate(gradients):
            if gradient is None:
                continue
            for sign in (+1, -1):
                target = current.neighbor(dim, sign)
                if target is None or target.counts not in neighbor_values:
                    continue
                candidates.append((sign * gradient, target))
        candidates.sort(key=lambda item: item[0], reverse=True)

        moved = False
        for _rate, target in candidates:
            if target.counts in visited:
                continue
            target_eval = evaluator.evaluate(target)
            if not target_eval.feasible:
                continue
            accept = (
                not math.isfinite(current_value)
                or target_eval.overall >= current_value - options.tolerance
            )
            if accept:
                current = target
                current_value = target_eval.overall
                trace_path.append((current, current_value))
                visited.add(current.counts)
                moved = True
                break
        if not moved:
            break
    return trace_path, len(requested)


def _sequential_search(evaluator, starts, idle_feasible_fn, options):
    """(best counts, best value, [(path, n_evaluations)]) of the
    sequential multi-start search, or its ``SearchError`` message."""
    try:
        walks = [
            _sequential_walk(evaluator, idle_feasible_fn, start, options)
            for start in starts
        ]
    except SearchError as exc:
        return str(exc)
    best = None
    for path, _n in walks:
        for schedule, _v in path:
            candidate = evaluator.evaluate(schedule)
            if candidate.feasible and (best is None or candidate.overall > best.overall):
                best = candidate
    if best is None:
        return "no feasible schedule found from any start"
    return best.schedule.counts, best.overall, walks


class BatchRecordingEvaluator(FakeEvaluator):
    """A fake with a batch entry point that records every batch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def evaluate_batch(self, schedules):
        self.batches.append([s.counts for s in schedules])
        return [self.evaluate(s) for s in schedules]


@st.composite
def landscapes(draw):
    """A random objective table on a small box, settling-infeasible and
    idle-infeasible sets, a tolerance, a step limit and start lists
    (duplicates allowed, sometimes an idle-infeasible start)."""
    n_apps = draw(st.integers(1, 3))
    limit = draw(st.integers(1, 5))
    box = list(itertools.product(range(1, limit + 1), repeat=n_apps))
    # Coarse levels make ties (equal gradients) common; -inf is an
    # unscorable design.
    level = st.one_of(
        st.integers(0, 8).map(lambda k: k / 8), st.just(-math.inf)
    )
    table = {counts: draw(level) for counts in box}
    settling_bad = draw(st.sets(st.sampled_from(box), max_size=len(box) // 3))
    idle_bad = draw(st.sets(st.sampled_from(box), max_size=len(box) // 3))
    point = st.sampled_from(box)
    starts = draw(st.lists(point, min_size=1, max_size=12))
    if draw(st.booleans()):
        starts += draw(st.lists(st.sampled_from(starts), max_size=4))
    options = HybridOptions(
        tolerance=draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])),
        max_steps=draw(st.integers(1, 10)),
    )
    return table, settling_bad, idle_bad, starts, options


class TestLockstepMatchesSequential:
    @given(landscapes())
    @settings(max_examples=300, deadline=None)
    def test_same_result_paths_and_counts(self, problem):
        table, settling_bad, idle_bad, starts, options = problem

        def objective(counts):
            return table.get(counts, 0.0)

        def feasible(counts):
            return counts not in settling_bad

        def idle_ok(schedule):
            return schedule.counts in table and schedule.counts not in idle_bad

        schedules = [PeriodicSchedule(counts) for counts in starts]
        expected = _sequential_search(
            FakeEvaluator(objective, feasible), schedules, idle_ok, options
        )
        evaluator = BatchRecordingEvaluator(objective, feasible)
        if isinstance(expected, str):
            with pytest.raises(SearchError) as excinfo:
                hybrid_search(evaluator, schedules, idle_ok, options)
            assert str(excinfo.value) == expected
        else:
            result = hybrid_search(evaluator, schedules, idle_ok, options)
            best_counts, best_value, walks = expected
            assert result.best_schedule.counts == best_counts
            assert result.best_value == best_value
            assert len(result.traces) == len(walks)
            for trace, start, (path, n_evaluations) in zip(
                result.traces, schedules, walks
            ):
                assert trace.start == start
                assert trace.path == path
                assert trace.n_evaluations == n_evaluations
            assert result.n_evaluations == sum(n for _p, n in walks)
        assert all(len(batch) <= _ROUND_BATCH for batch in evaluator.batches)
        submitted = [counts for batch in evaluator.batches for counts in batch]
        assert len(submitted) == len(set(submitted))

    def test_idle_infeasible_start_among_many_raises(self):
        evaluator = BatchRecordingEvaluator(concave_peak((2, 2, 2)))
        starts = [PeriodicSchedule.of(1, 1, 1), PeriodicSchedule.of(9, 9, 9)]
        with pytest.raises(SearchError, match="idle-time bound"):
            hybrid_search(evaluator, starts, feasible_fn(3))
