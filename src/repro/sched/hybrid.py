"""The paper's hybrid search over the discrete schedule space (Section IV).

A gradient-based local search in the spirit of SQP, adapted to the
discrete decision space and equipped with two simulated-annealing-style
escape features:

* per-dimension 1-D quadratic models — for every application ``i`` the
  overall performance is evaluated at the two neighbors ``m_i ± 1`` and
  the model's gradient at the current point is the central difference;
  building all ``n`` models costs at most ``2n`` evaluations (fewer when
  values are already cached, exactly as the paper notes);
* step size fixed at 1: the next point is the closest neighbor along the
  chosen direction;
* the direction with the largest positive gradient is tried first; if
  the target violates feasibility (idle time, eq. (4), checked upfront;
  settling deadline, eq. (3), known after evaluation) the next-best
  direction is tried, and so on;
* a *tolerance threshold*: a move is accepted if it loses at most
  ``tolerance`` of overall performance, which lets the search walk out
  of shallow local optima (the paper's "we do not insist improvement");
* parallel searches from multiple random starts share the evaluator's
  cache (:func:`hybrid_search` takes a list of starts) and advance in
  lockstep rounds: each round evaluates every live walk's next requests
  together, in a few wide batches, and every walk takes the same path
  it would take alone.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Mapping
from dataclasses import dataclass

from ..errors import SearchError
from .evaluator import ScheduleEvaluation, ScheduleEvaluator, evaluate_many
from .results import SearchResult, SearchTrace
from .schedule import PeriodicSchedule


@dataclass(frozen=True)
class HybridOptions:
    """Knobs of the hybrid search."""

    tolerance: float = 0.0
    max_steps: int = 64

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise SearchError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.max_steps < 1:
            raise SearchError(f"max_steps must be >= 1, got {self.max_steps}")


#: Most schedules one engine batch of a lockstep round holds.  A round
#: fuses every walk's requests, and the lockstep design kernel's peak
#: memory grows with batch width: on the case study searched from 48
#: starts, unbounded rounds raised peak RSS by 12.5% over one walk at a
#: time, widths 24 / 16 / 12 by 6.1 / 3.6 / 2.5-2.9%, at the same speed.
_ROUND_BATCH = 12

_Walk = Generator[
    list[PeriodicSchedule], Mapping[tuple[int, ...], ScheduleEvaluation], None
]


def _walk(trace: SearchTrace, idle_feasible_fn, options: HybridOptions) -> _Walk:
    """One gradient walk from ``trace.start``, as a coroutine.

    Yields the schedules it needs evaluated next and is sent back a
    mapping (counts -> evaluation) that holds them; records its path and
    evaluation count in ``trace``.
    """
    start = trace.start
    requested = {start.counts}
    evaluations = yield [start]
    current = start
    current_value = evaluations[start.counts].overall
    trace.path.append((current, current_value))
    visited = {current.counts}

    for _ in range(options.max_steps):
        # Request the idle-feasible +-1 neighbors of every dimension
        # together: the 2n model evaluations of a step are independent.
        dim_neighbors: list[tuple[PeriodicSchedule | None, PeriodicSchedule | None]] = []
        batch: list[PeriodicSchedule] = []
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
        evaluations = yield batch

        # Build the n per-dimension quadratic models.
        gradients: list[float | None] = []
        for plus, minus in dim_neighbors:
            v_plus = evaluations[plus.counts].overall if plus is not None else None
            v_minus = evaluations[minus.counts].overall if minus is not None else None
            if v_plus is not None and v_minus is not None:
                gradients.append((v_plus - v_minus) / 2.0)
            elif v_plus is not None:
                gradients.append(v_plus - current_value)
            elif v_minus is not None:
                gradients.append(current_value - v_minus)
            else:
                gradients.append(None)

        # Candidate moves ranked by modeled improvement rate.
        candidates: list[tuple[float, PeriodicSchedule]] = []
        for dim, gradient in enumerate(gradients):
            if gradient is None:
                continue
            for sign, target in zip((+1, -1), dim_neighbors[dim]):
                if target is not None:
                    candidates.append((sign * gradient, target))
        candidates.sort(key=lambda item: item[0], reverse=True)

        moved = False
        for _rate, target in candidates:
            if target.counts in visited:
                continue
            target_eval = evaluations[target.counts]
            if not target_eval.feasible:
                continue  # eq. (3)/(4) violated: next-best direction
            accept = (
                not math.isfinite(current_value)
                or target_eval.overall >= current_value - options.tolerance
            )
            if accept:
                current = target
                current_value = target_eval.overall
                trace.path.append((current, current_value))
                visited.add(current.counts)
                moved = True
                break
        if not moved:
            break

    trace.n_evaluations = len(requested)


def _evaluate_round(
    evaluator: ScheduleEvaluator,
    requests: list[PeriodicSchedule],
    evaluations: dict[tuple[int, ...], ScheduleEvaluation],
) -> None:
    """Evaluate the round's not-yet-held requests into ``evaluations``.

    Duplicates go once, in first-seen order, in engine batches of at
    most :data:`_ROUND_BATCH` schedules.
    """
    fresh = [s for s in dict.fromkeys(requests) if s.counts not in evaluations]
    for lo in range(0, len(fresh), _ROUND_BATCH):
        chunk = fresh[lo : lo + _ROUND_BATCH]
        evaluations.update(
            zip((s.counts for s in chunk), evaluate_many(evaluator, chunk))
        )


def hybrid_search(
    evaluator: ScheduleEvaluator,
    starts: list[PeriodicSchedule],
    idle_feasible_fn,
    options: HybridOptions | None = None,
) -> SearchResult:
    """Parallel hybrid searches from the given start schedules.

    Parameters
    ----------
    evaluator:
        Shared (cached) schedule evaluator.
    starts:
        One or more start schedules; the paper uses two random starts.
    idle_feasible_fn:
        ``schedule -> bool`` implementing eq. (4); typically
        ``lambda s: idle_feasible(s, apps, clock)``.
    options:
        Tolerance and step limits.

    Returns
    -------
    SearchResult
        Best feasible evaluation across all starts, per-start traces and
        the per-start evaluation counts the paper reports.
    """
    if not starts:
        raise SearchError("need at least one start schedule")
    options = options or HybridOptions()
    for start in starts:
        if not idle_feasible_fn(start):
            raise SearchError(f"start schedule {start} violates the idle-time bound")

    # Advance all walks in lockstep rounds: every live walk's request of
    # a round is evaluated together, then each walk takes its next step.
    # A walk reads only evaluations, which do not depend on the batch
    # that computed them, so it takes the same path as it would alone.
    traces = [SearchTrace(start=start) for start in starts]
    pending: dict[_Walk, list[PeriodicSchedule]] = {}
    for trace in traces:
        walk = _walk(trace, idle_feasible_fn, options)
        pending[walk] = next(walk)
    evaluations: dict[tuple[int, ...], ScheduleEvaluation] = {}
    while pending:
        _evaluate_round(
            evaluator, [s for batch in pending.values() for s in batch], evaluations
        )
        for walk in list(pending):
            try:
                pending[walk] = walk.send(evaluations)
            except StopIteration:
                del pending[walk]

    best_eval = None
    for trace in traces:
        for schedule, _v in trace.path:
            candidate = evaluations[schedule.counts]
            if not candidate.feasible:
                continue
            if best_eval is None or candidate.overall > best_eval.overall:
                best_eval = candidate
    if best_eval is None:
        raise SearchError("no feasible schedule found from any start")
    return SearchResult(
        best=best_eval,
        n_evaluations=sum(trace.n_evaluations for trace in traces),
        traces=traces,
    )
