"""The layer boundaries the benchmark times, and the per-layer metrics.

:func:`install` wraps each layer's public entry point under the name its
caller looks it up by (see :mod:`spans`).  :func:`layer_metrics` folds
the recorded spans of one traced pass into the per-layer metrics of
``BENCHMARK.json``; :data:`FIRES_ON` is the benchmark's self-test table:
the workloads on which each boundary must fire at least once.
"""

from __future__ import annotations

import json

from spans import Tracer

#: Boundary span name -> workloads on which it must fire (self-test).
#: ``control.oracle`` and the ``concrete``/``analytic`` WCET models lie
#: on no workload's default path; they are measured but not required.
FIRES_ON: dict[str, tuple[str, ...]] = {
    "control.design": ("casestudy-cold",),
    "control.pso": ("casestudy-cold",),
    "control.oracle": (),
    "wcet.static": ("casestudy-cold", "resweep-served", "manycore-pool"),
    "wcet.concrete": (),
    "wcet.analytic": (),
    "sched.feasibility": ("casestudy-cold", "resweep-served", "manycore-pool"),
    "sched.engine": ("casestudy-cold", "resweep-served"),
    "sched.store.get": ("casestudy-cold", "resweep-served", "manycore-pool"),
    "sched.store.put": ("casestudy-cold", "manycore-pool"),
    "sched.serialize": ("casestudy-cold", "resweep-served", "manycore-pool"),
    "sched.strategy": ("casestudy-cold", "resweep-served"),
    "multicore.allocator": ("manycore-pool",),
    "multicore.pool": ("manycore-pool",),
    "multicore.engine": ("manycore-pool",),
    "study.build": ("casestudy-cold", "resweep-served", "manycore-pool"),
    "study.run": ("casestudy-cold", "resweep-served", "manycore-pool"),
    "study.report": ("resweep-served",),
}


class _CountingJson:
    """Stand-in for the ``json`` module as the evaluation store sees it:
    counts the bytes of every row it encodes or decodes (payloads are
    ASCII JSON, so characters are bytes)."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def loads(self, text, *args, **kwargs):
        self._tracer.add("sched.store.bytes_read", len(text))
        return json.loads(text, *args, **kwargs)

    def dumps(self, obj, *args, **kwargs):
        text = json.dumps(obj, *args, **kwargs)
        self._tracer.add("sched.store.bytes_written", len(text))
        return text


def install(tracer: Tracer) -> None:
    """Wrap every boundary of :data:`FIRES_ON` (and the store's codec)."""
    import repro.control.lockstep as lockstep
    import repro.multicore.partition as partition
    import repro.sched.engine.batch as batch
    import repro.sched.engine.engine as engine
    import repro.sched.engine.partitioned as partitioned
    import repro.sched.engine.store as store
    import repro.sched.evaluator as evaluator
    import repro.study.study as study
    from repro.multicore.allocators import available_allocators, get_allocator
    from repro.sched.strategies import available_strategies, get_strategy
    from repro.study.report import RunReport
    from repro.wcet.models import available_wcet_models, get_wcet_model

    def n_first_arg(args, _kwargs, _result):
        return len(args[0])

    def n_second_arg(args, _kwargs, _result):
        return len(args[1])

    def n_result(_args, _kwargs, result):
        return len(result)

    tracer.trace(evaluator, "design_controllers_batch", "control.design", n_first_arg)
    tracer.trace(lockstep, "pso_minimize_many", "control.pso")
    tracer.trace(evaluator, "design_controller", "control.oracle")
    tracer.trace(lockstep, "design_controller", "control.oracle")
    for name in available_wcet_models():
        tracer.trace(type(get_wcet_model(name)), "analyze", f"wcet.{name}")
    tracer.trace(batch, "enumerate_idle_feasible", "sched.feasibility", n_result)
    tracer.trace(partition, "enumerate_idle_feasible", "sched.feasibility", n_result)
    tracer.trace(engine.SearchEngine, "evaluate_batch", "sched.engine", n_second_arg)
    tracer.trace(store.PersistentCache, "get", "sched.store.get")
    tracer.trace(store.PersistentCache, "put_many", "sched.store.put", n_second_arg)
    tracer.patch(store, "json", _CountingJson(tracer))
    for module in (engine, partitioned):
        tracer.trace(module, "evaluation_from_dict", "sched.serialize")
        tracer.trace(module, "evaluation_to_dict", "sched.serialize")
    for name in available_strategies():
        tracer.trace(type(get_strategy(name)), "run", "sched.strategy")
    for name in available_allocators():
        cls = type(get_allocator(name))
        _trace_stream(tracer, cls, "partitions", "multicore.allocator")
    _trace_pool_map(tracer, partitioned.PartitionedPoolBackend)
    tracer.trace(
        partitioned.PartitionedSearchEngine,
        "evaluate_pairs",
        "multicore.engine",
        n_second_arg,
    )
    tracer.trace(study.Study, "from_case_study", "study.build")
    tracer.trace(study.Study, "from_suite", "study.build")
    tracer.trace(study.Study, "run", "study.run")
    tracer.trace(RunReport, "to_json", "study.report", n_result)


def _trace_stream(tracer: Tracer, owner: type, attr: str, name: str) -> None:
    """Time a method that returns a lazy stream: the call itself and
    every item drawn from the stream, one span each (count = items)."""
    call = tracer.wrap(name, vars(owner)[attr])

    def traced(*args, **kwargs):
        stream = call(*args, **kwargs)
        return tracer.iterate(name, stream) if tracer.recording() else stream

    tracer.patch(owner, attr, traced)


def _trace_pool_map(tracer: Tracer, backend: type) -> None:
    """Time the pool backend's ``map`` (the parent-side wait) and count
    the chunks it dispatched from its affinity router's counters."""
    original = vars(backend)["map"]

    def dispatched(pool) -> int:
        return pool.affinity.total_hits + pool.affinity.steals

    def traced(pool, tasks):
        if not tracer.recording():
            return original(pool, tasks)
        before = dispatched(pool)
        span = tracer.open("multicore.pool")
        try:
            return original(pool, tasks)
        finally:
            tracer.close(span)
            span.count = dispatched(pool) - before

    tracer.patch(backend, "map", traced)


def _totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and count.

    A span nested inside a span of the same name is already covered by
    the outer one's duration, so it adds to calls and count only.
    """
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(
            span.name, {"calls": 0.0, "s": 0.0, "self_s": 0.0, "count": 0.0}
        )
        entry["calls"] += 1
        entry["count"] += span.count
        entry["self_s"] += span.self_time
        if not span.nested_in_same_name():
            entry["s"] += span.duration
    return totals


def layer_metrics(
    spans: list, counters: dict, reports: list, n_ops: int
) -> dict[str, float]:
    """The per-layer metrics of one traced pass, per operation.

    ``spans`` and ``counters`` are what the tracer recorded in the pass,
    ``reports`` its ``RunReport``\\ s (their ``EngineStats`` give the
    engine counts), ``n_ops`` the operations (searches or served jobs)
    it ran.
    """
    totals = _totals(spans)

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0) / n_ops

    stats = {
        key: sum(report.engine_stats.get(key, 0) for report in reports) / n_ops
        for key in (
            "n_requested",
            "n_memo_hits",
            "n_disk_hits",
            "n_computed",
            "n_affinity_hits",
            "n_affinity_steals",
        )
    }
    partitions = sum(
        report.search_stats.get("n_partitions", 0)
        for report in reports
        if report.n_cores > 1
    )
    metrics = {
        "control.design.calls": get("control.design", "calls"),
        "control.design.units": get("control.design", "count"),
        "control.design.s": get("control.design", "s"),
        "control.pso.s": get("control.pso", "s"),
        "control.oracle.calls": get("control.oracle", "calls"),
        "control.oracle.s": get("control.oracle", "s"),
    }
    for model in ("static", "concrete", "analytic"):
        metrics[f"wcet.{model}.calls"] = get(f"wcet.{model}", "calls")
        metrics[f"wcet.{model}.s"] = get(f"wcet.{model}", "s")
    requested = stats["n_requested"]
    metrics.update(
        {
            "sched.feasibility.calls": get("sched.feasibility", "calls"),
            "sched.feasibility.s": get("sched.feasibility", "s"),
            "sched.feasibility.space": get("sched.feasibility", "count"),
            "sched.engine.requested": requested,
            "sched.engine.memo_hits": stats["n_memo_hits"],
            "sched.engine.disk_hits": stats["n_disk_hits"],
            "sched.engine.computed": stats["n_computed"],
            "sched.engine.hit_ratio": (
                1.0 - stats["n_computed"] / requested if requested else 0.0
            ),
            "sched.engine.self_s": get("sched.engine", "self_s"),
            "sched.store.get.calls": get("sched.store.get", "calls"),
            "sched.store.get.s": get("sched.store.get", "s"),
            "sched.store.bytes_read": counters.get("sched.store.bytes_read", 0.0)
            / n_ops,
            "sched.store.put.rows": get("sched.store.put", "count"),
            "sched.store.put.s": get("sched.store.put", "s"),
            "sched.store.bytes_written": counters.get("sched.store.bytes_written", 0.0)
            / n_ops,
            "sched.serialize.s": get("sched.serialize", "s"),
            "sched.strategy.s": get("sched.strategy", "s"),
            "sched.strategy.self_s": get("sched.strategy", "self_s"),
            "multicore.allocator.s": get("multicore.allocator", "s"),
            "multicore.partitions": partitions / n_ops,
            "multicore.pool.s": get("multicore.pool", "s"),
            "multicore.pool.chunks": get("multicore.pool", "count"),
            "multicore.affinity_hits": stats["n_affinity_hits"],
            "multicore.affinity_steals": stats["n_affinity_steals"],
            "multicore.engine.self_s": get("multicore.engine", "self_s"),
            "study.run.s": get("study.run", "s"),
            "study.build.s": get("study.build", "s"),
            "study.report.s": get("study.report", "s"),
            "study.report.bytes": get("study.report", "count"),
        }
    )
    return metrics


def run_seconds(tracer: Tracer, names: tuple[str, ...]) -> dict[object, float]:
    """Per run id: the summed duration of the outermost spans named."""
    per_run: dict[object, float] = {}
    for span in tracer.spans:
        if span.name in names and not span.nested_in_same_name():
            per_run[span.run] = per_run.get(span.run, 0.0) + span.duration
    return per_run


def self_test(workload: str, tracer: Tracer, metrics: dict) -> list[str]:
    """The benchmark's own checks on one traced pass; the problems found.

    Every boundary its row names this workload for must have fired, the
    served resweep must design no controller, and no ``multicore.*``
    metric may move outside ``manycore-pool``.
    """
    fired = {span.name for span in tracer.spans}
    problems = [
        f"boundary {name} never fired on {workload}"
        for name, workloads in FIRES_ON.items()
        if workload in workloads and name not in fired
    ]
    if workload == "resweep-served" and metrics["control.design.calls"] != 0:
        problems.append(
            f"resweep-served designed controllers "
            f"({metrics['control.design.calls']} calls per job)"
        )
    if workload != "manycore-pool":
        problems.extend(
            f"{name} = {value} outside manycore-pool"
            for name, value in metrics.items()
            if name.startswith("multicore.") and value != 0
        )
    return problems
