"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload casestudy-cold --seed 2018 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same timed pass untraced, then again traced (the
same number of operations), and prints the per-layer metrics plus the
tracing overhead.  The last line of standard output is always
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
progress and details go to standard error.  The program under test is
imported from this checkout's ``src/`` and nowhere else.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads (pool workers inherit it).  The
# operations are serial Python over small matrices: on a two-CPU host a
# second OpenBLAS thread made a standard-profile case-study search slower
# (43 s against 41 s, with 20% more CPU), and next to one busy process it
# slowed a many-core search by ~20% where one thread did not slow it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` (or exit non-zero)."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(package.parent))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {package}")
    # Everything a workload touches, so set-up time includes the imports.
    import repro.multicore.allocators  # noqa: F401
    import repro.serve.client  # noqa: F401
    import repro.serve.testing  # noqa: F401
    import repro.study  # noqa: F401


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def timed_pass(workload, seconds: float, count: int | None = None, tracer=None, **options):
    """Closed loop: run operations back to back until the next one would
    end past ``seconds`` (at least one), or exactly ``count`` of them.
    Returns the operations and the pass's wall time.  Spans a ``tracer``
    records carry the index of the operation they belong to; ``options``
    go to every ``workload.operation`` call."""
    from workloads import Op

    ops: list[Op] = []
    started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run = len(ops)
        gc.collect()  # each operation starts without the last one's garbage
        try:
            op = workload.operation(**options)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            op = Op(time.perf_counter() - started, 0.0, [], [f"{type(exc).__name__}: {exc}"])
        ops.append(op)
        log(f"{workload.name} op {len(ops) - 1}: {op.job_s:.4f} s")
        for problem in op.problems:
            log(f"{workload.name} op {len(ops) - 1}: {problem}")
        typical = statistics.median(o.job_s for o in ops)
        done = len(ops) >= count if count is not None else (
            time.perf_counter() - started + typical > seconds
        )
        if done:
            return ops, time.perf_counter() - started


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with at least ten
    samples beyond it; (0, 0) when there are ten samples or fewer."""
    n = len(latencies)
    if n <= 10:
        return 0.0, 0.0
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup_s: float, ops) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "solve_s": statistics.median(op.solve_s for op in ops),
        "evals_per_s": statistics.median(op.served / op.job_s for op in ops),
        "job_p50_s": statistics.median(op.job_s for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, tracer, seconds, ops, wall, traced, traced_wall):
    """Per-layer metrics of the traced pass, the self-test problems and
    the extra operations run for them (the serial many-core baseline)."""
    import boundaries

    metrics = boundaries.layer_metrics(
        tracer.spans, tracer.counters, [r for op in traced for r in op.reports], len(traced)
    )
    metrics["trace.overhead"] = traced_wall / wall - 1.0
    workload_only = (
        "serve.queue_wait_s", "serve.overhead_s", "serve.messages",
        "serve.job_tail_s", "serve.job_tail_pct", "serve.jobs",
        "multicore.serial_s", "multicore.pool.speedup",
    )
    metrics.update(dict.fromkeys(workload_only, 0.0))
    extra = []
    if workload.name == "resweep-served":
        inside = boundaries.run_seconds(tracer, ("study.build", "study.run"))
        latency, percentile = tail([op.job_s for op in ops])
        metrics.update(
            {
                "serve.queue_wait_s": statistics.median(op.queue_wait_s for op in traced),
                "serve.overhead_s": statistics.median(
                    op.job_s - inside.get(index, 0.0) for index, op in enumerate(traced)
                ),
                "serve.messages": statistics.median(op.messages for op in traced),
                "serve.job_tail_s": latency,
                "serve.job_tail_pct": percentile,
                "serve.jobs": float(len(ops)),
            }
        )
        log(
            f"job latency p50 {statistics.median(op.job_s for op in ops):.4f} s, "
            f"p{percentile:.1f} {latency:.4f} s over {len(ops)} jobs"
        )
    elif workload.name == "manycore-pool":
        # The timed passes are the single-threaded baseline; one traced
        # run of the same problem on the worker pool gives the pool layer.
        from workloads import MANYCORE_WORKERS

        tracer.run = "pool"
        tracer.active = True
        extra, _ = timed_pass(workload, seconds, count=1, workers=MANYCORE_WORKERS)
        tracer.active = False
        pool = boundaries.layer_metrics(
            [span for span in tracer.spans if span.run == "pool"], {}, extra[0].reports, 1
        )
        metrics.update(
            {name: value for name, value in pool.items() if name.startswith("multicore.")}
        )
        serial_s = statistics.median(op.solve_s for op in ops)
        metrics["multicore.serial_s"] = serial_s
        metrics["multicore.pool.speedup"] = serial_s / extra[0].solve_s if extra[0].solve_s else 0.0
    return metrics, boundaries.self_test(workload.name, tracer, metrics), extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    e2e_units, layer_units = declared_metrics()
    import_program()
    imports_s = time.perf_counter() - _STARTED

    import boundaries
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK))
    workload = WORKLOADS[args.workload](run_dir, args.seed)
    tracer = Tracer()
    extra: list = []
    problems: list[str] = []
    try:
        setup_s = imports_s + workload.setup()
        extra.extend(workload.fills)
        log(f"{args.workload} seed {args.seed}: set-up {setup_s:.3f} s")
        ops, wall = timed_pass(workload, args.seconds)
        if args.trace:
            boundaries.install(tracer)
            tracer.active = True
            traced, traced_wall = timed_pass(
                workload, args.seconds, count=len(ops), tracer=tracer
            )
            tracer.active = False
            metrics, problems, baseline = per_layer(
                workload, tracer, args.seconds, ops, wall, traced, traced_wall
            )
            extra.extend(traced + baseline)
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
            units = layer_units
        else:
            metrics = end_to_end(setup_s, ops)
            units = e2e_units
    finally:
        workload.close()
        tracer.restore()
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems:
        log(f"self-test: {problem}")
    missing = sorted(set(units) - set(metrics))
    if missing:
        sys.exit(f"perfbench: no value for declared metrics {', '.join(missing)}")
    everything = ops + extra
    failed = sum(1 for op in everything if op.problems)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    log(f"error_rate {failed / len(everything):.4f} ({failed} of {len(everything)} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
