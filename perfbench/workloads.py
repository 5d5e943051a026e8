"""The three benchmark workloads: set-up, one operation, output checks.

An *operation* is what a user waits on: one co-design search
(``casestudy-cold``, ``manycore-pool``: build the study, run it) or one
served job (``resweep-served``: submit, follow the event stream until
``done``).  Each operation's outputs are checked with ``==`` against a
reference; a mismatch counts as a failed operation.

Why these three (see README.md for the metric -> layer map):

* ``casestudy-cold`` — the paper's time-to-solution, cold store.  Control
  design is ~99% of it, so a faster design kernel shows here.
* ``resweep-served`` — warm resweeps through ``repro serve``: control
  computes nothing; WCET analysis, feasibility enumeration, the cache
  read path and the wire carry the time.  The bypass case for control.
* ``manycore-pool`` — the many-core partition sweep, timed serially and
  traced also on the worker pool; the only workload that runs the
  multicore and pool layers.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Set-ups repeated per run for a median set-up time (cold workloads).
SETUP_REPEATS = 5
#: resweep-served: server starts and cache fills per run for its median
#: set-up time (a single fill's time spread 0.36 of its median over five
#: seeds).  Each fill is a cold search of ~10-15 s; more would not fit
#: the time all benchmark runs together may take.
FILL_REPEATS = 2

#: casestudy-cold and resweep-served: random hybrid starts per search.
#: With 48 starts a search requests 75-77 of the 77 schedules past the
#: memo whatever the seed (seeds 1-15), so the work per operation barely
#: moves with the seed; 24 starts requested 66-76, two computed 12-36.
CASESTUDY_STARTS = 48
#: The optimum and its value under the ``quick`` profile (an exhaustive
#: search of all 77 idle-feasible schedules agrees).
CASESTUDY_BEST = [2, 2, 2]
CASESTUDY_OVERALL = 0.6152287936507937
#: The default seed, whose search must land exactly on that optimum.
DEFAULT_SEED = 2018

#: manycore-pool: the case study's applications, partitioned onto this
#: many private-cache cores; the traced run's pool pass uses this many
#: workers.  A search takes ~1.9-2.9 s, so a 30-s run holds ten or more
#: and reports their median: 4 applications took 3.4-6 s as the host's speed
#: drifted, and 12-s runs that held one or two of those spread 0.13 of
#: their median over ten seeds, the single-search runs reading slowest.
MANYCORE_APPS = 3
MANYCORE_CORES = 3
MANYCORE_WORKERS = 2
#: Burst-length cap per core: bounds the cores' schedule spaces to 26
#: evaluations (the optimum is the same as under cap 3).
MANYCORE_MAX_COUNT = 2
#: Reference result at that size (the workload ignores the seed).
MANYCORE_OVERALL = 0.6987068214285714
MANYCORE_PARTITIONS = 5


@dataclass
class Op:
    """One operation's timings, reports and check failures."""

    job_s: float
    solve_s: float
    reports: list
    problems: list[str] = field(default_factory=list)
    queue_wait_s: float = 0.0
    messages: int = 0

    @property
    def served(self) -> int:
        """Evaluations requested past the in-memory memo: computed, read
        from disk or deduplicated within a batch.  Memo hits are free
        repeats whose number follows the search path, not the code."""
        return sum(
            r.engine_stats.get("n_requested", 0) - r.engine_stats.get("n_memo_hits", 0)
            for r in self.reports
        )


def _design(profile: str):
    from repro.experiments.profiles import design_options_for_profile

    return design_options_for_profile(profile)


class _ColdSearch:
    """Shared shape of the two direct-library cold workloads: each
    operation builds a study on a fresh, empty cache dir and runs it."""

    #: Operations set-up ran, checked like the timed ones (none here).
    fills: tuple[Op, ...] = ()

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed

    def build(self, cache_dir: Path, workers: int):
        raise NotImplementedError

    def check(self, reports: list, cache_dir: Path) -> list[str]:
        raise NotImplementedError

    def setup(self) -> float:
        """Median time of :data:`SETUP_REPEATS` problem builds."""
        times = []
        for _ in range(SETUP_REPEATS):
            with tempfile.TemporaryDirectory(dir=self.work) as cache_dir:
                started = time.perf_counter()
                self.build(Path(cache_dir), self.workers)
                times.append(time.perf_counter() - started)
        return statistics.median(times)

    def operation(self, workers: int | None = None) -> Op:
        cache_dir = Path(tempfile.mkdtemp(dir=self.work))
        try:
            started = time.perf_counter()
            study = self.build(cache_dir, self.workers if workers is None else workers)
            built = time.perf_counter()
            reports = study.run()
            finished = time.perf_counter()
            problems = self.check(reports, cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return Op(finished - started, finished - built, reports, problems)

    def close(self) -> None:
        pass


class CaseStudyCold(_ColdSearch):
    """The paper's case study, hybrid search, ``quick`` profile,
    serial, against a fresh empty persistent cache.

    Not the ``standard`` profile: its one search took 41-70 s as the
    host's speed drifted, so every run held a single search, and its
    runs alone took half the time all benchmark runs together may take,
    leaving 12-s runs to the other workloads, whose medians then spread
    0.12-0.27 over ten seeds.  Under ``quick`` a search takes ~8-14 s and
    control design still does nearly all of it.
    """

    name = "casestudy-cold"
    workers = 0

    def build(self, cache_dir: Path, workers: int):
        from repro.sched.engine import EngineOptions
        from repro.study import Study

        return Study.from_case_study(
            _design("quick"),
            strategy="hybrid",
            n_starts=CASESTUDY_STARTS,
            seed=self.seed,
            engine_options=EngineOptions(workers=workers, cache_dir=cache_dir),
        )

    def check(self, reports: list, cache_dir: Path) -> list[str]:
        from repro.sched.engine import PersistentCache, evaluation_from_dict
        from repro.sched.engine.keys import evaluation_key
        from repro.sched.schedule import PeriodicSchedule

        if len(reports) != 1:
            return [f"expected one report, got {len(reports)}"]
        report = reports[0]
        problems = []
        if report.best_schedule == CASESTUDY_BEST:
            if report.overall != CASESTUDY_OVERALL:
                problems.append(
                    f"overall {report.overall!r} at {CASESTUDY_BEST} "
                    f"!= {CASESTUDY_OVERALL!r}"
                )
        elif self.seed == DEFAULT_SEED or not report.overall < CASESTUDY_OVERALL:
            problems.append(f"best schedule {report.best_schedule}")
        # The write path: every computed evaluation is on disk, and the
        # stored best row decodes to the reported value.
        with PersistentCache(cache_dir) as store:
            n_rows = len(store)
            payload = store.get(
                evaluation_key(
                    report.problem, PeriodicSchedule(tuple(report.best_schedule))
                )
            )
        computed = report.engine_stats.get("n_computed", -1)
        if n_rows != computed:
            problems.append(f"{n_rows} stored rows != {computed} computed")
        if payload is None or evaluation_from_dict(payload).overall != report.overall:
            problems.append("stored best evaluation differs from the report")
        return problems


class ManycorePool(_ColdSearch):
    """The case study's applications partitioned onto private-cache
    cores by the greedy allocator.

    The timed operations run serially: on a two-CPU host shared with
    other machines, the wall time of the two-worker pool spread 0.29 of
    its median over six runs where the serial run of the same problem,
    timed right before, spread 0.08.  A traced run adds one run on
    :data:`MANYCORE_WORKERS` pool workers for the pool layer's metrics
    and the speed-up over the serial runs.
    """

    name = "manycore-pool"
    workers = 0

    def build(self, cache_dir: Path, workers: int):
        from repro.sched.engine import EngineOptions
        from repro.study import Study

        return Study.from_case_study(
            _design("quick"),
            n_cores=MANYCORE_CORES,
            n_apps=MANYCORE_APPS,
            max_count_per_core=MANYCORE_MAX_COUNT,
            allocator="greedy",
            engine_options=EngineOptions(workers=workers, cache_dir=cache_dir),
        )

    def check(self, reports: list, cache_dir: Path) -> list[str]:
        if len(reports) != 1:
            return [f"expected one report, got {len(reports)}"]
        report = reports[0]
        problems = []
        if report.overall != MANYCORE_OVERALL:
            problems.append(f"overall {report.overall!r} != {MANYCORE_OVERALL!r}")
        n_partitions = report.search_stats.get("n_partitions")
        if n_partitions != MANYCORE_PARTITIONS:
            problems.append(
                f"{n_partitions} partitions != {MANYCORE_PARTITIONS}"
            )
        return problems


class ResweepServed:
    """Warm resweeps of the case study through an in-process ``repro
    serve`` (real sockets), one closed-loop client.

    Set-up fills the server's shared cache with one cold job of the
    same spec (twice over, on fresh servers, for a median); every timed
    job then rebuilds the scenario (WCET analysis), enumerates the
    idle-feasible space, replays the search on disk hits, writes reports
    and the ledger and streams its events.

    The served problem is the case study, not a synthesized suite: a
    suite drawn from the benchmark seed changes its per-job work by
    about +-25% from one seed to the next (2- vs 3-application
    scenarios, space sizes), more than any bound can absorb, while the
    case study's work barely moves with the search seed.
    """

    name = "resweep-served"

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.server = None
        self.client = None
        #: The first set-up fill's overall per report; every other fill
        #: and every warm job must reproduce it exactly.
        self.reference: list[float] | None = None
        self.fills: list[Op] = []

    def spec(self):
        from repro.serve.jobs import JobSpec

        return JobSpec(
            kind="search",
            strategy="hybrid",
            n_starts=CASESTUDY_STARTS,
            seed=self.seed,
            resume=False,
        )

    def setup(self) -> float:
        """Median time of :data:`FILL_REPEATS` set-ups, each a server
        start on a fresh run dir plus the cache fill by one cold job of
        the spec.  The timed jobs go to the last server."""
        import os

        from repro.serve.client import ServeClient
        from repro.serve.testing import ServerThread

        # Served jobs take their design budget from the environment.
        os.environ["REPRO_PROFILE"] = "quick"
        times = []
        for _ in range(FILL_REPEATS):
            self.close()
            started = time.perf_counter()
            self.server = ServerThread(
                run_dir=tempfile.mkdtemp(dir=self.work), max_jobs=1, engine_workers=0
            )
            self.server.__enter__()
            self.client = ServeClient(self.server.url, timeout=120.0)
            fill = self.operation()
            times.append(time.perf_counter() - started)
            overalls = [report.overall for report in fill.reports]
            first = [report.overall for report in self.fills[0].reports] if self.fills else overalls
            if overalls != first:
                fill.problems.append(f"fill overalls {overalls} != first fill {first}")
            self.fills.append(fill)
        self.reference = first
        return statistics.median(times)

    def operation(self) -> Op:
        from repro.study.report import RunReport

        started = time.perf_counter()
        record = self.client.submit(self.spec())
        messages = 0
        for _message in self.client.watch(record.id):
            messages += 1
        latency = time.perf_counter() - started
        record = self.client.job(record.id)
        if record.state != "done":
            return Op(latency, 0.0, [], [f"job {record.id}: {record.state} {record.error}"])
        reports = [RunReport.from_dict(data) for data in record.reports or []]
        problems = []
        if self.reference is not None:
            overalls = [report.overall for report in reports]
            if overalls != self.reference:
                problems.append(f"job overalls {overalls} != fill {self.reference}")
            computed = sum(r.engine_stats.get("n_computed", 0) for r in reports)
            if computed != 0:
                problems.append(f"warm job computed {computed} evaluations")
        return Op(
            latency,
            record.finished_at - record.started_at,
            reports,
            problems,
            queue_wait_s=record.started_at - record.submitted_at,
            messages=messages,
        )

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {
    cls.name: cls for cls in (CaseStudyCold, ResweepServed, ManycorePool)
}
