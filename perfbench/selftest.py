"""Self-test of the benchmark: run every workload traced and check it.

Usage (from the root of a checkout; about five minutes on two cores)::

    python3 perfbench/selftest.py [--seed 2018] [--seconds 2]

Each traced run already checks its own outputs and the boundary table
of ``boundaries.FIRES_ON``: every boundary its row names the workload
for fires at least once, ``resweep-served`` designs no controller and
no ``multicore.*`` metric moves outside ``manycore-pool``.  A wrapped
name that a refactor renamed or moved makes the run fail before it
measures anything.  This script runs the three workloads that way and
exits non-zero unless every run reports ``"correct": true``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    failures = []
    for name in WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "1",
        ]
        completed = subprocess.run(
            command, cwd=HERE.parent, capture_output=True, text=True, timeout=300
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            failures.append(f"{name}: exit {completed.returncode}")
            print(completed.stderr, file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        fired = sorted(
            metric for metric, entry in result["metrics"].items()
            if metric.endswith((".calls", ".s")) and entry["value"] != 0
        )
        print(f"{name}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"non-zero layers: {', '.join(fired)}")
        if not result["correct"]:
            failures.append(f"{name}: not correct")
            print(completed.stderr, file=sys.stderr)
    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
