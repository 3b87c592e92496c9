"""Count the minor page faults of in-process neural crossvals, run by run.

Each run is a fresh Python process that sets up ``neural_cv``'s inputs from
``benchmarks/workloads.py`` (the benchmark's synthetic rasters and its
metadata-aware CNN, five folds) and runs ``crossval_neural`` on them
CROSSVALS times in a row. Each crossval's count is the process's
``ru_minflt`` after it minus the count before it, so imports and set-up are
left out; the run's count is their sum. BLAS is pinned to one thread, as
the benchmark pins it. The script prints one line per run, then one JSON
line with the run counts, their median and their range.

A single crossval's count depends on the state the allocator reached before
it. On one CPU and unchanged code, running from this script or from a
``python3 -c`` line, importing four more standard modules first, or not
writing bytecode moved one crossval's count between 13K and 26K, and the
second and third crossvals of one process read 1.7K-15K. So a run sums
three crossvals.

From the repository root:

    python3 tools/fault_probe.py                  # folds on up to two threads
    taskset -c 0 python3 tools/fault_probe.py     # everything on one CPU
    python3 tools/fault_probe.py --src <parent checkout>/src

Fault counts at two threads spread widely from run to run (allocator arenas
are made and trimmed as the threads interleave), so compare medians over
several runs per side. Only the standard library, NumPy and sinkmass are
used; nothing under ``benchmarks/`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CROSSVALS = 3  # per run, summed


def count_faults(src: Path, seed: int) -> list[int]:
    """Minor faults of each of CROSSVALS crossval_neural calls on
    neural_cv's inputs, one after another in this process."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under benchmarks/
    sys.path[:0] = [str(src), str(ROOT / "benchmarks")]
    from workloads import NeuralCV

    workload = NeuralCV(seed, False)
    workload.setup(None)
    faults = []
    for _ in range(CROSSVALS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if workload.run(None) is None:  # the workload logged the failure to stderr
            raise SystemExit("crossval_neural failed")
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="processes to run (default 5)")
    parser.add_argument("--seed", type=int, default=5, help="neural_cv's workload seed")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the sinkmass source tree to import (default: this checkout's)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(count_faults(args.src, args.seed)))
        return 0
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    command = [sys.executable, __file__, "--child", "--seed", str(args.seed),
               "--src", str(args.src.resolve())]
    faults = []
    for run in range(1, args.runs + 1):
        child = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return 1
        each = json.loads(child.stdout.splitlines()[-1])
        faults.append(sum(each))
        print(f"run {run}: {faults[-1]} minor faults ({' + '.join(map(str, each))})", flush=True)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(json.dumps({"seed": args.seed, "cpus": cpus, "crossvals": CROSSVALS,
                      "faults": faults, "median": statistics.median(faults),
                      "min": min(faults), "max": max(faults)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
