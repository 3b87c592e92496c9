"""sinkmass benchmark runner.

Run from the repository root:

    python3 benchmarks/run.py --workload neural_cv --seed 1 --seconds 15 --trace 0

Workloads: neural_cv, linear_protocol, pipeline_infer (see NOTES.md). The
run sets up the workload several times and reports the median set-up time,
then repeats the timed phase once per REP_SECONDS of --seconds (at least
once) and reports the median repetition. With --trace 0 the result carries
the end-to-end metrics; with --trace 1 untraced and traced repetitions
alternate and the result carries the per-layer metrics. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the environment. The run works in a fresh directory under
.bench_work/ and deletes it before exiting.
"""

import os

# BLAS thread pools are sized when numpy loads, so pin them first.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import instrument  # noqa: E402
from spans import Recorder  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 3  # set-ups per untraced run; setup_s is their median

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["neural_cv", "linear_protocol", "pipeline_infer"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no statistical checks, for check_bypass.py")
    return parser.parse_args(argv)


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None  # not a git checkout, or a packed ref


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": workload,
        "seed": seed,
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def set_up(workload, workdir: Path, times: int) -> float:
    """Median seconds of ``times`` set-ups, each into a fresh directory; the
    last one stays for the timed phase. Deleting old files is not timed."""
    seconds = []
    for i in range(times):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup(workdir / f"setup-{i}")
        seconds.append(time.perf_counter() - t0)
        if i:
            shutil.rmtree(workdir / f"setup-{i - 1}", ignore_errors=True)
    return statistics.median(seconds)


def repetition(workload, workdir: Path, index: int, recorder=None):
    """One timed repetition, judged after the clock (and tracing) stopped."""
    repdir = workdir / f"rep-{index}"
    repdir.mkdir(parents=True)
    if recorder is not None:
        instrument.install_all(recorder)
    gc.collect()
    t0 = time.perf_counter()
    try:
        raw = workload.run(repdir)
    finally:
        wall = time.perf_counter() - t0
        if recorder is not None:
            recorder.uninstall()
    outcome = workload.judge(raw, repdir)
    shutil.rmtree(repdir)
    return wall, outcome


def _verdict(outcomes, reference) -> tuple[bool, int, int]:
    problems = [p for o in outcomes for p in o.problems]
    problems += [
        f"repetition {i} primary outputs differ from the first untraced repetition"
        for i, o in enumerate(outcomes) if o.outputs != reference.outputs
    ]
    for p in problems:
        print(f"benchmark: check failed: {p}", file=sys.stderr)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return failed == 0 and not problems, attempted, failed


def outcome_values(outcome) -> dict:
    return {
        "outcome.mdape": outcome.mdape,
        "outcome.taxon_accuracy": outcome.taxon_accuracy,
        "np_float64_repr_cells": outcome.np_repr_cells,
    }


def repetitions(workload, seconds: float) -> int:
    """How many repetitions a run of ``seconds`` makes: fixed by the
    benchmark, not by how fast the measured code is, so every commit is
    measured over the same work."""
    return max(1, round(seconds / workload.REP_SECONDS))


def run_untraced(workload, workdir: Path, seconds: float):
    setup_s = set_up(workload, workdir, SETUPS)
    walls, outcomes = [], []
    for index in range(repetitions(workload, seconds)):
        wall, outcome = repetition(workload, workdir, index)
        walls.append(wall)
        outcomes.append(outcome)
    correct, attempted, failed = _verdict(outcomes, outcomes[0])
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": _peak_rss_mb(),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    details = {"repetitions": len(walls), "wall_s_each": walls, **outcome_values(outcomes[-1])}
    return correct, attempted, failed, metrics, details


def run_traced(workload, workdir: Path, seconds: float):
    setup_recorder = Recorder()
    instrument.install_all(setup_recorder)
    try:
        set_up(workload, workdir, 1)
    finally:
        setup_recorder.uninstall()
    plain_walls, traced_walls, outcomes, per_rep = [], [], [], []
    for index in range(max(1, repetitions(workload, seconds) // 2)):
        pair = [None, Recorder()]
        if index % 2:
            pair.reverse()  # alternate which side runs first
        for recorder in pair:
            wall, outcome = repetition(workload, workdir, len(outcomes), recorder)
            outcomes.append(outcome)
            if recorder is None:
                plain_walls.append(wall)
            else:
                traced_walls.append(wall)
                per_rep.append(instrument.layer_metrics(recorder))
    correct, attempted, failed = _verdict(outcomes, outcomes[0])
    setup_values = instrument.layer_metrics(setup_recorder)
    values = {}
    outcome = outcome_values(outcomes[-1])
    for name in instrument.PER_LAYER:
        if name.startswith(instrument.SETUP_PREFIX):
            values[name] = setup_values[name]
        elif name.startswith(instrument.OUTCOME_PREFIX):
            values[name] = outcome[name]
        else:
            values[name] = statistics.median(r[name] for r in per_rep)
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics = {k: {"value": v, "unit": instrument.unit(k)} for k, v in values.items()}
    details = {"repetitions": len(traced_walls), "wall_s_untraced": plain_walls,
               "wall_s_traced": traced_walls, **outcome}
    return correct, attempted, failed, metrics, details


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "sinkmass" / "__init__.py").is_file():
        print(f"benchmark: no sinkmass sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics, details = run(workload, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still works there
    print(json.dumps({"environment": environment(args.workload, args.seed), **details}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
