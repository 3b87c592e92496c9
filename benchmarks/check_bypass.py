"""Self-check of the benchmark itself, at tiny input sizes.

Runs every workload with --smoke, untraced and traced, and asserts that:

* the printed metric names and units are exactly those in BENCHMARK.json;
* each run is correct, including the byte-identity of traced and untraced
  primary outputs;
* every layer predicted to be bypassed on a workload records zero, and the
  layers the workload exists to exercise record work;
* on the CLI workloads the cli.* spans cover the traced repetition's wall time.

Run from the repository root (takes well under a minute):

    python3 benchmarks/check_bypass.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BACKWARD = [f"neural.layers.{k}_backward.s" for k in ("maxpool2", "relu", "gap", "affine")] + [
    f"neural.layers.conv3_backward.{b}.{m}" for b in ("b0", "b1") for m in ("s", "flop")
]
TRAINING = [
    "neural.optim.adamw_step.calls",
    "neural.model.backward.calls",
    "neural.augment.augment_array.calls",
    "neural.losses.regression_loss.s",
    "neural.training.train.calls",
] + BACKWARD
# Only the pipeline's set-up trains a classifier, and set-up is not traced
# into the timed-phase metrics.
CLASSIFIER_TRAINING = ["neural.losses.cross_entropy.s"]
LINEAR = ["linear.build_rows.rows", "linear.fit_ols.calls", "linear.predict_specimen.calls"]
INGEST = [
    "ingest.parse_frame_csv.calls",
    "ingest.load_raster.calls",
    "ingest.load_manifest.s",
    "ingest.bytes_read",
]

ABSENT = {
    "neural_cv": CLASSIFIER_TRAINING + INGEST + LINEAR + [
        "synth.write_synth_output.s",
        "cli.pipeline.s",
        "outcome.taxon_accuracy",
    ],
    "linear_protocol": CLASSIFIER_TRAINING + TRAINING + [
        "neural.model.forward_cached.calls",
        "ingest.load_raster.calls",
        "experiments.crossval_neural.s",
        "outcome.taxon_accuracy",
    ],
    "pipeline_infer": CLASSIFIER_TRAINING + TRAINING + LINEAR + [
        "experiments.crossval_linear.s",
    ],
}
PRESENT = {
    "neural_cv": TRAINING + [
        "experiments.crossval_neural.s",
        "neural.layers.conv3_forward.b1.flop",
        "synth.generate.s",
    ],
    "linear_protocol": LINEAR + [
        "ingest.parse_frame_csv.calls",
        "features.compute_features.calls",
        "evaluation.attach_bootstrap.s",
        "synth.write_synth_output.s",
    ],
    "pipeline_infer": [
        "ingest.load_raster.calls",
        "records.Dataset.subset.useful_ratio",
        "neural.training.build_samples.useful_ratio",
        "neural.model.forward_cached.batch_fill",
        "neural.training.predict_taxa.s",
        "evaluation.ks_two_sample.calls",
    ],
}
CLI_WORKLOADS = ("linear_protocol", "pipeline_infer")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return details, result


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(ABSENT), spec["workloads"]
    for workload in ABSENT:
        for trace in (0, 1):
            details, result = run(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want[trace], (workload, trace, set(got) ^ set(want[trace]))
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            if not trace:
                continue
            values = {name: m["value"] for name, m in result["metrics"].items()}
            for name in ABSENT[workload]:
                assert values[name] == 0, f"{workload}: {name} = {values[name]}, predicted absent"
            for name in PRESENT[workload]:
                assert values[name] > 0, f"{workload}: {name} = {values[name]}, predicted present"
            if workload in CLI_WORKLOADS:
                cli_s = sum(v for name, v in values.items() if name.startswith("cli."))
                traced = statistics.median(details["wall_s_traced"])
                assert 0.8 * traced <= cli_s <= traced, (workload, cli_s, traced)
            print(f"{workload}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
