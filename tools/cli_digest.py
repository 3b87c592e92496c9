"""Digest every sinkmass CLI command, one JSON line per invocation.

Runs each command in-process on small synthetic datasets, one of frame CSVs
only, one with 16x16 PGM rasters and a copy of the latter whose first
specimen's rasters are cropped to 12x12 (so ingest mirror-pads them back to
16x16), and on hand-written one-specimen frame CSVs in odd spellings or with
one violation each, inside a fresh temporary directory and with relative paths, so that
two checkouts give comparable digests. For each invocation it prints the
case name, the argv, the exit code, the SHA-256 of stdout and of stderr, and
the SHA-256 of every file the invocation wrote or changed.

Cases marked ``ok`` are the success path; the script exits 1 if any of them
exits non-zero or writes anything to stderr. The other cases are bad flags,
bad inputs and output paths that cannot be written, digested so that a
change to the CLI contract shows up as a differing line.

    PYTHONPATH=src python3 tools/cli_digest.py > change.jsonl
    PYTHONPATH=<parent checkout>/src python3 tools/cli_digest.py > parent.jsonl
    diff parent.jsonl change.jsonl

Only the standard library and sinkmass are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from sinkmass import cli
from sinkmass.ingest import load_raster, save_raster

GROUPS = [
    {"name": "light", "density_range": [1.3, 1.5], "size_lognormal": [1.6, 0.12],
     "count": 12, "aspect_range": [1.2, 1.5]},
    {"name": "dense", "density_range": [2.4, 2.8], "size_lognormal": [1.6, 0.12],
     "count": 12, "aspect_range": [1.9, 2.2]},
]
MODEL = {"architecture": "single_view", "encoder_channels": [2, 4], "head": "one_layer",
         "target_space": "log", "input_size": 16}
TRAIN = {"loss": "l1", "loss_space": "log", "epochs": 2, "batch_size": 32}
CONFIGS = {
    "frames.json": {"groups": GROUPS, "dt": 8.0, "n_max": 6},
    "rasters.json": {"groups": GROUPS, "dt": 8.0, "n_max": 6, "raster_dims": [16, 16]},
    "seeded_synth.json": {"groups": GROUPS, "dt": 8.0, "n_max": 6, "seed": 5},
    "train.json": {"model": MODEL, "train": TRAIN},
    "meta.json": {
        "model": {**MODEL, "architecture": "metadata_aware",
                  "metadata_inputs": ["frame_area", "mean_area", "sinking_speed"]},
        "train": {**TRAIN, "augmentation": "flips90"},
    },
    "cls.json": {"model": {**MODEL, "task": "classification"}, "train": TRAIN},
    "ft.json": {"train": {**TRAIN, "freeze": "encoder"}},
    "multi_view.json": {
        "model": {**MODEL, "architecture": "multi_view", "head": "two_layer", "head_hidden": 8},
        "train": TRAIN,
    },
    "ft_meta.json": {"train": {**TRAIN, "freeze": "encoder_metadata"}},
    # the two augmentations whose images come out float64
    "rotation.json": {"model": MODEL, "train": {**TRAIN, "augmentation": "continuous_rotation"}},
    "photometric_multi_view.json": {
        "model": {**MODEL, "architecture": "multi_view"},
        "train": {**TRAIN, "augmentation": "photometric_lite"},
    },
    "ft_model.json": {"model": {**MODEL, "architecture": "multi_view"}, "train": TRAIN},
    "seeded_train.json": {"model": MODEL, "train": {**TRAIN, "seed": 5}},
    "n_classes.json": {"model": {**MODEL, "n_classes": 2}, "train": TRAIN},
    "mass_models.json": {"light": "linear_r/linear_model.json", "dense": "reg/checkpoint.json"},
    "one_raster_side.json": {"groups": GROUPS, "dt": 8.0, "n_max": 6, "raster_dims": [16]},
    "non_square_rasters.json": {"groups": GROUPS, "dt": 8.0, "n_max": 6, "raster_dims": [16, 20]},
    "one_density_bound.json": {
        "groups": [{**GROUPS[0], "density_range": [1.3]}], "dt": 8.0, "n_max": 6,
    },
    # area noise that clamps some frames' areas to 0, painted as blank rasters
    "zero_area.json": {
        "groups": [GROUPS[0]], "dt": 8.0, "n_max": 6, "raster_dims": [16, 16],
        "area_noise_cv": 0.6,
    },
    # silhouettes of about 110 pixels, whose ellipses cannot fit a 16x16 raster
    "silhouette_too_large.json": {
        "groups": [{**GROUPS[0], "name": "huge", "size_lognormal": [2.6, 0.05]}],
        "dt": 8.0, "n_max": 6, "raster_dims": [16, 16],
    },
}
# the raster side the padded copy crops its first specimen to
CROP = 12
# hand-written frame CSVs of one specimen, written as hand/<name>.csv with a
# one-entry manifest hand/<name>.json: a plain file, then one change each
HAND_ROWS = ["A,0,300,320,5,25,50.0", "A,1,260,280,5,25,52.5", "A,2,220,240,5,25,51.0",
             "B,0,300,320,5,25,49.0", "B,1,260,280,5,25,50.5", "B,2,220,240,5,25,53.0"]
HAND_CHANGES = {
    "plain": {},
    "top_not_below_bottom": {1: "A,1,280,260,5,25,52.5"},
    "left_not_left_of_right": {2: "A,2,220,240,25,5,51.0"},
    "negative_area": {3: "B,0,300,320,5,25,-1.0"},
    "area_over_box": {4: "B,1,260,280,5,25,400.5"},
    "index_not_increasing": {4: "B,2,260,280,5,25,50.5", 5: "B,1,220,240,5,25,53.0"},
    "padded_camera": {1: " A ,1,260,280,5,25,52.5"},
    "underscore_digits": {0: "A,0,3_00,320,5,25,50.0"},
    "malformed_row": {1: "A,1,260,abc,5,25,52.5"},
    "beyond_int64": {2: "A,2,220,9223372036854775808,5,25,51.0"},
}
# output trees with a directory at one output file name, and one with a file
# where synth makes its frames directory
BLOCKED_DIRS = (
    "blocked_evaluate/metrics.json",
    "blocked_crossval/splits.json",
    "blocked_features/features.csv",
    "blocked_fit_linear/linear_model.json",
    "blocked_ingest/dataset_summary.json",
    "blocked_report/report.csv",
)
BLOCKED_FILE = "blocked_synth/frames"

F = ("--manifest", "frames/manifest.json")
R = ("--manifest", "rasters/manifest.json")
P = ("--manifest", "padded/manifest.json")
LINEAR = ("--model", "linear/linear_model.json")
PIPE = ("--classifier", "cls/checkpoint.json")

# (name, expected outcome, argv); later cases read what earlier ones wrote,
# and the error cases write to "x", which is emptied before each case, or to
# one of the blocked trees
CASES = [
    ("synth_frames", "ok", ("synth", "--seed", 11, "--config", "frames.json", "--out", "frames")),
    ("synth_rasters", "ok",
     ("synth", "--seed", 21, "--config", "rasters.json", "--out", "rasters", "--threads", 1)),
    ("synth_other_seed", "ok",
     ("synth", "--seed", 12, "--config", "frames.json", "--out", "frames12")),
    ("synth_zero_area", "ok",
     ("synth", "--seed", 1, "--config", "zero_area.json", "--out", "zero_area")),
    ("ingest_frames", "ok", ("ingest", *F, "--out", "ingest_frames")),
    ("ingest_rasters", "ok",
     ("ingest", *R, "--name", "r", "--raster-size", 16, 16, "--out", "ingest_rasters")),
    ("features_stdout", "ok", ("features", *F)),
    ("features_out", "ok", ("features", *R, "--threads", 2, "--out", "features")),
    ("fit_linear", "ok", ("fit-linear", *F, "--out", "linear")),
    ("fit_linear_log", "ok",
     ("fit-linear", *F, "--features", "area_speed", "--target", "log", "--per-specimen",
      "--out", "linear_log")),
    ("evaluate", "ok", ("evaluate", *F, *LINEAR, "--out", "eval")),
    ("evaluate_bootstrap", "ok",
     ("evaluate", *F, *LINEAR, "--bootstrap", 50, "--level", 0.9, "--seed", 2,
      "--name", "e", "--method", "lin", "--out", "eval_boot")),
    ("evaluate_unused_seed", "ok", ("evaluate", *F, *LINEAR, "--seed", 2, "--out", "eval_seed")),
    ("crossval_area", "ok",
     ("crossval", *F, "--model", "linear-area", "--seed", 3, "--out", "cv_area")),
    ("crossval_speed_log", "ok",
     ("crossval", *F, "--model", "linear-area-speed", "--target", "log", "--per-specimen",
      "--folds", 3, "--name", "c", "--method", "m", "--seed", 3, "--out", "cv_speed")),
    ("crossval_neural", "ok",
     ("crossval", *R, "--model", "neural", "--config", "meta.json", "--folds", 2, "--seed", 3,
      "--out", "cv_neural")),
    # an odd fold count: on two CPUs one fold-fitting thread takes two folds
    ("crossval_neural_three_folds", "ok",
     ("crossval", *R, "--model", "neural", "--config", "multi_view.json", "--folds", 3,
      "--seed", 3, "--out", "cv_neural_three")),
    ("ood_linear", "ok",
     ("ood", *F, "--model", "linear-area", "--holdout", "dense", "--seed", 3,
      "--out", "ood_linear")),
    ("ood_neural", "ok",
     ("ood", *R, "--model", "neural", "--config", "train.json", "--holdout", "dense",
      "--seed", 3, "--out", "ood_neural")),
    ("train_regressor", "ok", ("train", *R, "--config", "train.json", "--seed", 4, "--out", "reg")),
    ("train_classifier", "ok", ("train", *R, "--config", "cls.json", "--seed", 9, "--out", "cls")),
    ("train_fold", "ok",
     ("train", *R, "--config", "train.json", "--fold", 1, "--folds", 3, "--seed", 4,
      "--out", "reg_fold")),
    ("finetune", "ok",
     ("finetune", *R, "--base", "reg/checkpoint.json", "--config", "ft.json", "--seed", 6,
      "--out", "tuned")),
    ("train_multi_view", "ok",
     ("train", *R, "--config", "multi_view.json", "--seed", 4, "--out", "mv")),
    ("finetune_multi_view", "ok",
     ("finetune", *R, "--base", "mv/checkpoint.json", "--config", "ft_meta.json", "--seed", 6,
      "--out", "mv_tuned")),
    ("evaluate_regressor", "ok",
     ("evaluate", *R, "--model", "reg/checkpoint.json", "--out", "eval_reg")),
    ("evaluate_multi_view", "ok",
     ("evaluate", *R, "--model", "mv/checkpoint.json", "--out", "eval_mv")),
    ("fit_linear_rasters", "ok", ("fit-linear", *R, "--out", "linear_r")),
    ("pipeline_mass_model", "ok",
     ("pipeline", *R, *PIPE, "--mass-model", "tuned/checkpoint.json", "--out", "pipe")),
    ("pipeline_multi_view", "ok",
     ("pipeline", *R, *PIPE, "--mass-model", "mv/checkpoint.json", "--out", "pipe_mv")),
    ("pipeline_mass_models", "ok",
     ("pipeline", *R, *PIPE, "--mass-models", "mass_models.json", "--out", "pipe_map")),
    ("ingest_padded", "ok", ("ingest", *P, "--out", "ingest_padded")),
    ("train_padded", "ok",
     ("train", *P, "--config", "train.json", "--seed", 4, "--out", "reg_padded")),
    ("pipeline_padded", "ok",
     ("pipeline", *P, *PIPE, "--mass-model", "reg_padded/checkpoint.json",
      "--out", "pipe_padded")),
    ("report", "ok",
     ("report", "eval_boot/metrics.json", "cv_area/crossval_report.json",
      "ood_neural/metrics.json", "--out", "report")),
    ("train_metadata", "ok", ("train", *R, "--config", "meta.json", "--seed", 4, "--out", "meta")),
    ("finetune_metadata", "ok",
     ("finetune", *R, "--base", "meta/checkpoint.json", "--config", "ft_meta.json", "--seed", 6,
      "--out", "meta_tuned")),
    ("train_rotation", "ok",
     ("train", *R, "--config", "rotation.json", "--seed", 4, "--out", "rotation")),
    ("train_photometric_multi_view", "ok",
     ("train", *R, "--config", "photometric_multi_view.json", "--seed", 4,
      "--out", "photometric_mv")),
    # flags a command does not read
    ("ingest_seed", "error", ("ingest", *F, "--seed", 1, "--out", "x")),
    ("ingest_config", "error", ("ingest", *F, "--config", "train.json", "--out", "x")),
    ("features_seed", "error", ("features", *F, "--seed", 1)),
    ("features_config", "error", ("features", *F, "--config", "train.json")),
    ("features_name", "error", ("features", *F, "--name", "n")),
    ("fit_linear_seed", "error", ("fit-linear", *F, "--seed", 1, "--out", "x")),
    ("fit_linear_config", "error", ("fit-linear", *F, "--config", "train.json", "--out", "x")),
    ("fit_linear_name", "error", ("fit-linear", *F, "--name", "n", "--out", "x")),
    ("evaluate_config", "error", ("evaluate", *F, *LINEAR, "--config", "train.json", "--out", "x")),
    ("train_name", "error",
     ("train", *R, "--config", "train.json", "--seed", 4, "--name", "n", "--out", "x")),
    ("finetune_name", "error",
     ("finetune", *R, "--base", "reg/checkpoint.json", "--seed", 6, "--name", "n", "--out", "x")),
    ("pipeline_seed", "error",
     ("pipeline", *R, *PIPE, "--mass-model", "reg/checkpoint.json", "--seed", 1, "--out", "x")),
    ("pipeline_config", "error",
     ("pipeline", *R, *PIPE, "--mass-model", "reg/checkpoint.json", "--config", "train.json",
      "--out", "x")),
    ("pipeline_name", "error",
     ("pipeline", *R, *PIPE, "--mass-model", "reg/checkpoint.json", "--name", "n", "--out", "x")),
    ("report_seed", "error", ("report", "eval/metrics.json", "--seed", 1, "--out", "x")),
    ("report_config", "error",
     ("report", "eval/metrics.json", "--config", "train.json", "--out", "x")),
    # combinations the chosen --model ignores
    ("crossval_linear_config", "error",
     ("crossval", *F, "--model", "linear-area", "--config", "train.json", "--seed", 3,
      "--out", "x")),
    ("crossval_neural_target", "error",
     ("crossval", *R, "--model", "neural", "--config", "train.json", "--target", "raw",
      "--folds", 2, "--seed", 3, "--out", "x")),
    ("ood_neural_per_specimen", "error",
     ("ood", *R, "--model", "neural", "--config", "train.json", "--per-specimen",
      "--holdout", "dense", "--seed", 3, "--out", "x")),
    ("pipeline_both_mass_flags", "error",
     ("pipeline", *R, *PIPE, "--mass-model", "reg/checkpoint.json",
      "--mass-models", "mass_models.json", "--out", "x")),
    # missing required flags
    ("pipeline_no_mass_flag", "error", ("pipeline", *R, *PIPE, "--out", "x")),
    ("synth_no_seed", "error", ("synth", "--config", "frames.json", "--out", "x")),
    ("synth_no_out", "error", ("synth", "--seed", 1, "--config", "frames.json")),
    ("crossval_no_seed", "error", ("crossval", *F, "--model", "linear-area", "--out", "x")),
    ("train_no_seed", "error", ("train", *R, "--config", "train.json", "--out", "x")),
    ("ingest_no_out", "error", ("ingest", *F)),
    ("report_no_out", "error", ("report", "eval/metrics.json")),
    ("evaluate_bootstrap_no_seed", "error",
     ("evaluate", *F, *LINEAR, "--bootstrap", 50, "--out", "x")),
    # bad values and bad inputs
    ("synth_config_seed", "error",
     ("synth", "--seed", 1, "--config", "seeded_synth.json", "--out", "x")),
    ("train_config_seed", "error",
     ("train", *R, "--config", "seeded_train.json", "--seed", 4, "--out", "x")),
    ("ingest_infinite_mass", "error", ("ingest", "--manifest", "inf.json", "--out", "x")),
    ("crossval_nan_mass", "error",
     ("crossval", "--manifest", "nan.json", "--model", "linear-area", "--seed", 3, "--out", "x")),
    ("crossval_one_fold", "error",
     ("crossval", *F, "--model", "linear-area", "--folds", 1, "--seed", 3, "--out", "x")),
    ("train_fold_past_last", "error",
     ("train", *R, "--config", "train.json", "--fold", 7, "--seed", 4, "--out", "x")),
    ("evaluate_one_bootstrap_draw", "error",
     ("evaluate", *F, *LINEAR, "--bootstrap", 1, "--seed", 2, "--out", "x")),
    ("features_zero_threads", "error", ("features", *F, "--threads", 0)),
    ("pipeline_trim", "error",
     ("pipeline", *R, *PIPE, "--mass-model", "reg/checkpoint.json", "--trim", 0.1, "--out", "x")),
    ("ood_unknown_taxon", "error",
     ("ood", *F, "--model", "linear-area", "--holdout", "krill", "--seed", 3, "--out", "x")),
    ("unknown_command", "error", ("estimate",)),
    ("synth_one_raster_side", "error",
     ("synth", "--seed", 1, "--config", "one_raster_side.json", "--out", "x")),
    ("synth_non_square_rasters", "error",
     ("synth", "--seed", 1, "--config", "non_square_rasters.json", "--out", "x")),
    ("synth_one_density_bound", "error",
     ("synth", "--seed", 1, "--config", "one_density_bound.json", "--out", "x")),
    ("synth_silhouette_too_large", "error",
     ("synth", "--seed", 1, "--config", "silhouette_too_large.json", "--out", "x")),
    ("train_duplicate_id", "error",
     ("train", "--manifest", "dup.json", "--config", "train.json", "--seed", 4, "--out", "x")),
    ("pipeline_regressor_with_taxa", "error",
     ("pipeline", *R, "--classifier", "reg_taxa.json", "--mass-model", "reg/checkpoint.json",
      "--out", "x")),
    ("evaluate_nan_weight", "error",
     ("evaluate", *R, "--model", "reg_nan.json", "--out", "x")),
    ("evaluate_infinite_weight", "error",
     ("evaluate", *R, "--model", "reg_inf.json", "--out", "x")),
    ("evaluate_weight_beyond_float32", "error",
     ("evaluate", *R, "--model", "reg_1e39.json", "--out", "x")),
    ("train_n_classes", "error",
     ("train", *R, "--config", "n_classes.json", "--seed", 4, "--out", "x")),
    ("evaluate_linear_nan_intercept", "error",
     ("evaluate", *F, "--model", "linear_nan.json", "--out", "x")),
    ("evaluate_linear_infinite_intercept", "error",
     ("evaluate", *F, "--model", "linear_inf.json", "--out", "x")),
    ("evaluate_linear_mass_overflow", "error",
     ("evaluate", *F, "--model", "linear_1000.json", "--out", "x")),
    ("finetune_model_section", "error",
     ("finetune", *R, "--base", "reg/checkpoint.json", "--config", "ft_model.json", "--seed", 6,
      "--out", "x")),
    ("features_out_is_a_file", "error", ("features", *F, "--out", "frames.json")),
    ("ingest_out_under_a_file", "error", ("ingest", *F, "--out", "frames.json/sub")),
    ("ingest_negative_raster_size", "error",
     ("ingest", *F, "--raster-size", -5, 7, "--out", "x")),
    ("ingest_rasters_unequal_raster_size", "error",
     ("ingest", *R, "--raster-size", 16, 20, "--out", "x")),
    # hand-written frame CSVs: accepted spellings give the plain file's
    # features, and each frame-level violation is listed by ingest
    ("features_hand_plain", "ok", ("features", "--manifest", "hand/plain.json")),
    ("features_hand_crlf", "ok", ("features", "--manifest", "hand/crlf.json")),
    ("features_hand_padded_camera", "ok", ("features", "--manifest", "hand/padded_camera.json")),
    ("features_hand_underscore_digits", "ok",
     ("features", "--manifest", "hand/underscore_digits.json")),
    *(
        (f"ingest_hand_{name}", "error",
         ("ingest", "--manifest", f"hand/{name}.json", "--out", "x"))
        for name in ("top_not_below_bottom", "left_not_left_of_right", "negative_area",
                     "area_over_box", "index_not_increasing", "malformed_row")
    ),
    ("features_hand_beyond_int64", "error", ("features", "--manifest", "hand/beyond_int64.json")),
    # two specimens: h1's raster is missing, and h2's frame CSV is malformed
    # or missing; h1's raster is named, as h1 comes first
    *(
        (f"ingest_hand_missing_raster_then_{name}", "error",
         ("ingest", "--manifest", f"hand/missing_raster_then_{name}.json", "--out", "x"))
        for name in ("malformed_row", "missing_csv")
    ),
    # an output file name that is a directory, or a file where synth makes one
    ("evaluate_metrics_is_a_directory", "error",
     ("evaluate", *F, *LINEAR, "--out", "blocked_evaluate")),
    ("crossval_splits_is_a_directory", "error",
     ("crossval", *F, "--model", "linear-area", "--seed", 3, "--out", "blocked_crossval")),
    ("features_csv_is_a_directory", "error", ("features", *F, "--out", "blocked_features")),
    ("fit_linear_model_is_a_directory", "error",
     ("fit-linear", *F, "--out", "blocked_fit_linear")),
    ("ingest_summary_is_a_directory", "error", ("ingest", *F, "--out", "blocked_ingest")),
    ("report_csv_is_a_directory", "error",
     ("report", "eval/metrics.json", "--out", "blocked_report")),
    ("synth_frames_is_a_file", "error",
     ("synth", "--seed", 1, "--config", "frames.json", "--out", "blocked_synth")),
    # empty paths; last, since a command that took "" as the working
    # directory would write there
    ("ingest_empty_manifest", "error", ("ingest", "--manifest", "", "--out", "x")),
    ("evaluate_empty_model", "error", ("evaluate", *F, "--model", "", "--out", "x")),
    ("features_empty_out", "error", ("features", *F, "--out", "")),
    ("fit_linear_empty_out", "error", ("fit-linear", *F, "--out", "")),
    ("synth_empty_out", "error", ("synth", "--seed", 1, "--config", "frames.json", "--out", "")),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): _sha(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _write_inputs(root: Path) -> None:
    for name, payload in CONFIGS.items():
        (root / name).write_text(json.dumps(payload))
    for name in BLOCKED_DIRS:
        (root / name).mkdir(parents=True)
    (root / BLOCKED_FILE).parent.mkdir()
    (root / BLOCKED_FILE).write_text("")
    _write_hand_frames(root / "hand")


def _write_hand_frames(hand: Path) -> None:
    """The HAND_CHANGES frame CSVs, ``crlf``: the plain file with CRLF line
    ends, and two-specimen manifests whose first specimen's rasters are
    missing (``missing_raster_then_*``)."""
    hand.mkdir()
    header = "camera_id,frame_index,top,bottom,left,right,area_px"
    texts = {
        name: "\n".join([header, *(change.get(i, row) for i, row in enumerate(HAND_ROWS))]) + "\n"
        for name, change in HAND_CHANGES.items()
    }
    texts["crlf"] = texts["plain"].replace("\n", "\r\n")
    entry = {"specimen_id": "h1", "taxon": "t", "dry_mass_ug": 10.0, "raster_dir": None}
    for name, text in texts.items():
        (hand / f"{name}.csv").write_bytes(text.encode())
        (hand / f"{name}.json").write_text(json.dumps([{**entry, "metadata_csv": f"{name}.csv"}]))
    (hand / "no_rasters").mkdir()
    first = {**entry, "metadata_csv": "plain.csv", "raster_dir": "no_rasters"}
    for name, csv in (("malformed_row", "malformed_row.csv"), ("missing_csv", "absent.csv")):
        second = {**entry, "specimen_id": "h2", "metadata_csv": csv}
        (hand / f"missing_raster_then_{name}.json").write_text(json.dumps([first, second]))


def _write_bad_mass_manifests(root: Path) -> None:
    """Copies of the frame manifest with one mass set to Infinity or NaN."""
    entries = json.loads((root / "frames" / "manifest.json").read_text())
    for name, value in (("inf.json", float("inf")), ("nan.json", float("nan"))):
        changed = [dict(e, metadata_csv=f"frames/{e['metadata_csv']}") for e in entries]
        changed[0]["dry_mass_ug"] = value
        (root / name).write_text(json.dumps(changed))


def _write_duplicate_id_manifest(root: Path) -> None:
    """``dup.json``: the raster manifest with entry 7 renamed to entry 0's id."""
    entries = json.loads((root / "rasters" / "manifest.json").read_text())
    for entry in entries:
        for key in ("metadata_csv", "raster_dir"):
            entry[key] = f"rasters/{entry[key]}"
    entries[7]["specimen_id"] = entries[0]["specimen_id"]
    (root / "dup.json").write_text(json.dumps(entries))


def _write_bad_checkpoints(root: Path) -> None:
    """Copies of the regression checkpoint: ``reg_taxa.json`` names taxa, and
    ``reg_nan.json``, ``reg_inf.json`` and ``reg_1e39.json`` hold that value
    as their first ``head.0.w`` weight."""
    text = (root / "reg" / "checkpoint.json").read_text()
    checkpoint = json.loads(text)
    (root / "reg_taxa.json").write_text(json.dumps({**checkpoint, "taxa": ["dense", "light"]}))
    for name, value in (("nan", float("nan")), ("inf", float("inf")), ("1e39", 1e39)):
        changed = json.loads(text)
        changed["params"]["head.0.w"]["data"][0] = value
        (root / f"reg_{name}.json").write_text(json.dumps(changed))


def _write_bad_linear_models(root: Path) -> None:
    """Copies of the log-target linear model whose intercept is NaN
    (``linear_nan.json``), Infinity (``linear_inf.json``) or 1000
    (``linear_1000.json``, whose masses overflow to infinity)."""
    model = json.loads((root / "linear_log" / "linear_model.json").read_text())
    for name, value in (("nan", float("nan")), ("inf", float("inf")), ("1000", 1000.0)):
        (root / f"linear_{name}.json").write_text(json.dumps({**model, "intercept": value}))


def _write_padded_copy(root: Path) -> None:
    """``padded``: the raster dataset with its first specimen's rasters
    cropped to CROP x CROP about their centre."""
    shutil.copytree(root / "rasters", root / "padded")
    first = json.loads((root / "padded" / "manifest.json").read_text())[0]
    for path in sorted((root / "padded" / first["raster_dir"]).glob("*.pgm")):
        pixels = load_raster(path.read_bytes())
        margin = (pixels.shape[0] - CROP) // 2
        path.write_bytes(save_raster(pixels[margin : margin + CROP, margin : margin + CROP]))


def _invoke(argv) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except Exception as exc:  # a crash is digested, not raised
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_cases(root: Path) -> list[dict]:
    """Run every case in ``root`` (the working directory); one digest each."""
    _write_inputs(root)
    digests = []
    for name, expect, argv in CASES:
        shutil.rmtree(root / "x", ignore_errors=True)
        before = _snapshot(root)
        code, out, err = _invoke(argv)
        after = _snapshot(root)
        digests.append(
            {
                "case": name,
                "expect": expect,
                "argv": [str(a) for a in argv],
                "exit": code,
                "stdout": _sha(out),
                "stderr": _sha(err),
                "files": {p: h for p, h in after.items() if before.get(p) != h},
            }
        )
        if name == "synth_frames":
            _write_bad_mass_manifests(root)
        if name == "fit_linear_log":
            _write_bad_linear_models(root)
        if name == "synth_rasters":
            _write_padded_copy(root)
            _write_duplicate_id_manifest(root)
        if name == "train_regressor":
            _write_bad_checkpoints(root)
    return digests


def main() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cli_digest_") as tmp:
        os.chdir(tmp)
        try:
            digests = run_cases(Path(tmp))
        finally:
            os.chdir(cwd)
    failed = [d["case"] for d in digests
              if d["expect"] == "ok" and (d["exit"] != 0 or d["stderr"] != _sha(b""))]
    for d in digests:
        print(json.dumps(d, sort_keys=True))
    if failed:
        print(f"success-path cases failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
