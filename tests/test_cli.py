import argparse
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sinkmass
from sinkmass import experiments
from sinkmass.cli import _load_any_model, _predictions_csv, build_parser, main
from sinkmass.config import config_from_dict
from sinkmass.errors import InputError
from sinkmass.ingest import (
    assemble_dataset,
    load_manifest,
    raster_names,
    save_raster,
    serialize_frame_csv,
)
from sinkmass.linear import load_linear_model
from sinkmass.neural.model import Architecture, HeadKind, MetadataInput, ModelConfig, init_params
from sinkmass.neural.training import TrainConfig, TrainedModel, load_checkpoint, save_checkpoint
from sinkmass.records import frame_table

from conftest import make_frame

SYNTH_CONFIG = {
    "groups": [
        {
            "name": "light",
            "density_range": [1.2, 1.4],
            "size_lognormal": [2.1, 0.25],
            "count": 15,
        },
        {
            "name": "dense",
            "density_range": [2.6, 3.2],
            "size_lognormal": [2.1, 0.25],
            "count": 15,
        },
    ],
    "area_noise_cv": 0.05,
}

RASTER_CONFIG = {
    "groups": [
        {
            "name": "light",
            "density_range": [1.3, 1.5],
            "size_lognormal": [1.6, 0.12],
            "count": 12,
            "aspect_range": [1.2, 1.5],
        },
        {
            "name": "dense",
            "density_range": [2.4, 2.8],
            "size_lognormal": [1.6, 0.12],
            "count": 12,
            "aspect_range": [1.9, 2.2],
        },
    ],
    "dt": 8.0,
    "n_max": 6,
    "area_noise_cv": 0.05,
    "raster_dims": [16, 16],
}

FULL_REPORT = {
    "dataset": "d",
    "method": "m",
    "report": {"mape": 0.1, "mdape": 0.1, "mae": 2.0, "rmse": 3.0, "r2_log": 0.9, "n": 4},
}

TRAIN_CONFIG = {
    "model": {
        "architecture": "single_view",
        "encoder_channels": [2, 4],
        "head": "one_layer",
        "target_space": "log",
        "input_size": 16,
    },
    "train": {"loss": "l1", "loss_space": "log", "epochs": 3, "batch_size": 32},
}


def run(*argv):
    return main([str(a) for a in argv])


def one_error(capsys) -> dict:
    """The single JSON error line a failed command wrote to stderr."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return json.loads(err[0])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_synth")
    config = base / "synth.json"
    config.write_text(json.dumps(SYNTH_CONFIG))
    assert run("synth", "--seed", 11, "--config", config, "--out", base / "data") == 0
    return base / "data"


@pytest.fixture(scope="module")
def raster_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_raster")
    config = base / "synth.json"
    config.write_text(json.dumps(RASTER_CONFIG))
    assert run("synth", "--seed", 21, "--config", config, "--out", base / "data") == 0
    return base / "data"


class TestSynthAndIngest:
    def test_synth_writes_ingest_schema(self, synth_dir):
        assert (synth_dir / "manifest.json").exists()
        assert (synth_dir / "groundtruth.json").exists()
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert len(manifest) == 30
        first = manifest[0]
        assert set(first) == {
            "specimen_id",
            "taxon",
            "dry_mass_ug",
            "metadata_csv",
            "raster_dir",
        }

    def test_synth_requires_seed(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(SYNTH_CONFIG))
        assert run("synth", "--config", config, "--out", tmp_path / "x") == 2
        error = one_error(capsys)
        assert error["error"] == "UsageError"
        assert "required: --seed" in error["message"]

    def test_config_seed_exits_2_naming_the_seed_flag(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**SYNTH_CONFIG, "seed": 5}))
        assert run("synth", "--seed", 1, "--config", config, "--out", tmp_path / "x") == 2
        error = one_error(capsys)
        assert error["error"] == "InvalidConfig"
        assert "the seed comes from --seed" in error["message"]

    def test_seed_flag_changes_the_data(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(SYNTH_CONFIG))
        truth = []
        for seed in (1, 2):
            out = tmp_path / str(seed)
            assert run("synth", "--seed", seed, "--config", config, "--out", out) == 0
            truth.append((out / "groundtruth.json").read_bytes())
        assert truth[0] != truth[1]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"dtt": 8.0}, "unknown SynthConfig keys: dtt"),
            ({"dt": "x"}, "bad SynthConfig: could not convert"),
            (
                {"groups": [{**SYNTH_CONFIG["groups"][0], "colour": "red"}]},
                "unknown GroupSpec keys: colour",
            ),
            (
                {"groups": [{k: v for k, v in SYNTH_CONFIG["groups"][0].items() if k != "count"}]},
                "missing GroupSpec keys: count",
            ),
            *(
                (
                    {"groups": [{**SYNTH_CONFIG["groups"][0], key: [1.5]}]},
                    "bad GroupSpec: expected 2 values, got [1.5]",
                )
                for key in ("density_range", "size_lognormal", "aspect_range")
            ),
            ({"raster_dims": [16]}, "bad SynthConfig: expected 2 values, got [16]"),
            (
                {"raster_dims": [16, 16, 16]},
                "bad SynthConfig: expected 2 values, got [16, 16, 16]",
            ),
            *(
                ({"raster_dims": dims}, f"raster_dims must be two equal positive sides, got {dims}")
                for dims in ([16, 20], [0, 0], [-16, -16])
            ),
            # the physics coefficients are module constants, not options
            *(
                ({key: 0.5}, f"unknown SynthConfig keys: {key}")
                for key in ("mass_coeff", "area_coeff", "speed_coeff")
            ),
        ],
        ids=[
            "unknown_key", "uncoercible_value", "unknown_group_key", "group_missing_count",
            "one_density_bound", "one_size_parameter", "one_aspect_bound", "one_raster_side",
            "three_raster_sides", "non_square_rasters", "zero_raster_sides",
            "negative_raster_sides", "mass_coeff", "area_coeff", "speed_coeff",
        ],
    )
    def test_bad_synth_config_exits_2(self, tmp_path, capsys, change, message):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**SYNTH_CONFIG, **change}))
        assert run("synth", "--seed", 1, "--config", config, "--out", tmp_path / "x") == 2
        error = one_error(capsys)
        assert error["error"] == "InvalidConfig"
        assert message in error["message"]

    def test_synth_without_config_names_missing_key(self, tmp_path, capsys):
        assert run("synth", "--seed", 1, "--out", tmp_path / "x") == 2
        assert one_error(capsys) == {
            "error": "InvalidConfig",
            "message": "missing SynthConfig keys: groups",
        }

    def test_synth_config_not_an_object_exits_2(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("[]")
        assert run("synth", "--seed", 1, "--config", config, "--out", tmp_path / "x") == 2
        assert one_error(capsys)["error"] == "InvalidConfig"

    def test_ingest_validates(self, synth_dir, tmp_path):
        code = run("ingest", "--manifest", synth_dir / "manifest.json", "--out", tmp_path)
        assert code == 0
        summary = json.loads((tmp_path / "dataset_summary.json").read_text())
        assert summary["specimens"] == 30
        assert summary["violations"] == []

    def test_ingest_reports_violations_with_exit_2(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_bytes(
            b"camera_id,frame_index,top,bottom,left,right,area_px\nA,0,100,50,0,10,1\n"
        )
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                [
                    {
                        "specimen_id": "s1",
                        "taxon": "t",
                        "dry_mass_ug": 1.0,
                        "metadata_csv": "bad.csv",
                        "raster_dir": None,
                    }
                ]
            )
        )
        assert run("ingest", "--manifest", manifest, "--out", tmp_path / "o") == 2
        summary = tmp_path / "o" / "dataset_summary.json"
        assert one_error(capsys) == {
            "error": "ValidationFailed",
            "message": f"1 violation(s), listed in {summary}",
        }
        assert len(json.loads(summary.read_text())["violations"]) == 1

    def test_missing_manifest_is_input_error(self, tmp_path, capsys):
        assert run("ingest", "--manifest", tmp_path / "nope.json", "--out", tmp_path) == 2
        assert "error" in json.loads(capsys.readouterr().err.strip())

    def test_ingest_with_rasters_records_dims(self, raster_dir, tmp_path):
        assert run("ingest", "--manifest", raster_dir / "manifest.json", "--out", tmp_path) == 0
        summary = json.loads((tmp_path / "dataset_summary.json").read_text())
        assert summary["raster_dims"] == [16, 16]
        assert summary["violations"] == []

    @pytest.mark.parametrize("size", [(-5, 7), (16, 20), (0, 0), (-16, -16)])
    @pytest.mark.parametrize("data", ["synth_dir", "raster_dir"])
    def test_raster_size_must_be_two_equal_positive_sides(
        self, request, tmp_path, capsys, data, size
    ):
        manifest = request.getfixturevalue(data) / "manifest.json"
        out = tmp_path / "out"
        assert run("ingest", "--manifest", manifest, "--raster-size", *size, "--out", out) == 2
        assert not out.exists()
        reported = one_error(capsys)
        assert reported["error"] == "UsageError"
        assert reported["message"] == (
            f"sinkmass ingest: --raster-size must be two equal positive sides, got {list(size)}"
        )


class TestFeatures:
    def test_header_and_row_shape(self, synth_dir, capsys):
        assert run("features", "--manifest", synth_dir / "manifest.json") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == (
            "specimen_id,taxon,dry_mass_ug,mean_area_px,image_count,sinking_speed,pseudo_mass"
        )
        assert len(lines) == 31
        assert len(lines[1].split(",")) == 7

    def test_written_to_out_dir(self, synth_dir, tmp_path):
        assert run("features", "--manifest", synth_dir / "manifest.json", "--out", tmp_path) == 0
        assert (tmp_path / "features.csv").exists()


class TestLinearFlow:
    def test_fit_evaluate_crossval_report(self, synth_dir, tmp_path):
        fit_dir = tmp_path / "fit"
        assert (
            run(
                "fit-linear",
                "--manifest",
                synth_dir / "manifest.json",
                "--features",
                "area_speed",
                "--out",
                fit_dir,
            )
            == 0
        )
        model = json.loads((fit_dir / "linear_model.json").read_text())
        assert model["feature_spec"] == "area_speed"

        eval_dir = tmp_path / "eval"
        assert (
            run(
                "evaluate",
                "--manifest",
                synth_dir / "manifest.json",
                "--model",
                fit_dir / "linear_model.json",
                "--bootstrap",
                100,
                "--seed",
                5,
                "--method",
                "lin-as",
                "--out",
                eval_dir,
            )
            == 0
        )
        metrics = json.loads((eval_dir / "metrics.json").read_text())
        assert metrics["method"] == "lin-as"
        assert "bootstrap" in metrics["report"]

        cv_dir = tmp_path / "cv"
        assert (
            run(
                "crossval",
                "--manifest",
                synth_dir / "manifest.json",
                "--model",
                "linear-area",
                "--seed",
                3,
                "--out",
                cv_dir,
            )
            == 0
        )
        splits = json.loads((cv_dir / "splits.json").read_text())
        assert len(splits["folds"]) == 5

        rep_dir = tmp_path / "rep"
        assert (
            run(
                "report",
                eval_dir / "metrics.json",
                cv_dir / "crossval_report.json",
                "--out",
                rep_dir,
            )
            == 0
        )
        lines = (rep_dir / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "dataset,method,metric,value,ci_low,ci_high,std"
        assert len(lines) == 11  # 2 reports x 5 metrics + header
        # absolute metrics are presented in milligrams
        assert any(line.split(",")[2] == "mae_mg" for line in lines[1:])

    def test_rows_sorted_and_missing_ci_empty(self, synth_dir, tmp_path):
        cv_dir = tmp_path / "cv"
        run(
            "crossval",
            "--manifest",
            synth_dir / "manifest.json",
            "--name",
            "zzz",
            "--model",
            "linear-area",
            "--seed",
            3,
            "--out",
            cv_dir,
        )
        eval_dir = tmp_path / "ev"
        run(
            "fit-linear",
            "--manifest",
            synth_dir / "manifest.json",
            "--out",
            tmp_path / "fit",
        )
        run(
            "evaluate",
            "--manifest",
            synth_dir / "manifest.json",
            "--name",
            "aaa",
            "--model",
            tmp_path / "fit" / "linear_model.json",
            "--method",
            "m",
            "--out",
            eval_dir,
        )
        rep_dir = tmp_path / "rep"
        run(
            "report",
            cv_dir / "crossval_report.json",
            eval_dir / "metrics.json",
            "--out",
            rep_dir,
        )
        lines = (rep_dir / "report.csv").read_text().strip().split("\n")[1:]
        datasets = [line.split(",")[0] for line in lines]
        assert datasets == sorted(datasets)
        # no bootstrap: CI fields rendered empty, not zero
        assert lines[0].endswith(",,,")

    def test_report_without_inputs_fails(self, tmp_path):
        assert run("report", "--out", tmp_path) == 2

    @pytest.mark.parametrize(
        "command, payload, error",
        [
            ("report", None, "InputError"),
            ("report", b'"report"', "NoResults"),
            ("report", b'{"report": {}}', "NoResults"),
            ("report", json.dumps({**FULL_REPORT, "method": 7}).encode(), "NoResults"),
            ("report", json.dumps({**FULL_REPORT, "report": {"mape": 0.1}}).encode(), "NoResults"),
            (
                "report",
                json.dumps(
                    {**FULL_REPORT, "report": {**FULL_REPORT["report"], "bootstrap": {"mae": 1}}}
                ).encode(),
                "NoResults",
            ),
            ("report", b"\xff\xfe", "InputError"),
            ("ingest", b"\xff\xfe", "InputError"),
            ("features", b"\xff\xfe", "InputError"),
        ],
        ids=[
            "report_missing_file",
            "report_json_string",
            "report_without_dataset",
            "report_method_not_a_string",
            "report_missing_metric",
            "report_bad_bootstrap_interval",
            "report_not_utf8",
            "ingest_manifest_not_utf8",
            "features_manifest_not_utf8",
        ],
    )
    def test_unusable_input_file_exits_2(self, tmp_path, capsys, command, payload, error):
        path = tmp_path / "input.json"
        if payload is not None:
            path.write_bytes(payload)
        argv = (path,) if command == "report" else ("--manifest", path)
        assert run(command, *argv, "--out", tmp_path / "out") == 2
        assert one_error(capsys)["error"] == error

    def test_non_finite_area_exits_2(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        csv = sorted((data / "frames").glob("*.csv"))[0]
        lines = csv.read_text().split("\n")
        lines[3] = ",".join(lines[3].split(",")[:6] + ["nan"])
        csv.write_text("\n".join(lines))
        argv = ("--model", "linear-area", "--seed", 1, "--out", tmp_path / "cv")
        assert run("crossval", "--manifest", data / "manifest.json", *argv) == 2
        error = one_error(capsys)
        assert error["error"] == "MalformedRow"
        assert error["message"].endswith("line 4: non-finite area_px nan")

    @pytest.mark.parametrize(
        "command, mass", [("ingest", "inf"), ("crossval", "inf"), ("crossval", "nan")]
    )
    def test_non_finite_mass_exits_2(self, synth_dir, tmp_path, capsys, command, mass):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        manifest = data / "manifest.json"
        entries = json.loads(manifest.read_text())
        entries[0]["dry_mass_ug"] = float(mass)  # written as Infinity or NaN
        manifest.write_text(json.dumps(entries))
        argv = ("--model", "linear-area", "--seed", 1) if command == "crossval" else ()
        assert run(command, "--manifest", manifest, *argv, "--out", tmp_path / "o") == 2
        assert one_error(capsys) == {
            "error": "InputError",
            "message": f"manifest entry 0: dry_mass_ug must be finite, got {mass}",
        }

    def test_crossval_requires_seed(self, synth_dir, tmp_path, capsys):
        code = run(
            "crossval",
            "--manifest",
            synth_dir / "manifest.json",
            "--model",
            "linear-area",
            "--out",
            tmp_path,
        )
        assert code == 2
        error = one_error(capsys)
        assert error["error"] == "UsageError"
        assert "required: --seed" in error["message"]

    def test_rank_deficient_fit_exits_3(self, tmp_path, capsys):
        # constant areas make the area column collinear with the intercept
        rows = b"".join(b"A,%d,%d,%d,0,10,5\n" % (i, 50 - i, 70 - i) for i in range(4))
        (tmp_path / "s1.csv").write_bytes(
            b"camera_id,frame_index,top,bottom,left,right,area_px\n" + rows
        )
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                [
                    {
                        "specimen_id": "s1",
                        "taxon": "t",
                        "dry_mass_ug": 3.0,
                        "metadata_csv": "s1.csv",
                        "raster_dir": None,
                    }
                ]
            )
        )
        code = run("fit-linear", "--manifest", manifest, "--out", tmp_path / "m")
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "RankDeficient"


class TestNeuralFlow:
    def test_train_finetune_pipeline(self, raster_dir, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps(TRAIN_CONFIG))
        trained = tmp_path / "trained"
        assert (
            run(
                "train",
                "--manifest",
                raster_dir / "manifest.json",
                "--config",
                config,
                "--seed",
                4,
                "--out",
                trained,
            )
            == 0
        )
        checkpoint = json.loads((trained / "checkpoint.json").read_text())
        assert checkpoint["config"]["architecture"] == "single_view"

        tuned = tmp_path / "tuned"
        finetune_config = tmp_path / "ft.json"
        finetune_config.write_text(
            json.dumps({"train": {**TRAIN_CONFIG["train"], "freeze": "encoder"}})
        )
        assert (
            run(
                "finetune",
                "--manifest",
                raster_dir / "manifest.json",
                "--base",
                trained / "checkpoint.json",
                "--config",
                finetune_config,
                "--seed",
                6,
                "--out",
                tuned,
            )
            == 0
        )
        base_params = checkpoint["params"]
        tuned_params = json.loads((tuned / "checkpoint.json").read_text())["params"]
        for name in base_params:
            if name.startswith("enc."):
                assert tuned_params[name]["data"] == base_params[name]["data"]

        cls_config = tmp_path / "cls.json"
        cls_config.write_text(
            json.dumps(
                {
                    "model": {**TRAIN_CONFIG["model"], "task": "classification",
                              "head": "two_layer", "head_hidden": 16},
                    "train": {"epochs": 5, "batch_size": 32},
                }
            )
        )
        cls_dir = tmp_path / "cls"
        assert (
            run(
                "train",
                "--manifest",
                raster_dir / "manifest.json",
                "--config",
                cls_config,
                "--seed",
                9,
                "--out",
                cls_dir,
            )
            == 0
        )

        pipe_dir = tmp_path / "pipe"
        assert (
            run(
                "pipeline",
                "--manifest",
                raster_dir / "manifest.json",
                "--classifier",
                cls_dir / "checkpoint.json",
                "--mass-model",
                trained / "checkpoint.json",
                "--out",
                pipe_dir,
            )
            == 0
        )
        report = json.loads((pipe_dir / "pipeline_report.json").read_text())
        assert sum(g["n"] for g in report["groups"]) == 24
        for g in report["groups"]:
            assert {"taxon", "n", "n_misclassified", "ks_d", "ks_p", "pearson_r"} <= set(g)

    def test_evaluate_neural_checkpoint(self, raster_dir, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps(TRAIN_CONFIG))
        trained = tmp_path / "trained"
        run(
            "train",
            "--manifest",
            raster_dir / "manifest.json",
            "--config",
            config,
            "--seed",
            4,
            "--out",
            trained,
        )
        eval_dir = tmp_path / "eval"
        assert (
            run(
                "evaluate",
                "--manifest",
                raster_dir / "manifest.json",
                "--model",
                trained / "checkpoint.json",
                "--out",
                eval_dir,
            )
            == 0
        )
        metrics = json.loads((eval_dir / "metrics.json").read_text())
        assert metrics["report"]["n"] == 24
        assert "np.float64(" not in (eval_dir / "predictions.csv").read_text()

    def test_pipeline_without_mass_model_fails(self, raster_dir, tmp_path, capsys):
        code = run(
            "pipeline",
            "--manifest",
            raster_dir / "manifest.json",
            "--classifier",
            tmp_path / "cls.json",
            "--out",
            tmp_path / "pipe",
        )
        assert code == 2
        error = one_error(capsys)
        assert error["error"] == "UsageError"
        assert "one of the arguments --mass-model --mass-models is required" in error["message"]


class TestOodCommand:
    def test_linear_ood(self, synth_dir, tmp_path):
        out = tmp_path / "ood"
        assert (
            run(
                "ood",
                "--manifest",
                synth_dir / "manifest.json",
                "--model",
                "linear-area-speed",
                "--holdout",
                "dense",
                "--seed",
                2,
                "--out",
                out,
            )
            == 0
        )
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["holdout_taxon"] == "dense"
        assert payload["report"]["n"] == 15

    def test_unknown_taxon_exit_code(self, synth_dir, tmp_path, capsys):
        code = run(
            "ood",
            "--manifest",
            synth_dir / "manifest.json",
            "--model",
            "linear-area",
            "--holdout",
            "krill",
            "--seed",
            2,
            "--out",
            tmp_path,
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "UnknownTaxon"


BAD_CONFIGS = {
    "unknown_architecture": {"model": {**TRAIN_CONFIG["model"], "architecture": "nope"}},
    "metadata_aware_without_inputs": {
        "model": {**TRAIN_CONFIG["model"], "architecture": "metadata_aware"}
    },
    "unknown_key": {"model": {**TRAIN_CONFIG["model"], "input_sz": 16}},
    "uncoercible_value": {"train": {**TRAIN_CONFIG["train"], "epochs": "x"}},
    "not_an_object": [],
    "train_section_not_an_object": {**TRAIN_CONFIG, "train": []},
    "model_section_not_an_object": {**TRAIN_CONFIG, "model": []},
    "misspelt_section": {**TRAIN_CONFIG, "modle": {}},
    "unknown_task": {**TRAIN_CONFIG, "model": {**TRAIN_CONFIG["model"], "task": "nope"}},
    "train_seed": {**TRAIN_CONFIG, "train": {**TRAIN_CONFIG["train"], "seed": 5}},
    "n_classes_for_regression": {
        **TRAIN_CONFIG, "model": {**TRAIN_CONFIG["model"], "n_classes": 7}
    },
    "n_classes_for_classification": {
        **TRAIN_CONFIG,
        "model": {**TRAIN_CONFIG["model"], "task": "classification", "n_classes": 2},
    },
}
NEURAL_COMMANDS = {
    "train": ("train",),
    "crossval": ("crossval", "--model", "neural"),
}


class TestTrainingConfig:
    @pytest.mark.parametrize("command", sorted(NEURAL_COMMANDS))
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exits_2(self, raster_dir, tmp_path, capsys, command, case):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(BAD_CONFIGS[case]))
        code = run(
            *NEURAL_COMMANDS[command], "--manifest", raster_dir / "manifest.json",
            "--config", config, "--seed", 4, "--out", tmp_path / "out",
        )
        assert code == 2
        assert one_error(capsys)["error"] == "InvalidConfig"

    def test_float_epochs_and_string_lr_still_train(self, raster_dir, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(
            json.dumps({**TRAIN_CONFIG, "train": {"epochs": 2.0, "lr_max": "3e-3"}})
        )
        out = tmp_path / "trained"
        assert run(
            "train", "--manifest", raster_dir / "manifest.json", "--config", config,
            "--seed", 4, "--out", out,
        ) == 0
        assert len(load_checkpoint(out / "checkpoint.json").val_loss_history) == 2

    def test_input_size_must_match_rasters(self, raster_dir, tmp_path, capsys):
        config = tmp_path / "train.json"
        config.write_text(
            json.dumps({**TRAIN_CONFIG, "model": {**TRAIN_CONFIG["model"], "input_size": 32}})
        )
        code = run(
            "train", "--manifest", raster_dir / "manifest.json", "--config", config,
            "--seed", 4, "--out", tmp_path / "out",
        )
        assert code == 2
        error = one_error(capsys)
        assert error["error"] == "ShapeMismatch"
        assert "input_size 32" in error["message"] and "(16, 16)" in error["message"]


@pytest.mark.parametrize("level", [0, 1.5])
def test_bootstrap_level_outside_unit_interval_exits_2(synth_dir, tmp_path, capsys, level):
    manifest = synth_dir / "manifest.json"
    assert run("fit-linear", "--manifest", manifest, "--out", tmp_path / "fit") == 0
    capsys.readouterr()
    code = run(
        "evaluate", "--manifest", manifest, "--model", tmp_path / "fit" / "linear_model.json",
        "--bootstrap", 50, "--level", level, "--seed", 1, "--out", tmp_path / "eval",
    )
    assert code == 2
    assert one_error(capsys)["error"] == "InvalidConfig"


LINEAR_MODEL = {"format_version": 1, "feature_spec": "area", "intercept": 1.0,
                "coefficients": [0.5], "target_space": "raw"}
MALFORMED_MODELS = {
    "linear_fields_missing": {"feature_spec": "area"},
    "linear_coefficient_count": {**LINEAR_MODEL, "coefficients": [0.5, 2.0]},
    "linear_future_version": {**LINEAR_MODEL, "format_version": 99},
    "linear_mistyped_intercept": {**LINEAR_MODEL, "intercept": "x"},
    "linear_nan_intercept": {**LINEAR_MODEL, "intercept": float("nan")},
    "linear_infinite_intercept": {**LINEAR_MODEL, "intercept": float("inf")},
    "linear_infinite_coefficient": {**LINEAR_MODEL, "coefficients": [float("-inf")]},
    "checkpoint_fields_missing": {"format_version": 1},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_file_exits_2(synth_dir, tmp_path, capsys, case):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MALFORMED_MODELS[case]))
    code = run(
        "evaluate", "--manifest", synth_dir / "manifest.json", "--model", model,
        "--out", tmp_path / "eval",
    )
    assert code == 2
    one_error(capsys)


@pytest.mark.parametrize("change", ["drop_param", "transpose_param"])
def test_checkpoint_params_must_fit_its_config(synth_dir, tmp_path, capsys, change):
    path = _untrained_checkpoint(tmp_path / "ckpt.json")
    payload = json.loads(path.read_text())
    if change == "drop_param":
        del payload["params"]["head.0.b"]
    else:
        payload["params"]["head.0.w"]["shape"].reverse()
    path.write_text(json.dumps(payload))
    code = run(
        "evaluate", "--manifest", synth_dir / "manifest.json", "--model", path,
        "--out", tmp_path / "eval",
    )
    assert code == 2
    assert one_error(capsys)["error"] == "InputError"


META = {"architecture": Architecture.METADATA_AWARE,
        "metadata_inputs": (MetadataInput.MEAN_AREA, MetadataInput.SINKING_SPEED)}
# case: (checkpoint fields, edit to its payload, text the message must hold)
MISFIT_CHECKPOINTS = {
    "null_mean_with_metadata": (META, {"metadata_mean": None}, "2 values each"),
    "stats_for_one_of_two_inputs": (
        META, {"metadata_mean": [0.0], "metadata_std": [1.0]}, "2 values each"
    ),
    "stats_as_a_matrix": (META, {"metadata_std": [[1.0, 1.0]]}, "2 values each"),
    "stats_without_metadata": ({}, {"metadata_std": [1.0]}, "null without metadata inputs"),
    "zero_std": (META, {"metadata_std": [0.0, 1.0]}, "std positive"),
    "negative_std": (META, {"metadata_std": [1.0, -1.0]}, "std positive"),
    "infinite_mean": (META, {"metadata_mean": [0.0, 1e999]}, "must be finite"),
    "taxa_shorter_than_classes": (
        {"n_classes": 3, "taxa": ("a", "b", "c")}, {"taxa": ["a", "b"]}, "3 distinct strings"
    ),
    "integer_taxa": ({"n_classes": 2, "taxa": ("a", "b")}, {"taxa": [1, 2]}, "2 distinct strings"),
    "repeated_taxon": (
        {"n_classes": 2, "taxa": ("a", "b")}, {"taxa": ["a", "a"]}, "2 distinct strings"
    ),
    "classifier_without_taxa": (
        {"n_classes": 2, "taxa": ("a", "b")}, {"taxa": None}, "2 distinct strings"
    ),
    "regressor_with_taxa": ({}, {"taxa": ["a", "b"]}, "null for a regression model"),
}


@pytest.mark.parametrize("case", sorted(MISFIT_CHECKPOINTS))
def test_checkpoint_stats_and_taxa_must_fit_its_config(tmp_path, case):
    fields, edit, named = MISFIT_CHECKPOINTS[case]
    path = _untrained_checkpoint(tmp_path / "ckpt.json", **fields)
    _load_any_model(path)  # the unedited checkpoint loads
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    with pytest.raises(InputError) as info:
        _load_any_model(path)
    assert type(info.value) is InputError
    assert named in str(info.value)


# weights a checkpoint may not hold; 1e39 is finite in float64 but inf in
# the float32 that inference computes in
BAD_WEIGHTS = {"nan": float("nan"), "infinity": float("inf"), "beyond_float32": 1e39}


@pytest.mark.parametrize("case", sorted(BAD_WEIGHTS))
def test_checkpoint_weights_must_be_finite_in_float32(tmp_path, case):
    path = _untrained_checkpoint(tmp_path / "ckpt.json")
    _load_any_model(path)  # the unedited checkpoint loads
    payload = json.loads(path.read_text())
    payload["params"]["head.0.w"]["data"][0] = BAD_WEIGHTS[case]
    path.write_text(json.dumps(payload))
    with pytest.raises(InputError, match="head.0.w must be finite and within float32 range"):
        _load_any_model(path)


def test_non_finite_mass_exits_3(raster_dir, tmp_path, capsys):
    path = _untrained_checkpoint(tmp_path / "ckpt.json", input_size=16)
    payload = json.loads(path.read_text())
    payload["params"]["head.0.b"]["data"] = [1000.0]  # a log mass: exp overflows float64
    path.write_text(json.dumps(payload))
    code = run(
        "evaluate", "--manifest", raster_dir / "manifest.json", "--model", path,
        "--out", tmp_path / "eval",
    )
    assert code == 3
    assert one_error(capsys)["error"] == "NonFinitePrediction"
    assert not (tmp_path / "eval").exists()


def test_non_finite_linear_mass_exits_3_without_a_warning(synth_dir, tmp_path, capsys):
    path = tmp_path / "model.json"
    # a log mass: exp overflows float64
    path.write_text(json.dumps({**LINEAR_MODEL, "target_space": "log", "intercept": 1000.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning escapes as an exception
        code = run(
            "evaluate", "--manifest", synth_dir / "manifest.json", "--model", path,
            "--out", tmp_path / "eval",
        )
    assert code == 3
    assert one_error(capsys)["error"] == "NonFinitePrediction"
    assert not (tmp_path / "eval").exists()


# every (command, flag) pair the parser accepts; a flag sits only on the
# commands whose handler reads it
FLAG_TABLE = {
    "synth": {"--seed", "--config", "--out", "--threads"},
    "ingest": {"--manifest", "--name", "--raster-size", "--out", "--threads"},
    "features": {"--manifest", "--out", "--threads"},
    "fit-linear": {"--manifest", "--features", "--target", "--per-specimen", "--out", "--threads"},
    "evaluate": {
        "--manifest", "--name", "--model", "--method", "--bootstrap", "--level", "--seed",
        "--out", "--threads",
    },
    "crossval": {
        "--seed", "--config", "--manifest", "--name", "--model", "--method", "--target",
        "--per-specimen", "--folds", "--out", "--threads",
    },
    "train": {"--seed", "--config", "--manifest", "--fold", "--folds", "--out", "--threads"},
    "finetune": {
        "--seed", "--config", "--manifest", "--base", "--fold", "--folds", "--out", "--threads",
    },
    "ood": {
        "--seed", "--config", "--manifest", "--name", "--model", "--method", "--target",
        "--per-specimen", "--holdout", "--out", "--threads",
    },
    "pipeline": {
        "--manifest", "--classifier", "--mass-model", "--mass-models", "--out", "--threads",
    },
    "report": {"--out", "--threads"},
}


def _flags(command, required=False) -> set[str]:
    """The flags the parser accepts on ``command`` (only its required ones
    if ``required``); none for an unknown command."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = sub.choices[command]._actions if command in sub.choices else []
    return {
        flag
        for action in actions
        if action.required or not required
        for flag in action.option_strings
    } - {"-h", "--help"}


def test_each_command_accepts_exactly_the_flags_it_reads():
    accepted = {command: _flags(command) for command in FLAG_TABLE}
    assert accepted == FLAG_TABLE
    assert sum(map(len, accepted.values())) == 72


# case: (error, text the message must hold, argv); the harness adds only the
# --manifest, --seed and --out that the command requires and the case lacks
BAD_FLAGS = {
    "folds_not_an_int": (
        "UsageError", "--folds", ("crossval", "--model", "linear-area", "--folds", "x")
    ),
    "zero_folds": (
        "InvalidConfig", "folds, got 0", ("crossval", "--model", "linear-area", "--folds", 0)
    ),
    "one_fold": (
        "InvalidConfig", "folds, got 1", ("crossval", "--model", "linear-area", "--folds", 1)
    ),
    "fold_past_the_last": ("InvalidConfig", "--fold must lie", ("train", "--fold", 7)),
    "negative_fold": ("InvalidConfig", "--fold must lie", ("train", "--fold", -1)),
    "evaluate_trim": ("UsageError", "--trim", ("evaluate", "--model", "m.json", "--trim", 0.05)),
    "crossval_trim": (
        "UsageError", "--trim", ("crossval", "--model", "linear-area", "--trim", 0.05)
    ),
    "ood_trim": (
        "UsageError", "--trim",
        ("ood", "--model", "linear-area", "--holdout", "a", "--trim", 0.05),
    ),
    "pipeline_trim": (
        "UsageError", "--trim",
        ("pipeline", "--classifier", "c.json", "--mass-model", "m.json", "--trim", 0.05),
    ),
    "zero_threads": ("UsageError", "--threads", ("features", "--threads", 0)),
    "negative_threads": ("UsageError", "--threads", ("features", "--threads", -2)),
    "threads_not_an_int": ("UsageError", "--threads", ("features", "--threads", "two")),
    "negative_bootstrap": (
        "UsageError", "--bootstrap", ("evaluate", "--model", "m.json", "--bootstrap", -3)
    ),
    "one_bootstrap_draw": (
        "UsageError", "--bootstrap", ("evaluate", "--model", "m.json", "--bootstrap", 1)
    ),
    "unknown_command": ("UsageError", "'estimate'", ("estimate",)),
    "bootstrap_without_seed": (
        "UsageError", "--bootstrap above 0 requires --seed",
        ("evaluate", "--model", "m.json", "--bootstrap", 50),
    ),
    # flags a command does not read
    "ingest_seed": ("UsageError", "--seed", ("ingest", "--seed", 1)),
    "ingest_config": ("UsageError", "--config", ("ingest", "--config", "c.json")),
    "features_seed": ("UsageError", "--seed", ("features", "--seed", 1)),
    "features_config": ("UsageError", "--config", ("features", "--config", "c.json")),
    "features_name": ("UsageError", "--name", ("features", "--name", "n")),
    "fit_linear_seed": ("UsageError", "--seed", ("fit-linear", "--seed", 1)),
    "fit_linear_config": ("UsageError", "--config", ("fit-linear", "--config", "c.json")),
    "fit_linear_name": ("UsageError", "--name", ("fit-linear", "--name", "n")),
    "evaluate_config": (
        "UsageError", "--config", ("evaluate", "--model", "m.json", "--config", "c.json")
    ),
    "train_name": ("UsageError", "--name", ("train", "--name", "n")),
    "finetune_name": ("UsageError", "--name", ("finetune", "--base", "b.json", "--name", "n")),
    "pipeline_seed": (
        "UsageError", "--seed",
        ("pipeline", "--classifier", "c.json", "--mass-model", "m.json", "--seed", 1),
    ),
    "pipeline_config": (
        "UsageError", "--config",
        ("pipeline", "--classifier", "c.json", "--mass-model", "m.json", "--config", "c.json"),
    ),
    "pipeline_name": (
        "UsageError", "--name",
        ("pipeline", "--classifier", "c.json", "--mass-model", "m.json", "--name", "n"),
    ),
    "report_seed": ("UsageError", "--seed", ("report", "--seed", 1)),
    "report_config": ("UsageError", "--config", ("report", "--config", "c.json")),
    # combinations the chosen --model ignores
    "crossval_linear_config": (
        "UsageError", "--config", ("crossval", "--model", "linear-area", "--config", "c.json")
    ),
    "crossval_neural_target": (
        "UsageError", "--target", ("crossval", "--model", "neural", "--target", "raw")
    ),
    "ood_neural_per_specimen": (
        "UsageError", "--per-specimen",
        ("ood", "--model", "neural", "--holdout", "a", "--per-specimen"),
    ),
    "pipeline_both_mass_model_flags": (
        "UsageError", "--mass-models",
        ("pipeline", "--classifier", "c.json", "--mass-model", "m.json", "--mass-models", "x"),
    ),
    # an empty path would mean the working directory
    "empty_out": ("UsageError", "argument --out: path must not be empty", ("synth", "--out", "")),
    "features_empty_out": (
        "UsageError", "argument --out: path must not be empty", ("features", "--out", "")
    ),
    "empty_manifest": (
        "UsageError", "argument --manifest: path must not be empty", ("ingest", "--manifest", "")
    ),
    "empty_config": (
        "UsageError", "argument --config: path must not be empty", ("train", "--config", "")
    ),
    "evaluate_empty_model": (
        "UsageError", "argument --model: path must not be empty", ("evaluate", "--model", "")
    ),
    "empty_classifier": (
        "UsageError", "argument --classifier: path must not be empty",
        ("pipeline", "--classifier", "", "--mass-model", "m.json"),
    ),
    "empty_mass_model": (
        "UsageError", "argument --mass-model: path must not be empty",
        ("pipeline", "--classifier", "c.json", "--mass-model", ""),
    ),
    "empty_mass_models": (
        "UsageError", "argument --mass-models: path must not be empty",
        ("pipeline", "--classifier", "c.json", "--mass-models", ""),
    ),
    "empty_base": (
        "UsageError", "argument --base: path must not be empty", ("finetune", "--base", "")
    ),
    "report_empty_input": (
        "UsageError", "argument inputs: path must not be empty",
        ("report", "eval/metrics.json", ""),
    ),
    # an --out that is an existing file, or lies under one
    "out_is_a_file": (
        "InputError", f"cannot make output directory {__file__}: [Errno 17] File exists",
        ("features", "--out", __file__),
    ),
    "out_under_a_file": (
        "InputError", f"cannot make output directory {__file__}/sub: [Errno 20] Not a directory",
        ("ingest", "--out", f"{__file__}/sub"),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_flags_exit_2_with_one_json_error(synth_dir, tmp_path, capsys, monkeypatch, case):
    error, named, argv = BAD_FLAGS[case]
    base = {"--manifest": synth_dir / "manifest.json", "--seed": 1, "--out": tmp_path / "out"}
    missing = _flags(argv[0], required=True) - set(argv)
    added = [x for flag, value in base.items() if flag in missing for x in (flag, value)]
    monkeypatch.chdir(tmp_path)
    assert run(*argv, *added) == 2
    assert {p.name for p in tmp_path.iterdir()} <= {"out"}
    reported = one_error(capsys)
    assert reported["error"] == error
    assert named in reported["message"]


# (argv without --manifest and --out, the output file name the test makes a
# directory); "model" and "metrics" stand for a linear model file and a
# metric report that the test writes
OUTPUT_COLLISIONS = {
    "evaluate": (("evaluate", "--model", "model"), "metrics.json"),
    "crossval": (("crossval", "--model", "linear-area", "--seed", 1), "splits.json"),
    "features": (("features",), "features.csv"),
    "fit-linear": (("fit-linear",), "linear_model.json"),
    "ingest": (("ingest",), "dataset_summary.json"),
    "report": (("report", "metrics"), "report.csv"),
}


@pytest.mark.parametrize("command", [*sorted(OUTPUT_COLLISIONS), "synth"])
def test_output_path_that_cannot_be_written_exits_2(synth_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    files = {
        "model": tmp_path / "model.json",
        "metrics": tmp_path / "metrics.json",
        "config": tmp_path / "synth.json",
    }
    files["model"].write_text(json.dumps(LINEAR_MODEL))
    files["metrics"].write_text(json.dumps(FULL_REPORT))
    files["config"].write_text(json.dumps(SYNTH_CONFIG))
    if command == "synth":
        out.mkdir()
        blocked = out / "frames"
        blocked.write_text("a file where synth puts its frame CSVs\n")
        argv = ("synth", "--seed", 1, "--config", files["config"])
        expected = f"cannot make output directory {blocked}: [Errno 17] File exists"
    else:
        args, name = OUTPUT_COLLISIONS[command]
        blocked = out / name
        blocked.mkdir(parents=True)
        manifest = () if command == "report" else ("--manifest", synth_dir / "manifest.json")
        argv = (*(files.get(a, a) for a in args), *manifest)
        expected = f"cannot write {blocked}: [Errno 21] Is a directory"
    assert run(*argv, "--out", out) == 2
    reported = one_error(capsys)
    assert reported["error"] == "InputError"
    assert reported["message"].startswith(expected)


@pytest.mark.parametrize(
    "argv",
    [("ingest",), ("features",), ("fit-linear",),
     ("crossval", "--model", "linear-area", "--seed", 1)],
)
def test_duplicate_specimen_id_exits_2_naming_the_entry(synth_dir, tmp_path, capsys, argv):
    entries = json.loads((synth_dir / "manifest.json").read_text())
    for entry in entries:
        entry["metadata_csv"] = str(synth_dir / entry["metadata_csv"])
    entries[7]["specimen_id"] = entries[0]["specimen_id"]
    (tmp_path / "manifest.json").write_text(json.dumps(entries))
    code = run(*argv, "--manifest", tmp_path / "manifest.json", "--out", tmp_path / "out")
    assert code == 2
    assert not (tmp_path / "out").exists()
    assert one_error(capsys) == {
        "error": "InputError",
        "message": f"manifest entry 7: duplicate specimen_id {entries[0]['specimen_id']!r}",
    }


def test_finetune_config_with_model_section_exits_2(synth_dir, tmp_path, capsys):
    config = tmp_path / "ft.json"
    model = {"architecture": "multi_view", "encoder_channels": [2, 4, 8], "task": "classification"}
    config.write_text(json.dumps({"model": model, "train": TRAIN_CONFIG["train"]}))
    base = _untrained_checkpoint(tmp_path / "base.json")
    code = run(
        "finetune", "--manifest", synth_dir / "manifest.json", "--base", base,
        "--config", config, "--seed", 1, "--out", tmp_path / "out",
    )
    assert code == 2
    assert not (tmp_path / "out").exists()
    error = one_error(capsys)
    assert error["error"] == "InvalidConfig"
    assert "--base" in error["message"] and "'model'" in error["message"]


def _library_dataset(manifest):
    return assemble_dataset(load_manifest(manifest), name=manifest.parent.name)


def _neural_estimator(config):
    return experiments.NeuralEstimator(
        config_from_dict(ModelConfig, config["model"]),
        config_from_dict(TrainConfig, config["train"]),
    )


class TestNeuralProtocolCommands:
    def test_crossval_matches_library(self, raster_dir, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps(TRAIN_CONFIG))
        out = tmp_path / "cv"
        manifest = raster_dir / "manifest.json"
        assert run(
            "crossval", "--manifest", manifest, "--model", "neural", "--config", config,
            "--seed", 8, "--out", out,
        ) == 0
        result = experiments.crossval(
            _library_dataset(manifest), _neural_estimator(TRAIN_CONFIG), k=5, seed=8
        )
        payload = json.loads((out / "crossval_report.json").read_text())
        assert payload["method"] == "neural-single_view"
        assert payload["report"]["n"] == result.pooled_report.n == 24
        assert (out / "predictions.csv").read_text() == _predictions_csv(
            result.pooled_predictions
        )

    def test_ood_matches_library(self, raster_dir, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps(TRAIN_CONFIG))
        out = tmp_path / "ood"
        manifest = raster_dir / "manifest.json"
        assert run(
            "ood", "--manifest", manifest, "--model", "neural", "--config", config,
            "--holdout", "dense", "--seed", 2, "--out", out,
        ) == 0
        report, predictions = experiments.ood(
            _library_dataset(manifest), "dense", _neural_estimator(TRAIN_CONFIG), seed=2
        )
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["method"] == "ood-neural-single_view"
        assert payload["report"]["n"] == report.n == 12
        assert (out / "predictions.csv").read_text() == _predictions_csv(predictions)

    def test_pipeline_with_linear_and_neural_mass_models(self, raster_dir, tmp_path):
        self.check_pipeline_mass_models(raster_dir, tmp_path, TRAIN_CONFIG)

    def test_pipeline_with_wide_head_neural_mass_model(self, raster_dir, tmp_path):
        # the last head layer is an 8-wide matrix-vector product, whose BLAS
        # rounding depends on the rows batched around a sample
        model = {**TRAIN_CONFIG["model"], "head": "two_layer", "head_hidden": 8}
        self.check_pipeline_mass_models(raster_dir, tmp_path, {**TRAIN_CONFIG, "model": model})

    @staticmethod
    def check_pipeline_mass_models(raster_dir, tmp_path, train_config):
        """A pipeline routing one taxon to a linear and one to a neural mass
        model gives each specimen exactly the mass of one batched
        ``experiments.predict`` call over the ids routed to that model."""
        manifest = raster_dir / "manifest.json"
        config = tmp_path / "train.json"
        config.write_text(json.dumps(train_config))
        cls_config = tmp_path / "cls.json"
        cls_config.write_text(
            json.dumps({"model": {**TRAIN_CONFIG["model"], "task": "classification"},
                        "train": {"epochs": 5, "batch_size": 32}})
        )
        for argv in (
            ("train", "--config", config, "--seed", 4, "--out", tmp_path / "neural"),
            ("train", "--config", cls_config, "--seed", 9, "--out", tmp_path / "cls"),
            ("fit-linear", "--out", tmp_path / "linear"),
        ):
            assert run(*argv, "--manifest", manifest) == 0
        paths = {
            "light": tmp_path / "linear" / "linear_model.json",
            "dense": tmp_path / "neural" / "checkpoint.json",
        }
        mapping = tmp_path / "mass_models.json"
        mapping.write_text(json.dumps({taxon: str(path) for taxon, path in paths.items()}))
        out = tmp_path / "pipe"
        assert run(
            "pipeline", "--manifest", manifest, "--classifier", tmp_path / "cls" / "checkpoint.json",
            "--mass-models", mapping, "--out", out,
        ) == 0

        dataset = _library_dataset(manifest)
        models = {
            "light": load_linear_model(paths["light"]),
            "dense": load_checkpoint(paths["dense"]),
        }
        rows = [row.split(",") for row in (out / "predictions.csv").read_text().splitlines()[1:]]
        routed = {}
        for sid, _, _, _, taxon in rows:
            routed.setdefault(taxon, []).append(sid)
        expected = {
            e.specimen_id: e.predicted_mass_ug
            for taxon, ids in routed.items()
            for e in experiments.predict(models[taxon], dataset, ids).entries
        }
        for sid, _, _, mass, _ in rows:
            assert float(mass) == expected[sid]
        assert len(rows) == 24
        assert set(routed) == {"light", "dense"}  # both model families served specimens

def _write_specimen(base, sid, taxon, tops, rng):
    """One weighed two-camera specimen with a frame CSV and 8x8 rasters."""
    frames = frame_table(
        make_frame(camera, i, top, box=4) for camera in "AB" for i, top in enumerate(tops)
    )
    (base / "frames").mkdir(exist_ok=True)
    (base / "frames" / f"{sid}.csv").write_bytes(serialize_frame_csv(frames))
    rdir = base / "rasters" / sid
    rdir.mkdir(parents=True)
    for name in raster_names(frames):
        pixels = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        (rdir / name).write_bytes(save_raster(pixels))
    return {"specimen_id": sid, "taxon": taxon, "dry_mass_ug": 40.0,
            "metadata_csv": f"frames/{sid}.csv", "raster_dir": f"rasters/{sid}"}


def _untrained_checkpoint(path, taxa=None, input_size=8, **config_fields):
    """A small randomly initialized checkpoint for rasters of side ``input_size``."""
    config = ModelConfig(
        encoder_channels=(2,), head=HeadKind.ONE_LAYER, input_size=input_size, **config_fields
    )
    n_meta = len(config.metadata_inputs)
    stats = (np.zeros(n_meta), np.ones(n_meta)) if n_meta else (None, None)
    params = init_params(config, np.random.default_rng(0))
    save_checkpoint(TrainedModel(config, params, 0, [1.0], *stats, taxa), path)
    return path


class TestPipelineUnscorableSpecimen:
    @pytest.mark.parametrize("needs_speed", ["classifier", "mass_model"])
    def test_model_needing_speed_exits_2_naming_the_specimen(
        self, tmp_path, capsys, needs_speed
    ):
        rng = np.random.default_rng(3)
        manifest = [
            _write_specimen(tmp_path, f"s{i}", "ab"[i % 2], (300, 220, 140), rng) for i in range(4)
        ]
        manifest.append(_write_specimen(tmp_path, "one_frame", "a", (300,), rng))
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        speed = {
            "architecture": Architecture.METADATA_AWARE,
            "metadata_inputs": (MetadataInput.SINKING_SPEED,),
        }
        classifier = _untrained_checkpoint(
            tmp_path / "cls.json",
            taxa=("a", "b"),
            n_classes=2,
            **(speed if needs_speed == "classifier" else {}),
        )
        mass = _untrained_checkpoint(
            tmp_path / "mass.json", **(speed if needs_speed == "mass_model" else {})
        )
        code = run(
            "pipeline",
            "--manifest",
            tmp_path / "manifest.json",
            "--classifier",
            classifier,
            "--mass-model",
            mass,
            "--out",
            tmp_path / "pipe",
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        error = json.loads(err[0])
        assert error["error"] == "MissingSpeed"
        assert "one_frame" in error["message"]


def _pipeline_fixture(base):
    """An 8x8-raster manifest and a classifier and a mass model that fit it."""
    rng = np.random.default_rng(5)
    manifest = [_write_specimen(base, f"s{i}", "ab"[i % 2], (300, 220, 140), rng) for i in range(4)]
    (base / "manifest.json").write_text(json.dumps(manifest))
    classifier = _untrained_checkpoint(base / "cls.json", taxa=("a", "b"), n_classes=2)
    return base / "manifest.json", classifier, _untrained_checkpoint(base / "mass.json")


MODEL_FLAG_CASES = {
    "evaluate_model_not_json": ("InputError", lambda m, cls, mass, bad: (
        "evaluate", "--model", bad.with_suffix(".txt"))),
    "pipeline_classifier_missing": ("ModelMissing", lambda m, cls, mass, bad: (
        "pipeline", "--classifier", bad, "--mass-model", mass)),
    "pipeline_mass_model_missing": ("ModelMissing", lambda m, cls, mass, bad: (
        "pipeline", "--classifier", cls, "--mass-model", bad)),
    "pipeline_mass_models_map_missing": ("ModelMissing", lambda m, cls, mass, bad: (
        "pipeline", "--classifier", cls, "--mass-models", bad)),
    "pipeline_mass_models_entry_missing": ("ModelMissing", lambda m, cls, mass, bad: (
        "pipeline", "--classifier", cls, "--mass-models", m.parent / "map.json")),
    "finetune_base_missing": ("ModelMissing", lambda m, cls, mass, bad: (
        "finetune", "--base", bad, "--seed", 1)),
}


@pytest.mark.parametrize("case", sorted(MODEL_FLAG_CASES))
def test_model_path_flags_share_one_loader(tmp_path, capsys, case):
    manifest, classifier, mass = _pipeline_fixture(tmp_path)
    missing = tmp_path / "missing.json"
    missing.with_suffix(".txt").write_text("not json\n")
    (tmp_path / "map.json").write_text(json.dumps({"a": str(mass), "b": str(missing)}))
    error, argv = MODEL_FLAG_CASES[case]
    code = run(
        *argv(manifest, classifier, mass, missing), "--manifest", manifest,
        "--out", tmp_path / "out",
    )
    assert code == 2
    assert one_error(capsys)["error"] == error


CLASSIFIER_AS_MASS_MODEL = {
    "evaluate_model": lambda cls, mapping: ("evaluate", "--model", cls),
    "pipeline_mass_model": lambda cls, mapping: (
        "pipeline", "--classifier", cls, "--mass-model", cls),
    "pipeline_mass_models_entry": lambda cls, mapping: (
        "pipeline", "--classifier", cls, "--mass-models", mapping),
}


@pytest.mark.parametrize("case", sorted(CLASSIFIER_AS_MASS_MODEL))
def test_classifier_given_as_mass_model_exits_2(tmp_path, capsys, case):
    manifest, classifier, mass = _pipeline_fixture(tmp_path)
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({"a": str(mass), "b": str(classifier)}))
    code = run(
        *CLASSIFIER_AS_MASS_MODEL[case](classifier, mapping), "--manifest", manifest,
        "--out", tmp_path / "out",
    )
    assert code == 2
    assert one_error(capsys)["error"] == "IncompatibleArchitecture"


def test_pipeline_reads_each_model_file_once(tmp_path, monkeypatch):
    manifest, classifier, mass = _pipeline_fixture(tmp_path)
    masses = [mass, _untrained_checkpoint(tmp_path / "mass_b.json"),
              _untrained_checkpoint(tmp_path / "mass_c.json")]
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({taxon: str(path) for taxon, path in zip("abc", masses)}))
    reads = []
    real_read_text = Path.read_text

    def spy(self, *args, **kwargs):
        reads.append(self.name)
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", spy)
    assert run(
        "pipeline", "--manifest", manifest, "--classifier", classifier,
        "--mass-models", mapping, "--out", tmp_path / "pipe",
    ) == 0
    for path in (classifier, *masses, mapping):
        assert reads.count(path.name) == 1, (path.name, reads)


def test_mass_model_entry_that_receives_no_specimen(tmp_path):
    manifest, classifier, mass = _pipeline_fixture(tmp_path)
    # the classifier only predicts "a" or "b", so the "c" model is never routed to
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({taxon: str(mass) for taxon in "abc"}))
    assert run(
        "pipeline", "--manifest", manifest, "--classifier", classifier,
        "--mass-models", mapping, "--out", tmp_path / "pipe",
    ) == 0


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("spelling", [["--threads", "3"], ["--threads=3"], ["--thr", "3"]])
def test_thread_cap_accepts_every_spelling(monkeypatch, tmp_path, spelling):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "unset")  # restored after the test
        monkeypatch.delenv(var)
    # NoResults, raised after the cap is set
    assert main(["report", *spelling, "--out", str(tmp_path)]) == 2
    assert {var: os.environ.get(var) for var in THREAD_VARS} == dict.fromkeys(THREAD_VARS, "3")


def test_no_thread_flag_leaves_the_pools_uncapped(monkeypatch, tmp_path):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "unset")  # restored after the test
        monkeypatch.delenv(var)
    assert main(["report", "--out", str(tmp_path)]) == 2  # NoResults
    assert {var: os.environ.get(var) for var in THREAD_VARS} == dict.fromkeys(THREAD_VARS)


def _subprocess(*args):
    """Run python with ``args`` on this sinkmass, no BLAS thread cap preset."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(sinkmass.__file__).parents[1])
    return subprocess.run(
        [sys.executable, *map(str, args)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )


def test_cli_import_leaves_numpy_unloaded():
    # otherwise --threads comes too late: BLAS reads its cap when numpy loads
    out = _subprocess("-c", "import sys, sinkmass.cli; print('numpy' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_commands_that_derive_no_substream_leave_openssl_unloaded(synth_dir, tmp_path):
    # hashlib loads OpenSSL, about 4 MB of RSS, for substream names alone
    manifest, model = synth_dir / "manifest.json", tmp_path / "fit" / "linear_model.json"
    commands = [
        ["fit-linear", "--manifest", manifest, "--features", "area", "--out", tmp_path / "fit"],
        ["evaluate", "--manifest", manifest, "--model", model, "--out", tmp_path / "eval"],
        ["evaluate", "--manifest", manifest, "--model", model, "--bootstrap", 10, "--seed", 1,
         "--out", tmp_path / "boot"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from sinkmass.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    print('_hashlib' in sys.modules)\n"
    )
    out = _subprocess("-c", script, json.dumps([list(map(str, argv)) for argv in commands]))
    assert out.stdout.split() == ["False", "False", "True"]


def test_train_checkpoint_identical_across_thread_counts(raster_dir, tmp_path):
    config = tmp_path / "train.json"
    config.write_text(
        json.dumps(
            {
                "model": {
                    **TRAIN_CONFIG["model"],
                    "architecture": "metadata_aware",
                    "metadata_inputs": ["frame_area", "sinking_speed"],
                },
                "train": {**TRAIN_CONFIG["train"], "augmentation": "flips90"},
            }
        )
    )
    for threads in (1, 2):
        _subprocess(
            "-m", "sinkmass.cli", "train", "--manifest", raster_dir / "manifest.json",
            "--config", config, "--seed", 4, "--threads", threads, "--out", tmp_path / str(threads),
        )
    one, two = ((tmp_path / t / "checkpoint.json").read_bytes() for t in ("1", "2"))
    assert one == two


def test_neural_inference_identical_across_thread_counts(raster_dir, tmp_path):
    m = ("--manifest", raster_dir / "manifest.json")
    model = {**TRAIN_CONFIG["model"], "head": "two_layer", "head_hidden": 8}
    for name, task in (("reg", "regression"), ("cls", "classification")):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({**TRAIN_CONFIG, "model": {**model, "task": task}}))
        assert run("train", *m, "--config", config, "--seed", 4, "--out", tmp_path / name) == 0
    reg, cls = (tmp_path / name / "checkpoint.json" for name in ("reg", "cls"))
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        stdout = [
            _subprocess("-m", "sinkmass.cli", *argv, "--threads", threads).stdout
            for argv in (
                ("evaluate", *m, "--model", reg, "--out", out / "eval"),
                ("pipeline", *m, "--classifier", cls, "--mass-model", reg, "--out", out / "pipe"),
            )
        ]
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        outputs[threads] = (stdout, files)
    assert {path.parts[0] for path in outputs[1][1]} == {"eval", "pipe"}
    assert outputs[1] == outputs[2]


def _run_every_command(workdir, capsys):
    """Run each command once in ``workdir`` on one seed; return its stdout lines."""
    for name, payload in {
        "synth.json": RASTER_CONFIG,
        "train.json": TRAIN_CONFIG,
        "meta.json": {
            "model": {**TRAIN_CONFIG["model"], "architecture": "metadata_aware",
                      "metadata_inputs": ["frame_area", "mean_area", "sinking_speed"]},
            "train": {**TRAIN_CONFIG["train"], "epochs": 2, "augmentation": "flips90"},
        },
        "cls.json": {"model": {**TRAIN_CONFIG["model"], "task": "classification"},
                     "train": {"epochs": 2, "batch_size": 32}},
        "ft.json": {"train": {**TRAIN_CONFIG["train"], "freeze": "encoder"}},
    }.items():
        (workdir / name).write_text(json.dumps(payload))
    m = ("--manifest", "data/manifest.json")
    commands = [
        ("synth", "--seed", 21, "--config", "synth.json", "--out", "data"),
        ("ingest", *m, "--out", "ingest"),
        ("features", *m, "--out", "features"),
        ("fit-linear", *m, "--features", "area_speed", "--out", "linear"),
        ("evaluate", *m, "--model", "linear/linear_model.json", "--bootstrap", 50,
         "--seed", 2, "--out", "eval"),
        ("crossval", *m, "--model", "linear-area-speed", "--seed", 3, "--out", "cv_linear"),
        ("crossval", *m, "--model", "neural", "--config", "meta.json", "--folds", 2,
         "--seed", 3, "--out", "cv_neural"),
        ("ood", *m, "--model", "linear-area", "--holdout", "dense", "--seed", 3,
         "--out", "ood_linear"),
        ("ood", *m, "--model", "neural", "--config", "meta.json", "--holdout", "dense",
         "--seed", 3, "--out", "ood_neural"),
        ("train", *m, "--config", "cls.json", "--seed", 9, "--out", "cls"),
        ("train", *m, "--config", "train.json", "--seed", 4, "--out", "reg"),
        ("finetune", *m, "--base", "reg/checkpoint.json", "--config", "ft.json", "--seed", 6,
         "--out", "tuned"),
        ("pipeline", *m, "--classifier", "cls/checkpoint.json", "--mass-model",
         "tuned/checkpoint.json", "--out", "pipe"),
        ("report", "eval/metrics.json", "ood_linear/metrics.json", "ood_neural/metrics.json",
         "--out", "report"),
    ]
    stdout = []
    for argv in commands:
        assert run(*argv) == 0, argv
        stdout.append(capsys.readouterr().out)
    return stdout


def test_every_command_is_byte_identical_across_runs(tmp_path, monkeypatch, capsys):
    stdout = {}
    files = {}
    for run_name in ("first", "second"):
        workdir = tmp_path / run_name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        stdout[run_name] = _run_every_command(workdir, capsys)
        files[run_name] = {
            str(p.relative_to(workdir)): p.read_bytes() for p in workdir.rglob("*") if p.is_file()
        }
    assert stdout["first"] == stdout["second"]
    assert len(files["first"]) > 100
    assert files["first"] == files["second"]
