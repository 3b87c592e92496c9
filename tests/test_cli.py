import json
import os

import numpy as np
import pytest

from sinkmass import experiments
from sinkmass.cli import _apply_thread_cap, _predictions_csv, main
from sinkmass.ingest import Raster, assemble_dataset, load_manifest, save_raster, serialize_frame_csv
from sinkmass.linear import load_linear_model
from sinkmass.neural.model import Architecture, HeadKind, MetadataInput, ModelConfig, init_params
from sinkmass.neural.training import TrainConfig, TrainedModel, load_checkpoint, save_checkpoint

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

    def test_synth_requires_seed(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(SYNTH_CONFIG))
        assert run("synth", "--config", config, "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"dtt": 8.0},
            {"dt": "x"},
            {"groups": [{**SYNTH_CONFIG["groups"][0], "colour": "red"}]},
            {"groups": [{k: v for k, v in SYNTH_CONFIG["groups"][0].items() if k != "count"}]},
        ],
        ids=["unknown_key", "uncoercible_value", "unknown_group_key", "group_missing_count"],
    )
    def test_bad_synth_config_exits_2(self, tmp_path, capsys, change):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**SYNTH_CONFIG, **change}))
        assert run("synth", "--seed", 1, "--config", config, "--out", tmp_path / "x") == 2
        assert one_error(capsys)["error"] == "InvalidConfig"

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
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == "ValidationFailed"

    def test_missing_manifest_is_input_error(self, tmp_path, capsys):
        assert run("ingest", "--manifest", tmp_path / "nope.json", "--out", tmp_path) == 2
        assert "error" in json.loads(capsys.readouterr().err.strip())

    def test_ingest_with_rasters_records_dims(self, raster_dir, tmp_path):
        assert run("ingest", "--manifest", raster_dir / "manifest.json", "--out", tmp_path) == 0
        summary = json.loads((tmp_path / "dataset_summary.json").read_text())
        assert summary["raster_dims"] == [16, 16]
        assert summary["violations"] == []


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

    def test_crossval_requires_seed(self, synth_dir, tmp_path):
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
        config = tmp_path / "cls.json"
        config.write_text(
            json.dumps(
                {
                    "model": {**TRAIN_CONFIG["model"], "task": "classification"},
                    "train": {"epochs": 2, "batch_size": 32},
                }
            )
        )
        cls_dir = tmp_path / "cls"
        run(
            "train",
            "--manifest",
            raster_dir / "manifest.json",
            "--config",
            config,
            "--seed",
            9,
            "--out",
            cls_dir,
        )
        code = run(
            "pipeline",
            "--manifest",
            raster_dir / "manifest.json",
            "--classifier",
            cls_dir / "checkpoint.json",
            "--out",
            tmp_path / "pipe",
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ModelMissing"


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


BAD_FLAGS = {
    "folds_not_an_int": ("UsageError", ("crossval", "--model", "linear-area", "--folds", "x")),
    "zero_folds": ("InvalidConfig", ("crossval", "--model", "linear-area", "--folds", 0)),
    "one_fold": ("InvalidConfig", ("crossval", "--model", "linear-area", "--folds", 1)),
    "fold_past_the_last": ("InvalidConfig", ("train", "--fold", 7)),
    "negative_fold": ("InvalidConfig", ("train", "--fold", -1)),
    "trim_one_half": ("UsageError", ("evaluate", "--model", "m.json", "--trim", 0.5)),
    "trim_above_one_half": ("UsageError", ("evaluate", "--model", "m.json", "--trim", 0.7)),
    "negative_trim": ("UsageError", ("evaluate", "--model", "m.json", "--trim", -0.1)),
    "unknown_command": ("UsageError", ("estimate",)),
}


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_flags_exit_2_with_one_json_error(synth_dir, tmp_path, capsys, case):
    error, argv = BAD_FLAGS[case]
    code = run(
        *argv, "--manifest", synth_dir / "manifest.json", "--seed", 1, "--out", tmp_path / "out"
    )
    assert code == 2
    assert one_error(capsys)["error"] == error


def _library_dataset(manifest):
    return assemble_dataset(load_manifest(manifest), name=manifest.parent.name)


def _neural_estimator(config):
    return experiments.NeuralEstimator(
        ModelConfig.from_dict(config["model"]), TrainConfig.from_dict(config["train"])
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
    frames = [make_frame(camera, i, top, box=4) for camera in "AB" for i, top in enumerate(tops)]
    (base / "frames").mkdir(exist_ok=True)
    (base / "frames" / f"{sid}.csv").write_bytes(serialize_frame_csv(frames))
    rdir = base / "rasters" / sid
    rdir.mkdir(parents=True)
    for f in frames:
        pixels = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        (rdir / f"{f.camera_id}_{f.frame_index}.pgm").write_bytes(save_raster(Raster(8, 8, pixels)))
    return {"specimen_id": sid, "taxon": taxon, "dry_mass_ug": 40.0,
            "metadata_csv": f"frames/{sid}.csv", "raster_dir": f"rasters/{sid}"}


def _untrained_checkpoint(path, taxa=None, **config_fields):
    """A small randomly initialized checkpoint for 8x8 rasters."""
    config = ModelConfig(
        encoder_channels=(2,), head=HeadKind.ONE_LAYER, input_size=8, **config_fields
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


@pytest.mark.parametrize("spelling", [["--threads", "3"], ["--threads=3"]])
def test_thread_cap_accepts_both_spellings(monkeypatch, spelling):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "unset")  # restored after the test
        monkeypatch.delenv(var)
    _apply_thread_cap(["train", *spelling, "--seed", "1"])
    assert {var: os.environ.get(var) for var in THREAD_VARS} == dict.fromkeys(THREAD_VARS, "3")
