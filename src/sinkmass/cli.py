"""Command-line entry point binding the library into experiment flows.

Subcommands: ingest, synth, features, fit-linear, train, finetune, crossval,
evaluate, ood, pipeline, report. Every command that consumes randomness
requires --seed, and identical inputs plus an identical seed produce
byte-identical primary output files.

Exit codes: 0 success, 2 input/validation error, 3 numeric failure. Errors
are emitted as one JSON object on stderr.

Heavy imports happen inside command handlers so that --threads can cap the
BLAS thread pools before numpy is loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ABSOLUTE_METRICS = ("mae", "rmse")
METRIC_ORDER = ("mape", "mdape", "mae", "rmse", "r2_log")


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_config(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    try:
        return json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        from .errors import InputError

        raise InputError(f"cannot read config {args.config}: {exc}") from None


def _require_seed(args) -> int:
    if args.seed is None:
        from .errors import InputError

        raise InputError("this command requires --seed")
    return args.seed


def _out_dir(args) -> Path:
    from .errors import InputError

    if args.out is None:
        raise InputError("this command requires --out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(args, raster_dims=None):
    from .ingest import assemble_dataset, load_manifest

    name = getattr(args, "name", None) or Path(args.manifest).stem
    if name == "manifest":
        name = Path(args.manifest).resolve().parent.name
    entries = load_manifest(args.manifest)
    return assemble_dataset(entries, name=name, raster_dims=raster_dims)


def _float_repr(value) -> str:
    return "" if value is None else repr(float(value))


def _report_rows(labeled_reports) -> list[dict]:
    rows = []
    for item in labeled_reports:
        report = item["report"]
        intervals = report.get("bootstrap") or {}
        for metric in METRIC_ORDER:
            scale = 1e-3 if metric in ABSOLUTE_METRICS else 1.0  # present ug as mg
            interval = intervals.get(metric)
            rows.append(
                {
                    "dataset": item["dataset"],
                    "method": item["method"],
                    "metric": metric + ("_mg" if metric in ABSOLUTE_METRICS else ""),
                    "value": report[metric] * scale,
                    "ci_low": None if interval is None else interval["low"] * scale,
                    "ci_high": None if interval is None else interval["high"] * scale,
                    "std": None if interval is None else interval["std"] * scale,
                }
            )
    rows.sort(key=lambda r: (r["dataset"], r["method"], METRIC_ORDER.index(r["metric"].replace("_mg", ""))))
    return rows


def _rows_to_csv(rows) -> str:
    lines = ["dataset,method,metric,value,ci_low,ci_high,std"]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r["dataset"],
                    r["method"],
                    r["metric"],
                    _float_repr(r["value"]),
                    _float_repr(r["ci_low"]),
                    _float_repr(r["ci_high"]),
                    _float_repr(r["std"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _predictions_csv(predictions) -> str:
    lines = ["specimen_id,taxon,true_mass_ug,predicted_mass_ug,predicted_taxon"]
    for e in sorted(predictions.entries, key=lambda e: e.specimen_id):
        lines.append(
            f"{e.specimen_id},{e.taxon},{e.true_mass_ug!r},{e.predicted_mass_ug!r},"
            f"{e.predicted_taxon or ''}"
        )
    return "\n".join(lines) + "\n"


# --- model loading helpers -------------------------------------------------


def _load_any_model(path: Path):
    """Dispatch on file content: linear model JSON vs neural checkpoint."""
    from .errors import ModelMissing

    path = Path(path)
    if not path.exists():
        raise ModelMissing(f"model file {path} does not exist")
    payload = json.loads(path.read_text())
    if "feature_spec" in payload:
        from .linear import load_linear_model

        return "linear", load_linear_model(path)
    from .neural.training import load_checkpoint

    return "neural", load_checkpoint(path)


def _predict_with(kind, model, dataset, ids, features, trim):
    from . import experiments

    if kind == "linear":
        return experiments.predict_linear(model, dataset, ids, features, trim)
    return experiments.predict_neural(model, dataset, ids, features, trim)


def _model_configs_from(config: dict, dataset=None, seed=None):
    """Build (ModelConfig, TrainConfig) from the --config JSON sections."""
    from .neural.losses import LossKind, LossSpace
    from .neural.model import Architecture, HeadKind, MetadataInput, ModelConfig
    from .neural.training import AugmentPolicy, FreezeMode, TrainConfig
    from .linear import TargetSpace

    m = dict(config.get("model", {}))
    taxa = None
    n_classes = None
    if m.pop("task", "regression") == "classification":
        taxa = tuple(sorted(dataset.taxon_set))
        n_classes = len(taxa)
    model_config = ModelConfig(
        architecture=Architecture(m.get("architecture", "single_view")),
        encoder_channels=tuple(m.get("encoder_channels", (8, 16))),
        head=HeadKind(m.get("head", "two_layer")),
        head_hidden=int(m.get("head_hidden", 64)),
        metadata_inputs=tuple(MetadataInput(v) for v in m.get("metadata_inputs", ())),
        metadata_hidden=m.get("metadata_hidden"),
        target_space=TargetSpace(m.get("target_space", "log")),
        input_size=int(m.get("input_size", 32)),
        n_classes=n_classes,
    )
    t = dict(config.get("train", {}))
    train_config = TrainConfig(
        loss=LossKind(t.get("loss", "l1")),
        loss_space=LossSpace(t.get("loss_space", "log")),
        epochs=int(t.get("epochs", 50)),
        batch_size=int(t.get("batch_size", 128)),
        lr_max=float(t.get("lr_max", 3e-3)),
        lr_min=float(t.get("lr_min", 1e-5)),
        seed=seed if seed is not None else int(t.get("seed", 0)),
        augmentation=AugmentPolicy(t.get("augmentation", "none")),
        freeze=FreezeMode(t.get("freeze", "none")),
        weight_decay=float(t.get("weight_decay", 1e-4)),
    )
    return model_config, train_config, taxa


# --- command handlers ------------------------------------------------------


def cmd_synth(args) -> int:
    from .synth import generate, synth_config_from_dict, write_synth_output

    seed = _require_seed(args)
    config_dict = _load_config(args)
    config_dict.setdefault("seed", seed)
    config = synth_config_from_dict(config_dict)
    out = _out_dir(args)
    dataset, truth = generate(config, name=out.name)
    manifest_path = write_synth_output(dataset, truth, out)
    print(json.dumps({"manifest": str(manifest_path), "specimens": len(dataset.specimens)}))
    return 0


def cmd_ingest(args) -> int:
    from .records import validate_dataset

    raster_dims = tuple(args.raster_size) if args.raster_size else None
    dataset = _load_dataset(args, raster_dims=raster_dims)
    report = validate_dataset(dataset)
    out = _out_dir(args)
    summary = {
        "name": dataset.name,
        "specimens": len(dataset.specimens),
        "taxa": sorted(dataset.taxon_set),
        "total_frames": sum(len(s.frames) for s in dataset.specimens),
        "raster_dims": list(dataset.raster_dims) if dataset.raster_dims else None,
        "violations": [
            {"specimen_id": v.specimen_id, "field": v.field, "message": v.message}
            for v in report.violations
        ],
    }
    _write_json(out / "dataset_summary.json", summary)
    if not report.ok:
        print(
            json.dumps({"error": "ValidationFailed", "violations": len(report)}),
            file=sys.stderr,
        )
        return 2
    print(json.dumps({"specimens": len(dataset.specimens), "valid": True}))
    return 0


def cmd_features(args) -> int:
    from .experiments import feature_table

    dataset = _load_dataset(args)
    table = feature_table(dataset)
    lines = ["specimen_id,taxon,dry_mass_ug,mean_area_px,image_count,sinking_speed,pseudo_mass"]
    for record in dataset.specimens:
        f = table[record.specimen_id]
        mass = "" if record.dry_mass_ug is None else repr(record.dry_mass_ug)
        speed = "" if f.sinking_speed is None else repr(f.sinking_speed)
        lines.append(
            f"{record.specimen_id},{record.taxon},{mass},{f.mean_area_px!r},"
            f"{f.image_count},{speed},{f.pseudo_mass!r}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        out = _out_dir(args)
        (out / "features.csv").write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_fit_linear(args) -> int:
    from . import experiments
    from .linear import FeatureSpec, TargetSpace, save_linear_model

    dataset = _load_dataset(args)
    feature_spec = FeatureSpec.AREA_ONLY if args.features == "area" else FeatureSpec.AREA_PLUS_SPEED
    target = TargetSpace(args.target)
    ids = [s.specimen_id for s in dataset.specimens]
    model = experiments.fit_linear(
        dataset, ids, feature_spec, target, per_image=not args.per_specimen
    )
    out = _out_dir(args)
    save_linear_model(model, out / "linear_model.json")
    print(json.dumps({"model": str(out / "linear_model.json")}))
    return 0


def cmd_evaluate(args) -> int:
    from . import experiments
    from .evaluation import attach_bootstrap, compute_metrics

    dataset = _load_dataset(args)
    kind, model = _load_any_model(Path(args.model))
    features = experiments.feature_table(dataset)
    ids = [s.specimen_id for s in dataset.specimens]
    predictions = _predict_with(kind, model, dataset, ids, features, args.trim)
    report = compute_metrics(predictions)
    if args.bootstrap > 0:
        seed = _require_seed(args)
        report = attach_bootstrap(report, predictions, args.bootstrap, args.level, seed)
    method = args.method or f"{kind}"
    payload = {"dataset": dataset.name, "method": method, "report": report.to_dict()}
    out = _out_dir(args)
    _write_json(out / "metrics.json", payload)
    (out / "metrics.csv").write_text(_rows_to_csv(_report_rows([payload])))
    (out / "predictions.csv").write_text(_predictions_csv(predictions))
    print(json.dumps({"n": report.n, "mdape": report.mdape}))
    return 0


def cmd_crossval(args) -> int:
    from . import experiments
    from .linear import FeatureSpec, TargetSpace

    seed = _require_seed(args)
    config = _load_config(args)
    dataset = _load_dataset(args)
    if args.model in ("linear-area", "linear-area-speed"):
        feature_spec = (
            FeatureSpec.AREA_ONLY if args.model == "linear-area" else FeatureSpec.AREA_PLUS_SPEED
        )
        result = experiments.crossval_linear(
            dataset,
            feature_spec,
            TargetSpace(args.target),
            k=args.folds,
            seed=seed,
            trim_fraction=args.trim,
            per_image=not args.per_specimen,
        )
        method = args.method or args.model
    else:
        model_config, train_config, taxa = _model_configs_from(config, dataset, seed=None)
        result = experiments.crossval_neural(
            dataset, model_config, train_config, k=args.folds, seed=seed,
            trim_fraction=args.trim,
        )
        method = args.method or f"neural-{model_config.architecture.value}"
    out = _out_dir(args)
    _write_json(out / "splits.json", result.plan.to_dict())
    payload = {
        "dataset": dataset.name,
        "method": method,
        "folds": [r.to_dict() for r in result.fold_reports],
        "report": result.pooled_report.to_dict(),
    }
    _write_json(out / "crossval_report.json", payload)
    (out / "predictions.csv").write_text(_predictions_csv(result.pooled_predictions))
    print(json.dumps({"pooled_mdape": result.pooled_report.mdape, "n": result.pooled_report.n}))
    return 0


def cmd_train(args) -> int:
    from .evaluation import make_cv_splits
    from .neural.training import save_checkpoint, train

    seed = _require_seed(args)
    config = _load_config(args)
    dataset = _load_dataset(args)
    model_config, train_config, taxa = _model_configs_from(config, dataset, seed=seed)
    plan = make_cv_splits(dataset, k=args.folds, seed=seed)
    fold = plan.folds[args.fold]
    model = train(dataset, fold.train, fold.val, model_config, train_config, taxa=taxa)
    out = _out_dir(args)
    save_checkpoint(model, out / "checkpoint.json")
    print(
        json.dumps(
            {
                "checkpoint": str(out / "checkpoint.json"),
                "best_epoch": model.best_epoch,
                "best_val_loss": min(model.val_loss_history),
            }
        )
    )
    return 0


def cmd_finetune(args) -> int:
    from .evaluation import make_cv_splits
    from .neural.training import fine_tune, load_checkpoint, save_checkpoint

    seed = _require_seed(args)
    config = _load_config(args)
    dataset = _load_dataset(args)
    base = load_checkpoint(args.base)
    _, train_config, _ = _model_configs_from(config, dataset, seed=seed)
    plan = make_cv_splits(dataset, k=args.folds, seed=seed)
    fold = plan.folds[args.fold]
    model = fine_tune(base, dataset, fold.train, fold.val, train_config)
    out = _out_dir(args)
    save_checkpoint(model, out / "checkpoint.json")
    print(json.dumps({"checkpoint": str(out / "checkpoint.json"), "best_epoch": model.best_epoch}))
    return 0


def cmd_ood(args) -> int:
    from . import experiments
    from .linear import FeatureSpec, TargetSpace

    seed = _require_seed(args)
    config = _load_config(args)
    dataset = _load_dataset(args)
    if args.model in ("linear-area", "linear-area-speed"):
        feature_spec = (
            FeatureSpec.AREA_ONLY if args.model == "linear-area" else FeatureSpec.AREA_PLUS_SPEED
        )
        report, predictions = experiments.ood_linear(
            dataset, args.holdout, feature_spec, TargetSpace(args.target), args.trim,
            per_image=not args.per_specimen,
        )
        method = args.method or f"ood-{args.model}"
    else:
        model_config, train_config, _ = _model_configs_from(config, dataset, seed=seed)
        report, predictions = experiments.ood_neural(
            dataset, args.holdout, model_config, train_config, seed=seed,
            trim_fraction=args.trim,
        )
        method = args.method or f"ood-neural-{model_config.architecture.value}"
    out = _out_dir(args)
    payload = {
        "dataset": dataset.name,
        "method": method,
        "holdout_taxon": args.holdout,
        "report": report.to_dict(),
    }
    _write_json(out / "metrics.json", payload)
    (out / "predictions.csv").write_text(_predictions_csv(predictions))
    print(json.dumps({"holdout": args.holdout, "n": report.n, "mdape": report.mdape}))
    return 0


def _unscored(record, model, role: str):
    """The error for a weighed specimen a model returned no prediction for.

    Models skip such specimens for one reason only: a multi-view model needs
    frames from both cameras, any other model a sinking speed.
    """
    from .errors import MissingSecondView, MissingSpeed
    from .neural.model import Architecture

    config = getattr(model, "config", None)
    if config is not None and config.architecture is Architecture.MULTI_VIEW:
        return MissingSecondView(
            f"specimen {record.specimen_id!r}: the {role} needs frames from both cameras"
        )
    return MissingSpeed(
        f"specimen {record.specimen_id!r}: the {role} needs a sinking speed, "
        "which needs at least two frames from one camera"
    )


def cmd_pipeline(args) -> int:
    from . import experiments
    from .errors import ModelMissing
    from .neural.training import load_checkpoint, predict_taxa

    dataset = _load_dataset(args)
    features = experiments.feature_table(dataset)
    classifier = load_checkpoint(args.classifier)
    ids = [s.specimen_id for s in dataset.specimens]
    predicted = predict_taxa(classifier, dataset, ids, features)

    mass_models = {}
    if args.mass_model:
        shared = _load_any_model(Path(args.mass_model))
        mass_models = {taxon: shared for taxon in classifier.taxa}
    elif args.mass_models:
        mapping = json.loads(Path(args.mass_models).read_text())
        mass_models = {taxon: _load_any_model(Path(p)) for taxon, p in mapping.items()}
    else:
        raise ModelMissing("pipeline needs --mass-model or --mass-models")

    prediction_cache: dict[tuple[str, str], float] = {}

    def classify_fn(record):
        if record.specimen_id not in predicted:
            raise _unscored(record, classifier, "classifier")
        return predicted[record.specimen_id]

    def predict_fn(record, taxon):
        key = (record.specimen_id, taxon)
        if key not in prediction_cache:
            if taxon not in mass_models:
                raise ModelMissing(f"no mass model for predicted taxon {taxon!r}")
            kind, model = mass_models[taxon]
            result = _predict_with(
                kind, model, dataset, [record.specimen_id], features, args.trim
            )
            if not result.entries:
                raise _unscored(record, model, f"mass model for taxon {taxon!r}")
            prediction_cache[key] = result.entries[0].predicted_mass_ug
        return prediction_cache[key]

    report = experiments.run_pipeline(
        dataset, classify_fn, predict_fn, taxa=classifier.taxa
    )
    out = _out_dir(args)
    _write_json(out / "pipeline_report.json", report.to_dict())
    (out / "predictions.csv").write_text(_predictions_csv(report.predictions))
    print(json.dumps({"accuracy": report.accuracy, "groups": len(report.groups)}))
    return 0


def cmd_report(args) -> int:
    from .errors import NoResults

    labeled = []
    for path in args.inputs:
        payload = json.loads(Path(path).read_text())
        if "report" not in payload:
            raise NoResults(f"{path} does not contain a metric report")
        labeled.append(payload)
    if not labeled:
        raise NoResults("no metric reports given")
    rows = _report_rows(labeled)
    out = _out_dir(args)
    _write_json(out / "report.json", rows)
    (out / "report.csv").write_text(_rows_to_csv(rows))
    print(json.dumps({"rows": len(rows)}))
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master RNG seed")
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--threads", type=int, default=None, help="cap BLAS thread pools")

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--manifest", type=str, required=True, help="manifest JSON path")
    data.add_argument("--name", type=str, default=None, help="dataset name override")

    trim = argparse.ArgumentParser(add_help=False)
    trim.add_argument("--trim", type=float, default=0.05, help="per-end trim fraction")

    parser = argparse.ArgumentParser(
        prog="sinkmass",
        description="Dry-mass estimation from sinking-specimen image sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", parents=[common], help="generate a synthetic dataset").set_defaults(
        fn=cmd_synth
    )

    p = sub.add_parser("ingest", parents=[common, data], help="parse and validate a dataset")
    p.add_argument("--raster-size", type=int, nargs=2, default=None, metavar=("H", "W"))
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("features", parents=[common, data], help="emit per-specimen features CSV")
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("fit-linear", parents=[common, data, trim], help="fit an OLS model")
    p.add_argument("--features", choices=["area", "area_speed"], default="area")
    p.add_argument("--target", choices=["raw", "log"], default="raw")
    p.add_argument("--per-specimen", action="store_true", help="fit on specimen means")
    p.set_defaults(fn=cmd_fit_linear)

    p = sub.add_parser("evaluate", parents=[common, data, trim], help="score a model")
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--method", type=str, default=None, help="method label for reports")
    p.add_argument("--bootstrap", type=int, default=0, help="bootstrap draws (0 = off)")
    p.add_argument("--level", type=float, default=0.95)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("crossval", parents=[common, data, trim], help="k-fold protocol")
    p.add_argument(
        "--model", choices=["linear-area", "linear-area-speed", "neural"], required=True
    )
    p.add_argument("--target", choices=["raw", "log"], default="raw")
    p.add_argument("--per-specimen", action="store_true")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--method", type=str, default=None)
    p.set_defaults(fn=cmd_crossval)

    p = sub.add_parser("train", parents=[common, data], help="train a neural model")
    p.add_argument("--fold", type=int, default=0, help="which CV fold supplies train/val")
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("finetune", parents=[common, data], help="fine-tune a checkpoint")
    p.add_argument("--base", type=str, required=True)
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("ood", parents=[common, data, trim], help="hold out one taxon")
    p.add_argument("--holdout", type=str, required=True)
    p.add_argument(
        "--model", choices=["linear-area", "linear-area-speed", "neural"], required=True
    )
    p.add_argument("--target", choices=["raw", "log"], default="raw")
    p.add_argument("--per-specimen", action="store_true")
    p.add_argument("--method", type=str, default=None)
    p.set_defaults(fn=cmd_ood)

    p = sub.add_parser(
        "pipeline", parents=[common, data, trim], help="classify then estimate mass"
    )
    p.add_argument("--classifier", type=str, required=True)
    p.add_argument("--mass-model", type=str, default=None, help="shared mass model")
    p.add_argument("--mass-models", type=str, default=None, help="JSON map taxon -> model path")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("report", parents=[common], help="consolidate metric reports")
    p.add_argument("inputs", nargs="*", help="metrics.json files")
    p.set_defaults(fn=cmd_report)

    return parser


def _apply_thread_cap(argv) -> None:
    # must happen before numpy is imported anywhere in this process
    n = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif arg.startswith("--threads="):
            n = arg.partition("=")[2]
    if n is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = n


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_thread_cap(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import InputError, NumericError

    try:
        return args.fn(args)
    except InputError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except NumericError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
