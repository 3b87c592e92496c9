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


def _read_json(path, what: str):
    from .errors import InputError

    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from None


def _load_config(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    return _read_json(args.config, "config")


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


def _read_model_json(path):
    from .errors import ModelMissing

    if not Path(path).exists():
        raise ModelMissing(f"model file {path} does not exist")
    return _read_json(path, "model file")


def _load_any_model(path):
    """A linear model JSON or a neural checkpoint, told apart by content."""
    from .errors import InputError
    from .linear import load_linear_model
    from .neural.training import load_checkpoint

    payload = _read_model_json(path)
    if not isinstance(payload, dict):
        raise InputError(f"model file {path} does not hold a JSON object")
    return load_linear_model(path) if "feature_spec" in payload else load_checkpoint(path)


def _model_configs_from(config: dict, dataset, seed: int):
    """(ModelConfig, TrainConfig, taxa) from the --config JSON sections.

    Missing keys take the config dataclasses' defaults; the command's seed
    overrides any seed in the config.
    """
    from .neural.model import ModelConfig
    from .neural.training import TrainConfig

    m = dict(config.get("model", {}))
    taxa = None
    if m.pop("task", "regression") == "classification":
        taxa = tuple(sorted(dataset.taxon_set))
    m["n_classes"] = None if taxa is None else len(taxa)
    train_config = TrainConfig.from_dict({**config.get("train", {}), "seed": seed})
    return ModelConfig.from_dict(m), train_config, taxa


def _estimator(args, config: dict, dataset, seed: int):
    """The estimator ``--model`` names, and its default method label."""
    from . import experiments
    from .linear import FeatureSpec, TargetSpace

    if args.model == "neural":
        model_config, train_config, _ = _model_configs_from(config, dataset, seed)
        estimator = experiments.NeuralEstimator(model_config, train_config)
        return estimator, f"neural-{model_config.architecture.value}"
    feature_spec = (
        FeatureSpec.AREA_ONLY if args.model == "linear-area" else FeatureSpec.AREA_PLUS_SPEED
    )
    estimator = experiments.LinearEstimator(
        feature_spec, TargetSpace(args.target), per_image=not args.per_specimen
    )
    return estimator, args.model


# --- command handlers ------------------------------------------------------


def cmd_synth(args) -> int:
    from .config import config_from_dict
    from .synth import SynthConfig, generate, write_synth_output

    seed = _require_seed(args)
    config_dict = _load_config(args)
    config_dict.setdefault("seed", seed)
    config = config_from_dict(SynthConfig, config_dict)
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
    estimator = experiments.LinearEstimator(
        FeatureSpec(args.features), TargetSpace(args.target), per_image=not args.per_specimen
    )
    model = estimator.fit(dataset, [s.specimen_id for s in dataset.specimens])
    out = _out_dir(args)
    save_linear_model(model, out / "linear_model.json")
    print(json.dumps({"model": str(out / "linear_model.json")}))
    return 0


def cmd_evaluate(args) -> int:
    from . import experiments
    from .evaluation import attach_bootstrap, compute_metrics

    dataset = _load_dataset(args)
    model = _load_any_model(args.model)
    ids = [s.specimen_id for s in dataset.specimens]
    predictions = experiments.predict(model, dataset, ids, trim_fraction=args.trim)
    report = compute_metrics(predictions)
    if args.bootstrap > 0:
        seed = _require_seed(args)
        report = attach_bootstrap(report, predictions, args.bootstrap, args.level, seed)
    method = args.method or experiments.model_family(model)
    payload = {"dataset": dataset.name, "method": method, "report": report.to_dict()}
    out = _out_dir(args)
    _write_json(out / "metrics.json", payload)
    (out / "metrics.csv").write_text(_rows_to_csv(_report_rows([payload])))
    (out / "predictions.csv").write_text(_predictions_csv(predictions))
    print(json.dumps({"n": report.n, "mdape": report.mdape}))
    return 0


def cmd_crossval(args) -> int:
    from . import experiments

    seed = _require_seed(args)
    config = _load_config(args)
    dataset = _load_dataset(args)
    estimator, label = _estimator(args, config, dataset, seed)
    result = experiments.crossval(
        dataset, estimator, k=args.folds, seed=seed, trim_fraction=args.trim
    )
    method = args.method or label
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
    from .neural.training import fine_tune, save_checkpoint

    seed = _require_seed(args)
    config = _load_config(args)
    dataset = _load_dataset(args)
    base = _load_any_model(args.base)
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

    seed = _require_seed(args)
    config = _load_config(args)
    dataset = _load_dataset(args)
    estimator, label = _estimator(args, config, dataset, seed)
    report, predictions = experiments.ood(
        dataset, args.holdout, estimator, seed=seed, trim_fraction=args.trim
    )
    method = args.method or f"ood-{label}"
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
    from .errors import InputError, ModelMissing
    from .neural.training import predict_taxa

    dataset = _load_dataset(args)
    features = experiments.feature_table(dataset)
    classifier = _load_any_model(args.classifier)
    ids = [s.specimen_id for s in dataset.specimens]
    predicted = predict_taxa(classifier, dataset, ids, features)

    if args.mass_model:
        models = [_load_any_model(args.mass_model)]
        slot = dict.fromkeys(classifier.taxa, 0)
    elif args.mass_models:
        mapping = _read_model_json(args.mass_models)
        if not isinstance(mapping, dict) or not all(isinstance(p, str) for p in mapping.values()):
            raise InputError(f"{args.mass_models} must map taxa to model paths")
        models = [_load_any_model(path) for path in mapping.values()]
        slot = {taxon: i for i, taxon in enumerate(mapping)}
    else:
        raise ModelMissing("pipeline needs --mass-model or --mass-models")

    # one predict call per model over the weighed specimens routed to it
    routed = [[] for _ in models]
    for record in dataset.specimens:
        taxon = predicted.get(record.specimen_id)
        if record.dry_mass_ug is not None and taxon in slot:
            routed[slot[taxon]].append(record.specimen_id)
    masses = {}
    for model, model_ids in zip(models, routed):
        for e in experiments.predict(model, dataset, model_ids, features, args.trim).entries:
            masses[e.specimen_id] = e.predicted_mass_ug

    def classify_fn(record):
        if record.specimen_id not in predicted:
            raise _unscored(record, classifier, "classifier")
        return predicted[record.specimen_id]

    def predict_fn(record, taxon):
        if taxon not in slot:
            raise ModelMissing(f"no mass model for predicted taxon {taxon!r}")
        if record.specimen_id not in masses:
            raise _unscored(record, models[slot[taxon]], f"mass model for taxon {taxon!r}")
        return masses[record.specimen_id]

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
