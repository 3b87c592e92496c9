"""Command-line entry point binding the library into experiment flows.

Subcommands: ingest, synth, features, fit-linear, train, finetune, crossval,
evaluate, ood, pipeline, report. Each command accepts only the flags its
handler reads. synth, crossval, train, finetune and ood require --seed and
take --config; evaluate reads its optional --seed only for --bootstrap.
--seed is the only seed: a config holding one is rejected. Identical inputs
plus an identical seed produce byte-identical primary output files.

Exit codes: 0 success, 2 usage, input, validation or output-path error, 3
numeric failure. Errors, usage errors included, are emitted as one JSON
object on stderr. Every output file goes through ``config.write_files``.

Imports that load numpy happen inside command handlers, so that --threads
can cap the BLAS thread pools before numpy is loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import config_from_dict, read_json, write_files
from .errors import (
    InputError,
    InvalidConfig,
    MissingSecondView,
    MissingSpeed,
    ModelMissing,
    NoResults,
    NumericError,
    UsageError,
    ValidationFailed,
)

ABSOLUTE_METRICS = ("mae", "rmse")
METRIC_ORDER = ("mape", "mdape", "mae", "rmse", "r2_log")
CONFIG_SECTIONS = ("model", "train")
TASKS = ("regression", "classification")


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    config = read_json(args.config, "config")
    if not isinstance(config, dict):
        raise InvalidConfig(f"config {args.config} does not hold a JSON object")
    return config


def _reject_config_key(section: dict, key: str, where: str, reason: str) -> None:
    if key in section:
        raise InvalidConfig(f"{where} holds a {key} key; {reason}")


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
    if not Path(path).exists():
        raise ModelMissing(f"model file {path} does not exist")
    return read_json(path, "model file")


def _load_any_model(path):
    """A linear model JSON or a neural checkpoint, told apart by content;
    the file is read once."""
    from .linear import decode_linear_model
    from .neural.training import decode_checkpoint

    payload = _read_model_json(path)
    if not isinstance(payload, dict):
        raise InputError(f"model file {path} does not hold a JSON object")
    decode = decode_linear_model if "feature_spec" in payload else decode_checkpoint
    return decode(payload, path)


def _model_configs_from(config: dict, dataset, seed: int):
    """(ModelConfig, TrainConfig, taxa) from the --config JSON sections.

    Missing keys take the config dataclasses' defaults, and the seed is the
    command's. An unknown section, a section that is not a JSON object, an
    unknown ``task``, a ``model.n_classes`` key or a ``train.seed`` key
    raises InvalidConfig.
    """
    from .neural.model import ModelConfig
    from .neural.training import TrainConfig

    unknown = sorted(set(config) - set(CONFIG_SECTIONS))
    if unknown:
        raise InvalidConfig(f"unknown config sections: {', '.join(unknown)}")
    sections = {name: config.get(name, {}) for name in CONFIG_SECTIONS}
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise InvalidConfig(f"config section {name!r} must be a JSON object")
    m = dict(sections["model"])
    _reject_config_key(m, "n_classes", "config section 'model'",
                       'set "task": "classification" to train a taxon classifier')
    task = m.pop("task", "regression")
    if task not in TASKS:
        raise InvalidConfig(f"task must be one of {', '.join(TASKS)}, got {task!r}")
    taxa = tuple(sorted(dataset.taxon_set)) if task == "classification" else None
    m["n_classes"] = None if taxa is None else len(taxa)
    _reject_config_key(sections["train"], "seed", "config section 'train'",
                       "the seed comes from --seed")
    train_config = config_from_dict(TrainConfig, {**sections["train"], "seed": seed})
    return config_from_dict(ModelConfig, m), train_config, taxa


def _linear_estimator(args, feature_spec):
    """The LinearEstimator over ``feature_spec`` set by --target and --per-specimen."""
    from .experiments import LinearEstimator
    from .linear import TargetSpace

    target = {} if args.target is None else {"target_space": TargetSpace(args.target)}
    return LinearEstimator(feature_spec, **target, per_image=not args.per_specimen)


def _reject_ignored_flags(args) -> None:
    """UsageError for a flag the chosen ``--model`` of crossval/ood ignores."""
    if args.model == "neural":
        ignored = [("--target", args.target is not None), ("--per-specimen", args.per_specimen)]
    else:
        ignored = [("--config", args.config is not None)]
    for flag, given in ignored:
        if given:
            raise UsageError(f"sinkmass {args.command}: --model {args.model} does not read {flag}")


def _estimator(args, config: dict, dataset):
    """The estimator ``--model`` names, and its default method label."""
    from . import experiments
    from .linear import FeatureSpec

    if args.model == "neural":
        model_config, train_config, _ = _model_configs_from(config, dataset, args.seed)
        estimator = experiments.NeuralEstimator(model_config, train_config)
        return estimator, f"neural-{model_config.architecture.value}"
    feature_spec = (
        FeatureSpec.AREA_ONLY if args.model == "linear-area" else FeatureSpec.AREA_PLUS_SPEED
    )
    return _linear_estimator(args, feature_spec), args.model


# --- command handlers ------------------------------------------------------


def cmd_synth(args) -> int:
    from .synth import SynthConfig, generate, write_synth_output

    config_dict = _load_config(args)
    _reject_config_key(config_dict, "seed", "the synth config", "the seed comes from --seed")
    config = config_from_dict(SynthConfig, {**config_dict, "seed": args.seed})
    out = Path(args.out)
    dataset, truth = generate(config, name=out.name)
    manifest_path = write_synth_output(dataset, truth, out)
    print(json.dumps({"manifest": str(manifest_path), "specimens": len(dataset.specimens)}))
    return 0


def cmd_ingest(args) -> int:
    from .records import validate_dataset

    raster_dims = tuple(args.raster_size) if args.raster_size else None
    if raster_dims is not None and not 0 < raster_dims[0] == raster_dims[1]:
        raise UsageError("sinkmass ingest: --raster-size must be two equal positive sides, "
                         f"got {args.raster_size}")
    dataset = _load_dataset(args, raster_dims=raster_dims)
    report = validate_dataset(dataset)
    summary = {
        "name": dataset.name,
        "specimens": len(dataset.specimens),
        "taxa": sorted(dataset.taxon_set),
        "total_frames": sum(len(s.frames) for s in dataset.specimens),
        "raster_dims": dataset.raster_dims,
        "violations": report.violations,
    }
    path = Path(args.out) / "dataset_summary.json"
    write_files([(path, summary)])
    if not report.ok:
        raise ValidationFailed(f"{len(report)} violation(s), listed in {path}")
    print(json.dumps({"specimens": len(dataset.specimens), "valid": True}))
    return 0


def cmd_features(args) -> int:
    dataset = _load_dataset(args)
    lines = ["specimen_id,taxon,dry_mass_ug,mean_area_px,image_count,sinking_speed,pseudo_mass"]
    for record in dataset.specimens:
        f = dataset.features[record.specimen_id]
        mass = "" if record.dry_mass_ug is None else repr(record.dry_mass_ug)
        speed = "" if f.sinking_speed is None else repr(f.sinking_speed)
        lines.append(
            f"{record.specimen_id},{record.taxon},{mass},{f.mean_area_px!r},"
            f"{f.image_count},{speed},{f.pseudo_mass!r}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        write_files([(Path(args.out) / "features.csv", text)])
    else:
        sys.stdout.write(text)
    return 0


def cmd_fit_linear(args) -> int:
    from .linear import FeatureSpec, save_linear_model

    dataset = _load_dataset(args)
    estimator = _linear_estimator(args, FeatureSpec(args.features))
    model = estimator.fit(dataset, [s.specimen_id for s in dataset.specimens])
    path = Path(args.out) / "linear_model.json"
    save_linear_model(model, path)
    print(json.dumps({"model": str(path)}))
    return 0


def cmd_evaluate(args) -> int:
    from . import experiments
    from .evaluation import CONFIDENCE_LEVEL, attach_bootstrap, compute_metrics

    if args.bootstrap > 0 and args.seed is None:
        raise UsageError("sinkmass evaluate: --bootstrap above 0 requires --seed")
    dataset = _load_dataset(args)
    model = _load_any_model(args.model)
    ids = [s.specimen_id for s in dataset.specimens]
    predictions = experiments.predict(model, dataset, ids)
    report = compute_metrics(predictions)
    if args.bootstrap > 0:
        level = CONFIDENCE_LEVEL if args.level is None else args.level
        report = attach_bootstrap(report, predictions, args.bootstrap, level, args.seed)
    method = args.method or experiments.model_family(model)
    payload = {"dataset": dataset.name, "method": method, "report": report.to_dict()}
    out = Path(args.out)
    write_files([
        (out / "metrics.json", payload),
        (out / "metrics.csv", _rows_to_csv(_report_rows([payload]))),
        (out / "predictions.csv", _predictions_csv(predictions)),
    ])
    print(json.dumps({"n": report.n, "mdape": report.mdape}))
    return 0


def cmd_crossval(args) -> int:
    from . import experiments
    from .evaluation import CV_FOLDS

    _reject_ignored_flags(args)
    config = _load_config(args)
    dataset = _load_dataset(args)
    estimator, label = _estimator(args, config, dataset)
    k = CV_FOLDS if args.folds is None else args.folds
    result = experiments.crossval(dataset, estimator, k=k, seed=args.seed)
    method = args.method or label
    payload = {
        "dataset": dataset.name,
        "method": method,
        "folds": [r.to_dict() for r in result.fold_reports],
        "report": result.pooled_report.to_dict(),
    }
    out = Path(args.out)
    write_files([
        (out / "splits.json", result.plan),
        (out / "crossval_report.json", payload),
        (out / "predictions.csv", _predictions_csv(result.pooled_predictions)),
    ])
    print(json.dumps({"pooled_mdape": result.pooled_report.mdape, "n": result.pooled_report.n}))
    return 0


def _fold(dataset, args):
    """The train/validation split of CV fold ``--fold`` out of ``--folds``."""
    from .evaluation import CV_FOLDS, make_cv_splits

    k = CV_FOLDS if args.folds is None else args.folds
    plan = make_cv_splits(dataset, k=k, seed=args.seed)
    if not 0 <= args.fold < k:
        raise InvalidConfig(f"--fold must lie in [0, {k}), got {args.fold}")
    return plan.folds[args.fold]


def cmd_train(args) -> int:
    from .neural.training import save_checkpoint, train

    config = _load_config(args)
    dataset = _load_dataset(args)
    model_config, train_config, taxa = _model_configs_from(config, dataset, seed=args.seed)
    fold = _fold(dataset, args)
    model = train(dataset, fold.train, fold.val, model_config, train_config, taxa=taxa)
    path = Path(args.out) / "checkpoint.json"
    save_checkpoint(model, path)
    print(
        json.dumps(
            {
                "checkpoint": str(path),
                "best_epoch": model.best_epoch,
                "best_val_loss": min(model.val_loss_history),
            }
        )
    )
    return 0


def cmd_finetune(args) -> int:
    from .neural.training import fine_tune, save_checkpoint

    config = _load_config(args)
    if "model" in config:
        raise InvalidConfig("finetune takes its model from --base; drop the 'model' section")
    dataset = _load_dataset(args)
    base = _load_any_model(args.base)
    _, train_config, _ = _model_configs_from(config, dataset, seed=args.seed)
    fold = _fold(dataset, args)
    model = fine_tune(base, dataset, fold.train, fold.val, train_config)
    path = Path(args.out) / "checkpoint.json"
    save_checkpoint(model, path)
    print(json.dumps({"checkpoint": str(path), "best_epoch": model.best_epoch}))
    return 0


def cmd_ood(args) -> int:
    from . import experiments

    _reject_ignored_flags(args)
    config = _load_config(args)
    dataset = _load_dataset(args)
    estimator, label = _estimator(args, config, dataset)
    report, predictions = experiments.ood(dataset, args.holdout, estimator, seed=args.seed)
    method = args.method or f"ood-{label}"
    payload = {
        "dataset": dataset.name,
        "method": method,
        "holdout_taxon": args.holdout,
        "report": report.to_dict(),
    }
    out = Path(args.out)
    write_files([
        (out / "metrics.json", payload),
        (out / "predictions.csv", _predictions_csv(predictions)),
    ])
    print(json.dumps({"holdout": args.holdout, "n": report.n, "mdape": report.mdape}))
    return 0


def _unscored(record, model, role: str):
    """The error for a weighed specimen a model returned no prediction for.

    Models skip such specimens for one reason only: a multi-view model needs
    frames from both cameras, any other model a sinking speed.
    """
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
    from .neural.training import predict_taxa

    dataset = _load_dataset(args)
    classifier = _load_any_model(args.classifier)
    ids = [s.specimen_id for s in dataset.specimens]
    predicted = predict_taxa(classifier, dataset, ids)

    if args.mass_model is not None:
        models = [_load_any_model(args.mass_model)]
        slot = dict.fromkeys(classifier.taxa, 0)
    else:
        mapping = _read_model_json(args.mass_models)
        if not isinstance(mapping, dict) or not all(isinstance(p, str) for p in mapping.values()):
            raise InputError(f"{args.mass_models} must map taxa to model paths")
        models = [_load_any_model(path) for path in mapping.values()]
        slot = {taxon: i for i, taxon in enumerate(mapping)}

    # one predict call per model over the weighed specimens routed to it
    routed = [[] for _ in models]
    for record in dataset.specimens:
        taxon = predicted.get(record.specimen_id)
        if record.dry_mass_ug is not None and taxon in slot:
            routed[slot[taxon]].append(record.specimen_id)
    masses = {}
    for model, model_ids in zip(models, routed):
        for e in experiments.predict(model, dataset, model_ids).entries:
            masses[e.specimen_id] = e.predicted_mass_ug

    # the first weighed specimen either model skipped names the error
    for record in dataset.specimens:
        if record.dry_mass_ug is None:
            continue
        taxon = predicted.get(record.specimen_id)
        if taxon is None:
            raise _unscored(record, classifier, "classifier")
        if taxon not in slot:
            raise ModelMissing(f"no mass model for predicted taxon {taxon!r}")
        if record.specimen_id not in masses:
            raise _unscored(record, models[slot[taxon]], f"mass model for taxon {taxon!r}")

    report = experiments.run_pipeline(dataset, predicted, masses, taxa=classifier.taxa)
    out = Path(args.out)
    write_files([
        (out / "pipeline_report.json", {"accuracy": report.accuracy, "groups": report.groups}),
        (out / "predictions.csv", _predictions_csv(report.predictions)),
    ])
    print(json.dumps({"accuracy": report.accuracy, "groups": len(report.groups)}))
    return 0


def _has_numbers(obj, keys) -> bool:
    return isinstance(obj, dict) and all(isinstance(obj.get(k), (int, float)) for k in keys)


def _metric_payload(path) -> dict:
    """The metrics.json object at ``path``; NoResults unless it names its
    dataset and method and its report holds every metric in METRIC_ORDER."""
    payload = read_json(path, "metric report")
    report = payload.get("report") if isinstance(payload, dict) else None
    intervals = (report.get("bootstrap") or {}) if _has_numbers(report, METRIC_ORDER) else None
    if not (
        isinstance(intervals, dict)
        and all(isinstance(payload.get(key), str) for key in ("dataset", "method"))
        and all(
            iv is None or _has_numbers(iv, ("low", "high", "std"))
            for iv in map(intervals.get, METRIC_ORDER)
        )
    ):
        raise NoResults(f"{path} does not contain a metric report")
    return payload


def cmd_report(args) -> int:
    labeled = [_metric_payload(path) for path in args.inputs]
    if not labeled:
        raise NoResults("no metric reports given")
    rows = _report_rows(labeled)
    out = Path(args.out)
    write_files([(out / "report.json", rows), (out / "report.csv", _rows_to_csv(rows))])
    print(json.dumps({"rows": len(rows)}))
    return 0


# --- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that main reports them as one JSON line."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"thread count must be a positive integer, got {text!r}")
    return value


def _bootstrap_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not (value == 0 or value >= 2):
        raise argparse.ArgumentTypeError(f"bootstrap count must be 0 or at least 2, got {text!r}")
    return value


def _path(text: str) -> str:
    if not text:  # Path("") would be the working directory
        raise argparse.ArgumentTypeError("path must not be empty")
    return text


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The parser; each command accepts exactly the flags its handler reads."""
    threads = _flag("--threads", type=_thread_count, default=None, help="cap BLAS thread pools")
    out = _flag("--out", type=_path, required=True, help="output directory")
    seeded = (
        _flag("--seed", type=int, required=True, help="master RNG seed"),
        _flag("--config", type=_path, default=None, help="JSON config file"),
    )
    manifest = _flag("--manifest", type=_path, required=True, help="manifest JSON path")
    name = _flag("--name", type=str, default=None, help="dataset name override")
    linear = (
        _flag("--target", choices=["raw", "log"], default=None, help="target space (default raw)"),
        _flag("--per-specimen", action="store_true", help="fit on specimen means"),
    )
    estimator = (
        *linear,
        _flag("--model", choices=["linear-area", "linear-area-speed", "neural"], required=True),
        _flag("--method", type=str, default=None),
    )
    fold = (
        _flag("--fold", type=int, default=0, help="which CV fold supplies train/val"),
        _flag("--folds", type=int, default=None),
    )

    parser = _Parser(
        prog="sinkmass",
        description="Dry-mass estimation from sinking-specimen image sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, *parents):
        p = sub.add_parser(name, parents=[*parents, threads], help=summary)
        p.set_defaults(fn=fn)
        return p

    command("synth", cmd_synth, "generate a synthetic dataset", *seeded, out)

    p = command("ingest", cmd_ingest, "parse and validate a dataset", manifest, name, out)
    p.add_argument("--raster-size", type=int, nargs=2, default=None, metavar=("H", "W"))

    p = command("features", cmd_features, "emit per-specimen features CSV", manifest)
    p.add_argument("--out", type=_path, default=None, help="output directory (default stdout)")

    p = command("fit-linear", cmd_fit_linear, "fit an OLS model", manifest, *linear, out)
    p.add_argument("--features", choices=["area", "area_speed"], default="area")

    p = command("evaluate", cmd_evaluate, "score a model", manifest, name, out)
    p.add_argument("--model", type=_path, required=True)
    p.add_argument("--method", type=str, default=None, help="method label for reports")
    p.add_argument(
        "--bootstrap", type=_bootstrap_count, default=0, help="bootstrap draws (0 = off)"
    )
    p.add_argument("--level", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="bootstrap seed")

    p = command(
        "crossval", cmd_crossval, "k-fold protocol", *seeded, manifest, name, *estimator, out
    )
    p.add_argument("--folds", type=int, default=None)

    command("train", cmd_train, "train a neural model", *seeded, manifest, *fold, out)

    p = command("finetune", cmd_finetune, "fine-tune a checkpoint", *seeded, manifest, *fold, out)
    p.add_argument("--base", type=_path, required=True)

    p = command("ood", cmd_ood, "hold out one taxon", *seeded, manifest, name, *estimator, out)
    p.add_argument("--holdout", type=str, required=True)

    p = command("pipeline", cmd_pipeline, "classify then estimate mass", manifest, out)
    p.add_argument("--classifier", type=_path, required=True)
    mass = p.add_mutually_exclusive_group(required=True)
    mass.add_argument("--mass-model", type=_path, help="shared mass model")
    mass.add_argument("--mass-models", type=_path, help="JSON map taxon -> model path")

    p = command("report", cmd_report, "consolidate metric reports", out)
    p.add_argument("inputs", nargs="*", type=_path, help="metrics.json files")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.threads is not None:
            # parsing loads no numpy, so the cap still precedes BLAS start-up
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(args.threads)
        return args.fn(args)
    except (InputError, NumericError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3


if __name__ == "__main__":
    sys.exit(main())
