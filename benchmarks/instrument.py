"""Which sinkmass functions the traced run times, and the per-layer metrics
derived from their spans.

Metric names follow ``<module>.<function>.<measure>``: ``s`` is busy time,
``self_s`` busy time minus the time covered by child spans, ``calls`` a
call count; any other measure is a count recorded at the call boundary.
FLOPs and bytes of the 3x3 convolutions are computed from array shapes
(float64, compulsory traffic of inputs, weights and outputs; the im2col
buffer is not counted), not measured by hardware counters.
"""

from __future__ import annotations

from pathlib import Path

ENCODER_CHANNELS = (8, 16)
TRAIN_BATCH = 128  # batch_fill is images per forward call over this size
_BLOCK_OF_C_IN = {c: f"b{i}" for i, c in enumerate((1,) + ENCODER_CHANNELS[:-1])}
_BYTES = 8  # float64

CLI_COMMANDS = ("ingest", "features", "crossval", "fit-linear", "evaluate", "report", "pipeline")
CONV_MEASURES = ("s", "flop", "bytes", "flop_per_byte")
SIMPLE_KERNELS = ("maxpool2", "relu", "gap", "affine")

PER_LAYER = (
    [f"cli.{c}.s" for c in CLI_COMMANDS]
    + [
        "ingest.assemble_dataset.s",
        "ingest.parse_frame_csv.calls",
        "ingest.parse_frame_csv.s",
        "ingest.load_raster.calls",
        "ingest.load_raster.s",
        "ingest.load_manifest.s",
        "ingest.bytes_read",
        "records.Dataset.subset.calls",
        "records.Dataset.subset.s",
        "records.Dataset.subset.useful_ratio",
        "records.Dataset.specimen.calls",
        "records.validate_dataset.s",
        "features.compute_features.calls",
        "features.compute_features.s",
        "linear.build_rows.rows",
        "linear.build_rows.s",
        "linear.fit_ols.calls",
        "linear.fit_ols.s",
        "linear.predict_specimen.calls",
        "linear.predict_specimen.s",
        "evaluation.make_cv_splits.s",
        "evaluation.compute_metrics.calls",
        "evaluation.compute_metrics.s",
        "evaluation.attach_bootstrap.s",
        "evaluation.ks_two_sample.calls",
        "evaluation.ks_two_sample.s",
        "experiments.crossval_neural.s",
        "experiments.crossval_linear.s",
        "experiments.predict_neural.calls",
        "experiments.predict_neural.s",
        "experiments.run_pipeline.s",
        "neural.training.train.calls",
        "neural.training.train.s",
        "neural.training.train.self_s",
        "neural.training.build_samples.calls",
        "neural.training.build_samples.s",
        "neural.training.build_samples.samples",
        "neural.training.build_samples.useful_ratio",
        "neural.training.predict_specimen_masses.calls",
        "neural.training.predict_specimen_masses.s",
        "neural.training.predict_taxa.s",
        "neural.training.load_checkpoint.s",
        "neural.training.save_checkpoint.s",
        "neural.model.forward_cached.calls",
        "neural.model.forward_cached.s",
        "neural.model.forward_cached.images",
        "neural.model.forward_cached.batch_fill",
        "neural.model.backward.calls",
        "neural.model.backward.s",
    ]
    + [
        f"neural.layers.conv3_{d}.{b}.{m}"
        for d in ("forward", "backward")
        for b in _BLOCK_OF_C_IN.values()
        for m in CONV_MEASURES
    ]
    + [f"neural.layers.{k}_{d}.s" for k in SIMPLE_KERNELS for d in ("forward", "backward")]
    + [
        "neural.optim.adamw_step.calls",
        "neural.optim.adamw_step.s",
        "neural.augment.augment_array.calls",
        "neural.augment.augment_array.s",
        "neural.losses.regression_loss.s",
        "neural.losses.cross_entropy.s",
        "synth.generate.s",
        "synth.write_synth_output.s",
        "trace.overhead_s",
        "outcome.mdape",
        "outcome.taxon_accuracy",
    ]
)

# ratio metric -> (numerator count, denominator count)
RATIOS = {
    "records.Dataset.subset.useful_ratio": (
        "records.Dataset.subset.returned", "records.Dataset.subset.scanned"),
    "neural.training.build_samples.useful_ratio": (
        "neural.training.build_samples.used", "neural.training.build_samples.scanned"),
    "neural.model.forward_cached.batch_fill": (
        "neural.model.forward_cached.images", "neural.model.forward_cached.slots"),
    **{
        f"{base}.flop_per_byte": (f"{base}.flop", f"{base}.bytes")
        for base in (
            f"neural.layers.conv3_{d}.{b}"
            for d in ("forward", "backward")
            for b in _BLOCK_OF_C_IN.values()
        )
    },
}

# Measured over one set-up instead of over the timed phase.
SETUP_PREFIX = "synth."
# Accuracy of the timed phase's result, read from its outputs; the
# pipeline's taxon accuracy reads 0 on workloads without a classifier.
OUTCOME_PREFIX = "outcome."


def _count_payload(rec, args, result):
    rec.add("ingest.bytes_read", len(args[0]))


def _count_manifest(rec, args, result):
    rec.add("ingest.bytes_read", Path(args[0]).stat().st_size)


def _count_subset(rec, args, result):
    rec.add("records.Dataset.subset.returned", len(result))
    rec.add("records.Dataset.subset.scanned", len(args[0].specimens))


def _count_rows(rec, args, result):
    rec.add("linear.build_rows.rows", len(result))


def _count_samples(rec, args, result):
    rec.add("neural.training.build_samples.samples", len(result))
    rec.add("neural.training.build_samples.used", len(result.sample_slices))
    rec.add("neural.training.build_samples.scanned", len(args[0].specimens))


def _count_forward(rec, args, result):
    rec.add("neural.model.forward_cached.images", len(args[1]))
    rec.add("neural.model.forward_cached.slots", TRAIN_BATCH)


def _conv_forward_name(args):
    return f"neural.layers.conv3_forward.{_BLOCK_OF_C_IN[args[0].shape[1]]}"


def _conv_backward_name(args):
    return f"neural.layers.conv3_backward.{_BLOCK_OF_C_IN[args[1][0][1]]}"


def _count_conv_forward(rec, args, result):
    x, w = args[0], args[1]
    batch, c_in, h, width = x.shape
    c_out = w.shape[0]
    name = _conv_forward_name(args)
    rec.add(f"{name}.flop", 2 * batch * c_out * c_in * 9 * h * width)
    rec.add(f"{name}.bytes", _BYTES * (x.size + w.size + c_out + batch * c_out * h * width))


def _count_conv_backward(rec, args, result):
    dout, ((batch, c_in, h, width), _, wmat) = args
    c_out = dout.shape[1]
    name = _conv_backward_name(args)
    # dW and dcols are one multiply-add per weight per output pixel each
    rec.add(f"{name}.flop", 4 * batch * c_out * c_in * 9 * h * width)
    x_size = batch * c_in * h * width
    # reads dout, x and W; writes dx, dW and db
    rec.add(f"{name}.bytes", _BYTES * (dout.size + 2 * x_size + 2 * wmat.size + c_out))


def install_all(rec) -> None:
    """Wrap every timed sinkmass function; modules must be imported first."""
    from sinkmass import cli, evaluation, experiments, features, ingest, linear, records, synth
    from sinkmass.neural import augment, layers, losses, model, optim, training

    rec.install(cli, "main", lambda args: f"cli.{args[0][0]}")
    for name, count in (
        ("assemble_dataset", None),
        ("parse_frame_csv", _count_payload),
        ("load_raster", _count_payload),
        ("load_manifest", _count_manifest),
    ):
        rec.install(ingest, name, f"ingest.{name}", count)
    rec.install(records.Dataset, "subset", "records.Dataset.subset", _count_subset)
    rec.install(records.Dataset, "specimen", "records.Dataset.specimen")
    rec.install(records, "validate_dataset", "records.validate_dataset")
    rec.install(features, "compute_features", "features.compute_features")
    rec.install(linear, "build_rows", "linear.build_rows", _count_rows)
    for name in ("fit_ols", "predict_specimen"):
        rec.install(linear, name, f"linear.{name}")
    for name in ("make_cv_splits", "compute_metrics", "attach_bootstrap", "ks_two_sample"):
        rec.install(evaluation, name, f"evaluation.{name}")
    for name in ("crossval_neural", "crossval_linear", "predict_neural", "run_pipeline"):
        rec.install(experiments, name, f"experiments.{name}")
    rec.install(training, "build_samples", "neural.training.build_samples", _count_samples)
    for name in ("train", "predict_specimen_masses", "predict_taxa",
                 "load_checkpoint", "save_checkpoint"):
        rec.install(training, name, f"neural.training.{name}")
    rec.install(model.NeuralNet, "forward_cached", "neural.model.forward_cached", _count_forward)
    rec.install(model.NeuralNet, "backward", "neural.model.backward")
    rec.install(layers, "conv3_forward", _conv_forward_name, _count_conv_forward)
    rec.install(layers, "conv3_backward", _conv_backward_name, _count_conv_backward)
    for kernel in SIMPLE_KERNELS:
        for direction in ("forward", "backward"):
            name = f"{kernel}_{direction}"
            rec.install(layers, name, f"neural.layers.{name}")
    rec.install(optim, "adamw_step", "neural.optim.adamw_step")
    rec.install(augment, "augment_array", "neural.augment.augment_array")
    for name in ("regression_loss", "cross_entropy"):
        rec.install(losses, name, f"neural.losses.{name}")
    for name in ("generate", "write_synth_output"):
        rec.install(synth, name, f"synth.{name}")


_UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "flop": "flop", "bytes": "B",
          "bytes_read": "B", "flop_per_byte": "flop/B", "useful_ratio": "ratio",
          "batch_fill": "ratio", "mdape": "fraction", "taxon_accuracy": "fraction"}


def unit(name: str) -> str:
    return _UNITS.get(name.rpartition(".")[2], "count")


def layer_metrics(rec) -> dict[str, float]:
    """Every per-layer metric that one recorder's spans and counts give;
    a layer that never ran reads 0."""
    busy, calls, self_s = rec.totals()
    out = {}
    for name in PER_LAYER:
        base, _, measure = name.rpartition(".")
        if name in RATIOS:
            num, den = (rec.counts.get(k, 0.0) for k in RATIOS[name])
            out[name] = num / den if den else 0.0
        elif measure == "s":
            out[name] = busy.get(base, 0.0)
        elif measure == "self_s":
            out[name] = self_s.get(base, 0.0)
        elif measure == "calls":
            out[name] = calls.get(base, 0)
        else:
            out[name] = rec.counts.get(name, 0.0)
    return out
