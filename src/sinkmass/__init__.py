"""Invertebrate dry-mass estimation from sinking-specimen image sequences.

The package provides linear estimators over sequence-metadata features
(specimen area, sinking speed), a desk-scale neural family (single-view,
multi-view, metadata-aware), the full resampling evaluation protocol, and a
synthetic physics oracle for end-to-end validation.

The names below load with their module on first use, so importing the
package (and the CLI inside it) loads no numpy: ``--threads`` must set the
BLAS thread caps before numpy starts.
"""

import importlib

_EXPORTS = {
    "errors": ("SinkmassError",),
    "records": (
        "FrameMeta",
        "SpecimenRecord",
        "Dataset",
        "PredictionEntry",
        "PredictionSet",
        "ValidationReport",
        "validate_dataset",
    ),
    "ingest": (
        "ManifestEntry",
        "parse_frame_csv",
        "serialize_frame_csv",
        "load_raster",
        "pad_mirror",
        "load_manifest",
        "assemble_dataset",
    ),
    "features": ("SpecimenFeatures", "compute_features", "sinking_speed", "mean_area"),
    "linear": (
        "FeatureSpec",
        "TargetSpace",
        "LinearModel",
        "fit_ols",
        "predict_per_image",
        "predict_specimen",
        "trimmed_median",
    ),
    "evaluation": (
        "MetricReport",
        "SplitPlan",
        "compute_metrics",
        "pearson_r",
        "ks_two_sample",
        "bootstrap",
        "make_cv_splits",
        "pool_folds",
        "classification_report",
    ),
    "synth": ("SynthConfig", "GroupSpec", "GroundTruth", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
