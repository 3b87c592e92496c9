"""Ordinary-least-squares mass estimators over sequence-metadata features.

Fitting rows are per-image by default: (frame area, specimen speed) against
the specimen mass, duplicated across frames, which keeps the per-image
prediction path self-consistent. A specimen-level fit over mean area is
available behind a flag for comparison.

Per-specimen estimates aggregate per-image predictions with a trimmed
median: the largest and smallest 5% of estimates are dropped from each end
before taking the median, which makes a single wild per-image prediction
inconsequential.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .config import config_from_dict, config_to_dict, read_json
from .errors import EmptyInput, InputError, MissingSpeed, RankDeficient, TooFewRows
from .features import SpecimenFeatures
from .records import MASS_FLOOR_UG, SpecimenRecord

MODEL_FORMAT_VERSION = 1


class FeatureSpec(str, Enum):
    AREA_ONLY = "area"
    AREA_PLUS_SPEED = "area_speed"

    @property
    def n_features(self) -> int:
        return 1 if self is FeatureSpec.AREA_ONLY else 2


class TargetSpace(str, Enum):
    RAW = "raw"
    LOG = "log"


@dataclass(frozen=True)
class LinearModel:
    feature_spec: FeatureSpec
    intercept: float
    coefficients: tuple[float, ...]
    target_space: TargetSpace = TargetSpace.RAW

    def __post_init__(self):
        if len(self.coefficients) != self.feature_spec.n_features:
            raise ValueError(
                f"{self.feature_spec.value} expects {self.feature_spec.n_features} "
                f"coefficients, got {len(self.coefficients)}"
            )


def fit_ols(rows: list[tuple], target_space: TargetSpace = TargetSpace.RAW) -> LinearModel:
    """Fit intercept + slopes minimizing the residual sum of squares.

    ``rows`` holds (feature vector, target) pairs; the feature spec follows
    from the vector length. Requires at least p+2 rows and a full-rank
    design matrix. Deterministic and invariant to row order.
    """
    if not rows:
        raise TooFewRows("no rows")
    x = np.asarray([list(r[0]) for r in rows], dtype=float)
    y = np.asarray([r[1] for r in rows], dtype=float)
    if x.ndim != 2:
        raise TooFewRows("feature vectors must share one length")
    p = x.shape[1]
    specs = {spec.n_features: spec for spec in FeatureSpec}
    if p not in specs:
        raise ValueError(f"cannot infer feature spec from {p} features")
    if len(rows) < p + 2:
        raise TooFewRows(f"need at least {p + 2} rows for {p} features, got {len(rows)}")
    design = np.column_stack([np.ones(len(y)), x])
    if np.linalg.matrix_rank(design) < p + 1:
        raise RankDeficient("design matrix does not have full column rank")
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return LinearModel(
        feature_spec=specs[p],
        intercept=float(beta[0]),
        coefficients=tuple(float(b) for b in beta[1:]),
        target_space=target_space,
    )


def _predict_one(model: LinearModel, area_px: float, speed: float | None) -> float:
    value = model.intercept + model.coefficients[0] * area_px
    if model.feature_spec is FeatureSpec.AREA_PLUS_SPEED:
        value += model.coefficients[1] * speed
    if model.target_space is TargetSpace.LOG:
        value = math.exp(value)
    return max(value, MASS_FLOOR_UG)


def predict_per_image(
    model: LinearModel, specimen: SpecimenRecord, features: SpecimenFeatures
) -> list[float]:
    """One mass prediction per frame, clamped to the positivity floor.

    Each frame contributes its own area; the sinking speed is specimen-level.
    Log-space models are exponentiated back to mass space here.
    """
    speed = None
    if model.feature_spec is FeatureSpec.AREA_PLUS_SPEED:
        if features.sinking_speed is None:
            raise MissingSpeed(f"{specimen.specimen_id}: no sinking speed available")
        speed = features.sinking_speed
    return [_predict_one(model, f.area_px, speed) for f in specimen.frames]


def trimmed_median(values, trim_fraction: float = 0.05) -> float:
    """Median after dropping floor(trim_fraction * len) values per end.

    With fewer than 1/trim_fraction values nothing is dropped and this is the
    plain median (mean of the two central order statistics for even counts).
    """
    if not 0 <= trim_fraction < 0.5:
        raise ValueError(f"trim_fraction must lie in [0, 0.5), got {trim_fraction}")
    n = len(values)
    if n == 0:
        raise EmptyInput("cannot aggregate zero predictions")
    # the epsilon keeps exact products like 0.05*20 from flooring one short
    k = int(math.floor(trim_fraction * n + 1e-9))
    kept = sorted(values)[k : n - k]
    m = len(kept)
    half = m // 2
    if m % 2 == 1:
        return float(kept[half])
    return float((kept[half - 1] + kept[half]) / 2.0)


def predict_specimen(
    model: LinearModel,
    specimen: SpecimenRecord,
    features: SpecimenFeatures,
    trim_fraction: float = 0.05,
) -> float:
    """Trimmed median of the per-image predictions; always positive."""
    return trimmed_median(predict_per_image(model, specimen, features), trim_fraction)


def build_rows(
    records: list[SpecimenRecord] | tuple[SpecimenRecord, ...],
    feature_table: dict[str, SpecimenFeatures],
    feature_spec: FeatureSpec,
    target_space: TargetSpace = TargetSpace.RAW,
    per_image: bool = True,
) -> list[tuple]:
    """Assemble OLS fit rows from specimens with known mass.

    Specimens lacking a sinking speed are skipped for area+speed fits so the
    rest of the dataset stays usable; inference-only records are skipped
    always.
    """
    rows = []
    for record in records:
        if record.dry_mass_ug is None:
            continue
        feats = feature_table[record.specimen_id]
        needs_speed = feature_spec is FeatureSpec.AREA_PLUS_SPEED
        if needs_speed and feats.sinking_speed is None:
            continue
        target = (
            math.log(record.dry_mass_ug)
            if target_space is TargetSpace.LOG
            else record.dry_mass_ug
        )
        if per_image:
            for frame in record.frames:
                vec = [frame.area_px] + ([feats.sinking_speed] if needs_speed else [])
                rows.append((vec, target))
        else:
            vec = [feats.mean_area_px] + ([feats.sinking_speed] if needs_speed else [])
            rows.append((vec, target))
    return rows


def save_linear_model(model: LinearModel, path: Path | str) -> None:
    payload = {"format_version": MODEL_FORMAT_VERSION, **config_to_dict(model)}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_linear_model(path: Path | str) -> LinearModel:
    """The model ``save_linear_model`` wrote; a file of another format
    version, or with missing, unknown or mistyped fields, raises an
    InputError."""
    return decode_linear_model(read_json(path, "linear model file"), path)


def decode_linear_model(payload, path: Path | str) -> LinearModel:
    """``load_linear_model`` on the JSON value already read from ``path``."""
    if not isinstance(payload, dict):
        raise InputError(f"linear model file {path} does not hold a JSON object")
    fields = dict(payload)
    version = fields.pop("format_version", None)
    if version != MODEL_FORMAT_VERSION:
        raise InputError(f"unsupported linear model version {version}")
    return config_from_dict(LinearModel, fields)
