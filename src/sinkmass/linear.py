"""Ordinary-least-squares mass estimators over sequence-metadata features.

Fitting rows are per-image by default: (frame area, specimen speed) against
the specimen mass, duplicated across frames, which keeps the per-image
prediction path self-consistent. A specimen-level fit over mean area is
available behind a flag for comparison. ``build_rows`` returns the rows as
one float matrix, feature columns then the target, which ``fit_ols`` takes.

Every per-image prediction of a specimen is one array expression, turned
into masses by ``target_to_mass`` (exponentiated for log-target models,
then clamped to MASS_FLOOR_UG); the neural regressors use the same step.
Per-specimen estimates aggregate per-image predictions with their median
(``median``), which makes a single wild per-image prediction
inconsequential.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .config import config_from_dict, config_to_dict, read_json, write_files
from .errors import (
    EmptyInput,
    InputError,
    MissingSpeed,
    NonFinitePrediction,
    RankDeficient,
    TooFewRows,
)
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


def fit_ols(rows: np.ndarray, target_space: TargetSpace = TargetSpace.RAW) -> LinearModel:
    """Fit intercept + slopes minimizing the residual sum of squares.

    ``rows`` is a float matrix as ``build_rows`` returns it: the feature
    columns, then the target; the feature spec follows from the column
    count. Requires at least p+2 rows and a full-rank design matrix.
    Deterministic and invariant to row order.
    """
    if len(rows) == 0:
        raise TooFewRows("no rows")
    x, y = rows[:, :-1], rows[:, -1]
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


def target_to_mass(values: np.ndarray, target_space: TargetSpace) -> np.ndarray:
    """Masses from model outputs in ``target_space``: exponentiated for LOG,
    then clamped to MASS_FLOOR_UG, so that no estimate is zero or negative."""
    if target_space is TargetSpace.LOG:
        values = np.exp(values)
    return np.maximum(values, MASS_FLOOR_UG)


def predict_per_image(
    model: LinearModel, specimen: SpecimenRecord, features: SpecimenFeatures
) -> np.ndarray:
    """One mass prediction per frame, clamped to the positivity floor.

    Each frame contributes its own area; the sinking speed is specimen-level.
    """
    values = model.intercept + model.coefficients[0] * specimen.frames["area_px"]
    if model.feature_spec is FeatureSpec.AREA_PLUS_SPEED:
        if features.sinking_speed is None:
            raise MissingSpeed(f"{specimen.specimen_id}: no sinking speed available")
        values += model.coefficients[1] * features.sinking_speed
    return target_to_mass(values, model.target_space)


def median(values) -> float:
    """Median of the values (for an even count, the mean of the central two), with
    ``np.median``'s bits: NaN if any value is NaN, and a zero median is +0.0."""
    if len(values) == 0:
        raise EmptyInput("cannot aggregate zero predictions")
    ordered = np.sort(np.asarray(values, dtype=float), axis=None).tolist()
    n = len(ordered)
    if math.isnan(ordered[-1]):  # NaN sorts last
        return ordered[-1]
    return 0.0 + ordered[n // 2] if n % 2 else (0.0 + ordered[n // 2 - 1] + ordered[n // 2]) / 2


def predict_specimen(
    model: LinearModel, specimen: SpecimenRecord, features: SpecimenFeatures
) -> float:
    """Median of the per-image predictions; always positive."""
    return median(predict_per_image(model, specimen, features))


def finite_masses(masses_of: Callable[[], dict[str, float]]) -> dict[str, float]:
    """The ``{specimen_id: mass}`` that ``masses_of()`` computes, with
    floating-point overflow and invalid-value warnings silenced; a mass that
    is not finite raises NonFinitePrediction."""
    with np.errstate(over="ignore", invalid="ignore"):
        masses = masses_of()
    for sid, mass in masses.items():
        if not math.isfinite(mass):
            raise NonFinitePrediction(f"{sid}: predicted mass is {mass}")
    return masses


def build_rows(
    records: list[SpecimenRecord] | tuple[SpecimenRecord, ...],
    feature_table: dict[str, SpecimenFeatures],
    feature_spec: FeatureSpec,
    target_space: TargetSpace = TargetSpace.RAW,
    per_image: bool = True,
) -> np.ndarray:
    """OLS fit rows from specimens with known mass, as one float matrix of
    shape (rows, n_features + 1): area, the speed for area+speed fits, then
    the target.

    Specimens lacking a sinking speed are skipped for area+speed fits so the
    rest of the dataset stays usable; inference-only records are skipped
    always.
    """
    needs_speed = feature_spec is FeatureSpec.AREA_PLUS_SPEED
    areas, per_specimen, counts = [], [], []
    for record in records:
        if record.dry_mass_ug is None:
            continue
        feats = feature_table[record.specimen_id]
        if needs_speed and feats.sinking_speed is None:
            continue
        target = (
            math.log(record.dry_mass_ug) if target_space is TargetSpace.LOG else record.dry_mass_ug
        )
        per_specimen.append((feats.sinking_speed, target) if needs_speed else (target,))
        areas.append(record.frames["area_px"] if per_image else [feats.mean_area_px])
        counts.append(len(areas[-1]))
    columns = np.array(per_specimen, dtype=float).reshape(len(counts), feature_spec.n_features)
    area_column = np.concatenate(areas) if areas else np.zeros(0)
    return np.column_stack([area_column, np.repeat(columns, counts, axis=0)])


def save_linear_model(model: LinearModel, path: Path | str) -> None:
    write_files([(path, {"format_version": MODEL_FORMAT_VERSION, **config_to_dict(model)})])


def load_linear_model(path: Path | str) -> LinearModel:
    """The model ``save_linear_model`` wrote; a file of another format
    version, with missing, unknown or mistyped fields, or with a non-finite
    intercept or coefficient, raises an InputError."""
    return decode_linear_model(read_json(path, "linear model file"), path)


def decode_linear_model(payload, path: Path | str) -> LinearModel:
    """``load_linear_model`` on the JSON value already read from ``path``."""
    if not isinstance(payload, dict):
        raise InputError(f"linear model file {path} does not hold a JSON object")
    fields = dict(payload)
    version = fields.pop("format_version", None)
    if version != MODEL_FORMAT_VERSION:
        raise InputError(f"unsupported linear model version {version}")
    model = config_from_dict(LinearModel, fields)
    if not all(math.isfinite(v) for v in (model.intercept, *model.coefficients)):
        raise InputError(f"linear model file {path}: intercept and coefficients must be finite")
    return model
