"""Experiment flows binding models to the evaluation protocol: fitting and
scoring over cross-validation folds, out-of-distribution holdouts, and the
end-to-end classify-then-estimate pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import EmptyPredictions, InvalidConfig, UnknownTaxon, ZeroVariance
from .evaluation import (
    MetricReport,
    SplitPlan,
    compute_metrics,
    ks_two_sample,
    make_cv_splits,
    pearson_r,
    pool_folds,
)
from .features import SpecimenFeatures, compute_features
from .linear import (
    FeatureSpec,
    LinearModel,
    TargetSpace,
    build_rows,
    fit_ols,
    predict_specimen,
)
from .neural.model import ModelConfig
from .neural.training import TrainConfig, TrainedModel, predict_specimen_masses, train
from .records import Dataset, PredictionEntry, PredictionSet
from .rng import derive_seed, substream


VAL_FRACTION = 0.2  # of each taxon, when a neural fit is given no validation split


def _check_trim_fraction(trim_fraction: float) -> None:
    """Reject a trim fraction before any model is fitted or run."""
    if not 0 <= trim_fraction < 0.5:
        raise InvalidConfig(f"trim_fraction must lie in [0, 0.5), got {trim_fraction}")


def feature_table(dataset: Dataset) -> dict[str, SpecimenFeatures]:
    return {s.specimen_id: compute_features(s) for s in dataset.specimens}


@dataclass(frozen=True)
class LinearEstimator:
    """OLS on area, or on area and sinking speed (see ``linear``)."""

    feature_spec: FeatureSpec
    target_space: TargetSpace = TargetSpace.RAW
    per_image: bool = True

    def fit(
        self,
        dataset: Dataset,
        train_ids,
        val_ids=None,
        seed: int = 0,
        features: dict[str, SpecimenFeatures] | None = None,
    ) -> LinearModel:
        """Fit on ``train_ids`` alone; OLS needs neither a validation split
        nor a seed."""
        features = features or feature_table(dataset)
        rows = build_rows(
            dataset.subset(train_ids), features, self.feature_spec, self.target_space,
            self.per_image,
        )
        return fit_ols(rows, self.target_space, self.feature_spec)


@dataclass(frozen=True)
class NeuralEstimator:
    """A CNN of ``model_config`` trained under ``train_config``."""

    model_config: ModelConfig
    train_config: TrainConfig

    def fit(
        self,
        dataset: Dataset,
        train_ids,
        val_ids=None,
        seed: int = 0,
        features: dict[str, SpecimenFeatures] | None = None,
    ) -> TrainedModel:
        """Train with ``seed`` in place of the config's seed and keep the
        min-validation-loss epoch. Without ``val_ids``, a stratified
        VAL_FRACTION of each taxon in ``train_ids`` validates instead."""
        if val_ids is None:
            train_ids, val_ids = _stratified_val_split(dataset, train_ids, seed)
        return train(
            dataset, train_ids, val_ids, self.model_config,
            replace(self.train_config, seed=seed), features,
        )


def _stratified_val_split(dataset: Dataset, specimen_ids, seed: int):
    """(train, val) ids with VAL_FRACTION of each taxon, at least one, in val."""
    rng = substream(seed, "ood_val")
    by_taxon: dict[str, list[str]] = {}
    for record in dataset.subset(specimen_ids):
        by_taxon.setdefault(record.taxon, []).append(record.specimen_id)
    train_ids: list[str] = []
    val_ids: list[str] = []
    for taxon in sorted(by_taxon):
        ids = sorted(by_taxon[taxon])
        rng.shuffle(ids)
        n_val = max(1, int(round(VAL_FRACTION * len(ids))))
        val_ids.extend(ids[:n_val])
        train_ids.extend(ids[n_val:])
    return train_ids, val_ids


def _prediction_set(records, masses: dict[str, float]) -> PredictionSet:
    """Entries for the weighed records that were given a mass."""
    return PredictionSet(
        tuple(
            PredictionEntry(r.specimen_id, r.taxon, r.dry_mass_ug, masses[r.specimen_id])
            for r in records
            if r.dry_mass_ug is not None and r.specimen_id in masses
        )
    )


def predict_linear(
    model: LinearModel,
    dataset: Dataset,
    specimen_ids,
    features: dict[str, SpecimenFeatures] | None = None,
    trim_fraction: float = 0.05,
) -> PredictionSet:
    features = features or feature_table(dataset)
    records = dataset.subset(specimen_ids)
    needs_speed = model.feature_spec is FeatureSpec.AREA_PLUS_SPEED
    masses = {
        r.specimen_id: predict_specimen(model, r, features[r.specimen_id], trim_fraction)
        for r in records
        if r.dry_mass_ug is not None
        and not (needs_speed and features[r.specimen_id].sinking_speed is None)
    }
    return _prediction_set(records, masses)


def predict_neural(
    model: TrainedModel,
    dataset: Dataset,
    specimen_ids,
    features: dict[str, SpecimenFeatures] | None = None,
    trim_fraction: float = 0.05,
) -> PredictionSet:
    masses = predict_specimen_masses(model, dataset, specimen_ids, features, trim_fraction)
    return _prediction_set(dataset.subset(specimen_ids), masses)


def model_family(model: LinearModel | TrainedModel) -> str:
    """"linear" or "neural": which estimator fitted ``model``."""
    return "linear" if isinstance(model, LinearModel) else "neural"


def predict(
    model: LinearModel | TrainedModel,
    dataset: Dataset,
    specimen_ids,
    features: dict[str, SpecimenFeatures] | None = None,
    trim_fraction: float = 0.05,
) -> PredictionSet:
    """Per-specimen predictions for every weighed specimen among
    ``specimen_ids`` that the model can score: a speed-consuming model skips
    specimens without a sinking speed, a multi-view model those without
    frames from both cameras."""
    _check_trim_fraction(trim_fraction)
    predict_fn = predict_linear if model_family(model) == "linear" else predict_neural
    return predict_fn(model, dataset, specimen_ids, features, trim_fraction)


@dataclass(frozen=True)
class CrossvalResult:
    plan: SplitPlan
    fold_reports: tuple[MetricReport, ...]
    pooled_report: MetricReport
    pooled_predictions: PredictionSet
    fold_val_histories: tuple[tuple[float, ...], ...] = ()


def crossval(
    dataset: Dataset,
    estimator: LinearEstimator | NeuralEstimator,
    k: int = 5,
    seed: int = 0,
    trim_fraction: float = 0.05,
) -> CrossvalResult:
    """k-fold protocol: fit on each fold's train split (and validation split)
    with a fold-derived seed, score its test fold, then pool the test
    predictions. Neural folds keep their validation-loss histories."""
    _check_trim_fraction(trim_fraction)
    features = feature_table(dataset)
    plan = make_cv_splits(dataset, k=k, seed=seed)
    fold_sets = []
    histories = []
    for f, fold in enumerate(plan.folds):
        model = estimator.fit(dataset, fold.train, fold.val, derive_seed(seed, "fold", f), features)
        if hasattr(model, "val_loss_history"):
            histories.append(tuple(model.val_loss_history))
        fold_sets.append(predict(model, dataset, fold.test, features, trim_fraction))
    pooled = pool_folds(fold_sets)
    return CrossvalResult(
        plan=plan,
        fold_reports=tuple(compute_metrics(s) for s in fold_sets),
        pooled_report=compute_metrics(pooled),
        pooled_predictions=pooled,
        fold_val_histories=tuple(histories),
    )


def crossval_linear(
    dataset: Dataset,
    feature_spec: FeatureSpec,
    target_space: TargetSpace = TargetSpace.RAW,
    k: int = 5,
    seed: int = 0,
    trim_fraction: float = 0.05,
    per_image: bool = True,
) -> CrossvalResult:
    estimator = LinearEstimator(feature_spec, target_space, per_image)
    return crossval(dataset, estimator, k, seed, trim_fraction)


def crossval_neural(
    dataset: Dataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    k: int = 5,
    seed: int = 0,
    trim_fraction: float = 0.05,
) -> CrossvalResult:
    estimator = NeuralEstimator(model_config, train_config)
    return crossval(dataset, estimator, k, seed, trim_fraction)


def ood_split(dataset: Dataset, holdout_taxon: str) -> tuple[list[str], list[str]]:
    """Specimen ids for (rest-of-dataset, holdout taxon)."""
    if holdout_taxon not in dataset.taxon_set:
        raise UnknownTaxon(f"taxon {holdout_taxon!r} not present in dataset")
    rest, held = [], []
    for s in dataset.specimens:
        (held if s.taxon == holdout_taxon else rest).append(s.specimen_id)
    return rest, held


def ood(
    dataset: Dataset,
    holdout_taxon: str,
    estimator: LinearEstimator | NeuralEstimator,
    seed: int = 0,
    trim_fraction: float = 0.05,
) -> tuple[MetricReport, PredictionSet]:
    """Fit on every other taxon (``seed`` drives both a neural model's
    validation split and its training) and score only the held-out taxon."""
    _check_trim_fraction(trim_fraction)
    rest, held = ood_split(dataset, holdout_taxon)
    features = feature_table(dataset)
    model = estimator.fit(dataset, rest, None, seed, features)
    predictions = predict(model, dataset, held, features, trim_fraction)
    return compute_metrics(predictions), predictions


@dataclass(frozen=True)
class PipelineGroup:
    taxon: str
    n: int
    n_misclassified: int
    ks_d: float | None
    ks_p: float | None
    pearson: float | None


@dataclass(frozen=True)
class PipelineReport:
    groups: tuple[PipelineGroup, ...]
    predictions: PredictionSet
    accuracy: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "groups": [
                {
                    "taxon": g.taxon,
                    "n": g.n,
                    "n_misclassified": g.n_misclassified,
                    "ks_d": g.ks_d,
                    "ks_p": g.ks_p,
                    "pearson_r": g.pearson,
                }
                for g in self.groups
            ],
        }


def run_pipeline(
    dataset: Dataset,
    classify_fn,
    predict_fn,
    taxa: tuple[str, ...] | None = None,
) -> PipelineReport:
    """Classify every weighed specimen, estimate its mass, then compare the
    per-group predicted mass distribution against the true masses.

    Groups are formed by the *predicted* taxon, so misclassified specimens
    stay in the group the classifier put them in. ``classify_fn`` maps a
    SpecimenRecord to a taxon; ``predict_fn`` maps (record, predicted_taxon)
    to a mass. Group statistics are the two-sample KS test between the
    group's predicted and true masses plus Pearson's r on log masses;
    degenerate groups report None.
    """
    records = [s for s in dataset.specimens if s.dry_mass_ug is not None]
    if not records:
        raise EmptyPredictions("pipeline needs weighed specimens")
    if taxa is None:
        taxa = tuple(sorted({r.taxon for r in records}))
    entries = []
    for record in records:
        predicted_taxon = classify_fn(record)
        mass = predict_fn(record, predicted_taxon)
        entries.append(
            PredictionEntry(
                record.specimen_id,
                record.taxon,
                record.dry_mass_ug,
                mass,
                predicted_taxon=predicted_taxon,
            )
        )
    predictions = PredictionSet(tuple(entries))
    groups = []
    correct = 0
    for taxon in taxa:
        members = [e for e in entries if e.predicted_taxon == taxon]
        n_mis = sum(1 for e in members if e.taxon != taxon)
        correct += len(members) - n_mis
        ks_d = ks_p = pearson = None
        if members:
            true_masses = [e.true_mass_ug for e in members]
            pred_masses = [e.predicted_mass_ug for e in members]
            ks_d, ks_p = ks_two_sample(true_masses, pred_masses)
            if len(members) >= 2:
                try:
                    pearson = pearson_r(
                        [math.log(v) for v in true_masses],
                        [math.log(v) for v in pred_masses],
                    )
                except ZeroVariance:
                    pearson = None
        groups.append(
            PipelineGroup(
                taxon=taxon,
                n=len(members),
                n_misclassified=n_mis,
                ks_d=ks_d,
                ks_p=ks_p,
                pearson=pearson,
            )
        )
    return PipelineReport(
        groups=tuple(groups),
        predictions=predictions,
        accuracy=correct / len(entries),
    )
