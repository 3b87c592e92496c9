"""Experiment flows binding models to the evaluation protocol: fitting and
scoring over cross-validation folds, out-of-distribution holdouts, and the
end-to-end classify-then-estimate pipeline."""

from __future__ import annotations

import contextlib
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import partial

from .errors import EmptyPredictions, UnknownTaxon, ZeroVariance
from .evaluation import (
    CV_FOLDS,
    VAL_FRACTION,
    MetricReport,
    SplitPlan,
    compute_metrics,
    ks_two_sample,
    make_cv_splits,
    pearson_r,
    pool_folds,
)
from .linear import (
    FeatureSpec,
    LinearModel,
    TargetSpace,
    build_rows,
    finite_masses,
    fit_ols,
    predict_specimen,
)
from .neural.model import ModelConfig
from .neural.training import (
    TrainConfig, TrainedModel, predict_specimen_masses, run_in_order, thread_count, train,
)
from .records import Dataset, PredictionEntry, PredictionSet
from .rng import derive_seed, substream


@dataclass(frozen=True)
class LinearEstimator:
    """OLS on area, or on area and sinking speed (see ``linear``)."""

    THREADED_FOLDS = False  # an OLS fit takes milliseconds: a thread costs memory, not time
    feature_spec: FeatureSpec
    target_space: TargetSpace = TargetSpace.RAW
    per_image: bool = True

    def fit(self, dataset: Dataset, train_ids, val_ids=None, seed: int = 0) -> LinearModel:
        """Fit on ``train_ids`` alone; OLS needs neither a validation split
        nor a seed."""
        rows = build_rows(
            dataset.subset(train_ids), dataset.features, self.feature_spec, self.target_space,
            self.per_image,
        )
        return fit_ols(rows, self.target_space)


@dataclass(frozen=True)
class NeuralEstimator:
    """A CNN of ``model_config`` trained under ``train_config``."""

    THREADED_FOLDS = True  # each fold trains for seconds to minutes
    model_config: ModelConfig
    train_config: TrainConfig

    def fit(self, dataset: Dataset, train_ids, val_ids=None, seed: int = 0) -> TrainedModel:
        """Train with ``seed`` in place of the config's seed and keep the
        min-validation-loss epoch. Without ``val_ids``, a stratified
        VAL_FRACTION of each taxon in ``train_ids`` validates instead."""
        if val_ids is None:
            train_ids, val_ids = _stratified_val_split(dataset, train_ids, seed)
        return train(
            dataset, train_ids, val_ids, self.model_config, replace(self.train_config, seed=seed)
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


def predict_linear(model: LinearModel, dataset: Dataset, specimen_ids) -> PredictionSet:
    features = dataset.features
    records = dataset.subset(specimen_ids)
    needs_speed = model.feature_spec is FeatureSpec.AREA_PLUS_SPEED
    masses = finite_masses(lambda: {
        r.specimen_id: predict_specimen(model, r, features[r.specimen_id])
        for r in records
        if r.dry_mass_ug is not None
        and not (needs_speed and features[r.specimen_id].sinking_speed is None)
    })
    return _prediction_set(records, masses)


def predict_neural(model: TrainedModel, dataset: Dataset, specimen_ids) -> PredictionSet:
    masses = predict_specimen_masses(model, dataset, specimen_ids)
    return _prediction_set(dataset.subset(specimen_ids), masses)


def model_family(model: LinearModel | TrainedModel) -> str:
    """"linear" or "neural": which estimator fitted ``model``."""
    return "linear" if isinstance(model, LinearModel) else "neural"


def predict(model: LinearModel | TrainedModel, dataset: Dataset, specimen_ids) -> PredictionSet:
    """Per-specimen predictions for every weighed specimen among
    ``specimen_ids`` that the model can score: a speed-consuming model skips
    specimens without a sinking speed, a multi-view model those without
    frames from both cameras."""
    predict_fn = predict_linear if model_family(model) == "linear" else predict_neural
    return predict_fn(model, dataset, specimen_ids)


@dataclass(frozen=True)
class CrossvalResult:
    plan: SplitPlan
    fold_reports: tuple[MetricReport, ...]
    pooled_report: MetricReport
    pooled_predictions: PredictionSet
    fold_val_histories: tuple[tuple[float, ...], ...] = ()


def crossval(
    dataset: Dataset, estimator: LinearEstimator | NeuralEstimator, k: int = CV_FOLDS,
    seed: int = 0,
) -> CrossvalResult:
    """k-fold protocol: fit on each fold's train split (and validation split)
    with a fold-derived seed, score its test fold, then pool the test
    predictions. Neural folds keep their validation-loss histories.

    Fold fits go through ``run_in_order`` (``thread_count(k)`` threads for a
    THREADED_FOLDS estimator, else one); the folds are then scored in order and
    a fold's fit error raised in its place, so results and errors are a serial loop's."""
    plan = make_cv_splits(dataset, k=k, seed=seed)
    with contextlib.suppress(ValueError):  # a frameless specimen: the fits raise it in order
        dataset.features  # once here, not by both threads queued on cached_property's lock
    models = run_in_order((
        partial(estimator.fit, dataset, fold.train, fold.val, derive_seed(seed, "fold", f))
        for f, fold in enumerate(plan.folds)
    ), thread_count(k) if estimator.THREADED_FOLDS else 1)
    fold_sets = []
    histories = []
    for fold, model in zip(plan.folds, models):  # a fold missing from models follows a failed one
        if isinstance(model, Exception):
            raise model
        if hasattr(model, "val_loss_history"):
            histories.append(tuple(model.val_loss_history))
        fold_sets.append(predict(model, dataset, fold.test))
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
    k: int = CV_FOLDS,
    seed: int = 0,
    per_image: bool = True,
) -> CrossvalResult:
    estimator = LinearEstimator(feature_spec, target_space, per_image)
    return crossval(dataset, estimator, k, seed)


def crossval_neural(
    dataset: Dataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    k: int = CV_FOLDS,
    seed: int = 0,
) -> CrossvalResult:
    estimator = NeuralEstimator(model_config, train_config)
    return crossval(dataset, estimator, k, seed)


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
) -> tuple[MetricReport, PredictionSet]:
    """Fit on every other taxon (``seed`` drives both a neural model's
    validation split and its training) and score only the held-out taxon."""
    rest, held = ood_split(dataset, holdout_taxon)
    model = estimator.fit(dataset, rest, None, seed)
    predictions = predict(model, dataset, held)
    return compute_metrics(predictions), predictions


@dataclass(frozen=True)
class PipelineGroup:
    taxon: str
    n: int
    n_misclassified: int
    ks_d: float | None
    ks_p: float | None
    pearson_r: float | None


@dataclass(frozen=True)
class PipelineReport:
    groups: tuple[PipelineGroup, ...]
    predictions: PredictionSet
    accuracy: float


def run_pipeline(
    dataset: Dataset,
    predicted_taxa: Mapping[str, str],
    predicted_masses: Mapping[str, float],
    taxa: tuple[str, ...] | None = None,
) -> PipelineReport:
    """Compare each group's predicted mass distribution against the true
    masses of its weighed specimens.

    ``predicted_taxa`` and ``predicted_masses`` map the id of every weighed
    specimen to its predicted taxon and mass. Groups are formed by the
    *predicted* taxon, so misclassified specimens stay in the group the
    classifier put them in. Group statistics are the two-sample KS test
    between the group's predicted and true masses plus Pearson's r on log
    masses; degenerate groups report None.
    """
    records = [s for s in dataset.specimens if s.dry_mass_ug is not None]
    if not records:
        raise EmptyPredictions("pipeline needs weighed specimens")
    if taxa is None:
        taxa = tuple(sorted({r.taxon for r in records}))
    entries = []
    for record in records:
        sid = record.specimen_id
        entries.append(
            PredictionEntry(
                sid,
                record.taxon,
                record.dry_mass_ug,
                predicted_masses[sid],
                predicted_taxon=predicted_taxa[sid],
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
                pearson_r=pearson,
            )
        )
    return PipelineReport(
        groups=tuple(groups),
        predictions=predictions,
        accuracy=correct / len(entries),
    )
