"""Metrics, resampling statistics, and the cross-validation splitter.

Error metrics are defined over pooled per-specimen predictions: MAPE and
MdAPE are mean/median of |y - yhat| / y, MAE is the mean absolute error,
RMSE the root of the mean squared error, and the coefficient of
determination is computed on log-transformed masses (a model that always
predicts the log-mean scores exactly zero).

The median convention throughout is the mean of the two central order
statistics for even counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DuplicateSpecimenAcrossFolds,
    EmptyInput,
    EmptyPredictions,
    InvalidConfig,
    LabelMismatch,
    NonPositiveMass,
    TaxonTooSmall,
    TooFewEntries,
    ZeroVariance,
)
from .records import Dataset, PredictionEntry, PredictionSet
from .rng import substream

METRIC_NAMES = ("mape", "mdape", "mae", "rmse", "r2_log")


@dataclass(frozen=True)
class BootstrapInterval:
    low: float
    high: float
    std: float


@dataclass(frozen=True)
class MetricReport:
    mape: float
    mdape: float
    mae: float
    rmse: float
    r2_log: float
    n: int
    intervals: dict[str, BootstrapInterval] | None = None

    def value(self, name: str) -> float:
        return getattr(self, name)

    def to_dict(self) -> dict:
        out = {name: self.value(name) for name in METRIC_NAMES}
        out["n"] = self.n
        if self.intervals is not None:
            out["bootstrap"] = {
                name: {"low": iv.low, "high": iv.high, "std": iv.std}
                for name, iv in self.intervals.items()
            }
        return out


def _median(values: np.ndarray) -> float:
    return float(np.median(values))


def mape(y: np.ndarray, yhat: np.ndarray) -> float:
    return float(np.mean(np.abs((y - yhat) / y)))


def mdape(y: np.ndarray, yhat: np.ndarray) -> float:
    return _median(np.abs((y - yhat) / y))


def mae(y: np.ndarray, yhat: np.ndarray) -> float:
    return float(np.mean(np.abs(y - yhat)))


def rmse(y: np.ndarray, yhat: np.ndarray) -> float:
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def r2_log(y: np.ndarray, yhat: np.ndarray) -> float:
    ly, lyhat = np.log(y), np.log(yhat)
    ss_res = np.sum((ly - lyhat) ** 2)
    ss_tot = np.sum((ly - np.mean(ly)) ** 2)
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else -math.inf
    return float(1.0 - ss_res / ss_tot)


METRIC_FUNCS = {"mape": mape, "mdape": mdape, "mae": mae, "rmse": rmse, "r2_log": r2_log}


def compute_metrics(predictions: PredictionSet) -> MetricReport:
    """Pooled error metrics for a prediction set; masses must be positive."""
    if len(predictions) == 0:
        raise EmptyPredictions("no entries to evaluate")
    y = predictions.true_masses()
    yhat = predictions.predicted_masses()
    if np.any(y <= 0) or np.any(yhat <= 0):
        raise NonPositiveMass("metrics need positive true and predicted masses")
    return MetricReport(
        **{name: fn(y, yhat) for name, fn in METRIC_FUNCS.items()}, n=len(predictions)
    )


def pearson_r(a, b) -> float:
    """Product-moment correlation of two equal-length vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise EmptyInput("pearson_r needs two equal-length vectors of size >= 2")
    da, db = a - a.mean(), b - b.mean()
    denom = math.sqrt(float(np.dot(da, da)) * float(np.dot(db, db)))
    if denom == 0.0:
        raise ZeroVariance("pearson_r undefined for a constant vector")
    r = float(np.dot(da, db)) / denom
    return max(-1.0, min(1.0, r))


def _kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(lam)."""
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        # dual theta series: converges fast for small lam, exact 1.0 at 0
        factor = math.sqrt(2.0 * math.pi) / lam
        total = 0.0
        for j in range(1, 101):
            term = math.exp(-((2 * j - 1) ** 2) * math.pi**2 / (8.0 * lam * lam))
            total += term
            if term < 1e-18:
                break
        return min(1.0, max(0.0, 1.0 - factor * total))
    total = 0.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += (-1.0) ** (j - 1) * term
        if term < 1e-18:
            break
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D is the exact supremum of |ECDF_a - ECDF_b| over all thresholds. The
    p-value uses the asymptotic Kolmogorov distribution with effective size
    n_e = n_a*n_b/(n_a+n_b) and the small-sample correction
    lam = (sqrt(n_e) + 0.12 + 0.11/sqrt(n_e)) * D. Symmetric in (a, b).
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptyInput("ks_two_sample needs two non-empty samples")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(n_eff) + 0.12 + 0.11 / math.sqrt(n_eff)) * d
    return d, _kolmogorov_sf(lam)


def _bootstrap_intervals(
    metric_fns, predictions: PredictionSet, n_draws: int, level: float, seed: int
) -> list[BootstrapInterval]:
    """``bootstrap`` for each metric function, all over the same draws."""
    n = len(predictions)
    if n < 2:
        raise TooFewEntries(f"bootstrap needs at least 2 entries, got {n}")
    if not 0 < level < 1:
        raise InvalidConfig(f"bootstrap level must lie in (0, 1), got {level}")
    y = predictions.true_masses()
    yhat = predictions.predicted_masses()
    rng = substream(seed, "bootstrap")
    stats = np.empty((len(metric_fns), n_draws), dtype=float)
    for i in range(n_draws):
        idx = rng.integers(0, n, size=n)
        yi, yhi = y[idx], yhat[idx]
        for j, metric_fn in enumerate(metric_fns):
            stats[j, i] = metric_fn(yi, yhi)
    alpha = (1.0 - level) / 2.0
    intervals = []
    for row in stats:
        low, high = np.percentile(row, [100 * alpha, 100 * (1 - alpha)])
        intervals.append(BootstrapInterval(float(low), float(high), float(np.std(row))))
    return intervals


def bootstrap(
    metric_fn,
    predictions: PredictionSet,
    n_draws: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> BootstrapInterval:
    """Percentile bootstrap interval and standard deviation of a metric.

    Resamples specimens (entries) with replacement, because metrics are
    defined over per-specimen aggregates. ``metric_fn`` maps (y, yhat)
    arrays to a scalar. Deterministic given the seed.
    """
    return _bootstrap_intervals([metric_fn], predictions, n_draws, level, seed)[0]


def attach_bootstrap(
    report: MetricReport,
    predictions: PredictionSet,
    n_draws: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> MetricReport:
    """Return a copy of ``report`` with bootstrap intervals for each metric.

    All metrics are computed from the same resampling draws.
    """
    intervals = _bootstrap_intervals(
        [METRIC_FUNCS[name] for name in METRIC_NAMES], predictions, n_draws, level, seed
    )
    return replace(report, intervals=dict(zip(METRIC_NAMES, intervals)))


@dataclass(frozen=True)
class FoldSplit:
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]


@dataclass(frozen=True)
class SplitPlan:
    folds: tuple[FoldSplit, ...]
    fold_assignments: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "folds": [
                {"train": list(f.train), "val": list(f.val), "test": list(f.test)}
                for f in self.folds
            ],
            "fold_assignments": dict(sorted(self.fold_assignments.items())),
        }


def _proportional_allocation(weights: list[int], total: int, caps: list[int]) -> list[int]:
    """Largest-remainder allocation of ``total`` slots, respecting caps."""
    weight_sum = sum(weights)
    if weight_sum == 0:
        return [0] * len(weights)
    ideal = [total * w / weight_sum for w in weights]
    alloc = [min(int(math.floor(v)), c) for v, c in zip(ideal, caps)]
    remainders = sorted(
        range(len(weights)), key=lambda i: (alloc[i] - ideal[i], i)
    )
    short = total - sum(alloc)
    j = 0
    while short > 0 and j < 10 * len(weights):
        i = remainders[j % len(weights)]
        if alloc[i] < caps[i]:
            alloc[i] += 1
            short -= 1
        j += 1
    return alloc


def make_cv_splits(
    dataset: Dataset,
    k: int = 5,
    val_fraction_within_train: float = 0.2,
    seed: int = 0,
) -> SplitPlan:
    """Specimen-level, taxon-stratified k-fold split plan.

    The k test folds partition the dataset; within each fold the remaining
    specimens are divided into train and validation, reserving
    ``val_fraction_within_train`` of the non-test portion for validation.
    With the defaults (k=5, 0.2) every role lands within one specimen of the
    global 64/16/20 proportions. No specimen ever appears in two roles of
    the same fold, and each taxon's test appearances differ by at most one
    across folds.
    """
    specimens = dataset.specimens
    taxon_of = {s.specimen_id: s.taxon for s in specimens}
    by_taxon: dict[str, list[str]] = {}
    for s in specimens:
        by_taxon.setdefault(s.taxon, []).append(s.specimen_id)
    for taxon, ids in by_taxon.items():
        if len(ids) < k:
            raise TaxonTooSmall(f"taxon {taxon!r} has {len(ids)} specimens, needs >= {k}")

    rng = substream(seed, "split")
    n_total = len(specimens)
    fold_members: list[list[str]] = [[] for _ in range(k)]
    fold_loads = [0] * k
    for taxon in sorted(by_taxon):
        ids = sorted(by_taxon[taxon])
        rng.shuffle(ids)
        base, extra = divmod(len(ids), k)
        # extras go to the currently lightest folds, keeping global sizes
        # within one of each other
        order = sorted(range(k), key=lambda f: (fold_loads[f], f))
        counts = [base] * k
        for f in order[:extra]:
            counts[f] += 1
        pos = 0
        for f in range(k):
            fold_members[f].extend(ids[pos : pos + counts[f]])
            fold_loads[f] += counts[f]
            pos += counts[f]

    global_val = (1.0 - 1.0 / k) * val_fraction_within_train
    folds: list[FoldSplit] = []
    assignments: dict[str, int] = {}
    for f in range(k):
        test_ids = sorted(fold_members[f])
        for sid in test_ids:
            assignments[sid] = f
        rest_by_taxon: dict[str, list[str]] = {}
        for g in range(k):
            if g == f:
                continue
            for sid in fold_members[g]:
                rest_by_taxon.setdefault(taxon_of[sid], []).append(sid)
        m = n_total - len(test_ids)
        # split the ideal-count discrepancy between train and val so both
        # stay within one specimen of their global proportions
        delta = m - (1.0 - 1.0 / k) * n_total
        n_val = int(round(global_val * n_total + delta / 2.0))
        n_val = max(0, min(m, n_val))
        taxa = sorted(rest_by_taxon)
        weights = [len(rest_by_taxon[t]) for t in taxa]
        val_counts = _proportional_allocation(weights, n_val, weights)
        fold_rng = substream(seed, "split", f)
        val_ids: list[str] = []
        train_ids: list[str] = []
        for taxon, n_v in zip(taxa, val_counts):
            ids = sorted(rest_by_taxon[taxon])
            fold_rng.shuffle(ids)
            val_ids.extend(ids[:n_v])
            train_ids.extend(ids[n_v:])
        folds.append(FoldSplit(tuple(sorted(train_ids)), tuple(sorted(val_ids)), tuple(test_ids)))
    return SplitPlan(folds=tuple(folds), fold_assignments=assignments)


def pool_folds(per_fold: list[PredictionSet]) -> PredictionSet:
    """Concatenate disjoint fold test predictions into one pooled set."""
    entries: list[PredictionEntry] = []
    seen: set[str] = set()
    for fold in per_fold:
        for e in fold.entries:
            if e.specimen_id in seen:
                raise DuplicateSpecimenAcrossFolds(
                    f"specimen {e.specimen_id!r} predicted in two folds"
                )
            seen.add(e.specimen_id)
            entries.append(e)
    return PredictionSet(tuple(entries))


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class ClassificationReport:
    labels: tuple[str, ...]
    per_class: dict[str, ClassMetrics]
    confusion_pct: np.ndarray  # row-normalized percentages, rows = true class
    accuracy: float

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "accuracy": self.accuracy,
            "per_class": {
                lbl: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                }
                for lbl, m in self.per_class.items()
            },
            "confusion_pct": self.confusion_pct.tolist(),
        }


def classification_report(true_taxa, predicted_taxa, labels=None) -> ClassificationReport:
    """One-vs-rest precision/recall/F1 plus a row-normalized confusion matrix.

    ``labels`` defaults to the sorted set of true labels; a prediction
    outside it raises LabelMismatch. Empty denominators yield 0.0 by
    convention.
    """
    true_taxa = list(true_taxa)
    predicted_taxa = list(predicted_taxa)
    if len(true_taxa) != len(predicted_taxa) or not true_taxa:
        raise EmptyInput("need equal-length, non-empty label sequences")
    if labels is None:
        labels = tuple(sorted(set(true_taxa)))
    else:
        labels = tuple(labels)
    index = {lbl: i for i, lbl in enumerate(labels)}
    for t in true_taxa:
        if t not in index:
            raise LabelMismatch(f"true label {t!r} outside label set")
    for p in predicted_taxa:
        if p not in index:
            raise LabelMismatch(f"predicted label {p!r} outside label set")
    n = len(labels)
    counts = np.zeros((n, n), dtype=float)
    for t, p in zip(true_taxa, predicted_taxa):
        counts[index[t], index[p]] += 1
    per_class = {}
    for lbl in labels:
        i = index[lbl]
        tp = counts[i, i]
        fp = counts[:, i].sum() - tp
        fn = counts[i, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[lbl] = ClassMetrics(float(precision), float(recall), float(f1), int(counts[i].sum()))
    row_sums = counts.sum(axis=1, keepdims=True)
    confusion_pct = np.divide(
        100.0 * counts, row_sums, out=np.zeros_like(counts), where=row_sums > 0
    )
    accuracy = float(np.trace(counts) / counts.sum())
    return ClassificationReport(labels, per_class, confusion_pct, accuracy)
