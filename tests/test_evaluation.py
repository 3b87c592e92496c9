import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkmass import evaluation
from sinkmass.errors import (
    DuplicateSpecimenAcrossFolds,
    EmptyInput,
    EmptyPredictions,
    InvalidConfig,
    LabelMismatch,
    TaxonTooSmall,
    TooFewEntries,
    ZeroVariance,
)
from sinkmass.evaluation import (
    attach_bootstrap,
    bootstrap,
    classification_report,
    compute_metrics,
    ks_two_sample,
    mae,
    make_cv_splits,
    pearson_r,
    pool_folds,
)
from sinkmass.records import Dataset, PredictionEntry, PredictionSet

from conftest import make_specimen


def prediction_set(y, yhat, prefix="s"):
    entries = tuple(
        PredictionEntry(f"{prefix}{i}", "t", float(a), float(b))
        for i, (a, b) in enumerate(zip(y, yhat))
    )
    return PredictionSet(entries)


class TestComputeMetrics:
    def test_hand_arithmetic(self):
        report = compute_metrics(prediction_set([1, 2, 4], [2, 2, 2]))
        assert report.mae == pytest.approx(1.0, abs=1e-12)
        assert report.mape == pytest.approx(0.5, abs=1e-12)
        assert report.mdape == pytest.approx(0.5, abs=1e-12)
        assert report.rmse == pytest.approx(math.sqrt(5 / 3), abs=1e-12)
        assert report.n == 3

    def test_perfect_predictions(self):
        report = compute_metrics(prediction_set([1, 2, 4], [1, 2, 4]))
        assert report.mae == 0.0
        assert report.mape == 0.0
        assert report.mdape == 0.0
        assert report.rmse == 0.0
        assert report.r2_log == 1.0

    def test_log_mean_predictor_scores_zero_r2(self):
        y = [1.0, 3.0, 9.0, 27.0]
        center = math.exp(np.mean(np.log(y)))
        report = compute_metrics(prediction_set(y, [center] * 4))
        assert report.r2_log == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyPredictions):
            compute_metrics(PredictionSet(()))

    def test_mae_bounded_by_rmse(self, rng):
        for _ in range(30):
            y = rng.uniform(1, 100, size=20)
            yhat = rng.uniform(1, 100, size=20)
            report = compute_metrics(prediction_set(y, yhat))
            assert report.mae <= report.rmse + 1e-12

    def test_scale_invariance_structure(self, rng):
        y = rng.uniform(1, 50, size=25)
        yhat = rng.uniform(1, 50, size=25)
        base = compute_metrics(prediction_set(y, yhat))
        scaled = compute_metrics(prediction_set(3.7 * y, 3.7 * yhat))
        assert scaled.mae == pytest.approx(3.7 * base.mae, rel=1e-12)
        assert scaled.rmse == pytest.approx(3.7 * base.rmse, rel=1e-12)
        assert scaled.mape == pytest.approx(base.mape, rel=1e-12)
        assert scaled.mdape == pytest.approx(base.mdape, rel=1e-12)
        assert scaled.r2_log == pytest.approx(base.r2_log, rel=1e-9)

    def test_permutation_invariance(self, rng):
        y = rng.uniform(1, 50, size=15)
        yhat = rng.uniform(1, 50, size=15)
        perm = rng.permutation(15)
        a = compute_metrics(prediction_set(y, yhat))
        b = compute_metrics(prediction_set(y[perm], yhat[perm], prefix="p"))
        for name in ("mape", "mdape", "mae", "rmse", "r2_log"):
            assert a.value(name) == pytest.approx(b.value(name), rel=1e-12)


class TestPearson:
    def test_affine_relation_gives_one(self):
        a = np.array([1.0, 2.0, 5.0, 9.0])
        assert pearson_r(a, 2 * a + 1) == pytest.approx(1.0, abs=1e-12)

    def test_negation_gives_minus_one(self):
        a = np.array([1.0, 2.0, 5.0])
        assert pearson_r(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_after_centering_gives_zero(self):
        a = np.array([1.0, -1.0, 1.0, -1.0])
        b = np.array([1.0, 1.0, -1.0, -1.0])
        assert float(np.dot(a - a.mean(), b - b.mean())) == 0.0
        assert pearson_r(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_constant_vector_rejected(self):
        with pytest.raises(ZeroVariance):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_within_bounds(self, rng):
        for _ in range(50):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            assert -1.0 <= pearson_r(a, b) <= 1.0


def brute_force_ks(a, b):
    """Oracle: evaluate both ECDFs at every pooled point."""
    pooled = list(a) + list(b)
    best = 0.0
    for t in pooled:
        fa = np.mean(np.asarray(a) <= t)
        fb = np.mean(np.asarray(b) <= t)
        best = max(best, abs(fa - fb))
    return float(best)


class TestKsTwoSample:
    def test_identical_samples(self):
        d, p = ks_two_sample([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
        assert d == 0.0
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_supports(self):
        d, _ = ks_two_sample([1.0, 2.0], [10.0, 20.0, 30.0])
        assert d == 1.0

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(200):
            a = rng.normal(0, 1, size=30)
            b = rng.normal(0.3, 1.2, size=30)
            d, _ = ks_two_sample(a, b)
            assert d == brute_force_ks(a, b)

    def test_symmetry(self, rng):
        a = rng.normal(size=20)
        b = rng.normal(size=35)
        assert ks_two_sample(a, b) == ks_two_sample(b, a)

    def test_unequal_sizes_match_brute_force(self, rng):
        for _ in range(50):
            a = rng.uniform(size=int(rng.integers(2, 40)))
            b = rng.uniform(size=int(rng.integers(2, 40)))
            d, _ = ks_two_sample(a, b)
            assert d == brute_force_ks(a, b)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            ks_two_sample([], [1.0])

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(st.integers(-20, 20) | st.floats(-1e6, 1e6), min_size=1, max_size=60),
        b=st.lists(st.integers(-20, 20) | st.floats(-1e6, 1e6), min_size=1, max_size=60),
    )
    def test_statistic_matches_scipy(self, a, b):
        from scipy.stats import ks_2samp

        d, _ = ks_two_sample(a, b)
        with np.errstate(divide="ignore"):  # scipy's p-value for tiny samples
            expected = ks_2samp(a, b, method="asymp").statistic
        assert d == pytest.approx(expected, rel=0, abs=1e-12)

    def test_p_value_in_unit_interval(self, rng):
        for _ in range(50):
            a = rng.normal(size=25)
            b = rng.normal(rng.uniform(0, 2), size=25)
            _, p = ks_two_sample(a, b)
            assert 0.0 <= p <= 1.0


class TestBootstrap:
    def test_constant_predictions_give_degenerate_interval(self):
        ps = prediction_set([5.0] * 10, [6.0] * 10)
        interval = bootstrap(mae, ps, n_draws=200, seed=3)
        assert interval.low == interval.high == 1.0
        assert interval.std == 0.0

    def test_same_seed_reproduces(self):
        ps = prediction_set(np.arange(1, 21), np.arange(1, 21) + 0.5)
        a = bootstrap(mae, ps, n_draws=300, seed=11)
        b = bootstrap(mae, ps, n_draws=300, seed=11)
        assert (a.low, a.high, a.std) == (b.low, b.high, b.std)

    def test_interval_brackets_point_estimate(self, rng):
        y = rng.uniform(1, 100, size=60)
        yhat = y * rng.uniform(0.7, 1.3, size=60)
        ps = prediction_set(y, yhat)
        point = mae(y, yhat)
        interval = bootstrap(mae, ps, n_draws=1000, seed=5)
        assert interval.low <= point <= interval.high

    def test_too_few_entries(self):
        with pytest.raises(TooFewEntries):
            bootstrap(mae, prediction_set([1.0], [2.0]), seed=0)

    @pytest.mark.parametrize("n_draws", [0, 1])
    def test_fewer_than_two_draws_rejected(self, n_draws):
        ps = prediction_set(np.arange(1, 21), np.arange(1, 21) + 0.5)
        with pytest.raises(InvalidConfig, match="at least 2 bootstrap draws"):
            attach_bootstrap(compute_metrics(ps), ps, n_draws=n_draws, seed=0)

    def test_attach_bootstrap_covers_all_metrics(self, rng):
        y = rng.uniform(1, 100, size=30)
        ps = prediction_set(y, y * 1.1)
        report = attach_bootstrap(compute_metrics(ps), ps, n_draws=100, seed=2)
        assert set(report.intervals) == {"mape", "mdape", "mae", "rmse", "r2_log"}
        for name, iv in report.intervals.items():
            assert iv.low <= iv.high


def dataset_with_taxa(counts, prefix="d"):
    specimens = []
    i = 0
    for taxon, count in counts.items():
        for _ in range(count):
            specimens.append(make_specimen(sid=f"{prefix}{i}", taxon=taxon))
            i += 1
    return Dataset("cvdata", tuple(specimens))


class TestMakeCvSplits:
    def test_hundred_specimens_one_taxon(self):
        ds = dataset_with_taxa({"a": 100})
        plan = make_cv_splits(ds, k=5, seed=1)
        for fold in plan.folds:
            assert len(fold.test) == 20
            assert len(fold.train) == 64
            assert len(fold.val) == 16

    def test_roles_disjoint_within_fold(self):
        ds = dataset_with_taxa({"a": 30, "b": 25})
        plan = make_cv_splits(ds, k=5, seed=2)
        for fold in plan.folds:
            roles = set(fold.train) | set(fold.val) | set(fold.test)
            assert len(roles) == len(fold.train) + len(fold.val) + len(fold.test)

    def test_test_folds_partition_dataset(self):
        ds = dataset_with_taxa({"a": 23, "b": 31, "c": 17})
        plan = make_cv_splits(ds, k=5, seed=3)
        pooled = [sid for fold in plan.folds for sid in fold.test]
        assert sorted(pooled) == sorted(s.specimen_id for s in ds.specimens)

    def test_stratification_within_one(self):
        ds = dataset_with_taxa({"a": 50, "b": 50})
        plan = make_cv_splits(ds, k=5, seed=4)
        taxon_of = {s.specimen_id: s.taxon for s in ds.specimens}
        for fold in plan.folds:
            counts = {"a": 0, "b": 0}
            for sid in fold.test:
                counts[taxon_of[sid]] += 1
            assert abs(counts["a"] - 10) <= 1
            assert abs(counts["b"] - 10) <= 1

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 7),
        extra=st.lists(st.integers(0, 25), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_invariants_over_random_taxon_counts(self, k, extra, seed):
        ds = dataset_with_taxa({f"t{i}": k + n for i, n in enumerate(extra)})
        plan = make_cv_splits(ds, k=k, seed=seed)
        everyone = sorted(s.specimen_id for s in ds.specimens)
        assert len(plan.folds) == k
        assert sorted(sid for fold in plan.folds for sid in fold.test) == everyone
        taxon_of = {s.specimen_id: s.taxon for s in ds.specimens}
        for fold in plan.folds:
            roles = fold.train + fold.val + fold.test
            assert sorted(roles) == everyone  # each specimen has exactly one role
        for taxon in set(taxon_of.values()):
            counts = [sum(taxon_of[sid] == taxon for sid in fold.test) for fold in plan.folds]
            assert max(counts) - min(counts) <= 1, (taxon, counts)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_validation_allocation_is_largest_remainder_within_weights(self, data):
        weights = data.draw(st.lists(st.integers(0, 400), min_size=1, max_size=12))
        total = data.draw(st.integers(0, sum(weights)))
        alloc = evaluation._proportional_allocation(weights, total)
        assert sum(alloc) == total
        for a, w in zip(alloc, weights):
            ideal = total * w / sum(weights) if sum(weights) else 0.0
            assert math.floor(ideal) <= a <= math.floor(ideal) + 1
            assert a <= w

    def test_small_taxon_rejected(self):
        ds = dataset_with_taxa({"a": 10, "b": 3})
        with pytest.raises(TaxonTooSmall):
            make_cv_splits(ds, k=5)

    def test_deterministic_per_seed(self):
        ds = dataset_with_taxa({"a": 21, "b": 34})
        assert make_cv_splits(ds, seed=9) == make_cv_splits(ds, seed=9)
        assert make_cv_splits(ds, seed=9) != make_cv_splits(ds, seed=10)


class TestPoolFolds:
    def test_five_folds_of_twenty(self):
        folds = [
            prediction_set(np.arange(1, 21), np.arange(1, 21), prefix=f"f{i}_")
            for i in range(5)
        ]
        assert len(pool_folds(folds)) == 100

    def test_overlap_rejected(self):
        fold = prediction_set([1.0], [1.0])
        with pytest.raises(DuplicateSpecimenAcrossFolds):
            pool_folds([fold, fold])

    def test_empty_list_gives_empty_set(self):
        assert len(pool_folds([])) == 0


class TestClassificationReport:
    def test_perfect_predictions(self):
        labels = ["a", "b", "a", "b"]
        report = classification_report(labels, labels)
        for metrics in report.per_class.values():
            assert metrics.precision == metrics.recall == metrics.f1 == 1.0
        assert np.allclose(np.diag(report.confusion_pct), 100.0)

    def test_all_predicted_one_class(self):
        true = ["a", "a", "a", "b"]
        report = classification_report(true, ["a"] * 4)
        assert report.per_class["a"].recall == 1.0
        assert report.per_class["a"].precision == pytest.approx(0.75)

    def test_hand_built_confusion(self):
        # TP=3, FP=1, FN=1, TN=5 for class "pos"
        true = ["pos"] * 4 + ["neg"] * 6
        predicted = ["pos"] * 3 + ["neg"] + ["pos"] + ["neg"] * 5
        report = classification_report(true, predicted)
        pos = report.per_class["pos"]
        assert pos.precision == pytest.approx(0.75, abs=1e-12)
        assert pos.recall == pytest.approx(0.75, abs=1e-12)
        assert pos.f1 == pytest.approx(0.75, abs=1e-12)

    def test_rows_sum_to_hundred(self, rng):
        labels = ["a", "b", "c"]
        true = [labels[i] for i in rng.integers(0, 3, size=60)]
        predicted = [labels[i] for i in rng.integers(0, 3, size=60)]
        report = classification_report(true, predicted, labels=labels)
        for i, lbl in enumerate(report.labels):
            if report.per_class[lbl].support > 0:
                assert report.confusion_pct[i].sum() == pytest.approx(100.0, abs=1e-9)

    def test_unknown_prediction_rejected(self):
        with pytest.raises(LabelMismatch):
            classification_report(["a", "a"], ["a", "zzz"])
