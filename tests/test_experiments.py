import os
import sys
import threading
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkmass import experiments, features
from sinkmass.errors import (
    EmptyPredictions, InvalidConfig, SinkmassError, TaxonTooSmall, UnknownTaxon,
)
from sinkmass.linear import FeatureSpec, TargetSpace
from sinkmass.neural import training
from sinkmass.neural.model import Architecture, HeadKind, MetadataInput, ModelConfig, NeuralNet
from sinkmass.neural.training import TrainConfig
from sinkmass.records import PredictionSet, frame_table
from sinkmass.rng import derive_seed
from sinkmass.synth import GroupSpec, SynthConfig, generate


@pytest.fixture(scope="module")
def metadata_dataset():
    config = SynthConfig(
        groups=(
            GroupSpec("light", (1.2, 1.4), (2.1, 0.25), 40),
            GroupSpec("medium", (1.9, 2.3), (2.1, 0.25), 40),
            GroupSpec("dense", (2.8, 3.4), (2.1, 0.25), 40),
        ),
        area_noise_cv=0.05,
        seed=99,
    )
    dataset, _ = generate(config)
    return dataset


class TestCrossvalLinear:
    def test_pooled_predictions_cover_scorable_specimens(self, metadata_dataset):
        result = experiments.crossval_linear(
            metadata_dataset, FeatureSpec.AREA_ONLY, seed=4
        )
        assert result.pooled_report.n == 120
        assert len(result.fold_reports) == 5

    def test_area_speed_improves_on_area(self, metadata_dataset):
        area = experiments.crossval_linear(metadata_dataset, FeatureSpec.AREA_ONLY, seed=4)
        both = experiments.crossval_linear(
            metadata_dataset, FeatureSpec.AREA_PLUS_SPEED, seed=4
        )
        assert both.pooled_report.mdape < area.pooled_report.mdape

    def test_deterministic(self, metadata_dataset):
        a = experiments.crossval_linear(metadata_dataset, FeatureSpec.AREA_ONLY, seed=4)
        b = experiments.crossval_linear(metadata_dataset, FeatureSpec.AREA_ONLY, seed=4)
        assert a.pooled_report == b.pooled_report

    def test_log_target_space(self, metadata_dataset):
        result = experiments.crossval_linear(
            metadata_dataset, FeatureSpec.AREA_PLUS_SPEED, TargetSpace.LOG, seed=4
        )
        assert result.pooled_report.n == 120
        assert all(e.predicted_mass_ug > 0 for e in result.pooled_predictions.entries)


class TestOod:
    def test_holdout_report_covers_only_holdout(self, metadata_dataset):
        report, predictions = experiments.ood(
            metadata_dataset, "dense", experiments.LinearEstimator(FeatureSpec.AREA_PLUS_SPEED)
        )
        dense_ids = {
            s.specimen_id for s in metadata_dataset.specimens if s.taxon == "dense"
        }
        predicted_ids = {e.specimen_id for e in predictions.entries}
        assert predicted_ids <= dense_ids
        assert report.n == len(predicted_ids)

    def test_training_rest_excludes_holdout(self, metadata_dataset):
        rest, held = experiments.ood_split(metadata_dataset, "light")
        taxa_rest = {metadata_dataset.specimen(sid).taxon for sid in rest}
        assert "light" not in taxa_rest
        assert len(rest) + len(held) == 120

    def test_unknown_taxon_rejected(self, metadata_dataset):
        with pytest.raises(UnknownTaxon):
            experiments.ood(
                metadata_dataset, "krill", experiments.LinearEstimator(FeatureSpec.AREA_ONLY)
            )


def test_features_computed_once_per_specimen_across_flows(monkeypatch):
    config = SynthConfig(
        groups=(GroupSpec("light", (1.2, 1.4), (2.1, 0.25), 15),
                GroupSpec("dense", (2.8, 3.4), (2.1, 0.25), 15)),
        seed=12,
    )
    dataset, _ = generate(config)
    calls = Counter()
    real = features.compute_features

    def spy(record):
        calls[record.specimen_id] += 1
        return real(record)

    monkeypatch.setattr(features, "compute_features", spy)
    estimator = experiments.LinearEstimator(FeatureSpec.AREA_PLUS_SPEED)
    experiments.crossval(dataset, estimator, k=3, seed=1)
    experiments.ood(dataset, "dense", estimator)
    assert calls == Counter(s.specimen_id for s in dataset.specimens)


def true_taxa(dataset):
    return {s.specimen_id: s.taxon for s in dataset.specimens}


def true_masses(dataset, factor=1.0):
    return {s.specimen_id: s.dry_mass_ug * factor for s in dataset.specimens}


class TestPipeline:
    def test_perfect_classifier_and_regressor_give_zero_ks(self, metadata_dataset):
        report = experiments.run_pipeline(
            metadata_dataset, true_taxa(metadata_dataset), true_masses(metadata_dataset)
        )
        for group in report.groups:
            assert group.ks_d == 0.0
            assert group.n_misclassified == 0
        assert report.accuracy == 1.0

    def test_matching_multisets_give_zero_ks_despite_errors(self, metadata_dataset):
        # permute masses within one taxon: per-specimen errors are large but
        # the group's predicted multiset equals the true multiset
        dense = [s for s in metadata_dataset.specimens if s.taxon == "dense"]
        rotated = {
            a.specimen_id: b.dry_mass_ug for a, b in zip(dense, dense[1:] + dense[:1])
        }
        report = experiments.run_pipeline(
            metadata_dataset,
            true_taxa(metadata_dataset),
            {**true_masses(metadata_dataset), **rotated},
        )
        by_taxon = {g.taxon: g for g in report.groups}
        assert by_taxon["dense"].ks_d == 0.0

    def test_group_counts_sum_to_dataset_size(self, metadata_dataset):
        rng = np.random.default_rng(3)
        taxa = sorted(metadata_dataset.taxon_set)
        predicted = {
            s.specimen_id: taxa[rng.integers(0, len(taxa))] for s in metadata_dataset.specimens
        }
        report = experiments.run_pipeline(
            metadata_dataset, predicted, true_masses(metadata_dataset, 1.1)
        )
        assert sum(g.n for g in report.groups) == len(metadata_dataset.specimens)
        assert isinstance(report.predictions, PredictionSet)

    def test_misclassified_kept_in_predicted_group(self, metadata_dataset):
        first = metadata_dataset.specimens[0]
        other = next(t for t in sorted(metadata_dataset.taxon_set) if t != first.taxon)

        predicted = {**true_taxa(metadata_dataset), first.specimen_id: other}
        report = experiments.run_pipeline(
            metadata_dataset, predicted, true_masses(metadata_dataset)
        )
        by_taxon = {g.taxon: g for g in report.groups}
        assert by_taxon[other].n_misclassified == 1
        assert by_taxon[first.taxon].n == sum(
            1 for s in metadata_dataset.specimens if s.taxon == first.taxon
        ) - 1


    def test_a_taxon_only_predicted_gets_its_group(self, metadata_dataset):
        first = metadata_dataset.specimens[0]
        predicted = {**true_taxa(metadata_dataset), first.specimen_id: "krill"}
        masses = true_masses(metadata_dataset)
        report = experiments.run_pipeline(metadata_dataset, predicted, masses)
        assert [(g.taxon, g.n, g.n_misclassified) for g in report.groups
                if g.taxon == "krill"] == [("krill", 1, 1)]
        assert sum(g.n for g in report.groups) == len(metadata_dataset.specimens)
        with pytest.raises(UnknownTaxon, match="krill"):
            experiments.run_pipeline(metadata_dataset, predicted, masses,
                                     taxa=tuple(sorted(metadata_dataset.taxon_set)))


class TestBadProtocolRejectedBeforeTraining:
    @pytest.fixture(scope="class")
    def raster_dataset(self):
        config = SynthConfig(
            groups=(GroupSpec("light", (1.3, 1.5), (1.6, 0.12), 10, aspect_range=(1.2, 1.6)),
                    GroupSpec("dense", (2.4, 2.8), (1.6, 0.12), 10, aspect_range=(1.2, 1.6))),
            seed=7,
            raster_dims=(16, 16),
        )
        return generate(config)[0]

    @pytest.fixture
    def train_calls(self, monkeypatch):
        calls = []
        real_train = experiments.train

        def spy(*args, **kwargs):
            calls.append(args)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(experiments, "train", spy)
        return calls

    @staticmethod
    def neural_estimator():
        return experiments.NeuralEstimator(
            ModelConfig(encoder_channels=(2,), head=HeadKind.ONE_LAYER, input_size=16),
            TrainConfig(epochs=1, batch_size=16),
        )

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_crossval_with_too_few_folds(self, raster_dataset, train_calls, k):
        with pytest.raises(InvalidConfig, match="at least 2 folds"):
            experiments.crossval(raster_dataset, self.neural_estimator(), k=k)
        assert train_calls == []

    def test_crossval_with_more_folds_than_a_taxon_has_specimens(
        self, raster_dataset, train_calls
    ):
        with pytest.raises(TaxonTooSmall):
            experiments.crossval(raster_dataset, self.neural_estimator(), k=11)
        assert train_calls == []

    def test_ood_with_unknown_holdout(self, raster_dataset, train_calls):
        with pytest.raises(UnknownTaxon):
            experiments.ood(raster_dataset, "krill", self.neural_estimator())
        assert train_calls == []

    def test_valid_protocol_trains_once_per_fold(self, raster_dataset, train_calls):
        experiments.crossval(raster_dataset, self.neural_estimator(), k=2)
        assert len(train_calls) == 2


def allow_cpus(monkeypatch, n):
    """Make the process look allowed on ``n`` CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class FoldError(Exception):
    pass


@dataclass(frozen=True)
class ScriptedEstimator:
    """Area-only OLS whose folds go on threads; ``before_fit(fold)`` runs
    before each fit of a crossval with ``seed`` SEED."""

    before_fit: object
    THREADED_FOLDS = True
    SEED = 3

    def fit(self, dataset, train_ids, val_ids=None, seed=0):
        fold = next(f for f in range(10) if derive_seed(self.SEED, "fold", f) == seed)
        self.before_fit(fold)
        return experiments.LinearEstimator(FeatureSpec.AREA_ONLY).fit(dataset, train_ids)


class TestThreadedFolds:
    @pytest.fixture(scope="class")
    def raster_dataset(self):
        config = SynthConfig(
            groups=(GroupSpec("light", (1.3, 1.5), (1.6, 0.12), 9, aspect_range=(1.2, 1.6)),
                    GroupSpec("dense", (2.4, 2.8), (1.6, 0.12), 9, aspect_range=(1.2, 1.6))),
            seed=8,
            raster_dims=(16, 16),
        )
        return generate(config)[0]

    @staticmethod
    def neural_estimator(arch):
        metadata = (MetadataInput.FRAME_AREA, MetadataInput.SINKING_SPEED)
        model = ModelConfig(architecture=arch, encoder_channels=(2,), head=HeadKind.ONE_LAYER,
                            input_size=16,
                            metadata_inputs=metadata if arch is Architecture.METADATA_AWARE else ())
        return experiments.NeuralEstimator(model, TrainConfig(epochs=2, batch_size=16))

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_threads_give_the_serial_results(self, raster_dataset, monkeypatch, arch):
        estimator = self.neural_estimator(arch)
        fit_threads = set()
        real_train = experiments.train

        def train(*args, **kwargs):
            fit_threads.add(threading.get_ident())
            return real_train(*args, **kwargs)

        monkeypatch.setattr(experiments, "train", train)
        results = []
        interval = sys.getswitchinterval()
        # one CPU, two, and two with the interpreter lock handed over as often as it can be
        for cpus, switch in ((1, interval), (2, interval), (2, 1e-6)):
            allow_cpus(monkeypatch, cpus)
            fit_threads.clear()
            threads = threading.active_count()
            sys.setswitchinterval(switch)
            try:
                result = experiments.crossval(raster_dataset, estimator, k=3, seed=5)
            finally:
                sys.setswitchinterval(interval)
            assert threading.active_count() == threads
            assert len(fit_threads) == cpus
            assert len(result.fold_val_histories) == 3
            results.append(repr(result))
        assert results[0] == results[1] == results[2]

    def test_the_first_failing_fold_raises_not_the_first_failure(
        self, metadata_dataset, monkeypatch
    ):
        allow_cpus(monkeypatch, 2)
        started = []
        fold3_failed = threading.Event()

        def before_fit(fold):
            started.append(fold)
            if fold == 1:
                assert fold3_failed.wait(timeout=30)
                raise FoldError(1)
            if fold == 3:
                fold3_failed.set()
                raise FoldError(3)

        predicted = []
        real_predict = experiments.predict

        def predict(model, dataset, ids):
            predicted.append(threading.get_ident())
            return real_predict(model, dataset, ids)

        monkeypatch.setattr(experiments, "predict", predict)
        threads = threading.active_count()
        with pytest.raises(FoldError) as raised:
            experiments.crossval(metadata_dataset, ScriptedEstimator(before_fit), k=5,
                                 seed=ScriptedEstimator.SEED)
        assert raised.value.args == (1,)
        assert sorted(started) == [0, 1, 2, 3]  # no fold starts after fold 3 failed
        assert predicted == [threading.get_ident()]  # fold 0's, as in a serial loop
        assert threading.active_count() == threads

    def test_a_predict_error_beats_a_later_fit_error(self, metadata_dataset, monkeypatch):
        allow_cpus(monkeypatch, 2)

        def before_fit(fold):
            if fold == 1:
                raise FoldError("fit")

        def predict(model, dataset, ids):
            raise FoldError("predict")

        monkeypatch.setattr(experiments, "predict", predict)
        with pytest.raises(FoldError, match="^predict$"):
            experiments.crossval(metadata_dataset, ScriptedEstimator(before_fit), k=2,
                                 seed=ScriptedEstimator.SEED)

    def test_linear_folds_start_no_thread(self, metadata_dataset, monkeypatch):
        allow_cpus(monkeypatch, 2)

        def start(thread):
            raise AssertionError("linear crossval started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        estimator = experiments.LinearEstimator(FeatureSpec.AREA_PLUS_SPEED)
        assert experiments.crossval(metadata_dataset, estimator, seed=4).pooled_report.n == 120

    @pytest.mark.parametrize("neural", [False, True])
    def test_a_frameless_specimen_raises_the_serial_error(self, raster_dataset, monkeypatch,
                                                          neural):
        first = raster_dataset.specimens[0]
        specimens = (replace(first, frames=frame_table([])), *raster_dataset.specimens[1:])
        rasters = {**raster_dataset.rasters, first.specimen_id: np.empty((0, 16, 16), np.uint8)}
        estimator = (self.neural_estimator(Architecture.SINGLE_VIEW) if neural
                     else experiments.LinearEstimator(FeatureSpec.AREA_ONLY))
        for cpus in (1, 2):
            allow_cpus(monkeypatch, cpus)
            # a fresh dataset each time, so that no features are cached yet
            dataset = replace(raster_dataset, specimens=specimens, rasters=rasters)
            threads = threading.active_count()
            with pytest.raises(ValueError, match="^mean_area needs at least one frame$"):
                experiments.crossval(dataset, estimator, k=3, seed=5)
            assert threading.active_count() == threads

    def test_threaded_inference_does_not_nest_in_threaded_folds(
        self, raster_dataset, monkeypatch
    ):
        allow_cpus(monkeypatch, 2)
        workers = []
        real_thread_count = training.thread_count

        def thread_count(n):
            workers.append(real_thread_count(n))
            return workers[-1]

        monkeypatch.setattr(training, "thread_count", thread_count)
        active = []
        real_forward = NeuralNet.forward_cached

        def forward_cached(self, batch):
            active.append(threading.active_count())
            return real_forward(self, batch)

        monkeypatch.setattr(NeuralNet, "forward_cached", forward_cached)
        threads = threading.active_count()
        experiments.crossval(raster_dataset, self.neural_estimator(Architecture.SINGLE_VIEW), k=3)
        assert workers == [2, 2, 2]  # each test fold's predictions ran on two threads
        assert max(active) == threads + 1


@st.composite
def protocol_cases(draw):
    """(dataset, k, seed, frameless ids): 1-3 taxa of 2-8 frame-CSV specimens,
    a few of them unweighed or down to one frame (so without a sinking
    speed), and up to two of them frameless."""
    counts = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
    config = SynthConfig(
        groups=tuple(GroupSpec(f"t{i}", (1.2 + i, 1.4 + i), (2.1, 0.25), n)
                     for i, n in enumerate(counts)),
        seed=draw(st.integers(0, 2**16)),
    )
    dataset, _ = generate(config)
    n = len(dataset.specimens)
    changes = draw(st.dictionaries(st.integers(0, n - 1),
                                   st.sampled_from(["unweighed", "one_frame", "frameless"]),
                                   max_size=3))
    specimens = list(dataset.specimens)
    for i, change in changes.items():
        s = specimens[i]
        specimens[i] = (replace(s, dry_mass_ug=None) if change == "unweighed"
                        else replace(s, frames=s.frames[: 1 if change == "one_frame" else 0]))
    frameless = {specimens[i].specimen_id for i, c in changes.items() if c == "frameless"}
    k = draw(st.integers(2, min(counts)))
    return replace(dataset, specimens=tuple(specimens)), k, draw(st.integers(0, 2**16)), frameless


@dataclass(frozen=True)
class StubNeuralModel:
    seed: int
    val_loss_history: tuple[float, ...] = (1.0, 0.5)


def stub_masses(model, dataset, ids):
    """Each id's mean area times a factor of its fold's seed, so a pooled
    mass shows which fold's model made it."""
    features = dataset.features
    return {sid: features[sid].mean_area_px * (1 + model.seed % 97) for sid in ids}


PROTOCOL_ESTIMATORS = {
    "area": experiments.LinearEstimator(FeatureSpec.AREA_ONLY),
    "area_speed": experiments.LinearEstimator(FeatureSpec.AREA_PLUS_SPEED),
    "neural": experiments.NeuralEstimator(ModelConfig(input_size=16), TrainConfig(epochs=1)),
}


@settings(max_examples=100, deadline=None)
@given(protocol_cases(), st.sampled_from(sorted(PROTOCOL_ESTIMATORS)))
def test_crossval_fits_apart_from_each_test_fold_and_pools_each_specimen_once(case, name):
    """With a spy on the ids each fit receives, at one CPU and at two: no fit
    sees its fold's test ids, the pooled predictions hold each scorable
    specimen once, and results (or the error raised) are the same at both.
    The neural fits are stubbed, and a stub model reads the features as a
    CNN's metadata does."""
    dataset, k, seed, frameless = case
    estimator = PROTOCOL_ESTIMATORS[name]
    runs = []
    for cpus in (1, 2):
        fits = []

        def spy(*args, _fit=experiments.LinearEstimator.fit):
            fits.append((args[4], set(args[2]), set(args[3])))  # seed, train, val
            return _fit(*args)

        def train(dataset, train_ids, val_ids, model_config, train_config):
            fits.append((train_config.seed, set(train_ids), set(val_ids)))
            return StubNeuralModel(train_config.seed)

        with pytest.MonkeyPatch.context() as m:
            allow_cpus(m, cpus)
            m.setattr(experiments.LinearEstimator, "fit", spy)
            m.setattr(experiments, "train", train)
            m.setattr(experiments, "predict_specimen_masses", stub_masses)
            try:
                result = experiments.crossval(replace(dataset), estimator, k=k, seed=seed)
            except Exception as exc:
                result = exc
        runs.append((result, fits))
    (result, fits), (threaded, threaded_fits) = runs
    assert repr(threaded) == repr(result)
    if frameless:
        assert isinstance(result, ValueError)
        assert str(result) == "mean_area needs at least one frame"
    if isinstance(result, Exception):
        return  # a serial loop and two threads may have started different fits
    fold_of = {derive_seed(seed, "fold", f): f for f in range(k)}
    assert sorted(fits, key=repr) == sorted(threaded_fits, key=repr)
    assert sorted(fold_of[fit_seed] for fit_seed, _, _ in fits) == list(range(k))
    for fit_seed, train_ids, val_ids in fits:
        assert not (train_ids | val_ids) & set(result.plan.folds[fold_of[fit_seed]].test)
    features = dataset.features
    scorable = {
        s.specimen_id for s in dataset.specimens
        if s.dry_mass_ug is not None
        and not (name == "area_speed" and features[s.specimen_id].sinking_speed is None)
    }
    assert Counter(e.specimen_id for e in result.pooled_predictions.entries) == dict.fromkeys(
        scorable, 1)


@settings(max_examples=60, deadline=None)
@given(protocol_cases(), st.sampled_from(sorted(PROTOCOL_ESTIMATORS)), st.data())
def test_ood_fits_on_the_other_taxa_and_predicts_only_the_holdout(case, name, data):
    """With a spy on the ids each fit receives, at one CPU and at two: the one
    fit sees no holdout-taxon id, the predictions hold every scorable holdout
    specimen once and nothing else, and results (or the error raised) are
    the same at both. The neural fits are stubbed, as in the crossval test."""
    dataset, _, seed, frameless = case
    holdout = data.draw(st.sampled_from(sorted(dataset.taxon_set)))
    estimator = PROTOCOL_ESTIMATORS[name]
    runs = []
    for cpus in (1, 2):
        fits = []

        def spy(self, dataset, train_ids, val_ids=None, seed=0,
                _fit=experiments.LinearEstimator.fit):
            fits.append(set(train_ids) | set(val_ids or ()))
            return _fit(self, dataset, train_ids, val_ids, seed)

        def train(dataset, train_ids, val_ids, model_config, train_config):
            fits.append(set(train_ids) | set(val_ids))
            return StubNeuralModel(train_config.seed)

        with pytest.MonkeyPatch.context() as m:
            allow_cpus(m, cpus)
            m.setattr(experiments.LinearEstimator, "fit", spy)
            m.setattr(experiments, "train", train)
            m.setattr(experiments, "predict_specimen_masses", stub_masses)
            try:
                result = experiments.ood(replace(dataset), holdout, estimator, seed=seed)
            except Exception as exc:
                result = exc
        runs.append((result, fits))
    (result, fits), (threaded, threaded_fits) = runs
    assert repr(threaded) == repr(result)
    held = {s.specimen_id for s in dataset.specimens if s.taxon == holdout}
    assert fits == threaded_fits
    assert len(fits) == 1 and not fits[0] & held
    assert fits[0] <= {s.specimen_id for s in dataset.specimens} - held
    if frameless:
        assert isinstance(result, ValueError)
        assert str(result) == "mean_area needs at least one frame"
    if isinstance(result, Exception):
        assert frameless or isinstance(result, SinkmassError), repr(result)
        return
    report, predictions = result
    features = dataset.features
    scorable = {
        sid for sid in held
        if dataset.specimen(sid).dry_mass_ug is not None
        and not (name == "area_speed" and features[sid].sinking_speed is None)
    }
    assert {e.specimen_id for e in predictions.entries} == scorable
    assert all(e.taxon == holdout for e in predictions.entries)
    assert report.n == len(predictions)


@settings(max_examples=100, deadline=None)
@given(protocol_cases(), st.data())
def test_pipeline_groups_partition_the_weighed_specimens(case, data):
    """Drawn classifier outputs (any drawn taxon, including one no weighed
    specimen belongs to) and masses, with the classifier's taxa given or
    left to the default: the groups partition the predictions by predicted
    taxon, their sizes sum to the weighed specimens, and accuracy is the
    share of matches."""
    dataset = case[0]
    weighed = [s for s in dataset.specimens if s.dry_mass_ug is not None]
    names = sorted(dataset.taxon_set | {"t9"})
    predicted = {s.specimen_id: data.draw(st.sampled_from(names)) for s in weighed}
    masses = {s.specimen_id: data.draw(st.floats(1e-3, 1e4)) for s in weighed}
    taxa = data.draw(st.sampled_from([None, tuple(names)]))
    if not weighed:
        with pytest.raises(EmptyPredictions):
            experiments.run_pipeline(dataset, predicted, masses, taxa=taxa)
        return
    report = experiments.run_pipeline(dataset, predicted, masses, taxa=taxa)
    entries = report.predictions.entries
    assert [e.specimen_id for e in entries] == [s.specimen_id for s in weighed]
    assert all(e.predicted_taxon == predicted[e.specimen_id] for e in entries)
    assert len({g.taxon for g in report.groups}) == len(report.groups)
    assert set(predicted.values()) <= {g.taxon for g in report.groups}
    for group in report.groups:
        members = [e for e in entries if e.predicted_taxon == group.taxon]
        assert group.n == len(members)
        assert group.n_misclassified == sum(e.taxon != group.taxon for e in members)
    assert sum(g.n for g in report.groups) == len(weighed)
    matches = sum(e.taxon == e.predicted_taxon for e in entries)
    assert report.accuracy == matches / len(weighed)
