import numpy as np
import pytest

from sinkmass import experiments
from sinkmass.errors import InvalidConfig, UnknownTaxon
from sinkmass.linear import FeatureSpec, TargetSpace
from sinkmass.neural.model import HeadKind, ModelConfig
from sinkmass.neural.training import TrainConfig
from sinkmass.records import PredictionSet
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


class TestPipeline:
    def test_perfect_classifier_and_regressor_give_zero_ks(self, metadata_dataset):
        report = experiments.run_pipeline(
            metadata_dataset,
            classify_fn=lambda record: record.taxon,
            predict_fn=lambda record, taxon: record.dry_mass_ug,
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
            classify_fn=lambda r: r.taxon,
            predict_fn=lambda r, t: rotated.get(r.specimen_id, r.dry_mass_ug),
        )
        by_taxon = {g.taxon: g for g in report.groups}
        assert by_taxon["dense"].ks_d == 0.0

    def test_group_counts_sum_to_dataset_size(self, metadata_dataset):
        rng = np.random.default_rng(3)
        taxa = sorted(metadata_dataset.taxon_set)
        report = experiments.run_pipeline(
            metadata_dataset,
            classify_fn=lambda r: taxa[rng.integers(0, len(taxa))],
            predict_fn=lambda r, t: r.dry_mass_ug * 1.1,
        )
        assert sum(g.n for g in report.groups) == len(metadata_dataset.specimens)
        assert isinstance(report.predictions, PredictionSet)

    def test_misclassified_kept_in_predicted_group(self, metadata_dataset):
        first = metadata_dataset.specimens[0]
        other = next(t for t in sorted(metadata_dataset.taxon_set) if t != first.taxon)

        def classify(record):
            return other if record.specimen_id == first.specimen_id else record.taxon

        report = experiments.run_pipeline(
            metadata_dataset, classify, lambda r, t: r.dry_mass_ug
        )
        by_taxon = {g.taxon: g for g in report.groups}
        assert by_taxon[other].n_misclassified == 1
        assert by_taxon[first.taxon].n == sum(
            1 for s in metadata_dataset.specimens if s.taxon == first.taxon
        ) - 1


class TestTrimFractionCheckedUpFront:
    BAD = [-0.1, 0.5, 0.7, float("nan")]

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

    @pytest.mark.parametrize("trim", BAD)
    def test_crossval_rejects_before_training(self, raster_dataset, train_calls, trim):
        with pytest.raises(InvalidConfig, match="trim_fraction"):
            experiments.crossval(raster_dataset, self.neural_estimator(), k=2,
                                 trim_fraction=trim)
        assert train_calls == []

    @pytest.mark.parametrize("trim", BAD)
    def test_ood_rejects_before_training(self, raster_dataset, train_calls, trim):
        with pytest.raises(InvalidConfig, match="trim_fraction"):
            experiments.ood(raster_dataset, "dense", self.neural_estimator(),
                            trim_fraction=trim)
        assert train_calls == []

    @pytest.mark.parametrize("trim", BAD)
    def test_predict_rejects(self, metadata_dataset, trim):
        ids = [s.specimen_id for s in metadata_dataset.specimens]
        model = experiments.LinearEstimator(FeatureSpec.AREA_ONLY).fit(metadata_dataset, ids)
        with pytest.raises(InvalidConfig, match="trim_fraction"):
            experiments.predict(model, metadata_dataset, ids, trim_fraction=trim)

    def test_valid_trim_still_trains(self, raster_dataset, train_calls):
        experiments.crossval(raster_dataset, self.neural_estimator(), k=2, trim_fraction=0.0)
        assert len(train_calls) == 2
