import numpy as np
import pytest

from sinkmass.errors import EmptySplit, IncompatibleArchitecture, InvalidConfig
from sinkmass.linear import TargetSpace
from sinkmass.neural.losses import LossKind, LossSpace
from sinkmass.neural.model import (
    Architecture,
    Batch,
    HeadKind,
    MetadataInput,
    ModelConfig,
)
from sinkmass.neural.training import (
    AugmentPolicy,
    FreezeMode,
    TrainConfig,
    build_samples,
    classify_proba,
    fine_tune,
    load_checkpoint,
    predict_specimen_masses,
    predict_taxa,
    save_checkpoint,
    train,
)
from sinkmass.synth import GroupSpec, SynthConfig, generate


@pytest.fixture(scope="module")
def raster_dataset():
    config = SynthConfig(
        groups=(
            GroupSpec("light", (1.3, 1.5), (1.6, 0.12), 12, aspect_range=(1.2, 1.6)),
            GroupSpec("dense", (2.4, 2.8), (1.6, 0.12), 12, aspect_range=(1.2, 1.6)),
        ),
        dt=8.0,
        n_max=6,
        area_noise_cv=0.05,
        seed=21,
        raster_dims=(16, 16),
    )
    dataset, _ = generate(config)
    ids = [s.specimen_id for s in dataset.specimens]
    train_ids = ids[:16]
    val_ids = ids[16:20]
    test_ids = ids[20:]
    return dataset, train_ids, val_ids, test_ids


def small_model(arch=Architecture.SINGLE_VIEW, **overrides):
    base = dict(
        architecture=arch,
        encoder_channels=(2, 4),
        head=HeadKind.ONE_LAYER,
        target_space=TargetSpace.LOG,
        input_size=16,
    )
    if arch is Architecture.METADATA_AWARE:
        base["metadata_inputs"] = (
            MetadataInput.FRAME_AREA,
            MetadataInput.MEAN_AREA,
            MetadataInput.SINKING_SPEED,
        )
    base.update(overrides)
    return ModelConfig(**base)


def small_train_config(**overrides):
    base = dict(
        loss=LossKind.L1,
        loss_space=LossSpace.LOG,
        epochs=3,
        batch_size=32,
        lr_max=1e-3,
        lr_min=1e-5,
        seed=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestBuildSamples:
    def test_one_sample_per_frame_for_single_view(self, raster_dataset):
        dataset, train_ids, *_ = raster_dataset
        samples = build_samples(dataset, train_ids, small_model())
        expected = sum(len(s.frames) for s in dataset.specimens if s.specimen_id in set(train_ids))
        assert len(samples) == expected

    def test_multi_view_pairs_by_position(self, raster_dataset):
        dataset, train_ids, *_ = raster_dataset
        samples = build_samples(dataset, train_ids, small_model(Architecture.MULTI_VIEW))
        expected = sum(
            min(len(s.frames_for("A")), len(s.frames_for("B")))
            for s in dataset.specimens
            if s.specimen_id in set(train_ids)
        )
        assert len(samples) == expected
        assert samples.images2 is not None

    def test_metadata_columns_follow_config_order(self, raster_dataset):
        dataset, train_ids, *_ = raster_dataset
        config = small_model(Architecture.METADATA_AWARE)
        samples = build_samples(dataset, train_ids, config)
        assert samples.metadata.shape[1] == 3
        record = dataset.specimen(samples.specimen_ids[0])
        assert samples.metadata[0, 0] == record.frames[0].area_px


class TestTrain:
    def test_zero_epochs_rejected(self):
        with pytest.raises(InvalidConfig):
            small_train_config(epochs=0)

    @pytest.mark.parametrize("cls", [ModelConfig, TrainConfig])
    def test_from_dict_fills_field_defaults(self, cls):
        assert cls.from_dict({}) == cls()

    def test_determinism_bit_for_bit(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        a = train(dataset, train_ids, val_ids, small_model(), small_train_config())
        b = train(dataset, train_ids, val_ids, small_model(), small_train_config())
        assert a.val_loss_history == b.val_loss_history
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_different_seed_changes_history(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        a = train(dataset, train_ids, val_ids, small_model(), small_train_config(seed=5))
        b = train(dataset, train_ids, val_ids, small_model(), small_train_config(seed=6))
        assert a.val_loss_history != b.val_loss_history

    def test_checkpoint_is_min_validation_loss(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        model = train(
            dataset, train_ids, val_ids, small_model(), small_train_config(epochs=5)
        )
        assert model.val_loss_history[model.best_epoch] == min(model.val_loss_history)

    def test_empty_split_rejected(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        with pytest.raises(EmptySplit):
            train(dataset, [], val_ids, small_model(), small_train_config())

    def test_loss_space_must_match_target_space(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        with pytest.raises(IncompatibleArchitecture):
            train(
                dataset,
                train_ids,
                val_ids,
                small_model(target_space=TargetSpace.RAW),
                small_train_config(loss_space=LossSpace.LOG),
            )

    def test_augmented_training_runs(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        model = train(
            dataset,
            train_ids,
            val_ids,
            small_model(),
            small_train_config(augmentation=AugmentPolicy.FLIPS90),
        )
        assert len(model.val_loss_history) == 3

    def test_metadata_standardization_stored(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        model = train(
            dataset,
            train_ids,
            val_ids,
            small_model(Architecture.METADATA_AWARE),
            small_train_config(),
        )
        assert model.metadata_mean.shape == (3,)
        assert np.all(model.metadata_std > 0)


class TestPredict:
    def test_log_space_predictions_positive(self, raster_dataset):
        dataset, train_ids, val_ids, test_ids = raster_dataset
        model = train(dataset, train_ids, val_ids, small_model(), small_train_config())
        masses = predict_specimen_masses(model, dataset, test_ids)
        assert set(masses) == set(test_ids)
        assert all(v > 0 for v in masses.values())

    def test_multi_view_predictions(self, raster_dataset):
        dataset, train_ids, val_ids, test_ids = raster_dataset
        model = train(
            dataset,
            train_ids,
            val_ids,
            small_model(Architecture.MULTI_VIEW),
            small_train_config(),
        )
        masses = predict_specimen_masses(model, dataset, test_ids)
        assert len(masses) == len(test_ids)


class TestFineTune:
    def test_frozen_encoder_bit_identical(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        base = train(dataset, train_ids, val_ids, small_model(), small_train_config())
        tuned = fine_tune(
            base,
            dataset,
            train_ids,
            val_ids,
            small_train_config(freeze=FreezeMode.ENCODER, seed=9),
        )
        for name in base.params:
            if name.startswith("enc."):
                assert np.array_equal(tuned.params[name], base.params[name])
            elif name.startswith("head."):
                assert not np.array_equal(tuned.params[name], base.params[name])

    def test_frozen_encoder_and_metadata_bit_identical(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        base = train(
            dataset,
            train_ids,
            val_ids,
            small_model(Architecture.METADATA_AWARE),
            small_train_config(),
        )
        tuned = fine_tune(
            base,
            dataset,
            train_ids,
            val_ids,
            small_train_config(freeze=FreezeMode.ENCODER_AND_METADATA, seed=9),
        )
        for name in base.params:
            if name.startswith(("enc.", "meta.")):
                assert np.array_equal(tuned.params[name], base.params[name])

    def test_unfrozen_fine_tune_moves_encoder(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        base = train(dataset, train_ids, val_ids, small_model(), small_train_config())
        tuned = fine_tune(dataset=dataset, base=base, train_ids=train_ids,
                          val_ids=val_ids, train_config=small_train_config(seed=9))
        assert any(
            not np.array_equal(tuned.params[n], base.params[n])
            for n in base.params
            if n.startswith("enc.")
        )

    def test_metadata_stats_inherited(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        base = train(
            dataset,
            train_ids,
            val_ids,
            small_model(Architecture.METADATA_AWARE),
            small_train_config(),
        )
        tuned = fine_tune(
            base, dataset, train_ids, val_ids,
            small_train_config(freeze=FreezeMode.ENCODER_AND_METADATA),
        )
        assert np.array_equal(tuned.metadata_mean, base.metadata_mean)


class TestClassifier:
    def test_classifier_trains_and_predicts_known_taxa(self, raster_dataset):
        dataset, train_ids, val_ids, test_ids = raster_dataset
        taxa = tuple(sorted(dataset.taxon_set))
        config = small_model(n_classes=len(taxa))
        model = train(
            dataset, train_ids, val_ids, config, small_train_config(), taxa=taxa
        )
        predicted = predict_taxa(model, dataset, test_ids)
        assert set(predicted) == set(test_ids)
        assert set(predicted.values()) <= set(taxa)

    def test_classify_proba_rows_sum_to_one(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        taxa = tuple(sorted(dataset.taxon_set))
        config = small_model(n_classes=len(taxa))
        model = train(
            dataset, train_ids, val_ids, config, small_train_config(), taxa=taxa
        )
        samples = build_samples(dataset, train_ids[:2], config, require_mass=False)
        probs = classify_proba(
            model,
            Batch(images=samples.images / 255.0),
        )
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    def test_regression_model_rejects_classify(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        model = train(dataset, train_ids, val_ids, small_model(), small_train_config())
        with pytest.raises(IncompatibleArchitecture):
            classify_proba(model, Batch(images=np.zeros((1, 1, 16, 16))))


class TestCheckpointIo:
    def test_round_trip(self, raster_dataset, tmp_path):
        dataset, train_ids, val_ids, test_ids = raster_dataset
        model = train(
            dataset,
            train_ids,
            val_ids,
            small_model(Architecture.METADATA_AWARE),
            small_train_config(),
        )
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.best_epoch == model.best_epoch
        assert loaded.val_loss_history == model.val_loss_history
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])
        before = predict_specimen_masses(model, dataset, test_ids)
        after = predict_specimen_masses(loaded, dataset, test_ids)
        assert before == after
