import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkmass.errors import EmptySplit, IncompatibleArchitecture, InvalidConfig, NonFiniteLoss
from sinkmass.linear import TargetSpace, trimmed_median
from sinkmass.neural import training
from sinkmass.neural.losses import LossKind, LossSpace, cross_entropy, regression_loss, softmax
from sinkmass.neural.model import (
    Architecture,
    Batch,
    HeadKind,
    MetadataInput,
    ModelConfig,
    NeuralNet,
    init_params,
)
from sinkmass.neural.training import (
    FORWARD_BATCH,
    AugmentPolicy,
    FreezeMode,
    TrainConfig,
    TrainedModel,
    build_samples,
    fine_tune,
    load_checkpoint,
    predict_specimen_masses,
    predict_taxa,
    save_checkpoint,
    train,
)
from sinkmass.rng import substream
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
        record = dataset.specimen(next(iter(samples.sample_slices)))
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


def untrained_model(dataset, config, seed, taxa=None):
    """A randomly initialized model with metadata statistics of the dataset."""
    mean = std = None
    if config.metadata_inputs:
        ids = [s.specimen_id for s in dataset.specimens]
        metadata = build_samples(dataset, ids, config).metadata
        mean, std = metadata.mean(axis=0), metadata.std(axis=0)
    params = init_params(config, np.random.default_rng(seed))
    return TrainedModel(config, params, 0, [1.0], mean, std, taxa)


def one_specimen_outputs(model, dataset, sid):
    """Reference: the network over one specimen's samples in a single batch."""
    samples = build_samples(dataset, [sid], model.config, require_mass=False)
    metadata = None
    if samples.metadata is not None:
        metadata = (samples.metadata - model.metadata_mean) / model.metadata_std
    images2 = None if samples.images2 is None else samples.images2 / 255.0
    return model.net().forward(Batch(samples.images / 255.0, images2, metadata))


class TestBatchedInference:
    @settings(max_examples=30, deadline=None)
    @given(
        arch=st.sampled_from(list(Architecture)),
        head=st.sampled_from(list(HeadKind)),
        seed=st.integers(0, 2**16),
        picks=st.lists(st.integers(0, 23), min_size=1, max_size=24, unique=True),
    )
    def test_one_call_matches_single_specimen_calls(
        self, raster_dataset, arch, head, seed, picks
    ):
        dataset = raster_dataset[0]
        ids = [dataset.specimens[i].specimen_id for i in picks]
        taxa = tuple(sorted(dataset.taxon_set))
        regressor = untrained_model(dataset, small_model(arch, head=head), seed)
        classifier = untrained_model(
            dataset, small_model(arch, head=head, n_classes=len(taxa)), seed, taxa
        )
        masses = predict_specimen_masses(regressor, dataset, ids)
        predicted = predict_taxa(classifier, dataset, ids)
        assert set(masses) == set(predicted) == set(ids)
        for sid in ids:
            (alone,) = predict_specimen_masses(regressor, dataset, [sid]).values()
            reference = trimmed_median(list(np.exp(one_specimen_outputs(regressor, dataset, sid))))
            assert masses[sid] == pytest.approx(alone, rel=1e-12, abs=0)
            assert masses[sid] == pytest.approx(reference, rel=1e-12, abs=0)
            probs = softmax(one_specimen_outputs(classifier, dataset, sid)).mean(axis=0)
            assert predict_taxa(classifier, dataset, [sid]) == {sid: predicted[sid]}
            assert predicted[sid] == taxa[int(np.argmax(probs))]

    @pytest.mark.parametrize("ids", [[], ["no_such_specimen"]])
    def test_ids_without_samples_give_empty_results(self, raster_dataset, ids):
        dataset = raster_dataset[0]
        taxa = tuple(sorted(dataset.taxon_set))
        regressor = untrained_model(dataset, small_model(), 0)
        classifier = untrained_model(dataset, small_model(n_classes=len(taxa)), 0, taxa)
        assert predict_specimen_masses(regressor, dataset, ids) == {}
        assert predict_taxa(classifier, dataset, ids) == {}


def random_step(arch, head, loss_kind, n, seed):
    """A randomly initialized 8x8 net, one batch of ``n`` samples, its targets
    and the loss ``(out, targets) -> (value, dvalue/dout)``; loss_kind None
    makes a three-class classifier with cross-entropy."""
    rng = np.random.default_rng(seed)
    overrides = {"input_size": 8, "head": head, "head_hidden": 5}
    if loss_kind is None:
        overrides["n_classes"] = 3
    config = small_model(arch, **overrides)
    net = NeuralNet(config, init_params(config, rng))
    batch = Batch(
        images=rng.random((n, 1, 8, 8)),
        images2=rng.random((n, 1, 8, 8)) if arch is Architecture.MULTI_VIEW else None,
        metadata=rng.normal(size=(n, 3)) if arch is Architecture.METADATA_AWARE else None,
    )
    if loss_kind is None:
        return net, batch, rng.integers(0, 3, size=n), cross_entropy
    kind, space = loss_kind
    return (net, batch, rng.uniform(2.0, 50.0, size=n),
            lambda out, y: regression_loss(kind, space, y, out))


class TestSlicedTrainingStep:
    LOSSES = [None] + [(kind, space) for kind in LossKind for space in LossSpace]

    @settings(max_examples=60, deadline=None)
    @given(
        arch=st.sampled_from(list(Architecture)),
        head=st.sampled_from(list(HeadKind)),
        loss_kind=st.sampled_from(LOSSES),
        n=st.sampled_from([1, 2, 31, 32, 33, 64, 77, 128]) | st.integers(1, 130),
        freeze=st.sampled_from(list(FreezeMode)),
        seed=st.integers(0, 2**16),
    )
    def test_matches_one_full_batch_pass(self, arch, head, loss_kind, n, freeze, seed):
        net, batch, targets, loss = random_step(arch, head, loss_kind, n, seed)
        frozen = freeze.prefixes
        out, cache = net.forward_cached(batch)
        value, dout = loss(out, targets)
        grads = net.backward(cache, dout, frozen)

        sliced_value, sliced_grads = training._step_gradients(net, batch, targets, loss, frozen)

        assert sliced_grads.keys() == grads.keys() == net.params.keys()
        if n <= FORWARD_BATCH:
            assert sliced_value == value
            for name, g in grads.items():
                assert np.array_equal(sliced_grads[name], g), name
            return
        assert sliced_value == pytest.approx(value, rel=1e-12, abs=0)
        for name, g in grads.items():
            scale = np.abs(g).max()
            assert np.abs(sliced_grads[name] - g).max() <= 1e-12 * scale, name
            if any(name.startswith(prefix) for prefix in frozen):
                assert not sliced_grads[name].any(), name

    def test_stops_at_the_first_non_finite_slice(self, monkeypatch):
        net, batch, masses, loss = random_step(
            Architecture.SINGLE_VIEW, HeadKind.ONE_LAYER, (LossKind.APE, LossSpace.LOG), 77, 3
        )
        masses[40] = 1.0  # log(1) = 0 divides the percentage error by zero
        backward_sizes = []
        real_backward = NeuralNet.backward

        def spy(self, cache, dout, *args):
            backward_sizes.append(len(dout))
            return real_backward(self, cache, dout, *args)

        monkeypatch.setattr(NeuralNet, "backward", spy)
        with np.errstate(divide="ignore"):
            value, _ = training._step_gradients(net, batch, masses, loss, ())
        assert value == np.inf
        assert backward_sizes == [FORWARD_BATCH]

    def test_non_finite_loss_raised_at_its_step_before_the_update(self, monkeypatch):
        n, batch_size, seed = 160, 77, 5
        net, batch, masses, _ = random_step(Architecture.SINGLE_VIEW, HeadKind.ONE_LAYER,
                                            (LossKind.APE, LossSpace.LOG), n, seed)
        order = substream(seed, "shuffle", 0).permutation(n)
        bad_step = 1
        bad = order[bad_step * batch_size + 50]
        masses[bad] = 1.0
        samples = training.SampleSet(batch.images * 255.0, None, None, masses, None,
                                     {"s": list(range(n))})
        updates = []
        monkeypatch.setattr(training, "adamw_step", lambda *a, **k: updates.append(a[3]))
        tc = small_train_config(loss=LossKind.APE, batch_size=batch_size, seed=seed)
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteLoss, match=f"at step {bad_step}$"):
            training._run_training(net.config, tc, net.params, samples, samples, None, None, None)
        assert len(updates) == bad_step

    @pytest.mark.parametrize("arch", list(Architecture))
    @pytest.mark.parametrize("batch_size", [31, 77, 128])
    def test_no_forward_pass_sees_more_than_forward_batch(
        self, raster_dataset, monkeypatch, arch, batch_size
    ):
        dataset, train_ids, val_ids, _ = raster_dataset
        sizes = []
        real_forward = NeuralNet.forward_cached

        def spy(self, batch):
            sizes.append(len(batch))
            return real_forward(self, batch)

        monkeypatch.setattr(NeuralNet, "forward_cached", spy)
        config = small_model(arch)
        tc = small_train_config(epochs=2, batch_size=batch_size)
        train(dataset, train_ids, val_ids, config, tc)
        n_train = len(build_samples(dataset, train_ids, config))
        n_val = len(build_samples(dataset, val_ids, config))
        assert n_train > FORWARD_BATCH
        assert max(sizes) <= FORWARD_BATCH
        assert sum(sizes) == tc.epochs * (n_train + n_val)


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

    def test_regression_model_rejects_classify(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        model = train(dataset, train_ids, val_ids, small_model(), small_train_config())
        with pytest.raises(IncompatibleArchitecture):
            predict_taxa(model, dataset, train_ids)


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
