import dataclasses
import json
import os
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkmass.config import config_from_dict
from sinkmass.errors import (
    EmptySplit,
    IncompatibleArchitecture,
    InputError,
    InvalidConfig,
    NonFiniteLoss,
    NonFinitePrediction,
)
from sinkmass import experiments
from sinkmass.linear import TargetSpace, median
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
from sinkmass.ingest import assemble_dataset, load_manifest, load_raster, raster_names
from sinkmass.records import MASS_FLOOR_UG, Dataset, SpecimenRecord, frame_table
from sinkmass.rng import substream
from sinkmass.synth import GroupSpec, SynthConfig, generate, write_synth_output

from conftest import make_frame


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
        assert samples.metadata[0, 0] == record.frames["area_px"][0]

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_no_samples_give_empty_uint8_images_of_the_input_size(self, raster_dataset, arch):
        samples = build_samples(raster_dataset[0], [], small_model(arch))
        assert len(samples) == 0
        images = samples.images[np.arange(len(samples))]
        assert images.shape == (0, 1, 16, 16)
        assert images.dtype == np.uint8


def frames_of(*cameras):
    """Frames in the given camera order, indices and areas counting up per
    camera so that every frame has its own area."""
    seen = {"A": 0, "B": 0}
    frames = []
    for camera in cameras:
        i = seen[camera]
        seen[camera] += 1
        area = 50.0 + 10 * i + (5 if camera == "B" else 0)
        frames.append(make_frame(camera, i, top=320 - 60 * i, area=area))
    return frame_table(frames)


@pytest.fixture(scope="module")
def mixed_dataset():
    """Hand-built 16x16 specimens with random pixels: equal and unequal
    camera counts, interleaved cameras, one camera only, no sinking speed,
    no mass, and one without rasters."""
    records = (
        SpecimenRecord("even", "a", 10.0, frames_of(*"AAABBB")),
        SpecimenRecord("uneven", "b", 20.0, frames_of(*"ABABAA")),
        SpecimenRecord("b_longer", "a", 30.0, frames_of(*"BBBBAA")),
        SpecimenRecord("one_camera", "b", 40.0, frames_of(*"AAA")),
        SpecimenRecord("no_speed", "a", 50.0, frames_of(*"AB")),
        SpecimenRecord("unweighed", "b", None, frames_of(*"AABB")),
        SpecimenRecord("no_rasters", "a", 60.0, frames_of(*"AABB")),
    )
    rng = np.random.default_rng(3)
    rasters = {
        r.specimen_id: rng.integers(0, 256, size=(len(r.frames), 16, 16), dtype=np.uint8)
        for r in records
        if r.specimen_id != "no_rasters"
    }
    return Dataset("mixed", records, raster_dims=(16, 16), rasters=rasters)


def expected_samples(dataset, ids, config, image_of, require_mass=True, taxa=None):
    """Per sample (specimen id, image, second image, metadata row, mass,
    label), built from each record's frames: a multi-view sample pairs the
    k-th frame of camera A with the k-th of camera B, and ``image_of(record,
    row)`` is the raster of the frame in that row of the record's table."""
    needs_speed = MetadataInput.SINKING_SPEED in config.metadata_inputs
    samples = []
    for record in dataset.specimens:
        feats = dataset.features[record.specimen_id]
        if record.specimen_id not in ids or (require_mass and record.dry_mass_ug is None):
            continue
        if needs_speed and feats.sinking_speed is None:
            continue
        cameras = record.frames["camera_id"].tolist()
        if config.architecture is Architecture.MULTI_VIEW:
            pairs = list(zip(*([i for i, c in enumerate(cameras) if c == cam] for cam in "AB")))
        else:
            pairs = [(row, None) for row in range(len(cameras))]
        for first, second in pairs:
            values = {
                MetadataInput.FRAME_AREA: record.frames["area_px"].tolist()[first],
                MetadataInput.MEAN_AREA: feats.mean_area_px,
                MetadataInput.SINKING_SPEED: feats.sinking_speed,
            }
            samples.append((
                record.specimen_id,
                image_of(record, first),
                None if second is None else image_of(record, second),
                [values[m] for m in config.metadata_inputs],
                record.dry_mass_ug or 0.0,
                0 if taxa is None else taxa.index(record.taxon),
            ))
    return samples


def assert_samples_match(samples, expected, config):
    assert len(samples) == len(expected)
    everything = np.arange(len(samples))
    images = samples.images[everything]
    images2 = None if samples.images2 is None else samples.images2[everything]
    slices = {}
    for i, (sid, image, image2, meta, mass, label) in enumerate(expected):
        slices.setdefault(sid, []).append(i)
        assert np.array_equal(images[i, 0], image), (i, sid)
        if image2 is None:
            assert samples.images2 is None
        else:
            assert np.array_equal(images2[i, 0], image2), (i, sid)
        if config.metadata_inputs:
            assert samples.metadata[i].tolist() == meta, (i, sid)
        assert samples.masses[i] == mass
        if samples.labels is not None:
            assert samples.labels[i] == label
    if not config.metadata_inputs:
        assert samples.metadata is None
    assert images.dtype == np.uint8
    assert samples.sample_slices == slices


def stack_row(dataset):
    return lambda record, row: dataset.rasters[record.specimen_id][row]


ALIGNMENT_MODELS = {
    "single_view": small_model(),
    "multi_view": small_model(Architecture.MULTI_VIEW),
    "metadata_aware": small_model(Architecture.METADATA_AWARE),
    "metadata_without_speed": small_model(
        Architecture.METADATA_AWARE,
        metadata_inputs=(MetadataInput.MEAN_AREA, MetadataInput.FRAME_AREA),
    ),
}


class TestMakeBatch:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("policy", list(AugmentPolicy))
    def test_uint8_samples_give_the_bits_of_their_float64_copy(
        self, raster_dataset, policy, dtype
    ):
        dataset = raster_dataset[0]
        ids = [s.specimen_id for s in dataset.specimens]
        samples = build_samples(dataset, ids, small_model(Architecture.MULTI_VIEW))
        everything = np.arange(len(samples))
        images, images2 = samples.images[everything], samples.images2[everything]
        assert images.dtype == images2.dtype == np.uint8
        as_float = dataclasses.replace(
            samples,
            images=images.astype(np.float64),
            images2=images2.astype(np.float64),
        )
        idx = substream(3, "make_batch").permutation(len(samples))[:40]
        got, want = (
            training._make_batch(s, idx, None, None, dtype, policy, np.random.default_rng(7))
            for s in (samples, as_float)
        )
        for view, reference in ((got.images, want.images), (got.images2, want.images2)):
            assert view.dtype == reference.dtype == dtype
            assert view.shape == (len(idx), 1, 16, 16)
            assert view.tobytes() == reference.tobytes()


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def gather(picks, side):
    """Oracle: the pixel copy ``build_samples`` once made, the ``rows`` of
    each (stack, rows) pick in turn, in one (N, 1, S, S) ``uint8`` array."""
    out = np.empty((sum(len(rows) for _, rows in picks), 1, side, side), np.uint8)
    at = 0
    for stack, rows in picks:
        np.take(stack, rows, axis=0, out=out[at : at + len(rows), 0])
        at += len(rows)
    return out


def oracle_images(dataset, samples, camera=None):
    """``gather`` over the specimens of ``samples`` in sample order: all of
    each one's frames, or its first frames of ``camera``, one per sample."""
    picks = []
    for sid, idx in samples.sample_slices.items():
        cameras = dataset.specimen(sid).frames["camera_id"]
        rows = np.arange(len(cameras)) if camera is None else np.flatnonzero(cameras == camera)
        picks.append((dataset.rasters[sid], rows[: len(idx)]))
    return gather(picks, 16)


class TestGather:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        arch=st.sampled_from(list(Architecture)),
        policy=st.sampled_from(list(AugmentPolicy)),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batches_hold_the_rows_of_the_pixel_copy(
        self, raster_dataset, data, arch, policy, dtype, seed
    ):
        """Shuffled, repeated and empty index arrays over any subset of the
        specimens gather the oracle's rows, and ``_make_batch`` gives the bits
        it gives on the oracle's arrays."""
        dataset = raster_dataset[0]
        ids = data.draw(st.lists(st.sampled_from([s.specimen_id for s in dataset.specimens]),
                                 unique=True))
        samples = build_samples(dataset, ids, small_model(arch))
        n = len(samples)
        idx = np.asarray(data.draw(st.one_of(
            st.permutations(range(n)),
            st.lists(st.integers(0, n - 1), max_size=70) if n else st.just([]),
        )), dtype=int)
        multi_view = arch is Architecture.MULTI_VIEW
        copy = dataclasses.replace(
            samples,
            images=oracle_images(dataset, samples, "A" if multi_view else None),
            images2=oracle_images(dataset, samples, "B") if multi_view and n else None,
        )
        assert (samples.images2 is None) is (copy.images2 is None)
        for stored, oracle in ((samples.images, copy.images), (samples.images2, copy.images2)):
            if stored is not None:
                assert len(stored) == n
                assert _bits(stored[idx]) == _bits(oracle[idx])
        mean = std = None
        if samples.metadata is not None:
            mean, std = training._standardization(samples.metadata)
        got, want = (
            training._make_batch(s, idx, mean, std, dtype, policy, np.random.default_rng(seed))
            for s in (samples, copy)
        )
        assert _bits(got.images) == _bits(want.images)
        assert got.images2 is want.images2 is None or _bits(got.images2) == _bits(want.images2)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_samples_allocate_under_a_tenth_of_the_raster_bytes(self, arch):
        """A sample set indexes the rasters in place; a copy of the pixels it
        reads would take at least half of them."""
        config = SynthConfig(
            groups=(GroupSpec("g", (1.3, 2.8), (1.6, 0.12), 12),),
            dt=8.0, n_max=8, seed=4, raster_dims=(64, 64),
        )
        dataset, _ = generate(config)
        raster_bytes = sum(stack.nbytes for stack in dataset.rasters.values())
        ids = [s.specimen_id for s in dataset.specimens]
        tracemalloc.start()
        try:
            samples = build_samples(dataset, ids, small_model(arch, input_size=64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(samples) * 64 * 64 >= raster_bytes / 2
        assert peak < raster_bytes / 10, (peak, raster_bytes)


class TestSampleAlignment:
    @pytest.mark.parametrize("require_mass", [True, False])
    @pytest.mark.parametrize("model", sorted(ALIGNMENT_MODELS))
    def test_each_sample_is_its_frames_rasters_and_metadata(
        self, mixed_dataset, model, require_mass
    ):
        config = ALIGNMENT_MODELS[model]
        ids = [s.specimen_id for s in mixed_dataset.specimens if s.specimen_id != "no_rasters"]
        taxa = ("a", "b")
        samples = build_samples(mixed_dataset, ids, config, require_mass=require_mass, taxa=taxa)
        expected = expected_samples(
            mixed_dataset, ids, config, stack_row(mixed_dataset), require_mass, taxa
        )
        assert_samples_match(samples, expected, config)
        # the cases the dataset exists for all show up in the expectation
        sids = {sample[0] for sample in expected}
        assert ("unweighed" in sids) is not require_mass
        assert ("no_speed" in sids) is (model != "metadata_aware")
        assert ("one_camera" in sids) is (model != "multi_view")

    @pytest.mark.parametrize("model", sorted(ALIGNMENT_MODELS))
    def test_specimen_without_rasters_names_itself(self, mixed_dataset, model):
        with pytest.raises(InputError, match="no_rasters: neural models need rasters"):
            build_samples(mixed_dataset, ["even", "no_rasters"], ALIGNMENT_MODELS[model])

    @pytest.mark.parametrize("model", sorted(ALIGNMENT_MODELS))
    def test_stack_of_another_length_than_the_frames_raises(self, mixed_dataset, model):
        rasters = dict(mixed_dataset.rasters, even=mixed_dataset.rasters["even"][:-1])
        dataset = Dataset("short", mixed_dataset.specimens, (16, 16), rasters)
        with pytest.raises(InputError, match="even: 5 rasters for 6 frames"):
            build_samples(dataset, ["even"], ALIGNMENT_MODELS[model])

    @pytest.mark.parametrize("model", sorted(ALIGNMENT_MODELS))
    def test_mixed_manifest_samples_come_from_the_pgm_files(self, tmp_path, model):
        config = SynthConfig(
            groups=(GroupSpec("g", (1.3, 2.8), (1.6, 0.12), 4),),
            dt=8.0, n_max=4, seed=9, raster_dims=(16, 16),
        )
        manifest = write_synth_output(*generate(config), tmp_path)
        entries = json.loads(manifest.read_text())
        entries[1]["raster_dir"] = None
        manifest.write_text(json.dumps(entries))
        dataset = assemble_dataset(load_manifest(manifest))
        bare = entries[1]["specimen_id"]
        assert set(dataset.rasters) == {e["specimen_id"] for e in entries} - {bare}

        def from_file(record, row):
            path = tmp_path / "rasters" / record.specimen_id / raster_names(record.frames)[row]
            return load_raster(path.read_bytes())

        ids = [e["specimen_id"] for e in entries if e["specimen_id"] != bare]
        cfg = ALIGNMENT_MODELS[model]
        expected = expected_samples(dataset, ids, cfg, from_file)
        assert expected
        assert_samples_match(build_samples(dataset, ids, cfg), expected, cfg)
        with pytest.raises(InputError, match=f"{bare}: neural models need rasters"):
            build_samples(dataset, [bare], cfg)


class TestTrain:
    def test_zero_epochs_rejected(self):
        with pytest.raises(InvalidConfig):
            small_train_config(epochs=0)

    @pytest.mark.parametrize("cls", [ModelConfig, TrainConfig])
    def test_from_dict_fills_field_defaults(self, cls):
        assert config_from_dict(cls, {}) == cls()

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_determinism_bit_for_bit(self, raster_dataset, arch):
        dataset, train_ids, val_ids, _ = raster_dataset
        a = train(dataset, train_ids, val_ids, small_model(arch), small_train_config())
        b = train(dataset, train_ids, val_ids, small_model(arch), small_train_config())
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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_output_raises(self, raster_dataset, monkeypatch, value):
        dataset = raster_dataset[0]
        taxa = tuple(sorted(dataset.taxon_set))
        regressor = untrained_model(dataset, small_model(), seed=0)
        classifier = untrained_model(dataset, small_model(n_classes=len(taxa)), 0, taxa)
        outputs = {"s": np.array([[1.0, 2.0], [value, 0.0], [3.0, 1.0]])}
        monkeypatch.setattr(training, "_specimen_outputs", lambda *args: outputs)
        with pytest.raises(NonFinitePrediction, match="^s: class logits are not finite$"):
            predict_taxa(classifier, dataset, ["s"])
        outputs["s"] = np.full(3, value)
        if value == -np.inf:  # exp(-inf) is 0, which the mass floor lifts
            assert predict_specimen_masses(regressor, dataset, ["s"]) == {"s": MASS_FLOOR_UG}
        else:
            with pytest.raises(NonFinitePrediction, match=f"^s: predicted mass is {value}$"):
                predict_specimen_masses(regressor, dataset, ["s"])

    def test_underflowing_log_outputs_floored(self, raster_dataset, monkeypatch):
        dataset = raster_dataset[0]
        model = untrained_model(dataset, small_model(), seed=0)
        outputs = {"s": np.array([-800.0, -800.0, 1.0])}
        monkeypatch.setattr(training, "_specimen_outputs", lambda *args: outputs)
        assert predict_specimen_masses(model, dataset, ["s"]) == {"s": MASS_FLOOR_UG}


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
    """Reference: the network over one specimen's samples in a single batch
    of the net's dtype, as float64."""
    net = model.net()
    samples = build_samples(dataset, [sid], model.config, require_mass=False)
    metadata = None
    if samples.metadata is not None:
        metadata = ((samples.metadata - model.metadata_mean) / model.metadata_std).astype(net.dtype)
    everything = np.arange(len(samples))
    images, images2 = (None if a is None else a[everything].astype(net.dtype) / 255.0
                       for a in (samples.images, samples.images2))
    return net.forward(Batch(images, images2, metadata)).astype(np.float64)


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
            outputs = one_specimen_outputs(regressor, dataset, sid)
            reference = median(np.maximum(np.exp(outputs), MASS_FLOOR_UG))
            assert masses[sid] == alone
            assert masses[sid] == reference
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


def counted_dataset(n, multi_view):
    """Random 16x16 rasters of specimens with up to 5 samples each and n in
    all; a multi-view specimen's cameras alternate A, B."""
    sizes = [5] * (n // 5) + ([n % 5] if n % 5 else [])
    cameras = "AB" if multi_view else "A"
    records = tuple(SpecimenRecord(f"s{i}", "ab"[i % 2], 10.0 + i, frames_of(*cameras * k))
                    for i, k in enumerate(sizes))
    rng = np.random.default_rng(n)
    rasters = {r.specimen_id: rng.integers(0, 256, size=(len(r.frames), 16, 16), dtype=np.uint8)
               for r in records}
    return Dataset("counted", records, raster_dims=(16, 16), rasters=rasters)


class TaskError(Exception):
    pass


class TestRunInOrder:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_results_come_back_in_task_order(self, threads):
        def task(i):
            if i % 10 == 0:  # uneven lengths, so tasks end out of order
                time.sleep(0.002 * (i // 10 % 4))
            return i * i

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
        try:
            results = training.run_in_order((partial(task, i) for i in range(200)), threads)
        finally:
            sys.setswitchinterval(interval)
        assert results == [i * i for i in range(200)]
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_no_task_starts_once_one_has_raised(self, threads):
        started, lock = [], threading.Lock()

        def task(i):
            with lock:
                started.append(i)
            if i > 4:
                time.sleep(0.05)  # a task in flight outlasts task 4's raise
            if i >= 4:
                raise TaskError(i)
            time.sleep(0.002)
            return i

        before = threading.active_count()
        results = training.run_in_order((partial(task, i) for i in range(12)), threads)
        assert threading.active_count() == before
        assert sorted(started) == list(range(len(results)))  # a prefix of every started task
        assert len(results) <= 4 + threads  # task 4, and one in flight per other thread
        assert results[:4] == [0, 1, 2, 3]
        assert [r.args for r in results[4:]] == [(i,) for i in range(4, len(results))]

    def test_a_raise_on_the_calling_thread_leaves_no_worker_behind(self):
        caller_raised = threading.Event()

        def task(i):
            if threading.current_thread() is threading.main_thread():
                caller_raised.set()
                raise TaskError(i)
            assert caller_raised.wait(timeout=30)
            return i

        before = threading.active_count()
        results = training.run_in_order((partial(task, i) for i in range(6)), 2)
        assert threading.active_count() == before
        assert [type(r) for r in results].count(TaskError) == 1


class TestInferenceWorkers:
    MODELS = {
        "single_view": small_model(),
        "multi_view": small_model(Architecture.MULTI_VIEW),
        "metadata_aware": small_model(
            Architecture.METADATA_AWARE,
            metadata_inputs=(MetadataInput.FRAME_AREA, MetadataInput.MEAN_AREA),
        ),
    }

    @pytest.mark.parametrize("arch", list(MODELS))
    @pytest.mark.parametrize("n", [1, 5, 15, 16, 17, 33])
    def test_worker_counts_give_the_same_bits(self, monkeypatch, arch, n):
        config = self.MODELS[arch]
        dataset = counted_dataset(n, config.architecture is Architecture.MULTI_VIEW)
        ids = [s.specimen_id for s in dataset.specimens]
        assert len(build_samples(dataset, ids, config, require_mass=False)) == n
        taxa = ("a", "b")
        regressor = untrained_model(dataset, config, 4)
        classifier = untrained_model(dataset, dataclasses.replace(config, n_classes=2), 4, taxa)
        for model in (regressor, classifier):
            if model.metadata_std is not None:  # one sample has a zero spread
                model.metadata_std = np.where(model.metadata_std > 0, model.metadata_std, 1.0)
        calls = []
        real_forward = NeuralNet.forward_cached

        def spy(self, batch):
            calls.append((threading.get_ident(), len(batch)))
            return real_forward(self, batch)

        monkeypatch.setattr(NeuralNet, "forward_cached", spy)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
        try:
            for workers in (1, 2, 4):  # four is more workers than the host has CPUs
                monkeypatch.setattr(training, "thread_count", lambda n, k=workers: min(k, n))
                calls.clear()
                threads = threading.active_count()
                outputs = training._specimen_outputs(regressor, dataset, ids)
                # one thread may take every slice before another starts
                assert 1 <= len({ident for ident, _ in calls}) <= min(workers, n)
                results[workers] = (
                    {sid: out.tobytes() for sid, out in outputs.items()},
                    predict_specimen_masses(regressor, dataset, ids),
                    predict_taxa(classifier, dataset, ids),
                )
                assert threading.active_count() == threads
                assert max(size for _, size in calls) <= FORWARD_BATCH // min(workers, n)
        finally:
            sys.setswitchinterval(interval)
        assert results[1] == results[2] == results[4]
        assert set(results[1][1]) == set(ids)

    @pytest.mark.parametrize("arch", list(MODELS))
    def test_a_two_thread_pass_runs_on_two_threads(self, monkeypatch, arch):
        config = self.MODELS[arch]
        dataset = counted_dataset(17, config.architecture is Architecture.MULTI_VIEW)
        ids = [s.specimen_id for s in dataset.specimens]
        model = untrained_model(dataset, config, 4)
        if model.metadata_std is not None:
            model.metadata_std = np.where(model.metadata_std > 0, model.metadata_std, 1.0)
        monkeypatch.setattr(training, "thread_count", lambda n: 1)
        serial = training._specimen_outputs(model, dataset, ids)
        entered, lock = {}, threading.Lock()
        both_in = threading.Event()
        real_forward = NeuralNet.forward_cached

        def spy(self, batch):
            with lock:
                first = threading.get_ident() not in entered
                entered[threading.get_ident()] = True
                if len(entered) == 2:
                    both_in.set()
            if first:  # hold each thread's first pass until another thread is in a pass
                assert both_in.wait(timeout=30)
            return real_forward(self, batch)

        monkeypatch.setattr(NeuralNet, "forward_cached", spy)
        monkeypatch.setattr(training, "thread_count", lambda n: 2)
        threads = threading.active_count()
        outputs = training._specimen_outputs(model, dataset, ids)
        assert len(entered) == 2
        assert threading.active_count() == threads
        assert {sid: out.tobytes() for sid, out in outputs.items()} == {
            sid: out.tobytes() for sid, out in serial.items()}

    def test_an_error_in_the_second_worker_reaches_the_caller(self, monkeypatch):
        class WorkerError(Exception):
            pass

        dataset = counted_dataset(17, multi_view=False)
        ids = [s.specimen_id for s in dataset.specimens]
        model = untrained_model(dataset, small_model(), 0)
        real_forward = NeuralNet.forward_cached
        worker_in = threading.Event()

        def forward(self, batch):
            if threading.current_thread() is not threading.main_thread():
                worker_in.set()
                raise WorkerError("second worker failed")
            assert worker_in.wait(timeout=30)  # so the calling thread cannot take both slices
            return real_forward(self, batch)

        monkeypatch.setattr(NeuralNet, "forward_cached", forward)
        monkeypatch.setattr(training, "thread_count", lambda n, k=2: min(k, n))
        threads = threading.active_count()
        with pytest.raises(WorkerError, match="^second worker failed$"):
            predict_specimen_masses(model, dataset, ids)
        assert threading.active_count() == threads

    def test_thread_count_takes_at_most_two_cpus_and_tasks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert [training.thread_count(n) for n in (1, 2, 5)] == [1, 2, 2]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert training.thread_count(5) == 1


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
        frozen = freeze.branches
        out, cache = net.forward_cached(batch)
        value, dout = loss(out, targets)
        grads = net.backward(cache, dout, frozen)

        sliced_value, sliced_grads = training._step_gradients(net, batch, targets, loss, frozen)

        trainable = {name for name in net.params if name.split(".")[0] not in frozen}
        assert sliced_grads.keys() == grads.keys() == trainable
        if n <= FORWARD_BATCH:
            assert sliced_value == value
            for name, g in grads.items():
                assert np.array_equal(sliced_grads[name], g), name
            return
        assert sliced_value == pytest.approx(value, rel=1e-12, abs=0)
        for name, g in grads.items():
            scale = np.abs(g).max()
            assert np.abs(sliced_grads[name] - g).max() <= 1e-12 * scale, name

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
        monkeypatch.setattr(training, "build_samples", lambda *a, **k: samples)
        tc = small_train_config(loss=LossKind.APE, batch_size=batch_size, seed=seed)
        base = TrainedModel(net.config, net.params, 0, [])
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteLoss, match=f"at step {bad_step}$"):
            training.train(None, [], [], net.config, tc, base=base)
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


class TestMixedPrecision:
    """Training and inference compute in float32; master weights, AdamW
    moments, and returned, saved and loaded models stay float64."""

    @pytest.mark.parametrize("arch", list(Architecture))
    @pytest.mark.parametrize("classify", [False, True])
    def test_every_training_array_is_float32(self, raster_dataset, monkeypatch, arch, classify):
        dataset, train_ids, val_ids, _ = raster_dataset
        taxa = tuple(sorted(dataset.taxon_set)) if classify else None
        config = small_model(arch, n_classes=len(taxa) if classify else None)
        dtypes = set()
        real_forward, real_backward = NeuralNet.forward_cached, NeuralNet.backward

        def forward_spy(self, batch):
            arrays = (batch.images, batch.images2, batch.metadata)
            dtypes.update(("batch", a.dtype) for a in arrays if a is not None)
            dtypes.update(("param", w.dtype) for w in self.params.values())
            out, cache = real_forward(self, batch)
            dtypes.add(("out", out.dtype))
            return out, cache

        def backward_spy(self, cache, dout, *args):
            dtypes.add(("dout", dout.dtype))
            grads = real_backward(self, cache, dout, *args)
            dtypes.update(("grad", g.dtype) for g in grads.values())
            return grads

        monkeypatch.setattr(NeuralNet, "forward_cached", forward_spy)
        monkeypatch.setattr(NeuralNet, "backward", backward_spy)
        train(dataset, train_ids, val_ids, config, small_train_config(epochs=1), taxa=taxa)
        kinds = {"batch", "param", "out", "dout", "grad"}
        assert dtypes == {(kind, np.dtype(np.float32)) for kind in kinds}

    def test_master_weights_and_moments_stay_float64(self, raster_dataset, monkeypatch, tmp_path):
        dataset, train_ids, val_ids, _ = raster_dataset
        states = []
        real_step = training.adamw_step

        def step_spy(params, grads, state, *args, **kwargs):
            states.append((params, state))
            return real_step(params, grads, state, *args, **kwargs)

        monkeypatch.setattr(training, "adamw_step", step_spy)
        model = train(dataset, train_ids, val_ids, small_model(Architecture.METADATA_AWARE),
                      small_train_config())
        master, state = states[-1]
        assert {w.dtype for w in master.values()} == {np.dtype(np.float64)}
        assert state.m.keys() == state.v.keys() == master.keys()
        moments = [*state.m.values(), *state.v.values()]
        assert {a.dtype for a in moments} == {np.dtype(np.float64)}
        assert {w.dtype for w in model.params.values()} == {np.dtype(np.float64)}
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert {w.dtype for w in loaded.params.values()} == {np.dtype(np.float64)}

    def test_validation_sees_the_updated_master_weights(self, raster_dataset, monkeypatch):
        dataset, train_ids, val_ids, _ = raster_dataset
        masters, checked = [], []
        real_step, real_outputs = training.adamw_step, training._outputs

        def step_spy(params, *args, **kwargs):
            masters.append(params)
            return real_step(params, *args, **kwargs)

        def outputs_spy(net, *args):
            for name, w in masters[-1].items():
                assert np.array_equal(net.params[name], w.astype(np.float32)), name
            checked.append(net)
            return real_outputs(net, *args)

        monkeypatch.setattr(training, "adamw_step", step_spy)
        monkeypatch.setattr(training, "_outputs", outputs_spy)
        train(dataset, train_ids, val_ids, small_model(), small_train_config())
        assert len(checked) == 3

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_inference_computes_in_float32(self, raster_dataset, monkeypatch, tmp_path, arch):
        dataset, train_ids, val_ids, test_ids = raster_dataset
        taxa = tuple(sorted(dataset.taxon_set))
        tc = small_train_config(epochs=1)
        regressor = train(dataset, train_ids, val_ids, small_model(arch), tc)
        classifier = train(dataset, train_ids, val_ids,
                           small_model(arch, n_classes=len(taxa)), tc, taxa=taxa)
        dtypes, models, predicting = set(), [], []
        real_forward = NeuralNet.forward_cached

        def forward_spy(self, batch):
            if predicting:
                arrays = (batch.images, batch.images2, batch.metadata)
                dtypes.update(("batch", a.dtype) for a in arrays if a is not None)
                dtypes.update(("param", w.dtype) for w in self.params.values())
            return real_forward(self, batch)

        def inference(predict):
            def spy(model, *args):
                models.append(model)
                predicting.append(predict)
                try:
                    return predict(model, *args)
                finally:
                    predicting.pop()
            return spy

        monkeypatch.setattr(NeuralNet, "forward_cached", forward_spy)
        monkeypatch.setattr(experiments, "predict_specimen_masses",
                            inference(predict_specimen_masses))
        inference(predict_specimen_masses)(regressor, dataset, test_ids)
        inference(predict_taxa)(classifier, dataset, test_ids)
        experiments.crossval(dataset, experiments.NeuralEstimator(small_model(arch), tc), k=3)
        assert len(models) == 2 + 3  # three test folds
        assert dtypes == {("batch", np.dtype(np.float32)), ("param", np.dtype(np.float32))}
        path = tmp_path / "ckpt.json"
        save_checkpoint(regressor, path)
        for model in (*models, load_checkpoint(path)):
            assert {w.dtype for w in model.params.values()} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_forward_on_float64_params_is_float64(self, arch):
        net, batch, _, _ = random_step(arch, HeadKind.TWO_LAYER, (LossKind.L1, LossSpace.LOG), 5, 3)
        assert net.dtype == np.float64
        assert net.forward(batch).dtype == np.float64


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

    def test_dataset_without_rasters_rejected(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        base = TrainedModel(small_model(), init_params(small_model(), substream(0, "init")), 0, [])
        frames_only = Dataset(dataset.name, dataset.specimens, dataset.raster_dims)
        assert frames_only.rasters == {}
        with pytest.raises(IncompatibleArchitecture, match="needs a dataset with rasters"):
            fine_tune(base, frames_only, train_ids, val_ids, small_train_config())

    def test_multi_view_base_needs_two_camera_data(self, raster_dataset):
        dataset, train_ids, val_ids, _ = raster_dataset
        config = small_model(Architecture.MULTI_VIEW)
        base = TrainedModel(config, init_params(config, substream(0, "init")), 0, [])
        tuned = fine_tune(base, dataset, train_ids, val_ids, small_train_config(seed=9))
        assert tuned.config == config
        camera_a = tuple(
            SpecimenRecord(s.specimen_id, s.taxon, s.dry_mass_ug, s.frames_for("A"))
            for s in dataset.specimens
        )
        one_camera = Dataset(dataset.name, camera_a, dataset.raster_dims, dataset.rasters)
        with pytest.raises(IncompatibleArchitecture, match="multi-view base needs two-camera"):
            fine_tune(base, one_camera, train_ids, val_ids, small_train_config())

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

    @pytest.mark.parametrize("payload", [b"{", b"\xff\xfe"], ids=["not_json", "not_utf8"])
    def test_unreadable_file_raises_input_error(self, tmp_path, payload):
        path = tmp_path / "ckpt.json"
        path.write_bytes(payload)
        with pytest.raises(InputError, match="cannot read checkpoint"):
            load_checkpoint(path)
