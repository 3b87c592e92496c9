"""Training loop, fine-tuning, prediction, and checkpoint persistence.

Samples are per-image; per-specimen estimates aggregate per-image
predictions with the same median used by the linear models. The
checkpoint returned is the epoch with the lowest validation loss. All
randomness (init, shuffling, augmentation) flows from named substreams of
the master seed, so training is reproducible bit for bit on one thread.

Training is mixed precision: every forward and backward pass, including the
per-epoch validation loss, computes in float32 on a float32 copy of the
float64 master weights, and AdamW updates the master weights and keeps its
moments in float64. Returned and loaded models hold float64 parameters, and
checkpoints store them; inference computes in float32 on a float32 copy of
them (``TrainedModel.net``) and turns the network outputs into float64 once,
so ``exp`` and ``softmax`` keep float64's range. Every forward layer treats
each sample on its own, so a specimen's prediction does not depend on which
other specimens share its batches.

Samples hold no pixels: a ``SampleSet`` records which row of which of the
dataset's raster stacks each sample reads, and each batch gathers its own
images, so the pixels in memory beyond the dataset's grow with the batch,
not with the number of samples.

Threads come from one runner, ``run_in_order``, sized by ``thread_count``.
Mass and taxon predictions cut their samples into ``thread_count(n)``
contiguous slices, each on its own forward-only net in batches of FORWARD_BATCH;
validation inside ``train`` stays on the calling thread. ``train`` is
single-threaded and writes no shared state, so ``experiments.crossval`` may run
folds' ``train`` calls at once; it predicts once they are done, so threads never nest.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from ..config import config_from_dict, config_to_dict, read_json, write_files
from ..errors import (
    EmptySplit,
    IncompatibleArchitecture,
    InputError,
    InvalidConfig,
    NonFiniteLoss,
    NonFinitePrediction,
    ShapeMismatch,
)
from ..linear import TargetSpace, finite_masses, median, target_to_mass
from ..records import CAMERAS, Dataset, SpecimenRecord
from ..rng import substream
from .augment import AugmentPolicy, augment_array
from .losses import LossKind, LossSpace, cross_entropy, regression_loss, softmax
from .model import Architecture, Batch, MetadataInput, ModelConfig, NeuralNet, init_params
from .optim import AdamWState, adamw_step, cosine_lr

CHECKPOINT_FORMAT_VERSION = 1
# Samples per forward pass, in training and on every inference thread alike. A
# pass over 32 samples keeps its activations, im2col buffers and pool masks near
# one core's L2 cache; 64- and 128-sample passes moved more memory for the same work.
FORWARD_BATCH = 32


class FreezeMode(str, Enum):
    NONE = "none"
    ENCODER = "encoder"
    ENCODER_AND_METADATA = "encoder_metadata"

    @property
    def branches(self) -> tuple[str, ...]:
        """The frozen branches, named as in ``ModelConfig.branches``."""
        if self is FreezeMode.ENCODER:
            return ("enc", "enc2")
        if self is FreezeMode.ENCODER_AND_METADATA:
            return ("enc", "enc2", "meta")
        return ()


@dataclass(frozen=True)
class TrainConfig:
    loss: LossKind = LossKind.L1
    loss_space: LossSpace = LossSpace.LOG
    epochs: int = 50
    batch_size: int = 128
    lr_max: float = 3e-3
    lr_min: float = 1e-5
    seed: int = 0
    augmentation: AugmentPolicy = AugmentPolicy.NONE
    freeze: FreezeMode = FreezeMode.NONE
    weight_decay: float = 1e-4

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr_min > self.lr_max:
            raise InvalidConfig(f"lr_min {self.lr_min} exceeds lr_max {self.lr_max}")


@dataclass
class TrainedModel:
    config: ModelConfig
    params: dict[str, np.ndarray]
    best_epoch: int
    val_loss_history: list[float]
    metadata_mean: np.ndarray | None = None
    metadata_std: np.ndarray | None = None
    taxa: tuple[str, ...] | None = None

    def net(self) -> NeuralNet:
        """The forward-only network on float32 copies of the parameters."""
        return NeuralNet(self.config, _float32(self.params), forward_only=True)


@dataclass(frozen=True)
class StackRows:
    """Images read in place from specimen raster stacks: sample i is row
    ``rows[i]`` of ``stacks[stack_of[i]]``. Indexing with an array of n
    sample indices gathers their images into one new (n, 1, S, S) ``uint8``
    array."""

    stacks: list[np.ndarray]  # (frames, S, S) uint8 each, shared with Dataset.rasters
    stack_of: np.ndarray  # (N,) index into ``stacks`` of each sample
    rows: np.ndarray  # (N,) row of each sample in its stack
    side: int

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, idx) -> np.ndarray:
        stack_of, rows = self.stack_of[idx].tolist(), self.rows[idx].tolist()
        out = np.empty((len(rows), 1, self.side, self.side), np.uint8)
        # one row copy per sample: at 32x32, 3-7x faster than one np.take per
        # run of samples from the same stack, shuffled or in order
        for image, s, r in zip(out[:, 0], stack_of, rows):
            image[...] = self.stacks[s][r]
        return out


@dataclass
class SampleSet:
    """Flattened per-image samples for a set of specimens.

    Images stay in the dataset's ``uint8`` raster stacks; ``images[idx]``
    gathers a batch's rows, so a set holds no pixels of its own and
    ``_make_batch`` scales each batch to the net's dtype.
    """

    images: StackRows  # images[idx] is (len(idx), 1, S, S) uint8
    images2: StackRows | None  # the same for the second camera (multi-view)
    metadata: np.ndarray | None  # raw (unstandardized) values
    masses: np.ndarray  # (N,) true masses (zeros for inference-only)
    labels: np.ndarray | None  # (N,) class indices for classification
    sample_slices: dict[str, list[int]]  # contiguous sample indices per specimen

    def __len__(self) -> int:
        return len(self.images)


def _specimen_images(dataset: Dataset, record: SpecimenRecord) -> np.ndarray:
    stack = dataset.rasters.get(record.specimen_id)
    if stack is None:
        raise InputError(f"{record.specimen_id}: neural models need rasters")
    n = len(record.frames)
    if len(stack) != n:
        raise InputError(f"{record.specimen_id}: {len(stack)} rasters for {n} frames")
    return stack


def build_samples(
    dataset: Dataset,
    specimen_ids,
    config: ModelConfig,
    require_mass: bool = True,
    taxa: tuple[str, ...] | None = None,
) -> SampleSet:
    """Expand specimens into per-image (or per-pair) training samples.

    A single-view or metadata-aware sample is one frame; a multi-view sample
    pairs the k-th camera-A frame with the k-th camera-B frame, up to the
    shorter camera. Specimens that cannot serve the architecture (no second
    camera for multi-view, missing sinking speed for a speed-consuming
    metadata model) are skipped rather than failing the whole set.
    """
    side = config.input_size
    if dataset.raster_dims is not None and tuple(dataset.raster_dims) != (side, side):
        raise ShapeMismatch(
            f"model input_size {side} does not match the dataset's "
            f"raster_dims {tuple(dataset.raster_dims)}"
        )
    id_set = set(specimen_ids)
    wanted = [s for s in dataset.specimens if s.specimen_id in id_set]
    needs_speed = MetadataInput.SINKING_SPEED in config.metadata_inputs
    multi_view = config.architecture is Architecture.MULTI_VIEW

    stacks: list[np.ndarray] = []  # the raster stack of each specimen taken
    picks: list[np.ndarray] = []  # the rows each specimen's samples take from its stack
    picks2: list[np.ndarray] = []  # the same for the second camera
    metadata: list[np.ndarray] = []  # each specimen's (samples, metadata inputs) block
    masses: list[float] = []
    labels: list[int] = []
    slices: dict[str, list[int]] = {}

    for record in wanted:
        if require_mass and record.dry_mass_ug is None:
            continue
        feats = dataset.features[record.specimen_id]
        if needs_speed and feats.sinking_speed is None:
            continue
        stack = _specimen_images(dataset, record)
        frames = record.frames
        if multi_view:
            rows, rows2 = (np.flatnonzero(frames["camera_id"] == c) for c in CAMERAS)
            count = min(len(rows), len(rows2))
            if count == 0:
                continue
            rows = rows[:count]
            picks2.append(rows2[:count])
        else:
            rows = np.arange(len(frames))
        stacks.append(stack)
        picks.append(rows)
        if config.metadata_inputs:
            values = {
                MetadataInput.FRAME_AREA: frames["area_px"][rows],
                MetadataInput.MEAN_AREA: feats.mean_area_px,
                MetadataInput.SINKING_SPEED: feats.sinking_speed,
            }
            metadata.append(np.stack(
                [np.broadcast_to(values[m], rows.shape) for m in config.metadata_inputs], axis=1))
        start = len(masses)
        masses += [record.dry_mass_ug or 0.0] * len(rows)
        labels += [taxa.index(record.taxon) if taxa is not None else 0] * len(rows)
        slices.setdefault(record.specimen_id, []).extend(range(start, len(masses)))

    stack_of = np.repeat(np.arange(len(picks)), [len(rows) for rows in picks])

    def stack_rows(picks) -> StackRows:
        rows = np.concatenate(picks) if picks else np.empty(0, dtype=int)
        return StackRows(stacks, stack_of, rows, side)

    return SampleSet(
        images=stack_rows(picks),
        images2=stack_rows(picks2) if picks2 else None,
        metadata=np.concatenate(metadata, dtype=float) if masses and metadata else None,
        masses=np.asarray(masses, dtype=float),
        labels=np.asarray(labels, dtype=int) if taxa is not None else None,
        sample_slices=slices,
    )


def _standardization(metadata: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = metadata.mean(axis=0)
    std = metadata.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def _make_batch(
    samples: SampleSet,
    idx: np.ndarray,
    mean: np.ndarray | None,
    std: np.ndarray | None,
    dtype: np.dtype,
    policy: AugmentPolicy = AugmentPolicy.NONE,
    rng: np.random.Generator | None = None,
) -> Batch:
    """The ``idx`` samples as a ``dtype`` batch: augmented images scaled to
    [0, 1] and standardized metadata. The images are gathered and augmented
    as stored (``uint8``; the rotation and photometric policies give float64) and
    cast to ``dtype`` once, before the division by 255."""
    images = samples.images[idx]
    images2 = samples.images2[idx] if samples.images2 is not None else None
    if policy is not AugmentPolicy.NONE:
        images = augment_array(images[:, 0], policy, rng)[:, None]
        if images2 is not None:
            images2 = augment_array(images2[:, 0], policy, rng)[:, None]
    metadata = None
    if samples.metadata is not None:
        metadata = ((samples.metadata[idx] - mean) / std).astype(dtype, copy=False)
    return Batch(
        images=images.astype(dtype, copy=False) / 255.0,
        images2=images2.astype(dtype, copy=False) / 255.0 if images2 is not None else None,
        metadata=metadata,
    )


def _outputs(net: NeuralNet, samples: SampleSet, mean, std, start: int = 0,
             stop: int | None = None) -> np.ndarray:
    """Network outputs for the samples from ``start`` to ``stop`` (default:
    all), in sample order, computed over batches of FORWARD_BATCH samples in
    the net's dtype; the range must not be empty."""
    stop = len(samples) if stop is None else stop
    return np.concatenate([
        net.forward(_make_batch(samples, np.arange(i, min(i + FORWARD_BATCH, stop)), mean, std,
                                net.dtype))
        for i in range(start, stop, FORWARD_BATCH)
    ])


def _batch_rows(batch: Batch, rows: slice) -> Batch:
    return Batch(
        images=batch.images[rows],
        images2=None if batch.images2 is None else batch.images2[rows],
        metadata=None if batch.metadata is None else batch.metadata[rows],
    )


def _step_gradients(net: NeuralNet, batch: Batch, targets: np.ndarray, loss, frozen):
    """(loss, gradients of the parameters outside the ``frozen`` branches) of
    one optimizer batch, from back-to-back forward and backward passes over
    slices of at most FORWARD_BATCH samples.

    Every loss is a mean of per-sample terms and no layer mixes samples, so
    scaling each slice's loss gradient by its share of the batch and summing
    the slices' parameter gradients gives the full-batch gradient; only the
    summation order differs. Returns at the first slice with a non-finite
    loss, which makes the batch loss non-finite too.
    """
    n = len(batch)
    value = 0.0
    grads: dict[str, np.ndarray] = {}
    for start in range(0, n, FORWARD_BATCH):
        rows = slice(start, min(start + FORWARD_BATCH, n))
        share = (rows.stop - start) / n
        out, cache = net.forward_cached(_batch_rows(batch, rows))
        slice_value, dout = loss(out, targets[rows])
        value += share * slice_value
        if not math.isfinite(value):
            return value, grads
        slice_grads = net.backward(cache, dout * share, frozen)
        del cache  # free this slice's activations before the next forward
        if grads:
            for name, g in slice_grads.items():
                grads[name] += g
        else:
            grads = slice_grads
    return value, grads


def _float32(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: w.astype(np.float32) for name, w in params.items()}


def train(
    dataset: Dataset,
    train_ids,
    val_ids,
    config: ModelConfig,
    train_config: TrainConfig,
    taxa: tuple[str, ...] | None = None,
    base: TrainedModel | None = None,
) -> TrainedModel:
    """Train ``config`` on ``train_ids``, returning the min-validation-loss
    checkpoint.

    Classification models (config.n_classes set) need ``taxa`` and train
    with softmax cross-entropy; regression models use the configured loss.
    Training starts from freshly initialized parameters, or from a copy of
    ``base.params`` when a ``base`` model is given; then the metadata
    standardization statistics are ``base``'s too, so that frozen metadata
    encoders keep seeing inputs on the scale they were trained with.
    """
    tc = train_config
    classify = config.n_classes is not None
    if classify and (taxa is None or len(taxa) != config.n_classes):
        raise InvalidConfig("classification needs a taxa list matching n_classes")
    train_samples = build_samples(dataset, train_ids, config, taxa=taxa)
    val_samples = build_samples(dataset, val_ids, config, taxa=taxa)
    if len(train_samples) == 0 or len(val_samples) == 0:
        raise EmptySplit("train and validation splits must both yield samples")
    # targets of the train and validation samples, and the batch loss
    # loss(out, targets) -> (mean loss, its gradient w.r.t. out)
    if classify:
        targets, val_targets, loss = train_samples.labels, val_samples.labels, cross_entropy
    else:
        if (config.target_space is TargetSpace.LOG) != (tc.loss_space is LossSpace.LOG):
            raise IncompatibleArchitecture(
                f"loss space {tc.loss_space.value} does not match "
                f"model target space {config.target_space.value}"
            )
        targets, val_targets = train_samples.masses, val_samples.masses

        def loss(out, masses):
            return regression_loss(tc.loss, tc.loss_space, masses, out)

    mean = std = None
    if train_samples.metadata is not None:
        if base is not None:
            mean, std = base.metadata_mean, base.metadata_std
        else:
            mean, std = _standardization(train_samples.metadata)
    if base is None:
        params = init_params(config, substream(tc.seed, "init"))
    else:
        params = {k: v.copy() for k, v in base.params.items()}
    net = NeuralNet(config, _float32(params))
    state = AdamWState()
    n = len(train_samples)
    total_steps = tc.epochs * math.ceil(n / tc.batch_size)
    history: list[float] = []
    best_loss = math.inf
    best_epoch = -1
    best_params = {k: v.copy() for k, v in params.items()}
    step = 0
    for epoch in range(tc.epochs):
        order = substream(tc.seed, "shuffle", epoch).permutation(n)
        aug_rng = substream(tc.seed, "augment", epoch)
        for start in range(0, n, tc.batch_size):
            idx = order[start : start + tc.batch_size]
            batch = _make_batch(samples=train_samples, idx=idx, mean=mean, std=std,
                                dtype=net.dtype, policy=tc.augmentation, rng=aug_rng)
            value, grads = _step_gradients(net, batch, targets[idx], loss, tc.freeze.branches)
            if not math.isfinite(value):
                raise NonFiniteLoss(f"training loss became {value} at step {step}")
            lr = cosine_lr(step, total_steps, tc.lr_max, tc.lr_min)
            adamw_step(params, grads, state, lr, weight_decay=tc.weight_decay)
            net.params = _float32(params)
            step += 1
        val_loss = loss(_outputs(net, val_samples, mean, std), val_targets)[0]
        history.append(val_loss)
        if val_loss < best_loss:
            best_loss = val_loss
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
    return TrainedModel(
        config=config,
        params=best_params,
        best_epoch=best_epoch,
        val_loss_history=history,
        metadata_mean=mean,
        metadata_std=std,
        taxa=taxa,
    )


def fine_tune(
    base: TrainedModel,
    dataset: Dataset,
    train_ids,
    val_ids,
    train_config: TrainConfig,
) -> TrainedModel:
    """Continue training from ``base`` with the configured freeze mode: ``train``
    from ``base``, after checking that the data can serve its architecture.
    Frozen branches get no gradients, so AdamW leaves them as they were."""
    if not isinstance(base, TrainedModel):
        raise IncompatibleArchitecture("fine-tuning needs a neural checkpoint as its base")
    if not dataset.rasters:
        raise IncompatibleArchitecture("fine-tuning needs a dataset with rasters")
    if base.config.architecture is Architecture.MULTI_VIEW:
        if not any(
            len(s.frames_for("A")) and len(s.frames_for("B")) for s in dataset.specimens
        ):
            raise IncompatibleArchitecture("multi-view base needs two-camera data")
    return train(dataset, train_ids, val_ids, base.config, train_config, taxa=base.taxa, base=base)


def thread_count(n: int) -> int:
    """Threads for ``n`` tasks: at most two, at most the CPUs this process may
    run on, at most ``n``, and at least one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(2, cpus or 1, n))


def run_in_order(tasks, threads: int) -> list:
    """Each started task's result, or the exception it raised, in task order.
    The calling thread and ``threads - 1`` workers take tasks in order from one
    iterator and start none once a task has raised, so the list is a prefix of
    the tasks that ends after every failure; the workers have ended on return."""
    results, pending, lock, failed = {}, enumerate(tasks), threading.Lock(), threading.Event()

    def work() -> None:
        while not failed.is_set():
            with lock:
                i, task = next(pending, (None, None))
            if task is None:
                return
            try:
                results[i] = task()
            except Exception as exc:
                results[i] = exc
                failed.set()

    workers = [threading.Thread(target=work, name="sinkmass-worker") for _ in range(1, threads)]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        failed.set()  # after an interrupt here, the workers start no further task
        for worker in workers:
            worker.join()
    return [results[i] for i in range(len(results))]


def _specimen_outputs(model: TrainedModel, dataset: Dataset, specimen_ids):
    """{specimen_id: float64 network outputs over its samples} for every
    specimen the model can score, from one batched pass over all their
    samples, cut into ``thread_count`` contiguous slices; the first slice
    that raised raises here."""
    samples = build_samples(dataset, specimen_ids, model.config, require_mass=False)
    if not samples.sample_slices:
        return {}
    n = len(samples)
    threads = thread_count(n)
    bounds = [i * n // threads for i in range(threads + 1)]
    parts = run_in_order((  # each slice on its own net, whose conv scratch is its own
        partial(_outputs, model.net(), samples, model.metadata_mean,
                model.metadata_std, bounds[i], bounds[i + 1])
        for i in range(threads)
    ), threads)
    if errors := [part for part in parts if isinstance(part, Exception)]:
        raise errors[0]
    out = np.concatenate(parts).astype(np.float64)
    return {sid: out[idx[0] : idx[-1] + 1] for sid, idx in samples.sample_slices.items()}


def predict_specimen_masses(
    model: TrainedModel, dataset: Dataset, specimen_ids
) -> dict[str, float]:
    """Median of each specimen's per-image predictions.

    Specimens the model cannot score (e.g. missing speed) are omitted from
    the result. A classifier checkpoint raises IncompatibleArchitecture, and
    a mass that is not finite raises NonFinitePrediction.
    """
    if model.config.n_classes is not None:
        raise IncompatibleArchitecture("mass prediction needs a regression checkpoint")
    outputs = _specimen_outputs(model, dataset, specimen_ids)
    return finite_masses(lambda: {
        sid: median(target_to_mass(out, model.config.target_space))
        for sid, out in outputs.items()
    })


def predict_taxa(model: TrainedModel, dataset: Dataset, specimen_ids) -> dict[str, str]:
    """Per-specimen taxon: argmax of the mean per-image class probabilities;
    a logit that is not finite raises NonFinitePrediction."""
    if getattr(model, "taxa", None) is None:
        raise IncompatibleArchitecture("classifier checkpoint carries no taxa list")
    results: dict[str, str] = {}
    for sid, logits in _specimen_outputs(model, dataset, specimen_ids).items():
        if not np.isfinite(logits).all():
            raise NonFinitePrediction(f"{sid}: class logits are not finite")
        mean_probs = softmax(logits).mean(axis=0)
        results[sid] = model.taxa[int(np.argmax(mean_probs))]
    return results


def save_checkpoint(model: TrainedModel, path: Path | str) -> None:
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": config_to_dict(model.config),
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in sorted(model.params.items())
        },
        "best_epoch": model.best_epoch,
        "val_loss_history": model.val_loss_history,
        "metadata_mean": None if model.metadata_mean is None else model.metadata_mean.tolist(),
        "metadata_std": None if model.metadata_std is None else model.metadata_std.tolist(),
        "taxa": None if model.taxa is None else list(model.taxa),
    }
    write_files([(path, json.dumps(payload, sort_keys=True) + "\n")])


def load_checkpoint(path: Path | str) -> TrainedModel:
    """The model ``save_checkpoint`` wrote; a file of another format version,
    with missing or mistyped fields, or with parameters, metadata stats or
    taxa that do not fit its config, raises an InputError."""
    return decode_checkpoint(read_json(path, "checkpoint"), path)


def decode_checkpoint(payload, path: Path | str) -> TrainedModel:
    """``load_checkpoint`` on the JSON value already read from ``path``."""
    if not isinstance(payload, dict):
        raise InputError(f"checkpoint {path} does not hold a JSON object")
    if payload.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise InputError(f"unsupported checkpoint version {payload.get('format_version')}")

    def optional_array(name: str) -> np.ndarray | None:
        return None if payload[name] is None else np.asarray(payload[name], dtype=float)

    try:
        config = config_from_dict(ModelConfig, payload["config"])
        params = {
            name: np.asarray(spec["data"], dtype=float).reshape(spec["shape"])
            for name, spec in payload["params"].items()
        }
        expected = init_params(config, np.random.default_rng(0))
        if {k: v.shape for k, v in params.items()} != {k: v.shape for k, v in expected.items()}:
            raise InputError(f"checkpoint {path}: parameters do not fit its config")
        for name, value in params.items():
            # inference computes in float32, where a larger weight is inf
            if not (np.abs(value) <= np.finfo(np.float32).max).all():
                raise InputError(
                    f"checkpoint {path}: parameter {name} must be finite and within float32 range"
                )
        stats = [optional_array("metadata_mean"), optional_array("metadata_std")]
        n_meta, n_classes, taxa = len(config.metadata_inputs), config.n_classes, payload["taxa"]
        if [None if v is None else v.shape for v in stats] != [(n_meta,) if n_meta else None] * 2:
            want = f"{n_meta} values each" if n_meta else "null without metadata inputs"
            raise InputError(f"checkpoint {path}: metadata_mean and metadata_std must be {want}")
        if n_meta and not (np.isfinite(np.concatenate(stats)).all() and (stats[1] > 0).all()):
            raise InputError(f"checkpoint {path}: metadata stats must be finite, std positive")
        if n_classes is None and taxa is not None:
            raise InputError(f"checkpoint {path}: taxa must be null for a regression model")
        if n_classes is not None and not (
            isinstance(taxa, list) and all(isinstance(t, str) for t in taxa)
            and len(set(taxa)) == len(taxa) == n_classes
        ):
            raise InputError(f"checkpoint {path}: taxa must be {n_classes} distinct strings")
        return TrainedModel(
            config=config,
            params=params,
            best_epoch=int(payload["best_epoch"]),
            val_loss_history=[float(v) for v in payload["val_loss_history"]],
            metadata_mean=stats[0],
            metadata_std=stats[1],
            taxa=None if taxa is None else tuple(taxa),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from None
