"""Training loop, fine-tuning, prediction, and checkpoint persistence.

Samples are per-image; per-specimen estimates aggregate per-image
predictions with the same trimmed median used by the linear models. The
checkpoint returned is the epoch with the lowest validation loss. All
randomness (init, shuffling, augmentation) flows from named substreams of
the master seed, so training is reproducible bit for bit on one thread.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from ..config import config_from_dict
from ..errors import (
    EmptySplit,
    IncompatibleArchitecture,
    InputError,
    InvalidConfig,
    NonFiniteLoss,
    ShapeMismatch,
)
from ..features import SpecimenFeatures, compute_features
from ..linear import TargetSpace, trimmed_median
from ..records import MASS_FLOOR_UG, Dataset, SpecimenRecord
from ..rng import substream
from .augment import AugmentPolicy, augment_array
from .losses import LossKind, LossSpace, cross_entropy, regression_loss, softmax
from .model import Architecture, Batch, ModelConfig, NeuralNet, init_params
from .optim import AdamWState, adamw_step, cosine_lr

CHECKPOINT_FORMAT_VERSION = 1
# Samples per forward pass, in training and inference alike. A pass over 32
# samples keeps its activations, im2col buffers and pool masks near one
# core's L2 cache; 128-sample passes moved more memory for the same work.
FORWARD_BATCH = 32


class FreezeMode(str, Enum):
    NONE = "none"
    ENCODER = "encoder"
    ENCODER_AND_METADATA = "encoder_metadata"

    @property
    def prefixes(self) -> tuple[str, ...]:
        if self is FreezeMode.ENCODER:
            return ("enc.", "enc2.")
        if self is FreezeMode.ENCODER_AND_METADATA:
            return ("enc.", "enc2.", "meta.")
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

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        return config_from_dict(cls, obj)


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
        return NeuralNet(self.config, self.params)


@dataclass
class SampleSet:
    """Flattened per-image samples for a set of specimens."""

    images: np.ndarray  # (N, 1, S, S), float64, 0..255
    images2: np.ndarray | None
    metadata: np.ndarray | None  # raw (unstandardized) values
    masses: np.ndarray  # (N,) true masses (zeros for inference-only)
    labels: np.ndarray | None  # (N,) class indices for classification
    sample_slices: dict[str, list[int]]  # contiguous sample indices per specimen

    def __len__(self) -> int:
        return self.images.shape[0]


def _specimen_images(dataset: Dataset, record: SpecimenRecord) -> dict:
    if record.raster_refs is None or dataset.rasters is None:
        raise InputError(f"{record.specimen_id}: neural models need rasters")
    return dict(zip(record.frames, (dataset.rasters[r] for r in record.raster_refs)))


def build_samples(
    dataset: Dataset,
    specimen_ids,
    config: ModelConfig,
    feature_table: dict[str, SpecimenFeatures] | None = None,
    require_mass: bool = True,
    taxa: tuple[str, ...] | None = None,
) -> SampleSet:
    """Expand specimens into per-image (or per-pair) training samples.

    Specimens that cannot serve the architecture (no second camera for
    multi-view, missing sinking speed for a speed-consuming metadata model)
    are skipped rather than failing the whole set.
    """
    side = config.input_size
    if dataset.raster_dims is not None and tuple(dataset.raster_dims) != (side, side):
        raise ShapeMismatch(
            f"model input_size {side} does not match the dataset's "
            f"raster_dims {tuple(dataset.raster_dims)}"
        )
    id_set = set(specimen_ids)
    wanted = [s for s in dataset.specimens if s.specimen_id in id_set]
    if feature_table is None:
        feature_table = {s.specimen_id: compute_features(s) for s in wanted}
    meta_names = [m.value for m in config.metadata_inputs]
    needs_speed = "sinking_speed" in meta_names

    images: list[np.ndarray] = []
    images2: list[np.ndarray] = []
    metadata: list[list[float]] = []
    masses: list[float] = []
    labels: list[int] = []
    slices: dict[str, list[int]] = {}

    for record in wanted:
        if require_mass and record.dry_mass_ug is None:
            continue
        feats = feature_table[record.specimen_id]
        if needs_speed and feats.sinking_speed is None:
            continue
        frame_to_image = _specimen_images(dataset, record)
        if config.architecture is Architecture.MULTI_VIEW:
            frames_a = record.frames_for("A")
            frames_b = record.frames_for("B")
            pairs = list(zip(frames_a, frames_b))
            if not pairs:
                continue
            per_sample_frames = pairs
        else:
            per_sample_frames = [(f,) for f in record.frames]
        label = taxa.index(record.taxon) if taxa is not None else 0
        for frames in per_sample_frames:
            index = len(images)
            images.append(frame_to_image[frames[0]].astype(float))
            if config.architecture is Architecture.MULTI_VIEW:
                images2.append(frame_to_image[frames[1]].astype(float))
            if meta_names:
                metadata.append(
                    [feats.metadata_value(name, frames[0]) for name in meta_names]
                )
            masses.append(record.dry_mass_ug if record.dry_mass_ug is not None else 0.0)
            labels.append(label)
            slices.setdefault(record.specimen_id, []).append(index)

    img_arr = np.stack(images)[:, None, :, :] if images else np.zeros((0, 1, 1, 1))
    return SampleSet(
        images=img_arr,
        images2=np.stack(images2)[:, None, :, :] if images2 else None,
        metadata=np.asarray(metadata, dtype=float) if metadata else None,
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
    policy: AugmentPolicy = AugmentPolicy.NONE,
    rng: np.random.Generator | None = None,
) -> Batch:
    images = samples.images[idx]
    images2 = samples.images2[idx] if samples.images2 is not None else None
    if policy is not AugmentPolicy.NONE:
        images = augment_array(images[:, 0], policy, rng)[:, None]
        if images2 is not None:
            images2 = augment_array(images2[:, 0], policy, rng)[:, None]
    metadata = None
    if samples.metadata is not None:
        metadata = (samples.metadata[idx] - mean) / std
    return Batch(
        images=images / 255.0,
        images2=images2 / 255.0 if images2 is not None else None,
        metadata=metadata,
    )


def _outputs(net: NeuralNet, samples: SampleSet, mean, std) -> np.ndarray:
    """Network outputs for every sample, in sample order, computed over
    batches of FORWARD_BATCH samples; ``samples`` must not be empty."""
    n = len(samples)
    return np.concatenate([
        net.forward(_make_batch(samples, np.arange(start, min(start + FORWARD_BATCH, n)),
                                mean, std))
        for start in range(0, n, FORWARD_BATCH)
    ])


def _objective(samples: SampleSet, tc: TrainConfig, classify: bool):
    """The per-sample targets of ``samples`` and the batch loss
    ``loss(out, targets) -> (mean loss, its gradient w.r.t. out)``."""
    if classify:
        return samples.labels, cross_entropy
    return samples.masses, lambda out, masses: regression_loss(
        tc.loss, tc.loss_space, masses, out
    )


def _epoch_loss(
    net: NeuralNet,
    samples: SampleSet,
    tc: TrainConfig,
    mean,
    std,
    classify: bool,
) -> float:
    targets, loss = _objective(samples, tc, classify)
    return loss(_outputs(net, samples, mean, std), targets)[0]


def _batch_rows(batch: Batch, rows: slice) -> Batch:
    return Batch(
        images=batch.images[rows],
        images2=None if batch.images2 is None else batch.images2[rows],
        metadata=None if batch.metadata is None else batch.metadata[rows],
    )


def _step_gradients(net: NeuralNet, batch: Batch, targets: np.ndarray, loss, frozen):
    """(loss, parameter gradients) of one optimizer batch, from back-to-back
    forward and backward passes over slices of at most FORWARD_BATCH samples.

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


def _run_training(
    config: ModelConfig,
    tc: TrainConfig,
    params: dict[str, np.ndarray],
    train_samples: SampleSet,
    val_samples: SampleSet,
    mean,
    std,
    taxa: tuple[str, ...] | None,
) -> TrainedModel:
    classify = config.n_classes is not None
    if not classify:
        want_log = config.target_space is TargetSpace.LOG
        if want_log != (tc.loss_space is LossSpace.LOG):
            raise IncompatibleArchitecture(
                f"loss space {tc.loss_space.value} does not match "
                f"model target space {config.target_space.value}"
            )
    net = NeuralNet(config, params)
    frozen = tc.freeze.prefixes
    state = AdamWState()
    n = len(train_samples)
    steps_per_epoch = math.ceil(n / tc.batch_size)
    total_steps = tc.epochs * steps_per_epoch
    history: list[float] = []
    best_loss = math.inf
    best_epoch = -1
    best_params = {k: v.copy() for k, v in params.items()}
    targets, loss = _objective(train_samples, tc, classify)
    step = 0
    for epoch in range(tc.epochs):
        order = substream(tc.seed, "shuffle", epoch).permutation(n)
        aug_rng = substream(tc.seed, "augment", epoch)
        for start in range(0, n, tc.batch_size):
            idx = order[start : start + tc.batch_size]
            batch = _make_batch(samples=train_samples, idx=idx, mean=mean, std=std,
                                policy=tc.augmentation, rng=aug_rng)
            value, grads = _step_gradients(net, batch, targets[idx], loss, frozen)
            if not math.isfinite(value):
                raise NonFiniteLoss(f"training loss became {value} at step {step}")
            lr = cosine_lr(step, total_steps, tc.lr_max, tc.lr_min)
            adamw_step(
                params, grads, state, lr, weight_decay=tc.weight_decay, skip=frozen
            )
            step += 1
        val_loss = _epoch_loss(net, val_samples, tc, mean, std, classify)
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


def train(
    dataset: Dataset,
    train_ids,
    val_ids,
    config: ModelConfig,
    train_config: TrainConfig,
    feature_table: dict[str, SpecimenFeatures] | None = None,
    taxa: tuple[str, ...] | None = None,
    initial_params: dict[str, np.ndarray] | None = None,
    metadata_stats: tuple[np.ndarray, np.ndarray] | None = None,
) -> TrainedModel:
    """Train from scratch, returning the min-validation-loss checkpoint.

    Classification models (config.n_classes set) need ``taxa`` and train
    with softmax cross-entropy; regression models use the configured loss.
    """
    if config.n_classes is not None:
        if taxa is None or len(taxa) != config.n_classes:
            raise InvalidConfig("classification needs a taxa list matching n_classes")
    train_samples = build_samples(dataset, train_ids, config, feature_table, taxa=taxa)
    val_samples = build_samples(dataset, val_ids, config, feature_table, taxa=taxa)
    if len(train_samples) == 0 or len(val_samples) == 0:
        raise EmptySplit("train and validation splits must both yield samples")
    mean = std = None
    if train_samples.metadata is not None:
        if metadata_stats is not None:
            mean, std = metadata_stats
        else:
            mean, std = _standardization(train_samples.metadata)
    if initial_params is None:
        initial_params = init_params(config, substream(train_config.seed, "init"))
    else:
        initial_params = {k: v.copy() for k, v in initial_params.items()}
    return _run_training(
        config, train_config, initial_params, train_samples, val_samples, mean, std, taxa
    )


def fine_tune(
    base: TrainedModel,
    dataset: Dataset,
    train_ids,
    val_ids,
    train_config: TrainConfig,
    feature_table: dict[str, SpecimenFeatures] | None = None,
) -> TrainedModel:
    """Continue training from ``base`` with the configured freeze mode.

    Metadata standardization statistics are inherited from the base model so
    frozen metadata encoders keep seeing inputs on the scale they were
    trained with.
    """
    if not isinstance(base, TrainedModel):
        raise IncompatibleArchitecture("fine-tuning needs a neural checkpoint as its base")
    if dataset.rasters is None:
        raise IncompatibleArchitecture("fine-tuning needs a dataset with rasters")
    if base.config.architecture is Architecture.MULTI_VIEW:
        if not any(
            s.frames_for("A") and s.frames_for("B") for s in dataset.specimens
        ):
            raise IncompatibleArchitecture("multi-view base needs two-camera data")
    stats = None
    if base.metadata_mean is not None:
        stats = (base.metadata_mean, base.metadata_std)
    return train(
        dataset,
        train_ids,
        val_ids,
        base.config,
        train_config,
        feature_table=feature_table,
        taxa=base.taxa,
        initial_params=base.params,
        metadata_stats=stats,
    )


def _specimen_outputs(model: TrainedModel, dataset: Dataset, specimen_ids, feature_table):
    """{specimen_id: network outputs over its samples} for every specimen the
    model can score, from one batched pass over all their samples."""
    samples = build_samples(
        dataset, specimen_ids, model.config, feature_table, require_mass=False
    )
    if not samples.sample_slices:
        return {}
    out = _outputs(model.net(), samples, model.metadata_mean, model.metadata_std)
    return {sid: out[idx[0] : idx[-1] + 1] for sid, idx in samples.sample_slices.items()}


def predict_specimen_masses(
    model: TrainedModel,
    dataset: Dataset,
    specimen_ids,
    feature_table: dict[str, SpecimenFeatures] | None = None,
    trim_fraction: float = 0.05,
) -> dict[str, float]:
    """Trimmed-median aggregate of per-image predictions per specimen.

    Specimens the model cannot score (e.g. missing speed) are omitted from
    the result.
    """
    results: dict[str, float] = {}
    for sid, out in _specimen_outputs(model, dataset, specimen_ids, feature_table).items():
        if model.config.target_space is TargetSpace.LOG:
            masses = np.exp(out)
        else:
            masses = np.maximum(out, MASS_FLOOR_UG)
        results[sid] = trimmed_median(list(masses), trim_fraction)
    return results


def predict_taxa(
    model: TrainedModel,
    dataset: Dataset,
    specimen_ids,
    feature_table: dict[str, SpecimenFeatures] | None = None,
) -> dict[str, str]:
    """Per-specimen taxon: argmax of the mean per-image class probabilities."""
    if getattr(model, "taxa", None) is None:
        raise IncompatibleArchitecture("classifier checkpoint carries no taxa list")
    results: dict[str, str] = {}
    for sid, logits in _specimen_outputs(model, dataset, specimen_ids, feature_table).items():
        mean_probs = softmax(logits).mean(axis=0)
        results[sid] = model.taxa[int(np.argmax(mean_probs))]
    return results


def save_checkpoint(model: TrainedModel, path: Path | str) -> None:
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": model.config.to_dict(),
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
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path: Path | str) -> TrainedModel:
    """The model ``save_checkpoint`` wrote; a file of another format version,
    with missing or mistyped fields, or with parameters that do not fit its
    config, raises an InputError."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise InputError(f"checkpoint {path} does not hold a JSON object")
    if payload.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise InputError(f"unsupported checkpoint version {payload.get('format_version')}")

    def optional_array(name: str) -> np.ndarray | None:
        return None if payload[name] is None else np.asarray(payload[name], dtype=float)

    try:
        config = ModelConfig.from_dict(payload["config"])
        params = {
            name: np.asarray(spec["data"], dtype=float).reshape(spec["shape"])
            for name, spec in payload["params"].items()
        }
        expected = init_params(config, np.random.default_rng(0))
        if {k: v.shape for k, v in params.items()} != {k: v.shape for k, v in expected.items()}:
            raise InputError(f"checkpoint {path}: parameters do not fit its config")
        return TrainedModel(
            config=config,
            params=params,
            best_epoch=int(payload["best_epoch"]),
            val_loss_history=[float(v) for v in payload["val_loss_history"]],
            metadata_mean=optional_array("metadata_mean"),
            metadata_std=optional_array("metadata_std"),
            taxa=None if payload["taxa"] is None else tuple(payload["taxa"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from None
