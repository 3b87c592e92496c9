"""Network definition: configs, parameter initialization, forward/backward.

Architectures share one skeleton: one or two convolutional encoders and an
optional two-layer metadata encoder produce feature vectors that are
concatenated and passed to a one- or two-layer projection head. The head
emits a single target-space scalar for regression or per-taxon logits for
classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import MissingMetadata, MissingSecondView, ShapeMismatch
from ..linear import TargetSpace
from . import layers


class Architecture(str, Enum):
    SINGLE_VIEW = "single_view"
    MULTI_VIEW = "multi_view"
    METADATA_AWARE = "metadata_aware"


class HeadKind(str, Enum):
    ONE_LAYER = "one_layer"
    TWO_LAYER = "two_layer"


class MetadataInput(str, Enum):
    FRAME_AREA = "frame_area"
    MEAN_AREA = "mean_area"
    SINKING_SPEED = "sinking_speed"


@dataclass(frozen=True)
class ModelConfig:
    architecture: Architecture = Architecture.SINGLE_VIEW
    encoder_channels: tuple[int, ...] = (8, 16)
    head: HeadKind = HeadKind.TWO_LAYER
    head_hidden: int = 64
    metadata_inputs: tuple[MetadataInput, ...] = ()
    metadata_hidden: int | None = None  # defaults to twice the input count
    target_space: TargetSpace = TargetSpace.LOG
    input_size: int = 32
    n_classes: int | None = None  # set for the classification variant

    def __post_init__(self):
        if not self.encoder_channels:
            raise ValueError("need at least one encoder block")
        factor = 2 ** len(self.encoder_channels)
        if self.input_size < factor or self.input_size % factor != 0:
            raise ValueError(
                f"input_size {self.input_size} incompatible with "
                f"{len(self.encoder_channels)} pooling stages"
            )
        if self.architecture is Architecture.METADATA_AWARE and not self.metadata_inputs:
            raise ValueError("metadata-aware architecture needs metadata_inputs")
        if self.architecture is not Architecture.METADATA_AWARE and self.metadata_inputs:
            raise ValueError("metadata_inputs only apply to the metadata-aware architecture")
        if self.metadata_hidden is None and self.metadata_inputs:
            object.__setattr__(self, "metadata_hidden", 2 * len(self.metadata_inputs))
        if self.head is HeadKind.TWO_LAYER and self.head_hidden < 1:
            raise ValueError("two-layer head needs head_hidden >= 1")
        if self.n_classes is not None and self.n_classes < 2:
            raise ValueError("classification needs at least 2 classes")

    @property
    def feature_width(self) -> int:
        width = self.encoder_channels[-1]
        if self.architecture is Architecture.MULTI_VIEW:
            width *= 2
        if self.architecture is Architecture.METADATA_AWARE:
            width += self.metadata_hidden
        return width

    @property
    def out_dim(self) -> int:
        return 1 if self.n_classes is None else self.n_classes


def _he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """He-style fan-in uniform weights, zero biases; deterministic per rng."""
    params: dict[str, np.ndarray] = {}

    def add_encoder(prefix: str) -> None:
        c_in = 1
        for i, c_out in enumerate(config.encoder_channels):
            fan_in = c_in * 9
            params[f"{prefix}.{i}.w"] = _he_uniform(rng, (c_out, c_in, 3, 3), fan_in)
            params[f"{prefix}.{i}.b"] = np.zeros(c_out)
            c_in = c_out

    add_encoder("enc")
    if config.architecture is Architecture.MULTI_VIEW:
        add_encoder("enc2")
    if config.architecture is Architecture.METADATA_AWARE:
        n_in = len(config.metadata_inputs)
        hidden = config.metadata_hidden
        params["meta.0.w"] = _he_uniform(rng, (hidden, n_in), n_in)
        params["meta.0.b"] = np.zeros(hidden)
        params["meta.1.w"] = _he_uniform(rng, (hidden, hidden), hidden)
        params["meta.1.b"] = np.zeros(hidden)

    feat = config.feature_width
    if config.head is HeadKind.ONE_LAYER:
        params["head.0.w"] = _he_uniform(rng, (config.out_dim, feat), feat)
        params["head.0.b"] = np.zeros(config.out_dim)
    else:
        params["head.0.w"] = _he_uniform(rng, (config.head_hidden, feat), feat)
        params["head.0.b"] = np.zeros(config.head_hidden)
        params["head.1.w"] = _he_uniform(rng, (config.out_dim, config.head_hidden), config.head_hidden)
        params["head.1.b"] = np.zeros(config.out_dim)
    return params


@dataclass
class Batch:
    """One forward batch, in the dtype of the net it feeds (float32 in
    training, float64 in inference).

    ``images`` is (B, 1, S, S); ``images2`` carries the second camera's view
    for the multi-view architecture; ``metadata`` is (B, M) of standardized
    metadata values.
    """

    images: np.ndarray
    images2: np.ndarray | None = None
    metadata: np.ndarray | None = None

    def __len__(self) -> int:
        return self.images.shape[0]


class NeuralNet:
    """Config + parameters with exact reverse-mode gradients."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, which the net computes in given batches of it."""
        return np.result_type(*self.params.values())

    def _check_batch(self, batch: Batch) -> None:
        cfg = self.config
        s = cfg.input_size
        if batch.images.ndim != 4 or batch.images.shape[1:] != (1, s, s):
            raise ShapeMismatch(
                f"expected images of shape (B, 1, {s}, {s}), got {batch.images.shape}"
            )
        if cfg.architecture is Architecture.MULTI_VIEW:
            if batch.images2 is None:
                raise MissingSecondView("multi-view model needs the second camera's images")
            if batch.images2.shape != batch.images.shape:
                raise ShapeMismatch("second view must match the first view's shape")
        if cfg.architecture is Architecture.METADATA_AWARE:
            if batch.metadata is None:
                raise MissingMetadata("metadata-aware model needs a metadata matrix")
            expected = (len(batch), len(cfg.metadata_inputs))
            if batch.metadata.shape != expected:
                raise ShapeMismatch(
                    f"expected metadata of shape {expected}, got {batch.metadata.shape}"
                )

    def _encode(self, prefix: str, x: np.ndarray):
        blocks = []
        for i in range(len(self.config.encoder_channels)):
            x, conv_cache = layers.conv3_forward(
                x, self.params[f"{prefix}.{i}.w"], self.params[f"{prefix}.{i}.b"]
            )
            x, pool_cache = layers.maxpool2_forward(x)
            x, mask = layers.relu_forward(x)
            blocks.append((conv_cache, pool_cache, mask))
        z, gap_shape = layers.gap_forward(x)
        return z, (blocks, gap_shape)

    def _encode_backward(self, prefix: str, dz: np.ndarray, cache, grads) -> None:
        blocks, gap_shape = cache
        dx = layers.gap_backward(dz, gap_shape)
        for i in reversed(range(len(blocks))):
            conv_cache, pool_cache, mask = blocks[i]
            dx = layers.relu_backward(dx, mask)
            dx = layers.maxpool2_backward(dx, pool_cache)
            dx, dw, db = layers.conv3_backward(dx, conv_cache, input_grad=i > 0)
            grads[f"{prefix}.{i}.w"] = dw
            grads[f"{prefix}.{i}.b"] = db

    def _encode_metadata(self, v: np.ndarray):
        h, cache0 = layers.affine_forward(v, self.params["meta.0.w"], self.params["meta.0.b"])
        h, mask = layers.relu_forward(h)
        z, cache1 = layers.affine_forward(h, self.params["meta.1.w"], self.params["meta.1.b"])
        return z, (cache0, mask, cache1)

    def _metadata_backward(self, dz: np.ndarray, cache, grads) -> None:
        cache0, mask, cache1 = cache
        dh, grads["meta.1.w"], grads["meta.1.b"] = layers.affine_backward(dz, cache1)
        dh = layers.relu_backward(dh, mask)
        _, grads["meta.0.w"], grads["meta.0.b"] = layers.affine_backward(dh, cache0)

    def _head(self, z: np.ndarray):
        out, cache0 = layers.affine_forward(z, self.params["head.0.w"], self.params["head.0.b"])
        if self.config.head is HeadKind.ONE_LAYER:
            return out, (cache0, None, None)
        h, mask = layers.relu_forward(out)
        out, cache1 = layers.affine_forward(h, self.params["head.1.w"], self.params["head.1.b"])
        return out, (cache0, mask, cache1)

    def _head_backward(self, dout: np.ndarray, cache, grads) -> np.ndarray:
        cache0, mask, cache1 = cache
        if self.config.head is HeadKind.TWO_LAYER:
            dout, grads["head.1.w"], grads["head.1.b"] = layers.affine_backward(dout, cache1)
            dout = layers.relu_backward(dout, mask)
        dz, grads["head.0.w"], grads["head.0.b"] = layers.affine_backward(dout, cache0)
        return dz

    def forward_cached(self, batch: Batch):
        """Returns (output, cache); output is (B,) for regression models and
        (B, n_classes) logits for classifiers."""
        self._check_batch(batch)
        cfg = self.config
        z, enc_cache = self._encode("enc", batch.images)
        enc2_cache = meta_cache = None
        widths = [z.shape[1]]
        parts = [z]
        if cfg.architecture is Architecture.MULTI_VIEW:
            z2, enc2_cache = self._encode("enc2", batch.images2)
            parts.append(z2)
            widths.append(z2.shape[1])
        if cfg.architecture is Architecture.METADATA_AWARE:
            zm, meta_cache = self._encode_metadata(batch.metadata)
            parts.append(zm)
            widths.append(zm.shape[1])
        features = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
        out, head_cache = self._head(features)
        cache = (enc_cache, enc2_cache, meta_cache, head_cache, widths)
        if cfg.out_dim == 1:
            return out[:, 0], cache
        return out, cache

    def forward(self, batch: Batch) -> np.ndarray:
        out, _ = self.forward_cached(batch)
        return out

    def backward(self, cache, dout: np.ndarray, frozen_prefixes: tuple[str, ...] = ()):
        """Gradients of the loss w.r.t. every parameter.

        ``dout`` is the loss gradient w.r.t. the network output. Frozen
        parameters receive exact zero gradients and their branch backward
        pass is skipped.
        """
        enc_cache, enc2_cache, meta_cache, head_cache, widths = cache
        if dout.ndim == 1:
            dout = dout[:, None]
        grads: dict[str, np.ndarray] = {}
        dz = self._head_backward(dout, head_cache, grads)
        splits = np.cumsum(widths)[:-1]
        parts = np.split(dz, splits, axis=1)
        part_idx = 0

        def frozen(prefix: str) -> bool:
            return any(prefix.startswith(p) for p in frozen_prefixes)

        if not frozen("enc."):
            self._encode_backward("enc", parts[part_idx], enc_cache, grads)
        part_idx += 1
        if enc2_cache is not None:
            if not frozen("enc2."):
                self._encode_backward("enc2", parts[part_idx], enc2_cache, grads)
            part_idx += 1
        if meta_cache is not None:
            if not frozen("meta."):
                self._metadata_backward(parts[part_idx], meta_cache, grads)
            part_idx += 1
        for name, value in self.params.items():
            if name not in grads:
                grads[name] = np.zeros_like(value)
        return grads
