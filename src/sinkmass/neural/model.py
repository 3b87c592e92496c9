"""Network definition: configs, parameter initialization, forward/backward.

Architectures share one skeleton, driven by ``ModelConfig.branches``: a list
of input branches whose feature vectors are concatenated and passed to a
head. A branch is a convolutional encoder (``enc``, and ``enc2`` for the
second camera's view) or the two-layer metadata encoder (``meta``). The
metadata encoder and the one- or two-layer head are the same multilayer
perceptron: affine layers with a ReLU between each pair. The head emits a
single target-space scalar for regression or per-taxon logits for
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
    def branches(self) -> tuple[str, ...]:
        """Names of the input branches, in feature order; each is the
        prefix of its parameters' names."""
        if self.architecture is Architecture.MULTI_VIEW:
            return ("enc", "enc2")
        if self.architecture is Architecture.METADATA_AWARE:
            return ("enc", "meta")
        return ("enc",)

    @property
    def feature_width(self) -> int:
        enc = self.encoder_channels[-1]
        return sum(self.metadata_hidden if b == "meta" else enc for b in self.branches)

    @property
    def out_dim(self) -> int:
        return 1 if self.n_classes is None else self.n_classes

    def mlp_widths(self, prefix: str) -> tuple[int, ...]:
        """Input then output width of each layer of the ``meta`` or ``head`` MLP."""
        if prefix == "meta":
            return (len(self.metadata_inputs), self.metadata_hidden, self.metadata_hidden)
        hidden = (self.head_hidden,) if self.head is HeadKind.TWO_LAYER else ()
        return (self.feature_width, *hidden, self.out_dim)


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """He-style fan-in uniform weights, zero biases; deterministic per rng.

    Layers are drawn branch by branch in feature order, then the head."""
    params: dict[str, np.ndarray] = {}
    channels = (1, *config.encoder_channels)
    for prefix in (*config.branches, "head"):
        if prefix.startswith("enc"):
            shapes = [(c_out, c_in, 3, 3) for c_in, c_out in zip(channels, channels[1:])]
        else:
            widths = config.mlp_widths(prefix)
            shapes = [(n_out, n_in) for n_in, n_out in zip(widths, widths[1:])]
        for i, shape in enumerate(shapes):
            bound = np.sqrt(6.0 / int(np.prod(shape[1:])))
            params[f"{prefix}.{i}.w"] = rng.uniform(-bound, bound, size=shape)
            params[f"{prefix}.{i}.b"] = np.zeros(shape[0])
    return params


@dataclass
class Batch:
    """One forward batch, in the dtype of the net it feeds: float32 in
    training and inference, whose nets hold float32 copies of the float64
    weights. A sample's outputs do not depend on the other samples in its
    batch.

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
    """Config + parameters with exact reverse-mode gradients.

    The net owns one ``layers.ConvScratch`` per encoder block of each
    branch, so the conv work arrays are made once, grow to the largest
    batch the net has served and are reused by every later call.
    """

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params
        self._scratch = {
            (prefix, i): layers.ConvScratch()
            for prefix in config.branches if prefix != "meta"
            for i in range(len(config.encoder_channels))
        }

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
                x, self.params[f"{prefix}.{i}.w"], self.params[f"{prefix}.{i}.b"],
                scratch=self._scratch[prefix, i],
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
            dx, dw, db = layers.conv3_backward(
                dx, conv_cache, input_grad=i > 0, scratch=self._scratch[prefix, i]
            )
            grads[f"{prefix}.{i}.w"] = dw
            grads[f"{prefix}.{i}.b"] = db

    def _mlp(self, prefix: str, x: np.ndarray):
        """The ``meta`` or ``head`` MLP: affine layers, a ReLU before each but the first."""
        caches = []
        for i in range(len(self.config.mlp_widths(prefix)) - 1):
            mask = None
            if i:
                x, mask = layers.relu_forward(x)
            w, b = self.params[f"{prefix}.{i}.w"], self.params[f"{prefix}.{i}.b"]
            x, cache = layers.affine_forward(x, w, b)
            caches.append((mask, cache))
        return x, caches

    def _mlp_backward(self, prefix: str, dx: np.ndarray, caches, grads) -> np.ndarray:
        for i in reversed(range(len(caches))):
            mask, cache = caches[i]
            dx, dw, db = layers.affine_backward(dx, cache)
            grads[f"{prefix}.{i}.w"], grads[f"{prefix}.{i}.b"] = dw, db
            if mask is not None:
                dx = layers.relu_backward(dx, mask)
        return dx

    def forward_cached(self, batch: Batch):
        """Returns (output, cache); output is (B,) for regression models and
        (B, n_classes) logits for classifiers.

        The cache lends from the net's conv work arrays, so it serves one
        ``backward`` call, made before the next forward call on the same
        net: backward overwrites the conv patch matrices it reads. The
        output is the caller's own."""
        self._check_batch(batch)
        inputs = {"enc": batch.images, "enc2": batch.images2, "meta": batch.metadata}
        parts, branch_caches = [], []
        for prefix in self.config.branches:
            encode = self._mlp if prefix == "meta" else self._encode
            z, branch_cache = encode(prefix, inputs[prefix])
            parts.append(z)
            branch_caches.append(branch_cache)
        features = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
        out, head_cache = self._mlp("head", features)
        cache = (branch_caches, head_cache, [z.shape[1] for z in parts])
        if self.config.out_dim == 1:
            return out[:, 0], cache
        return out, cache

    def forward(self, batch: Batch) -> np.ndarray:
        out, _ = self.forward_cached(batch)
        return out

    def backward(self, cache, dout: np.ndarray, frozen: tuple[str, ...] = ()):
        """Gradients of the loss w.r.t. the parameters of every branch not
        in ``frozen`` and of the head.

        ``dout`` is the loss gradient w.r.t. the network output; ``frozen``
        names branches of ``config.branches``. A frozen branch's backward
        pass is skipped, and the result holds no key for its parameters.
        """
        branch_caches, head_cache, widths = cache
        if dout.ndim == 1:
            dout = dout[:, None]
        grads: dict[str, np.ndarray] = {}
        dz = self._mlp_backward("head", dout, head_cache, grads)
        parts = np.split(dz, np.cumsum(widths)[:-1], axis=1)
        for prefix, dpart, branch_cache in zip(self.config.branches, parts, branch_caches):
            if prefix not in frozen:
                backward = self._mlp_backward if prefix == "meta" else self._encode_backward
                backward(prefix, dpart, branch_cache, grads)
        return grads
