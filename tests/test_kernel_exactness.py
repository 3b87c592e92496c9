"""Property tests: the training-step kernels against straightforward
reference formulations, and the forward pass's batch independence.

Inputs are drawn from a handful of values so that 2x2 pooling windows tie
often and pre-activations hit zero, the cases where reordering pooling and
ReLU or rewriting the pooling backward could go wrong.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sinkmass.errors import NonSquareRaster
from sinkmass.neural import layers
from sinkmass.neural.augment import augment_array
from sinkmass.neural.model import (
    Architecture,
    Batch,
    HeadKind,
    MetadataInput,
    ModelConfig,
    NeuralNet,
    init_params,
)

VALUES = st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.5])
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def pool_inputs(draw):
    """(x, dout): a (B, C, 2h, 2w) map with many ties and its pooled gradient."""
    b, c, h, w = (draw(st.integers(1, n)) for n in (3, 3, 4, 4))
    x = draw(hnp.arrays(np.float64, (b, c, 2 * h, 2 * w), elements=VALUES))
    dout = draw(hnp.arrays(np.float64, (b, c, h, w), elements=st.floats(-2, 2, width=64)))
    return x, dout


def _maxpool2_backward_loop(dout, x):
    """Per-window reference: the gradient goes to the first maximal element
    in row-major window order."""
    dx = np.zeros_like(x)
    b, c, h, w = dout.shape
    for n in range(b):
        for k in range(c):
            for i in range(h):
                for j in range(w):
                    window = x[n, k, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].ravel()
                    di, dj = divmod(int(np.argmax(window)), 2)
                    dx[n, k, 2 * i + di, 2 * j + dj] = dout[n, k, i, j]
    return dx


@SETTINGS
@given(pool_inputs())
def test_maxpool2_backward_matches_per_window_loop(inputs):
    x, dout = inputs
    _, cache = layers.maxpool2_forward(x)
    np.testing.assert_array_equal(
        layers.maxpool2_backward(dout, cache), _maxpool2_backward_loop(dout, x)
    )


@SETTINGS
@given(pool_inputs())
def test_pool_then_relu_equals_relu_then_pool(inputs):
    x, dout = inputs
    relu_first, mask_full = layers.relu_forward(x)
    ref_out, ref_pool = layers.maxpool2_forward(relu_first)
    ref_dx = layers.relu_backward(layers.maxpool2_backward(dout, ref_pool), mask_full)

    pooled, pool_cache = layers.maxpool2_forward(x)
    out, mask = layers.relu_forward(pooled)
    dx = layers.maxpool2_backward(layers.relu_backward(dout, mask), pool_cache)

    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(dx, ref_dx)


@SETTINGS
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_conv3_backward_without_input_grad(batch, c_in, c_out, h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, c_in, h, w))
    weights = rng.normal(size=(c_out, c_in, 3, 3))
    out, cache = layers.conv3_forward(x, weights, rng.normal(size=c_out))
    dout = rng.normal(size=out.shape)
    dx, dw, db = layers.conv3_backward(dout, cache)
    none, dw_only, db_only = layers.conv3_backward(dout, cache, input_grad=False)
    assert none is None and dx.shape == x.shape
    np.testing.assert_array_equal(dw_only, dw)
    np.testing.assert_array_equal(db_only, db)
    # dW is the correlation of dout with the zero-padded input
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ref = np.empty_like(weights)
    for di in range(3):
        for dj in range(3):
            ref[:, :, di, dj] = np.einsum("bohw,bihw->oi", dout, xp[:, :, di : di + h, dj : dj + w])
    np.testing.assert_allclose(dw, ref, rtol=1e-12, atol=1e-12)


@st.composite
def row_slices(draw):
    """(n, rows): a batch size and a contiguous slice of its rows."""
    n = draw(st.integers(1, 40))
    start = draw(st.integers(0, n - 1))
    return n, slice(start, draw(st.integers(start + 1, n)))


@SETTINGS
@given(
    row_slices(),
    st.sampled_from([(96, 64), (64, 1), (16, 64), (64, 3), (3, 6)]),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
)
def test_affine_rows_do_not_depend_on_the_batch(sliced, shape, dtype, seed):
    (n, rows), (n_in, n_out) = sliced, shape
    rng = np.random.default_rng(seed)
    x, w, b = (rng.normal(size=size).astype(dtype) for size in ((n, n_in), (n_out, n_in), n_out))
    full, _ = layers.affine_forward(x, w, b)
    part, _ = layers.affine_forward(x[rows], w, b)
    assert full.dtype == part.dtype == dtype
    np.testing.assert_array_equal(part, full[rows])


@SETTINGS
@given(
    row_slices(),
    st.sampled_from(list(Architecture)),
    st.sampled_from(list(HeadKind)),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
)
def test_forward_rows_do_not_depend_on_the_batch(sliced, arch, head, dtype, seed):
    n, rows = sliced
    metadata_inputs = tuple(MetadataInput) if arch is Architecture.METADATA_AWARE else ()
    config = ModelConfig(architecture=arch, encoder_channels=(8, 16), head=head, head_hidden=64,
                         metadata_inputs=metadata_inputs, input_size=16)
    rng = np.random.default_rng(seed)
    net = NeuralNet(config, {k: v.astype(dtype) for k, v in init_params(config, rng).items()})
    images = rng.random((2, n, 1, 16, 16)).astype(dtype)
    batch = Batch(
        images=images[0],
        images2=images[1] if arch is Architecture.MULTI_VIEW else None,
        metadata=rng.normal(size=(n, 3)).astype(dtype) if metadata_inputs else None,
    )
    part = Batch(*(None if a is None else a[rows]
                   for a in (batch.images, batch.images2, batch.metadata)))
    full = net.forward(batch)
    assert full.dtype == dtype
    np.testing.assert_array_equal(net.forward(part), full[rows])


def test_first_block_skips_input_gradient(monkeypatch):
    config = ModelConfig(encoder_channels=(2, 3, 4), input_size=8)
    net = NeuralNet(config, init_params(config, np.random.default_rng(0)))
    out, cache = net.forward_cached(Batch(np.random.default_rng(1).random((2, 1, 8, 8))))
    seen = []
    original = layers.conv3_backward

    def spy(dout, conv_cache, **kwargs):
        seen.append((conv_cache[0][1], kwargs))
        return original(dout, conv_cache, **kwargs)

    monkeypatch.setattr(layers, "conv3_backward", spy)
    net.backward(cache, np.ones_like(out))
    assert seen == [(3, {"input_grad": True}), (2, {"input_grad": True}), (1, {"input_grad": False})]


@SETTINGS
@given(
    st.sampled_from(["flips90", "continuous_rotation", "photometric_lite"]),
    st.sampled_from([np.uint8, np.float64]),
    st.integers(0, 12),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_stacked_augment_equals_per_image_calls(policy, dtype, n, size, seed):
    stack = np.random.default_rng(seed).integers(0, 256, size=(n, size, size)).astype(dtype)
    stacked_rng = np.random.default_rng(seed)
    looped_rng = np.random.default_rng(seed)
    out = augment_array(stack, policy, stacked_rng)
    ref = [augment_array(image, policy, looped_rng) for image in stack]
    assert out.shape == stack.shape
    for got, want in zip(out, ref):
        np.testing.assert_array_equal(got, want)
    # both generators were left in the same state
    assert stacked_rng.integers(0, 2**62) == looped_rng.integers(0, 2**62)


def test_stacked_augment_rejects_non_square_images(rng):
    with pytest.raises(NonSquareRaster):
        augment_array(np.zeros((3, 4, 5)), "flips90", rng)
