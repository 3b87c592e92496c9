"""Property tests: the training-step kernels against straightforward
reference formulations, and the forward pass's batch independence.

Inputs are drawn from a handful of values so that 2x2 pooling windows tie
often and pre-activations hit zero, the cases where reordering pooling and
ReLU or rewriting the pooling backward could go wrong.
"""

import tracemalloc

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
from sinkmass.neural.training import FORWARD_BATCH, FreezeMode, TrainedModel

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
        seen.append((conv_cache[0][1], kwargs["input_grad"]))
        return original(dout, conv_cache, **kwargs)

    monkeypatch.setattr(layers, "conv3_backward", spy)
    net.backward(cache, np.ones_like(out))
    assert seen == [(3, True), (2, True), (1, False)]


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


def _conv3_reference(x, weights, bias, dout):
    """(out, patch matrix, dx) of a same-padded 3x3 conv, each array made
    fresh: np.pad, then the same products and the same summation order as
    the kernels."""
    batch, c_in, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.stack([xp[:, :, di : di + h, dj : dj + w] for di in range(3) for dj in range(3)],
                    axis=2).reshape(batch, c_in * 9, h * w)
    wmat = weights.reshape(len(weights), -1)
    out = np.matmul(wmat[None], cols).reshape(batch, -1, h, w) + bias[None, :, None, None]
    dcols = np.matmul(wmat.T[None], dout.reshape(batch, -1, h * w)).reshape(batch, c_in, 9, h, w)
    dxp = np.zeros(xp.shape, dtype=dout.dtype)
    for k in range(9):
        di, dj = divmod(k, 3)
        dxp[:, :, di : di + h, dj : dj + w] += dcols[:, :, k]
    return out, cols, dxp[:, :, 1:-1, 1:-1]


@SETTINGS
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
)
def test_conv_with_and_without_scratch_give_the_reference_bits(batches, c_in, c_out, dtype, seed):
    """One scratch serving batches of several sizes in turn; every call, and
    the same call without a scratch, against the fresh-array reference."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(c_out, c_in, 3, 3)).astype(dtype)
    bias = rng.normal(size=c_out).astype(dtype)
    scratch = layers.ConvScratch()
    for n in batches:
        x = rng.normal(size=(n, c_in, 4, 6)).astype(dtype)
        dout = rng.normal(size=(n, c_out, 4, 6)).astype(dtype)
        want_out, want_cols, want_dx = _conv3_reference(x, weights, bias, dout)
        for kwargs in ({}, {"scratch": scratch}):
            out, cache = layers.conv3_forward(x, weights, bias, **kwargs)
            cols = cache[1].copy()  # the backward call writes over a scratch's patch matrix
            dx, _, _ = layers.conv3_backward(dout, cache, **kwargs)
            assert cache[0] == x.shape
            for got, want in ((out, want_out), (cols, want_cols), (dx, want_dx)):
                assert got.dtype == want.dtype == dtype
                np.testing.assert_array_equal(got, want)


def scratch_net(arch):
    """A small net of ``arch`` on float32 weights."""
    config = ModelConfig(
        architecture=arch,
        encoder_channels=(2, 3),
        head=HeadKind.TWO_LAYER,
        head_hidden=4,
        metadata_inputs=(
            (MetadataInput.FRAME_AREA, MetadataInput.MEAN_AREA)
            if arch is Architecture.METADATA_AWARE else ()
        ),
        input_size=8,
    )
    params = init_params(config, np.random.default_rng(0))
    return NeuralNet(config, {k: v.astype(np.float32) for k, v in params.items()})


def random_batch(net, n, seed):
    cfg = net.config
    rng = np.random.default_rng(seed)
    images = rng.random((2, n, 1, cfg.input_size, cfg.input_size)).astype(np.float32)
    return Batch(
        images=images[0],
        images2=images[1] if cfg.architecture is Architecture.MULTI_VIEW else None,
        metadata=(rng.normal(size=(n, len(cfg.metadata_inputs))).astype(np.float32)
                  if cfg.metadata_inputs else None),
    )


def output_gradient(out):
    return np.linspace(-1, 1, out.size, dtype=out.dtype).reshape(out.shape)


def gradients(net, batch, frozen=()):
    out, cache = net.forward_cached(batch)
    return out, net.backward(cache, output_gradient(out), frozen)


def pure_layers(monkeypatch):
    """Route the net's conv and max-pool backward calls to the layer
    functions without a scratch or an ``out`` array."""
    for name, work in (("conv3_forward", "scratch"), ("conv3_backward", "scratch"),
                       ("maxpool2_backward", "out")):
        original = getattr(layers, name)
        monkeypatch.setattr(layers, name, lambda *args, _f=original, _work=work, **kwargs: _f(
            *args, **{k: v for k, v in kwargs.items() if k != _work}))


def conv_outputs(net, cache):
    """{(branch, block): the conv output} of a forward_cached cache, which
    the block's max-pool cache holds."""
    return {
        (prefix, i): block[1][0]
        for prefix, branch_cache in zip(net.config.branches, cache[0]) if prefix != "meta"
        for i, block in enumerate(branch_cache[0])
    }


def conv_cols(net, cache):
    """{(branch, block): the im2col matrix} of a forward_cached cache."""
    return {
        (prefix, i): block[0][1]
        for prefix, branch_cache in zip(net.config.branches, cache[0]) if prefix != "meta"
        for i, block in enumerate(branch_cache[0])
    }


@pytest.mark.parametrize("arch", list(Architecture))
class TestNetWorkBuffers:
    def test_forward_output_survives_later_calls(self, arch):
        net = scratch_net(arch)
        out = net.forward(random_batch(net, 32, 1))
        kept = out.copy()
        for n, seed in ((7, 2), (45, 3), (32, 4)):
            gradients(net, random_batch(net, n, seed))
        np.testing.assert_array_equal(out, kept)

    @pytest.mark.parametrize("n", [7, 32])
    def test_gradients_after_other_batch_sizes_match_a_fresh_net(self, arch, n, monkeypatch):
        used = scratch_net(arch)
        for size, seed in ((32, 1), (7, 2), (32, 3)):
            gradients(used, random_batch(used, size, seed))
        batch = random_batch(used, n, 9)
        out, grads = gradients(used, batch)
        fresh_out, fresh = gradients(scratch_net(arch), batch)
        with monkeypatch.context() as m:
            pure_layers(m)
            pure_out, pure = gradients(scratch_net(arch), batch)
        for reference_out, reference in ((fresh_out, fresh), (pure_out, pure)):
            np.testing.assert_array_equal(out, reference_out)
            assert grads.keys() == reference.keys()
            for name in grads:
                np.testing.assert_array_equal(grads[name], reference[name], err_msg=name)

    def test_batch_larger_than_forward_batch(self, arch, monkeypatch):
        net = scratch_net(arch)
        gradients(net, random_batch(net, FORWARD_BATCH, 1))
        n = FORWARD_BATCH + 9
        batch = random_batch(net, n, 2)
        out, grads = gradients(net, batch)
        assert out.shape == (n,)
        parts = [net.forward(Batch(*(None if a is None else a[rows] for a in
                                     (batch.images, batch.images2, batch.metadata))))
                 for rows in (slice(0, FORWARD_BATCH), slice(FORWARD_BATCH, n))]
        np.testing.assert_array_equal(np.concatenate(parts), out)
        with monkeypatch.context() as m:
            pure_layers(m)
            _, pure = gradients(scratch_net(arch), batch)
        for name in grads:
            np.testing.assert_array_equal(grads[name], pure[name], err_msg=name)

    def test_same_size_forward_calls_share_their_cols(self, arch):
        """Two same-size passes reuse the im2col memory instead of
        allocating it anew, and no two conv layers share theirs."""
        net = scratch_net(arch)
        _, first = net.forward_cached(random_batch(net, 16, 1))
        first_cols = conv_cols(net, first)
        _, second = net.forward_cached(random_batch(net, 16, 2))
        second_cols = conv_cols(net, second)
        assert first_cols.keys() == second_cols.keys()
        for key, cols in second_cols.items():
            assert np.shares_memory(cols, first_cols[key]), key
            assert not any(np.shares_memory(cols, other)
                           for k, other in second_cols.items() if k != key), key

    @pytest.mark.parametrize("freeze", list(FreezeMode))
    def test_pool_gradients_overwrite_their_own_conv_outputs(self, arch, freeze, monkeypatch):
        """On a warmed net, each trained block's max-pool gradient is written
        over that block's conv output and no other, and the gradients keep
        the bits of a net whose layers allocate every array afresh."""
        net = scratch_net(arch)
        for n, seed in ((32, 1), (7, 2)):
            gradients(net, random_batch(net, n, seed))
        batch = random_batch(net, 32, 3)
        out, cache = net.forward_cached(batch)
        conv_out = conv_outputs(net, cache)
        written = []
        original = layers.maxpool2_backward

        def spy(dout, pool_cache, **kwargs):
            written.append(original(dout, pool_cache, **kwargs))
            return written[-1]

        with monkeypatch.context() as m:
            m.setattr(layers, "maxpool2_backward", spy)
            grads = net.backward(cache, output_gradient(out), freeze.branches)
        blocks = len(net.config.encoder_channels)
        trained = [(prefix, i) for prefix in net.config.branches
                   if prefix != "meta" and prefix not in freeze.branches
                   for i in reversed(range(blocks))]
        assert len(written) == len(trained)
        for key, dx in zip(trained, written):
            for other, conv in conv_out.items():
                assert np.shares_memory(dx, conv) is (other == key), (key, other)
        with monkeypatch.context() as m:
            pure_layers(m)
            pure_out, pure = gradients(scratch_net(arch), batch, freeze.branches)
        np.testing.assert_array_equal(out, pure_out)
        assert grads.keys() == pure.keys()
        for name in grads:
            assert _bits(grads[name]) == _bits(pure[name]), name


@pytest.mark.parametrize("arch", list(Architecture))
def test_warm_backward_peaks_below_the_first_conv_output(arch):
    """At the benchmark's model size, a warmed 32-sample backward allocates
    less than block 0's conv output, which a fresh max-pool gradient alone
    would take."""
    config = ModelConfig(
        architecture=arch, encoder_channels=(8, 16), head_hidden=64, input_size=32,
        metadata_inputs=tuple(MetadataInput) if arch is Architecture.METADATA_AWARE else (),
    )
    params = init_params(config, np.random.default_rng(0))
    net = NeuralNet(config, {k: v.astype(np.float32) for k, v in params.items()})
    for seed in (1, 2):
        gradients(net, random_batch(net, FORWARD_BATCH, seed))
    out, cache = net.forward_cached(random_batch(net, FORWARD_BATCH, 3))
    dout = output_gradient(out)
    first_conv_bytes = conv_outputs(net, cache)["enc", 0].nbytes
    tracemalloc.start()
    try:
        net.backward(cache, dout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < first_conv_bytes, (peak, first_conv_bytes)


def test_warm_inference_pass_allocates_less_than_its_conv_outputs():
    """At the benchmark's model size, a warmed 32-sample multi-view pass on
    the inference net allocates less than its two branches' conv outputs
    together: they live in the conv scratch, which the branches share."""
    config = ModelConfig(architecture=Architecture.MULTI_VIEW, encoder_channels=(8, 16),
                         head_hidden=64, input_size=32)
    params = init_params(config, np.random.default_rng(0))
    net = TrainedModel(config, params, 0, [1.0]).net()
    for seed in (1, 2):
        net.forward(random_batch(net, FORWARD_BATCH, seed))
    batch = random_batch(net, FORWARD_BATCH, 3)
    side, bytes_per_value = config.input_size, np.dtype(net.dtype).itemsize
    conv_bytes = 0
    for i, channels in enumerate(config.encoder_channels):  # block i runs at side / 2**i
        conv_bytes += FORWARD_BATCH * channels * (side >> i) ** 2 * bytes_per_value
    tracemalloc.start()
    try:
        net.forward(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * conv_bytes, (peak, 2 * conv_bytes)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([np.float32, np.float64]),
       st.lists(st.integers(1, 40), min_size=1, max_size=3),
       st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 6).map(lambda k: 2 * k), st.integers(1, 6).map(lambda k: 2 * k))
def test_conv_forward_lends_its_output_from_the_scratch(data, dtype, batches, c_in, c_out, h, w):
    """Given a scratch, conv3_forward writes its output into the scratch and
    returns the bits of the call without one, NaN entries' bits included, on
    one scratch serving batches of several sizes in turn."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weights = rng.normal(size=(c_out, c_in, 3, 3)).astype(dtype)
    bias = rng.normal(size=c_out).astype(dtype)
    scratch = layers.ConvScratch()
    with np.errstate(all="ignore"):
        for n in batches:
            x, _ = data.draw(conv_arrays(dtype, c_in, c_out, h, w, n))
            pure, _ = layers.conv3_forward(x, weights, bias)
            lent, _ = layers.conv3_forward(x, weights, bias, scratch=scratch)
            assert _bits(lent) == _bits(pure)
            assert np.shares_memory(lent, scratch.take("out", (n, c_out, h * w), dtype))


def _compact_conv3(x, weights, bias, dout):
    """(out, dx, dw, db) of a same-padded 3x3 conv from the compact im2col
    and col2im formulation: nine strided (H, W) slices of the zero-padded
    input stacked into a patch matrix, and nine strided adds of the patch
    gradient into a zero-padded input gradient."""
    batch, c_in, h, w = x.shape
    out, cols, dx = _conv3_reference(x, weights, bias, dout)
    dflat = dout.reshape(batch, -1, h * w)
    dw = np.matmul(dflat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weights.shape)
    return out, dx, dw, dout.sum(axis=(0, 2, 3))


def _bits(a):
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def _bits_outside_nan(a):
    """``_bits`` with the NaN mask in place of the NaN entries' bits."""
    a = np.ascontiguousarray(a)
    nan = np.isnan(a)
    return a.dtype, a.shape, nan.tobytes(), a[~nan].tobytes()


@st.composite
def conv_arrays(draw, dtype, c_in, c_out, h, w, n):
    """(x, dout) of n samples: normal values with some entries replaced by
    -0.0, 0.0, +-inf or nan, so signed zeros and non-finite values reach the
    image edges and the wrapped patch entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = []
    for shape in ((n, c_in, h, w), (n, c_out, h, w)):
        a = rng.normal(size=shape).astype(dtype)
        if draw(st.booleans()):
            special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan], dtype)
            where = rng.random(shape) < 0.05
            a[where] = rng.choice(special, size=int(where.sum()))
        arrays.append(a)
    return arrays


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([np.float32, np.float64]),
       st.lists(st.integers(1, 40), min_size=1, max_size=3),
       st.integers(1, 16), st.integers(1, 16),
       st.integers(1, 16).map(lambda k: 2 * k), st.integers(1, 16).map(lambda k: 2 * k),
       st.booleans())
def test_conv_kernels_give_the_bits_of_the_compact_formulation(
    data, dtype, batches, c_in, c_out, h, w, input_grad
):
    """Forward output and dx, dw, db of the flat-shift kernels against the
    compact formulation, without a scratch and on one scratch serving batches
    of several sizes in turn: the same NaN entries, and the bits of every
    other entry.

    NaN payloads are outside the claim. An inf or nan in the inputs makes
    NaNs of both signs, and when ``a += b`` meets NaNs in both operands,
    NumPy keeps one operand's NaN in SIMD lanes and the other's in the scalar
    tail; the kernel's flat adds and the formulation's strided 2-D adds put
    an entry at different places in that loop."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weights = rng.normal(size=(c_out, c_in, 3, 3)).astype(dtype)
    bias = rng.normal(size=c_out).astype(dtype)
    scratch = layers.ConvScratch()
    with np.errstate(all="ignore"):
        for n in batches:
            x, dout = data.draw(conv_arrays(dtype, c_in, c_out, h, w, n))
            want = _compact_conv3(x, weights, bias, dout)
            for kwargs in ({}, {"scratch": scratch}):
                out, cache = layers.conv3_forward(x, weights, bias, **kwargs)
                dx, dw, db = layers.conv3_backward(dout, cache, input_grad=input_grad, **kwargs)
                assert _bits_outside_nan(out) == _bits_outside_nan(want[0])
                if input_grad:
                    assert _bits_outside_nan(dx) == _bits_outside_nan(want[1])
                else:
                    assert dx is None
                assert _bits_outside_nan(dw) == _bits_outside_nan(want[2])
                assert _bits_outside_nan(db) == _bits_outside_nan(want[3])


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 8), st.integers(1, 8),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
def test_maxpool2_forward_gives_the_bits_of_the_window_views(b, c, h, w, dtype, seed):
    """max(max(v0, v1), max(v2, v3)) over the four window views, with
    signed zeros and nans, so that which tied element wins shows in the bits.
    Every nan here has ``np.nan``'s bits and a max only passes an operand
    on, so the NaN entries' bits are compared too."""
    values = np.array([-1.0, -0.0, 0.0, 1.0, np.nan], dtype)
    x = np.random.default_rng(seed).choice(values, size=(b, c, 2 * h, 2 * w))
    v0, v1, v2, v3 = layers._pool_views(x)
    out, _ = layers.maxpool2_forward(x)
    assert _bits(out) == _bits(np.maximum(np.maximum(v0, v1), np.maximum(v2, v3)))


def _im2col3_nine_slices(x, scratch):
    """The patch matrix as nine slice copies, one per 3x3 offset, each from
    the flat zero-bordered copy of each channel, before the wrap clearing."""
    b, c, h, w = x.shape
    n = h * w
    xp = scratch.take("xp", (b, c, n + 2 * w + 2), x.dtype)
    xp[:, :, w + 1 : w + 1 + n] = x.reshape(b, c, n)
    cols = scratch.take("cols", (b, c, 3, 3, n), x.dtype)
    for di, dj in np.ndindex(3, 3):
        cols[:, :, di, dj] = xp[:, :, di * w + dj : di * w + dj + n]
    layers._clear_wrapped(cols, w)
    return cols.reshape(b, c * 9, n)


SPECIAL_VALUES = st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([np.float32, np.float64]),
       st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(1, 4), st.integers(1, 9))
def test_im2col_copy_gives_the_bits_of_the_nine_slices(data, dtype, batches, c, side):
    """One strided copy makes the patch matrix of the nine slice copies,
    NaN payloads and signed zeros included, on one scratch per formulation
    serving growing and shrinking batches in turn."""
    width = 32 if dtype == np.float32 else 64
    values = st.floats(width=width) | SPECIAL_VALUES
    scratch, oracle_scratch = layers.ConvScratch(), layers.ConvScratch()
    for b in batches:
        x = data.draw(hnp.arrays(dtype, (b, c, side, side), elements=values))
        want = _bits(_im2col3_nine_slices(x, oracle_scratch))
        assert _bits(layers._im2col3(x, scratch)) == want


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([np.float32, np.float64]),
       st.integers(1, 7), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5))
def test_maxpool2_backward_over_its_input_gives_the_fresh_bits(data, dtype, b, c, h, w):
    """The input gradient written over the cached input has the bits of a
    fresh one, NaN payloads included, with ties, signed zeros, infinities
    and NaNs in both ``x`` and ``dout``; the fresh call leaves ``x`` as it
    was."""
    values = st.floats(width=32 if dtype == np.float32 else 64) | SPECIAL_VALUES
    ties = st.sampled_from([-1.0, 1.0]) | SPECIAL_VALUES
    x = data.draw(hnp.arrays(dtype, (b, c, 2 * h, 2 * w), elements=ties | values))
    dout = data.draw(hnp.arrays(dtype, (b, c, h, w), elements=values))
    x_bits = _bits(x)
    _, cache = layers.maxpool2_forward(x)
    with np.errstate(invalid="ignore"):  # an inf times an unclaimed 0
        fresh = layers.maxpool2_backward(dout, cache)
        assert _bits(x) == x_bits
        assert layers.maxpool2_backward(dout, cache, out=x) is x
    assert _bits(x) == _bits(fresh)
