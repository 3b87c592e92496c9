import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkmass.config import config_from_dict, config_to_dict
from sinkmass.errors import (
    MissingMetadata,
    MissingSecondView,
    NonPositiveTargetInLogSpace,
    ShapeMismatch,
)
from sinkmass.linear import TargetSpace
from sinkmass.neural.losses import (
    LossKind,
    LossSpace,
    cross_entropy,
    regression_loss,
    softmax,
)
from sinkmass.neural.model import (
    Architecture,
    Batch,
    HeadKind,
    MetadataInput,
    ModelConfig,
    NeuralNet,
    init_params,
)
from sinkmass.neural.optim import AdamWState, adamw_step, cosine_lr
from sinkmass.neural.training import FreezeMode
from sinkmass.rng import substream

ALL_META = (
    MetadataInput.FRAME_AREA,
    MetadataInput.MEAN_AREA,
    MetadataInput.SINKING_SPEED,
)


def tiny_config(arch=Architecture.SINGLE_VIEW, head=HeadKind.ONE_LAYER, space=TargetSpace.RAW):
    return ModelConfig(
        architecture=arch,
        encoder_channels=(2, 3),
        head=head,
        head_hidden=4,
        metadata_inputs=ALL_META if arch is Architecture.METADATA_AWARE else (),
        target_space=space,
        input_size=8,
    )


def tiny_batch(rng, config, n=4):
    return Batch(
        images=rng.normal(0.5, 0.25, size=(n, 1, 8, 8)),
        images2=(
            rng.normal(0.5, 0.25, size=(n, 1, 8, 8))
            if config.architecture is Architecture.MULTI_VIEW
            else None
        ),
        metadata=(
            rng.normal(0.0, 1.0, size=(n, len(config.metadata_inputs)))
            if config.metadata_inputs
            else None
        ),
    )


class TestModelConfig:
    def test_metadata_hidden_defaults_to_twice_inputs(self):
        config = tiny_config(Architecture.METADATA_AWARE)
        assert config.metadata_hidden == 6

    def test_two_inputs_give_width_four(self):
        config = ModelConfig(
            architecture=Architecture.METADATA_AWARE,
            encoder_channels=(2,),
            metadata_inputs=(MetadataInput.MEAN_AREA, MetadataInput.SINKING_SPEED),
            input_size=8,
        )
        assert config.metadata_hidden == 4

    def test_metadata_aware_requires_inputs(self):
        with pytest.raises(ValueError):
            ModelConfig(architecture=Architecture.METADATA_AWARE, input_size=8)

    def test_input_size_must_survive_pooling(self):
        with pytest.raises(ValueError):
            ModelConfig(encoder_channels=(2, 3, 4), input_size=9)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_dict(self, data):
        arch = data.draw(st.sampled_from(Architecture))
        metadata = ()
        if arch is Architecture.METADATA_AWARE:
            metadata = tuple(data.draw(st.lists(st.sampled_from(MetadataInput), min_size=1, max_size=4)))
        channels = tuple(data.draw(st.lists(st.integers(1, 16), min_size=1, max_size=3)))
        config = ModelConfig(
            architecture=arch,
            encoder_channels=channels,
            head=data.draw(st.sampled_from(HeadKind)),
            head_hidden=data.draw(st.integers(1, 64)),
            metadata_inputs=metadata,
            metadata_hidden=data.draw(st.none() | st.integers(1, 8)),
            target_space=data.draw(st.sampled_from(TargetSpace)),
            input_size=2 ** len(channels) * data.draw(st.integers(1, 8)),
            n_classes=data.draw(st.none() | st.integers(2, 12)),
        )
        payload = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(ModelConfig, payload) == config


class TestForward:
    def test_encoder_output_width_matches_last_block(self, rng):
        config = ModelConfig(encoder_channels=(8, 16), input_size=32)
        net = NeuralNet(config, init_params(config, rng))
        z, _ = net._encode("enc", rng.normal(size=(3, 1, 32, 32)))
        assert z.shape == (3, 16)

    def test_zero_final_conv_gives_zero_features(self, rng):
        config = ModelConfig(encoder_channels=(2, 3), input_size=8)
        params = init_params(config, rng)
        params["enc.1.w"][:] = 0.0
        params["enc.1.b"][:] = 0.0
        net = NeuralNet(config, params)
        z, _ = net._encode("enc", rng.normal(size=(2, 1, 8, 8)))
        assert np.all(z == 0.0)

    def test_deterministic(self, rng):
        config = tiny_config()
        net = NeuralNet(config, init_params(config, rng))
        batch = tiny_batch(rng, config)
        assert np.array_equal(net.forward(batch), net.forward(batch))

    def test_zero_head_weights_return_bias(self, rng):
        config = tiny_config()
        params = init_params(config, rng)
        params["head.0.w"][:] = 0.0
        params["head.0.b"][:] = 2.75
        net = NeuralNet(config, params)
        out = net.forward(tiny_batch(rng, config))
        assert np.allclose(out, 2.75)

    def test_multi_view_concat_width(self, rng):
        config = tiny_config(Architecture.MULTI_VIEW)
        assert config.feature_width == 2 * config.encoder_channels[-1]
        net = NeuralNet(config, init_params(config, rng))
        assert net.params["head.0.w"].shape[1] == config.feature_width

    def test_metadata_concat_width(self):
        config = tiny_config(Architecture.METADATA_AWARE)
        assert config.feature_width == config.encoder_channels[-1] + config.metadata_hidden

    def test_missing_second_view_raises(self, rng):
        config = tiny_config(Architecture.MULTI_VIEW)
        net = NeuralNet(config, init_params(config, rng))
        batch = Batch(images=rng.normal(size=(2, 1, 8, 8)))
        with pytest.raises(MissingSecondView):
            net.forward(batch)

    def test_missing_metadata_raises(self, rng):
        config = tiny_config(Architecture.METADATA_AWARE)
        net = NeuralNet(config, init_params(config, rng))
        batch = Batch(images=rng.normal(size=(2, 1, 8, 8)))
        with pytest.raises(MissingMetadata):
            net.forward(batch)

    def test_wrong_image_shape_raises(self, rng):
        config = tiny_config()
        net = NeuralNet(config, init_params(config, rng))
        with pytest.raises(ShapeMismatch):
            net.forward(Batch(images=rng.normal(size=(2, 1, 16, 16))))

    def test_metadata_relu_suppresses_negatives(self):
        config = ModelConfig(
            architecture=Architecture.METADATA_AWARE,
            encoder_channels=(2,),
            metadata_inputs=(MetadataInput.MEAN_AREA, MetadataInput.SINKING_SPEED),
            input_size=8,
        )
        params = init_params(config, substream(0, "t"))
        params["meta.0.w"] = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        params["meta.0.b"][:] = 0.0
        params["meta.1.w"] = np.eye(4)
        params["meta.1.b"][:] = 0.0
        net = NeuralNet(config, params)
        z, _ = net._mlp("meta", np.array([[-1.0, 2.0]]))
        assert z[0].tolist() == [0.0, 2.0, 0.0, 0.0]


class TestGradients:
    @pytest.mark.parametrize(
        "arch,kind,space,head",
        list(
            itertools.product(
                list(Architecture),
                [LossKind.L1, LossKind.L2],
                [LossSpace.LINEAR],
                list(HeadKind),
            )
        ),
    )
    def test_spot_gradient_check(self, arch, kind, space, head):
        # the exhaustive 36-combination sweep lives in the acceptance suite;
        # this spot-checks every architecture/head pairing on two losses
        rng = substream(42, "spot", arch.value, kind.value, head.value)
        config = tiny_config(arch, head)
        params = init_params(config, rng)
        net = NeuralNet(config, params)
        batch = tiny_batch(rng, config)
        y = rng.uniform(2.0, 9.0, size=4)
        out, cache = net.forward_cached(batch)
        _, dout = regression_loss(kind, space, y, out)
        grads = net.backward(cache, dout)
        h = 1e-5
        for name in ("head.0.w", "enc.0.w"):
            flat = params[name].ravel()
            gflat = grads[name].ravel()
            for i in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = regression_loss(kind, space, y, net.forward(batch))
                flat[i] = orig - h
                lm, _ = regression_loss(kind, space, y, net.forward(batch))
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(gflat[i] - fd) / (abs(gflat[i]) + 1e-8) < 1e-4

    @pytest.mark.parametrize("arch", list(Architecture))
    @pytest.mark.parametrize("freeze", list(FreezeMode))
    def test_frozen_branches_get_no_gradients(self, rng, arch, freeze):
        config = tiny_config(arch, HeadKind.TWO_LAYER)
        params = init_params(config, rng)
        net = NeuralNet(config, params)
        batch = tiny_batch(rng, config)
        y = rng.uniform(1.0, 5.0, size=4)
        out, cache = net.forward_cached(batch)
        _, dout = regression_loss(LossKind.L2, LossSpace.LINEAR, y, out)
        grads = net.backward(cache, dout, freeze.branches)
        _, cache = net.forward_cached(batch)  # a cache serves one backward call
        full = net.backward(cache, dout)
        assert set(full) == set(params)
        frozen = {name for name in params if name.split(".")[0] in freeze.branches}
        assert set(grads) == set(params) - frozen
        for name, g in grads.items():
            assert np.array_equal(g, full[name]) and np.any(g != 0.0)


# SHA-256 of init_params(tiny_config(arch, head) with n_classes, default_rng(15))
# over sorted names, shapes and float64 bytes; a change to the draw order or
# to any layer's shape or fan-in moves the hash, and so every checkpoint
INIT_PARAMS_SHA256 = {
    ("single_view", "one_layer", None): "d182bd614f33d86fa1b5e82c6a6ea126d0cb5e4278a1bb851f394e65269a35e6",
    ("single_view", "one_layer", 3): "f66706a47dacaab00152b325431ae6b3f32cd618ae9ab858dc4252324a23da18",
    ("single_view", "two_layer", None): "3e97e2d828c018782a56ee534bf32dda7c0253a2af63a95b09e95be3eef802df",
    ("single_view", "two_layer", 3): "08b8404328af1ffc87421aa61629d9cd09500dcc5f3275c3bf47e7494b64b8ee",
    ("multi_view", "one_layer", None): "ea962989bacdd81d66c1c099de04b651aad93fc70977d271597c421dfe85a983",
    ("multi_view", "one_layer", 3): "5d248455fb8169e7f34e54e4399de87fe3843b8d588bac79534a5c38dab4089f",
    ("multi_view", "two_layer", None): "2a7ffa57d682a7082e91e60954b560be20b39c198cdd37fddfa0e26226ae5729",
    ("multi_view", "two_layer", 3): "f5fa9f7f164c59dd7cf00a497841396ff55d2e6cfb66db1fb01018f869a19d8d",
    ("metadata_aware", "one_layer", None): "7072c1d1a970beccc39f307af9250679338f60d272524c76ce6b423c38ba6e77",
    ("metadata_aware", "one_layer", 3): "df109fc04b2afcc7db71609716befba300d80a88fc7ee4cbec0c510c10c398d9",
    ("metadata_aware", "two_layer", None): "d2364a569c5fa07b74173bad2599c7b0453b71dbc17d428f0d70545df8644d38",
    ("metadata_aware", "two_layer", 3): "66dd8e572edd88ef91cd9f27c6c29a3e3d410662816027af8d5db72f9bebabb3",
}


@pytest.mark.parametrize("arch,head,n_classes", sorted(INIT_PARAMS_SHA256, key=str))
def test_init_params_hash_is_pinned(arch, head, n_classes):
    config = dataclasses.replace(
        tiny_config(Architecture(arch), HeadKind(head)), n_classes=n_classes
    )
    params = init_params(config, np.random.default_rng(15))
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(f"{name}{params[name].shape}".encode())
        digest.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    assert digest.hexdigest() == INIT_PARAMS_SHA256[arch, head, n_classes]


class TestLosses:
    def test_l1_hand_value(self):
        val, _ = regression_loss(
            LossKind.L1, LossSpace.LINEAR, np.array([1.0, 2.0, 4.0]), np.array([2.0, 2.0, 2.0])
        )
        assert val == pytest.approx(1.0)

    def test_ape_hand_value(self):
        val, _ = regression_loss(
            LossKind.APE, LossSpace.LINEAR, np.array([1.0, 2.0, 4.0]), np.array([2.0, 2.0, 2.0])
        )
        assert val == pytest.approx(0.5)

    def test_log_loss_equals_linear_loss_on_log_targets(self, rng):
        y = rng.uniform(0.5, 20.0, size=10)
        net_out = rng.normal(size=10)
        for kind in LossKind:
            log_val, _ = regression_loss(kind, LossSpace.LOG, y, net_out)
            lin_val, _ = regression_loss(kind, LossSpace.LINEAR, np.log(y), net_out)
            assert log_val == lin_val

    def test_non_positive_target_rejected_in_log_space(self):
        with pytest.raises(NonPositiveTargetInLogSpace):
            regression_loss(LossKind.L1, LossSpace.LOG, np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_l2_gradient_closed_form(self, rng):
        # scalar linear model yhat = w*x under L2: dL/dw = 2*mean((yhat-y)*x)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        w = 0.8
        _, dout = regression_loss(LossKind.L2, LossSpace.LINEAR, y, w * x)
        assert float(dout @ x) == pytest.approx(2 * np.mean((w * x - y) * x), rel=1e-12)

    def test_softmax_uniform_and_shift_invariance(self, rng):
        logits = np.zeros((1, 5))
        assert np.allclose(softmax(logits), 0.2)
        z = rng.normal(size=(3, 4))
        assert np.allclose(softmax(z), softmax(z + 11.3))

    def test_two_class_closed_form(self):
        probs = softmax(np.array([[math.log(3.0), 0.0]]))
        assert probs[0, 0] == pytest.approx(0.75, abs=1e-12)
        assert probs[0, 1] == pytest.approx(0.25, abs=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(10, 7)) * 20)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("space", list(LossSpace))
    def test_regression_loss_follows_the_output_dtype(self, rng, kind, space):
        y = rng.uniform(2.0, 50.0, size=9)
        yhat = rng.normal(1.0, 2.0, size=9)
        value64, grad64 = regression_loss(kind, space, y, yhat)
        value32, grad32 = regression_loss(kind, space, y, yhat.astype(np.float32))
        assert grad64.dtype == np.float64
        assert grad32.dtype == np.float32
        assert value32 == pytest.approx(value64, rel=1e-5)
        assert np.allclose(grad32, grad64, rtol=1e-5, atol=0)

    def test_cross_entropy_finite_at_a_large_logit_gap(self):
        # exp(-120) underflows to zero in float32, so the picked probability
        # of the first sample is 0 there
        logits = np.array([[120.0, 0.0], [0.0, 1.3]])
        labels = np.array([1, 0])
        expected = (120.0 + math.log1p(math.exp(-120.0)) + math.log1p(math.exp(1.3))) / 2
        for dtype in (np.float32, np.float64):
            value, grad = cross_entropy(logits.astype(dtype), labels)
            assert math.isfinite(value)
            assert value == pytest.approx(expected, rel=1e-6)
            assert grad.dtype == dtype

    def test_cross_entropy_gradient_matches_fd(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 1])
        _, grad = cross_entropy(logits, labels)
        h = 1e-6
        for i in range(3):
            for j in range(4):
                logits[i, j] += h
                lp, _ = cross_entropy(logits, labels)
                logits[i, j] -= 2 * h
                lm, _ = cross_entropy(logits, labels)
                logits[i, j] += h
                assert grad[i, j] == pytest.approx((lp - lm) / (2 * h), abs=1e-6)


class TestAdamW:
    def test_zero_gradient_zero_decay_leaves_parameters(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamWState()
        adamw_step(params, grads, state, lr=0.1)
        assert params["w"].tolist() == [1.0, -2.0]

    def test_zero_gradient_with_decay_shrinks(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamWState()
        adamw_step(params, grads, state, lr=0.1, weight_decay=0.5)
        assert np.allclose(params["w"], np.array([1.0, -2.0]) * (1 - 0.1 * 0.5))

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        # scalar simulation: with a constant gradient the Adam update
        # normalizes to a step of size lr
        params = {"w": np.array([0.0])}
        state = AdamWState()
        lr = 0.01
        last = params["w"][0]
        for _ in range(500):
            last = params["w"][0]
            adamw_step(params, {"w": np.array([3.7])}, state, lr=lr)
        assert abs(abs(params["w"][0] - last) - lr) < 1e-4

    def test_parameter_without_gradient_is_left_untouched(self):
        params = {"enc.0.w": np.array([1.0, -2.0]), "head.0.w": np.array([1.0, 0.5])}
        full = {name: w.copy() for name, w in params.items()}
        grads = {"enc.0.w": np.array([5.0, 1.0]), "head.0.w": np.array([5.0, -3.0])}
        state, full_state = AdamWState(), AdamWState()
        for _ in range(3):
            adamw_step(params, {"head.0.w": grads["head.0.w"]}, state, lr=0.1, weight_decay=0.1)
            adamw_step(full, grads, full_state, lr=0.1, weight_decay=0.1)
        # bit-identical despite the weight decay, and no moments made for it
        assert params["enc.0.w"].tobytes() == np.array([1.0, -2.0]).tobytes()
        assert set(state.m) == set(state.v) == {"head.0.w"}
        # the parameter with a gradient gets the update it gets among all
        assert params["head.0.w"].tobytes() == full["head.0.w"].tobytes()
        assert not np.array_equal(params["head.0.w"], [1.0, 0.5])

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        grads = {"w": np.zeros(4)}
        with pytest.raises(ShapeMismatch):
            adamw_step(params, grads, AdamWState(), lr=0.1)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1.0, 0.1) == pytest.approx(1.0)
        assert cosine_lr(100, 100, 1.0, 0.1) == pytest.approx(0.1)
        assert cosine_lr(50, 100, 1.0, 0.1) == pytest.approx(0.55)

    def test_monotone_decreasing(self):
        values = [cosine_lr(s, 40, 2.0, 0.0) for s in range(41)]
        assert all(a >= b for a, b in zip(values, values[1:]))
