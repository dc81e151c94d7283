import re

import numpy as np
import pytest

from mmreg import nn
from helpers import (central_diff_grad, conv2d_forward_oracle, max_rel_error,
                     maxpool2x2_oracle)


def make_conv(seed, k_count, k, c_in, padding=0, dtype=np.float32):
    kernels = nn.he_init((k_count, k, k, c_in), seed=seed, dtype=dtype)
    biases = nn.he_init((k_count,), seed=seed + 1, dtype=dtype) * 0.1
    return nn.ConvParams(kernels=kernels, biases=biases.astype(dtype), padding=padding)


class TestConvForward:
    def test_stage_output_shape(self):
        x = np.random.default_rng(0).random((32, 32, 6), dtype=np.float32)
        params = make_conv(1, 32, 5, 6, padding=2)
        assert nn.conv2d_forward(x[None], params)[0].shape == (32, 32, 32)

    def test_identity_1x1_kernel_selects_channel(self):
        x = np.random.default_rng(1).random((7, 5, 3), dtype=np.float32)
        kernels = np.zeros((1, 1, 1, 3), dtype=np.float32)
        kernels[0, 0, 0, 1] = 1.0
        params = nn.ConvParams(kernels=kernels, biases=np.zeros(1, dtype=np.float32))
        out = nn.conv2d_forward(x[None], params)[0]
        np.testing.assert_array_equal(out[:, :, 0], x[:, :, 1])

    def test_ones_3x3_padded(self):
        x = np.ones((3, 3, 1), dtype=np.float32)
        params = nn.ConvParams(kernels=np.ones((1, 3, 3, 1), dtype=np.float32),
                               biases=np.zeros(1, dtype=np.float32), padding=1)
        out = nn.conv2d_forward(x[None], params)[0][:, :, 0]
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float32)
        np.testing.assert_array_equal(out, expected)

    def test_channel_mismatch_names_shapes(self):
        x = np.zeros((8, 8, 3), dtype=np.float32)
        params = make_conv(2, 2, 3, 4)
        with pytest.raises(ValueError, match=r"3.*4"):
            nn.conv2d_forward(x[None], params)

    def test_too_small_input_rejected(self):
        x = np.zeros((2, 2, 1), dtype=np.float32)
        params = make_conv(4, 1, 5, 1)
        with pytest.raises(ValueError, match="too small"):
            nn.conv2d_forward(x[None], params)

    def test_matches_reference_random_cases(self):
        rng = np.random.default_rng(42)
        for k in (1, 3, 5):
            for _ in range(4):
                h = int(rng.integers(k, 17))
                w = int(rng.integers(k, 17))
                c = int(rng.integers(1, 5))
                n_k = int(rng.integers(1, 5))
                pad = int(rng.integers(0, 3))
                x = rng.standard_normal((h, w, c))
                params = nn.ConvParams(kernels=rng.standard_normal((n_k, k, k, c)),
                                       biases=rng.standard_normal(n_k), padding=pad)
                fast = nn.conv2d_forward(x[None], params)[0]
                ref = nn.conv2d_forward_reference(x, params)
                assert np.max(np.abs(fast - ref)) < 1e-6

    def test_same_padding_preserves_size(self):
        for k in (3, 5, 7):
            x = np.random.default_rng(k).random((12, 10, 2), dtype=np.float32)
            params = make_conv(k, 3, k, 2, padding=(k - 1) // 2)
            assert nn.conv2d_forward(x[None], params)[0].shape == (12, 10, 3)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(7)
        xb = rng.random((3, 9, 9, 2), dtype=np.float32)
        params = make_conv(9, 4, 3, 2, padding=1)
        batched = nn.conv2d_forward(xb, params)
        for i in range(3):
            np.testing.assert_array_equal(batched[i], nn.conv2d_forward(xb[i][None], params)[0])


class TestConvForwardOracle:
    @pytest.mark.parametrize("batch", [1, 3, 50])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes_as_one_gemm_per_patch(self, batch, k, dtype):
        rng = np.random.default_rng(batch * 10 + k)
        x = rng.standard_normal((batch, 16, 12, 6)).astype(dtype)
        params = make_conv(k, 8, k, 6, padding=(k - 1) // 2, dtype=dtype)
        want = conv2d_forward_oracle(x, params)
        cols = np.empty((batch, 16 * 12, k * k * 6), dtype=dtype)
        out = np.empty(want.shape, dtype=dtype)
        got = nn.conv2d_forward(x, params, cols=cols, out=out)
        assert np.shares_memory(got, out)
        for y in (nn.conv2d_forward(x, params), got):
            assert y.dtype == want.dtype and y.shape == want.shape
            assert y.tobytes() == want.tobytes()


class TestConvBackward:
    def test_scalar_chain_rule(self):
        x = np.array([[[2.0]]])
        params = nn.ConvParams(kernels=np.array([[[[3.0]]]]), biases=np.zeros(1))
        g = np.array([[[5.0]]])
        dx, grads = nn.conv2d_backward(x[None], params, g[None])
        assert dx[0][0, 0, 0] == pytest.approx(15.0)   # w * g
        assert grads.kernels[0, 0, 0, 0] == pytest.approx(10.0)  # x * g
        assert grads.biases[0] == pytest.approx(5.0)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(11)
        x = rng.random((6, 6, 2), dtype=np.float32)
        params = make_conv(12, 3, 3, 2, padding=1)
        dx, grads = nn.conv2d_backward(x[None], params,
                                       np.zeros((6, 6, 3), dtype=np.float32)[None])
        assert not dx.any()
        assert not grads.kernels.any()
        assert not grads.biases.any()

    def test_shape_mismatch_rejected(self):
        x = np.zeros((6, 6, 2), dtype=np.float32)
        params = make_conv(13, 3, 3, 2, padding=1)
        with pytest.raises(ValueError, match="upstream"):
            nn.conv2d_backward(x[None], params, np.zeros((5, 6, 3), dtype=np.float32)[None])

    def test_finite_differences_random(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 8, 3))
        params = nn.ConvParams(kernels=rng.standard_normal((4, 3, 3, 3)),
                               biases=rng.standard_normal(4), padding=1)
        upstream = rng.standard_normal((8, 8, 4))

        dx, grads = nn.conv2d_backward(x[None], params, upstream[None])

        def loss_wrt_input(x_):
            return float(np.sum(nn.conv2d_forward(x_[None], params)[0] * upstream))

        def loss_wrt_kernels(k_):
            p = nn.ConvParams(kernels=k_, biases=params.biases, padding=1)
            return float(np.sum(nn.conv2d_forward(x[None], p)[0] * upstream))

        assert max_rel_error(dx[0], central_diff_grad(loss_wrt_input, x)) < 1e-6
        assert max_rel_error(grads.kernels, central_diff_grad(loss_wrt_kernels, params.kernels)) < 1e-6

    def test_skipping_input_grad_keeps_param_grads(self):
        rng = np.random.default_rng(22)
        xb = rng.random((4, 8, 8, 3), dtype=np.float32)
        params = make_conv(24, 5, 5, 3, padding=2)
        ub = rng.standard_normal((4, 8, 8, 5)).astype(np.float32)
        _, full = nn.conv2d_backward(xb, params, ub)
        dx, skipped = nn.conv2d_backward(xb, params, ub, input_grad=False)
        assert dx is None
        assert skipped.kernels.tobytes() == full.kernels.tobytes()
        assert skipped.biases.tobytes() == full.biases.tobytes()

    def test_batch_accumulates_param_grads(self):
        rng = np.random.default_rng(21)
        xb = rng.standard_normal((3, 6, 6, 2))
        params = nn.ConvParams(kernels=rng.standard_normal((2, 3, 3, 2)),
                               biases=rng.standard_normal(2), padding=1)
        ub = rng.standard_normal((3, 6, 6, 2))
        dxb, grads = nn.conv2d_backward(xb, params, ub)
        k_sum = np.zeros_like(params.kernels)
        for i in range(3):
            dxi, gi = nn.conv2d_backward(xb[i][None], params, ub[i][None])
            np.testing.assert_allclose(dxb[i], dxi[0], atol=1e-12)
            k_sum += gi.kernels
        np.testing.assert_allclose(grads.kernels, k_sum, atol=1e-10)


# (input side, Cin, K) of each conv stage, and the kernel size, of the
# default network and of test_model's SMALL_K3
NET_STAGES = {"default": ([(32, 4, 32), (16, 32, 32), (8, 32, 64)], 5),
              "k3": ([(16, 3, 4), (8, 4, 6), (4, 6, 8)], 3)}


class TestKernelGradChunks:
    """The kernel gradient from kernel-row chunks of rebuilt im2col rows,
    against the one tensordot over every row that it replaced."""

    @pytest.mark.parametrize("net", list(NET_STAGES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes_as_one_tensordot(self, net, dtype):
        stages, k = NET_STAGES[net]
        for stage, (side, c_in, k_count) in enumerate(stages):
            params = make_conv(60 + stage, k_count, k, c_in, padding=k // 2, dtype=dtype)
            for n in (1, 2, 3, 10, 11, 20, 21, 35, 62, 100):
                rng = np.random.default_rng(n)
                x = rng.random((n, side, side, c_in)).astype(dtype)
                u = rng.standard_normal((n, side, side, k_count)).astype(dtype)
                _, grads = nn.conv2d_backward(x, params, u, input_grad=False)
                cols = nn._im2col(nn._pad_input(x, k // 2), k, side, side)
                want = np.tensordot(cols, u.reshape(n, side * side, k_count),
                                    axes=([0, 1], [0, 1]))
                assert grads.kernels.tobytes() == want.T.reshape(params.kernels.shape).tobytes(), \
                    (stage, n)

    def test_chunks_into_the_given_buffer(self, monkeypatch):
        # a budget of two kernel rows splits k=5 into chunks of 2, 2 and 1
        rng = np.random.default_rng(70)
        x = rng.random((3, 8, 8, 2), dtype=np.float32)
        u = rng.standard_normal((3, 8, 8, 4)).astype(np.float32)
        params = make_conv(71, 4, 5, 2, padding=2)
        _, whole = nn.conv2d_backward(x, params, u, input_grad=False)
        row = 3 * 8 * 8 * 5 * 2  # im2col elements of one kernel row
        monkeypatch.setattr(nn, "_KERNEL_GRAD_CHUNK_BYTES", 2 * row * 4)
        cols = np.full(2 * row, np.nan, dtype=np.float32)
        _, chunked = nn.conv2d_backward(x, params, u, input_grad=False, cols=cols)
        assert chunked.kernels.tobytes() == whole.kernels.tobytes()
        assert not np.isnan(cols).any()  # the chunks were built there
        with pytest.raises(ValueError, match=f"at least {2 * row} elements"):
            nn.conv2d_backward(x, params, u, input_grad=False, cols=cols[1:])


class TestBatchOnly:
    @pytest.mark.parametrize("op", ["conv2d_forward", "conv2d_backward",
                                    "maxpool2x2_forward", "maxpool2x2_backward",
                                    "maxpool2x2_relu_backward"])
    def test_rank3_input_rejected_naming_shape(self, op):
        x = np.zeros((4, 4, 2))
        params = make_conv(50, 3, 3, 2, padding=1)
        idx = np.zeros((4, 4, 2), dtype=np.uint8)
        args = {"conv2d_forward": (x, params),
                "conv2d_backward": (x, params, np.zeros((4, 4, 3))),
                "maxpool2x2_forward": (x,),
                "maxpool2x2_backward": (idx, x),
                "maxpool2x2_relu_backward": (idx, x, np.zeros((8, 8, 2)))}[op]
        with pytest.raises(ValueError, match=re.escape("got shape (4, 4, 2)")):
            getattr(nn, op)(*args)


def maxpool_oracle(x):
    """The reshape/argmax/take_along_axis pooling that maxpool2x2_forward
    replaced; its (pooled, idx) bytes are the contract."""
    b, h, w, c = x.shape
    windows = (x.reshape(b, h // 2, 2, w // 2, 2, c)
                .transpose(0, 1, 3, 2, 4, 5)
                .reshape(b, h // 2, w // 2, 4, c))
    idx = windows.argmax(axis=3).astype(np.uint8)
    pooled = np.take_along_axis(windows, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return pooled, idx


def pool_case(kind, dtype, rng):
    shape = (3, 6, 8, 5)
    if kind == "random":
        return rng.standard_normal(shape).astype(dtype)
    if kind == "relu":
        return np.maximum(rng.standard_normal(shape), 0).astype(dtype)
    if kind == "zeros":
        return np.zeros(shape, dtype=dtype)
    if kind == "constant":
        return np.repeat(rng.random((3, 6, 8, 1)), 5, axis=3).astype(dtype)
    if kind == "signed_zero_ties":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(dtype)
    if kind == "all_negative":
        return -rng.random(shape).astype(dtype) - 0.5
    if kind == "nan_windows":  # NaN beside values and signed zeros
        x = np.where(rng.random(shape) < 0.3, -0.0, rng.standard_normal(shape)).astype(dtype)
        x[rng.random(shape) < 0.15] = np.nan
        return x
    # mixed signed zeros, with some windows also holding a positive value
    x = np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(dtype)
    x[rng.random(shape) < 0.1] = 0.25
    return x


class TestMaxPool:
    @pytest.mark.parametrize("kind", ["random", "relu", "zeros", "constant", "signed_zeros"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batched", [True, False])
    def test_matches_argmax_oracle_bitwise(self, kind, dtype, batched):
        x = pool_case(kind, dtype, np.random.default_rng(40))
        if not batched:
            x = x[1][None]
        pooled, idx = nn.maxpool2x2_forward(x)
        want_pooled, want_idx = maxpool_oracle(x)
        assert pooled.dtype == want_pooled.dtype and idx.dtype == want_idx.dtype
        assert pooled.shape == want_pooled.shape and idx.shape == want_idx.shape
        assert pooled.tobytes() == want_pooled.tobytes()
        assert idx.tobytes() == want_idx.tobytes()

    def test_window_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        pooled, idx = nn.maxpool2x2_forward(x[None])
        assert pooled[0][0, 0, 0] == 4.0
        assert idx[0][0, 0, 0] == 3  # position (1,1)

    def test_constant_input(self):
        x = np.full((4, 6, 2), 0.7, dtype=np.float32)
        pooled, idx = nn.maxpool2x2_forward(x[None])
        assert np.all(pooled == np.float32(0.7))
        assert np.all(idx == 0)  # ties to top-left

    def test_stage_output_shape(self):
        x = np.random.default_rng(3).random((32, 32, 32), dtype=np.float32)
        pooled, _ = nn.maxpool2x2_forward(x[None])
        assert pooled[0].shape == (16, 16, 32)

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            nn.maxpool2x2_forward(np.zeros((5, 4, 1))[None])

    def test_backward_routes_to_winner(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        _, idx = nn.maxpool2x2_forward(x[None])
        dx = nn.maxpool2x2_backward(idx, np.array([[[7.0]]])[None])
        np.testing.assert_array_equal(dx[0][:, :, 0], [[0, 0], [0, 7.0]])

    def test_backward_conserves_mass(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 10, 3))
        _, idx = nn.maxpool2x2_forward(x[None])
        upstream = rng.standard_normal((4, 5, 3))
        dx = nn.maxpool2x2_backward(idx, upstream[None])
        assert np.sum(dx) == pytest.approx(np.sum(upstream))

    def test_finite_differences_random(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((6, 6, 2))
        upstream = rng.standard_normal((3, 3, 2))

        _, idx = nn.maxpool2x2_forward(x[None])
        dx = nn.maxpool2x2_backward(idx, upstream[None])

        def loss(x_):
            pooled, _ = nn.maxpool2x2_forward(x_[None])
            return float(np.sum(pooled[0] * upstream))

        assert max_rel_error(dx[0], central_diff_grad(loss, x)) < 1e-6


class TestMaxPoolOracle:
    @pytest.mark.parametrize("kind", ["signed_zero_ties", "all_negative", "nan_windows",
                                      "random", "relu", "signed_zeros"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pooled_and_winners_same_bytes_as_forward(self, kind, dtype):
        rng = np.random.default_rng(41)
        x = pool_case(kind, dtype, rng)
        want_pooled, want_idx = maxpool2x2_oracle(x)
        pooled, idx = nn.maxpool2x2_forward(x)
        only = nn.maxpool2x2(x)
        assert only.tobytes() == pooled.tobytes() == want_pooled.tobytes()
        assert idx.dtype == want_idx.dtype and idx.tobytes() == want_idx.tobytes()
        assert only.dtype == x.dtype and only.shape == want_pooled.shape


def with_specials(x, rng, values):
    """x with about a tenth of its elements set to each of values."""
    x = x.copy()
    for value in values:
        x[rng.random(x.shape) < 0.1] = value
    return x


def fused_case(z, rng):
    """(winner indices, upstream) for pooling relu(z), upstream holding
    signed zeros, NaN and infinities."""
    _, idx = nn.maxpool2x2_forward(nn.relu(z))
    upstream = rng.standard_normal(idx.shape).astype(z.dtype)
    return idx, with_specials(upstream, rng, [-0.0, 0.0, np.nan, np.inf, -np.inf])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 under test
class TestMaxPoolReluBackward:
    """The fused training backward is the oracle pair, byte for byte, on the
    conv output before or after relu, and writes over that input."""

    @pytest.mark.parametrize("shape", [(3, 32, 32, 32), (3, 16, 16, 32), (3, 8, 8, 64)],
                             ids=["stage0", "stage1", "stage2"])  # the default net's conv outputs
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes_as_pair_at_stage_shapes(self, shape, dtype):
        rng = np.random.default_rng(60)
        z = with_specials(rng.standard_normal(shape).astype(dtype), rng, [-0.0, np.nan])
        idx, upstream = fused_case(z, rng)  # about a third of the windows hold NaN
        want = nn.relu_backward(z, nn.maxpool2x2_backward(idx, upstream)).tobytes()
        for conv_out in (z.copy(), nn.relu(z)):
            got = nn.maxpool2x2_relu_backward(idx, upstream, conv_out)
            assert got is conv_out and got.tobytes() == want

    @pytest.mark.parametrize("kind", ["signed_zero_ties", "all_negative", "nan_windows",
                                      "random", "signed_zeros"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes_as_pair_on_pool_cases(self, kind, dtype):
        rng = np.random.default_rng(61)
        z = pool_case(kind, dtype, rng)
        idx, upstream = fused_case(z, rng)
        want = nn.relu_backward(z, nn.maxpool2x2_backward(idx, upstream))
        assert nn.maxpool2x2_relu_backward(idx, upstream, z).tobytes() == want.tobytes()

    def test_window_example(self):
        # a window with its max at position 3, and a NaN window (index 3)
        z = np.array([[1.0, -2.0], [-0.0, 4.0], [3.0, 0.0], [5.0, np.nan]]).reshape(1, 4, 2, 1)
        _, idx = nn.maxpool2x2_forward(nn.relu(z))
        dz = nn.maxpool2x2_relu_backward(idx, np.array([7.0, -1.0]).reshape(1, 2, 1, 1), z)
        assert dz.ravel().tolist() == [0.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0, -0.0]
        assert np.signbit(dz.ravel()).tolist() == [False] * 7 + [True]

    def test_shape_mismatch_rejected(self):
        idx = np.zeros((1, 2, 2, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match=re.escape("input shape (1, 4, 6, 3) does not pool "
                                                       "to upstream shape (1, 2, 2, 3)")):
            nn.maxpool2x2_relu_backward(idx, np.zeros((1, 2, 2, 3)), np.zeros((1, 4, 6, 3)))


class TestRelu:
    def test_examples(self):
        np.testing.assert_array_equal(nn.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_grad_examples(self):
        x = np.array([-1.0, 2.0])
        up = np.array([5.0, 5.0])
        np.testing.assert_array_equal(nn.relu_backward(x, up), [0.0, 5.0])

    def test_abs_identity(self):
        x = np.random.default_rng(4).standard_normal(100)
        np.testing.assert_allclose(nn.relu(x) + nn.relu(-x), np.abs(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_same_bytes(self, dtype):
        rng = np.random.default_rng(5)
        x = with_specials(rng.standard_normal((3, 8, 8, 4)).astype(dtype), rng,
                          [-0.0, 0.0, np.nan, np.inf, -np.inf])
        want = nn.relu(x).tobytes()
        assert nn.relu_inplace(x) is x and x.tobytes() == want


class TestDenseSoftmaxXent:
    def test_uniform_logits(self):
        x = np.zeros(4)
        weights = np.zeros((9, 4))
        probs, loss, _ = nn.dense_softmax_xent(x, weights, 3)
        np.testing.assert_allclose(probs, np.full(9, 1 / 9), atol=1e-9)
        assert loss == pytest.approx(np.log(9), abs=1e-6)

    def test_dominant_true_logit(self):
        x = np.array([1.0])
        weights = np.array([[1000.0], [0.0], [0.0]])
        _, loss, _ = nn.dense_softmax_xent(x, weights, 0)
        assert loss < 1e-6

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(16)
        weights = rng.standard_normal((9, 16))
        probs, _, _ = nn.dense_softmax_xent(x, weights, 5)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            nn.dense_softmax_xent(np.zeros(2), np.zeros((3, 2)), 3)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((5, 9))
        np.testing.assert_allclose(nn.softmax(logits), nn.softmax(logits + 123.0), atol=1e-6)

    def test_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(8)
        weights = rng.standard_normal((5, 8))
        label = 2
        _, _, grads = nn.dense_softmax_xent(x, weights, label)

        def loss_wrt_w(w_):
            return nn.dense_softmax_xent(x, w_, label)[1]

        def loss_wrt_x(x_):
            return nn.dense_softmax_xent(x_, weights, label)[1]

        assert max_rel_error(grads.weights, central_diff_grad(loss_wrt_w, weights)) < 1e-6
        assert max_rel_error(grads.input, central_diff_grad(loss_wrt_x, x)) < 1e-6


class TestSgd:
    def test_plain_step(self):
        w, v = nn.sgd_step(np.array([1.0]), np.array([0.5]), 0.1, 0.0, np.zeros(1))
        assert w[0] == pytest.approx(0.95)

    def test_zero_grad_no_change(self):
        w0 = np.array([1.0, -2.0])
        w, _ = nn.sgd_step(w0, np.zeros(2), 0.1, momentum=0.9, velocity=np.zeros(2))
        np.testing.assert_array_equal(w, w0)

    def test_momentum_recursion(self):
        # hand-computed: v1 = g1, w1 = w0 - lr*v1; v2 = 0.9*v1 + g2, w2 = w1 - lr*v2
        w = np.array([1.0])
        g1, g2, lr = np.array([0.5]), np.array([0.25]), 0.1
        w, v = nn.sgd_step(w, g1, lr, momentum=0.9, velocity=np.zeros(1))
        w, v = nn.sgd_step(w, g2, lr, momentum=0.9, velocity=v)
        v1 = 0.5
        w1 = 1.0 - 0.1 * v1
        v2 = 0.9 * v1 + 0.25
        w2 = w1 - 0.1 * v2
        assert v[0] == pytest.approx(v2)
        assert w[0] == pytest.approx(w2)


    def test_updates_arrays_in_place(self):
        w = np.array([1.0, 2.0], dtype=np.float32)
        v = np.array([0.5, -0.5], dtype=np.float32)
        w_out, v_out = nn.sgd_step(w, np.array([1.0, 1.0], dtype=np.float32), 0.5,
                                   momentum=0.5, velocity=v)
        assert w_out is w and v_out is v
        np.testing.assert_array_equal(v, [1.25, 0.75])
        np.testing.assert_array_equal(w, [0.375, 1.625])


class TestHeInit:
    def test_deterministic_per_seed(self):
        a = nn.he_init((3, 4, 4, 2), seed=99)
        b = nn.he_init((3, 4, 4, 2), seed=99)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = nn.he_init((4, 4), seed=1)
        b = nn.he_init((4, 4), seed=2)
        assert not np.array_equal(a, b)

    def test_variance_matches_fan_in(self):
        samples = nn.he_init((1000, 100), seed=0, dtype=np.float64)
        var = samples.var()
        assert abs(var - 0.02) < 0.05 * 0.02

    def test_zero_mean(self):
        samples = nn.he_init((1000, 100), seed=3, dtype=np.float64)
        assert abs(samples.mean()) < 0.005


class TestDeterminism:
    def test_conv_bit_deterministic(self):
        rng = np.random.default_rng(31)
        x = rng.random((16, 16, 3), dtype=np.float32)
        params = make_conv(32, 8, 5, 3, padding=2)
        a = nn.conv2d_forward(x[None], params)[0]
        b = nn.conv2d_forward(x.copy()[None], params)[0]
        np.testing.assert_array_equal(a, b)

    def test_outputs_finite(self):
        rng = np.random.default_rng(33)
        x = rng.random((16, 16, 3), dtype=np.float32)
        params = make_conv(34, 8, 5, 3, padding=2)
        y = nn.conv2d_forward(x[None], params)[0]
        pooled, idx = nn.maxpool2x2_forward(nn.relu(y)[None])
        assert np.isfinite(y).all() and np.isfinite(pooled).all()
