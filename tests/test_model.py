import hashlib
import os
import re
import struct
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mmreg import model, nn, pipeline
from mmreg.pipeline import FormatError
from helpers import (cast_network, central_diff_grad, max_rel_error, predict_batch_oracle,
                     traced_peak)

TINY = model.ModelConfig(patch_size=8, channels=("Gr", "L"), filters=(2, 2, 2),
                         kernel_size=3, n_classes=3, seed=11)


def tiny_patches(rng, count, config=TINY):
    return rng.random((count, config.patch_size, config.patch_size,
                       len(config.channels)), dtype=np.float32)


def separable_dataset(rng, per_class=60, config=TINY):
    """Class k has mean level 0.15 + 0.3k plus noise: trivially learnable."""
    xs, ys = [], []
    for k in range(config.n_classes):
        base = 0.15 + 0.3 * k
        x = np.clip(base + 0.05 * rng.standard_normal(
            (per_class, config.patch_size, config.patch_size, len(config.channels))), 0, 1)
        xs.append(x.astype(np.float32))
        ys.append(np.full(per_class, k, dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys)


class TestBuildModel:
    def test_default_forward_probabilities(self):
        config = model.ModelConfig(channels=("R", "G", "B", "L", "U", "V"))
        net = model.build_model(config)
        patch = np.random.default_rng(0).random((32, 32, 6), dtype=np.float32)
        _, (probs,) = model.predict_batch(net, patch[None])
        assert probs.shape == (9,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_stage_shapes_default(self):
        net = model.build_model(model.ModelConfig(channels=("R", "G", "B", "L", "U", "V")))
        shapes = model.forward_shapes(net)
        assert shapes == [(32, 32, 6), (32, 32, 32), (16, 16, 32), (16, 16, 32),
                          (8, 8, 32), (8, 8, 64), (4, 4, 64), (9,)]

    def test_four_channel_kernels(self):
        net = model.build_model(model.ModelConfig(channels=("Gr", "L", "U", "V")))
        assert net.conv_layers[0].kernels.shape == (32, 5, 5, 4)

    def test_patch_size_must_be_multiple_of_8(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            model.build_model(model.ModelConfig(patch_size=30))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            model.build_model(model.ModelConfig(kernel_size=4))

    def test_same_padding_for_larger_kernels(self):
        for k in (5, 7, 9):
            net = model.build_model(model.ModelConfig(kernel_size=k))
            shapes = model.forward_shapes(net)
            assert shapes[1] == (32, 32, 32)
            assert shapes[-2] == (4, 4, 64)

    @pytest.mark.parametrize("changes", [{"filters": (100_000,) * 3}, {"kernel_size": 10_001}],
                             ids=["filters", "kernel"])
    def test_weight_cap_refused_before_allocating(self, changes):
        config = model.ModelConfig(**changes)
        with traced_peak() as traced, \
                pytest.raises(ValueError, match=r"weights take \d+ bytes, over the "
                              f"{model.MAX_WEIGHT_BYTES}-byte cap"):
            model.build_model(config)
        assert traced.peak < 1 << 20

    def test_build_peaks_near_the_weights(self):
        # kernel 31: 12.3 MB of float32 weights, drawn as float64 normals
        config = model.ModelConfig(kernel_size=31)
        with traced_peak() as traced:
            model.build_model(config)
        assert traced.peak < 1.3 * 4 * config.weight_count

    def test_biases_start_at_zero(self):
        net = model.build_model(TINY)
        for layer in net.conv_layers:
            assert not layer.biases.any()


class TestTrain:
    def test_loss_decreases_on_learnable_data(self):
        rng = np.random.default_rng(1)
        x, y = separable_dataset(rng)
        net = model.build_model(TINY)
        _, history = model.train(net, x, y, model.TrainConfig(
            batch_size=20, epochs=5, learning_rate=0.01, momentum=0.9, seed=2))
        assert len(history) == 5
        assert history[-1] < history[0]

    def test_zero_learning_rate_is_a_no_op(self):
        rng = np.random.default_rng(3)
        x, y = separable_dataset(rng, per_class=10)
        net = model.build_model(TINY)
        before = [p.copy() for p in net.parameters()]
        _, history = model.train(net, x, y, model.TrainConfig(
            batch_size=10, epochs=2, learning_rate=0.0, seed=4))
        for p, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p, b)
        assert history[0] == pytest.approx(history[1])

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        x, y = separable_dataset(rng, per_class=15)
        runs = []
        for _ in range(2):
            net = model.build_model(TINY)
            model.train(net, x, y, model.TrainConfig(batch_size=16, epochs=2,
                                                     learning_rate=0.05, seed=9))
            runs.append([p.copy() for p in net.parameters()])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_zero_epochs_only_initializes(self):
        rng = np.random.default_rng(6)
        x, y = separable_dataset(rng, per_class=5)
        net = model.build_model(TINY)
        before = [p.copy() for p in net.parameters()]
        _, history = model.train(net, x, y, model.TrainConfig(epochs=0))
        assert history == []
        for p, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_empty_dataset_rejected(self):
        net = model.build_model(TINY)
        with pytest.raises(ValueError, match="non-empty"):
            model.train(net, np.zeros((0, 8, 8, 2), dtype=np.float32),
                        np.zeros(0, dtype=np.int64), model.TrainConfig())

    def test_out_of_range_labels_rejected(self):
        rng = np.random.default_rng(7)
        net = model.build_model(TINY)
        x = tiny_patches(rng, 4)
        with pytest.raises(ValueError, match="labels outside"):
            model.train(net, x, np.array([0, 1, 2, 3]), model.TrainConfig())

    def test_batch_buffer_cap_refused_before_allocating(self):
        # kernel 31 at batch 100: the im2col rows alone would take 5.5 GB
        net = model.build_model(model.ModelConfig(kernel_size=31))
        x = np.zeros((100, 32, 32, 4), dtype=np.float32)
        y = np.zeros(100, dtype=np.int64)
        with traced_peak() as traced, \
                pytest.raises(ValueError, match=r"batches of 100 take 55\d{8} bytes, over the "
                              f"{model.MAX_BATCH_WORK_BYTES}-byte cap"):
            model.train(net, x, y, model.TrainConfig(batch_size=100, epochs=1))
        assert traced.peak < 1 << 20

    def test_batched_loss_matches_single_sample_op(self):
        rng = np.random.default_rng(8)
        net = model.build_model(TINY)
        x = tiny_patches(rng, 6)
        y = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
        loss, _, _, _ = model._batch_loss_and_grads(net, x, y)
        singles = []
        for i in range(6):
            flat = model._conv_stages(net, x[i:i + 1]).reshape(-1)
            _, li, _ = nn.dense_softmax_xent(flat, net.dense_weights, int(y[i]))
            singles.append(li)
        assert loss == pytest.approx(np.mean(singles), rel=1e-5)

    def test_end_to_end_gradients_tiny_network(self):
        rng = np.random.default_rng(9)
        net = cast_network(model.build_model(TINY), np.float64)
        x = rng.random((2, 8, 8, 2))
        y = np.array([1, 2], dtype=np.int64)
        _, conv_grads, d_dense, _ = model._batch_loss_and_grads(net, x, y)

        def loss_of_dense(w):
            probe = model.Network(net.config, net.conv_layers, w)
            return model._batch_loss_and_grads(probe, x, y)[0]

        assert max_rel_error(d_dense, central_diff_grad(loss_of_dense, net.dense_weights)) < 1e-6

        def loss_of_k0(k):
            layers = [nn.ConvParams(kernels=k, biases=net.conv_layers[0].biases,
                                    padding=1)] + net.conv_layers[1:]
            probe = model.Network(net.config, layers, net.dense_weights)
            return model._batch_loss_and_grads(probe, x, y)[0]

        numeric = central_diff_grad(loss_of_k0, net.conv_layers[0].kernels)
        assert max_rel_error(conv_grads[0].kernels, numeric) < 1e-4

    def test_checkpoint_bytes_pinned(self, tmp_path):
        # speed-ups of the training loop must keep checkpoints byte-identical;
        # the digest was recorded with numpy 2.4 and its bundled OpenBLAS
        # 0.3.31 on x86-64, and another BLAS build may round differently
        config = model.ModelConfig(patch_size=8, channels=("Gr", "L"), filters=(2, 3, 4),
                                   kernel_size=3, n_classes=3, seed=11)
        rng = np.random.default_rng(40)
        x = np.maximum(rng.standard_normal((50, 8, 8, 2)).astype(np.float32) * 0.3 + 0.5, 0)
        y = rng.integers(0, 3, size=50)
        net = model.build_model(config)
        model.train(net, x, y, model.TrainConfig(batch_size=16, epochs=3, learning_rate=0.05,
                                                 momentum=0.9, seed=2))
        path = tmp_path / "model.mmrc"
        model.save_checkpoint(net, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "478cd119ca6491a99e7c17af047673b3eeb7a0d2cc2668aab438a73859862593"


def batch_loss_and_grads_single_pass(net, x, y, input_grad=True):
    """_batch_loss_and_grads as it was before the conv stages ran in patch
    blocks: every stage on the whole batch at once. The bit-identity
    reference."""
    caches, a = [], x
    for layer in net.conv_layers:
        z = nn.conv2d_forward(a, layer)
        pooled, idx = nn.maxpool2x2_forward(nn.relu(z))
        caches.append((a, z, idx))
        a = pooled
    flat = a.reshape(a.shape[0], -1)
    loss, _, d_logits = nn.softmax_xent(flat @ net.dense_weights.T, y)
    d_dense = d_logits.T @ flat
    d = (d_logits @ net.dense_weights).reshape(a.shape)
    conv_grads = [None] * len(net.conv_layers)
    for i in range(len(net.conv_layers) - 1, -1, -1):
        a_in, z, idx = caches[i]
        d = nn.relu_backward(z, nn.maxpool2x2_backward(idx, d))
        d, conv_grads[i] = nn.conv2d_backward(a_in, net.conv_layers[i], d,
                                              input_grad=input_grad or i > 0)
    return loss, conv_grads, d_dense, d


def loss_and_grad_bytes(result):
    loss, conv_grads, d_dense, d_input = result
    parts = [np.float64(loss), d_dense] + [g for c in conv_grads for g in (c.kernels, c.biases)]
    return [np.asarray(p).tobytes() for p in parts] + \
        [None if d_input is None else d_input.tobytes()]


SMALL_K3 = model.ModelConfig(patch_size=16, channels=("Gr", "L", "U"), filters=(4, 6, 8),
                             kernel_size=3, n_classes=5, seed=3)


class TestBlockedBatch:
    @pytest.mark.parametrize("config", [model.ModelConfig(seed=5), SMALL_K3],
                             ids=["default", "k3"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("input_grad", [False, True])
    def test_blocks_match_single_pass(self, config, dtype, input_grad):
        net = cast_network(model.build_model(config), dtype)
        rng = np.random.default_rng(17)
        side, depth = config.patch_size, len(config.channels)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for n in (1, 2, 3, 35, 100):
                x = rng.random((n, side, side, depth)).astype(dtype)
                y = rng.integers(0, config.n_classes, size=n)
                want = loss_and_grad_bytes(batch_loss_and_grads_single_pass(net, x, y,
                                                                            input_grad))
                # one block with buffers for this batch, then 2 and 3 blocks
                # with buffers for 100 samples on a pool, as model.train runs them
                works = [None] + [model._BatchWork(net, x.shape[1:], 100, dtype, blocks, pool)
                                  for blocks in (2, 3)]
                for blocks, work in zip((1, 2, 3), works):
                    got = model._batch_loss_and_grads(net, x, y, input_grad, work=work)
                    assert loss_and_grad_bytes(got) == want, (n, blocks)

    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("input_grad", [False, True])
    def test_temporaries_bounded(self, blocks, input_grad):
        # default net at batch 100: relu and the pool/relu backward run in
        # the conv-output buffers, so a call's own arrays stay under 20 MB;
        # a stage-0 relu output or routed gradient of its own adds 13 MB
        net = model.build_model(model.ModelConfig(seed=5))
        rng = np.random.default_rng(18)
        x = rng.random((100, 32, 32, 4), dtype=np.float32)
        y = rng.integers(0, 9, size=100)
        with ThreadPoolExecutor(max_workers=1) as pool:
            work = model._BatchWork(net, x.shape[1:], 100, x.dtype, blocks,
                                    pool if blocks > 1 else None)
            with traced_peak() as traced:
                model._batch_loss_and_grads(net, x, y, input_grad, work=work)
        assert traced.peak < 20_000_000, traced.peak


class TestTrainBlocks:
    @pytest.mark.parametrize("env,blocks", [
        ({}, 1),                                              # OpenBLAS default: every CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),  # 0 counts as unset
        ({"MMREG_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"MMREG_THREADS": "3", "OPENBLAS_NUM_THREADS": "1"}, 3),
        ({"MMREG_THREADS": "6", "OMP_NUM_THREADS": "2"}, 3),
        ({"MMREG_THREADS": "2", "OPENBLAS_NUM_THREADS": "8"}, 1),
    ])
    def test_rule(self, monkeypatch, env, blocks):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for name in ("MMREG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert pipeline.blas_workers() == blocks


    def test_train_identical_across_blocks(self, monkeypatch):
        # 95 samples in batches of 25: the last batch holds 20
        x, y = separable_dataset(np.random.default_rng(14), per_class=32)
        x, y = x[:95], y[:95]
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("MMREG_THREADS", threads)
            net, history = model.train(model.build_model(TINY), x, y, model.TrainConfig(
                batch_size=25, epochs=2, learning_rate=0.05, seed=6))
            runs.append((b"".join(p.tobytes() for p in net.parameters()), history))
        assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.fixture
def two_blocks(monkeypatch):
    monkeypatch.setenv("MMREG_THREADS", "2")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert pipeline.blas_workers() == 2


@pytest.mark.usefixtures("two_blocks")
class TestKernelGradThreads:
    def test_heaviest_on_calling_thread(self, monkeypatch):
        # default net: conv1's kernel-gradient GEMM costs twice conv0's or conv2's
        net = model.build_model(model.ModelConfig(seed=2))
        real = nn.conv2d_backward
        calls = []

        def record(x, params, upstream, **kwargs):
            if kwargs.get("input_grad") is False:
                main = threading.current_thread() is threading.main_thread()
                calls.append((main, [l is params for l in net.conv_layers].index(True)))
            return real(x, params, upstream, **kwargs)

        monkeypatch.setattr(nn, "conv2d_backward", record)
        x = np.random.default_rng(4).random((6, 32, 32, 4), dtype=np.float32)
        model.train(net, x, np.arange(6) % 9, model.TrainConfig(batch_size=6, epochs=1))
        assert [i for main, i in calls if main] == [1]
        assert [i for main, i in calls if not main] == [0, 2]


@pytest.mark.usefixtures("two_blocks")
class TestBlockedTrainErrors:
    """With two blocks, errors leave model.train and its pool's threads exit."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow under test
    def test_divergence_raises(self):
        x, y = separable_dataset(np.random.default_rng(12), per_class=10)
        threads_before = threading.active_count()
        # smaller rates only kill every relu, which leaves the loss at log(3)
        with pytest.raises(ValueError, match="training diverged"):
            model.train(model.build_model(TINY), x, y, model.TrainConfig(
                batch_size=10, epochs=5, learning_rate=1e38, seed=3))
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("failing", ["calling thread", "pool thread"])
    def test_block_error_propagates(self, monkeypatch, failing):
        x, y = separable_dataset(np.random.default_rng(13), per_class=10)
        # a block's pool/relu backward, then a whole-batch kernel-gradient call
        for name, fails in [("maxpool2x2_relu_backward", lambda kwargs: True),
                            ("conv2d_backward", lambda kwargs: kwargs.get("input_grad") is False)]:
            real = getattr(nn, name)
            callers = set()

            def flaky(*args, **kwargs):
                if fails(kwargs):
                    main = threading.current_thread() is threading.main_thread()
                    callers.add(main)
                    if main == (failing == "calling thread"):
                        raise RuntimeError("block failed")
                return real(*args, **kwargs)

            threads_before = threading.active_count()
            with monkeypatch.context() as patch, \
                    pytest.raises(RuntimeError, match="block failed"):
                patch.setattr(nn, name, flaky)
                model.train(model.build_model(TINY), x, y, model.TrainConfig(
                    batch_size=10, epochs=1, seed=3))
            assert callers == {True, False}, name  # both threads ran
            assert threading.active_count() == threads_before, name


def predict_batch_single_pass(net, patches, chunk_size=512):
    """predict_batch as it was before the conv stages ran in blocks: every
    stage on the whole chunk at once. The bit-identity reference."""
    ids = np.empty(patches.shape[0], dtype=np.int64)
    probs = np.empty((patches.shape[0], net.config.n_classes), dtype=np.float64)
    for start in range(0, patches.shape[0], chunk_size):
        a = chunk = patches[start:start + chunk_size]
        for layer in net.conv_layers:
            a, _ = nn.maxpool2x2_forward(nn.relu(nn.conv2d_forward(a, layer)))
        p = nn.softmax(a.reshape(a.shape[0], -1) @ net.dense_weights.T)
        ids[start:start + chunk.shape[0]] = p.argmax(axis=1)
        probs[start:start + chunk.shape[0]] = p
    return ids, probs


class TestPredict:
    @pytest.mark.parametrize("count", [1, model.CONV_BLOCK - 1, model.CONV_BLOCK,
                                       model.CONV_BLOCK + 1, 72, 513])
    def test_blocks_match_single_pass(self, count):
        net = model.build_model(model.ModelConfig(seed=5))  # the default network
        patches = np.random.default_rng(count).random((count, 32, 32, 4), dtype=np.float32)
        ids, probs = model.predict_batch(net, patches)
        want_ids, want_probs = predict_batch_single_pass(net, patches)
        assert ids.tobytes() == want_ids.tobytes()
        assert probs.tobytes() == want_probs.tobytes()

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 30, 513])
    def test_same_bytes_as_oracle_forward(self, count):
        net = model.build_model(model.ModelConfig(seed=6))  # the default network
        patches = np.random.default_rng(100 + count).random((count, 32, 32, 4),
                                                            dtype=np.float32)
        ids, probs = model.predict_batch(net, patches)
        want_ids, want_probs = predict_batch_oracle(net, patches, model.CONV_BLOCK,
                                                    model.PREDICT_CHUNK)
        assert ids.tobytes() == want_ids.tobytes()
        assert probs.tobytes() == want_probs.tobytes()

    def test_probabilities_pinned(self):
        # speed-ups of inference must keep its bits; recorded like
        # test_checkpoint_bytes_pinned's digest, with the same caveat
        net = model.build_model(model.ModelConfig(seed=7))
        patches = np.random.default_rng(37).random((37, 32, 32, 4), dtype=np.float32)
        _, probs = model.predict_batch(net, patches)
        assert hashlib.sha256(probs.tobytes()).hexdigest() == \
            "e222f75c4cd816694ff8796a737add6be9b009815b27dcb77222fde6484850b7"

    def test_finds_no_winner_indices(self, monkeypatch):
        net = model.build_model(model.ModelConfig(seed=8))
        patches = np.random.default_rng(38).random((20, 32, 32, 4), dtype=np.float32)
        want_ids, want_probs = model.predict_batch(net, patches)

        def no_winners(*args):
            raise AssertionError("inference asked for pooling winner indices")

        monkeypatch.setattr(nn, "maxpool2x2_forward", no_winners)
        ids, probs = model.predict_batch(net, patches)
        assert ids.tobytes() == want_ids.tobytes()
        assert probs.tobytes() == want_probs.tobytes()

    def test_constructed_dominant_class(self):
        net = model.build_model(TINY)
        for layer in net.conv_layers:
            layer.kernels = np.zeros_like(layer.kernels)
            layer.biases = np.ones_like(layer.biases)
        net.dense_weights = np.full_like(net.dense_weights, -1.0)
        net.dense_weights[2, :] = 1.0
        rng = np.random.default_rng(10)
        (cls,), (probs,) = model.predict_batch(net, tiny_patches(rng, 1))
        assert cls == 2
        assert probs.argmax() == 2

    def test_duplicate_patch_identical(self):
        net = model.build_model(TINY)
        rng = np.random.default_rng(11)
        patch = tiny_patches(rng, 1)[0]
        (a_id,), (a_probs,) = model.predict_batch(net, patch[None])
        (b_id,), (b_probs,) = model.predict_batch(net, patch.copy()[None])
        assert a_id == b_id
        np.testing.assert_array_equal(a_probs, b_probs)

    def test_zero_patches(self):
        net = model.build_model(TINY)
        ids, probs = model.predict_batch(net, tiny_patches(np.random.default_rng(15), 0))
        assert ids.shape == (0,) and ids.dtype == np.int64
        assert probs.shape == (0, TINY.n_classes)

    def test_batch_matches_single(self):
        net = model.build_model(TINY)
        rng = np.random.default_rng(12)
        patches = tiny_patches(rng, 5)
        ids, probs = model.predict_batch(net, patches)
        for i in range(5):
            (ci,), (pi,) = model.predict_batch(net, patches[i][None])
            assert ids[i] == ci
            # float32 matmul accumulation order differs across batch shapes
            np.testing.assert_allclose(probs[i], pi, atol=1e-6)


class TestCheckpoint:
    def test_round_trip_predictions(self, tmp_path):
        net = model.build_model(TINY)
        rng = np.random.default_rng(14)
        patches = tiny_patches(rng, 100)
        ids_before, probs_before = model.predict_batch(net, patches)
        path = tmp_path / "model.mmrc"
        model.save_checkpoint(net, path)
        loaded = model.load_checkpoint(path)
        assert loaded.config == net.config
        for a, b in zip(net.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a, b)
        ids_after, probs_after = model.predict_batch(loaded, patches)
        np.testing.assert_array_equal(ids_before, ids_after)
        np.testing.assert_array_equal(probs_before, probs_after)

    def test_truncated_rejected(self, tmp_path):
        net = model.build_model(TINY)
        path = tmp_path / "model.mmrc"
        model.save_checkpoint(net, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(FormatError, match="truncated"):
            model.load_checkpoint(path)

    def test_forged_filter_counts_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "model.mmrc"
        model.save_checkpoint(model.build_model(TINY), path)
        data = path.read_bytes()
        (config_len,) = struct.unpack_from("<I", data, 8)
        text = data[12:12 + config_len].replace(b"filters=2,2,2", b"filters=2,100000000,100000000")
        path.write_bytes(data[:8] + struct.pack("<I", len(text)) + text + data[12 + config_len:])
        with traced_peak() as traced, pytest.raises(FormatError, match="truncated weights"):
            model.load_checkpoint(path)
        assert traced.peak < 1 << 20

    @pytest.mark.parametrize("old, new, match", [
        (b"channels=Gr", b"channels=" + b"x" * (1 << 20), "^unknown channel 'xxx"),
        (b"filters=2,2,2", b"filters=2" + b",2" * 200_000, "^need three filter counts, got 200001$"),
        (b"patch_size=8", b"patch_size=" + b"9" * 4000,
         "multiple of 8 .*, got '9{60}' and 3940 more characters$"),
        (b"filters=2,2,2", b"filters=2,2," + b"9" * 4000,
         "truncated weights .*config needs '\\d{60}' and \\d+ more characters bytes"),
        (b"patch_size=8", b"patch_size=8" + b"0" * 3999,
         "truncated weights .*config needs 2\\*\\*\\d+ or more bytes"),
    ], ids=["channel", "filters", "patch_size_digits", "filter_digits", "patch_size_bits"])
    def test_long_config_value_reported_short(self, tmp_path, old, new, match):
        path = tmp_path / "model.mmrc"
        model.save_checkpoint(model.build_model(TINY), path)
        data = path.read_bytes()
        (config_len,) = struct.unpack_from("<I", data, 8)
        text = data[12:12 + config_len].replace(old, new)
        path.write_bytes(data[:8] + struct.pack("<I", len(text)) + text + data[12 + config_len:])
        with pytest.raises(ValueError, match=match) as info:
            model.load_checkpoint(path)
        assert len(str(info.value)) <= 300, str(info.value)[:400]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where, name", [(0, "conv0.kernels"), (-1, "dense_weights")])
    def test_non_finite_weight_rejected(self, tmp_path, value, where, name):
        path = tmp_path / "model.mmrc"
        model.save_checkpoint(model.build_model(TINY), path)
        data = bytearray(path.read_bytes())
        (config_len,) = struct.unpack_from("<I", data, 8)
        at = 12 + config_len if where == 0 else len(data) - 4
        data[at:at + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"{path.name}: non-finite weight .* in {name} "
                                              f"at byte offset {at}$"):
            model.load_checkpoint(path)

    def test_non_utf8_config_byte_rejected_with_offset(self, tmp_path):
        path = tmp_path / "model.mmrc"
        model.save_checkpoint(model.build_model(TINY), path)
        data = bytearray(path.read_bytes())
        at = data.index(b"channels=Gr") + len("channels=")
        data[at] = 0xC7  # a lead byte followed by 'r', not a continuation byte
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: byte 0xc7 at byte "
                                              f"offset {at} is not UTF-8$"):
            model.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.mmrc"
        path.write_bytes(b"JUNK" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            model.load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import struct
        net = model.build_model(TINY)
        path = tmp_path / "model.mmrc"
        model.save_checkpoint(net, path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            model.load_checkpoint(path)

    def test_float64_network_rejected(self, tmp_path):
        net = cast_network(model.build_model(TINY), np.float64)
        with pytest.raises(ValueError, match="float32"):
            model.save_checkpoint(net, tmp_path / "bad.mmrc")

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            model.require_channels(("Gr", "L", "U", "V"), ["R", "G", "B", "L"])

    def test_channel_subset_accepted(self):
        model.require_channels(("Gr", "L"), ["R", "G", "B", "Gr", "L", "U", "V"])
