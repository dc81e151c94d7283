"""Shared test oracles: central finite differences and error measures,
networks cast to another precision, the forward pass as first written,
and the traced memory peak of a block."""

import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from mmreg import model, nn


def central_diff_grad(loss_fn, x, h=1e-5):
    """Numerical gradient of scalar loss_fn at x via central differences.

    Perturbs one element at a time; x must be float64 for tight tolerances.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    g_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = loss_fn(x)
        flat[i] = orig - h
        lo = loss_fn(x)
        flat[i] = orig
        g_flat[i] = (hi - lo) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric):
    """Elementwise |a-n| / max(|a|, |n|, floor), reduced to the max.

    The floor scales with the overall gradient magnitude so that
    finite-difference noise on near-zero elements does not dominate.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.max(np.abs(analytic), initial=0.0), np.max(np.abs(numeric), initial=0.0))
    floor = max(1e-8, 1e-4 * scale)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


@contextmanager
def traced_peak():
    """Trace allocations in the with-block; once it ends, the yielded
    object's .peak holds the traced peak in bytes. Put pytest.raises
    inside this block, so that an expected error still leaves a peak."""
    traced = SimpleNamespace(peak=None)
    tracemalloc.start()
    try:
        yield traced
        traced.peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cast_network(net, dtype):
    """A copy of net with every parameter cast to dtype; float64 networks
    are for gradient checks."""
    layers = [nn.ConvParams(kernels=c.kernels.astype(dtype), biases=c.biases.astype(dtype),
                            padding=c.padding)
              for c in net.conv_layers]
    return model.Network(net.config, layers, net.dense_weights.astype(dtype))


# The forward pass as it was before conv2d_forward ran one GEMM per call
# and inference pooled without winner indices: np.pad, one np.matmul of
# (B, P, k*k*Cin) rows (a GEMM per patch) and pooling that also finds the
# winners. The bit-identity oracles of the forward.

def conv2d_forward_oracle(x, params):
    b, h, w, c = x.shape
    k, pad, n_k = params.kernel_size, params.padding, params.out_channels
    out_h, out_w = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    view = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    cols = np.ascontiguousarray(view.transpose(0, 1, 2, 4, 5, 3))
    y = np.matmul(cols.reshape(b, out_h * out_w, k * k * c), params.kernels.reshape(n_k, -1).T)
    y += params.biases
    return y.reshape(b, out_h, out_w, n_k)


def maxpool2x2_oracle(x):
    q = [x[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    pooled = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
    n0, n1, n2 = ((qk != pooled).view(np.uint8) for qk in q[:3])
    idx = n0 * (1 + n1 * (1 + n2))
    if x.view(f"u{x.itemsize}").max(initial=0) >> (8 * x.itemsize - 1):
        zero = np.nonzero(pooled == 0)
        k = idx[zero]
        pooled[zero] = x[zero[0], 2 * zero[1] + k // 2, 2 * zero[2] + k % 2, zero[3]]
    return pooled, idx


def predict_batch_oracle(net, patches, block=8, chunk_size=512):
    """predict_batch over the oracle forward, in the same blocks and chunks."""
    ids = np.empty(patches.shape[0], dtype=np.int64)
    probs = np.empty((patches.shape[0], net.config.n_classes), dtype=np.float64)
    for start in range(0, patches.shape[0], chunk_size):
        chunk = patches[start:start + chunk_size]
        pooled = []
        for i in range(0, chunk.shape[0], block):
            a = chunk[i:i + block]
            for layer in net.conv_layers:
                a = maxpool2x2_oracle(nn.relu(conv2d_forward_oracle(a, layer)))[0]
            pooled.append(a)
        p = nn.softmax(np.concatenate(pooled).reshape(chunk.shape[0], -1) @ net.dense_weights.T)
        ids[start:start + chunk.shape[0]] = p.argmax(axis=1)
        probs[start:start + chunk.shape[0]] = p
    return ids, probs
