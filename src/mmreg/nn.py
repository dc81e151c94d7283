"""Deterministic CNN numerics on plain numpy arrays.

Images are (H, W, C) arrays, batches (B, H, W, C); every op accepts either
and returns the matching rank. float32 is the working precision; pass
float64 arrays when running gradient checks. All functions except
sgd_step, which updates its arrays in place, are pure, and all are
bit-deterministic for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class ConvParams:
    """One convolution layer: kernels (K, k, k, Cin), biases (K,)."""

    kernels: Array
    biases: Array
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        _require(self.kernels.ndim == 4, f"kernels must be 4-d (K,k,k,Cin), got shape {self.kernels.shape}")
        k_count, k_h, k_w, _ = self.kernels.shape
        _require(k_h == k_w, f"kernels must be square, got {k_h}x{k_w}")
        _require(k_h % 2 == 1, f"kernel size must be odd, got {k_h}")
        _require(self.biases.shape == (k_count,),
                 f"biases shape {self.biases.shape} does not match kernel count {k_count}")
        _require(self.stride >= 1, f"stride must be >= 1, got {self.stride}")
        _require(self.padding >= 0, f"padding must be >= 0, got {self.padding}")

    @property
    def kernel_size(self) -> int:
        return self.kernels.shape[1]

    @property
    def in_channels(self) -> int:
        return self.kernels.shape[3]

    @property
    def out_channels(self) -> int:
        return self.kernels.shape[0]


@dataclass
class ConvGrads:
    """Gradients shaped like the ConvParams they belong to."""

    kernels: Array
    biases: Array


@dataclass
class DenseGrads:
    """Gradients of dense_softmax_xent: d(weights) and d(input)."""

    weights: Array
    input: Array


def he_init(shape, seed: int, dtype=np.float32) -> Array:
    """Zero-mean Gaussian with variance 2/fan_in, deterministic per seed.

    fan_in is the receptive-field size per output unit: prod(shape[1:]) for
    rank >= 2 (e.g. k*k*Cin for conv kernels (K,k,k,Cin)), shape[0] for
    vectors.
    """
    shape = tuple(int(s) for s in shape)
    _require(len(shape) >= 1 and all(s > 0 for s in shape), f"invalid shape {shape}")
    fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    rng = np.random.default_rng(seed)
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(dtype)


# ---------------------------------------------------------------------------
# Convolution (cross-correlation, zero padding)
# ---------------------------------------------------------------------------


def _conv_out_size(size: int, k: int, pad: int, stride: int) -> int:
    span = size + 2 * pad - k
    _require(span >= 0, f"input size {size} too small for kernel {k} with padding {pad}")
    _require(span % stride == 0,
             f"non-integral output size: ({size} + 2*{pad} - {k}) not divisible by stride {stride}")
    return span // stride + 1


def _as_batch(x: Array) -> tuple[Array, bool]:
    _require(x.ndim in (3, 4), f"expected (H,W,C) or (B,H,W,C) input, got shape {x.shape}")
    if x.ndim == 3:
        return x[None], True
    return x, False


def _im2col(padded: Array, k: int, stride: int, out_h: int, out_w: int,
            out: Array | None = None) -> Array:
    """Lower padded (B,Hp,Wp,C) to (B, out_h*out_w, k*k*C) patch rows,
    written into out (a C-contiguous array of that shape) when given.

    Row element order is (ki, kj, c), matching kernels.reshape(K, -1).
    """
    b, _, _, c = padded.shape
    view = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    view = view[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)  # (B, out_h, out_w, k, k, C)
    if out is None:
        return np.ascontiguousarray(view).reshape(b, out_h * out_w, k * k * c)
    out.reshape(view.shape)[...] = view
    return out


def _conv_geometry(x: Array, params: ConvParams):
    b, h, w, c = x.shape
    _require(c == params.in_channels,
             f"input channel count {c} does not match kernel depth {params.in_channels} "
             f"(input {x.shape[1:]}, kernels {params.kernels.shape})")
    out_h = _conv_out_size(h, params.kernel_size, params.padding, params.stride)
    out_w = _conv_out_size(w, params.kernel_size, params.padding, params.stride)
    return out_h, out_w


def _pad_input(x: Array, pad: int) -> Array:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))


def conv2d_forward(x: Array, params: ConvParams, cols: Array | None = None,
                   out: Array | None = None) -> Array:
    """Cross-correlate (.,H,W,Cin) with kernels -> (.,H',W',K).

    Output H' = (H + 2*pad - k)/stride + 1 (exact division required).
    Fast path lowers patches to a matrix product; equivalence with the
    naive loop is covered by conv2d_forward_reference. Batched callers
    may pass C-contiguous buffers to fill: cols (B, H'*W', k*k*Cin) for
    the im2col rows and out (B, H', W', K) for the result, which is then
    returned.
    """
    xb, squeeze = _as_batch(x)
    out_h, out_w = _conv_geometry(xb, params)
    k, n_k = params.kernel_size, params.out_channels
    cols = _im2col(_pad_input(xb, params.padding), k, params.stride, out_h, out_w, out=cols)
    w_mat = params.kernels.reshape(n_k, -1).T  # (k*k*Cin, K)
    y = np.matmul(cols, w_mat, out=None if out is None else out.reshape(cols.shape[:2] + (n_k,)))
    y += params.biases
    y = y.reshape(xb.shape[0], out_h, out_w, n_k)
    return y[0] if squeeze else y


def conv2d_forward_reference(x: Array, params: ConvParams) -> Array:
    """Naive six-nested-loop convolution; the oracle for the fast path."""
    _require(x.ndim == 3, f"reference path takes a single (H,W,C) image, got shape {x.shape}")
    out_h, out_w = _conv_geometry(x[None], params)
    k, pad, stride = params.kernel_size, params.padding, params.stride
    h, w, c = x.shape
    n_k = params.out_channels
    x_list = x.tolist()
    k_list = params.kernels.tolist()
    b_list = params.biases.tolist()
    out = np.empty((out_h, out_w, n_k), dtype=x.dtype)
    for oy in range(out_h):
        for ox in range(out_w):
            for f in range(n_k):
                acc = b_list[f]
                for ky in range(k):
                    iy = oy * stride + ky - pad
                    if iy < 0 or iy >= h:
                        continue
                    for kx in range(k):
                        ix = ox * stride + kx - pad
                        if ix < 0 or ix >= w:
                            continue
                        for ci in range(c):
                            acc += x_list[iy][ix][ci] * k_list[f][ky][kx][ci]
                out[oy, ox, f] = acc
    return out


def conv2d_backward(x: Array, params: ConvParams, upstream: Array,
                    _cols: Array | None = None, input_grad: bool = True,
                    param_grads: bool = True) -> tuple[Array | None, ConvGrads | None]:
    """Gradients of a scalar loss through conv2d_forward.

    upstream must have the forward output shape. Returns (input grad,
    parameter grads); batched inputs accumulate parameter grads over the
    batch in a fixed order. With input_grad=False the input grad is not
    computed and None is returned in its place; likewise the parameter
    grads with param_grads=False. _cols may hold the forward's im2col rows.
    Each input-grad row depends only on its own sample's upstream rows, so
    it has the same bits whichever batch the sample is in.
    """
    xb, squeeze = _as_batch(x)
    out_h, out_w = _conv_geometry(xb, params)
    ub, _ = _as_batch(upstream)
    expected = (xb.shape[0], out_h, out_w, params.out_channels)
    _require(ub.shape == expected,
             f"upstream grad shape {upstream.shape} does not match forward output {expected}")

    k, pad, stride = params.kernel_size, params.padding, params.stride
    u_mat = ub.reshape(xb.shape[0], out_h * out_w, params.out_channels)
    grads = None
    if param_grads:
        if _cols is None:
            _cols = _im2col(_pad_input(xb, pad), k, stride, out_h, out_w)
        dw_mat = np.tensordot(_cols, u_mat, axes=([0, 1], [0, 1]))  # (k*k*Cin, K)
        grads = ConvGrads(kernels=dw_mat.T.reshape(params.kernels.shape),
                          biases=u_mat.sum(axis=(0, 1)))
    if not input_grad:
        return None, grads

    # scatter the input gradient one kernel tap at a time: each tap is a
    # plain GEMM with a contiguous result, avoiding strided accumulation
    b, h, w, c = xb.shape
    u_flat = u_mat.reshape(b * out_h * out_w, params.out_channels)
    d_padded = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=u_mat.dtype)
    for ki in range(k):
        i_stop = ki + stride * (out_h - 1) + 1
        for kj in range(k):
            j_stop = kj + stride * (out_w - 1) + 1
            tap = u_flat @ params.kernels[:, ki, kj, :]  # (B*P, Cin)
            d_padded[:, ki:i_stop:stride, kj:j_stop:stride, :] += \
                tap.reshape(b, out_h, out_w, c)
    dx = d_padded[:, pad:pad + h, pad:pad + w, :]
    if squeeze:
        dx = dx[0]
    return dx, grads


# ---------------------------------------------------------------------------
# 2x2 max pooling, stride 2
# ---------------------------------------------------------------------------


def maxpool2x2_forward(x: Array) -> tuple[Array, Array]:
    """Disjoint 2x2 max pooling -> (pooled, winner indices).

    Indices have the pooled shape with values in {0,1,2,3} encoding the
    winner position (row*2 + col) inside each window; ties go to the
    first (top-left-most) element, and each pooled value is that
    element bit for bit, +0.0 and -0.0 included. A window holding NaN
    pools to NaN with index 3.
    """
    xb, squeeze = _as_batch(x)
    _, h, w, _ = xb.shape
    _require(h % 2 == 0 and w % 2 == 0, f"pooling needs even spatial dims, got {h}x{w}")
    q = [xb[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]  # window elements, row-major
    pooled = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
    # n_k is 1 where element k is below the max; the winner is the first
    # element that is not: idx = 0 if n0 == 0, else 1 if n1 == 0, ...
    n0, n1, n2 = ((qk != pooled).view(np.uint8) for qk in q[:3])
    idx = n0 * (1 + n1 * (1 + n2))
    # Equal values have equal bits except +0.0 and -0.0, where np.maximum
    # may return either operand. Only an input with a sign bit set can hold
    # -0.0; then copy the winner itself into every zero-valued window.
    bits = xb.view(f"u{xb.itemsize}")
    if bits.max(initial=0) >> (8 * xb.itemsize - 1):
        zero = np.nonzero(pooled == 0)
        k = idx[zero]
        pooled[zero] = xb[zero[0], 2 * zero[1] + k // 2, 2 * zero[2] + k % 2, zero[3]]
    if squeeze:
        return pooled[0], idx[0]
    return pooled, idx


def maxpool2x2_backward(indices: Array, upstream: Array) -> Array:
    """Route upstream grads to the winning positions; all others zero."""
    ub, squeeze = _as_batch(upstream)
    ib, _ = _as_batch(indices)
    _require(ib.shape == ub.shape,
             f"indices shape {indices.shape} does not match upstream shape {upstream.shape}")
    b, h, w, c = ub.shape
    d_windows = np.zeros((b, h, w, 4, c), dtype=ub.dtype)
    np.put_along_axis(d_windows, ib[:, :, :, None, :].astype(np.intp), ub[:, :, :, None, :], axis=3)
    dx = (d_windows.reshape(b, h, w, 2, 2, c)
                   .transpose(0, 1, 3, 2, 4, 5)
                   .reshape(b, h * 2, w * 2, c))
    return dx[0] if squeeze else dx


# ---------------------------------------------------------------------------
# Activations and loss
# ---------------------------------------------------------------------------


def relu(x: Array) -> Array:
    return np.maximum(x, 0)


def relu_backward(x: Array, upstream: Array) -> Array:
    """Pass gradient where the forward input was strictly positive."""
    _require(x.shape == upstream.shape,
             f"input shape {x.shape} does not match upstream shape {upstream.shape}")
    return upstream * (x > 0)


def softmax(logits: Array) -> Array:
    """Row-wise stable softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: Array, labels: Array) -> tuple[float, Array, Array]:
    """Mean softmax cross-entropy of (B, N) logits against B class ids.

    Each row is shifted by its max before the log-sum-exp. Returns (mean
    -log p[label], the (B, N) log-probabilities, the logit gradient
    (p - onehot) / B).
    """
    rows = np.arange(logits.shape[0])
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - log_norm
    loss = float(-log_probs[rows, labels].mean())
    d_logits = np.exp(log_probs)
    d_logits[rows, labels] -= 1.0
    d_logits /= logits.shape[0]
    return loss, log_probs, d_logits


def dense_softmax_xent(x: Array, weights: Array, label: int) -> tuple[Array, float, DenseGrads]:
    """Dense layer + softmax + cross-entropy for one flat sample.

    weights are (N, n_in); returns (probabilities over N, -log p[label],
    gradients for weights and input). The logit gradient is p - onehot.
    """
    _require(x.ndim == 1, f"input must be flat, got shape {x.shape}")
    _require(weights.ndim == 2 and weights.shape[1] == x.shape[0],
             f"weights shape {weights.shape} does not match input length {x.shape[0]}")
    n_classes = weights.shape[0]
    _require(0 <= int(label) < n_classes, f"label {label} out of range [0, {n_classes})")
    loss, log_probs, d_logits = softmax_xent((weights @ x)[None], np.array([label]))
    return (np.exp(log_probs[0]), loss,
            DenseGrads(weights=np.outer(d_logits[0], x), input=weights.T @ d_logits[0]))


def sgd_step(param: Array, grad: Array, learning_rate: float, momentum: float = 0.0,
             velocity: Array | None = None) -> tuple[Array, Array]:
    """One SGD update in place: v <- momentum*v + g, w <- w - lr*v.

    param and velocity (zeros when None) are overwritten; returns (w, v).
    """
    _require(param.shape == grad.shape,
             f"param shape {param.shape} does not match grad shape {grad.shape}")
    if velocity is None:
        velocity = np.zeros_like(param)
    _require(velocity.shape == param.shape,
             f"velocity shape {velocity.shape} does not match param shape {param.shape}")
    velocity *= momentum
    velocity += grad
    param -= learning_rate * velocity
    return param, velocity
