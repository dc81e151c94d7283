"""Deterministic CNN numerics on plain numpy arrays.

Conv and pool ops take (B,H,W,C) batches; pass x[None] for one image.
float32 is the working precision; pass float64 arrays when running
gradient checks. Every function is bit-deterministic for identical
inputs. Each is pure, with three kinds of exception: sgd_step updates
its arrays in place; conv2d_forward and _im2col write into the cols= and
out= buffers a caller passes them; and relu_inplace and
maxpool2x2_relu_backward write over the conv output they are given, so
that the training pass keeps no second copy of it.

conv2d_forward is one GEMM of every patch's im2col rows, whatever the
batch size: each output row has the same bits in any batch. maxpool2x2
pools without the winner indices that maxpool2x2_forward adds for the
backward pass, so inference does not compute them. Training runs the
pool and relu backward as one op, maxpool2x2_relu_backward; the pair
maxpool2x2_backward and relu_backward is its byte-for-byte oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray
# normals per he_init draw: 512 KiB of float64
HE_INIT_CHUNK = 1 << 16


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class ConvParams:
    """One stride-1 convolution layer: kernels (K, k, k, Cin), biases (K,),
    and `padding` zeros on each side of the input's height and width."""

    kernels: Array
    biases: Array
    padding: int = 0

    def __post_init__(self):
        _require(self.kernels.ndim == 4, f"kernels must be 4-d (K,k,k,Cin), got shape {self.kernels.shape}")
        k_count, k_h, k_w, _ = self.kernels.shape
        _require(k_h == k_w, f"kernels must be square, got {k_h}x{k_w}")
        _require(k_h % 2 == 1, f"kernel size must be odd, got {k_h}")
        _require(self.biases.shape == (k_count,),
                 f"biases shape {self.biases.shape} does not match kernel count {k_count}")
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
    # float64 normals drawn and cast a chunk at a time, so that they never
    # take more than a chunk; draws in pieces continue one stream
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, HE_INIT_CHUNK):
        stop = min(start + HE_INIT_CHUNK, flat.size)
        flat[start:stop] = rng.standard_normal(stop - start) * std
    return out


# ---------------------------------------------------------------------------
# Convolution (cross-correlation, zero padding)
# ---------------------------------------------------------------------------


def _conv_out_size(size: int, k: int, pad: int) -> int:
    span = size + 2 * pad - k
    _require(span >= 0, f"input size {size} too small for kernel {k} with padding {pad}")
    return span + 1


def _require_batch(x: Array) -> None:
    _require(x.ndim == 4, f"expected a (B,H,W,C) batch, got shape {x.shape}")


def _im2col(padded: Array, k: int, out_h: int, out_w: int,
            out: Array | None = None) -> Array:
    """Lower padded (B,Hp,Wp,C) to (B, out_h*out_w, k*k*C) patch rows,
    written into out (a C-contiguous array of that shape) when given.

    Row element order is (ki, kj, c), matching kernels.reshape(K, -1).
    """
    b, _, _, c = padded.shape
    view = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    view = view.transpose(0, 1, 2, 4, 5, 3)  # (B, out_h, out_w, k, k, C)
    if out is None:
        return np.ascontiguousarray(view).reshape(b, out_h * out_w, k * k * c)
    out.reshape(view.shape)[...] = view
    return out


def _conv_geometry(x: Array, params: ConvParams):
    _require_batch(x)
    _, h, w, c = x.shape
    _require(c == params.in_channels,
             f"input channel count {c} does not match kernel depth {params.in_channels} "
             f"(input {x.shape[1:]}, kernels {params.kernels.shape})")
    out_h = _conv_out_size(h, params.kernel_size, params.padding)
    out_w = _conv_out_size(w, params.kernel_size, params.padding)
    return out_h, out_w


def _pad_input(x: Array, pad: int) -> Array:
    if pad == 0:
        return x
    # np.zeros and one interior copy, which costs a quarter of np.pad's time
    b, h, w, c = x.shape
    padded = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    padded[:, pad:pad + h, pad:pad + w] = x
    return padded


def conv2d_forward(x: Array, params: ConvParams, cols: Array | None = None,
                   out: Array | None = None) -> Array:
    """Cross-correlate (B,H,W,Cin) with kernels -> (B,H',W',K).

    Output H' = H + 2*pad - k + 1, and likewise W'.
    Fast path lowers patches to a matrix product; equivalence with the
    naive loop is covered by conv2d_forward_reference. Callers may pass
    C-contiguous buffers to fill: cols (B, H'*W', k*k*Cin) for the im2col
    rows and out (B, H', W', K) for the result, which is then returned.
    """
    out_h, out_w = _conv_geometry(x, params)
    k, n_k = params.kernel_size, params.out_channels
    cols = _im2col(_pad_input(x, params.padding), k, out_h, out_w, out=cols)
    rows = cols.reshape(-1, cols.shape[-1])  # one GEMM over every patch's rows
    w_mat = params.kernels.reshape(n_k, -1).T  # (k*k*Cin, K)
    y = np.matmul(rows, w_mat, out=None if out is None else out.reshape(rows.shape[0], n_k))
    y += params.biases
    return y.reshape(x.shape[0], out_h, out_w, n_k)


def conv2d_forward_reference(x: Array, params: ConvParams) -> Array:
    """Naive six-nested-loop convolution; the oracle for the fast path."""
    _require(x.ndim == 3, f"reference path takes a single (H,W,C) image, got shape {x.shape}")
    out_h, out_w = _conv_geometry(x[None], params)
    k, pad = params.kernel_size, params.padding
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
                    iy = oy + ky - pad
                    if iy < 0 or iy >= h:
                        continue
                    for kx in range(k):
                        ix = ox + kx - pad
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
    parameter grads); parameter grads accumulate over the batch in a
    fixed order. With input_grad=False the input grad is not computed and
    None is returned in its place; likewise the parameter grads with
    param_grads=False. _cols may hold the forward's im2col rows.
    Each input-grad row depends only on its own sample's upstream rows, so
    it has the same bits whichever batch the sample is in.
    """
    out_h, out_w = _conv_geometry(x, params)
    expected = (x.shape[0], out_h, out_w, params.out_channels)
    _require(upstream.shape == expected,
             f"upstream grad shape {upstream.shape} does not match forward output {expected}")

    k, pad = params.kernel_size, params.padding
    u_mat = upstream.reshape(x.shape[0], out_h * out_w, params.out_channels)
    grads = None
    if param_grads:
        if _cols is None:
            _cols = _im2col(_pad_input(x, pad), k, out_h, out_w)
        dw_mat = np.tensordot(_cols, u_mat, axes=([0, 1], [0, 1]))  # (k*k*Cin, K)
        grads = ConvGrads(kernels=dw_mat.T.reshape(params.kernels.shape),
                          biases=u_mat.sum(axis=(0, 1)))
    if not input_grad:
        return None, grads

    # scatter the input gradient one kernel tap at a time: each tap is a
    # plain GEMM with a contiguous result, avoiding strided accumulation
    b, h, w, c = x.shape
    u_flat = u_mat.reshape(b * out_h * out_w, params.out_channels)
    d_padded = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=u_mat.dtype)
    for ki in range(k):
        for kj in range(k):
            tap = u_flat @ params.kernels[:, ki, kj, :]  # (B*P, Cin)
            d_padded[:, ki:ki + out_h, kj:kj + out_w, :] += tap.reshape(b, out_h, out_w, c)
    return d_padded[:, pad:pad + h, pad:pad + w, :], grads


# ---------------------------------------------------------------------------
# 2x2 max pooling, stride 2
# ---------------------------------------------------------------------------


def _windows(x: Array) -> list[Array]:
    """The four elements of every 2x2 window of x, in row-major order."""
    return [x[:, i::2, j::2] for i in (0, 1) for j in (0, 1)]


def _winners(x: Array, pooled: Array) -> Array:
    """Index (row*2 + col) of the first element of each 2x2 window of x that
    is not below its pooled value. The comparisons do not see the sign of
    zero, so either zero in pooled gives the same indices."""
    # n_k is 1 where element k is below the max; the winner is the first
    # element that is not: idx = 0 if n0 == 0, else 1 if n1 == 0, ...
    n0, n1, n2 = ((qk != pooled).view(np.uint8) for qk in _windows(x)[:3])
    return n0 * (1 + n1 * (1 + n2))


def maxpool2x2(x: Array) -> Array:
    """Disjoint 2x2 max pooling. Each pooled value is, bit for bit, the
    first (top-left-most) window element holding the window's max, +0.0
    and -0.0 included; a window holding NaN pools to NaN."""
    _require_batch(x)
    _, h, w, _ = x.shape
    _require(h % 2 == 0 and w % 2 == 0, f"pooling needs even spatial dims, got {h}x{w}")
    q = _windows(x)
    pooled = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
    # Equal values have equal bits except +0.0 and -0.0, where np.maximum
    # may return either operand. Only an input with a sign bit set can hold
    # -0.0; then copy the winner itself into every zero-valued window.
    bits = x.view(f"u{x.itemsize}")
    if bits.max(initial=0) >> (8 * x.itemsize - 1):
        zero = np.nonzero(pooled == 0)
        k = _winners(x, pooled)[zero]
        pooled[zero] = x[zero[0], 2 * zero[1] + k // 2, 2 * zero[2] + k % 2, zero[3]]
    return pooled


def maxpool2x2_forward(x: Array) -> tuple[Array, Array]:
    """maxpool2x2(x) and the winner indices that maxpool2x2_backward routes
    by: the pooled shape, values in {0,1,2,3} encoding the winner position
    (row*2 + col) in each window. Ties go to the first element, and a
    window holding NaN has index 3.
    """
    pooled = maxpool2x2(x)
    return pooled, _winners(x, pooled)


def maxpool2x2_backward(indices: Array, upstream: Array) -> Array:
    """Route upstream grads to the winning positions; all others zero."""
    _require_batch(upstream)
    _require(indices.shape == upstream.shape,
             f"indices shape {indices.shape} does not match upstream shape {upstream.shape}")
    b, h, w, c = upstream.shape
    d_windows = np.zeros((b, h, w, 4, c), dtype=upstream.dtype)
    np.put_along_axis(d_windows, indices[:, :, :, None, :].astype(np.intp),
                      upstream[:, :, :, None, :], axis=3)
    return (d_windows.reshape(b, h, w, 2, 2, c)
                     .transpose(0, 1, 3, 2, 4, 5)
                     .reshape(b, h * 2, w * 2, c))


def maxpool2x2_relu_backward(indices: Array, upstream: Array, z: Array) -> Array:
    """relu_backward(z, maxpool2x2_backward(indices, upstream)), byte for
    byte, written over z (the pre- or post-relu conv output) and returned.

    Per window position q, z_q becomes upstream * (z_q > 0), the product
    relu_backward forms; then its bits are kept where indices == q and
    cleared (+0.0) elsewhere, as the pair's zero fill leaves them.
    """
    _require_batch(upstream)
    _require(indices.shape == upstream.shape,
             f"indices shape {indices.shape} does not match upstream shape {upstream.shape}")
    b, h, w, c = upstream.shape
    _require(z.shape == (b, 2 * h, 2 * w, c),
             f"input shape {z.shape} does not pool to upstream shape {upstream.shape}")
    mask = np.empty(upstream.shape, dtype=bool)
    for q, z_q in enumerate(_windows(z)):
        np.multiply(upstream, np.greater(z_q, 0, out=mask), out=z_q)
        bits = z_q.view(f"u{z.itemsize}")
        np.multiply(bits, np.equal(indices, q, out=mask), out=bits)  # 0 or the bits as they are
    return z


# ---------------------------------------------------------------------------
# Activations and loss
# ---------------------------------------------------------------------------


def _relu(x: Array, out: Array | None = None) -> Array:
    return np.maximum(x, 0, out=out)


def relu(x: Array) -> Array:
    return _relu(x)


def relu_inplace(x: Array) -> Array:
    """relu(x) written over x and returned: the training forward's relu."""
    return _relu(x, out=x)


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


def sgd_step(param: Array, grad: Array, learning_rate: float, momentum: float,
             velocity: Array) -> tuple[Array, Array]:
    """One SGD update in place: v <- momentum*v + g, w <- w - lr*v.

    param and velocity are overwritten; returns (w, v).
    """
    _require(param.shape == grad.shape,
             f"param shape {param.shape} does not match grad shape {grad.shape}")
    _require(velocity.shape == param.shape,
             f"velocity shape {velocity.shape} does not match param shape {param.shape}")
    velocity *= momentum
    velocity += grad
    param -= learning_rate * velocity
    return param, velocity
