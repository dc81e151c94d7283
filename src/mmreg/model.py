"""Network assembly, SGD training, patch inference and vote aggregation.

The classifier is three conv+relu+maxpool stages feeding a bias-free dense
softmax layer: with patch size p and same-padding convs, spatial dims halve
at each pool (p -> p/2 -> p/4 -> p/8), so p must be divisible by 8.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import nn
from .pipeline import CHANNEL_IDS, FormatError, blas_threads, parse_key_values, worker_count

CHECKPOINT_MAGIC = b"MMRC"
CHECKPOINT_VERSION = 1
# patches per conv-stage block in predict_batch: blocks of 8 and 16 ran a
# 72-patch batch about equally fast, 32 and one whole-batch block slower;
# 8 holds the least memory
CONV_BLOCK = 8
# patches per dense-layer call in predict_batch, whose bits depend on the
# row count
PREDICT_CHUNK = 512


@dataclass
class ModelConfig:
    patch_size: int = 32
    channels: tuple[str, ...] = ("Gr", "L", "U", "V")
    filters: tuple[int, int, int] = (32, 32, 64)
    kernel_size: int = 5
    n_classes: int = 9
    seed: int = 0

    def validate(self) -> None:
        if self.patch_size <= 0 or self.patch_size % 8 != 0:
            raise ValueError(f"patch size must be a positive multiple of 8 "
                             f"(three pooling halvings), got {self.patch_size}")
        if len(self.filters) != 3 or any(f < 1 for f in self.filters):
            raise ValueError(f"need three positive filter counts, got {self.filters}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {self.kernel_size}")
        if not self.channels:
            raise ValueError("channel list is empty")
        for name in self.channels:
            if name not in CHANNEL_IDS:
                raise ValueError(f"unknown channel {name!r}; expected one of {list(CHANNEL_IDS)}")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError(f"duplicate channels in {self.channels}")
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")

    @property
    def dense_inputs(self) -> int:
        side = self.patch_size // 8
        return side * side * self.filters[2]


@dataclass
class TrainConfig:
    batch_size: int = 100
    epochs: int = 30
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        # learning rate 0 is allowed as an explicit no-op run
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass
class Network:
    config: ModelConfig
    conv_layers: list[nn.ConvParams]
    dense_weights: np.ndarray

    def astype(self, dtype) -> "Network":
        layers = [nn.ConvParams(kernels=c.kernels.astype(dtype),
                                biases=c.biases.astype(dtype),
                                stride=c.stride, padding=c.padding)
                  for c in self.conv_layers]
        return Network(config=self.config, conv_layers=layers,
                       dense_weights=self.dense_weights.astype(dtype))

    def parameters(self) -> list[np.ndarray]:
        params = []
        for layer in self.conv_layers:
            params.extend([layer.kernels, layer.biases])
        params.append(self.dense_weights)
        return params


def _kernel_shapes(config: ModelConfig) -> list[tuple[int, int, int, int]]:
    """(K, k, k, Cin) of each conv stage."""
    k = config.kernel_size
    depths = [len(config.channels), *config.filters[:2]]
    return [(c_out, k, k, c_in) for c_in, c_out in zip(depths, config.filters)]


def build_model(config: ModelConfig) -> Network:
    """He-initialized network per the config; biases start at zero."""
    config.validate()
    pad = (config.kernel_size - 1) // 2
    layers = []
    for i, shape in enumerate(_kernel_shapes(config)):
        kernels = nn.he_init(shape, seed=config.seed + i)
        layers.append(nn.ConvParams(kernels=kernels,
                                    biases=np.zeros(shape[0], dtype=np.float32),
                                    stride=1, padding=pad))
    dense = nn.he_init((config.n_classes, config.dense_inputs), seed=config.seed + 3)
    return Network(config=config, conv_layers=layers, dense_weights=dense)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _conv_stages(net: Network, x: np.ndarray) -> np.ndarray:
    """Pooled output of the conv -> relu -> pool stages for x (B, p, p, C)."""
    a = x
    for layer in net.conv_layers:
        a, _ = nn.maxpool2x2_forward(nn.relu(nn.conv2d_forward(a, layer)))
    return a


def train_blocks() -> int:
    """Patch blocks per training batch: as many as there are worker threads
    beside the BLAS threads each block's matrix products use,
    max(1, worker_count() // blas_threads())."""
    return max(1, worker_count() // blas_threads())


class _BatchWork:
    """Whole-batch buffers of the loss-and-gradient pass for up to capacity
    (h, w, c) samples of one dtype, and the pool its patch blocks run on.

    Per conv stage it holds the im2col rows, the conv output (which the
    backward pass overwrites with the gradient at the conv output) and
    the pooled output. Blocks write their rows of these in place.
    """

    def __init__(self, net: Network, sample_shape, capacity: int, dtype,
                 blocks: int = 1, pool: ThreadPoolExecutor | None = None):
        self.blocks, self.pool = blocks, pool
        self.cols, self.z, self.pooled = [], [], []
        h, w, _ = sample_shape
        for layer in net.conv_layers:
            k = layer.kernel_size
            h, w = (nn._conv_out_size(side, k, layer.padding, layer.stride) for side in (h, w))
            self.cols.append(np.empty((capacity, h * w, k * k * layer.in_channels), dtype))
            dtype = np.result_type(dtype, layer.kernels, layer.biases)
            self.z.append(np.empty((capacity, h, w, layer.out_channels), dtype))
            h, w = h // 2, w // 2
            self.pooled.append(np.empty((capacity, h, w, layer.out_channels), dtype))

    def bounds(self, n: int) -> list[tuple[int, int]]:
        """[start, stop) of each contiguous block of an n-sample batch."""
        count = min(self.blocks, n)
        return [(j * n // count, (j + 1) * n // count) for j in range(count)]

    def map(self, fn, items) -> list:
        """[fn(item) for item in items], the first on this thread and the
        rest on the pool. Every call has ended when this returns or raises;
        the first error in item order is raised."""
        first, *rest = items
        futures = [self.pool.submit(fn, item) for item in rest]
        try:
            head = fn(first)
        finally:
            wait(futures)
        return [head] + [f.result() for f in futures]


def _batch_loss_and_grads(net: Network, x: np.ndarray, y: np.ndarray,
                          input_grad: bool = True, work: _BatchWork | None = None):
    """Mean cross-entropy over the batch and its gradients.

    Returns (loss, per-layer ConvGrads, dense weight grad, input batch
    grad); the input batch grad is None when input_grad is False, which
    skips its computation in the first conv layer.

    The conv stages run on contiguous blocks of the batch, work.blocks of
    them (one when work is None, with buffers for this batch): per block,
    conv, relu and pool forward, then pool and relu backward and the
    input-gradient taps. Each row of those results has the same bits
    whatever block its sample is in. The dense layer, the loss and every
    kernel and bias gradient are single whole-batch calls, so the result
    does not depend on the block count.
    """
    n = x.shape[0]
    if work is None:
        work = _BatchWork(net, x.shape[1:], n, x.dtype)
    layers = net.conv_layers
    inputs = [x, *work.pooled[:-1]]  # each conv stage's input rows
    bounds = work.bounds(n)

    def forward(bound):
        lo, hi = bound
        winners = []
        for layer, a, cols, z, pooled in zip(layers, inputs, work.cols, work.z, work.pooled):
            conv = nn.conv2d_forward(a[lo:hi], layer, cols=cols[lo:hi], out=z[lo:hi])
            pooled[lo:hi], idx = nn.maxpool2x2_forward(nn.relu(conv))
            winners.append(idx)
        return winners

    winners = work.map(forward, bounds)
    top = work.pooled[-1][:n]
    flat = top.reshape(n, -1)
    loss, _, d_logits = nn.softmax_xent(flat @ net.dense_weights.T, y)
    d_dense = d_logits.T @ flat
    d_top = (d_logits @ net.dense_weights).reshape(top.shape)
    d_input = np.empty(x.shape, work.z[0].dtype) if input_grad else None

    def backward(block):
        (lo, hi), idx = block
        d = d_top[lo:hi]
        for i in reversed(range(len(layers))):
            d = nn.maxpool2x2_backward(idx[i], d)
            u = work.z[i][lo:hi]
            u[...] = nn.relu_backward(u, d)
            if i == 0 and not input_grad:
                return
            d, _ = nn.conv2d_backward(inputs[i][lo:hi], layers[i], u, param_grads=False)
        d_input[lo:hi] = d

    work.map(backward, zip(bounds, winners))
    conv_grads = [nn.conv2d_backward(a[:n], layer, u[:n], _cols=cols[:n], input_grad=False)[1]
                  for layer, a, cols, u in zip(layers, inputs, work.cols, work.z)]
    return loss, conv_grads, d_dense, d_input


def forward_shapes(net: Network) -> list[tuple[int, ...]]:
    """Activation shape chain for one patch: input, each conv stage's conv
    and pooled output, logits; read from the buffers of one training pass."""
    cfg = net.config
    x = np.zeros((1, cfg.patch_size, cfg.patch_size, len(cfg.channels)),
                 dtype=net.dense_weights.dtype)
    work = _BatchWork(net, x.shape[1:], 1, x.dtype)
    _batch_loss_and_grads(net, x, np.zeros(1, dtype=np.int64), input_grad=False, work=work)
    stages = [a.shape[1:] for z, pooled in zip(work.z, work.pooled) for a in (z, pooled)]
    return [x.shape[1:], *stages, net.dense_weights.shape[:1]]


def train(net: Network, x: np.ndarray, y: np.ndarray,
          config: TrainConfig) -> tuple[Network, list[float]]:
    """Mini-batch SGD with momentum; updates net in place.

    Deterministic per seed: the per-epoch shuffle and the within-batch
    reduction order are fixed. Each batch runs in train_blocks() patch
    blocks on a thread pool that lives for this call, over buffers sized
    once for the largest batch; the results do not depend on the block
    count. Returns (net, per-epoch mean loss).
    """
    config.validate()
    if x.ndim != 4 or x.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, p, p, C) dataset, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} samples")
    n_classes = net.config.n_classes
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"labels outside [0, {n_classes}): min {y.min()}, max {y.max()}")
    expected = (net.config.patch_size, net.config.patch_size, len(net.config.channels))
    if x.shape[1:] != expected:
        raise ValueError(f"sample shape {x.shape[1:]} does not match model input {expected}")

    rng = np.random.default_rng(config.seed)
    n = x.shape[0]
    velocities = [np.zeros_like(p) for p in net.parameters()]
    history = []
    blocks = train_blocks()
    with ThreadPoolExecutor(max_workers=blocks - 1) if blocks > 1 else nullcontext() as pool:
        work = _BatchWork(net, x.shape[1:], min(config.batch_size, n), x.dtype, blocks, pool)
        for _ in range(config.epochs):
            order = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                loss, conv_grads, d_dense, _ = _batch_loss_and_grads(
                    net, x[idx], y[idx], input_grad=False, work=work)
                if not np.isfinite(loss):
                    raise ValueError(f"training diverged: non-finite loss {loss}")
                batch_losses.append(loss)
                grads = [g for layer in conv_grads
                         for g in (layer.kernels, layer.biases)] + [d_dense]
                for p, g, v in zip(net.parameters(), grads, velocities):
                    nn.sgd_step(p, g, config.learning_rate, config.momentum, v)
            history.append(float(np.mean(batch_losses)))
    return net, history


# ---------------------------------------------------------------------------
# Inference and vote aggregation
# ---------------------------------------------------------------------------


def predict_batch(net: Network, patches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class ids and probabilities for (n, p, p, C) patches; ties go to the
    lowest class id.

    The conv stages run on CONV_BLOCK patches at a time, which keeps their
    im2col rows small; each output row of a conv GEMM has the same bits
    whatever the block size. The dense layer runs on whole chunks of up to
    PREDICT_CHUNK patches.
    """
    if patches.ndim != 4:
        raise ValueError(f"expected (n, p, p, C) patches, got shape {patches.shape}")
    ids = np.empty(patches.shape[0], dtype=np.int64)
    probs = np.empty((patches.shape[0], net.config.n_classes), dtype=np.float64)
    for start in range(0, patches.shape[0], PREDICT_CHUNK):
        chunk = patches[start:start + PREDICT_CHUNK]
        pooled = np.concatenate([_conv_stages(net, chunk[i:i + CONV_BLOCK])
                                 for i in range(0, chunk.shape[0], CONV_BLOCK)])
        p = nn.softmax(pooled.reshape(chunk.shape[0], -1) @ net.dense_weights.T)
        ids[start:start + chunk.shape[0]] = p.argmax(axis=1)
        probs[start:start + chunk.shape[0]] = p
    return ids, probs


def predict_patch(net: Network, patch: np.ndarray) -> tuple[int, np.ndarray]:
    """Predicted class id and probability vector for one (p, p, C) patch."""
    if patch.ndim != 3:
        raise ValueError(f"expected a (p, p, C) patch, got shape {patch.shape}")
    ids, probs = predict_batch(net, patch[None])
    return int(ids[0]), probs[0]


@dataclass
class VoteHistogram:
    """Per-class patch vote counts for one frame."""

    counts: np.ndarray
    total: int = field(default=-1)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.total < 0:
            self.total = int(self.counts.sum())
        if int(self.counts.sum()) != self.total or (self.counts < 0).any():
            raise ValueError(f"histogram counts {self.counts} do not sum to total {self.total}")


def vote_frame(predictions: Iterable[int], n_classes: int) -> tuple[int | None, VoteHistogram]:
    """Majority vote over patch predictions; ties go to the lowest class id.

    With zero surviving patches the frame gets the distinguished
    "no-decision" outcome (None) instead of a class.
    """
    preds = np.asarray(list(predictions), dtype=np.int64)
    if preds.size and (preds.min() < 0 or preds.max() >= n_classes):
        raise ValueError(f"prediction outside [0, {n_classes})")
    counts = np.bincount(preds, minlength=n_classes)
    hist = VoteHistogram(counts=counts, total=int(preds.size))
    if preds.size == 0:
        return None, hist
    return int(counts.argmax()), hist


def temporal_fuse(histograms: Sequence[VoteHistogram]) -> int | None:
    """Sum vote histograms from consecutive frames and take the argmax.

    Ties go to the lowest class id; all-empty histograms fuse to the
    no-decision outcome (None).
    """
    if not histograms:
        raise ValueError("need at least one histogram to fuse")
    summed = np.sum([h.counts for h in histograms], axis=0)
    if summed.sum() == 0:
        return None
    return int(summed.argmax())


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------


def _config_text(config: ModelConfig) -> str:
    return (f"patch_size={config.patch_size}\n"
            f"channels={','.join(config.channels)}\n"
            f"filters={','.join(str(f) for f in config.filters)}\n"
            f"kernel_size={config.kernel_size}\n"
            f"n_classes={config.n_classes}\n"
            f"seed={config.seed}\n")


def _config_from_text(text: str, source: str) -> ModelConfig:
    pairs = parse_key_values(text, source=source)
    try:
        return ModelConfig(
            patch_size=int(pairs["patch_size"]),
            channels=tuple(pairs["channels"].split(",")),
            filters=tuple(int(f) for f in pairs["filters"].split(",")),
            kernel_size=int(pairs["kernel_size"]),
            n_classes=int(pairs["n_classes"]),
            seed=int(pairs["seed"]),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{source}: bad checkpoint config ({exc})") from exc


def save_checkpoint(net: Network, path) -> None:
    """Write magic, version, config text and raw little-endian f32 weights."""
    for param in net.parameters():
        if param.dtype != np.float32:
            raise ValueError(f"checkpoints store float32 weights; got {param.dtype} "
                             "(64-bit networks are for gradient checking only)")
    config_blob = _config_text(net.config).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(config_blob)))
        fh.write(config_blob)
        for param in net.parameters():
            fh.write(np.ascontiguousarray(param, dtype="<f4").tobytes())


def load_checkpoint(path) -> Network:
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    if data[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    version, config_len = struct.unpack_from("<II", data, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}, "
                          f"expected {CHECKPOINT_VERSION}")
    offset = 12
    if len(data) < offset + config_len:
        raise FormatError(f"{path}: truncated config block at byte offset {offset}")
    config = _config_from_text(data[offset:offset + config_len].decode("utf-8"), str(path))
    config.validate()
    offset += config_len

    # size the weights from the config before allocating them, so a forged
    # filter count cannot force a huge allocation
    weight_count = sum(math.prod(shape) + shape[0] for shape in _kernel_shapes(config))
    weight_count += config.n_classes * config.dense_inputs
    if len(data) - offset < 4 * weight_count:
        raise FormatError(f"{path}: truncated weights at byte offset {offset} "
                          f"(config needs {4 * weight_count} bytes, have {len(data) - offset})")

    net = build_model(config)
    names = [f"conv{i}.{part}" for i in range(len(net.conv_layers))
             for part in ("kernels", "biases")] + ["dense_weights"]
    for name, param in zip(names, net.parameters()):
        values = np.frombuffer(data, dtype="<f4", count=param.size, offset=offset)
        finite = np.isfinite(values)
        if not finite.all():
            i = int(finite.argmin())
            raise FormatError(f"{path}: non-finite weight {values[i]} in {name} "
                              f"at byte offset {offset + 4 * i}")
        param[...] = values.reshape(param.shape)
        offset += param.size * 4
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes at byte offset {offset}")
    return net


def require_channels(model_channels: Sequence[str], available: Sequence[str]) -> None:
    """Reject inference when the data cannot supply the model's channel stack."""
    missing = [c for c in model_channels if c not in available]
    if missing:
        raise ValueError(f"channel mismatch: model needs {list(model_channels)}, "
                         f"data provides {list(available)} (missing {missing})")
