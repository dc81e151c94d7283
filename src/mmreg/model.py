"""Network assembly, SGD training, patch inference and checkpoints.

The classifier is three conv+relu+maxpool stages feeding a bias-free dense
softmax layer: with patch size p and same-padding convs, spatial dims halve
at each pool (p -> p/2 -> p/4 -> p/8), so p must be divisible by 8.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import nn
from .pipeline import (CHANNEL_IDS, KEY_VALUE_MAX_BYTES, FormatError, blas_workers, decode_text,
                       parse_key_values, quoted, quoted_int, require_channels)

CHECKPOINT_MAGIC = b"MMRC"
CHECKPOINT_VERSION = 1
# patches per conv-stage block in predict_batch: with one GEMM per conv
# call, blocks of 8, 16 and 32 ran a 512-patch batch about equally fast and
# 2 and 4 slower; 8 holds the least memory
CONV_BLOCK = 8
# patches per dense-layer call in predict_batch, whose bits depend on the
# row count
PREDICT_CHUNK = 512
# ceilings, checked before allocating, on a network's float32 weights and
# on the buffers of one training batch; the default network at batch 100
# takes 0.4 MB and 80 MB on one block, 88 MB on two
MAX_WEIGHT_BYTES = 1 << 30
MAX_BATCH_WORK_BYTES = 1 << 31
# bytes of im2col rows per forward GEMM of a training block's stages 1
# and 2: a block's patches go through in slices of as many as fit
_FORWARD_SLICE_BYTES = 4 << 20


def _slice_patches(patch_bytes: int) -> int:
    """Patches per forward slice of stages 1 and 2 when one patch's im2col
    rows take patch_bytes: as many as fit _FORWARD_SLICE_BYTES, at least one."""
    return max(1, _FORWARD_SLICE_BYTES // patch_bytes)


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
                             f"(three pooling halvings), got {quoted_int(self.patch_size)}")
        if len(self.filters) != 3:
            raise ValueError(f"need three filter counts, got {len(self.filters)}")
        for f in self.filters:
            if f < 1:
                raise ValueError(f"need three positive filter counts, got {quoted_int(f)}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {quoted_int(self.kernel_size)}")
        if not self.channels:
            raise ValueError("channel list is empty")
        for name in self.channels:
            if name not in CHANNEL_IDS:
                raise ValueError(f"unknown channel {quoted(name)}; "
                                 f"expected one of {list(CHANNEL_IDS)}")
        if len(set(self.channels)) != len(self.channels):
            raise ValueError(f"duplicate channels in {self.channels}")
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {quoted_int(self.n_classes)}")

    @property
    def dense_inputs(self) -> int:
        side = self.patch_size // 8
        return side * side * self.filters[2]

    @property
    def weight_count(self) -> int:
        """Kernels, biases and dense weights of the network."""
        conv = sum(math.prod(shape) + shape[0] for shape in _kernel_shapes(self))
        return conv + self.n_classes * self.dense_inputs


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


def _work_shapes(config: ModelConfig, sample_shape, capacity: int, itemsize: int,
                 blocks: int) -> tuple[tuple, list[tuple], list[tuple], list[int]]:
    """Shapes of _BatchWork's arrays for batches of up to capacity (h, w, c)
    samples of itemsize-byte values in `blocks` blocks: stage 0's im2col
    rows, every stage's conv output, every stage's pooled output, and the
    size of each block's scratch row.

    Scratch row j holds the im2col rows of a forward slice of block j.
    Row i - 1 also holds a chunk of conv2d_backward's rebuilt rows for
    stage i (i = 1, 2), which run at once on two threads when there are
    two or more blocks; with one block both share row 0. A chunk is
    sized for any batch up to capacity: a smaller batch's chunk may hold
    more kernel rows, but never more than k of them nor, unless it holds
    one, more than the budget.
    """
    h, w, _ = sample_shape
    k, pad = config.kernel_size, (config.kernel_size - 1) // 2
    block = -(-capacity // blocks)
    cols, zs, pooled, sliced, chunks = None, [], [], 0, []
    for c_out, _, _, c_in in _kernel_shapes(config):
        h, w = (nn._conv_out_size(side, k, pad) for side in (h, w))
        per_patch = h * w * k * k * c_in  # im2col elements of one patch
        if cols is None:
            cols = (capacity, h * w, k * k * c_in)
        else:
            row = capacity * per_patch // k  # one kernel row's rows at capacity
            sliced = max(sliced, min(block, _slice_patches(per_patch * itemsize)) * per_patch)
            chunks.append(max(row * nn._kernel_rows_per_chunk(row * itemsize, k),
                              min(k * row, nn._KERNEL_GRAD_CHUNK_BYTES // itemsize)))
        zs.append((capacity, h, w, c_out))
        pooled.append((capacity, h // 2, w // 2, c_out))
        h, w = h // 2, w // 2
    scratch = [sliced] * blocks
    for i, chunk in enumerate(chunks):
        scratch[i % blocks] = max(scratch[i % blocks], chunk)
    return cols, zs, pooled, scratch


def require_sizes(config: ModelConfig, batch: int = 0, itemsize: int = 4,
                  blocks: int = 1) -> None:
    """Validate config, then refuse, before anything is allocated, a network
    whose float32 weights take over MAX_WEIGHT_BYTES, or whose training
    buffers (_BatchWork's) for batches of `batch` patches of itemsize-byte
    values in `blocks` blocks take over MAX_BATCH_WORK_BYTES."""
    config.validate()
    weight_bytes = 4 * config.weight_count
    if weight_bytes > MAX_WEIGHT_BYTES:
        raise ValueError(f"the network's weights take {quoted_int(weight_bytes)} bytes, "
                         f"over the {MAX_WEIGHT_BYTES}-byte cap")
    sample_shape = (config.patch_size, config.patch_size, len(config.channels))
    cols, zs, pooled, scratch = _work_shapes(config, sample_shape, batch, itemsize, blocks)
    work_bytes = itemsize * (sum(map(math.prod, [cols, *zs, *pooled])) + sum(scratch))
    if work_bytes > MAX_BATCH_WORK_BYTES:
        raise ValueError(f"training buffers for batches of {batch} take {work_bytes} bytes, "
                         f"over the {MAX_BATCH_WORK_BYTES}-byte cap; lower the batch size")


def build_model(config: ModelConfig) -> Network:
    """He-initialized network per the config; biases start at zero."""
    require_sizes(config)
    pad = (config.kernel_size - 1) // 2
    layers = []
    for i, shape in enumerate(_kernel_shapes(config)):
        kernels = nn.he_init(shape, seed=config.seed + i)
        layers.append(nn.ConvParams(kernels=kernels,
                                    biases=np.zeros(shape[0], dtype=np.float32), padding=pad))
    dense = nn.he_init((config.n_classes, config.dense_inputs), seed=config.seed + 3)
    return Network(config=config, conv_layers=layers, dense_weights=dense)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _conv_stages(net: Network, x: np.ndarray) -> np.ndarray:
    """Pooled output of the conv -> relu -> pool stages for x (B, p, p, C)."""
    a = x
    for layer in net.conv_layers:
        a = nn.maxpool2x2(nn.relu(nn.conv2d_forward(a, layer)))
    return a


class _BatchWork:
    """Whole-batch buffers of the loss-and-gradient pass for up to capacity
    (h, w, c) samples, in the dtype of those samples and the network's
    conv parameters, and the pool its patch blocks run on.

    It holds stage 0's im2col rows, every stage's conv output and pooled
    output, and one scratch row per block, each sized for what it serves
    (_work_shapes). The forward applies relu over the conv output in
    place, and the backward overwrites it with the gradient at the conv
    output, so one buffer serves the conv output, its relu and its
    gradient. Blocks write their rows of these in place.

    Stages 1 and 2 keep no im2col rows: a block's forward lowers them a
    slice of patches at a time into its scratch row, and their kernel
    gradients rebuild them a chunk of kernel rows at a time into scratch
    rows 0 and 1 (nn.conv2d_backward). Stage 0 keeps its rows: with
    the default 4 input channels a rebuilt kernel row copies runs of only
    20 values, and at batch 100 on one thread its kernel gradient took
    25.8 ms rebuilt against 15.7 ms kept (conv1 35.7 against 32.1 ms,
    conv2 10.9 either way). Rebuilding all three stages peaked about
    35 MB lower but lost `train` throughput in 4 of 4 benchmark pairs,
    by about 11 %.
    """

    def __init__(self, net: Network, sample_shape, capacity: int, dtype,
                 blocks: int = 1, pool: ThreadPoolExecutor | None = None):
        # with one block every call runs on this thread, so the two
        # rebuilt-stage kernel gradients can share a scratch row
        self.blocks, self.pool = blocks, pool if blocks > 1 else None
        dtype = np.result_type(dtype, *(p for layer in net.conv_layers
                                        for p in (layer.kernels, layer.biases)))
        cols, zs, pooled, scratch = _work_shapes(net.config, sample_shape, capacity,
                                                 dtype.itemsize, blocks)
        self.cols = np.empty(cols, dtype)
        self.z = [np.empty(shape, dtype) for shape in zs]
        self.pooled = [np.empty(shape, dtype) for shape in pooled]
        self.scratch = [np.empty(size, dtype) for size in scratch]

    def bounds(self, n: int) -> list[tuple[int, int]]:
        """[start, stop) of each contiguous block of an n-sample batch."""
        count = min(self.blocks, n)
        return [(j * n // count, (j + 1) * n // count) for j in range(count)]

    def map(self, fn, items) -> list:
        """[fn(item) for item in items], the first on this thread and the
        rest on the pool, or all in order on this thread without a pool.
        Every call has ended when this returns or raises; the first error
        in item order is raised."""
        if self.pool is None:
            return [fn(item) for item in items]
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
    input-gradient taps. Relu and the fused pool/relu backward run in
    place in work.z, the conv-output buffers: at the default net's batch
    of 100, a call's own arrays peak near 15 MB (17 MB with input_grad).
    Stages 1 and 2 run their forward GEMMs on slices of a block, of
    _FORWARD_SLICE_BYTES of im2col rows each; a block is split only when
    its rows exceed that, so small nets, whose GEMM rows can change bits
    with the row count (see nn), run unsplit. The input-gradient taps
    give each sample's rows the same bits in any block. The dense layer,
    the loss and every kernel and bias gradient are single whole-batch
    calls. So the result had the bits of a whole-batch pass at every
    block count tested (tests/test_model.py TestBlockedBatch). The three
    kernel-and-bias calls are spread over work's threads, the heaviest on
    this one; only the thread a call runs on changes, not its arrays or
    reduction order.
    """
    n = x.shape[0]
    if work is None:
        work = _BatchWork(net, x.shape[1:], n, x.dtype)
    layers = net.conv_layers
    inputs = [x, *work.pooled[:-1]]  # each conv stage's input rows
    bounds = work.bounds(n)

    def forward(block):
        j, (lo, hi) = block
        winners = []
        for i, (layer, a, z, pooled) in enumerate(zip(layers, inputs, work.z, work.pooled)):
            if i == 0:
                nn.conv2d_forward(a[lo:hi], layer, cols=work.cols[lo:hi], out=z[lo:hi])
            else:
                pixels, width = z.shape[1] * z.shape[2], layer.kernels[0].size
                per = _slice_patches(pixels * width * z.itemsize)
                for start in range(lo, hi, per):
                    stop = min(start + per, hi)
                    cols = work.scratch[j][:(stop - start) * pixels * width]
                    nn.conv2d_forward(a[start:stop], layer,
                                      cols=cols.reshape(stop - start, pixels, width),
                                      out=z[start:stop])
            pooled[lo:hi], idx = nn.maxpool2x2_forward(nn.relu_inplace(z[lo:hi]))
            winners.append(idx)
        return winners

    winners = work.map(forward, list(enumerate(bounds)))
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
            u = nn.maxpool2x2_relu_backward(idx[i], d, work.z[i][lo:hi])
            if i == 0 and not input_grad:
                return
            d, _ = nn.conv2d_backward(inputs[i][lo:hi], layers[i], u, param_grads=False)
        d_input[lo:hi] = d

    work.map(backward, zip(bounds, winners))

    def param_grads(i):
        if i == 0:
            return nn.conv2d_backward(inputs[0][:n], layers[0], work.z[0][:n],
                                      _cols=work.cols[:n], input_grad=False)[1]
        # stages 1 and 2 take different scratch rows unless there is one block
        return nn.conv2d_backward(inputs[i][:n], layers[i], work.z[i][:n], input_grad=False,
                                  cols=work.scratch[(i - 1) % work.blocks])[1]

    # heaviest GEMM first, so that with two threads the calling thread takes
    # conv1 and the pool thread conv0 then conv2 (equal halves by default)
    order = sorted(range(len(layers)),
                   key=lambda i: -work.z[i][:n].size * layers[i].kernels[0].size)
    conv_grads = [None] * len(layers)
    for i, grads in zip(order, work.map(param_grads, order)):
        conv_grads[i] = grads
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

    x holds the (n, p, p, C) patches: an array, or an object with its
    shape, ndim and dtype whose x[idx] gathers rows, such as a
    pipeline.PatchTable.

    Deterministic per seed: the per-epoch shuffle and the within-batch
    reduction order are fixed. Each batch runs in blas_workers() patch
    blocks on a thread pool that lives for this call, over buffers sized
    once for the largest batch, and its three whole-batch kernel-gradient
    calls are spread over the same threads; the results do not depend on
    the thread count. Returns (net, per-epoch mean loss).
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

    n = x.shape[0]
    blocks = blas_workers()
    require_sizes(net.config, min(config.batch_size, n),
                  np.result_type(x, *net.parameters()).itemsize, blocks)
    rng = np.random.default_rng(config.seed)
    velocities = [np.zeros_like(p) for p in net.parameters()]
    history = []
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
# Inference
# ---------------------------------------------------------------------------


def predict_batch(net: Network, patches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class ids and probabilities for (n, p, p, C) patches; ties go to the
    lowest class id.

    The conv stages run on CONV_BLOCK patches at a time, which keeps their
    im2col rows small. For the default network that gives the bits of a
    whole-chunk forward; for small nets it may not, as their GEMM rows
    round otherwise with the row count (see nn). The dense layer runs on
    whole chunks of up to PREDICT_CHUNK patches.
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
    """Read a checkpoint. Its size is checked against the one its header
    and config imply before any weight is read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if size < 12:
            raise FormatError(f"{path}: truncated header ({size} bytes)")
        if head[:4] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
        version, config_len = struct.unpack_from("<II", head, 4)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}, "
                              f"expected {CHECKPOINT_VERSION}")
        offset = 12
        if config_len > KEY_VALUE_MAX_BYTES:
            raise FormatError(f"{path}: config block of {config_len} bytes at byte offset "
                              f"{offset}, over the {KEY_VALUE_MAX_BYTES}-byte cap on "
                              "key=value text")
        if size < offset + config_len:
            raise FormatError(f"{path}: truncated config block at byte offset {offset}")
        config = _config_from_text(decode_text(fh.read(config_len), path, offset), str(path))
        config.validate()
        offset += config_len

        # size the weights from the config before allocating them, so a forged
        # filter count cannot force a huge allocation
        weight_bytes = 4 * config.weight_count
        if size - offset < weight_bytes:
            raise FormatError(f"{path}: truncated weights at byte offset {offset} "
                              f"(config needs {quoted_int(weight_bytes)} bytes, "
                              f"have {size - offset})")
        end = offset + weight_bytes
        if size != end:
            raise FormatError(f"{path}: {size - end} trailing bytes at byte offset {end}")

        net = build_model(config)
        names = [f"conv{i}.{part}" for i in range(len(net.conv_layers))
                 for part in ("kernels", "biases")] + ["dense_weights"]
        for name, param in zip(names, net.parameters()):
            values = np.frombuffer(fh.read(4 * param.size), dtype="<f4")
            if values.size != param.size:
                raise FormatError(f"{path}: file shrank while {name} was read")
            finite = np.isfinite(values)
            if not finite.all():
                i = int(finite.argmin())
                raise FormatError(f"{path}: non-finite weight {values[i]} in {name} "
                                  f"at byte offset {offset + 4 * i}")
            param[...] = values.reshape(param.shape)
            offset += param.size * 4
    return net
