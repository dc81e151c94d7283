"""Frame container, MMF file I/O, flow channels, the patch grid (depth-offset
shift, channel stack, windows and variance filter) and labeled dataset
assembly.

MMF ("multi-modal frame") is a little-endian binary container:
magic "MMF1", u32 width, u32 height, u32 channel_count, channel_count bytes
of channel ids (R=0, G=1, B=2, Gr=3, L=4, U=5, V=6), then one row-major
float32 plane of height x width values per channel.

Dataset manifests are flat key=value text files; replaying a manifest over
the same frames reproduces the dataset bit-exactly.
"""

from __future__ import annotations

import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import flow
from .offsets import OffsetClass

MMF_MAGIC = b"MMF1"
CHANNEL_IDS = {"R": 0, "G": 1, "B": 2, "Gr": 3, "L": 4, "U": 5, "V": 6}
CHANNEL_NAMES = {v: k for k, v in CHANNEL_IDS.items()}
_CANONICAL_ORDER = {name: i for i, name in enumerate(CHANNEL_IDS)}

DEFAULT_WIDTH = 800
DEFAULT_HEIGHT = 256
# "15%" variance cutoff read against the max possible variance (0.25) of a
# [0,1]-valued plane.
DEFAULT_TAU = 0.15 * 0.25
DEFAULT_FILL = 0.0
# largest key=value file (manifest, --config, checkpoint config block) read
# or written; room for over 200,000 frame entries with 255-byte names
KEY_VALUE_MAX_BYTES = 64 << 20


class FormatError(ValueError):
    """Malformed MMF/manifest/checkpoint content."""


class Frame:
    """Fixed-size multi-channel snapshot; planes are float32 in [0,1].

    Channels are kept in the canonical order R,G,B,Gr,L,U,V regardless of
    insertion order so that stacking and serialization are reproducible.
    """

    def __init__(self, channels: dict[str, np.ndarray]):
        if not channels:
            raise ValueError("frame needs at least one channel")
        planes: dict[str, np.ndarray] = {}
        shape = None
        for name, plane in channels.items():
            if name not in CHANNEL_IDS:
                raise ValueError(f"unknown channel id {name!r}; expected one of {list(CHANNEL_IDS)}")
            plane = np.asarray(plane, dtype=np.float32)
            if plane.ndim != 2:
                raise ValueError(f"channel {name} must be a 2-d plane, got shape {plane.shape}")
            if plane.size == 0:
                raise ValueError(f"channel {name} is empty, got shape {plane.shape}")
            if shape is None:
                shape = plane.shape
            elif plane.shape != shape:
                raise ValueError(f"channel {name} shape {plane.shape} differs from {shape}")
            lo, hi = float(plane.min()), float(plane.max())
            if not (lo >= 0.0 and hi <= 1.0):  # NaN fails this too
                raise ValueError(f"channel {name} values outside [0,1]: min {lo}, max {hi}")
            planes[name] = plane
        self._channels = {name: planes[name]
                          for name in sorted(planes, key=_CANONICAL_ORDER.__getitem__)}

    @property
    def height(self) -> int:
        return next(iter(self._channels.values())).shape[0]

    @property
    def width(self) -> int:
        return next(iter(self._channels.values())).shape[1]

    @property
    def channel_names(self) -> list[str]:
        return list(self._channels)

    def has_channel(self, name: str) -> bool:
        return name in self._channels

    def plane(self, name: str) -> np.ndarray:
        if name not in self._channels:
            raise KeyError(f"frame has no channel {name!r}; present: {self.channel_names}")
        return self._channels[name]

    def with_channels(self, extra: dict[str, np.ndarray]) -> "Frame":
        merged = dict(self._channels)
        merged.update(extra)
        return Frame(merged)

    def stack(self, channels: list[str] | None = None) -> np.ndarray:
        """Stack the selected channels into an (H, W, C) array."""
        names = channels if channels is not None else self.channel_names
        return np.stack([self.plane(n) for n in names], axis=-1)


# ---------------------------------------------------------------------------
# MMF serialization
# ---------------------------------------------------------------------------


def write_frame(frame: Frame, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MMF_MAGIC)
        fh.write(struct.pack("<III", frame.width, frame.height, len(frame.channel_names)))
        for name in frame.channel_names:
            fh.write(struct.pack("B", CHANNEL_IDS[name]))
        for name in frame.channel_names:
            fh.write(np.ascontiguousarray(frame.plane(name), dtype="<f4").tobytes())


def read_frame(path) -> Frame:
    """Read an MMF file. Its size is checked against the one its header
    implies before any plane is read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def need(count: int, offset: int, what: str) -> None:
            if size < offset + count:
                raise FormatError(f"{path}: truncated {what} at byte offset {offset} "
                                  f"(need {count} bytes, have {size - offset})")

        head = fh.read(16)
        need(4, 0, "magic")
        if head[:4] != MMF_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r} at byte offset 0, "
                              f"expected {MMF_MAGIC!r}")
        need(12, 4, "header")
        width, height, channel_count = struct.unpack_from("<III", head, 4)
        if width == 0 or height == 0:
            raise FormatError(f"{path}: zero frame dimension {width}x{height} at byte offset 4")
        if channel_count == 0 or channel_count > len(CHANNEL_IDS):
            raise FormatError(f"{path}: channel count {channel_count} at byte offset 12 "
                              f"outside [1, {len(CHANNEL_IDS)}]")
        offset = 16
        need(channel_count, offset, "channel id table")
        names = []
        for i, cid in enumerate(fh.read(channel_count)):
            if cid not in CHANNEL_NAMES:
                raise FormatError(f"{path}: unknown channel id {cid} at byte offset {offset + i}")
            names.append(CHANNEL_NAMES[cid])
        if len(set(names)) != len(names):
            raise FormatError(f"{path}: duplicate channel ids at byte offset {offset}")
        offset += channel_count

        plane_bytes = width * height * 4
        planes_start = offset
        for name in names:
            need(plane_bytes, offset, f"plane {name}")
            offset += plane_bytes
        if offset != size:
            raise FormatError(f"{path}: {size - offset} trailing bytes at byte offset {offset}")
        channels = {}
        for name in names:
            plane = channels[name] = np.empty((height, width), dtype="<f4")
            if fh.readinto(plane) != plane_bytes:
                raise FormatError(f"{path}: file shrank while plane {name} was read")
    try:
        return Frame(channels)
    except ValueError as exc:
        # Frame checks the planes in file order, so the first plane holding
        # a value outside [0,1] (NaN included) is the one it names
        where = ""
        for k, plane in enumerate(channels.values()):
            bad = np.flatnonzero(~((plane >= 0.0) & (plane <= 1.0)))
            if bad.size:
                where = f"; first at byte offset {planes_start + k * plane_bytes + 4 * bad[0]}"
                break
        raise FormatError(f"{path}: {exc}{where}") from exc


# ---------------------------------------------------------------------------
# Channel derivation and offset simulation
# ---------------------------------------------------------------------------


def rgb_to_gray(frame: Frame) -> Frame:
    """Add a Gr channel from R,G,B using Rec. 601 weights."""
    for name in ("R", "G", "B"):
        if not frame.has_channel(name):
            raise ValueError(f"rgb_to_gray needs R,G,B channels; frame has {frame.channel_names}")
    gray = (0.299 * frame.plane("R") + 0.587 * frame.plane("G") + 0.114 * frame.plane("B"))
    return frame.with_channels({"Gr": np.clip(gray, 0.0, 1.0).astype(np.float32)})


def add_flow_channels(frames: Iterable[Frame], alpha: float = flow.DEFAULT_ALPHA,
                      iterations: int = flow.DEFAULT_ITERATIONS,
                      clamp: float = flow.DEFAULT_CLAMP) -> Iterator[Frame]:
    """Each frame with U,V channels of the Horn-Schunck flow from the frame
    before it (zero flow for the first), Gr derived from R,G,B where missing.
    The parameters are checked before a frame is read. Pairs map on
    bounded_map(worker_count()), in order; closing the iterator joins it."""
    flow.check_flow_params(alpha, iterations, clamp)

    def pairs():  # (previous frame or None, frame), each frame pulled once
        prev = None
        for frame in frames:
            if not frame.has_channel("Gr"):
                frame = rgb_to_gray(frame)
            yield prev, frame
            prev = frame

    def with_flow(pair) -> Frame:
        prev, frame = pair
        if prev is None:
            field = flow.zero_flow(frame.height, frame.width)
        else:
            field = flow.estimate_flow(prev.plane("Gr"), frame.plane("Gr"),
                                       alpha=alpha, iterations=iterations)
        u01, v01 = flow.flow_to_channels(field, clamp=clamp)
        return frame.with_channels({"U": u01, "V": v01})

    return bounded_map(with_flow, pairs(), worker_count())


def shift_plane(plane: np.ndarray, dx: int, dy: int, fill: float) -> np.ndarray:
    """Translate a plane by (dx right, dy down); vacated pixels get fill."""
    h, w = plane.shape
    out = np.full_like(plane, fill)
    src_rows = slice(max(-dy, 0), h - max(dy, 0))
    dst_rows = slice(max(dy, 0), h + min(dy, 0))
    src_cols = slice(max(-dx, 0), w - max(dx, 0))
    dst_cols = slice(max(dx, 0), w + min(dx, 0))
    out[dst_rows, dst_cols] = plane[src_rows, src_cols]
    return out


# ---------------------------------------------------------------------------
# Patch extraction and variance filtering
# ---------------------------------------------------------------------------


def _check_size_stride(p: int, s: int) -> None:
    if p < 1:
        raise ValueError(f"patch size must be >= 1, got {p}")
    if s < 1:
        raise ValueError(f"stride must be >= 1, got {s}")


def check_grid_params(p: int, s: int, tau: float, fill: float) -> None:
    """The patch grid's checks that need no frame: patch size and stride
    >= 1, fill in [0,1] and tau >= 0 (NaN fails both value checks)."""
    _check_size_stride(p, s)
    if not 0.0 <= fill <= 1.0:
        raise ValueError(f"fill value {fill} outside [0,1]")
    if not tau >= 0:
        raise ValueError(f"variance threshold must be >= 0, got {tau}")


def patch_grid_shape(height: int, width: int, p: int, s: int) -> tuple[int, int]:
    """(rows, cols) of the patch grid for size p and stride s."""
    _check_size_stride(p, s)
    if p > height or p > width:
        raise ValueError(f"patch size {p} exceeds frame dims {width}x{height}")
    return (height - p) // s + 1, (width - p) // s + 1


def _window_view(stacked: np.ndarray, p: int, s: int) -> np.ndarray:
    """(rows, cols, p, p, C) strided view over an (H, W, C) array."""
    windows = np.lib.stride_tricks.sliding_window_view(stacked, (p, p), axis=(0, 1))
    return windows[::s, ::s].transpose(0, 1, 3, 4, 2)


def extract_patches(frame: Frame, p: int, s: int,
                    channels: list[str] | None = None) -> list[tuple[tuple[int, int], np.ndarray]]:
    """All fully-inside p x p windows at stride s, with (row, col) origins.

    Patches stack the requested channels (frame order by default) into
    (p, p, C) arrays; count is ((H-p)//s + 1) * ((W-p)//s + 1).
    """
    rows, cols = patch_grid_shape(frame.height, frame.width, p, s)
    windows = _window_view(frame.stack(channels), p, s)
    return [((i * s, j * s), np.ascontiguousarray(windows[i, j]))
            for i in range(rows) for j in range(cols)]


def patch_grid(frame: Frame, offset: OffsetClass, p: int, s: int, tau: float,
               fill: float, channels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The patch grid of one frame under one depth offset.

    Only the L plane is translated by the offset, vacated pixels getting
    fill; the other planes stay put. Returns the (rows, cols, p, p, C)
    window view over the stacked channels and the (rows, cols) mask of
    windows whose shifted depth has population variance >= tau.
    """
    check_grid_params(p, s, tau, fill)
    patch_grid_shape(frame.height, frame.width, p, s)
    if abs(offset.dx) >= frame.width or abs(offset.dy) >= frame.height:
        raise ValueError(f"offset ({offset.dx},{offset.dy}) exceeds frame dims "
                         f"{frame.width}x{frame.height}")
    shifted = shift_plane(frame.plane("L"), offset.dx, offset.dy, fill)
    stacked = np.empty((frame.height, frame.width, len(channels)), dtype=np.float32)
    for col, name in enumerate(channels):
        stacked[:, :, col] = shifted if name == "L" else frame.plane(name)
    keep = _window_view(shifted[:, :, None], p, s)[..., 0].var(axis=(2, 3)) >= tau
    return _window_view(stacked, p, s), keep


# ---------------------------------------------------------------------------
# Thread counts and the ordered thread map. Every pool in mmreg is sized
# here: worker_count() threads, or blas_workers() if its items run BLAS
# ---------------------------------------------------------------------------

def worker_count() -> int:
    """Threads of a pool with no BLAS work, from MMREG_THREADS; 0 or unset
    means one per CPU, at most 8."""
    raw = os.environ.get("MMREG_THREADS", "0").strip() or "0"
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"MMREG_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError(f"MMREG_THREADS must be >= 0, got {n}")
    if n == 0:
        return min(os.cpu_count() or 1, 8)
    return n


def blas_threads() -> int:
    """Threads OpenBLAS runs a matrix product on: OPENBLAS_NUM_THREADS,
    else OMP_NUM_THREADS, else one per CPU (its default). A value that is
    not a positive integer counts as unset."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        raw = os.environ.get(name, "").strip()
        if raw.isdecimal() and int(raw) > 0:
            return int(raw)
    return os.cpu_count() or 1


def blas_workers() -> int:
    """Threads of a pool whose items run BLAS matrix products (training
    blocks, eval's pairs): max(1, worker_count() // blas_threads())."""
    return max(1, worker_count() // blas_threads())


def bounded_map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """Yield fn(item) for each item, in input order, from a pool of
    ``workers`` threads; calls run inline when workers <= 1.

    At most 2 * workers items are pulled from ``items`` ahead of the
    consumer, so memory stays flat on long inputs. An exception from fn
    is raised when its result is due; one from ``items`` is raised when
    the item is pulled. Either way the pool's threads have exited by the
    time the exception leaves this generator.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    window = 2 * workers
    pending: deque = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for item in items:
                pending.append(pool.submit(fn, item))
                if len(pending) == window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------


@dataclass
class PatchSample:
    """One labeled patch: (p, p, C) data plus its offset class and origin."""

    data: np.ndarray
    label: int
    frame_index: int
    origin: tuple[int, int]


@dataclass
class DatasetManifest:
    """Everything needed to regenerate a dataset bit-exactly from its frames."""

    patch_size: int
    stride: int
    channels: list[str]
    offsets: list[OffsetClass]
    tau: float
    fill: float
    seed: int
    split: str = "all"
    frames_dir: str = "."
    frame_files: list[str] = field(default_factory=list)
    frame_count: int = 0
    patch_count: int = 0


def patch_counts(frames: Iterable[Frame], offsets: Sequence[OffsetClass], p: int, s: int,
                 tau: float, fill: float = DEFAULT_FILL) -> np.ndarray:
    """Kept-window count of every (frame, offset class) pair, the sum of
    patch_grid's keep mask, as a (frames, offsets) int64 array.

    One frame per bounded_map call; frames may be a stream, of which
    bounded_map holds 2 * worker_count() at most.
    """
    if not offsets:
        raise ValueError("offset table is empty")

    def counts(frame: Frame) -> list[int]:
        return [int(patch_grid(frame, offset, p, s, tau, fill, ("L",))[1].sum())
                for offset in offsets]

    rows = list(bounded_map(counts, frames, worker_count()))
    return np.array(rows, dtype=np.int64).reshape(-1, len(offsets))


def patch_arrays(frames: Sequence[Frame], offsets: Sequence[OffsetClass], p: int, s: int,
                 tau: float, fill: float = DEFAULT_FILL, channels: Sequence[str] | None = None,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every kept window as arrays: (n, p, p, C) float32 data, then int64
    offset class ids, frame indices and (n, 2) (row, col) origins.

    Rows run frames in index order, offset classes in table order, windows
    row-major. patch_counts sizes the arrays; then, one frame per
    bounded_map call, each (frame, offset) pair takes its patch_grid and
    writes its windows[keep] into its own slice of them. So every keep
    mask is computed twice, once to count and once to fill.
    """
    if not frames:
        raise ValueError("no frames to cut patches from")
    if channels is not None and not channels:
        raise ValueError("channel selection is empty")
    sel = list(channels if channels is not None else frames[0].channel_names)
    counts = patch_counts(frames, offsets, p, s, tau, fill)
    ends = np.cumsum(counts).reshape(counts.shape)
    n = int(counts.sum())
    x = np.empty((n, p, p, len(sel)), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    frame_index = np.empty(n, dtype=np.int64)
    origins = np.empty((n, 2), dtype=np.int64)

    def write(index: int) -> None:
        for j, offset in enumerate(offsets):
            windows, keep = patch_grid(frames[index], offset, p, s, tau, fill, sel)
            rows = slice(ends[index, j] - counts[index, j], ends[index, j])
            x[rows] = windows[keep]
            labels[rows] = offset.id
            frame_index[rows] = index
            origins[rows] = np.argwhere(keep) * s

    for _ in bounded_map(write, range(len(frames)), worker_count()):
        pass
    return x, labels, frame_index, origins


def iter_patch_samples(frames: Iterable[Frame], offsets: list[OffsetClass], p: int, s: int,
                       tau: float, fill: float = DEFAULT_FILL,
                       channels: list[str] | None = None) -> Iterator[PatchSample]:
    """PatchSample views over the rows of patch_arrays, in its order."""
    x, labels, frame_index, origins = patch_arrays(list(frames), offsets, p, s, tau, fill,
                                                   channels)
    return map(PatchSample, x, labels.tolist(), frame_index.tolist(),
               map(tuple, origins.tolist()))


def build_dataset(frames: list[Frame], offsets: list[OffsetClass], p: int, s: int,
                  tau: float, fill: float = DEFAULT_FILL,
                  channels: list[str] | None = None, seed: int = 0,
                  split: str = "all") -> tuple[list[PatchSample], DatasetManifest]:
    """Materialize the sample stream and its manifest.

    Raises if the variance filter leaves nothing.
    """
    frames = list(frames)
    samples = list(iter_patch_samples(frames, offsets, p, s, tau, fill, channels))
    if not samples:
        raise ValueError(f"variance filter (tau={tau}) dropped every patch; lower tau")
    sel = channels if channels is not None else frames[0].channel_names
    manifest = DatasetManifest(patch_size=p, stride=s, channels=list(sel),
                               offsets=list(offsets), tau=tau, fill=fill, seed=seed,
                               split=split, frame_count=len(frames),
                               patch_count=len(samples))
    return samples, manifest


# ---------------------------------------------------------------------------
# Manifest serialization (flat key=value text)
# ---------------------------------------------------------------------------


def manifest_text(manifest: DatasetManifest) -> str:
    """The manifest as key=value lines. A value that parse_key_values would
    not read back unchanged raises a ValueError naming its key: one that
    str.splitlines() splits, with whitespace at either end, or holding a
    code point that UTF-8 cannot encode (a lone surrogate). So does a text
    over KEY_VALUE_MAX_BYTES, which read_key_values refuses."""
    pairs = [
        ("format", "mmreg-manifest-1"),
        ("split", manifest.split),
        ("patch_size", f"{manifest.patch_size}"),
        ("stride", f"{manifest.stride}"),
        ("tau", f"{manifest.tau!r}"),
        ("fill", f"{manifest.fill!r}"),
        ("seed", f"{manifest.seed}"),
        ("channels", ",".join(manifest.channels)),
        ("n_classes", f"{len(manifest.offsets)}"),
    ]
    pairs += [(f"offset_{off.id}", f"{off.dx},{off.dy}") for off in manifest.offsets]
    pairs += [("frames_dir", manifest.frames_dir), ("frame_count", f"{manifest.frame_count}")]
    pairs += [(f"frame_{i}", name) for i, name in enumerate(manifest.frame_files)]
    pairs.append(("patch_count", f"{manifest.patch_count}"))
    for key, value in pairs:
        if (value.strip() != value or "".join(value.splitlines()) != value
                or value.encode(errors="replace").decode() != value):
            raise ValueError(f"manifest {key} {quoted(value)} would not read back: it holds a "
                             "line break, whitespace at either end or a code point that "
                             "UTF-8 cannot encode")
    text = "".join(f"{key}={value}\n" for key, value in pairs)
    size = len(text.encode())
    if size > KEY_VALUE_MAX_BYTES:
        raise ValueError(f"manifest of {size} bytes would not read back: over the "
                         f"{KEY_VALUE_MAX_BYTES}-byte cap on key=value files")
    return text


def write_manifest(manifest: DatasetManifest, path) -> None:
    """manifest_text to a file; nothing is written if it raises."""
    Path(path).write_text(manifest_text(manifest))


def decode_text(data: bytes, source, offset: int = 0) -> str:
    """data as UTF-8 text. A byte that is not UTF-8 raises a FormatError
    naming source and the byte's offset, counted from ``offset``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{source}: byte {data[exc.start]:#04x} at byte offset "
                          f"{offset + exc.start} is not UTF-8") from None


def quoted(value: str) -> str:
    """repr(value), or for a value over 60 characters the repr of its first
    60 and the count left out; file content quoted in an error message can
    be a line of any length."""
    if len(value) <= 60:
        return repr(value)
    return f"{value[:60]!r} and {len(value) - 60} more characters"


def quoted_int(n: int) -> str:
    """n for an error message, cut by quoted: a config value can have
    thousands of digits, and a product of them more than str() converts."""
    if n.bit_length() > 14_000:  # about 4,200 digits; str() refuses past 4,300
        return f"2**{n.bit_length() - 1} or more"
    text = str(n)
    return text if len(text) <= 60 else quoted(text)


def parse_key_values(text: str, source: str = "<manifest>") -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{source}:{lineno}: expected key=value, got {quoted(line)}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise FormatError(f"{source}:{lineno}: repeated key {quoted(key)}")
        pairs[key] = value
    return pairs


def read_key_values(path) -> dict[str, str]:
    """parse_key_values over a UTF-8 text file of at most
    KEY_VALUE_MAX_BYTES; a larger file is refused before it is read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size <= KEY_VALUE_MAX_BYTES:
            # a read of n bytes allocates n first, so read one byte past the
            # file's size, and only past that (up to one byte past the cap)
            # when the file grew or is a pipe, which reports size 0
            data = fh.read(size + 1)
            if len(data) > size:
                data += fh.read(KEY_VALUE_MAX_BYTES + 1 - len(data))
            size = max(size, len(data))
    if size > KEY_VALUE_MAX_BYTES:
        raise FormatError(f"{path}: {size} bytes, over the {KEY_VALUE_MAX_BYTES}-byte cap "
                          "on key=value files")
    return parse_key_values(decode_text(data, path), source=str(path))


def _float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{key} {quoted(text)} is not a number") from None


def read_manifest(path) -> DatasetManifest:
    pairs = read_key_values(path)
    try:
        if pairs["format"] != "mmreg-manifest-1":
            raise ValueError(f"unknown manifest format {quoted(pairs['format'])}")
        n_classes = int(pairs["n_classes"])
        if n_classes < 2:
            raise ValueError(f"n_classes {n_classes} below 2")
        frame_count = int(pairs["frame_count"])
        if frame_count < 0:
            raise ValueError(f"negative frame_count {frame_count}")
        # mmreg dataset refuses to write a dataset without patches
        patch_count = int(pairs["patch_count"])
        if patch_count < 1:
            raise ValueError(f"patch_count {patch_count} below 1")
        for prefix, count_key, count in (("offset_", "n_classes", n_classes),
                                         ("frame_", "frame_count", frame_count)):
            beyond = next((key for key in pairs if key.startswith(prefix)
                           and key[len(prefix):].isdecimal()
                           and int(key[len(prefix):]) >= count), None)
            if beyond:
                raise ValueError(f"entry {beyond} beyond {count_key} {count}")
        offsets, seen = [], {}
        for i in range(n_classes):
            dx, dy = (int(v) for v in pairs[f"offset_{i}"].split(","))
            if (dx, dy) in seen:
                raise ValueError(f"offset_{seen[dx, dy]} and offset_{i} both shift by "
                                 f"({dx}, {dy})")
            seen[dx, dy] = i
            offsets.append(OffsetClass(id=i, dx=dx, dy=dy))
        channels = pairs["channels"].split(",")
        unknown = [name for name in channels if name not in CHANNEL_IDS]
        if unknown:
            raise ValueError(f"unknown channels {quoted(','.join(unknown))} "
                             f"in channels={quoted(pairs['channels'])}")
        if len(set(channels)) != len(channels):
            raise ValueError(f"duplicate channels in channels={quoted(pairs['channels'])}")
        # a forged frame_count costs no more than the entries the file holds
        frame_files = ([pairs[f"frame_{i}"] for i in range(frame_count)]
                       if "frame_0" in pairs else [])
        patch_size, stride = int(pairs["patch_size"]), int(pairs["stride"])
        tau, fill = _float(pairs["tau"], "tau"), _float(pairs["fill"], "fill")
        check_grid_params(patch_size, stride, tau, fill)
        return DatasetManifest(
            patch_size=patch_size,
            stride=stride,
            channels=channels,
            offsets=offsets,
            tau=tau,
            fill=fill,
            seed=int(pairs["seed"]),
            split=pairs["split"],
            frames_dir=pairs.get("frames_dir", "."),
            frame_files=frame_files,
            frame_count=frame_count,
            patch_count=patch_count,
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing manifest key {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
