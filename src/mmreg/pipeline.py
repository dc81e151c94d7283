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
    data = Path(path).read_bytes()

    def need(count: int, offset: int, what: str) -> None:
        if len(data) < offset + count:
            raise FormatError(f"{path}: truncated {what} at byte offset {offset} "
                              f"(need {count} bytes, have {len(data) - offset})")

    need(4, 0, "magic")
    if data[:4] != MMF_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r} at byte offset 0, expected {MMF_MAGIC!r}")
    need(12, 4, "header")
    width, height, channel_count = struct.unpack_from("<III", data, 4)
    if width == 0 or height == 0:
        raise FormatError(f"{path}: zero frame dimension {width}x{height} at byte offset 4")
    if channel_count == 0 or channel_count > len(CHANNEL_IDS):
        raise FormatError(f"{path}: channel count {channel_count} at byte offset 12 "
                          f"outside [1, {len(CHANNEL_IDS)}]")
    offset = 16
    need(channel_count, offset, "channel id table")
    names = []
    for i in range(channel_count):
        cid = data[offset + i]
        if cid not in CHANNEL_NAMES:
            raise FormatError(f"{path}: unknown channel id {cid} at byte offset {offset + i}")
        names.append(CHANNEL_NAMES[cid])
    if len(set(names)) != len(names):
        raise FormatError(f"{path}: duplicate channel ids at byte offset {offset}")
    offset += channel_count

    plane_bytes = width * height * 4
    planes_start = offset
    channels = {}
    for name in names:
        need(plane_bytes, offset, f"plane {name}")
        plane = np.frombuffer(data, dtype="<f4", count=width * height, offset=offset)
        channels[name] = plane.reshape(height, width).copy()
        offset += plane_bytes
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes at byte offset {offset}")
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
                      clamp: float = flow.DEFAULT_CLAMP, workers: int = 1) -> Iterator[Frame]:
    """Each frame with U,V channels of the Horn-Schunck flow from the frame
    before it (zero flow for the first), Gr derived from R,G,B where missing.
    The parameters are checked before a frame is read. Pairs map on
    bounded_map, in input order; closing the iterator joins its pool."""
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

    return bounded_map(with_flow, pairs(), workers)


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


def _shifted_depth(frame: Frame, offset: OffsetClass, p: int, s: int, tau: float,
                   fill: float) -> np.ndarray:
    """patch_grid's argument checks, then the L plane shifted by offset."""
    check_grid_params(p, s, tau, fill)
    patch_grid_shape(frame.height, frame.width, p, s)
    if abs(offset.dx) >= frame.width or abs(offset.dy) >= frame.height:
        raise ValueError(f"offset ({offset.dx},{offset.dy}) exceeds frame dims "
                         f"{frame.width}x{frame.height}")
    return shift_plane(frame.plane("L"), offset.dx, offset.dy, fill)


def _keep_mask(shifted: np.ndarray, p: int, s: int, tau: float) -> np.ndarray:
    """(rows, cols) mask of windows whose shifted depth has population
    variance >= tau."""
    return _window_view(shifted[:, :, None], p, s)[..., 0].var(axis=(2, 3)) >= tau


def _stacked_windows(frame: Frame, shifted: np.ndarray, p: int, s: int,
                     channels: Sequence[str]) -> np.ndarray:
    """(rows, cols, p, p, C) window view over the channels, L replaced by
    its shifted plane."""
    stacked = np.empty((frame.height, frame.width, len(channels)), dtype=np.float32)
    for col, name in enumerate(channels):
        stacked[:, :, col] = shifted if name == "L" else frame.plane(name)
    return _window_view(stacked, p, s)


def patch_grid(frame: Frame, offset: OffsetClass, p: int, s: int, tau: float,
               fill: float, channels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The patch grid of one frame under one depth offset.

    Only the L plane is translated by the offset, vacated pixels getting
    fill; the other planes stay put. Returns the (rows, cols, p, p, C)
    window view over the stacked channels and the (rows, cols) mask of
    windows whose shifted depth has population variance >= tau.
    """
    shifted = _shifted_depth(frame, offset, p, s, tau, fill)
    return _stacked_windows(frame, shifted, p, s, channels), _keep_mask(shifted, p, s, tau)


# ---------------------------------------------------------------------------
# Thread counts and the ordered thread map
# ---------------------------------------------------------------------------

def worker_count() -> int:
    """Worker threads from MMREG_THREADS; 0 or unset means one per CPU, at
    most 8."""
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


def _keep_masks(frames: Iterable[Frame], offsets: Sequence[OffsetClass], p: int, s: int,
                tau: float, fill: float, workers: int) -> Iterator[list[np.ndarray]]:
    """Each frame's patch_grid keep masks, one per offset class, mapped on
    bounded_map."""
    if not offsets:
        raise ValueError("offset table is empty")

    def masks(frame) -> list[np.ndarray]:
        return [_keep_mask(_shifted_depth(frame, offset, p, s, tau, fill), p, s, tau)
                for offset in offsets]

    return bounded_map(masks, frames, workers)


def _mask_counts(masks: Iterable[list[np.ndarray]], n_offsets: int) -> np.ndarray:
    counts = [[int(keep.sum()) for keep in frame_masks] for frame_masks in masks]
    return np.array(counts, dtype=np.int64).reshape(-1, n_offsets)


def patch_counts(frames: Iterable[Frame], offsets: Sequence[OffsetClass], p: int, s: int,
                 tau: float, fill: float = DEFAULT_FILL, workers: int = 1) -> np.ndarray:
    """Kept-window count of every (frame, offset class) pair, read from the
    keep masks of patch_grid, as a (frames, offsets) int64 array.

    frames may be a stream: bounded_map holds at most 2 * workers of them.
    """
    return _mask_counts(_keep_masks(frames, offsets, p, s, tau, fill, workers), len(offsets))


def patch_arrays(frames: Sequence[Frame], offsets: Sequence[OffsetClass], p: int, s: int,
                 tau: float, fill: float = DEFAULT_FILL, channels: Sequence[str] | None = None,
                 workers: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every kept window as arrays: (n, p, p, C) float32 data, then int64
    offset class ids, frame indices and (n, 2) (row, col) origins.

    Rows run frames in index order, offset classes in table order, windows
    row-major. A first bounded_map pass computes every keep mask, whose
    counts size the arrays; in a second, one frame per call, each (frame,
    offset) pair writes its windows[keep] into its own slice of them.
    """
    if not frames:
        raise ValueError("no frames to cut patches from")
    if channels is not None and not channels:
        raise ValueError("channel selection is empty")
    sel = list(channels if channels is not None else frames[0].channel_names)
    masks = list(_keep_masks(frames, offsets, p, s, tau, fill, workers))
    counts = _mask_counts(masks, len(offsets))
    ends = np.cumsum(counts).reshape(counts.shape)
    n = int(counts.sum())
    x = np.empty((n, p, p, len(sel)), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    frame_index = np.empty(n, dtype=np.int64)
    origins = np.empty((n, 2), dtype=np.int64)

    def write(index: int) -> None:
        frame = frames[index]
        for j, (offset, keep) in enumerate(zip(offsets, masks[index])):
            shifted = _shifted_depth(frame, offset, p, s, tau, fill)
            rows = slice(ends[index, j] - counts[index, j], ends[index, j])
            x[rows] = _stacked_windows(frame, shifted, p, s, sel)[keep]
            labels[rows] = offset.id
            frame_index[rows] = index
            origins[rows] = np.argwhere(keep) * s

    for _ in bounded_map(write, range(len(frames)), workers):
        pass
    return x, labels, frame_index, origins


def iter_patch_samples(frames: Iterable[Frame], offsets: list[OffsetClass], p: int, s: int,
                       tau: float, fill: float = DEFAULT_FILL,
                       channels: list[str] | None = None,
                       workers: int = 1) -> Iterator[PatchSample]:
    """PatchSample views over the rows of patch_arrays, in its order."""
    x, labels, frame_index, origins = patch_arrays(list(frames), offsets, p, s, tau, fill,
                                                   channels, workers)
    return map(PatchSample, x, labels.tolist(), frame_index.tolist(),
               map(tuple, origins.tolist()))


def build_dataset(frames: list[Frame], offsets: list[OffsetClass], p: int, s: int,
                  tau: float, fill: float = DEFAULT_FILL,
                  channels: list[str] | None = None, seed: int = 0,
                  split: str = "all", workers: int = 1,
                  ) -> tuple[list[PatchSample], DatasetManifest]:
    """Materialize the sample stream and its manifest.

    Raises if the variance filter leaves nothing.
    """
    frames = list(frames)
    samples = list(iter_patch_samples(frames, offsets, p, s, tau, fill, channels, workers))
    if not samples:
        raise ValueError(f"variance filter (tau={tau}) dropped every patch; lower tau")
    sel = channels if channels is not None else frames[0].channel_names
    manifest = DatasetManifest(patch_size=p, stride=s, channels=list(sel),
                               offsets=list(offsets), tau=tau, fill=fill, seed=seed,
                               split=split, frame_count=len(frames),
                               patch_count=len(samples))
    return samples, manifest


def collect_arrays(samples: list[PatchSample]) -> tuple[np.ndarray, np.ndarray]:
    """Stack samples into (X, labels) arrays for training."""
    if not samples:
        raise ValueError("no samples to collect")
    x = np.stack([s.data for s in samples]).astype(np.float32, copy=False)
    y = np.array([s.label for s in samples], dtype=np.int64)
    return x, y


# ---------------------------------------------------------------------------
# Manifest serialization (flat key=value text)
# ---------------------------------------------------------------------------


def write_manifest(manifest: DatasetManifest, path) -> None:
    lines = [
        "format=mmreg-manifest-1",
        f"split={manifest.split}",
        f"patch_size={manifest.patch_size}",
        f"stride={manifest.stride}",
        f"tau={manifest.tau!r}",
        f"fill={manifest.fill!r}",
        f"seed={manifest.seed}",
        f"channels={','.join(manifest.channels)}",
        f"n_classes={len(manifest.offsets)}",
    ]
    for off in manifest.offsets:
        lines.append(f"offset_{off.id}={off.dx},{off.dy}")
    lines.append(f"frames_dir={manifest.frames_dir}")
    lines.append(f"frame_count={manifest.frame_count}")
    for i, name in enumerate(manifest.frame_files):
        lines.append(f"frame_{i}={name}")
    lines.append(f"patch_count={manifest.patch_count}")
    Path(path).write_text("\n".join(lines) + "\n")


def parse_key_values(text: str, source: str = "<manifest>") -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def read_manifest(path) -> DatasetManifest:
    pairs = parse_key_values(Path(path).read_text(), source=str(path))
    try:
        if pairs.get("format") != "mmreg-manifest-1":
            raise ValueError(f"unknown manifest format {pairs.get('format')!r}")
        n_classes = int(pairs["n_classes"])
        offsets = []
        for i in range(n_classes):
            dx, dy = pairs[f"offset_{i}"].split(",")
            offsets.append(OffsetClass(id=i, dx=int(dx), dy=int(dy)))
        frame_count = int(pairs["frame_count"])
        if frame_count < 0:
            raise ValueError(f"negative frame_count {frame_count}")
        beyond = next((key for key in pairs if key.startswith("frame_")
                       and key[6:].isdecimal() and int(key[6:]) >= frame_count), None)
        if beyond:
            raise ValueError(f"entry {beyond} beyond frame_count {frame_count}")
        # a forged frame_count costs no more than the entries the file holds
        frame_files = ([pairs[f"frame_{i}"] for i in range(frame_count)]
                       if "frame_0" in pairs else [])
        patch_size, stride = int(pairs["patch_size"]), int(pairs["stride"])
        tau, fill = float(pairs["tau"]), float(pairs["fill"])
        check_grid_params(patch_size, stride, tau, fill)
        return DatasetManifest(
            patch_size=patch_size,
            stride=stride,
            channels=pairs["channels"].split(","),
            offsets=offsets,
            tau=tau,
            fill=fill,
            seed=int(pairs["seed"]),
            split=pairs["split"],
            frames_dir=pairs.get("frames_dir", "."),
            frame_files=frame_files,
            frame_count=frame_count,
            patch_count=int(pairs["patch_count"]),
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing manifest key {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
