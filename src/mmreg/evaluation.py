"""The mean-diagonal accuracy metric, vote aggregation, evaluation runs over
frame sets, and report artifacts (CSV tables + PPM images).

A confusion matrix is a plain (N, N) int64 count array: rows are true
classes, columns predicted classes.

An evaluation run cuts its frames into the pipeline.PatchTable that
training reads and counts patch votes in one votes[offset, frame, class]
array; every report number is a reduction of it, and a frame decision is
a one-frame window of the one fusion rule, temporal_fuse.

The headline metric is the mean of the row-normalized confusion-matrix
diagonal (macro-averaged per-class recall); raw accuracy is reported
alongside it in the summary.
"""

from __future__ import annotations

import warnings
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .model import Network, predict_batch, require_channels
from .offsets import OffsetClass
from .pipeline import Frame, PatchTable, blas_workers, bounded_map, patch_grid_shape

# 9 maximally distinct class colors (rgb), indexed by class id modulo 9;
# cells dropped by the variance filter render dark gray.
PALETTE = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25),
    (0, 130, 200), (245, 130, 48), (145, 30, 180),
    (70, 240, 240), (240, 50, 230), (128, 128, 128),
)
FILTERED_COLOR = (30, 30, 30)
# square side in pixels of one patch-map cell and one heatmap cell
PATCH_MAP_CELL = 8
HEATMAP_CELL = 24


def mean_diagonal_accuracy(cm: np.ndarray) -> float:
    """Mean of per-class recall of an (N, N) count matrix, in percent.

    Classes with no true samples are excluded from the mean with a warning;
    an entirely empty matrix is rejected.
    """
    row_sums = cm.sum(axis=1)
    populated = np.flatnonzero(row_sums > 0)
    if populated.size == 0:
        raise ValueError("confusion matrix has no samples")
    if populated.size < len(cm):
        empty = np.flatnonzero(row_sums == 0).tolist()
        warnings.warn(f"excluding classes with no samples from the diagonal mean: {empty}")
    recalls = cm[populated, populated] / row_sums[populated]
    return float(recalls.mean() * 100.0)


def overall_accuracy(cm: np.ndarray) -> float:
    """Raw fraction of correct predictions, in percent."""
    total = cm.sum()
    if total == 0:
        raise ValueError("confusion matrix has no samples")
    return float(cm.diagonal().sum() / total * 100.0)


# ---------------------------------------------------------------------------
# Vote aggregation
# ---------------------------------------------------------------------------


def vote_frame(ids: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class vote counts of one frame's patch class ids."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n_classes):
        raise ValueError(f"prediction outside [0, {n_classes})")
    return np.bincount(ids, minlength=n_classes)


def temporal_fuse(votes: np.ndarray, k: int) -> np.ndarray:
    """Decide every window of k consecutive frames of a (..., frames, classes)
    vote count array; returns (..., frames - k + 1) class ids.

    A decision is the argmax of the window's summed counts, ties going to the
    lowest class id; a window without votes gets the no-decision id -1.
    """
    n_frames = votes.shape[-2]
    if not 1 <= k <= n_frames:
        raise ValueError(f"temporal window {k} outside [1, {n_frames}] frames")
    cumulative = np.cumsum(np.insert(votes, 0, 0, axis=-2), axis=-2)
    summed = cumulative[..., k:, :] - cumulative[..., :-k, :]
    return np.where(summed.any(axis=-1), summed.argmax(axis=-1), -1)


# ---------------------------------------------------------------------------
# Evaluation runs
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    patch_cm: np.ndarray
    image_cm: np.ndarray
    temporal_accuracy: dict[int, float]
    no_decision_frames: int
    # first evaluated frame's patch-grid predictions per true class; -1 marks
    # cells dropped by the variance filter
    patch_maps: dict[int, np.ndarray] = field(default_factory=dict)


def _decision_cm(decisions: np.ndarray) -> np.ndarray:
    """Confusion matrix of (classes, windows) decisions whose row i is true
    class i; no-decision windows (-1) stay out."""
    n_classes = len(decisions)
    pairs = (np.arange(n_classes)[:, None] * n_classes + decisions)[decisions >= 0]
    return np.bincount(pairs, minlength=n_classes ** 2).reshape(n_classes, n_classes)


def evaluate_run(net: Network, frames: Iterable[Frame], frame_count: int,
                 offsets: Sequence[OffsetClass], k_values: Sequence[int], stride: int,
                 tau: float, fill: float = 0.0) -> EvalReport:
    """Classify every surviving patch of every frame under every offset and
    count the votes in votes[offset, frame, class].

    frames may be a stream of exactly frame_count frames of one size; they
    are cut into one PatchTable, which keeps their selected planes and no
    frame, and each (offset, frame) pair classifies one run of its rows.

    Every report number is a reduction of that array: the patch matrix sums
    it over frames, the image matrix and the no-decision count come from
    temporal_fuse(votes, 1), since a frame decision is a one-frame window,
    and each temporal accuracy from temporal_fuse(votes, k).

    The (offset, frame) pairs are classified on blas_workers() threads;
    the report does not depend on the thread count.

    Every frame is assumed to hold its true offset for the whole window
    when fusing temporally. Frames or windows whose patches are all
    filtered out count as no-decision and stay out of the confusion
    matrices.
    """
    if frame_count < 1:
        raise ValueError("no frames to evaluate")
    n_classes = net.config.n_classes
    offset_ids = [offset.id for offset in offsets]
    if offset_ids != list(range(n_classes)):
        raise ValueError(f"offset table ids {offset_ids} must be 0..{n_classes - 1} in order, "
                         f"one per class the model predicts")
    for k in k_values:
        if not 1 <= k <= frame_count:
            raise ValueError(f"temporal window {k} outside [1, {frame_count}] frames")
    frames = iter(frames)
    first = next(frames, None)
    if first is None:
        raise ValueError("no frames to evaluate")
    require_channels(net.config.channels, first.channel_names)
    size = first.height, first.width
    frames = chain(iter([first]), frames)  # holds no frame once it is pulled
    del first

    p = net.config.patch_size
    table = PatchTable(frames, frame_count, offsets, p, stride, tau, fill, net.config.channels)
    # rows run by frame, then offset class: pair (offset j, frame i) is run i * n_classes + j
    bounds = np.searchsorted(table.rows[:, 0] * n_classes + table.rows[:, 1],
                             np.arange(frame_count * n_classes + 1))
    runs = {(j, i): slice(bounds[i * n_classes + j], bounds[i * n_classes + j + 1])
            for j in range(n_classes) for i in range(frame_count)}
    votes = np.zeros((n_classes, frame_count, n_classes), dtype=np.int64)  # [offset, frame, class]
    patch_maps: dict[int, np.ndarray] = {}

    def classify(run: slice) -> np.ndarray:
        return predict_batch(net, table[run])[0]

    # (offset, frame) pairs are independent; results come back in pair
    # order, and closing joins the pool's threads when the loop raises
    with closing(bounded_map(classify, runs.values(), blas_workers())) as results:
        for ((j, i), run), ids in zip(runs.items(), results):
            votes[j, i] = vote_frame(ids, n_classes)
            if i == 0:
                grid = np.full(patch_grid_shape(*size, p, stride), -1, dtype=np.int64)
                grid[tuple((table.rows[run, 2:] // stride).T)] = ids
                patch_maps[j] = grid

    frame_decisions = temporal_fuse(votes, 1)
    temporal = {k: mean_diagonal_accuracy(_decision_cm(temporal_fuse(votes, k)))
                for k in k_values}
    return EvalReport(patch_cm=votes.sum(axis=1), image_cm=_decision_cm(frame_decisions),
                      temporal_accuracy=temporal,
                      no_decision_frames=int((frame_decisions < 0).sum()), patch_maps=patch_maps)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def write_confusion_csv(cm: np.ndarray, path) -> None:
    """Header row of predicted class ids, then one count row per true class."""
    lines = [",".join(str(i) for i in range(len(cm)))]
    for row in cm:
        lines.append(",".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_temporal_csv(temporal: dict[int, float], path) -> None:
    """Two rows mirroring the temporal-fusion table: window sizes, then accuracy."""
    ks = sorted(temporal)
    lines = ["k," + ",".join(str(k) for k in ks),
             "accuracy_percent," + ",".join(f"{temporal[k]:.2f}" for k in ks)]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_ppm(pixels: np.ndarray, path) -> None:
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.astype(np.uint8).tobytes())


def _cells(colors: np.ndarray, cell_size: int) -> np.ndarray:
    """(rows, cols, 3) colors -> uint8 image of cell_size squares."""
    return colors.astype(np.uint8).repeat(cell_size, 0).repeat(cell_size, 1)


def render_patch_map(grid: np.ndarray) -> np.ndarray:
    """Patch-grid predictions -> RGB image, one PATCH_MAP_CELL square per patch."""
    colors = np.array(PALETTE + (FILTERED_COLOR,))  # FILTERED_COLOR last, for -1
    return _cells(colors[np.where(grid < 0, len(PALETTE), grid % len(PALETTE))],
                  PATCH_MAP_CELL)


def render_heatmap(cm: np.ndarray) -> np.ndarray:
    """Row-normalized confusion matrix as a blue-to-red heat image."""
    v = cm / np.maximum(cm.sum(axis=1, keepdims=True), 1)
    return _cells(np.rint(np.stack([255 * v, 64 * v, 255 * (1 - v)], axis=-1)), HEATMAP_CELL)


def emit_report(report: EvalReport, out_dir) -> list[str]:
    """Write CSV matrices, the temporal table, a metric summary, per-class
    patch maps and a confusion heatmap; returns the file names written.

    Same report -> byte-identical files.
    """
    if report.patch_cm.sum() == 0:
        raise ValueError("empty report: no classified patches")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    written = []

    def record(name):
        written.append(name)
        return out / name

    write_confusion_csv(report.patch_cm, record("patch_confusion.csv"))
    write_confusion_csv(report.image_cm, record("image_confusion.csv"))
    if report.temporal_accuracy:
        write_temporal_csv(report.temporal_accuracy, record("temporal.csv"))

    summary = [
        ("patch_mean_diagonal_pct", mean_diagonal_accuracy(report.patch_cm)),
        ("patch_overall_pct", overall_accuracy(report.patch_cm)),
        ("image_mean_diagonal_pct", mean_diagonal_accuracy(report.image_cm)),
        ("image_overall_pct", overall_accuracy(report.image_cm)),
    ]
    lines = ["metric,value"] + [f"{k},{v:.4f}" for k, v in summary]
    lines.append(f"no_decision_frames,{report.no_decision_frames}")
    record("summary.csv").write_text("\n".join(lines) + "\n")

    _write_ppm(render_heatmap(report.image_cm), record("confusion_heatmap.ppm"))
    for class_id in sorted(report.patch_maps):
        _write_ppm(render_patch_map(report.patch_maps[class_id]),
                   record(f"patch_map_class{class_id}.ppm"))
    return written
