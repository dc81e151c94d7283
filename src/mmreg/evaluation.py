"""Confusion matrices, the mean-diagonal accuracy metric, evaluation runs
over frame sets, and report artifacts (CSV tables + PPM images).

The headline metric is the mean of the row-normalized confusion-matrix
diagonal (macro-averaged per-class recall); raw accuracy is reported
alongside it in the summary.
"""

from __future__ import annotations

import warnings
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import Network, VoteHistogram, predict_batch, require_channels, temporal_fuse, vote_frame
from .offsets import OffsetClass
from .pipeline import Frame, bounded_map, patch_grid

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


class ConfusionMatrix:
    """N x N counts: rows are true classes, columns predicted classes."""

    def __init__(self, n_classes: int, counts: np.ndarray | None = None):
        if n_classes < 1:
            raise ValueError(f"need at least one class, got {n_classes}")
        self.n_classes = n_classes
        if counts is None:
            self.counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (n_classes, n_classes):
                raise ValueError(f"counts shape {counts.shape} does not match "
                                 f"{n_classes} classes")
            if (counts < 0).any():
                raise ValueError("confusion counts must be non-negative")
            self.counts = counts

    def accumulate(self, true_class: int, predicted_class: int) -> "ConfusionMatrix":
        for name, value in (("true", true_class), ("predicted", predicted_class)):
            if not 0 <= value < self.n_classes:
                raise ValueError(f"{name} class {value} outside [0, {self.n_classes})")
        self.counts[true_class, predicted_class] += 1
        return self

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if other.n_classes != self.n_classes:
            raise ValueError(f"cannot merge {other.n_classes}-class into "
                             f"{self.n_classes}-class matrix")
        self.counts += other.counts
        return self

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConfusionMatrix)
                and self.n_classes == other.n_classes
                and np.array_equal(self.counts, other.counts))


def mean_diagonal_accuracy(cm: ConfusionMatrix) -> float:
    """Mean of per-class recall, in percent.

    Classes with no true samples are excluded from the mean with a warning;
    an entirely empty matrix is rejected.
    """
    row_sums = cm.counts.sum(axis=1)
    populated = np.flatnonzero(row_sums > 0)
    if populated.size == 0:
        raise ValueError("confusion matrix has no samples")
    if populated.size < cm.n_classes:
        empty = np.flatnonzero(row_sums == 0).tolist()
        warnings.warn(f"excluding classes with no samples from the diagonal mean: {empty}")
    recalls = cm.counts[populated, populated] / row_sums[populated]
    return float(recalls.mean() * 100.0)


def overall_accuracy(cm: ConfusionMatrix) -> float:
    """Raw fraction of correct predictions, in percent."""
    if cm.total == 0:
        raise ValueError("confusion matrix has no samples")
    return float(cm.counts.diagonal().sum() / cm.total * 100.0)


# ---------------------------------------------------------------------------
# Evaluation runs
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    patch_cm: ConfusionMatrix
    image_cm: ConfusionMatrix
    temporal_accuracy: dict[int, float]
    no_decision_frames: int
    grid_shape: tuple[int, int]
    # first evaluated frame's patch-grid predictions per true class; -1 marks
    # cells dropped by the variance filter
    patch_maps: dict[int, np.ndarray] = field(default_factory=dict)


def evaluate_run(net: Network, frames: Sequence[Frame], offsets: Sequence[OffsetClass],
                 k_values: Sequence[int], stride: int, tau: float,
                 fill: float = 0.0, workers: int = 1) -> EvalReport:
    """Classify every surviving patch of every frame under every offset,
    vote per frame, and fuse votes over windows of consecutive frames.

    The (offset, frame) pairs are classified on up to ``workers`` threads;
    the report does not depend on the worker count.

    Every frame is assumed to hold its true offset for the whole window
    when fusing temporally. Frames whose patches are all filtered out
    count as no-decision and stay out of the confusion matrices.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("no frames to evaluate")
    if len(offsets) != net.config.n_classes:
        raise ValueError(f"offset table has {len(offsets)} classes but the model "
                         f"predicts {net.config.n_classes}")
    for k in k_values:
        if k < 1:
            raise ValueError(f"temporal window must be >= 1, got {k}")
        if k > len(frames):
            raise ValueError(f"temporal window {k} exceeds frame count {len(frames)}")
    require_channels(net.config.channels, frames[0].channel_names)

    p = net.config.patch_size
    n_classes = net.config.n_classes
    patch_cm = ConfusionMatrix(n_classes)
    image_cm = ConfusionMatrix(n_classes)
    histograms: dict[int, list[VoteHistogram]] = {off.id: [] for off in offsets}
    patch_maps: dict[int, np.ndarray] = {}
    no_decision = 0
    grid_shape = None

    def classify(pair):
        offset, frame_index = pair
        windows, keep = patch_grid(frames[frame_index], offset, p, stride, tau, fill,
                                   net.config.channels)
        kept = windows[keep]
        ids = predict_batch(net, kept)[0] if kept.shape[0] else np.empty(0, dtype=np.int64)
        return keep, ids

    # (offset, frame) pairs are independent; results come back in pair
    # order, and closing joins the pool's threads when the loop raises
    pairs = [(offset, i) for offset in offsets for i in range(len(frames))]
    with closing(bounded_map(classify, pairs, workers)) as results:
        for (offset, frame_index), (keep, ids) in zip(pairs, results):
            grid_shape = keep.shape
            frame_class, hist = vote_frame(ids, n_classes)
            patch_cm.counts[offset.id] += hist.counts  # the frame's per-class patch votes
            histograms[offset.id].append(hist)
            if frame_class is None:
                no_decision += 1
            else:
                image_cm.accumulate(offset.id, frame_class)
            if frame_index == 0:
                grid = np.full(keep.shape, -1, dtype=np.int64)
                grid[keep] = ids
                patch_maps[offset.id] = grid

    temporal: dict[int, float] = {}
    for k in k_values:
        cm_k = ConfusionMatrix(n_classes)
        for offset in offsets:
            hists = histograms[offset.id]
            for start in range(len(hists) - k + 1):
                fused = temporal_fuse(hists[start:start + k])
                if fused is not None:
                    cm_k.accumulate(offset.id, fused)
        temporal[k] = mean_diagonal_accuracy(cm_k)

    return EvalReport(patch_cm=patch_cm, image_cm=image_cm, temporal_accuracy=temporal,
                      no_decision_frames=no_decision, grid_shape=grid_shape,
                      patch_maps=patch_maps)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def write_confusion_csv(cm: ConfusionMatrix, path) -> None:
    """Header row of predicted class ids, then one count row per true class."""
    lines = [",".join(str(i) for i in range(cm.n_classes))]
    for row in cm.counts:
        lines.append(",".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_confusion_csv(path) -> ConfusionMatrix:
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty confusion CSV")
    n_classes = len(lines[0].split(","))
    if len(lines) != n_classes + 1:
        raise ValueError(f"{path}: expected {n_classes} rows after header, "
                         f"got {len(lines) - 1}")
    counts = np.array([[int(v) for v in line.split(",")] for line in lines[1:]],
                      dtype=np.int64)
    return ConfusionMatrix(n_classes, counts)


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


def _class_color(class_id: int) -> tuple[int, int, int]:
    return FILTERED_COLOR if class_id < 0 else PALETTE[class_id % len(PALETTE)]


def render_patch_map(grid: np.ndarray) -> np.ndarray:
    """Patch-grid predictions -> RGB image, one PATCH_MAP_CELL square per patch."""
    cell_size = PATCH_MAP_CELL
    rows, cols = grid.shape
    img = np.zeros((rows * cell_size, cols * cell_size, 3), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            img[i * cell_size:(i + 1) * cell_size,
                j * cell_size:(j + 1) * cell_size] = _class_color(int(grid[i, j]))
    return img


def render_heatmap(cm: ConfusionMatrix) -> np.ndarray:
    """Row-normalized confusion matrix as a blue-to-red heat image."""
    cell_size = HEATMAP_CELL
    row_sums = np.maximum(cm.counts.sum(axis=1, keepdims=True), 1)
    norm = cm.counts / row_sums
    n = cm.n_classes
    img = np.zeros((n * cell_size, n * cell_size, 3), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            v = float(norm[i, j])
            color = (int(round(255 * v)), int(round(64 * v)), int(round(255 * (1 - v))))
            img[i * cell_size:(i + 1) * cell_size,
                j * cell_size:(j + 1) * cell_size] = color
    return img


def emit_report(report: EvalReport, out_dir) -> list[str]:
    """Write CSV matrices, the temporal table, a metric summary, per-class
    patch maps and a confusion heatmap; returns the file names written.

    Same report -> byte-identical files.
    """
    if report.patch_cm.total == 0:
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
