"""Output checks for benchmark runs: every check raises CheckFailed with a
reason, and returns the facts the metrics need (work done, quality).

Counts are recomputed here with plain numpy rather than with the mmreg
functions that produced them, so that a check does not share a defect
with the code it checks.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from mmreg.flow import DEFAULT_CLAMP
from mmreg.model import load_checkpoint
from mmreg.pipeline import read_frame, read_manifest

# background pixels: no depth return in either frame of a pair (L holds
# only the +-0.02 synth noise there); the border is excluded because
# Horn-Schunck pads by edge replication
BACKGROUND_MAX_L = 0.02
EPE_BORDER = 8
CAMERA_MOTION = (-1.0, 0.0)  # synth pans the camera +1 px/frame in x


class CheckFailed(Exception):
    """A program output is missing, unreadable or wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def tree_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every output file under root, by relative path.

    run_config.txt is left out: it records the absolute output paths.
    """
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "run_config.txt"}


def _shift(plane: np.ndarray, dx: int, dy: int, fill: float) -> np.ndarray:
    h, w = plane.shape
    out = np.full_like(plane, fill)
    out[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
        plane[max(-dy, 0):h - max(dy, 0), max(-dx, 0):w - max(dx, 0)]
    return out


def count_patches(frames, manifest) -> tuple[int, int]:
    """(kept, total) patches over frames x offset classes: a patch is kept
    when the variance of its shifted depth window reaches tau."""
    p, s = manifest.patch_size, manifest.stride
    kept = total = 0
    for frame in frames:
        depth = frame.plane("L")
        for off in manifest.offsets:
            shifted = _shift(depth, off.dx, off.dy, manifest.fill)
            windows = np.lib.stride_tricks.sliding_window_view(shifted, (p, p))[::s, ::s]
            keep = windows.var(axis=(2, 3)) >= manifest.tau
            kept += int(keep.sum())
            total += keep.size
    return kept, total


def flow_epe(frames) -> float:
    """Mean endpoint error (px) of the decoded U,V flow against the synth
    camera motion, over background pixels of each consecutive pair."""
    err_sum, count = 0.0, 0
    b = EPE_BORDER
    for prev, cur in zip(frames, frames[1:]):
        u = (cur.plane("U").astype(np.float64) - 0.5) * 2.0 * DEFAULT_CLAMP
        v = (cur.plane("V").astype(np.float64) - 0.5) * 2.0 * DEFAULT_CLAMP
        mask = (prev.plane("L") <= BACKGROUND_MAX_L) & (cur.plane("L") <= BACKGROUND_MAX_L)
        mask[:b] = mask[-b:] = False
        mask[:, :b] = mask[:, -b:] = False
        err = np.hypot(u - CAMERA_MOTION[0], v - CAMERA_MOTION[1])
        err_sum += float(err[mask].sum())
        count += int(mask.sum())
    require(count > 0, "no background pixels to measure flow error on")
    return err_sum / count


def check_ingest(out: Path, frame_count: int) -> dict:
    """synth -> flow -> dataset outputs under out/{raw,flow,ds}: every MMF
    re-reads, flow frames carry U,V, and the manifest's patch count
    matches a recount over the flow frames."""
    raw = sorted((out / "raw").glob("*.mmf"))
    flowed = sorted((out / "flow").glob("*.mmf"))
    require(len(raw) == frame_count, f"synth wrote {len(raw)} frames, expected {frame_count}")
    require([p.name for p in flowed] == [p.name for p in raw],
            "flow output frame names differ from its input")
    for path in raw:
        read_frame(path)
    frames = [read_frame(path) for path in flowed]
    for frame in frames:
        require(frame.has_channel("U") and frame.has_channel("V") and frame.has_channel("Gr"),
                f"flow frame lacks Gr/U/V channels: {frame.channel_names}")
    manifest = read_manifest(out / "ds" / "manifest.txt")
    require(manifest.frame_count == frame_count,
            f"manifest frame_count {manifest.frame_count}, expected {frame_count}")
    kept, total = count_patches(frames, manifest)
    require(manifest.patch_count == kept,
            f"manifest patch_count {manifest.patch_count} but a recount keeps {kept}")
    return {"work": frame_count, "patches_kept": kept, "patches_total": total,
            "flow_epe_px": flow_epe(frames)}


def _run_config(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def check_train(model_dir: Path, manifest_path: Path, epochs: int) -> dict:
    """loss.csv has one finite loss per epoch, the checkpoint reloads with
    finite weights, and training saw every patch of the manifest."""
    lines = (model_dir / "loss.csv").read_text().splitlines()
    require(lines and lines[0] == "epoch,mean_loss", "loss.csv header missing")
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    require(len(losses) == epochs, f"loss.csv has {len(losses)} epochs, expected {epochs}")
    require(all(math.isfinite(x) for x in losses), f"non-finite loss in {losses}")
    net = load_checkpoint(model_dir / "checkpoint.mmrc")
    require(all(np.isfinite(p).all() for p in net.parameters()), "non-finite checkpoint weights")
    samples = int(_run_config(model_dir / "run_config.txt")["samples"])
    expected = read_manifest(manifest_path).patch_count
    require(samples == expected, f"trained on {samples} patches, manifest has {expected}")
    return {"work": samples * epochs, "train_loss": losses[-1]}


def _read_counts(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()
    return np.array([[int(v) for v in line.split(",")] for line in lines[1:]], dtype=np.int64)


def check_eval(report_dir: Path, manifest_path: Path, k_values: list[int]) -> dict:
    """Every kept patch is in the patch confusion matrix, and every
    (frame, offset) pair is either an image decision or a no-decision."""
    manifest = read_manifest(manifest_path)
    frames_dir = manifest_path.parent / manifest.frames_dir
    frames = [read_frame(frames_dir / name) for name in manifest.frame_files]
    kept, _ = count_patches(frames, manifest)
    patch_cm = _read_counts(report_dir / "patch_confusion.csv")
    image_cm = _read_counts(report_dir / "image_confusion.csv")
    n = len(manifest.offsets)
    require(patch_cm.shape == image_cm.shape == (n, n), "confusion matrix shape mismatch")
    require(int(patch_cm.sum()) == kept,
            f"patch confusion total {int(patch_cm.sum())} but {kept} patches are kept")
    summary = _summary_csv(report_dir / "summary.csv")
    no_decision = int(summary["no_decision_frames"])
    require(int(image_cm.sum()) + no_decision == len(frames) * n,
            f"{int(image_cm.sum())} image decisions + {no_decision} no-decisions "
            f"!= {len(frames)} frames x {n} offsets")
    temporal = (report_dir / "temporal.csv").read_text().splitlines()
    require(temporal[0] == "k," + ",".join(map(str, k_values)),
            f"temporal.csv windows {temporal[0]!r}")
    return {"work": kept, "no_decision_frames": no_decision}


def _summary_csv(path: Path) -> dict[str, str]:
    return dict(line.split(",", 1) for line in path.read_text().splitlines()[1:])
