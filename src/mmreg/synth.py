"""Procedural multi-modal scene sequences: correlated color + depth frames.

A camera pans across a static textured background while rectangles and
ellipses float in front of it at random depths. Depth renders to the L
plane as 1 - normalized depth (near = bright) over an empty (L = 0)
background, so depth structure exists only at objects, mimicking sparse
range returns. Object brightness rises with proximity, which keeps the
grayscale and depth planes correlated. Edges are feathered over ~1 px so
optical flow sees usable gradients.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .pipeline import DEFAULT_HEIGHT, DEFAULT_WIDTH, Frame, quoted, quoted_int

OBJECT_KINDS = ("rectangle", "ellipse")
# ceilings, checked before anything is allocated, on a sequence's float32
# planes (frames x width x height x 4 planes x 4 B, the frame list
# generate_sequence returns) and on its per-object work (frames x objects,
# the jitter array and the draw loop); the README's 80 frames of 800x256
# with 40 objects take 262 MB and 3,200
MAX_SEQUENCE_BYTES = 1 << 32
MAX_OBJECT_FRAMES = 1 << 20
# ceiling on the background texture the camera pans over, world_h x world_w
# pixels (world_size): as many pixels as the frames of the largest sequence
# hold; the README's sequence pans over 879x256
MAX_WORLD_PIXELS = MAX_SEQUENCE_BYTES // 16


@dataclass
class SceneConfig:
    seed: int = 0
    frame_count: int = 10
    width: int = DEFAULT_WIDTH
    height: int = DEFAULT_HEIGHT
    object_count: int = 40
    object_kinds: tuple[str, ...] = OBJECT_KINDS
    depth_range: tuple[float, float] = (0.15, 0.8)
    camera_translation: tuple[float, float] = (1.0, 0.0)
    jitter: float = 1.0
    noise_amplitude: float = 0.02

    def validate(self) -> None:
        if self.frame_count < 1:
            raise ValueError(f"frame count must be >= 1, got {self.frame_count} frames")
        if self.width < 8 or self.height < 8:
            raise ValueError(f"frame dims too small: {self.width}x{self.height}")
        if self.object_count < 1:
            raise ValueError(f"need at least one object, got {self.object_count}")
        plane_bytes = self.frame_count * self.width * self.height * 4 * 4  # R, G, B, L
        if plane_bytes > MAX_SEQUENCE_BYTES:
            raise ValueError(f"{quoted_int(self.frame_count)} frames of {quoted_int(self.width)}x"
                             f"{quoted_int(self.height)} take {quoted_int(plane_bytes)} bytes, "
                             f"over the {MAX_SEQUENCE_BYTES}-byte cap on a sequence")
        object_frames = self.frame_count * self.object_count
        if object_frames > MAX_OBJECT_FRAMES:
            raise ValueError(f"{quoted_int(self.object_count)} objects in "
                             f"{quoted_int(self.frame_count)} frames make "
                             f"{quoted_int(object_frames)} object draws, over the cap of "
                             f"{MAX_OBJECT_FRAMES}")
        if not self.object_kinds:
            raise ValueError("object_kinds is empty")
        for kind in self.object_kinds:
            if kind not in OBJECT_KINDS:
                raise ValueError(f"unknown object kind {quoted(kind)}; expected {OBJECT_KINDS}")
        lo, hi = self.depth_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError(f"depth range must satisfy 0 < lo <= hi <= 1, got {self.depth_range}")
        if not 0.0 <= self.noise_amplitude <= 0.2:
            raise ValueError(f"noise amplitude {self.noise_amplitude} outside [0, 0.2]")
        if not 0 <= self.jitter < math.inf:
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")
        if not all(map(math.isfinite, self.camera_translation)):
            raise ValueError(f"camera translation must be finite, got {self.camera_translation}")
        world_h, world_w = world_size(self)
        if world_h * world_w > MAX_WORLD_PIXELS:
            raise ValueError(f"a camera path of {quoted_int(self.frame_count)} frames at "
                             f"{self.camera_translation} px/frame pans over a background "
                             f"{quoted_int(world_w)} wide and {quoted_int(world_h)} high, "
                             f"over the cap of {MAX_WORLD_PIXELS} pixels")


def world_size(config: SceneConfig) -> tuple[int, int]:
    """(height, width) of the background the camera pans over: one frame
    plus the camera path. Frame t's offset round(t * step) is monotone in
    t, so frames 0 and frame_count - 1 bound the path; a path past float
    range counts as the largest float."""
    last = config.frame_count - 1
    tx, ty = config.camera_translation
    return tuple(side + round(min(abs(last * step), sys.float_info.max))
                 for side, step in ((config.height, ty), (config.width, tx)))


@dataclass
class _SceneObject:
    kind: str
    cx: float
    cy: float
    half_w: float
    half_h: float
    depth: float
    color: np.ndarray  # (3,) rgb


def _background(rng: np.random.Generator, height: int, width: int, cell: int) -> np.ndarray:
    """Float32 brightness 0.15 + 0.35 * texture, where the texture is a
    smooth low-frequency field in [0,1] from a coarse random grid. The
    float64 work runs one grid-cell row (cell rows) at a time."""
    grid = rng.random((height // cell + 2, width // cell + 2))
    xs = np.arange(width) / cell
    x0 = xs.astype(np.intp)
    fx = (xs - x0)[None, :]
    background = np.empty((height, width), dtype=np.float32)
    for top in range(0, height, cell):
        ys = np.arange(top, min(top + cell, height)) / cell
        y0 = ys.astype(np.intp)
        fy = (ys - y0)[:, None]
        g00 = grid[np.ix_(y0, x0)]
        g01 = grid[np.ix_(y0, x0 + 1)]
        g10 = grid[np.ix_(y0 + 1, x0)]
        g11 = grid[np.ix_(y0 + 1, x0 + 1)]
        texture = (g00 * (1 - fy) * (1 - fx) + g01 * (1 - fy) * fx + g10 * fy * (1 - fx)
                   + g11 * fy * fx)
        background[top:top + len(ys)] = 0.15 + 0.35 * texture
    return background


def _coverage(obj: _SceneObject, cx: float, cy: float, height: int, width: int):
    """Anti-aliased coverage of the object at screen center (cx, cy).

    Returns (row slice, col slice, alpha) or None when fully off-frame;
    alpha feathers linearly over ~1 px at the silhouette.
    """
    x0 = max(int(math.floor(cx - obj.half_w - 1)), 0)
    x1 = min(int(math.ceil(cx + obj.half_w + 2)), width)
    y0 = max(int(math.floor(cy - obj.half_h - 1)), 0)
    y1 = min(int(math.ceil(cy + obj.half_h + 2)), height)
    if x0 >= x1 or y0 >= y1:
        return None
    ys = np.arange(y0, y1, dtype=np.float64)[:, None]
    xs = np.arange(x0, x1, dtype=np.float64)[None, :]
    if obj.kind == "rectangle":
        ax = np.clip(obj.half_w - np.abs(xs - cx) + 0.5, 0.0, 1.0)
        ay = np.clip(obj.half_h - np.abs(ys - cy) + 0.5, 0.0, 1.0)
        alpha = ax * ay
    else:
        r = np.sqrt(((xs - cx) / obj.half_w) ** 2 + ((ys - cy) / obj.half_h) ** 2)
        alpha = np.clip((1.0 - r) * min(obj.half_w, obj.half_h) + 0.5, 0.0, 1.0)
    if not alpha.any():
        return None
    return slice(y0, y1), slice(x0, x1), alpha


def generate_sequence(config: SceneConfig) -> list[Frame]:
    """Render the configured sequence to frames with R, G, B, L planes.

    Deterministic per seed. Nearer objects are brighter in L and are drawn
    over farther ones; consecutive frames differ by the camera translation
    plus per-object jitter.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    n = config.frame_count
    tx, ty = config.camera_translation

    cam_x = [int(round(t * tx)) for t in range(n)]
    cam_y = [int(round(t * ty)) for t in range(n)]
    base_x, base_y = min(cam_x), min(cam_y)
    world_h, world_w = world_size(config)

    background = _background(rng, world_h, world_w, cell=16)

    lo_depth, hi_depth = config.depth_range
    objects = []
    for _ in range(config.object_count):
        kind = config.object_kinds[int(rng.integers(len(config.object_kinds)))]
        half_w = float(rng.uniform(14, 45))
        half_h = float(rng.uniform(10, 32))
        depth = float(rng.uniform(lo_depth, hi_depth))
        brightness = 0.4 + 0.55 * (1.0 - depth) + float(rng.uniform(-0.05, 0.05))
        tint = rng.uniform(0.72, 1.0, size=3)
        color = np.clip(brightness * tint, 0.02, 0.98)
        objects.append(_SceneObject(
            kind=kind,
            cx=float(rng.uniform(base_x, base_x + world_w)),
            cy=float(rng.uniform(base_y, base_y + world_h)),
            half_w=half_w, half_h=half_h, depth=depth, color=color))
    # painter's algorithm: draw far objects first so near ones win overlaps
    order = sorted(range(len(objects)), key=lambda i: -objects[i].depth)

    # per-object random-walk jitter, drawn up front in a fixed order
    steps = rng.uniform(-config.jitter, config.jitter, size=(n, len(objects), 2)) \
        if config.jitter > 0 else np.zeros((n, len(objects), 2))
    steps[0] = 0.0
    drift = np.cumsum(steps, axis=0)

    frames = []
    for t in range(n):
        ox = cam_x[t] - base_x
        oy = cam_y[t] - base_y
        bg = background[oy:oy + config.height, ox:ox + config.width]
        planes = {name: bg.astype(np.float32) for name in ("R", "G", "B")}
        planes["L"] = np.zeros((config.height, config.width), dtype=np.float32)
        for i in order:
            obj = objects[i]
            screen_x = obj.cx + drift[t, i, 0] - (base_x + ox)
            screen_y = obj.cy + drift[t, i, 1] - (base_y + oy)
            cov = _coverage(obj, screen_x, screen_y, config.height, config.width)
            if cov is None:
                continue
            rows, cols, alpha = cov
            l_value = 1.0 - obj.depth
            for ci, name in enumerate(("R", "G", "B")):
                region = planes[name][rows, cols]
                planes[name][rows, cols] = (alpha * obj.color[ci] + (1 - alpha) * region
                                            ).astype(np.float32)
            region = planes["L"][rows, cols]
            planes["L"][rows, cols] = (alpha * l_value + (1 - alpha) * region).astype(np.float32)
        if config.noise_amplitude > 0:
            for name in ("R", "G", "B", "L"):
                noise = rng.uniform(-config.noise_amplitude, config.noise_amplitude,
                                    size=planes[name].shape)
                planes[name] = (planes[name] + noise).astype(np.float32)
        frames.append(Frame({name: np.clip(plane, 0.0, 1.0)
                             for name, plane in planes.items()}))
    return frames
