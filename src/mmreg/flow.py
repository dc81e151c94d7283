"""Dense optical flow between consecutive grayscale frames.

Horn-Schunck fixed-point iterations on the brightness-constancy constraint
with quadratic smoothness. Single scale, deterministic; good enough to
provide motion channels for the classifier, not a state-of-the-art flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_ALPHA = 1.0
DEFAULT_ITERATIONS = 200
DEFAULT_CLAMP = 8.0

# Derivatives are computed on an 8-bit-like brightness scale; alpha defaults
# near 1 are calibrated for that range, and [0,1] inputs would otherwise make
# the smoothness term swamp the data term.
_BRIGHTNESS_SCALE = 255.0

_SIXTH = np.float32(1.0 / 6.0)
_TWELFTH = np.float32(1.0 / 12.0)


@dataclass
class FlowField:
    """Per-pixel velocities in px/frame: u horizontal (+x right), v vertical (+y down)."""

    u: np.ndarray
    v: np.ndarray


def _replicate_pad(plane: np.ndarray) -> np.ndarray:
    return np.pad(plane, 1, mode="edge")


def _central_dx(plane: np.ndarray) -> np.ndarray:
    p = _replicate_pad(plane)
    return 0.5 * (p[1:-1, 2:] - p[1:-1, :-2])


def _central_dy(plane: np.ndarray) -> np.ndarray:
    p = _replicate_pad(plane)
    return 0.5 * (p[2:, 1:-1] - p[:-2, 1:-1])


def estimate_flow(frame_prev: np.ndarray, frame_next: np.ndarray,
                  alpha: float = DEFAULT_ALPHA,
                  iterations: int = DEFAULT_ITERATIONS) -> FlowField:
    """Estimate (u, v) such that a feature at (x, y) in frame_prev appears
    near (x+u, y+v) in frame_next.

    Inputs are same-shaped planes with values in [0, 1]. alpha weights the
    smoothness term; more iterations propagate flow further from edges.
    """
    frame_prev = np.asarray(frame_prev, dtype=np.float32)
    frame_next = np.asarray(frame_next, dtype=np.float32)
    if frame_prev.shape != frame_next.shape:
        raise ValueError(f"frame dims differ: {frame_prev.shape} vs {frame_next.shape}")
    if frame_prev.ndim != 2:
        raise ValueError(f"expected 2-d grayscale planes, got shape {frame_prev.shape}")
    for name, plane in (("prev", frame_prev), ("next", frame_next)):
        lo, hi = float(plane.min()), float(plane.max())
        if not (lo >= -1e-6 and hi <= 1.0 + 1e-6):  # NaN fails this too
            raise ValueError(f"{name} frame values outside [0,1]: min {lo}, max {hi}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    prev = frame_prev * np.float32(_BRIGHTNESS_SCALE)
    nxt = frame_next * np.float32(_BRIGHTNESS_SCALE)
    ex = 0.5 * (_central_dx(prev) + _central_dx(nxt))
    ey = 0.5 * (_central_dy(prev) + _central_dy(nxt))
    et = nxt - prev
    denom = np.float32(alpha) ** 2 + ex * ex + ey * ey

    # Jacobi iterations on u and v together, in one edge-padded buffer
    # updated in place, so nothing is allocated inside the loop. The float32
    # operations run in the order of the plain expressions
    #   bar = (right + left + below + above) * 1/6
    #         + (below right + below left + above right + above left) * 1/12
    #   t = (ex * u_bar + ey * v_bar + et) / denom
    #   u = u_bar - ex * t,  v = v_bar - ey * t
    # and so give the same bits; tests/test_flow.py keeps that loop as oracle.
    h, w = prev.shape
    uv = np.zeros((2, h + 2, w + 2), dtype=np.float32)
    pair = np.empty((2, h + 1, w), dtype=np.float32)
    bar = np.empty((2, h, w), dtype=np.float32)
    diag = np.empty((2, h, w), dtype=np.float32)
    t = np.empty((h, w), dtype=np.float32)
    tmp = np.empty((h, w), dtype=np.float32)
    u_bar, v_bar = bar
    u_out, v_out = uv[:, 1:-1, 1:-1]
    for _ in range(iterations):
        # edge replication: border columns first, then full rows (corners)
        uv[:, 1:-1, 0] = uv[:, 1:-1, 1]
        uv[:, 1:-1, -1] = uv[:, 1:-1, -2]
        uv[:, 0] = uv[:, 1]
        uv[:, -1] = uv[:, -2]
        # neighbor average: 4-neighbors 1/6, diagonals 1/12. The right+left
        # sum of a row starts both the cross sum of that row and the
        # diagonal sum of the row above it.
        np.add(uv[:, 1:, 2:], uv[:, 1:, :-2], out=pair)
        np.add(pair[:, :-1], uv[:, 2:, 1:-1], out=bar)
        np.add(bar, uv[:, :-2, 1:-1], out=bar)
        np.add(pair[:, 1:], uv[:, :-2, 2:], out=diag)
        np.add(diag, uv[:, :-2, :-2], out=diag)
        np.multiply(bar, _SIXTH, out=bar)
        np.multiply(diag, _TWELFTH, out=diag)
        np.add(bar, diag, out=bar)
        # data term and update
        np.multiply(ex, u_bar, out=t)
        np.multiply(ey, v_bar, out=tmp)
        np.add(t, tmp, out=t)
        np.add(t, et, out=t)
        np.divide(t, denom, out=t)
        np.multiply(ex, t, out=tmp)
        np.subtract(u_bar, tmp, out=u_out)
        np.multiply(ey, t, out=tmp)
        np.subtract(v_bar, tmp, out=v_out)
    return FlowField(u=u_out.copy(), v=v_out.copy())


def flow_to_channels(flow: FlowField, clamp: float = DEFAULT_CLAMP) -> tuple[np.ndarray, np.ndarray]:
    """Map velocities to [0, 1] planes: clamp to [-F, F], then affine so
    that zero flow lands exactly on 0.5."""
    if clamp <= 0:
        raise ValueError(f"clamp must be positive, got {clamp}")
    f = np.float32(clamp)

    def squash(plane):
        return np.clip(plane, -f, f) / (2.0 * f) + np.float32(0.5)

    return squash(flow.u).astype(np.float32), squash(flow.v).astype(np.float32)


def zero_flow(height: int, width: int) -> FlowField:
    """The all-zero field, used for the first frame of a sequence."""
    return FlowField(u=np.zeros((height, width), dtype=np.float32),
                     v=np.zeros((height, width), dtype=np.float32))
