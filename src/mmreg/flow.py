"""Dense optical flow between consecutive grayscale frames.

Horn-Schunck fixed-point iterations on the brightness-constancy constraint
with quadratic smoothness. Single scale, deterministic; good enough to
provide motion channels for the classifier, not a state-of-the-art flow.

The defaults, alpha 10 in 100 Jacobi sweeps, follow Horn and Schunck's
model (AI 17, 1981): a stronger smoothness weight carries the motion of
edges into textureless areas in fewer sweeps. Synth pans the camera so
that the background moves by (-1, 0) px/frame. On background pixels (no
depth return in either frame, 8-px border left out) the endpoint error
is 0.51 px on the 400x192 pair that tests/test_flow.py pins, and
0.54 px over 79 pairs of 800x256 (seed 101), against 1.16 and 1.18 px
at the former alpha 1 in 200 sweeps. A zero field scores 1.00 px, so
the former field was worse than none. On object interiors the 800x256
error is 1.03 px, against 1.70 px before and 1.17 px for a zero field.
Half the sweeps cost half the time. In the acceptance experiment
(seeds 101 and 202) GrLUV patch accuracy held at 52.9 % (53.0 %
before), and image accuracy rose from 90.6 to 92.8 %, against 90.6 %
without flow (RGBL). Alpha 10 in 25 or 50 sweeps, and alpha 3 or 30
in 50, lost 1.5-3.2 points of patch accuracy.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_ALPHA = 10.0
DEFAULT_ITERATIONS = 100
DEFAULT_CLAMP = 8.0

# Derivatives are computed on an 8-bit-like brightness scale; alpha is
# calibrated for that range, and [0,1] inputs would otherwise make the
# smoothness term swamp the data term.
_BRIGHTNESS_SCALE = 255.0

_SIXTH = np.float32(1.0 / 6.0)
_TWELFTH = np.float32(1.0 / 12.0)


def check_flow_params(alpha: float = DEFAULT_ALPHA, iterations: int = DEFAULT_ITERATIONS,
                      clamp: float = DEFAULT_CLAMP) -> None:
    """Reject an alpha or clamp that is not positive and finite (NaN
    included) and fewer than one iteration."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not 0 < clamp < math.inf:
        raise ValueError(f"clamp must be positive and finite, got {clamp}")


def estimate_flow(frame_prev: np.ndarray, frame_next: np.ndarray,
                  alpha: float = DEFAULT_ALPHA,
                  iterations: int = DEFAULT_ITERATIONS) -> np.ndarray:
    """Estimate (u, v) such that a feature at (x, y) in frame_prev appears
    near (x+u, y+v) in frame_next.

    Inputs are same-shaped (H, W) planes with values in [0, 1]. alpha
    weights the smoothness term; more iterations propagate flow further
    from edges. Returns the velocities in px/frame as one float32
    (2, H, W) array: u (horizontal, +x right) at index 0 and v (vertical,
    +y down) at index 1.
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
    check_flow_params(alpha, iterations)

    # Jacobi iterations on u and v together, updated in place, so nothing is
    # allocated inside the loop. u and v live in one flat buffer: the
    # (2, h+2, w+2) edge-padded planes plus one slack element at each end.
    # Over padded rows 1..h every neighbour is then a constant flat offset
    # (+-1, +-wp, +-wp+-1), so each step is one contiguous run of
    # n = h*wp elements per plane, pad columns included. ex, ey, et and
    # denom share that layout with 0, 0, 0 and alpha^2 in the pad columns,
    # so the pad-column results are finite; nothing reads them, because
    # the next sweep's edge replication overwrites them and the output
    # leaves them out. Each output element gets the float32 operations of
    # the plain expressions
    #   bar = (right + left + below + above) * 1/6
    #         + (below right + below left + above right + above left) * 1/12
    #   t = (ex * u_bar + ey * v_bar + et) / denom
    #   u = u_bar - ex * t,  v = v_bar - ey * t
    # in their order, so gives the same bits; tests/test_flow.py keeps that
    # loop as oracle.
    h, w = frame_prev.shape
    wp, n = w + 2, h * (w + 2)
    # prev and next, scaled and edge-padded once; both central differences
    # of both frames come from that one array
    p = np.pad(np.stack([frame_prev, frame_next]) * np.float32(_BRIGHTNESS_SCALE),
               ((0, 0), (1, 1), (1, 1)), mode="edge")
    dx = 0.5 * (p[:, 1:-1, 2:] - p[:, 1:-1, :-2])
    dy = 0.5 * (p[:, 2:, 1:-1] - p[:, :-2, 1:-1])
    terms = np.zeros((3, h, wp), dtype=np.float32)
    np.multiply(0.5, dx[0] + dx[1], out=terms[0, :, 1:-1])
    np.multiply(0.5, dy[0] + dy[1], out=terms[1, :, 1:-1])
    np.subtract(p[1, 1:-1, 1:-1], p[0, 1:-1, 1:-1], out=terms[2, :, 1:-1])
    del p, dx, dy  # the sweeps need only terms
    exey, et = terms[:2].reshape(2, n), terms[2].reshape(n)
    denom = np.float32(alpha) ** 2 + exey[0] * exey[0] + exey[1] * exey[1]

    buf = np.zeros((2, (h + 2) * wp + 2), dtype=np.float32)
    uv = buf[:, 1:-1].reshape(2, h + 2, wp)

    def shifted(offset, length=n):  # rows 1.. of both planes, moved by offset
        return buf[:, 1 + wp + offset:1 + wp + offset + length]

    right, left = shifted(1, n + wp), shifted(-1, n + wp)
    below, above = shifted(wp), shifted(-wp)
    above_right, above_left, rows = shifted(1 - wp), shifted(-1 - wp), shifted(0)
    # right + left for rows 1..h+1; the first n entries become the cross sum
    pair = np.empty((2, n + wp), dtype=np.float32)
    bar, below_pair = pair[:, :n], pair[:, wp:]
    diag = np.empty((2, n), dtype=np.float32)
    t = diag[0]
    for _ in range(iterations):
        # edge replication: border columns first, then full rows (corners)
        uv[:, 1:-1, 0] = uv[:, 1:-1, 1]
        uv[:, 1:-1, -1] = uv[:, 1:-1, -2]
        uv[:, 0] = uv[:, 1]
        uv[:, -1] = uv[:, -2]
        # neighbour average: 4-neighbours 1/6, diagonals 1/12; the diagonal
        # sum reads the row below's right + left before bar overwrites it
        np.add(right, left, out=pair)
        np.add(below_pair, above_right, out=diag)
        np.add(diag, above_left, out=diag)
        np.add(bar, below, out=bar)
        np.add(bar, above, out=bar)
        np.multiply(bar, _SIXTH, out=bar)
        np.multiply(diag, _TWELFTH, out=diag)
        np.add(bar, diag, out=bar)
        # data term and update; ey * t goes first, because t is diag[0]
        np.multiply(exey, bar, out=diag)
        np.add(diag[0], diag[1], out=t)
        np.add(t, et, out=t)
        np.divide(t, denom, out=t)
        np.multiply(exey[1], t, out=diag[1])
        np.multiply(exey[0], t, out=diag[0])
        np.subtract(bar, diag, out=rows)
    return uv[:, 1:-1, 1:-1].copy()


def flow_to_channels(uv: np.ndarray, clamp: float = DEFAULT_CLAMP) -> np.ndarray:
    """Map a (2, H, W) flow field to float32 [0, 1] planes of the same
    shape: clamp to [-F, F], then affine so that zero flow lands exactly
    on 0.5."""
    check_flow_params(clamp=clamp)
    f = np.float32(clamp)
    return (np.clip(uv, -f, f) / (2.0 * f) + np.float32(0.5)).astype(np.float32, copy=False)
