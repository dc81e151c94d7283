"""Dense optical flow between consecutive grayscale frames.

Horn and Schunck's model (AI 17, 1981): brightness constancy with
quadratic smoothness, as the linear system that their fixed-point
iteration solves, here by multigrid V-cycles (Bruhn et al., IEEE TIP
14(5), 2005; Meinhardt-Llopis, Sanchez and Kondermann, IPOL 2013).
Deterministic float32; good enough to provide motion channels for the
classifier, not a state-of-the-art flow.

The frames' own level smooths with Horn and Schunck's Jacobi sweep. Each
coarser level halves the sides, rounded up, until the shorter side is at
most COARSEST_SIZE px or the level's smoothness weight would fall below
_MIN_COARSE_WEIGHT. It holds 2x2 block means of the residual and of the
motion tensor (ex^2, ex*ey, ey^2), weighs smoothness by a quarter of the
finer level's weight, smooths with the 2x2 point-Jacobi step, and adds its
correction back to the finer level, bilinearly interpolated. A cycle is
V(PRE_SWEEPS, POST_SWEEPS).

The defaults are alpha 10 in 2 V-cycles. Synth pans the camera so that the
background moves by (-1, 0) px/frame. On background pixels (no depth
return in either frame, 8-px border left out) the endpoint error is
0.46 px on the 400x192 pair that tests/test_flow.py pins, 0.48 px over 20
pairs of 400x192 and 0.48 px over 20 pairs of 800x256 (seed 101),
against 0.51, 0.53 and 0.53 px for alpha 10 in 100 plain Jacobi sweeps,
the former default. A zero field scores 1.00 px. On the pinned pair two
cycles end a mean 0.007 px from the fixed point of 4000 sweeps; 100
sweeps end 0.039 px from it. A pair took 12-17 ms at 400x192 and
38-40 ms at 800x256 (fastest of 20 serial pairs, one thread, three
runs), against 52-64 and 220-230 ms for the 100 sweeps. Alpha 10 was
chosen on the plain sweeps: a stronger smoothness weight carries the
motion of edges into textureless areas, and alpha 1, the default before
it, scored 1.16 px, worse than a zero field. In the acceptance
experiment (seeds 101 and 202) GrLUV patch accuracy was 53.0 % and image
accuracy 89.4 %, against 52.9 and 92.8 % for the 100 sweeps and 90.6 %
image accuracy without flow (RGBL). On seeds 303 and 404 patch accuracy
was 49.2 % against 48.1 %, and image accuracy 98.9 % for both (RGBL
78.3 %). Image accuracy on one seed pair moves by several points with
small changes to the field, so those two figures are noisy.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_ALPHA = 10.0
DEFAULT_ITERATIONS = 2
DEFAULT_CLAMP = 8.0

# Derivatives are computed on an 8-bit-like brightness scale; alpha is
# calibrated for that range, and [0,1] inputs would otherwise make the
# smoothness term swamp the data term.
_BRIGHTNESS_SCALE = 255.0

_SIXTH = np.float32(1.0 / 6.0)
_TWELFTH = np.float32(1.0 / 12.0)
_QUARTER = np.float32(0.25)
_SIXTEENTH = np.float32(1.0 / 16.0)

# V(PRE_SWEEPS, POST_SWEEPS) cycles; the coarsest level, whose shorter side
# is at most COARSEST_SIZE, runs both counts' sweeps
PRE_SWEEPS = 2
POST_SWEEPS = 2
COARSEST_SIZE = 3

# The least smoothness weight a coarse level may have: the float32 rounding
# step of the largest data term, ex^2 <= 255^2. A level below it cannot tell
# its smoothness term from the data term's rounding, and its corrections
# along the direction no gradient constrains then amplify that rounding
# from cycle to cycle: at alpha 0.03 a 400x192 plane wave overflowed.
_MIN_COARSE_WEIGHT = float(np.finfo(np.float32).eps) * _BRIGHTNESS_SCALE ** 2


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
    weights the smoothness term; iterations counts multigrid V-cycles, and
    more of them bring the field closer to the solution of the
    Horn-Schunck system. Returns the velocities in px/frame as one float32
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

    # (h, w) of each level: half the sides of the one above, rounded up, and
    # a quarter of its smoothness weight, until the shorter side is at most
    # COARSEST_SIZE or the next weight would fall below _MIN_COARSE_WEIGHT
    sides = [frame_prev.shape]
    while (min(sides[-1]) > COARSEST_SIZE
           and alpha ** 2 / 4 ** len(sides) >= _MIN_COARSE_WEIGHT):
        sides.append((_half(sides[-1][0]), _half(sides[-1][1])))
    fine = _FineGrid(frame_prev, frame_next, alpha,
                     sum(_CoarseGrid.floats(h, w) for h, w in sides[1:]))
    _v_cycles([fine, *_coarse_levels(fine, sides[1:], alpha)], iterations)
    return fine.field()


def _coarse_levels(fine: "_FineGrid", sides: list, alpha: float) -> list:
    """The levels under fine, of the given sides, in fine's spare floats."""
    levels, start = [fine], 0
    for h, w in sides:
        size = _CoarseGrid.floats(h, w)
        levels.append(_CoarseGrid(levels[-1], fine.spare[start:start + size]))
        start += size
    # the weights go last: each level's block means read the raw J above
    for level, grid in enumerate(levels[1:], 1):
        grid.set_weight(np.float32(alpha) ** 2 / np.float32(4 ** level))
    return levels[1:]


def _v_cycles(grids: list, iterations: int) -> None:
    """iterations V(PRE_SWEEPS, POST_SWEEPS) cycles down grids and back up.
    A loop, not a recursive closure, so no reference cycle keeps the levels
    alive. restrict runs a coarse level's first sweep, and the coarsest
    level runs PRE_SWEEPS + POST_SWEEPS in all."""
    fine = grids[0]
    # Where the data term outweighs a, a level's point step solves its
    # system almost exactly, so the residual it passes down shrinks by
    # about a / J per level; on deep levels at a small alpha it can reach
    # subnormal values. Those are negligible corrections, not errors.
    with np.errstate(under="ignore"):
        for _ in range(iterations):
            fine.sweep(PRE_SWEEPS)
            for finer, coarser in zip(grids, grids[1:]):
                finer.residual()
                finer.restrict(coarser)
                coarser.sweep(PRE_SWEEPS - 1)
            grids[-1].sweep(POST_SWEEPS)
            for finer, coarser in zip(grids[-2::-1], grids[:0:-1]):
                finer.add_prolonged(coarser)
                finer.sweep(POST_SWEEPS)


class _Grid:
    """One level of the V-cycle: u and v, or their correction, in one flat
    float32 buffer that holds the (2, h+2, w+2) edge-padded planes plus one
    slack element at each end. Over padded rows 1..h every neighbour is a
    constant flat offset (+-1, +-wp, +-wp+-1), so each step is one
    contiguous run of n = h*wp elements per plane, pad columns included.
    The data arrays hold neutral values in the pad columns, so their
    results are finite; nothing reads them, because the next edge
    replication overwrites them and restriction and the output leave them
    out. The levels share two scratch arrays, sized by the finest level:
    pair and diag, which the sweeps, the residual and the prolongation use
    in turn."""

    sixth, twelfth = _SIXTH, _TWELFTH  # neighbour weights

    def __init__(self, buf: np.ndarray, h: int, w: int, pair: np.ndarray, diag: np.ndarray):
        """buf: zeros of shape (2, (h+2)*(w+2) + 2)."""
        wp, n = w + 2, h * (w + 2)
        self.h, self.w, self.wp, self.n = h, w, wp, n
        self.buf = buf
        self.uv = self.buf[:, 1:-1].reshape(2, h + 2, wp)
        # right + left for rows 1..h+1; the first n entries become the cross
        # sum, and the residual, with one spare row for block means of odd h
        self.scratch_pair, self.scratch_diag = pair, diag
        self.pair = pair[:2 * (n + wp)].reshape(2, n + wp)
        self.bar, self.below_pair = self.pair[:, :n], self.pair[:, wp:]
        self.diag = diag[:2 * n].reshape(2, n)

        def shifted(offset, length=n):  # rows 1.. of both planes, moved by offset
            return self.buf[:, 1 + wp + offset:1 + wp + offset + length]

        self.right, self.left = shifted(1, n + wp), shifted(-1, n + wp)
        self.below, self.above = shifted(wp), shifted(-wp)
        self.above_right, self.above_left = shifted(1 - wp), shifted(-1 - wp)
        self.rows = shifted(0)

    def replicate_edges(self) -> None:
        """Copy the edge cells into the pad: border columns first, then
        full rows (corners)."""
        uv = self.uv
        uv[:, 1:-1, 0] = uv[:, 1:-1, 1]
        uv[:, 1:-1, -1] = uv[:, 1:-1, -2]
        uv[:, 0] = uv[:, 1]
        uv[:, -1] = uv[:, -2]

    def average(self) -> None:
        """Replicate the edges, then put the neighbour average of u and v
        in bar: 4-neighbours weigh sixth, diagonals twelfth."""
        self.replicate_edges()
        # the diagonal sum reads the row below's right + left before bar
        # overwrites it
        bar, diag = self.bar, self.diag
        np.add(self.right, self.left, out=self.pair)
        np.add(self.below_pair, self.above_right, out=diag)
        np.add(diag, self.above_left, out=diag)
        np.add(bar, self.below, out=bar)
        np.add(bar, self.above, out=bar)
        np.multiply(bar, self.sixth, out=bar)
        np.multiply(diag, self.twelfth, out=diag)
        np.add(bar, diag, out=bar)

    def restrict_tensor(self, coarse: "_CoarseGrid") -> None:
        """Set coarse's J11, J22 and J12 to the 2x2 block means of this
        level's, which tensor writes into scratch."""
        h, w, wp = self.h, self.w, self.wp
        cross = self.scratch_diag[:(h + 1) * wp].reshape(1, h + 1, wp)
        self.tensor(self.bar, cross[0, :h].reshape(self.n))
        _block_means(self.pair.reshape(2, h + 1, wp), h, w,
                     coarse.jdiag.reshape(2, coarse.h, coarse.wp)[:, :, 1:-1])
        _block_means(cross, h, w, coarse.j12.reshape(1, coarse.h, coarse.wp)[:, :, 1:-1])

    def restrict(self, coarse: "_CoarseGrid") -> None:
        """Set coarse's right-hand side to the 2x2 block means of the
        residual in bar, and its correction to one sweep from zero."""
        _block_means(self.pair.reshape(2, self.h + 1, self.wp), self.h, self.w,
                     coarse.rhs.reshape(2, coarse.h, coarse.wp)[:, :, 1:-1])
        coarse.solve_point(coarse.rhs)

    def add_prolonged(self, coarse: "_CoarseGrid") -> None:
        """Add coarse's correction, bilinearly interpolated, to u and v: a
        fine cell takes 3/4 of its coarse cell and 1/4 of the next one
        across each side it lies nearer, so 9/16, 3/16, 3/16 and 1/16."""
        coarse.replicate_edges()
        e, hc, wc = coarse.uv, coarse.h, coarse.w
        h, w = self.h, self.w
        mid = e[:, :, 1:-1]
        t = self.scratch_diag[:2 * (hc + 2) * 2 * wc].reshape(2, hc + 2, 2 * wc)
        even, odd = t[:, :, 0::2], t[:, :, 1::2]
        np.multiply(mid, 3, out=even)
        np.add(even, e[:, :, :-2], out=even)
        np.multiply(mid, 3, out=odd)
        np.add(odd, e[:, :, 2:], out=odd)
        np.multiply(t, _SIXTEENTH, out=t)
        g = self.scratch_pair[:2 * hc * 2 * wc].reshape(2, hc, 2 * wc)
        fine = self.uv[:, 1:h + 1, 1:w + 1]
        for rows, side, count in ((fine[:, 0::2], t[:, :-2], hc), (fine[:, 1::2], t[:, 2:], h // 2)):
            np.multiply(t[:, 1:-1], 3, out=g)
            np.add(g, side, out=g)
            np.add(rows, g[:, :count, :w], out=rows)


class _FineGrid(_Grid):
    """The frames' own level: Horn-Schunck Jacobi sweeps on u and v.

    ex, ey, et and denom share the buffer's layout with 0, 0, 0 and
    alpha^2 in the pad columns. Each output element of a sweep gets the
    float32 operations of the plain expressions
      bar = (right + left + below + above) * 1/6
            + (below right + below left + above right + above left) * 1/12
      t = (ex * u_bar + ey * v_bar + et) / denom
      u = u_bar - ex * t,  v = v_bar - ey * t
    in their order, so gives the same bits; tests/test_flow.py keeps that
    loop as oracle."""

    def __init__(self, frame_prev: np.ndarray, frame_next: np.ndarray, alpha: float,
                 spare: int = 0):
        """spare: zeros to allocate after the level's own arrays, in the
        same block, for the coarse levels (self.spare). A few dozen arrays
        of assorted sizes per call fragment the malloc arenas of the pair
        pool's threads: with one array each, benchmark ingest's peak RSS
        read about 3.5 MB higher than with this one block."""
        h, w = frame_prev.shape
        wp, n = w + 2, h * (w + 2)
        # prev and next, scaled and edge-padded once; both central
        # differences of both frames come from that one array
        p = np.pad(np.stack([frame_prev, frame_next]) * np.float32(_BRIGHTNESS_SCALE),
                   ((0, 0), (1, 1), (1, 1)), mode="edge")
        dx = 0.5 * (p[:, 1:-1, 2:] - p[:, 1:-1, :-2])
        dy = 0.5 * (p[:, 2:, 1:-1] - p[:, :-2, 1:-1])
        terms = np.zeros((3, h, wp), dtype=np.float32)
        np.multiply(0.5, dx[0] + dx[1], out=terms[0, :, 1:-1])
        np.multiply(0.5, dy[0] + dy[1], out=terms[1, :, 1:-1])
        np.subtract(p[1, 1:-1, 1:-1], p[0, 1:-1, 1:-1], out=terms[2, :, 1:-1])
        del p, dx, dy  # the sweeps need only terms
        buf, pair, diag, self.denom, self.spare = _views(
            np.zeros(2 * ((h + 2) * wp + 2) + 2 * (n + wp) + 3 * n + spare, dtype=np.float32),
            [(2, (h + 2) * wp + 2), (2 * (n + wp),), (2 * n,), (n,), (spare,)])
        super().__init__(buf, h, w, pair, diag)
        self.exey, self.et = terms[:2].reshape(2, n), terms[2].reshape(n)
        self.alpha2 = np.float32(alpha) ** 2
        exey = self.exey
        # alpha^2 + ex*ex + ey*ey, in that order
        np.multiply(exey[0], exey[0], out=self.denom)
        np.add(self.alpha2, self.denom, out=self.denom)
        np.add(self.denom, exey[1] * exey[1], out=self.denom)

    def sweep(self, count: int) -> None:
        """count Jacobi sweeps on u and v, in place."""
        exey, et, denom, bar, diag, rows = (self.exey, self.et, self.denom, self.bar,
                                            self.diag, self.rows)
        t = diag[0]
        for _ in range(count):
            self.average()
            # data term and update; ey * t goes first, because t is diag[0]
            np.multiply(exey, bar, out=diag)
            np.add(diag[0], diag[1], out=t)
            np.add(t, et, out=t)
            np.divide(t, denom, out=t)
            np.multiply(exey[1], t, out=diag[1])
            np.multiply(exey[0], t, out=diag[0])
            np.subtract(bar, diag, out=rows)

    def residual(self) -> None:
        """Put the residual of the Horn-Schunck system in bar:
        alpha^2 (bar - u) - ex (ex u + ey v + et), and the same with ey."""
        exey, bar, diag, rows = self.exey, self.bar, self.diag, self.rows
        t = diag[0]
        self.average()
        np.multiply(exey, rows, out=diag)
        np.add(diag[0], diag[1], out=t)
        np.add(t, self.et, out=t)
        np.multiply(exey[1], t, out=diag[1])
        np.multiply(exey[0], t, out=diag[0])
        np.subtract(bar, rows, out=bar)
        np.multiply(bar, self.alpha2, out=bar)
        np.subtract(bar, diag, out=bar)

    def tensor(self, jdiag: np.ndarray, j12: np.ndarray) -> None:
        """ex^2 and ey^2 into jdiag, ex*ey into j12."""
        exey = self.exey
        np.multiply(exey, exey, out=jdiag)
        np.multiply(exey[0], exey[1], out=j12)

    def field(self) -> np.ndarray:
        """A copy of u and v without the pad: the (2, H, W) flow."""
        return self.uv[:, 1:-1, 1:-1].copy()


class _CoarseGrid(_Grid):
    """A level of half the finer one's size (rounded up) that solves for a
    correction e: the finer level's residual and motion tensor (ex^2,
    ex*ey, ey^2) in 2x2 block means, and the smoothness weight a a quarter
    of the finer one's, since the grid spacing doubles. A sweep is the
    point Jacobi step of the general 2x2 system
      (J11 + a) e_u + J12 e_v = a e_u_bar + r_u
      J12 e_u + (J22 + a) e_v = a e_v_bar + r_v
    where a is folded into the neighbour weights, so bar holds a e_bar.
    The pad columns hold J = 0 and r = 0."""

    @staticmethod
    def shapes(h: int, w: int) -> list:
        """The shapes of buf, rhs, jdiag, j12 and inv_det."""
        wp, n = w + 2, h * (w + 2)
        return [(2, (h + 2) * wp + 2), (2, n), (2, n), (n,), (n,)]

    @classmethod
    def floats(cls, h: int, w: int) -> int:
        return sum(math.prod(shape) for shape in cls.shapes(h, w))

    def __init__(self, finer: _Grid, mem: np.ndarray):
        """mem: floats(h, w) zeros, which the level's arrays take in turn."""
        h, w = _half(finer.h), _half(finer.w)
        # jdiag holds J11 and J22, then J11 + a and J22 + a once the weight
        # is set
        buf, self.rhs, self.jdiag, self.j12, self.inv_det = _views(mem, self.shapes(h, w))
        super().__init__(buf, h, w, finer.scratch_pair, finer.scratch_diag)
        finer.restrict_tensor(self)

    def tensor(self, jdiag: np.ndarray, j12: np.ndarray) -> None:
        """J11 and J22 into jdiag, J12 into j12."""
        np.copyto(jdiag, self.jdiag)
        np.copyto(j12, self.j12)

    def set_weight(self, a: np.float32) -> None:
        """Fix the smoothness weight a: the neighbour weights, 1 / det of
        the 2x2 system, and the diagonal J + a. The Cauchy-Schwarz part
        J11 J22 - J12^2 is clipped at 0 against rounding, so
        det >= a^2 > 0."""
        self.sixth, self.twelfth = a * _SIXTH, a * _TWELFTH
        j11, j22 = self.jdiag
        det, tmp = self.diag
        np.multiply(j11, j22, out=det)
        np.multiply(self.j12, self.j12, out=tmp)
        np.subtract(det, tmp, out=det)
        np.maximum(det, 0, out=det)
        np.add(j11, j22, out=tmp)
        np.add(tmp, a, out=tmp)
        np.multiply(tmp, a, out=tmp)
        np.add(det, tmp, out=det)
        np.divide(1, det, out=self.inv_det)
        np.add(self.jdiag, a, out=self.jdiag)

    def sweep(self, count: int) -> None:
        """count point-Jacobi sweeps on the correction, in place."""
        bar = self.bar
        for _ in range(count):
            self.average()
            np.add(bar, self.rhs, out=bar)
            self.solve_point(bar)

    def solve_point(self, b: np.ndarray) -> None:
        """e_u = ((J22 + a) b_u - J12 b_v) / det and
        e_v = ((J11 + a) b_v - J12 b_u) / det, with b = a bar + r, or r
        alone from a zero correction."""
        diag, rows = self.diag, self.rows
        np.multiply(self.jdiag[::-1], b, out=diag)
        np.multiply(self.j12, b[::-1], out=rows)
        np.subtract(diag, rows, out=rows)
        np.multiply(rows, self.inv_det, out=rows)

    def residual(self) -> None:
        """Put the residual r + a bar - (J + a) e in bar."""
        bar, diag, rows = self.bar, self.diag, self.rows
        self.average()
        np.add(bar, self.rhs, out=bar)
        np.multiply(self.jdiag, rows, out=diag)  # (J + a) e
        np.subtract(bar, diag, out=bar)
        np.multiply(self.j12, rows[::-1], out=diag)
        np.subtract(bar, diag, out=bar)


def _half(side: int) -> int:
    return -(-side // 2)


def _views(mem: np.ndarray, shapes: list) -> list:
    """Consecutive views of the flat array mem, one of each shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(mem[start:start + size].reshape(shape))
        start += size
    return views


def _block_means(src: np.ndarray, h: int, w: int, out: np.ndarray) -> None:
    """out = 2x2 block means of src's real cells, src[:, :h, 1:w+1] of a
    (k, h+1, w+2) padded layout. An odd h or w repeats its last row or
    column into the spare row or right pad column first."""
    if h % 2:
        src[:, h] = src[:, h - 1]
    if w % 2:
        src[:, :, w + 1] = src[:, :, w]
    rows, cols = 2 * out.shape[1], 2 * out.shape[2]
    np.add(src[:, 0:rows:2, 1:cols + 1:2], src[:, 0:rows:2, 2:cols + 2:2], out=out)
    np.add(out, src[:, 1:rows:2, 1:cols + 1:2], out=out)
    np.add(out, src[:, 1:rows:2, 2:cols + 2:2], out=out)
    np.multiply(out, _QUARTER, out=out)


def flow_to_channels(uv: np.ndarray, clamp: float = DEFAULT_CLAMP) -> np.ndarray:
    """Map a (2, H, W) flow field to float32 [0, 1] planes of the same
    shape: clamp to [-F, F], then affine so that zero flow lands exactly
    on 0.5."""
    check_flow_params(clamp=clamp)
    f = np.float32(clamp)
    return (np.clip(uv, -f, f) / (2.0 * f) + np.float32(0.5)).astype(np.float32, copy=False)
