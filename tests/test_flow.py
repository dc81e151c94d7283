import gc
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from helpers import background_epe
from mmreg import flow, pipeline, synth


def gaussian_blob(h, w, cy, cx, sigma, amp=1.0):
    y, x = np.mgrid[0:h, 0:w]
    return (amp * np.exp(-(((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma ** 2)))).astype(np.float32)


class TestEstimateFlow:
    def test_identical_frames_zero_flow(self):
        frame = np.random.default_rng(0).random((20, 30), dtype=np.float32)
        u, v = flow.estimate_flow(frame, frame)
        assert np.max(np.abs(u)) < 1e-6
        assert np.max(np.abs(v)) < 1e-6

    def test_constant_frames_zero_flow(self):
        a = np.full((16, 16), 0.4, dtype=np.float32)
        b = np.full((16, 16), 0.4, dtype=np.float32)
        u, v = flow.estimate_flow(a, b)
        assert not u.any() and not v.any()

    def test_translated_blob_recovered(self):
        # blob moved by (2, 0); oracle: mean endpoint error over support < 0.5 px
        prev = gaussian_blob(48, 48, 24, 23, sigma=3.0)
        nxt = gaussian_blob(48, 48, 24, 25, sigma=3.0)
        u, v = flow.estimate_flow(prev, nxt, alpha=1.0, iterations=200)
        support = prev > 0.1
        epe = np.sqrt((u[support] - 2.0) ** 2 + v[support] ** 2)
        assert epe.mean() < 0.5

    def test_antisymmetry_on_blob(self):
        prev = gaussian_blob(48, 48, 24, 23, sigma=3.0)
        nxt = gaussian_blob(48, 48, 24, 25, sigma=3.0)
        fwd = flow.estimate_flow(prev, nxt)
        bwd = flow.estimate_flow(nxt, prev)
        support = prev > 0.1
        diff = np.sqrt((fwd[0][support] + bwd[0][support]) ** 2
                       + (fwd[1][support] + bwd[1][support]) ** 2)
        assert diff.mean() < 0.5

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dims differ"):
            flow.estimate_flow(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_out_of_range_rejected(self):
        bad = np.full((4, 4), 1.5)
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            flow.estimate_flow(bad, np.zeros((4, 4)))
        with_nan = np.full((4, 4), 0.5)
        with_nan[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            flow.estimate_flow(np.zeros((4, 4)), with_nan)

    def test_bad_params_rejected(self):
        a = np.zeros((4, 4))
        with pytest.raises(ValueError, match="alpha"):
            flow.estimate_flow(a, a, alpha=0.0)
        with pytest.raises(ValueError, match="iterations"):
            flow.estimate_flow(a, a, iterations=0)

    def test_deterministic(self):
        prev = gaussian_blob(32, 32, 16, 15, sigma=2.5)
        nxt = gaussian_blob(32, 32, 16, 17, sigma=2.5)
        f1 = flow.estimate_flow(prev, nxt)
        f2 = flow.estimate_flow(prev.copy(), nxt.copy())
        np.testing.assert_array_equal(f1[0], f2[0])
        np.testing.assert_array_equal(f1[1], f2[1])

    def test_flow_finite(self):
        rng = np.random.default_rng(5)
        prev = rng.random((24, 24), dtype=np.float32)
        nxt = rng.random((24, 24), dtype=np.float32)
        u, v = flow.estimate_flow(prev, nxt, iterations=50)
        assert np.isfinite(u).all() and np.isfinite(v).all()


@pytest.fixture(scope="module")
def synth_pair():
    """Frames 0 and 1 of a 400x192 synth sequence (seed 101, 20 objects),
    with Gr, as the acceptance experiment's flow step sees them."""
    config = synth.SceneConfig(seed=101, frame_count=2, width=400, height=192, object_count=20)
    return [pipeline.rgb_to_gray(frame) for frame in synth.generate_sequence(config)]


class TestDefaults:
    def test_bytes_pinned(self, synth_pair):
        """The U,V bytes at the defaults. estimate_flow and flow_to_channels
        run only elementwise float32 ufuncs, no BLAS, so these digests
        should hold on any x86-64 with numpy 2.x; they change whenever a
        default or the solver's arithmetic does."""
        prev, nxt = synth_pair
        uv = flow.estimate_flow(prev.plane("Gr"), nxt.plane("Gr"))
        assert hashlib.sha256(uv.tobytes()).hexdigest() == \
            "2587c68a50860e5191c7d65b765f454067c2168ae40ffb98e9d2432f8de98a48"
        assert hashlib.sha256(flow.flow_to_channels(uv).tobytes()).hexdigest() == \
            "947c985af85957d86d8b789ed7410b8bd1eecdbc22783d8a5d80e3f7ccea7780"

    def test_beats_zero_field_on_background(self, synth_pair):
        # a zero field scores exactly 1 px against the camera's (-1, 0);
        # alpha 10 in 2 V-cycles scores about 0.46 px here, in 100 plain
        # sweeps 0.51 px, alpha 1 in 200 sweeps about 1.16 px
        prev, nxt = synth_pair
        uv = flow.estimate_flow(prev.plane("Gr"), nxt.plane("Gr"))
        assert background_epe(np.zeros_like(uv), prev.plane("L"), nxt.plane("L")) == 1.0
        assert background_epe(uv, prev.plane("L"), nxt.plane("L")) < 0.75

    def test_background_error_below_100_plain_sweeps(self, synth_pair):
        # the 100 plain sweeps that were the default score 0.509 px here
        prev, nxt = synth_pair
        uv = flow.estimate_flow(prev.plane("Gr"), nxt.plane("Gr"))
        assert background_epe(uv, prev.plane("L"), nxt.plane("L")) < 0.50


def reference_estimate_flow(frame_prev, frame_next, alpha, iterations):
    """The Horn-Schunck loop as first written, with np.pad and fresh arrays
    on every iteration: the oracle for the buffered loop in flow.py."""
    def pad(plane):
        return np.pad(plane, 1, mode="edge")

    def neighbor_average(plane):
        p = pad(plane)
        cross = p[1:-1, 2:] + p[1:-1, :-2] + p[2:, 1:-1] + p[:-2, 1:-1]
        diag = p[2:, 2:] + p[2:, :-2] + p[:-2, 2:] + p[:-2, :-2]
        return cross * (1.0 / 6.0) + diag * (1.0 / 12.0)

    def central_dx(plane):
        p = pad(plane)
        return 0.5 * (p[1:-1, 2:] - p[1:-1, :-2])

    def central_dy(plane):
        p = pad(plane)
        return 0.5 * (p[2:, 1:-1] - p[:-2, 1:-1])

    prev = np.asarray(frame_prev, dtype=np.float32) * np.float32(255.0)
    nxt = np.asarray(frame_next, dtype=np.float32) * np.float32(255.0)
    ex = 0.5 * (central_dx(prev) + central_dx(nxt))
    ey = 0.5 * (central_dy(prev) + central_dy(nxt))
    et = nxt - prev
    denom = np.float32(alpha) ** 2 + ex * ex + ey * ey
    u = np.zeros_like(prev)
    v = np.zeros_like(prev)
    for _ in range(iterations):
        u_bar = neighbor_average(u)
        v_bar = neighbor_average(v)
        t = (ex * u_bar + ey * v_bar + et) / denom
        u = u_bar - ex * t
        v = v_bar - ey * t
    return u, v


def fine_sweeps(frame_prev, frame_next, alpha, sweeps):
    """sweeps Jacobi sweeps of the V-cycle's fine level from a zero field."""
    grid = flow._FineGrid(np.asarray(frame_prev, np.float32), np.asarray(frame_next, np.float32),
                          alpha)
    grid.sweep(sweeps)
    return grid.field()


class TestBufferedLoopMatchesReference:
    """The fine-level smoother of the V-cycles is the Jacobi loop as
    first written, bit for bit."""

    # (1, 2), (2, 1), (3, 401) and (192, 400): flat neighbour offsets that
    # cross row boundaries in the padded buffer
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (5, 7), (48, 48),
                                       (96, 128), (1, 2), (2, 1), (3, 401), (192, 400)],
                             ids=lambda hw: f"{hw[0]}x{hw[1]}")
    @pytest.mark.parametrize("iterations", [1, 2, 200])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    def test_bit_identical(self, shape, iterations, alpha):
        rng = np.random.default_rng([*shape, iterations, int(2 * alpha)])
        prev = rng.random(shape, dtype=np.float32)
        nxt = rng.random(shape, dtype=np.float32)
        for a, b in ((prev, nxt), (prev, prev)):
            field = fine_sweeps(a, b, alpha, iterations)
            u, v = reference_estimate_flow(a, b, alpha, iterations)
            assert field.dtype == np.float32 and field.shape == (2, *shape)
            assert field[0].tobytes() == u.tobytes()
            assert field[1].tobytes() == v.tobytes()


def hs_residual(uv, frame_prev, frame_next, alpha):
    """Root mean square, in float64, of the residual of the Horn-Schunck
    system that the fine sweeps iterate on:
    alpha^2 (u_bar - u) - ex (ex u + ey v + et), and the same with ey."""
    def pad(plane):
        return np.pad(plane, 1, mode="edge")

    def neighbor_average(plane):
        p = pad(plane)
        cross = p[1:-1, 2:] + p[1:-1, :-2] + p[2:, 1:-1] + p[:-2, 1:-1]
        diag = p[2:, 2:] + p[2:, :-2] + p[:-2, 2:] + p[:-2, :-2]
        return cross / 6.0 + diag / 12.0

    prev = np.asarray(frame_prev, np.float64) * 255.0
    nxt = np.asarray(frame_next, np.float64) * 255.0
    p, q = pad(prev), pad(nxt)
    ex = 0.25 * (p[1:-1, 2:] - p[1:-1, :-2] + q[1:-1, 2:] - q[1:-1, :-2])
    ey = 0.25 * (p[2:, 1:-1] - p[:-2, 1:-1] + q[2:, 1:-1] - q[:-2, 1:-1])
    u, v = np.asarray(uv, np.float64)
    data = ex * u + ey * v + (nxt - prev)
    r_u = alpha ** 2 * (neighbor_average(u) - u) - ex * data
    r_v = alpha ** 2 * (neighbor_average(v) - v) - ey * data
    return float(np.sqrt(np.mean(r_u ** 2 + r_v ** 2)))


def textured_pair(shape, shift, seed=3):
    """A smooth random texture and the same texture moved by shift (px)."""
    rng = np.random.default_rng(seed)
    h, w = shape
    coarse = rng.random((h // 4 + 3, w // 4 + 3))
    y, x = np.mgrid[0:h, 0:w] / 4.0

    def sample(dx, dy):  # bilinear lookup of coarse at (x - dx, y - dy)
        xs, ys = x - dx / 4.0 + 1.0, y - dy / 4.0 + 1.0
        x0, y0 = np.floor(xs).astype(int), np.floor(ys).astype(int)
        fx, fy = xs - x0, ys - y0
        return ((1 - fy) * ((1 - fx) * coarse[y0, x0] + fx * coarse[y0, x0 + 1])
                + fy * ((1 - fx) * coarse[y0 + 1, x0] + fx * coarse[y0 + 1, x0 + 1]))

    return sample(0.0, 0.0).astype(np.float32), sample(*shift).astype(np.float32)


def blobs_on_flat(shape, shift, seed=3):
    """Six faint Gaussian blobs on a flat background, and the same moved by
    shift (px): away from the blobs only the smoothness term sets the flow."""
    h, w = shape
    centers = np.random.default_rng(seed).random((6, 2)) * [h, w]

    def frame(dx, dy):
        return sum(gaussian_blob(h, w, cy + dy, cx + dx, sigma=2.5, amp=0.15)
                   for cy, cx in centers)

    return frame(0.0, 0.0), frame(*shift)


class TestMultigrid:
    """iterations counts V-cycles on the system the fine sweeps solve."""

    # 45x61 halves to 23x31 and 12x16: odd sides at both restrictions. On
    # the flat background the coarsest levels carry the flow across, which
    # a coarsest level of 8x12 in four sweeps did not (0.05 px off)
    @pytest.mark.parametrize("pair, shape", [(textured_pair, (48, 64)),
                                             (textured_pair, (45, 61)),
                                             (blobs_on_flat, (32, 48))],
                             ids=["textured-48x64", "textured-45x61", "blobs-32x48"])
    def test_reaches_the_fine_sweeps_fixed_point(self, pair, shape):
        prev, nxt = pair(shape, (1.0, -0.5))
        fixed = fine_sweeps(prev, nxt, flow.DEFAULT_ALPHA, 4000)
        cycled = flow.estimate_flow(prev, nxt, iterations=8)
        assert np.abs(cycled - fixed).mean() < 1e-3

    @pytest.mark.parametrize("alpha", [1.0, flow.DEFAULT_ALPHA])
    def test_each_cycle_lowers_the_residual(self, alpha):
        prev, nxt = textured_pair((45, 61), (1.0, -0.5))
        norms = [hs_residual(np.zeros((2, 45, 61)), prev, nxt, alpha)]
        norms += [hs_residual(flow.estimate_flow(prev, nxt, alpha=alpha, iterations=cycles),
                              prev, nxt, alpha) for cycles in range(1, 6)]
        assert all(b < a for a, b in zip(norms, norms[1:])), norms

    @pytest.mark.parametrize("alpha", [0.01, 0.03, 0.1, 1.0])
    def test_plane_wave_at_small_alpha_stays_bounded(self, alpha):
        # every gradient points one way, so nothing but smoothness sets the
        # flow along the wave's crests; with coarse weights down to
        # 0.03^2 / 4^6 these cycles overflowed by the 8th
        y, x = np.mgrid[0:192, 0:400].astype(np.float32)
        prev = 0.5 + 0.4 * np.sin(0.3 * x + 0.2 * y)
        nxt = 0.5 + 0.4 * np.sin(0.3 * (x - 1.0) + 0.2 * y)
        with np.errstate(all="raise"):
            uv = flow.estimate_flow(prev, nxt, alpha=alpha, iterations=12)
        assert np.abs(uv).max() < 2.0

    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (45, 61), (192, 400)],
                             ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_identical_frames_give_exactly_zero(self, shape):
        frame = np.random.default_rng(1).random(shape, dtype=np.float32)
        assert not flow.estimate_flow(frame, frame).any()

    def test_leaves_no_garbage_and_little_memory(self, synth_pair):
        # every level's buffers are freed when the call returns, with no
        # reference cycle left for the collector
        prev, nxt = (frame.plane("Gr") for frame in synth_pair)
        gc.collect()
        tracemalloc.start()
        try:
            flow.estimate_flow(prev, nxt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gc.collect() == 0
        assert peak <= 5 * 2 ** 20


def bright_pixel_pair():
    """An 8x8 zero frame and the same with one bright pixel."""
    prev = np.zeros((8, 8), np.float32)
    nxt = prev.copy()
    nxt[3, 4] = 1.0
    return prev, nxt


def noise_pair():
    """64x64 noise and the same noise moved one column left."""
    noise = np.random.default_rng(0).random((64, 65), dtype=np.float32)
    return noise[:, :64], noise[:, 1:]


def out_of_range(alpha):
    return re.escape(f"alpha must be in [0.0001, 10000], got {alpha}")


class TestAlphaRange:
    """Alphas outside [MIN_ALPHA, MAX_ALPHA] are refused; these values
    gave NaN flow, with only RuntimeWarnings, when they were taken."""

    @pytest.mark.parametrize("alpha", [1e-30, 1e-22, 1e-19, 5e-19])
    def test_small_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match=out_of_range(alpha)):
            flow.estimate_flow(*bright_pixel_pair(), alpha=alpha)

    @pytest.mark.parametrize("alpha", [1e18, 1e19, 1.8e19])
    def test_large_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match=out_of_range(alpha)):
            flow.estimate_flow(*noise_pair(), alpha=alpha)

    @pytest.mark.parametrize("alpha", [flow.MIN_ALPHA, 1e-3, 1e3, flow.MAX_ALPHA])
    def test_alphas_in_range_stay_finite(self, alpha, synth_pair):
        y, x = np.mgrid[0:48, 0:80].astype(np.float32)
        wave = [0.5 + 0.4 * np.sin(0.3 * (x - shift) + 0.2 * y) for shift in (0, 1)]
        pairs = [bright_pixel_pair(), noise_pair(), wave,
                 [frame.plane("Gr") for frame in synth_pair]]
        for prev, nxt in pairs:
            with np.errstate(all="raise", under="ignore"):
                uv = flow.estimate_flow(prev, nxt, alpha=alpha, iterations=12)
            assert np.isfinite(uv).all()


class TestPadColumns:
    """The pad columns of the flat buffers carry don't-care values; with 0,
    0, 0 and alpha^2 in ex, ey, et and denom there, and J = 0 and r = 0 on
    the coarse levels, they stay finite and raise no floating-point error,
    whatever the shape and so the number of levels."""

    @staticmethod
    def check(frames, alpha, shape, cycles):
        rng = np.random.default_rng(9)
        prev, nxt = rng.random(shape, dtype=np.float32), rng.random(shape, dtype=np.float32)
        prev, nxt = {"random": (prev, nxt), "zeros": (np.zeros(shape), np.zeros(shape)),
                     "ones": (np.ones(shape), np.ones(shape)), "identical": (prev, prev)}[frames]
        with np.errstate(all="raise"):
            u, v = flow.estimate_flow(prev, nxt, alpha=alpha, iterations=cycles)
        assert np.isfinite(u).all() and np.isfinite(v).all()

    @pytest.mark.parametrize("alpha", [0.5, 3.0])
    @pytest.mark.parametrize("frames", ["random", "zeros", "ones", "identical"])
    def test_no_float_errors(self, frames, alpha):
        self.check(frames, alpha, (17, 23), 200)

    # 4x4 is the smallest frame with a coarse level
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (4, 4), (5, 7), (45, 61),
                                       (3, 401), (192, 400)],
                             ids=lambda hw: f"{hw[0]}x{hw[1]}")
    @pytest.mark.parametrize("alpha", [0.5, 3.0])
    @pytest.mark.parametrize("frames", ["random", "zeros", "ones", "identical"])
    def test_no_float_errors_at_any_shape(self, frames, alpha, shape):
        self.check(frames, alpha, shape, 20 if shape == (192, 400) else 200)


class TestFlowToChannels:
    def test_zero_maps_to_half(self):
        u01, v01 = flow.flow_to_channels(np.zeros((2, 4, 4), np.float32), clamp=8.0)
        assert np.all(u01 == np.float32(0.5)) and np.all(v01 == np.float32(0.5))

    def test_extremes(self):
        u01, _ = flow.flow_to_channels(np.array([[[8.0, -8.0]], [[0.0, 0.0]]]), clamp=8.0)
        np.testing.assert_allclose(u01, [[1.0, 0.0]])

    def test_clamped_beyond_range(self):
        u01, _ = flow.flow_to_channels(np.array([[[16.0, -100.0]], [[0.0, 0.0]]]), clamp=8.0)
        np.testing.assert_allclose(u01, [[1.0, 0.0]])

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(6)
        uv = np.stack([rng.standard_normal((8, 8)) * 20, rng.standard_normal((8, 8)) * 20])
        u01, v01 = flow.flow_to_channels(uv)
        for plane in (u01, v01):
            assert plane.min() >= 0.0 and plane.max() <= 1.0

    def test_bad_clamp_rejected(self):
        with pytest.raises(ValueError, match="clamp"):
            flow.flow_to_channels(np.zeros((2, 2, 2), np.float32), clamp=0.0)
