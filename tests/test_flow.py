import numpy as np
import pytest

from mmreg import flow


def gaussian_blob(h, w, cy, cx, sigma, amp=1.0):
    y, x = np.mgrid[0:h, 0:w]
    return (amp * np.exp(-(((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma ** 2)))).astype(np.float32)


class TestEstimateFlow:
    def test_identical_frames_zero_flow(self):
        frame = np.random.default_rng(0).random((20, 30), dtype=np.float32)
        field = flow.estimate_flow(frame, frame)
        assert np.max(np.abs(field.u)) < 1e-6
        assert np.max(np.abs(field.v)) < 1e-6

    def test_constant_frames_zero_flow(self):
        a = np.full((16, 16), 0.4, dtype=np.float32)
        b = np.full((16, 16), 0.4, dtype=np.float32)
        field = flow.estimate_flow(a, b)
        assert not field.u.any() and not field.v.any()

    def test_translated_blob_recovered(self):
        # blob moved by (2, 0); oracle: mean endpoint error over support < 0.5 px
        prev = gaussian_blob(48, 48, 24, 23, sigma=3.0)
        nxt = gaussian_blob(48, 48, 24, 25, sigma=3.0)
        field = flow.estimate_flow(prev, nxt, alpha=1.0, iterations=200)
        support = prev > 0.1
        epe = np.sqrt((field.u[support] - 2.0) ** 2 + field.v[support] ** 2)
        assert epe.mean() < 0.5

    def test_antisymmetry_on_blob(self):
        prev = gaussian_blob(48, 48, 24, 23, sigma=3.0)
        nxt = gaussian_blob(48, 48, 24, 25, sigma=3.0)
        fwd = flow.estimate_flow(prev, nxt)
        bwd = flow.estimate_flow(nxt, prev)
        support = prev > 0.1
        diff = np.sqrt((fwd.u[support] + bwd.u[support]) ** 2
                       + (fwd.v[support] + bwd.v[support]) ** 2)
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
        np.testing.assert_array_equal(f1.u, f2.u)
        np.testing.assert_array_equal(f1.v, f2.v)

    def test_flow_finite(self):
        rng = np.random.default_rng(5)
        prev = rng.random((24, 24), dtype=np.float32)
        nxt = rng.random((24, 24), dtype=np.float32)
        field = flow.estimate_flow(prev, nxt, iterations=50)
        assert np.isfinite(field.u).all() and np.isfinite(field.v).all()


class TestFlowToChannels:
    def test_zero_maps_to_half(self):
        field = flow.zero_flow(4, 4)
        u01, v01 = flow.flow_to_channels(field, clamp=8.0)
        assert np.all(u01 == np.float32(0.5)) and np.all(v01 == np.float32(0.5))

    def test_extremes(self):
        field = flow.FlowField(u=np.array([[8.0, -8.0]]), v=np.zeros((1, 2)))
        u01, _ = flow.flow_to_channels(field, clamp=8.0)
        np.testing.assert_allclose(u01, [[1.0, 0.0]])

    def test_clamped_beyond_range(self):
        field = flow.FlowField(u=np.array([[16.0, -100.0]]), v=np.zeros((1, 2)))
        u01, _ = flow.flow_to_channels(field, clamp=8.0)
        np.testing.assert_allclose(u01, [[1.0, 0.0]])

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(6)
        field = flow.FlowField(u=rng.standard_normal((8, 8)) * 20,
                               v=rng.standard_normal((8, 8)) * 20)
        u01, v01 = flow.flow_to_channels(field)
        for plane in (u01, v01):
            assert plane.min() >= 0.0 and plane.max() <= 1.0

    def test_bad_clamp_rejected(self):
        with pytest.raises(ValueError, match="clamp"):
            flow.flow_to_channels(flow.zero_flow(2, 2), clamp=0.0)
