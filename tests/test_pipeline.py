import os
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mmreg import flow, pipeline
from mmreg.offsets import OffsetClass, generate_offsets
from mmreg.pipeline import (DatasetManifest, FormatError, Frame, PatchSample,
                            build_dataset, extract_patches,
                            iter_patch_samples, patch_grid, read_frame, read_manifest,
                            rgb_to_gray, shift_plane, write_frame, write_manifest)
from mmreg.synth import SceneConfig, generate_sequence
from helpers import traced_peak


def random_frame(rng, height=16, width=20, names=("R", "G", "B", "L")):
    return Frame({n: rng.random((height, width), dtype=np.float32) for n in names})


def shifted_stack(frame, offset, fill=0.0):
    """The whole (H, W, C) stack that patch_grid windows: its 1x1 grid at stride 1."""
    windows, _ = patch_grid(frame, offset, 1, 1, 0.0, fill, frame.channel_names)
    return windows[:, :, 0, 0]


def depth_keep(l_plane, tau):
    """patch_grid's keep mask for one window covering the whole depth plane."""
    frame = Frame({"L": l_plane})
    return patch_grid(frame, OffsetClass(0, 0, 0), l_plane.shape[0], 1, tau, 0.0, ["L"])[1]


class TestFrame:
    def test_canonical_channel_order(self):
        rng = np.random.default_rng(0)
        f = Frame({"L": rng.random((4, 4), dtype=np.float32),
                   "R": rng.random((4, 4), dtype=np.float32),
                   "U": rng.random((4, 4), dtype=np.float32)})
        assert f.channel_names == ["R", "L", "U"]

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError, match="differs"):
            Frame({"R": np.zeros((4, 4)), "G": np.zeros((4, 5))})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            Frame({"R": np.full((4, 4), 1.5)})
        plane = np.full((4, 4), 0.5)
        plane[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            Frame({"R": plane})

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown channel"):
            Frame({"Q": np.zeros((4, 4))})

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_empty_plane_rejected(self, shape):
        # numpy's own min/max error is a ValueError too, so match the text
        with pytest.raises(ValueError, match=re.escape(f"channel L is empty, got shape {shape}")):
            Frame({"L": np.zeros(shape, np.float32)})


class TestMmfRoundTrip:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        frame = random_frame(rng)
        path = tmp_path / "frame.mmf"
        write_frame(frame, path)
        loaded = read_frame(path)
        assert loaded.channel_names == frame.channel_names
        for name in frame.channel_names:
            np.testing.assert_array_equal(loaded.plane(name), frame.plane(name))

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        frame = random_frame(rng, names=("R", "G", "B", "Gr", "L", "U", "V"))
        p1, p2 = tmp_path / "a.mmf", tmp_path / "b.mmf"
        write_frame(frame, p1)
        write_frame(read_frame(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_random_channel_subsets_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        all_names = list(pipeline.CHANNEL_IDS)
        for trial in range(10):
            count = int(rng.integers(1, len(all_names) + 1))
            subset = list(rng.choice(all_names, size=count, replace=False))
            frame = random_frame(rng, names=subset)
            path = tmp_path / f"t{trial}.mmf"
            write_frame(frame, path)
            assert read_frame(path).channel_names == frame.channel_names

    def test_bad_magic_names_expected(self, tmp_path):
        path = tmp_path / "bad.mmf"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="MMF1"):
            read_frame(path)

    def test_truncated_plane_reports_offset(self, tmp_path):
        rng = np.random.default_rng(4)
        frame = random_frame(rng, height=4, width=4, names=("R",))
        path = tmp_path / "trunc.mmf"
        write_frame(frame, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError, match="byte offset"):
            read_frame(path)

    def test_unknown_channel_id_rejected(self, tmp_path):
        import struct
        path = tmp_path / "chan.mmf"
        payload = pipeline.MMF_MAGIC + struct.pack("<III", 1, 1, 1) + bytes([42]) + b"\x00" * 4
        path.write_bytes(payload)
        with pytest.raises(FormatError, match="unknown channel id 42"):
            read_frame(path)

    def test_nan_value_rejected(self, tmp_path):
        rng = np.random.default_rng(6)
        frame = random_frame(rng, height=2, width=3, names=("R", "L"))
        path = tmp_path / "nan.mmf"
        write_frame(frame, path)
        data = bytearray(path.read_bytes())
        data[-8:-4] = np.array([np.nan], dtype="<f4").tobytes()  # a value of plane L
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"channel L values outside \[0,1\]"):
            read_frame(path)
        # header 16 bytes, 2 channel ids, plane R 24 bytes; the NaN is L's value 4
        with pytest.raises(FormatError, match=re.escape(str(path)) +
                           r": channel L values outside \[0,1\].*byte offset 58$"):
            read_frame(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        frame = random_frame(rng, height=2, width=2, names=("L",))
        path = tmp_path / "extra.mmf"
        write_frame(frame, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            read_frame(path)


class TestRgbToGray:
    def test_equal_channels_pass_through(self):
        c = np.full((4, 4), 0.3, dtype=np.float32)
        frame = Frame({"R": c, "G": c, "B": c})
        np.testing.assert_allclose(rgb_to_gray(frame).plane("Gr"), c, atol=1e-7)

    def test_pure_red(self):
        frame = Frame({"R": np.ones((2, 2)), "G": np.zeros((2, 2)), "B": np.zeros((2, 2))})
        np.testing.assert_allclose(rgb_to_gray(frame).plane("Gr"), 0.299, atol=1e-7)

    def test_black(self):
        frame = Frame({"R": np.zeros((2, 2)), "G": np.zeros((2, 2)), "B": np.zeros((2, 2))})
        assert not rgb_to_gray(frame).plane("Gr").any()

    def test_missing_rgb_rejected(self):
        with pytest.raises(ValueError, match="R,G,B"):
            rgb_to_gray(Frame({"L": np.zeros((2, 2))}))


def flow_channels_serial(frames, alpha, iterations, clamp):
    """The serial gray, zero-flow, flow and channels loop of the acceptance
    experiment before add_flow_channels; the bit-identity reference."""
    out, prev_gray = [], None
    for frame in frames:
        if not frame.has_channel("Gr"):
            frame = rgb_to_gray(frame)
        gray = frame.plane("Gr")
        if prev_gray is None:
            field = flow.zero_flow(frame.height, frame.width)
        else:
            field = flow.estimate_flow(prev_gray, gray, alpha=alpha, iterations=iterations)
        u01, v01 = flow.flow_to_channels(field, clamp=clamp)
        out.append(frame.with_channels({"U": u01, "V": v01}))
        prev_gray = gray
    return out


class TestAddFlowChannels:
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_matches_serial_loop(self, monkeypatch, threads):
        monkeypatch.setenv("MMREG_THREADS", threads)
        frames = generate_sequence(SceneConfig(seed=4, frame_count=5, width=48, height=32,
                                               object_count=6))
        # frame 2 brings its own Gr, which is kept, not derived from R,G,B
        gray = np.random.default_rng(2).random((32, 48), dtype=np.float32)
        frames[2] = frames[2].with_channels({"Gr": gray})
        want = flow_channels_serial(frames, alpha=0.5, iterations=30, clamp=4.0)
        got = list(pipeline.add_flow_channels(iter(frames), alpha=0.5, iterations=30,
                                              clamp=4.0))
        assert [f.channel_names for f in got] == [f.channel_names for f in want]
        for g, w in zip(got, want):
            assert all(g.plane(n).tobytes() == w.plane(n).tobytes() for n in w.channel_names)
        assert got[2].plane("Gr").tobytes() == gray.tobytes()

    @pytest.mark.parametrize("kwargs, match", [
        ({"alpha": float("nan")}, "alpha must be positive and finite, got nan"),
        ({"iterations": 0}, "iterations must be >= 1, got 0"),
        ({"clamp": float("inf")}, "clamp must be positive and finite, got inf"),
    ])
    def test_parameters_checked_before_any_frame(self, kwargs, match):
        def frames():
            raise AssertionError("a frame was pulled")
            yield

        with pytest.raises(ValueError, match=match):
            pipeline.add_flow_channels(frames(), **kwargs)


class TestApplyOffset:
    """The depth shift of patch_grid: only L moves, vacated pixels get fill."""

    def test_zero_offset_unchanged(self):
        rng = np.random.default_rng(6)
        frame = random_frame(rng)
        out = shifted_stack(frame, OffsetClass(0, 0, 0))
        np.testing.assert_array_equal(out, frame.stack())

    def test_hot_pixel_moves(self):
        l_plane = np.zeros((4, 4), dtype=np.float32)
        l_plane[1, 1] = 1.0
        frame = Frame({"L": l_plane})
        out = shifted_stack(frame, OffsetClass(1, 2, 0), fill=0.0)[:, :, 0]
        assert out[1, 3] == 1.0
        assert out.sum() == 1.0

    def test_only_l_moves(self):
        rng = np.random.default_rng(7)
        frame = random_frame(rng)
        out = shifted_stack(frame, OffsetClass(1, 3, -2))
        for col, name in enumerate(frame.channel_names):
            if name != "L":
                np.testing.assert_array_equal(out[:, :, col], frame.plane(name))
        assert not np.array_equal(out[:, :, frame.channel_names.index("L")],
                                  frame.plane("L"))

    def test_vacated_pixel_count(self):
        rng = np.random.default_rng(8)
        h, w = 9, 13
        for dx, dy in [(2, 0), (0, 3), (-2, 1), (3, -2), (-1, -1)]:
            plane = (rng.random((h, w)) * 0.8 + 0.1).astype(np.float32)  # no natural zeros
            frame = Frame({"L": plane})
            out = shifted_stack(frame, OffsetClass(1, dx, dy), fill=0.0)
            vacated = int((out == 0.0).sum())
            assert vacated == abs(dx) * h + abs(dy) * (w - abs(dx))

    def test_round_trip_restores_interior(self):
        rng = np.random.default_rng(9)
        frame = random_frame(rng, height=12, width=12, names=("L",))
        dx, dy = 3, -2
        there = Frame({"L": shifted_stack(frame, OffsetClass(1, dx, dy))[:, :, 0]})
        back = shifted_stack(there, OffsetClass(2, -dx, -dy))[:, :, 0]
        # pixels that never left: rows [2, 12), cols [0, 9)
        np.testing.assert_array_equal(back[2:, :9], frame.plane("L")[2:, :9])

    def test_offset_exceeding_dims_rejected(self):
        rng = np.random.default_rng(10)
        frame = random_frame(rng, height=4, width=4, names=("L",))
        for dx, dy in [(4, 0), (-4, 0), (0, 4), (0, -4)]:
            with pytest.raises(ValueError, match="exceeds"):
                patch_grid(frame, OffsetClass(1, dx, dy), 2, 1, 0.0, 0.0, ["L"])


class TestExtractPatches:
    def test_default_frame_grid_counts(self):
        rng = np.random.default_rng(11)
        frame = random_frame(rng, height=256, width=800, names=("L",))
        assert len(extract_patches(frame, 32, 32)) == 200
        assert len(extract_patches(frame, 32, 16)) == 735

    def test_whole_frame_patch(self):
        rng = np.random.default_rng(12)
        frame = random_frame(rng, height=8, width=8, names=("L", "R"))
        patches = extract_patches(frame, 8, 3)
        assert len(patches) == 1
        origin, data = patches[0]
        assert origin == (0, 0)
        np.testing.assert_array_equal(data, frame.stack())

    def test_count_formula_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            h = int(rng.integers(8, 64))
            w = int(rng.integers(8, 64))
            p = int(rng.integers(2, min(h, w) + 1))
            s = int(rng.integers(1, p + 4))
            frame = random_frame(rng, height=h, width=w, names=("L",))
            expected = ((h - p) // s + 1) * ((w - p) // s + 1)
            assert len(extract_patches(frame, p, s)) == expected

    def test_origins_and_stacking_order(self):
        rng = np.random.default_rng(14)
        frame = random_frame(rng, height=8, width=10, names=("R", "L"))
        patches = extract_patches(frame, 4, 2, channels=["L", "R"])
        origins = [o for o, _ in patches]
        assert origins[0] == (0, 0) and origins[1] == (0, 2)
        _, first = patches[0]
        np.testing.assert_array_equal(first[:, :, 0], frame.plane("L")[:4, :4])
        np.testing.assert_array_equal(first[:, :, 1], frame.plane("R")[:4, :4])

    def test_oversized_patch_rejected(self):
        rng = np.random.default_rng(15)
        frame = random_frame(rng, height=8, width=8, names=("L",))
        with pytest.raises(ValueError, match="patch size"):
            extract_patches(frame, 9, 1)


class TestVarianceKeep:
    """The keep mask of patch_grid: population variance of shifted depth >= tau."""

    def test_constant_dropped(self):
        assert not depth_keep(np.full((8, 8), 0.7), tau=1e-9).any()

    def test_checkerboard_kept_at_default_tau(self):
        board = np.indices((8, 8)).sum(axis=0) % 2
        assert np.var(board) == pytest.approx(0.25)
        assert depth_keep(board.astype(np.float32), tau=pipeline.DEFAULT_TAU).all()

    def test_tau_zero_keeps_everything(self):
        assert depth_keep(np.zeros((4, 4)), tau=0.0).all()


class TestBuildDataset:
    def make_frame(self, rng, height=256, width=800):
        return Frame({"Gr": rng.random((height, width), dtype=np.float32),
                      "L": rng.random((height, width), dtype=np.float32)})

    def test_unfiltered_count_one_frame(self):
        rng = np.random.default_rng(16)
        frame = self.make_frame(rng)
        offsets = generate_offsets(9, 32, 16, 45.0)
        samples, manifest = build_dataset([frame], offsets, p=32, s=32, tau=0.0)
        assert len(samples) == 1800
        assert manifest.patch_count == 1800
        assert manifest.frame_count == 1

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(17)
        frame = self.make_frame(rng, height=64, width=64)
        offsets = generate_offsets(5, 16, 8, 45.0)
        s1, m1 = build_dataset([frame], offsets, p=16, s=16, tau=0.01)
        s2, m2 = build_dataset([frame], offsets, p=16, s=16, tau=0.01)
        assert m1 == m2
        assert len(s1) == len(s2)
        for a, b in zip(s1, s2):
            assert (a.label, a.frame_index, a.origin) == (b.label, b.frame_index, b.origin)
            np.testing.assert_array_equal(a.data, b.data)

    def test_label_round_trips_through_manifest(self):
        rng = np.random.default_rng(18)
        frame = self.make_frame(rng, height=64, width=64)
        offsets = generate_offsets(5, 16, 8, 0.0)
        samples, manifest = build_dataset([frame], offsets, p=16, s=16, tau=0.0)
        for sample in samples[:200]:
            off = manifest.offsets[sample.label]
            assert off.id == sample.label

    def test_empty_survivors_suggests_lower_tau(self):
        frame = Frame({"Gr": np.full((64, 64), 0.5, dtype=np.float32),
                       "L": np.full((64, 64), 0.5, dtype=np.float32)})
        offsets = [OffsetClass(0, 0, 0)]
        with pytest.raises(ValueError, match="lower tau"):
            build_dataset([frame], offsets, p=16, s=16, tau=0.01)

    def test_worker_order_matches_serial(self, monkeypatch):
        rng = np.random.default_rng(19)
        frames = [self.make_frame(rng, height=48, width=48) for _ in range(4)]
        offsets = generate_offsets(3, 8, 4, 0.0)
        monkeypatch.setenv("MMREG_THREADS", "1")
        serial = list(iter_patch_samples(frames, offsets, 16, 16, 0.0))
        monkeypatch.setenv("MMREG_THREADS", "3")
        parallel = list(iter_patch_samples(frames, offsets, 16, 16, 0.0))
        assert [(s.frame_index, s.label, s.origin) for s in serial] == \
               [(s.frame_index, s.label, s.origin) for s in parallel]

    def test_channel_selection_restricts_stack(self):
        rng = np.random.default_rng(20)
        frame = Frame({"R": rng.random((32, 32), dtype=np.float32),
                       "Gr": rng.random((32, 32), dtype=np.float32),
                       "L": rng.random((32, 32), dtype=np.float32)})
        offsets = [OffsetClass(0, 0, 0)]
        samples, manifest = build_dataset([frame], offsets, p=16, s=16, tau=0.0,
                                          channels=["Gr", "L"])
        assert manifest.channels == ["Gr", "L"]
        assert samples[0].data.shape == (16, 16, 2)
        np.testing.assert_array_equal(samples[0].data[:, :, 0], frame.plane("Gr")[:16, :16])


def _old_window_view(stacked, p, s):
    windows = np.lib.stride_tricks.sliding_window_view(stacked, (p, p), axis=(0, 1))
    return windows[::s, ::s].transpose(0, 1, 3, 4, 2)


def old_frame_samples(frame_index, frame, offsets, p, s, tau, fill, sel):
    """The per-cell sample loop of iter_patch_samples before patch_grid,
    kept as the reference that the grid must reproduce bit for bit."""
    static = frame.stack([c for c in sel if c != "L"])
    static_cols = [i for i, c in enumerate(sel) if c != "L"]
    l_col = sel.index("L") if "L" in sel else None
    l_plane = frame.plane("L")
    out = []
    for offset in offsets:
        shifted = shift_plane(l_plane, offset.dx, offset.dy, fill)
        stacked = np.empty((frame.height, frame.width, len(sel)), dtype=np.float32)
        for col, ci in zip(static_cols, range(static.shape[-1])):
            stacked[:, :, col] = static[:, :, ci]
        if l_col is not None:
            stacked[:, :, l_col] = shifted
        windows = _old_window_view(stacked, p, s)
        l_windows = _old_window_view(shifted[:, :, None], p, s)[:, :, :, :, 0]
        keep = l_windows.var(axis=(2, 3)) >= tau
        rows, cols = keep.shape
        for i in range(rows):
            for j in range(cols):
                if keep[i, j]:
                    out.append(PatchSample(data=np.ascontiguousarray(windows[i, j]),
                                           label=offset.id, frame_index=frame_index,
                                           origin=(i * s, j * s)))
    return out


def old_frame_patches(frame, offset, channels, p, s, tau, fill):
    """evaluation's kept patches and keep mask before patch_grid."""
    shifted = shift_plane(frame.plane("L"), offset.dx, offset.dy, fill)
    sel = list(channels)
    stacked = np.empty((frame.height, frame.width, len(sel)), dtype=np.float32)
    for col, name in enumerate(sel):
        stacked[:, :, col] = shifted if name == "L" else frame.plane(name)
    windows = _old_window_view(stacked, p, s)
    l_windows = _old_window_view(shifted[:, :, None], p, s)[:, :, :, :, 0]
    keep = l_windows.var(axis=(2, 3)) >= tau
    return np.ascontiguousarray(windows[keep]), keep


class TestPatchGridOracle:
    H, W = 18, 23

    def frames(self):
        rng = np.random.default_rng(21)
        frames = []
        for _ in range(2):
            planes = {n: rng.random((self.H, self.W), dtype=np.float32)
                      for n in ("R", "Gr", "L", "U", "V")}
            planes["L"][4:15, 2:12] = 0.3  # flat depth, so tau drops some windows
            frames.append(Frame(planes))
        return frames

    def offsets(self):
        h, w = self.H - 1, self.W - 1
        return [OffsetClass(i, dx, dy) for i, (dx, dy) in
                enumerate([(0, 0), (3, -2), (w, 0), (0, -h), (-w, h), (-1, 5)])]

    @pytest.mark.parametrize("sel", [["Gr", "L", "U", "V"], ["R", "U"], ["V", "L", "Gr"],
                                     ["L", "R"]])
    @pytest.mark.parametrize("fill", [0.0, 0.5])
    @pytest.mark.parametrize("tau", [0.0, pipeline.DEFAULT_TAU])
    @pytest.mark.parametrize("p,s", [(6, 4), (6, 6), (5, 8)])
    def test_same_bytes_as_old_loops(self, monkeypatch, sel, fill, tau, p, s):
        frames, offsets = self.frames(), self.offsets()
        monkeypatch.setenv("MMREG_THREADS", "2")
        new = list(iter_patch_samples(frames, offsets, p, s, tau, fill, sel))
        old = [sample for index, frame in enumerate(frames)
               for sample in old_frame_samples(index, frame, offsets, p, s, tau, fill, sel)]
        assert 0 < len(new) == len(old)
        assert [(a.label, a.frame_index, a.origin) for a in new] == \
               [(b.label, b.frame_index, b.origin) for b in old]
        assert b"".join(a.data.tobytes() for a in new) == \
               b"".join(b.data.tobytes() for b in old)
        old_x = np.stack([b.data for b in old])
        old_y = np.array([b.label for b in old], dtype=np.int64)
        old_index = np.array([b.frame_index for b in old], dtype=np.int64)
        old_origins = np.array([b.origin for b in old], dtype=np.int64)
        old_counts = [[int(old_frame_patches(frame, offset, sel, p, s, tau, fill)[1].sum())
                       for offset in offsets] for frame in frames]
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("MMREG_THREADS", threads)
            counts = pipeline.patch_counts((frame for frame in frames), offsets, p, s, tau, fill)
            assert counts.dtype == np.int64 and counts.tolist() == old_counts
            x, labels, index, origins = pipeline.patch_arrays(frames, offsets, p, s, tau, fill,
                                                              sel)
            assert x.tobytes() == old_x.tobytes() and labels.tobytes() == old_y.tobytes()
            assert index.tobytes() == old_index.tobytes()
            assert origins.tobytes() == old_origins.tobytes()
        for frame in frames:
            for offset in offsets:
                windows, keep = patch_grid(frame, offset, p, s, tau, fill, sel)
                old_kept, old_keep = old_frame_patches(frame, offset, sel, p, s, tau, fill)
                assert keep.tobytes() == old_keep.tobytes()
                assert windows[keep].tobytes() == old_kept.tobytes()

    def test_depth_only_selection(self):
        # the old sample loop could not stack an empty static set; eval's could
        frame, offsets = self.frames()[0], self.offsets()
        for offset in offsets:
            windows, keep = patch_grid(frame, offset, 6, 4, pipeline.DEFAULT_TAU, 0.5, ["L"])
            old_kept, old_keep = old_frame_patches(frame, offset, ["L"], 6, 4,
                                                   pipeline.DEFAULT_TAU, 0.5)
            assert keep.tobytes() == old_keep.tobytes()
            assert windows[keep].tobytes() == old_kept.tobytes()


class TestBoundedMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ordered_and_never_more_than_window_ahead(self, workers):
        pulled = 0

        def counting(n):
            nonlocal pulled
            for i in range(n):
                pulled += 1
                yield i

        def slow_square(i):
            time.sleep(0.002 * (i % 3))  # later items often finish first
            return i * i

        results = []
        for value in pipeline.bounded_map(slow_square, counting(20), workers):
            assert pulled - len(results) <= 2 * workers
            results.append(value)
        assert results == [i * i for i in range(20)]
        assert pulled == 20


class TestManifestRoundTrip:
    def test_round_trip(self, tmp_path):
        manifest = DatasetManifest(
            patch_size=32, stride=16, channels=["Gr", "L", "U", "V"],
            offsets=generate_offsets(9, 32, 16, 45.0), tau=0.0375, fill=0.0,
            seed=7, split="train", frames_dir="frames",
            frame_files=["a.mmf", "b.mmf"], frame_count=2, patch_count=123)
        path = tmp_path / "manifest.txt"
        write_manifest(manifest, path)
        assert read_manifest(path) == manifest

    # a function-scoped tmp_path is fine: every example rewrites the same file
    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(split=st.text())
    @example(split="a\nb")
    @example(split="a\u2028b")
    @example(split=" padded ")
    def test_split_reads_back_or_is_refused(self, tmp_path, split):
        manifest = DatasetManifest(
            patch_size=32, stride=32, channels=["Gr", "L"],
            offsets=generate_offsets(3, 8, 4, 0.0), tau=0.0, fill=0.0, seed=0,
            split=split, frame_files=["a.mmf"], frame_count=1, patch_count=1)
        path = tmp_path / "manifest.txt"
        try:
            write_manifest(manifest, path)
        except ValueError as exc:
            assert str(exc).startswith("manifest split "), exc
            return
        assert read_manifest(path) == manifest

    def test_forged_frame_count_reads_only_present_entries(self, tmp_path):
        manifest = DatasetManifest(
            patch_size=32, stride=32, channels=["Gr", "L"],
            offsets=generate_offsets(3, 8, 4, 0.0), tau=0.0, fill=0.0, seed=0,
            frame_count=10**12, patch_count=1)
        path = tmp_path / "manifest.txt"
        write_manifest(manifest, path)
        assert read_manifest(path) == manifest  # no frame_0: the directory lists frames
        manifest.frame_files = ["a.mmf", "b.mmf"]
        write_manifest(manifest, path)
        with pytest.raises(FormatError, match="missing manifest key 'frame_2'"):
            read_manifest(path)

    @pytest.mark.parametrize("frame_count, frame_files, extra, match", [
        (-3, ["a.mmf", "b.mmf"], "", "negative frame_count -3"),
        (-3, [], "", "negative frame_count -3"),
        (1, ["a.mmf", "b.mmf"], "", "entry frame_1 beyond frame_count 1"),
        (0, ["a.mmf"], "", "entry frame_0 beyond frame_count 0"),
        (2, ["a.mmf", "b.mmf"], "frame_5=z.mmf\n", "entry frame_5 beyond frame_count 2"),
    ])
    def test_frame_entries_must_match_frame_count(self, tmp_path, frame_count, frame_files,
                                                  extra, match):
        # write_manifest writes one frame_<i> entry per file, whatever the count
        manifest = DatasetManifest(
            patch_size=32, stride=32, channels=["Gr", "L"],
            offsets=generate_offsets(3, 8, 4, 0.0), tau=0.0, fill=0.0, seed=0,
            frame_files=frame_files, frame_count=frame_count, patch_count=1)
        path = tmp_path / "manifest.txt"
        write_manifest(manifest, path)
        path.write_text(path.read_text() + extra)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {match}$"):
            read_manifest(path)

    @pytest.mark.parametrize("patch_count", [0, -5])
    def test_patch_count_below_one_rejected_with_path(self, tmp_path, patch_count):
        manifest = DatasetManifest(
            patch_size=32, stride=32, channels=["Gr", "L"],
            offsets=generate_offsets(3, 8, 4, 0.0), tau=0.0, fill=0.0, seed=0,
            frame_count=1, patch_count=patch_count)
        path = tmp_path / "manifest.txt"
        write_manifest(manifest, path)
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(path))}: patch_count {patch_count} below 1$"):
            read_manifest(path)

    @pytest.mark.parametrize("key, value, match", [
        ("patch_size", 0, "patch size must be >= 1, got 0"),
        ("stride", 0, "stride must be >= 1, got 0"),
        ("stride", -16, "stride must be >= 1, got -16"),
        ("fill", 5.0, r"fill value 5\.0 outside \[0,1\]"),
        ("fill", float("nan"), r"fill value nan outside \[0,1\]"),
        ("tau", -1.0, "variance threshold must be >= 0, got -1.0"),
        ("tau", float("nan"), "variance threshold must be >= 0, got nan"),
    ])
    def test_grid_values_rejected_with_path(self, tmp_path, key, value, match):
        manifest = DatasetManifest(
            patch_size=32, stride=32, channels=["Gr", "L"],
            offsets=generate_offsets(3, 8, 4, 0.0), tau=0.0, fill=0.0, seed=0,
            frame_count=1, patch_count=1)
        setattr(manifest, key, value)
        path = tmp_path / "manifest.txt"
        write_manifest(manifest, path)
        with pytest.raises(FormatError, match=re.escape(str(path)) + ": " + match):
            read_manifest(path)

    @pytest.mark.parametrize("edit, match", [
        (("offset_2=", "offset_3=-2,0\noffset_2="), "entry offset_3 beyond n_classes 3"),
        (("n_classes=3", "n_classes=2"), "entry offset_2 beyond n_classes 2"),
        (("n_classes=3\noffset_0=0,0\noffset_1=4,0\noffset_2=-4,0", "n_classes=0"),
         "n_classes 0 below 2"),
        (("offset_2=", "offset_2=0,0\n#"), r"offset_0 and offset_2 both shift by \(0, 0\)"),
        (("channels=Gr,L", "channels=Gr,Zq"), "unknown channels 'Zq' in channels='Gr,Zq'"),
        (("channels=Gr,L", "channels=L,Gr,L"), "duplicate channels in channels='L,Gr,L'"),
        (("channels=Gr,L", "channels="), "unknown channels '' in channels=''"),
    ])
    def test_table_entries_rejected_with_path(self, tmp_path, edit, match):
        manifest = DatasetManifest(
            patch_size=32, stride=32, channels=["Gr", "L"],
            offsets=generate_offsets(3, 8, 4, 0.0), tau=0.0, fill=0.0, seed=0,
            frame_count=1, patch_count=1)
        path = tmp_path / "manifest.txt"
        write_manifest(manifest, path)
        text = path.read_text()
        assert edit[0] in text
        path.write_text(text.replace(edit[0], edit[1], 1))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {match}$"):
            read_manifest(path)

    def test_repeated_key_rejected_with_line(self, tmp_path):
        manifest = DatasetManifest(
            patch_size=32, stride=32, channels=["Gr", "L"],
            offsets=generate_offsets(3, 8, 4, 0.0), tau=0.0, fill=0.0, seed=0,
            frame_count=1, patch_count=1)
        path = tmp_path / "manifest.txt"
        write_manifest(manifest, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + ["n_classes=2"]) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:{len(lines) + 1}: "
                                              "repeated key 'n_classes'$"):
            read_manifest(path)

    def test_size_cap_written_and_read_alike(self, tmp_path, monkeypatch):
        manifest = DatasetManifest(
            patch_size=32, stride=32, channels=["Gr", "L"],
            offsets=generate_offsets(3, 8, 4, 0.0), tau=0.0, fill=0.0, seed=0,
            frame_count=1, patch_count=1, frame_files=["f\u00e9.mmf"])
        size = len(pipeline.manifest_text(manifest).encode())
        path = tmp_path / "manifest.txt"
        monkeypatch.setattr(pipeline, "KEY_VALUE_MAX_BYTES", size)
        write_manifest(manifest, path)
        assert read_manifest(path) == manifest
        monkeypatch.setattr(pipeline, "KEY_VALUE_MAX_BYTES", size - 1)
        with pytest.raises(ValueError, match=f"^manifest of {size} bytes would not read back: "
                                             f"over the {size - 1}-byte cap"):
            pipeline.manifest_text(manifest)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {size} bytes, over "
                                              f"the {size - 1}-byte cap on key=value files$"):
            read_manifest(path)

    def test_read_allocates_about_the_file_size(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("a=1\nb=2\n")
        with traced_peak() as traced:
            assert pipeline.read_key_values(path) == {"a": "1", "b": "2"}
        assert traced.peak < 1 << 20

    @pytest.mark.parametrize("size", [4, 100, 101, 300])
    def test_pipe_read_stops_past_the_cap(self, tmp_path, monkeypatch, size):
        # a pipe reports size 0; texts smaller than a pipe buffer never block
        # the writer, whatever the reader leaves unread
        monkeypatch.setattr(pipeline, "KEY_VALUE_MAX_BYTES", 100)
        path = tmp_path / "fifo"
        os.mkfifo(path)
        text = "a=" + "x" * (size - 3) + "\n"
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            if size <= 100:
                assert pipeline.read_key_values(path) == {"a": text[2:-1]}
            else:
                with pytest.raises(FormatError, match=": 101 bytes, over the 100-byte cap"):
                    pipeline.read_key_values(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_non_utf8_byte_rejected_with_offset(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_bytes(b"format=mmreg-manifest-1\nsplit=tr\xe9in\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: byte 0xe9 at byte "
                                              "offset 32 is not UTF-8$"):
            read_manifest(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("format=mmreg-manifest-1\nsplit=train\n")
        with pytest.raises(FormatError, match="missing manifest key"):
            read_manifest(path)

    def test_long_line_quoted_short(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("x" * (1 << 20) + "\n")
        with pytest.raises(FormatError) as info:
            read_manifest(path)
        message = str(info.value)
        assert message.startswith(f"{path}:1: expected key=value, got 'xxx"), message[:300]
        assert f"and {(1 << 20) - 60} more characters" in message
        assert len(message) < 300

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "weird.txt"
        path.write_text("format=other\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: unknown manifest format"
                                              " 'other'$"):
            read_manifest(path)
