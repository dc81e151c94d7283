import numpy as np
import pytest

from mmreg import pipeline
from mmreg.offsets import OffsetClass, generate_offsets
from mmreg.pipeline import (DatasetManifest, FormatError, Frame, apply_offset,
                            build_dataset, extract_patches, iter_patch_samples,
                            read_frame, read_manifest, rgb_to_gray, variance_keep,
                            write_frame, write_manifest)


def random_frame(rng, height=16, width=20, names=("R", "G", "B", "L")):
    return Frame({n: rng.random((height, width), dtype=np.float32) for n in names})


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


class TestApplyOffset:
    def test_zero_offset_unchanged(self):
        rng = np.random.default_rng(6)
        frame = random_frame(rng)
        out = apply_offset(frame, OffsetClass(0, 0, 0))
        np.testing.assert_array_equal(out.plane("L"), frame.plane("L"))

    def test_hot_pixel_moves(self):
        l_plane = np.zeros((4, 4), dtype=np.float32)
        l_plane[1, 1] = 1.0
        frame = Frame({"L": l_plane})
        out = apply_offset(frame, OffsetClass(1, 2, 0), fill=0.0)
        assert out.plane("L")[1, 3] == 1.0
        assert out.plane("L").sum() == 1.0

    def test_only_l_moves(self):
        rng = np.random.default_rng(7)
        frame = random_frame(rng)
        out = apply_offset(frame, OffsetClass(1, 3, -2))
        for name in ("R", "G", "B"):
            np.testing.assert_array_equal(out.plane(name), frame.plane(name))
        assert not np.array_equal(out.plane("L"), frame.plane("L"))

    def test_vacated_pixel_count(self):
        rng = np.random.default_rng(8)
        h, w = 9, 13
        for dx, dy in [(2, 0), (0, 3), (-2, 1), (3, -2), (-1, -1)]:
            plane = (rng.random((h, w)) * 0.8 + 0.1).astype(np.float32)  # no natural zeros
            frame = Frame({"L": plane})
            out = apply_offset(frame, OffsetClass(1, dx, dy), fill=0.0)
            vacated = int((out.plane("L") == 0.0).sum())
            assert vacated == abs(dx) * h + abs(dy) * (w - abs(dx))

    def test_round_trip_restores_interior(self):
        rng = np.random.default_rng(9)
        frame = random_frame(rng, height=12, width=12, names=("L",))
        dx, dy = 3, -2
        there = apply_offset(frame, OffsetClass(1, dx, dy))
        back = apply_offset(there, OffsetClass(2, -dx, -dy))
        # pixels that never left: rows [2, 12), cols [0, 9)
        np.testing.assert_array_equal(back.plane("L")[2:, :9], frame.plane("L")[2:, :9])

    def test_offset_exceeding_dims_rejected(self):
        rng = np.random.default_rng(10)
        frame = random_frame(rng, height=4, width=4, names=("L",))
        with pytest.raises(ValueError, match="exceeds"):
            apply_offset(frame, OffsetClass(1, 4, 0))


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
    def test_constant_dropped(self):
        assert not variance_keep(np.full((8, 8), 0.7), tau=1e-9)

    def test_checkerboard_kept_at_default_tau(self):
        board = np.indices((8, 8)).sum(axis=0) % 2
        assert np.var(board) == pytest.approx(0.25)
        assert variance_keep(board.astype(np.float32), tau=pipeline.DEFAULT_TAU)

    def test_tau_zero_keeps_everything(self):
        assert variance_keep(np.zeros((4, 4)), tau=0.0)


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

    def test_worker_order_matches_serial(self):
        rng = np.random.default_rng(19)
        frames = [self.make_frame(rng, height=48, width=48) for _ in range(4)]
        offsets = generate_offsets(3, 8, 4, 0.0)
        serial = list(iter_patch_samples(frames, offsets, 16, 16, 0.0, workers=1))
        parallel = list(iter_patch_samples(frames, offsets, 16, 16, 0.0, workers=3))
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

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("format=mmreg-manifest-1\nsplit=train\n")
        with pytest.raises(FormatError, match="missing manifest key"):
            read_manifest(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "weird.txt"
        path.write_text("format=other\n")
        with pytest.raises(FormatError, match="unknown manifest format"):
            read_manifest(path)
