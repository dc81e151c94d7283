import dataclasses
import hashlib
import os
import re
import threading
import time

import numpy as np
import pytest

from mmreg import evaluation, model, pipeline
from mmreg.evaluation import (EvalReport, emit_report, evaluate_run,
                              mean_diagonal_accuracy, overall_accuracy, render_heatmap,
                              render_patch_map, temporal_fuse, vote_frame,
                              write_confusion_csv)
from mmreg.offsets import generate_offsets
from mmreg.pipeline import Frame
from mmreg.synth import SceneConfig, generate_sequence
from helpers import old_frame_patches


class TestMeanDiagonalAccuracy:
    def test_identity_is_perfect(self):
        cm = np.eye(9, dtype=np.int64) * 7
        assert mean_diagonal_accuracy(cm) == pytest.approx(100.0)

    def test_uniform_is_chance(self):
        cm = np.full((9, 9), 4, dtype=np.int64)
        assert mean_diagonal_accuracy(cm) == pytest.approx(100.0 / 9, abs=0.01)

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(1, 50, size=(5, 5))
        assert mean_diagonal_accuracy(counts) == pytest.approx(mean_diagonal_accuracy(counts * 13))

    def test_empty_rows_excluded_with_warning(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 5
        counts[1, 1] = 5
        counts[1, 0] = 5
        with pytest.warns(UserWarning, match="no samples"):
            value = mean_diagonal_accuracy(counts)
        assert value == pytest.approx((100.0 + 50.0) / 2)

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            mean_diagonal_accuracy(np.zeros((4, 4)))

    def test_overall_accuracy(self):
        counts = np.array([[8, 2], [4, 6]], dtype=np.int64)
        assert overall_accuracy(counts) == pytest.approx(70.0)


def frame_decision(ids, n_classes):
    """A frame's decision: its vote counts fused as a one-frame window."""
    return int(temporal_fuse(vote_frame(ids, n_classes)[None], 1)[0])


class TestVoting:
    def test_unanimous(self):
        counts = vote_frame(np.array([2, 2, 2, 2]), n_classes=9)
        assert counts.shape == (9,) and counts.dtype == np.int64
        assert counts[2] == counts.sum() == 4
        assert frame_decision([2, 2, 2, 2], 9) == 2

    def test_plurality(self):
        assert frame_decision([0] * 5 + [1] * 3 + [2], 9) == 0

    def test_tie_goes_to_lowest_id(self):
        assert frame_decision([0, 0, 1, 1, 0, 1, 1, 0], 9) == 0
        assert frame_decision([4, 2, 4, 2], 9) == 2

    def test_no_patches_is_no_decision(self):
        counts = vote_frame(np.empty(0, dtype=np.int64), n_classes=9)
        assert counts.shape == (9,) and counts.sum() == 0
        assert frame_decision(np.empty(0, dtype=np.int64), 9) == -1

    def test_permutation_invariant(self):
        rng = np.random.default_rng(13)
        preds = rng.integers(0, 9, size=50)
        np.testing.assert_array_equal(vote_frame(preds, n_classes=9),
                                      vote_frame(preds[::-1], n_classes=9))
        assert frame_decision(preds, 9) == frame_decision(preds[::-1], 9)

    @pytest.mark.parametrize("preds", [[0, 9], [-1, 2]])
    def test_out_of_range_rejected(self, preds):
        with pytest.raises(ValueError, match="prediction outside"):
            vote_frame(np.array(preds), n_classes=9)


class TestTemporalFuse:
    def test_single_frame_equals_vote(self):
        frames = [[1, 1, 3], [], [0, 2, 2, 0], [3]]
        votes = np.stack([vote_frame(np.array(f, dtype=np.int64), 4) for f in frames])
        assert temporal_fuse(votes, 1).tolist() == [1, -1, 0, 3]

    def test_tie_across_frames(self):
        assert temporal_fuse(np.array([[3, 5, 0], [5, 3, 0]]), 2).tolist() == [0]

    def test_identical_histograms_match_single(self):
        votes = np.array([[1, 4, 2]] * 3)
        assert temporal_fuse(votes, 3).tolist() == [1]
        assert temporal_fuse(votes, 1).tolist() == [1, 1, 1]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="temporal window 1 outside"):
            temporal_fuse(np.zeros((0, 3), dtype=np.int64), 1)
        with pytest.raises(ValueError, match="temporal window 0 outside"):
            temporal_fuse(np.zeros((2, 3), dtype=np.int64), 0)
        with pytest.raises(ValueError, match=r"temporal window 3 outside \[1, 2\]"):
            temporal_fuse(np.zeros((2, 3), dtype=np.int64), 3)

    def test_all_empty_is_no_decision(self):
        votes = np.zeros((2, 3), dtype=np.int64)
        assert temporal_fuse(votes, 1).tolist() == [-1, -1]
        assert temporal_fuse(votes, 2).tolist() == [-1]


def window_fuse(votes):
    """The fusion rule as it was, on one (k, classes) window: the reference."""
    summed = votes.sum(axis=0)
    return None if summed.sum() == 0 else int(summed.argmax())


def window_confusion(votes, k):
    """Each offset's window decisions and their confusion counts, one window
    and one count at a time, as evaluate_run built them: the reference."""
    n_classes, n_frames, _ = votes.shape
    decisions = np.full((n_classes, n_frames - k + 1), -1)
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    for offset in range(n_classes):
        for start in range(n_frames - k + 1):
            fused = window_fuse(votes[offset, start:start + k])
            if fused is not None:
                decisions[offset, start] = fused
                counts[offset, fused] += 1
    return decisions, counts


class TestFusionOracle:
    def test_same_decisions_and_counts_as_window_loops(self):
        rng = np.random.default_rng(7)
        ties = no_decisions = 0
        for trial in range(40):
            n_classes, n_frames = int(rng.integers(1, 7)), int(rng.integers(1, 8))
            # small counts make ties; zeroed runs of frames make empty windows
            votes = rng.integers(0, 3, size=(n_classes, n_frames, n_classes))
            votes *= rng.random(votes.shape) < 0.4
            for offset in range(n_classes):
                start = int(rng.integers(0, n_frames))
                votes[offset, start:start + int(rng.integers(0, 3))] = 0
            for k in range(1, n_frames + 1):
                ref_decisions, ref_counts = window_confusion(votes, k)
                decisions = temporal_fuse(votes, k)
                assert decisions.tolist() == ref_decisions.tolist(), (trial, k)
                cm = evaluation._decision_cm(decisions)
                assert np.array_equal(cm, ref_counts), (trial, k)
                summed = np.lib.stride_tricks.sliding_window_view(
                    votes, k, axis=1).sum(axis=-1)
                top = summed.max(axis=-1, keepdims=True)
                ties += int((((summed == top).sum(axis=-1) > 1) & (top[..., 0] > 0)).sum())
                no_decisions += int((decisions == -1).sum())
        assert ties > 50 and no_decisions > 50


def make_eval_fixture(n_frames=4, n_classes=5):
    cfg = SceneConfig(seed=21, frame_count=n_frames, width=160, height=96,
                      object_count=10, noise_amplitude=0.0)
    from mmreg.pipeline import rgb_to_gray
    frames = [rgb_to_gray(f) for f in generate_sequence(cfg)]
    offsets = generate_offsets(n_classes, 16, 8, 45.0)
    net = model.build_model(model.ModelConfig(
        patch_size=32, channels=("Gr", "L"), filters=(2, 2, 2),
        kernel_size=3, n_classes=n_classes, seed=3))
    return net, frames, n_frames, offsets  # evaluate_run's first arguments


class TestEvaluateRun:
    def test_perfect_classifier_stub(self, monkeypatch):
        net, frames, n, offsets = make_eval_fixture()
        # each pool thread gathers one pair's rows of the table, then runs
        # predict_batch on them: the rows' labels are the true classes
        truth = threading.local()

        class Tracking(pipeline.PatchTable):
            def __getitem__(self, idx):
                truth.labels = self.labels[idx]
                return super().__getitem__(idx)

        def perfect(the_net, patches):
            ids = truth.labels
            assert len(ids) == patches.shape[0] > 0
            probs = np.zeros((len(ids), the_net.config.n_classes))
            probs[np.arange(len(ids)), ids] = 1.0
            return ids, probs

        monkeypatch.setattr(evaluation, "predict_batch", perfect)
        monkeypatch.setattr(evaluation, "PatchTable", Tracking)
        report = evaluate_run(net, frames, n, offsets, k_values=[1, 2], stride=32, tau=0.0)
        assert mean_diagonal_accuracy(report.patch_cm) == pytest.approx(100.0)
        assert mean_diagonal_accuracy(report.image_cm) == pytest.approx(100.0)
        assert report.temporal_accuracy[1] == pytest.approx(100.0)
        assert report.temporal_accuracy[2] == pytest.approx(100.0)

    def test_constant_classifier_scores_chance(self, monkeypatch):
        net, frames, n, offsets = make_eval_fixture()

        def always_zero(the_net, patches):
            ids = np.zeros(patches.shape[0], dtype=np.int64)
            probs = np.zeros((patches.shape[0], the_net.config.n_classes))
            probs[:, 0] = 1.0
            return ids, probs

        monkeypatch.setattr(evaluation, "predict_batch", always_zero)
        report = evaluate_run(net, frames, n, offsets, k_values=[1], stride=32, tau=0.0)
        # balanced set: recall 100% for class 0, zero elsewhere
        assert mean_diagonal_accuracy(report.patch_cm) == pytest.approx(100.0 / 5)
        assert overall_accuracy(report.patch_cm) == pytest.approx(100.0 / 5)

    def test_image_matrix_consistent_with_votes(self):
        net, frames, n, offsets = make_eval_fixture(n_frames=2)
        report = evaluate_run(net, frames, n, offsets, k_values=[1], stride=32, tau=0.0)
        assert report.image_cm.sum() + report.no_decision_frames == len(frames) * len(offsets)
        assert report.patch_cm.sum() > 0

    def test_deterministic(self):
        net, frames, n, offsets = make_eval_fixture(n_frames=2)
        r1 = evaluate_run(net, frames, n, offsets, k_values=[1, 2], stride=32, tau=0.0)
        r2 = evaluate_run(net, frames, n, offsets, k_values=[1, 2], stride=32, tau=0.0)
        assert np.array_equal(r1.patch_cm, r2.patch_cm)
        assert np.array_equal(r1.image_cm, r2.image_cm)
        assert r1.temporal_accuracy == r2.temporal_accuracy

    @pytest.mark.parametrize("workers", [2, 3])
    def test_report_independent_of_workers(self, monkeypatch, workers):
        net, frames, n, offsets = make_eval_fixture()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("MMREG_THREADS", "1")
        r1 = evaluate_run(net, frames, n, offsets, k_values=[1, 2], stride=32, tau=0.0)
        monkeypatch.setenv("MMREG_THREADS", str(workers))
        assert pipeline.blas_workers() == workers
        r2 = evaluate_run(net, frames, n, offsets, k_values=[1, 2], stride=32, tau=0.0)
        assert np.array_equal(r1.patch_cm, r2.patch_cm)
        assert np.array_equal(r1.image_cm, r2.image_cm)
        assert r1.temporal_accuracy == r2.temporal_accuracy
        assert r1.no_decision_frames == r2.no_decision_frames
        assert r1.patch_maps.keys() == r2.patch_maps.keys()
        for class_id, grid in r1.patch_maps.items():
            assert grid.tobytes() == r2.patch_maps[class_id].tobytes()

    def test_worker_exception_propagates_and_threads_exit(self, monkeypatch):
        net, frames, n, offsets = make_eval_fixture()
        real = evaluation.predict_batch
        calls = []
        lock = threading.Lock()

        def failing(the_net, patches):
            with lock:
                calls.append(None)
                n = len(calls)
            if n == 5:
                raise RuntimeError("classifier failed")
            return real(the_net, patches)

        monkeypatch.setattr(evaluation, "predict_batch", failing)
        monkeypatch.setenv("MMREG_THREADS", "2")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert pipeline.blas_workers() == 2
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="classifier failed"):
            evaluate_run(net, frames, n, offsets, k_values=[1], stride=32, tau=0.0)
        assert threading.active_count() == threads_before
        assert len(calls) < len(frames) * len(offsets)  # the queue was cancelled

    def test_pool_follows_blas_threads(self, monkeypatch, tmp_path):
        # two CPUs: under OpenBLAS's default of two BLAS threads the pairs run
        # on the calling thread; with one BLAS thread, on two pool threads
        net, frames, n, offsets = make_eval_fixture()
        real = evaluation.predict_batch
        callers = set()

        def recording(the_net, patches):
            callers.add(threading.get_ident())
            time.sleep(0.01)  # so that a second pool thread takes the next pair
            return real(the_net, patches)

        monkeypatch.setattr(evaluation, "predict_batch", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for name in ("MMREG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        reports = {}
        for setting in ("default", "pinned"):
            if setting == "pinned":
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
                monkeypatch.setenv("MMREG_THREADS", "2")
            callers.clear()
            report = evaluate_run(net, frames, n, offsets, k_values=[1, 2], stride=32, tau=0.0)
            out = tmp_path / setting
            emit_report(report, out)
            reports[setting] = (callers.copy(), {p.name: p.read_bytes() for p in out.iterdir()})
        assert reports["default"][0] == {threading.get_ident()}
        assert len(reports["pinned"][0]) == 2
        assert threading.get_ident() not in reports["pinned"][0]
        assert reports["pinned"][1] == reports["default"][1]

    @pytest.mark.parametrize("env", [
        {"OPENBLAS_NUM_THREADS": "1", "MMREG_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "1", "MMREG_THREADS": "3"},
        {},
    ], ids=["blas1-threads1", "blas1-threads3", "unset"])
    def test_report_bytes_pinned(self, tmp_path, monkeypatch, env):
        # the vote bookkeeping must keep report files byte-identical; the
        # digests were recorded with numpy 2.4 and its bundled OpenBLAS 0.3.31
        # on x86-64, and another BLAS build may round differently. The
        # variables choose eval's pool size; BLAS itself read its thread
        # count when it loaded
        for name in ("OPENBLAS_NUM_THREADS", "MMREG_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        report = evaluate_run(*make_eval_fixture(), k_values=[1, 2], stride=32, tau=0.0)
        written = emit_report(report, tmp_path)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in written}
        blank_map = "d0db9d8be3fe3070c1bf5757287a6166f1a895dae48ee088042de9654cd5a10a"
        assert digests == {
            "patch_confusion.csv":
                "0c36a2d6bd55531dc7ab099c70bbcc81821b210866c33d301bbfdd61e54b1d98",
            "image_confusion.csv":
                "e5b89d5b41394a2e01a3ffc23084eb05366d202a241283a08b24d25ff7301451",
            "temporal.csv": "23c7882223420c3c154240bc74da068f03fa9979a1bc04913c872fbdd99afbe0",
            "summary.csv": "772e31a99fdf8279b70bbc419ef0784599c082fbafe813f9a2313658d9087efa",
            "confusion_heatmap.ppm":
                "eb164dac3538cd26afad29d68cb1ae22b1caae16665a2a22ad36757a2696fc2e",
            "patch_map_class0.ppm": blank_map,
            "patch_map_class1.ppm":
                "f814d95294f0867484fe9f22470f3c4e69d8592ae3c6759a49dbb171e0aeb3ed",
            "patch_map_class2.ppm": blank_map,
            "patch_map_class3.ppm":
                "7598b820b3919ecfce3fc6986dc04fa03a882c22e59acd8ecf594f9170af404c",
            "patch_map_class4.ppm": blank_map,
        }

    def test_channel_mismatch_rejected(self):
        net, frames, n, offsets = make_eval_fixture()
        bad_net = model.build_model(model.ModelConfig(
            patch_size=32, channels=("Gr", "L", "U", "V"), filters=(2, 2, 2),
            kernel_size=3, n_classes=5, seed=3))
        with pytest.raises(ValueError, match="channel mismatch"):
            evaluate_run(bad_net, frames, n, offsets, k_values=[1], stride=32, tau=0.0)

    def test_oversized_window_rejected(self):
        net, frames, n, offsets = make_eval_fixture(n_frames=2)
        with pytest.raises(ValueError, match="temporal window"):
            evaluate_run(net, frames, n, offsets, k_values=[3], stride=32, tau=0.0)

    def test_offset_table_size_must_match_model(self):
        net, frames, n, _ = make_eval_fixture()
        wrong = generate_offsets(7, 16, 8, 45.0)
        with pytest.raises(ValueError, match="offset table"):
            evaluate_run(net, frames, n, wrong, k_values=[1], stride=32, tau=0.0)

    @pytest.mark.parametrize("ids", [[0, 1, 2, 3, 3], [0, 1, 2, 3, 7], [1, 0, 2, 3, 4]])
    def test_offset_ids_must_be_class_ids_in_order(self, ids):
        net, frames, n, offsets = make_eval_fixture(n_frames=2, n_classes=5)
        table = [dataclasses.replace(offsets[i], id=new) for i, new in enumerate(ids)]
        with pytest.raises(ValueError, match=re.escape(f"offset table ids {ids}")):
            evaluate_run(net, frames, n, table, k_values=[1], stride=32, tau=0.0)

    @pytest.mark.parametrize("case", ["count-above", "count-below", "count-zero", "no-frames",
                                      "mixed-sizes", "later-frame-lacks-channel",
                                      "k-above-count"])
    def test_stream_contract(self, case):
        # frames is a stream of exactly frame_count frames of one size, each
        # with the model's channels
        net, frames, _, offsets = make_eval_fixture(n_frames=3)
        if case == "mixed-sizes":
            frames[2] = Frame({name: np.zeros((96, 161), np.float32)
                               for name in frames[0].channel_names})
        if case == "later-frame-lacks-channel":
            frames[2] = Frame({"L": frames[2].plane("L")})
        if case == "no-frames":
            frames = []
        count, k, match = {
            "count-above": (4, 1, "3 frames to cut patches from, not 4"),
            "count-below": (2, 1, "3 or more frames to cut patches from, not 2"),
            "count-zero": (0, 1, "no frames to evaluate"),
            "no-frames": (3, 1, "no frames to cut patches from"),
            "mixed-sizes": (3, 1, "frame 2 is 161x96, frame 0 160x96"),
            "later-frame-lacks-channel": (3, 1, re.escape("frame 2: channel mismatch: model "
                                                          "needs ['Gr', 'L'], data provides "
                                                          "['L'] (missing ['Gr'])")),
            "k-above-count": (2, 3, re.escape("temporal window 3 outside [1, 2] frames")),
        }[case]
        pulled = []

        def stream():
            for frame in frames:
                pulled.append(frame)
                yield frame

        with pytest.raises(ValueError, match=match):
            evaluate_run(net, stream(), count, offsets, k_values=[k], stride=32, tau=0.0)
        if case == "k-above-count":
            assert len(pulled) < 2


def loop_report(net, frames, offsets, stride, tau, fill):
    """evaluate_run's patch matrix, image matrix, no-decision count and
    frame-0 patch maps from one predict_batch call per (offset, frame)
    pair on the old patch grid's kept patches: the reference."""
    n = net.config.n_classes
    patch_cm, image_cm = np.zeros((n, n), np.int64), np.zeros((n, n), np.int64)
    no_decision, maps = 0, {}
    for offset in offsets:
        for i, frame in enumerate(frames):
            kept, keep = old_frame_patches(frame, offset, net.config.channels,
                                           net.config.patch_size, stride, tau, fill)
            ids = model.predict_batch(net, kept)[0]
            counts = np.bincount(ids, minlength=n)
            patch_cm[offset.id] += counts
            if counts.any():
                image_cm[offset.id, counts.argmax()] += 1
            else:
                no_decision += 1
            if i == 0:
                maps[offset.id] = np.full(keep.shape, -1, dtype=np.int64)
                maps[offset.id][keep] = ids
    return patch_cm, image_cm, no_decision, maps


class TestEvaluateRunOracle:
    """evaluate_run against a loop over pairs on the old patch grid. Both
    classify the same patches with predict_batch, so the two agree bit
    for bit under any BLAS build."""
    H, W = 40, 48

    def frames(self):
        rng = np.random.default_rng(31)
        frames = []
        for i in range(3):
            planes = {name: rng.random((self.H, self.W), dtype=np.float32)
                      for name in ("Gr", "L", "U", "V")}
            planes["L"][8:32, 4:28] = 0.5  # flat depth: tau drops some windows
            if i == 1:
                planes["L"][...] = 0.0  # and under fill 0, every window of every pair
            frames.append(Frame(planes))
        return frames

    @pytest.mark.parametrize("channels", [("Gr", "L", "U"), ("Gr", "U")])
    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_same_as_pair_loop(self, monkeypatch, channels, threads):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("MMREG_THREADS", threads)
        assert pipeline.blas_workers() == int(threads)
        net = model.build_model(model.ModelConfig(
            patch_size=16, channels=channels, filters=(2, 3, 2), kernel_size=3, n_classes=5,
            seed=4))
        frames, offsets = self.frames(), generate_offsets(5, 16, 8, 45.0)
        tau, fill = pipeline.DEFAULT_TAU, 0.0
        report = evaluate_run(net, iter(frames), len(frames), offsets, k_values=[1, 3],
                              stride=8, tau=tau, fill=fill)
        patch_cm, image_cm, no_decision, maps = loop_report(net, frames, offsets, 8, tau, fill)
        assert no_decision >= len(offsets) and patch_cm.sum() > 0
        assert any((grid < 0).any() and (grid >= 0).any() for grid in maps.values())
        assert report.patch_cm.tobytes() == patch_cm.tobytes()
        assert report.image_cm.tobytes() == image_cm.tobytes()
        assert report.no_decision_frames == no_decision
        assert report.patch_maps.keys() == maps.keys()
        for class_id, grid in maps.items():
            assert report.patch_maps[class_id].tobytes() == grid.tobytes()


def loop_patch_map(grid):
    """render_patch_map as it was, one cell at a time: the reference."""
    cell = evaluation.PATCH_MAP_CELL
    rows, cols = grid.shape
    img = np.zeros((rows * cell, cols * cell, 3), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            class_id = int(grid[i, j])
            img[i * cell:(i + 1) * cell, j * cell:(j + 1) * cell] = (
                evaluation.FILTERED_COLOR if class_id < 0
                else evaluation.PALETTE[class_id % len(evaluation.PALETTE)])
    return img


def loop_heatmap(cm):
    """render_heatmap as it was, one cell at a time: the reference."""
    cell = evaluation.HEATMAP_CELL
    norm = cm / np.maximum(cm.sum(axis=1, keepdims=True), 1)
    n = len(cm)
    img = np.zeros((n * cell, n * cell, 3), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            v = float(norm[i, j])
            img[i * cell:(i + 1) * cell, j * cell:(j + 1) * cell] = (
                int(round(255 * v)), int(round(64 * v)), int(round(255 * (1 - v))))
    return img


class TestReportEmission:
    def make_report(self):
        rng = np.random.default_rng(2)
        patch = rng.integers(0, 40, size=(9, 9))
        image = rng.integers(0, 10, size=(9, 9))
        maps = {0: rng.integers(-1, 9, size=(8, 25))}
        return EvalReport(patch_cm=patch, image_cm=image,
                          temporal_accuracy={1: 76.33, 2: 85.42},
                          no_decision_frames=1, patch_maps=maps)

    def test_csv_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "cm.csv"
        write_confusion_csv(report.patch_cm, path)
        header, *rows = path.read_text().splitlines()
        assert header == ",".join(str(i) for i in range(9))
        assert rows == [",".join(str(v) for v in row) for row in report.patch_cm]

    def test_emit_writes_expected_files(self, tmp_path):
        report = self.make_report()
        written = emit_report(report, tmp_path / "out")
        assert set(written) == {"patch_confusion.csv", "image_confusion.csv",
                                "temporal.csv", "summary.csv",
                                "confusion_heatmap.ppm", "patch_map_class0.ppm"}
        for name in written:
            assert (tmp_path / "out" / name).exists()

    def test_patch_map_geometry(self, tmp_path):
        report = self.make_report()
        img = render_patch_map(report.patch_maps[0])
        assert img.shape == (8 * 8, 25 * 8, 3)
        emit_report(report, tmp_path / "out")
        header = (tmp_path / "out" / "patch_map_class0.ppm").read_bytes()[:15]
        assert header.startswith(b"P6\n200 64\n255")

    def test_byte_identical_reruns(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path / "a")
        emit_report(report, tmp_path / "b")
        for name in ("patch_confusion.csv", "summary.csv", "confusion_heatmap.ppm",
                     "patch_map_class0.ppm", "temporal.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_report_rejected(self, tmp_path):
        empty = np.zeros((3, 3))
        report = EvalReport(patch_cm=empty, image_cm=empty, temporal_accuracy={}, no_decision_frames=0)
        with pytest.raises(ValueError, match="empty report"):
            emit_report(report, tmp_path / "out")

    def test_images_same_bytes_as_cell_loops(self):
        rng = np.random.default_rng(3)
        for shape in [(8, 25), (1, 1), (3, 0), (5, 7)]:
            grid = rng.integers(-1, 20, size=shape)
            img, ref = render_patch_map(grid), loop_patch_map(grid)
            assert img.shape == ref.shape and img.tobytes() == ref.tobytes()
        for trial in range(20):
            n = int(rng.integers(1, 10))
            counts = rng.integers(0, 1 + 10 ** int(rng.integers(0, 4)), size=(n, n))
            counts[rng.integers(0, n)] = 0  # a class with no samples
            img, ref = render_heatmap(counts), loop_heatmap(counts)
            assert img.shape == ref.shape and img.tobytes() == ref.tobytes(), trial

    def test_temporal_table_layout(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path / "out")
        lines = (tmp_path / "out" / "temporal.csv").read_text().splitlines()
        assert lines[0] == "k,1,2"
        assert lines[1] == "accuracy_percent,76.33,85.42"
