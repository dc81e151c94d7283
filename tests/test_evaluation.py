import threading

import numpy as np
import pytest

from mmreg import evaluation, model
from mmreg.evaluation import (ConfusionMatrix, EvalReport, emit_report, evaluate_run,
                              mean_diagonal_accuracy, overall_accuracy,
                              read_confusion_csv, render_patch_map, write_confusion_csv)
from mmreg.offsets import generate_offsets
from mmreg.synth import SceneConfig, generate_sequence


class TestConfusionMatrix:
    def test_single_accumulate(self):
        cm = ConfusionMatrix(9).accumulate(3, 3)
        assert cm.counts[3, 3] == 1
        assert cm.total == 1

    def test_order_independent(self):
        rng = np.random.default_rng(0)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 5, size=(60, 2))]
        cm1 = ConfusionMatrix(5)
        cm2 = ConfusionMatrix(5)
        for t, p in pairs:
            cm1.accumulate(t, p)
        for t, p in reversed(pairs):
            cm2.accumulate(t, p)
        assert cm1 == cm2

    def test_merge_is_elementwise_sum(self):
        a = ConfusionMatrix(3).accumulate(0, 1)
        b = ConfusionMatrix(3).accumulate(2, 2)
        merged = a.merge(b)
        assert merged.counts[0, 1] == 1 and merged.counts[2, 2] == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ConfusionMatrix(3).accumulate(3, 0)


class TestMeanDiagonalAccuracy:
    def test_identity_is_perfect(self):
        cm = ConfusionMatrix(9, np.eye(9, dtype=np.int64) * 7)
        assert mean_diagonal_accuracy(cm) == pytest.approx(100.0)

    def test_uniform_is_chance(self):
        cm = ConfusionMatrix(9, np.full((9, 9), 4, dtype=np.int64))
        assert mean_diagonal_accuracy(cm) == pytest.approx(100.0 / 9, abs=0.01)

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(1, 50, size=(5, 5))
        cm1 = ConfusionMatrix(5, counts)
        cm2 = ConfusionMatrix(5, counts * 13)
        assert mean_diagonal_accuracy(cm1) == pytest.approx(mean_diagonal_accuracy(cm2))

    def test_empty_rows_excluded_with_warning(self):
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 5
        counts[1, 1] = 5
        counts[1, 0] = 5
        cm = ConfusionMatrix(3, counts)
        with pytest.warns(UserWarning, match="no samples"):
            value = mean_diagonal_accuracy(cm)
        assert value == pytest.approx((100.0 + 50.0) / 2)

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            mean_diagonal_accuracy(ConfusionMatrix(4))

    def test_overall_accuracy(self):
        counts = np.array([[8, 2], [4, 6]], dtype=np.int64)
        assert overall_accuracy(ConfusionMatrix(2, counts)) == pytest.approx(70.0)


def make_eval_fixture(n_frames=4, n_classes=5):
    cfg = SceneConfig(seed=21, frame_count=n_frames, width=160, height=96,
                      object_count=10, noise_amplitude=0.0)
    from mmreg.pipeline import rgb_to_gray
    frames = [rgb_to_gray(f) for f in generate_sequence(cfg)]
    offsets = generate_offsets(n_classes, 16, 8, 45.0)
    net = model.build_model(model.ModelConfig(
        patch_size=32, channels=("Gr", "L"), filters=(2, 2, 2),
        kernel_size=3, n_classes=n_classes, seed=3))
    return net, frames, offsets


class TestEvaluateRun:
    def test_perfect_classifier_stub(self, monkeypatch):
        net, frames, offsets = make_eval_fixture()
        truth = {"current": 0}

        def perfect(the_net, patches):
            ids = np.full(patches.shape[0], truth["current"], dtype=np.int64)
            probs = np.zeros((patches.shape[0], the_net.config.n_classes))
            probs[:, truth["current"]] = 1.0
            return ids, probs

        real = evaluation.patch_grid

        def tracking(frame, offset, p, s, tau, fill, channels):
            truth["current"] = offset.id
            return real(frame, offset, p, s, tau, fill, channels)

        monkeypatch.setattr(evaluation, "predict_batch", perfect)
        monkeypatch.setattr(evaluation, "patch_grid", tracking)
        report = evaluate_run(net, frames, offsets, k_values=[1, 2], stride=32, tau=0.0)
        assert mean_diagonal_accuracy(report.patch_cm) == pytest.approx(100.0)
        assert mean_diagonal_accuracy(report.image_cm) == pytest.approx(100.0)
        assert report.temporal_accuracy[1] == pytest.approx(100.0)
        assert report.temporal_accuracy[2] == pytest.approx(100.0)

    def test_constant_classifier_scores_chance(self, monkeypatch):
        net, frames, offsets = make_eval_fixture()

        def always_zero(the_net, patches):
            ids = np.zeros(patches.shape[0], dtype=np.int64)
            probs = np.zeros((patches.shape[0], the_net.config.n_classes))
            probs[:, 0] = 1.0
            return ids, probs

        monkeypatch.setattr(evaluation, "predict_batch", always_zero)
        report = evaluate_run(net, frames, offsets, k_values=[1], stride=32, tau=0.0)
        # balanced set: recall 100% for class 0, zero elsewhere
        assert mean_diagonal_accuracy(report.patch_cm) == pytest.approx(100.0 / 5)
        assert overall_accuracy(report.patch_cm) == pytest.approx(100.0 / 5)

    def test_image_matrix_consistent_with_votes(self):
        net, frames, offsets = make_eval_fixture(n_frames=2)
        report = evaluate_run(net, frames, offsets, k_values=[1], stride=32, tau=0.0)
        assert report.image_cm.total + report.no_decision_frames == len(frames) * len(offsets)
        assert report.patch_cm.total > 0

    def test_deterministic(self):
        net, frames, offsets = make_eval_fixture(n_frames=2)
        r1 = evaluate_run(net, frames, offsets, k_values=[1, 2], stride=32, tau=0.0)
        r2 = evaluate_run(net, frames, offsets, k_values=[1, 2], stride=32, tau=0.0)
        assert r1.patch_cm == r2.patch_cm
        assert r1.image_cm == r2.image_cm
        assert r1.temporal_accuracy == r2.temporal_accuracy

    @pytest.mark.parametrize("workers", [2, 3])
    def test_report_independent_of_workers(self, workers):
        net, frames, offsets = make_eval_fixture()
        r1 = evaluate_run(net, frames, offsets, k_values=[1, 2], stride=32, tau=0.0)
        r2 = evaluate_run(net, frames, offsets, k_values=[1, 2], stride=32, tau=0.0,
                          workers=workers)
        assert r1.patch_cm == r2.patch_cm
        assert r1.image_cm == r2.image_cm
        assert r1.temporal_accuracy == r2.temporal_accuracy
        assert r1.no_decision_frames == r2.no_decision_frames
        assert r1.patch_maps.keys() == r2.patch_maps.keys()
        for class_id, grid in r1.patch_maps.items():
            assert grid.tobytes() == r2.patch_maps[class_id].tobytes()

    def test_worker_exception_propagates_and_threads_exit(self, monkeypatch):
        net, frames, offsets = make_eval_fixture()
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
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="classifier failed"):
            evaluate_run(net, frames, offsets, k_values=[1], stride=32, tau=0.0, workers=2)
        assert threading.active_count() == threads_before
        assert len(calls) < len(frames) * len(offsets)  # the queue was cancelled

    def test_channel_mismatch_rejected(self):
        net, frames, offsets = make_eval_fixture()
        bad_net = model.build_model(model.ModelConfig(
            patch_size=32, channels=("Gr", "L", "U", "V"), filters=(2, 2, 2),
            kernel_size=3, n_classes=5, seed=3))
        with pytest.raises(ValueError, match="channel mismatch"):
            evaluate_run(bad_net, frames, offsets, k_values=[1], stride=32, tau=0.0)

    def test_oversized_window_rejected(self):
        net, frames, offsets = make_eval_fixture(n_frames=2)
        with pytest.raises(ValueError, match="temporal window"):
            evaluate_run(net, frames, offsets, k_values=[3], stride=32, tau=0.0)

    def test_offset_table_size_must_match_model(self):
        net, frames, _ = make_eval_fixture()
        wrong = generate_offsets(7, 16, 8, 45.0)
        with pytest.raises(ValueError, match="offset table"):
            evaluate_run(net, frames, wrong, k_values=[1], stride=32, tau=0.0)


class TestReportEmission:
    def make_report(self):
        rng = np.random.default_rng(2)
        patch = ConfusionMatrix(9, rng.integers(0, 40, size=(9, 9)))
        image = ConfusionMatrix(9, rng.integers(0, 10, size=(9, 9)))
        maps = {0: rng.integers(-1, 9, size=(8, 25))}
        return EvalReport(patch_cm=patch, image_cm=image,
                          temporal_accuracy={1: 76.33, 2: 85.42},
                          no_decision_frames=1, grid_shape=(8, 25), patch_maps=maps)

    def test_csv_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "cm.csv"
        write_confusion_csv(report.patch_cm, path)
        assert read_confusion_csv(path) == report.patch_cm

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
        report = EvalReport(patch_cm=ConfusionMatrix(3), image_cm=ConfusionMatrix(3),
                            temporal_accuracy={}, no_decision_frames=0,
                            grid_shape=(1, 1))
        with pytest.raises(ValueError, match="empty report"):
            emit_report(report, tmp_path / "out")

    def test_temporal_table_layout(self, tmp_path):
        report = self.make_report()
        emit_report(report, tmp_path / "out")
        lines = (tmp_path / "out" / "temporal.csv").read_text().splitlines()
        assert lines[0] == "k,1,2"
        assert lines[1] == "accuracy_percent,76.33,85.42"
