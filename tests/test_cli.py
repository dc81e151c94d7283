import gc
import os
import re
import resource
import shutil
import struct
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import mmreg
from mmreg import cli, evaluation, model, nn, pipeline, synth
from mmreg.cli import main, parse_channels
from mmreg.pipeline import Frame, read_frame, read_manifest, write_frame
from helpers import traced_peak


def run(*args):
    return main([str(a) for a in args])


def synth_small(out, seed=3, frames=3, extra=()):
    return run("synth", "--out", out, "--seed", seed, "--frames", frames,
               "--width", 64, "--height", 64, "--objects", 6, *extra)


class TestParseChannels:
    def test_compact_tokens(self):
        assert parse_channels("GrLUV") == ["Gr", "L", "U", "V"]
        assert parse_channels("RGBL") == ["R", "G", "B", "L"]
        assert parse_channels("RGBLUV") == ["R", "G", "B", "L", "U", "V"]

    def test_comma_form(self):
        assert parse_channels("Gr,L") == ["Gr", "L"]

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            parse_channels("GrLX")
        with pytest.raises(ValueError, match="duplicate"):
            parse_channels("Gr,Gr")


class TestWorkerCount:
    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("MMREG_THREADS", "2")
        assert pipeline.worker_count() == 2

    def test_auto(self, monkeypatch):
        monkeypatch.setenv("MMREG_THREADS", "0")
        assert pipeline.worker_count() >= 1

    def test_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("MMREG_THREADS", "lots")
        with pytest.raises(ValueError, match="MMREG_THREADS"):
            pipeline.worker_count()

    def test_counts_only_cpus_the_process_may_use(self, monkeypatch):
        # eight CPUs, of which taskset or a cpuset leaves this process one
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        for name in ("MMREG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        assert pipeline.worker_count() == 1
        assert pipeline.blas_threads() == 1


class TestSynth:
    def test_deterministic_tree(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert synth_small(a) == 0
        assert synth_small(b) == 0
        names = sorted(p.name for p in a.glob("*.mmf"))
        assert len(names) == 3
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_frames_fails(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path / "x", "--frames", 0) == 1
        assert "frames" in capsys.readouterr().err

    def test_zero_frames_one_error_line_and_no_output(self, tmp_path, capsys):
        assert run("synth", "--frames", 0, "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "frame count must be >= 1, got 0" in err
        assert not (tmp_path / "x").exists()

    def test_writes_run_config(self, tmp_path):
        out = tmp_path / "s"
        synth_small(out, seed=9)
        text = (out / "run_config.txt").read_text()
        assert "seed=9" in text
        assert "frame_count=3" in text


class TestDefaults:
    def test_cli_defaults_equal_config_defaults(self):
        # the infer benchmark and the acceptance run mix the two sets
        _, subs = cli.build_parser()

        def default(command, dest):
            return subs[command].parser.get_default(dest)

        net, fit, scene = model.ModelConfig(), model.TrainConfig(), synth.SceneConfig()
        pairs = [
            ("train --filters",
             tuple(int(v) for v in default("train", "filters").split(",")), net.filters),
            ("train --kernel", default("train", "kernel"), net.kernel_size),
            ("train --channels", tuple(parse_channels(default("train", "channels"))),
             net.channels),
            ("train --lr", default("train", "lr"), fit.learning_rate),
            ("train --momentum", default("train", "momentum"), fit.momentum),
            ("train --epochs", default("train", "epochs"), fit.epochs),
            ("train --batch", default("train", "batch"), fit.batch_size),
            ("train --seed", default("train", "seed"), fit.seed),
            ("dataset --p", default("dataset", "p"), net.patch_size),
            ("dataset --classes", default("dataset", "classes"), net.n_classes),
            ("synth --frames", default("synth", "frames"), scene.frame_count),
            ("synth --width", default("synth", "width"), scene.width),
            ("synth --height", default("synth", "height"), scene.height),
            ("synth --objects", default("synth", "objects"), scene.object_count),
            ("synth --kinds", tuple(default("synth", "kinds").split(",")), scene.object_kinds),
            ("synth --depth-min", default("synth", "depth_min"), scene.depth_range[0]),
            ("synth --depth-max", default("synth", "depth_max"), scene.depth_range[1]),
            ("synth --translate", cli._parse_pair(default("synth", "translate"), "--translate"),
             scene.camera_translation),
            ("synth --jitter", default("synth", "jitter"), scene.jitter),
            ("synth --noise", default("synth", "noise"), scene.noise_amplitude),
        ]
        assert [(flag, got, want) for flag, got, want in pairs if got != want] == []
        assert net.seed == fit.seed


class TestFlow:
    def test_single_frame_gets_zero_flow(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        synth_small(src, frames=1)
        assert run("flow", "--in-dir", src, "--out", dst) == 0
        frame = read_frame(next(iter(sorted(dst.glob("*.mmf")))))
        assert frame.has_channel("U") and frame.has_channel("V")
        assert np.all(frame.plane("U") == np.float32(0.5))
        assert np.all(frame.plane("V") == np.float32(0.5))

    def test_static_scene_gives_neutral_flow(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        synth_small(src, frames=2, extra=("--translate", "0,0", "--jitter", "0",
                                          "--noise", "0"))
        assert run("flow", "--in-dir", src, "--out", dst) == 0
        frames = [read_frame(p) for p in sorted(dst.glob("*.mmf"))]
        np.testing.assert_allclose(frames[1].plane("U"), 0.5, atol=1e-6)
        np.testing.assert_allclose(frames[1].plane("V"), 0.5, atol=1e-6)

    def test_outputs_include_gray(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        synth_small(src, frames=2)
        run("flow", "--in-dir", src, "--out", dst, "--iters", 20)
        frame = read_frame(sorted(dst.glob("*.mmf"))[0])
        assert frame.channel_names == ["R", "G", "B", "Gr", "L", "U", "V"]

    def test_missing_dir_fails(self, tmp_path):
        assert run("flow", "--in-dir", tmp_path / "nope", "--out", tmp_path / "o") == 1


class TestFrameStreams:
    """A frame stream holds no frame once the next is pulled, so flow,
    dataset, train and eval hold at most their pools' frames."""

    @pytest.mark.parametrize("stream", ["read", "peek"])
    def test_first_frame_freed_after_the_second_is_pulled(self, small_corpus, stream):
        paths = sorted((small_corpus / "raw").glob("*.mmf"))
        frames = (cli._read_frames(paths) if stream == "read"
                  else cli._peek_frames(paths)[1])
        first = weakref.ref(next(frames))
        second = next(frames)
        gc.collect()
        assert first() is None and second.channel_names == ["R", "G", "B", "L"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_eval_holds_no_frame_once_its_table_is_built(self, small_corpus, tmp_path,
                                                         monkeypatch, threads):
        ckpt, manifest = tmp_path / "init", small_corpus / "ds" / "manifest.txt"
        assert run("train", "--dataset", manifest, "--out", ckpt, "--channels", "Gr,L",
                   "--filters", "2,2,2", "--kernel", 3, "--epochs", 0) == 0
        read, predict = cli.read_frame, evaluation.predict_batch
        frames, live = [], []

        def tracked(path):
            frame = read(path)
            frames.append(weakref.ref(frame))
            return frame

        def counting(net, patches):  # the frames still alive at each call
            live.append(sum(ref() is not None for ref in frames))
            return predict(net, patches)

        monkeypatch.setattr(cli, "read_frame", tracked)
        monkeypatch.setattr(evaluation, "predict_batch", counting)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("MMREG_THREADS", threads)
        assert run("eval", "--checkpoint", ckpt / "checkpoint.mmrc", "--dataset", manifest,
                   "--k-list", 1, "--out", tmp_path / "report") == 0
        assert len(frames) == 3 and len(live) == 3 * 5 and not any(live)


class TestFlowWorkers:
    @pytest.mark.parametrize("damage", ["corrupt", "out_of_range", "other_size"])
    def test_bad_middle_frame_fails_cleanly(self, tmp_path, monkeypatch, capsys, damage):
        src = tmp_path / "src"
        synth_small(src, frames=5)
        middle = src / "frame_00002.mmf"
        if damage == "corrupt":
            middle.write_bytes(middle.read_bytes()[:40])
        elif damage == "out_of_range":
            data = bytearray(middle.read_bytes())
            first_value = 16 + data[12]  # header, then one id byte per channel
            data[first_value:first_value + 4] = struct.pack("<f", 1.5)
            middle.write_bytes(bytes(data))
        else:  # readable, but estimate_flow rejects the pair in a pool thread
            other = tmp_path / "other"
            run("synth", "--out", other, "--frames", 1, "--width", 48, "--height", 64,
                "--objects", 6)
            middle.write_bytes((other / "frame_00000.mmf").read_bytes())
        capsys.readouterr()
        for threads in ("1", "2"):
            monkeypatch.setenv("MMREG_THREADS", threads)
            threads_before = threading.active_count()
            dst = tmp_path / f"dst{threads}"
            assert run("flow", "--in-dir", src, "--out", dst) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert "frame_00002.mmf" in err
            assert threading.active_count() == threads_before
            # frames 0 and 1 were written before the failure, but not into dst
            assert list(dst.iterdir()) == []
        before = {p.name: p.read_bytes() for p in src.iterdir()}
        assert run("flow", "--in-dir", src, "--out", src) == 1  # in place
        assert {p.name: p.read_bytes() for p in src.iterdir()} == before


class TestThreadCountDeterminism:
    def test_outputs_identical_across_mmreg_threads(self, tmp_path, monkeypatch):
        # one BLAS thread, so that training runs as many patch blocks as workers
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        trees = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("MMREG_THREADS", threads)
            root = tmp_path / f"threads{threads}"
            assert synth_small(root / "raw", seed=21, frames=5) == 0
            assert run("flow", "--in-dir", root / "raw", "--out", root / "flowed") == 0
            assert run("dataset", "--in-dir", root / "flowed", "--out", root / "ds",
                       "--p", 16, "--s", 16, "--tau", 0, "--classes", 5,
                       "--major", 8, "--minor", 4) == 0
            assert run("train", "--dataset", root / "ds" / "manifest.txt",
                       "--out", root / "run", "--channels", "GrLUV", "--filters", "2,2,2",
                       "--kernel", 3, "--epochs", 1, "--batch", 50, "--seed", 1) == 0
            assert run("eval", "--checkpoint", root / "run" / "checkpoint.mmrc",
                       "--dataset", root / "ds" / "manifest.txt", "--k-list", "1,2",
                       "--out", root / "report") == 0
            trees.append({p.relative_to(root).as_posix(): p.read_bytes()
                          for p in sorted(root.rglob("*"))
                          if p.is_file() and p.name != "run_config.txt"})
        # frames, flowed frames, manifest, checkpoint and loss, then the
        # report: 2 confusion CSVs, temporal, summary, heatmap, 5 patch maps
        assert len(trees[0]) == 5 + 5 + 1 + 2 + 10
        assert trees[1] == trees[0]
        assert trees[2] == trees[0]


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """synth -> flow -> dataset artifacts shared by the train/eval tests."""
    root = tmp_path_factory.mktemp("corpus")
    raw, flowed, ds = root / "raw", root / "flowed", root / "ds"
    assert synth_small(raw, seed=13, frames=3) == 0
    assert run("flow", "--in-dir", raw, "--out", flowed, "--iters", 30) == 0
    assert run("dataset", "--in-dir", flowed, "--out", ds,
               "--p", 16, "--s", 16, "--tau", 0, "--classes", 5,
               "--major", 8, "--minor", 4) == 0
    return root


class TestDataset:
    def test_counts_match_formula(self, small_corpus):
        manifest = read_manifest(small_corpus / "ds" / "manifest.txt")
        positions = ((64 - 16) // 16 + 1) ** 2
        assert manifest.patch_count == positions * 5 * 3
        assert manifest.frame_count == 3
        assert manifest.channels == ["R", "G", "B", "Gr", "L", "U", "V"]

    def test_default_offset_geometry(self, tmp_path, capsys):
        parser, _ = cli.build_parser()
        args = parser.parse_args(["dataset", "--in-dir", "x", "--out", "y"])
        assert (args.p, args.s, args.classes) == (32, 32, 9)
        assert (args.major, args.minor, args.rot) == (32, 16, 45)

    @pytest.mark.parametrize("damage", ["other_size", "other_channels"])
    def test_mismatched_frame_names_file(self, small_corpus, tmp_path, capsys, damage):
        src = tmp_path / "flowed"
        shutil.copytree(small_corpus / "flowed", src)
        frame = read_frame(src / "frame_00000.mmf")
        if damage == "other_size":
            frame = Frame({n: frame.plane(n)[:, :48] for n in frame.channel_names})
        else:
            frame = Frame({n: frame.plane(n) for n in frame.channel_names if n != "U"})
        write_frame(frame, src / "frame_00001.mmf")
        capsys.readouterr()
        assert run("dataset", "--in-dir", src, "--out", tmp_path / "d", "--p", 16,
                   "--s", 16, "--classes", 3, "--major", 8, "--minor", 4) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "frame_00001.mmf" in err, err
        assert not (tmp_path / "d" / "manifest.txt").exists()

    @pytest.mark.parametrize("split", ["a\nb", "a\u2028b", " padded "],
                             ids=["newline", "line-separator", "padded"])
    def test_split_that_would_not_read_back_refused(self, small_corpus, tmp_path, capsys,
                                                    split):
        capsys.readouterr()
        assert run("dataset", "--in-dir", small_corpus / "flowed", "--out", tmp_path / "d",
                   "--p", 16, "--s", 16, "--tau", 0, "--classes", 5, "--major", 8,
                   "--minor", 4, "--split", split) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest split {split!r} ") and err.count("\n") == 1, err
        assert not (tmp_path / "d").exists()

    def test_manifest_over_the_read_cap_refused(self, small_corpus, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(pipeline, "KEY_VALUE_MAX_BYTES", 100)
        capsys.readouterr()
        assert run("dataset", "--in-dir", small_corpus / "flowed", "--out", tmp_path / "d",
                   "--p", 16, "--s", 16, "--tau", 0, "--classes", 5, "--major", 8,
                   "--minor", 4) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: manifest of \d{3} bytes would not read back: over the "
                            r"100-byte cap on key=value files\n", err), err
        assert not (tmp_path / "d").exists()

    def test_missing_channel_message_unquoted(self, small_corpus, tmp_path, capsys):
        src = tmp_path / "flowed"
        shutil.copytree(small_corpus / "flowed", src)
        for path in sorted(src.glob("*.mmf")):
            frame = read_frame(path)
            write_frame(Frame({n: frame.plane(n) for n in frame.channel_names if n != "L"}),
                        path)
        capsys.readouterr()
        assert run("dataset", "--in-dir", src, "--out", tmp_path / "d", "--p", 16,
                   "--s", 16, "--classes", 3, "--major", 8, "--minor", 4) == 1
        err = capsys.readouterr().err
        assert err == ("error: frame has no channel 'L'; present: "
                       "['R', 'G', 'B', 'Gr', 'U', 'V']\n"), err

    def test_tau_filter_failure_message(self, tmp_path, capsys):
        # constant frames: everything filtered at positive tau
        src = tmp_path / "flat"
        synth_small(src, frames=1)
        code = run("dataset", "--in-dir", src, "--out", tmp_path / "d",
                   "--p", 16, "--s", 16, "--tau", 0.25, "--classes", 3,
                   "--major", 8, "--minor", 4)
        assert code == 1
        assert "lower tau" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


def edited_manifest(corpus, dest, edits):
    """The corpus manifest with some keys rewritten, saved under dest."""
    lines = []
    for line in (corpus / "ds" / "manifest.txt").read_text().splitlines():
        key, value = line.split("=", 1)
        lines.append(f"{key}={edits[key](value) if key in edits else value}")
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "manifest.txt").write_text("\n".join(lines) + "\n")
    return dest / "manifest.txt"


GRID_CASES = {
    "eval-offset+1000": ("eval", {"offset_1": lambda v: "1000,0"}, (), "exceeds frame dims"),
    "eval-offset-1000": ("eval", {"offset_2": lambda v: "0,-1000"}, (), "exceeds frame dims"),
    "dataset-fill-5": ("dataset", {}, ("--fill", 5), r"fill value 5\.0 outside \[0,1\]"),
    "dataset-fill-nan": ("dataset", {}, ("--fill", "nan"), r"fill value nan outside \[0,1\]"),
    "dataset-tau-nan": ("dataset", {}, ("--tau", "nan"), "variance threshold must be >= 0"),
    "dataset-s-16": ("dataset", {}, ("--s", -16), "stride must be >= 1, got -16"),
    "dataset-s0": ("dataset", {}, ("--s", 0), "stride must be >= 1, got 0"),
    "dataset-p0": ("dataset", {}, ("--p", 0), "patch size must be >= 1, got 0"),
    "train-tau-raised": ("train", {"tau": lambda v: "0.0375"}, (),
                         r"reproduce \d+ patches, not its patch_count 240"),
    "train-count-1": ("train", {"patch_count": lambda v: int(v) - 1}, (),
                      "reproduce 240 patches, not its patch_count 239"),
    "train-count-huge": ("train", {"patch_count": lambda v: 10**15}, (),
                         r"patch_count 1000000000000000 outside \[1, 240\]"),
    "train-manifest-fill-5": ("train", {"fill": lambda v: "5.0"}, (),
                              r"ds/manifest\.txt: fill value 5\.0 outside \[0,1\]"),
    "eval-manifest-tau-nan": ("eval", {"tau": lambda v: "nan"}, (),
                              r"ds/manifest\.txt: variance threshold must be >= 0, got nan"),
}


class TestGridChecks:
    """The patch grid's checks (the depth shift's, as PatchTable and
    patch_counts make them) reach every subcommand as one error line."""

    @pytest.mark.parametrize("case", list(GRID_CASES))
    def test_rejected_with_one_error_line(self, small_corpus, tmp_path, capsys, case):
        command, edits, flags, match = GRID_CASES[case]
        flowed = small_corpus / "flowed"
        manifest = edited_manifest(small_corpus, tmp_path / "ds", edits)
        if command == "eval":
            ckpt = tmp_path / "init"
            assert run("train", "--dataset", small_corpus / "ds" / "manifest.txt",
                       "--out", ckpt, "--channels", "Gr,L", "--filters", "2,2,2",
                       "--kernel", 3, "--epochs", 0) == 0
            argv = ("eval", "--checkpoint", ckpt / "checkpoint.mmrc", "--dataset", manifest,
                    "--frames", flowed, "--k-list", 1)
        elif command == "train":
            argv = ("train", "--dataset", manifest, "--frames", flowed, "--channels", "Gr,L",
                    "--filters", "2,2,2", "--kernel", 3, "--epochs", 1)
        else:
            argv = ("dataset", "--in-dir", flowed, "--p", 16, "--s", 16, "--tau", 0,
                    "--classes", 5, "--major", 8, "--minor", 4, *flags)
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert re.search(match, err), err
        assert not (tmp_path / "out").exists() or command == "dataset"
        assert not (tmp_path / "out" / "manifest.txt").exists()


NON_FINITE_CASES = {
    "synth-jitter-nan": ("synth", ("--jitter", "nan"), "jitter must be finite and >= 0, got nan"),
    "synth-translate-inf": ("synth", ("--translate", "inf,0"),
                            r"camera translation must be finite, got \(inf, 0\.0\)"),
    "dataset-major-nan": ("dataset", ("--major", "nan"),
                          "axes must be positive and finite, got major=nan"),
    "dataset-rot-inf": ("dataset", ("--rot", "inf"), "rotation must be finite, got inf"),
    "flow-alpha-nan": ("flow", ("--alpha", "nan"), "alpha must be positive and finite, got nan"),
    "flow-alpha-inf": ("flow", ("--alpha", "inf"), "alpha must be positive and finite, got inf"),
    "flow-clamp-nan": ("flow", ("--clamp", "nan"), "clamp must be positive and finite, got nan"),
    "train-lr-nan": ("train", ("--lr", "nan"), "learning rate must be finite and >= 0, got nan"),
    "train-lr-inf": ("train", ("--lr", "inf"), "learning rate must be finite and >= 0, got inf"),
}


class TestNonFiniteFlags:
    """A non-finite flag value fails its subcommand before anything is written."""

    @pytest.mark.parametrize("case", list(NON_FINITE_CASES))
    def test_rejected_before_output(self, small_corpus, tmp_path, capsys, case):
        command, flags, match = NON_FINITE_CASES[case]
        inputs = {
            "synth": ("--frames", 2, "--width", 64, "--height", 64, "--objects", 6),
            "flow": ("--in-dir", small_corpus / "raw", "--iters", 5),
            "dataset": ("--in-dir", small_corpus / "flowed", "--p", 16, "--s", 16,
                        "--classes", 5, "--major", 8, "--minor", 4),
            "train": ("--dataset", small_corpus / "ds" / "manifest.txt", "--channels", "Gr,L",
                      "--filters", "2,2,2", "--kernel", 3, "--epochs", 1),
        }
        capsys.readouterr()
        assert run(command, *inputs[command], *flags, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert re.search(match, err), err
        assert not (tmp_path / "out").exists()


class TestTrainEval:
    def test_full_cycle(self, small_corpus, tmp_path):
        ds = small_corpus / "ds" / "manifest.txt"
        run_dir = tmp_path / "run"
        code = run("train", "--dataset", ds, "--out", run_dir,
                   "--channels", "GrLUV", "--filters", "2,2,2", "--kernel", 3,
                   "--epochs", 1, "--batch", 50, "--seed", 1)
        assert code == 0
        checkpoint = run_dir / "checkpoint.mmrc"
        assert checkpoint.exists()
        assert (run_dir / "loss.csv").read_text().startswith("epoch,mean_loss")

        report_dir = tmp_path / "report"
        code = run("eval", "--checkpoint", checkpoint, "--dataset", ds,
                   "--k-list", "1,2", "--out", report_dir)
        assert code == 0
        for name in ("patch_confusion.csv", "image_confusion.csv", "temporal.csv",
                     "summary.csv", "confusion_heatmap.ppm", "run_config.txt"):
            assert (report_dir / name).exists()

    def test_epochs_zero_writes_initial_checkpoint(self, small_corpus, tmp_path):
        ds = small_corpus / "ds" / "manifest.txt"
        out = tmp_path / "init"
        code = run("train", "--dataset", ds, "--out", out, "--channels", "Gr,L",
                   "--filters", "2,2,2", "--kernel", 3, "--epochs", 0)
        assert code == 0
        net = model.load_checkpoint(out / "checkpoint.mmrc")
        assert net.config.channels == ("Gr", "L")
        assert (out / "loss.csv").read_text().strip() == "epoch,mean_loss"

    def test_train_deterministic_checkpoints(self, small_corpus, tmp_path):
        ds = small_corpus / "ds" / "manifest.txt"
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("train", "--dataset", ds, "--out", out, "--channels", "Gr,L",
                       "--filters", "2,2,2", "--kernel", 3, "--epochs", 1,
                       "--batch", 64, "--seed", 5) == 0
            outs.append((out / "checkpoint.mmrc").read_bytes())
        assert outs[0] == outs[1]

    def test_train_builds_no_patch_samples(self, small_corpus, tmp_path, monkeypatch):
        ds = small_corpus / "ds" / "manifest.txt"
        flags = ("--channels", "Gr,L", "--filters", "2,2,2", "--kernel", 3, "--epochs", 1,
                 "--batch", 64, "--seed", 5)
        assert run("train", "--dataset", ds, "--out", tmp_path / "ref", *flags) == 0

        def no_samples(*args):
            raise AssertionError("train built a PatchSample")

        monkeypatch.setattr(pipeline, "PatchSample", no_samples)
        assert run("train", "--dataset", ds, "--out", tmp_path / "arrays", *flags) == 0
        assert (tmp_path / "arrays" / "checkpoint.mmrc").read_bytes() == \
            (tmp_path / "ref" / "checkpoint.mmrc").read_bytes()

    def test_eval_finds_no_winner_indices(self, small_corpus, tmp_path, monkeypatch):
        ds = small_corpus / "ds" / "manifest.txt"
        assert run("train", "--dataset", ds, "--out", tmp_path / "run", "--channels", "Gr,L",
                   "--filters", "2,2,2", "--kernel", 3, "--epochs", 1, "--seed", 5) == 0
        argv = ("eval", "--checkpoint", tmp_path / "run" / "checkpoint.mmrc", "--dataset", ds,
                "--k-list", "1,2", "--out", tmp_path / "report")
        assert run(*argv) == 0
        (tmp_path / "report").rename(tmp_path / "ref")

        def no_winners(*args):
            raise AssertionError("eval asked for pooling winner indices")

        monkeypatch.setattr(nn, "maxpool2x2_forward", no_winners)
        assert run(*argv) == 0
        names = sorted(path.name for path in (tmp_path / "ref").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "report").iterdir())
        for name in names:
            assert (tmp_path / "report" / name).read_bytes() == \
                (tmp_path / "ref" / name).read_bytes(), name

    @pytest.mark.parametrize("frame_count", [0, 2, 99])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_frameless_manifest_frame_count_checked(self, small_corpus, tmp_path, capsys,
                                                    command, frame_count):
        # without frame_<i> entries the frames directory lists the frames,
        # and it must hold frame_count of them
        manifest = read_manifest(small_corpus / "ds" / "manifest.txt")
        manifest.frame_files, manifest.frame_count = [], frame_count
        manifest.frames_dir = str(small_corpus / "flowed")
        ds = tmp_path / "manifest.txt"
        pipeline.write_manifest(manifest, ds)
        ckpt = tmp_path / "init" / "checkpoint.mmrc"
        assert run("train", "--dataset", small_corpus / "ds" / "manifest.txt", "--out",
                   ckpt.parent, "--channels", "Gr,L", "--filters", "2,2,2", "--kernel", 3,
                   "--epochs", 0) == 0
        argv = {"train": ("train", "--dataset", ds, "--channels", "Gr,L", "--filters",
                          "2,2,2", "--kernel", 3, "--epochs", 0),
                "eval": ("eval", "--checkpoint", ckpt, "--dataset", ds)}[command]
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == (f"error: {ds}: frame_count {frame_count} but 3 .mmf frames in "
                       f"{small_corpus / 'flowed'}\n"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_frameless_manifest_with_its_frames_runs(self, small_corpus, tmp_path, command):
        manifest = read_manifest(small_corpus / "ds" / "manifest.txt")
        manifest.frame_files = []
        manifest.frames_dir = str(small_corpus / "flowed")
        ds = tmp_path / "manifest.txt"
        pipeline.write_manifest(manifest, ds)
        flags = ("--channels", "Gr,L", "--filters", "2,2,2", "--kernel", 3, "--epochs", 0)
        assert run("train", "--dataset", ds, "--out", tmp_path / "run", *flags) == 0
        if command == "eval":
            assert run("eval", "--checkpoint", tmp_path / "run" / "checkpoint.mmrc",
                       "--dataset", ds, "--k-list", "1,2", "--out", tmp_path / "report") == 0

    def test_missing_checkpoint_fails(self, small_corpus, tmp_path, capsys):
        ds = small_corpus / "ds" / "manifest.txt"
        code = run("eval", "--checkpoint", tmp_path / "absent.mmrc",
                   "--dataset", ds, "--out", tmp_path / "r")
        assert code == 1
        assert "does not exist" in capsys.readouterr().err

    def test_bad_k_list_reported_before_frames_are_read(self, small_corpus, tmp_path, capsys):
        ckpt = tmp_path / "init"
        assert run("train", "--dataset", small_corpus / "ds" / "manifest.txt", "--out", ckpt,
                   "--channels", "Gr,L", "--filters", "2,2,2", "--kernel", 3,
                   "--epochs", 0) == 0
        flowed = tmp_path / "flowed"
        shutil.copytree(small_corpus / "flowed", flowed)
        truncated = flowed / "frame_00001.mmf"
        truncated.write_bytes(truncated.read_bytes()[:40])
        capsys.readouterr()
        assert run("eval", "--checkpoint", ckpt / "checkpoint.mmrc",
                   "--dataset", small_corpus / "ds" / "manifest.txt", "--frames", flowed,
                   "--k-list", "1,x", "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "--k-list" in err, err
        assert not (tmp_path / "out").exists()

    def test_unknown_train_channel_fails(self, small_corpus, tmp_path, capsys):
        ds = small_corpus / "ds" / "manifest.txt"
        code = run("train", "--dataset", ds, "--out", tmp_path / "x",
                   "--channels", "GrLQ", "--epochs", 0)
        assert code == 1

    def test_published_style_configs_expressible(self):
        parser, _ = cli.build_parser()
        args = parser.parse_args(["train", "--dataset", "m.txt", "--out", "o",
                                  "--channels", "GrLUV", "--kernel", "9",
                                  "--filters", "32,32,64"])
        assert args.kernel == 9
        assert parse_channels(args.channels) == ["Gr", "L", "U", "V"]
        args = parser.parse_args(["eval", "--checkpoint", "c", "--dataset", "m",
                                  "--out", "o", "--k-list", "1,2,3,4,5,6,7,8"])
        assert cli._parse_int_list(args.k_list, "--k-list") == list(range(1, 9))


class TestConfigFile:
    def test_precedence_cli_over_config_over_default(self, tmp_path):
        config = tmp_path / "conf.txt"
        config.write_text("seed=5\nframes=4\nwidth=64\nheight=64\nobjects=5\n")
        out = tmp_path / "out"
        assert run("synth", "--config", config, "--out", out, "--seed", 7) == 0
        text = (out / "run_config.txt").read_text()
        assert "seed=7" in text        # CLI wins
        assert "frames=4" in text      # config beats default
        assert "noise=0.02" in text    # default survives

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("bogus=1\n")
        assert run("synth", "--config", config, "--out", tmp_path / "o") == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value_names_file_and_key(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("seed=5\nframes=abc\n")
        assert run("synth", "--config", config, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: config key 'frames': ")
        assert "'abc'" in err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_byte_names_file_and_offset(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_bytes(b"seed=5\nkinds=ell\xffipse\n")
        assert run("synth", "--config", config, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (f"error: {config}: byte 0xff at byte offset 16 "
                                           "is not UTF-8\n")

    def test_repeated_key_names_line(self, tmp_path, capsys):
        config = tmp_path / "conf.txt"
        config.write_text("seed=5\nframes=4\nseed=6\n")
        assert run("synth", "--config", config, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {config}:3: repeated key 'seed'\n"


LONG = "x" * (1 << 20)
# (subcommand, manifest edits, --config text): each puts a 1 MiB value in
# front of a check that quotes it
OVERSIZED_CASES = {
    "manifest-tau": ("train", {"tau": lambda v: LONG}, ""),
    "config-key": ("synth", {}, f"{LONG}=1\n"),
    "config-jitter": ("synth", {}, f"jitter={LONG}\n"),
    "config-translate": ("synth", {}, f"translate={LONG}\n"),
    "config-channels": ("train", {}, f"channels={LONG}\n"),
    "config-k-list": ("eval", {}, f"k_list={LONG}\n"),
    "config-kinds": ("synth", {}, f"kinds={LONG}\n"),
}


class TestOversizedValues:
    """A value of any length is quoted short: one error line, no output."""

    @pytest.mark.parametrize("case", list(OVERSIZED_CASES))
    def test_one_short_error_line(self, small_corpus, tmp_path, capsys, case):
        command, edits, config_text = OVERSIZED_CASES[case]
        manifest = edited_manifest(small_corpus, tmp_path / "ds", edits)
        config = tmp_path / "conf.txt"
        config.write_text(config_text)
        inputs = {"synth": (), "train": ("--dataset", manifest),
                  "eval": ("--checkpoint", tmp_path / "absent.mmrc", "--dataset", manifest)}
        capsys.readouterr()
        assert run(command, *inputs[command], "--config", config,
                   "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err[:300]
        beyond = err.replace(str(manifest), "").replace(str(config), "")
        assert len(beyond) <= 300, err[:400]
        assert not (tmp_path / "out").exists()


SIZE_CASES = {
    "filters": (("--filters", "100000,100000,100000"),
                rf"weights take \d+ bytes, over the {model.MAX_WEIGHT_BYTES}-byte cap"),
    "kernel": (("--kernel", 10001),
               rf"weights take \d+ bytes, over the {model.MAX_WEIGHT_BYTES}-byte cap"),
    # stage 0's im2col rows alone would take 2.75 GB
    "kernel-batch": (("--kernel", 41, "--batch", 100),
                     rf"batches of 100 take 29\d{{8}} bytes, over the "
                     rf"{model.MAX_BATCH_WORK_BYTES}-byte cap"),
}


# synth sizes over its ceilings, and the error each gives
SYNTH_SIZE_CASES = {
    "frame-size": ({"width": 100000, "height": 100000},
                   f"10 frames of 100000x100000 take 1600000000000 bytes, over the "
                   f"{synth.MAX_SEQUENCE_BYTES}-byte cap on a sequence"),
    "frames": ({"frames": 100000000},
               f"100000000 frames of 800x256 take 327680000000000 bytes, over the "
               f"{synth.MAX_SEQUENCE_BYTES}-byte cap on a sequence"),
    "objects": ({"objects": 100000000},
                f"100000000 objects in 10 frames make 1000000000 object draws, over the cap "
                f"of {synth.MAX_OBJECT_FRAMES}"),
    # 10 KB of planes, but the camera path spans a texture 9e7 pixels wide
    "translate": ({"frames": 10, "width": 64, "height": 64, "objects": 2,
                   "translate": "10000000,0"},
                  f"a camera path of 10 frames at (10000000.0, 0.0) px/frame pans over a "
                  f"background 90000064 wide and 64 high, over the cap of "
                  f"{synth.MAX_WORLD_PIXELS} pixels"),
    # the last frame's offset, 9e308, is past float range
    "translate-overflow": ({"frames": 10, "width": 64, "height": 64, "objects": 2,
                            "translate": "1e308,0"},
                           f"a camera path of 10 frames at (1e+308, 0.0) px/frame pans over a "
                           f"background '{str(int(sys.float_info.max))[:60]}' and 249 more "
                           f"characters wide and 64 high, over the cap of "
                           f"{synth.MAX_WORLD_PIXELS} pixels"),
}


class TestSizeCeilings:
    """Size flags that would make huge weights, training buffers, frame
    sequences or offset tables are refused before anything large is
    allocated: one error line, no output."""

    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("case", list(SYNTH_SIZE_CASES))
    def test_synth_refused_before_allocating(self, tmp_path, capsys, case, source):
        sizes, message = SYNTH_SIZE_CASES[case]
        config = tmp_path / "conf.txt"
        config.write_text("".join(f"{key}={value}\n" for key, value in sizes.items()))
        flags = (["--config", config] if source == "config" else
                 [arg for key, value in sizes.items() for arg in (f"--{key}", value)])
        with traced_peak() as traced:
            code = run("synth", *flags, "--out", tmp_path / "out")
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()
        assert traced.peak < 8 << 20

    def test_class_count_fails_at_first_collision(self, small_corpus, tmp_path, capsys):
        # 10**8 classes on the default ellipse: the second already rounds
        # onto the first
        with traced_peak() as traced:
            code = run("dataset", "--in-dir", small_corpus / "flowed", "--out", tmp_path / "out",
                       "--classes", 100000000)
        assert code == 1
        assert capsys.readouterr().err == ("error: degenerate axes: classes 1 and 2 both round "
                                           "to (11, -11)\n")
        assert not (tmp_path / "out").exists()
        assert traced.peak < 8 << 20

    @pytest.mark.parametrize("case", list(SIZE_CASES))
    def test_refused_before_allocating(self, small_corpus, tmp_path, capsys, case):
        flags, match = SIZE_CASES[case]
        ds = tmp_path / "ds32"  # 135 patches of 32x32, enough for a batch of 100
        assert run("dataset", "--in-dir", small_corpus / "flowed", "--out", ds,
                   "--p", 32, "--s", 16, "--tau", 0, "--classes", 5,
                   "--major", 8, "--minor", 4) == 0
        capsys.readouterr()
        with traced_peak() as traced:
            code = run("train", "--dataset", ds / "manifest.txt", "--epochs", 1, *flags,
                       "--out", tmp_path / "out")
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert re.search(match, err), err
        assert not (tmp_path / "out").exists()
        assert traced.peak < 8 << 20


class TestMemoryBackstop:
    def test_memory_error_is_one_error_line(self, tmp_path):
        # the address-space cap applies in the child process only
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1_000_000_000, 1_000_000_000))

        src = Path(mmreg.__file__).resolve().parents[1]
        # one BLAS thread keeps OpenBLAS's own buffers small under the cap
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        result = subprocess.run(
            # under synth's 4 GiB cap on a sequence's planes, but its 1.02 GB
            # float32 background alone is over the address-space cap, so the
            # first large allocation fails, before any texture is computed
            [sys.executable, "-m", "mmreg.cli", "synth", "--out", tmp_path / "o",
             "--width", "16000", "--height", "16000", "--frames", "1"],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=cap_address_space)
        assert result.returncode == 1
        assert result.stderr.startswith("error: out of memory")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
        assert not (tmp_path / "o").exists()


class TestHelp:
    @pytest.mark.parametrize("command", ["synth", "flow", "dataset", "train", "eval"])
    def test_subcommand_help_documents_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default" in out


class TestUsageErrors:
    def test_no_command_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    def test_bad_flag_value_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", "x", "--frames", "many"])
        assert exc.value.code != 0
