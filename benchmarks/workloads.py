"""The three benchmark workloads, driven through ``mmreg.cli.main`` in
this process exactly as the README's CLI walkthrough runs them.

Every workload works at the acceptance-experiment frame size (400x192,
20 objects, noise 0.02) with the CLI defaults otherwise: GrLUV channels,
9 offset classes on the 32/16/45-degree ellipse, default tau, the
32/32/64 k=5 network and batch 100. Inputs come only from the seed.

A workload has a set-up that builds the inputs its timed command reads,
one timed operation (``run``), and a ``check`` of the operation's output
that returns the work it did.
"""

from __future__ import annotations

import io
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from mmreg import cli, model

import checks

CHANNELS = ("Gr", "L", "U", "V")
PATCH_SIZE = 32  # mmreg dataset --p default
TRAIN_EPOCHS = 1
K_VALUES = [1, 2, 4]


@dataclass(frozen=True)
class Scale:
    width: int
    height: int
    objects: int
    scenes: int          # independent sequences per ingest or infer operation
    ingest_frames: int   # frames per ingested sequence
    warm_frames: int     # frames of the ingest set-up pass
    train_frames: int    # frames behind the training manifest
    infer_frames: int    # frames per evaluated sequence
    setup_repeats: int   # set-ups per run; setup_s is their median


SCALES = {
    "full": Scale(width=400, height=192, objects=20, scenes=3, ingest_frames=3,
                  warm_frames=2, train_frames=4, infer_frames=4, setup_repeats=3),
    # for the smoke test only: small frames, every code path still taken
    "toy": Scale(width=128, height=96, objects=8, scenes=2, ingest_frames=3,
                 warm_frames=2, train_frames=2, infer_frames=4, setup_repeats=2),
}


class OpFailed(Exception):
    """An mmreg command exited nonzero."""


class Runner:
    """Runs mmreg subcommands in this process; each is a span while the
    given tracer is recording."""

    def __init__(self, scale: Scale, seed: int, tracer=None):
        self.scale = scale
        self.seed = seed
        self.tracer = tracer

    def mmreg(self, *argv) -> None:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        traced = self.tracer is not None and self.tracer.active
        span = self.tracer.span(f"cli.{argv[0]}") if traced else nullcontext()
        with span, redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"mmreg {' '.join(argv)} exited {code}: {err.getvalue().strip()}")

    def scenes(self, root: Path) -> list[tuple[int, Path]]:
        """(synth seed, directory) of each independent scene under root.

        Several scenes per operation keep data-dependent costs, such as the
        largest patch batch that sets peak memory, similar across seeds.
        """
        n = self.scale.scenes
        return [(self.seed * n + j, root / f"scene{j}") for j in range(n)]

    def ingest(self, out: Path, seed: int, frames: int, split: str) -> None:
        """synth -> flow -> dataset into out/{raw,flow,ds}."""
        sc = self.scale
        self.mmreg("synth", "--out", out / "raw", "--seed", seed, "--frames", frames,
                   "--width", sc.width, "--height", sc.height, "--objects", sc.objects,
                   "--noise", 0.02)
        self.mmreg("flow", "--in-dir", out / "raw", "--out", out / "flow")
        self.mmreg("dataset", "--in-dir", out / "flow", "--out", out / "ds",
                   "--split", split, "--seed", seed)


def _summed(infos: list[dict]) -> dict:
    """Check results of several scenes: counts add up, flow error averages."""
    out = {key: sum(i[key] for i in infos) for key in infos[0] if key != "flow_epe_px"}
    if "flow_epe_px" in infos[0]:
        out["flow_epe_px"] = sum(i["flow_epe_px"] for i in infos) / len(infos)
    return out


class Ingest:
    """Timed: synth -> flow -> dataset of fresh sequences. The timed
    commands read no prepared input, so set-up is the same chain on one
    short sequence: work that must not move into set-up shows there."""

    def setup(self, s: Runner, dest: Path) -> None:
        s.ingest(dest, s.seed, s.scale.warm_frames, "train")

    def check_setup(self, s: Runner, dest: Path) -> dict:
        return checks.check_ingest(dest, s.scale.warm_frames)

    def run(self, s: Runner, setup_dir: Path, out: Path) -> None:
        for seed, scene in s.scenes(out):
            s.ingest(scene, seed, s.scale.ingest_frames, "train")

    def check(self, s: Runner, setup_dir: Path, out: Path) -> dict:
        return _summed([checks.check_ingest(scene, s.scale.ingest_frames)
                        for _, scene in s.scenes(out)])


class Train:
    """Timed: ``mmreg train`` for one epoch on a manifest the set-up built,
    including frame reads, patch materialization and the checkpoint write."""

    def setup(self, s: Runner, dest: Path) -> None:
        s.ingest(dest, s.seed, s.scale.train_frames, "train")

    def check_setup(self, s: Runner, dest: Path) -> dict:
        return checks.check_ingest(dest, s.scale.train_frames)

    def run(self, s: Runner, setup_dir: Path, out: Path) -> None:
        s.mmreg("train", "--dataset", setup_dir / "ds" / "manifest.txt",
                "--epochs", TRAIN_EPOCHS, "--seed", s.seed, "--out", out / "model")

    def check(self, s: Runner, setup_dir: Path, out: Path) -> dict:
        return checks.check_train(out / "model", setup_dir / "ds" / "manifest.txt",
                                  TRAIN_EPOCHS)


class Infer:
    """Timed: ``mmreg eval --k-list 1,2,4`` on each test sequence the
    set-up built, with one He-initialized checkpoint; the compute does not
    depend on the weights."""

    def setup(self, s: Runner, dest: Path) -> None:
        for seed, scene in s.scenes(dest):
            s.ingest(scene, seed, s.scale.infer_frames, "test")
        net = model.build_model(model.ModelConfig(channels=CHANNELS, seed=s.seed))
        (dest / "ckpt").mkdir()
        model.save_checkpoint(net, dest / "ckpt" / "checkpoint.mmrc")

    def check_setup(self, s: Runner, dest: Path) -> dict:
        return _summed([checks.check_ingest(scene, s.scale.infer_frames)
                        for _, scene in s.scenes(dest)])

    def run(self, s: Runner, setup_dir: Path, out: Path) -> None:
        for (_, scene), (_, report) in zip(s.scenes(setup_dir), s.scenes(out)):
            s.mmreg("eval", "--checkpoint", setup_dir / "ckpt" / "checkpoint.mmrc",
                    "--dataset", scene / "ds" / "manifest.txt",
                    "--k-list", ",".join(map(str, K_VALUES)), "--out", report)

    def check(self, s: Runner, setup_dir: Path, out: Path) -> dict:
        return _summed([checks.check_eval(report, scene / "ds" / "manifest.txt", K_VALUES)
                        for (_, scene), (_, report) in zip(s.scenes(setup_dir),
                                                           s.scenes(out))])


WORKLOADS = {"ingest": Ingest(), "train": Train(), "infer": Infer()}
