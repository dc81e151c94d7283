"""Command-line entry point wiring the pipeline into reproducible runs.

Subcommands: synth, flow, dataset, train, eval. Flag values resolve as
CLI flag > --config key=value file > built-in default, and every run
writes its resolved configuration next to its outputs. Thread counts
come from mmreg.pipeline (MMREG_THREADS, 0 or unset = auto).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import closing
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import evaluation, flow as flow_mod, model, pipeline, synth
from .offsets import generate_offsets
from .pipeline import FormatError, Frame, quoted, read_frame, read_manifest, write_frame


def parse_channels(text: str) -> list[str]:
    """Accept 'Gr,L,U,V' or compact tokens like 'GrLUV' and 'RGBL'."""
    if "," in text:
        names = [t.strip() for t in text.split(",") if t.strip()]
    else:
        names = []
        rest = text
        by_length = sorted(pipeline.CHANNEL_IDS, key=len, reverse=True)
        while rest:
            for name in by_length:
                if rest.startswith(name):
                    names.append(name)
                    rest = rest[len(name):]
                    break
            else:
                raise ValueError(f"cannot parse channel stack {quoted(text)} at {quoted(rest)}")
    if not names:
        raise ValueError("empty channel stack")
    for name in names:
        if name not in pipeline.CHANNEL_IDS:
            raise ValueError(f"unknown channel {quoted(name)} in {quoted(text)}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate channels in {quoted(text)}")
    return names


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    try:
        x, y = map(float, text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be 'x,y', got {quoted(text)}") from None
    return x, y


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {quoted(text)}") from None
    if not values:
        raise ValueError(f"{what} is empty")
    return values


def _write_run_config(args: argparse.Namespace, out_dir: Path, extra: dict | None = None) -> None:
    skip = {"func", "command", "config"}
    pairs = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    if extra:
        pairs.update(extra)
    lines = [f"{key}={value}" for key, value in pairs.items()]
    (out_dir / "run_config.txt").write_text("\n".join(lines) + "\n")


def _frame_paths(in_dir: Path) -> list[Path]:
    if not in_dir.is_dir():
        raise ValueError(f"frame directory {in_dir} does not exist")
    paths = sorted(in_dir.glob("*.mmf"))
    if not paths:
        raise ValueError(f"no .mmf frames in {in_dir}")
    return paths


def _read_frames(paths: list[Path]) -> Iterator[Frame]:
    """Read frames in order; each must have the first frame's size and
    channels. Only those are kept of the first frame, so the stream holds
    no frame once the next is pulled."""
    size = channels = None
    for path in paths:
        frame = read_frame(path)
        if size is None:
            size, channels = (frame.width, frame.height), frame.channel_names
        if (frame.width, frame.height) != size:
            raise FormatError(f"{path}: frame size {frame.width}x{frame.height} differs "
                              f"from {size[0]}x{size[1]} of {paths[0]}")
        if frame.channel_names != channels:
            raise FormatError(f"{path}: channels {frame.channel_names} differ from "
                              f"{channels} of {paths[0]}")
        yield frame


def _peek_frames(paths: list[Path]) -> tuple[tuple[int, int, list[str]], Iterator[Frame]]:
    """The first frame's (width, height, channel names) and the whole
    stream of _read_frames, which lets go of the first frame once pulled."""
    frames = _read_frames(paths)
    first = next(frames)
    # chain holds its arguments to the end: an exhausted list iterator
    # holds no list, where a list would hold the frame
    return (first.width, first.height, first.channel_names), chain(iter([first]), frames)


def _resolve_frames_dir(manifest_path: Path, manifest, override: str | None) -> Path:
    if override:
        return Path(override)
    recorded = Path(manifest.frames_dir)
    if recorded.is_absolute():
        return recorded
    return manifest_path.parent / recorded


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _scene_config(args) -> synth.SceneConfig:
    """The scene that synth's flags describe, not yet validated."""
    return synth.SceneConfig(
        seed=args.seed,
        frame_count=args.frames,
        width=args.width,
        height=args.height,
        object_count=args.objects,
        object_kinds=tuple(k.strip() for k in args.kinds.split(",") if k.strip()),
        depth_range=(args.depth_min, args.depth_max),
        camera_translation=_parse_pair(args.translate, "--translate"),
        jitter=args.jitter,
        noise_amplitude=args.noise,
    )


def cmd_synth(args) -> int:
    # generate_sequence validates the scene, size ceilings included, before
    # it allocates anything
    frames = synth.generate_sequence(_scene_config(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        write_frame(frame, out / f"frame_{i:05d}.mmf")
    _write_run_config(args, out, extra={"frame_count": len(frames)})
    print(f"wrote {len(frames)} frames to {out}")
    return 0


def cmd_flow(args) -> int:
    paths = _frame_paths(Path(args.in_dir))
    flowed = pipeline.add_flow_channels(_read_frames(paths), args.alpha, args.iters,
                                        args.clamp)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # frames move into out only once all are written, so a failed run leaves
    # out as it was (also when out is in_dir) and no partial sequence passes
    # for a whole one; closing joins the pool's threads even when a write fails
    with tempfile.TemporaryDirectory(dir=out) as staging, closing(flowed):
        for frame, path in zip(flowed, paths):
            write_frame(frame, Path(staging) / path.name)
        for path in paths:
            os.replace(Path(staging) / path.name, out / path.name)
    _write_run_config(args, out, extra={"frame_count": len(paths)})
    print(f"wrote {len(paths)} flow-augmented frames to {out}")
    return 0


def cmd_dataset(args) -> int:
    in_dir = Path(args.in_dir)
    paths = _frame_paths(in_dir)
    offsets = generate_offsets(args.classes, args.major, args.minor, args.rot)
    (_, _, channels), frames = _peek_frames(paths)
    count = int(pipeline.patch_counts(frames, offsets, args.p, args.s, args.tau,
                                      args.fill).sum())
    if count == 0:
        raise ValueError(f"variance filter (tau={args.tau}) dropped every patch; lower tau")
    out = Path(args.out)
    manifest = pipeline.DatasetManifest(
        patch_size=args.p, stride=args.s, channels=channels, offsets=offsets,
        tau=args.tau, fill=args.fill, seed=args.seed, split=args.split,
        frames_dir=os.path.relpath(in_dir, out),
        frame_files=[p.name for p in paths],
        frame_count=len(paths), patch_count=count)
    text = pipeline.manifest_text(manifest)
    # out is made only now, so a failed count or manifest leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.txt").write_text(text)
    _write_run_config(args, out, extra={"patch_count": count})
    print(f"dataset: {count} patches from {len(paths)} frames x {args.classes} offsets "
          f"-> {out / 'manifest.txt'}")
    return 0


def _manifest_frame_paths(manifest_path: Path, manifest, override: str | None) -> list[Path]:
    frames_dir = _resolve_frames_dir(manifest_path, manifest, override)
    if manifest.frame_files:
        return [frames_dir / name for name in manifest.frame_files]
    paths = _frame_paths(frames_dir)
    if len(paths) != manifest.frame_count:
        raise FormatError(f"{manifest_path}: frame_count {manifest.frame_count} but "
                          f"{len(paths)} .mmf frames in {frames_dir}")
    return paths


def cmd_train(args) -> int:
    manifest_path = Path(args.dataset)
    manifest = read_manifest(manifest_path)
    requested = parse_channels(args.channels)
    model.require_channels(requested, manifest.channels)
    # stack in manifest order so checkpoints stay portable
    selected = [c for c in manifest.channels if c in requested]

    filters = _parse_int_list(args.filters, "--filters")
    if len(filters) != 3:
        raise ValueError(f"--filters needs three counts, got {quoted(args.filters)}")
    config = model.ModelConfig(
        patch_size=manifest.patch_size,
        channels=tuple(selected),
        filters=tuple(filters),
        kernel_size=args.kernel,
        n_classes=len(manifest.offsets),
        seed=args.seed,
    )
    train_config = model.TrainConfig(batch_size=args.batch, epochs=args.epochs,
                                     learning_rate=args.lr, momentum=args.momentum,
                                     seed=args.seed)
    train_config.validate()  # before the frames are read
    # and the size ceilings before the weights are made
    model.require_sizes(config, min(train_config.batch_size, manifest.patch_count))
    net = model.build_model(config)

    paths = _manifest_frame_paths(manifest_path, manifest, args.frames)
    (width, height, _), frames = _peek_frames(paths)
    rows, cols = pipeline.patch_grid_shape(height, width, manifest.patch_size, manifest.stride)
    bound = len(paths) * len(manifest.offsets) * rows * cols
    if not 1 <= manifest.patch_count <= bound:
        raise FormatError(f"{manifest_path}: patch_count {manifest.patch_count} outside "
                          f"[1, {bound}] for {len(paths)} frames x {len(manifest.offsets)} "
                          f"offsets x {rows * cols} grid cells")
    # training gathers each batch from the table: no patch is copied out
    # beforehand, and the table keeps only the selected planes of the frames
    table = pipeline.PatchTable(frames, len(paths), manifest.offsets, manifest.patch_size,
                                manifest.stride, manifest.tau, manifest.fill, selected)
    y = table.labels
    if len(y) != manifest.patch_count:
        raise FormatError(f"{manifest_path}: frames reproduce {len(y)} patches, not its "
                          f"patch_count {manifest.patch_count}")

    net, history = model.train(net, table, y, train_config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save_checkpoint(net, out / "checkpoint.mmrc")
    loss_lines = ["epoch,mean_loss"] + [f"{i},{loss:.6f}" for i, loss in enumerate(history)]
    (out / "loss.csv").write_text("\n".join(loss_lines) + "\n")
    _write_run_config(args, out, extra={"samples": len(y), "final_loss":
                                        f"{history[-1]:.6f}" if history else "n/a"})
    print(f"trained on {len(y)} patches for {args.epochs} epochs "
          f"-> {out / 'checkpoint.mmrc'}")
    return 0


def cmd_eval(args) -> int:
    k_values = _parse_int_list(args.k_list, "--k-list")
    checkpoint_path = Path(args.checkpoint)
    if not checkpoint_path.is_file():
        raise ValueError(f"checkpoint {checkpoint_path} does not exist")
    net = model.load_checkpoint(checkpoint_path)

    manifest_path = Path(args.dataset)
    manifest = read_manifest(manifest_path)
    if len(manifest.offsets) != net.config.n_classes:
        raise ValueError(f"manifest has {len(manifest.offsets)} offset classes but the "
                         f"checkpoint predicts {net.config.n_classes}")
    if net.config.patch_size != manifest.patch_size:
        raise ValueError(f"manifest patch size {manifest.patch_size} differs from "
                         f"checkpoint patch size {net.config.patch_size}")
    paths = _manifest_frame_paths(manifest_path, manifest, args.frames)

    report = evaluation.evaluate_run(net, _read_frames(paths), len(paths), manifest.offsets,
                                     k_values, stride=manifest.stride, tau=manifest.tau,
                                     fill=manifest.fill)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    evaluation.emit_report(report, out)
    _write_run_config(args, out)
    patch_acc = evaluation.mean_diagonal_accuracy(report.patch_cm)
    image_acc = evaluation.mean_diagonal_accuracy(report.image_cm)
    print(f"patch mean-diagonal accuracy: {patch_acc:.2f}%")
    print(f"image mean-diagonal accuracy: {image_acc:.2f}%")
    for k in sorted(report.temporal_accuracy):
        print(f"temporal k={k}: {report.temporal_accuracy[k]:.2f}%")
    print(f"report written to {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


class Subcommand(NamedTuple):
    """A subcommand's parser and the type of each flag a --config file may set."""

    parser: argparse.ArgumentParser
    types: dict[str, Callable | None]

    def add(self, *flags, **kwargs) -> None:
        action = self.parser.add_argument(*flags, **kwargs)
        self.types[action.dest] = action.type


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, Subcommand]]:
    parser = argparse.ArgumentParser(
        prog="mmreg",
        description="Detect depth/video misalignment with a patch-vote CNN classifier.")
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, Subcommand] = {}

    def sub(name, func, help_text) -> Subcommand:
        p = subs.add_parser(name, help=help_text,
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", default=None,
                       help="key=value file; CLI flags override its entries")
        p.set_defaults(func=func)
        registry[name] = Subcommand(p, {})
        return registry[name]

    p = sub("synth", cmd_synth, "generate a synthetic multi-modal frame sequence")
    p.add("--out", required=True, help="output directory for MMF frames")
    p.add("--seed", type=int, default=0)
    p.add("--frames", type=int, default=10, help="frame count (>= 2 allows flow)")
    p.add("--width", type=int, default=pipeline.DEFAULT_WIDTH)
    p.add("--height", type=int, default=pipeline.DEFAULT_HEIGHT)
    p.add("--objects", type=int, default=40)
    p.add("--kinds", default="rectangle,ellipse")
    p.add("--depth-min", type=float, default=0.15)
    p.add("--depth-max", type=float, default=0.8)
    p.add("--translate", default="1,0", help="camera translation px/frame as dx,dy")
    p.add("--jitter", type=float, default=1.0, help="per-object drift amplitude px/frame")
    p.add("--noise", type=float, default=0.02, help="additive noise amplitude")

    p = sub("flow", cmd_flow, "add optical-flow channels U,V to a frame directory")
    p.add("--in-dir", required=True, help="directory of MMF frames")
    p.add("--out", required=True)
    p.add("--alpha", type=float, default=flow_mod.DEFAULT_ALPHA,
          help="smoothness weight")
    p.add("--iters", type=int, default=flow_mod.DEFAULT_ITERATIONS,
          help="multigrid V-cycles per frame pair")
    p.add("--clamp", type=float, default=flow_mod.DEFAULT_CLAMP,
          help="flow magnitude mapped to the [0,1] channel range")

    p = sub("dataset", cmd_dataset, "build a labeled patch dataset manifest")
    p.add("--in-dir", required=True, help="directory of flow-augmented MMF frames")
    p.add("--out", required=True)
    p.add("--p", type=int, default=32, help="patch size")
    p.add("--s", type=int, default=32, help="patch stride")
    p.add("--tau", type=float, default=pipeline.DEFAULT_TAU,
          help="depth-variance keep threshold (0 keeps everything)")
    p.add("--classes", type=int, default=9, help="offset class count")
    p.add("--major", type=float, default=32, help="ellipse major axis px")
    p.add("--minor", type=float, default=16, help="ellipse minor axis px")
    p.add("--rot", type=float, default=45, help="clockwise ellipse rotation deg")
    p.add("--fill", type=float, default=pipeline.DEFAULT_FILL,
          help="value written into vacated depth pixels")
    p.add("--split", default="all", help="split name recorded in the manifest")
    p.add("--seed", type=int, default=0,
          help="generator seed recorded for provenance")

    p = sub("train", cmd_train, "train a misalignment classifier on a dataset")
    p.add("--dataset", required=True, help="dataset manifest path")
    p.add("--frames", default=None,
          help="frames directory (default: the manifest's recorded location)")
    p.add("--channels", default="GrLUV",
          help="channel stack, e.g. GrLUV, RGBL, RGBLUV or Gr,L,U,V")
    p.add("--filters", default="32,32,64", help="conv filter counts")
    p.add("--kernel", type=int, default=5, help="conv kernel size (5, 7 or 9)")
    p.add("--lr", type=float, default=0.01)
    p.add("--momentum", type=float, default=0.9)
    p.add("--epochs", type=int, default=30)
    p.add("--batch", type=int, default=100)
    p.add("--seed", type=int, default=0)
    p.add("--out", required=True)

    p = sub("eval", cmd_eval, "evaluate a checkpoint and emit report files")
    p.add("--checkpoint", required=True)
    p.add("--dataset", required=True,
          help="manifest describing the evaluation frames and offsets")
    p.add("--frames", default=None,
          help="frames directory (default: the manifest's recorded location)")
    p.add("--k-list", default="1,2,3,4", help="temporal window sizes")
    p.add("--out", required=True)

    return parser, registry


def _typed_config_defaults(sub: Subcommand, pairs: dict[str, str], source: str) -> dict:
    defaults = {}
    for key, raw in pairs.items():
        if key not in sub.types:
            raise ValueError(f"{source}: unknown config key {quoted(key)}")
        kind = sub.types[key]
        try:
            defaults[key] = kind(raw) if kind else raw
        except ValueError:
            raise ValueError(f"{source}: config key {quoted(key)}: {kind.__name__} expected, "
                             f"got {quoted(raw)}") from None
    return defaults


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            pairs = pipeline.read_key_values(args.config)
            registry[args.command].parser.set_defaults(
                **_typed_config_defaults(registry[args.command], pairs, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a backstop: size flags should be refused by their validators
        # before anything this large is allocated
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
