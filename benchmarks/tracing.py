"""Span recording at mmreg module boundaries, and the per-layer metrics
derived from the spans.

A Tracer replaces module attributes that callers look up at call time
(for example ``mmreg.nn.conv2d_forward``, which ``mmreg.model`` calls as
``nn.conv2d_forward``) with wrappers that record one span per call: name,
start, end, parent span and thread. Nothing inside ``src/`` changes, and
``uninstall`` restores every original. Timed runs never install it.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

STAGES = 3  # conv+relu+pool stages of the mmreg network
CLI_COMMANDS = ("synth", "flow", "dataset", "train", "eval")


class Tracer:
    """Collects spans in memory; ``write`` saves them when the run ends."""

    def __init__(self, patch_size: int):
        self.patch_size = patch_size
        self.phase = "setup"
        self.active = False
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {"name": name, "phase": self.phase, "thread": threading.get_ident(),
               "parent": stack[-1]["id"] if stack else None}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            stack.pop()

    def _replace(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper(original)))

    def wrap(self, module, attr: str, name, attrs=None) -> None:
        """Record a span per call; ``name`` may be a function of the call's
        arguments, ``attrs`` a function of (args, kwargs, result)."""
        def make(original):
            def wrapper(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                with self.span(label) as rec:
                    result = original(*args, **kwargs)
                    if attrs is not None:
                        rec.update(attrs(args, kwargs, result))
                    return result
            return wrapper
        self._replace(module, attr, make)

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """One span from the first item of the returned iterator to its end."""
        def make(original):
            def wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)

                def traced():
                    with self.span(name):
                        yield from inner
                return traced()
            return wrapper
        self._replace(module, attr, make)

    def install(self) -> None:
        """Wrap the mmreg functions the CLI pipeline reaches, by layer."""
        from mmreg import cli, evaluation, flow, model, nn, pipeline, synth

        stage = self._stage
        self.wrap(nn, "conv2d_forward", lambda x, *a, **k: f"nn.conv{stage(x.shape[-3])}.fwd",
                  attrs=_conv_cost)
        self.wrap(nn, "relu", lambda x: f"nn.relu{stage(x.shape[-3])}.fwd")
        self.wrap(nn, "maxpool2x2_forward", lambda x: f"nn.pool{stage(x.shape[-3])}.fwd")
        self.wrap(nn, "maxpool2x2_backward",
                  lambda idx, up: f"nn.pool{stage(2 * up.shape[-3])}.bwd")
        self.wrap(nn, "relu_backward", lambda x, up: f"nn.relu{stage(x.shape[-3])}.bwd")
        self.wrap(nn, "conv2d_backward",
                  lambda x, *a, **k: f"nn.conv{stage(x.shape[-3])}.bwd")
        self.wrap(nn, "softmax", "nn.softmax")
        self.wrap(nn, "sgd_step", "nn.sgd_step")

        self.wrap(model, "train", "model.train")
        self.wrap(model, "_batch_loss_and_grads", "model.loss_and_grads")
        self.wrap(model, "load_checkpoint", "model.load_checkpoint")
        self.wrap(model, "save_checkpoint", "model.save_checkpoint")
        # evaluation imported these names from mmreg.model
        self.wrap(evaluation, "predict_batch", "model.predict_batch")
        self.wrap(evaluation, "vote_frame", "model.vote_frame")
        self.wrap(evaluation, "temporal_fuse", "model.temporal_fuse")
        self.wrap(evaluation, "evaluate_run", "evaluation.evaluate_run")
        self.wrap(evaluation, "emit_report", "evaluation.emit_report")

        self.wrap(flow, "estimate_flow", "flow.estimate_flow",
                  attrs=lambda a, k, r: {"iterations": k.get("iterations",
                                                             flow.DEFAULT_ITERATIONS)})
        self.wrap(flow, "flow_to_channels", "flow.flow_to_channels")
        self.wrap(synth, "generate_sequence", "synth.generate_sequence")

        # the CLI imported these names from mmreg.pipeline
        self.wrap(cli, "read_frame", "pipeline.read_frame")
        self.wrap(cli, "write_frame", "pipeline.write_frame")
        self.wrap(cli, "read_manifest", "pipeline.read_manifest")
        self.wrap_generator(pipeline, "iter_patch_samples", "pipeline.iter_patch_samples")

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def recording(self, phase: str):
        """Wrappers installed, and spans labelled ``phase``, inside the block."""
        self.phase = phase
        self.install()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.uninstall()

    def _stage(self, height: int) -> int:
        return round(math.log2(self.patch_size / height))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _conv_cost(args, kwargs, result) -> dict:
    """Work of one conv forward from tensor sizes (computed, not measured):
    multiply-adds of the cross-correlation and the float bytes that must
    move at least once (input, kernels, biases, output)."""
    x, params = args[0], args[1]
    k_count, k, _, c_in = params.kernels.shape
    flop = 2.0 * (result.size // k_count) * k_count * k * k * c_in
    nbytes = x.itemsize * (x.size + params.kernels.size + params.biases.size + result.size)
    return {"gflop": flop / 1e9, "bytes": float(nbytes)}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its child spans cover."""
    child = {}
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] = child.get(rec["parent"], 0.0) + rec["end"] - rec["start"]
    return {rec["id"]: rec["end"] - rec["start"] - child.get(rec["id"], 0.0) for rec in spans}


def _batch_durations(spans: list[dict]) -> list[tuple[float, float]]:
    """(batch seconds, loss-and-grads seconds) per SGD batch.

    A batch runs from the start of its loss-and-grads call to the start of
    the next one in the same ``model.train`` call; the last batch ends with
    the last parameter update.
    """
    by_parent: dict[int, list[dict]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            by_parent.setdefault(rec["parent"], []).append(rec)
    out = []
    for rec in spans:
        if rec["name"] != "model.train":
            continue
        children = sorted(by_parent.get(rec["id"], []), key=lambda r: r["start"])
        grads = [c for c in children if c["name"] == "model.loss_and_grads"]
        for i, g in enumerate(grads):
            if i + 1 < len(grads):
                end = grads[i + 1]["start"]
            else:
                end = max((c["end"] for c in children
                           if c["name"] == "nn.sgd_step" and c["start"] >= g["end"]),
                          default=g["end"])
            out.append((end - g["start"], g["end"] - g["start"]))
    return out


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Spans of the timed commands ("op" phase) are used; a span name that
    the timed commands never reach is taken from the traced set-up, so
    that e.g. flow is measured on the train workload too. Times are means
    per call unless the name says otherwise; a layer with no calls on a
    workload reports 0.
    """
    ops = [r for r in spans if r["phase"] == "op"]
    op_names = {r["name"] for r in ops}
    used = ops + [r for r in spans if r["phase"] == "setup" and r["name"] not in op_names]
    selfs = self_times(spans)
    groups: dict[str, list[dict]] = {}
    for rec in used:
        groups.setdefault(rec["name"], []).append(rec)

    def total(name, self_only=False):
        return sum(selfs[r["id"]] if self_only else r["end"] - r["start"]
                   for r in groups.get(name, []))

    def per_call(name, scale, self_only=False):
        n = len(groups.get(name, []))
        return total(name, self_only) / n * scale if n else 0.0

    def mean_attr(name, key):
        recs = groups.get(name, [])
        return sum(r[key] for r in recs) / len(recs) if recs else 0.0

    m: dict[str, tuple[float, str]] = {}
    for i in range(STAGES):
        for kind in ("conv", "pool", "relu"):
            for direction in ("fwd", "bwd"):
                name = f"nn.{kind}{i}.{direction}"
                m[f"{name}_ms"] = (per_call(name, 1e3, self_only=True), "ms")
        fwd = f"nn.conv{i}.fwd"
        seconds = total(fwd, self_only=True)
        m[f"nn.conv{i}.gflop"] = (mean_attr(fwd, "gflop"), "GFLOP")
        m[f"nn.conv{i}.bytes"] = (mean_attr(fwd, "bytes"), "B")
        m[f"nn.conv{i}.fwd_gflops"] = (
            sum(r["gflop"] for r in groups.get(fwd, [])) / seconds if seconds else 0.0,
            "GFLOP/s")
    m["nn.softmax_ms"] = (per_call("nn.softmax", 1e3), "ms")

    batches = _batch_durations(used)
    m["nn.sgd_step_ms"] = (total("nn.sgd_step") / len(batches) * 1e3 if batches else 0.0, "ms")
    batch_ms = [b * 1e3 for b, _ in batches]
    m["model.train.batches"] = (float(len(batches)), "count")
    m["model.train.batch_ms.p50"] = (statistics.median(batch_ms) if batch_ms else 0.0, "ms")
    m["model.train.batch_ms.p90"] = (_percentile(batch_ms, 0.9) if batch_ms else 0.0, "ms")
    m["model.loss_and_grads_ms"] = (per_call("model.loss_and_grads", 1e3), "ms")
    m["model.update_ms"] = (statistics.fmean(b - g for b, g in batches) * 1e3
                            if batches else 0.0, "ms")
    m["model.predict_batch_ms"] = (per_call("model.predict_batch", 1e3), "ms")
    m["model.vote_frame_us"] = (per_call("model.vote_frame", 1e6), "us")
    m["model.temporal_fuse_us"] = (per_call("model.temporal_fuse", 1e6), "us")
    m["model.load_checkpoint_ms"] = (per_call("model.load_checkpoint", 1e3), "ms")
    m["model.save_checkpoint_ms"] = (per_call("model.save_checkpoint", 1e3), "ms")

    m["evaluation.evaluate_run_s"] = (per_call("evaluation.evaluate_run", 1.0), "s")
    m["evaluation.grid_self_ms"] = (per_call("evaluation.evaluate_run", 1e3, self_only=True),
                                    "ms")
    m["evaluation.emit_report_ms"] = (per_call("evaluation.emit_report", 1e3), "ms")

    m["flow.estimate_flow_ms"] = (per_call("flow.estimate_flow", 1e3), "ms")
    m["flow.iterations"] = (mean_attr("flow.estimate_flow", "iterations"), "count")
    m["flow.flow_to_channels_ms"] = (per_call("flow.flow_to_channels", 1e3), "ms")
    m["synth.generate_sequence_ms"] = (per_call("synth.generate_sequence", 1e3), "ms")

    m["pipeline.read_frame_ms"] = (per_call("pipeline.read_frame", 1e3), "ms")
    m["pipeline.write_frame_ms"] = (per_call("pipeline.write_frame", 1e3), "ms")
    m["pipeline.iter_patch_samples_ms"] = (
        per_call("pipeline.iter_patch_samples", 1e3, self_only=True), "ms")
    m["pipeline.read_manifest_ms"] = (per_call("pipeline.read_manifest", 1e3), "ms")

    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = (per_call(f"cli.{command}", 1.0), "s")
        m[f"cli.{command}.self_s"] = (per_call(f"cli.{command}", 1.0, self_only=True), "s")
    return m
