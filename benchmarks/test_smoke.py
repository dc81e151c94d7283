"""Toy-scale smoke test of the benchmark: every workload in both trace
modes prints every metric BENCHMARK.json names, with its unit, and every
output check passes.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {"ingest": "ingest_frames_per_s", "train": "train_patches_per_s",
         "infer": "infer_patches_per_s"}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _assert_units(metrics: dict, expected: dict) -> None:
    assert set(metrics) == set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, name
        assert isinstance(metrics[name]["value"], float), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_and_checks(workload):
    report, result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report
    _assert_units(result["metrics"], {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    for name in ("setup_s", "peak_rss_mb", "flow_epe_px", "throughput_per_s"):
        assert result["metrics"][name]["value"] > 0, name

    named = {NAMED[workload]: "1/s", "setup_s": "s", "peak_rss_mb": "MB",
             "failed_pct": "%", "flow_epe_px": "px"}
    if workload == "train":
        named["train_loss"] = "nats"
    _assert_units(report["metrics"], named)
    assert report["metrics"]["failed_pct"]["value"] == 0.0
    assert report["digests"] and all(len(d) == 64 for d in report["digests"].values())
    for key in ("numpy", "blas_version", "cpu_count", "MMREG_THREADS", "blas_threads",
                "src_sha256"):
        assert report["env"][key] is not None, key


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics(workload):
    report, result = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0, report
    _assert_units(result["metrics"], {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    spans = ROOT / ".bench_out" / f"spans-{workload}-seed3-trace1.jsonl"
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert records and all({"name", "start", "end", "parent"} <= set(r) for r in records)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.failed_pct"] == 0.0
    assert m["flow.estimate_flow_ms"] > 0 and m["synth.generate_sequence_ms"] > 0
    if workload == "train":
        assert m["nn.conv0.bwd_ms"] > 0 and m["model.train.batches"] > 0
        assert m["model.train_loss"] > 0
    if workload == "infer":
        assert m["nn.conv0.fwd_ms"] > 0 and m["nn.conv0.bwd_ms"] == 0.0
        assert m["model.predict_batch_ms"] > 0 and m["cli.eval_s"] > 0
    if workload == "ingest":
        assert m["nn.conv0.fwd_ms"] == 0.0 and m["cli.dataset_s"] > 0
