"""mmreg benchmark: three CLI workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload {ingest,train,infer} --seed N \
        --seconds S --trace {0,1}

It builds nothing: it imports mmreg from ./src. With --trace 0 it sets up
the workload's inputs several times (setup_s is the median), then runs the
workload's operation for S seconds after one warm-up, in a fresh process
without tracing, and prints the end-to-end metrics. With --trace 1 it sets
up once and runs the operations for S seconds, recording spans at mmreg's
module boundaries in every other one, and prints the per-layer metrics.
Every operation's output is checked; the last line of standard output is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the environment, the output digests and the
metrics under the names benchmarks/README.md uses. Both lines are also
written to .bench_out/, next to the spans of traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
WORKLOADS = ("ingest", "train", "infer")
# per-workload unit of work and the name this repository's docs give the rate
THROUGHPUT_NAMES = {"ingest": "ingest_frames_per_s", "train": "train_patches_per_s",
                    "infer": "infer_patches_per_s"}
MAX_THREADS = 4
# OpenBLAS gains little from a second thread on these small GEMMs, and its
# threads wait for each other, so time stolen from either core stalls
# both. One BLAS thread keeps timings steady; MMREG_THREADS still gets
# every core for the pipeline's own worker threads.
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mmreg").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_worker(request: dict, work: Path, env: dict, deadline: float) -> dict:
    phase = request["phase"]
    request = dict(request, work_dir=str(work), src=str(SRC),
                   result_path=str(work / f"{phase}.result.json"))
    request_path = work / f"{phase}.request.json"
    request_path.write_text(json.dumps(request))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(request_path)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} phase did not finish within the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{phase} phase exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(Path(request["result_path"]).read_text())


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(setup: dict, timed: dict) -> dict[str, tuple[float, str]]:
    rates = [w / t for w, t in zip(timed["op_work"], timed["op_wall_s"])]
    info, setup_info = timed["info"], setup["info"]
    return {
        "throughput_per_s": (_median(rates), "1/s"),
        "setup_s": (_median(setup["setup_s"]), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "flow_epe_px": (info.get("flow_epe_px", setup_info.get("flow_epe_px", 0.0)), "px"),
    }


def per_layer(traced: dict) -> dict[str, tuple[float, str]]:
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    info, setup_info = traced["info"], traced["setup_info"]
    counts = info if "patches_kept" in info else setup_info
    kept, total = counts.get("patches_kept", 0), counts.get("patches_total", 0)
    metrics["pipeline.patches_total"] = (float(total), "count")
    metrics["pipeline.patches_kept"] = (float(kept), "count")
    metrics["pipeline.keep_rate"] = (kept / total if total else 0.0, "ratio")
    metrics["evaluation.no_decision_frames"] = (float(info.get("no_decision_frames", 0)),
                                                "count")
    metrics["model.train_loss"] = (info.get("train_loss", 0.0), "nats")
    traced_s, plain_s = _median(traced["traced_wall_s"]), _median(traced["op_wall_s"])
    metrics["trace_overhead_pct"] = ((traced_s / plain_s - 1.0) * 100.0 if plain_s else 0.0,
                                     "%")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: small frames for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "mmreg" / "__init__.py").is_file():
        print(f"error: no mmreg package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = min(len(os.sched_getaffinity(0)), MAX_THREADS)
    env = dict(os.environ, MMREG_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    base = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "scale": args.scale}
    try:
        if args.trace == 0:
            setup = run_worker(dict(base, phase="setup"), work, env, deadline)
            timed = run_worker(dict(base, phase="timed", setup_dir=str(work / "setup0")),
                               work, env, deadline)
            phases = [setup, timed]
        else:
            timed = run_worker(dict(base, phase="traced",
                                    spans_path=str(OUT_ROOT / f"spans-{tag}.jsonl")),
                               work, env, deadline)
            phases = [timed]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in phases)
    errors = [e for p in phases for e in p["errors"]]
    failed_pct = 100.0 * len(errors) / attempted
    if args.trace == 0:
        metrics = end_to_end(setup, timed)
        named = {THROUGHPUT_NAMES[args.workload]: metrics["throughput_per_s"],
                 "setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
                 "failed_pct": (failed_pct, "%"), "flow_epe_px": metrics["flow_epe_px"]}
        if "train_loss" in timed["info"]:
            named["train_loss"] = (timed["info"]["train_loss"], "nats")
    else:
        metrics = per_layer(timed)
        metrics["cli.failed_pct"] = (failed_pct, "%")
        named = dict(metrics)

    env_record = dict(timed["env"], git_sha=_git_sha(), src_sha256=_src_digest())
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "scale": args.scale, "env": env_record,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples": {"setup_s": phases[0].get("setup_s", []), "op_wall_s": timed["op_wall_s"],
                    "traced_wall_s": timed["traced_wall_s"], "op_work": timed["op_work"]},
        "digests": {k: v for p in phases for k, v in p["digests"].items()},
        "errors": errors,
    }
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"result-{tag}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
