"""One phase of a benchmark run, in its own process so that peak RSS
belongs to that phase alone. run.py starts it as

    python3 worker.py REQUEST.json

and reads the result from the request's ``result_path``. Phases:

- ``setup``: build the workload's inputs ``setup_repeats`` times, timing
  each, and check that every repeat wrote the same bytes.
- ``timed``: one warm-up operation, then operations until ``seconds``
  have passed; no tracing.
- ``traced``: one recorded set-up, then the operation loop with every
  other operation recorded; writes the spans and the per-layer metrics.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _openblas():
    """numpy's bundled OpenBLAS, or None when it cannot be found."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    return ctypes.CDLL(libs[0]) if libs else None


def environment() -> dict:
    import numpy as np
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "cpu_count": os.cpu_count(),
           "MMREG_THREADS": os.environ.get("MMREG_THREADS"),
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
           "blas": None, "blas_version": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"], env["blas_version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    lib = _openblas()
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None) if lib is not None else None
        if fn is not None:
            fn.restype = ctypes.c_int
            env["blas_threads"] = fn()
            break
    return env


def _failure(what: str, exc: BaseException) -> str:
    where = "".join(traceback.format_tb(exc.__traceback__)[-3:])
    return f"{what}: {type(exc).__name__}: {exc}\n{where}"


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _recording(tracer, phase: str):
    return tracer.recording(phase) if tracer is not None else nullcontext()


def run_setups(runner, workload, work: Path, repeats: int, tracer=None) -> dict:
    """Build the inputs ``repeats`` times into work/setup<i>; keep setup0."""
    from checks import CheckFailed, tree_digests
    times, errors, info, first = [], [], {}, None
    for r in range(repeats):
        dest = _fresh(work / f"setup{r}")
        try:
            with _recording(tracer, "setup"):
                start = time.perf_counter()
                workload.setup(runner, dest)
                times.append(time.perf_counter() - start)
            digests = tree_digests(dest)
            if first is None:
                first = digests
                info = workload.check_setup(runner, dest)
            elif digests != first:
                raise CheckFailed(f"set-up repeat {r} wrote different bytes than repeat 0")
        except Exception as exc:  # any raise is a failed operation; keep measuring
            errors.append(_failure(f"set-up {r}", exc))
        if r:
            shutil.rmtree(dest)
    return {"setup_s": times, "attempted": repeats, "errors": errors, "info": info,
            "digests": {f"setup/{k}": v for k, v in (first or {}).items()}}


def run_ops(runner, workload, setup_dir: Path, work: Path, seconds: float,
            tracer=None) -> dict:
    """A warm-up operation, then operations until ``seconds`` have passed.

    Each operation writes a fresh directory, is checked, and must write
    the same bytes as the warm-up. With a tracer, operations alternate
    between recorded (the warm-up among them) and not recorded, so that
    both see the same machine load.
    """
    from checks import CheckFailed, tree_digests
    walls, works, traced_walls, errors, infos, first = [], [], [], [], [], None
    rss = 0.0
    attempted = 0
    deadline = None
    # the warm-up, then at least one measured operation of each kind
    min_attempts = 3 if tracer is not None else 2
    while attempted < min_attempts or time.perf_counter() < deadline:
        out = _fresh(work / "op")
        traced = tracer is not None and attempted % 2 == 0
        attempted += 1
        try:
            with _recording(tracer if traced else None, "op" if deadline else "warmup"):
                start = time.perf_counter()
                workload.run(runner, setup_dir, out)
                wall = time.perf_counter() - start
            rss = _rss_mb()
            info = workload.check(runner, setup_dir, out)
            digests = tree_digests(out)
            if first is None:
                first = digests
            elif digests != first:
                raise CheckFailed(f"operation {attempted - 1} wrote different bytes "
                                  "than the warm-up")
            infos.append(info)
            if deadline is not None:
                (traced_walls if traced else walls).append(wall)
                if not traced:
                    works.append(info["work"])
        except Exception as exc:  # any raise is a failed operation; keep measuring
            errors.append(_failure(f"operation {attempted - 1}", exc))
        if deadline is None:
            deadline = time.perf_counter() + seconds
    shutil.rmtree(work / "op", ignore_errors=True)
    return {"op_wall_s": walls, "op_work": works, "traced_wall_s": traced_walls,
            "attempted": attempted, "errors": errors, "peak_rss_mb": rss,
            "info": infos[0] if infos else {},
            "digests": {f"op/{k}": v for k, v in (first or {}).items()}}


def main() -> int:
    req = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, req["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    from workloads import PATCH_SIZE, SCALES, WORKLOADS, Runner

    scale = SCALES[req["scale"]]
    workload = WORKLOADS[req["workload"]]
    work = Path(req["work_dir"])
    phase = req["phase"]
    tracer = tracing.Tracer(patch_size=PATCH_SIZE) if phase == "traced" else None
    runner = Runner(scale, req["seed"], tracer)

    if phase == "setup":
        result = run_setups(runner, workload, work, scale.setup_repeats)
    elif phase == "timed":
        result = run_ops(runner, workload, Path(req["setup_dir"]), work, req["seconds"])
    else:
        setup = run_setups(runner, workload, work, 1, tracer)
        result = run_ops(runner, workload, work / "setup0", work, req["seconds"], tracer)
        tracer.write(Path(req["spans_path"]))
        result["attempted"] += setup["attempted"]
        result["errors"] = setup["errors"] + result["errors"]
        result["setup_info"] = setup["info"]
        result["digests"] = {**setup["digests"], **result["digests"]}
        result["layers"] = tracing.layer_metrics(tracer.spans)
    result["env"] = environment()
    Path(req["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
