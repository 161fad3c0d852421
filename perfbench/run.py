"""evidunc benchmark: one closed-loop workload per run, checked unit by unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it measures the end-to-end metrics: set-up time as the
median of several fresh interpreters, then one workload process that runs
units back to back for S seconds. With --trace 1 it runs the workload
untraced for S/2 seconds and traced for S/2 seconds, and reports the
per-layer metrics and the tracing overhead. End-to-end timings are scaled
to a reference machine speed by a calibration loop run between units (see
README.md). Every unit's output is checked (see checks.py). Inputs and outputs live in a temporary directory
under the checkout, deleted at the end. The last line of standard output
is the JSON result; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7  # fresh interpreters per run for setup_s
# Seconds worker.calibrate() takes on the reference machine. Timings are
# reported at that machine's speed, because the speed of shared hosts
# drifts by a quarter over minutes.
CAL_REFERENCE_S = 0.07
WORKER_TIMEOUT = 150.0

END_TO_END = [
    ("setup_s", "s"),
    ("unit_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("out_bytes", "bytes"),
    ("ops_ok", "fraction"),
]


class WorkerFailed(RuntimeError):
    pass


def run_worker(job: dict, tmp: Path, tag: str) -> dict:
    """Run worker.py on the job in its own directory and session; return its result."""
    work = tmp / tag
    work.mkdir()
    job = dict(job, root=str(ROOT), tmp=str(work))
    job_path, result_path, log_path = work / "job.json", work / "result.json", work / "log.txt"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, TMPDIR=str(work))
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            proc.wait(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        finally:
            _kill_group(proc)
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text().strip().splitlines()[-3:]
        raise WorkerFailed(f"{tag} worker exited {proc.returncode}: " + " | ".join(tail))
    result = json.loads(result_path.read_text())
    units_path = work / "units.jsonl"
    if units_path.exists():
        result["units"] = [json.loads(line) for line in units_path.read_text().splitlines()]
    return result


def _kill_group(proc):
    """Stop the worker and anything it left in its session, and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _median(values):
    return statistics.median(values) if values else 0.0


def _per_unit(units, key):
    return [u[key] / u["n"] for u in units if "error" not in u]


def _scaled(units, key):
    """Per-unit values of key at the reference machine speed: each scaled
    by CAL_REFERENCE_S over the calibration measured around its unit."""
    return [u[key] / u["n"] * CAL_REFERENCE_S / u["cal"] for u in units if "error" not in u]


def _verdicts(job, units):
    """(units attempted, units failed, failure messages); a pool_rounds
    pass counts as its rounds."""
    verdicts = checks.check_units(job, units)
    attempted = sum(u.get("n", 1) for u in units)
    failed = sum(u.get("n", 1) for u, v in zip(units, verdicts) if v is not None)
    return attempted, failed, sorted({v for v in verdicts if v is not None})


def measure(job: dict, tmp: Path, seconds: float, trace: bool) -> dict:
    """Run the workload and return attempted, failed, messages, metrics, samples."""
    if trace:
        plain = run_worker(dict(job, seconds=seconds / 2, min_units=1), tmp, "plain")
        spans_dir = tmp / "spans"
        spans_dir.mkdir()
        traced = run_worker(dict(job, seconds=seconds / 2, min_units=1,
                                 trace_dir=str(spans_dir)), tmp, "traced")
        runs = [plain["units"], traced["units"]]
        done = [u for u in traced["units"] if "error" not in u]
        overhead = (_median(_per_unit(traced["units"], "wall"))
                    - _median(_per_unit(plain["units"], "wall")))
        metrics = tracing.layer_metrics(tracing.load_spans(spans_dir),
                                        max(sum(u["n"] for u in done), 1),
                                        traced["import_s"], overhead)
        samples = {"untraced_units": len(plain["units"]), "traced_units": len(traced["units"]),
                   "unwrapped": traced["unwrapped"]}
    else:
        setups = [run_worker(dict(job, setup_only=True), tmp, f"setup{i}")
                  for i in range(SETUPS)]
        result = run_worker(dict(job, seconds=seconds, min_units=2), tmp, "run")
        units = result["units"]
        runs = [units]
        values = {
            "setup_s": _median([s["setup_s"] * CAL_REFERENCE_S / s["cal"] for s in setups]),
            "unit_s": _median(_scaled(units, "wall")),
            "cpu_s": _median(_scaled(units, "cpu")),
            "peak_rss_mb": (result["rss_self_kb"] + result["rss_children_kb"]) / 1024.0,
            "out_bytes": _median(_per_unit(units, "out_bytes")),
        }
        samples = {
            "setups": len(setups), "units": len(units),
            "unit_per": "round" if job["workload"] == "pool_rounds" else "unit",
            "unscaled": {"setup_s": _median([s["setup_s"] for s in setups]),
                         "unit_s": _median(_per_unit(units, "wall")),
                         "cpu_s": _median(_per_unit(units, "cpu"))},
            "calibration_s": _median([u["cal"] for u in units if "error" not in u]),
        }
    # Outputs must repeat byte for byte within one workload process.
    verdicts = [_verdicts(job, units) for units in runs]
    attempted, failed = (sum(v[i] for v in verdicts) for i in (0, 1))
    messages = sorted({m for v in verdicts for m in v[2]})
    if not trace:
        values["ops_ok"] = (attempted - failed) / attempted if attempted else 0.0
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
    return {"attempted": attempted, "failed": failed, "messages": messages,
            "metrics": metrics, "samples": samples}


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for path in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(loadavg_start) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "EVID_NUM_WORKERS": os.environ.get("EVID_NUM_WORKERS"),
        "loadavg_start": loadavg_start,
        "loadavg_end": _loadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "evidunc" / "__init__.py").is_file():
        print(f"no evidunc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    loadavg_start = _loadavg()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        job = jobs.make_job(args.workload, args.seed)
        jobs.write_inputs(job, tmp)
        try:
            outcome = measure(job, tmp, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            names = tracing.PER_LAYER if args.trace else END_TO_END
            outcome = {"attempted": 1, "failed": 1, "messages": [str(exc)], "samples": {},
                       "metrics": {n[0]: {"value": 0.0, "unit": n[1]} for n in names}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    for message in outcome["messages"]:
        print(f"failed: {message}", file=sys.stderr)
    print("samples " + json.dumps(outcome["samples"]))
    print("environment " + json.dumps(environment(loadavg_start)))
    print(json.dumps({
        "correct": outcome["failed"] == 0 and outcome["attempted"] > 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
