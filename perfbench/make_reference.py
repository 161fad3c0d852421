"""Regenerate reference_seed0.json: accuracies, selected ids and AUROCs the
program gives on the default workload seed, which run.py then requires on
that seed. Each unit must first pass every other check.

    python3 perfbench/make_reference.py

Run it only for a change that is meant to move those values, and say so.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import jobs
import run


def _units(workload: str, tmp: Path, count: int):
    job = jobs.make_job(workload, checks.DEFAULT_SEED)
    jobs.write_inputs(job, tmp)
    units = run.run_worker(dict(job, seconds=0, min_units=count), tmp, workload)["units"]
    failures = [v for v in checks.check_units(job, units) if v is not None]
    if failures:
        sys.exit(f"{workload}: {failures[0]}")
    return job, units


def main() -> int:
    checks.load_reference = lambda job: None  # the file is being replaced
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        reference = {}
        job, units = _units("desk_seed", tmp, jobs.DESK_SEEDS)
        reference["desk_seed"] = {
            str(u["output"]["seed"]): checks.run_summary(json.loads(u["output"]["report"]))
            for u in units
        }
        job, units = _units("ablate_grid", tmp, 1)
        grid = Path(units[0]["output"]["path"]) / "ablation"
        reference["ablate_grid"] = {
            name: {
                str(seed): checks.run_summary(json.loads(
                    next((grid / name).iterdir()).joinpath(f"seed{seed}", "report.json")
                    .read_text()))
                for seed in job["document"]["seeds"]
            }
            for name, _ in checks.ABLATION_ROWS
        }
        job, units = _units("pool_rounds", tmp, 1)
        out = units[0]["output"]
        reference["pool_rounds"] = {
            "rounds_sha": hashlib.sha256(json.dumps(out["rounds"]).encode()).hexdigest(),
            "auroc": out["auroc"],
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
