"""Self-test of the benchmark at toy sizes (about half a minute).

    python3 perfbench/selftest.py

Asserts that every metric BENCHMARK.json names is emitted on every
workload, that self times plus children add up to each root span, and
that a corrupted output counts as a failed unit.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import jobs
import run
import tracing

SEED = 1


def assert_metrics_named():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _, _ in tracing.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
    return bench


def assert_self_times_add_up(spans):
    """Within one process, the self times of a root's subtree sum to its duration."""
    selfs = tracing.self_times(spans)
    root_of = tracing.roots(spans)
    total = {}
    for s in spans:
        total[root_of[s[0]]] = total.get(root_of[s[0]], 0.0) + selfs[s[0]]
    by_id = {s[0]: s for s in spans}
    pids = {}
    for s in spans:
        pids.setdefault(root_of[s[0]], set()).add(s[0] // 1_000_000_000)
    assert all(t >= -1e-9 for t in selfs.values())
    checked = 0
    for root, summed in total.items():
        r = by_id[root]
        if len(pids[root]) == 1:
            assert math.isclose(summed, r[tracing.END] - r[tracing.START], rel_tol=1e-9,
                                abs_tol=1e-9), (r[2], summed)
            checked += 1
    return checked


def run_workloads(tmp: Path, bench):
    for workload in jobs.WORKLOADS:
        job = jobs.make_job(workload, SEED, toy=True)
        jobs.write_inputs(job, tmp)
        for trace, metrics in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            where = tmp / f"{workload}-{int(trace)}"
            where.mkdir()
            out = run.measure(job, where, 1.0, trace)
            assert out["attempted"] > 0 and out["failed"] == 0, (workload, out["messages"])
            assert set(out["metrics"]) == {m["name"] for m in metrics}, workload
            assert all(v["unit"] == m["unit"] for m in metrics
                       for v in [out["metrics"][m["name"]]])
            if trace:
                assert not out["samples"]["unwrapped"], out["samples"]["unwrapped"]
                checked = assert_self_times_add_up(tracing.load_spans(where / "spans"))
                assert checked > 0, workload
        print(f"ok   {workload}: metrics emitted, self times add up")


def corrupted_outputs_fail(tmp: Path):
    job = jobs.make_job("desk_seed", SEED, toy=True)
    jobs.write_inputs(job, tmp)
    units = run.run_worker(dict(job, seconds=0, min_units=2), tmp, "corrupt-desk")["units"]
    report = json.loads(units[1]["output"]["report"])
    report["final_accuracy"] = 1.0 - report["final_accuracy"]
    units[1]["output"]["report"] = json.dumps(report)
    verdicts = checks.check_units(job, units)
    assert verdicts[0] is None and verdicts[1] is not None, verdicts

    job = jobs.make_job("quantify_file", SEED, toy=True)
    jobs.write_inputs(job, tmp)
    units = run.run_worker(dict(job, seconds=0, min_units=1), tmp, "corrupt-quantify")["units"]
    path = Path(units[0]["output"]["path"])
    records = json.loads(path.read_text())
    records[3]["uncertainty"]["entropy"]["sample"]["epistemic"] *= 1 + 1e-9
    path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    assert checks.check_units(job, units)[0] is not None
    print("ok   corrupted outputs count as failed units")


def main() -> int:
    bench = assert_metrics_named()
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        run_workloads(tmp, bench)
        corrupted_outputs_fail(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
