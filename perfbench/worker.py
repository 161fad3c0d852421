"""Workload process: sets up one workload in a fresh interpreter, then runs
its units in a closed loop (each unit starts when the previous one ends)
until the time budget is spent, and writes timings and outputs to a file.

Only the program calls of a unit are timed; clearing and hashing its
outputs are not. Usage: python3 perfbench/worker.py JOB.json RESULT.json
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu() -> float:
    """CPU seconds of this process and its waited-for children."""
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def tree_digest(base: Path):
    """(sha256 over sorted relative paths and contents, total bytes, file count)."""
    digest = hashlib.sha256()
    total = count = 0
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(base)).encode() + b"\0" + data + b"\0")
        total += len(data)
        count += 1
    return digest.hexdigest(), total, count


class OutputDir:
    """A fixed output path that each unit writes afresh; a unit's output is
    kept under kept/ only when its bytes differ from every earlier unit's."""

    def __init__(self, tmp: Path, name: str):
        self.path = tmp / "out" / name
        self.kept = tmp / "kept"
        self.seen = {}

    def clear(self):
        shutil.rmtree(self.path.parent, ignore_errors=True)
        self.path.parent.mkdir(parents=True)

    def collect(self, k: int) -> dict:
        digest, nbytes, files = tree_digest(self.path.parent)
        record = {"sha": digest, "bytes": nbytes, "files": files, "path": self.seen.get(digest)}
        if record["path"] is None:
            self.kept.mkdir(exist_ok=True)
            os.rename(self.path.parent, self.kept / f"unit{k}")
            record["path"] = self.seen[digest] = str(self.kept / f"unit{k}" / self.path.name)
        return record


class DeskSeed:
    def __init__(self, job, ev):
        self.ev = ev
        self.config = ev.config.load_config(job["config_path"])
        self.seeds = list(self.config.seeds)

    def run(self, k, timed):
        seed = self.seeds[k % len(self.seeds)]
        (report, model, _, _), wall, cpu = timed(self.ev.experiments.run_seed, self.config, seed)
        text = report.to_json()
        output = {
            "seed": seed,
            "report": text,
            "weights": [w.tolist() for w in model.weights],
            "biases": [b.tolist() for b in model.biases],
        }
        return wall, cpu, 1, len(text.encode()), output


class AblateGrid:
    def __init__(self, job, ev):
        self.cli = importlib.import_module("evidunc.cli")
        self.out = OutputDir(Path(job["tmp"]), "grid")
        seeds = ",".join(str(s) for s in job["document"]["seeds"])
        self.argv = ["ablate", "--config", job["config_path"], "--seeds", seeds,
                     "--out", str(self.out.path)]

    def run(self, k, timed):
        self.out.clear()
        code, wall, cpu = timed(self.cli.main, self.argv)
        record = self.out.collect(k)
        record["exit_code"] = code
        return wall, cpu, 1, record["bytes"], record


class QuantifyFile:
    def __init__(self, job, ev):
        self.cli = importlib.import_module("evidunc.cli")
        self.out = OutputDir(Path(job["tmp"]), "records.json")
        self.argv = ["quantify", job["alphas_path"], "--out", str(self.out.path)]

    def run(self, k, timed):
        self.out.clear()
        code, wall, cpu = timed(self.cli.main, self.argv)
        record = self.out.collect(k)
        record["exit_code"] = code
        return wall, cpu, 1, record["bytes"], record


class PoolRounds:
    """Library use of the selection API: a unit is one selection round; a
    pass is all rounds on a fresh pool plus the closing auroc, and its
    time is reported per round."""

    def __init__(self, job, ev):
        import numpy as np

        self.ev = ev
        p = self.params = job["pool"]
        spec = ev.synthetic.DomainSpec(
            num_classes=p["num_classes"],
            feature_dim=p["feature_dim"],
            samples_per_domain=p["samples_per_domain"],
            shift_rotation_degrees=p["shift_rotation_degrees"],
            seed=p["data_seed"],
        )
        self.source, target = ev.synthetic.generate_domain_pair(spec)
        # The generator emits the target sorted by class; shuffled, the ids a
        # round selects sit at random places in the pool, whatever the seed.
        order = np.random.default_rng(p["order_seed"]).permutation(target.size)
        self.target = ev.synthetic.Dataset(target.features[order], target.labels[order], "target")
        self.pool = self._fresh_pool()
        self.model = ev.enn.EvidentialMLP.create(
            p["feature_dim"], p["num_classes"], hidden=tuple(p["hidden"]), seed=p["init_seed"]
        )
        self.plans = ev.sampling.default_round_plans(
            p["samples_per_domain"], num_rounds=p["rounds"],
            budget_fraction=p["budget_fraction"], kappa=p["kappa"],
        )

    def _fresh_pool(self):
        return self.ev.synthetic.split_pools(
            self.source, self.target, budget_fraction=self.params["budget_fraction"]
        )

    def _pass(self, pool):
        ev, mode = self.ev, self.params["mode"]
        rounds = []
        for plan in self.plans:
            chosen_u = ev.sampling.uncertainty_sampling(pool, self.model, plan, mode=mode)
            chosen_c, labels = ev.sampling.certainty_sampling(
                pool, self.model, plan, class_balanced=plan.round_index % 2 == 0, mode=mode
            )
            rounds.append((chosen_u, chosen_c, labels))
        alpha = self.model.forward_batch(self.target.features)
        _, au, eu = ev.metrics.batch_uncertainties(alpha, mode)
        wrong = ev.dirichlet.predict_class_batch(alpha) != pool.true_target_labels()
        return rounds, (ev.metrics.auroc(eu, wrong), ev.metrics.auroc(au, wrong))

    def run(self, k, timed):
        pool = self.pool if k == 0 else self._fresh_pool()
        (rounds, aurocs), wall, cpu = timed(self._pass, pool)
        nbytes = sum(a.nbytes for r in rounds for a in r) + 8 * len(aurocs)
        output = {
            "rounds": [[a.tolist() for a in r] for r in rounds],
            "auroc": list(aurocs),
        }
        return wall, cpu, len(rounds), nbytes, output


WORKLOADS = {
    "desk_seed": DeskSeed,
    "ablate_grid": AblateGrid,
    "quantify_file": QuantifyFile,
    "pool_rounds": PoolRounds,
}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    started = time.perf_counter()
    import evidunc

    import_s = time.perf_counter() - started
    tracer = None
    if job.get("trace_dir"):
        import tracing

        tracer = tracing.install(job["trace_dir"])

    def timed(fn, *args):
        cpu0, wall0 = _cpu(), time.perf_counter()
        result = tracer.call("unit", fn, args) if tracer else fn(*args)
        return result, time.perf_counter() - wall0, _cpu() - cpu0

    build = WORKLOADS[job["workload"]]
    workload = tracer.call("setup", build, (job, evidunc)) if tracer else build(job, evidunc)
    result = {"import_s": import_s, "setup_s": time.perf_counter() - T0}
    if job.get("setup_only"):
        result["cal"] = calibrate()
    else:
        with open(Path(job["tmp"]) / "units.jsonl", "w") as log:
            _closed_loop(workload, timed, job["seconds"], job["min_units"], log)
    result["rss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["rss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if tracer:
        result["unwrapped"] = tracer.missing
        tracer.dump()
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


MAX_ERRORS = 3  # a unit that raised will raise again; stop early

_CAL_DOC = [{"a": [i * 0.1 for i in range(10)], "b": {"c": i, "d": [[1.5] * 5] * 3}}
            for i in range(40)]
_CAL_LIST = list(range(40000))


def calibrate() -> float:
    """Seconds for a fixed piece of work that mixes what the workloads do,
    with no evidunc code in it: an integer loop, indented JSON encoding,
    small numpy operations and scans of a list of ints."""
    import numpy as np

    small = np.linspace(1.0, 2.0, 160).reshape(32, 5)
    start = time.perf_counter()
    total = 0
    for i in range(200000):
        total += i * i
    for _ in range(10):
        json.dumps(_CAL_DOC, indent=2, sort_keys=True)
    for i in range(1500):
        np.log(small + i).sum(axis=1)
    for x in range(20000, 40000, 250):
        _CAL_LIST.index(x)
    return time.perf_counter() - start


def _closed_loop(workload, timed, seconds, min_units, log):
    """Run units until starting another would likely overrun the budget,
    writing one line per unit to the log so that outputs do not stay in
    this process's memory."""
    walls, errors = [], 0
    start = time.perf_counter()
    k = 0
    cal = calibrate()
    while True:
        try:
            wall, cpu, n, out_bytes, output = workload.run(k, timed)
            cal_after = calibrate()
            unit = {"wall": wall, "cpu": cpu, "n": n, "out_bytes": out_bytes, "output": output,
                    "cal": (cal + cal_after) / 2}
            cal = cal_after
            walls.append(wall)
        except Exception:
            unit = {"error": traceback.format_exc(limit=4)}
            errors += 1
        log.write(json.dumps(unit) + "\n")
        k += 1
        elapsed = time.perf_counter() - start
        estimate = statistics.median(walls) if walls else 0.0
        if errors >= MAX_ERRORS or (k >= min_units and elapsed + estimate > seconds):
            return


if __name__ == "__main__":
    sys.exit(main())
