"""Multi-seed experiment driver.

Each seed gets its own run directory under ``<output_dir>/<config hash>/``
holding the run report, selection log, uncertainty histograms, loss curve,
and final model checkpoint. An ``aggregate.json`` next to the seed
directories carries mean and standard deviation of the final target
accuracy plus averaged diagnostics.

Every output is a pure function of the config, so rerunning a config
rewrites byte-identical files. Nothing here reads the clock.

Seeds from the config expand into three independent component seeds (data
generation, weight init, batch shuffling) so that, say, adding an epoch
never perturbs the dataset.

Rows of a grid that differ only in their US, CS and class-balance switches
form a group, whose seeds are cut into contiguous chunks of at most
``MAX_LOCKSTEP_SEEDS`` (fewer where their domain features would pass
``LOCKSTEP_FEATURE_BYTES``), as even as possible and enough to give every
worker one where the seeds allow. A prefix task trains a chunk's seeds in
lockstep along a leading seed axis up to the first scheduled round and
returns that state pickled; a row task per row then finishes and writes
every seed of the chunk from its own copy. Each seed still gets its own 2-D
model and writes the same bytes as a one-seed chunk would. The workers are
the CPUs this process may use, capped by the EVID_NUM_WORKERS environment
variable; one runs the tasks in this process, more share one process pool.
``run_seed`` is a one-seed chunk run the same way in this process: its
prefix task, then its row task, writing nothing.

``run_seed`` and ``run_rows`` run the OpenBLAS of numpy's 2.x wheels on one
thread for the call and give the caller's count back, also when they raise:
the training GEMMs are at most 64 columns wide, so a second thread saves no
wall time but spins after each larger forward, and P workers with two each
would oversubscribe the CPUs. The count is process-wide, so concurrent calls
from several Python threads are not covered. Other BLAS builds keep their count.

The same calls, in the process that trains (the pool workers as they
start), also set glibc's heap thresholds once per process with
``mallopt``: freed memory is kept up to 64 MiB (``M_TRIM_THRESHOLD``) and
blocks under 32 MiB come from the heap (``M_MMAP_THRESHOLD``). A training
step frees arrays of a few hundred KiB that glibc's default 128 KiB
thresholds would hand back to the kernel and fault in again on the next
step. The setting stays for the life of the process, as glibc cannot
report the thresholds to restore; without ``mallopt`` (another libc)
nothing changes.

A run deletes its completion markers (``aggregate.json``, ``ablation.json``)
before its first task and writes them again only when every task succeeded,
so a failed rerun never leaves a directory that looks complete.

This module owns the format of every run-directory file, and one writer,
``_write_atomic``, writes each of them whole: a temporary file in the same
directory, then ``os.replace``. A process that crashes mid-write leaves the
old file or none, never a truncated one. Nothing is fsynced, so a power
loss is not covered.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import heapq
import json
import os
import pickle
import signal
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from itertools import accumulate
from pathlib import Path

import numpy as np

from .config import AblationSwitches, ConfigError, ExperimentConfig, config_hash
from .enn import EvidentialMLP, TrainingDivergedError, checkpoint_text
from .metrics import export_uncertainty_histograms
from .sampling import start_rows
from .synthetic import generate_domain_pair, split_pools

__all__ = [
    "run_seed",
    "run_experiment",
    "run_ablation",
    "run_rows",
    "aggregate_reports",
    "ABLATION_ROWS",
]

# Seeds one chunk trains in lockstep at most: a desk step's cost per seed
# bottoms out near 8 seeds and rises again beyond.
MAX_LOCKSTEP_SEEDS = 8
# Domain features, source and target, that one chunk's seeds may hold
# together. A task's peak memory grows by about 4x a seed's features for each
# seed it trains (52 MB a seed at 50,000 x 16 features a domain), so
# large domains train fewer seeds together, down to one.
LOCKSTEP_FEATURE_BYTES = 32 * 2**20

# Ablation grid: each row toggles one more stage on top of the previous.
ABLATION_ROWS = tuple((AblationSwitches(**flags).row_name(), flags) for flags in (
    {"ug": False, "us": False, "cs": False},
    {"ug": True, "us": False, "cs": False},
    {"ug": False, "us": True, "cs": False},
    {"ug": True, "us": True, "cs": False},
    {"ug": True, "us": True, "cs": True},
))


def _component_seeds(seed: int):
    state = np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64)
    return (int(state[0]), int(state[1]), int(state[2]))


def _seed_named(seeds, fn, *args, **kwargs):
    """Call ``fn``, naming the diverged seed in a TrainingDivergedError."""
    try:
        return fn(*args, **kwargs)
    except TrainingDivergedError as exc:
        raise TrainingDivergedError(f"seed {seeds[exc.slot]}: {exc}", exc.slot) from None


def run_seed(config: ExperimentConfig, seed: int):
    """Run one seed end to end as a one-seed chunk in this process: its
    prefix task, then its row task; returns (report, model, source, target)."""
    _heap_setting()
    with _one_blas_thread():
        [(report, model)] = _row_task(_prefix_task([config], [seed]), config, [seed], None)
    source, target = generate_domain_pair(config.domain_spec(_component_seeds(seed)[0]))
    return report, model, source, target


def _prefix_task(configs, seeds) -> bytes:
    """A prefix task: build the data and models of the seed chunk ``seeds``
    and train them in lockstep up to the first round of ``configs``, which
    differ only in their US, CS and class-balance switches; returns that
    state pickled."""
    config = configs[0]
    models, pools, train_cfgs = [], [], []
    for seed in seeds:
        data_seed, init_seed, train_seed = _component_seeds(seed)
        spec = config.domain_spec(data_seed)
        source, target = generate_domain_pair(spec)
        pools.append(split_pools(source, target, budget_fraction=config.budget_fraction))
        models.append(EvidentialMLP.create(spec.feature_dim, spec.num_classes,
                                           hidden=config.hidden_layers, seed=init_seed))
        train_cfgs.append(config.train_config(train_seed))
    rows = [(c.ablation.us, c.ablation.cs, c.ablation.class_balanced) for c in configs]
    run = _seed_named(seeds, start_rows, models, pools, train_cfgs, config.loss_config(),
                      config.resolved_plans(), config.resolved_schedule(), rows,
                      ug_enabled=config.ablation.ug, auroc_epoch=config.auroc_epoch)
    return pickle.dumps(run)


def _row_task(state: bytes, config, seeds, out_dir) -> list:
    """A row task: ``config``'s row finished from its own copy of a prefix
    task's ``state``, each seed written to ``out_dir/seed<N>`` unless
    ``out_dir`` is None; returns one (report, model) pair per seed."""
    run = pickle.loads(state)
    switches = config.ablation
    pairs = _seed_named(seeds, run.finish, switches.us, switches.cs, switches.class_balanced)
    for seed, (report, model), pool in zip(seeds, pairs, run.pools):
        report.seed = seed
        if out_dir is not None:
            _write_seed_outputs(Path(out_dir) / f"seed{seed}", report, model, pool)
    return pairs


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` whole: into a temporary file beside it,
    named with this process's id, then renamed over ``path``."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(header, rows) -> str:
    """CSV as ``csv.writer`` writes these files: floats as %.10g, everything
    else as str, lines ending in \\r\\n. No field holds a comma, quote or
    line break, so none needs quoting."""
    return "".join(
        ",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row) + "\r\n"
        for row in (header, *rows)
    )


_SELECTION_LOG_COLUMNS = ("round", "sample_id", "selection_type", "epistemic", "aleatoric",
                          "predicted_class", "true_class")


def _write_seed_outputs(run_dir: Path, report, model, pool):
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(run_dir / "report.json", report.to_json() + "\n")
    log = ([row[k] for k in _SELECTION_LOG_COLUMNS] for row in report.selection_log)
    _write_atomic(run_dir / "selection_log.csv", _csv_text(_SELECTION_LOG_COLUMNS, log))
    curve = _csv_text(("epoch", "supervised_loss", "ug_loss"), report.loss_curve)
    _write_atomic(run_dir / "loss_curve.csv", curve)
    rows = export_uncertainty_histograms(model.forward_batch(pool.source_features),
                                         model.forward_batch(pool.target_features), report.mode)
    _write_atomic(run_dir / "histograms.csv", _csv_text(("domain", "aleatoric", "epistemic"), rows))
    _write_atomic(run_dir / "checkpoint.json", checkpoint_text(model))


def _mean_std(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def _mean_of_present(values):
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


def aggregate_reports(reports) -> dict:
    """Cross-seed summary of AdaRunReports."""
    finals = [r.final_accuracy for r in reports]
    mean, std = _mean_std(finals)
    rounds = np.asarray([r.round_accuracies for r in reports], dtype=np.float64)
    return {
        "num_seeds": len(reports),
        "seeds": [r.seed for r in reports],
        "final_accuracy_per_seed": finals,
        "final_accuracy_mean": mean,
        "final_accuracy_std": std,
        "round_accuracy_mean": [float(v) for v in rounds.mean(axis=0)],
        "auroc_epistemic_mean": _mean_of_present([r.auroc_epistemic for r in reports]),
        "auroc_aleatoric_mean": _mean_of_present([r.auroc_aleatoric for r in reports]),
        "pseudo_label_accuracy_mean": _mean_of_present(
            [r.pseudo_label_accuracy for r in reports]
        ),
        "model_accuracy_on_unlabeled_mean": _mean_of_present(
            [r.model_accuracy_on_unlabeled for r in reports]
        ),
        "budget_spent": [r.budget_spent for r in reports],
    }


def _worker_count() -> int:
    """Worker processes a run may use: the CPUs this process may run on
    (the host's CPU count where the platform cannot tell), capped by
    EVID_NUM_WORKERS."""
    usable = getattr(os, "sched_getaffinity", None)
    workers = len(usable(0)) if usable else os.cpu_count() or 1
    cap = os.environ.get("EVID_NUM_WORKERS")
    if cap is not None:
        try:
            limit = int(cap)
        except ValueError:
            limit = 0  # reported below, like a cap under 1
        if limit < 1:
            raise ConfigError(f"EVID_NUM_WORKERS: expected an integer >= 1, got {cap!r}")
        workers = min(workers, limit)
    return workers


def _lockstep_limit(config: ExperimentConfig) -> int:
    """Seeds one chunk of ``config`` may train together: MAX_LOCKSTEP_SEEDS,
    fewer where their features would pass LOCKSTEP_FEATURE_BYTES, at least
    one."""
    spec = config.domain_spec(0)
    seed_bytes = 2 * spec.samples_per_domain * spec.feature_dim * 8
    return max(1, min(MAX_LOCKSTEP_SEEDS, LOCKSTEP_FEATURE_BYTES // seed_bytes))


def _seed_chunks(seeds, groups: int, workers: int, limit: int) -> list:
    """Split one group's seeds into contiguous chunks whose sizes differ by
    at most one: enough chunks that none exceeds ``limit`` seeds and that
    the ``groups`` groups together make at least ``workers`` chunks, where
    the seeds allow."""
    count = min(len(seeds), max(-(-len(seeds) // limit), -(-workers // groups)))
    size, extra = divmod(len(seeds), count)
    bounds = list(accumulate((size + (k < extra) for k in range(count)), initial=0))
    return [tuple(seeds[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


# The OpenBLAS that numpy's wheel bundles (relative to numpy's site
# directory) and its thread-count setter and getter.
_OPENBLAS = ("numpy.libs/libscipy_openblas64_-*.so", "scipy_openblas_set_num_threads64_",
             "scipy_openblas_get_num_threads64_")


def _set_blas_threads(n: int):
    """Run the bundled OpenBLAS on ``n`` threads in this process; returns the
    previous count, or None, changing nothing, when numpy has not loaded that
    library or it lacks the setter or the getter."""
    pattern, set_name, get_name = _OPENBLAS
    for path in sorted(Path(np.__file__).parent.parent.glob(pattern)):
        try:  # RTLD_NOLOAD: only a library this process already has
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        previous = getter()
        setter(n)
        return previous
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """One BLAS thread for the body, then the previous count again."""
    previous = _set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            _set_blas_threads(previous)


# glibc's mallopt and the (parameter, value) pairs training sets with it:
# M_TRIM_THRESHOLD 64 MiB and M_MMAP_THRESHOLD 32 MiB.
_MALLOPT = ("mallopt", ((-1, 64 * 2**20), (-3, 32 * 2**20)))


@functools.cache
def _heap_setting() -> bool:
    """Keep freed memory in this process's heap (see the module docstring),
    once per process; returns whether libc has ``mallopt``, without which
    it changes nothing."""
    name, settings = _MALLOPT
    try:
        mallopt = getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in settings:
        mallopt(param, value)
    return True


def _start_worker():
    """Pool initializer: one BLAS thread and the heap setting in a worker
    started afresh, and SIGINT ignored, so that Ctrl-C reaches only the
    parent, which reports it once."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _set_blas_threads(1)
    _heap_setting()


class _InProcess(Executor):
    """The executor of a one-worker run: a task runs when it is submitted."""

    def submit(self, fn, *args) -> Future:
        future = Future()
        future.set_result(fn(*args))
        return future


def run_rows(configs, out_dirs=None) -> list:
    """Run every config on each of its seeds; returns each config's reports
    in the order of its seeds.

    Configs that differ only in their US, CS and class-balance switches
    form a group, cut into seed chunks (see ``_seed_chunks`` and
    ``_lockstep_limit``). Each (group, chunk) runs a prefix task, then a row
    task per config of the group from the state it returns (see
    ``start_rows``). Each worker runs one task at a time, taking ready row
    tasks before the next prefix task, largest first. With ``out_dirs``,
    each config's config.json and seed directories are written under its
    entry, and its stale aggregate.json is deleted first.
    """
    groups = {}
    for i, config in enumerate(configs):
        prefix = config_hash(config.with_switches(us=False, cs=False, class_balanced=False))
        groups.setdefault(prefix, []).append(i)
    allowed = _worker_count()
    prefixes = [(rows, chunk) for rows in groups.values()
                for chunk in _seed_chunks(configs[rows[0]].seeds, len(groups), allowed,
                                          _lockstep_limit(configs[rows[0]]))]
    prefixes.sort(key=lambda p: -len(p[0]) * len(p[1]))  # largest first
    workers = min(allowed, sum(len(rows) for rows, _ in prefixes))
    if out_dirs is not None:
        for config, out in zip(configs, out_dirs):
            (Path(out) / "aggregate.json").unlink(missing_ok=True)
            Path(out).mkdir(parents=True, exist_ok=True)
            _write_atomic(Path(out) / "config.json", config.to_json() + "\n")
    reports, running = {}, {}  # running: future -> (prefix index, config index or None)
    # Heap of the tasks to run: (0, k, i, state) is row i of prefix k, whose
    # task returned state; (1, k, None, None) is prefix task k.
    todo = [(1, k, None, None) for k in range(len(prefixes))]
    # Workers fork inside the scope (forked at two threads, they spent ~5% more
    # CPU time); spawned ones start afresh, so the initializer sets theirs. The
    # heap setting goes where the training runs, not into a process that only
    # waits for its workers (it kept ~0.3 MB more there).
    if workers > 1:
        pool = ProcessPoolExecutor(workers, initializer=_start_worker)
    else:
        _heap_setting()
        pool = _InProcess()
    # On the way out, also by an error or Ctrl-C, a task no worker has taken
    # yet is dropped and the running ones finish, so none writes after return.
    with _one_blas_thread(), contextlib.ExitStack() as stack:
        stack.callback(pool.shutdown, cancel_futures=True)
        while todo or running:
            while todo and len(running) < workers:
                _, k, i, state = heapq.heappop(todo)
                rows, chunk = prefixes[k]
                task = ((_prefix_task, [configs[j] for j in rows], chunk) if i is None else
                        (_row_task, state, configs[i], chunk, out_dirs and out_dirs[i]))
                running[pool.submit(*task)] = (k, i)
            for future in wait(running, return_when=FIRST_COMPLETED).done:
                k, i = running.pop(future)
                rows, chunk = prefixes[k]
                if i is None:
                    for j in rows:
                        heapq.heappush(todo, (0, k, j, future.result()))
                else:
                    reports.update(((i, seed), r) for seed, (r, _) in zip(chunk, future.result()))
    return [[reports[i, seed] for seed in config.seeds] for i, config in enumerate(configs)]


def _write_aggregate(base: Path, config: ExperimentConfig, reports) -> dict:
    summary = aggregate_reports(reports)
    summary["config_hash"] = config_hash(config)
    summary["mode"] = config.mode
    summary["ablation"] = config.ablation.row_name()
    _write_atomic(base / "aggregate.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Run every configured seed and write the run directory tree.

    Returns the aggregate dict, which is also written to aggregate.json.
    """
    base = Path(out_dir if out_dir is not None else config.output_dir)
    base = base / config_hash(config)
    [reports] = run_rows([config], [base])
    return _write_aggregate(base, config, reports)


def run_ablation(config: ExperimentConfig, out_dir=None) -> list:
    """Run the five-row ablation grid on the same seeds and data settings.

    Row order: source-only, +UG, +US, +UG+US, +UG+US+CS. Returns the rows
    and writes ablation.json at the top of the output directory; each row
    directory holds what ``run_experiment`` writes for that row.
    """
    base = Path(out_dir if out_dir is not None else config.output_dir)
    # Validate every row before any runs: the +US rows switch uncertainty
    # sampling on, which brings the oracle budget into play.
    configs = []
    for name, flags in ABLATION_ROWS:
        try:
            configs.append(config.with_switches(**flags))
        except ConfigError as exc:
            raise ConfigError(f"ablation row {name}: {exc}") from None
    row_dirs = [
        base / "ablation" / name / config_hash(row_config)
        for (name, _), row_config in zip(ABLATION_ROWS, configs)
    ]
    # Every task finishes before any aggregate is written, so a failed run
    # leaves no row looking complete.
    (base / "ablation.json").unlink(missing_ok=True)
    results = run_rows(configs, row_dirs)
    table = []
    for (name, _), row_config, row_dir, reports in zip(ABLATION_ROWS, configs, row_dirs, results):
        summary = _write_aggregate(row_dir, row_config, reports)
        table.append(
            {
                "row": name,
                "ug": row_config.ablation.ug,
                "us": row_config.ablation.us,
                "cs": row_config.ablation.cs,
                "final_accuracy_mean": summary["final_accuracy_mean"],
                "final_accuracy_std": summary["final_accuracy_std"],
                "config_hash": summary["config_hash"],
            }
        )
    _write_atomic(base / "ablation.json", json.dumps(table, indent=2) + "\n")
    return table
