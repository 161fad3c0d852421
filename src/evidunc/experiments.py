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
run as one job per seed, which trains up to the first scheduled round once
and finishes each row from its own copy of that state. All jobs of a run go
to one process pool, largest first. The EVID_NUM_WORKERS environment
variable caps how many jobs run in parallel processes; unset means one
process per job up to the CPU count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path

import numpy as np

from .config import AblationSwitches, ConfigError, ExperimentConfig, config_hash, parse_config
from .enn import EvidentialMLP, save_checkpoint, write_loss_curve
from .metrics import export_uncertainty_histograms, write_selection_log
from .sampling import run_ada_rows
from .synthetic import generate_domain_pair, split_pools

__all__ = [
    "run_seed",
    "run_experiment",
    "run_ablation",
    "run_rows",
    "aggregate_reports",
    "ABLATION_ROWS",
]

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


def _run_group(configs, seed: int):
    """Run configs that differ only in their US, CS and class-balance
    switches on one seed, training up to the first round once; returns
    ([(report, model) per config], source, target)."""
    config = configs[0]
    data_seed, init_seed, train_seed = _component_seeds(seed)
    spec = config.domain_spec(data_seed)
    source, target = generate_domain_pair(spec)
    pool = split_pools(source, target, budget_fraction=config.budget_fraction)
    model = EvidentialMLP.create(
        spec.feature_dim,
        spec.num_classes,
        hidden=config.hidden_layers,
        seed=init_seed,
    )
    rows = run_ada_rows(
        model,
        pool,
        config.train_config(train_seed),
        config.loss_config(),
        config.resolved_plans(),
        config.resolved_schedule(),
        [(c.ablation.us, c.ablation.cs, c.ablation.class_balanced) for c in configs],
        ug_enabled=config.ablation.ug,
        auroc_epoch=config.auroc_epoch,
    )
    for report, _ in rows:
        report.seed = seed
    return rows, source, target


def run_seed(config: ExperimentConfig, seed: int):
    """Run one seed end to end; returns (report, model, source, target)."""
    [(report, model)], source, target = _run_group([config], seed)
    return report, model, source, target


def _write_seed_outputs(run_dir: Path, config, report, model, source, target):
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "report.json").write_text(report.to_json() + "\n")
    write_selection_log(report.selection_log, run_dir / "selection_log.csv")
    write_loss_curve(report.loss_curve, run_dir / "loss_curve.csv")
    export_uncertainty_histograms(
        model,
        source.features,
        target.features,
        config.mode,
        path=run_dir / "histograms.csv",
    )
    save_checkpoint(model, run_dir / "checkpoint.json")


def _run_job(configs, seed: int, out_dirs) -> list:
    """One job: a group's rows on one seed, each written to its seed
    directory under ``out_dirs`` unless that is None; returns the reports."""
    rows, source, target = _run_group(configs, seed)
    if out_dirs is not None:
        for config, (report, model), out in zip(configs, rows, out_dirs):
            _write_seed_outputs(Path(out) / f"seed{seed}", config, report, model, source, target)
    return [report for report, _ in rows]


def _mean_std(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def _mean_of_present(values):
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


def aggregate_reports(reports) -> dict:
    """Cross-seed summary; reports may be AdaRunReport objects or dicts."""
    rows = [r if isinstance(r, dict) else json.loads(r.to_json()) for r in reports]
    finals = [r["final_accuracy"] for r in rows]
    mean, std = _mean_std(finals)
    rounds = np.asarray([r["round_accuracies"] for r in rows], dtype=np.float64)
    return {
        "num_seeds": len(rows),
        "seeds": [r["seed"] for r in rows],
        "final_accuracy_per_seed": finals,
        "final_accuracy_mean": mean,
        "final_accuracy_std": std,
        "round_accuracy_mean": [float(v) for v in rounds.mean(axis=0)],
        "auroc_epistemic_mean": _mean_of_present([r["auroc_epistemic"] for r in rows]),
        "auroc_aleatoric_mean": _mean_of_present([r["auroc_aleatoric"] for r in rows]),
        "pseudo_label_accuracy_mean": _mean_of_present(
            [r["pseudo_label_accuracy"] for r in rows]
        ),
        "model_accuracy_on_unlabeled_mean": _mean_of_present(
            [r["model_accuracy_on_unlabeled"] for r in rows]
        ),
        "budget_spent": [r["budget_spent"] for r in rows],
    }


def _worker_count(num_jobs: int) -> int:
    workers = min(num_jobs, os.cpu_count() or 1)
    cap = os.environ.get("EVID_NUM_WORKERS")
    if cap is not None:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"EVID_NUM_WORKERS: expected an integer, got {cap!r}") from None
    return workers


def run_rows(configs, out_dirs=None) -> list:
    """Run every config on each of its seeds; returns each config's reports
    in the order of its seeds.

    Configs that differ only in their US, CS and class-balance switches
    share one job per seed (see ``run_ada_rows``). The jobs run largest
    first, in one process pool when more than one worker is allowed. With
    ``out_dirs``, each config's config.json and seed directories are written
    under its entry.
    """
    groups = {}
    for i, config in enumerate(configs):
        prefix = config_hash(config.with_switches(us=False, cs=False, class_balanced=False))
        for seed in config.seeds:
            groups.setdefault((prefix, seed), []).append(i)
    workers = _worker_count(len(groups))
    if out_dirs is not None:
        for config, out in zip(configs, out_dirs):
            Path(out).mkdir(parents=True, exist_ok=True)
            (Path(out) / "config.json").write_text(config.to_json() + "\n")
    jobs = sorted(groups.items(), key=lambda job: -len(job[1]))  # largest first
    args = [
        ([configs[i] for i in rows], seed, None if out_dirs is None else [out_dirs[i] for i in rows])
        for (_, seed), rows in jobs
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_job, *a) for a in args]
            try:
                for done in as_completed(futures):
                    done.result()
            except BaseException:
                # Otherwise leaving the pool would still run every queued job.
                pool.shutdown(cancel_futures=True)
                raise
            results = [f.result() for f in futures]
    else:
        results = [_run_job(*a) for a in args]
    reports = {}
    for ((_, seed), rows), got in zip(jobs, results):
        reports.update(((i, seed), report) for i, report in zip(rows, got))
    return [[reports[i, seed] for seed in config.seeds] for i, config in enumerate(configs)]


def _write_aggregate(base: Path, config: ExperimentConfig, reports) -> dict:
    summary = aggregate_reports(reports)
    summary["config_hash"] = config_hash(config)
    summary["mode"] = config.mode
    summary["ablation"] = config.ablation.row_name()
    (base / "aggregate.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
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
            configs.append(parse_config(config.with_switches(**flags).to_document()))
        except ConfigError as exc:
            raise ConfigError(f"ablation row {name}: {exc}") from None
    row_dirs = [
        base / "ablation" / name / config_hash(row_config)
        for (name, _), row_config in zip(ABLATION_ROWS, configs)
    ]
    # Every job finishes before any aggregate is written, so a failed run
    # leaves no row looking complete.
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
    (base / "ablation.json").write_text(json.dumps(table, indent=2) + "\n")
    return table
