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

The EVID_NUM_WORKERS environment variable caps how many seeds run in
parallel processes; unset means one process per seed up to the CPU count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, config_hash, parse_config
from .enn import EvidentialMLP, Trainer, save_checkpoint, write_loss_curve
from .metrics import AdaRunReport, export_uncertainty_histograms, write_selection_log
from .sampling import run_ada
from .synthetic import generate_domain_pair, split_pools

__all__ = [
    "run_seed",
    "run_experiment",
    "run_ablation",
    "aggregate_reports",
    "ABLATION_ROWS",
]

# Ablation grid: each row toggles one more stage on top of the previous.
ABLATION_ROWS = (
    ("source-only", {"ug": False, "us": False, "cs": False}),
    ("+UG", {"ug": True, "us": False, "cs": False}),
    ("+US", {"ug": False, "us": True, "cs": False}),
    ("+UG+US", {"ug": True, "us": True, "cs": False}),
    ("+UG+US+CS", {"ug": True, "us": True, "cs": True}),
)


def _component_seeds(seed: int):
    state = np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64)
    return (int(state[0]), int(state[1]), int(state[2]))


def run_seed(config: ExperimentConfig, seed: int):
    """Run one seed end to end; returns (report, model, source, target)."""
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
    report = run_ada(
        model,
        pool,
        config.train_config(train_seed),
        config.loss_config(),
        config.resolved_plans(),
        config.resolved_schedule(),
        mode=config.mode,
        ug_enabled=config.ablation.ug,
        us_enabled=config.ablation.us,
        cs_enabled=config.ablation.cs,
        class_balanced=config.ablation.class_balanced,
        auroc_epoch=config.auroc_epoch,
    )
    report.seed = seed
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


def _run_and_write(config: ExperimentConfig, seed: int, base_dir: str) -> dict:
    report, model, source, target = run_seed(config, seed)
    _write_seed_outputs(Path(base_dir) / f"seed{seed}", config, report, model, source, target)
    return json.loads(report.to_json())


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


def _worker_count(num_seeds: int) -> int:
    workers = min(num_seeds, os.cpu_count() or 1)
    cap = os.environ.get("EVID_NUM_WORKERS")
    if cap is not None:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"EVID_NUM_WORKERS: expected an integer, got {cap!r}") from None
    return workers


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Run every configured seed and write the run directory tree.

    Returns the aggregate dict, which is also written to aggregate.json.
    """
    workers = _worker_count(len(config.seeds))
    base = Path(out_dir if out_dir is not None else config.output_dir)
    base = base / config_hash(config)
    base.mkdir(parents=True, exist_ok=True)
    (base / "config.json").write_text(config.to_json() + "\n")

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_and_write, config, seed, str(base))
                for seed in config.seeds
            ]
            rows = [f.result() for f in futures]
    else:
        rows = [_run_and_write(config, seed, str(base)) for seed in config.seeds]

    summary = aggregate_reports(rows)
    summary["config_hash"] = config_hash(config)
    summary["mode"] = config.mode
    summary["ablation"] = config.ablation.row_name()
    (base / "aggregate.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


def run_ablation(config: ExperimentConfig, out_dir=None) -> list:
    """Run the five-row ablation grid on the same seeds and data settings.

    Row order: source-only, +UG, +US, +UG+US, +UG+US+CS. Returns the rows
    and writes ablation.json at the top of the output directory.
    """
    base = Path(out_dir if out_dir is not None else config.output_dir)
    # Validate every row before any runs: the +US rows switch uncertainty
    # sampling on, which brings the oracle budget into play.
    rows = [
        (name, parse_config(config.with_switches(**flags).to_document()))
        for name, flags in ABLATION_ROWS
    ]
    table = []
    for name, row_config in rows:
        summary = run_experiment(row_config, out_dir=base / "ablation" / name)
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
    base.mkdir(parents=True, exist_ok=True)
    (base / "ablation.json").write_text(json.dumps(table, indent=2) + "\n")
    return table
