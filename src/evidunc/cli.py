"""Command line front end.

Subcommands:

* ``quantify``  read a file of alpha vectors, write uncertainty records
* ``run``       execute a multi-seed experiment from a config file
* ``ablate``    run the five-row ablation grid for a config
* ``report``    summarize a finished run directory

Exit codes: 0 on success, 2 for invalid configs or unparseable input,
3 for failures at run time.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_config, parse_config
from .dirichlet import DirichletPrediction, predict_class, quantify_record
from .enn import TrainingDivergedError
from .experiments import run_ablation, run_experiment
from .losses import QUANTIFICATION_MODES
from .pools import PoolError
from .special import DomainError

__all__ = ["main"]


def _parse_alpha_csv(path: Path):
    vectors = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            vectors.append(([float(f) for f in line.split(",")], f"{path}:{lineno}"))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: not a comma-separated numeric row")
    return vectors


def _parse_alpha_json(path: Path):
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(document, list):
        raise ConfigError(f"{path}: expected a JSON array of alpha vectors")
    vectors = []
    for i, row in enumerate(document):
        if not isinstance(row, list) or not all(isinstance(v, (int, float)) for v in row):
            raise ConfigError(f"{path}: alphas[{i}] is not a numeric array")
        vectors.append((row, f"{path}: alphas[{i}]"))
    return vectors


def cmd_quantify(args) -> int:
    path = Path(args.alphas)
    if not path.exists():
        raise ConfigError(f"{path}: no such file")
    if path.suffix.lower() == ".json":
        vectors = _parse_alpha_json(path)
    else:
        vectors = _parse_alpha_csv(path)

    records = []
    for values, where in vectors:
        try:
            pred = DirichletPrediction.from_alpha(values)
        except DomainError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        record = quantify_record(pred)
        record["predicted_class"] = predict_class(pred)
        records.append(record)

    text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {len(records)} records to {out}")
    else:
        sys.stdout.write(text)
    return 0


def _parse_seeds(text: str):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds: expected comma-separated integers, got {text!r}")


def _load_with_overrides(args):
    """The config file with the command line overrides applied, validated
    as one document so an override is checked like a config value."""
    config = load_config(args.config)
    overrides = {}
    if args.seeds:
        overrides["seeds"] = _parse_seeds(args.seeds)
    if args.mode:
        overrides["mode"] = args.mode
    if args.out:
        overrides["output_dir"] = args.out
    return parse_config({**config.to_document(), **overrides})


def cmd_run(args) -> int:
    config = _load_with_overrides(args)
    summary = run_experiment(config)
    base = Path(config.output_dir) / summary["config_hash"]
    print(f"run directory: {base}")
    print(
        "final target accuracy: "
        f"{summary['final_accuracy_mean']:.4f} +/- {summary['final_accuracy_std']:.4f} "
        f"({summary['num_seeds']} seeds)"
    )
    return 0


def cmd_ablate(args) -> int:
    config = _load_with_overrides(args)
    table = run_ablation(config)
    _print_ablation(table)
    print(f"table written to {Path(config.output_dir) / 'ablation.json'}")
    return 0


def _print_ablation(table):
    width = max(len(row["row"]) for row in table)
    for row in table:
        print(
            f"{row['row']:<{width}}  "
            f"{row['final_accuracy_mean']:.4f} +/- {row['final_accuracy_std']:.4f}"
        )


def cmd_report(args) -> int:
    base = Path(args.out)
    ablation = base / "ablation.json"
    aggregate = base / "aggregate.json"
    if ablation.exists():
        _print_ablation(json.loads(ablation.read_text()))
        return 0
    if not aggregate.exists():
        raise ConfigError(f"{base}: no aggregate.json or ablation.json found")
    summary = json.loads(aggregate.read_text())
    print(f"mode: {summary['mode']}   ablation: {summary['ablation']}")
    print(f"seeds: {summary['seeds']}")
    print(
        "final target accuracy: "
        f"{summary['final_accuracy_mean']:.4f} +/- {summary['final_accuracy_std']:.4f}"
    )
    rounds = summary["round_accuracy_mean"]
    print("round accuracy means: " + ", ".join(f"{v:.4f}" for v in rounds))
    for key, label in (
        ("auroc_epistemic_mean", "epistemic AUROC"),
        ("auroc_aleatoric_mean", "aleatoric AUROC"),
        ("pseudo_label_accuracy_mean", "pseudo-label accuracy"),
        ("model_accuracy_on_unlabeled_mean", "model accuracy on unlabeled pool"),
    ):
        if summary.get(key) is not None:
            print(f"{label}: {summary[key]:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evidunc",
        description="Evidential uncertainty quantification and active adaptation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_quant = sub.add_parser("quantify", help="uncertainty records for alpha vectors")
    p_quant.add_argument("alphas", help="CSV or JSON file of Dirichlet alpha vectors")
    p_quant.add_argument("--out", help="output JSON path (default: stdout)")
    p_quant.set_defaults(func=cmd_quantify)

    for name, func, description in (
        ("run", cmd_run, "run a multi-seed experiment"),
        ("ablate", cmd_ablate, "run the five-row ablation grid"),
    ):
        p = sub.add_parser(name, help=description)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="override the config output directory")
        p.add_argument("--seeds", help="override seeds, comma separated")
        p.add_argument("--mode", choices=QUANTIFICATION_MODES, help="override mode")
        p.set_defaults(func=func)

    p_report = sub.add_parser("report", help="summarize a finished run directory")
    p_report.add_argument("--out", required=True, help="run directory to summarize")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, PoolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, RuntimeError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
