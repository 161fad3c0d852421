"""Command line front end.

Subcommands:

* ``quantify``  read a file of alpha vectors, write uncertainty records
* ``run``       execute a multi-seed experiment from a config file
* ``ablate``    run the five-row ablation grid for a config
* ``report``    summarize a finished run directory

Exit codes: 0 on success, 2 for invalid configs or unparseable input,
3 for failures at run time, 130 when interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, load_config, read_json, read_text
from .dirichlet import AlphaError, checked_alpha, predict_class_batch
# Bound under the name the benchmark's tracer wraps as the record builder.
from .dirichlet import quantify_records as quantify_record
from .enn import TrainingDivergedError
from .experiments import _write_atomic, run_ablation, run_experiment
from .losses import QUANTIFICATION_MODES
from .pools import PoolError
from .special import DomainError

__all__ = ["main"]


def _parse_alpha_csv(path: Path):
    vectors = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            vectors.append(([float(f) for f in line.split(",")], f"{path}:{lineno}"))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: not a comma-separated numeric row")
    return vectors


def _parse_alpha_json(path: Path):
    document = read_json(path)
    if not isinstance(document, list):
        raise ConfigError(f"{path}: expected a JSON array of alpha vectors")
    vectors = []
    for i, row in enumerate(document):
        # Booleans are not numbers here, as in configs.
        if not isinstance(row, list) or not all(type(v) in (int, float) for v in row):
            raise ConfigError(f"{path}: alphas[{i}] is not a numeric array")
        try:
            vectors.append(([float(v) for v in row], f"{path}: alphas[{i}]"))
        except OverflowError as exc:  # an integer too large for a float
            raise ConfigError(f"{path}: alphas[{i}]: {exc}") from None
    return vectors


def cmd_quantify(args) -> int:
    path = Path(args.alphas)
    parse = _parse_alpha_json if path.suffix.lower() == ".json" else _parse_alpha_csv
    vectors = parse(path)

    # CSV rows may differ in length: one batch per class count, input order kept.
    groups = {}
    for i, (values, _) in enumerate(vectors):
        groups.setdefault(len(values), []).append(i)
    batches, bad = [], []
    for rows in groups.values():
        try:
            batches.append((rows, checked_alpha([vectors[i][0] for i in rows])))
        except AlphaError as exc:
            bad.append((rows[exc.row], str(exc)))
    if bad:  # the earliest bad row of the input, whichever batch holds it
        i, message = min(bad)
        raise ConfigError(f"{vectors[i][1]}: {message}")
    records = [None] * len(vectors)
    for rows, alpha in batches:
        built = zip(quantify_record(alpha), predict_class_batch(alpha).tolist())
        for i, (record, label) in zip(rows, built):
            record["predicted_class"] = label
            records[i] = record

    # One compact record per line: the C encoder, and a readable diff.
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in records)
    text = f"[\n{lines}\n]\n" if records else "[]\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(out, text)
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
    """The config file with the command line overrides merged into its
    document, which is then validated once."""
    overrides = {"seeds": None if args.seeds is None else _parse_seeds(args.seeds),
                 "mode": args.mode, "output_dir": args.out}
    return load_config(args.config, **{key: v for key, v in overrides.items() if v is not None})


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
    print("\n".join(_ablation_lines(table)))
    print(f"table written to {Path(config.output_dir) / 'ablation.json'}")
    return 0


def _ablation_lines(table):
    width = max(len(row["row"]) for row in table)
    return [
        f"{row['row']:<{width}}  "
        f"{row['final_accuracy_mean']:.4f} +/- {row['final_accuracy_std']:.4f}"
        for row in table
    ]


def _summary_lines(summary):
    lines = [
        f"mode: {summary['mode']}   ablation: {summary['ablation']}",
        f"seeds: {summary['seeds']}",
        "final target accuracy: "
        f"{summary['final_accuracy_mean']:.4f} +/- {summary['final_accuracy_std']:.4f}",
        "round accuracy means: "
        + ", ".join(f"{v:.4f}" for v in summary["round_accuracy_mean"]),
    ]
    for key, label in (
        ("auroc_epistemic_mean", "epistemic AUROC"),
        ("auroc_aleatoric_mean", "aleatoric AUROC"),
        ("pseudo_label_accuracy_mean", "pseudo-label accuracy"),
        ("model_accuracy_on_unlabeled_mean", "model accuracy on unlabeled pool"),
    ):
        if summary.get(key) is not None:
            lines.append(f"{label}: {summary[key]:.4f}")
    return lines


def cmd_report(args) -> int:
    base = Path(args.out)
    path, lines_of = base / "ablation.json", _ablation_lines
    if not path.exists():
        path, lines_of = base / "aggregate.json", _summary_lines
    if not path.exists():
        raise ConfigError(f"{base}: no aggregate.json or ablation.json found")
    document = read_json(path)
    try:  # format every line first, so a damaged file prints only its error
        lines = lines_of(document)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"{path}: incomplete or malformed ({exc!r})") from None
    print("\n".join(lines))
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
    except (TrainingDivergedError, RuntimeError, OSError, MemoryError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
