"""Command line front end.

Subcommands:

* ``quantify``  read a file of alpha vectors, write uncertainty records
* ``run``       execute a multi-seed experiment from a config file
* ``ablate``    run the five-row ablation grid for a config
* ``report``    summarize a finished run directory

Exit codes: 0 on success, also when stdout's reader leaves early, 2 for
invalid configs or unparseable input, 3 for failures at run time, 130 when
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from bisect import bisect_left
from pathlib import Path

from .config import ConfigError, load_config, read_json, read_text
from .dirichlet import AlphaError, checked_alpha, predict_class_batch
# Bound under the name the benchmark's tracer wraps as the record builder.
from .dirichlet import quantify_records as quantify_record
from .experiments import _open_atomic, run_ablation, run_experiment
from .losses import QUANTIFICATION_MODES
from .pools import PoolError
from .special import DomainError

__all__ = ["main"]

# About how many covariance entries the records of one quantify chunk hold:
# 2**13 // C**2 rows, at least one, about 1 MB of output text.
CHUNK_ENTRIES = 2**13


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


def _alpha_batches(vectors):
    """(rows, alpha) per class count: the input indices of the rows of that
    length, in input order, and their ``checked_alpha`` matrix. CSV rows may
    differ in length. A bad row raises a ConfigError naming the earliest bad
    row of the input, whichever batch holds it."""
    groups = {}
    for i, (values, _) in enumerate(vectors):
        groups.setdefault(len(values), []).append(i)
    batches, bad = [], []
    for rows in groups.values():
        try:
            batches.append((rows, checked_alpha([vectors[i][0] for i in rows])))
        except AlphaError as exc:
            bad.append((rows[exc.row], str(exc)))
    if bad:
        i, message = min(bad)
        raise ConfigError(f"{vectors[i][1]}: {message}")
    return batches


class _ReaderGone(Exception):
    """stdout's reader left before the command finished its output."""


def _write_stdout(texts) -> None:
    """Write each of ``texts`` to stdout, then flush it: the one way the
    commands print. A reader that leaves early (``evidunc ... | head``) is
    no failure: the unwritten rest goes to devnull, so that the flush at exit
    does not fail again (see the signal module's docs), and ``main`` ends the
    command with exit 0."""
    try:
        sys.stdout.writelines(texts)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _ReaderGone from None


def _check_directory(path: Path, name: str) -> None:
    """Raise a ConfigError naming ``name`` when the nearest of ``path`` and
    its parents that exists is no directory, so nothing can be made there."""
    for part in (path, *path.parents):
        if part.exists():
            if not part.is_dir():
                raise ConfigError(f"{name}: {part} is not a directory")
            return


def cmd_quantify(args) -> int:
    path = Path(args.alphas)
    if args.out:
        if Path(args.out).is_dir():
            raise ConfigError(f"{args.out}: is a directory")
        _check_directory(Path(args.out).parent, args.out)
    parse = _parse_alpha_json if path.suffix.lower() == ".json" else _parse_alpha_csv
    # The parsed rows are dropped once they are checked; the matrices remain.
    batches = _alpha_batches(parse(path))

    # Nothing is written before every row passed. Then the records are built
    # and written in input order, one chunk of rows at a time, so only one
    # chunk's records and text are alive at once.
    n = sum(len(rows) for rows, _ in batches)
    size = max(1, CHUNK_ENTRIES // max((a.shape[1] for _, a in batches), default=1) ** 2)

    def chunks():
        for start in range(0, n, size):
            stop = min(start + size, n)
            records = [None] * (stop - start)
            for rows, alpha in batches:  # each class count's rows of the chunk
                lo, hi = bisect_left(rows, start), bisect_left(rows, stop)
                if lo == hi:
                    continue
                built = zip(quantify_record(alpha[lo:hi]),
                            predict_class_batch(alpha[lo:hi]).tolist())
                for i, (record, label) in zip(rows[lo:hi], built):
                    record["predicted_class"] = label
                    records[i - start] = record
            # One compact record per line: the C encoder, and a readable diff.
            yield ("[\n" if start == 0 else ",\n") + ",\n".join(
                json.dumps(r, sort_keys=True) for r in records)
        yield "\n]\n" if n else "[]\n"

    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with _open_atomic(out) as fh:
            fh.writelines(chunks())
        _write_stdout([f"wrote {n} records to {out}\n"])
    else:
        _write_stdout(chunks())
    return 0


def _parse_seeds(text: str):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds: expected comma-separated integers, got {text!r}")


def _load_with_overrides(args):
    """The config file with the command line overrides merged into its
    document, which is then validated once; its output directory must be
    one that can be made."""
    overrides = {"seeds": None if args.seeds is None else _parse_seeds(args.seeds),
                 "mode": args.mode, "output_dir": args.out}
    config = load_config(args.config, **{key: v for key, v in overrides.items() if v is not None})
    _check_directory(Path(config.output_dir), args.out or "output_dir")
    return config


def cmd_run(args) -> int:
    config = _load_with_overrides(args)
    summary = run_experiment(config)
    base = Path(config.output_dir) / summary["config_hash"]
    _write_stdout([
        f"run directory: {base}\n",
        "final target accuracy: "
        f"{summary['final_accuracy_mean']:.4f} +/- {summary['final_accuracy_std']:.4f} "
        f"({summary['num_seeds']} seeds)\n",
    ])
    return 0


def cmd_ablate(args) -> int:
    config = _load_with_overrides(args)
    lines = _ablation_lines(run_ablation(config))
    lines.append(f"table written to {Path(config.output_dir) / 'ablation.json'}")
    _write_stdout(f"{line}\n" for line in lines)
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
    _write_stdout(f"{line}\n" for line in lines)
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
    except _ReaderGone:
        return 0
    except (ConfigError, DomainError, PoolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, MemoryError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
