"""Experiment configuration: one JSON document describing data, model,
training, sampling, and ablation switches for a multi-seed run.

The dataclasses are the schema: each section is checked against the field
types of ``DomainSpec``, ``TrainConfig``, ``LossConfig``,
``AblationSwitches`` or ``RoundPlan``, the top level and ``sampling``
against ``ExperimentConfig``. An ``int`` is a JSON integer (never a bool or
``6.0``), a ``float`` any number but a bool, ``X | None`` also takes null
and ``tuple[T, ...]`` is a list of ``T``. The constructors check value
ranges and ``sampling.round_problems`` the round layout. Every problem is
reported at once under its field path, such as ``sampling.plans[0].b_u``.

Values keep the form they were written in (lists become tuples), so
parsing then serializing then parsing again yields an equal config, which
keeps run directories content-addressable.

Per-run randomness never enters the config sections; the ``seeds`` list is
the only entropy source. Each seed expands into independent component seeds
(data, weight init, batch shuffling) inside the experiment driver.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .enn import TrainConfig
from .losses import QUANTIFICATION_MODES, LossConfig
from .pools import oracle_budget
from .sampling import RoundPlan, default_round_plans, default_schedule, round_problems
from .synthetic import DomainSpec

__all__ = ["ConfigError", "AblationSwitches", "ExperimentConfig", "config_hash"]

SCHEMA_VERSION = 1
_SAMPLING = ("plans", "schedule", "budget_fraction", "auroc_epoch")  # grouped in the document


class ConfigError(ValueError):
    """Invalid experiment config; message lists every offending field."""


@dataclass(frozen=True)
class AblationSwitches:
    """Which parts of the method are active, one flag per ablation row."""

    ug: bool = True
    us: bool = True
    cs: bool = False
    class_balanced: bool = False

    def row_name(self) -> str:
        """The ablation grid label: source-only, +UG, +US, +UG+US, ..."""
        parts = [f"+{name.upper()}" for name in ("ug", "us", "cs") if getattr(self, name)]
        return "".join(parts) or "source-only"


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "variance"
    seeds: tuple[int, ...] = (0, 1, 2)
    output_dir: str = "out"
    hidden_layers: tuple[int, ...] = (64, 64)
    domain: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    loss: dict = field(default_factory=dict)
    plans: tuple[RoundPlan, ...] = ()
    schedule: tuple[int, ...] = ()
    budget_fraction: float = 0.05
    auroc_epoch: int | None = None
    ablation: AblationSwitches = field(default_factory=AblationSwitches)

    def domain_spec(self, seed: int) -> DomainSpec:
        return DomainSpec(seed=seed, **self.domain)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(seed=seed, **self.train)

    def loss_config(self) -> LossConfig:
        return LossConfig(mode=self.mode, **self.loss)

    def resolved_plans(self):
        """Configured round plans, or desk-scale defaults sized to |T|."""
        if self.plans:
            return list(self.plans)
        num_target = self.domain_spec(0).samples_per_domain
        return default_round_plans(num_target, budget_fraction=self.budget_fraction)

    def resolved_schedule(self):
        if self.schedule:
            return list(self.schedule)
        return default_schedule(num_rounds=len(self.resolved_plans()))

    def to_document(self) -> dict:
        """This config as a JSON document (tuples become lists), which parses
        back to an equal config."""
        document = asdict(self)
        document["sampling"] = {key: document.pop(key) for key in _SAMPLING}
        return json.loads(json.dumps({"schema_version": SCHEMA_VERSION, **document}))

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2, sort_keys=True)

    def with_switches(self, **flags) -> "ExperimentConfig":
        return replace(self, ablation=replace(self.ablation, **flags))


@functools.cache
def _schema(cls, *excluded) -> dict:
    """Field name -> annotated type, for the fields a config may set."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in excluded}


# ExperimentConfig with its round settings grouped under "sampling" and its
# section dicts typed by the dataclasses they build, minus what the runner
# sets per run (seeds, the quantification mode) and the class means, which
# configs leave at their default layout.
_DOCUMENT = {
    **{key: hint for key, hint in _schema(ExperimentConfig).items() if key not in _SAMPLING},
    "schema_version": int,
    "domain": _schema(DomainSpec, "seed", "class_means"),
    "train": _schema(TrainConfig, "seed"),
    "loss": _schema(LossConfig, "mode"),
    "sampling": {key: _schema(ExperimentConfig)[key] for key in _SAMPLING},
}
_TYPE_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string", type(None): "null"}
_BAD = object()  # what _check returns for a value that cannot be used


def _fits(value, hint) -> bool:
    """Whether a JSON value fits an annotated type."""
    if hint in (int, float) and isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, (int, float))
    if hint in (int, bool, str):
        return isinstance(value, hint)
    if hint is type(None):
        return value is None
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_fits(item, get_args(hint)[0]) for item in value)
    return any(_fits(value, arg) for arg in get_args(hint))  # a union


def _type_name(hint) -> str:
    if isinstance(hint, dict) or is_dataclass(hint):
        return "object"
    if get_origin(hint) is tuple:
        return f"list of {_type_name(get_args(hint)[0])}s"
    return " or ".join(map(_type_name, get_args(hint))) or _TYPE_NAMES[hint]


def _fitting(section: dict, schema: dict, path: str, errors: list) -> dict:
    """The entries of a JSON object that fit the schema, each kept as far as
    it fits; each other entry is reported under its field path."""
    kept = {}
    for key, value in section.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            errors.append(f"{path or 'config'}.{key}: unknown field")
        elif (fit := _check(value, schema[key], where, errors)) is not _BAD:
            kept[key] = fit
    return kept


def _check(value, hint, path: str, errors: list):
    """The part of a JSON value that fits a type, a schema or a dataclass,
    or _BAD; each part that does not is reported under its field path. A
    section keeps its well-typed entries; a dataclass object must fit whole,
    with every field that has no default, or it and its list are _BAD."""
    if isinstance(value, dict) and isinstance(hint, dict):
        return _fitting(value, hint, path, errors)
    if isinstance(value, dict) and is_dataclass(hint):
        kept = _fitting(value, _schema(hint), path, errors)
        missing = [f.name for f in fields(hint) if f.name not in value
                   and f.default is MISSING and f.default_factory is MISSING]
        errors.extend(f"{path}.{name}: missing field" for name in missing)
        return kept if len(kept) == len(value) and not missing else _BAD
    item = get_args(hint)[0] if get_origin(hint) is tuple else None
    if is_dataclass(item) and isinstance(value, list):
        fits = [_check(v, item, f"{path}[{i}]", errors) for i, v in enumerate(value)]
        return _BAD if _BAD in fits else fits
    if not _fits(value, hint):
        errors.append(f"{path}: expected {_type_name(hint)}, got {json.dumps(value)}")
        return _BAD
    return value


def _expect_finite(value, where: str, errors: list):
    """Report every NaN or infinite number anywhere in the document."""
    if isinstance(value, float) and not math.isfinite(value):
        errors.append(f"{where}: must be a finite number, got {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _expect_finite(item, f"{where}.{key}" if where else str(key), errors)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _expect_finite(item, f"{where}[{i}]", errors)


def parse_config(document: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig.

    Raises ConfigError carrying every problem found, not just the first. An
    entry of the wrong type is reported and left out, so the value checks
    see only well-typed values and defaults.
    """
    if not isinstance(document, dict):
        raise ConfigError("config root must be a JSON object")
    errors: list[str] = []
    _expect_finite(document, "", errors)
    doc = _fitting(document, _DOCUMENT, "", errors)
    sampling = doc.get("sampling", {})

    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        errors.append(f"schema_version: unsupported version {doc['schema_version']!r}")
    mode = doc.get("mode", "variance")
    if mode not in QUANTIFICATION_MODES:
        errors.append(f"mode: must be one of {QUANTIFICATION_MODES}, got {mode!r}")
    seeds = doc.get("seeds", [0, 1, 2])
    if not seeds:
        errors.append("seeds: need at least one seed")
    elif min(seeds) < 0:
        errors.append("seeds: every entry must be a nonnegative integer")
    elif len(set(seeds)) != len(seeds):
        errors.append("seeds: duplicates are not allowed")
    hidden = doc.get("hidden_layers", [64, 64])
    if not all(h > 0 for h in hidden):
        errors.append("hidden_layers: entries must be positive integers")
    budget_fraction = sampling.get("budget_fraction", 0.05)
    if not 0 <= budget_fraction <= 1:
        errors.append("sampling.budget_fraction: must lie in [0, 1]")

    # The constructors check value ranges; report them under the section.
    domain, train, loss = (
        {key: tuple(v) if isinstance(v, list) else v for key, v in doc.get(name, {}).items()}
        for name in ("domain", "train", "loss")
    )
    raw_plans = sampling.get("plans", [])
    for where, build, kwargs in [
        ("domain", DomainSpec, domain),
        ("train", TrainConfig, train),
        ("loss", LossConfig, loss),
        *((f"sampling.plans[{i}]", RoundPlan, raw) for i, raw in enumerate(raw_plans)),
    ]:
        try:
            build(**kwargs)
        except ValueError as exc:  # a DomainError, or numpy refusing an array size
            errors.append(f"{where}: {exc}")
    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    config = ExperimentConfig(
        mode=mode,
        seeds=tuple(seeds),
        output_dir=doc.get("output_dir", "out"),
        hidden_layers=tuple(hidden),
        domain=domain,
        train=train,
        loss=loss,
        plans=tuple(RoundPlan(**raw) for raw in raw_plans),
        schedule=tuple(sampling.get("schedule", [])),
        budget_fraction=float(budget_fraction),
        auroc_epoch=sampling.get("auroc_epoch"),
        ablation=AblationSwitches(**doc.get("ablation", {})),
    )
    # The rounds are checked against the oracle budget split_pools grants.
    budget = oracle_budget(config.budget_fraction, config.domain_spec(0).samples_per_domain)
    plans = config.resolved_plans()
    problems = round_problems(plans, config.resolved_schedule(),
                              config.train_config(0).epochs, budget, config.ablation.us,
                              config.auroc_epoch)
    # Each round's EU candidate window must fit in the unlabeled target
    # samples the earlier rounds left, or the round fails mid-run.
    us, cs = config.ablation.us, config.ablation.cs
    left = config.domain_spec(0).samples_per_domain
    for i, plan in enumerate(plans):
        window = plan.kappa * plan.b_u + (plan.b_c if cs else 0)
        if us and plan.b_u > 0 and window > left:
            problems.append(("plans", f"round {i + 1} selects from {window} unlabeled samples "
                             f"(kappa*b_u{' + b_c' if cs else ''}), but only {left} are left"))
        left -= plan.b_u * us + (min(plan.b_c, left - plan.b_u * us) if cs else 0)
    if problems:
        raise ConfigError("invalid config:\n  " + "\n  ".join(
            f"sampling.{key}: {message}" for key, message in problems))
    return config


def read_text(path) -> str:
    """A UTF-8 file's text; a missing or undecodable file is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None


def read_json(path):
    """A UTF-8 file's JSON document; a syntax error names its line."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None


def load_config(path) -> ExperimentConfig:
    return parse_config(read_json(path))


def config_hash(config: ExperimentConfig) -> str:
    """Short content hash naming the run directory for this config.

    The output directory is excluded so the same experiment keeps its hash
    wherever the results land.
    """
    document = config.to_document()
    del document["output_dir"]
    canonical = json.dumps(document, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
