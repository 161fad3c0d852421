"""Experiment configuration: one JSON document describing data, model,
training, sampling, and ablation switches for a multi-seed run.

The dataclasses are the schema: each section is checked against the field
types of ``DomainSpec``, ``TrainConfig``, ``LossConfig``,
``AblationSwitches`` or ``RoundPlan``, the top level and ``sampling``
against ``ExperimentConfig``. An ``int`` is a JSON integer (never a bool or
``6.0``), a ``float`` any number but a bool, ``X | None`` also takes null
and ``tuple[T, ...]`` is a list of ``T``. The constructors are the
validator, so ``ExperimentConfig(...)``, ``replace`` and ``with_switches``
raise ``ConfigError`` too, each problem under its field path, such as
``sampling.plans[0].b_u``; ``sampling.round_problems`` checks the rounds.

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
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .enn import TrainConfig
from .losses import QUANTIFICATION_MODES, LossConfig
from .pools import oracle_budget
from .sampling import RoundPlan, default_round_plans, default_schedule, round_problems
from .synthetic import MAX_SIZE, DomainSpec, float64_array_fits

__all__ = ["ConfigError", "AblationSwitches", "ExperimentConfig", "config_hash"]

SCHEMA_VERSION = 1
MAX_SEED = 2**64 - 1  # one 64-bit word of seed entropy, and a short directory name
_SAMPLING = ("plans", "schedule", "budget_fraction", "auroc_epoch")  # grouped in the document


class ConfigError(ValueError):
    """Invalid experiment config; message lists every offending field, one
    entry of ``problems`` each (``rounds`` marks the round layout's)."""

    def __init__(self, problems, rounds: bool = False):
        listed = not isinstance(problems, str)
        super().__init__("invalid config:\n  " + "\n  ".join(problems) if listed else problems)
        self.problems, self.rounds = (problems if listed else [problems]), rounds


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

    def __post_init__(self):
        """Raise ConfigError listing every value that cannot run."""
        problems = []
        if self.mode not in QUANTIFICATION_MODES:
            problems.append(f"mode: must be one of {QUANTIFICATION_MODES}, got {self.mode!r}")
        if not self.seeds:
            problems.append("seeds: need at least one seed")
        elif not all(0 <= seed <= MAX_SEED for seed in self.seeds):
            problems.append(f"seeds: every entry must be an integer in 0..{MAX_SEED}")
        elif len(set(self.seeds)) != len(self.seeds):
            problems.append("seeds: duplicates are not allowed")
        if not all(0 < h <= MAX_SIZE for h in self.hidden_layers):
            problems.append(f"hidden_layers: entries must be integers in 1..{MAX_SIZE}")
        if not 0 <= self.budget_fraction <= 1:
            problems.append("sampling.budget_fraction: must lie in [0, 1]")
        for name, build in [("domain", self.domain_spec), ("train", self.train_config),
                            ("loss", lambda _: LossConfig(**self.loss))]:
            try:
                build(0)
            except (ValueError, MemoryError, OverflowError) as exc:  # numpy refuses sizes too
                problems.append(f"{name}: {exc}")
        if problems:
            raise ConfigError(problems)
        object.__setattr__(self, "budget_fraction", float(self.budget_fraction))
        spec = self.domain_spec(0)
        sizes = [spec.feature_dim, *self.hidden_layers, spec.num_classes]
        too_big = [f"{m} x {n}" for m, n in zip(sizes, sizes[1:]) if not float64_array_fits(m, n)]
        if too_big:
            raise ConfigError([f"hidden_layers: {' and '.join(too_big)} weights would take more "
                               f"than numpy's limit of {MAX_SIZE} bytes"])
        # Once all else passes, the rounds are checked against the oracle
        # budget split_pools grants.
        num_target, epochs = spec.samples_per_domain, self.train_config(0).epochs
        rounds = round_problems(self.resolved_plans(), self.resolved_schedule(), epochs,
                                oracle_budget(self.budget_fraction, num_target), num_target,
                                self.ablation.us, self.ablation.cs, self.auroc_epoch)
        if rounds:
            raise ConfigError([f"sampling.{k}: {message}" for k, message in rounds], rounds=True)

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
    it fits and built; each other entry is reported under its field path."""
    kept = {}
    for key, value in section.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            errors.append(f"{path or 'config'}.{key}: unknown field")
        elif (fit := _check(value, schema[key], where, errors)) is not _BAD:
            kept[key] = _build(fit, schema[key], where, errors)
    return {key: fit for key, fit in kept.items() if fit is not _BAD}


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
    # An integer in a float field (one that takes 0.5) is used as a float, so it must fit one.
    if type(value) is int and _fits(0.5, hint) and abs(value) > sys.float_info.max:
        errors.append(f"{path}: integer too large for a float")
        return _BAD
    return value


def _build(value, hint, path: str, errors: list):
    """A fitting JSON value as a config holds it: lists as tuples, dataclass
    objects built, or _BAD with the constructor's error under its path."""
    item = get_args(hint)[0] if get_origin(hint) is tuple else None
    if is_dataclass(item):
        built = [_build(v, item, f"{path}[{i}]", errors) for i, v in enumerate(value)]
        return _BAD if _BAD in built else tuple(built)
    if not is_dataclass(hint):
        return tuple(value) if isinstance(value, list) else value
    try:
        return hint(**value)
    except ValueError as exc:  # a DomainError
        errors.append(f"{path}: {exc}")
        return _BAD


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
    """Type-check a parsed JSON document into an ExperimentConfig; raises
    ConfigError carrying every problem found. An ill-typed entry is reported
    and left out, so the constructors see only well-typed values and
    defaults, and then the round layout is not reported."""
    if not isinstance(document, dict):
        raise ConfigError("config root must be a JSON object")
    errors: list[str] = []
    _expect_finite(document, "", errors)
    doc = _fitting(document, _DOCUMENT, "", errors)
    version, sampling = doc.pop("schema_version", SCHEMA_VERSION), doc.pop("sampling", {})
    if version != SCHEMA_VERSION:
        errors.append(f"schema_version: unsupported version {version!r}")
    try:
        config = ExperimentConfig(**doc, **sampling)
    except ConfigError as exc:
        if not (errors and exc.rounds):
            errors += exc.problems
    if errors:
        raise ConfigError(errors)
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
    except ValueError as exc:  # an integer of more digits than Python converts
        raise ConfigError(f"{path}: {exc}") from None


def load_config(path, **overrides) -> ExperimentConfig:
    """A JSON file's config, ``overrides`` merged into its top level."""
    document = read_json(path)
    return parse_config({**document, **overrides} if isinstance(document, dict) else document)


def config_hash(config: ExperimentConfig) -> str:
    """Short content hash naming the run directory for this config.

    The output directory is excluded so the same experiment keeps its hash
    wherever the results land.
    """
    document = config.to_document()
    del document["output_dir"]
    canonical = json.dumps(document, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
