"""Experiment configuration: one JSON document describing data, model,
training, sampling, and ablation switches for a multi-seed run.

The document is versioned and strictly validated: unknown keys and bad
values are collected and reported together, each error naming the offending
field path. Parsing then serializing then parsing again yields an equal
config, which keeps run directories content-addressable.

Per-run randomness never enters the config sections; the ``seeds`` list is
the only entropy source. Each seed expands into independent component seeds
(data, weight init, batch shuffling) inside the experiment driver.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

from .enn import TrainConfig
from .losses import LossConfig
from .sampling import RoundPlan, default_round_plans, default_schedule
from .special import DomainError
from .synthetic import DomainSpec

__all__ = ["ConfigError", "AblationSwitches", "ExperimentConfig", "config_hash"]


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
        parts = [name.upper() for name in ("ug", "us", "cs") if getattr(self, name)]
        return "source-only" if not parts else "+".join(parts)


def _field_names(cls, *excluded) -> set:
    return {f.name for f in fields(cls)} - set(excluded)


# Section keys are the dataclass fields, minus what the runner sets per run
# (seeds, the quantification mode) and the class means, which configs leave
# at their default layout.
_DOMAIN_KEYS = _field_names(DomainSpec, "seed", "class_means")
_TRAIN_KEYS = _field_names(TrainConfig, "seed")
_LOSS_KEYS = _field_names(LossConfig, "mode")
_ABLATION_KEYS = _field_names(AblationSwitches)
_SAMPLING_KEYS = {"plans", "schedule", "auroc_epoch", "budget_fraction"}
_PLAN_KEYS = _field_names(RoundPlan)
_TOP_KEYS = {
    "schema_version",
    "mode",
    "seeds",
    "output_dir",
    "hidden_layers",
    "domain",
    "train",
    "loss",
    "sampling",
    "ablation",
}

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "variance"
    seeds: tuple = (0, 1, 2)
    output_dir: str = "out"
    hidden_layers: tuple = (64, 64)
    domain: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    loss: dict = field(default_factory=dict)
    plans: tuple = ()
    schedule: tuple = ()
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
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
            "hidden_layers": list(self.hidden_layers),
            "domain": dict(self.domain),
            "train": dict(self.train),
            "loss": dict(self.loss),
            "sampling": {
                "plans": [asdict(p) for p in self.plans],
                "schedule": list(self.schedule),
                "budget_fraction": self.budget_fraction,
                "auroc_epoch": self.auroc_epoch,
            },
            "ablation": asdict(self.ablation),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2, sort_keys=True)

    def with_switches(self, **flags) -> "ExperimentConfig":
        return replace(self, ablation=replace(self.ablation, **flags))


def _expect_keys(section: dict, allowed: set, where: str, errors: list):
    for key in section:
        if key not in allowed:
            errors.append(f"{where}.{key}: unknown field")


def _expect_type(value, types, where: str, errors: list) -> bool:
    if not isinstance(value, types):
        names = "/".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        errors.append(f"{where}: expected {names}, got {type(value).__name__}")
        return False
    return True


def _section(document: dict, name: str, errors: list) -> dict:
    value = document.get(name, {})
    return dict(value) if _expect_type(value, dict, name, errors) else {}


def _is_int(value) -> bool:
    """JSON integers only: bool is an int subclass but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


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

    Raises ConfigError carrying every problem found, not just the first.
    """
    errors: list[str] = []
    if not isinstance(document, dict):
        raise ConfigError("config root must be a JSON object")
    _expect_keys(document, _TOP_KEYS, "config", errors)
    _expect_finite(document, "", errors)

    version = document.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        errors.append(f"schema_version: unsupported version {version!r}")

    mode = document.get("mode", "variance")
    if mode not in ("variance", "entropy"):
        errors.append(f"mode: must be 'variance' or 'entropy', got {mode!r}")

    seeds = document.get("seeds", [0, 1, 2])
    if not _expect_type(seeds, list, "seeds", errors) or not seeds:
        errors.append("seeds: need at least one seed")
        seeds = [0]
    elif not all(_is_int(s) and s >= 0 for s in seeds):
        errors.append("seeds: every entry must be a nonnegative integer")
        seeds = [0]
    elif len(set(seeds)) != len(seeds):
        errors.append("seeds: duplicates are not allowed")

    output_dir = document.get("output_dir", "out")
    _expect_type(output_dir, str, "output_dir", errors)

    hidden = document.get("hidden_layers", [64, 64])
    if _expect_type(hidden, list, "hidden_layers", errors):
        if not all(_is_int(h) and h > 0 for h in hidden):
            errors.append("hidden_layers: entries must be positive integers")

    domain = _section(document, "domain", errors)
    _expect_keys(domain, _DOMAIN_KEYS, "domain", errors)
    if "shift_translation" in domain:
        translation = domain["shift_translation"]
        if isinstance(translation, (list, tuple)) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in translation
        ):
            domain["shift_translation"] = tuple(translation)
        else:
            errors.append("domain.shift_translation: must be a list of numbers")
            del domain["shift_translation"]

    train = _section(document, "train", errors)
    _expect_keys(train, _TRAIN_KEYS, "train", errors)

    loss = _section(document, "loss", errors)
    _expect_keys(loss, _LOSS_KEYS, "loss", errors)

    sampling = _section(document, "sampling", errors)
    _expect_keys(sampling, _SAMPLING_KEYS, "sampling", errors)
    plans = []
    raw_plans = sampling.get("plans", [])
    if not _expect_type(raw_plans, list, "sampling.plans", errors):
        raw_plans = []
    for i, raw in enumerate(raw_plans):
        if not _expect_type(raw, dict, f"sampling.plans[{i}]", errors):
            continue
        _expect_keys(raw, _PLAN_KEYS, f"sampling.plans[{i}]", errors)
        try:
            plans.append(RoundPlan(**raw))
        except (DomainError, TypeError) as exc:
            errors.append(f"sampling.plans[{i}]: {exc}")
    schedule = sampling.get("schedule", [])
    if not isinstance(schedule, list) or not all(_is_int(e) for e in schedule):
        errors.append("sampling.schedule: must be a list of epochs")
        schedule = []
    budget_fraction = sampling.get("budget_fraction", 0.05)
    if not isinstance(budget_fraction, (int, float)) or not 0 <= budget_fraction <= 1:
        errors.append("sampling.budget_fraction: must lie in [0, 1]")
        budget_fraction = 0.05
    auroc_epoch = sampling.get("auroc_epoch")
    if auroc_epoch is not None and not _is_int(auroc_epoch):
        errors.append("sampling.auroc_epoch: must be an integer epoch or null")
        auroc_epoch = None

    ablation_doc = _section(document, "ablation", errors)
    _expect_keys(ablation_doc, _ABLATION_KEYS, "ablation", errors)
    for key, value in ablation_doc.items():
        if key in _ABLATION_KEYS and not isinstance(value, bool):
            errors.append(f"ablation.{key}: must be true or false")
            ablation_doc[key] = bool(value)

    # Section values are validated by their own constructors; surface those
    # messages under the section name.
    for section, build in (
        ("domain", lambda: DomainSpec(seed=0, **domain)),
        ("train", lambda: TrainConfig(seed=0, **train)),
        ("loss", lambda: LossConfig(mode=mode if mode in ("variance", "entropy") else "variance", **loss)),
    ):
        try:
            build()
        except (DomainError, TypeError) as exc:
            errors.append(f"{section}: {exc}")

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))

    return ExperimentConfig(
        mode=mode,
        seeds=tuple(seeds),
        output_dir=output_dir,
        hidden_layers=tuple(hidden),
        domain=domain,
        train=train,
        loss=loss,
        plans=tuple(plans),
        schedule=tuple(schedule),
        budget_fraction=float(budget_fraction),
        auroc_epoch=auroc_epoch,
        ablation=AblationSwitches(**ablation_doc),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None
    return parse_config(document)


def config_hash(config: ExperimentConfig) -> str:
    """Short content hash naming the run directory for this config.

    The output directory is excluded so the same experiment keeps its hash
    wherever the results land.
    """
    document = config.to_document()
    del document["output_dir"]
    canonical = json.dumps(document, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
