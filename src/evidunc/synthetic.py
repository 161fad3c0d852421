"""Synthetic two-domain classification data with controllable shift.

Both domains draw Gaussian clusters around shared class means; the target
domain additionally passes every sample through an affine shift (rotation in
the first two feature dimensions, then translation) and scales its noise.
Cluster overlap controls how intrinsically ambiguous samples are, while the
shift controls how far the target drifts from what a source-trained model
knows, so the two uncertainty kinds can be dialed independently.

Labels are generated for every sample and kept on the datasets; the pool
built by ``split_pools`` gates access to the target labels behind the
oracle budget.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .pools import SamplePool, oracle_budget
from .special import DomainError

__all__ = [
    "Dataset",
    "DomainSpec",
    "default_class_means",
    "generate_domain_pair",
    "split_pools",
    "export_domains_csv",
    "import_domains_csv",
]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with 1-based labels for one domain."""

    features: np.ndarray
    labels: np.ndarray
    domain: str

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise DomainError("features must be (n, d) with one label per row")
        if labels.size and labels.min() < 1:
            raise DomainError("labels are 1-based")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]


def default_class_means(num_classes: int, feature_dim: int, radius: float = 4.0) -> np.ndarray:
    """Class means evenly spaced on a circle in the first two dimensions."""
    means = np.zeros((num_classes, feature_dim))
    angles = 2.0 * math.pi * np.arange(num_classes) / num_classes
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


@dataclass(frozen=True)
class DomainSpec:
    """Generator parameters for one source/target pair."""

    num_classes: int = 5
    feature_dim: int = 2
    samples_per_domain: int = 2000
    class_means: np.ndarray | None = None
    class_scale: float = 1.0
    shift_rotation_degrees: float = 0.0
    shift_translation: tuple[float, ...] = ()
    shift_noise_multiplier: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise DomainError("need at least two classes")
        if self.feature_dim < 2:
            raise DomainError("need at least two feature dimensions")
        if self.samples_per_domain < self.num_classes:
            raise DomainError("need at least one sample per class")
        if self.class_scale <= 0 or self.shift_noise_multiplier <= 0:
            raise DomainError("scales must be positive")
        means = (
            default_class_means(self.num_classes, self.feature_dim)
            if self.class_means is None
            else np.asarray(self.class_means, dtype=np.float64)
        )
        if means.shape != (self.num_classes, self.feature_dim):
            raise DomainError("class_means must be one point per class")
        object.__setattr__(self, "class_means", means)
        translation = np.zeros(self.feature_dim)
        if len(self.shift_translation):
            given = np.asarray(self.shift_translation, dtype=np.float64)
            if given.shape != (self.feature_dim,):
                raise DomainError("shift_translation must match feature_dim")
            translation = given
        object.__setattr__(self, "shift_translation", tuple(translation))


def _balanced_labels(n: int, num_classes: int) -> np.ndarray:
    """1-based labels with class counts differing by at most one."""
    base = n // num_classes
    counts = np.full(num_classes, base)
    counts[: n - base * num_classes] += 1
    return np.repeat(np.arange(1, num_classes + 1), counts)


def _rotation(feature_dim: int, degrees: float) -> np.ndarray:
    theta = math.radians(degrees)
    rot = np.eye(feature_dim)
    rot[0, 0] = rot[1, 1] = math.cos(theta)
    rot[0, 1] = -math.sin(theta)
    rot[1, 0] = math.sin(theta)
    return rot


def generate_domain_pair(spec: DomainSpec):
    """(source, target) datasets; deterministic in spec.seed."""
    source_stream, target_stream = np.random.SeedSequence(spec.seed).spawn(2)

    def draw(rng, noise_scale):
        labels = _balanced_labels(spec.samples_per_domain, spec.num_classes)
        noise = rng.normal(size=(spec.samples_per_domain, spec.feature_dim))
        return spec.class_means[labels - 1] + noise_scale * noise, labels

    src_features, src_labels = draw(np.random.default_rng(source_stream), spec.class_scale)
    raw, tgt_labels = draw(
        np.random.default_rng(target_stream),
        spec.class_scale * spec.shift_noise_multiplier,
    )
    rot = _rotation(spec.feature_dim, spec.shift_rotation_degrees)
    tgt_features = raw @ rot.T + np.asarray(spec.shift_translation)
    return (
        Dataset(src_features, src_labels, "source"),
        Dataset(tgt_features, tgt_labels, "target"),
    )


def split_pools(
    source: Dataset,
    target: Dataset,
    budget_fraction: float = 0.05,
    initial_labeled_fraction: float = 0.0,
) -> SamplePool:
    """Pool with the whole target unlabeled and budget = fraction of |T|.

    A nonzero initial labeled fraction reveals that many target labels up
    front through the ordinary oracle path, so warm-start labels spend
    budget like any other query.
    """
    if not 0.0 <= budget_fraction <= 1.0 or not 0.0 <= initial_labeled_fraction <= 1.0:
        raise DomainError("fractions must lie in [0, 1]")
    pool = SamplePool(source.features, source.labels, target.features, target.labels,
                      oracle_budget(budget_fraction, target.size))
    warm = int(initial_labeled_fraction * target.size)
    if warm:
        pool.acquire_with_oracle(np.arange(warm))
    return pool


def export_domains_csv(source: Dataset, target: Dataset, path) -> None:
    """Write both domains as rows of (sample_id, domain, label, f1..fd).

    Sample ids are per-domain row indices, matching pool ids.
    """
    dim = source.features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "domain", "label"] + [f"f{i + 1}" for i in range(dim)])
        for dataset in (source, target):
            for i in range(dataset.size):
                writer.writerow(
                    [i, dataset.domain, int(dataset.labels[i])]
                    + [repr(float(v)) for v in dataset.features[i]]
                )


def import_domains_csv(path):
    """Read a (source, target) pair written by export_domains_csv.

    Malformed rows are reported with their line number.
    """
    buckets = {"source": [], "target": []}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["sample_id", "domain", "label"]:
            raise DomainError(f"{path}: missing or malformed header row")
        dim = len(header) - 3
        if dim < 1:
            raise DomainError(f"{path}: no feature columns in header")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3 + dim:
                raise DomainError(f"{path}:{line_no}: expected {3 + dim} columns")
            _, domain, label = row[0], row[1], row[2]
            if domain not in buckets:
                raise DomainError(f"{path}:{line_no}: unknown domain {domain!r}")
            try:
                parsed = (int(label), [float(v) for v in row[3:]])
            except ValueError as exc:
                raise DomainError(f"{path}:{line_no}: {exc}") from None
            buckets[domain].append(parsed)
    out = []
    for domain in ("source", "target"):
        rows = buckets[domain]
        if not rows:
            raise DomainError(f"{path}: no rows for domain {domain!r}")
        labels = np.array([r[0] for r in rows], dtype=np.int64)
        features = np.array([r[1] for r in rows])
        out.append(Dataset(features, labels, domain))
    return tuple(out)
