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

import math
from dataclasses import dataclass

import numpy as np

from .pools import SamplePool, oracle_budget
from .special import DomainError, _check_finite

__all__ = [
    "MAX_SIZE",
    "Dataset",
    "DomainSpec",
    "default_class_means",
    "float64_array_fits",
    "generate_domain_pair",
    "split_pools",
]


# The largest array dimension numpy can index, and the most bytes one array
# may take; a size above it cannot run.
MAX_SIZE = int(np.iinfo(np.intp).max)


def float64_array_fits(*dims: int) -> bool:
    """Whether numpy accepts a float64 array of these dimensions: its byte
    size must not pass ``MAX_SIZE``."""
    return math.prod(dims) * 8 <= MAX_SIZE


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with 1-based labels for one domain."""

    features: np.ndarray
    labels: np.ndarray
    domain: str

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise DomainError("features must be (n, d) with one label per row")
        bad = ~np.isfinite(features).all(axis=1)
        if bad.any():
            raise DomainError(f"features must be finite; row {int(np.argmax(bad))} is not")
        if labels.size and not np.issubdtype(labels.dtype, np.integer):
            raise DomainError(f"labels must be integers, got {labels.dtype}")
        if labels.size and labels.min() < 1:
            raise DomainError("labels are 1-based")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))

    @property
    def size(self) -> int:
        return self.features.shape[0]


def default_class_means(num_classes: int, feature_dim: int) -> np.ndarray:
    """Class means evenly spaced on a radius-4 circle in dimensions 1 and 2."""
    means = np.zeros((num_classes, feature_dim))
    angles = 2.0 * math.pi * np.arange(num_classes) / num_classes
    means[:, 0] = 4.0 * np.cos(angles)
    means[:, 1] = 4.0 * np.sin(angles)
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
        too_large = [name for name in ("num_classes", "feature_dim", "samples_per_domain")
                     if getattr(self, name) > MAX_SIZE]
        if too_large:
            raise DomainError(f"{' and '.join(too_large)} must be at most {MAX_SIZE}")
        if self.num_classes < 2:
            raise DomainError("need at least two classes")
        if self.feature_dim < 2:
            raise DomainError("need at least two feature dimensions")
        if self.samples_per_domain < self.num_classes:
            raise DomainError("need at least one sample per class")
        # The features are the largest array; the class means are smaller.
        if not float64_array_fits(self.samples_per_domain, self.feature_dim):
            raise DomainError(f"samples_per_domain x feature_dim features would take more "
                              f"than numpy's limit of {MAX_SIZE} bytes")
        _check_finite(self, "class_means", "class_scale", "shift_rotation_degrees",
                      "shift_translation", "shift_noise_multiplier")
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


def split_pools(source: Dataset, target: Dataset, budget_fraction: float = 0.05) -> SamplePool:
    """Pool with the whole target unlabeled and budget = fraction of |T|."""
    if not 0.0 <= budget_fraction <= 1.0:
        raise DomainError("budget_fraction must lie in [0, 1]")
    return SamplePool(source.features, source.labels, target.features, target.labels,
                      oracle_budget(budget_fraction, target.size))
