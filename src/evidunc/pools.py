"""Sample pools for active domain adaptation with enforced budget accounting.

A pool holds the labeled source set plus the target set split into a labeled
part and an unlabeled part. Target features are public like the source set;
target labels exist in the pool (simulation needs them) but are
access-gated: the only ways to obtain a label for training are

- ``acquire_with_oracle``, which reveals true labels and spends budget, or
- ``acquire_with_pseudo_labels``, which is free and stores caller-supplied
  labels; ``supervised_set`` weighs them by the pseudo-label weight, and no
  other view tells the two kinds apart.

``true_target_labels`` bypasses the gate and exists for evaluation and
reporting code only; selection logic must never call it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PoolError", "BudgetExhaustedError", "SamplePool", "oracle_budget"]

# Per-id target states.
_UNLABELED, _ORACLE, _PSEUDO = 0, 1, 2


class PoolError(ValueError):
    """Structural misuse of a pool: bad indices, bad shapes, bad labels,
    non-finite features."""


class BudgetExhaustedError(RuntimeError):
    """Raised when an oracle acquisition would exceed the labeling budget."""


def oracle_budget(budget_fraction: float, num_target: int) -> int:
    """Oracle labels a pool grants: the budget fraction of |T|, rounded."""
    return int(round(budget_fraction * num_target))


def _check_features_labels(features, labels, what):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2:
        raise PoolError(f"{what} features must be an (n, d) matrix")
    bad = ~np.isfinite(features).all(axis=1)
    if bad.any():
        raise PoolError(f"{what} features must be finite; row {int(np.argmax(bad))} is not")
    if labels.shape != (features.shape[0],):
        raise PoolError(f"{what} labels must be one 1-based class per sample")
    if not np.issubdtype(labels.dtype, np.integer):
        raise PoolError(f"{what} labels must be integers")
    if labels.size and labels.min() < 1:
        raise PoolError(f"{what} labels must be 1-based")
    return features, labels.astype(np.int64)


class SamplePool:
    """Source set, target labeled/unlabeled split, and oracle budget."""

    def __init__(
        self,
        source_features,
        source_labels,
        target_features,
        target_labels,
        budget_total: int,
    ):
        self.source_features, self.source_labels = _check_features_labels(
            source_features, source_labels, "source"
        )
        self.target_features, self._target_labels = _check_features_labels(
            target_features, target_labels, "target"
        )
        if self.source_features.shape[1] != self.target_features.shape[1]:
            raise PoolError("source and target feature dimensions differ")
        if budget_total < 0:
            raise PoolError("budget must be nonnegative")
        self.budget_total = int(budget_total)
        self.budget_spent = 0
        # Target indices double as stable sample ids for tie-breaking. Each
        # id has a state and a training label (0 while unlabeled); _order
        # lists labeled ids in acquisition order, which fixes the row order
        # of the labeled views.
        self._state = np.full(self.num_target, _UNLABELED, dtype=np.int8)
        self._label = np.zeros(self.num_target, dtype=np.int64)
        self._order: list[int] = []

    # --- sizes ---

    @property
    def num_source(self) -> int:
        return self.source_features.shape[0]

    @property
    def num_target(self) -> int:
        return self.target_features.shape[0]

    @property
    def num_unlabeled(self) -> int:
        return self.num_target - len(self._order)

    @property
    def oracle_count(self) -> int:
        return int(np.count_nonzero(self._state == _ORACLE))

    # --- unlabeled view ---

    def unlabeled_ids(self) -> np.ndarray:
        """Ids of the unlabeled target samples in stable ascending order."""
        return np.flatnonzero(self._state == _UNLABELED)

    def unlabeled_features(self) -> np.ndarray:
        return self.target_features[self.unlabeled_ids()]

    # --- label acquisition (the only training-time label paths) ---

    def _unlabeled(self, ids) -> np.ndarray:
        """The 1-D ``ids`` as int64, checked to be distinct unlabeled ids."""
        if ids.size and not np.issubdtype(ids.dtype, np.integer):
            raise PoolError(f"sample ids must be integers, got {ids.tolist()}")
        ids = ids.astype(np.int64)
        if np.unique(ids).size != ids.size:
            raise PoolError("duplicate sample ids in acquisition")
        # Check the range before indexing: a negative id would wrap around.
        outside = (ids < 0) | (ids >= self.num_target)
        missing = ids[outside] if outside.any() else ids[self._state[ids] != _UNLABELED]
        if missing.size:
            raise PoolError(f"samples not in the unlabeled pool: {missing.tolist()}")
        return ids

    def _take(self, ids, labels, state) -> None:
        self._state[ids] = state
        self._label[ids] = labels
        self._order.extend(ids.tolist())

    def acquire_with_oracle(self, ids) -> np.ndarray:
        """Move samples to the labeled target set, revealing their true
        labels at a cost of one budget unit each."""
        ids = np.atleast_1d(np.asarray(ids))
        if self.budget_spent + ids.size > self.budget_total:
            raise BudgetExhaustedError(
                f"acquiring {ids.size} labels would exceed the budget "
                f"({self.budget_spent}/{self.budget_total} spent)"
            )
        ids = self._unlabeled(ids)
        labels = self._target_labels[ids]
        self._take(ids, labels, _ORACLE)
        self.budget_spent += ids.size
        return labels

    def acquire_with_pseudo_labels(self, ids, labels) -> None:
        """Move samples to the labeled target set under caller-supplied
        pseudo labels; costs nothing."""
        labels = np.atleast_1d(np.asarray(labels))
        ids = np.atleast_1d(np.asarray(ids))
        if labels.shape != ids.shape:
            raise PoolError("one pseudo label per sample id is required")
        if labels.size and (not np.issubdtype(labels.dtype, np.integer) or labels.min() < 1):
            raise PoolError("pseudo labels must be 1-based integers")
        self._take(self._unlabeled(ids), labels, _PSEUDO)

    # --- training views ---

    def supervised_set(self, pseudo_label_weight: float = 1.0):
        """(features, labels, weights) over source plus labeled target.

        Oracle-labeled rows carry weight 1; pseudo-labeled rows carry the
        given weight.
        """
        idx = np.array(self._order, dtype=np.int64)
        features = np.vstack([self.source_features, self.target_features[idx]])
        labels = np.concatenate([self.source_labels, self._label[idx]])
        weights = np.concatenate(
            [
                np.ones(self.num_source),
                np.where(self._state[idx] == _ORACLE, 1.0, pseudo_label_weight),
            ]
        )
        return features, labels, weights

    # --- evaluation-only access ---

    def true_target_labels(self) -> np.ndarray:
        """True labels of the target samples, by id. Evaluation and reporting
        only; never an input to selection or training."""
        return self._target_labels.copy()

    def check_invariants(self) -> None:
        """Assert the structural pool invariants; cheap enough to call after
        every sampling round."""
        idx = np.array(self._order, dtype=np.int64)
        if np.unique(idx).size != idx.size or np.any(self._state[idx] == _UNLABELED):
            raise PoolError("acquisition order disagrees with the per-id states")
        if idx.size != np.count_nonzero(self._state != _UNLABELED):
            raise PoolError("target samples lost or duplicated")
        if self.budget_spent > self.budget_total:
            raise PoolError("budget overspent")
        if self.budget_spent != self.oracle_count:
            raise PoolError("budget spent does not match oracle-labeled count")
