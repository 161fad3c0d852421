"""Evaluation metrics and run reporting: misclassification AUROC, class
pairs ranked by their mean correlation, per-class uncertainty summaries,
per-sample uncertainty rows, and the per-run report record. Every metric
takes ``(n, C)`` alpha, never a model. Nothing here writes files;
``experiments`` formats the run directory.

The AUROC here is the Mann-Whitney rank statistic with tied scores credited
half. The test suite checks it against a pair-counting oracle kept in
``tests/oracles.py``: the two routes are algebraically identical, both
numerators are exact multiples of one half, and the tests hold them to
bitwise equality rather than approximate agreement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .dirichlet import (
    _total_and_correlation,
    class_variances_batch,
    entropy_uncertainties_batch,
    predict_class_batch,
    variance_uncertainties_batch,
)
from .special import DomainError

__all__ = [
    "auroc",
    "rank_class_pairs",
    "export_uncertainty_histograms",
    "class_level_uncertainty_summary",
    "batch_uncertainties",
    "AdaRunReport",
    "SELECTION_LOG_FIELDS",
]


def batch_uncertainties(alpha: np.ndarray, mode: str):
    """(total, aleatoric, epistemic) sample uncertainties per row, in the
    requested quantification mode."""
    if mode == "variance":
        return variance_uncertainties_batch(alpha)
    if mode == "entropy":
        return entropy_uncertainties_batch(alpha)
    raise DomainError(f"unknown quantification mode {mode!r}")


def _validate_binary(scores, positives):
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if scores.shape != positives.shape or scores.ndim != 1:
        raise DomainError("scores and labels must be matching 1-D sequences")
    bad = ~np.isfinite(scores)
    if bad.any():
        raise DomainError(f"scores must be finite; index {int(np.argmax(bad))} is not")
    n_pos = int(positives.sum())
    if n_pos == 0 or n_pos == positives.size:
        raise DomainError("AUROC needs at least one positive and one negative")
    return scores, positives, n_pos, positives.size - n_pos


def auroc(scores, is_positive) -> float:
    """Rank-based AUROC of scores for detecting the positive class.

    Equivalent to the probability that a random positive outscores a random
    negative, with ties counted half.
    """
    scores, positives, n_pos, n_neg = _validate_binary(scores, is_positive)
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    # Each tied block of the sorted scores, 0-based positions start..end-1,
    # shares the average 1-based rank (start + end + 1) / 2, a multiple of
    # one half and so exact in binary.
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], scores.size]
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    rank_sum = ranks[positives].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def rank_class_pairs(alpha: np.ndarray, labels=None):
    """All class pairs sorted most-negatively-correlated first.

    Returns (class_a, class_b, correlation) triples, the correlation being
    the mean over the samples belonging to either class of the pair; under
    this model the off-diagonal correlations are nonpositive, so the head of
    the list is the most confusable pair. Ties order lexicographically.
    Membership comes from ``labels`` when given, otherwise from the
    predicted classes. Samples from other classes carry no information about
    a pair and are excluded; a pair with no samples is left out.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    c = alpha.shape[1]
    if c < 2:
        raise DomainError("need at least two classes")
    correlation = _total_and_correlation(alpha)[2]
    membership = predict_class_batch(alpha) if labels is None else np.asarray(labels)
    if membership.shape != (alpha.shape[0],):
        raise DomainError("labels must provide one class per prediction")
    triples = []
    for a, b in combinations(range(1, c + 1), 2):
        mask = (membership == a) | (membership == b)
        if mask.any():
            triples.append((a, b, float(correlation[mask, a - 1, b - 1].mean())))
    triples.sort(key=lambda t: (t[2], t[0], t[1]))
    return triples


def export_uncertainty_histograms(source_alpha, target_alpha, mode):
    """Per-sample (domain, AU, EU) rows for both domains' alpha, enough to
    rebuild uncertainty histograms externally."""
    rows = []
    for domain, alpha in (("source", source_alpha), ("target", target_alpha)):
        _, au, eu = batch_uncertainties(np.asarray(alpha, dtype=np.float64), mode)
        rows.extend((domain, float(a), float(e)) for a, e in zip(au, eu))
    return rows


def class_level_uncertainty_summary(alpha):
    """Per-class mean total/aleatoric/epistemic uncertainties over one
    dataset's alpha (arithmetic mean of the per-sample class vectors)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape[0] == 0:
        raise DomainError("cannot summarize an empty dataset")
    total, alea, epis = class_variances_batch(alpha)
    return {
        "total": total.mean(axis=0).tolist(),
        "aleatoric": alea.mean(axis=0).tolist(),
        "epistemic": epis.mean(axis=0).tolist(),
    }


# The fields of an ``AdaRunReport.selection_log`` row, in selection_log.csv's column order.
SELECTION_LOG_FIELDS = ("round", "sample_id", "selection_type", "epistemic", "aleatoric",
                        "predicted_class", "true_class")


@dataclass
class AdaRunReport:
    """Everything one active-adaptation run reports.

    AUROC fields are None when the snapshot epoch produced only correct (or
    only wrong) predictions, where the statistic is undefined.
    """

    mode: str
    seed: int
    round_accuracies: list = field(default_factory=list)
    final_accuracy: float = 0.0
    auroc_epistemic: float | None = None
    auroc_aleatoric: float | None = None
    auroc_epoch: int | None = None
    pseudo_label_accuracy: float | None = None
    model_accuracy_on_unlabeled: float | None = None
    selection_log: list = field(default_factory=list)
    class_uncertainty_source: dict = field(default_factory=dict)
    class_uncertainty_target: dict = field(default_factory=dict)
    correlated_pairs: list = field(default_factory=list)
    loss_curve: list = field(default_factory=list)
    budget_spent: int = 0
    eu_sorts_per_round: list = field(default_factory=list)

    def validate(self):
        values = [self.final_accuracy, *self.round_accuracies]
        for v in (self.auroc_epistemic, self.auroc_aleatoric, self.pseudo_label_accuracy):
            if v is not None:
                values.append(v)
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise DomainError("accuracies and AUROC values must lie in [0, 1]")
        if any(not -1.0 <= c <= 1.0 for _, _, c in self.correlated_pairs):
            raise DomainError("pair correlations must lie in [-1, 1]")

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

