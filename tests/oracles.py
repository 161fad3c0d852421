"""Slow, independent reference implementations the tests check the package
against. They live here rather than in the package because nothing but the
tests should call them."""

import numpy as np


def brute_force_auroc(scores, is_positive) -> float:
    """Pair-counting AUROC: the share of (positive, negative) pairs in which
    the positive scores higher, ties counted half. Quadratic."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(is_positive, dtype=bool)
    pos = scores[positives]
    neg = scores[~positives]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (pos.size * neg.size)
