"""Slow, independent reference implementations the tests check the package
against. They live here rather than in the package because nothing but the
tests should call them."""

import numpy as np

from evidunc.dirichlet import (
    covariance_bundle,
    sample_uncertainty_entropy,
    sample_uncertainty_variance,
)
from evidunc.special import digamma, log_gamma, trigamma


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


def kl_batch_seven_calls(alpha, classes):
    """The KL regularizer and its alpha-gradient as seven separate special
    function calls: lnGamma(s), lnGamma(C), lnGamma(alpha~), digamma(alpha~),
    digamma(s), trigamma(alpha~), trigamma(s). ``losses._kl_batch`` must
    match it bit for bit."""
    n, c = alpha.shape
    rows = np.arange(n)
    tilde = alpha.copy()
    tilde[rows, classes - 1] = 1.0
    s = tilde.sum(axis=1)
    loss = (
        log_gamma(s)
        - log_gamma(float(c))
        - log_gamma(tilde).sum(axis=1)
        + ((tilde - 1.0) * (digamma(tilde) - digamma(s)[:, None])).sum(axis=1)
    )
    grad = (tilde - 1.0) * trigamma(tilde) - ((s - c) * trigamma(s))[:, None]
    grad[rows, classes - 1] = 0.0
    return loss, grad


def ug_entropy_batch_four_calls(alpha, lambda_a, lambda_e):
    """The entropy uncertainty-guided loss and its alpha-gradient as four
    separate calls: digamma and trigamma of alpha0 + 1 and of alpha + 1.
    ``losses._ug_entropy_batch`` must match it bit for bit."""
    a0 = alpha.sum(axis=1)
    mu = alpha / a0[:, None]
    log_mu = np.log(mu)
    u = -(mu * log_mu).sum(axis=1)
    gap = digamma(a0 + 1.0)[:, None] - digamma(alpha + 1.0)
    u_alea = (mu * gap).sum(axis=1)
    du = -(log_mu + u[:, None]) / a0[:, None]
    du_alea = (
        (gap - u_alea[:, None]) / a0[:, None]
        + trigamma(a0 + 1.0)[:, None]
        - mu * trigamma(alpha + 1.0)
    )
    diff = lambda_a - lambda_e
    return lambda_e * u + diff * u_alea, lambda_e * du + diff * du_alea


def per_prediction_record(pred) -> dict:
    """The quantify record of one prediction, assembled field by field from
    the single-prediction functions. ``dirichlet.quantify_records`` must
    give the same record, value for value, for every row of a batch."""
    var = sample_uncertainty_variance(pred)
    ent = sample_uncertainty_entropy(pred)
    cov = covariance_bundle(pred)
    parts = ("total", "aleatoric", "epistemic")
    return {
        "alpha": pred.alpha.tolist(),
        "uncertainty": {
            "variance": {
                "sample": {k: getattr(var, f"sample_{k}") for k in parts},
                "class": {k: getattr(var, f"class_{k}").tolist() for k in parts},
            },
            "entropy": {"sample": {k: getattr(ent, f"sample_{k}") for k in parts}},
        },
        "covariance": cov.total.tolist(),
        "covariance_aleatoric": cov.aleatoric.tolist(),
        "covariance_epistemic": cov.epistemic.tolist(),
        "correlation": cov.correlation.tolist(),
    }
