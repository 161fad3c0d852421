"""Slow, independent reference implementations the tests check the package
against. They live here rather than in the package because nothing but the
tests should call them."""

import numpy as np

from evidunc.dirichlet import (
    class_variances_batch,
    covariance_batch,
    entropy_uncertainties_batch,
    variance_uncertainties_batch,
)
from evidunc.special import _DIGAMMA, _LOG_GAMMA, _SHIFT, _TRIGAMMA, digamma, log_gamma, trigamma


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


def shift_and_series_per_step(x, parts=(_LOG_GAMMA, _DIGAMMA, _TRIGAMMA)):
    """lnGamma, digamma and trigamma of x by the package's shift-and-series
    scheme, one shift step and one Horner series per part at a time, on the
    whole argument. ``special.log_gamma``, ``digamma`` and ``trigamma`` must
    match it bit for bit, and in type: a ``float`` for a Python or numpy
    scalar, a numpy scalar for a 0-d array; so must the unchecked
    ``special._series`` the losses call, on the flattened argument."""
    arr = np.asarray(x, dtype=np.float64)
    y = arr + _SHIFT
    sums = [(np.zeros_like(y), correction) for correction, _, _ in parts]
    for i in range(_SHIFT - 1, -1, -1):
        t = arr + i
        for corr, correction in sums:
            corr += correction(t, 1.0 / t)
    with np.errstate(over="ignore"):
        z = 1.0 / (y * y)
    outs = []
    for (corr, _), (_, coeffs, finish) in zip(sums, parts):
        series = np.zeros_like(y)
        for c in reversed(coeffs):
            series = series * z + c
        out = finish(y, z, series, corr)
        outs.append(float(out) if np.isscalar(x) else out)
    return tuple(outs)


def entropy_uncertainties_two_calls(alpha):
    """Entropy-mode (total, aleatoric, epistemic) with digamma called apart
    on alpha0 + 1 and on alpha + 1. ``dirichlet.entropy_uncertainties_batch``
    must match it bit for bit."""
    a0 = alpha.sum(axis=1)
    mu = alpha / a0[:, None]
    total = -(mu * np.log(mu)).sum(axis=1)
    aleatoric = (mu * (digamma(a0 + 1.0)[:, None] - digamma(alpha + 1.0))).sum(axis=1)
    return total, aleatoric, total - aleatoric


def kl_batch_seven_calls(alpha, classes):
    """The KL regularizer and its alpha-gradient as seven separate special
    function calls: lnGamma(s), lnGamma(C), lnGamma(alpha~), digamma(alpha~),
    digamma(s), trigamma(alpha~), trigamma(s). ``losses._kl_loss`` and
    ``losses._kl_gradient`` must match it bit for bit."""
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


def one_row(kernel, alpha) -> tuple:
    """What a Dirichlet batch kernel returns for one alpha vector, run as
    the one-row batch ``alpha[None, :]``: one value or row per part."""
    return tuple(part[0] for part in kernel(np.asarray(alpha, dtype=np.float64)[None, :]))


def per_prediction_record(pred) -> dict:
    """The quantify record of one prediction, assembled field by field from
    one-row calls of the batch kernels. ``dirichlet.quantify_records`` must
    give the same record, value for value, for every row of a batch."""
    var = one_row(variance_uncertainties_batch, pred.alpha)
    per_class = one_row(class_variances_batch, pred.alpha)
    ent = one_row(entropy_uncertainties_batch, pred.alpha)
    total, aleatoric, epistemic, correlation = one_row(covariance_batch, pred.alpha)
    parts = ("total", "aleatoric", "epistemic")
    return {
        "alpha": pred.alpha.tolist(),
        "uncertainty": {
            "variance": {
                "sample": {k: float(v) for k, v in zip(parts, var)},
                "class": {k: v.tolist() for k, v in zip(parts, per_class)},
            },
            "entropy": {"sample": {k: float(v) for k, v in zip(parts, ent)}},
        },
        "covariance": total.tolist(),
        "covariance_aleatoric": aleatoric.tolist(),
        "covariance_epistemic": epistemic.tolist(),
        "correlation": correlation.tolist(),
    }
