"""Closed-form uncertainty, covariance, and correlation quantities for
Dirichlet class-probability predictions.

A classifier that outputs a Dirichlet parameter vector ``alpha`` induces a
bi-level distribution over one-hot labels: the label is categorical with
probabilities ``mu``, and ``mu`` itself is Dirichlet. Everything in this
module is a deterministic function of ``alpha``:

- expected probabilities ``mu_bar = alpha / alpha0``,
- the label covariance matrix ``Diag(mu_bar) - mu_bar mu_bar^T`` and its
  exact split into an aleatoric part (scaled by ``alpha0/(alpha0+1)``) and an
  epistemic part (scaled by ``1/(alpha0+1)``), which is the law of total
  covariance applied to the bi-level model,
- per-class and per-sample uncertainties read off the covariance diagonal
  (variance quantification), and
- the classical entropy/mutual-information split (entropy quantification),
  which exists at the sample level only.

Every formula is implemented once, as a batch kernel over an ``(n, C)``
alpha matrix (the ``*_batch`` functions); one prediction is the one-row
matrix ``alpha[None, :]``. ``quantify_records`` builds the JSON-ready
records of a matrix from one call of each kernel, and ``checked_alpha``
validates and floors an external matrix in one pass. All functions are pure
and the kernels are safe to parallelize over rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import DomainError, digamma

__all__ = [
    "ALPHA_FLOOR",
    "CORRELATION_VARIANCE_EPS",
    "AlphaError",
    "checked_alpha",
    "DirichletPrediction",
    "variance_uncertainties_batch",
    "entropy_uncertainties_batch",
    "class_variances_batch",
    "covariance_batch",
    "predict_class_batch",
    "quantify_records",
]

# Floor applied to externally supplied alpha vectors: protects digamma and
# divisions without disturbing anything a trained network can emit.
ALPHA_FLOOR = 1e-8

# Class variances below this are treated as degenerate when normalizing the
# covariance into a correlation matrix; affected off-diagonal entries become
# 0 and the diagonal stays 1, instead of propagating NaN.
CORRELATION_VARIANCE_EPS = 1e-12


class AlphaError(DomainError):
    """A row of an alpha matrix failed validation; ``row`` is its index."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def checked_alpha(matrix) -> np.ndarray:
    """An externally supplied (n, C) alpha matrix as float64, entries in
    (0, ALPHA_FLOOR) raised to the floor. The first row with fewer than two
    classes, a non-finite entry, a zero or negative entry, or an overflowing
    strength (row sum) raises an ``AlphaError`` naming the row and the
    first of these checks it fails."""
    alpha = np.asarray(matrix, dtype=np.float64)
    if alpha.ndim != 2:
        raise DomainError(f"alpha must be an (n, C) matrix, got shape {alpha.shape}")
    alpha = np.where(alpha > 0.0, np.maximum(alpha, ALPHA_FLOOR), alpha)
    with np.errstate(over="ignore"):
        strength = alpha.sum(axis=1)
    checks = {  # message: the rows that fail, in the order a row is checked
        "at least two classes are required": np.full(len(alpha), alpha.shape[1] < 2),
        "alpha entries must be finite": ~np.isfinite(alpha).all(axis=1),
        "alpha entries must be strictly positive": (alpha <= 0.0).any(axis=1),
        "alpha strength (the sum of the entries) must be finite": ~np.isfinite(strength),
    }
    failed = np.array(list(checks.values()))
    if failed.any():
        row = int(failed.any(axis=0).argmax())
        raise AlphaError(row, list(checks)[int(failed[:, row].argmax())])
    return alpha


@dataclass(frozen=True)
class DirichletPrediction:
    """Dirichlet parameters for one sample, a one-row ``checked_alpha``."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha, dtype=np.float64)
        if arr.ndim != 1:
            raise DomainError(f"alpha must be a 1-D vector, got shape {arr.shape}")
        object.__setattr__(self, "alpha", checked_alpha(arr[None, :])[0])

    @classmethod
    def from_alpha(cls, values) -> "DirichletPrediction":
        """The prediction for an externally supplied alpha vector."""
        return cls(alpha=values)

    @property
    def num_classes(self) -> int:
        return self.alpha.size

    @property
    def strength(self) -> float:
        """Dirichlet strength alpha0 = sum of the parameters."""
        return float(self.alpha.sum())


def predict_class_batch(alpha: np.ndarray) -> np.ndarray:
    """1-based argmax per row of an (n, C) alpha matrix. Ties resolve to
    the lowest class index so runs are reproducible."""
    return np.argmax(alpha, axis=1) + 1


def _strength_and_mean(alpha):
    alpha = np.asarray(alpha, dtype=np.float64)
    a0 = alpha.sum(axis=1)
    return alpha, a0, alpha / a0[:, None]


def _split(a0, total):
    """(total, aleatoric, epistemic): the law-of-total-covariance split of a
    label (co)variance by ``alpha0/(alpha0+1)`` and ``1/(alpha0+1)``; ``a0``
    comes shaped to broadcast against ``total``."""
    return total, (a0 / (a0 + 1.0)) * total, total / (a0 + 1.0)


def variance_uncertainties_batch(alpha: np.ndarray):
    """Variance-mode (total, aleatoric, epistemic) sample uncertainties for
    an (n, C) alpha matrix. Returns three length-n arrays."""
    _, a0, mu = _strength_and_mean(alpha)
    return _split(a0, 1.0 - (mu * mu).sum(axis=1))


def entropy_uncertainties_batch(alpha: np.ndarray):
    """Entropy-mode (total, aleatoric, epistemic) sample uncertainties for
    an (n, C) alpha matrix. Returns three length-n arrays.

    Total is the Shannon entropy of the expected probabilities; the
    aleatoric part is the expected conditional entropy expressed through
    digamma; epistemic is their difference (the mutual information).
    """
    alpha, a0, mu = _strength_and_mean(alpha)
    total = -(mu * np.log(mu)).sum(axis=1)
    aleatoric = (mu * (digamma(a0 + 1.0)[:, None] - digamma(alpha + 1.0))).sum(axis=1)
    return total, aleatoric, total - aleatoric


def class_variances_batch(alpha: np.ndarray):
    """Variance-mode (total, aleatoric, epistemic) per-class uncertainties
    ``mu_c (1 - mu_c)`` for an (n, C) alpha matrix; three (n, C) arrays."""
    _, a0, mu = _strength_and_mean(alpha)
    return _split(a0[:, None], mu * (1.0 - mu))


def _total_and_correlation(alpha: np.ndarray):
    """(a0, total, correlation): the strengths and the (n, C, C) total label
    covariance and correlation, without the aleatoric/epistemic split."""
    _, a0, mu = _strength_and_mean(alpha)
    var = class_variances_batch(alpha)[0]
    diag = np.arange(mu.shape[1])
    total = -mu[:, :, None] * mu[:, None, :]
    total[:, diag, diag] = var
    ok = var >= CORRELATION_VARIANCE_EPS
    sigma = np.sqrt(np.where(ok, var, 1.0))
    correlation = sigma[:, :, None] * sigma[:, None, :]
    np.divide(total, correlation, out=correlation)
    correlation[~(ok[:, :, None] & ok[:, None, :])] = 0.0
    correlation[:, diag, diag] = 1.0
    return a0, total, np.clip(correlation, -1.0, 1.0, out=correlation)


def covariance_batch(alpha: np.ndarray):
    """(total, aleatoric, epistemic, correlation) label covariance matrices
    for an (n, C) alpha matrix; four (n, C, C) arrays.

    The diagonal holds the class variances of ``class_variances_batch``. The
    correlation has a unit diagonal, is 0 off it wherever a class variance
    is below CORRELATION_VARIANCE_EPS, and is clipped to [-1, 1] because
    rounding can overshoot -1 by an ulp.
    """
    a0, total, correlation = _total_and_correlation(alpha)
    return (*_split(a0[:, None, None], total), correlation)


def quantify_records(alpha: np.ndarray) -> list:
    """JSON-ready records for the rows of an (n, C) alpha matrix: alpha,
    uncertainties in both quantification modes, covariance matrices and the
    correlation matrix. Each batch kernel runs once on the whole matrix."""
    alpha = np.asarray(alpha, dtype=np.float64)
    parts = ("total", "aleatoric", "epistemic")
    var = zip(*(v.tolist() for v in variance_uncertainties_batch(alpha)))
    ent = zip(*(v.tolist() for v in entropy_uncertainties_batch(alpha)))
    per_class = zip(*(v.tolist() for v in class_variances_batch(alpha)))
    cov = (m.tolist() for m in covariance_batch(alpha))
    return [
        {
            "alpha": a,
            "uncertainty": {
                "variance": {"sample": dict(zip(parts, v)), "class": dict(zip(parts, c))},
                "entropy": {"sample": dict(zip(parts, e))},
            },
            "covariance": total,
            "covariance_aleatoric": aleatoric,
            "covariance_epistemic": epistemic,
            "correlation": correlation,
        }
        for a, v, e, c, total, aleatoric, epistemic, correlation
        in zip(alpha.tolist(), var, ent, per_class, *cov)
    ]
