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
alpha matrix (the ``*_batch`` functions); the single-prediction functions
are one-row views of those kernels. All functions are pure and the kernels
are safe to parallelize over rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .special import DomainError, digamma

__all__ = [
    "ALPHA_FLOOR",
    "CORRELATION_VARIANCE_EPS",
    "DirichletPrediction",
    "CovarianceBundle",
    "UncertaintyBundle",
    "mean_probabilities",
    "predict_class",
    "covariance_bundle",
    "sample_uncertainty_variance",
    "sample_uncertainty_entropy",
    "variance_uncertainties_batch",
    "entropy_uncertainties_batch",
    "class_variances_batch",
    "covariance_batch",
    "predict_class_batch",
    "quantify_record",
    "prediction_from_record",
]

# Floor applied to externally supplied alpha vectors: protects digamma and
# divisions without disturbing anything a trained network can emit.
ALPHA_FLOOR = 1e-8

# Class variances below this are treated as degenerate when normalizing the
# covariance into a correlation matrix; affected off-diagonal entries become
# 0 and the diagonal stays 1, instead of propagating NaN.
CORRELATION_VARIANCE_EPS = 1e-12


@dataclass(frozen=True)
class DirichletPrediction:
    """Dirichlet parameters predicted for one sample. Classes are 1-based."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha, dtype=np.float64)
        if arr.ndim != 1:
            raise DomainError(f"alpha must be a 1-D vector, got shape {arr.shape}")
        if arr.size < 2:
            raise DomainError("at least two classes are required")
        if not np.all(np.isfinite(arr)):
            raise DomainError("alpha entries must be finite")
        if np.any(arr <= 0.0):
            raise DomainError("alpha entries must be strictly positive")
        with np.errstate(over="ignore"):
            if not np.isfinite(arr.sum()):
                raise DomainError("alpha strength (the sum of the entries) must be finite")
        object.__setattr__(self, "alpha", arr)

    @classmethod
    def from_alpha(cls, values) -> "DirichletPrediction":
        """Ingest an externally supplied alpha vector, flooring tiny entries.

        Entries in (0, ALPHA_FLOOR) are raised to the floor; zero, negative,
        or non-finite entries are rejected.
        """
        arr = np.asarray(values, dtype=np.float64)
        return cls(alpha=np.where(arr > 0.0, np.maximum(arr, ALPHA_FLOOR), arr))

    @property
    def num_classes(self) -> int:
        return self.alpha.size

    @property
    def strength(self) -> float:
        """Dirichlet strength alpha0 = sum of the parameters."""
        return float(self.alpha.sum())


@dataclass(frozen=True)
class CovarianceBundle:
    """Label covariance matrices and the derived correlation matrix."""

    total: np.ndarray
    aleatoric: np.ndarray
    epistemic: np.ndarray
    correlation: np.ndarray


@dataclass(frozen=True)
class UncertaintyBundle:
    """Sample- and class-level uncertainties under one quantification mode.

    ``mode`` is "variance" or "entropy". Entropy quantification has no
    class-level decomposition, so its class vectors are empty.
    """

    mode: str
    sample_total: float
    sample_aleatoric: float
    sample_epistemic: float
    class_total: np.ndarray = field(default_factory=lambda: np.empty(0))
    class_aleatoric: np.ndarray = field(default_factory=lambda: np.empty(0))
    class_epistemic: np.ndarray = field(default_factory=lambda: np.empty(0))


def mean_probabilities(pred: DirichletPrediction) -> np.ndarray:
    """Expected class probabilities alpha / alpha0."""
    return pred.alpha / pred.alpha.sum()


def predict_class(pred: DirichletPrediction) -> int:
    """1-based class with the maximum expected probability.

    Ties resolve to the lowest class index so runs are reproducible.
    """
    return int(predict_class_batch(pred.alpha[None, :])[0])


def predict_class_batch(alpha: np.ndarray) -> np.ndarray:
    """1-based argmax per row of an (n, C) alpha matrix."""
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


def covariance_bundle(pred: DirichletPrediction) -> CovarianceBundle:
    """Total/aleatoric/epistemic covariance of the one-hot label, plus the
    correlation matrix (one row of ``covariance_batch``).

    The aleatoric and epistemic parts are exact rescalings of the total by
    ``alpha0/(alpha0+1)`` and ``1/(alpha0+1)``, so total = aleatoric +
    epistemic holds entrywise up to rounding and aleatoric/epistemic = alpha0.
    """
    return CovarianceBundle(*(m[0] for m in covariance_batch(pred.alpha[None, :])))


def sample_uncertainty_variance(pred: DirichletPrediction) -> UncertaintyBundle:
    """Variance-mode uncertainty: the sample-level ``1 - sum(mu_c^2)`` and
    the per-class ``mu_c (1 - mu_c)``, each with its aleatoric/epistemic
    split (one row of the batch kernels)."""
    alpha = pred.alpha[None, :]
    sample = (float(v[0]) for v in variance_uncertainties_batch(alpha))
    return UncertaintyBundle("variance", *sample, *(v[0] for v in class_variances_batch(alpha)))


def sample_uncertainty_entropy(pred: DirichletPrediction) -> UncertaintyBundle:
    """Sample-level entropy-mode uncertainties (one row of
    ``entropy_uncertainties_batch``). This quantification has no
    class-level decomposition, so the class vectors are empty."""
    return UncertaintyBundle(
        "entropy", *(float(v[0]) for v in entropy_uncertainties_batch(pred.alpha[None, :]))
    )


def quantify_record(pred: DirichletPrediction) -> dict:
    """Full JSON-ready record for one prediction: alpha, uncertainties in
    both quantification modes, covariance matrices, correlation matrix."""
    var = sample_uncertainty_variance(pred)
    ent = sample_uncertainty_entropy(pred)
    cov = covariance_bundle(pred)
    return {
        "alpha": pred.alpha.tolist(),
        "uncertainty": {
            "variance": {
                "sample": {
                    "total": var.sample_total,
                    "aleatoric": var.sample_aleatoric,
                    "epistemic": var.sample_epistemic,
                },
                "class": {
                    "total": var.class_total.tolist(),
                    "aleatoric": var.class_aleatoric.tolist(),
                    "epistemic": var.class_epistemic.tolist(),
                },
            },
            "entropy": {
                "sample": {
                    "total": ent.sample_total,
                    "aleatoric": ent.sample_aleatoric,
                    "epistemic": ent.sample_epistemic,
                },
            },
        },
        "covariance": cov.total.tolist(),
        "covariance_aleatoric": cov.aleatoric.tolist(),
        "covariance_epistemic": cov.epistemic.tolist(),
        "correlation": cov.correlation.tolist(),
    }


def prediction_from_record(record: dict) -> DirichletPrediction:
    """Build a prediction from a JSON record holding an "alpha" list."""
    if "alpha" not in record:
        raise DomainError("record is missing the 'alpha' field")
    return DirichletPrediction.from_alpha(record["alpha"])
