"""Training losses for evidential classifiers and their alpha-gradients.

Two loss families:

- Supervised: the evidential negative log-likelihood ``ln(alpha0) -
  ln(alpha_true)`` plus a KL regularizer that pulls the non-true-class
  evidence toward the flat Dirichlet. The regularizer acts on the adjusted
  vector ``alpha~ = y + (1 - y) * alpha``, so the true class is never
  penalized.
- Unsupervised: an uncertainty-guided penalty ``lambda_a * U_alea +
  lambda_e * U_epis`` on unlabeled samples, in either the variance or the
  entropy quantification, which drives the network to commit on samples it
  has no label for.

Every loss comes with its exact gradient with respect to alpha, derived in
closed form; the test suite checks them against central finite differences.
Batch functions take ``(n, C)`` alpha matrices and return per-row losses and
gradients, which is the shape the trainer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dirichlet import DirichletPrediction
from .special import DomainError, digamma, gamma_terms, log_gamma, trigamma

__all__ = [
    "OneHotLabel",
    "LossConfig",
    "nll_loss",
    "kl_regularizer",
    "edl_loss",
    "ug_loss",
    "edl_loss_and_gradient",
    "ug_loss_and_gradient",
    "edl_batch",
    "ug_batch",
    "total_loss",
]

QUANTIFICATION_MODES = ("variance", "entropy")
REDUCTIONS = ("mean", "sum")


@dataclass(frozen=True)
class OneHotLabel:
    """Ground-truth class for one sample, 1-based."""

    class_index: int
    num_classes: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise DomainError("at least two classes are required")
        if not 1 <= self.class_index <= self.num_classes:
            raise DomainError(
                f"class_index {self.class_index} out of range 1..{self.num_classes}"
            )

    def vector(self) -> np.ndarray:
        out = np.zeros(self.num_classes)
        out[self.class_index - 1] = 1.0
        return out


@dataclass(frozen=True)
class LossConfig:
    """Loss hyperparameters.

    ``lambda_reg=None`` resolves to 1/C once the class count is known.
    ``pseudo_label_weight`` scales the supervised loss of pseudo-labeled
    samples relative to oracle-labeled ones.
    """

    mode: str = "variance"
    lambda_reg: float | None = None
    lambda_a: float = 0.05
    lambda_e: float = 1.0
    reduction: str = "mean"
    pseudo_label_weight: float = 1.0

    def __post_init__(self):
        if self.mode not in QUANTIFICATION_MODES:
            raise DomainError(f"mode must be one of {QUANTIFICATION_MODES}, got {self.mode!r}")
        if self.reduction not in REDUCTIONS:
            raise DomainError(f"reduction must be one of {REDUCTIONS}, got {self.reduction!r}")
        if self.lambda_reg is not None and self.lambda_reg < 0:
            raise DomainError("lambda_reg must be nonnegative")
        if self.lambda_a < 0 or self.lambda_e < 0:
            raise DomainError("lambda_a and lambda_e must be nonnegative")
        if self.pseudo_label_weight <= 0:
            raise DomainError("pseudo_label_weight must be positive")

    def resolve_lambda_reg(self, num_classes: int) -> float:
        return 1.0 / num_classes if self.lambda_reg is None else self.lambda_reg


def _as_batch(pred: DirichletPrediction, label: OneHotLabel):
    if label.num_classes != pred.num_classes:
        raise DomainError(
            f"label has {label.num_classes} classes, prediction has {pred.num_classes}"
        )
    return pred.alpha[None, :], np.array([label.class_index])


def _nll_batch(alpha: np.ndarray, classes: np.ndarray):
    rows = np.arange(alpha.shape[0])
    a0 = alpha.sum(axis=1)
    true = alpha[rows, classes - 1]
    loss = np.log(a0) - np.log(true)
    grad = np.broadcast_to(1.0 / a0[:, None], alpha.shape).copy()
    grad[rows, classes - 1] -= 1.0 / true
    return loss, grad


@lru_cache(maxsize=None)
def _log_gamma_of_count(c: int) -> float:
    """lnGamma(C), the normalizer of the flat Dirichlet over C classes."""
    return log_gamma(float(c))


def _kl_batch(alpha: np.ndarray, classes: np.ndarray):
    n, c = alpha.shape
    rows = np.arange(n)
    tilde = alpha.copy()
    tilde[rows, classes - 1] = 1.0
    s = tilde.sum(axis=1)
    # lnGamma, digamma and trigamma of [alpha~ | s] in one pass; column c is s.
    lg, psi, tri = gamma_terms(np.column_stack((tilde, s)))
    loss = (
        lg[:, c]
        - _log_gamma_of_count(c)
        - lg[:, :c].sum(axis=1)
        + ((tilde - 1.0) * (psi[:, :c] - psi[:, c:])).sum(axis=1)
    )
    grad = (tilde - 1.0) * tri[:, :c] - ((s - c) * tri[:, c])[:, None]
    grad[rows, classes - 1] = 0.0
    return loss, grad


def edl_batch(alpha: np.ndarray, classes: np.ndarray, config: LossConfig):
    """Per-row supervised loss and alpha-gradient for an (n, C) alpha matrix
    and 1-based class indices."""
    alpha = np.asarray(alpha, dtype=np.float64)
    classes = np.asarray(classes)
    lam = config.resolve_lambda_reg(alpha.shape[1])
    nll, nll_grad = _nll_batch(alpha, classes)
    kl, kl_grad = _kl_batch(alpha, classes)
    return nll + lam * kl, nll_grad + lam * kl_grad


def _ug_variance_batch(alpha: np.ndarray, lambda_a: float, lambda_e: float):
    a0 = alpha.sum(axis=1)
    t = (alpha * alpha).sum(axis=1)
    u = 1.0 - t / (a0 * a0)
    g = (lambda_a * a0 + lambda_e) / (a0 + 1.0)
    g_prime = (lambda_a - lambda_e) / ((a0 + 1.0) ** 2)
    du = (2.0 / (a0 * a0))[:, None] * ((t / a0)[:, None] - alpha)
    return g * u, g[:, None] * du + (u * g_prime)[:, None]


def _ug_entropy_batch(alpha: np.ndarray, lambda_a: float, lambda_e: float):
    a0 = alpha.sum(axis=1)
    mu = alpha / a0[:, None]
    log_mu = np.log(mu)
    u = -(mu * log_mu).sum(axis=1)
    # digamma and trigamma of [alpha + 1 | alpha0 + 1]; the last column is alpha0 + 1.
    shifted = np.column_stack((alpha, a0)) + 1.0
    psi, tri = digamma(shifted), trigamma(shifted)
    gap = psi[:, -1:] - psi[:, :-1]
    u_alea = (mu * gap).sum(axis=1)
    du = -(log_mu + u[:, None]) / a0[:, None]
    du_alea = (gap - u_alea[:, None]) / a0[:, None] + tri[:, -1:] - mu * tri[:, :-1]
    diff = lambda_a - lambda_e
    return lambda_e * u + diff * u_alea, lambda_e * du + diff * du_alea


def ug_batch(alpha: np.ndarray, config: LossConfig):
    """Per-row uncertainty-guided loss and alpha-gradient for an (n, C)
    alpha matrix of unlabeled samples."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if config.mode == "variance":
        return _ug_variance_batch(alpha, config.lambda_a, config.lambda_e)
    return _ug_entropy_batch(alpha, config.lambda_a, config.lambda_e)


def nll_loss(pred: DirichletPrediction, label: OneHotLabel) -> float:
    """Evidential negative log-likelihood ln(alpha0) - ln(alpha_true)."""
    alpha, classes = _as_batch(pred, label)
    return float(_nll_batch(alpha, classes)[0][0])


def kl_regularizer(pred: DirichletPrediction, label: OneHotLabel) -> float:
    """KL divergence from the flat Dirichlet after removing the true-class
    evidence; zero exactly when the non-true classes carry no evidence."""
    alpha, classes = _as_batch(pred, label)
    return float(_kl_batch(alpha, classes)[0][0])


def edl_loss(pred: DirichletPrediction, label: OneHotLabel, config: LossConfig) -> float:
    """Supervised loss: NLL plus lambda_reg times the KL regularizer."""
    alpha, classes = _as_batch(pred, label)
    return float(edl_batch(alpha, classes, config)[0][0])


def ug_loss(pred: DirichletPrediction, config: LossConfig) -> float:
    """Unsupervised loss lambda_a * U_alea + lambda_e * U_epis in the
    configured quantification mode."""
    return float(ug_batch(pred.alpha[None, :], config)[0][0])


def edl_loss_and_gradient(pred: DirichletPrediction, label: OneHotLabel, config: LossConfig):
    """Supervised loss and its exact gradient with respect to alpha."""
    alpha, classes = _as_batch(pred, label)
    loss, grad = edl_batch(alpha, classes, config)
    return float(loss[0]), grad[0]

def ug_loss_and_gradient(pred: DirichletPrediction, config: LossConfig):
    """Unsupervised loss and its exact gradient with respect to alpha."""
    loss, grad = ug_batch(pred.alpha[None, :], config)
    return float(loss[0]), grad[0]


def total_loss(
    labeled_alpha: np.ndarray,
    labels: np.ndarray,
    unlabeled_alpha: np.ndarray | None,
    config: LossConfig,
    labeled_weights: np.ndarray | None = None,
) -> float:
    """Combined objective: supervised loss over the labeled batch plus the
    uncertainty-guided loss over the unlabeled batch.

    With "mean" reduction each part is averaged over its own batch (weighted
    rows still divide by the row count); with "sum" the parts add up exactly,
    so the total over a pool equals the sum over any partition of it. Empty
    batches contribute zero.
    """
    out = 0.0
    labeled_alpha = np.asarray(labeled_alpha, dtype=np.float64)
    if labeled_alpha.size:
        per_row, _ = edl_batch(labeled_alpha, np.asarray(labels), config)
        if labeled_weights is not None:
            weights = np.asarray(labeled_weights, dtype=np.float64)
            if weights.shape != per_row.shape:
                raise DomainError("labeled_weights must match the labeled batch length")
            per_row = per_row * weights
        out += per_row.sum() if config.reduction == "sum" else per_row.mean()
    if unlabeled_alpha is not None:
        unlabeled_alpha = np.asarray(unlabeled_alpha, dtype=np.float64)
        if unlabeled_alpha.size:
            per_row, _ = ug_batch(unlabeled_alpha, config)
            out += per_row.sum() if config.reduction == "sum" else per_row.mean()
    return float(out)
