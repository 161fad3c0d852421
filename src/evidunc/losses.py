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

``edl_batch`` and ``ug_batch`` are the whole loss API. Each takes an
``(n, C)`` alpha matrix and returns per-row losses and their exact
alpha-gradients, derived in closed form, which is the shape the trainer
consumes; the test suite checks them against central finite differences. A
single sample is the one-row batch ``alpha[None, :]``.

Alpha must be positive and finite, and the kernels do not check it: they
run on every SGD step, where alpha is ``exp`` of clamped logits that the
trainer has already checked for finiteness, so they call the unchecked
``special._series`` in place of the validating special functions. A row
with a NaN gives a NaN loss and gradient in that row and raises nothing;
the other rows are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special import (_ALL_THREE, _DIGAMMA_AND_TRIGAMMA, DomainError, _series, digamma,
                      log_gamma, trigamma)

__all__ = ["LossConfig", "edl_batch", "ug_batch"]

# Not called here; kept because perfbench/tracing.py wraps these names in this module.
_TRACED = (digamma, trigamma)

QUANTIFICATION_MODES = ("variance", "entropy")
REDUCTIONS = ("mean", "sum")


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


def _nll_batch(alpha: np.ndarray, classes: np.ndarray):
    rows = np.arange(alpha.shape[0])
    a0 = alpha.sum(axis=1)
    true = alpha[rows, classes - 1]
    loss = np.log(a0) - np.log(true)
    grad = np.repeat((1.0 / a0)[:, None], alpha.shape[1], axis=1)
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
    arg = np.column_stack((tilde, s))
    lg, psi, tri = (part.reshape(arg.shape) for part in _series(arg.reshape(-1), _ALL_THREE))
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
    and 1-based class indices. Alpha must be positive and finite; it is not
    checked (see the module docstring)."""
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
    psi, tri = (part.reshape(shifted.shape)
                for part in _series(shifted.reshape(-1), _DIGAMMA_AND_TRIGAMMA))
    gap = psi[:, -1:] - psi[:, :-1]
    u_alea = (mu * gap).sum(axis=1)
    du = -(log_mu + u[:, None]) / a0[:, None]
    du_alea = (gap - u_alea[:, None]) / a0[:, None] + tri[:, -1:] - mu * tri[:, :-1]
    diff = lambda_a - lambda_e
    return lambda_e * u + diff * u_alea, lambda_e * du + diff * du_alea


def ug_batch(alpha: np.ndarray, config: LossConfig):
    """Per-row uncertainty-guided loss and alpha-gradient for an (n, C)
    alpha matrix of unlabeled samples. Alpha must be positive and finite; it
    is not checked (see the module docstring)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if config.mode == "variance":
        return _ug_variance_batch(alpha, config.lambda_a, config.lambda_e)
    return _ug_entropy_batch(alpha, config.lambda_a, config.lambda_e)
