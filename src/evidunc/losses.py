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

Each kernel takes an ``(n, C)`` alpha matrix and gives per-row losses
and their exact alpha-gradients, derived in closed form; the test suite
checks them against central finite differences. A single sample is the
one-row batch ``alpha[None, :]``. ``ug_batch`` returns loss and gradient
together, as its gradient needs the uncertainty anyway. The supervised loss
comes in two parts, ``edl_gradient``, which needs only trigamma, and
``edl_loss``, which needs lnGamma and digamma: a training step takes the
gradient alone, and the trainer computes the epoch's losses in one pass
after its last step. ``edl_batch`` is the two together.

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

from .special import (_DIGAMMA_AND_TRIGAMMA, _LOG_GAMMA_AND_DIGAMMA, _TRIGAMMA_ONLY,
                      DomainError, _series, digamma, log_gamma, trigamma)

__all__ = ["LossConfig", "edl_loss", "edl_gradient", "edl_batch", "ug_batch"]

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


def _nll_loss(alpha: np.ndarray, at):
    return np.log(alpha.sum(axis=1)) - np.log(alpha[at])


def _nll_gradient(alpha: np.ndarray, at):
    grad = np.repeat((1.0 / alpha.sum(axis=1))[:, None], alpha.shape[1], axis=1)
    grad[at] -= 1.0 / alpha[at]
    return grad


@lru_cache(maxsize=None)
def _log_gamma_of_count(c: int) -> float:
    """lnGamma(C), the normalizer of the flat Dirichlet over C classes."""
    return log_gamma(float(c))


def _tilde_and_sum(alpha: np.ndarray, at):
    """``[alpha~ | s]`` as one (n, C + 1) array, the KL term's special
    function argument: alpha with each row's true class set to 1, then each
    row's sum s."""
    n, c = alpha.shape
    arg = np.empty((n, c + 1))
    arg[:, :c] = alpha
    arg[:, :c][at] = 1.0
    np.sum(arg[:, :c], axis=1, out=arg[:, c])
    return arg


def _kl_loss(alpha: np.ndarray, at):
    c = alpha.shape[1]
    arg = _tilde_and_sum(alpha, at)
    lg, psi = (part.reshape(arg.shape)
               for part in _series(arg.reshape(-1), _LOG_GAMMA_AND_DIGAMMA))
    return (
        lg[:, c]
        - _log_gamma_of_count(c)
        - lg[:, :c].sum(axis=1)
        + ((arg[:, :c] - 1.0) * (psi[:, :c] - psi[:, c:])).sum(axis=1)
    )


def _kl_gradient(alpha: np.ndarray, at):
    c = alpha.shape[1]
    arg = _tilde_and_sum(alpha, at)
    tri = _series(arg.reshape(-1), _TRIGAMMA_ONLY)[0].reshape(arg.shape)
    grad = (arg[:, :c] - 1.0) * tri[:, :c] - ((arg[:, c] - c) * tri[:, c])[:, None]
    grad[at] = 0.0
    return grad


def _edl_args(alpha, classes, config: LossConfig):
    """Alpha as float64, the index of each row's true class and lambda_reg."""
    alpha = np.asarray(alpha, dtype=np.float64)
    at = (np.arange(alpha.shape[0]), np.asarray(classes) - 1)
    return alpha, at, config.resolve_lambda_reg(alpha.shape[1])


def edl_loss(alpha: np.ndarray, classes: np.ndarray, config: LossConfig):
    """Per-row supervised loss of an (n, C) alpha matrix and 1-based class
    indices. Alpha must be positive and finite; it is not checked (see the
    module docstring)."""
    alpha, at, lam = _edl_args(alpha, classes, config)
    return _nll_loss(alpha, at) + lam * _kl_loss(alpha, at)


def edl_gradient(alpha: np.ndarray, classes: np.ndarray, config: LossConfig):
    """The alpha-gradient of ``edl_loss``, row by row; it takes only
    trigamma, so a training step computes it without the loss."""
    alpha, at, lam = _edl_args(alpha, classes, config)
    return _nll_gradient(alpha, at) + lam * _kl_gradient(alpha, at)


def edl_batch(alpha: np.ndarray, classes: np.ndarray, config: LossConfig):
    """``(edl_loss, edl_gradient)`` of the same arguments."""
    return edl_loss(alpha, classes, config), edl_gradient(alpha, classes, config)


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
