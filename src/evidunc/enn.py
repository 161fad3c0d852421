"""A small evidential MLP classifier and its SGD trainer.

The network maps features through rectified-linear hidden layers to C
logits, then exponentiates clamped logits to produce a Dirichlet parameter
vector, so every forward pass yields strictly positive evidence. Training is
plain minibatch SGD with momentum and weight decay on the combined
objective: the supervised loss over source plus labeled target, and, when
enabled, the uncertainty-guided loss over the unlabeled target. Each step
consumes one supervised and one unlabeled minibatch.

Backpropagation is written out by hand (the loss module supplies exact
alpha-gradients; the chain rule through the exponential is
``dL/dlogit = alpha * dL/dalpha`` wherever the clamp is inactive). All
randomness flows from explicit seeds through separate generator streams for
initialization, supervised shuffling, and unlabeled shuffling, so disabling
the unlabeled term does not perturb the supervised batch sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dirichlet import predict_class_batch
from .losses import LossConfig, edl_batch, ug_batch
from .pools import SamplePool
from .special import DomainError

__all__ = [
    "TrainConfig",
    "TrainingDivergedError",
    "EvidentialMLP",
    "Trainer",
    "evaluate",
    "checkpoint_text",
    "load_checkpoint",
]

LOGIT_CLAMP = 30.0
LR_SCHEDULES = ("constant", "inverse-decay")


class TrainingDivergedError(RuntimeError):
    """Raised when a gradient turns non-finite mid-training."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.001
    lr_schedule: str = "inverse-decay"
    lr_gamma: float = 10.0
    lr_beta: float = 0.75
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise DomainError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise DomainError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise DomainError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise DomainError("weight_decay must be nonnegative")
        if self.lr_schedule not in LR_SCHEDULES:
            raise DomainError(f"lr_schedule must be one of {LR_SCHEDULES}")
        if self.lr_gamma < 0 or self.lr_beta < 0:
            raise DomainError("lr_gamma and lr_beta must be nonnegative")

    def lr_at(self, progress: float) -> float:
        """Learning rate at training progress p in [0, 1]: inverse decay
        lr0 * (1 + gamma*p)^(-beta), or the constant lr0."""
        if self.lr_schedule == "constant":
            return self.learning_rate
        return self.learning_rate * (1.0 + self.lr_gamma * progress) ** (-self.lr_beta)


class EvidentialMLP:
    """Fully connected net with exponential output producing alpha."""

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise DomainError("inconsistent layer shapes")
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if prev.shape[1] != nxt.shape[0]:
                raise DomainError("layer dimensions do not chain")

    @classmethod
    def create(cls, input_dim: int, num_classes: int, hidden=(64, 64), seed: int = 0):
        """Fresh network with uniform init in +-sqrt(6/(fan_in+fan_out))."""
        if input_dim < 1 or num_classes < 2:
            raise DomainError("need input_dim >= 1 and num_classes >= 2")
        rng = np.random.default_rng(seed)
        sizes = [input_dim, *hidden, num_classes]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[1]

    def _checked_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DomainError(
                f"expected (n, {self.input_dim}) inputs, got shape {x.shape}"
            )
        return x

    def _forward_cached(self, x: np.ndarray):
        """The training forward: alpha plus what backprop needs, every
        layer's input activations and the mask of unclamped logits."""
        x = self._checked_input(x)
        activations = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
            activations.append(h)
        logits = h @ self.weights[-1] + self.biases[-1]
        active = np.abs(logits) < LOGIT_CLAMP
        alpha = np.exp(np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP))
        return alpha, activations, active

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Alpha matrix (n, C) for an (n, d) input batch, for inference.

        Bitwise equal to the alpha of ``_forward_cached``, but keeps no
        activations or clamp mask and works in place on each layer's
        product, so scoring a large pool allocates one array per layer.
        The batch is not split into row blocks: BLAS may pick other kernels
        for a partial block, which changes the bits."""
        h = self._checked_input(x)
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
        logits = h @ self.weights[-1]
        logits += self.biases[-1]
        np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP, out=logits)
        return np.exp(logits, out=logits)

    def alpha_gradient_to_param_gradients(self, dalpha, alpha, activations, active):
        """Backprop an (n, C) alpha-gradient to per-parameter gradients.

        Returns (weight_grads, bias_grads) summed over the batch; the caller
        owns any 1/n scaling.
        """
        delta = dalpha * alpha * active
        w_grads = [None] * len(self.weights)
        b_grads = [None] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            w_grads[layer] = activations[layer].T @ delta
            b_grads[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (activations[layer] > 0.0)
        return w_grads, b_grads


class Trainer:
    """Stateful SGD loop over a sample pool.

    Kept as a class so the ADA loop can interleave sampling rounds between
    epochs while momentum buffers and shuffle streams carry over.
    """

    def __init__(
        self,
        model: EvidentialMLP,
        pool: SamplePool,
        cfg: TrainConfig,
        loss_cfg: LossConfig,
        ug_enabled: bool = True,
    ):
        self.model = model
        self.pool = pool
        self.cfg = cfg
        self.loss_cfg = loss_cfg
        self.ug_enabled = ug_enabled
        self.epochs_done = 0
        streams = np.random.SeedSequence(cfg.seed).spawn(2)
        self._sup_rng = np.random.default_rng(streams[0])
        self._unsup_rng = np.random.default_rng(streams[1])
        self._vel_w = [np.zeros_like(w) for w in model.weights]
        self._vel_b = [np.zeros_like(b) for b in model.biases]

    def _minibatch(self, x, what: str, scale, kernel, *args):
        """Forward a minibatch, check its evidence and backprop ``scale`` times
        the alpha-gradient of ``kernel(alpha, *args, loss_cfg)``; returns the
        per-row losses and the batch-summed (weight_grads, bias_grads)."""
        alpha, acts, active = self.model._forward_cached(x)
        if not np.all(np.isfinite(alpha)):
            bad = int(np.where(~np.isfinite(alpha).all(axis=1))[0][0])
            raise TrainingDivergedError(
                f"non-finite evidence for {what} sample {bad} at epoch "
                f"{self.epochs_done + 1}; check inputs and learning rate"
            )
        losses, dalpha = kernel(alpha, *args, self.loss_cfg)
        backprop = self.model.alpha_gradient_to_param_gradients
        return (losses, *backprop(dalpha * scale, alpha, acts, active))

    def _apply_step(self, w_grads, b_grads, lr: float):
        wd = self.cfg.weight_decay
        mom = self.cfg.momentum
        for i, (gw, gb) in enumerate(zip(w_grads, b_grads)):
            self._vel_w[i] = mom * self._vel_w[i] + (gw + wd * self.model.weights[i])
            self._vel_b[i] = mom * self._vel_b[i] + (gb + wd * self.model.biases[i])
            self.model.weights[i] -= lr * self._vel_w[i]
            self.model.biases[i] -= lr * self._vel_b[i]

    def run_epoch(self):
        """One epoch of minibatch SGD; returns (supervised_loss, ug_loss)
        means over the epoch's batches."""
        features, labels, weights = self.pool.supervised_set(
            self.loss_cfg.pseudo_label_weight
        )
        n_sup = features.shape[0]
        if n_sup == 0:
            raise DomainError("supervised set is empty; nothing to train on")
        bs = self.cfg.batch_size
        order = self._sup_rng.permutation(n_sup)
        steps = (n_sup + bs - 1) // bs

        mean_reduction = self.loss_cfg.reduction != "sum"
        use_ug = self.ug_enabled and self.pool.num_unlabeled > 0
        if use_ug:
            unsup_features = self.pool.unlabeled_features()
            take = min(bs, unsup_features.shape[0])
            u_scale = 1.0 / take if mean_reduction else 1.0
            # Shuffled at the first step and whenever a batch would run past the end.
            unsup_order, unsup_pos = (), 0

        sup_losses, ug_losses = [], []
        for step in range(steps):
            batch_idx = order[step * bs : (step + 1) * bs]
            scale = weights[batch_idx] / batch_idx.size if mean_reduction else weights[batch_idx]
            row_losses, w_grads, b_grads = self._minibatch(
                features[batch_idx], "supervised", scale[:, None], edl_batch, labels[batch_idx]
            )
            sup_losses.append(float((row_losses * scale).sum()))

            if use_ug:
                if unsup_pos + take > len(unsup_order):
                    unsup_order, unsup_pos = self._unsup_rng.permutation(len(unsup_features)), 0
                ub_idx = unsup_order[unsup_pos : unsup_pos + take]
                unsup_pos += take
                u_losses, uw_grads, ub_grads = self._minibatch(
                    unsup_features[ub_idx], "unlabeled", u_scale, ug_batch
                )
                w_grads = [a + b for a, b in zip(w_grads, uw_grads)]
                b_grads = [a + b for a, b in zip(b_grads, ub_grads)]
                ug_losses.append(float(u_losses.sum() * u_scale))

            finite = [bool(np.isfinite(g).all()) for g in w_grads + b_grads]
            if not all(finite):
                what = "bias" if all(finite[: len(w_grads)]) else "weight"
                raise TrainingDivergedError(
                    f"non-finite {what} gradient at epoch {self.epochs_done + 1}"
                )
            progress = (self.epochs_done + step / steps) / max(self.cfg.epochs, 1)
            self._apply_step(w_grads, b_grads, self.cfg.lr_at(progress))

        self.epochs_done += 1
        return float(np.mean(sup_losses)), float(np.mean(ug_losses)) if ug_losses else 0.0


def evaluate(model: EvidentialMLP, features, labels) -> float:
    """Fraction of samples whose predicted class matches the label."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.shape[0] == 0:
        raise DomainError("cannot evaluate on an empty dataset")
    predicted = predict_class_batch(model.forward_batch(features))
    return float(np.mean(predicted == labels))


def checkpoint_text(model: EvidentialMLP) -> str:
    """The model as checkpoint JSON, which ``load_checkpoint`` reads back."""
    return json.dumps({
        "schema_version": 1,
        "layer_sizes": [model.weights[0].shape[0]] + [w.shape[1] for w in model.weights],
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    })


def load_checkpoint(path) -> EvidentialMLP:
    with open(path) as fh:
        payload = json.load(fh)
    return EvidentialMLP(payload["weights"], payload["biases"])
