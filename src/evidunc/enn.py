"""A small evidential MLP classifier and its SGD trainer.

The network maps features through rectified-linear hidden layers to C
logits, then exponentiates clamped logits to produce a Dirichlet parameter
vector, so every forward pass yields strictly positive evidence. Training is
plain minibatch SGD with momentum and weight decay on the combined
objective: the supervised loss over source plus labeled target, and, when
enabled, the uncertainty-guided loss over the unlabeled target. Each step
consumes one supervised and one unlabeled minibatch.

The trainer runs S seeds in lockstep; one seed is S = 1. It stacks the
seeds' 2-D models into one holding each layer as an ``(S, fan_in, fan_out)``
array, and every array of a step carries that leading seed axis, so each
numpy call serves all S seeds. The seeds' sets must have equal sizes. Each
seed's slice of a step computes the same bits as the same step on its 2-D
layers alone: each slice goes to the same BLAS kernel, and the sums run
along axis -2 or -1 in the same order.

Backpropagation is written out by hand (the loss module supplies exact
alpha-gradients; the chain rule through the exponential is
``dL/dlogit = alpha * dL/dalpha`` wherever the clamp is inactive). All
randomness flows from explicit seeds through separate generator streams for
initialization, supervised shuffling, and unlabeled shuffling, so disabling
the unlabeled term does not perturb the supervised batch sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import predict_class_batch
from .losses import LossConfig, edl_batch, ug_batch
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
    """Raised when a gradient turns non-finite mid-training; ``slot`` is the
    position of the diverged seed among the trainer's seeds."""

    def __init__(self, message: str, slot: int = 0):
        super().__init__(message)
        self.slot = slot


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
    """Fully connected net with exponential output producing alpha.

    Each layer is a 2-D ``(fan_in, fan_out)`` weight with a ``(fan_out,)``
    bias, or, for S seeds trained in lockstep, an ``(S, fan_in, fan_out)``
    weight with an ``(S, 1, fan_out)`` bias, which broadcasts over each
    seed's rows as the 2-D bias does; inputs then carry the same leading
    seed axis."""

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if not self.weights or len(self.weights) != len(self.biases):
            raise DomainError("need one bias per weight and at least one layer")
        lead = self.weights[0].shape[:-2]
        for w, b in zip(self.weights, self.biases):
            bias_shape = (*lead, 1, w.shape[-1]) if lead else (w.shape[-1],)
            if w.ndim not in (2, 3) or w.shape[:-2] != lead or b.shape != bias_shape:
                raise DomainError("inconsistent layer shapes")
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if prev.shape[-1] != nxt.shape[-2]:
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

    @classmethod
    def stack(cls, models):
        """One model holding the layers of equal-shaped 2-D ``models`` along
        a leading seed axis. Each given model then holds the ``seed_views``
        layers of its slice, so it follows the stacked model's training."""
        stacked = cls([np.stack(ws) for ws in zip(*(m.weights for m in models))],
                      [np.stack(bs)[:, None] for bs in zip(*(m.biases for m in models))])
        for model, view in zip(models, stacked.seed_views()):
            model.weights, model.biases = view.weights, view.biases
        return stacked

    def seed_views(self) -> list:
        """One 2-D model per seed of this stacked model, whose layers are
        views into its layers and so follow its in-place training. A deep
        copy of a view is no view, so take views after copying."""
        return [EvidentialMLP([w[s] for w in self.weights], [b[s, 0] for b in self.biases])
                for s in range(self.weights[0].shape[0])]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[-2]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[-1]

    def _checked_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        w = self.weights[0]
        if x.ndim != w.ndim or x.shape[-1] != w.shape[-2] or x.shape[:-2] != w.shape[:-2]:
            want = ", ".join([*map(str, w.shape[:-2]), "n", str(self.input_dim)])
            raise DomainError(f"expected ({want}) inputs, got shape {x.shape}")
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
        """Backprop an (n, C) alpha-gradient, or an (S, n, C) one through a
        stacked model, to per-parameter gradients.

        Returns (weight_grads, bias_grads) summed over each seed's batch;
        the caller owns any 1/n scaling.
        """
        delta = dalpha * alpha * active
        w_grads = [None] * len(self.weights)
        b_grads = [None] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            w_grads[layer] = activations[layer].swapaxes(-1, -2) @ delta
            b_grads[layer] = delta.sum(axis=-2, keepdims=delta.ndim > 2)
            if layer > 0:
                delta = (delta @ self.weights[layer].swapaxes(-1, -2)) * (activations[layer] > 0.0)
        return w_grads, b_grads


class Trainer:
    """Stateful SGD loop over S seeds' sample pools in lockstep.

    Kept as a class so the ADA loop can interleave sampling rounds between
    epochs while momentum buffers and shuffle streams carry over. ``models``,
    ``pools`` and ``cfgs`` hold one entry per seed, one seed being a list of
    one; the models are 2-D and of equal shapes, the configs equal but for
    their seeds. ``model`` stacks the given models (``EvidentialMLP.stack``),
    so they train in place. Each seed keeps its own pair of shuffle streams,
    and an epoch gathers each seed's rows from its own sets.
    """

    def __init__(self, models, pools, cfgs, loss_cfg: LossConfig, ug_enabled: bool = True):
        self.pools = list(pools)
        cfgs = list(cfgs)
        if not self.pools or len(models) != len(self.pools) or len(cfgs) != len(self.pools):
            raise DomainError("need one pool and one train config per model")
        if any(replace(c, seed=0) != replace(cfgs[0], seed=0) for c in cfgs):
            raise DomainError("lockstep seeds must share every train setting but the seed")
        self.model = EvidentialMLP.stack(models)
        self.cfg = cfgs[0]
        self.loss_cfg = loss_cfg
        self.ug_enabled = ug_enabled
        self.epochs_done = 0
        streams = [np.random.SeedSequence(c.seed).spawn(2) for c in cfgs]
        self._sup_rngs = [np.random.default_rng(sup) for sup, _ in streams]
        self._unsup_rngs = [np.random.default_rng(unsup) for _, unsup in streams]
        self._vel_w = [np.zeros_like(w) for w in self.model.weights]
        self._vel_b = [np.zeros_like(b) for b in self.model.biases]

    @staticmethod
    def _shuffled(rngs, n: int):
        """A permutation of range(n) from each seed's stream, as one row of
        ``(S, n)`` indices into the seeds' sets joined along their rows."""
        return np.stack([rng.permutation(n) for rng in rngs]) + (np.arange(len(rngs)) * n)[:, None]

    def _diverged(self, what: str, bad, hint: str = "") -> TrainingDivergedError:
        """The error for a step whose ``bad`` masks, each with the step's
        leading seed axis, mark what turned non-finite; it carries the slot
        of the first seed they mark."""
        seeds = len(self.pools)
        slot = int(np.argmax(np.any([m.reshape(seeds, -1).any(axis=1) for m in bad], axis=0)))
        epoch = self.epochs_done + 1
        return TrainingDivergedError(f"non-finite {what} at epoch {epoch}{hint}", slot)

    def _minibatch(self, x, what: str, scale, kernel, *args):
        """Forward a minibatch, check its evidence and backprop ``scale`` times
        the alpha-gradient of ``kernel(alpha, *args, loss_cfg)``; returns the
        per-row losses and the batch-summed (weight_grads, bias_grads). The
        kernel sees the S seeds' rows as one ``(S*n, C)`` matrix."""
        alpha, acts, active = self.model._forward_cached(x)
        if not np.all(np.isfinite(alpha)):
            bad = ~np.isfinite(alpha).all(axis=-1)
            row = int(np.argwhere(bad)[0][-1])
            raise self._diverged(f"evidence for {what} sample {row}", [bad],
                                 "; check inputs and learning rate")
        flat = alpha.reshape(-1, alpha.shape[-1])
        losses, dalpha = kernel(flat, *(a.reshape(-1) for a in args), self.loss_cfg)
        backprop = self.model.alpha_gradient_to_param_gradients
        grads = backprop(dalpha.reshape(alpha.shape) * scale, alpha, acts, active)
        return (losses.reshape(alpha.shape[:-1]), *grads)

    def _apply_step(self, w_grads, b_grads, lr: float):
        """Momentum SGD with weight decay, elementwise; the layers change in
        place, which keeps their ``seed_views`` current."""
        wd = self.cfg.weight_decay
        mom = self.cfg.momentum
        for i, (gw, gb) in enumerate(zip(w_grads, b_grads)):
            self._vel_w[i] = mom * self._vel_w[i] + (gw + wd * self.model.weights[i])
            self._vel_b[i] = mom * self._vel_b[i] + (gb + wd * self.model.biases[i])
            self.model.weights[i] -= lr * self._vel_w[i]
            self.model.biases[i] -= lr * self._vel_b[i]

    def run_epoch(self):
        """One epoch of minibatch SGD; returns (supervised_losses, ug_losses),
        each a list of the epoch's batch mean for each seed."""
        sets = [pool.supervised_set(self.loss_cfg.pseudo_label_weight) for pool in self.pools]
        sizes = [(f.shape[0], p.num_unlabeled) for (f, _, _), p in zip(sets, self.pools)]
        if len(set(sizes)) > 1:
            raise DomainError(
                f"lockstep seeds need sets of equal sizes, got (supervised, unlabeled) {sizes}"
            )
        n_sup, n_unl = sizes[0]
        if n_sup == 0:
            raise DomainError("supervised set is empty; nothing to train on")
        # The epoch's rows gathered once in batch order, each an (S, n_sup, ...)
        # array of which a step takes views.
        order = self._shuffled(self._sup_rngs, n_sup)
        features, labels, weights = (np.concatenate(parts)[order] for parts in zip(*sets))
        bs = self.cfg.batch_size
        steps = (n_sup + bs - 1) // bs

        mean_reduction = self.loss_cfg.reduction != "sum"
        if mean_reduction:
            # The mean over each row's own batch; the last batch may be short.
            weights = weights / np.minimum(bs, n_sup - np.arange(n_sup) // bs * bs)
        use_ug = self.ug_enabled and n_unl > 0
        if use_ug:
            unsup_features = np.concatenate([p.unlabeled_features() for p in self.pools])
            take = min(bs, n_unl)
            u_scale = 1.0 / take if mean_reduction else 1.0
            # Shuffled and gathered at the first step and whenever a batch
            # would run past the end.
            unsup_pos = n_unl

        # One contiguous row of step losses per seed: its mean then sums in
        # the same order whatever the number of seeds.
        sup_losses = np.empty((len(self.pools), steps))
        ug_losses = np.zeros((len(self.pools), steps if use_ug else 1))
        for step in range(steps):
            batch = slice(step * bs, (step + 1) * bs)
            scale = weights[:, batch]
            row_losses, w_grads, b_grads = self._minibatch(
                features[:, batch], "supervised", scale[..., None], edl_batch, labels[:, batch]
            )
            sup_losses[..., step] = (row_losses * scale).sum(axis=-1)

            if use_ug:
                if unsup_pos + take > n_unl:
                    unsup_batches = unsup_features[self._shuffled(self._unsup_rngs, n_unl)]
                    unsup_pos = 0
                u_losses, uw_grads, ub_grads = self._minibatch(
                    unsup_batches[:, unsup_pos : unsup_pos + take], "unlabeled", u_scale, ug_batch
                )
                unsup_pos += take
                w_grads = [a + b for a, b in zip(w_grads, uw_grads)]
                b_grads = [a + b for a, b in zip(b_grads, ub_grads)]
                ug_losses[..., step] = u_losses.sum(axis=-1) * u_scale

            finite = [bool(np.isfinite(g).all()) for g in w_grads + b_grads]
            if not all(finite):
                what = "bias" if all(finite[: len(w_grads)]) else "weight"
                bad = [~np.isfinite(g) for g in w_grads + b_grads]
                raise self._diverged(f"{what} gradient", bad)
            progress = (self.epochs_done + step / steps) / max(self.cfg.epochs, 1)
            self._apply_step(w_grads, b_grads, self.cfg.lr_at(progress))

        self.epochs_done += 1
        return sup_losses.mean(axis=-1).tolist(), ug_losses.mean(axis=-1).tolist()


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
    """The 2-D model a ``checkpoint_text`` file holds; stacked layers are
    rejected, as no checkpoint is written from them."""
    with open(path) as fh:
        payload = json.load(fh)
    model = EvidentialMLP(payload["weights"], payload["biases"])
    if model.weights[0].ndim != 2:  # the constructor made every layer agree
        raise DomainError("inconsistent layer shapes: a checkpoint holds 2-D weights")
    return model
