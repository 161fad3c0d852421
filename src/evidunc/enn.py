"""A small evidential MLP classifier and its SGD trainer.

The network maps features through rectified-linear hidden layers to C
logits, then exponentiates clamped logits to produce a Dirichlet parameter
vector, so every forward pass yields strictly positive evidence. Training is
plain minibatch SGD with momentum and weight decay on the combined
objective: the supervised loss over source plus labeled target, and, when
enabled, the uncertainty-guided loss over the unlabeled target. Each step
consumes one supervised and one unlabeled minibatch, and runs them as one
pass along a leading pass axis, ``(2, S, n, d)``: one forward, each half's
loss kernel, one backward, and the two halves' gradients summed. A batch
goes alone, as a one-slice pass, when the two differ in shape (the short
last batch of an epoch, fewer unlabeled rows than the batch size) or when
the unlabeled term is off. A step computes the supervised gradient alone
and keeps the batch's alpha; after the last step, one loss pass over the
epoch's alphas gives each step's supervised loss, bitwise as the step
would have. The parameters live in one vector, of which the layers are
views, so the update, the momentum and the finiteness checks are each one
call on a whole vector.

The trainer runs S seeds in lockstep; one seed is S = 1. It stacks the
seeds' 2-D models into one holding each layer as an ``(S, fan_in, fan_out)``
array, and every array of a step carries that leading seed axis, so each
numpy call serves all S seeds. The seeds' sets must have equal sizes. Each
seed's slice of a step, in either pass, computes the same bits as the same
minibatch on its 2-D layers alone: each slice goes to the same BLAS kernel,
the sums run along axis -2 or -1 in the same order, and a step's gradients
add the supervised half's and the unlabeled half's, in that order.

Backpropagation is written out by hand (the loss module supplies exact
alpha-gradients; the chain rule through the exponential is
``dL/dlogit = alpha * dL/dalpha`` wherever the clamp is inactive). All
randomness flows from explicit seeds through separate generator streams for
initialization, supervised shuffling, and unlabeled shuffling, so disabling
the unlabeled term does not perturb the supervised batch sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import predict_class_batch
from .losses import LossConfig, edl_batch, edl_gradient, edl_loss, ug_batch
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
MAX_BATCH_SIZE = int(np.iinfo(np.int64).max)  # an epoch's batch arithmetic runs in int64
LR_SCHEDULES = ("constant", "inverse-decay")

# Not called here; kept because perfbench/tracing.py wraps this name in this module.
_TRACED = (edl_batch,)


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
        if self.batch_size > MAX_BATCH_SIZE:
            raise DomainError(f"batch_size must be at most {MAX_BATCH_SIZE}")
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
        self.vector = None  # for a stacked model, the vector its layers are views of

    def __reduce_ex__(self, protocol):
        """A stacked model pickles and copies as its vector and layer
        shapes, so the copy's layers are views of the copy's vector."""
        if self.vector is None:
            return super().__reduce_ex__(protocol)
        return _on_vector, (self.vector, [p.shape for p in self.weights + self.biases])

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
        a leading seed axis, all in one contiguous ``vector``, weights then
        biases, of which its layers are views. Each given model then holds
        the ``seed_views`` layers of its slice, so it follows the stacked
        model's training."""
        layers = ([np.stack(ws) for ws in zip(*(m.weights for m in models))]
                  + [np.stack(bs)[:, None] for bs in zip(*(m.biases for m in models))])
        stacked = _on_vector(np.concatenate([p.reshape(-1) for p in layers]),
                             [p.shape for p in layers])
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

    def _checked_input(self, x: np.ndarray, passes: bool = False) -> np.ndarray:
        """x as float64 after checking that it is ``(n, d)`` input, ``(S, n,
        d)`` for a stacked model; with ``passes`` also a stack of such inputs
        along one more leading axis."""
        x = np.asarray(x, dtype=np.float64)
        w = self.weights[0]
        shape = x.shape[1:] if passes and x.ndim == w.ndim + 1 else x.shape
        if len(shape) != w.ndim or shape[-1] != w.shape[-2] or shape[:-2] != w.shape[:-2]:
            want = ", ".join([*map(str, w.shape[:-2]), "n", str(self.input_dim)])
            raise DomainError(f"expected ({want}) inputs, got shape {x.shape}")
        return x

    def _forward_cached(self, x: np.ndarray):
        """The training forward: alpha plus what backprop needs, every
        layer's input activations and the mask of unclamped logits. ``x``
        may stack several passes' inputs along a leading axis; each
        ``(pass, seed)`` slice then goes to the same BLAS call as it would
        alone."""
        x = self._checked_input(x, passes=True)
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
        stacked model, to per-parameter gradients; a leading pass axis, as
        ``_forward_cached`` takes, carries through to them.

        Returns (weight_grads, bias_grads) summed over each seed's batch;
        the caller owns any 1/n scaling.
        """
        delta = dalpha * alpha * active
        stacked = self.weights[0].ndim > 2
        w_grads = [None] * len(self.weights)
        b_grads = [None] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            w_grads[layer] = activations[layer].swapaxes(-1, -2) @ delta
            b_grads[layer] = delta.sum(axis=-2, keepdims=stacked)
            if layer > 0:
                delta = (delta @ self.weights[layer].swapaxes(-1, -2)) * (activations[layer] > 0.0)
        return w_grads, b_grads


def _layer_views(vector, shapes) -> list:
    """Views of consecutive parts of ``vector`` in ``shapes``."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(vector, ends[:-1]), shapes)]


def _on_vector(vector, shapes) -> EvidentialMLP:
    """The model whose weights then biases are ``_layer_views`` of
    ``vector``; pickling and copying rebuild a stacked model this way."""
    layers = _layer_views(vector, shapes)
    model = EvidentialMLP(layers[: len(layers) // 2], layers[len(layers) // 2 :])
    model.vector = vector
    return model


def _edl_step(alpha, classes, config):
    """A step's supervised kernel: no per-row losses, which ``run_epoch``
    computes after its last step, and the alpha-gradient."""
    return None, edl_gradient(alpha, classes, config)


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
        self._velocity = np.zeros_like(self.model.vector)

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

    def _minibatches(self, batches, grads):
        """Forward one step's minibatches, each ``(x, what, scale, kernel,
        *args)``, check their evidence and backprop ``scale`` times the
        alpha-gradient that ``kernel(alpha, *args, loss_cfg)`` returns after
        the per-row losses (or None) into ``grads``, the layer views of the
        gradient vector, summed over every row, batch after batch; returns
        each batch's ``(S, n, C)`` alpha and the per-row losses its kernel
        returned. Batches of one shape run as one pass along a leading axis,
        others each as a one-slice pass. The kernel sees a batch's S seeds'
        rows as one ``(S*n, C)`` matrix."""
        stacked = len({x.shape for x, *_ in batches}) == 1
        kept = []
        for k, group in enumerate([batches] if stacked else [[batch] for batch in batches]):
            alpha, acts, active = self.model._forward_cached(np.stack([x for x, *_ in group]))
            if not np.isfinite(alpha).all():
                for a, (_, what, *_) in zip(alpha, group):
                    bad = ~np.isfinite(a).all(axis=-1)
                    if bad.any():
                        row = int(np.argwhere(bad)[0][-1])
                        raise self._diverged(f"evidence for {what} sample {row}", [bad],
                                             "; check inputs and learning rate")
            dalpha = np.empty_like(alpha)
            for a, d, (_, _, scale, kernel, *args) in zip(alpha, dalpha, group):
                row_losses, da = kernel(a.reshape(-1, a.shape[-1]),
                                        *(v.reshape(-1) for v in args), self.loss_cfg)
                np.multiply(da.reshape(a.shape), scale, out=d)
                kept.append((a, row_losses))
            w_grads, b_grads = self.model.alpha_gradient_to_param_gradients(dalpha, alpha, acts,
                                                                             active)
            # Summing a length-2 pass axis is g[0] + g[1], element by element.
            for out, g in zip(grads, w_grads + b_grads):
                if k == 0:
                    np.add.reduce(g, axis=0, out=out)
                else:
                    out += g[0]
        return kept

    def _apply_step(self, grad, lr: float):
        """Momentum SGD with weight decay on the parameter vector, elementwise
        for the gradient vector ``grad``; the vector and its velocity change
        in place, which keeps the layers and ``seed_views`` current."""
        self._velocity *= self.cfg.momentum
        self._velocity += grad + self.cfg.weight_decay * self.model.vector
        self.model.vector -= lr * self._velocity

    # The trainer checks evidence, gradients and weights itself and raises
    # TrainingDivergedError, so numpy's warnings of a diverging step are noise.
    @np.errstate(over="ignore", invalid="ignore")
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
        seeds = len(self.pools)
        layers = len(self.model.weights)
        params = self.model.weights + self.model.biases
        grad = np.empty_like(self.model.vector)
        grads = _layer_views(grad, [p.shape for p in params])

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
        ug_losses = np.zeros((seeds, steps if use_ug else 1))
        # Each step's supervised alpha, for the loss pass after the last step.
        alphas = np.empty((seeds, n_sup, self.model.weights[-1].shape[-1]))
        for step in range(steps):
            batch = slice(step * bs, (step + 1) * bs)
            batches = [(features[:, batch], "supervised", weights[:, batch, None], _edl_step,
                        labels[:, batch])]
            if use_ug:
                if unsup_pos + take > n_unl:
                    unsup_batches = unsup_features[self._shuffled(self._unsup_rngs, n_unl)]
                    unsup_pos = 0
                batches.append((unsup_batches[:, unsup_pos : unsup_pos + take], "unlabeled",
                                u_scale, ug_batch))
                unsup_pos += take
            kept = self._minibatches(batches, grads)
            alphas[:, batch] = kept[0][0]
            if use_ug:
                ug_losses[..., step] = kept[1][1].reshape(seeds, -1).sum(axis=-1) * u_scale

            if not np.isfinite(grad).all():
                finite = [bool(np.isfinite(g).all()) for g in grads]
                what = "bias" if all(finite[:layers]) else "weight"
                raise self._diverged(f"{what} gradient", [~np.isfinite(g) for g in grads])
            progress = (self.epochs_done + step / steps) / max(self.cfg.epochs, 1)
            self._apply_step(grad, self.cfg.lr_at(progress))

        # Each step's weighted loss sum, from one loss pass over the epoch's
        # alphas; each batch sums along its own contiguous row, as one
        # (S, n) step's would, the short last batch apart.
        rows = edl_loss(alphas.reshape(-1, alphas.shape[-1]), labels.reshape(-1), self.loss_cfg)
        rows = rows.reshape(seeds, n_sup) * weights
        full = n_sup // bs
        sup_losses = np.empty((seeds, steps))
        if full:
            sup_losses[:, :full] = rows[:, : full * bs].reshape(seeds, full, bs).sum(axis=-1)
        if full < steps:
            sup_losses[:, full] = rows[:, full * bs :].sum(axis=-1)

        # The next step's forward checks what a step left; after the last
        # one, the weights themselves, before any inference sees them.
        if not np.isfinite(self.model.vector).all():
            raise self._diverged("weights", [~np.isfinite(p) for p in params])
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
