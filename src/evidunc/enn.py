"""A small evidential MLP classifier and its SGD trainer.

The network maps features through rectified-linear hidden layers to C
logits, then exponentiates clamped logits to produce a Dirichlet parameter
vector, so every forward pass yields strictly positive evidence. Training is
plain minibatch SGD with momentum and weight decay on the combined
objective: the supervised loss over source plus labeled target, and, when
enabled, the uncertainty-guided loss over the unlabeled target. An epoch
gathers its supervised rows and unlabeled minibatches once, straight into
one ``(passes, S, rows, d)`` array along a leading pass axis, supervised
first, and the training forward takes them unchecked. Each step takes one
supervised and one unlabeled minibatch as a view of that array, ``(2, S, n,
d)``, and runs them as one pass: one forward, ``edl_gradient`` on the
supervised half and ``ug_batch`` on the unlabeled half, one backward, and
the two halves' gradients summed. A batch goes alone, as a one-slice view,
when the two do not sit at the same rows (the short last batch of an epoch,
fewer unlabeled rows than the batch size) or when the unlabeled term is off.
The backward writes each pass's gradients in place into that pass's row of
one ``(passes, P)`` buffer the epoch allocates, P being the parameter
count, and the step adds the rows into the gradient vector. A step computes
no supervised loss value and keeps the batch's alpha; after the last step,
one loss pass over the epoch's alphas gives each step's supervised loss,
bitwise as the step would have, and the epoch's UG row losses are summed
per step at the end. The parameters live in one vector, of which the layers
are views, so the update, the momentum and the finiteness checks are each
one call on a whole vector.

The trainer runs S seeds in lockstep; one seed is S = 1. It stacks the
seeds' 2-D models into one holding each layer as an ``(S, fan_in, fan_out)``
array, and every array of a step carries that leading seed axis, so each
numpy call serves all S seeds. The seeds' sets must have equal sizes. Each
seed's slice of a step, in either pass, computes the same bits as the same
minibatch on its 2-D layers alone: each slice goes to the same BLAS kernel,
the sums run along axis -2 or -1 in the same order, also into the strided
views of the gradient buffer, and a step's gradients add the supervised
half's and the unlabeled half's, in that order.

Backpropagation is written out by hand (the loss module supplies exact
alpha-gradients; the chain rule through the exponential is
``dL/dlogit = alpha * dL/dalpha`` wherever the clamp is inactive). All
randomness flows from explicit seeds through separate generator streams for
initialization, supervised shuffling, and unlabeled shuffling, so disabling
the unlabeled term does not perturb the supervised batch sequence.

The model's matrix products run in one scope, around the body of
``Trainer.run_epoch`` and the layer loop of ``EvidentialMLP.forward_batch``,
so every library call that trains or scores a model has it. It runs the
OpenBLAS of numpy's 2.x wheels on one thread and gives the caller's count
back, also by a raise: the products are at most 64 columns wide, so a
second thread saves little wall time but spins after each larger forward,
through the rest of a selection round, and P workers with two each would
oversubscribe the CPUs. The count is process-wide, so the scopes nest under
one lock and a depth count, also across Python threads: the first to open
saves the count and sets 1, and the last to close gives it back. Other BLAS
builds keep their count.
The scope also sets glibc's heap thresholds with ``mallopt``, once per
process: freed memory is kept up to 64 MiB (``M_TRIM_THRESHOLD``) and
blocks under 32 MiB come from the heap (``M_MMAP_THRESHOLD``), so the
arrays a step or a pool forward frees are not handed back to the kernel
and faulted in again. Unlike the count, the setting is process-wide and
stays after the call, as glibc cannot report the thresholds to restore;
without ``mallopt`` (another libc) nothing changes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dirichlet import predict_class_batch
from .losses import LossConfig, edl_batch, edl_gradient, edl_loss, ug_batch
from .special import DomainError, _check_finite

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


# The OpenBLAS that numpy's wheel bundles (relative to numpy's site
# directory) and its thread-count setter and getter.
_OPENBLAS = ("numpy.libs/libscipy_openblas64_-*.so", "scipy_openblas_set_num_threads64_",
             "scipy_openblas_get_num_threads64_")


@functools.cache
def _blas_functions(openblas: tuple):
    """The (setter, getter) of the library that ``openblas``, an
    ``_OPENBLAS`` tuple, names, looked up once per process; None when numpy
    has not loaded that library or it lacks the setter or the getter."""
    pattern, set_name, get_name = openblas
    for path in sorted(Path(np.__file__).parent.parent.glob(pattern)):
        try:  # RTLD_NOLOAD: only a library this process already has
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return setter, getter
    return None


def _set_blas_threads(n: int):
    """Run the bundled OpenBLAS on ``n`` threads in this process; returns the
    previous count, or None, changing nothing, without that library or its
    setter and getter."""
    functions = _blas_functions(_OPENBLAS)
    if functions is None:
        return None
    setter, getter = functions
    previous = getter()
    setter(n)
    return previous


# The scopes open in this process and the count the first of them found.
_SCOPE_LOCK = threading.Lock()
_scope = {"depth": 0, "previous": None}


@contextlib.contextmanager
def _one_blas_thread():
    """One BLAS thread for the body, then the previous count again. Scopes
    nest, also across threads: the first to open saves the count and sets
    1, and the last to close gives the saved count back."""
    with _SCOPE_LOCK:
        if not _scope["depth"]:
            _scope["previous"] = _set_blas_threads(1)
        _scope["depth"] += 1
    try:
        yield
    finally:
        with _SCOPE_LOCK:
            _scope["depth"] -= 1
            if not _scope["depth"] and _scope["previous"] is not None:
                _set_blas_threads(_scope["previous"])


# glibc's mallopt and the (parameter, value) pairs the model's products set
# with it: M_TRIM_THRESHOLD 64 MiB and M_MMAP_THRESHOLD 32 MiB.
_MALLOPT = ("mallopt", ((-1, 64 * 2**20), (-3, 32 * 2**20)))


@functools.cache
def _heap_setting() -> bool:
    """Keep freed memory in this process's heap (see the module docstring),
    once per process; returns whether libc has ``mallopt``, without which
    it changes nothing."""
    name, settings = _MALLOPT
    try:
        mallopt = getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in settings:
        mallopt(param, value)
    return True


@contextlib.contextmanager
def _model_products():
    """The scope of the model's matrix products: the heap setting, then one
    BLAS thread for the body and the caller's count again after it."""
    _heap_setting()
    with _one_blas_thread():
        yield


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
        _check_finite(self, "learning_rate", "momentum", "weight_decay", "lr_gamma", "lr_beta")
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

    def _alpha(self, h: np.ndarray, activations: list | None = None):
        """Both forwards' layer loop: alpha of ``h``, each layer's product
        worked in place; given a list ``activations``, also the mask of
        unclamped logits, each hidden layer's output appended to the list."""
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
            if activations is not None:
                activations.append(h)
        logits = h @ self.weights[-1]
        logits += self.biases[-1]
        active = None if activations is None else np.abs(logits) < LOGIT_CLAMP
        np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP, out=logits)
        return np.exp(logits, out=logits), active

    def _forward_cached(self, x: np.ndarray):
        """The training forward: alpha plus what backprop needs, every
        layer's input activations (``x`` itself first) and the mask of
        unclamped logits. ``x``, a float64 array the trainer gathered, is not
        checked; it may stack several passes' inputs along a leading axis, and
        each ``(pass, seed)`` slice then gets the BLAS call it would alone."""
        activations = [x]
        alpha, active = self._alpha(x, activations)
        return alpha, activations, active

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Alpha matrix (n, C) for an (n, d) input batch, for inference.

        Bitwise the alpha of ``_forward_cached``, whose layer loop it runs.
        The batch is not split into row blocks: BLAS may pick other kernels
        for a partial block, which changes the bits. ``x`` must be ``(n,
        d)``, or ``(S, n, d)`` for a stacked model."""
        h = np.asarray(x, dtype=np.float64)
        w = self.weights[0]
        if h.ndim != w.ndim or h.shape[-1] != w.shape[-2] or h.shape[:-2] != w.shape[:-2]:
            want = ", ".join([*map(str, w.shape[:-2]), "n", str(self.input_dim)])
            raise DomainError(f"expected ({want}) inputs, got shape {h.shape}")
        with _model_products():
            return self._alpha(h)[0]

    def alpha_gradient_to_param_gradients(self, dalpha, alpha, activations, active, out=None):
        """Backprop an (n, C) alpha-gradient, or an (S, n, C) one through a
        stacked model, to per-parameter gradients; a leading pass axis, as
        ``_forward_cached`` takes, carries through to them.

        Returns (weight_grads, bias_grads) summed over each seed's batch;
        the caller owns any 1/n scaling. Given ``out``, arrays of those
        shapes, weights then biases, each product and bias sum is written
        into them in place; without, they are allocated.
        """
        layers = len(self.weights)
        grads = [None] * (2 * layers) if out is None else out
        delta = dalpha * alpha * active
        stacked = self.weights[0].ndim > 2
        for layer in range(layers - 1, -1, -1):
            grads[layer] = np.matmul(activations[layer].swapaxes(-1, -2), delta, out=grads[layer])
            grads[layers + layer] = np.add.reduce(delta, axis=-2, keepdims=stacked,
                                                  out=grads[layers + layer])
            if layer > 0:
                delta = (delta @ self.weights[layer].swapaxes(-1, -2)) * (activations[layer] > 0.0)
        return grads[:layers], grads[layers:]


def _layer_views(vector, shapes) -> list:
    """Views of consecutive parts of ``vector``'s last axis in ``shapes``,
    each behind ``vector``'s leading axes."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(*vector.shape[:-1], *shape)
            for part, shape in zip(np.split(vector, ends[:-1], axis=-1), shapes)]


def _on_vector(vector, shapes) -> EvidentialMLP:
    """The model whose weights then biases are ``_layer_views`` of
    ``vector``; pickling and copying rebuild a stacked model this way."""
    layers = _layer_views(vector, shapes)
    model = EvidentialMLP(layers[: len(layers) // 2], layers[len(layers) // 2 :])
    model.vector = vector
    return model


class Trainer:
    """Stateful SGD loop over S seeds' sample pools in lockstep.

    Kept as a class so the ADA loop can interleave sampling rounds between
    epochs while momentum buffers and shuffle streams carry over. ``models``,
    ``pools`` and ``cfgs`` hold one entry per seed, one seed being a list of
    one; the models are 2-D and of equal shapes, the configs equal but for
    their seeds. ``model`` stacks the given models (``EvidentialMLP.stack``),
    so they train in place. Each seed keeps its own pair of shuffle streams,
    and an epoch gathers each seed's rows and unlabeled batches from its own
    sets, which the training forward takes unchecked: the constructor checks
    the pools' feature dimension.
    """

    def __init__(self, models, pools, cfgs, loss_cfg: LossConfig, ug_enabled: bool = True):
        self.pools = list(pools)
        cfgs = list(cfgs)
        if not self.pools or len(models) != len(self.pools) or len(cfgs) != len(self.pools):
            raise DomainError("need one pool and one train config per model")
        if any(replace(c, seed=0) != replace(cfgs[0], seed=0) for c in cfgs):
            raise DomainError("lockstep seeds must share every train setting but the seed")
        dims, want = [pool.source_features.shape[1] for pool in self.pools], models[0].input_dim
        if any(d != want for d in dims):
            raise DomainError(f"the models take {want} features, the pools hold {dims}")
        self.model = EvidentialMLP.stack(models)
        self.cfg = cfgs[0]
        self.loss_cfg = loss_cfg
        self.ug_enabled = ug_enabled
        self.epochs_done = 0
        streams = [np.random.SeedSequence(c.seed).spawn(2) for c in cfgs]
        self._sup_rngs = [np.random.default_rng(sup) for sup, _ in streams]
        self._unsup_rngs = [np.random.default_rng(unsup) for _, unsup in streams]
        self._velocity = np.zeros_like(self.model.vector)

    def _diverged(self, what: str, bad, hint: str = "") -> TrainingDivergedError:
        """The error for a step whose ``bad`` masks, each with the step's
        leading seed axis, mark what turned non-finite; it carries the slot
        of the first seed they mark."""
        seeds = len(self.pools)
        slot = int(np.argmax(np.any([m.reshape(seeds, -1).any(axis=1) for m in bad], axis=0)))
        epoch = self.epochs_done + 1
        return TrainingDivergedError(f"non-finite {what} at epoch {epoch}{hint}", slot)

    def _step(self, grad, buf, views, groups, labels, weights, u_scale):
        """Run one step's ``groups``, each a view of the epoch's gathered
        inputs and the index of its first pass: forward it, check its
        evidence, and backprop the row ``weights`` times the supervised
        ``edl_gradient`` (pass 0) or ``u_scale`` times the ``ug_batch``
        gradient (pass 1), summed over every row, into the pass's row of
        ``buf`` through its layer ``views``. Then sum the passes into the
        gradient vector ``grad``, supervised first. A kernel sees the S
        seeds' rows as one ``(S*n, C)`` matrix. Returns the supervised
        ``(S, n, C)`` alpha and the UG per-row losses (None with the term
        off)."""
        ug_rows = None
        for x, first in groups:
            alpha, acts, active = self.model._forward_cached(x)
            if not np.isfinite(alpha).all():
                for a, what in zip(alpha, ("supervised", "unlabeled")[first:]):
                    bad = ~np.isfinite(a).all(axis=-1)
                    if bad.any():
                        row = int(np.argwhere(bad)[0][-1])
                        raise self._diverged(f"evidence for {what} sample {row}", [bad],
                                             "; check inputs and learning rate")
            dalpha = np.empty_like(alpha)
            for unlabeled, a, d in zip((False, True)[first:], alpha, dalpha):
                flat = a.reshape(-1, a.shape[-1])
                if unlabeled:
                    ug_rows, da = ug_batch(flat, self.loss_cfg)
                else:
                    sup_alpha, da = a, edl_gradient(flat, labels.reshape(-1), self.loss_cfg)
                np.multiply(da.reshape(a.shape), u_scale if unlabeled else weights, out=d)
            out = views if len(x) == len(buf) else [v[first : first + 1] for v in views]
            self.model.alpha_gradient_to_param_gradients(dalpha, alpha, acts, active, out)
        # Summing a length-2 pass axis is buf[0] + buf[1], element by element.
        np.add.reduce(buf, axis=0, out=grad)
        return sup_alpha, ug_rows

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
    @_model_products()
    def run_epoch(self):
        """One epoch of minibatch SGD; returns (supervised_losses, ug_losses),
        each a list of the epoch's batch mean for each seed.

        The epoch gathers its inputs into one array and allocates one
        gradient buffer, a row per pass, of which each step takes views (see
        the module docstring)."""
        sets = [pool.supervised_set(self.loss_cfg.pseudo_label_weight) for pool in self.pools]
        sizes = [(f.shape[0], p.num_unlabeled) for (f, _, _), p in zip(sets, self.pools)]
        if len(set(sizes)) > 1:
            raise DomainError(
                f"lockstep seeds need sets of equal sizes, got (supervised, unlabeled) {sizes}"
            )
        n_sup, n_unl = sizes[0]
        if n_sup == 0:
            raise DomainError("supervised set is empty; nothing to train on")
        bs = self.cfg.batch_size
        steps = (n_sup + bs - 1) // bs
        seeds = len(self.pools)
        layers = len(self.model.weights)
        params = self.model.weights + self.model.biases
        mean_reduction = self.loss_cfg.reduction != "sum"
        # The unlabeled rows of a step; none with the UG term off.
        take = min(bs, n_unl) if self.ug_enabled else 0
        u_scale = 1.0 / take if take and mean_reduction else 1.0

        # The epoch's inputs, gathered once in batch order straight into one
        # (passes, S, rows, d) array of which each step takes views: pass 0
        # holds each seed's supervised rows, and pass 1, with the UG term on,
        # its unlabeled batches, step k's from row k*take.
        inputs = np.empty((1 + bool(take), seeds, max(n_sup, steps * take), self.model.input_dim))
        orders = [rng.permutation(n_sup) for rng in self._sup_rngs]
        for (features, _, _), order, out in zip(sets, orders, inputs[0]):
            np.take(features, order, axis=0, out=out[:n_sup], mode="clip")
        labels, weights = (np.stack([part[order] for part, order in zip(parts, orders)])
                           for parts in list(zip(*sets))[1:])
        if take:
            # Each shuffle serves its whole batches in turn, its last
            # n_unl % take rows unused, and step k takes the k-th batch.
            whole = n_unl // take * take
            shuffles = -(-steps * take // whole)
            for rng, pool, out in zip(self._unsup_rngs, self.pools, inputs[1]):
                ids = np.concatenate([rng.permutation(n_unl)[:whole] for _ in range(shuffles)])
                np.take(pool.target_features, pool.unlabeled_ids()[ids[: steps * take]], axis=0,
                        out=out[: steps * take], mode="clip")
        if mean_reduction:
            # The mean over each row's own batch; the last batch may be short.
            weights = weights / np.minimum(bs, n_sup - np.arange(n_sup) // bs * bs)

        # One gradient buffer for the epoch, a row per pass, which each step's
        # backward writes into through the per-pass layer views.
        shapes = [p.shape for p in params]
        grad = np.empty_like(self.model.vector)
        grads = _layer_views(grad, shapes)
        buf = np.empty((len(inputs), grad.size))
        views = _layer_views(buf, shapes)
        # Each step's UG per-row losses, one contiguous row of steps per seed:
        # its mean then sums in the same order whatever the number of seeds.
        ug_rows = np.zeros((seeds, steps, take))
        # Each step's supervised alpha, for the loss pass after the last step.
        alphas = np.empty((seeds, n_sup, self.model.weights[-1].shape[-1]))
        for step in range(steps):
            rows = slice(step * bs, min((step + 1) * bs, n_sup))
            u_rows = slice(step * take, (step + 1) * take)
            # One stacked pass when both batches sit at the same rows, else
            # each pass alone.
            groups = ([(inputs[:, :, rows], 0)] if rows == u_rows else
                      [(inputs[k : k + 1, :, r], k)
                       for k, r in enumerate((rows, u_rows)[: len(inputs)])])
            alphas[:, rows], step_ug = self._step(grad, buf, views, groups, labels[:, rows],
                                                  weights[:, rows, None], u_scale)
            if take:
                ug_rows[:, step] = step_ug.reshape(seeds, take)

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
        ug_losses = np.add.reduce(ug_rows, axis=-1) * u_scale

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
