"""Trainer tests: forward contract, hand-traced SGD updates, end-to-end
weight gradients against finite differences, and the determinism contract."""

import copy
import json
import math

import numpy as np
import pytest

from evidunc.enn import (
    LOGIT_CLAMP,
    EvidentialMLP,
    TrainConfig,
    Trainer,
    TrainingDivergedError,
    checkpoint_text,
    evaluate,
    load_checkpoint,
)
from evidunc.losses import LossConfig, edl_batch, ug_batch
from evidunc.pools import SamplePool
from evidunc.special import DomainError


def linear_model(bias, input_dim=2):
    """Single-layer net with zero weights, so logits equal the bias."""
    bias = np.asarray(bias, dtype=np.float64)
    return EvidentialMLP([np.zeros((input_dim, bias.size))], [bias])


def small_pool(n_source=16, n_target=12, budget=6, seed=3):
    rng = np.random.default_rng(seed)
    labels = (np.arange(n_source) % 2) + 1
    features = rng.normal(size=(n_source, 2)) + np.where(labels[:, None] == 1, 2.0, -2.0)
    t_labels = (np.arange(n_target) % 2) + 1
    t_features = rng.normal(size=(n_target, 2)) + np.where(t_labels[:, None] == 1, 2.0, -2.0)
    return SamplePool(features, labels, t_features, t_labels, budget)


class TestForward:
    def test_zero_logits_give_flat_alpha(self):
        model = linear_model([0.0, 0.0, 0.0])
        alpha = model.forward_batch(np.array([[1.0, -1.0]]))[0]
        np.testing.assert_array_equal(alpha, [1.0, 1.0, 1.0])

    def test_logits_invert_through_exp(self):
        model = linear_model([math.log(3.0), 0.0])
        alpha = model.forward_batch(np.array([[0.5, 0.5]]))[0]
        np.testing.assert_allclose(alpha, [3.0, 1.0], atol=1e-12)

    def test_clamp_bounds_alpha(self):
        model = linear_model([100.0, -100.0])
        alpha = model.forward_batch(np.array([[0.0, 0.0]]))[0]
        assert alpha[0] == pytest.approx(math.exp(30.0))
        assert alpha[1] == pytest.approx(math.exp(-30.0))

    def test_dimension_mismatch(self):
        model = linear_model([0.0, 0.0], input_dim=3)
        with pytest.raises(DomainError):
            model.forward_batch(np.array([[1.0, 2.0]]))
        with pytest.raises(DomainError, match=r"^expected \(n, 3\) inputs, got shape \(4, 2\)$"):
            model.forward_batch(np.zeros((4, 2)))
        with pytest.raises(DomainError, match=r"^expected \(n, 3\) inputs, got shape \(3,\)$"):
            model.forward_batch(np.zeros(3))

    @pytest.mark.parametrize("n", [1, 32, 50_000])
    @pytest.mark.parametrize("scale", [1.0, 1000.0], ids=["free", "clamped"])
    def test_inference_forward_bitwise_equal_to_training_forward(self, n, scale):
        model = EvidentialMLP.create(8, 10, hidden=(64, 64), seed=5)
        x = np.random.default_rng(n).normal(size=(n, 8)) * scale
        alpha = model.forward_batch(x)
        want, _, active = model._forward_cached(x)
        assert alpha.shape == want.shape and alpha.tobytes() == want.tobytes()
        # The large inputs drive logits past the clamp on both sides.
        assert np.all(active) == (scale == 1.0)
        if scale != 1.0:
            assert alpha.max() == math.exp(LOGIT_CLAMP) and alpha.min() == math.exp(-LOGIT_CLAMP)

    def test_inference_forward_leaves_its_input_alone(self):
        x = np.random.default_rng(0).normal(size=(5, 3))
        before = x.copy()
        linear_model([0.5, -0.5], input_dim=3).forward_batch(x)
        EvidentialMLP.create(3, 2, hidden=(4,), seed=1).forward_batch(x)
        assert x.tobytes() == before.tobytes()

    def test_init_is_scaled_and_seeded(self):
        a = EvidentialMLP.create(5, 3, hidden=(7,), seed=11)
        b = EvidentialMLP.create(5, 3, hidden=(7,), seed=11)
        c = EvidentialMLP.create(5, 3, hidden=(7,), seed=12)
        for w, fan in zip(a.weights, [(5, 7), (7, 3)]):
            bound = math.sqrt(6.0 / sum(fan))
            assert np.all(np.abs(w) <= bound)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))
        assert all(np.all(b_ == 0.0) for b_ in a.biases)


class TestSgdUpdate:
    def test_two_step_momentum_trace(self):
        # v <- mu*v + (g + wd*w); w <- w - lr*v, traced by hand for a
        # single 1x1 weight: w0=1, g1=2, g2=-1, lr=0.1, mu=0.9, wd=0.01.
        model = EvidentialMLP([np.array([[1.0]])], [np.array([0.0])])
        pool = SamplePool(np.zeros((1, 1)), [1], np.zeros((0, 1)), np.zeros(0, dtype=int), 0)
        cfg = TrainConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.01, seed=0)
        trainer = Trainer([model], [pool], [cfg], LossConfig(), ug_enabled=False)
        # The parameter vector holds the weight, then the bias.
        trainer._apply_step(np.array([2.0, 0.0]), lr=0.1)
        assert model.weights[0][0, 0] == pytest.approx(0.799, abs=1e-12)
        trainer._apply_step(np.array([-1.0, 0.0]), lr=0.1)
        assert model.weights[0][0, 0] == pytest.approx(0.717301, abs=1e-12)
        assert model.biases[0][0] == 0.0

    def test_zero_gradient_with_zero_decay_leaves_model_unchanged(self):
        model = EvidentialMLP.create(2, 2, hidden=(3,), seed=0)
        before = [w.copy() for w in model.weights]
        pool = small_pool()
        cfg = TrainConfig(weight_decay=0.0, seed=0)
        trainer = Trainer([model], [pool], [cfg], LossConfig())
        trainer._apply_step(np.zeros_like(trainer.model.vector), lr=0.1)
        assert all(np.array_equal(w, b) for w, b in zip(model.weights, before))


class TestFullModelGradient:
    def test_matches_finite_differences(self):
        # Mean-reduced supervised + unlabeled objective on a tiny net. The
        # seed is chosen so no ReLU preactivation or logit sits near its
        # kink, which would invalidate the central difference.
        rng = np.random.default_rng(5)
        model = EvidentialMLP.create(2, 3, hidden=(4,), seed=9)
        x_sup = rng.normal(size=(6, 2))
        y_sup = rng.integers(1, 4, size=6)
        x_unsup = rng.normal(size=(5, 2))
        loss_cfg = LossConfig(mode="variance", lambda_reg=0.4, lambda_a=0.05, lambda_e=1.0)

        pre = x_sup @ model.weights[0] + model.biases[0]
        assert np.abs(pre).min() > 1e-3

        def objective(m):
            alpha_s = m.forward_batch(x_sup)
            alpha_u = m.forward_batch(x_unsup)
            sup, _ = edl_batch(alpha_s, y_sup, loss_cfg)
            ug, _ = ug_batch(alpha_u, loss_cfg)
            return sup.mean() + ug.mean()

        alpha_s, acts_s, active_s = model._forward_cached(x_sup)
        alpha_u, acts_u, active_u = model._forward_cached(x_unsup)
        _, dalpha_s = edl_batch(alpha_s, y_sup, loss_cfg)
        _, dalpha_u = ug_batch(alpha_u, loss_cfg)
        gw_s, gb_s = model.alpha_gradient_to_param_gradients(
            dalpha_s / x_sup.shape[0], alpha_s, acts_s, active_s
        )
        gw_u, gb_u = model.alpha_gradient_to_param_gradients(
            dalpha_u / x_unsup.shape[0], alpha_u, acts_u, active_u
        )
        analytic = [a + b for a, b in zip(gw_s, gw_u)] + [
            a + b for a, b in zip(gb_s, gb_u)
        ]

        h = 1e-5
        params = list(model.weights) + list(model.biases)
        for p_idx, param in enumerate(params):
            numeric = np.empty_like(param)
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                up = objective(model)
                param[idx] = orig - h
                down = objective(model)
                param[idx] = orig
                numeric[idx] = (up - down) / (2.0 * h)
            np.testing.assert_array_less(
                np.abs(analytic[p_idx] - numeric),
                1e-8 + 1e-4 * np.abs(numeric),
            )


def composition_pools(seeds):
    """One pool per seed, each with 21 supervised rows of two weights
    (pseudo-labeled rows weigh 0.5 under ``pseudo_label_weight=0.5``) and 7
    unlabeled rows, target ids 5 to 11."""
    pools = []
    for seed in seeds:
        pool = small_pool(seed=seed)
        pool.acquire_with_oracle([0, 1])
        pool.acquire_with_pseudo_labels([2, 3, 4], [1, 2, 1])
        pools.append(pool)
    return pools


def composition_trainer(mode, reduction, batch_size, seeds, ug_enabled):
    """A fresh trainer on ``composition_pools`` with one 2-5-2 model per
    seed, a twin trainer on copies of the models, and those copies, which
    the twin's stacking turns into views of its layers."""
    loss_cfg = LossConfig(mode=mode, reduction=reduction, pseudo_label_weight=0.5)
    cfgs = [TrainConfig(epochs=3, batch_size=batch_size, learning_rate=0.05, seed=4 + k)
            for k in range(seeds)]
    models = [EvidentialMLP.create(2, 2, hidden=(5,), seed=k) for k in range(seeds)]
    refs = [EvidentialMLP([w.copy() for w in m.weights], [b.copy() for b in m.biases])
            for m in models]
    pools = composition_pools(range(3, 3 + seeds))
    trainer = Trainer(models, pools, cfgs, loss_cfg, ug_enabled=ug_enabled)
    return trainer, Trainer(refs, pools, cfgs, loss_cfg), refs


def composed_epoch(trainer, twin, refs):
    """Step ``twin`` through the epoch ``trainer.run_epoch`` is about to
    run, drawing from copies of its shuffle streams, with each seed's
    gradients composed apart for each minibatch: ``_forward_cached`` ->
    ``edl_batch``/``ug_batch`` -> mean scaling ->
    ``alpha_gradient_to_param_gradients`` on the seed's 2-D model in
    ``refs`` (views of ``twin``'s layers), summed supervised + unlabeled
    and stepped by ``_apply_step``. Returns the epoch's (supervised, UG)
    mean losses of each seed, as ``run_epoch`` does."""
    cfg, loss_cfg = trainer.cfg, trainer.loss_cfg
    sup_rngs = copy.deepcopy(trainer._sup_rngs)
    unsup_rngs = copy.deepcopy(trainer._unsup_rngs)
    mean = loss_cfg.reduction == "mean"
    sets = [pool.supervised_set(loss_cfg.pseudo_label_weight) for pool in trainer.pools]
    unlabeled = [pool.unlabeled_features() for pool in trainer.pools]
    n_sup, n_unl, bs = sets[0][0].shape[0], unlabeled[0].shape[0], cfg.batch_size
    orders = [rng.permutation(n_sup) for rng in sup_rngs]
    steps = (n_sup + bs - 1) // bs
    use_ug = trainer.ug_enabled and n_unl > 0
    take, u_pos = min(bs, n_unl), n_unl
    sup_losses = [[] for _ in refs]
    ug_losses = [[] for _ in refs] if use_ug else [[0.0] for _ in refs]
    for step in range(steps):
        if use_ug and u_pos + take > n_unl:
            u_orders = [rng.permutation(n_unl) for rng in unsup_rngs]
            u_pos = 0
        w_steps, b_steps = [], []
        for k, ref in enumerate(refs):
            features, labels, weights = sets[k]
            rows = orders[k][step * bs : (step + 1) * bs]
            alpha, acts, active = ref._forward_cached(features[rows])
            row_losses, dalpha = edl_batch(alpha, labels[rows], loss_cfg)
            scale = weights[rows] / rows.size if mean else weights[rows]
            w_grads, b_grads = ref.alpha_gradient_to_param_gradients(
                dalpha * scale[:, None], alpha, acts, active
            )
            sup_losses[k].append(float((row_losses * scale).sum()))
            if use_ug:
                u_rows = u_orders[k][u_pos : u_pos + take]
                u_alpha, u_acts, u_active = ref._forward_cached(unlabeled[k][u_rows])
                u_losses, u_dalpha = ug_batch(u_alpha, loss_cfg)
                u_scale = 1.0 / u_rows.size if mean else 1.0
                uw_grads, ub_grads = ref.alpha_gradient_to_param_gradients(
                    u_dalpha * u_scale, u_alpha, u_acts, u_active
                )
                w_grads = [a + b for a, b in zip(w_grads, uw_grads)]
                b_grads = [a + b for a, b in zip(b_grads, ub_grads)]
                ug_losses[k].append(float(u_losses.sum() * u_scale))
            w_steps.append(w_grads)
            b_steps.append(b_grads)
        u_pos += take
        grad = np.concatenate([np.stack(ws).reshape(-1) for ws in zip(*w_steps)]
                              + [np.stack(bs).reshape(-1) for bs in zip(*b_steps)])
        twin._apply_step(grad, cfg.lr_at((trainer.epochs_done + step / steps) / max(cfg.epochs, 1)))
    return ([float(np.mean(ls)) for ls in sup_losses], [float(np.mean(ls)) for ls in ug_losses])


class TestRunEpochComposition:
    """``run_epoch`` runs a step's supervised and unlabeled minibatches as
    one stacked pass when their shapes agree and as one-slice passes when
    they do not; either way every weight moves bit for bit as the per-seed,
    per-minibatch composition of ``composed_epoch`` moves it."""

    @staticmethod
    def assert_epoch_composed(mode, reduction, batch_size, seeds, ug_enabled):
        trainer, twin, refs = composition_trainer(mode, reduction, batch_size, seeds, ug_enabled)
        assert len(np.unique(trainer.pools[0].supervised_set(0.5)[2])) == 2
        want = composed_epoch(trainer, twin, refs)
        assert trainer.run_epoch() == want
        for got, ref in zip(trainer.model.weights + trainer.model.biases,
                            twin.model.weights + twin.model.biases):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "mode, reduction",
        [("variance", "mean"), ("entropy", "mean"), ("variance", "sum"), ("entropy", "sum")],
        ids=["variance", "entropy", "variance-sum", "entropy-sum"],
    )
    def test_one_step_with_ug_matches_the_composition(self, mode, reduction):
        # batch_size covers the whole supervised set, so the epoch is one
        # step, of 21 supervised and 7 unlabeled rows run apart; with 7
        # unlabeled rows the order of the UG reduction shows.
        self.assert_epoch_composed(mode, reduction, 64, 1, True)

    @pytest.mark.parametrize("mode, batch_size, seeds, ug_enabled", [
        # 5 stacked steps of 4 + 4 rows, then the short last batch of 1 row
        # apart from its 4 unlabeled rows.
        ("variance", 4, 1, True),
        # Batches of 8, 8 and 5 rows, each apart from its 7 unlabeled rows.
        ("variance", 8, 1, True),
        # Supervised batches alone, each a one-slice pass.
        ("variance", 4, 2, False),
        # Two seeds in lockstep, every step stacked: 3 x (7 + 7) rows.
        ("variance", 7, 2, True),
        ("entropy", 4, 2, True),
        # A batch larger than the 21 supervised rows: no full batch, and the
        # epoch's one step is the short last batch, apart from its 7
        # unlabeled rows; alone and in lockstep.
        ("variance", 32, 1, True),
        ("variance", 32, 2, True),
    ], ids=["short-last-batch", "unlabeled-short", "ug-off", "lockstep", "entropy",
            "no-full-batch", "no-full-batch-lockstep"])
    def test_epoch_matches_the_composition(self, mode, batch_size, seeds, ug_enabled):
        self.assert_epoch_composed(mode, "mean", batch_size, seeds, ug_enabled)

    @staticmethod
    def stacked_trainer():
        """Two seeds whose steps all stack 7 supervised and 7 unlabeled rows."""
        trainer, _, _ = composition_trainer("variance", "mean", 7, 2, True)
        return trainer

    def test_unlabeled_evidence_checked_in_a_stacked_step(self):
        trainer = self.stacked_trainer()
        trainer.pools[1].target_features[9] = np.nan  # the 5th unlabeled row (ids 5 to 11)
        # The whole unlabeled set is the first step's batch, in shuffled order.
        row = int(np.flatnonzero(copy.deepcopy(trainer._unsup_rngs[1]).permutation(7) == 4)[0])
        message = rf"^non-finite evidence for unlabeled sample {row} at epoch 1; check inputs"
        with pytest.raises(TrainingDivergedError, match=message) as err:
            trainer.run_epoch()
        assert err.value.slot == 1

    def test_supervised_evidence_checked_first(self):
        trainer = self.stacked_trainer()
        trainer.pools[1].target_features[9] = np.nan
        trainer.pools[0].source_features[:] = np.nan
        message = r"^non-finite evidence for supervised sample 0 at epoch 1; check inputs"
        with pytest.raises(TrainingDivergedError, match=message) as err:
            trainer.run_epoch()
        assert err.value.slot == 0


def run_epochs(model, pool, cfg, loss_cfg, ug_enabled=True):
    """Drive a Trainer through cfg.epochs; returns the (supervised, ug) loss
    of each epoch."""
    trainer = Trainer([model], [pool], [cfg], loss_cfg, ug_enabled=ug_enabled)
    return [(sup, ug) for [sup], [ug] in (trainer.run_epoch() for _ in range(cfg.epochs))]


class TestTraining:
    def test_zero_epochs_leaves_model_unchanged(self):
        model = EvidentialMLP.create(2, 2, seed=1)
        before = [w.copy() for w in model.weights]
        curve = run_epochs(model, small_pool(), TrainConfig(epochs=0, seed=1), LossConfig())
        assert curve == []
        assert all(np.array_equal(w, b) for w, b in zip(model.weights, before))

    def test_loss_decreases_on_separable_data(self):
        model = EvidentialMLP.create(2, 2, hidden=(16,), seed=2)
        cfg = TrainConfig(epochs=30, batch_size=8, learning_rate=0.05, seed=2)
        curve = run_epochs(model, small_pool(), cfg, LossConfig())
        assert curve[-1][0] < curve[0][0]
        features = small_pool().source_features
        assert np.all(model.forward_batch(features) > 0.0)

    def test_identical_seeds_give_identical_weights(self):
        cfg = TrainConfig(epochs=5, seed=42)
        runs = []
        for _ in range(2):
            model = EvidentialMLP.create(2, 2, seed=7)
            run_epochs(model, small_pool(), cfg, LossConfig())
            runs.append(model)
        for w1, w2 in zip(runs[0].weights, runs[1].weights):
            np.testing.assert_array_equal(w1, w2)

    def test_ug_disabled_matches_zero_weighted_ug(self):
        # lambda_a = lambda_e = 0 must reproduce the supervised-only run
        # bit for bit: the unlabeled stream is separate, so drawing unused
        # batches cannot perturb the supervised ones.
        zero_ug = LossConfig(lambda_a=0.0, lambda_e=0.0)
        cfg = TrainConfig(epochs=4, seed=13)
        with_ug = EvidentialMLP.create(2, 2, seed=5)
        curve_a = run_epochs(with_ug, small_pool(), cfg, zero_ug, ug_enabled=True)
        without_ug = EvidentialMLP.create(2, 2, seed=5)
        curve_b = run_epochs(without_ug, small_pool(), cfg, zero_ug, ug_enabled=False)
        for w1, w2 in zip(with_ug.weights, without_ug.weights):
            np.testing.assert_array_equal(w1, w2)
        assert [c[0] for c in curve_a] == [c[0] for c in curve_b]

    def test_empty_supervised_set_rejected(self):
        pool = SamplePool(
            np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros((4, 2)), [1, 1, 2, 2], 2
        )
        model = EvidentialMLP.create(2, 2, seed=0)
        with pytest.raises(DomainError):
            Trainer([model], [pool], [TrainConfig(epochs=1)], LossConfig()).run_epoch()

    def test_non_finite_gradient_aborts(self):
        pool = small_pool()
        pool.source_features[0, 0] = np.nan
        model = EvidentialMLP.create(2, 2, seed=0)
        with pytest.raises(TrainingDivergedError):
            Trainer([model], [pool], [TrainConfig(epochs=1, batch_size=64)],
                    LossConfig()).run_epoch()

    def test_weights_left_non_finite_by_the_last_step_abort(self):
        # One step an epoch (21 rows, batches of 32): weight decay overflows
        # seed 1's large weight in the update, while seed 0's stay finite,
        # and no forward runs after it.
        cfgs = [TrainConfig(epochs=1, batch_size=32, weight_decay=1e300, seed=k) for k in (0, 1)]
        models = [EvidentialMLP.create(2, 2, hidden=(5,), seed=k) for k in (0, 1)]
        models[1].weights[0][0, 0] = 1e10
        trainer = Trainer(models, composition_pools([3, 4]), cfgs, LossConfig())
        with pytest.raises(TrainingDivergedError, match=r"^non-finite weights at epoch 1$") as err:
            trainer.run_epoch()
        assert err.value.slot == 1
        assert np.isfinite(models[0].weights[0]).all()
        assert not np.isfinite(models[1].weights[0]).all()

    def test_lr_schedule_values(self):
        cfg = TrainConfig(learning_rate=0.2, lr_schedule="inverse-decay")
        assert cfg.lr_at(0.0) == pytest.approx(0.2)
        assert cfg.lr_at(1.0) == pytest.approx(0.2 * 11.0 ** -0.75)
        constant = TrainConfig(learning_rate=0.2, lr_schedule="constant")
        assert constant.lr_at(0.7) == pytest.approx(0.2)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(epochs=-1)
        with pytest.raises(DomainError):
            TrainConfig(batch_size=0)
        with pytest.raises(DomainError):
            TrainConfig(momentum=1.0)
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(DomainError):
            TrainConfig(lr_schedule="cosine")


class TestEvaluationAndSerialization:
    def test_fixed_model_exact_accuracy(self):
        model = linear_model([math.log(3.0), 0.0])
        features = np.zeros((4, 2))
        assert evaluate(model, features, [1, 1, 2, 2]) == pytest.approx(0.5)
        assert evaluate(model, features, [1, 1, 1, 1]) == pytest.approx(1.0)

    def test_empty_dataset_rejected(self):
        model = linear_model([0.0, 0.0])
        with pytest.raises(DomainError):
            evaluate(model, np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_checkpoint_round_trip(self, tmp_path):
        model = EvidentialMLP.create(3, 4, hidden=(5,), seed=21)
        path = tmp_path / "model.json"
        path.write_text(checkpoint_text(model))
        loaded = load_checkpoint(path)
        for w1, w2 in zip(model.weights, loaded.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(model.biases, loaded.biases):
            np.testing.assert_array_equal(b1, b2)

    def test_checkpoint_of_stacked_layers_rejected(self, tmp_path):
        # The constructor takes stacked layers; a checkpoint file may not.
        stacked = EvidentialMLP.stack([EvidentialMLP.create(3, 4, hidden=(5,), seed=s)
                                       for s in (0, 1)])
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"weights": [w.tolist() for w in stacked.weights],
                                    "biases": [b.tolist() for b in stacked.biases]}))
        with pytest.raises(DomainError, match="inconsistent layer shapes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("weights, biases", [([], []), ([[[1.0, 2.0]]], [])])
    def test_checkpoint_missing_layers_rejected(self, tmp_path, weights, biases):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"weights": weights, "biases": biases}))
        with pytest.raises(DomainError):
            load_checkpoint(path)
