"""Sampler tests: hand-traced selection rules, pool mechanics, and the
round-loop invariants (budget, conservation, single shared EU sort)."""

import json
import threading

import numpy as np
import pytest

from evidunc.enn import EvidentialMLP, TrainConfig, Trainer
from evidunc.losses import LossConfig
from evidunc import experiments, sampling
from evidunc.metrics import SELECTION_LOG_FIELDS, batch_uncertainties
from evidunc.pools import BudgetExhaustedError, PoolError, SamplePool
from evidunc.sampling import (
    RoundLayoutError,
    RoundPlan,
    _eu_order,
    _pick_certain_balanced_tail,
    _pick_certain_tail,
    _pick_uncertain,
    certainty_sampling,
    default_round_plans,
    default_schedule,
    eu_sort_count,
    run_ada,
    start_rows,
    uncertainty_sampling,
)
from evidunc.special import DomainError
from evidunc.synthetic import DomainSpec, generate_domain_pair, split_pools

IDS = np.array([1, 2, 3, 4, 5, 6])
EU = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
AU = np.array([0.0, 1.0, 9.0, 8.0, 0.0, 0.0])


class TestSelectUncertain:
    def test_two_step_hand_trace(self):
        # EU keeps {1,2,3,4}; AU ranks them 3(9), 4(8), 2(1), 1(0).
        chosen = _pick_uncertain(_eu_order(IDS, EU), IDS, AU, b_u=2, kappa=2)
        np.testing.assert_array_equal(chosen, [3, 4])

    def test_degenerate_kappa_reduces_to_au_ranking(self):
        chosen = _pick_uncertain(_eu_order(IDS, EU), IDS, AU, b_u=2, kappa=3)
        np.testing.assert_array_equal(chosen, [3, 4])

    def test_zero_budget_selects_nothing(self):
        assert _pick_uncertain(_eu_order(IDS, EU), IDS, AU, b_u=0, kappa=2).size == 0

    def test_pool_too_small(self):
        with pytest.raises(PoolError):
            _pick_uncertain(_eu_order(IDS, EU), IDS, AU, b_u=4, kappa=2)

    def test_eu_ties_break_by_ascending_id(self):
        ids = np.array([7, 3, 5])
        eu = np.array([1.0, 1.0, 1.0])
        au = np.array([0.0, 0.0, 0.0])
        chosen = _pick_uncertain(_eu_order(ids, eu), ids, au, b_u=2, kappa=1)
        np.testing.assert_array_equal(chosen, [3, 5])


class TestSelectCertain:
    def test_least_eu_hand_trace(self):
        np.testing.assert_array_equal(_pick_certain_tail(_eu_order(IDS, EU), IDS, b_c=1), [6])

    def test_zero_is_noop(self):
        assert _pick_certain_tail(_eu_order(IDS, EU), IDS, b_c=0).size == 0

    def test_oversized_request_takes_everything(self):
        chosen = _pick_certain_tail(_eu_order(IDS, EU), IDS, b_c=10)
        np.testing.assert_array_equal(chosen, [6, 5, 4, 3, 2, 1])

    def test_balanced_hand_trace(self):
        ids = np.array([1, 2, 3, 4])
        eu = np.array([1.0, 2.0, 3.0, 4.0])
        predicted = np.array([1, 1, 2, 2])
        chosen = _pick_certain_balanced_tail(_eu_order(ids, eu), ids, predicted, b_c=2,
                                             num_classes=2)
        np.testing.assert_array_equal(sorted(chosen), [1, 3])

    def test_balanced_remainder_fills_globally(self):
        ids = np.array([1, 2, 3, 4])
        eu = np.array([1.0, 2.0, 3.0, 4.0])
        predicted = np.array([1, 1, 2, 2])
        chosen = _pick_certain_balanced_tail(_eu_order(ids, eu), ids, predicted, b_c=3,
                                             num_classes=2)
        assert sorted(chosen) == [1, 2, 3]

    def test_balanced_counts_within_one_of_quota(self):
        rng = np.random.default_rng(8)
        ids = np.arange(60)
        eu = rng.random(60)
        predicted = rng.integers(1, 4, size=60)
        chosen = _pick_certain_balanced_tail(_eu_order(ids, eu), ids, predicted, b_c=12,
                                             num_classes=3)
        assert chosen.size == 12
        by_class = {c: 0 for c in (1, 2, 3)}
        lookup = dict(zip(ids, predicted))
        for sid in chosen:
            by_class[lookup[sid]] += 1
        assert all(v >= 4 - 1 for v in by_class.values()) or max(by_class.values()) <= 4 + (12 % 3) + 1


def scored_pool(n_target=12, budget=6):
    """Pool plus a fixed linear model whose EU ordering is predictable."""
    rng = np.random.default_rng(19)
    source = rng.normal(size=(10, 2))
    source_labels = (np.arange(10) % 2) + 1
    target = rng.normal(size=(n_target, 2))
    target_labels = (np.arange(n_target) % 2) + 1
    pool = SamplePool(source, source_labels, target, target_labels, budget)
    model = EvidentialMLP.create(2, 2, hidden=(8,), seed=4)
    return pool, model


class TestPoolLevelOps:
    def test_uncertainty_sampling_charges_budget_and_reveals_truth(self):
        pool, model = scored_pool()
        plan = RoundPlan(round_index=1, b_u=2, b_c=0, kappa=3)
        selected = uncertainty_sampling(pool, model, plan)
        assert selected.size == 2
        assert pool.budget_spent == 2
        # The target rows of the trainer's view carry the true labels at
        # full weight, whatever the pseudo-label weight.
        _, labels, weights = pool.supervised_set(0.5)
        np.testing.assert_array_equal(labels[pool.num_source:], pool.true_target_labels()[selected])
        np.testing.assert_array_equal(weights[pool.num_source:], [1.0, 1.0])
        assert pool.oracle_count == 2
        pool.check_invariants()

    def test_uncertainty_sampling_budget_exhaustion(self):
        pool, model = scored_pool(budget=1)
        plan = RoundPlan(round_index=1, b_u=2, b_c=0, kappa=2)
        with pytest.raises(BudgetExhaustedError):
            uncertainty_sampling(pool, model, plan)

    def test_uncertainty_sampling_pool_too_small(self):
        pool, model = scored_pool(n_target=5)
        plan = RoundPlan(round_index=1, b_u=2, b_c=0, kappa=3)
        with pytest.raises(PoolError):
            uncertainty_sampling(pool, model, plan)

    def test_certainty_sampling_is_free_and_uses_predictions(self):
        pool, model = scored_pool()
        plan = RoundPlan(round_index=1, b_u=0, b_c=3, kappa=1)
        selected, pseudo = certainty_sampling(pool, model, plan)
        assert selected.size == 3
        assert pool.budget_spent == 0
        assert pool.oracle_count == 0
        assert pool.num_unlabeled == pool.num_target - 3
        alpha = model.forward_batch(pool.target_features[selected])
        np.testing.assert_array_equal(pseudo, np.argmax(alpha, axis=1) + 1)
        # The trainer sees the pseudo labels at the pseudo-label weight.
        _, labels, weights = pool.supervised_set(0.5)
        np.testing.assert_array_equal(labels[pool.num_source:], pseudo)
        np.testing.assert_array_equal(weights[pool.num_source:], [0.5] * 3)
        pool.check_invariants()


def counted_eu_sorts(monkeypatch) -> list:
    """Wrap ``sampling._eu_order`` so that each real sort appends its pool
    size to the list returned."""
    sorts, order = [], sampling._eu_order

    def counted(ids, eu):
        sorts.append(len(ids))
        return order(ids, eu)

    monkeypatch.setattr(sampling, "_eu_order", counted)
    return sorts


def ada_setup(seed=0, n=80, epochs=6):
    spec = DomainSpec(
        num_classes=2,
        feature_dim=2,
        samples_per_domain=n,
        class_scale=0.8,
        shift_rotation_degrees=20.0,
        shift_translation=(0.5, 0.0),
        seed=seed,
    )
    source, target = generate_domain_pair(spec)
    pool = split_pools(source, target, budget_fraction=0.1)
    model = EvidentialMLP.create(2, 2, hidden=(8,), seed=seed + 100)
    cfg = TrainConfig(epochs=epochs, batch_size=16, learning_rate=0.05, seed=seed + 200)
    return pool, model, cfg


class TestRunAda:
    def test_round_loop_invariants(self, monkeypatch):
        sorts = counted_eu_sorts(monkeypatch)
        pool, model, cfg = ada_setup()
        plans = [RoundPlan(1, b_u=3, b_c=2, kappa=2), RoundPlan(2, b_u=3, b_c=2, kappa=2)]
        report = run_ada(
            model, pool, cfg, LossConfig(), plans, schedule=[2, 4],
            cs_enabled=True,
        )
        assert pool.budget_spent == 6
        assert report.budget_spent == 6
        assert pool.oracle_count == 6
        assert pool.num_unlabeled == pool.num_target - 10
        # 6 oracle rows at full weight and 4 pseudo rows at the given weight.
        features, _, weights = pool.supervised_set(0.5)
        assert features.shape[0] == pool.num_source + 10
        assert sorted(weights[pool.num_source:]) == [0.5] * 4 + [1.0] * 6
        assert report.eu_sorts_per_round == [1, 1]
        assert len(sorts) == 2
        assert len(report.round_accuracies) == 2
        assert len(report.loss_curve) == 6
        # Within each round the uncertain and certain picks are disjoint.
        for rnd in (1, 2):
            uncertain = {r["sample_id"] for r in report.selection_log
                         if r["round"] == rnd and r["selection_type"] == "uncertain"}
            certain = {r["sample_id"] for r in report.selection_log
                       if r["round"] == rnd and r["selection_type"] == "certain"}
            assert len(uncertain) == 3 and len(certain) == 2
            assert not (uncertain & certain)
        assert report.pseudo_label_accuracy is not None
        report.validate()

    def test_selection_log_rows_follow_the_field_tuple(self, tmp_path):
        # One tuple names a row's fields: the keys of every report row and
        # the columns of selection_log.csv, in the same order.
        assert SELECTION_LOG_FIELDS == ("round", "sample_id", "selection_type", "epistemic",
                                        "aleatoric", "predicted_class", "true_class")
        pool, model, cfg = ada_setup(seed=3, epochs=3)
        report = run_ada(model, pool, cfg, LossConfig(), [RoundPlan(1, b_u=3, b_c=2, kappa=2)],
                         [2], cs_enabled=True)
        kinds = [row["selection_type"] for row in report.selection_log]
        assert kinds == ["uncertain"] * 3 + ["certain"] * 2
        assert all(tuple(row) == SELECTION_LOG_FIELDS for row in report.selection_log)
        alphas = (model.forward_batch(pool.source_features),
                  model.forward_batch(pool.target_features))
        experiments._write_seed_outputs(tmp_path, report, model, alphas)
        header = (tmp_path / "selection_log.csv").read_text().splitlines()[0]
        assert header == ",".join(SELECTION_LOG_FIELDS)

    @pytest.mark.parametrize("mode", ["variance", "entropy"])
    def test_mode_comes_from_loss_config(self, mode):
        # The round runs after the last epoch, so the final model scored it.
        pool, model, cfg = ada_setup(seed=4, epochs=3)
        loss_cfg = LossConfig(mode=mode)
        report = run_ada(model, pool, cfg, loss_cfg, [RoundPlan(1, b_u=3, b_c=0, kappa=2)], [3])
        assert report.mode == loss_cfg.mode
        ids = np.arange(pool.num_target)
        _, au, eu = batch_uncertainties(model.forward_batch(pool.target_features), mode)
        logged = [row["sample_id"] for row in report.selection_log]
        np.testing.assert_array_equal(logged, _pick_uncertain(_eu_order(ids, eu), ids, au, 3, 2))
        for row in report.selection_log:
            assert row["epistemic"] == eu[row["sample_id"]]

    def test_single_shared_sort_counter(self):
        pool, model, cfg = ada_setup(seed=1)
        before = eu_sort_count()
        run_ada(
            model, pool, cfg, LossConfig(),
            [RoundPlan(1, b_u=2, b_c=2, kappa=2)], [3], cs_enabled=True,
        )
        assert eu_sort_count() - before == 1

    def test_cs_round_that_takes_nothing_scores_nothing(self, monkeypatch):
        # Certainty sampling alone, with b_c 0: no forward and no sort, both
        # standalone and as a run's round.
        sorts = counted_eu_sorts(monkeypatch)
        pool, model, cfg = ada_setup(seed=2)
        plan = RoundPlan(1, b_u=3, b_c=0, kappa=2)
        forwards, forward = [], EvidentialMLP.forward_batch
        monkeypatch.setattr(EvidentialMLP, "forward_batch",
                            lambda m, x: forwards.append(len(x)) or forward(m, x))
        certain, pseudo = certainty_sampling(pool, model, plan)
        assert (certain.size, pseudo.size, forwards, sorts) == (0, 0, [], [])
        report = run_ada(model, pool, cfg, LossConfig(), [plan], [3], us_enabled=False,
                         cs_enabled=True)
        assert report.eu_sorts_per_round == [0]
        assert (report.selection_log, sorts) == ([], [])

    def test_concurrent_runs_count_their_own_sorts(self, monkeypatch):
        # Thread "b" sorts only after thread "a" has, and "a" holds its first
        # round until "b" has sorted, so counts taken from the process-wide
        # total would give a's first round both sorts. Each thread must
        # report what its lone run does.
        plans = [RoundPlan(k, b_u=2, b_c=2, kappa=2) for k in (1, 2, 3)]

        def run():
            pool, model, cfg = ada_setup(seed=1)
            return run_ada(model, pool, cfg, LossConfig(), plans, [2, 4, 6],
                           cs_enabled=True).to_json()

        lone = run()
        sorted_by = {name: threading.Event() for name in "ab"}
        order = sampling._eu_order

        def held(ids, eu):
            name = threading.current_thread().name
            other = sorted_by["a" if name == "b" else "b"]
            if name == "b" and not other.wait(timeout=60):
                raise TimeoutError("thread a never sorted")
            result = order(ids, eu)
            sorted_by[name].set()
            if name == "a" and not other.wait(timeout=60):
                raise TimeoutError("thread b never sorted")
            return result

        monkeypatch.setattr(sampling, "_eu_order", held)
        reports = {}
        threads = [threading.Thread(target=lambda n=n: reports.update({n: run()}), name=n)
                   for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert json.loads(lone)["eu_sorts_per_round"] == [1, 1, 1]
        assert reports == {"a": lone, "b": lone}

    def test_deterministic_given_seed(self):
        logs, weights = [], []
        for _ in range(2):
            pool, model, cfg = ada_setup(seed=2)
            report = run_ada(
                model, pool, cfg, LossConfig(),
                [RoundPlan(1, b_u=3, b_c=3, kappa=2)], [3], cs_enabled=True,
            )
            logs.append(report.selection_log)
            weights.append(model.weights)
        assert logs[0] == logs[1]
        for w1, w2 in zip(*weights):
            np.testing.assert_array_equal(w1, w2)

    def test_no_rounds_reduces_to_plain_training(self):
        pool_a, model_a, cfg = ada_setup(seed=3)
        report = run_ada(model_a, pool_a, cfg, LossConfig(), [], [])
        pool_b, model_b, _ = ada_setup(seed=3)
        trainer = Trainer([model_b], [pool_b], [cfg], LossConfig())
        curve = [(sup, ug) for [sup], [ug] in (trainer.run_epoch() for _ in range(cfg.epochs))]
        assert report.round_accuracies == []
        assert [r[1:] for r in report.loss_curve] == curve
        for w1, w2 in zip(model_a.weights, model_b.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_plan_schedule_mismatch(self):
        pool, model, cfg = ada_setup()
        with pytest.raises(DomainError):
            run_ada(model, pool, cfg, LossConfig(), [RoundPlan(1, 1, 0)], [2, 4])
        with pytest.raises(DomainError):
            run_ada(model, pool, cfg, LossConfig(), [RoundPlan(1, 1, 0)], [99])

    def test_round_indexes_out_of_place_rejected_upfront(self):
        pool, model, cfg = ada_setup()
        before = [w.copy() for w in model.weights]
        plans = [RoundPlan(1, b_u=1, b_c=0), RoundPlan(1, b_u=1, b_c=0)]
        with pytest.raises(RoundLayoutError, match=r"^plans: round_index values \[1, 1\] must "
                                                   r"number the plans 1\.\.2 in order$"):
            run_ada(model, pool, cfg, LossConfig(), plans, [2, 4])
        # Found before any training.
        assert all(np.array_equal(w, b) for w, b in zip(model.weights, before))
        assert pool.budget_spent == 0

    def test_budget_overcommit_rejected_upfront(self):
        pool, model, cfg = ada_setup()
        plans = [RoundPlan(1, b_u=5, b_c=0), RoundPlan(2, b_u=5, b_c=0)]
        with pytest.raises(DomainError):
            run_ada(model, pool, cfg, LossConfig(), plans, [2, 4])

    def test_overlapping_selection_window_rejected(self):
        pool, model, cfg = ada_setup(n=40)
        # kappa*b_u + b_c exceeds the 40-sample unlabeled pool.
        plans = [RoundPlan(1, b_u=2, b_c=38, kappa=2)]
        with pytest.raises(PoolError):
            run_ada(model, pool, cfg, LossConfig(), plans, [2], cs_enabled=True)

    def test_later_window_overflow_rejected_before_training(self):
        # Round 1 leaves 80 - 4 - 30 = 46 unlabeled samples, fewer than the
        # 10*4 + 30 = 70 that round 2 selects from with CS on.
        pool, model, cfg = ada_setup()
        plans = [RoundPlan(1, b_u=4, b_c=30, kappa=10), RoundPlan(2, b_u=4, b_c=30, kappa=10)]
        weights = [w.copy() for w in model.weights]
        with pytest.raises(DomainError, match="round 2 selects from 70 unlabeled samples"):
            run_ada(model, pool, cfg, LossConfig(), plans, [3, 5], cs_enabled=True)
        assert pool.budget_spent == 0
        for before, after in zip(weights, model.weights):
            np.testing.assert_array_equal(before, after)
        # Each row is checked with its own switches: the US-only row fits.
        rows = [(True, False, False), (True, True, False)]
        with pytest.raises(DomainError, match="round 2"):
            start_rows([model], [pool], [cfg], LossConfig(), plans, [3, 5], rows)
        assert pool.budget_spent == 0
        run = start_rows([model], [pool], [cfg], LossConfig(), plans, [3, 5], rows[:1])
        [report] = run.finish(*rows[0])
        assert report.budget_spent == 8

    def test_second_finish_rejected(self):
        # 300 target samples at fraction 0.1 give a budget of 30; two rounds
        # of 5 oracle labels spend 10 of it.
        pool, model, cfg = ada_setup(n=300)
        plans = [RoundPlan(1, b_u=5, b_c=3, kappa=2), RoundPlan(2, b_u=5, b_c=3, kappa=2)]
        run = start_rows([model], [pool], [cfg], LossConfig(), plans, [3, 5], [(True, True, False)])
        [report] = run.finish(True, True, False)
        assert pool.budget_spent == report.budget_spent == 10
        before = (pool.unlabeled_ids(), pool.supervised_set(), [w.copy() for w in model.weights])
        with pytest.raises(DomainError, match="finished"):
            run.finish(True, True, False)
        assert pool.budget_spent == 10
        assert len(report.round_accuracies) == 2
        np.testing.assert_array_equal(pool.unlabeled_ids(), before[0])
        for got, want in zip(pool.supervised_set(), before[1]):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(model.weights, before[2]):
            np.testing.assert_array_equal(got, want)

    def test_unchecked_row_rejected_before_training(self):
        # Two rounds of 20 oracle labels fit the budget of 30 only with US
        # off, the one row start_rows checked.
        pool, model, cfg = ada_setup(n=300)
        plans = [RoundPlan(1, b_u=20, b_c=3, kappa=2), RoundPlan(2, b_u=20, b_c=3, kappa=2)]
        run = start_rows([model], [pool], [cfg], LossConfig(), plans, [3, 5],
                         [(False, False, False)])
        weights = [w.copy() for w in model.weights]
        with pytest.raises(DomainError, match="not among the rows start_rows checked"):
            run.finish(True, False, False)
        assert pool.budget_spent == 0 and run.trainer.epochs_done == 3
        for got, want in zip(model.weights, weights):
            np.testing.assert_array_equal(got, want)
        [report] = run.finish(False, False, False)
        assert report.budget_spent == 0 and len(report.round_accuracies) == 2

    def test_partly_spent_budget_rejected_before_training(self):
        # Half the budget of 8 is already spent, so two rounds of 4 cannot run.
        pool, model, cfg = ada_setup()
        uncertainty_sampling(pool, model, RoundPlan(1, b_u=4, b_c=0, kappa=2))
        plans = [RoundPlan(1, b_u=4, b_c=0, kappa=2), RoundPlan(2, b_u=4, b_c=0, kappa=2)]
        with pytest.raises(DomainError, match="more than the budget of 4"):
            run_ada(model, pool, cfg, LossConfig(), plans, [3, 5])
        assert pool.budget_spent == 4

    def test_class_balanced_round(self):
        pool, model, cfg = ada_setup(seed=5)
        report = run_ada(
            model, pool, cfg, LossConfig(),
            [RoundPlan(1, b_u=0, b_c=4, kappa=1)], [3],
            us_enabled=False, cs_enabled=True, class_balanced=True,
        )
        certain = [r for r in report.selection_log if r["selection_type"] == "certain"]
        assert len(certain) == 4
        counts = {}
        for row in certain:
            counts[row["predicted_class"]] = counts.get(row["predicted_class"], 0) + 1
        assert all(v == 2 for v in counts.values())


class TestPlansAndSchedules:
    def test_desk_scale_defaults(self):
        plans = default_round_plans(2000)
        assert len(plans) == 5
        assert all(p.b_u == 20 for p in plans)
        assert [p.b_c for p in plans] == [20, 40, 60, 80, 100]
        assert all(p.kappa == 10 for p in plans)
        assert sum(p.b_u for p in plans) == 100
        assert default_schedule() == [10, 12, 14, 16, 18]

    def test_plan_validation(self):
        with pytest.raises(DomainError):
            RoundPlan(0, 1, 1)
        with pytest.raises(DomainError):
            RoundPlan(1, -1, 0)
        with pytest.raises(DomainError):
            RoundPlan(1, 1, 1, kappa=0)
