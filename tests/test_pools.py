"""Pool bookkeeping: budget gating, the labels and weights the trainer sees,
and structural invariants."""

import numpy as np
import pytest

from evidunc.pools import BudgetExhaustedError, PoolError, SamplePool


def make_pool(n_source=4, n_target=6, budget=3):
    rng = np.random.default_rng(0)
    return SamplePool(
        source_features=rng.normal(size=(n_source, 2)),
        source_labels=np.array([1, 2, 1, 2])[:n_source],
        target_features=rng.normal(size=(n_target, 2)),
        target_labels=(np.arange(n_target) % 2) + 1,
        budget_total=budget,
    )


class TestConstruction:
    def test_initial_split(self):
        pool = make_pool()
        assert pool.num_unlabeled == 6
        assert pool.oracle_count == 0
        assert pool.budget_spent == 0
        np.testing.assert_array_equal(pool.unlabeled_ids(), np.arange(6))
        pool.check_invariants()

    def test_rejects_bad_labels(self):
        with pytest.raises(PoolError):
            SamplePool(np.zeros((2, 2)), [0, 1], np.zeros((2, 2)), [1, 1], 1)
        with pytest.raises(PoolError):
            SamplePool(np.zeros((2, 2)), [1.5, 1.0], np.zeros((2, 2)), [1, 1], 1)
        with pytest.raises(PoolError):
            SamplePool(np.zeros((2, 2)), [1], np.zeros((2, 2)), [1, 1], 1)

    @pytest.mark.parametrize("what", ["source", "target"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, what, value):
        # Unchecked, a NaN feature trains without a word with UG off, and
        # with UG on fails naming a row of a shuffled batch, not the sample.
        features = {"source": np.zeros((9, 2)), "target": np.zeros((9, 2))}
        features[what][7, 1] = value
        features[what][8, 0] = value
        with pytest.raises(PoolError, match=f"^{what} features must be finite; row 7 is not$"):
            SamplePool(features["source"], [1] * 9, features["target"], [1] * 9, 1)

    def test_rejects_dimension_mismatch_and_negative_budget(self):
        with pytest.raises(PoolError):
            SamplePool(np.zeros((2, 2)), [1, 1], np.zeros((2, 3)), [1, 1], 1)
        with pytest.raises(PoolError):
            SamplePool(np.zeros((2, 2)), [1, 1], np.zeros((2, 2)), [1, 1], -1)
        with pytest.raises(PoolError, match=r"^source features must be an \(n, d\) matrix$"):
            SamplePool(np.zeros(2), [1, 1], np.zeros((2, 2)), [1, 1], 1)


class TestOracleAcquisition:
    def test_reveals_true_labels_and_charges_budget(self):
        pool = make_pool()
        revealed = pool.acquire_with_oracle([0, 3])
        np.testing.assert_array_equal(revealed, pool.true_target_labels()[[0, 3]])
        assert pool.budget_spent == 2
        assert pool.oracle_count == 2
        assert pool.num_unlabeled == 4
        assert 0 not in pool.unlabeled_ids()
        pool.check_invariants()

    def test_budget_limit_enforced(self):
        pool = make_pool(budget=1)
        pool.acquire_with_oracle([2])
        with pytest.raises(BudgetExhaustedError):
            pool.acquire_with_oracle([3])
        # The failed acquisition must not have mutated the pool.
        assert pool.num_unlabeled == 5
        pool.check_invariants()

    def test_rejects_duplicates_and_foreign_ids(self):
        pool = make_pool()
        with pytest.raises(PoolError):
            pool.acquire_with_oracle([1, 1])
        with pytest.raises(PoolError):
            pool.acquire_with_oracle([99])
        pool.acquire_with_oracle([1])
        with pytest.raises(PoolError):
            pool.acquire_with_oracle([1])


    def test_out_of_range_ids_rejected_without_mutation(self):
        pool = make_pool()
        pool.acquire_with_oracle([2])
        for acquire in (
            lambda: pool.acquire_with_oracle([-1]),
            lambda: pool.acquire_with_pseudo_labels([pool.num_target], [1]),
            lambda: pool.acquire_with_oracle([1.5]),
        ):
            with pytest.raises(PoolError):
                acquire()
            assert (pool.num_unlabeled, pool.oracle_count) == (5, 1)
            assert pool.budget_spent == 1
            np.testing.assert_array_equal(pool.unlabeled_ids(), [0, 1, 3, 4, 5])
            pool.check_invariants()


class TestInvariants:
    # Each corruption breaks one invariant of a pool that took one oracle
    # and one pseudo label.
    @pytest.mark.parametrize("corrupt, message", [
        (lambda pool: pool._order.append(pool._order[0]),
         "acquisition order disagrees with the per-id states"),
        (lambda pool: pool._order.pop(), "target samples lost or duplicated"),
        (lambda pool: setattr(pool, "budget_spent", pool.budget_total + 1), "budget overspent"),
        (lambda pool: setattr(pool, "budget_spent", 0),
         "budget spent does not match oracle-labeled count"),
    ], ids=["repeated-id", "lost-id", "overspent", "miscounted"])
    def test_corruption_detected(self, corrupt, message):
        pool = make_pool()
        pool.acquire_with_oracle([0])
        pool.acquire_with_pseudo_labels([1], [2])
        pool.check_invariants()
        corrupt(pool)
        with pytest.raises(PoolError, match=f"^{message}$"):
            pool.check_invariants()


class TestPseudoAcquisition:
    def test_free_and_tagged(self):
        pool = make_pool()
        pool.acquire_with_pseudo_labels([4, 5], [2, 1])
        assert pool.budget_spent == 0
        assert (pool.num_unlabeled, pool.oracle_count) == (4, 0)
        # The trainer sees the pseudo labels at the pseudo-label weight.
        _, labels, weights = pool.supervised_set(pseudo_label_weight=0.25)
        np.testing.assert_array_equal(labels[pool.num_source:], [2, 1])
        np.testing.assert_array_equal(weights[pool.num_source:], [0.25, 0.25])
        pool.check_invariants()

    def test_rejects_mismatched_or_invalid_labels(self):
        pool = make_pool()
        with pytest.raises(PoolError):
            pool.acquire_with_pseudo_labels([1, 2], [1])
        with pytest.raises(PoolError):
            pool.acquire_with_pseudo_labels([1], [0])


class TestTrainingViews:
    def test_supervised_set_weights(self):
        pool = make_pool()
        pool.acquire_with_oracle([0])
        pool.acquire_with_pseudo_labels([1], [2])
        features, labels, weights = pool.supervised_set(pseudo_label_weight=0.25)
        assert features.shape == (6, 2)
        assert labels.shape == (6,)
        np.testing.assert_array_equal(weights, [1, 1, 1, 1, 1.0, 0.25])

    def test_pseudo_labels_are_used_not_true_labels(self):
        pool = make_pool()
        truth = pool.true_target_labels()[2]
        wrong = 1 if truth == 2 else 2
        pool.acquire_with_pseudo_labels([2], [wrong])
        _, labels, _ = pool.supervised_set()
        assert labels[pool.num_source] == wrong

    def test_features_by_id(self):
        pool = make_pool()
        row = pool.target_features[[3]]
        np.testing.assert_array_equal(row, pool.unlabeled_features()[3:4])
