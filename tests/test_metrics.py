"""Metric tests. The AUROC dual-route check is deliberately exact: rank and
pair-counting forms compute the same numerator, so they must agree bitwise,
not approximately."""

import json

import numpy as np
import pytest

from evidunc.dirichlet import class_variances_batch
from evidunc.enn import EvidentialMLP
from evidunc.metrics import (
    AdaRunReport,
    auroc,
    class_level_uncertainty_summary,
    dataset_class_correlation,
    export_uncertainty_histograms,
    rank_class_pairs,
    write_selection_log,
)
from evidunc.special import DomainError
from oracles import brute_force_auroc, one_row


def identity_model(dim=2):
    """Single-layer net with identity weights: alpha = exp(features)."""
    return EvidentialMLP([np.eye(dim)], [np.zeros(dim)])


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.1, 0.8], [True, False, True]) == 1.0

    def test_all_ties_give_half(self):
        assert auroc([0.3, 0.3, 0.3, 0.3], [True, False, True, False]) == 0.5

    def test_interleaved_case(self):
        assert auroc([0.9, 0.8, 0.7, 0.6], [True, False, True, False]) == 0.75

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            # Integer-grid scores force plenty of ties.
            scores = rng.integers(0, 8, size=n).astype(float)
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                labels[0] = not labels[0]
            fast = auroc(scores, labels)
            slow = brute_force_auroc(scores, labels)
            assert fast == slow

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(23)
        scores = rng.integers(0, 50, size=80).astype(float)
        labels = rng.random(80) < 0.5
        labels[0], labels[1] = True, False
        base = auroc(scores, labels)
        assert auroc(2.0 * scores + 1.0, labels) == base
        assert auroc(scores**3, labels) == base

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            auroc([0.1, 0.2], [True, True])
        with pytest.raises(DomainError):
            auroc([0.1, 0.2], [False, False])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            auroc([0.1, 0.2, 0.3], [True, False])


class TestClassCorrelation:
    def test_binary_dataset_is_minus_one(self):
        alpha = np.array([[2.0, 5.0], [4.0, 1.0], [3.0, 3.0]])
        labels = np.array([1, 2, 1])
        assert dataset_class_correlation(alpha, 1, 2, labels=labels) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_single_sample_spot_value(self):
        alpha = np.array([[2.0, 3.0, 5.0]])
        value = dataset_class_correlation(alpha, 1, 2, labels=np.array([1]))
        assert value == pytest.approx(-0.06 / np.sqrt(0.16 * 0.21), abs=1e-12)
        assert round(value, 4) == -0.3273

    def test_symmetric_and_order_invariant(self):
        rng = np.random.default_rng(31)
        alpha = np.exp(rng.uniform(-1, 2, size=(20, 4)))
        labels = rng.integers(1, 5, size=20)
        ab = dataset_class_correlation(alpha, 2, 3, labels=labels)
        ba = dataset_class_correlation(alpha, 3, 2, labels=labels)
        assert ab == ba
        perm = rng.permutation(20)
        shuffled = dataset_class_correlation(alpha[perm], 2, 3, labels=labels[perm])
        assert shuffled == pytest.approx(ab, abs=1e-12)

    def test_other_classes_excluded(self):
        informative = np.array([[2.0, 3.0, 5.0]])
        noise = np.array([[50.0, 1.0, 1.0]])
        solo = dataset_class_correlation(informative, 2, 3, labels=np.array([2]))
        both = dataset_class_correlation(
            np.vstack([informative, noise]), 2, 3, labels=np.array([2, 1])
        )
        assert both == pytest.approx(solo, abs=1e-15)

    def test_prediction_proxy_when_unlabeled(self):
        # argmax classes: row 1 -> class 3, row 2 -> class 1.
        alpha = np.array([[2.0, 3.0, 5.0], [9.0, 1.0, 1.0]])
        by_proxy = dataset_class_correlation(alpha, 1, 3)
        assert -1.0 <= by_proxy <= 0.0
        # Labels put only the first row in the pair, so the means differ.
        with_labels = dataset_class_correlation(alpha, 1, 3, labels=np.array([3, 2]))
        assert by_proxy != with_labels

    def test_no_qualifying_samples(self):
        alpha = np.array([[2.0, 3.0, 5.0]])
        with pytest.raises(DomainError):
            dataset_class_correlation(alpha, 1, 2, labels=np.array([3]))

    def test_bad_pair_rejected(self):
        alpha = np.array([[2.0, 3.0, 5.0]])
        with pytest.raises(DomainError):
            dataset_class_correlation(alpha, 1, 1, labels=np.array([1]))
        with pytest.raises(DomainError):
            dataset_class_correlation(alpha, 0, 2, labels=np.array([1]))


class TestRankClassPairs:
    def test_sorted_most_negative_first(self):
        rng = np.random.default_rng(37)
        alpha = np.exp(rng.uniform(-1, 2, size=(30, 4)))
        labels = rng.integers(1, 5, size=30)
        pairs = rank_class_pairs(alpha, labels=labels)
        corrs = [c for _, _, c in pairs]
        assert corrs == sorted(corrs)
        assert len(pairs) == 6

    def test_equal_correlations_order_lexicographically(self):
        alpha = np.ones((4, 3))
        labels = np.array([1, 2, 3, 1])
        pairs = rank_class_pairs(alpha, labels=labels)
        assert [(a, b) for a, b, _ in pairs] == [(1, 2), (1, 3), (2, 3)]

    def test_single_pair(self):
        alpha = np.array([[2.0, 5.0]])
        pairs = rank_class_pairs(alpha, labels=np.array([1]))
        assert len(pairs) == 1
        assert pairs[0][:2] == (1, 2)


class TestHistogramExport:
    def test_row_counts_and_nonnegativity(self, tmp_path):
        model = identity_model()
        rng = np.random.default_rng(41)
        source = rng.normal(size=(30, 2))
        target = rng.normal(size=(20, 2))
        path = tmp_path / "hist.csv"
        rows = export_uncertainty_histograms(model, source, target, "variance", path)
        assert len(rows) == 50
        assert sum(r[0] == "source" for r in rows) == 30
        assert all(r[1] >= 0.0 and r[2] >= 0.0 for r in rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "domain,aleatoric,epistemic"
        assert len(lines) == 51

    def test_empty_domain_contributes_nothing(self):
        model = identity_model()
        rows = export_uncertainty_histograms(
            model, np.empty((0, 2)), np.zeros((3, 2)), "entropy"
        )
        assert len(rows) == 3
        assert all(r[0] == "target" for r in rows)


class TestClassSummary:
    def test_single_sample_equals_own_uncertainties(self):
        model = identity_model()
        features = np.log(np.array([[3.0, 1.0]]))
        summary = class_level_uncertainty_summary(model, features)
        class_total, class_aleatoric, class_epistemic = one_row(class_variances_batch, [3.0, 1.0])
        np.testing.assert_allclose(summary["total"], class_total, atol=1e-12)
        np.testing.assert_allclose(summary["aleatoric"], class_aleatoric, atol=1e-12)
        np.testing.assert_allclose(summary["epistemic"], class_epistemic, atol=1e-12)

    def test_two_sample_hand_average(self):
        model = identity_model()
        features = np.log(np.array([[3.0, 1.0], [1.0, 1.0]]))
        summary = class_level_uncertainty_summary(model, features)
        # Hand average of (0.1875, 0.1875) and (0.25, 0.25).
        np.testing.assert_allclose(summary["total"], [0.21875, 0.21875], atol=1e-12)

    def test_class_means_sum_to_mean_sample_uncertainty(self):
        model = identity_model(3)
        rng = np.random.default_rng(43)
        features = rng.normal(size=(40, 3))
        summary = class_level_uncertainty_summary(model, features)
        alpha = model.forward_batch(features)
        mu = alpha / alpha.sum(axis=1, keepdims=True)
        mean_sample_u = (1.0 - (mu * mu).sum(axis=1)).mean()
        assert sum(summary["total"]) == pytest.approx(mean_sample_u, abs=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            class_level_uncertainty_summary(identity_model(), np.empty((0, 2)))


class TestReport:
    def test_validation_bounds(self):
        report = AdaRunReport(mode="variance", seed=0, final_accuracy=1.2)
        with pytest.raises(DomainError):
            report.validate()
        report = AdaRunReport(mode="variance", seed=0, correlated_pairs=[(1, 2, -1.5)])
        with pytest.raises(DomainError):
            report.validate()

    def test_json_round_trip(self):
        report = AdaRunReport(
            mode="entropy",
            seed=3,
            round_accuracies=[0.5, 0.6],
            final_accuracy=0.7,
            correlated_pairs=[(1, 2, -0.4)],
            loss_curve=[(1, 0.9, 0.2)],
        )
        payload = json.loads(report.to_json())
        assert payload["final_accuracy"] == 0.7
        assert payload["correlated_pairs"] == [[1, 2, -0.4]]
        assert payload["mode"] == "entropy"

    def test_selection_log_csv(self, tmp_path):
        rows = [
            {
                "round": 1,
                "sample_id": 4,
                "selection_type": "uncertain",
                "epistemic": 0.25,
                "aleatoric": 0.5,
                "predicted_class": 2,
                "true_class": 1,
            }
        ]
        path = tmp_path / "log.csv"
        write_selection_log(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("round,sample_id,selection_type")
        assert lines[1] == "1,4,uncertain,0.25,0.5,2,1"
