"""Tests for the Dirichlet covariance/uncertainty core.

Closed-form quantities are checked three ways: frozen hand-computed spot
values, algebraic invariants over randomized alpha vectors, and a Monte
Carlo simulation of the bi-level label model (a heavier version of the
simulation lives in the acceptance suite).
"""

import math

import numpy as np
import pytest

from evidunc.dirichlet import (
    ALPHA_FLOOR,
    AlphaError,
    DirichletPrediction,
    checked_alpha,
    class_variances_batch,
    covariance_batch,
    entropy_uncertainties_batch,
    predict_class_batch,
    quantify_records,
    variance_uncertainties_batch,
)
from evidunc.special import DomainError
from oracles import one_row, per_prediction_record


def random_alphas(seed, count, max_classes=20):
    """Seeded stream of alpha vectors with varied C and magnitudes."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = int(rng.integers(2, max_classes + 1))
        log_a = rng.uniform(math.log(1e-2), math.log(1e3), size=c)
        out.append(np.exp(log_a))
    return out


# --- Monte Carlo oracle for the bi-level label model ---


def simulate_label_covariances(alpha, n, seed):
    """Empirical total/aleatoric/epistemic covariance from n simulated
    (mu, y) pairs, where mu ~ Dirichlet(alpha) and y ~ Categorical(mu)."""
    rng = np.random.default_rng(seed)
    gamma = rng.standard_gamma(alpha, size=(n, len(alpha)))
    mu = gamma / gamma.sum(axis=1, keepdims=True)
    u = rng.random(n)
    labels = (u[:, None] >= np.cumsum(mu, axis=1)).sum(axis=1)
    onehot = np.eye(len(alpha))[labels]
    total = np.cov(onehot.T, ddof=0)
    aleatoric = np.diag(mu.mean(axis=0)) - mu.T @ mu / n
    epistemic = np.cov(mu.T, ddof=0)
    return total, aleatoric, epistemic


class TestSpotValues:
    def test_mean_and_prediction(self):
        pred = DirichletPrediction.from_alpha([2.0, 3.0, 5.0])
        assert predict_class_batch(pred.alpha[None, :])[0] == 3

    def test_prediction_tie_takes_lowest_class(self):
        assert predict_class_batch(np.array([[2.0, 2.0, 1.0]]))[0] == 1
        assert predict_class_batch(np.array([[1.0, 1.0]]))[0] == 1

    def test_predict_class_batch(self):
        alpha = np.array([[2.0, 3.0, 5.0], [5.0, 3.0, 2.0], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(predict_class_batch(alpha), [3, 1, 1])

    def test_covariance_alpha_2_3_5(self):
        total, aleatoric, epistemic, _ = one_row(covariance_batch, [2.0, 3.0, 5.0])
        expected_total = np.array(
            [
                [0.16, -0.06, -0.10],
                [-0.06, 0.21, -0.15],
                [-0.10, -0.15, 0.25],
            ]
        )
        np.testing.assert_allclose(total, expected_total, atol=1e-12)
        np.testing.assert_allclose(aleatoric, expected_total * (10.0 / 11.0), atol=1e-12)
        np.testing.assert_allclose(epistemic, expected_total / 11.0, atol=1e-12)

    def test_correlation_alpha_2_3_5(self):
        correlation = one_row(covariance_batch, [2.0, 3.0, 5.0])[3]
        expected_12 = -0.06 / math.sqrt(0.16 * 0.21)
        assert correlation[0, 1] == pytest.approx(expected_12, abs=1e-12)
        assert correlation[1, 0] == pytest.approx(expected_12, abs=1e-12)
        np.testing.assert_allclose(np.diag(correlation), 1.0, atol=1e-15)

    def test_class_uncertainties_alpha_3_1(self):
        class_total, class_aleatoric, class_epistemic = one_row(class_variances_batch, [3.0, 1.0])
        assert class_total[0] == pytest.approx(0.1875, abs=1e-12)
        assert class_aleatoric[0] == pytest.approx(0.15, abs=1e-12)
        assert class_epistemic[0] == pytest.approx(0.0375, abs=1e-12)

    def test_entropy_alpha_3_1(self):
        total, aleatoric, epistemic = one_row(entropy_uncertainties_batch, [3.0, 1.0])
        assert total == pytest.approx(0.5623351446188083, abs=1e-7)
        assert aleatoric == pytest.approx(0.4583333333333333, abs=1e-7)
        assert epistemic == pytest.approx(0.1040018112854750, abs=1e-7)

    def test_uniform_binary_both_modes(self):
        alpha = [1.0, 1.0]
        ent_total, ent_aleatoric, ent_epistemic = one_row(entropy_uncertainties_batch, alpha)
        assert ent_total == pytest.approx(math.log(2.0), abs=1e-12)
        assert ent_aleatoric == pytest.approx(0.5, abs=1e-10)
        assert ent_epistemic == pytest.approx(math.log(2.0) - 0.5, abs=1e-10)
        var_total, var_aleatoric, var_epistemic = one_row(variance_uncertainties_batch, alpha)
        assert var_total == pytest.approx(0.5, abs=1e-12)
        assert var_aleatoric == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert var_epistemic == pytest.approx(1.0 / 6.0, abs=1e-12)


class TestInvariants:
    def test_covariance_decomposition_and_ratio(self):
        for alpha in random_alphas(seed=101, count=300):
            pred = DirichletPrediction.from_alpha(alpha)
            total, aleatoric, epistemic, _ = one_row(covariance_batch, pred.alpha)
            np.testing.assert_allclose(aleatoric + epistemic, total, atol=1e-12)
            mask = np.abs(epistemic) > 1e-300
            ratio = aleatoric[mask] / epistemic[mask]
            np.testing.assert_allclose(ratio, pred.strength, rtol=1e-10)

    def test_sample_uncertainty_is_covariance_trace(self):
        for alpha in random_alphas(seed=202, count=200):
            total, aleatoric, epistemic, _ = one_row(covariance_batch, alpha)
            sample_total, sample_aleatoric, sample_epistemic = one_row(
                variance_uncertainties_batch, alpha
            )
            assert sample_total == pytest.approx(np.trace(total), abs=1e-12)
            assert sample_aleatoric == pytest.approx(np.trace(aleatoric), abs=1e-12)
            assert sample_epistemic == pytest.approx(np.trace(epistemic), abs=1e-12)

    def test_class_sums_match_sample_level(self):
        for alpha in random_alphas(seed=303, count=200):
            class_total, class_aleatoric, class_epistemic = one_row(class_variances_batch, alpha)
            sample_total, sample_aleatoric, sample_epistemic = one_row(
                variance_uncertainties_batch, alpha
            )
            assert class_total.sum() == pytest.approx(sample_total, abs=1e-12)
            assert class_aleatoric.sum() == pytest.approx(sample_aleatoric, abs=1e-12)
            assert class_epistemic.sum() == pytest.approx(sample_epistemic, abs=1e-12)

    def test_entropy_parts_sum_and_are_nonnegative(self):
        for alpha in random_alphas(seed=404, count=200):
            total, aleatoric, epistemic = one_row(entropy_uncertainties_batch, alpha)
            assert aleatoric + epistemic == pytest.approx(total, abs=1e-10)
            assert total >= -1e-12
            assert aleatoric >= -1e-12
            assert epistemic >= -1e-10

    def test_correlation_properties(self):
        for alpha in random_alphas(seed=505, count=100):
            correlation = one_row(covariance_batch, alpha)[3]
            np.testing.assert_allclose(correlation, correlation.T, atol=1e-12)
            np.testing.assert_allclose(np.diag(correlation), 1.0, atol=1e-15)
            assert np.all(correlation <= 1.0 + 1e-12)
            assert np.all(correlation >= -1.0 - 1e-12)

    def test_binary_correlation_is_minus_one(self):
        correlation = one_row(covariance_batch, [3.0, 4.0])[3]
        assert correlation[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_variance_guard(self):
        total, _, _, correlation = one_row(covariance_batch, [1e13, 1.0])
        assert np.diag(total).min() < 1e-12
        np.testing.assert_array_equal(correlation, np.eye(2))

    def test_class_variance_is_covariance_diagonal_and_correlation_clipped(self):
        # Over many alphas, rounding in a second copy of the formulas would
        # show up as a bitwise mismatch or a correlation just below -1.
        for alpha in random_alphas(seed=707, count=3000, max_classes=10):
            total, aleatoric, epistemic, correlation = one_row(covariance_batch, alpha)
            class_total, class_aleatoric, class_epistemic = one_row(class_variances_batch, alpha)
            np.testing.assert_array_equal(class_total, np.diag(total))
            np.testing.assert_array_equal(class_aleatoric, np.diag(aleatoric))
            np.testing.assert_array_equal(class_epistemic, np.diag(epistemic))
            assert np.all(correlation >= -1.0) and np.all(correlation <= 1.0)

    def test_batch_matches_scalar_path(self):
        alphas = [a[:4] for a in random_alphas(seed=606, count=50, max_classes=8) if a.size >= 4]
        matrix = np.array(alphas)
        vt, va, ve = variance_uncertainties_batch(matrix)
        et, ea, ee = entropy_uncertainties_batch(matrix)
        for i, row in enumerate(alphas):
            var_total, var_aleatoric, var_epistemic = one_row(variance_uncertainties_batch, row)
            ent_total, ent_aleatoric, ent_epistemic = one_row(entropy_uncertainties_batch, row)
            assert vt[i] == pytest.approx(var_total, abs=1e-14)
            assert va[i] == pytest.approx(var_aleatoric, abs=1e-14)
            assert ve[i] == pytest.approx(var_epistemic, abs=1e-14)
            assert et[i] == pytest.approx(ent_total, abs=1e-12)
            assert ea[i] == pytest.approx(ent_aleatoric, abs=1e-12)
            assert ee[i] == pytest.approx(ent_epistemic, abs=1e-12)


class TestMonteCarloAgreement:
    def test_simulated_covariances_match_closed_form(self):
        alpha = np.array([2.0, 3.0, 5.0])
        total, aleatoric, epistemic = simulate_label_covariances(alpha, n=200_000, seed=7)
        closed_total, closed_aleatoric, closed_epistemic, _ = one_row(covariance_batch, alpha)
        np.testing.assert_allclose(total, closed_total, atol=5e-3)
        np.testing.assert_allclose(aleatoric, closed_aleatoric, atol=5e-3)
        np.testing.assert_allclose(epistemic, closed_epistemic, atol=5e-3)

    def test_simulation_respects_decomposition(self):
        alpha = np.array([0.5, 1.5, 4.0, 2.0])
        total, aleatoric, epistemic = simulate_label_covariances(alpha, n=200_000, seed=11)
        np.testing.assert_allclose(aleatoric + epistemic, total, atol=5e-3)


class TestValidationAndRecords:
    @pytest.mark.parametrize(
        "bad",
        [
            [1.0, -1.0],
            [0.0, 1.0],
            [np.nan, 1.0],
            [np.inf, 1.0],
            [2.0],
        ],
    )
    def test_rejects_invalid_alpha(self, bad):
        with pytest.raises(DomainError):
            DirichletPrediction.from_alpha(bad)

    def test_rejects_matrix_alpha(self):
        with pytest.raises(DomainError):
            DirichletPrediction.from_alpha([[1.0, 2.0], [3.0, 4.0]])

    def test_floor_applies_to_tiny_positive_entries(self):
        pred = DirichletPrediction.from_alpha([1e-12, 1.0])
        assert pred.alpha[0] == ALPHA_FLOOR
        assert pred.alpha[1] == 1.0

    def test_batch_check_names_first_bad_row_and_its_first_failed_check(self):
        matrix = [[2.0, 3.0], [1e308, 1e308], [np.nan, -1.0], [1.0, -1.0]]
        for rows, row, message in [
            (matrix, 1, "alpha strength (the sum of the entries) must be finite"),
            (matrix[2:], 0, "alpha entries must be finite"),
            (matrix[3:], 0, "alpha entries must be strictly positive"),
            ([[2.0, 3.0], [0.0, 1.0]], 1, "alpha entries must be strictly positive"),
            ([[2.0], [np.nan]], 0, "at least two classes are required"),
        ]:
            with pytest.raises(AlphaError) as caught:
                checked_alpha(rows)
            assert (caught.value.row, str(caught.value)) == (row, message)

    def test_batch_check_floors_like_one_row_ingestion(self):
        rows = [[1e-12, 1.0], [3.0, 5e-9], [ALPHA_FLOOR, 2.0]]
        checked = checked_alpha(rows)
        np.testing.assert_array_equal(checked, [[ALPHA_FLOOR, 1.0], [3.0, ALPHA_FLOOR],
                                                [ALPHA_FLOOR, 2.0]])
        for row, alpha in zip(rows, checked):
            np.testing.assert_array_equal(DirichletPrediction.from_alpha(row).alpha, alpha)
        assert checked_alpha(np.empty((0, 3))).shape == (0, 3)
        with pytest.raises(DomainError, match=r"\(n, C\) matrix"):
            checked_alpha([1.0, 2.0])

    def test_record_round_trip(self):
        pred = DirichletPrediction.from_alpha([2.0, 3.0, 5.0])
        [record] = quantify_records(pred.alpha[None, :])
        assert set(record) == {
            "alpha",
            "uncertainty",
            "covariance",
            "covariance_aleatoric",
            "covariance_epistemic",
            "correlation",
        }
        back = DirichletPrediction.from_alpha(record["alpha"])
        np.testing.assert_array_equal(back.alpha, pred.alpha)
        var = record["uncertainty"]["variance"]
        assert var["sample"]["total"] == pytest.approx(0.62, abs=1e-12)
        assert len(var["class"]["total"]) == 3
        ent = record["uncertainty"]["entropy"]["sample"]
        assert ent["total"] == pytest.approx(1.0296530140645737, abs=1e-9)
        assert len(record["covariance"]) == 3
        assert len(record["correlation"]) == 3

    @pytest.mark.parametrize("classes", range(2, 11))
    def test_batch_records_equal_one_row_records(self, classes):
        rng = np.random.default_rng(classes)
        rows = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), size=(40, classes)))
        rows[rng.random(rows.shape) < 0.1] = 1e-12  # raised to ALPHA_FLOOR
        rows[::13] = 1e200
        alpha = np.stack([DirichletPrediction.from_alpha(row).alpha for row in rows])
        batch = quantify_records(alpha)
        assert len(batch) == len(alpha)
        for i, record in enumerate(batch):
            pred = DirichletPrediction(alpha[i])
            assert record == quantify_records(pred.alpha[None, :])[0]
            assert record == per_prediction_record(pred)

    def test_huge_equal_alphas_keep_negative_mutual_information(self):
        # Cancellation in total - aleatoric; entropy-mode selection reads
        # the same kernel, so the record keeps the value unclamped.
        [record] = quantify_records(np.array([[1e200, 1e200]]))
        assert record["uncertainty"]["entropy"]["sample"]["epistemic"] == -1.887379141862766e-15

    def test_prediction_properties(self):
        pred = DirichletPrediction.from_alpha([2.0, 3.0, 5.0])
        assert pred.num_classes == 3
        assert pred.strength == pytest.approx(10.0)
