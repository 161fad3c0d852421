"""Loss and gradient tests.

Gradients are the part most likely to be silently wrong, so every analytic
gradient is checked against a central finite difference of the loss itself
over randomized alpha vectors; the acceptance suite repeats the check at
fixed scale. Spot values were worked out by hand from the closed forms.
"""

import math

import numpy as np
import pytest

from evidunc.dirichlet import DirichletPrediction
from evidunc.losses import (
    LossConfig,
    OneHotLabel,
    _kl_batch,
    _ug_entropy_batch,
    edl_batch,
    edl_loss,
    edl_loss_and_gradient,
    kl_regularizer,
    nll_loss,
    total_loss,
    ug_batch,
    ug_loss,
    ug_loss_and_gradient,
)
from evidunc.special import DomainError
from oracles import kl_batch_seven_calls, ug_entropy_batch_four_calls

FD_STEP = 1e-5


def central_difference(fn, alpha):
    grad = np.empty_like(alpha)
    for i in range(alpha.size):
        hi = alpha.copy()
        lo = alpha.copy()
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        grad[i] = (fn(hi) - fn(lo)) / (2.0 * FD_STEP)
    return grad


def assert_gradient_matches(analytic, numeric, rtol=1e-5, atol=1e-8):
    # atol absorbs the finite-difference noise floor (~h^2 plus rounding),
    # which dominates wherever the true derivative is itself near zero.
    np.testing.assert_array_less(np.abs(analytic - numeric), atol + rtol * np.abs(numeric))


def random_cases(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = int(rng.integers(2, 11))
        alpha = np.exp(rng.uniform(math.log(0.1), math.log(50.0), size=c))
        label = int(rng.integers(1, c + 1))
        yield alpha, label


class TestSpotValues:
    def test_nll_alpha_3_1(self):
        pred = DirichletPrediction.from_alpha([3.0, 1.0])
        assert nll_loss(pred, OneHotLabel(1, 2)) == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
        assert nll_loss(pred, OneHotLabel(2, 2)) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_kl_alpha_3_4(self):
        pred = DirichletPrediction.from_alpha([3.0, 4.0])
        expected = math.log(4.0) - 0.75
        assert kl_regularizer(pred, OneHotLabel(1, 2)) == pytest.approx(expected, abs=1e-10)

    def test_kl_zero_when_other_classes_flat(self):
        pred = DirichletPrediction.from_alpha([7.0, 1.0, 1.0])
        assert kl_regularizer(pred, OneHotLabel(1, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_edl_alpha_3_4(self):
        pred = DirichletPrediction.from_alpha([3.0, 4.0])
        config = LossConfig(lambda_reg=0.5)
        expected = math.log(7.0) - math.log(3.0) + 0.5 * (math.log(4.0) - 0.75)
        assert edl_loss(pred, OneHotLabel(1, 2), config) == pytest.approx(expected, abs=1e-10)

    def test_ug_uniform_binary(self):
        pred = DirichletPrediction.from_alpha([1.0, 1.0])
        variance = LossConfig(mode="variance", lambda_a=0.05, lambda_e=1.0)
        entropy = LossConfig(mode="entropy", lambda_a=0.05, lambda_e=1.0)
        assert ug_loss(pred, variance) == pytest.approx(0.55 / 3.0, abs=1e-12)
        expected_entropy = math.log(2.0) - 0.95 * 0.5
        assert ug_loss(pred, entropy) == pytest.approx(expected_entropy, abs=1e-10)

    def test_nll_gradient_alpha_3_1(self):
        pred = DirichletPrediction.from_alpha([3.0, 1.0])
        config = LossConfig(lambda_reg=0.0)
        _, grad = edl_loss_and_gradient(pred, OneHotLabel(1, 2), config)
        np.testing.assert_allclose(grad, [-1.0 / 12.0, 0.25], atol=1e-12)

    def test_lambda_reg_defaults_to_inverse_class_count(self):
        pred = DirichletPrediction.from_alpha([2.0, 3.0, 5.0])
        label = OneHotLabel(2, 3)
        auto = edl_loss(pred, label, LossConfig())
        explicit = edl_loss(pred, label, LossConfig(lambda_reg=1.0 / 3.0))
        assert auto == explicit


class TestGradientsAgainstFiniteDifferences:
    def test_edl_gradient(self):
        for alpha, label_idx in random_cases(seed=31, count=100):
            label = OneHotLabel(label_idx, alpha.size)
            config = LossConfig(lambda_reg=0.7)
            pred = DirichletPrediction.from_alpha(alpha)
            _, analytic = edl_loss_and_gradient(pred, label, config)
            numeric = central_difference(
                lambda a: edl_loss(DirichletPrediction(a), label, config), alpha
            )
            assert_gradient_matches(analytic, numeric)

    def test_edl_gradient_with_default_regularizer(self):
        for alpha, label_idx in random_cases(seed=37, count=30):
            label = OneHotLabel(label_idx, alpha.size)
            config = LossConfig()
            pred = DirichletPrediction.from_alpha(alpha)
            _, analytic = edl_loss_and_gradient(pred, label, config)
            numeric = central_difference(
                lambda a: edl_loss(DirichletPrediction(a), label, config), alpha
            )
            assert_gradient_matches(analytic, numeric)

    @pytest.mark.parametrize("mode", ["variance", "entropy"])
    def test_ug_gradient(self, mode):
        config = LossConfig(mode=mode, lambda_a=0.05, lambda_e=1.0)
        for alpha, _ in random_cases(seed=41, count=100):
            pred = DirichletPrediction.from_alpha(alpha)
            _, analytic = ug_loss_and_gradient(pred, config)
            numeric = central_difference(
                lambda a: ug_loss(DirichletPrediction(a), config), alpha
            )
            assert_gradient_matches(analytic, numeric)

    @pytest.mark.parametrize("mode", ["variance", "entropy"])
    def test_ug_gradient_swapped_weights(self, mode):
        config = LossConfig(mode=mode, lambda_a=1.0, lambda_e=0.05)
        for alpha, _ in random_cases(seed=43, count=30):
            pred = DirichletPrediction.from_alpha(alpha)
            _, analytic = ug_loss_and_gradient(pred, config)
            numeric = central_difference(
                lambda a: ug_loss(DirichletPrediction(a), config), alpha
            )
            assert_gradient_matches(analytic, numeric)


class TestStructuralProperties:
    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(53)
        config = LossConfig(lambda_reg=0.3, mode="variance")
        for _ in range(50):
            c = int(rng.integers(2, 9))
            alpha = np.exp(rng.uniform(-1.0, 3.0, size=c))
            label_idx = int(rng.integers(1, c + 1))
            perm = rng.permutation(c)
            pred = DirichletPrediction.from_alpha(alpha)
            permuted = DirichletPrediction.from_alpha(alpha[perm])
            new_label = int(np.where(perm == label_idx - 1)[0][0]) + 1
            assert edl_loss(permuted, OneHotLabel(new_label, c), config) == pytest.approx(
                edl_loss(pred, OneHotLabel(label_idx, c), config), abs=1e-10
            )
            assert ug_loss(permuted, config) == pytest.approx(ug_loss(pred, config), abs=1e-12)

    def test_confident_wrong_costs_more_than_confident_right(self):
        config = LossConfig(lambda_reg=0.5)
        right = edl_loss(DirichletPrediction.from_alpha([100.0, 1.0]), OneHotLabel(1, 2), config)
        wrong = edl_loss(DirichletPrediction.from_alpha([1.0, 100.0]), OneHotLabel(1, 2), config)
        assert wrong > right

    def test_ug_vanishes_for_concentrated_evidence(self):
        config = LossConfig(mode="variance", lambda_a=0.05, lambda_e=1.0)
        spread_out = ug_loss(DirichletPrediction.from_alpha([1.0, 1.0, 1.0]), config)
        committed = ug_loss(DirichletPrediction.from_alpha([1e6, 1.0, 1.0]), config)
        assert committed < 1e-4 < spread_out

    def test_batch_matches_scalar(self):
        cases = list(random_cases(seed=61, count=20))
        c = 5
        rows = [(a[:c], min(l, c)) for a, l in cases if a.size >= c]
        alpha = np.array([r[0] for r in rows])
        classes = np.array([r[1] for r in rows])
        config = LossConfig(lambda_reg=0.25, mode="entropy")
        losses, grads = edl_batch(alpha, classes, config)
        ug_losses, ug_grads = ug_batch(alpha, config)
        for i, (row, cls) in enumerate(rows):
            pred = DirichletPrediction.from_alpha(row)
            loss, grad = edl_loss_and_gradient(pred, OneHotLabel(cls, c), config)
            assert losses[i] == pytest.approx(loss, abs=1e-12)
            np.testing.assert_allclose(grads[i], grad, atol=1e-12)
            loss, grad = ug_loss_and_gradient(pred, config)
            assert ug_losses[i] == pytest.approx(loss, abs=1e-12)
            np.testing.assert_allclose(ug_grads[i], grad, atol=1e-12)


class TestBitPatterns:
    """The fused special-function passes give the bits of separate calls."""

    @staticmethod
    def random_batches(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            c = int(rng.integers(2, 12))
            n = int(rng.integers(1, 40))
            alpha = np.exp(rng.uniform(-8.0, 12.0, size=(n, c)))
            yield alpha, rng.integers(1, c + 1, size=n)

    def test_kl_batch_matches_seven_calls(self):
        for alpha, classes in self.random_batches(seed=81, count=200):
            for got, want in zip(_kl_batch(alpha, classes), kl_batch_seven_calls(alpha, classes)):
                assert got.tobytes() == want.tobytes()

    def test_ug_entropy_batch_matches_four_calls(self):
        for alpha, _ in self.random_batches(seed=82, count=200):
            for got, want in zip(_ug_entropy_batch(alpha, 0.05, 1.0),
                                 ug_entropy_batch_four_calls(alpha, 0.05, 1.0)):
                assert got.tobytes() == want.tobytes()


class TestTotalLoss:
    def setup_method(self):
        rng = np.random.default_rng(71)
        self.labeled = np.exp(rng.uniform(-1.0, 2.0, size=(6, 4)))
        self.labels = rng.integers(1, 5, size=6)
        self.unlabeled = np.exp(rng.uniform(-1.0, 2.0, size=(9, 4)))

    def test_sum_reduction_is_additive_over_partitions(self):
        config = LossConfig(reduction="sum", lambda_reg=0.2)
        whole = total_loss(self.labeled, self.labels, self.unlabeled, config)
        parts = total_loss(
            self.labeled[:2], self.labels[:2], self.unlabeled[:4], config
        ) + total_loss(self.labeled[2:], self.labels[2:], self.unlabeled[4:], config)
        assert whole == pytest.approx(parts, abs=1e-10)

    def test_mean_reduction_averages_each_part(self):
        config = LossConfig(reduction="mean", lambda_reg=0.2)
        edl_rows, _ = edl_batch(self.labeled, self.labels, config)
        ug_rows, _ = ug_batch(self.unlabeled, config)
        expected = edl_rows.mean() + ug_rows.mean()
        assert total_loss(self.labeled, self.labels, self.unlabeled, config) == pytest.approx(
            expected, abs=1e-12
        )

    def test_empty_batches_contribute_zero(self):
        config = LossConfig(reduction="sum")
        none_unlabeled = total_loss(self.labeled, self.labels, None, config)
        empty_unlabeled = total_loss(self.labeled, self.labels, np.empty((0, 4)), config)
        assert none_unlabeled == pytest.approx(empty_unlabeled, abs=1e-15)
        only_ug = total_loss(np.empty((0, 4)), np.empty(0, dtype=int), self.unlabeled, config)
        assert only_ug > 0.0

    def test_labeled_weights_scale_rows(self):
        config = LossConfig(reduction="sum", lambda_reg=0.2)
        weights = np.full(6, 0.5)
        weighted = total_loss(self.labeled, self.labels, None, config, labeled_weights=weights)
        plain = total_loss(self.labeled, self.labels, None, config)
        assert weighted == pytest.approx(0.5 * plain, abs=1e-12)

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            total_loss(
                self.labeled, self.labels, None, LossConfig(), labeled_weights=np.ones(3)
            )


class TestValidation:
    def test_label_out_of_range(self):
        with pytest.raises(DomainError):
            OneHotLabel(0, 3)
        with pytest.raises(DomainError):
            OneHotLabel(4, 3)

    def test_label_vector(self):
        np.testing.assert_array_equal(OneHotLabel(2, 4).vector(), [0.0, 1.0, 0.0, 0.0])

    def test_bad_config_values(self):
        with pytest.raises(DomainError):
            LossConfig(mode="bayes")
        with pytest.raises(DomainError):
            LossConfig(reduction="max")
        with pytest.raises(DomainError):
            LossConfig(lambda_a=-0.1)
        with pytest.raises(DomainError):
            LossConfig(lambda_reg=-1.0)
        with pytest.raises(DomainError):
            LossConfig(pseudo_label_weight=0.0)

    def test_class_count_mismatch(self):
        pred = DirichletPrediction.from_alpha([1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            nll_loss(pred, OneHotLabel(1, 2))
