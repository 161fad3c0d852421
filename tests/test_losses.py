"""Loss and gradient tests.

Gradients are the part most likely to be silently wrong, so every analytic
gradient is checked against a central finite difference of the loss itself
over randomized alpha vectors; the acceptance suite repeats the check at
fixed scale. Spot values were worked out by hand from the closed forms.
"""

import math

import numpy as np
import pytest

from evidunc.losses import (
    LossConfig,
    _kl_loss,
    _nll_loss,
    _ug_entropy_batch,
    edl_batch,
    edl_gradient,
    edl_loss,
    ug_batch,
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


def one_row(kernel, alpha, *args):
    loss, grad = kernel(np.asarray(alpha, dtype=np.float64)[None, :], *args)
    return loss[0], grad[0]


def one_row_loss(kernel, alpha, *args):
    return kernel(np.asarray(alpha, dtype=np.float64)[None, :], *args)[0]


def true_class(classes):
    """The index of each row's true class that the NLL and KL kernels take,
    for 1-based class labels."""
    return np.arange(len(classes)), np.asarray(classes) - 1


def nll_gradient(alpha, classes):
    """The NLL term's alpha-gradient: 1/alpha0, less 1/alpha at the true class."""
    rows, true = true_class(classes)
    grad = np.repeat((1.0 / alpha.sum(axis=1))[:, None], alpha.shape[1], axis=1)
    grad[rows, true] -= 1.0 / alpha[rows, true]
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
        alpha = [3.0, 1.0]
        assert one_row_loss(_nll_loss, alpha, true_class([1])) == pytest.approx(
            math.log(4.0 / 3.0), abs=1e-12
        )
        assert one_row_loss(_nll_loss, alpha, true_class([2])) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_kl_alpha_3_4(self):
        expected = math.log(4.0) - 0.75
        kl = one_row_loss(_kl_loss, [3.0, 4.0], true_class([1]))
        assert kl == pytest.approx(expected, abs=1e-10)

    def test_kl_zero_when_other_classes_flat(self):
        kl = one_row_loss(_kl_loss, [7.0, 1.0, 1.0], true_class([1]))
        assert kl == pytest.approx(0.0, abs=1e-12)

    def test_edl_alpha_3_4(self):
        config = LossConfig(lambda_reg=0.5)
        expected = math.log(7.0) - math.log(3.0) + 0.5 * (math.log(4.0) - 0.75)
        assert one_row(edl_batch, [3.0, 4.0], [1], config)[0] == pytest.approx(expected, abs=1e-10)

    def test_ug_uniform_binary(self):
        alpha = [1.0, 1.0]
        variance = LossConfig(mode="variance", lambda_a=0.05, lambda_e=1.0)
        entropy = LossConfig(mode="entropy", lambda_a=0.05, lambda_e=1.0)
        assert one_row(ug_batch, alpha, variance)[0] == pytest.approx(0.55 / 3.0, abs=1e-12)
        expected_entropy = math.log(2.0) - 0.95 * 0.5
        assert one_row(ug_batch, alpha, entropy)[0] == pytest.approx(expected_entropy, abs=1e-10)

    def test_nll_gradient_alpha_3_1(self):
        config = LossConfig(lambda_reg=0.0)
        _, grad = one_row(edl_batch, [3.0, 1.0], [1], config)
        np.testing.assert_allclose(grad, [-1.0 / 12.0, 0.25], atol=1e-12)

    def test_lambda_reg_defaults_to_inverse_class_count(self):
        alpha = [2.0, 3.0, 5.0]
        auto = one_row(edl_batch, alpha, [2], LossConfig())[0]
        explicit = one_row(edl_batch, alpha, [2], LossConfig(lambda_reg=1.0 / 3.0))[0]
        assert auto == explicit


class TestGradientsAgainstFiniteDifferences:
    def test_edl_gradient(self):
        for alpha, label_idx in random_cases(seed=31, count=100):
            config = LossConfig(lambda_reg=0.7)
            _, analytic = one_row(edl_batch, alpha, [label_idx], config)
            numeric = central_difference(
                lambda a: one_row(edl_batch, a, [label_idx], config)[0], alpha
            )
            assert_gradient_matches(analytic, numeric)

    def test_edl_gradient_with_default_regularizer(self):
        for alpha, label_idx in random_cases(seed=37, count=30):
            config = LossConfig()
            _, analytic = one_row(edl_batch, alpha, [label_idx], config)
            numeric = central_difference(
                lambda a: one_row(edl_batch, a, [label_idx], config)[0], alpha
            )
            assert_gradient_matches(analytic, numeric)

    @pytest.mark.parametrize("mode", ["variance", "entropy"])
    def test_ug_gradient(self, mode):
        config = LossConfig(mode=mode, lambda_a=0.05, lambda_e=1.0)
        for alpha, _ in random_cases(seed=41, count=100):
            _, analytic = one_row(ug_batch, alpha, config)
            numeric = central_difference(lambda a: one_row(ug_batch, a, config)[0], alpha)
            assert_gradient_matches(analytic, numeric)

    @pytest.mark.parametrize("mode", ["variance", "entropy"])
    def test_ug_gradient_swapped_weights(self, mode):
        config = LossConfig(mode=mode, lambda_a=1.0, lambda_e=0.05)
        for alpha, _ in random_cases(seed=43, count=30):
            _, analytic = one_row(ug_batch, alpha, config)
            numeric = central_difference(lambda a: one_row(ug_batch, a, config)[0], alpha)
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
            permuted = alpha[perm]
            new_label = int(np.where(perm == label_idx - 1)[0][0]) + 1
            assert one_row(edl_batch, permuted, [new_label], config)[0] == pytest.approx(
                one_row(edl_batch, alpha, [label_idx], config)[0], abs=1e-10
            )
            assert one_row(ug_batch, permuted, config)[0] == pytest.approx(
                one_row(ug_batch, alpha, config)[0], abs=1e-12
            )

    def test_confident_wrong_costs_more_than_confident_right(self):
        config = LossConfig(lambda_reg=0.5)
        right = one_row(edl_batch, [100.0, 1.0], [1], config)[0]
        wrong = one_row(edl_batch, [1.0, 100.0], [1], config)[0]
        assert wrong > right

    def test_ug_vanishes_for_concentrated_evidence(self):
        config = LossConfig(mode="variance", lambda_a=0.05, lambda_e=1.0)
        spread_out = one_row(ug_batch, [1.0, 1.0, 1.0], config)[0]
        committed = one_row(ug_batch, [1e6, 1.0, 1.0], config)[0]
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
            loss, grad = one_row(edl_batch, row, [cls], config)
            assert losses[i] == pytest.approx(loss, abs=1e-12)
            np.testing.assert_allclose(grads[i], grad, atol=1e-12)
            loss, grad = one_row(ug_batch, row, config)
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
        # 700 x 7 arguments pass the special functions' 4096-element block.
        alpha = np.exp(rng.uniform(-8.0, 12.0, size=(700, 6)))
        yield alpha, rng.integers(1, 7, size=700)

    def test_kl_batch_matches_seven_calls(self):
        # The KL gradient is checked through edl_gradient, which adds
        # lambda_reg times it to the NLL gradient.
        config = LossConfig(lambda_reg=1.0)
        for alpha, classes in self.random_batches(seed=81, count=200):
            kl, kl_grad = kl_batch_seven_calls(alpha, classes)
            assert _kl_loss(alpha, true_class(classes)).tobytes() == kl.tobytes()
            want_grad = nll_gradient(alpha, classes) + kl_grad
            assert edl_gradient(alpha, classes, config).tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("n", [1, 64, 1000], ids=["one-row", "desk", "blocked"])
    def test_split_kernels_are_the_halves_of_edl_batch(self, n):
        # A (64, 5) matrix is a desk step's; (1000, 5) takes 6000 special
        # function arguments, past the 4096-element block.
        rng = np.random.default_rng(n)
        alpha = np.exp(rng.uniform(-8.0, 12.0, size=(n, 5)))
        classes = rng.integers(1, 6, size=n)
        config = LossConfig(lambda_reg=0.3)
        rows, true = true_class(classes)
        a0 = alpha.sum(axis=1)
        kl, kl_grad = kl_batch_seven_calls(alpha, classes)
        loss, grad = edl_batch(alpha, classes, config)
        want_loss = np.log(a0) - np.log(alpha[rows, true]) + 0.3 * kl
        assert edl_loss(alpha, classes, config).tobytes() == loss.tobytes() == want_loss.tobytes()
        want_grad = nll_gradient(alpha, classes) + 0.3 * kl_grad
        assert edl_gradient(alpha, classes, config).tobytes() == grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("batch", [1, 2, 7, 32, 64])
    def test_edl_loss_rows_do_not_depend_on_their_batch(self, batch):
        # The trainer takes an epoch's supervised losses from one pass over
        # all its steps' rows; each row must get the bits of its own step.
        rng = np.random.default_rng(batch)
        alpha = np.exp(rng.uniform(-8.0, 12.0, size=(900, 5)))
        classes = rng.integers(1, 6, size=900)
        config = LossConfig()
        steps = [edl_loss(alpha[i : i + batch], classes[i : i + batch], config)
                 for i in range(0, 900, batch)]
        assert np.concatenate(steps).tobytes() == edl_loss(alpha, classes, config).tobytes()

    def test_ug_entropy_batch_matches_four_calls(self):
        for alpha, _ in self.random_batches(seed=82, count=200):
            for got, want in zip(_ug_entropy_batch(alpha, 0.05, 1.0),
                                 ug_entropy_batch_four_calls(alpha, 0.05, 1.0)):
                assert got.tobytes() == want.tobytes()


class TestUncheckedAlpha:
    """The kernels take alpha as given (see the module docstring): a NaN
    passes through its own row and raises nothing."""

    @pytest.mark.parametrize("mode", ["variance", "entropy"])
    def test_nan_row_gives_nan_loss_row(self, mode):
        alpha = np.exp(np.random.default_rng(7).uniform(-2.0, 3.0, size=(4, 3)))
        bad = alpha.copy()
        bad[1, 2] = np.nan
        classes = np.array([1, 2, 3, 1])
        config = LossConfig(mode=mode)
        for kernel, args in [(edl_batch, (classes, config)), (ug_batch, (config,))]:
            loss, grad = kernel(bad, *args)
            want_loss, want_grad = kernel(alpha, *args)
            assert np.isnan(loss[1]) and np.isnan(grad[1]).any()
            others = [0, 2, 3]
            assert loss[others].tobytes() == want_loss[others].tobytes()
            assert grad[others].tobytes() == want_grad[others].tobytes()


class TestValidation:
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
