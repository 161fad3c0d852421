"""Domain generator tests: balance, determinism, shift geometry, pool
construction, and the directional shift property."""

import numpy as np
import pytest

from evidunc.dirichlet import variance_uncertainties_batch
from evidunc.enn import EvidentialMLP, TrainConfig
from evidunc.losses import LossConfig
from evidunc.sampling import run_ada
from evidunc.special import DomainError
from evidunc.synthetic import (
    Dataset,
    DomainSpec,
    default_class_means,
    generate_domain_pair,
    split_pools,
)


class TestGeneration:
    def test_class_priors_balanced_within_one(self):
        spec = DomainSpec(num_classes=3, samples_per_domain=200, seed=1)
        source, target = generate_domain_pair(spec)
        for dataset in (source, target):
            counts = np.bincount(dataset.labels, minlength=4)[1:]
            assert counts.max() - counts.min() <= 1
            assert counts.sum() == 200

    def test_same_seed_reproduces_exactly(self):
        spec = DomainSpec(samples_per_domain=50, seed=9)
        a_src, a_tgt = generate_domain_pair(spec)
        b_src, b_tgt = generate_domain_pair(spec)
        np.testing.assert_array_equal(a_src.features, b_src.features)
        np.testing.assert_array_equal(a_tgt.features, b_tgt.features)
        np.testing.assert_array_equal(a_tgt.labels, b_tgt.labels)

    def test_zero_shift_matches_distributions(self):
        spec = DomainSpec(num_classes=2, samples_per_domain=2000, class_scale=1.0, seed=3)
        source, target = generate_domain_pair(spec)
        for cls in (1, 2):
            src_mean = source.features[source.labels == cls].mean(axis=0)
            tgt_mean = target.features[target.labels == cls].mean(axis=0)
            # Class means agree within a few standard errors (~1/sqrt(1000)).
            np.testing.assert_allclose(src_mean, tgt_mean, atol=0.2)

    def test_half_turn_swaps_opposite_means(self):
        spec = DomainSpec(
            num_classes=2,
            samples_per_domain=400,
            class_means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            class_scale=0.05,
            shift_rotation_degrees=180.0,
            seed=4,
        )
        _, target = generate_domain_pair(spec)
        class1_mean = target.features[target.labels == 1].mean(axis=0)
        class2_mean = target.features[target.labels == 2].mean(axis=0)
        np.testing.assert_allclose(class1_mean, [-1.0, 0.0], atol=0.02)
        np.testing.assert_allclose(class2_mean, [1.0, 0.0], atol=0.02)

    def test_translation_moves_target(self):
        spec = DomainSpec(
            num_classes=2, samples_per_domain=1000, shift_translation=(3.0, -1.0), seed=5
        )
        source, target = generate_domain_pair(spec)
        offset = target.features.mean(axis=0) - source.features.mean(axis=0)
        np.testing.assert_allclose(offset, [3.0, -1.0], atol=0.2)

    def test_default_means_lie_on_circle(self):
        means = default_class_means(5, 3)
        np.testing.assert_allclose(np.linalg.norm(means, axis=1), 4.0, atol=1e-12)
        assert np.all(means[:, 2] == 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_classes=1),
            dict(feature_dim=1),
            dict(num_classes=5, samples_per_domain=3),
            dict(class_scale=0.0),
            dict(shift_noise_multiplier=0.0),
            dict(class_means=np.zeros((2, 2))),
            dict(shift_translation=(1.0,)),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        base = dict(num_classes=3, feature_dim=2, samples_per_domain=30)
        base.update(kwargs)
        with pytest.raises(DomainError):
            DomainSpec(**base)

    def test_dataset_validation(self):
        with pytest.raises(DomainError):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), "source")
        with pytest.raises(DomainError, match=r"^features must be \(n, d\) with one label per row$"):
            Dataset(np.zeros((3, 2)), np.array([1, 2]), "source")
        # Labels are not truncated or cast from bools.
        with pytest.raises(DomainError, match="^labels must be integers, got float64$"):
            Dataset(np.zeros((3, 2)), [1.7, 2.2, 3.9], "x")
        with pytest.raises(DomainError, match="^labels must be integers, got bool$"):
            Dataset(np.zeros((2, 2)), np.array([True, True]), "x")
        assert Dataset(np.zeros((2, 2)), np.array([1, 2], dtype=np.int32), "x").labels.dtype == np.int64
        # Non-finite features are named by their first row.
        for bad in (np.nan, np.inf, -np.inf):
            features = np.zeros((4, 2))
            features[[2, 3], 1] = bad
            with pytest.raises(DomainError, match="^features must be finite; row 2 is not$"):
                Dataset(features, [1, 2, 1, 2], "x")


# Each non-finite setting is named, ahead of the range checks that NaN
# would slip past and that would report an infinite value as out of range.
@pytest.mark.parametrize("cls, settings", [
    (TrainConfig, {"learning_rate": np.nan}),
    (TrainConfig, {"weight_decay": np.inf}),
    (TrainConfig, {"momentum": np.nan, "lr_beta": -np.inf}),
    (LossConfig, {"lambda_a": np.nan}),
    (LossConfig, {"lambda_reg": np.inf, "pseudo_label_weight": np.nan}),
    (DomainSpec, {"class_scale": np.nan}),
    (DomainSpec, {"shift_translation": (np.nan, 0.0)}),
    (DomainSpec, {"shift_rotation_degrees": np.inf}),
    (DomainSpec, {"class_means": np.full((5, 2), -np.inf)}),
    (DomainSpec, {"shift_noise_multiplier": np.inf}),
], ids=lambda v: v.__name__ if isinstance(v, type) else "-".join(v))
def test_non_finite_settings_rejected(cls, settings):
    with pytest.raises(DomainError, match=f"^{' and '.join(settings)} must be finite$"):
        cls(**settings)


# An integer past float range is named too, in the words of Python's
# OverflowError, and ahead of NaN or Inf in another setting.
@pytest.mark.parametrize("cls, settings, named", [
    (TrainConfig, {"learning_rate": 10**400}, "learning_rate"),
    (TrainConfig, {"weight_decay": -(10**400), "momentum": np.nan}, "weight_decay"),
    (LossConfig, {"lambda_a": 10**400}, "lambda_a"),
    (LossConfig, {"lambda_e": 10**400, "pseudo_label_weight": 10**400},
     "lambda_e and pseudo_label_weight"),
    (DomainSpec, {"class_scale": 10**400}, "class_scale"),
    (DomainSpec, {"shift_translation": (10**400, 1)}, "shift_translation"),
    (DomainSpec, {"num_classes": 2, "class_means": ((10**400, 0), (0, 1))}, "class_means"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_integer_beyond_a_float_rejected(cls, settings, named):
    with pytest.raises(DomainError, match=f"^int too large to convert to float: {named}$"):
        cls(**settings)


class TestSplitPools:
    def test_initial_split_and_budget(self):
        spec = DomainSpec(num_classes=2, samples_per_domain=200, seed=0)
        source, target = generate_domain_pair(spec)
        pool = split_pools(source, target, budget_fraction=0.05)
        assert pool.budget_total == 10
        assert (pool.oracle_count, pool.budget_spent) == (0, 0)
        assert pool.num_unlabeled == 200
        pool.check_invariants()

    def test_bad_fractions(self):
        spec = DomainSpec(num_classes=2, samples_per_domain=20, seed=0)
        source, target = generate_domain_pair(spec)
        with pytest.raises(DomainError):
            split_pools(source, target, budget_fraction=1.5)


class TestDirectionalShift:
    def test_shifted_target_has_higher_epistemic_uncertainty(self):
        # A source-only model should find shifted target samples less
        # familiar: mean target EU above mean source EU, across seeds.
        # Rotating by 60 degrees puts target clusters halfway between the
        # three source clusters, a region the source model has no evidence
        # for; a pure translation instead lands in far-field extrapolation
        # zones where exp-activated evidence is spuriously confident.
        wins = 0
        for seed in range(10):
            spec = DomainSpec(
                num_classes=3,
                samples_per_domain=150,
                class_scale=0.6,
                shift_rotation_degrees=60.0,
                seed=seed,
            )
            source, target = generate_domain_pair(spec)
            pool = split_pools(source, target)
            model = EvidentialMLP.create(2, 3, hidden=(16,), seed=seed)
            cfg = TrainConfig(epochs=8, batch_size=32, learning_rate=0.1, seed=seed)
            run_ada(model, pool, cfg, LossConfig(), [], [], ug_enabled=False)
            _, _, src_eu = variance_uncertainties_batch(model.forward_batch(source.features))
            _, _, tgt_eu = variance_uncertainties_batch(model.forward_batch(target.features))
            wins += src_eu.mean() < tgt_eu.mean()
        assert wins == 10
