"""Acceptance suite: one test per release criterion, each printing a
single PASS or FAIL line (run with -s to see them stream).

Criteria 1 to 6 are property checks with frozen seeds and pinned
tolerances. Criteria 7 to 10 run the frozen desk-scale study: a five-class
two-dimensional domain pair with a 26 degree rotation shift, 2000 samples
per domain, a 5 percent oracle budget over five sampling rounds, ten seeds.
Everything is deterministic, so these results are fixed numbers, not
statistical hopes.
"""

import time

import numpy as np
import pytest

from evidunc.config import parse_config
from evidunc.dirichlet import DirichletPrediction, covariance_batch, entropy_uncertainties_batch
from evidunc.enn import EvidentialMLP, TrainConfig
from evidunc.experiments import run_rows
from evidunc.losses import LossConfig, _kl_loss, edl_batch, ug_batch
from evidunc.metrics import auroc, rank_class_pairs
from evidunc.pools import SamplePool
from evidunc.sampling import (
    _eu_order,
    _pick_certain_balanced_tail,
    _pick_certain_tail,
    _pick_uncertain,
    run_ada,
)
from evidunc.synthetic import DomainSpec, default_class_means, generate_domain_pair, split_pools
from oracles import brute_force_auroc, one_row


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# Desk-scale study shared by criteria 7 to 9. Rotation 26 puts each target
# cluster about a third of the way toward its neighbor: enough shift that
# guidance and sampling have room to help, not so much that cluster
# identity becomes ambiguous.
DESK_DOCUMENT = {
    "mode": "variance",
    "seeds": list(range(10)),
    "hidden_layers": [64, 64],
    "domain": {
        "num_classes": 5,
        "feature_dim": 2,
        "samples_per_domain": 2000,
        "class_scale": 1.0,
        "shift_rotation_degrees": 26.0,
    },
    "train": {
        "epochs": 20,
        "batch_size": 32,
        "learning_rate": 0.05,
        "momentum": 0.9,
        "weight_decay": 0.001,
        "lr_schedule": "inverse-decay",
    },
    "loss": {"lambda_a": 0.1, "lambda_e": 1.0},
    "sampling": {"budget_fraction": 0.05},
}

DESK_ROWS = (
    ("source-only", {"ug": False, "us": False, "cs": False}),
    ("+UG", {"ug": True, "us": False, "cs": False}),
    ("+UG+US", {"ug": True, "us": True, "cs": False}),
    ("+UG+US+CS", {"ug": True, "us": True, "cs": True}),
)


@pytest.fixture(scope="module")
def desk_study():
    config = parse_config(DESK_DOCUMENT)
    started = time.perf_counter()
    results = run_rows([config.with_switches(**flags) for _, flags in DESK_ROWS])
    rows = {name: reports for (name, _), reports in zip(DESK_ROWS, results)}
    return rows, time.perf_counter() - started


def random_alphas(rng, count, max_classes=20):
    for _ in range(count):
        size = int(rng.integers(2, max_classes + 1))
        yield np.exp(rng.uniform(-2.0, 3.0, size=size))


class TestCriterion1:
    def test_covariance_decomposition_identity(self):
        rng = np.random.default_rng(7)
        started = time.perf_counter()
        worst_identity = 0.0
        worst_ratio = 0.0
        for alpha in random_alphas(rng, 1000):
            pred = DirichletPrediction.from_alpha(alpha)
            total, aleatoric, epistemic, _ = one_row(covariance_batch, pred.alpha)
            worst_identity = max(
                worst_identity,
                np.abs(total - (aleatoric + epistemic)).max(),
            )
            mask = np.abs(epistemic) > 1e-300
            ratio = aleatoric[mask] / epistemic[mask]
            worst_ratio = max(
                worst_ratio, np.abs(ratio / pred.strength - 1.0).max()
            )
        elapsed = time.perf_counter() - started
        ok = worst_identity <= 1e-12 and worst_ratio <= 1e-10 and elapsed < 1.0
        detail = (
            f"decomposition identity: max entry error {worst_identity:.2e} "
            f"(<= 1e-12), max ratio error {worst_ratio:.2e} (<= 1e-10), "
            f"{elapsed:.2f}s (< 1s)"
        )
        report(1, ok, detail)
        assert ok, detail


MC_ALPHAS = (
    (2.0, 3.0, 5.0),
    (0.5, 0.5, 0.5),
    (1.0, 1.0),
    (10.0, 1.0, 0.5, 2.0),
    (4.0, 2.0, 1.0, 3.0, 5.0),
)


def simulate_covariances_batched(alpha, rng, draws=1_000_000, batches=50):
    """Unbiased MC estimates of the three covariance layers with standard
    errors from independent batches. Sample covariances use ddof=1: the
    ddof=0 bias of Cov/n would exceed 3 SE at entries whose estimator
    variance collapses (for example a label variance at p = 1/2)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    num = alpha.size
    per = draws // batches
    stats = {"total": [], "aleatoric": [], "epistemic": []}
    for _ in range(batches):
        gamma = rng.standard_gamma(alpha, size=(per, num))
        mu = gamma / gamma.sum(axis=1, keepdims=True)
        u = rng.random(per)
        labels = (u[:, None] >= np.cumsum(mu, axis=1)).sum(axis=1)
        onehot = np.zeros((per, num))
        onehot[np.arange(per), labels] = 1.0
        stats["total"].append(np.cov(onehot.T, ddof=1))
        stats["aleatoric"].append(np.diag(mu.mean(axis=0)) - mu.T @ mu / per)
        stats["epistemic"].append(np.cov(mu.T, ddof=1))
    out = {}
    for name, stack in stats.items():
        arr = np.asarray(stack)
        out[name] = (arr.mean(axis=0), arr.std(axis=0, ddof=1) / np.sqrt(batches))
    return out


class TestCriterion2:
    def test_monte_carlo_oracle_agreement(self):
        rng = np.random.default_rng(3)
        started = time.perf_counter()
        worst_z = 0.0
        for alpha in MC_ALPHAS:
            total, aleatoric, epistemic, _ = one_row(covariance_batch, alpha)
            closed = {
                "total": total,
                "aleatoric": aleatoric,
                "epistemic": epistemic,
            }
            estimates = simulate_covariances_batched(alpha, rng)
            for name, (est, se) in estimates.items():
                z = np.abs(est - closed[name]) / np.maximum(se, 1e-300)
                worst_z = max(worst_z, z.max())
        elapsed = time.perf_counter() - started
        ok = worst_z < 3.0 and elapsed < 30.0
        detail = (
            f"Monte Carlo vs closed form over {len(MC_ALPHAS)} alphas, 1e6 "
            f"draws each: worst |z| = {worst_z:.2f} (< 3 SE), {elapsed:.1f}s (< 30s)"
        )
        report(2, ok, detail)
        assert ok, detail


class TestCriterion3:
    def test_entropy_decomposition(self):
        rng = np.random.default_rng(12)
        worst_sum = 0.0
        lowest = np.inf
        for alpha in random_alphas(rng, 1000):
            total, aleatoric, epistemic = one_row(entropy_uncertainties_batch, alpha)
            worst_sum = max(
                worst_sum,
                abs(total - (aleatoric + epistemic)),
            )
            lowest = min(lowest, aleatoric, epistemic)
        spot_total, spot_aleatoric, spot_epistemic = one_row(entropy_uncertainties_batch, (1.0, 1.0))
        expected = (np.log(2.0), 0.5, np.log(2.0) - 0.5)
        spot_err = max(
            abs(spot_total - expected[0]),
            abs(spot_aleatoric - expected[1]),
            abs(spot_epistemic - expected[2]),
        )
        displayed = (
            round(spot_total, 4),
            round(spot_aleatoric, 4),
            round(spot_epistemic, 4),
        )
        ok = (
            worst_sum <= 1e-12
            and lowest >= -1e-10
            and spot_err < 1e-6
            and displayed == (0.6931, 0.5, 0.1931)
        )
        detail = (
            f"entropy split: max sum error {worst_sum:.2e}, min component "
            f"{lowest:.2e} (>= -1e-10), uniform binary spot {displayed} "
            f"(err {spot_err:.1e} < 1e-6)"
        )
        report(3, ok, detail)
        assert ok, detail


FD_STEP = 1e-5


def central_difference(fn, alpha):
    grad = np.zeros_like(alpha)
    for c in range(alpha.size):
        up, down = alpha.copy(), alpha.copy()
        up[c] += FD_STEP
        down[c] -= FD_STEP
        grad[c] = (fn(up) - fn(down)) / (2.0 * FD_STEP)
    return grad


def worst_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(np.ravel(analytic), np.ravel(numeric)):
        if abs(a) < 1e-12 and abs(n) < 1e-10:
            continue  # structurally zero coordinate, e.g. KL at the true class
        worst = max(worst, abs(a - n) / abs(n))
    return worst


class TestCriterion4:
    def test_loss_gradients_match_finite_differences(self):
        rng = np.random.default_rng(40)
        worst = {"nll": 0.0, "kl": 0.0, "edl": 0.0, "ug-variance": 0.0, "ug-entropy": 0.0}
        plain = LossConfig(mode="variance", lambda_reg=0.0)
        for _ in range(100):
            size = int(rng.integers(2, 8))
            alpha = np.exp(rng.uniform(-1.5, 2.5, size=size))
            label = int(rng.integers(1, size + 1))

            _, g_nll = edl_batch(alpha[None, :], [label], plain)
            n_nll = central_difference(
                lambda a: edl_batch(a[None, :], [label], plain)[0][0], alpha
            )
            worst["nll"] = max(worst["nll"], worst_relative_error(g_nll[0], n_nll))

            unit = LossConfig(mode="variance", lambda_reg=1.0)
            g_kl = edl_batch(alpha[None, :], [label], unit)[1][0] - g_nll[0]
            n_kl = central_difference(
                lambda a: _kl_loss(a[None, :], ([0], [label - 1]))[0], alpha
            )
            worst["kl"] = max(worst["kl"], worst_relative_error(g_kl, n_kl))

            for mode in ("variance", "entropy"):
                cfg = LossConfig(mode=mode, lambda_a=0.3, lambda_e=1.0)
                _, g_edl = edl_batch(alpha[None, :], [label], cfg)
                n_edl = central_difference(
                    lambda a: edl_batch(a[None, :], [label], cfg)[0][0], alpha
                )
                worst["edl"] = max(worst["edl"], worst_relative_error(g_edl[0], n_edl))
                _, g_ug = ug_batch(alpha[None, :], cfg)
                n_ug = central_difference(
                    lambda a: ug_batch(a[None, :], cfg)[0][0], alpha
                )
                worst[f"ug-{mode}"] = max(
                    worst[f"ug-{mode}"], worst_relative_error(g_ug[0], n_ug)
                )
        ok = all(v < 1e-5 for v in worst.values())
        detail = "loss gradients vs central differences at 100 points: " + ", ".join(
            f"{k} {v:.1e}" for k, v in worst.items()
        ) + " (all < 1e-5)"
        report(4, ok, detail)
        assert ok, detail

    def test_weight_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        model = EvidentialMLP.create(2, 3, hidden=(4,), seed=1021)
        x_sup = rng.normal(size=(6, 2))
        y_sup = rng.integers(1, 4, size=6)
        x_unsup = rng.normal(size=(5, 2))
        cfg = LossConfig(mode="variance", lambda_reg=0.4, lambda_a=0.05, lambda_e=1.0)
        # keep clear of the ReLU kink so central differences stay valid
        assert np.abs(x_sup @ model.weights[0] + model.biases[0]).min() > 1e-2

        def objective(m):
            sup, _ = edl_batch(m.forward_batch(x_sup), y_sup, cfg)
            ug, _ = ug_batch(m.forward_batch(x_unsup), cfg)
            return sup.mean() + ug.mean()

        alpha_s, acts_s, act_s = model._forward_cached(x_sup)
        alpha_u, acts_u, act_u = model._forward_cached(x_unsup)
        _, da_s = edl_batch(alpha_s, y_sup, cfg)
        _, da_u = ug_batch(alpha_u, cfg)
        gw_s, gb_s = model.alpha_gradient_to_param_gradients(
            da_s / x_sup.shape[0], alpha_s, acts_s, act_s
        )
        gw_u, gb_u = model.alpha_gradient_to_param_gradients(
            da_u / x_unsup.shape[0], alpha_u, acts_u, act_u
        )
        analytic = [a + b for a, b in zip(gw_s, gw_u)] + [
            a + b for a, b in zip(gb_s, gb_u)
        ]

        worst = 0.0
        params = list(model.weights) + list(model.biases)
        for p_idx, param in enumerate(params):
            numeric = np.empty_like(param)
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + FD_STEP
                up = objective(model)
                param[idx] = orig - FD_STEP
                down = objective(model)
                param[idx] = orig
                numeric[idx] = (up - down) / (2.0 * FD_STEP)
            worst = max(worst, worst_relative_error(analytic[p_idx], numeric))
        ok = worst < 1e-4
        detail = (
            f"end-to-end weight gradients on a 2-4-3 model: worst relative "
            f"error {worst:.1e} (< 1e-4)"
        )
        report(4, ok, detail)
        assert ok, detail


class TestCriterion5:
    def test_auroc_equals_pair_counting(self):
        rng = np.random.default_rng(11)
        mismatches = 0
        for _ in range(100):
            n = int(rng.integers(2, 201))
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            scores = rng.integers(0, 12, size=n).astype(np.float64)
            if auroc(scores, labels) != brute_force_auroc(scores, labels):
                mismatches += 1
        ok = mismatches == 0
        detail = (
            f"rank AUROC vs brute-force pair counting on 100 tied integer "
            f"instances (n <= 200): {mismatches} mismatches (exact equality)"
        )
        report(5, ok, detail)
        assert ok, detail


class TestCriterion6:
    def test_selection_hand_traces(self):
        ids = np.arange(1, 7)
        eu = np.array([0.1, 0.9, 0.8, 0.7, 0.3, 0.2])
        au = np.array([0.5, 0.1, 0.9, 0.8, 0.2, 0.6])
        two_step = _pick_uncertain(_eu_order(ids, eu), ids, au, b_u=2, kappa=2)
        # EU keeps {2,3,4,5}; AU picks 3 (0.9) then 4 (0.8)
        trace_a = list(two_step) == [3, 4]

        tie_eu = np.array([0.5, 0.5, 0.9, 0.2, 0.9, 0.1])
        tie_au = np.array([0.0, 0.0, 0.3, 0.0, 0.2, 0.0])
        tied = _pick_uncertain(_eu_order(ids, tie_eu), ids, tie_au, b_u=2, kappa=1)
        trace_b = list(tied) == [3, 5]  # equal EU resolved by ascending id

        certain_eu = np.array([0.5, 0.4, 0.6, 0.7, 0.8, 0.05])
        certain = _pick_certain_tail(_eu_order(ids, certain_eu), ids, b_c=1)
        trace_c = list(certain) == [6]

        tail_ids = np.arange(1, 4)
        tail_ties = _pick_certain_tail(_eu_order(tail_ids, np.array([0.2, 0.2, 0.9])), tail_ids,
                                       b_c=1)
        trace_d = list(tail_ties) == [2]  # tail read of the shared order

        balanced_ids = np.arange(1, 5)
        balanced = _pick_certain_balanced_tail(
            _eu_order(balanced_ids, np.array([0.1, 0.2, 0.3, 0.05])),
            balanced_ids,
            predicted=np.array([1, 1, 2, 2]),
            b_c=2,
            num_classes=2,
        )
        trace_e = sorted(balanced) == [1, 4]  # one least-EU pick per class

        ok = all((trace_a, trace_b, trace_c, trace_d, trace_e))
        detail = (
            "hand traces: two-step [3,4] "
            f"{'ok' if trace_a else 'BAD'}, EU ties [3,5] {'ok' if trace_b else 'BAD'}, "
            f"certainty [6] {'ok' if trace_c else 'BAD'}, tail ties [2] "
            f"{'ok' if trace_d else 'BAD'}, balanced [1,4] {'ok' if trace_e else 'BAD'}"
        )
        report(6, ok, detail)
        assert ok, detail

    def test_one_epistemic_sort_per_round(self):
        spec = DomainSpec(
            num_classes=2,
            feature_dim=2,
            samples_per_domain=80,
            class_scale=0.7,
            shift_rotation_degrees=20.0,
            seed=0,
        )
        source, target = generate_domain_pair(spec)
        pool = split_pools(source, target, budget_fraction=0.1)
        model = EvidentialMLP.create(2, 2, hidden=(8,), seed=1)
        plans = parse_config(
            {
                "sampling": {
                    "plans": [
                        {"round_index": 1, "b_u": 4, "b_c": 4, "kappa": 2},
                        {"round_index": 2, "b_u": 4, "b_c": 4, "kappa": 2},
                    ]
                }
            }
        ).resolved_plans()
        report_obj = run_ada(
            model,
            pool,
            TrainConfig(epochs=6, batch_size=16, learning_rate=0.05, seed=2),
            LossConfig(),
            plans,
            [3, 5],
            us_enabled=True,
            cs_enabled=True,
        )
        ok = report_obj.eu_sorts_per_round == [1, 1]
        detail = (
            f"epistemic sorts per combined round: {report_obj.eu_sorts_per_round} "
            "(exactly one shared sort each)"
        )
        report(6, ok, detail)
        assert ok, detail


class TestCriterion7:
    def test_ablation_ordering(self, desk_study):
        rows, elapsed = desk_study
        means = {
            name: float(np.mean([r.final_accuracy for r in reports]))
            for name, reports in rows.items()
        }
        finals = {
            name: np.array([r.final_accuracy for r in reports])
            for name, reports in rows.items()
        }
        ug_gain = finals["+UG"] - finals["source-only"]
        us_gain = finals["+UG+US"] - finals["+UG"]
        cs_gain = finals["+UG+US+CS"] - finals["+UG+US"]
        ordered = means["source-only"] < means["+UG"] < means["+UG+US"]
        paired = np.sum(ug_gain > 0) > 5 and np.sum(us_gain > 0) > 5
        cs_safe = means["+UG+US+CS"] >= means["+UG+US"] - 0.005
        ok = ordered and paired and cs_safe and elapsed < 600.0
        detail = (
            f"final accuracy means: source {means['source-only']:.4f} < "
            f"+UG {means['+UG']:.4f} < +UG+US {means['+UG+US']:.4f}; "
            f"+UG+US+CS {means['+UG+US+CS']:.4f} >= +UG+US - 0.005; paired wins "
            f"UG {np.sum(ug_gain > 0)}/10 (mean {ug_gain.mean():+.4f}), "
            f"US {np.sum(us_gain > 0)}/10 (mean {us_gain.mean():+.4f}), "
            f"CS mean {cs_gain.mean():+.4f}; {elapsed:.0f}s (< 600s)"
        )
        report(7, ok, detail)
        assert ok, detail


class TestCriterion8:
    def test_misclassification_auroc_direction(self, desk_study):
        rows, _ = desk_study
        reports = rows["+UG+US"]
        eu = [r.auroc_epistemic for r in reports]
        au = [r.auroc_aleatoric for r in reports]
        defined = all(v is not None for v in eu + au)
        eu_mean = float(np.mean(eu)) if defined else float("nan")
        au_mean = float(np.mean(au)) if defined else float("nan")
        ok = defined and eu_mean > 0.55 and au_mean > 0.55
        detail = (
            f"misclassification AUROC at the mid-training snapshot over 10 "
            f"seeds: EU {eu_mean:.3f}, AU {au_mean:.3f} (both > 0.55)"
        )
        report(8, ok, detail)
        assert ok, detail


class TestCriterion9:
    def test_pseudo_labels_beat_model_accuracy(self, desk_study):
        rows, _ = desk_study
        reports = rows["+UG+US+CS"]
        wins = sum(
            1
            for r in reports
            if r.pseudo_label_accuracy is not None
            and r.pseudo_label_accuracy > r.model_accuracy_on_unlabeled
        )
        pseudo = float(np.mean([r.pseudo_label_accuracy for r in reports]))
        model_acc = float(np.mean([r.model_accuracy_on_unlabeled for r in reports]))
        ok = wins >= 9
        detail = (
            f"certainty-sampled pseudo labels beat pool accuracy in {wins}/10 "
            f"seeds (mean {pseudo:.3f} vs {model_acc:.3f})"
        )
        report(9, ok, detail)
        assert ok, detail


class TestCriterion10:
    def test_overlapping_pair_ranked_first(self):
        # Four well-separated clusters on a radius-8 circle plus a fifth
        # placed 0.7 units from the fourth. A lightly trained model keeps
        # probability mass split across the overlapping pair, which drives
        # their class correlation below every other pair's.
        means = default_class_means(5, 2) * 2.0
        direction = means[4] - means[3]
        means[4] = means[3] + 0.7 * direction / np.linalg.norm(direction)
        wins = 0
        firsts = []
        for seed in range(10):
            spec = DomainSpec(
                num_classes=5,
                feature_dim=2,
                samples_per_domain=1500,
                class_means=tuple(map(tuple, means)),
                class_scale=1.1,
                seed=seed,
            )
            source, target = generate_domain_pair(spec)
            pool = SamplePool(
                source.features, source.labels, target.features, target.labels,
                budget_total=0,
            )
            model = EvidentialMLP.create(2, 5, hidden=(16,), seed=seed + 100)
            run_ada(
                model,
                pool,
                TrainConfig(
                    epochs=4, batch_size=32, learning_rate=0.03,
                    momentum=0.9, weight_decay=0.02, seed=seed + 200,
                ),
                LossConfig(),
                plans=[],
                schedule=[],
                ug_enabled=False,
            )
            pairs = rank_class_pairs(
                model.forward_batch(target.features), labels=target.labels
            )
            firsts.append((pairs[0][0], pairs[0][1]))
            wins += (pairs[0][0], pairs[0][1]) == (4, 5)
        ok = wins >= 9
        detail = (
            f"overlapping pair (4,5) ranked most correlated in {wins}/10 seeds "
            f"(firsts: {firsts})"
        )
        report(10, ok, detail)
        assert ok, detail
