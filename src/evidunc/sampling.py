"""Two-step uncertainty sampling, certainty sampling, and the active
domain-adaptation loop.

Uncertainty sampling picks oracle queries in two steps: rank the unlabeled
target set by epistemic uncertainty, keep the top ``kappa * b_u`` as
candidates, then rank those by aleatoric uncertainty and query the top
``b_u``. The first step finds samples the model lacks knowledge about
(domain gaps); the second focuses the budget on samples that are also
intrinsically hard.

Certainty sampling is the mirror image: the ``b_c`` samples with the least
epistemic uncertainty adopt their own predictions as free pseudo labels.

Every round, whether run by ``run_ada`` or by the standalone
``uncertainty_sampling`` and ``certainty_sampling``, goes through one
function. It scores the unlabeled pool once and sorts it by EU once;
uncertain picks come from the head of that ordering and certain picks from
the tail, skipping ids already taken as uncertain. Within tied EU values
the ordering breaks ties by ascending sample id, which means the tail is
read largest-id-first; ties are broken by id either way, just read from
opposite ends. The round then acquires both sets from the pool.

``run_ada`` interleaves training epochs with sampling rounds and fills an
AdaRunReport with accuracies, AUROC snapshots, selection logs, and the
quantities the report consumers need. It is ``start_rows``, which trains up
to the first round, then ``finish``, which runs the rounds and the rest of
training. ``start_rows`` takes several settings of the US and CS switches,
since nothing before the first round depends on them, each finished from
its own copy of the started run; and it takes S seeds at once, one seed
being S = 1: their models train in lockstep along a leading seed axis,
while each seed's rounds, evaluation and summaries run on its own pool and
its own 2-D view of the stacked model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enn import Trainer, evaluate
from .losses import LossConfig
from .metrics import AdaRunReport, auroc, batch_uncertainties, class_level_uncertainty_summary, rank_class_pairs
from .dirichlet import predict_class_batch
from .pools import PoolError, SamplePool, oracle_budget
from .special import DomainError

__all__ = [
    "RoundPlan",
    "RoundLayoutError",
    "default_round_plans",
    "default_schedule",
    "round_problems",
    "uncertainty_sampling",
    "certainty_sampling",
    "run_ada",
    "start_rows",
    "eu_sort_count",
]

# Counts every epistemic-uncertainty sort performed; the single-sort-per-
# round property is asserted against deltas of this counter.
_EU_SORTS = 0


def eu_sort_count() -> int:
    return _EU_SORTS


@dataclass(frozen=True)
class RoundPlan:
    """One sampling round: how many uncertain and certain samples to take."""

    round_index: int
    b_u: int
    b_c: int
    kappa: int = 10

    def __post_init__(self):
        if self.round_index < 1:
            raise DomainError("round_index is 1-based")
        if self.b_u < 0 or self.b_c < 0:
            raise DomainError("selection counts must be nonnegative")
        if self.kappa < 1:
            raise DomainError("kappa must be at least 1")


def default_round_plans(num_target: int, num_rounds: int = 5, budget_fraction: float = 0.05,
                        kappa: int = 10):
    """Desk-scale round plans: the oracle budget of ``oracle_budget`` split
    evenly across rounds, with round k pseudo-labeling k% of the target set."""
    b_u = oracle_budget(budget_fraction, num_target) // num_rounds
    return [RoundPlan(round_index=k, b_u=b_u, b_c=(k * num_target) // 100, kappa=kappa)
            for k in range(1, num_rounds + 1)]


def default_schedule(num_rounds: int = 5):
    """The epochs of ``num_rounds`` sampling rounds, 10, 12, 14, ...: every
    second epoch from the middle of a 20-epoch run."""
    return [10 + 2 * i for i in range(num_rounds)]


class RoundLayoutError(DomainError, PoolError):
    """A round layout that cannot run, found before any training; a
    PoolError too, as a round that finds its pool too small raises one."""


def round_problems(plans: list, schedule: list, epochs: int, budget: int, num_target: int,
                   us_enabled: bool = True, cs_enabled: bool = False,
                   auroc_epoch: int | None = None) -> list:
    """Every reason a round layout cannot run, as (sampling key, message)
    pairs: one plan per scheduled epoch, strictly increasing epochs within
    the training run, uncertain picks within the oracle budget when
    uncertainty sampling is on, an AUROC epoch within the run, and each
    round's EU candidate window within the unlabeled target samples left of
    ``num_target`` by the earlier rounds (or the round fails mid-run)."""
    wanted = sum(p.b_u for p in plans)
    checks = [
        ("schedule", len(plans) != len(schedule),
         f"one round plan per scheduled epoch is required, got {len(plans)} for {schedule}"),
        ("schedule", any(a >= b for a, b in zip(schedule, schedule[1:])),
         f"epochs {schedule} must be strictly increasing"),
        ("schedule", any(not 1 <= e <= epochs for e in schedule),
         f"epochs {schedule} must fall within the training run, 1..{epochs}"),
        ("plans", us_enabled and wanted > budget,
         f"uncertainty sampling takes {wanted} oracle labels, more than the budget of {budget}"),
        ("auroc_epoch", auroc_epoch is not None and not 1 <= auroc_epoch <= epochs,
         f"epoch {auroc_epoch} must fall within the training run, 1..{epochs}"),
    ]
    problems = [(key, message) for key, failed, message in checks if failed]
    left = num_target
    for i, plan in enumerate(plans):
        window = plan.kappa * plan.b_u + (plan.b_c if cs_enabled else 0)
        if us_enabled and plan.b_u > 0 and window > left:
            problems.append(("plans", f"round {i + 1} selects from {window} unlabeled samples "
                             f"(kappa*b_u{' + b_c' if cs_enabled else ''}), "
                             f"but only {left} are left"))
        taken = plan.b_u * us_enabled
        left -= taken + (min(plan.b_c, left - taken) if cs_enabled else 0)
    return problems


def _eu_order(ids, eu) -> np.ndarray:
    """Permutation ordering samples by descending EU, ties by ascending id."""
    global _EU_SORTS
    _EU_SORTS += 1
    return np.lexsort((ids, -np.asarray(eu, dtype=np.float64)))


def _pick_uncertain(order, ids, au, b_u, kappa):
    if kappa * b_u > ids.size:
        raise PoolError(
            f"two-step selection needs kappa*b_u <= pool size "
            f"({kappa}*{b_u} > {ids.size})"
        )
    candidates = order[: kappa * b_u]
    au_order = np.lexsort((ids[candidates], -np.asarray(au)[candidates]))
    return ids[candidates[au_order[:b_u]]]


def _pick_certain_tail(order, ids, b_c, exclude=()):
    tail = ids[order[::-1]]
    return tail[~np.isin(tail, exclude)][:b_c]


def _pick_certain_balanced_tail(order, ids, predicted, b_c, num_classes, exclude=()):
    tail = order[::-1][~np.isin(ids[order[::-1]], exclude)]
    tail_classes = predicted[tail]
    in_quota = np.zeros(tail.size, dtype=bool)
    for c in range(1, num_classes + 1):
        in_quota[np.flatnonzero(tail_classes == c)[: b_c // num_classes]] = True
    # Each class's quota first, then the most certain of the rest.
    return ids[np.concatenate([tail[in_quota], tail[~in_quota]])[: min(b_c, tail.size)]]


@dataclass(frozen=True)
class _Round:
    """The scored unlabeled pool a round chose from, and what it took."""

    ids: np.ndarray
    au: np.ndarray
    eu: np.ndarray
    predicted: np.ndarray
    uncertain: np.ndarray
    certain: np.ndarray
    pseudo: np.ndarray


def _selection_round(pool: SamplePool, model, plan: RoundPlan, mode: str,
                     us: bool, cs: bool, class_balanced: bool = False) -> _Round:
    """Score the unlabeled pool once, sort it by EU once, take the uncertain
    picks from the head of that order and the certain picks from its tail,
    then acquire both: oracle labels for the uncertain, predictions as
    pseudo labels for the certain."""
    ids = pool.unlabeled_ids()
    alpha = model.forward_batch(pool.unlabeled_features())
    _, au, eu = batch_uncertainties(alpha, mode)
    predicted = predict_class_batch(alpha)
    want_us = us and plan.b_u > 0
    want_cs = cs and plan.b_c > 0
    uncertain = certain = pseudo = np.empty(0, dtype=np.int64)
    if want_us or want_cs:
        order = _eu_order(ids, eu)
    if want_us:
        uncertain = _pick_uncertain(order, ids, au, plan.b_u, plan.kappa)
        pool.acquire_with_oracle(uncertain)
    if want_cs:
        b_c = min(plan.b_c, ids.size - uncertain.size)
        if class_balanced:
            certain = _pick_certain_balanced_tail(
                order, ids, predicted, b_c, alpha.shape[1], exclude=uncertain
            )
        else:
            certain = _pick_certain_tail(order, ids, b_c, exclude=uncertain)
        pseudo = predicted[np.searchsorted(ids, certain)]
        pool.acquire_with_pseudo_labels(certain, pseudo)
    return _Round(ids, au, eu, predicted, uncertain, certain, pseudo)


def uncertainty_sampling(pool: SamplePool, model, plan: RoundPlan, mode: str = "variance") -> np.ndarray:
    """Standalone two-step round: select, query the oracle, charge budget."""
    return _selection_round(pool, model, plan, mode, us=True, cs=False).uncertain


def certainty_sampling(pool: SamplePool, model, plan: RoundPlan,
                       class_balanced: bool = False, mode: str = "variance"):
    """Standalone certainty round: pseudo-label the most certain samples.
    Returns the selected ids and the pseudo labels they received."""
    rnd = _selection_round(pool, model, plan, mode, us=False, cs=True,
                           class_balanced=class_balanced)
    return rnd.certain, rnd.pseudo


def _log_rows(round_index, selection_type, sample_ids, rnd: _Round, true_labels):
    return [
        {
            "round": round_index,
            "sample_id": int(sid),
            "selection_type": selection_type,
            "epistemic": float(rnd.eu[r]),
            "aleatoric": float(rnd.au[r]),
            "predicted_class": int(rnd.predicted[r]),
            "true_class": int(true_labels[sid]),
        }
        for sid, r in zip(sample_ids, np.searchsorted(rnd.ids, sample_ids))
    ]


def run_ada(
    model,
    pool: SamplePool,
    train_cfg,
    loss_cfg: LossConfig,
    plans,
    schedule,
    ug_enabled: bool = True,
    us_enabled: bool = True,
    cs_enabled: bool = False,
    class_balanced: bool = False,
    auroc_epoch: int | None = None,
) -> AdaRunReport:
    """Train with sampling rounds interleaved at the scheduled epochs.

    ``plans[i]`` executes right after epoch ``schedule[i]`` completes.
    Disabled steps (us/cs) leave their part of the round out; with no rounds
    at all this reduces to plain training. The AUROC snapshot is taken right
    before the round at ``auroc_epoch`` (default: the first scheduled epoch).
    ``loss_cfg.mode`` is the quantification mode of the whole run: the
    guidance loss, the selection scores, the AUROC snapshot and
    ``report.mode``.
    """
    switches = (us_enabled, cs_enabled, class_balanced)
    run = start_rows([model], [pool], [train_cfg], loss_cfg, plans, schedule, [switches],
                     ug_enabled=ug_enabled, auroc_epoch=auroc_epoch)
    [(report, _)] = run.finish(*switches)
    return report


def start_rows(models, pools, train_cfgs, loss_cfg: LossConfig, plans, schedule,
               rows, ug_enabled: bool = True, auroc_epoch: int | None = None) -> "_AdaRun":
    """Check the round layout of every ``(us_enabled, cs_enabled,
    class_balanced)`` row in ``rows`` on every seed, then train up to the
    first scheduled epoch; ``finish`` runs one row from there, on the
    returned run or on a copy of it. The other arguments are ``run_ada``'s,
    but ``models``, ``pools`` and ``train_cfgs`` hold one entry per seed,
    the configs equal but for their seeds.

    The S seeds train in lockstep: their 2-D models are stacked along a
    leading seed axis (see ``enn.Trainer``), so their pools must have equal
    sizes, and each model ``finish`` returns is a 2-D view of its seed's
    slice. Selection rounds, evaluation and the AUROC snapshot run seed by
    seed on those 2-D views. Stacking makes the given models views of their
    slices, so a run finished without copying leaves its trained weights in
    them, and its selections in the given pools.
    """
    plans, schedule = list(plans), list(schedule)
    for pool in pools:
        for us_enabled, cs_enabled, _ in rows:
            problems = round_problems(plans, schedule, train_cfgs[0].epochs,
                                      pool.budget_total - pool.budget_spent, pool.num_unlabeled,
                                      us_enabled, cs_enabled, auroc_epoch)
            if problems:
                raise RoundLayoutError("; ".join(f"{key}: {message}" for key, message in problems))
    run = _AdaRun(models, pools, train_cfgs, loss_cfg, plans, schedule, rows, ug_enabled,
                  auroc_epoch)
    run.train_to(run.split_epoch)
    return run


class _AdaRun:
    """The state a run carries from epoch to epoch: its seeds' pools, the
    trainer with their stacked model, momentum buffers and shuffle streams,
    and each seed's report so far. A pickled copy, which the experiment
    driver finishes each row from, is an independent run that continues from
    the same point; a deep copy finishes equal to it, as the tests check. It
    holds no per-seed views of the stacked model, which a copy would turn
    into arrays of their own; ``seed_views`` makes them when needed."""

    def __init__(self, models, pools, train_cfgs, loss_cfg: LossConfig, plans,
                 schedule, rows, ug_enabled: bool, auroc_epoch: int | None):
        if auroc_epoch is None:
            auroc_epoch = schedule[0] if schedule else None
        self.pools = list(pools)
        self.mode = loss_cfg.mode
        self.auroc_epoch = auroc_epoch
        self.rounds_by_epoch = dict(zip(schedule, plans))
        # Nothing before the first round depends on the US and CS switches.
        self.split_epoch = schedule[0] if schedule else train_cfgs[0].epochs
        self.reports = [AdaRunReport(mode=self.mode, seed=cfg.seed, auroc_epoch=auroc_epoch)
                        for cfg in train_cfgs]
        self.trainer = Trainer(models, self.pools, train_cfgs, loss_cfg, ug_enabled=ug_enabled)
        self.target_labels = [pool.true_target_labels() for pool in self.pools]
        self.rows = {tuple(row) for row in rows}  # the rows whose layout was checked
        self.finished = False

    def train_to(self, epoch: int) -> None:
        """Train through ``epoch``, taking the AUROC snapshot on the way; the
        round after ``epoch`` is left to the caller."""
        while self.trainer.epochs_done < epoch:
            sup, ug = self.trainer.run_epoch()
            done = self.trainer.epochs_done
            for report, s, u in zip(self.reports, sup, ug):
                report.loss_curve.append((done, s, u))
            if done == self.auroc_epoch:
                seeds = zip(self.reports, self.trainer.model.seed_views(), self.pools,
                            self.target_labels)
                for report, model, pool, labels in seeds:
                    _record_auroc(report, model, pool.target_features, labels, self.mode)

    def finish(self, us_enabled: bool, cs_enabled: bool, class_balanced: bool) -> list:
        """Run the rounds from the split epoch on with the rest of training,
        then fill in the closing fields of each seed's report; returns one
        (report, model) pair per seed. A run finishes once, and only a row
        ``start_rows`` checked: a second call or another row raises
        DomainError before it trains or selects anything."""
        if self.finished:
            raise DomainError("run already finished; finish a copy of the started run "
                              "for another row")
        row = (us_enabled, cs_enabled, class_balanced)
        if row not in self.rows:
            raise DomainError(f"row (us, cs, class_balanced) = {row} was not among the rows "
                              f"start_rows checked, {sorted(self.rows)}")
        self.finished = True
        models = self.trainer.model.seed_views()
        seeds = list(zip(models, self.pools, self.reports, self.target_labels))
        # Per seed, (pseudo-label hits, pseudo labels, model accuracy on the
        # unlabeled pool) of each round that pseudo-labeled.
        certain = [[] for _ in seeds]
        for epoch in range(self.split_epoch, self.trainer.cfg.epochs + 1):
            self.train_to(epoch)
            plan = self.rounds_by_epoch.get(epoch)
            if plan is None:
                continue
            for (model, pool, report, labels), tally in zip(seeds, certain):
                sorts_before = eu_sort_count()
                rnd = _selection_round(pool, model, plan, self.mode, us_enabled, cs_enabled,
                                       class_balanced)
                report.eu_sorts_per_round.append(eu_sort_count() - sorts_before)
                for kind, chosen in (("uncertain", rnd.uncertain), ("certain", rnd.certain)):
                    report.selection_log.extend(
                        _log_rows(plan.round_index, kind, chosen, rnd, labels)
                    )
                if rnd.certain.size:
                    tally.append((int((rnd.pseudo == labels[rnd.certain]).sum()),
                                  int(rnd.pseudo.size),
                                  float(np.mean(rnd.predicted == labels[rnd.ids]))))
                pool.check_invariants()
                report.round_accuracies.append(evaluate(model, pool.target_features, labels))
        return [(_close_report(*seed, tally), seed[0]) for seed, tally in zip(seeds, certain)]


def _close_report(model, pool: SamplePool, report: AdaRunReport, labels, certain) -> AdaRunReport:
    """Fill in the fields a finished run reports: final accuracy, budget,
    pseudo-label tallies and the class-level summaries, from one forward
    pass over each domain."""
    target = model.forward_batch(pool.target_features)
    report.class_uncertainty_target = class_level_uncertainty_summary(target)
    report.final_accuracy = float(np.mean(predict_class_batch(target) == labels))
    report.budget_spent = pool.budget_spent
    if certain:
        hits, totals, accuracies = zip(*certain)
        report.pseudo_label_accuracy = sum(hits) / sum(totals)
        report.model_accuracy_on_unlabeled = float(np.mean(accuracies))
    report.class_uncertainty_source = class_level_uncertainty_summary(
        model.forward_batch(pool.source_features))
    report.correlated_pairs = rank_class_pairs(target, labels=labels)
    report.validate()
    return report


def _record_auroc(report, model, features, labels, mode):
    alpha = model.forward_batch(features)
    _, au, eu = batch_uncertainties(alpha, mode)
    wrong = predict_class_batch(alpha) != labels
    if wrong.any() and not wrong.all():
        report.auroc_epistemic = auroc(eu, wrong)
        report.auroc_aleatoric = auroc(au, wrong)
