"""Seeds trained in lockstep: an S-seed job must write what S one-seed jobs
write, byte for byte; a diverged seed is named; the models given to
run_ada_rows train in place; and run_rows lays its jobs out as (UG group,
seed chunk) without letting the layout reach the outputs."""

import os

import numpy as np
import pytest

from evidunc import experiments
from evidunc.config import parse_config
from evidunc.enn import EvidentialMLP, TrainConfig, Trainer, TrainingDivergedError
from evidunc.experiments import MAX_LOCKSTEP_SEEDS, _seed_chunks, run_ablation, run_rows
from evidunc.losses import LossConfig
from evidunc.pools import SamplePool
from evidunc.sampling import run_ada_rows
from evidunc.special import DomainError
from test_config import tiny_document, tree_bytes

SEEDS = [3, 7, 11]
# Batch 12 on 80 source rows leaves a last minibatch of 8, and 7 steps of
# 12 unlabeled rows run past the 80 target rows, so the unlabeled stream
# reshuffles mid-epoch; after the first round 88 rows and 72 unlabeled do
# the same.
BATCH = 12
SAMPLES = 80


def lockstep_document(mode, ug):
    document = tiny_document(mode=mode, seeds=SEEDS)
    document["train"]["batch_size"] = BATCH
    document["domain"]["samples_per_domain"] = SAMPLES
    document["ablation"] = {"ug": ug, "us": False, "cs": False}
    return document


def group_configs(mode, ug):
    """The rows of one UG group: no rounds' picks, US only, and US with
    class-balanced CS."""
    config = parse_config(lockstep_document(mode, ug))
    return [
        config,
        config.with_switches(us=True),
        config.with_switches(us=True, cs=True, class_balanced=True),
    ]


class TestLockstepBytes:
    @pytest.mark.parametrize("ug", [True, False], ids=["ug", "no-ug"])
    @pytest.mark.parametrize("mode", ["variance", "entropy"])
    def test_lockstep_job_writes_what_one_seed_jobs_write(self, tmp_path, mode, ug):
        assert SAMPLES % BATCH and -(-SAMPLES // BATCH) * BATCH > SAMPLES
        configs = group_configs(mode, ug)
        rows = [str(tmp_path / "lockstep" / str(i)) for i in range(len(configs))]
        alone = [str(tmp_path / "alone" / str(i)) for i in range(len(configs))]
        together = experiments._run_job(configs, SEEDS, rows)
        apart = [experiments._run_job(configs, [seed], alone)[0] for seed in SEEDS]
        assert [[r.to_json() for r in reports] for reports in together] == [
            [r.to_json() for r in reports] for reports in apart
        ]
        got, want = tree_bytes(tmp_path / "lockstep"), tree_bytes(tmp_path / "alone")
        names = {"report.json", "selection_log.csv", "loss_curve.csv", "histograms.csv",
                 "checkpoint.json"}
        assert len(got) == len(configs) * len(SEEDS) * len(names)
        assert {path.rsplit("/", 1)[1] for path in got} == names
        assert got == want
        # The rows differ, so the copies each row finishes from are independent.
        assert len({got[f"{i}/seed7/checkpoint.json"] for i in range(len(configs))}) == 3

    def test_returned_models_are_two_dimensional(self):
        configs = group_configs("variance", True)
        for rows, source, _ in experiments._run_group(configs, SEEDS):
            for _, model in rows:
                assert [w.ndim for w in model.weights] == [2, 2]
                assert [b.ndim for b in model.biases] == [1, 1]
                assert model.forward_batch(source.features).shape == (SAMPLES, 2)


def small_pool(seed):
    rng = np.random.default_rng(seed)
    labels = np.arange(16) % 2 + 1
    return SamplePool(rng.normal(size=(16, 2)), labels, rng.normal(size=(12, 2)), labels[:12], 6)


def nan_before_epoch(monkeypatch, epoch, slot):
    """Make a non-finite weight appear in the seed slice ``slot`` of the
    model right before ``epoch`` trains."""
    run_epoch = Trainer.run_epoch

    def poisoned(self):
        if self.epochs_done == epoch - 1:
            self.model.weights[0][slot, 0, 0] = np.nan
        return run_epoch(self)

    monkeypatch.setattr(Trainer, "run_epoch", poisoned)


class TestDivergence:
    @pytest.mark.parametrize("seeds, slot", [([4, 7, 9], 1), ([7], 0)])
    def test_diverged_seed_and_epoch_are_named(self, monkeypatch, seeds, slot):
        nan_before_epoch(monkeypatch, epoch=4, slot=slot)
        config = parse_config(lockstep_document("variance", True))
        with pytest.raises(
            TrainingDivergedError,
            match=r"^seed 7: non-finite evidence for supervised sample 0 at epoch 4; ",
        ):
            experiments._run_group([config], seeds)

    def test_unequal_set_sizes_rejected_before_the_epoch(self):
        pools = [small_pool(seed) for seed in (0, 1)]
        pools[1].acquire_with_oracle([0, 1])
        models = [EvidentialMLP.create(2, 2, hidden=(4,), seed=s) for s in (0, 1)]
        before = [w.copy() for model in models for w in model.weights]
        trainer = Trainer(models, pools, [TrainConfig(seed=0), TrainConfig(seed=1)], LossConfig())
        with pytest.raises(DomainError, match=r"unlabeled\) \[\(16, 12\), \(18, 10\)\]$"):
            trainer.run_epoch()
        assert trainer.epochs_done == 0
        for w, b in zip([w for model in models for w in model.weights], before):
            np.testing.assert_array_equal(w, b)


class TestInPlaceTraining:
    @pytest.mark.parametrize("seeds", [[5], [5, 6, 7]], ids=["one-seed", "three-seeds"])
    def test_run_ada_rows_trains_the_given_models(self, seeds):
        models = [EvidentialMLP.create(2, 2, hidden=(4,), seed=s) for s in seeds]
        initial = [[a.tobytes() for a in m.weights + m.biases] for m in models]
        pools = [small_pool(seed) for seed in seeds]
        cfgs = [TrainConfig(epochs=2, batch_size=8, seed=seed) for seed in seeds]
        [pairs] = run_ada_rows(models, pools, cfgs, LossConfig(), [], [], [(False, False, False)])
        for model, (_, trained), before in zip(models, pairs, initial):
            assert [w.ndim for w in model.weights] == [2, 2]
            got = [a.tobytes() for a in model.weights + model.biases]
            assert got == [a.tobytes() for a in trained.weights + trained.biases]
            assert all(g != b for g, b in zip(got, before))


class TestJobLayout:
    @pytest.mark.parametrize("limit", [1, 3, MAX_LOCKSTEP_SEEDS])
    @pytest.mark.parametrize("groups", [1, 2, 5])
    def test_chunks(self, groups, limit):
        for num_seeds in (1, 2, 3, 7, 8, 9, 10, 16, 17, 30):
            seeds = tuple(range(100, 100 + num_seeds))
            for workers in (1, 2, 3, 8, 40):
                chunks = _seed_chunks(seeds, groups, workers, limit)
                sizes = [len(chunk) for chunk in chunks]
                assert sum(chunks, ()) == seeds  # contiguous, in order
                assert max(sizes) <= limit
                assert max(sizes) - min(sizes) <= 1
                # Enough jobs for the workers, where the seeds allow.
                assert groups * len(chunks) >= min(workers, groups * num_seeds)

    def test_reports_come_back_in_seed_order(self, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        seeds = [9, 2, 30, 4, 17, 5, 11, 8, 1, 0]
        config = parse_config(tiny_document(seeds=seeds))
        jobs = []
        run_job = experiments._run_job

        def recording(configs, chunk, out_dirs):
            jobs.append((len(configs), chunk))
            return run_job(configs, chunk, out_dirs)

        monkeypatch.setattr(experiments, "_run_job", recording)
        configs = [config.with_switches(ug=False), config, config.with_switches(cs=False)]
        results = run_rows(configs)
        assert [[r.seed for r in reports] for reports in results] == [seeds] * 3
        # Two groups, each of two chunks of 5, the larger group first.
        assert jobs == [(2, tuple(seeds[:5])), (2, tuple(seeds[5:])),
                        (1, tuple(seeds[:5])), (1, tuple(seeds[5:]))]

    def test_large_domains_train_fewer_seeds_together(self, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        chunks = []

        def recording(configs, chunk, out_dirs):
            chunks.append(chunk)
            return [[None] * len(configs) for _ in chunk]

        monkeypatch.setattr(experiments, "_run_job", recording)
        # Two features a sample, source and target: 32 bytes a sample per seed.
        for samples, limit in ((80, MAX_LOCKSTEP_SEEDS), (300_000, 3), (2_000_000, 1)):
            document = tiny_document(seeds=list(range(8)))
            document["domain"]["samples_per_domain"] = samples
            config = parse_config(document)
            assert experiments._lockstep_limit(config) == limit
            chunks.clear()
            run_rows([config])
            assert sum(chunks, ()) == config.seeds
            assert max(map(len, chunks)) == limit

    def test_output_tree_independent_of_worker_count(self, tmp_path, monkeypatch):
        # With 4 CPUs the cap decides: one chunk of 5 seeds per group for 1
        # and 2 workers, chunks of 3 and 2 for 3 workers.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        config = parse_config(tiny_document(seeds=[6, 1, 4, 0, 3]))
        trees = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("EVID_NUM_WORKERS", workers)
            run_ablation(config, out_dir=tmp_path / "out")
            trees.append(tree_bytes(tmp_path / "out"))
            (tmp_path / "out").rename(tmp_path / f"out-{workers}")
        assert len(trees[0]) == 1 + 5 * (2 + 5 * 5)
        assert trees[0] == trees[1] == trees[2]
