"""Seeds trained in lockstep: an S-seed chunk must write what S one-seed
chunks write, byte for byte; a diverged seed is named; a run that
start_rows starts and finish finishes without copying trains the given
models in place; and run_rows lays its tasks out as one prefix task per
(UG group, seed chunk) and one row task per (row, seed chunk) without
letting the layout reach the outputs."""

import copy
import json
import os
import pickle

import numpy as np
import pytest

from evidunc import experiments
from evidunc.cli import main
from evidunc.config import parse_config
from evidunc.enn import EvidentialMLP, TrainConfig, Trainer, TrainingDivergedError, checkpoint_text
from evidunc.experiments import MAX_LOCKSTEP_SEEDS, _seed_chunks, run_ablation, run_rows
from evidunc.losses import LossConfig
from evidunc.pools import SamplePool
from evidunc.sampling import start_rows
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


def run_chunk(configs, seeds, out_dirs):
    """One seed chunk as run_rows runs it: its prefix task, then a row task
    per config; returns, per seed, the reports of the rows."""
    state = experiments._prefix_task(configs, seeds)
    rows = [[report for report, _ in experiments._row_task(state, c, seeds, out)]
            for c, out in zip(configs, out_dirs)]
    return [list(reports) for reports in zip(*rows)]


class TestLockstepBytes:
    @pytest.mark.parametrize("ug", [True, False], ids=["ug", "no-ug"])
    @pytest.mark.parametrize("mode", ["variance", "entropy"])
    def test_lockstep_job_writes_what_one_seed_jobs_write(self, tmp_path, mode, ug):
        assert SAMPLES % BATCH and -(-SAMPLES // BATCH) * BATCH > SAMPLES
        configs = group_configs(mode, ug)
        rows = [str(tmp_path / "lockstep" / str(i)) for i in range(len(configs))]
        alone = [str(tmp_path / "alone" / str(i)) for i in range(len(configs))]
        together = run_chunk(configs, SEEDS, rows)
        apart = [run_chunk(configs, [seed], alone)[0] for seed in SEEDS]
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
        state = experiments._prefix_task(configs, SEEDS)
        pools = pickle.loads(state).pools
        for config in configs:
            for (_, model), pool in zip(experiments._row_task(state, config, SEEDS, None), pools):
                assert [w.ndim for w in model.weights] == [2, 2]
                assert [b.ndim for b in model.biases] == [1, 1]
                assert model.forward_batch(pool.source_features).shape == (SAMPLES, 2)


class TestPickledState:
    @pytest.mark.parametrize("ug", [True, False], ids=["ug", "no-ug"])
    def test_pickled_prefix_finishes_like_its_deep_copy(self, ug):
        configs = group_configs("variance", ug)
        run = pickle.loads(experiments._prefix_task(configs, SEEDS))
        for config in configs:
            switches = config.ablation
            outputs = []
            for copied in (pickle.loads(pickle.dumps(run)), copy.deepcopy(run)):
                pairs = copied.finish(switches.us, switches.cs, switches.class_balanced)
                outputs.append([(r.to_json(), checkpoint_text(m)) for r, m in pairs])
            assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_copied_prefix_keeps_its_layers_in_one_vector(self, how):
        run = pickle.loads(experiments._prefix_task(group_configs("variance", True), SEEDS))
        copied = pickle.loads(pickle.dumps(run)) if how == "pickle" else copy.deepcopy(run)
        model, original = copied.trainer.model, run.trainer.model
        layers = model.weights + model.biases
        assert all(np.shares_memory(layer, model.vector) for layer in layers)
        assert not np.shares_memory(model.vector, original.vector)
        assert model.vector.tobytes() == original.vector.tobytes()
        assert [p.shape for p in layers] == [p.shape for p in original.weights + original.biases]
        views = model.seed_views()
        before = [[p.copy() for p in view.weights + view.biases] for view in views]
        copied.trainer.run_epoch()
        for slot, (view, old) in enumerate(zip(views, before)):
            got = view.weights + view.biases
            assert all(not np.array_equal(p, q) for p, q in zip(got, old))
            assert all(np.array_equal(p, layer[slot].reshape(p.shape))
                       for p, layer in zip(got, layers))
        # The original run did not move.
        assert original.vector.tobytes() != model.vector.tobytes()


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
        config = parse_config(lockstep_document("variance", True))
        # The first round follows epoch 3: epoch 2 diverges in the prefix
        # task, epoch 4 in the row task.
        for epoch in (2, 4):
            with monkeypatch.context() as patch:
                nan_before_epoch(patch, epoch=epoch, slot=slot)
                with pytest.raises(
                    TrainingDivergedError,
                    match=rf"^seed 7: non-finite evidence for supervised sample 0 at epoch {epoch}; ",
                ):
                    run_chunk([config], seeds, [None])

    def test_row_task_divergence_in_a_worker_is_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EVID_NUM_WORKERS", "2")
        poisoned_in = tmp_path / "pids"
        run_epoch = Trainer.run_epoch

        def poisoned(self):
            if self.epochs_done == 3:  # epoch 4, after the first round at 3
                self.model.weights[0][1, 0, 0] = np.nan
                with open(poisoned_in, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
            return run_epoch(self)

        monkeypatch.setattr(Trainer, "run_epoch", poisoned)
        document = dict(lockstep_document("variance", True), seeds=[4, 7, 9],
                        output_dir=str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        assert main(["ablate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "runtime failure: seed 7: non-finite evidence for supervised sample 0 at epoch 4; " in err
        assert str(os.getpid()) not in poisoned_in.read_text().split()
        assert (tmp_path / "out").exists() and not list((tmp_path / "out").rglob("aggregate.json"))

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
    def test_finish_trains_the_given_models(self, seeds):
        models = [EvidentialMLP.create(2, 2, hidden=(4,), seed=s) for s in seeds]
        initial = [[a.tobytes() for a in m.weights + m.biases] for m in models]
        pools = [small_pool(seed) for seed in seeds]
        cfgs = [TrainConfig(epochs=2, batch_size=8, seed=seed) for seed in seeds]
        run = start_rows(models, pools, cfgs, LossConfig(), [], [], [(False, False, False)])
        pairs = run.finish(False, False, False)
        for model, (_, trained), before in zip(models, pairs, initial):
            assert [w.ndim for w in model.weights] == [2, 2]
            # Views of slices of the stacked model's one parameter vector.
            for layer in model.weights + model.biases:
                assert np.shares_memory(layer, run.trainer.model.vector)
            got = [a.tobytes() for a in model.weights + model.biases]
            assert got == [a.tobytes() for a in trained.weights + trained.biases]
            assert all(g != b for g, b in zip(got, before))


PREFIX_TASK, ROW_TASK = experiments._prefix_task, experiments._row_task


def _log_task(*fields):
    with open(os.environ["TASK_LOG"], "a") as fh:
        fh.write(" ".join(fields) + "\n")


def _chunk_name(config, seeds):
    return f"{'ug' if config.ablation.ug else 'no-ug'}:{'-'.join(map(str, seeds))}"


def logged_prefix_task(configs, seeds):
    """experiments._prefix_task, logging when it returns. Pool workers find
    it by name in this module."""
    state = PREFIX_TASK(configs, seeds)
    _log_task("prefix-end", "-", _chunk_name(configs[0], seeds))
    return state


def logged_row_task(state, config, seeds, out_dir):
    """experiments._row_task, logging its start and its process id."""
    _log_task(f"row:{os.getpid()}", config.ablation.row_name(), _chunk_name(config, seeds))
    return ROW_TASK(state, config, seeds, out_dir)


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
        prefix_task = experiments._prefix_task

        def recording(configs, chunk):
            jobs.append((len(configs), chunk))
            return prefix_task(configs, chunk)

        monkeypatch.setattr(experiments, "_prefix_task", recording)
        configs = [config.with_switches(ug=False), config, config.with_switches(cs=False)]
        results = run_rows(configs)
        assert [[r.seed for r in reports] for reports in results] == [seeds] * 3
        # Two groups, each of two chunks of 5, the larger group first.
        assert jobs == [(2, tuple(seeds[:5])), (2, tuple(seeds[5:])),
                        (1, tuple(seeds[:5])), (1, tuple(seeds[5:]))]

    def test_large_domains_train_fewer_seeds_together(self, monkeypatch):
        monkeypatch.setenv("EVID_NUM_WORKERS", "1")
        chunks = []

        def recording(configs, chunk):
            chunks.append(chunk)
            return b""

        monkeypatch.setattr(experiments, "_prefix_task", recording)
        monkeypatch.setattr(experiments, "_row_task",
                            lambda state, c, chunk, out: [(None, None)] * len(chunk))
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

    @pytest.mark.parametrize("workers, chunks", [("1", 1), ("2", 1), ("3", 2)])
    def test_prefix_task_per_chunk_then_row_tasks(self, tmp_path, monkeypatch, workers, chunks):
        # With 4 usable CPUs: one chunk of 5 seeds per group for 1 and 2
        # workers, chunks of 3 and 2 for 3 workers.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setenv("EVID_NUM_WORKERS", workers)
        monkeypatch.setenv("TASK_LOG", str(tmp_path / "tasks.log"))
        monkeypatch.setattr(experiments, "_prefix_task", logged_prefix_task)
        monkeypatch.setattr(experiments, "_row_task", logged_row_task)
        config = parse_config(tiny_document(seeds=[6, 1, 4, 0, 3]))
        run_ablation(config, out_dir=tmp_path / "out")
        log = [line.split() for line in (tmp_path / "tasks.log").read_text().splitlines()]
        prefixes = [chunk for event, _, chunk in log if event == "prefix-end"]
        rows = [(name, chunk) for event, name, chunk in log if event.startswith("row:")]
        assert len(prefixes) == len(set(prefixes)) == 2 * chunks
        assert len(rows) == len(set(rows)) == 5 * chunks
        for n, (event, _, chunk) in enumerate(log):
            if event.startswith("row:"):  # its prefix task has returned
                assert ["prefix-end", "-", chunk] in log[:n]
        # One worker runs every task in this process, more in pool workers.
        pids = {int(event.split(":")[1]) for event, _, _ in log if event.startswith("row:")}
        assert (pids == {os.getpid()}) == (workers == "1")

    def test_workers_are_the_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("EVID_NUM_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert experiments._worker_count() == 1
        monkeypatch.setenv("EVID_NUM_WORKERS", "4")
        assert experiments._worker_count() == 1
        monkeypatch.delattr(os, "sched_getaffinity")  # platforms without it
        assert experiments._worker_count() == 4
        monkeypatch.delenv("EVID_NUM_WORKERS")
        assert experiments._worker_count() == 8

    def test_output_tree_independent_of_worker_count(self, tmp_path, monkeypatch):
        # With 4 usable CPUs the cap decides: one chunk of 5 seeds per group
        # for 1 and 2 workers, chunks of 3 and 2 for 3 workers.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        config = parse_config(tiny_document(seeds=[6, 1, 4, 0, 3]))
        trees = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("EVID_NUM_WORKERS", workers)
            run_ablation(config, out_dir=tmp_path / "out")
            trees.append(tree_bytes(tmp_path / "out"))
            (tmp_path / "out").rename(tmp_path / f"out-{workers}")
        assert len(trees[0]) == 1 + 5 * (2 + 5 * 5)
        assert trees[0] == trees[1] == trees[2]
