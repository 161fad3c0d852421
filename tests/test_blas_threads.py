"""BLAS thread count: every library call that runs the model (``run_seed``,
``run_rows``, ``run_ada``, the sampling rounds, ``evaluate``, an epoch)
runs its matrix products on one thread, in the caller's process and in the
pool workers, and gives the caller's own count back when it returns or
raises. The results do not depend on the count.

Each test that sets the count runs in a fresh interpreter, because the
count applies to the whole process and the pytest process must keep its own.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from blas_probe import LIBRARIES, threads
from evidunc import enn
from test_cli import write_config

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

pytestmark = pytest.mark.skipif(not LIBRARIES, reason="numpy without its bundled OpenBLAS")

# Runs before each script, in a directory holding a small config.json.
PRELUDE = """
import json, os

from blas_probe import prefix_threads, row_threads, set_threads, threads
from evidunc import cli, enn, experiments
from evidunc.config import load_config

CONFIG = load_config("config.json")


def record_epochs(diverge_at=None):
    \"\"\"Wrap Trainer.run_epoch to record this process's BLAS thread count
    at each epoch, read at its first training forward, inside the scope
    run_epoch holds, into the list returned; with ``diverge_at``, the first
    seed's weights turn NaN before that epoch.\"\"\"
    counts, run_epoch = [], enn.Trainer.run_epoch
    forward = enn.EvidentialMLP._forward_cached

    def recorded(self):
        counts.append(None)
        if self.epochs_done + 1 == diverge_at:
            self.model.weights[0][0, 0, 0] = float("nan")
        return run_epoch(self)

    def forwarded(self, x):
        if counts[-1] is None:
            counts[-1] = threads()
        return forward(self, x)

    enn.Trainer.run_epoch = recorded
    enn.EvidentialMLP._forward_cached = forwarded
    return counts
"""


def run_script(body, tmp_path, document=(), **env):
    """Run PRELUDE plus body in a fresh interpreter, next to a config with
    seeds 0 and 1 updated by ``document``; returns the JSON value the script
    prints last."""
    write_config(tmp_path, **{"seeds": [0, 1], **dict(document)})
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)]), **env},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_workers_run_one_thread(tmp_path, method):
    got = run_script(
        f"""
        import multiprocessing
        multiprocessing.set_start_method("{method}")
        set_threads(2)
        # Pickled by name, so any start method finds them.
        experiments._prefix_task, experiments._row_task = prefix_threads, row_threads
        experiments._worker_count = lambda: 2
        print(json.dumps({{"workers": experiments.run_rows([CONFIG]), "caller": threads()}}))
        """,
        tmp_path,
    )
    assert got == {"workers": [[1, 1]], "caller": 2}


def test_library_callers_keep_their_count(tmp_path):
    got = run_script(
        """
        counts = []
        for n in (2, 3):
            set_threads(n)
            experiments.run_rows([CONFIG])
            counts.append(threads())
            experiments.run_seed(CONFIG, 0)
            counts.append(threads())
        os.environ["EVID_NUM_WORKERS"] = "2"
        experiments.run_rows([CONFIG])
        counts.append(threads())
        print(json.dumps(counts))
        """,
        tmp_path,
        EVID_NUM_WORKERS="1",
    )
    assert got == [2, 2, 3, 3, 3]


def test_in_process_training_runs_one_thread(tmp_path):
    got = run_script(
        """
        set_threads(2)
        epochs = record_epochs()
        got = []
        for run in (lambda: experiments.run_seed(CONFIG, 0), lambda: experiments.run_rows([CONFIG])):
            epochs.clear()
            run()
            got.append([len(epochs), sorted(set(epochs)), threads()])
        print(json.dumps(got))
        """,
        tmp_path,
        EVID_NUM_WORKERS="1",
    )
    # 6 epochs of one seed, then of a 2-seed chunk trained in lockstep.
    assert got == [[6, [1], 2], [6, [1], 2]]


def test_caller_keeps_its_count_when_the_run_raises(tmp_path):
    got = run_script(
        """
        set_threads(2)
        record_epochs(diverge_at=4)
        runs = {
            "run_seed diverges": lambda: experiments.run_seed(CONFIG, 0),
            "run_rows diverges": lambda: experiments.run_rows([CONFIG]),
        }
        got = {}
        for name, run in runs.items():
            try:
                run()
            except enn.TrainingDivergedError:
                got[name] = threads()

        def failing_task(*args):
            raise RuntimeError("task failed")

        experiments._row_task = failing_task
        try:
            experiments.run_rows([CONFIG])
        except RuntimeError:
            got["run_rows task raises"] = threads()
        print(json.dumps(got))
        """,
        tmp_path,
        EVID_NUM_WORKERS="1",
    )
    assert got == {"run_seed diverges": 2, "run_rows diverges": 2, "run_rows task raises": 2}


def test_results_do_not_depend_on_the_thread_count(tmp_path):
    # Large enough that OpenBLAS splits the inference forwards' hidden-layer
    # products (1000 x 64 x 64) between its threads when it has two.
    document = {"seeds": [0], "hidden_layers": [64, 64],
                "domain": {"num_classes": 3, "feature_dim": 2, "samples_per_domain": 1000}}
    got = run_script(
        """
        from pathlib import Path

        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes().hex()
                    for p in sorted(Path(root).rglob("*")) if p.is_file()}

        set_threads(2)
        epochs = record_epochs()
        real = enn._OPENBLAS
        runs = []
        for name, blas in (("inert", ("numpy.libs/no-such-library-*.so", *real[1:])),
                           ("active", real)):
            enn._OPENBLAS = blas
            epochs.clear()
            report, model, _, _ = experiments.run_seed(CONFIG, 0)
            experiments.run_rows([CONFIG], [name])
            runs.append({"epochs": sorted(set(epochs)), "report": report.to_json(),
                         "checkpoint": enn.checkpoint_text(model), "tree": tree(name)})
        inert, active = runs
        print(json.dumps({"epochs": [inert.pop("epochs"), active.pop("epochs")],
                          "files": len(inert["tree"]), "equal": inert == active}))
        """,
        tmp_path,
        document,
        EVID_NUM_WORKERS="1",
    )
    assert got == {"epochs": [[2], [1]], "files": 6, "equal": True}


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_cli_process_runs_one_thread(tmp_path, command):
    got = run_script(
        f"""
        set_threads(2)
        epochs = record_epochs()
        code = cli.main(["{command}", "--config", "config.json"])
        print(json.dumps([code, sorted(set(epochs)), threads()]))
        """,
        tmp_path,
        EVID_NUM_WORKERS="1",
    )
    assert got == [0, [1], 2]


def test_library_entry_points_run_their_products_on_one_thread(tmp_path):
    got = run_script(
        """
        import copy, ctypes, hashlib
        from evidunc import sampling
        from evidunc.losses import LossConfig
        from evidunc.pools import PoolError
        from evidunc.synthetic import DomainSpec, generate_domain_pair, split_pools

        products, alpha = [], enn.EvidentialMLP._alpha

        def observed(self, h, activations=None):
            products.append(threads())
            return alpha(self, h, activations)

        enn.EvidentialMLP._alpha = observed
        # 1200 unlabeled rows: with two threads, OpenBLAS splits the
        # 1200 x 64 x 64 products of a pool forward between them.
        source, target = generate_domain_pair(DomainSpec(num_classes=3, samples_per_domain=1200))
        model = enn.EvidentialMLP.create(2, 3, hidden=(64, 64), seed=0)
        diverging = copy.deepcopy(model)
        diverging.weights[0][0, 0] = float("nan")
        plan = sampling.RoundPlan(round_index=1, b_u=10, b_c=20)
        too_wide = sampling.RoundPlan(round_index=1, b_u=200, b_c=0)  # 10 * 200 > 1200 rows
        train = enn.TrainConfig(epochs=3, batch_size=64)

        def pool():
            return split_pools(source, target, budget_fraction=0.5)

        def ada(m):
            return sampling.run_ada(copy.deepcopy(m), pool(), train, LossConfig(), [plan], [2],
                                    cs_enabled=True)

        def epoch(m):
            return enn.Trainer([copy.deepcopy(m)], [pool()], [train], LossConfig()).run_epoch()

        calls = {
            "uncertainty_sampling": lambda: sampling.uncertainty_sampling(pool(), model, plan),
            "uncertainty_sampling raises": lambda: sampling.uncertainty_sampling(pool(), model,
                                                                                 too_wide),
            "certainty_sampling": lambda: sampling.certainty_sampling(pool(), model, plan),
            "evaluate": lambda: enn.evaluate(model, target.features, target.labels),
            "run_ada": lambda: ada(model),
            "run_ada raises": lambda: ada(diverging),
            "run_epoch": lambda: epoch(model),
            "run_epoch raises": lambda: epoch(diverging),
        }
        set_threads(2)
        got = {}
        for name, call in calls.items():
            products.clear()
            try:
                call()
                raised = None
            except (PoolError, enn.TrainingDivergedError) as exc:
                raised = type(exc).__name__
            got[name] = [sorted(set(products)), threads(), raised]

        def selected():
            return [sampling.uncertainty_sampling(pool(), model, plan).tolist(),
                    sampling.certainty_sampling(pool(), model, plan, class_balanced=True)[0].tolist(),
                    hashlib.sha256(model.forward_batch(target.features).tobytes()).hexdigest()]

        real = enn._OPENBLAS
        counts = []
        for blas in (real, ("numpy.libs/no-such-library-*.so", *real[1:])):
            enn._OPENBLAS = blas
            products.clear()
            picks = selected()
            counts.append(sorted(set(products)))
        enn._OPENBLAS = real
        got["one and two threads"] = [counts, picks == selected()]

        # Both scopes' libraries were looked up above; a scope now opens none.
        opened, cdll = [], ctypes.CDLL
        ctypes.CDLL = lambda *args, **kwargs: opened.append(args) or cdll(*args, **kwargs)
        products.clear()
        with enn._model_products():
            inside = threads()
        sampling.uncertainty_sampling(pool(), model, plan)
        ctypes.CDLL = cdll
        got["later scopes"] = [inside, sorted(set(products)), threads(), len(opened)]
        print(json.dumps(got))
        """,
        tmp_path,
    )
    assert got == {
        "uncertainty_sampling": [[1], 2, None],
        "uncertainty_sampling raises": [[1], 2, "PoolError"],
        "certainty_sampling": [[1], 2, None],
        "evaluate": [[1], 2, None],
        "run_ada": [[1], 2, None],
        "run_ada raises": [[1], 2, "TrainingDivergedError"],
        "run_epoch": [[1], 2, None],
        "run_epoch raises": [[1], 2, "TrainingDivergedError"],
        "one and two threads": [[[1], [2]], True],
        "later scopes": [1, [1], 2, 0],
    }


def test_overlapping_forwards_give_the_callers_count_back(tmp_path):
    # Thread "a" holds its forward inside the scope until "b" has entered
    # its own, and "b" leaves only after "a" has left. A scope that saved and
    # restored the count on its own would then leave the process at 1.
    got = run_script(
        """
        import threading
        import numpy as np

        entered = {name: threading.Event() for name in "ab"}
        a_left = threading.Event()
        inside, alpha = [], enn.EvidentialMLP._alpha

        def held(self, h, activations=None):
            name = threading.current_thread().name
            entered[name].set()
            if not (entered["b"] if name == "a" else a_left).wait(timeout=60):
                raise TimeoutError(f"thread {name} was left waiting")
            inside.append(threads())
            return alpha(self, h, activations)

        def run(name):
            if name == "b" and not entered["a"].wait(timeout=60):
                raise TimeoutError("thread a never entered")
            results[name] = model.forward_batch(x)
            if name == "a":
                a_left.set()

        model = enn.EvidentialMLP.create(8, 3, hidden=(16,), seed=0)
        x = np.random.default_rng(0).normal(size=(500, 8))
        set_threads(2)
        lone = model.forward_batch(x)
        enn.EvidentialMLP._alpha = held
        results = {}
        pair = [threading.Thread(target=run, args=(name,), name=name) for name in "ab"]
        for thread in pair:
            thread.start()
        for thread in pair:
            thread.join()
        print(json.dumps({"count": threads(), "inside": inside,
                          "equal": [results[n].tobytes() == lone.tobytes() for n in "ab"]}))
        """,
        tmp_path,
    )
    assert got == {"count": 2, "inside": [1, 1], "equal": [True, True]}


def test_helper_is_a_no_op_without_library_or_symbol(tmp_path):
    got = run_script(
        """
        pattern, setter, getter = enn._OPENBLAS
        set_threads(2)
        counts = []
        for patched in (("numpy.libs/no-such-library-*.so", setter, getter),
                        (pattern, "no_such_symbol", getter), (pattern, setter, "no_such_symbol")):
            enn._OPENBLAS = patched
            counts.append([enn._set_blas_threads(1), threads()])
        enn._OPENBLAS = (pattern, setter, getter)
        with enn._one_blas_thread():
            counts.append(threads())
        counts.append(threads())
        print(json.dumps(counts))
        """,
        tmp_path,
    )
    assert got == [[None, 2], [None, 2], [None, 2], 1, 2]


def test_helper_without_its_setter_changes_nothing_in_process(monkeypatch):
    # The library is loaded but lacks the setter: the loop passes over it.
    pattern, _, getter = enn._OPENBLAS
    before = threads()
    monkeypatch.setattr(enn, "_OPENBLAS", (pattern, "no_such_symbol", getter))
    assert enn._set_blas_threads(before + 1) is None
    assert threads() == before
