"""The heap setting: the model's products, so ``run_seed`` and ``run_rows``
where it trains in the calling process, and the pool workers set glibc's
trim and mmap thresholds with ``mallopt`` for the rest of the process; a
caller that only waits for pool workers keeps its own, and nothing changes
where libc has no ``mallopt``.

glibc cannot report its thresholds, so each test probes the effect of the
mmap threshold (``blas_probe.heap_serves_large_blocks``) once, in a fresh
interpreter, where no earlier free has moved glibc's default threshold.
"""

import multiprocessing

import pytest

from blas_probe import HEAP_PROBE
from evidunc import enn
from test_blas_threads import run_script

pytestmark = pytest.mark.skipif(not HEAP_PROBE, reason="libc without mallinfo2")

# Records the probe at the first training forward this process runs, inside
# the scope of its first epoch.
PROBE_AT_FIRST_EPOCH = """
from blas_probe import heap_serves_large_blocks

probes, forward = [], enn.EvidentialMLP._forward_cached


def probed(self, x):
    if not probes:
        probes.append(heap_serves_large_blocks())
    return forward(self, x)


enn.EvidentialMLP._forward_cached = probed
"""


@pytest.mark.parametrize("run", ["experiments.run_seed(CONFIG, 0)",
                                 "experiments.run_rows([CONFIG])"], ids=["run_seed", "run_rows"])
def test_training_scopes_apply_the_heap_setting(tmp_path, run):
    got = run_script(PROBE_AT_FIRST_EPOCH + f"{run}\nprint(json.dumps(probes))", tmp_path,
                     EVID_NUM_WORKERS="1")
    assert got == [True]


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_workers_apply_the_heap_setting(tmp_path, method):
    got = run_script(
        f"""
        import multiprocessing
        from blas_probe import heap_serves_large_blocks, prefix_heap, row_heap
        multiprocessing.set_start_method("{method}")
        # Pickled by name, so any start method finds them.
        experiments._prefix_task, experiments._row_task = prefix_heap, row_heap
        experiments._worker_count = lambda: 2
        workers = experiments.run_rows([CONFIG])
        print(json.dumps({{"workers": workers, "caller": heap_serves_large_blocks()}}))
        """,
        tmp_path,
    )
    assert got == {"workers": [[True, True]], "caller": False}


def test_no_op_without_mallopt(tmp_path):
    got = run_script(
        PROBE_AT_FIRST_EPOCH
        + """
enn._MALLOPT = ("no_such_symbol", enn._MALLOPT[1])
report, _, _, _ = experiments.run_seed(CONFIG, 0)
print(json.dumps([enn._heap_setting(), probes, report.final_accuracy > 0]))
""",
        tmp_path,
    )
    assert got == [False, [False], True]


def test_no_mallopt_returns_false_in_process(monkeypatch):
    # The setting is cached per process; clear it around the patched call.
    monkeypatch.setattr(enn, "_MALLOPT", ("no_such_symbol", enn._MALLOPT[1]))
    enn._heap_setting.cache_clear()
    try:
        assert enn._heap_setting() is False
    finally:
        enn._heap_setting.cache_clear()
