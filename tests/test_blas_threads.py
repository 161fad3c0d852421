"""BLAS thread count: one thread in the processes evidunc runs jobs in, the
caller's own count everywhere else.

Each test runs in a fresh interpreter, because the count applies to the
whole process and the pytest process must keep its own.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from blas_probe import LIBRARIES
from test_cli import write_config

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

pytestmark = pytest.mark.skipif(not LIBRARIES, reason="numpy without its bundled OpenBLAS")

# Runs before each script, in a directory holding a tiny config.json.
PRELUDE = """
import json, os

from blas_probe import prefix_threads, row_threads, set_threads, threads
from evidunc import cli, experiments
from evidunc.config import load_config

CONFIG = load_config("config.json")
"""


def run_script(body, tmp_path, **env):
    """Run PRELUDE plus body in a fresh interpreter, next to a config with
    seeds 0 and 1; returns the JSON value the script prints last."""
    write_config(tmp_path, seeds=[0, 1])
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


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_cli_process_runs_one_thread(tmp_path, command):
    got = run_script(
        f"""
        set_threads(2)
        code = cli.main(["{command}", "--config", "config.json"])
        print(json.dumps([code, threads()]))
        """,
        tmp_path,
        EVID_NUM_WORKERS="1",
    )
    assert got == [0, 1]


def test_helper_is_a_no_op_without_library_or_symbol(tmp_path):
    got = run_script(
        """
        pattern, symbol = experiments._OPENBLAS
        set_threads(2)
        counts = []
        for patched in (("numpy.libs/no-such-library-*.so", symbol), (pattern, "no_such_symbol")):
            experiments._OPENBLAS = patched
            experiments._one_blas_thread()
            counts.append(threads())
        experiments._OPENBLAS = (pattern, symbol)
        experiments._one_blas_thread()
        counts.append(threads())
        print(json.dumps(counts))
        """,
        tmp_path,
    )
    assert got == [2, 2, 1]
