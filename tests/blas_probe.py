"""Handles on the OpenBLAS that numpy's wheel bundles, for the BLAS thread
tests. They live in an importable module so that pool workers resolve
``prefix_threads`` and ``row_threads`` by import under any start method."""

import ctypes
import os
import pickle
from pathlib import Path

import numpy as np

from evidunc.experiments import _OPENBLAS

LIBRARIES = sorted(Path(np.__file__).parent.parent.glob(_OPENBLAS[0]))

if LIBRARIES:
    _lib = ctypes.CDLL(str(LIBRARIES[0]), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    _lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    _lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]


def threads() -> int:
    return _lib.scipy_openblas_get_num_threads64_()


def set_threads(n: int) -> None:
    _lib.scipy_openblas_set_num_threads64_(n)


def prefix_threads(configs, seeds):
    """Stands in for ``experiments._prefix_task``: the state is the BLAS
    thread count of the process that ran the task."""
    return pickle.dumps(threads())


def row_threads(state, config, seeds, out_dir):
    """Stands in for ``experiments._row_task``: each seed's report is the
    larger BLAS thread count of the processes that ran the prefix and the
    row, paired with no model."""
    return [(max(pickle.loads(state), threads()), None)] * len(seeds)
