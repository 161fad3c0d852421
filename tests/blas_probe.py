"""Handles on the OpenBLAS that numpy's wheel bundles and on glibc's
malloc, for the BLAS thread and heap setting tests. They live in an
importable module so that pool workers resolve ``prefix_threads``,
``row_threads``, ``prefix_heap`` and ``row_heap`` by import under any start
method."""

import ctypes
import os
import pickle
from pathlib import Path

import numpy as np

from evidunc.enn import _OPENBLAS

LIBRARIES = sorted(Path(np.__file__).parent.parent.glob(_OPENBLAS[0]))

if LIBRARIES:
    _lib = ctypes.CDLL(str(LIBRARIES[0]), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    _lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    _lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


_libc = ctypes.CDLL(None)
HEAP_PROBE = hasattr(_libc, "mallinfo2")  # glibc 2.33 and later
if HEAP_PROBE:
    _libc.mallinfo2.restype = _MallInfo2
    _libc.malloc.argtypes, _libc.malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
    _libc.free.argtypes, _libc.free.restype = [ctypes.c_void_p], None


def heap_serves_large_blocks() -> bool:
    """Whether glibc's malloc serves a 30 MiB block from its heap, as under
    the heap setting's 32 MiB mmap threshold, rather than mapping it apart,
    as under the default threshold. Freeing a mapped block raises glibc's
    default threshold to its size, so probe once per process."""
    mapped = _libc.mallinfo2().hblks
    block = _libc.malloc(30 * 2**20)
    mapped = _libc.mallinfo2().hblks > mapped
    _libc.free(block)
    return not mapped


def prefix_heap(configs, seeds):
    """Stands in for ``experiments._prefix_task``: the state is whether the
    process that ran the task serves large blocks from its heap."""
    return pickle.dumps(heap_serves_large_blocks())


def row_heap(state, config, seeds, out_dir):
    """Stands in for ``experiments._row_task``: each seed's report is the
    probe of its prefix task's process."""
    return [pickle.loads(state)] * len(seeds)


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
    row."""
    return [max(pickle.loads(state), threads())] * len(seeds)
