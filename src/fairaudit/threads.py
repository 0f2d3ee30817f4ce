"""How fairaudit uses the CPUs: worker threads, and one BLAS thread where
more would only spin.

``WORKERS`` is the number of CPUs the process may run on. :func:`ordered_map`
runs independent items of work on up to that many threads and returns their
results in item order; the pairwise individual metrics and the mitigation
experiment use it.

:func:`one_blas_thread` keeps every OpenBLAS in the process on one thread
while it is entered; the mitigation experiment runs inside it. Its
synthetic designs are 10,500 rows by up to 9 columns: at that size a
second OpenBLAS thread computes a Newton product no faster, and between
calls it spin-waits for a whole core, which the experiment's worker
threads then cannot use. On the wide one-hot design of
``experiment --adult`` the effect is not measured. OpenBLAS splits a
product over its output, not over the summed dimension, so its results do
not depend on its thread count; nor do the results of :func:`ordered_map`
depend on ``WORKERS``, since each item is computed on its own.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor


def _usable_cpus():
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads for independent work: the CPUs this process may run on.
WORKERS = _usable_cpus()


def ordered_map(fn, items):
    """``[fn(item) for item in items]``, on up to ``WORKERS`` threads.

    Runs inline when one thread is enough. Every item runs; if any raise,
    the first failing item in item order raises its exception.
    """
    items = list(items)
    threads = min(WORKERS, len(items))
    if threads < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))


# (get, set) thread-count functions of an OpenBLAS, by export name: numpy's
# 64-bit-integer build, scipy's build, and a plain OpenBLAS.
_OPENBLAS_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _mapped_openblas(maps="/proc/self/maps"):
    """``(get, set)`` thread-count functions of every OpenBLAS mapped into
    the process; none where the maps cannot be read."""
    try:
        with open(maps, encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    import ctypes

    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping that is no loadable library
            continue
        for get_name, set_name in _OPENBLAS_NAMES:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return found


class _OneBlasThread:
    """The context manager :func:`one_blas_thread` returns.

    ``find()`` lists the ``(get, set)`` thread-count functions of the BLAS
    libraries, and is called on the first entry only. The first of any
    number of nested or concurrent entries records each library's thread
    count and sets it to 1; the last exit puts the recorded counts back.
    """

    def __init__(self, find):
        self._find = find
        self._libraries = None
        self._lock = threading.Lock()
        self._entries = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if self._entries == 0:
                if self._libraries is None:
                    self._libraries = self._find()
                self._saved = [(set_, get()) for get, set_ in self._libraries]
                for set_, _ in self._saved:
                    set_(1)
            self._entries += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._entries -= 1
            if self._entries == 0:
                for set_, count in self._saved:
                    set_(count)


_ONE_BLAS_THREAD = _OneBlasThread(_mapped_openblas)


def one_blas_thread():
    """Context manager: every OpenBLAS in the process runs on one thread
    while any thread is inside it, and gets its own thread count back when
    the last one leaves, also on an exception. Does nothing where no
    OpenBLAS is found."""
    return _ONE_BLAS_THREAD
