"""Sharing the loaded OpenBLAS library's threads among Python threads.

OpenBLAS's thread count is one process-wide setting. Code that runs BLAS
calls on several Python threads at once sets it so that the threads
together use no more BLAS threads than one call would have, and restores
it afterwards: a training step gives each of its two views half of them,
feature extraction each half of a batch, and kNN scoring runs up to one
worker per BLAS thread, with one BLAS thread each. :func:`run` runs such
jobs, and :func:`even_blocks` cuts the work into them (and the convs'
rows into blocks of whole images).
The library is found through ``ctypes`` among the shared objects the
process has mapped; where no OpenBLAS is loaded, :func:`split` changes
nothing and :func:`thread_count` reads one.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
from concurrent.futures import wait

__all__ = ["openblas_threads", "thread_count", "split", "run", "even_blocks"]


@functools.cache
def openblas_threads():
    """(get, set) of the loaded OpenBLAS library's thread count, or None."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


def thread_count() -> int:
    """OpenBLAS's thread count, or 1 where no OpenBLAS is loaded."""
    blas = openblas_threads()
    return 1 if blas is None else blas[0]()


@contextlib.contextmanager
def split(parts: int):
    """Share the OpenBLAS threads among `parts` concurrent Python threads,
    at least one each, until the block exits; then restore the count."""
    blas = openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(max(1, before // parts))
    try:
        yield
    finally:
        put(before)


def run(pool, *jobs) -> list:
    """Run ``jobs[0]()`` here and the other jobs on `pool`, each in a copy of
    this thread's context (a worker sees the caller's ``no_grad()``); return
    their results in job order once all have ended. An error from ``jobs[0]``
    wins; else the first worker's error, in job order, is raised as itself."""
    futures = [pool.submit(contextvars.copy_context().run, job) for job in jobs[1:]]
    try:
        first = jobs[0]()
    finally:
        wait(futures)  # no job outlives this call
    return [first] + [future.result() for future in futures]


def even_blocks(n: int, most: int) -> list[tuple[int, int]]:
    """(lo, hi) ranges cutting ``range(n)`` into as few blocks as hold at most
    `most` items each (one, at least), evened out: no narrow last block, whose
    GEMM OpenBLAS may run through another kernel with other rounding."""
    count = -(-n // max(1, most))
    edges = [n * b // count for b in range(count + 1)]
    return list(zip(edges, edges[1:]))
