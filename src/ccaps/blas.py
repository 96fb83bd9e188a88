"""Sharing the loaded OpenBLAS library's threads among Python threads.

OpenBLAS's thread count is one process-wide setting. Code that runs BLAS
calls on several Python threads at once sets it so that the threads
together use no more BLAS threads than one call would have, and restores
it afterwards: a training step gives each of its two views half of them,
and kNN scoring runs up to one worker per BLAS thread, with one BLAS
thread each.
The library is found through ``ctypes`` among the shared objects the
process has mapped; where no OpenBLAS is loaded, :func:`split` changes
nothing and :func:`thread_count` reads one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

__all__ = ["openblas_threads", "thread_count", "split"]


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
