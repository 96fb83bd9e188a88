"""Memory a callable allocates, as ``tracemalloc`` counts it."""

import tracemalloc


def traced_bytes(fn) -> tuple[int, int]:
    """(held, peak): the bytes numpy and Python hold when `fn` returns, its
    result still alive, and the most they held while it ran."""
    tracemalloc.start()
    try:
        result = fn()  # alive while the held bytes are read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
