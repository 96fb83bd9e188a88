"""Memory a callable allocates, as ``tracemalloc`` counts it."""

import tracemalloc


def traced_bytes(fn) -> tuple[int, int]:
    """(held, peak): the bytes numpy and Python hold when `fn` returns, its
    result still alive, and the most they held while it ran."""
    return traced_steps(lambda _: fn())[0]


def traced_steps(*steps) -> list[tuple[int, int]]:
    """(held, peak) of each step under one trace, counted from its start: each
    step is called with the result of the one before (None for the first),
    which stays alive until the step returns; peak is the most held while
    that step ran."""
    tracemalloc.start()
    try:
        result, figures = None, []
        for step in steps:
            tracemalloc.reset_peak()
            result = step(result)  # the last result is alive while the held bytes are read
            figures.append(tracemalloc.get_traced_memory())
        return figures
    finally:
        tracemalloc.stop()
