"""The two ways ``ccaps.blas`` splits work: even blocks, and jobs on threads.

``even_blocks`` cuts the convs' batches into blocks of whole images and
the kNN bank into blocks of rows; ``run`` runs a training step's two
views, kNN's workers and extraction's two halves of a batch.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ccaps import blas
from ccaps.autodiff import Tensor, no_grad


@pytest.mark.parametrize("n", [1, 5, 64, 256, 1000, 50_000])
@pytest.mark.parametrize("most", [0, 1, 7, 64, 6_250, 10**9])
def test_even_blocks_are_the_fewest_within_the_cap_and_even(n, most):
    blocks = blas.even_blocks(n, most)
    sizes = [hi - lo for lo, hi in blocks]
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
    assert max(sizes) <= max(1, most)  # within the cap, or one item
    assert len(blocks) == -(-n // max(1, most))  # and no more blocks than that needs


def test_a_50k_bank_takes_eight_blocks_of_6250_rows():
    assert blas.even_blocks(50_000, 6_250) == [(6_250 * b, 6_250 * (b + 1)) for b in range(8)]


def test_uneven_blocks_differ_by_one_item_and_grow_towards_the_end():
    assert blas.even_blocks(19, 10) == [(0, 9), (9, 19)]
    assert blas.even_blocks(5, 2) == [(0, 1), (1, 3), (3, 5)]


def test_run_returns_the_results_in_job_order_and_uses_the_pool():
    names = []

    def job(value):
        def call():
            names.append(threading.current_thread().name)
            return value

        return call

    with ThreadPoolExecutor(2, "blas-test") as pool:
        assert blas.run(pool, job("a"), job("b"), job("c")) == ["a", "b", "c"]
        assert blas.run(pool, job(1)) == [1]
    assert threading.current_thread().name in names
    assert sum(name.startswith("blas-test") for name in names) == 2


def test_the_callers_error_wins_once_the_workers_have_ended():
    ended = threading.Event()
    release = threading.Event()

    def worker():
        release.wait(10)
        ended.set()
        raise KeyError("worker")

    def caller():
        release.set()
        raise ValueError("caller")

    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(ValueError, match="caller"):
            blas.run(pool, caller, worker)
        assert ended.is_set()


def test_a_workers_error_is_raised_as_itself():
    error = RuntimeError("worker failed")

    def worker():
        raise error

    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(RuntimeError) as raised:
            blas.run(pool, lambda: 1, worker)
    assert raised.value is error


def test_a_worker_sees_the_callers_no_grad():
    def records_a_graph():
        return Tensor(np.ones(3), requires_grad=True).relu().needs_grad

    with ThreadPoolExecutor(1) as pool:
        assert blas.run(pool, records_a_graph, records_a_graph) == [True, True]
        with no_grad():
            assert blas.run(pool, records_a_graph, records_a_graph) == [False, False]
        # the worker's own context was never changed
        assert blas.run(pool, records_a_graph, records_a_graph) == [True, True]
