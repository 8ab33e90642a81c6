import numpy as np
import pytest

from nmflow.errors import ConfigParseError
from nmflow.numutil import (
    adaptive_simpson,
    bisect_root,
    chunk_indices,
    parallel_map,
    thread_count,
)


def test_bisect_root_polynomial():
    root = bisect_root(lambda x: x ** 3 - 2.0, 0.0, 2.0, tol=1e-12)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-11)
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)
    # A zero tolerance stops once the bracket is two adjacent floats.
    calls = []
    root = bisect_root(lambda x: calls.append(x) or np.sin(x), 3.0, 4.0, tol=0.0)
    assert root == pytest.approx(np.pi, abs=1e-15)
    assert len(calls) < 60


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(np.exp, 0.0, 1.0, tol=1e-12) == pytest.approx(np.e - 1.0, abs=1e-11)
    assert adaptive_simpson(lambda x: np.cos(7 * x), 0.0, 2.0, tol=1e-12) == pytest.approx(
        np.sin(14.0) / 7.0, abs=1e-10)
    assert adaptive_simpson(lambda x: x, 3.0, 3.0) == 0.0
    # Orientation: reversed limits flip the sign.
    assert adaptive_simpson(np.exp, 1.0, 0.0, tol=1e-12) == pytest.approx(1.0 - np.e, abs=1e-11)


def test_thread_count_env_cap(monkeypatch):
    monkeypatch.setenv("NMFLOW_THREADS", "1")
    assert thread_count() == 1
    monkeypatch.setenv("NMFLOW_THREADS", "0")
    assert thread_count() == 1
    for bad in ("not-a-number", "", "1.5"):
        monkeypatch.setenv("NMFLOW_THREADS", bad)
        with pytest.raises(ConfigParseError):
            thread_count()


def test_parallel_map_preserves_order():
    items = list(range(37))
    for workers in (1, 2, 4):
        assert list(parallel_map(lambda x: x * x, items, workers)) == [x * x for x in items]
        assert list(parallel_map(lambda x: x * x, iter(items), workers)) == [x * x for x in items]
        assert list(parallel_map(lambda x: -x, [], workers)) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_map_raises_at_the_failing_item(workers):
    # Of several failing items, the first in input order raises, whichever
    # call a worker ends first.
    def fn(x):
        if x in (5, 12):
            raise KeyError(x)
        return x

    with pytest.raises(KeyError) as err:
        parallel_map(fn, list(range(20)), workers=workers)
    assert err.value.args == (5,)


def test_parallel_map_single_worker_starts_no_pool(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert list(parallel_map(lambda x: x + 1, [1, 2, 3], workers=1)) == [2, 3, 4]


def test_chunk_indices_cover():
    pieces = list(chunk_indices(10, 3))
    assert pieces == [(0, 3), (3, 6), (6, 9), (9, 10)]
