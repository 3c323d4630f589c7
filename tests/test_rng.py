"""Seeds, and the thread fan-out shared by codeword rows and simulation trials."""

import threading
import time

import pytest

from tardos import ParameterError
from tardos.rng import check_seed, fan_out, stream


def _record(n, threads):
    """Run ``fan_out`` and return its result and the thread of every call."""
    calls, lock = [], threading.Lock()

    def fn(i):
        with lock:
            calls.append((i, threading.get_ident()))
        time.sleep(0.001)  # gives every worker time to start
        return i

    return fan_out(fn, n, threads), calls


def _ranges(calls):
    """The ranges each thread mapped: its runs of consecutive indices."""
    runs = {}
    for i, tid in calls:
        own = runs.setdefault(tid, [])
        if own and own[-1][1] == i:
            own[-1][1] = i + 1
        else:
            own.append([i, i + 1])
    return [tuple(r) for own in runs.values() for r in own]


@pytest.mark.parametrize("n, threads", [(1, 1), (1, 4), (3, 8), (2, 2), (7, 2),
                                        (10, 3), (12, 4), (5, 1)])
def test_each_index_filled_exactly_once(n, threads):
    _, calls = _record(n, threads)
    assert sorted(i for i, _ in calls) == list(range(n))
    ranges = _ranges(calls)
    assert len(ranges) <= min(n, threads)
    # Workers split [0, n) into ranges of ceil(n / workers) indices.
    step = -(-n // min(n, threads))
    assert all(lo % step == 0 and (hi % step == 0 or hi == n) for lo, hi in ranges)


@pytest.mark.parametrize("n, threads", [(0, 3), (1, 1), (1, 4), (3, 8), (7, 2),
                                        (10, 3), (12, 4)])
def test_results_come_back_in_index_order(n, threads):
    assert fan_out(lambda i: i * i, n, threads) == [i * i for i in range(n)]


@pytest.mark.parametrize("n, threads", [(1, 4), (9, 1)])
def test_one_worker_or_one_index_runs_inline(n, threads):
    result, calls = _record(n, threads)
    assert result == list(range(n))
    assert [i for i, _ in calls] == list(range(n))
    assert {tid for _, tid in calls} == {threading.get_ident()}


def test_worker_exception_reaches_caller():
    raised_in = []

    def fn(i):
        if i > 0:
            raised_in.append(threading.get_ident())
            raise ValueError(f"fn failed at {i}")
        return i

    with pytest.raises(ValueError, match="fn failed at"):
        fan_out(fn, 8, 4)
    assert raised_in and threading.get_ident() not in raised_in


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5])
def test_seed_outside_u64_rejected(seed):
    # Masking to 64 bits would alias 2^64 + 5 with 5.
    with pytest.raises(ParameterError):
        stream(seed, 1)


def test_largest_seed_accepted():
    assert check_seed(2 ** 64 - 1) == 2 ** 64 - 1
    stream(2 ** 64 - 1, 1)
