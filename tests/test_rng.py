"""Seeds, and the thread fan-out shared by codeword rows and simulation trials."""

import threading

import pytest

from tardos import ParameterError
from tardos.rng import check_seed, fan_out, stream


def _record(n, threads):
    """Run ``fan_out`` and return every (lo, hi, thread id) it called with."""
    calls, lock = [], threading.Lock()

    def fill(lo, hi):
        with lock:
            calls.append((lo, hi, threading.get_ident()))

    fan_out(fill, n, threads)
    return calls


@pytest.mark.parametrize("n, threads", [(1, 1), (1, 4), (3, 8), (2, 2), (7, 2),
                                        (10, 3), (12, 4), (5, 1)])
def test_each_index_filled_exactly_once(n, threads):
    calls = _record(n, threads)
    hits = [0] * n
    for lo, hi, _ in calls:
        assert 0 <= lo < hi <= n
        for j in range(lo, hi):
            hits[j] += 1
    assert hits == [1] * n
    assert len(calls) <= min(n, threads)


@pytest.mark.parametrize("n, threads", [(1, 4), (9, 1)])
def test_one_worker_or_one_index_runs_inline(n, threads):
    calls = _record(n, threads)
    assert [(lo, hi) for lo, hi, _ in calls] == [(0, n)]
    assert calls[0][2] == threading.get_ident()


def test_worker_exception_reaches_caller():
    raised_in = []

    def fill(lo, hi):
        if lo > 0:
            raised_in.append(threading.get_ident())
            raise ValueError(f"fill failed at {lo}")

    with pytest.raises(ValueError, match="fill failed at"):
        fan_out(fill, 8, 4)
    assert raised_in and threading.get_ident() not in raised_in


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5])
def test_seed_outside_u64_rejected(seed):
    # Masking to 64 bits would alias 2^64 + 5 with 5.
    with pytest.raises(ParameterError):
        stream(seed, 1)


def test_largest_seed_accepted():
    assert check_seed(2 ** 64 - 1) == 2 ** 64 - 1
    stream(2 ** 64 - 1, 1)
