"""Seeds, bulk stream keys, raw-word Bernoulli draws, and the thread fan-out."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tardos import ParameterError
from tardos.rng import (_stream_range, bernoulli, check_seed, fan_out, fan_out_iter, keys,
                        stream, thresholds)

U64 = 2 ** 64


def _numpy_keys(seed, tag, lo, hi):
    return np.array([np.random.SeedSequence(seed, spawn_key=(tag, j)).generate_state(
        2, np.uint64) for j in range(lo, hi)], dtype=np.uint64).reshape(-1, 2)


def _record(n, threads):
    """Run ``fan_out`` and return its result and the thread of every call."""
    calls, lock = [], threading.Lock()

    def fn(i):
        with lock:
            calls.append((i, threading.get_ident()))
        time.sleep(0.001)  # gives every worker time to start
        return i

    return fan_out(fn, n, threads), calls


@pytest.mark.parametrize("n, threads", [(1, 1), (1, 4), (3, 8), (2, 2), (7, 2),
                                        (10, 3), (12, 4), (5, 1)])
def test_each_index_filled_exactly_once(n, threads):
    # Workers take the next index as they free up, so which thread runs an
    # index is not fixed; only that each index runs once, on one of the workers.
    result, calls = _record(n, threads)
    assert result == list(range(n))
    assert sorted(i for i, _ in calls) == list(range(n))
    assert len({tid for _, tid in calls}) <= min(n, threads)


@pytest.mark.parametrize("n, threads", [(9, 1), (12, 2), (13, 3)])
def test_at_most_threads_plus_one_results_alive(n, threads):
    # The consumer is slow, so the workers run as far ahead as they may:
    # while it holds result i, no call past index i + threads has started.
    started, lock = [], threading.Lock()

    def fn(i):
        with lock:
            started.append(i)
        return i

    taken = []
    for i, value in enumerate(fan_out_iter(fn, n, threads)):
        time.sleep(0.005)
        with lock:
            assert max(started) <= i + threads, (i, started)
        taken.append(value)
    assert taken == list(range(n))
    assert sorted(started) == list(range(n))


def test_iterator_starts_no_call_before_the_first_result_is_asked_for():
    calls = []
    it = fan_out_iter(calls.append, 4, 2)
    time.sleep(0.005)
    assert calls == []
    assert list(it) == [None] * 4 and sorted(calls) == list(range(4))


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


def test_iterator_worker_exception_reaches_caller_and_cancels_the_rest():
    started = []

    def fn(i):
        started.append(i)
        if i == 2:
            raise ValueError("fn failed at 2")
        time.sleep(0.002)
        return i

    it = fan_out_iter(fn, 50, 2)
    assert [next(it), next(it)] == [0, 1]
    with pytest.raises(ValueError, match="fn failed at 2"):
        next(it)
    assert max(started) <= 3  # the last index submitted when index 2 failed
    assert list(it) == []


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5])
def test_seed_outside_u64_rejected(seed):
    # Masking to 64 bits would alias 2^64 + 5 with 5.
    with pytest.raises(ParameterError):
        stream(seed, 1)


def test_largest_seed_accepted():
    assert check_seed(2 ** 64 - 1) == 2 ** 64 - 1
    stream(2 ** 64 - 1, 1)


# Indices around 0, 2^32 (where an index takes a second 32-bit word) and 2^64.
_indices = st.one_of(st.integers(0, U64 - 1), st.integers(0, 64),
                     st.integers(2 ** 32 - 16, 2 ** 32 + 16), st.integers(U64 - 16, U64 - 1))


@given(seed=st.one_of(st.integers(0, U64 - 1), st.integers(0, 2 ** 32 + 1)),
       tag=st.integers(1, 5), lo=_indices, k=st.integers(0, 9))
def test_keys_equal_seed_sequence(seed, tag, lo, k):
    lo = min(lo, U64 - k)
    assert np.array_equal(keys(seed, tag, lo, lo + k), _numpy_keys(seed, tag, lo, lo + k))


@pytest.mark.parametrize("seed", [0, 2 ** 32, U64 - 1])
@pytest.mark.parametrize("lo, hi", [(0, 5), (2 ** 32 - 3, 2 ** 32 + 3),
                                    (U64 - 4, U64), (7, 7)])
def test_keys_pinned_cases(seed, lo, hi):
    got = keys(seed, 2, lo, hi)
    assert got.shape == (hi - lo, 2) and got.dtype == np.uint64
    assert np.array_equal(got, _numpy_keys(seed, 2, lo, hi))


@pytest.mark.parametrize("lo, hi", [(-1, 2), (5, 4), (0, U64 + 1)])
def test_keys_outside_u64_rejected(lo, hi):
    with pytest.raises(ParameterError):
        keys(0, 2, lo, hi)


def test_stream_range_draws_what_stream_draws():
    lo, hi = 2 ** 32 - 2, 2 ** 32 + 2
    got = [gen.random(5) for gen in _stream_range(9, 2, lo, hi)]
    assert np.array_equal(got, [stream(9, 2, j).random(5) for j in range(lo, hi)])


class _GivenWords:
    """Stands in for a Generator whose raw words are ``words``."""

    def __init__(self, words):
        self.bit_generator, self.words = self, words

    def random_raw(self, shape):
        return self.words.reshape(shape)


def _edge_probabilities(t, k):
    """p at t, 1 - t and 1, at k * 2^-53 (p * 2^53 an integer), and their neighbours."""
    ps = np.array([t, 1.0 - t, 1.0, k * 2.0 ** -53, 1.0 - k * 2.0 ** -53])
    ps = np.concatenate([ps, np.nextafter(ps, 0.0), np.nextafter(ps, 1.0)])
    return ps[(ps > 0.0) & (ps <= 1.0)]


@given(t=st.floats(1e-300, 0.5, exclude_max=True), k=st.integers(1, 2 ** 53 - 1),
       rows=st.integers(1, 4), seed=st.integers(0, U64 - 1))
def test_bernoulli_equals_float_compare(t, k, rows, seed):
    p = _edge_probabilities(t, k)
    thr = thresholds(p)
    # The compare is exact: the threshold is the largest word whose double
    # is below p, and the next word up (0 after the last word) is not.
    for word in (thr & ~np.uint64(2047), thr, thr + np.uint64(1)):
        u = (word >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        assert np.array_equal(bernoulli(_GivenWords(word), thr, p.size), u < p)
    gen, twin = stream(seed, 5, k), stream(seed, 5, k)
    assert np.array_equal(bernoulli(gen, thr, (rows, p.size)), twin.random((rows, p.size)) < p)
    assert np.array_equal(gen.random(3), twin.random(3))  # both consumed one word per bit


def test_probability_one_draws_only_ones():
    # A cutoff below 2^-53 lets a bias round to 1.0; u < 1 always holds.
    assert thresholds(np.array([1.0]))[0] == np.uint64(U64 - 1)
    gen, twin = stream(3, 5), stream(3, 5)
    p = np.array([1.0, 0.5, 1.0 - 2.0 ** -53])
    assert np.array_equal(bernoulli(gen, thresholds(p), (64, 3)), twin.random((64, 3)) < p)


@pytest.mark.parametrize("p", [0.0, 1.0 + 2.0 ** -52, -0.25, float("nan"), float("inf")])
def test_thresholds_outside_unit_interval_rejected(p):
    with pytest.raises(ParameterError):
        thresholds(np.array([0.5, p]))
