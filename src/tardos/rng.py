"""Reproducible random streams.

All randomness in the package flows through counter-based Philox generators
keyed by ``(master_seed, purpose_tag, index)``. Distinct purposes and distinct
indices give statistically independent streams, so any single object (one
codeword row, one simulation trial, one search block) can be regenerated in
isolation. Work on such objects is a function of the index, mapped by
:func:`fan_out` or :func:`fan_out_iter`, so it can be split across threads
without changing a single bit of output.

The stream of an index is the Philox generator that numpy keys from
``SeedSequence(seed, spawn_key=(tag, index))``. :func:`keys` derives those
keys for a whole range of indices in one numpy pass: it takes SeedSequence's
pool for the seed and the tag, and mixes in each index as SeedSequence does
for one index at a time, so a caller can re-key a single
Philox per index instead of opening a :func:`stream` each. Bernoulli bits come
from :func:`bernoulli`: an exact integer compare of raw Philox words with
:func:`thresholds`, which gives the same bits as ``gen.random(shape) < p``
without converting the words to floats. Both are exact: the bits are those
that :func:`stream` and ``random() < p`` give.

The generator choice is documented behavior of this implementation, not a
canonical part of the scheme; only the distributional contracts are.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ParameterError
from .model import _ABOVE_0, _integer, _probs

# Purpose tags. Never renumber: stream identities are part of the
# reproducibility contract for saved seeds.
TAG_BIAS = 1       # bias vector sampling
TAG_ROW = 2        # one codeword row per index
TAG_FORGE = 3      # pirate-copy coin flips
TAG_SEARCH = 4     # one randomized-search block per index
TAG_TRIAL = 5      # one simulation trial per index

SEED_LIMIT = 1 << 64  # seeds are stored as u64 in codebook files


def check_seed(seed):
    """``seed`` as an int in [0, 2^64), checked by :func:`model._integer` before any cast."""
    return _integer(seed, "seed", 0, SEED_LIMIT - 1)


def seed_sequence(seed, tag, index=0):
    """SeedSequence for purpose ``tag`` and stream ``index`` under ``seed``."""
    return np.random.SeedSequence(check_seed(seed), spawn_key=(int(tag), int(index)))


def stream(seed, tag, index=0):
    """Independent Generator for ``(seed, tag, index)``."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, tag, index)))


def substreams(seed, tag, index, n):
    """Split stream ``(seed, tag, index)`` into ``n`` independent generators.

    Used where one trial needs several internally independent sources (bias,
    coalition rows, forgery coins, innocent rows) that must not depend on how
    many draws each other source consumed.
    """
    children = seed_sequence(seed, tag, index).spawn(n)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


# numpy's SeedSequence (numpy/random/bit_generator.pyx) hashes each index word
# in with the INIT_A/MULT_A constants, mixes it into all four 32-bit pool words
# and reads the pool out with INIT_B/MULT_B; mod 2^32, on u64 arrays.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _hash_consts(init, mult, calls):
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _M32)
    return np.array(consts, dtype=np.uint64)


# Each hashmix call steps its constant, whatever the data, so the constants of
# call k are entries k and k + 1. The pool of (seed, tag) has made 4 seed
# calls, 12 pairwise mixes and 4 tag calls; the index's up to two words follow.
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 4 + 12 + 4 + 2 * _POOL)[4 + 12 + 4:, None]
_HASH_B = _hash_consts(_INIT_B, _MULT_B, _POOL)[:, None]


def _hashmix(value, h0, h1):
    value = (value ^ h0) * h1 & _M32
    return value ^ value >> 16


def _mix(x, y):
    out = (_MIX_L * x - _MIX_R * y) & _M32
    return out ^ out >> 16


def keys(seed, tag, lo, hi):
    """Philox keys of streams ``lo .. hi-1`` of ``tag``, as an (hi-lo, 2) u64 array.

    Row i equals ``seed_sequence(seed, tag, lo + i).generate_state(2, np.uint64)``,
    the key :func:`stream` gives its Philox. numpy mixes the seed and the tag
    into the pool of ``SeedSequence(seed, spawn_key=(tag,))``; each index then
    adds one mixing round per 32-bit word (two from 2^32 on), here for all
    indices at once.
    """
    if not 0 <= lo <= hi <= SEED_LIMIT:
        raise ParameterError("stream indices must lie in [0, 2^64)")
    if not 0 <= tag <= _M32:
        raise ParameterError("a purpose tag must be one 32-bit word")
    pool = np.random.SeedSequence(check_seed(seed), spawn_key=(tag,)).pool
    index = np.uint64(lo) + np.arange(hi - lo, dtype=np.uint64)
    # One column per index. In each index round, row i of the constants mixes
    # the word into pool word i.
    h = _HASH_A
    pool = _mix(pool.astype(np.uint64)[:, None], _hashmix(index & np.uint64(_M32), h[:4], h[1:5]))
    high = index >> np.uint64(32)
    pool = np.where(high > 0, _mix(pool, _hashmix(high, h[4:8], h[5:9])), pool)
    words = _hashmix(pool, _HASH_B[:4], _HASH_B[1:])
    return np.ascontiguousarray((words[0::2] | words[1::2] << np.uint64(32)).T)


def _stream_range(seed, tag, lo, hi):
    """Yield the generators of streams ``lo .. hi-1`` of ``tag``, in index order.

    Each draws what :func:`stream` gives for its index, but all of them are
    one Philox, re-keyed from :func:`keys` through its ``state`` setter, so a
    yielded generator is valid only until the next one is yielded.
    """
    gen = np.random.Generator(np.random.Philox(0))  # its key is replaced below
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys(seed, tag, lo, hi):
        state["state"]["key"] = key
        gen.bit_generator.state = state
        yield gen


def thresholds(p):
    """u64 thresholds ``thr``: a raw Philox word is ``<= thr`` exactly when its double is ``< p``.

    ``Generator.random`` makes the double ``u = (raw >> 11) * 2^-53`` of a raw
    word, and ``k = ceil(p * 2^53)`` is exact, so ``u < p`` holds exactly when
    ``raw >> 11 < k``, that is when ``raw <= (k - 1) << 11 | 2047``. ``p`` must
    lie in (0, 1]; p = 1 gives the largest word, so every bit is a one.
    """
    k = np.ceil(_probs(p, None, "p", _ABOVE_0, 1.0) * 2.0 ** 53) - 1.0
    return k.astype(np.uint64) << np.uint64(11) | np.uint64(2047)


def bernoulli(gen, thr, shape):
    """Bool array of ``shape``: the bits ``gen.random(shape) < p`` for ``thr = thresholds(p)``."""
    return gen.bit_generator.random_raw(shape) <= thr


def fan_out_iter(fn, n, threads, ahead=None):
    """Yield ``fn(0), fn(1), ..., fn(n-1)`` in index order, computed by up to ``threads`` workers.

    One worker, or one index, runs inline on the calling thread, one call per
    result taken. Otherwise a pool of workers takes the next index as each
    frees up, with at most ``ahead`` (default ``threads``) calls submitted
    ahead of the result last yielded; by default, then, at most
    ``threads + 1`` results are alive while the caller works on one. An
    exception raised in a worker is raised here, and calls not yet started
    are cancelled. When ``fn(i)`` depends only on ``i``, the results do not
    depend on ``threads``.
    """
    threads = max(1, min(threads, n))
    if threads == 1:
        yield from map(fn, range(n))
        return
    ahead = threads if ahead is None else ahead
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        window = deque(pool.submit(fn, i) for i in range(min(ahead, n)))
        for i in range(ahead, n + ahead):
            result = window.popleft().result()
            if i < n:
                window.append(pool.submit(fn, i))
            yield result
            del result  # not held while the next one is awaited
    finally:
        pool.shutdown(cancel_futures=True)


def fan_out(fn, n, threads):
    """Return ``[fn(i) for i in range(n)]``, computed as :func:`fan_out_iter` does.

    Every result is kept, so no window bounds how far the workers run ahead.
    """
    return list(fan_out_iter(fn, n, threads, ahead=n))
