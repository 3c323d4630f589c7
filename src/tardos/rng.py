"""Reproducible random streams.

All randomness in the package flows through counter-based Philox generators
keyed by ``(master_seed, purpose_tag, index)``. Distinct purposes and distinct
indices give statistically independent streams, so any single object (one
codeword row, one simulation trial, one search block) can be regenerated in
isolation. Work on such objects is a function of the index, mapped by
:func:`fan_out`, so it can be split across threads without changing a single
bit of output.

The generator choice is documented behavior of this implementation, not a
canonical part of the scheme; only the distributional contracts are.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ParameterError

# Purpose tags. Never renumber: stream identities are part of the
# reproducibility contract for saved seeds.
TAG_BIAS = 1       # bias vector sampling
TAG_ROW = 2        # one codeword row per index
TAG_FORGE = 3      # pirate-copy coin flips
TAG_SEARCH = 4     # one randomized-search block per index
TAG_TRIAL = 5      # one simulation trial per index

SEED_LIMIT = 1 << 64  # seeds are stored as u64 in codebook files


def check_seed(seed):
    """``seed`` as an int in [0, 2^64); anything else is a ParameterError."""
    seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ParameterError("seed must be an integer in [0, 2^64)")
    return seed


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


def fan_out(fn, n, threads):
    """Return ``[fn(i) for i in range(n)]``, split over up to ``threads`` workers.

    Each worker maps one contiguous range of indices, inline for one worker or
    one index; an exception raised in a worker is raised here. Results come
    back in index order, so when ``fn(i)`` depends only on ``i`` the result
    does not depend on ``threads``.
    """
    threads = max(1, min(int(threads), n))
    if threads == 1:
        return [fn(i) for i in range(n)]
    starts = range(0, n, -(-n // threads))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        chunks = pool.map(lambda lo, hi: [fn(i) for i in range(lo, hi)],
                          starts, [*starts[1:], n])
        return [r for chunk in chunks for r in chunk]
