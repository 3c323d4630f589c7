"""Reproducible random streams.

All randomness in the package flows through counter-based Philox generators
keyed by ``(master_seed, purpose_tag, index)``. Distinct purposes and distinct
indices give statistically independent streams, so any single object (one
codeword row, one simulation trial, one search block) can be regenerated in
isolation and work can be split across threads without changing a single bit
of output.

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


def fan_out(fill, n, threads):
    """Call ``fill(lo, hi)`` over contiguous ranges that cover ``[0, n)``.

    One range per worker, inline for one worker or one index; an exception
    raised in a worker is raised here. ``fill`` writes only the slots of its
    own range, so the result does not depend on ``threads``.
    """
    threads = max(1, min(int(threads), n))
    if threads == 1:
        fill(0, n)
        return
    starts = range(0, n, -(-n // threads))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, starts, [*starts[1:], n]))
