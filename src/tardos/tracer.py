"""Accusation scoring and tracing.

Given a pirate copy y, user j's accusation sum only collects evidence in the
columns where y shows a 1:

    S_j = sum over {i : y_i = 1} of (g1(p_i) if X_ji = 1 else g0(p_i)).

A user is accused exactly when S_j > Z (strict: a score equal to the threshold
is not an accusation). The coalition's collective sum adds its members'
scores, as :mod:`tardos.simulate` does. Every score comes from one product
of bits and weights, :func:`_score_blocks`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codegen import _row_spans, _unpack, _user_indices
from .errors import ParameterError
from .model import _bits, _integer, _real, g0, g1

# Bits per scoring block: 512 KiB as float64.
_BLOCK_BITS = 1 << 16


@dataclass(frozen=True)
class PirateCopy:
    """A forged m-bit copy."""

    bits: np.ndarray

    def __post_init__(self):
        arr = _bits(self.bits, 1, "pirate copy")  # a copy, so the caller's array stays writable
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @property
    def m(self):
        return self.bits.size

    def to_text(self):
        return "".join("1" if b else "0" for b in self.bits.tolist())

    @classmethod
    def from_text(cls, text):
        chars = [ch for ch in text if not ch.isspace()]
        if not chars or any(ch not in "01" for ch in chars):
            raise ParameterError("pirate copy text must contain only 0/1 and whitespace",
                                 param="pirate copy")
        return cls(bits=np.frombuffer("".join(chars).encode(), dtype=np.uint8) - ord("0"))


def _bits_of(y):
    """The bits of a :class:`PirateCopy`, or of a raw copy checked by :func:`model._bits`."""
    return y.bits if isinstance(y, PirateCopy) else _bits(y, 1, "pirate copy")


def _score_pieces(yb, p):
    """Mask of evidence columns plus (per-column weight delta, constant part),
    for the checked copy bits ``yb`` (see :func:`_bits_of`).

    With w = g1 - g0 on the y=1 columns and base = sum of g0 there, any row's
    score is base + <row restricted to the mask, w>.
    """
    if yb.size != p.size:
        raise ParameterError("pirate copy length disagrees with bias length", param="pirate copy")
    mask = yb == 1
    p1 = p[mask]
    g = g0(p1)
    return mask, g1(p1) - g, float(np.sum(g))


def _score_blocks(block, n, w, base):
    """``base + block(lo, hi).astype(float64) @ w`` for rows 0..n-1, as one
    array: the one product of bits and weights behind every score.

    ``block(lo, hi)`` returns rows lo..hi-1 as a (hi - lo, w.size) bit array
    and is called serially, in ascending ``lo``. A block holds whole groups
    of 4 rows, as many as fit in ``_BLOCK_BITS`` bits (at least one group),
    except the last: it runs to row n and keeps at least 4 rows when n >= 4,
    so it may hold up to 3 rows more. OpenBLAS's matrix-vector kernel takes
    rows in groups of 4 and the rows left over one by one, so each score is
    the float that one product over all n rows gives, whatever the block
    size; a block of 2 or more rows gave the same floats at 1 and 2 BLAS
    threads (checked up to 7 rows of 10^6 columns). A lone row (only when
    n = 1) would go to BLAS ddot, so its score is ``base + math.fsum`` of the
    weights of its set bits."""
    rows = 4 * max(1, _BLOCK_BITS // (4 * max(w.size, 1)))
    scores = np.empty(n, dtype=np.float64)
    for lo, hi in _row_spans(n, rows):
        if hi - lo > 1:
            scores[lo:hi] = block(lo, hi).astype(np.float64) @ w + base
        else:
            scores[lo] = base + math.fsum(w[block(lo, hi)[0] != 0])
    return scores


def score_user(row, y, bias):
    """Accusation sum of a single codeword row against pirate copy ``y``."""
    return coalition_score(_bits(row, 1, "codeword row")[None], y, bias)


def coalition_score(rows, y, bias):
    """Collective sum of the coalition owning ``rows`` (one row per member):
    the sum of the members' scores, as :mod:`tardos.simulate` takes it."""
    mask, w, base = _score_pieces(_bits_of(y), bias.p)
    r = _bits(rows, 2, "codeword rows")
    if r.shape[1] != bias.m:
        raise ParameterError("row length disagrees with bias length")
    return float(_score_blocks(lambda lo, hi: r[lo:hi, mask], len(r), w, base).sum())


@dataclass(frozen=True)
class AccusationReport:
    """Scores for every user plus the accused set under threshold Z."""

    scores: np.ndarray
    threshold: float
    accused: np.ndarray  # sorted user indices with score strictly above Z
    coalition_score: float | None = None

    def accused_set(self):
        return set(self.accused.tolist())

    def to_csv(self, fh):
        fh.write("user_id,score,accused\n")
        accused = np.zeros(self.scores.size, dtype=bool)
        accused[self.accused] = True
        for j, (s, a) in enumerate(zip(self.scores.tolist(), accused.tolist())):
            fh.write(f"{j},{s!r},{1 if a else 0}\n")


def trace(cb, y, Z, threads=1, coalition=None):
    """Score every user of codebook ``cb`` against ``y`` and apply threshold Z.

    ``cb`` is a :class:`~tardos.codegen.Codebook` or an open
    :class:`~tardos.codegen.CodebookFile`, whose rows are read and scored
    one chunk at a time. Unpacks and scores the 64-bit packed rows serially,
    one block of whole 4-row groups at a time (:func:`_score_blocks`); chunks
    end on 4-row groups too, so every score is the same float for any chunk
    size and any BLAS thread count. A thread fan-out over the blocks ran
    slower than one thread, so ``threads`` is kept for API compatibility; it
    is checked but not used.
    When ``coalition`` (user indices) is given, the report carries their
    collective sum as well: the sum of their scores, so a file is read once.
    """
    if math.isnan(_real(Z, "threshold")):
        raise ParameterError("threshold must be a real number or +/-inf", param="threshold")
    _integer(threads, "threads", 1)
    idx = None if coalition is None else _user_indices(coalition, cb.n)
    p = cb.bias.p
    mask, w, base = _score_pieces(_bits_of(y), p)
    wfull = np.zeros(p.size, dtype=np.float64)
    wfull[mask] = w
    scores = np.empty(cb.n, dtype=np.float64)
    for lo, rows in cb.chunks():
        scores[lo:lo + len(rows)] = _score_blocks(
            lambda a, b: _unpack(rows[a:b], p.size), len(rows), wfull, base)
    accused = np.flatnonzero(scores > Z).astype(np.int64)
    cscore = None if idx is None else float(scores[idx].sum())
    return AccusationReport(scores=scores, threshold=float(Z), accused=accused,
                            coalition_score=cscore)
