"""Collusion strategies and pirate-copy forgery.

A coalition of c users sees, per column, only its own bits; in a column where
all c agree the forged bit is forced to that value (marking condition). In a
detectable column with x ones among the coalition, the forged bit is 1 with
probability psi(x), independently per column. A strategy is therefore a table
psi(0..c) with psi(0) = 0 and psi(c) = 1. Tables are column-symmetric and
column-independent; adaptive per-column adversaries are out of scope.

Built-in strategies:
  extremal    psi(x) = 1 for every x >= 1 (emit 1 whenever possible)
  interleave  psi(x) = x / c (copy a uniformly chosen member's bit)
  majority    most common bit; fair coin at an exact tie
  minority    least common bit among the detectable column's values; coin at tie
  coin        fair coin in every detectable column
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import _bits, _integer, _probs, _real_array
from .rng import TAG_FORGE, stream
from .tracer import PirateCopy

KINDS = ("extremal", "interleave", "majority", "minority", "coin")
_MAX_C = 10 ** 6  # a psi table holds c + 1 floats


def strategy_psi(kind, c):
    """The psi table of a named strategy for coalition size ``c``."""
    c = _integer(c, "coalition size c", 1, _MAX_C)
    x = np.arange(c + 1, dtype=np.float64)
    if kind == "extremal":
        psi = (x > 0).astype(np.float64)
    elif kind == "interleave":
        psi = x / c
    elif kind == "majority":
        psi = np.where(2 * x > c, 1.0, 0.0) + np.where(2 * x == c, 0.5, 0.0)
    elif kind == "minority":
        psi = np.where(2 * x < c, 1.0, 0.0) + np.where(2 * x == c, 0.5, 0.0)
    elif kind == "coin":
        psi = np.full(c + 1, 0.5)
    else:
        raise ParameterError(f"unknown strategy kind {kind!r}", param="strategy")
    # Undetectable columns are forced regardless of the shape above.
    psi[0] = 0.0
    psi[c] = 1.0
    return psi


@dataclass(frozen=True)
class Strategy:
    """A forgery rule: kind label, coalition size, psi table of length c+1."""

    kind: str
    c: int
    psi: tuple

    def __post_init__(self):
        _integer(self.c, "coalition size c", 1, _MAX_C)
        table = _probs(self.psi, 1, "psi table", 0.0, 1.0)
        if table.size != self.c + 1:
            raise ParameterError("psi table must have length c + 1", param="psi table")
        if table[0] != 0.0 or table[self.c] != 1.0:
            raise ParameterError("marking condition: psi(0) = 0 and psi(c) = 1", param="psi table")
        object.__setattr__(self, "psi", tuple(float(v) for v in table))

    @classmethod
    def of(cls, strategy, c):
        """The strategy for coalition size ``c`` from a Strategy, a kind name
        or a psi table; a Strategy of size ``c`` is returned as is."""
        if isinstance(strategy, str):
            strategy = cls.from_kind(strategy, c)
        elif not isinstance(strategy, cls):
            strategy = cls.from_table(strategy)
        if strategy.c != c:
            raise ParameterError(f"strategy is for coalition size {strategy.c}, not {c}",
                                 param="coalition size c")
        return strategy

    @classmethod
    def from_kind(cls, kind, c):
        return cls(kind=kind, c=c, psi=tuple(strategy_psi(kind, c)))

    @classmethod
    def from_table(cls, table, kind="custom"):
        table = _real_array(table, 1, "psi table")
        return cls(kind=kind, c=table.size - 1, psi=table)

    @classmethod
    def from_csv(cls, text_or_path):
        """Load a custom table from a path or from raw CSV text.

        An argument holding a newline is parsed as text, since every valid
        table has at least two rows; anything else is a path, commas and all.
        """
        if "\n" in str(text_or_path):
            return cls.from_csv_text(str(text_or_path))
        with open(text_or_path, "r", encoding="utf-8") as fh:
            return cls.from_csv_text(fh.read())

    @classmethod
    def from_csv_text(cls, text):
        """Parse CSV rows ``x, psi(x)``; an optional header row is skipped.

        Every x in 0..c must appear exactly once, with a number psi(x).
        """
        entries = []
        for row in csv.reader(io.StringIO(text)):
            if not row or not "".join(row).strip():
                continue
            try:
                x = int(row[0])
            except ValueError:
                continue  # header row
            try:
                entries.append((x, float(row[1])))
            except (IndexError, ValueError):
                raise ParameterError("psi CSV rows must be 'x, psi(x)' with a number psi(x)",
                                     param="psi table") from None
        entries.sort()
        if not entries or [x for x, _ in entries] != list(range(len(entries))):
            raise ParameterError("psi CSV needs each x in 0..c exactly once", param="psi table")
        return cls.from_table([psi for _, psi in entries])

    def table(self):
        return np.asarray(self.psi, dtype=np.float64)


def forge(coalition_rows, strategy, seed=None, rng=None):
    """Forge a pirate copy from the coalition's rows under ``strategy``
    (anything :meth:`Strategy.of` takes).

    Per column: count x ones among the rows; emit 1 with probability psi(x),
    so the undetectable cases x = 0 and x = c (psi 0 and 1) are forced. Coin flips
    come from stream (seed, forge tag), so the copy is seed-reproducible;
    callers managing their own streams pass ``rng`` instead of ``seed``.
    """
    rows = _bits(coalition_rows, 2, "coalition rows")
    strategy = Strategy.of(strategy, rows.shape[0])
    if (seed is None) == (rng is None):
        raise ParameterError("pass exactly one of seed and rng")
    if rng is None:
        rng = stream(seed, TAG_FORGE)
    return PirateCopy(bits=_forge(rows, strategy, rng))


def _forge(rows, strategy, rng):
    """The copy bits :func:`forge` draws, from a uint8 bit array ``rows`` and
    the Strategy of its row count, unchecked: callers check both first."""
    x = rows.sum(axis=0, dtype=np.int64)
    prob = strategy.table()[x]
    u = rng.random(rows.shape[1])
    return (u < prob).astype(np.uint8)  # u in [0, 1): psi 0 and 1 force the bit
