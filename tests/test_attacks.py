"""Strategy tables and pirate-copy forgery."""

import math

import numpy as np
import pytest

from tardos import KINDS, ParameterError, Strategy, forge, strategy_psi


class TestStrategyTables:
    def test_builtin_tables_c4(self):
        assert strategy_psi("extremal", 4).tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]
        assert strategy_psi("interleave", 4).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert strategy_psi("majority", 4).tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]
        assert strategy_psi("minority", 4).tolist() == [0.0, 1.0, 0.5, 0.0, 1.0]
        assert strategy_psi("coin", 4).tolist() == [0.0, 0.5, 0.5, 0.5, 1.0]

    def test_endpoints_always_forced(self):
        for kind in KINDS:
            for c in (1, 2, 3, 7):
                psi = strategy_psi(kind, c)
                assert psi[0] == 0.0 and psi[c] == 1.0
                assert psi.min() >= 0.0 and psi.max() <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            strategy_psi("nonsense", 3)
        with pytest.raises(ParameterError):
            Strategy.from_kind("nonsense", 3)
        with pytest.raises(ParameterError):
            strategy_psi("coin", 0)

    @pytest.mark.parametrize("c", [10 ** 6 + 1, 10 ** 12, 10 ** 30, float("inf")])
    def test_coalition_too_large_for_a_table(self, c):
        # Rejected before the c + 1 table is allocated.
        with pytest.raises(ParameterError, match="coalition size"):
            strategy_psi("extremal", c)

    def test_single_member_coalition(self):
        # c = 1: every column is undetectable, psi = (0, 1) for all kinds.
        for kind in KINDS:
            assert strategy_psi(kind, 1).tolist() == [0.0, 1.0]


class TestStrategyClass:
    def test_from_kind(self):
        s = Strategy.from_kind("interleave", 4)
        assert s.kind == "interleave" and s.c == 4
        assert s.psi == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert np.array_equal(s.table(), strategy_psi("interleave", 4))

    def test_from_table_validation(self):
        Strategy.from_table([0.0, 0.3, 1.0])
        with pytest.raises(ParameterError):
            Strategy.from_table([0.1, 0.3, 1.0])  # psi(0) != 0
        with pytest.raises(ParameterError):
            Strategy.from_table([0.0, 0.3, 0.9])  # psi(c) != 1
        with pytest.raises(ParameterError):
            Strategy.from_table([0.0, 1.3, 1.0])  # out of [0, 1]
        with pytest.raises(ParameterError):
            Strategy.from_table([0.0, math.nan, 1.0])

    def test_from_csv_text(self):
        s = Strategy.from_csv("x,psi\n0,0\n2,1\n1,0.5\n")
        assert s.psi == (0.0, 0.5, 1.0)

    def test_from_csv_path(self, tmp_path):
        path = tmp_path / "psi.csv"
        path.write_text("0,0\n1,0.25\n2,0.75\n3,1\n")
        assert Strategy.from_csv(str(path)).psi == (0.0, 0.25, 0.75, 1.0)

    def test_from_csv_path_with_a_comma(self, tmp_path):
        path = tmp_path / "a,b.csv"
        path.write_text("x,psi\n0,0\n1,0.25\n2,1\n")
        assert Strategy.from_csv(str(path)).psi == (0.0, 0.25, 1.0)
        assert Strategy.from_csv(path).psi == (0.0, 0.25, 1.0)

    def test_from_csv_errors(self):
        with pytest.raises(ParameterError):
            Strategy.from_csv("0,0\n1,0.5\n1,0.6\n2,1\n")  # duplicate x
        with pytest.raises(ParameterError):
            Strategy.from_csv("0,0\n2,1\n")  # missing x = 1
        with pytest.raises(ParameterError):
            Strategy.from_csv("x,psi\n")  # no data rows
        with pytest.raises(ParameterError):
            Strategy.from_csv("0\n1\n")  # missing psi column


class TestForge:
    def _rows(self, seed, c, m, p=0.5):
        rng = np.random.default_rng(seed)
        return (rng.random((c, m)) < p).astype(np.uint8)

    def test_marking_condition(self):
        rows = self._rows(0, 5, 2000)
        for kind in KINDS:
            y = forge(rows, Strategy.from_kind(kind, 5), seed=9)
            sums = rows.sum(axis=0)
            assert np.all(y.bits[sums == 0] == 0)
            assert np.all(y.bits[sums == 5] == 1)

    def test_identical_rows_reproduced(self):
        row = self._rows(1, 1, 500)[0]
        rows = np.tile(row, (4, 1))
        for kind in KINDS:
            y = forge(rows, Strategy.from_kind(kind, 4), seed=3)
            assert np.array_equal(y.bits, row)

    def test_extremal_is_column_or(self):
        rows = self._rows(2, 6, 3000)
        y = forge(rows, Strategy.from_kind("extremal", 6), seed=4)
        assert np.array_equal(y.bits, (rows.sum(axis=0) > 0).astype(np.uint8))

    def test_coin_rate_on_detectable_columns(self):
        rows = self._rows(3, 2, 40_000)
        y = forge(rows, Strategy.from_kind("coin", 2), seed=5)
        det = rows.sum(axis=0) == 1
        rate = float(np.mean(y.bits[det]))
        se = 0.5 / math.sqrt(int(det.sum()))
        assert abs(rate - 0.5) < 3.0 * se

    def test_interleave_matches_column_frequency(self):
        # psi(x) = x/c equals picking a uniformly random member per column.
        rows = self._rows(4, 5, 60_000)
        y = forge(rows, Strategy.from_kind("interleave", 5), seed=6)
        x = rows.sum(axis=0)
        for k in (1, 2, 3, 4):
            cols = x == k
            rate = float(np.mean(y.bits[cols]))
            expect = k / 5.0
            se = math.sqrt(expect * (1.0 - expect) / int(cols.sum()))
            assert abs(rate - expect) < 4.0 * se

    def test_seed_determinism(self):
        rows = self._rows(5, 3, 1000)
        s = Strategy.from_kind("coin", 3)
        a = forge(rows, s, seed=7)
        b = forge(rows, s, seed=7)
        assert np.array_equal(a.bits, b.bits)
        assert not np.array_equal(a.bits, forge(rows, s, seed=8).bits)

    def test_generator_argument(self):
        rows = self._rows(6, 3, 1000)
        s = Strategy.from_kind("coin", 3)
        from tardos.rng import TAG_FORGE, stream

        via_rng = forge(rows, s, rng=stream(7, TAG_FORGE))
        assert np.array_equal(via_rng.bits, forge(rows, s, seed=7).bits)

    def test_seed_rng_exclusive(self):
        rows = self._rows(7, 2, 10)
        s = Strategy.from_kind("coin", 2)
        with pytest.raises(ParameterError):
            forge(rows, s)
        with pytest.raises(ParameterError):
            forge(rows, s, seed=1, rng=np.random.default_rng(1))

    def test_row_count_must_match_strategy(self):
        rows = self._rows(8, 3, 10)
        with pytest.raises(ParameterError):
            forge(rows, Strategy.from_kind("coin", 4), seed=1)


class TestStrategyOf:
    """``Strategy.of`` is the one coercion every consumer uses."""

    def test_matching_strategy_returned_as_is(self):
        s = Strategy.from_kind("majority", 5)
        assert Strategy.of(s, 5) is s

    def test_kind_and_table_inputs(self):
        assert Strategy.of("interleave", 4) == Strategy.from_kind("interleave", 4)
        assert Strategy.of([0.0, 0.5, 1.0], 2) == Strategy.from_table([0.0, 0.5, 1.0])
        assert Strategy.of(np.array([0.0, 0.5, 1.0]), 2).psi == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("strategy, c", [
        (Strategy.from_kind("coin", 4), 5),
        (Strategy.from_kind("coin", 4), 3),
        ((0.0, 0.5, 1.0), 3),
        ([0.0, 0.25, 0.5, 1.0], 2),
        ("coin", 0),    # a kind name has no size of its own; c itself must be one
        ("coin", 2.5),
    ])
    def test_size_mismatch_rejected(self, strategy, c):
        with pytest.raises(ParameterError):
            Strategy.of(strategy, c)

    def test_table_still_validated(self):
        with pytest.raises(ParameterError):
            Strategy.of((0.4, 0.5, 0.2), 2)  # breaks psi(0) = 0, psi(c) = 1

    def test_forge_accepts_table(self):
        rows = np.random.default_rng(10).integers(0, 2, size=(2, 500), dtype=np.uint8)
        via_table = forge(rows, [0.0, 0.5, 1.0], seed=1)
        via_obj = forge(rows, Strategy.from_table([0.0, 0.5, 1.0]), seed=1)
        assert np.array_equal(via_table.bits, via_obj.bits)

    def test_forge_accepts_kind(self):
        rows = np.random.default_rng(11).integers(0, 2, size=(3, 200), dtype=np.uint8)
        assert np.array_equal(forge(rows, "coin", seed=2).bits,
                              forge(rows, Strategy.from_kind("coin", 3), seed=2).bits)
