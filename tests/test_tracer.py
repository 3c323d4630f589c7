"""Scoring and accusation: exactness against a high-precision oracle."""

import io
import math

import numpy as np
import pytest

from tardos import (
    AccusationReport,
    BiasVector,
    ParameterError,
    PirateCopy,
    coalition_score,
    gen_matrix,
    row_bits,
    sample_bias,
    save_codebook,
    score_user,
    trace,
)
from tardos import tracer


class TestPirateCopy:
    def test_text_roundtrip(self):
        y = PirateCopy(bits=np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        assert y.to_text() == "10110"
        assert np.array_equal(PirateCopy.from_text("1 0 1\n1 0\n").bits, y.bits)
        assert y.m == 5

    @pytest.mark.parametrize("bad", ["", "  \n", "10120", "abc"])
    def test_text_validation(self, bad):
        with pytest.raises(ParameterError):
            PirateCopy.from_text(bad)

    def test_bits_validation(self):
        with pytest.raises(ParameterError):
            PirateCopy(bits=np.array([0, 2], dtype=np.uint8))
        with pytest.raises(ParameterError):
            PirateCopy(bits=np.zeros((2, 2), dtype=np.uint8))


class TestRawCopiesValidated:
    """Every scoring entry point checks a raw array like ``PirateCopy`` does."""

    BAD = np.array([0, 2, 1, 1, 0, 2, 1, 0])

    @pytest.fixture()
    def book(self):
        return gen_matrix(4, sample_bias(self.BAD.size, 1e-2, seed=1), seed=1)

    def test_trace(self, book):
        with pytest.raises(ParameterError, match="binary"):
            trace(book, self.BAD, Z=0.0)

    def test_score_user(self, book):
        with pytest.raises(ParameterError, match="binary"):
            score_user(book.select_bits([0])[0], self.BAD, book.bias)

    def test_coalition_score(self, book):
        with pytest.raises(ParameterError, match="binary"):
            coalition_score(book.select_bits([0, 1]), self.BAD, book.bias)

    @pytest.mark.parametrize("bad", [[0, -1, 1], [0, 256, 1], [0.0, 0.5, 1.0]])
    def test_values_are_not_cast_first(self, bad):
        with pytest.raises(ParameterError, match="binary"):
            PirateCopy(bits=bad)

    @pytest.mark.parametrize("bad", [2, 1.7, -1])
    def test_rows_are_not_cast_first(self, book, bad):
        # Cast to uint8 first, a 2 would count twice, 1.7 as a 1 and -1 as 255.
        y = np.array([0, 1, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        rows = book.select_bits([0, 1]).astype(np.float64)
        rows[0, 1] = bad
        with pytest.raises(ParameterError, match="binary"):
            score_user(rows[0], y, book.bias)
        with pytest.raises(ParameterError, match="binary"):
            coalition_score(rows, y, book.bias)

    def test_raw_copy_scores_like_wrapped_and_stays_writable(self, book):
        y = np.array([0, 1, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        raw = trace(book, y, Z=0.0)
        assert np.array_equal(raw.scores, trace(book, PirateCopy(bits=y), Z=0.0).scores)
        assert y.flags.writeable


class TestScoreUser:
    def test_balanced_two_columns(self):
        # At p = 1/2 the weights are +1 / -1, so a half-matching row under an
        # all-ones copy scores zero.
        bias = BiasVector(p=np.array([0.5, 0.5]), t=0.25)
        y = np.array([1, 1], dtype=np.uint8)
        assert score_user(np.array([1, 0]), y, bias) == pytest.approx(0.0, abs=1e-15)

    def test_zero_copy_scores_zero(self):
        bias = BiasVector(p=np.array([0.3, 0.7, 0.5]), t=0.05)
        y = np.zeros(3, dtype=np.uint8)
        assert score_user(np.array([1, 1, 1]), y, bias) == 0.0

    def test_length_mismatch(self):
        bias = BiasVector(p=np.array([0.5, 0.5]), t=0.25)
        with pytest.raises(ParameterError):
            score_user(np.array([1, 0, 1]), np.array([1, 1]), bias)

    def test_against_high_precision_oracle(self):
        # 16 columns, quarter-precision-free fixture; mpmath at 50 digits.
        import mpmath as mp

        mp.mp.dps = 50
        bv = sample_bias(16, 1e-3, seed=101)
        row = row_bits(bv, 101, 0)
        y = (row_bits(bv, 101, 1) | row).astype(np.uint8)

        acc = mp.mpf(0)
        for i in range(16):
            if y[i]:
                p = mp.mpf(repr(float(bv.p[i])))
                acc += mp.sqrt((1 - p) / p) if row[i] else -mp.sqrt(p / (1 - p))
        got = score_user(row, y, bv)
        assert got == pytest.approx(float(acc), rel=1e-12)


class TestCoalitionScore:
    def test_equals_member_sum(self):
        bv = sample_bias(64, 1e-3, seed=55)
        rows = np.stack([row_bits(bv, 55, j) for j in range(5)])
        y = (rows.sum(axis=0) > 0).astype(np.uint8)
        total = coalition_score(rows, y, bv)
        member_sum = sum(score_user(rows[j], y, bv) for j in range(5))
        assert total == pytest.approx(member_sum, rel=1e-9)

    def test_is_the_sum_of_block_scores(self):
        # The coalition total of a simulation trial, bit for bit.
        bv = sample_bias(300, 1e-2, seed=57)
        rows = np.stack([row_bits(bv, 57, j) for j in range(6)])
        y = (rows.sum(axis=0) > 2).astype(np.uint8)
        mask, w, base = tracer._score_pieces(y, bv.p)
        coal = tracer._score_blocks(lambda lo, hi: rows[lo:hi, mask], 6, w, base)
        assert coalition_score(rows, y, bv) == float(coal.sum())

    def test_shape_validation(self):
        bv = sample_bias(8, 1e-3, seed=56)
        with pytest.raises(ParameterError):
            coalition_score(np.zeros(8, dtype=np.uint8), np.zeros(8), bv)
        with pytest.raises(ParameterError):
            coalition_score(np.zeros((2, 9), dtype=np.uint8), np.zeros(8), bv)


@pytest.fixture(scope="module")
def fixture_book():
    bv = sample_bias(400, 1e-3, seed=77)
    return gen_matrix(8, bv, seed=77)


class TestTrace:
    def _copy(self, cb):
        rows = np.stack([cb.row(j) for j in (0, 3)])
        return PirateCopy(bits=(rows.sum(axis=0) > 0).astype(np.uint8))

    def test_scores_match_direct_scoring(self, fixture_book):
        cb = fixture_book
        y = self._copy(cb)
        rep = trace(cb, y, Z=0.0)
        for j in range(cb.n):
            assert rep.scores[j] == pytest.approx(
                score_user(cb.row(j), y.bits, cb.bias), rel=1e-12, abs=1e-12)

    def test_infinite_thresholds(self, fixture_book):
        cb = fixture_book
        y = self._copy(cb)
        assert trace(cb, y, Z=math.inf).accused_set() == set()
        assert trace(cb, y, Z=-math.inf).accused_set() == set(range(cb.n))
        with pytest.raises(ParameterError):
            trace(cb, y, Z=math.nan)

    def test_threshold_is_strict(self, fixture_book):
        cb = fixture_book
        y = self._copy(cb)
        rep = trace(cb, y, Z=0.0)
        top = int(np.argmax(rep.scores))
        at_top = trace(cb, y, Z=float(rep.scores[top]))
        assert top not in at_top.accused_set()
        just_below = trace(cb, y, Z=float(rep.scores[top]) - 1e-9)
        assert top in just_below.accused_set()

    def test_thread_count_does_not_change_scores(self, fixture_book):
        cb = fixture_book
        y = self._copy(cb)
        one = trace(cb, y, Z=0.0, threads=1)
        eight = trace(cb, y, Z=0.0, threads=8)
        assert np.array_equal(one.scores, eight.scores)
        assert np.array_equal(one.accused, eight.accused)

    def test_coalition_sum_carried(self, fixture_book):
        cb = fixture_book
        y = self._copy(cb)
        rep = trace(cb, y, Z=0.0, coalition=(0, 3))
        rows = np.stack([cb.row(0), cb.row(3)])
        assert rep.coalition_score == pytest.approx(
            coalition_score(rows, y.bits, cb.bias), rel=1e-12)
        assert trace(cb, y, Z=0.0).coalition_score is None
        for bad in ([0, 8], [-1]):
            with pytest.raises(ParameterError, match="out of range"):
                trace(cb, y, Z=0.0, coalition=bad)

    def test_csv_format(self, fixture_book):
        cb = fixture_book
        y = self._copy(cb)
        rep = trace(cb, y, Z=0.0)
        buf = io.StringIO()
        rep.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "user_id,score,accused"
        assert len(lines) == cb.n + 1
        for j, line in enumerate(lines[1:]):
            uid, score, flag = line.split(",")
            assert int(uid) == j
            assert float(score) == rep.scores[j]  # repr round-trip is exact
            assert (flag == "1") == (j in rep.accused_set())


class TestScoreBlocks:
    @pytest.mark.parametrize("n", [1, 3, 4, 63, 64, 65, 1000])
    @pytest.mark.parametrize("width", [0, 300])
    def test_block_size_does_not_change_a_bit(self, monkeypatch, n, width):
        # A row's score depends on its place in a group of 4 rows, so blocks
        # must hold whole groups: 6 * width bits is one group, not 6 rows.
        # A last row scored alone would take another BLAS path (n = 65).
        g = np.random.default_rng(n * 1000 + width)
        bits = g.random((n, width)) < 0.3
        w = g.standard_normal(width)
        results = []
        for limit in (4 * width, 6 * width, 64 * width, 1 << 16):
            monkeypatch.setattr(tracer, "_BLOCK_BITS", limit)
            calls = []

            def block(lo, hi):
                calls.append((lo, hi))
                return bits[lo:hi]

            results.append(tracer._score_blocks(block, n, w, 1.5).tobytes())
            assert calls[0][0] == 0 and calls[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))  # serial, in order
            assert all((hi - lo) % 4 == 0 and (hi - lo) * width <= max(limit, 4 * width)
                       for lo, hi in calls[:-1])
            assert calls[-1][1] - calls[-1][0] >= min(n, 4)  # no lone last row
        assert all(r == results[0] for r in results)
        if width == 0:
            assert np.all(np.frombuffer(results[0]) == 1.5)

    def test_trace_scores_do_not_depend_on_blas_threads(self, tmp_path, cli_at_blas_threads):
        # Unblocked, 997 rows of 8038 columns end in a product that OpenBLAS
        # splits over two threads at a row that is not a multiple of 4.
        bias = sample_bias(8038, 0.002, seed=4)
        save_codebook(gen_matrix(997, bias, seed=4), tmp_path / "cb.bin")
        y = (np.random.default_rng(5).random(8038) < 0.5).astype(np.uint8)
        (tmp_path / "y.txt").write_text(PirateCopy(bits=y).to_text())
        argv = ["trace", "--codebook", str(tmp_path / "cb.bin"),
                "--pirate", str(tmp_path / "y.txt"), "--threshold", "10", "--out", "-"]
        one = cli_at_blas_threads(argv, 1)
        assert one.count("\n") == 998
        assert cli_at_blas_threads(argv, 2) == one


class TestDot:
    """A lone row (n = 1) is the one block ``_score_blocks`` does not hand to
    a matrix-vector product: its score is ``base + math.fsum`` of the weights
    of its set bits."""

    @pytest.mark.parametrize("size", [0, 1, 4097, 8192, 2 * 8192 + 5, 40_000])
    def test_lone_row_is_the_fsum_of_its_weights(self, size):
        g = np.random.default_rng(size)
        x, w = (g.random(size) < 0.5).astype(np.uint8), g.standard_normal(size)
        got = float(tracer._score_blocks(lambda lo, hi: x[None, :], 1, w, 0.75)[0])
        assert got.hex() == (0.75 + math.fsum(w[x == 1].tolist())).hex()  # bit for bit

    def test_lone_user_trace_does_not_depend_on_blas_threads(
            self, tmp_path, cli_at_blas_threads):
        # One row of 40,000 columns, all of them evidence: as one product it
        # went to BLAS ddot, which OpenBLAS split over two threads.
        m = 40_000
        save_codebook(gen_matrix(1, sample_bias(m, 0.01, seed=2), seed=2), tmp_path / "cb.bin")
        (tmp_path / "y.txt").write_text("1" * m)
        argv = ["trace", "--codebook", str(tmp_path / "cb.bin"),
                "--pirate", str(tmp_path / "y.txt"), "--threshold", "10", "--out", "-"]
        one = cli_at_blas_threads(argv, 1)
        assert one.count("\n") == 2
        assert cli_at_blas_threads(argv, 2) == one

    def test_user_and_coalition_scores_do_not_depend_on_blas_threads(
            self, python_at_blas_threads):
        # One 1-d product of 20k-100k columns goes to BLAS ddot, which
        # OpenBLAS splits over threads; the last digits then differ.
        code = """
import numpy as np
from tardos import BiasVector, coalition_score, score_user
for m in (20_000, 50_000, 100_000):
    g = np.random.default_rng(m)
    bias = BiasVector(p=g.uniform(0.01, 0.99, m), t=0.01)
    rows = (g.random((3, m)) < bias.p).astype(np.uint8)
    y = np.ones(m, dtype=np.uint8)
    print(repr(score_user(rows[0], y, bias)), repr(coalition_score(rows, y, bias)))
"""
        one = python_at_blas_threads(code, 1)
        assert one.count("\n") == 3
        assert python_at_blas_threads(code, 2) == one


class TestinnocentScoreDistribution:
    def test_variance_equals_number_of_ones(self):
        # For the standard weights, an innocent row's score has mean 0 and
        # variance exactly equal to the number of ones in the copy,
        # conditional on the bias draw.
        rng = np.random.default_rng(123)
        m = 300
        bv = sample_bias(m, 1e-2, seed=99)
        y = np.ones(m, dtype=np.uint8)
        n = 20_000
        bits = rng.random((n, m)) < bv.p
        from tardos.tracer import _score_pieces

        mask, w, base = _score_pieces(y, bv.p)
        scores = bits[:, mask].astype(np.float64) @ w + base
        ones = int(y.sum())
        var = float(scores.var(ddof=1))
        m2 = scores - scores.mean()
        se_var = math.sqrt((float(np.mean(m2 ** 4)) - var ** 2) / n)
        assert abs(var - ones) < 3.0 * se_var
        se_mean = math.sqrt(var / n)
        assert abs(float(scores.mean())) < 3.0 * se_mean
