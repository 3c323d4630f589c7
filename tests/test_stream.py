"""The streamed codebook path: ``generate``, ``attack`` and ``trace`` read and
write the rows in chunks, with the bytes of the whole-matrix functions."""

import io
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tardos import (
    CodebookChecksumError,
    CodebookFile,
    CodebookFormatError,
    ParameterError,
    PirateCopy,
    gen_matrix,
    generate_codebook,
    load_codebook,
    sample_bias,
    save_codebook,
    trace,
)
from tardos import codegen, tracer


def chunk_rows(monkeypatch, m, rows):
    """Make the reader's chunks ``rows`` rows (a multiple of 4) of an m-column code."""
    monkeypatch.setattr(codegen, "_CHUNK_BYTES", 8 * ((m + 63) // 64) * rows)


def write_book(path, n, m, seed=1):
    save_codebook(gen_matrix(n, sample_bias(m, 0.01, seed=seed), seed=seed), path)


def write_pirate(path, m, seed=2):
    y = (np.random.default_rng(seed).random(m) < 0.5).astype(np.uint8)
    path.write_text(PirateCopy(bits=y).to_text())
    return y


class TestGenerate:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_file_equals_save_of_gen_matrix(self, tmp_path, run_cli, monkeypatch, threads):
        # Rows of 6 words in slices of 64 rows at one thread, 32 at two and 21
        # at three: 300 users take 5, 10 and 15 slices, the last one short.
        monkeypatch.setattr(codegen, "_CHUNK_BYTES", 8 * 6 * 64)
        spans = list(codegen._row_spans(300, codegen._chunk_rows(6, threads)))
        assert len(spans) == {1: 5, 2: 10, 3: 15}[threads]
        path = tmp_path / "cli.bin"
        res = run_cli(["--seed", "5", "--threads", str(threads), "generate", "--users", "300",
                       "--c0", "3", "--eps1", "0.05", "--eps2", "0.3", "--out", str(path)])
        assert res.code == 0, res.err
        with CodebookFile(path) as f:
            assert f.words == 6  # the words the slices are sized for
            assert np.array_equal(f.bias.p, sample_bias(f.m, f.params.t, seed=5).p)
            want = gen_matrix(300, f.bias, seed=5, params=f.params)
        save_codebook(want, tmp_path / "lib.bin")
        assert path.read_bytes() == (tmp_path / "lib.bin").read_bytes()

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_slices_keep_row_streams(self, tmp_path, monkeypatch, n):
        monkeypatch.setattr(codegen, "_CHUNK_BYTES", 1)  # one row a slice, 4 in the last
        assert codegen._chunk_rows(2, 2) == 1
        bias = sample_bias(100, 0.01, seed=7)
        generate_codebook(tmp_path / "a.bin", n, bias, seed=7, threads=2)
        save_codebook(gen_matrix(n, bias, seed=7), tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    @pytest.mark.parametrize("threads, rows", [(1, 384), (2, 192), (3, 128)])
    def test_slices_of_chunk_over_threads_keep_the_bytes(self, tmp_path, monkeypatch,
                                                         threads, rows):
        # 384 rows of 5 words a chunk: slices of 384 rows at one thread, 192
        # at two, 128 at three; 1000 users end in a short slice at each.
        m, n = 300, 1000
        monkeypatch.setattr(codegen, "_CHUNK_BYTES", 8 * 5 * 384)
        assert codegen._chunk_rows(5, threads) == rows
        calls, gen = [], codegen.gen_matrix

        def slice_of(k, *args, first, **kw):
            calls.append((first, k))
            return gen(k, *args, first=first, **kw)

        monkeypatch.setattr(codegen, "gen_matrix", slice_of)
        bias = sample_bias(m, 0.01, seed=9)
        generate_codebook(tmp_path / "a.bin", n, bias, seed=9, threads=threads)
        spans = list(codegen._row_spans(n, rows))
        assert sorted(calls) == [(lo, hi - lo) for lo, hi in spans]
        assert n - spans[-1][0] == n % rows
        save_codebook(gen(n, bias, seed=9), tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_failed_write_stops_the_workers(self, tmp_path, monkeypatch):
        # The third checksum is the second slice's, with the next ones drawn
        # or being drawn; the pool must be shut down before the error leaves.
        monkeypatch.setattr(codegen, "_CHUNK_BYTES", 1)  # one row a slice
        calls, crc = [], codegen.crc64

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            return crc(*args)

        monkeypatch.setattr(codegen, "crc64", failing)
        before = set(threading.enumerate())
        try:
            generate_codebook(tmp_path / "a.bin", 640, sample_bias(100, 0.01, seed=7), seed=7,
                              threads=2)
        except OSError:
            assert set(threading.enumerate()) <= before
        else:
            pytest.fail("the failed write did not raise")
        assert len(calls) == 3 and os.listdir(tmp_path) == []

    def test_slice_of_gen_matrix(self):
        bias = sample_bias(90, 0.01, seed=8)
        whole = gen_matrix(200, bias, seed=8)
        part = gen_matrix(70, bias, seed=8, first=65)
        assert np.array_equal(part.rows, whole.rows[65:135])


class TestTrace:
    def _check(self, tmp_path, run_cli, n, m):
        write_book(tmp_path / "cb.bin", n, m, seed=n)
        y = write_pirate(tmp_path / "y.txt", m)
        res = run_cli(["trace", "--codebook", str(tmp_path / "cb.bin"),
                       "--pirate", str(tmp_path / "y.txt"), "-Z", "2", "--out", "-"])
        assert res.code == 0, res.err
        want = io.StringIO()
        trace(load_codebook(tmp_path / "cb.bin"), y, 2.0).to_csv(want)
        assert res.out == want.getvalue()

    # 300 columns: a scoring block is 216 rows; 5000 columns: 12 rows.
    @pytest.mark.parametrize("m", [300, 5000])
    @pytest.mark.parametrize("rows", [4, 8, None])
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 63, 64, 65])
    def test_csv_equals_trace_of_loaded_book(self, tmp_path, run_cli, monkeypatch, n, rows, m):
        if rows is not None:
            chunk_rows(monkeypatch, m, rows)
        self._check(tmp_path, run_cli, n, m)

    @pytest.mark.parametrize("m", [300, 5000])
    @pytest.mark.parametrize("extra", range(-1, 6))
    def test_csv_at_chunk_borders(self, tmp_path, run_cli, monkeypatch, extra, m):
        chunk_rows(monkeypatch, m, 100)
        self._check(tmp_path, run_cli, 100 + extra, m)

    def test_coalition_score_of_a_file(self, tmp_path, monkeypatch):
        chunk_rows(monkeypatch, 300, 8)
        write_book(tmp_path / "cb.bin", 50, 300)
        y = write_pirate(tmp_path / "y.txt", 300)
        cb = load_codebook(tmp_path / "cb.bin")
        with CodebookFile(tmp_path / "cb.bin") as f:
            got = trace(f, y, 2.0, coalition=[40, 3, 17])
        want = trace(cb, y, 2.0, coalition=[40, 3, 17])
        assert got.scores.tobytes() == want.scores.tobytes()
        assert got.coalition_score == want.coalition_score

    def test_coalition_is_read_once_and_sums_its_scores(self, tmp_path, monkeypatch):
        # At this seed, rows picked out and scored again sum to other last digits.
        write_book(tmp_path / "cb.bin", 50, 300, seed=2)
        y = write_pirate(tmp_path / "y.txt", 300)
        checked = []

        def counting_crc64(data, crc=0):
            checked.append(memoryview(data).nbytes)
            return crc64(data, crc)

        crc64 = codegen.crc64
        monkeypatch.setattr(codegen, "crc64", counting_crc64)
        with CodebookFile(tmp_path / "cb.bin") as f:
            rep = trace(f, y, 2.0, coalition=[40, 3, 17])
        assert sum(checked) == os.path.getsize(tmp_path / "cb.bin") - 8
        assert rep.coalition_score == float(rep.scores[[40, 3, 17]].sum())


class TestCodebookFile:
    @pytest.mark.parametrize("n", [0, 1, 5, 8, 11, 12, 13])
    def test_chunks_are_whole_groups(self, tmp_path, monkeypatch, n):
        path = tmp_path / "cb.bin"
        cb = gen_matrix(max(n, 1), sample_bias(70, 0.01, seed=3), seed=3)
        save_codebook(codegen.Codebook(bias=cb.bias, rows=cb.rows[:n], seed=3), path)
        chunk_rows(monkeypatch, 70, 4)
        with CodebookFile(path) as f:
            assert (f.n, f.m, f.words, f.seed) == (n, 70, 2, 3)
            got = [(lo, rows.copy()) for lo, rows in f.chunks()]
        spans = [(lo, lo + len(rows)) for lo, rows in got]
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all(hi - lo == 4 for lo, hi in spans[:-1])
        assert spans[-1][1] - spans[-1][0] >= min(n, 4)
        assert np.array_equal(np.concatenate([r for _, r in got]), cb.rows[:n])

    def test_checksum_fails_before_the_last_chunk(self, tmp_path, monkeypatch):
        path = tmp_path / "cb.bin"
        write_book(path, 40, 70)
        blob = bytearray(path.read_bytes())
        blob[-9] ^= 1  # the last row
        path.write_bytes(bytes(blob))
        chunk_rows(monkeypatch, 70, 8)
        seen = []
        with pytest.raises(CodebookChecksumError):
            with CodebookFile(path) as f:
                for lo, _ in f.chunks():
                    seen.append(lo)
        assert seen == [0, 8, 16, 24]  # the chunk at 32 is never yielded

    def test_value_error_waits_for_the_checksum(self, tmp_path):
        path = tmp_path / "cb.bin"
        write_book(path, 10, 70)
        with pytest.raises(ParameterError, match="mine"):
            with CodebookFile(path):
                raise ParameterError("mine")
        blob = bytearray(path.read_bytes())
        blob[-9] ^= 1
        path.write_bytes(bytes(blob))
        with pytest.raises(CodebookChecksumError):
            with CodebookFile(path):
                raise ParameterError("mine")

    def test_corrupt_header_field_is_a_checksum_error(self, tmp_path):
        # A bias outside [t, 1-t] parses, and fails only the checksum.
        path = tmp_path / "cb.bin"
        write_book(path, 10, 70)
        blob = bytearray(path.read_bytes())
        at = blob.index(np.float64(sample_bias(70, 0.01, seed=1).p[0]).tobytes())
        blob[at + 7] ^= 0x80  # the sign bit of p[0]
        path.write_bytes(bytes(blob))
        with pytest.raises(CodebookChecksumError):
            CodebookFile(path)


BAD = {
    "flip in the last row": lambda blob: blob[:-9] + bytes([blob[-9] ^ 1]) + blob[-8:],
    "last byte cut": lambda blob: blob[:-1],
    "trailing byte": lambda blob: blob + b"\0",
}


def run_attack_and_trace(run_cli, book, pirate, out):
    """Exit codes of ``attack`` and ``trace`` on ``book``; neither may create ``out``."""
    codes = []
    for argv in (["attack", "--codebook", str(book), "--users", "1,2", "--out", str(out)],
                 ["trace", "--codebook", str(book), "--pirate", str(pirate), "-Z", "1",
                  "--out", str(out)]):
        res = run_cli(argv)
        assert "Traceback" not in res.err
        assert not out.exists()
        codes.append(res.code)
    return codes


class TestIntegrity:
    @pytest.mark.parametrize("damage", sorted(BAD))
    def test_bad_book_exits_4_without_output(self, tmp_path, run_cli, monkeypatch, damage):
        write_book(tmp_path / "cb.bin", 40, 300)
        write_pirate(tmp_path / "y.txt", 300)
        book = tmp_path / "bad.bin"
        book.write_bytes(BAD[damage]((tmp_path / "cb.bin").read_bytes()))
        chunk_rows(monkeypatch, 300, 8)
        codes = run_attack_and_trace(run_cli, book, tmp_path / "y.txt", tmp_path / "out")
        assert codes == [4, 4]

    def test_usage_error_on_a_corrupt_book_exits_4(self, tmp_path, run_cli):
        write_book(tmp_path / "cb.bin", 40, 300)
        book = tmp_path / "bad.bin"
        book.write_bytes(BAD["flip in the last row"]((tmp_path / "cb.bin").read_bytes()))
        (tmp_path / "short.txt").write_text("0101")
        for argv in (["attack", "--codebook", str(book), "--users", "1,99", "--out", "-"],
                     ["trace", "--codebook", str(book), "--pirate", str(tmp_path / "short.txt"),
                      "-Z", "1"]):
            res = run_cli(argv)
            assert res.code == 4 and "checksum" in res.err


@pytest.fixture(scope="module")
def small_book(tmp_path_factory):
    d = tmp_path_factory.mktemp("stream_fuzz")
    write_book(d / "cb.bin", 21, 150)
    write_pirate(d / "y.txt", 150)
    return d, (d / "cb.bin").read_bytes()


class TestIntegrityFuzz:
    """Every truncation and bit flip exits 4 from ``attack`` and ``trace``."""

    FUZZ = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

    @FUZZ
    @given(data=st.data())
    def test_truncation(self, small_book, tmp_path, run_cli, monkeypatch, data):
        d, blob = small_book
        chunk_rows(monkeypatch, 150, 4)
        cut = data.draw(st.integers(0, len(blob) - 1), label="length")
        (tmp_path / "cut.bin").write_bytes(blob[:cut])
        out = tmp_path / "out"
        assert run_attack_and_trace(run_cli, tmp_path / "cut.bin", d / "y.txt", out) == [4, 4]

    @FUZZ
    @given(data=st.data())
    def test_bit_flip(self, small_book, tmp_path, run_cli, monkeypatch, data):
        d, blob = small_book
        chunk_rows(monkeypatch, 150, 4)
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        (tmp_path / "flip.bin").write_bytes(bytes(flipped))
        out = tmp_path / "out"
        assert run_attack_and_trace(run_cli, tmp_path / "flip.bin", d / "y.txt", out) == [4, 4]


class TestMemory:
    def test_commands_hold_a_chunk_not_the_codebook(self, tmp_path, run_cli, monkeypatch):
        # A 4 MB codebook read and written in 64 KiB chunks. Each command's
        # traced peak is bounded by a few chunks, one scoring block (9 bytes a
        # bit: the bits and their float64 copy), 64 bytes a user (scores and
        # CSV), 64 bytes a column (bias, thresholds, pirate copy, one row's
        # draws) and 256 KiB for the rest; the whole codebook is 16 times that.
        n, m, chunk = 8000, 4000, 1 << 16
        monkeypatch.setattr(codegen, "_CHUNK_BYTES", chunk, raising=False)
        book, pirate = tmp_path / "cb.bin", tmp_path / "y.txt"
        commands = {
            "generate": ["--threads", "2", "generate", "--users", str(n), "--length", str(m),
                         "--cutoff", "0.01", "--out", str(book)],
            "attack": ["attack", "--codebook", str(book), "--users", "3,17,29",
                       "--out", str(pirate)],
            "trace": ["trace", "--codebook", str(book), "--pirate", str(pirate), "-Z", "5",
                      "--out", str(tmp_path / "out.csv")],
        }
        for argv in commands.values():  # warm-up: imports and caches
            assert run_cli(argv).code == 0
        assert book.stat().st_size >= 8 * chunk
        bound = 4 * chunk + 9 * tracer._BLOCK_BITS + 64 * n + 64 * m + (1 << 18)
        assert bound < book.stat().st_size / 2
        for name, argv in commands.items():
            tracemalloc.start()
            try:
                assert run_cli(argv).code == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (name, peak, bound)
