"""Bias sampling, matrix generation, CRC, and the codebook file format."""

import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from tardos import (
    BiasVector,
    CapacityError,
    Codebook,
    CodebookChecksumError,
    CodebookFormatError,
    CodebookTruncatedError,
    CodebookVersionError,
    ParameterError,
    SchemeParams,
    crc64,
    gen_matrix,
    load_codebook,
    row_bits,
    sample_bias,
    save_codebook,
)
from tardos import codegen
from tardos.rng import TAG_ROW, stream

from conftest import chi_square_gof

_MASK64 = (1 << 64) - 1


def _crc_table():
    """The bytewise CRC-64/XZ table, built here from the reflected polynomial."""
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0xC96C5795D7870F42 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC_TABLE = _crc_table()


def crc64_bytewise(data, crc=0):
    """Reference CRC-64/XZ, one table lookup per byte: the oracle for crc64."""
    state = (crc ^ _MASK64) & _MASK64
    for byte in bytes(data):
        state = (state >> 8) ^ _CRC_TABLE[(state ^ byte) & 0xFF]
    return state ^ _MASK64


def both_paths(monkeypatch):
    """Yield "liblzma", then "scalar" with the liblzma lookup forced to fail,
    so a loop over it runs its body on both of crc64's paths."""
    yield "liblzma"
    monkeypatch.setattr(codegen, "_lzma_crc64", lambda: None)
    yield "scalar"


def small_params(**kw):
    base = dict(n=12, m=64, c0=4, eps1=1e-3, eps2=0.25, t=1e-3, Z=40.0)
    base.update(kw)
    return SchemeParams(**base)


class TestCrc64:
    def test_check_value(self, monkeypatch):
        # Standard check string for this polynomial/reflection convention.
        for _ in both_paths(monkeypatch):
            assert crc64(b"123456789") == 0x995DC9BBDF1939FA

    def test_empty(self, monkeypatch):
        for _ in both_paths(monkeypatch):
            assert crc64(b"") == 0
            assert crc64(b"", 12345) == 12345

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="CPython's _lzma on Linux links liblzma")
    def test_fast_path_found_on_linux(self):
        assert codegen._lzma_crc64() is not None

    def test_library_failing_the_check_value_is_not_used(self, monkeypatch):
        import ctypes

        class Broken:
            def __init__(self, name):
                self.lzma_crc64 = ctypes.CFUNCTYPE(
                    ctypes.c_uint64, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint64)(
                        lambda buf, size, crc: 0)

        monkeypatch.setattr(ctypes, "CDLL", Broken)
        assert codegen._lzma_crc64.__wrapped__() is None

    # Sizes around 8 KiB, 256 KiB and 768 KiB, with whole words, ragged tails
    # and word remainders, and a few odd sizes.
    def sizes(self):
        out = {1, 7, 64, 1025, 100_000}
        for edge in (8192, 262_144, 786_432):
            out.update(edge + d for d in (-8, -7, -1, 0, 1, 7, 8))
        out.update({8192 + 8 * 5 + 3, 262_144 + 8 * 4095 + 5})
        return sorted(out)

    def test_matches_bytewise_reference(self, monkeypatch):
        sizes = self.sizes()
        blob = np.random.default_rng(11).integers(
            0, 256, size=sizes[-1], dtype=np.uint8).tobytes()
        # The oracle walks the blob once, chained from one cut to the next.
        refs, ref, lo = [], 0, 0
        for size in sizes:
            ref = crc64_bytewise(blob[lo:size], ref)
            refs.append(ref)
            lo = size
        for path in both_paths(monkeypatch):
            for size, ref in zip(sizes, refs):
                assert crc64(blob[:size]) == ref, (path, size)

    def test_chaining_across_a_cut(self, monkeypatch):
        rng = np.random.default_rng(12)
        blob = rng.integers(0, 256, size=262_144 + 4101, dtype=np.uint8).tobytes()
        cut, seed = 8192 + 13, 0x0123456789ABCDEF
        head = crc64_bytewise(blob[:cut])
        tail = crc64_bytewise(blob[cut:], head)
        seeded = crc64_bytewise(blob, seed)
        for path in both_paths(monkeypatch):
            assert crc64(blob[:cut]) == head, path
            assert crc64(blob[cut:], head) == tail == crc64(blob), path
            assert crc64(blob, seed) == seeded, path

    def test_buffer_types(self, monkeypatch):
        rng = np.random.default_rng(13)
        blobs = [rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
                 for size in (1029, 8192 + 21)]
        words = rng.integers(0, 1 << 63, size=1024, dtype=np.uint64)
        frozen = words.copy()
        frozen.setflags(write=False)
        for path in both_paths(monkeypatch):
            for blob in blobs:
                want = crc64_bytewise(blob)
                assert crc64(bytearray(blob)) == want, path
                assert crc64(memoryview(blob)) == want, path
                assert crc64(memoryview(b"xx" + blob)[2:]) == want, path
                assert crc64(list(blob)) == want, path
            want = crc64_bytewise(words.tobytes())
            assert crc64(memoryview(words)) == crc64(frozen) == want, path
            assert crc64(words[::2]) == crc64_bytewise(words[::2].tobytes()), path

    def test_streaming_equals_one_shot(self, monkeypatch):
        blob = bytes(range(256)) * 17
        for path in both_paths(monkeypatch):
            acc = 0
            for lo in range(0, len(blob), 97):
                acc = crc64(blob[lo:lo + 97], acc)
            assert acc == crc64(blob) == crc64_bytewise(blob), path


class TestBiasVector:
    def test_validation(self):
        with pytest.raises(ParameterError):
            BiasVector(p=np.array([]), t=0.01)
        with pytest.raises(ParameterError):
            BiasVector(p=np.array([[0.5]]), t=0.01)
        with pytest.raises(ParameterError):
            BiasVector(p=np.array([0.5]), t=0.6)
        with pytest.raises(ParameterError):
            BiasVector(p=np.array([0.001]), t=0.01)  # below cutoff
        # The support slop reaches past 0 and 1 at a tiny cutoff.
        for p in (0.0, -1e-13, 1.0 + 2.0 ** -52):
            with pytest.raises(ParameterError):
                BiasVector(p=np.array([0.5, p]), t=1e-17)
        assert BiasVector(p=np.array([1e-17, 1.0]), t=1e-17).m == 2

    def test_readonly(self):
        bv = BiasVector(p=np.array([0.3, 0.5]), t=0.01)
        with pytest.raises(ValueError):
            bv.p[0] = 0.4


class TestSampleBias:
    def test_deterministic(self):
        a = sample_bias(1000, 1e-3, seed=5)
        b = sample_bias(1000, 1e-3, seed=5)
        assert np.array_equal(a.p, b.p)
        assert not np.array_equal(a.p, sample_bias(1000, 1e-3, seed=6).p)

    def test_support_and_mean(self):
        t = 1.0 / 300.0
        bv = sample_bias(1_000_000, t, seed=1)
        assert bv.p.min() >= t and bv.p.max() <= 1.0 - t
        # Symmetric density: E[p] = 1/2.
        se = float(bv.p.std(ddof=1)) / math.sqrt(bv.m)
        assert abs(float(bv.p.mean()) - 0.5) < 3.0 * se

    def test_lower_quarter_mass(self):
        # P[p <= 1/4] at t = 1/300, from quadrature.
        target = 0.32010154664251334
        bv = sample_bias(1_000_000, 1.0 / 300.0, seed=2)
        frac = float(np.mean(bv.p <= 0.25))
        se = math.sqrt(target * (1.0 - target) / bv.m)
        assert abs(frac - target) < 3.0 * se

    def test_m_validation(self):
        with pytest.raises(ParameterError):
            sample_bias(0, 1e-3, seed=0)


class TestGenMatrix:
    def test_row_regeneration(self):
        bv = sample_bias(256, 1e-3, seed=3)
        cb = gen_matrix(9, bv, seed=3)
        for j in (0, 4, 7):
            assert np.array_equal(cb.row(j), row_bits(bv, 3, j))

    def test_rows_match_the_float_formula(self, monkeypatch):
        # Rows are drawn in spans from bulk-derived keys and raw-word
        # compares; they must pack the bits the per-row float formula drew,
        # around the span edges and for every thread count. Spans here are
        # 64 rows at one thread, 32 at two and 21 at three.
        for m in range(1, 130):
            monkeypatch.setattr(codegen, "_CHUNK_BYTES", 8 * ((m + 63) // 64) * 64)
            bv = sample_bias(m, 1e-3, seed=m)
            bits = np.stack([stream(12, TAG_ROW, j).random(m) < bv.p for j in range(130)])
            want = np.zeros((130, 8 * ((m + 63) // 64)), dtype=np.uint8)
            want[:, :(m + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
            for n in (1, 63, 64, 65, 130):
                for threads in (1, 2, 3):
                    cb = gen_matrix(n, bv, seed=12, threads=threads)
                    assert np.array_equal(cb.rows.view(np.uint8), want[:n]), (m, n, threads)

    def test_bias_of_one_draws_ones(self):
        # Below a cutoff of 2^-53, 1 - t rounds to 1.0 and so can a bias.
        bv = BiasVector(p=np.array([1.0, 0.5, 1e-17, 1.0]), t=1e-17)
        cb = gen_matrix(70, bv, seed=2)
        bits = np.stack([stream(2, TAG_ROW, j).random(4) < bv.p for j in range(70)])
        assert np.array_equal(cb.block_bits(0, 70), bits.astype(np.uint8))
        assert cb.block_bits(0, 70)[:, [0, 3]].all()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wide_rows_are_packed_as_drawn(self, threads):
        # A worker holds one drawn row (raw words and bools, 9 bytes a column)
        # at a time, never a block of unpacked rows, so a small-n, large-m
        # codebook needs little beyond its packed matrix and its thresholds.
        m = 1 << 18
        bv = BiasVector(p=np.full(m, 0.5), t=0.01)
        tracemalloc.start()
        try:
            cb = gen_matrix(64, bv, seed=1, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - cb.rows.nbytes < (8 + 10 * threads) * m

    def test_rows_differ_between_users(self):
        bv = sample_bias(512, 1e-3, seed=4)
        cb = gen_matrix(6, bv, seed=4)
        assert not np.array_equal(cb.row(0), cb.row(1))

    def test_thread_count_does_not_change_rows(self):
        bv = sample_bias(300, 1e-3, seed=5)
        one = gen_matrix(40, bv, seed=5, threads=1)
        eight = gen_matrix(40, bv, seed=5, threads=8)
        assert np.array_equal(one.rows, eight.rows)

    def test_column_mean_tracks_bias(self):
        p0 = 0.9
        bv = BiasVector(p=np.array([p0]), t=0.05)
        cb = gen_matrix(100_000, bv, seed=6)
        ones = sum(int(cb.row(j)[0]) for j in range(cb.n))
        se = math.sqrt(p0 * (1.0 - p0) / cb.n)
        assert abs(ones / cb.n - p0) < 3.0 * se

    def test_column_sums_chi_square(self):
        # Column sums over n users are Binomial(n, p_i); fix all biases to
        # 0.3 and test the fit at the 1% level.
        n, m, p0 = 20, 10_000, 0.3
        bv = BiasVector(p=np.full(m, p0), t=0.05)
        cb = gen_matrix(n, bv, seed=7)
        sums = cb.rows_matrix().sum(axis=0) if hasattr(cb, "rows_matrix") else (
            np.stack([cb.row(j) for j in range(n)]).sum(axis=0))
        counts = np.bincount(sums, minlength=n + 1)
        probs = stats.binom.pmf(np.arange(n + 1), n, p0)
        stat, dof = chi_square_gof(counts, probs)
        assert stat < stats.chi2.ppf(0.99, dof)

    def test_adjacent_columns_uncorrelated(self):
        bv = BiasVector(p=np.full(2, 0.5), t=0.05)
        cb = gen_matrix(50_000, bv, seed=8)
        bits = np.stack([cb.row(j) for j in range(cb.n)]).astype(np.float64)
        r = float(np.corrcoef(bits[:, 0], bits[:, 1])[0, 1])
        assert abs(r) < 3.0 / math.sqrt(cb.n)

    def test_block_bits_and_select_bits(self):
        bv = sample_bias(130, 1e-3, seed=9)
        cb = gen_matrix(5, bv, seed=9)
        full = np.stack([cb.row(j) for j in range(5)])
        assert np.array_equal(cb.block_bits(1, 4), full[1:4])
        idx = np.array([0, 4, 2])
        assert np.array_equal(cb.select_bits(idx), full[idx])
        with pytest.raises(ParameterError):
            cb.select_bits([0, 5])

    def test_capacity_guard(self):
        bv = sample_bias(1000, 1e-3, seed=10)
        with pytest.raises(CapacityError):
            gen_matrix(10, bv, seed=10, max_bits=5000)
        # 1 x 100 matrix bits fit in 1000; with the 100 float64 biases they do not.
        bv = sample_bias(100, 1e-3, seed=10)
        with pytest.raises(CapacityError, match="biases"):
            gen_matrix(1, bv, seed=10, max_bits=1000)
        assert gen_matrix(1, bv, seed=10, max_bits=6500).n == 1

    def test_n_validation(self):
        bv = sample_bias(8, 1e-3, seed=11)
        with pytest.raises(ParameterError):
            gen_matrix(0, bv, seed=11)


class TestCodebookFile:
    def _make(self, tmp_path, params=None, m=96, n=7, seed=21):
        bv = sample_bias(m, params.t if params else 1e-3, seed=seed)
        cb = gen_matrix(n, bv, seed=seed, params=params)
        path = tmp_path / "cb.bin"
        save_codebook(cb, path)
        return cb, path

    def test_roundtrip_with_params(self, tmp_path):
        sp = small_params(m=96, n=7)
        cb, path = self._make(tmp_path, params=sp)
        back = load_codebook(path)
        assert back.seed == cb.seed
        assert back.params == sp
        assert np.array_equal(back.bias.p, cb.bias.p)
        assert np.array_equal(back.rows, cb.rows)

    def test_roundtrip_without_params(self, tmp_path):
        cb, path = self._make(tmp_path, params=None)
        back = load_codebook(path)
        assert back.params is None
        assert np.array_equal(back.rows, cb.rows)

    def test_save_is_deterministic(self, tmp_path):
        sp = small_params(m=96, n=7)
        _, path_a = self._make(tmp_path, params=sp)
        blob_a = path_a.read_bytes()
        path_b = tmp_path / "again.bin"
        bv = sample_bias(96, sp.t, seed=21)
        save_codebook(gen_matrix(7, bv, seed=21, params=sp), path_b)
        assert blob_a == path_b.read_bytes()

    def test_corruption_detected(self, tmp_path):
        _, path = self._make(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CodebookChecksumError):
            load_codebook(path)

    def test_unknown_version_rejected(self, tmp_path):
        _, path = self._make(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # little-endian version field follows the magic
        path.write_bytes(bytes(blob))
        with pytest.raises(CodebookVersionError):
            load_codebook(path)

    def test_truncation_rejected(self, tmp_path):
        _, path = self._make(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(CodebookTruncatedError):
            load_codebook(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(CodebookFormatError):
            load_codebook(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        _, path = self._make(tmp_path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CodebookFormatError):
            load_codebook(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        sp = small_params(m=96, n=7)
        cb, path = self._make(tmp_path, params=sp)
        good = path.read_bytes()

        class HalfWrite:
            """File whose first write stores half its bytes, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("disk full")

        real_open = open
        monkeypatch.setattr(codegen, "open",
                            lambda *a, **kw: HalfWrite(real_open(*a, **kw)),
                            raising=False)
        other = gen_matrix(7, sample_bias(96, sp.t, seed=22), seed=22, params=sp)
        with pytest.raises(OSError, match="disk full"):
            save_codebook(other, path)
        monkeypatch.undo()
        assert path.read_bytes() == good
        assert os.listdir(tmp_path) == ["cb.bin"]
        assert np.array_equal(load_codebook(path).rows, cb.rows)

    def test_save_replaces_existing_file(self, tmp_path):
        _, path = self._make(tmp_path, seed=21)
        cb, _ = self._make(tmp_path, seed=23)
        assert np.array_equal(load_codebook(path).rows, cb.rows)
        assert os.listdir(tmp_path) == ["cb.bin"]

    def test_save_holds_no_copy_of_the_rows(self, tmp_path):
        m, n = 8038, 2000
        rows = np.random.default_rng(5).integers(
            0, 2 ** 64, size=(n, (m + 63) // 64), dtype="<u8")
        cb = Codebook(bias=sample_bias(m, 1e-3, seed=5), rows=rows, seed=5)
        tracemalloc.start()
        try:
            save_codebook(cb, tmp_path / "big.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * rows.nbytes
        assert np.array_equal(load_codebook(tmp_path / "big.bin").rows, rows)

    def test_load_holds_no_copy_of_the_rows(self, tmp_path):
        # The rows view the file's bytes; a copy would peak near 2x the file.
        m, n = 8038, 2000
        rows = np.random.default_rng(6).integers(
            0, 2 ** 64, size=(n, (m + 63) // 64), dtype="<u8")
        path = tmp_path / "big.bin"
        save_codebook(Codebook(bias=sample_bias(m, 1e-3, seed=6), rows=rows, seed=6), path)
        tracemalloc.start()
        try:
            cb = load_codebook(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path.stat().st_size
        assert np.array_equal(cb.rows, rows)
        assert not cb.rows.flags.writeable

    def test_errors_are_oserrors(self):
        # Callers treating storage failures uniformly can catch OSError.
        assert issubclass(CodebookFormatError, OSError)
        assert issubclass(CodebookChecksumError, CodebookFormatError)


@pytest.fixture(scope="module", params=["small", "lanes"])
def saved_blob(request, tmp_path_factory):
    """A saved codebook's bytes: one file under 1 KiB and one over 8 KiB. (The
    ids name the CRC-64 paths that the two sizes took before liblzma did it.)"""
    m, n = (96, 7) if request.param == "small" else (1000, 40)
    sp = small_params(m=m, n=n)
    path = tmp_path_factory.mktemp("fuzz") / "cb.bin"
    save_codebook(gen_matrix(n, sample_bias(m, sp.t, seed=31), seed=31, params=sp), path)
    blob = path.read_bytes()
    assert len(blob) < 1024 if request.param == "small" else len(blob) > 8192
    return blob


def _load_bytes(blob, path):
    path.write_bytes(blob)
    return load_codebook(path)


class TestCodebookFuzz:
    """Every truncation and every single-bit flip is a typed format error."""

    FUZZ = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

    @FUZZ
    @given(data=st.data())
    def test_truncation(self, saved_blob, tmp_path, data):
        cut = data.draw(st.integers(0, len(saved_blob) - 1), label="length")
        with pytest.raises(CodebookFormatError):
            _load_bytes(saved_blob[:cut], tmp_path / "cut.bin")

    @FUZZ
    @given(data=st.data())
    def test_bit_flip(self, saved_blob, tmp_path, data):
        bit = data.draw(st.integers(0, 8 * len(saved_blob) - 1), label="bit")
        blob = bytearray(saved_blob)
        blob[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(CodebookFormatError):
            _load_bytes(bytes(blob), tmp_path / "flip.bin")

    def test_unchanged_blob_loads(self, saved_blob, tmp_path):
        assert _load_bytes(saved_blob, tmp_path / "ok.bin").n in (7, 40)
