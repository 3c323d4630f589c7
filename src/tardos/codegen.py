"""Codebook generation and persistence.

A codebook is the secret pair (bias vector p, n x m bit matrix X). Rows are
user codewords; entry (j, i) is Bernoulli(p_i). Every row is generated from
its own random stream keyed by (seed, TAG_ROW, row index), so a single row
can be regenerated without touching the others and generation parallelizes
with bit-identical output for any worker count. Rows are drawn in spans of
:func:`_chunk_rows` rows: the span's row keys are derived in bulk by
:func:`rng.keys`, one Philox is re-keyed per row, and each row is packed as
it is drawn. Each bit is an exact integer compare of a raw Philox word with
the column's threshold (:func:`rng.bernoulli`), equal to the ``u < p_i`` of
a uniform double. So the rows are those that :func:`row_bits` draws from
:func:`rng.stream` one at a time.

File format (all integers little-endian):

    magic "TRDC" | u32 version | u64 seed | u32 params_len | params key=value
    text | u64 m | m float64 biases | u64 n | u32 words_per_row | n*words u64
    packed row-major bits (64 per word, little-endian bit order) | u64 CRC-64

The trailing checksum is CRC-64/XZ over every preceding byte, computed by
liblzma's ``lzma_crc64`` through ctypes where it can be found (see
:func:`crc64`) and by a slice-by-8 Python loop otherwise.

One writer (:func:`_write_codebook`) and one reader (:class:`CodebookFile`)
handle the format, in chunks of rows sized by :func:`_chunk_rows`, so the
CLI's ``generate``, ``attack`` and ``trace`` hold a few chunks at a time, not
the whole matrix: the reader yields whole 4-row groups of about
:data:`_CHUNK_BYTES`, and :func:`generate_codebook` writes slices of about
``_CHUNK_BYTES / threads`` that workers draw ahead.
"""

import contextlib
import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, CodebookChecksumError, CodebookFormatError,
                     CodebookTruncatedError, CodebookVersionError, ParameterError)
from .model import (ARCSINE, BiasDistribution, SchemeParams, _check_cutoff, _integer, _probs,
                    _real_array, _support)
from .rng import (SEED_LIMIT, TAG_BIAS, TAG_ROW, _stream_range, bernoulli, check_seed, fan_out,
                  stream, thresholds)

MAGIC = b"TRDC"
VERSION = 1

# Bytes of packed rows per chunk, drawn, written or read (see _chunk_rows).
# The pipeline at n = 10^4 took the same time with 1, 2 and 4 MiB chunks on a
# 2-CPU x86-64 host; smaller chunks hold less.
_CHUNK_BYTES = 1 << 20

# Default memory budget for a single codebook: 2^33 bits = 1 GiB, counting the
# packed matrix and the 64-bit bias of every column.
DEFAULT_MAX_BITS = 1 << 33

# ---------------------------------------------------------------------------
# CRC-64/XZ (reflected poly 0xC96C5795D7870F42, init/xorout all-ones); check
# value crc64(b"123456789") == 0x995DC9BBDF1939FA.
#
# liblzma computes it as lzma_crc64(buf, size, crc), with this module's
# chaining convention. The symbol is looked up once, on first use, on the
# handle of CPython's own _lzma extension (which finds it whether liblzma is
# linked in statically or dynamically), else in the liblzma that ctypes finds;
# a candidate must give the check value. ctypes releases the GIL for the call,
# so a writer can checksum while other threads draw rows. Without liblzma,
# a slice-by-8 loop (Kounavis & Berry, ISCC 2005) advances the register one
# 8-byte word at a time: with v = register ^ word, the next register is the
# XOR over k of table[7 - k][byte k of v]. The bytewise oracle the tests
# compare against lives in tests/test_codegen.py.

_CRC_POLY_REFLECTED = 0xC96C5795D7870F42
_CRC_MASK = (1 << 64) - 1
_CRC_CHECK = 0x995DC9BBDF1939FA


@functools.cache
def _crc_tables():
    """The slice-by-8 tables; built on the first call, which only the fallback makes."""
    base = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC_POLY_REFLECTED if crc & 1 else crc >> 1
        base.append(crc)
    tables = [base]
    for k in range(1, 8):
        prev = tables[k - 1]
        tables.append([(prev[i] >> 8) ^ base[prev[i] & 0xFF] for i in range(256)])
    return tables


@functools.cache
def _lzma_crc64():
    """liblzma's ``lzma_crc64`` as a ctypes function, or None if none gives the check value."""
    import ctypes
    import ctypes.util
    try:
        import _lzma
        libraries = [_lzma.__file__]
    except (ImportError, AttributeError):  # no _lzma, or one built into the interpreter
        libraries = []
    libraries.append(ctypes.util.find_library("lzma"))
    for name in filter(None, libraries):
        try:
            fn = ctypes.CDLL(name).lzma_crc64
        except (OSError, AttributeError):
            continue
        fn.restype, fn.argtypes = ctypes.c_uint64, (ctypes.c_void_p, ctypes.c_size_t,
                                                     ctypes.c_uint64)
        if fn(b"123456789", 9, 0) == _CRC_CHECK:
            return fn
    return None


def crc64(data, crc=0):
    """CRC-64/XZ of ``data``; pass a previous result as ``crc`` to chain."""
    try:
        buf = memoryview(data).cast("B")
    except TypeError:  # not a contiguous buffer, e.g. an iterable of ints
        buf = memoryview(bytes(data))
    crc = _integer(crc, "crc", 0, _CRC_MASK)
    fast = _lzma_crc64()
    if fast is not None:
        # numpy gives the address of a read-only buffer too; ctypes' from_buffer does not.
        octets = np.frombuffer(buf, dtype=np.uint8)
        return fast(octets.ctypes.data, octets.size, crc)
    state = crc ^ _CRC_MASK
    t0, t1, t2, t3, t4, t5, t6, t7 = _crc_tables()
    head = len(buf) - len(buf) % 8
    for word in np.frombuffer(buf[:head], dtype="<u8").tolist():
        v = state ^ word
        state = (t7[v & 0xFF] ^ t6[(v >> 8) & 0xFF] ^ t5[(v >> 16) & 0xFF]
                 ^ t4[(v >> 24) & 0xFF] ^ t3[(v >> 32) & 0xFF] ^ t2[(v >> 40) & 0xFF]
                 ^ t1[(v >> 48) & 0xFF] ^ t0[v >> 56])
    for byte in buf[head:]:
        state = (state >> 8) ^ t0[(state ^ byte) & 0xFF]
    return state ^ _CRC_MASK


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiasVector:
    """The secret per-column probabilities, with the cutoff they honor."""

    p: np.ndarray
    t: float

    def __post_init__(self):
        arr = _probs(self.p, 1, "bias vector", *_support(_check_cutoff(self.t)))
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def m(self):
        return self.p.size


def sample_bias(m, t, seed):
    """Draw m i.i.d. biases from the arcsine density on [t, 1-t].

    Uses p = sin^2(r) with r uniform on [t', pi/2 - t']; stream (seed, bias tag).
    """
    m = _integer(m, "m", 1)
    dist = BiasDistribution(ARCSINE, t=t)
    return BiasVector(p=dist.sample(m, stream(seed, TAG_BIAS)), t=t)


def _words_per_row(m):
    return (m + 63) // 64


def _chunk_rows(words, threads=1):
    """Rows of ``words`` words that fit in about ``_CHUNK_BYTES / threads``; at least one."""
    return max(1, _CHUNK_BYTES // threads // (8 * max(words, 1)))


def _row_spans(n, rows):
    """(lo, hi) spans of rows 0..n-1 in whole groups of ``rows`` rows, the last
    running to n and keeping at least 4 rows when n >= 4 (see
    :func:`tracer._score_blocks`, which takes rows by the same rule)."""
    stops = range(rows, n - 3, rows)
    return zip([0, *stops], [*stops, n])


def _unpack(packed, m):
    """Packed rows as a (rows, m) uint8 bit array."""
    return np.unpackbits(packed.view(np.uint8), axis=1, count=m, bitorder="little")


def _user_indices(indices, n):
    """An index list as int64, checked to be 1-d integers in 0..n-1 before the cast."""
    # A Python int beyond int64 is out of range before numpy makes an object
    # or float array of it; the empty list then passes the checks below.
    huge = isinstance(indices, (list, tuple)) and [
        v for v in indices if isinstance(v, int) and abs(v) >= 2 ** 63]
    raw = _real_array([] if huge else indices, None, "user indices")
    if raw.ndim != 1 or (raw.size and raw.dtype.kind not in "iu"):
        raise ParameterError("user indices must form a 1-d list of integers", param="user indices")
    bad = huge or raw[(raw < 0) | (raw >= n)]
    if len(bad):
        raise ParameterError(f"user {bad[0]} outside 0..{n - 1}: index out of range",
                             param="user indices")
    return raw.astype(np.int64)


def _select(cb, indices):
    """Unpacked rows of ``cb`` for an index list, in the given order, picked
    from its chunks in one pass."""
    idx = _user_indices(indices, cb.n)
    picked = np.empty((idx.size, _words_per_row(cb.m)), dtype="<u8")
    for lo, rows in cb.chunks():
        hit = (idx >= lo) & (idx < lo + len(rows))
        picked[hit] = rows[idx[hit] - lo]
    return _unpack(picked, cb.m)


def _check_dims(params, n, m):
    if params is not None and (params.n != n or params.m != m):
        raise ParameterError("codebook dimensions disagree with params")


def row_bits(bias, seed, j):
    """Regenerate row ``j`` alone: Bernoulli(p_i) from stream (seed, row tag, j)."""
    j = _integer(j, "j", 0, SEED_LIMIT - 1)
    return bernoulli(stream(seed, TAG_ROW, j), thresholds(bias.p), bias.m).astype(np.uint8)


@dataclass(frozen=True)
class Codebook:
    """Immutable codebook: bias vector plus packed codeword rows."""

    bias: BiasVector
    rows: np.ndarray  # shape (n, words), dtype <u8, little-endian bit order
    seed: int
    params: SchemeParams | None = None

    def __post_init__(self):
        arr = np.asarray(self.rows)
        if arr.dtype != np.dtype("<u8") or arr.ndim != 2:
            raise ParameterError("rows must be a 2-d array of little-endian 64-bit words")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)
        object.__setattr__(self, "seed", check_seed(self.seed))
        if arr.shape[1] != _words_per_row(self.bias.m):
            raise ParameterError("packed row width disagrees with bias length")
        _check_dims(self.params, arr.shape[0], self.bias.m)

    @property
    def n(self):
        return self.rows.shape[0]

    @property
    def m(self):
        return self.bias.m

    def chunks(self):
        """Yield ``(0, rows)``: the packed rows as one chunk (see :meth:`CodebookFile.chunks`)."""
        yield 0, self.rows

    def block_bits(self, lo, hi):
        """Unpacked rows lo..hi-1 as a (hi-lo, m) uint8 array."""
        return _unpack(self.rows[lo:hi], self.m)

    def row(self, j):
        return self.block_bits(j, j + 1)[0]

    def select_bits(self, indices):
        """Unpacked rows for an arbitrary index list, in the given order."""
        return _select(self, indices)


def _check_capacity(n, m, max_bits=DEFAULT_MAX_BITS):
    """``n`` as an int: a user count, checked by :func:`model._integer`, such
    that an n x m codebook and its m float64 biases fit in ``max_bits``."""
    n = _integer(n, "n", 1)
    if (n + 64) * m > _integer(max_bits, "max_bits", 0):
        raise CapacityError(f"codebook of {n} x {m} bits plus {m} 64-bit biases "
                            f"exceeds the budget of {max_bits} bits")
    return n


def gen_matrix(n, bias, seed, params=None, threads=1, max_bits=DEFAULT_MAX_BITS, first=0):
    """Generate the n x m codeword matrix over ``bias``, packed 64 bits/word.

    Entry (j, i) is an independent Bernoulli(bias.p[i]) draw taken from row
    stream j, so the result is identical for every ``threads`` value. With
    ``first`` the rows are those of users ``first .. first+n-1`` of a larger
    code, the slices in which :func:`generate_codebook` writes one.
    """
    n, seed = _check_capacity(n, bias.m, max_bits), check_seed(seed)
    threads, first = _integer(threads, "threads", 1), _integer(first, "first", 0)
    rows = np.zeros((n, _words_per_row(bias.m)), dtype="<u8")
    octets, width = rows.view(np.uint8), (bias.m + 7) // 8
    thr = thresholds(bias.p)
    spans = list(_row_spans(n, _chunk_rows(rows.shape[1], threads)))

    def pack(k):
        lo, hi = spans[k]
        for j, gen in enumerate(_stream_range(seed, TAG_ROW, first + lo, first + hi), lo):
            octets[j, :width] = np.packbits(bernoulli(gen, thr, bias.m), bitorder="little")

    for _ in fan_out(pack, len(spans), threads):
        pass
    return Codebook(bias=bias, rows=rows, seed=seed, params=params)


def generate_codebook(path, n, bias, seed, params=None, threads=1):
    """Generate an n-user codebook over ``bias`` straight into the file ``path``.

    The file is byte for byte ``save_codebook(gen_matrix(n, bias, seed,
    params, threads), path)``, but each span that :func:`gen_matrix` would
    draw is one slice, drawn by a one-thread :func:`gen_matrix` call and
    written in order, so memory does not grow with n. Workers draw the next
    slices (:func:`rng.fan_out`) while this thread checksums and writes. The
    budget of :func:`gen_matrix` still applies to the whole code.
    """
    seed, n = check_seed(seed), _check_capacity(n, bias.m)
    threads = _integer(threads, "threads", 1)
    spans = list(_row_spans(n, _chunk_rows(_words_per_row(bias.m), threads)))
    slices = fan_out(
        lambda k: gen_matrix(spans[k][1] - spans[k][0], bias, seed, first=spans[k][0]).rows,
        len(spans), threads)
    with contextlib.closing(slices):  # a failed write stops the workers before it propagates
        _write_codebook(path, seed, params, bias, n, slices)


def save_codebook(cb, path):
    """Write ``cb`` to ``path`` in the versioned binary format."""
    _write_codebook(path, cb.seed, cb.params, cb.bias, cb.n, [cb.rows])


def _write_codebook(path, seed, params, bias, n, chunks):
    """Write the header, the packed row ``chunks`` (n rows in all, in order)
    and the CRC-64 of both to ``path``.

    Each chunk is written and checksummed in place, without a copy.
    """
    params_blob = params.kv_text().encode("utf-8") if params is not None else b""
    head = b"".join([MAGIC, struct.pack("<IQI", VERSION, seed, len(params_blob)), params_blob,
                     struct.pack("<Q", bias.m), bias.p.astype("<f8").tobytes(),
                     struct.pack("<QI", n, _words_per_row(bias.m))])
    with _atomic_open(path, "wb") as fh:
        fh.write(head)
        crc, written = crc64(head), 0
        for chunk in chunks:
            part = memoryview(np.ascontiguousarray(chunk))
            fh.write(part)
            crc = crc64(part, crc)
            written += len(chunk)
            del chunk, part  # before the next chunk is taken
        if written != n:
            raise ParameterError(f"{written} rows written, the header says {n}")
        fh.write(struct.pack("<Q", crc))


@contextlib.contextmanager
def _atomic_open(path, mode, **kwargs):
    """Open ``path`` for writing (``mode`` "w" or "wb") so that it is replaced
    whole or not at all.

    The data go to a file beside the real path (symlinks resolved), renamed
    over it on success, so a failure leaves the previous file intact and a
    symlink keeps pointing at its target. A target that exists but is not a
    regular file, such as a FIFO or a device, is written in place: a rename
    would replace the node. Mode "x" creates the file with the permissions a
    plain open(path, "w") would give a new file; a file it replaces keeps its
    own, as it would under open(path, "w").
    """
    real = os.path.realpath(path)
    if os.path.exists(real) and not os.path.isfile(real):
        with open(real, mode, **kwargs) as fh:
            yield fh
        return
    tmp = f"{real}.{os.urandom(8).hex()}.tmp"  # secrets would load hashlib and libcrypto
    fh = open(tmp, "x" + mode[1:], **kwargs)
    try:
        if os.path.exists(real):
            os.chmod(tmp, os.stat(real).st_mode & 0o7777)
        with fh:
            yield fh
        os.replace(tmp, real)
    except BaseException:
        os.unlink(tmp)
        raise


class _Cursor:
    """Reads a file front to back, chaining CRC-64 over what it reads."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.off = 0
        self.crc = 0

    def fill(self, buf, what):
        """Read into the writable buffer ``buf`` and return it."""
        view = memoryview(buf)
        view = view.cast("B") if view.nbytes else memoryview(bytearray())  # no 0-row cast
        if self.off + len(view) > self.size or self.fh.readinto(view) != len(view):
            raise CodebookTruncatedError(f"file ends inside {what}")
        self.off += len(view)
        self.crc = crc64(view, self.crc)
        return buf

    def take(self, k, what):
        if self.off + k > self.size:  # before a bytearray of a corrupt length
            raise CodebookTruncatedError(f"file ends inside {what}")
        return self.fill(bytearray(k), what)

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]


class CodebookFile:
    """A codebook file opened for reading its rows in chunks.

    Opening parses the header and checks the file's size against it, so a
    truncated file or trailing bytes fail before any row is read. ``bias``,
    ``seed``, ``params``, ``n`` and ``m`` are those of the codebook;
    :meth:`chunks` yields its rows. Use it as a context manager: a bad
    header field (``n=8.5``, a bias outside [t, 1-t]) raises
    :class:`CodebookFormatError`, and it or a ``ValueError`` raised in the
    ``with`` block is reported only once the whole file's checksum holds,
    and a :class:`CodebookChecksumError` otherwise: a corrupt file fails as one.
    """

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self._open()
        except BaseException as exc:
            self.__exit__(type(exc), exc, None)
            raise

    def _open(self):
        cur = self._cur = _Cursor(self._fh)
        if cur.take(4, "magic") != MAGIC:
            raise CodebookFormatError("not a codebook file (bad magic)")
        version = cur.u32("version")
        if version != VERSION:
            raise CodebookVersionError(f"unsupported codebook version {version}")
        self.seed = cur.u64("seed")
        params_blob = cur.take(cur.u32("params length"), "params block")
        m = cur.u64("bias length")
        bias_raw = cur.take(8 * m, "bias block")
        self.n = cur.u64("row count")
        self.words = cur.u32("words per row")
        self._rows_at, self._head_crc = cur.off, cur.crc
        end = cur.off + 8 * self.n * self.words
        if cur.size < end:
            raise CodebookTruncatedError("file ends inside bit matrix")
        if cur.size < end + 8:
            raise CodebookTruncatedError("file ends inside checksum")
        if cur.size > end + 8:
            raise CodebookFormatError("trailing bytes after checksum")
        if self.words != _words_per_row(m):
            raise CodebookFormatError("words per row disagrees with bias length")
        try:
            self.params = (SchemeParams.from_kv_text(str(params_blob, "utf-8"))
                           if params_blob else None)
            p = np.frombuffer(bias_raw, dtype="<f8")
            t = self.params.t if self.params is not None else _infer_cutoff(p)
            self.bias = BiasVector(p=p, t=t)
            _check_dims(self.params, self.n, m)
        except ValueError as exc:  # a ParameterError or bad UTF-8 too
            self.verify()  # a corrupt file fails as a checksum error
            raise CodebookFormatError(f"bad header: {exc}") from exc

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        try:
            if isinstance(exc, ValueError):
                self.verify()
        finally:
            self._fh.close()

    @property
    def m(self):
        return self.bias.m

    def chunks(self, out=None):
        """Yield ``(lo, rows)``: the packed rows lo..lo+len(rows)-1, front to back.

        The chunks are the :func:`_row_spans` of whole 4-row groups of about
        :data:`_CHUNK_BYTES`, read into one buffer that the next overwrites.
        With ``out`` (an (n, words) array) all rows are read into it as one
        chunk. The checksum is verified before the last chunk is yielded, so
        a consumer that has seen every chunk has read a sound file. Each call
        reads the rows again; take one pass at a time.
        """
        cur = self._cur
        self._fh.seek(self._rows_at)
        cur.off, cur.crc = self._rows_at, self._head_crc
        if out is None:
            step = 4 * max(1, _chunk_rows(self.words) // 4)
            out = np.empty((min(step + 3, self.n), self.words), dtype="<u8")
        else:
            step = max(self.n, 1)
        spans = list(_row_spans(self.n, step))
        for i, (lo, hi) in enumerate(spans, 1):
            rows = cur.fill(out[:hi - lo], "bit matrix")
            if i == len(spans) and self._fh.read(8) != struct.pack("<Q", cur.crc):
                raise CodebookChecksumError("checksum mismatch: file is corrupt")
            yield lo, rows

    def verify(self):
        """Read every row; raise :class:`CodebookChecksumError` if the file is corrupt."""
        for _ in self.chunks():
            pass

    def select_bits(self, indices):
        """Unpacked rows for an arbitrary index list, in the given order, in one pass."""
        return _select(self, indices)


def load_codebook(path):
    """Read a codebook written by :func:`save_codebook`, verifying the checksum.

    The rows are read straight into the codebook's array, without a copy.
    """
    with CodebookFile(path) as f:
        rows = np.empty((f.n, f.words), dtype="<u8")
        for _ in f.chunks(rows):
            pass
    return Codebook(bias=f.bias, rows=rows, seed=f.seed, params=f.params)


def _infer_cutoff(p):
    # Params-less files: recover the tightest cutoff consistent with the data.
    edge = min(float(p.min()), 1.0 - float(p.max()))
    return min(max(edge, 1e-12), 0.25)
