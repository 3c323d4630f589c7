"""Malformed arrays at the public API: each entry point that takes bits, user
indices or real arrays raises ParameterError, never another exception and
never a silent cast, and a bool, int or float array of 0 and 1 gives exactly
the result of its uint8 copy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tardos import ParameterError, SchemeParams, Strategy, forge
from tardos.codegen import BiasVector, gen_matrix, sample_bias
from tardos.simulate import SimConfig
from tardos.tracer import PirateCopy, coalition_score, score_user, trace

M = 8
BOOK = gen_matrix(5, sample_bias(M, 1e-2, seed=1), seed=1)
Y = np.array([0, 1, 1, 1, 0, 0, 1, 0], dtype=np.uint8)

# Values that are not bits; 256 and -1 wrap to 0 and 255 when cast to uint8.
BAD_VALUES = [2, 1.7, -1, 256, math.nan, math.inf, -math.inf]
VALID_DTYPES = [bool, np.int8, np.int64, np.uint16, np.float32, np.float64]


def _shape(ndim):
    if ndim == 1:
        return st.just((M,))
    return st.integers(1, 3).map(lambda rows: (rows, M))


@st.composite
def bit_arrays(draw, ndim):
    """A valid bit array of ``ndim`` dimensions (M columns), as uint8."""
    shape = draw(_shape(ndim))
    return np.array(draw(st.lists(st.integers(0, 1), min_size=math.prod(shape),
                                  max_size=math.prod(shape))), dtype=np.uint8).reshape(shape)


@st.composite
def malformed_bits(draw, ndim):
    """An array or list that no bit-array entry point may accept."""
    bits = draw(bit_arrays(ndim))
    kind = draw(st.sampled_from(["value", "dtype", "ndim", "empty"]))
    if kind == "value":
        bad = draw(st.sampled_from(BAD_VALUES))
        dtype = np.int64 if float(bad).is_integer() else np.float64
        out = bits.astype(dtype)
        out.flat[draw(st.integers(0, bits.size - 1))] = bad
        return out.tolist() if draw(st.booleans()) else out
    if kind == "dtype":
        return bits.astype(draw(st.sampled_from([object, str, complex])))
    if kind == "ndim":
        wrong = [bits.flat[0], bits[None]] + ([bits[0]] if ndim == 2 else [])
        return draw(st.sampled_from(wrong))
    return np.zeros((0,) if ndim == 1 else draw(st.sampled_from([(0, M), (2, 0)])))


def test_forge_rejects_a_fraction_before_the_cast():
    # Cast to uint8 first, the 1.7 would be forged as a 1.
    with pytest.raises(ParameterError, match="binary"):
        forge(np.array([[1.7, 0, 1, 0], [0, 1, 1, 0]]), "interleave", seed=1)


BIT_ENTRIES = {
    "PirateCopy": (1, lambda x: PirateCopy(bits=x).bits),
    "forge": (2, lambda x: forge(x, "interleave", seed=3).bits),
    "score_user row": (1, lambda x: score_user(x, Y, BOOK.bias)),
    "score_user y": (1, lambda x: score_user(BOOK.row(0), x, BOOK.bias)),
    "coalition_score rows": (2, lambda x: coalition_score(x, Y, BOOK.bias)),
    "coalition_score y": (1, lambda x: coalition_score(BOOK.select_bits([0, 2]), x, BOOK.bias)),
    "trace y": (1, lambda x: trace(BOOK, x, Z=0.0).scores),
}


@pytest.mark.parametrize("entry", sorted(BIT_ENTRIES))
class TestBitArrays:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_malformed_raises_parameter_error(self, entry, data):
        ndim, call = BIT_ENTRIES[entry]
        with pytest.raises(ParameterError):
            call(data.draw(malformed_bits(ndim)))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_real_dtype_gives_the_uint8_result(self, entry, data):
        ndim, call = BIT_ENTRIES[entry]
        bits = data.draw(bit_arrays(ndim))
        x = bits.astype(data.draw(st.sampled_from(VALID_DTYPES)))
        assert np.array_equal(call(x), call(bits))
        assert np.array_equal(call(x.tolist()), call(bits))


INDEX_ENTRIES = {
    "select_bits": lambda idx: BOOK.select_bits(idx),
    "trace coalition": lambda idx: trace(BOOK, Y, Z=0.0, coalition=idx).coalition_score,
}
BAD_INDICES = [[1.7], [1.0], [-1], [BOOK.n], [math.nan], [math.inf], ["1"], [1j], [True],
               np.array([1], dtype=object), 1, [[1]]]


@pytest.mark.parametrize("entry", sorted(INDEX_ENTRIES))
class TestUserIndices:
    @pytest.mark.parametrize("bad", BAD_INDICES, ids=repr)
    def test_malformed_raises_parameter_error(self, entry, bad):
        with pytest.raises(ParameterError):
            INDEX_ENTRIES[entry](bad)

    @settings(max_examples=20, deadline=None)
    @given(idx=st.lists(st.integers(0, BOOK.n - 1), max_size=4),
           dtype=st.sampled_from([np.int8, np.int32, np.uint16, np.int64]))
    def test_any_int_dtype_gives_the_int64_result(self, entry, idx, dtype):
        call = INDEX_ENTRIES[entry]
        expected = call(np.array(idx, dtype=np.int64))
        assert np.array_equal(call(np.array(idx, dtype=dtype)), expected)
        assert np.array_equal(call(idx), expected)  # an empty list stays valid


@st.composite
def malformed_reals(draw, valid):
    """An array or list that breaks ``valid`` (a good 1-d real array) by value,
    dtype, ndim or emptiness."""
    kind = draw(st.sampled_from(["value", "dtype", "ndim", "empty"]))
    if kind == "value":
        out = np.array(valid, dtype=np.float64)
        out[draw(st.integers(0, out.size - 1))] = draw(st.sampled_from(BAD_VALUES))
        return out.tolist() if draw(st.booleans()) else out
    if kind == "dtype":
        return np.array(valid).astype(draw(st.sampled_from([object, str, complex])))
    if kind == "ndim":
        return draw(st.sampled_from([np.float64(valid[0]), np.array(valid)[None]]))
    return []


REAL_ENTRIES = {
    "BiasVector": ([0.3, 0.5, 0.2], lambda x: BiasVector(p=x, t=0.1).p),
    "Strategy.from_table": ([0.0, 0.5, 1.0], lambda x: Strategy.from_table(x).psi),
}


@pytest.mark.parametrize("entry", sorted(REAL_ENTRIES))
class TestRealArrays:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_malformed_raises_parameter_error(self, entry, data):
        valid, call = REAL_ENTRIES[entry]
        with pytest.raises(ParameterError):
            call(data.draw(malformed_reals(valid)))

    def test_list_and_array_agree(self, entry):
        valid, call = REAL_ENTRIES[entry]
        assert np.array_equal(call(valid), call(np.array(valid)))


PARAMS = SchemeParams(n=10, m=100, c0=3, eps1=0.1, eps2=0.1, t=0.01, Z=5.0)
BAD_COUNTS = [-1, 1.7, 2.0, math.nan, math.inf, -math.inf, "2", None, 1j, np.array([2])]
# Each field's own out-of-range integers.
OUT_OF_RANGE = {"trials": [0], "innocents_per_trial": [0], "histogram_bins": [0, 10 ** 6 + 1],
                "seed": [2 ** 64]}


class TestSimConfig:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_malformed_count_raises_parameter_error(self, data):
        field = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        bad = data.draw(st.sampled_from(BAD_COUNTS + OUT_OF_RANGE[field]))
        kw = dict(params=PARAMS, strategy="interleave", c=2, trials=2,
                  innocents_per_trial=3, seed=0)
        with pytest.raises(ParameterError):
            SimConfig(**{**kw, field: bad})

    def test_numpy_integers_are_accepted(self):
        cfg = SimConfig(params=PARAMS, strategy="interleave", c=2, trials=np.int64(2),
                        innocents_per_trial=np.uint8(3), seed=np.int32(0),
                        histogram_bins=np.int16(8))
        assert (cfg.trials, cfg.innocents_per_trial, cfg.seed) == (2, 3, 0)
