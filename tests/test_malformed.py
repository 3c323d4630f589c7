"""Malformed arrays and scalars at the public API: each entry point that
takes bits, user indices, real arrays, probabilities, counts, seeds, thread
counts, rates, cutoffs or shape constants raises ParameterError, never
another exception and never a silent cast, and a bool, int or float array of
0 and 1 gives exactly the result of its uint8 copy. Ragged nested lists are
malformed too."""

import inspect
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tardos
from tardos import (ARCSINE, BETA, BiasDistribution, ClosedFormInputs, Codebook, DerivedConstants,
                    GeneralConditionInputs, ParameterError, SchemeParams, Strategy, bias_density,
                    check_tardos_condition, clt_report, conservative_plan, crc64, default_cutoff,
                    emit_search_table, erfc, erfc_inv, expectation, forge, g0, g1, length_window,
                    log_erfc, m_min, moments, normal_cdf, nu, row_bits, search_min_A,
                    strategy_psi, tprime, wilson_interval, z_interval)
from tardos.codegen import BiasVector, gen_matrix, generate_codebook, sample_bias
from tardos.model import _C0_MAX
from tardos.rng import check_seed, thresholds
from tardos.simulate import SimConfig
from tardos.tracer import PirateCopy, coalition_score, score_user, trace

M = 8
BOOK = gen_matrix(5, sample_bias(M, 1e-2, seed=1), seed=1)
Y = np.array([0, 1, 1, 1, 0, 0, 1, 0], dtype=np.uint8)

# Values that are not bits; 256 and -1 wrap to 0 and 255 when cast to uint8.
BAD_VALUES = [2, 1.7, -1, 256, math.nan, math.inf, -math.inf]
VALID_DTYPES = [bool, np.int8, np.int64, np.uint16, np.float32, np.float64]


def ragged(values):
    """The nested list of ``values`` with its first scalar wrapped in a list,
    which numpy cannot make rectangular."""
    out = np.asarray(values).tolist()
    inner = out if np.ndim(values) == 1 else out[0]
    inner[0] = [inner[0]]
    return out


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
    kind = draw(st.sampled_from(["value", "dtype", "ndim", "empty", "ragged"]))
    if kind == "ragged":
        return ragged(bits)
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
               np.array([1], dtype=object), 1, [[1]], [[1], [1, 2]], [1, [2]],
               # Python ints outside int64, of which numpy makes object or float arrays.
               [0, 2 ** 64], [0, 2 ** 63], (-(2 ** 63) - 1,)]



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
    dtype, ndim, emptiness or raggedness."""
    kind = draw(st.sampled_from(["value", "dtype", "ndim", "empty", "ragged"]))
    if kind == "ragged":
        return ragged(valid)
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
    "Strategy psi": ([0.0, 0.5, 1.0], lambda x: Strategy(kind="custom", c=2, psi=x).psi),
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


DIST = BiasDistribution(ARCSINE, t=0.01)

# Probabilities in (0, 1), of any shape: a string is not cast to a number.
OPEN_PROBS = {"g1": g1, "g0": g0, "bias density": DIST.density}
BAD_PROBS = ["0.5", b"0.5", ["0.5", "0.2"], np.array(["0.5"]), None, 0.5j, [0.5j],
             np.array([0.5], dtype=object), [[0.1], [0.2, 0.3]], [0.1, [0.2]], 0.0, 1.0,
             math.nan, [0.5, math.inf]]


@pytest.mark.parametrize("entry", sorted(OPEN_PROBS))
@pytest.mark.parametrize("bad", BAD_PROBS, ids=repr)
def test_malformed_probability_raises_parameter_error(entry, bad):
    with pytest.raises(ParameterError):
        OPEN_PROBS[entry](bad)


# Every probability array a caller passes: the argument ParameterError names,
# the interval its message states, a valid value, values just outside the
# interval, and the call.
PROB_ENTRIES = {
    "g1": ("p", "(0, 1)", [0.25, 0.5], [0.0, 1.0], g1),
    "g0": ("p", "(0, 1)", [0.25, 0.5], [0.0, 1.0], g0),
    "bias_density p": ("p", "[0.01, 0.99]", [0.25, 0.5], [0.0, 0.005, 0.995, 1.0],
                       lambda x: bias_density(DIST, x)),
    "thresholds": ("p", "(0, 1]", [0.25, 1.0], [0.0, -0.5, 1.5], thresholds),
    "BiasVector p": ("bias vector", "[0.1, 0.9]", [0.3, 0.5], [0.0, 0.05, 0.95, 1.0],
                     lambda x: BiasVector(p=x, t=0.1).p),
    "Strategy psi": ("psi table", "[0, 1]", [0.0, 0.5, 1.0], [-0.5, 1.5],
                     lambda x: Strategy(kind="custom", c=2, psi=x).psi),
}


@st.composite
def malformed_probs(draw, valid, outside):
    """``valid`` with a value outside its interval, NaN or +/-inf, of a
    non-real dtype, as bools, or ragged."""
    kind = draw(st.sampled_from(["value", "dtype", "bool", "ragged"]))
    if kind == "ragged":
        return ragged(valid)
    if kind == "dtype":
        return np.array(valid).astype(draw(st.sampled_from([object, str, complex])))
    if kind == "bool":
        out = np.array(draw(st.lists(st.booleans(), min_size=len(valid), max_size=len(valid))))
    else:
        out = np.array(valid, dtype=np.float64)
        out[draw(st.integers(0, out.size - 1))] = draw(
            st.sampled_from(outside + [math.nan, math.inf, -math.inf]))
    return out.tolist() if draw(st.booleans()) else out


@pytest.mark.parametrize("entry", sorted(PROB_ENTRIES))
class TestProbabilities:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_malformed_raises_parameter_error_naming_the_argument(self, entry, data):
        param, _, valid, outside, call = PROB_ENTRIES[entry]
        with pytest.raises(ParameterError) as exc:
            call(data.draw(malformed_probs(valid, outside)))
        assert exc.value.param == param

    def test_message_states_the_interval(self, entry):
        _, interval, valid, outside, call = PROB_ENTRIES[entry]
        for v in outside:
            with pytest.raises(ParameterError, match=re.escape(interval)):
                call([v] + valid[1:])


def test_probabilities_of_any_real_dtype_agree():
    p = np.array([0.25, 0.5, 0.75])
    assert g1(0.5) == 1.0 and isinstance(g1(np.float32(0.5)), float)
    assert np.array_equal(g0(p.tolist()), g0(p))
    assert np.array_equal(g1(p.astype(np.float32)), g1(p.astype(np.float32).astype(np.float64)))


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


# Scalars: every count, seed, thread count, rate and cutoff is checked for its
# type before any cast, so a fraction, a string or a bool is never taken as a
# number.
NOT_NUMBERS = [True, False, np.bool_(True), "2", "0.1", None, 1j, np.complex128(1),
               np.array(2), [2]]
SEEDS = (0, 2 ** 64 - 1)
NO_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "no-such-dir", "cb.bin")


def not_integers(lo, hi):
    """Values an integer argument in [lo, hi] must reject: every float,
    integral or not, every non-number and the integers out of range."""
    out = [st.floats(), st.sampled_from(NOT_NUMBERS + [np.float64(2.0), np.float32(3.0)]),
           st.integers(max_value=lo - 1)]
    if hi != math.inf:
        out.append(st.integers(min_value=hi + 1))
    return st.one_of(out)


def not_reals(lo, hi):
    """Values a real argument in the open interval (lo, hi) must reject."""
    return st.one_of(st.sampled_from(NOT_NUMBERS + [10 ** 400, -(10 ** 400)]),
                     st.floats().filter(lambda x: not lo < x < hi),
                     st.integers().filter(lambda x: not lo < x < hi))


def optional(bad):
    """``bad`` without None, which an optional argument takes as "not given"."""
    return bad.filter(lambda v: v is not None)


def params(**kw):
    return SchemeParams(**{**dict(n=10, m=100, c0=3, eps1=0.1, eps2=0.1, t=0.01), **kw})


def sim(**kw):
    return SimConfig(**{**dict(params=PARAMS, strategy="interleave", c=2, trials=2,
                               innocents_per_trial=3, seed=0), **kw})


def window(**kw):
    return length_window(**{**dict(nu=1.0, L=3.0, alpha2=2e-3, c0=4, eps1=1e-10, eps2=1e-2),
                            **kw})


def condition(**kw):
    return GeneralConditionInputs(**{**dict(dist=BiasDistribution(ARCSINE, t=0.01), c=3,
                                            alpha2=1e-3, L=1.0), **kw})


def closed_form(**kw):
    return ClosedFormInputs(**{**dict(c0=4.0, tau=0.01, omega=0.1, eps1=1e-10, eps2=1e-2), **kw})


def above(lo, hi):
    """Values a real argument in [lo, hi) must reject."""
    return not_reals(lo, hi).filter(lambda v: v != lo)


SUMMARY = moments("interleave", 2, t=0.01)


SCALAR_ENTRIES = {
    "check_seed": (check_seed, not_integers(*SEEDS)),
    "forge seed": (lambda v: forge([[0, 1], [1, 1]], "interleave", seed=v),
                   not_integers(*SEEDS)),
    "sample_bias m": (lambda v: sample_bias(v, 0.01, seed=0), not_integers(1, math.inf)),
    "sample_bias seed": (lambda v: sample_bias(4, 0.01, seed=v), not_integers(*SEEDS)),
    "sample_bias t": (lambda v: sample_bias(4, v, seed=0), not_reals(0.0, 0.5)),
    "gen_matrix n": (lambda v: gen_matrix(v, BOOK.bias, seed=0), not_integers(1, math.inf)),
    "gen_matrix seed": (lambda v: gen_matrix(2, BOOK.bias, seed=v), not_integers(*SEEDS)),
    "gen_matrix threads": (lambda v: gen_matrix(2, BOOK.bias, seed=0, threads=v),
                           not_integers(1, math.inf)),
    "generate_codebook n": (lambda v: generate_codebook(NO_FILE, v, BOOK.bias, 0),
                            not_integers(1, math.inf)),
    "generate_codebook threads": (lambda v: generate_codebook(NO_FILE, 2, BOOK.bias, 0,
                                                              threads=v),
                                  not_integers(1, math.inf)),
    "SchemeParams n": (lambda v: params(n=v), not_integers(1, math.inf)),
    "SchemeParams m": (lambda v: params(m=v), not_integers(1, math.inf)),
    "SchemeParams c0": (lambda v: params(c0=v), not_integers(1, _C0_MAX)),
    "SchemeParams eps1": (lambda v: params(eps1=v), not_reals(0.0, 1.0)),
    "SchemeParams eps2": (lambda v: params(eps2=v), not_reals(0.0, 1.0)),
    "SchemeParams t": (lambda v: params(t=v), not_reals(0.0, 0.5)),
    "SchemeParams A": (lambda v: params(A=v), optional(not_reals(0.0, math.inf))),
    "SchemeParams B": (lambda v: params(B=v), optional(not_reals(0.0, math.inf))),
    # Z is any real or +/-inf.
    "SchemeParams Z": (lambda v: params(Z=v),
                       optional(st.sampled_from(NOT_NUMBERS + [math.nan, 10 ** 400]))),
    "SimConfig c": (lambda v: sim(c=v), not_integers(1, PARAMS.c0)),
    "SimConfig threads": (lambda v: sim(threads=v), not_integers(1, math.inf)),
    "search_min_A c0": (lambda v: search_min_A(v, 1e-10, 1e-3, 10, 0),
                        not_integers(1, _C0_MAX)),
    "search_min_A iterations": (lambda v: search_min_A(4, 1e-10, 1e-3, v, 0),
                                not_integers(1, math.inf)),
    "search_min_A eps1": (lambda v: search_min_A(4, v, 1e-3, 10, 0), not_reals(0.0, 1.0)),
    "check_tardos_condition t": (lambda v: check_tardos_condition(4, v, 0.01, 5.0),
                                 not_reals(0.0, 0.5)),
    "check_tardos_condition c0": (lambda v: check_tardos_condition(v, 0.01, 0.01, 5.0),
                                  not_integers(1, _C0_MAX)),
    "strategy_psi c": (lambda v: strategy_psi("coin", v), not_integers(1, 10 ** 6)),
    "moments c": (lambda v: moments("interleave", v, t=0.01), not_integers(1, math.inf)),
    "moments t": (lambda v: moments("interleave", 2, t=v), not_reals(0.0, 0.5)),
    "tprime": (tprime, not_reals(0.0, 0.5)),
    "BiasDistribution t": (lambda v: BiasDistribution(ARCSINE, t=v), not_reals(0.0, 0.5)),
    "BiasVector t": (lambda v: BiasVector(p=[0.3, 0.5], t=v), not_reals(0.0, 0.5)),
    "default_cutoff c0": (default_cutoff, not_integers(1, _C0_MAX)),
    "conservative_plan c0": (lambda v: conservative_plan(v, 0.01, 0.1, 0.1),
                             not_integers(1, _C0_MAX)),
    "conservative_plan eps1": (lambda v: conservative_plan(4, 0.01, v, 0.1),
                               not_reals(0.0, 1.0)),
    "clt_report c0": (lambda v: clt_report(v), not_integers(1, _C0_MAX)),
    "clt_report t": (lambda v: clt_report(4, t=v), optional(not_reals(0.0, 0.5))),
    "trace Z": (lambda v: trace(BOOK, Y, Z=v),
                st.sampled_from(NOT_NUMBERS + [math.nan, 10 ** 400])),
    "length_window nu": (lambda v: window(nu=v), not_reals(0.0, math.inf)),
    "length_window L": (lambda v: window(L=v), not_reals(0.0, math.inf)),
    "length_window alpha2": (lambda v: window(alpha2=v), not_reals(0.0, math.inf)),
    "length_window c0": (lambda v: window(c0=v), not_integers(1, _C0_MAX)),
    "length_window B": (lambda v: window(B=v), optional(not_reals(0.0, math.inf))),
    "wilson_interval successes": (lambda v: wilson_interval(v, 10), not_integers(0, 10)),
    "wilson_interval n": (lambda v: wilson_interval(1, v), not_integers(1, math.inf)),
    "BiasDistribution a": (lambda v: BiasDistribution(BETA, t=0.01, a=v, b=1.0),
                           not_reals(0.0, math.inf)),
    "BiasDistribution b": (lambda v: BiasDistribution(BETA, t=0.01, a=1.0, b=v),
                           not_reals(0.0, math.inf)),
    "GeneralConditionInputs c": (lambda v: condition(c=v), not_integers(1, math.inf)),
    "GeneralConditionInputs alpha2": (lambda v: condition(alpha2=v), not_reals(0.0, math.inf)),
    "GeneralConditionInputs L": (lambda v: condition(L=v), not_reals(0.0, math.inf)),
    "GeneralConditionInputs beta": (lambda v: condition(beta=v), not_reals(0.0, 1.0)),
    "DerivedConstants.from_scheme t": (lambda v: DerivedConstants.from_scheme(v, 4),
                                       not_reals(0.0, 0.5)),
    "DerivedConstants.from_scheme c0": (lambda v: DerivedConstants.from_scheme(0.01, v),
                                        not_integers(1, _C0_MAX)),
    "z_interval c0": (lambda v: z_interval(SUMMARY, 100, 0.1, 0.1, v), not_integers(1, _C0_MAX)),
    "z_interval m": (lambda v: z_interval(SUMMARY, v, 0.1, 0.1, 4), not_reals(0.0, math.inf)),
    "z_interval eps1": (lambda v: z_interval(SUMMARY, 100, v, 0.1, 4), not_reals(0.0, 1.0)),
    "z_interval eps2": (lambda v: z_interval(SUMMARY, 100, 0.1, v, 4), not_reals(0.0, 1.0)),
    "m_min eps1": (lambda v: m_min(SUMMARY, v, 0.1, 4), not_reals(0.0, 1.0)),
    "m_min eps2": (lambda v: m_min(SUMMARY, 0.1, v, 4), not_reals(0.0, 1.0)),
    "m_min c0": (lambda v: m_min(SUMMARY, 0.1, 0.1, v), not_integers(1, _C0_MAX)),
    # upper lies in the support [0.01, 0.99] of DIST.
    "expectation upper": (lambda v: expectation(DIST, lambda p: p, upper=v),
                          optional(not_reals(0.0, 1.0))),
    "expectation tol": (lambda v: expectation(DIST, lambda p: p, tol=v),
                        not_reals(0.0, math.inf)),
    "nu tol": (lambda v: nu(DIST, tol=v), not_reals(0.0, math.inf)),
    "wilson_interval z": (lambda v: wilson_interval(1, 10, z=v), not_reals(0.0, math.inf)),
    "SimConfig keep_scores": (lambda v: sim(keep_scores=v),
                              st.sampled_from(["no", "", 0, 1, 1.0, None, [True],
                                               np.array(True)])),
    # Any real, NaN and +/-inf too, is an argument of erfc.
    "erfc x": (erfc, st.sampled_from(NOT_NUMBERS + [10 ** 400, -(10 ** 400)])),
    "log_erfc x": (log_erfc, st.sampled_from(NOT_NUMBERS + [10 ** 400, -(10 ** 400)])),
    "erfc_inv y": (erfc_inv, not_reals(0.0, 2.0)),
    "normal_cdf x": (normal_cdf, st.sampled_from(["1", ["1", "2"], np.array(["1"]), None, 1j,
                                                  [1j], np.array([1], dtype=object),
                                                  [[1], [1, 2]]])),
    "ClosedFormInputs c0": (lambda v: closed_form(c0=v), above(1.0, math.inf)),
    "ClosedFormInputs tau": (lambda v: closed_form(tau=v), not_reals(0.0, 0.5)),
    "ClosedFormInputs omega": (lambda v: closed_form(omega=v), not_reals(0.0, math.inf)),
    "ClosedFormInputs eps1": (lambda v: closed_form(eps1=v), not_reals(0.0, 1.0)),
    "ClosedFormInputs eps2": (lambda v: closed_form(eps2=v), not_reals(0.0, 1.0)),
    "search_min_A eps2": (lambda v: search_min_A(4, 1e-10, v, 10, 0), not_reals(0.0, 1.0)),
    # trace, search_min_A and emit_search_table check a threads they do not use.
    "trace threads": (lambda v: trace(BOOK, Y, 0.0, threads=v), not_integers(1, math.inf)),
    "search_min_A threads": (lambda v: search_min_A(4, 1e-10, 1e-3, 10, 0, threads=v),
                             not_integers(1, math.inf)),
    "emit_search_table threads": (lambda v: emit_search_table([4], [1.0], 10, 0, threads=v),
                                  not_integers(1, math.inf)),
    "search_min_A seed": (lambda v: search_min_A(4, 1e-10, 1e-3, 10, v), not_integers(*SEEDS)),
    "emit_search_table c0_list": (lambda v: emit_search_table([v], [1.0], 10, 0),
                                  not_integers(1, _C0_MAX)),
    "emit_search_table R_list": (lambda v: emit_search_table([4], [v], 10, 0),
                                 not_reals(0.0, math.inf)),
    "emit_search_table iterations": (lambda v: emit_search_table([4], [1.0], v, 0),
                                     not_integers(1, math.inf)),
    "emit_search_table seed": (lambda v: emit_search_table([4], [1.0], 10, v),
                               not_integers(*SEEDS)),
    "emit_search_table eps1": (lambda v: emit_search_table([4], [1.0], 10, 0, eps1=v),
                               not_reals(0.0, 1.0)),
    "conservative_plan tau": (lambda v: conservative_plan(4, v, 0.1, 0.1), above(0.0, 0.5)),
    "conservative_plan eps2": (lambda v: conservative_plan(4, 0.01, 0.1, v),
                               not_reals(0.0, 1.0)),
    "clt_report eps1": (lambda v: clt_report(4, eps1=v), not_reals(0.0, 1.0)),
    "clt_report m": (lambda v: clt_report(4, m=v), optional(above(1.0, math.inf))),
    "length_window eps1": (lambda v: window(eps1=v), not_reals(0.0, 1.0)),
    "length_window eps2": (lambda v: window(eps2=v), not_reals(0.0, 1.0)),
    "check_tardos_condition alpha2": (lambda v: check_tardos_condition(4, 0.01, v, 5.0),
                                      above(0.0, math.inf)),
    "check_tardos_condition L": (lambda v: check_tardos_condition(4, 0.01, 0.01, v),
                                 not_reals(0.0, math.inf)),
    "gen_matrix first": (lambda v: gen_matrix(2, BOOK.bias, seed=0, first=v),
                         not_integers(0, math.inf)),
    "gen_matrix max_bits": (lambda v: gen_matrix(2, BOOK.bias, seed=0, max_bits=v),
                            not_integers(0, math.inf)),
    "generate_codebook seed": (lambda v: generate_codebook(NO_FILE, 2, BOOK.bias, v),
                               not_integers(*SEEDS)),
    "row_bits seed": (lambda v: row_bits(BOOK.bias, v, 0), not_integers(*SEEDS)),
    "row_bits j": (lambda v: row_bits(BOOK.bias, 0, v), not_integers(*SEEDS)),
    "crc64 crc": (lambda v: crc64(b"123456789", v), not_integers(0, 2 ** 64 - 1)),
    "moments c0": (lambda v: moments("interleave", 2, c0=v), optional(not_integers(1, _C0_MAX))),
    "Strategy c": (lambda v: Strategy(kind="custom", c=v, psi=[0.0, 1.0]),
                   not_integers(1, 10 ** 6)),
    "Codebook seed": (lambda v: Codebook(bias=BOOK.bias, rows=BOOK.rows, seed=v),
                      not_integers(*SEEDS)),
}


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_malformed_scalar_raises_parameter_error(entry, data):
    call, bad = SCALAR_ENTRIES[entry]
    with pytest.raises(ParameterError):
        call(data.draw(bad))


def test_numpy_scalars_give_the_python_result():
    assert params(n=np.int64(10), m=np.uint16(100), c0=np.int8(3), eps1=np.float32(0.25),
                  t=np.float64(0.01)) == params(n=10, m=100, c0=3, eps1=0.25, t=0.01)
    assert np.array_equal(forge([[0, 1], [1, 1]], "interleave", seed=np.uint64(7)).bits,
                          forge([[0, 1], [1, 1]], "interleave", seed=7).bits)
    assert np.array_equal(gen_matrix(np.int32(3), BOOK.bias, seed=np.int64(1),
                                     threads=np.int8(2)).rows,
                          gen_matrix(3, BOOK.bias, seed=1).rows)
    cfg = sim(c=np.int16(2), threads=np.uint8(2))
    assert (type(cfg.c), type(cfg.threads)) == (int, int)


# Arguments of public callables that no entry above gives malformed values,
# each with the reason: "callable argument", "* argument" for that argument of
# every callable, or "callable *" for every argument of one callable.
EXEMPT = {
    **{f"{name} *": "a result record that the library fills in"
       for name in ["AccusationReport", "CltReport", "ClosedFormOutputs", "ConditionCheck",
                    "DerivedConstants", "GaussianPlan", "Histogram", "HistogramBundle",
                    "MomentSummary", "SearchResult", "SearchTable", "SimReport",
                    "WindowResult", "ZInterval"]},
    **{f"* {arg}": "an object of one of the library's own types"
       for arg in ["bias", "cb", "cfg", "clt", "dist", "inp", "interval", "params", "plan",
                   "summary"]},
    "* rng": "a numpy Generator",
    "* path": "a file path, which open() checks",
    "* h": "a function of p",
    "* g1_choice": "'tardos' or a function, which nu checks by probing it",
    "* strategy": "a kind name, a psi table or a Strategy, which Strategy.of checks",
    "* kind": "a name that strategy_psi and BiasDistribution look up; a Strategy's is a label",
    "crc64 data": "any buffer or iterable of bytes; bytes() raises TypeError on anything else",
    "Codebook rows": "packed words: Codebook takes only a 2-d little-endian u64 array",
}


def _covered():
    """(callable, argument) pairs that the entries above name by their keys,
    "callable argument"; a key naming only a callable names its first argument."""
    entries = [BIT_ENTRIES, INDEX_ENTRIES, REAL_ENTRIES, PROB_ENTRIES, SCALAR_ENTRIES,
               {f"SimConfig {field}": None for field in OUT_OF_RANGE}]
    return {tuple(key.partition(" ")[::2]) for table in entries for key in table}


def _public_arguments():
    """(callable, argument position, argument) for every callable in
    ``tardos.__all__`` but the exceptions, which take a message."""
    for name in tardos.__all__:
        obj = getattr(tardos, name)
        if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception)):
            for i, arg in enumerate(inspect.signature(obj).parameters):
                yield name, i, arg


def test_every_public_argument_is_covered_or_exempt():
    covered = _covered()
    missing = [f"{name} {arg}" for name, i, arg in _public_arguments()
               if not ((name, arg) in covered or i == 0 and (name, "") in covered
                       or {f"{name} {arg}", f"{name} *", f"* {arg}"} & set(EXEMPT))]
    assert not missing, f"give each a malformed-value entry or an exemption: {missing}"


def test_every_exemption_names_a_public_argument():
    public = {(name, arg) for name, _, arg in _public_arguments()}
    for key in EXEMPT:
        name, arg = key.split(" ")
        assert any(name in (n, "*") and arg in (a, "*") for n, a in public), key
