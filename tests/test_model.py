"""Weight functions, bias distributions, quadrature, and scheme parameters."""

import importlib.machinery
import math
import sys
import types
import warnings

import numpy as np
import pytest

from tardos import (
    ARCSINE,
    BETA,
    BiasDistribution,
    DerivedConstants,
    GeneralConditionInputs,
    ParameterError,
    QuadratureError,
    SchemeParams,
    bias_density,
    check_general_condition,
    clt_report,
    default_cutoff,
    expectation,
    g0,
    g1,
    moments,
    nu,
    tprime,
)
from tardos import model
from tardos.attacks import KINDS
from tardos.model import (_check_cutoff, _check_rate, _check_tau, _integer, _real,
                          parse_kv_text)


class TestWeights:
    def test_closed_form_values(self):
        assert g1(0.25) == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert g0(0.25) == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-15)
        assert g1(0.5) == pytest.approx(1.0, rel=1e-15)
        assert g0(0.5) == pytest.approx(-1.0, rel=1e-15)

    def test_zero_mean_identity(self):
        # p * g1(p) + (1-p) * g0(p) == 0: the innocent score is centered for
        # every bias value, which is what makes the accusation sum a
        # martingale under the null.
        p = np.linspace(1e-6, 1.0 - 1e-6, 1001)
        resid = p * g1(p) + (1.0 - p) * g0(p)
        assert np.max(np.abs(resid)) < 1e-12

    def test_reflection_identity(self):
        p = np.linspace(0.01, 0.99, 99)
        assert np.allclose(g0(p), -g1(1.0 - p), rtol=1e-14, atol=0.0)

    def test_both_strictly_decreasing(self):
        p = np.linspace(1e-4, 1.0 - 1e-4, 1000)
        assert np.all(np.diff(g1(p)) < 0.0)
        assert np.all(np.diff(g0(p)) < 0.0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(g1(0.3), float)
        assert isinstance(g0(0.3), float)
        assert isinstance(g1(np.linspace(0.1, 0.9, 5)), np.ndarray)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(ParameterError):
            g1(bad)
        with pytest.raises(ParameterError):
            g0(bad)

    def test_array_with_one_bad_entry_rejected(self):
        with pytest.raises(ParameterError):
            g1(np.array([0.2, 0.5, 1.0]))


class TestCutoffs:
    def test_tprime(self):
        assert tprime(0.25) == pytest.approx(math.pi / 6.0, rel=1e-15)
        assert tprime(1e-4) == pytest.approx(math.asin(0.01), rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, 0.5, -0.1, 0.7])
    def test_tprime_domain(self, bad):
        with pytest.raises(ParameterError):
            tprime(bad)

    def test_default_cutoff(self):
        assert default_cutoff(20) == pytest.approx(1.0 / 6000.0, rel=1e-15)
        with pytest.raises(ParameterError):
            default_cutoff(0)


class TestScalarChecks:
    """``_integer`` and ``_real``: the type is checked before the cast, and the
    value comes back as a plain Python int or float. ``np.bool_`` (not
    ``np.bool``) keeps these tests running on numpy 1.24."""

    @pytest.mark.parametrize("v", [5, np.int8(5), np.uint16(5), np.int64(5), np.uint64(5)])
    def test_integer_accepts_python_and_numpy_integers(self, v):
        out = _integer(v, "n", 1, 10)
        assert out == 5 and type(out) is int

    def test_integer_bounds_are_inclusive(self):
        top = np.uint64(2 ** 64 - 1)
        assert _integer(top, "seed", 0, 2 ** 64 - 1) == 2 ** 64 - 1
        assert _integer(0, "seed", 0, 2 ** 64 - 1) == 0
        for bad in (-1, 2 ** 64):
            with pytest.raises(ParameterError, match="seed"):
                _integer(bad, "seed", 0, 2 ** 64 - 1)

    @pytest.mark.parametrize("v", [True, np.bool_(True), 2.0, np.float64(2.0), 2.5, "2",
                                   None, 2j, np.array(2), [2], math.nan, math.inf])
    def test_integer_rejects_what_is_not_an_integer(self, v):
        with pytest.raises(ParameterError, match="threads"):
            _integer(v, "threads", 1)

    @pytest.mark.parametrize("v", [2, np.int32(2), 2.0, np.float32(2.0), np.float64(2.0)])
    def test_real_accepts_ints_and_floats(self, v):
        out = _real(v, "A")
        assert out == 2.0 and type(out) is float

    def test_real_passes_nan_and_inf_to_the_range_check(self):
        assert math.isnan(_real(math.nan, "Z"))
        assert _real(-np.inf, "Z") == -math.inf

    @pytest.mark.parametrize("v", [True, np.bool_(False), "0.1", None, 1j, np.complex128(1),
                                   np.array(0.1), [0.1], 10 ** 400, -(10 ** 400)])
    def test_real_rejects_what_is_not_a_real(self, v):
        with pytest.raises(ParameterError, match="eps1"):
            _real(v, "eps1")

    @pytest.mark.parametrize("call, param", [
        (lambda: _integer(0, "threads", 1), "threads"),
        (lambda: _real("x", "ratio R"), "ratio R"),
        (lambda: _check_rate("eps2", 1.0), "eps2"),
        (lambda: _check_cutoff(0.5), "cutoff t"),
        (lambda: _check_tau(4, 0.2), "tau"),
        (lambda: SchemeParams(n=1, m=1, c0=3, eps1=0.1, eps2=0.1, t=0.01, Z=math.nan), "Z"),
    ])
    def test_each_check_names_its_argument_as_param(self, call, param):
        with pytest.raises(ParameterError) as info:
            call()
        assert info.value.param == param and param in str(info.value)

    def test_param_defaults_to_none(self):
        assert ParameterError("bad").param is None

    def test_a_huge_bound_is_printed_readably(self):
        with pytest.raises(ParameterError) as info:
            default_cutoff(10 ** 400)
        assert str(info.value) == "c0 must be an integer in [1, 1.34e+154]"
        with pytest.raises(ParameterError, match=r"\[0, 18446744073709551615\]"):
            _integer(-1, "seed", 0, 2 ** 64 - 1)

    def test_tau_check_gives_the_largest_cutoff(self):
        assert _check_tau(4, 0.1) == pytest.approx(0.4)
        with pytest.raises(ParameterError, match=r"1/\(2\*c0\) = 0.125"):
            _check_tau(4, 0.125)


class TestBiasDistribution:
    def test_arcsine_density_normalized(self):
        dist = BiasDistribution(ARCSINE, t=0.01)
        assert expectation(dist, lambda p: 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_beta_density_normalized(self):
        dist = BiasDistribution(BETA, t=0.02, a=2.0, b=3.0)
        assert expectation(dist, lambda p: 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_arcsine_center_value_small_cutoff(self):
        # f(1/2) -> 2/pi as t -> 0; the gap is (8/pi^2) sqrt(t) + O(t), so it
        # shrinks like sqrt(t) rather than linearly.
        target = 0.63661977236758134  # 2/pi
        gaps = [BiasDistribution(ARCSINE, t=t).density(0.5) - target
                for t in (1e-6, 1e-9, 1e-12)]
        assert all(g > 0.0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6
        assert gaps[2] == pytest.approx(8.0 / math.pi ** 2 * math.sqrt(1e-12), rel=1e-3)

    def test_density_outside_support_raises(self):
        dist = BiasDistribution(ARCSINE, t=0.05)
        with pytest.raises(ParameterError):
            dist.density(0.01)
        with pytest.raises(ParameterError):
            bias_density(dist, 0.97)

    def test_symmetry_flag(self):
        assert BiasDistribution(ARCSINE, t=0.01).symmetric
        assert BiasDistribution(BETA, t=0.01, a=2.0, b=2.0).symmetric
        assert not BiasDistribution(BETA, t=0.01, a=1.0, b=2.0).symmetric

    def test_validation(self):
        with pytest.raises(ParameterError):
            BiasDistribution("nonsense", t=0.01)
        with pytest.raises(ParameterError):
            BiasDistribution(ARCSINE, t=0.0)
        with pytest.raises(ParameterError):
            BiasDistribution(ARCSINE, t=0.01, a=1.0)
        with pytest.raises(ParameterError):
            BiasDistribution(BETA, t=0.01, a=0.0, b=1.0)
        with pytest.raises(ParameterError):
            BiasDistribution(BETA, t=0.01)

    def test_arcsine_equals_beta_half_half(self):
        t = 0.03
        arc = BiasDistribution(ARCSINE, t=t)
        bet = BiasDistribution(BETA, t=t, a=0.5, b=0.5)
        p = np.linspace(t, 1.0 - t, 17)
        assert np.allclose(arc.density(p), bet.density(p), rtol=1e-9)

    def test_beta_sampler_matches_quadrature_mean(self):
        dist = BiasDistribution(BETA, t=0.02, a=2.0, b=5.0)
        rng = np.random.default_rng(7)
        draws = dist.sample(200_000, rng)
        lo, hi = dist.support
        assert draws.min() >= lo and draws.max() <= hi
        mean = expectation(dist, lambda p: p)
        se = float(draws.std(ddof=1)) / math.sqrt(draws.size)
        assert abs(float(draws.mean()) - mean) < 3.0 * se


class TestExpectation:
    def test_second_moment_pin(self):
        dist = BiasDistribution(ARCSINE, t=0.01)
        assert expectation(dist, lambda p: p * p) == pytest.approx(
            0.35721242079013406, rel=1e-10)

    def test_partial_mass_pin(self):
        dist = BiasDistribution(ARCSINE, t=1.0 / 300.0)
        assert expectation(dist, lambda p: 1.0, upper=0.25) == pytest.approx(
            0.32010154664251334, rel=1e-10)

    def test_upper_limit_validation(self):
        dist = BiasDistribution(ARCSINE, t=0.05)
        with pytest.raises(ParameterError):
            expectation(dist, lambda p: 1.0, upper=0.01)
        with pytest.raises(ParameterError):
            expectation(dist, lambda p: 1.0, upper=0.99)

    def test_upper_in_the_slop_below_t_gives_zero(self):
        # upper may sit up to _SUPPORT_SLOP below t, where its angle is below
        # t'; the mean of p >= 0 over no mass is 0, not a negative number.
        dist = BiasDistribution(ARCSINE, t=0.01)
        assert expectation(dist, lambda p: p, upper=0.01 - 5e-13) == 0.0
        assert expectation(dist, lambda p: p, upper=0.01) == 0.0

    def test_unreachable_tolerance_raises(self):
        dist = BiasDistribution(ARCSINE, t=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(QuadratureError) as exc:
                expectation(dist, lambda p: math.cos(1e7 * p), tol=1e-13)
        assert exc.value.achieved > 1e-13


class TestNu:
    def test_arcsine_standard_weights_unit(self):
        dist = BiasDistribution(ARCSINE, t=1.0 / 3000.0)
        assert abs(nu(dist) - 1.0) <= 1e-9

    def test_constant_weight_pin(self):
        dist = BiasDistribution(ARCSINE, t=0.01)
        val = nu(dist, g1_choice=lambda p: 1.0)
        assert val == pytest.approx(0.31269098572409069, rel=1e-9)

    def test_asymmetric_beta_pin(self):
        # For the standard weights the integrand reduces to the density, so
        # for beta(1, 2) truncated at t = 0.01 the value is exactly
        # 2 * (0.375 - t + t^2/2) / (1/2 - t) = 1.49.
        dist = BiasDistribution(BETA, t=0.01, a=1.0, b=2.0)
        assert nu(dist) == pytest.approx(1.49, rel=1e-9)

    @pytest.mark.parametrize("a,b,t", [(0.5, 0.5, 0.01), (1.0, 1.0, 0.03), (2.0, 2.0, 0.001)])
    def test_unit_for_any_symmetric_density(self, a, b, t):
        dist = BiasDistribution(BETA, t=t, a=a, b=b)
        assert abs(nu(dist) - 1.0) <= 1e-9

    def test_weight_choice_validation(self):
        dist = BiasDistribution(ARCSINE, t=0.01)
        with pytest.raises(ParameterError):
            nu(dist, g1_choice="other")
        with pytest.raises(ParameterError):
            nu(dist, g1_choice=lambda p: -1.0)


# Every integrand the package hands to model._quad, by the public call that makes it.
T = default_cutoff(10)
BETA_DIST = BiasDistribution(BETA, t=0.01, a=0.7, b=1.3)
QUAD_CALLS = {
    **{f"moments {kind} c={c}": (lambda kind=kind, c=c: moments(kind, c, t=default_cutoff(c)))
       for kind in KINDS for c in (1, 2, 7, 20, 40)},
    "clt_report": lambda: clt_report(10, t=T),
    "_beta_normalizer": lambda: model._beta_normalizer.__wrapped__(0.7, 1.3, 0.01),
    "expectation": lambda: [
        expectation(BiasDistribution(ARCSINE, t=T), lambda p: p * p),
        expectation(BiasDistribution(ARCSINE, t=T), lambda p: 1.0, upper=0.25),
        expectation(BiasDistribution(ARCSINE, t=T), lambda p: 1.0, upper=T),
        expectation(BETA_DIST, lambda p: p, upper=0.5)],
    "nu": lambda: [nu(BiasDistribution(ARCSINE, t=T)), nu(BETA_DIST),
                   nu(BiasDistribution(ARCSINE, t=T), g1_choice=lambda p: 1.0)],
    "check_general_condition": lambda: [
        check_general_condition(GeneralConditionInputs(dist=dist, c=10, alpha2=1e-3, L=4.0))
        for dist in (BiasDistribution(ARCSINE, t=T), BiasDistribution(BETA, t=T, a=1.0, b=1.0),
                     BETA_DIST)],
}


class TestQuadraturePaths:
    """model._quad calls scipy's dqagse binding, loaded without scipy.integrate;
    scipy.integrate.quad, which calls the same binding, is the reference."""

    @pytest.fixture
    def compared(self, monkeypatch):
        """Route every _quad through the direct binding, check each call's value
        and error estimate against quad's bit for bit, and list the calls."""
        from scipy import integrate

        direct, calls = model._qagse(), []
        assert direct is not None

        def both(fn, lo, hi, args, full_output, epsabs, epsrel, limit):
            got = direct(fn, lo, hi, args, full_output, epsabs, epsrel, limit)
            want = integrate.quad(fn, lo, hi, args, 1, epsabs, epsrel, limit)[:2]
            assert repr(got[:2]) == repr(tuple(want)), (lo, hi, epsabs)
            calls.append((lo, hi))
            return got

        monkeypatch.setattr(model, "_qagse", lambda: both)
        return calls

    @pytest.mark.parametrize("case", sorted(QUAD_CALLS))
    def test_direct_path_gives_quads_floats(self, compared, case):
        QUAD_CALLS[case]()
        assert compared

    def test_empty_interval_is_zero_without_a_call(self, compared):
        assert model._quad(math.sin, 0.3, 0.3) == 0.0
        assert not compared

    @pytest.mark.parametrize("fault", ["no extension", "check value missed"])
    def test_fallback_gives_the_same_floats(self, monkeypatch, fault):
        # Imported first, so that the fallback's quad holds the real extension.
        from scipy import integrate  # noqa: F401

        want = repr([QUAD_CALLS[case]() for case in sorted(QUAD_CALLS)])
        monkeypatch.delitem(sys.modules, "scipy.integrate._quadpack", raising=False)
        if fault == "no extension":
            monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        else:  # an extension whose _qagse is off by an ulp
            monkeypatch.setitem(sys.modules, "scipy.integrate._quadpack", types.SimpleNamespace(
                _qagse=lambda *args: (1.0 / 3.0, 3.700743415417189e-15, 0)))
        found = model._qagse.__wrapped__()
        assert found is None
        monkeypatch.setattr(model, "_qagse", lambda: found)
        assert repr([QUAD_CALLS[case]() for case in sorted(QUAD_CALLS)]) == want

    def test_a_later_scipy_integrate_import_gives_the_same_floats(self, python_at_blas_threads):
        code = ("import math, sys; from tardos import model; "
                "f = lambda r: math.sin(r) ** 4 / math.cos(r) ** 2; "
                "direct = model._quad(f, 0.1, 1.4); "
                "assert model._qagse() is not None and 'scipy.integrate' not in sys.modules; "
                "from scipy import integrate; "
                "print(direct == integrate.quad(f, 0.1, 1.4, epsabs=1e-12, epsrel=1e-12, "
                "limit=200)[0] == model._quad(f, 0.1, 1.4), "
                "model._qagse.__wrapped__() is not None)")
        assert python_at_blas_threads(code, 1).split() == ["True", "True"]


class TestSchemeParams:
    def _params(self, **kw):
        base = dict(n=100, m=5000, c0=10, eps1=1e-6, eps2=0.3, t=1e-3)
        base.update(kw)
        return SchemeParams(**base)

    def test_valid_roundtrip(self):
        sp = self._params(Z=123.5, A=90.0, B=19.0)
        again = SchemeParams.from_kv_text(sp.kv_text())
        assert again == sp

    def test_roundtrip_without_optionals(self):
        sp = self._params()
        again = SchemeParams.from_kv_text(sp.kv_text())
        assert again == sp and again.Z is None

    def test_roundtrip_infinite_threshold(self):
        sp = self._params(Z=float("-inf"))
        again = SchemeParams.from_kv_text(sp.kv_text())
        assert again.Z == float("-inf")

    @pytest.mark.parametrize("kw", [
        dict(n=0), dict(m=0), dict(c0=0), dict(eps1=0.0), dict(eps1=1.0),
        dict(eps2=-0.1), dict(t=0.0), dict(t=0.5), dict(t=0.06),  # c0*t >= 1/2
        dict(Z=float("nan")), dict(A=-1.0), dict(B=0.0), dict(A=float("inf")),
    ])
    def test_validation_errors(self, kw):
        with pytest.raises(ParameterError):
            self._params(**kw)

    def test_infinite_threshold_allowed(self):
        assert self._params(Z=float("inf")).Z == float("inf")

    def test_from_coefficients(self):
        sp = SchemeParams.from_coefficients(n=50, c0=10, eps1=1e-10, eps2=0.5,
                                            A=90.0, B=19.0)
        lc = math.ceil(math.log(1e10))  # 24
        assert lc == 24
        assert sp.m == math.ceil(90.0 * 100 * lc)
        assert sp.Z == pytest.approx(19.0 * 10 * lc, rel=1e-15)
        assert sp.t == pytest.approx(1.0 / 3000.0, rel=1e-15)

    def test_from_coefficients_rejects_bad_coeffs(self):
        with pytest.raises(ParameterError):
            SchemeParams.from_coefficients(n=5, c0=2, eps1=0.1, eps2=0.1, A=0.0, B=1.0)

    def test_kv_text_parse_errors(self):
        with pytest.raises(ParameterError):
            SchemeParams.from_kv_text("n=1\nm=2\nbogus_key=3\n")
        with pytest.raises(ParameterError):
            SchemeParams.from_kv_text("n=1\n")  # missing required keys
        text = self._params().kv_text()
        for bad in ("n=8.5", "n=abc", "t=x"):
            key = bad.split("=")[0]
            lines = [bad if ln.startswith(key + "=") else ln for ln in text.splitlines()]
            with pytest.raises(ParameterError, match="bad parameter value"):
                SchemeParams.from_kv_text("\n".join(lines))
        with pytest.raises(ParameterError):
            parse_kv_text("just some words\n")

    def test_parse_kv_text_comments_and_blanks(self):
        kv = parse_kv_text("# header\n\n a = 1 \nb=two\n")
        assert kv == {"a": "1", "b": "two"}


class TestDerivedConstants:
    def test_from_scheme(self):
        dc = DerivedConstants.from_scheme(t=1e-3, c0=10)
        assert dc.tau == pytest.approx(0.01, rel=1e-15)
        assert dc.tprime == pytest.approx(math.asin(math.sqrt(1e-3)), rel=1e-15)
        assert abs(dc.nu - 1.0) <= 1e-9
