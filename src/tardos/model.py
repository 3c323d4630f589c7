"""Core model: accusation weights, bias distributions, scheme parameters.

A binary fingerprinting code draws one bias p_i per column from a distribution
f on [t, 1-t]; codeword bits are Bernoulli(p_i). When a suspect copy shows a 1
in column i, a user whose codeword has a 1 there collects weight g1(p_i) and a
user with a 0 collects g0(p_i). The weights are tied together by

    p * g1(p) + (1 - p) * g0(p) = 0,

so an innocent user's expected score contribution is zero in every column no
matter what the bias was. The standard (and default) choice is

    g1(p) = sqrt((1-p)/p),       g0(p) = -sqrt(p/(1-p)),

with the arcsine-shaped bias density f(p) = 1 / ((pi - 4 t') sqrt(p (1-p))),
t' = arcsin(sqrt(t)). For this pair the score of an innocent user has unit
variance per column, independent of the bias draw; the functional ``nu``
below measures that per-column second moment for other weight choices.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, QuadratureError

ARCSINE = "tardos_arcsine"
BETA = "beta_family"
DIST_KINDS = (ARCSINE, BETA)

# Absolute accuracy target for all adaptive quadrature in the package.
QUAD_TOL = 1e-10

# Slop allowed when checking that a probability sits inside [t, 1-t]; bias
# values reconstructed through sin^2 round-trips can land an ulp outside.
_SUPPORT_SLOP = 1e-12

# The open bounds of (0, 1) as the nearest floats inside them: a float64 lies
# in (0, 1) exactly when it lies in [_ABOVE_0, _BELOW_1].
_ABOVE_0, _BELOW_1 = float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0))

# The largest design size c0 whose square is still a float: plans scale with c0^2.
_C0_MAX = math.isqrt(int(sys.float_info.max))


def _scalar_like(p, out):
    if np.ndim(p) == 0:
        return float(out)
    return out


def g1(p):
    """Accusation weight for a matching 1-symbol: sqrt((1-p)/p)."""
    arr = _probs(p, None, "p", _ABOVE_0, _BELOW_1)
    return _scalar_like(p, np.sqrt((1.0 - arr) / arr))


def g0(p):
    """Accusation weight for a mismatching 0-symbol: -sqrt(p/(1-p)).

    Equals -g1(1-p), and -g1(p) * p / (1-p); both identities are exercised by
    the test suite.
    """
    arr = _probs(p, None, "p", _ABOVE_0, _BELOW_1)
    return _scalar_like(p, -np.sqrt(arr / (1.0 - arr)))


def _integer(v, what, lo, hi=math.inf):
    """``v`` as an int, checked before the cast to be a Python or numpy
    integer, not a bool, in [lo, hi]: the one check of every count, size,
    seed and thread count a caller passes. Like every check below, it names
    ``what`` in its message and as ``ParameterError.param``."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not lo <= int(v) <= hi:
        bound = hi if hi < 1e20 else f"{hi:.3g}"
        raise ParameterError(f"{what} must be an integer in [{lo}, {bound}]", param=what)
    return int(v)


def _real(v, what):
    """``v`` as a float, checked before the cast to be a Python or numpy int
    or float, not a bool, that a float can hold; NaN and +/-inf pass, so the
    caller checks the range."""
    if (isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating))
            or isinstance(v, int) and abs(v) > sys.float_info.max):
        raise ParameterError(f"{what} must be a real number", param=what)
    return float(v)


def _positive(v, what):
    """``v`` as a float in (0, inf), checked by :func:`_real`."""
    v = _real(v, what)
    if not 0.0 < v < math.inf:
        raise ParameterError(f"{what} must be positive and finite", param=what)
    return v


def _check_rate(name, v):
    """``v`` as a float in (0, 1), naming it; NaN is rejected too."""
    v = _real(v, name)
    if not 0.0 < v < 1.0:
        raise ParameterError(f"{name} must lie in (0, 1)", param=name)
    return v


def _check_cutoff(t):
    """``t`` as a float in (0, 1/2): the one check of a bias cutoff."""
    t = _real(t, "cutoff t")
    if not 0.0 < t < 0.5:
        raise ParameterError("cutoff t must lie in (0, 1/2)", param="cutoff t")
    return t


def _check_tau(c0, t):
    """tau = c0 * t, checked below 1/2 after c0 and t: the one check of a (c0, t) pair."""
    c0, t = _integer(c0, "c0", 1, _C0_MAX), _check_cutoff(t)
    if c0 * t >= 0.5:
        raise ParameterError("tau = c0 * t must stay below 1/2, that is t below "
                             f"1/(2*c0) = {0.5 / c0:.3g}", param="tau")
    return c0 * t


def _real_array(x, ndim, what):
    """``np.asarray(x)``, uncast, checked to be rectangular, of bool, int, uint or
    real float dtype and, unless ``ndim`` is None, ``ndim``-d with no empty axis."""
    try:
        raw = np.asarray(x)
    except ValueError:  # a ragged nested list
        raw = None
    if (raw is None or raw.dtype.kind not in "biuf"
            or ndim is not None and (raw.ndim != ndim or 0 in raw.shape)):
        shape = ("a rectangular array" if ndim is None else "a scalar" if ndim == 0
                 else f"a nonempty {ndim}-d array")
        raise ParameterError(f"{what} must be {shape} of bool, int or real values", param=what)
    return raw


def _bits(x, ndim, what):
    """``x`` as a uint8 copy, checked by :func:`_real_array` and to hold only
    0 and 1 before the cast: the one check of every bit array a caller passes."""
    raw = _real_array(x, ndim, what)
    if not ((raw == 0) | (raw == 1)).all():
        raise ParameterError(f"{what} must be binary", param=what)
    return raw.astype(np.uint8)


def _probs(x, ndim, what, lo, hi):
    """``x`` as a float64 array, checked by :func:`_real_array`, not bool, and
    with every value in [lo, hi], so not NaN: the one check of every
    probability array a caller passes. ``_ABOVE_0`` and ``_BELOW_1`` stand
    for the open bounds 0 and 1, and the message writes them so."""
    raw = _real_array(x, ndim, what)
    arr = raw.astype(np.float64, copy=False)
    if raw.dtype.kind == "b" or arr.size and not lo <= arr.min() <= arr.max() <= hi:
        left = "(0" if lo == _ABOVE_0 else f"[{lo:g}"
        right = "1)" if hi == _BELOW_1 else f"{hi:g}]"
        raise ParameterError(f"{what} must be real numbers in {left}, {right}", param=what)
    return arr


def _support(t):
    """The bounds of :func:`_probs` for a bias with cutoff ``t``: [t, 1-t]
    widened by ``_SUPPORT_SLOP`` and clipped into (0, 1]."""
    return max(t - _SUPPORT_SLOP, _ABOVE_0), min(1.0 - t + _SUPPORT_SLOP, 1.0)


def tprime(t):
    """Angle cutoff t' = arcsin(sqrt(t)) of the bias support."""
    return math.asin(math.sqrt(_check_cutoff(t)))


def default_cutoff(c0):
    """Classic cutoff choice t = 1/(300 c0)."""
    return 1.0 / (300.0 * _integer(c0, "c0", 1, _C0_MAX))


@dataclass(frozen=True)
class BiasDistribution:
    """Bias density on [t, 1-t].

    kind "tardos_arcsine": f(p) = 1 / ((pi - 4 t') sqrt(p(1-p))).
    kind "beta_family":    f(p) proportional to p^(a-1) (1-p)^(b-1), normalized
    by quadrature over [t, 1-t]; symmetric exactly when a == b, and identical
    to tardos_arcsine when a == b == 1/2.
    """

    kind: str
    t: float
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.kind not in DIST_KINDS:
            raise ParameterError(f"unknown bias distribution kind {self.kind!r}")
        _check_cutoff(self.t)
        if self.kind == BETA:
            for name in ("a", "b"):
                _positive(getattr(self, name), f"beta_family shape {name}")
        elif self.a is not None or self.b is not None:
            raise ParameterError("tardos_arcsine takes no shape parameters")

    @property
    def support(self):
        return (self.t, 1.0 - self.t)

    @property
    def symmetric(self):
        return self.kind == ARCSINE or self.a == self.b

    def density(self, p):
        arr = _probs(p, None, "p", *_support(self.t))
        if self.kind == ARCSINE:
            out = 1.0 / ((math.pi - 4.0 * tprime(self.t)) * np.sqrt(arr * (1.0 - arr)))
        else:
            out = arr ** (self.a - 1.0) * (1.0 - arr) ** (self.b - 1.0) / _beta_normalizer(
                self.a, self.b, self.t)
        return _scalar_like(p, out)

    def sample(self, size, rng):
        """Draw ``size`` i.i.d. biases using generator ``rng``."""
        if self.kind == ARCSINE:
            tp = tprime(self.t)
            r = rng.uniform(tp, math.pi / 2.0 - tp, size=size)
            return np.sin(r) ** 2
        # Truncated beta via rejection; acceptance is the truncated mass.
        out = np.empty(size, dtype=np.float64)
        filled = 0
        lo, hi = self.support
        while filled < size:
            draw = rng.beta(self.a, self.b, size=max(size - filled, 16))
            keep = draw[(draw >= lo) & (draw <= hi)]
            take = min(keep.size, size - filled)
            out[filled:filled + take] = keep[:take]
            filled += take
        return out


def bias_density(dist, p):
    """Density of ``dist`` at ``p`` (raises outside the support)."""
    return dist.density(p)


def _quad(fn, lo, hi, tol=QUAD_TOL):
    # Imported here: scipy costs most of the CLI's start-up time, and only the
    # quadrature paths need it.
    from scipy import integrate

    # full_output keeps scipy's warning off stderr; a miss raises below.
    val, err = integrate.quad(fn, lo, hi, epsabs=tol * 1e-2, epsrel=tol * 1e-2, limit=200,
                              full_output=1)[:2]
    if not math.isfinite(val) or err > max(tol, tol * abs(val)):
        raise QuadratureError(
            f"quadrature did not reach tolerance {tol:g} (achieved {err:g})", achieved=err)
    return val


@lru_cache(maxsize=256)
def _beta_normalizer(a, b, t):
    # Angle space: p = sin^2 r turns p^(a-1)(1-p)^(b-1) dp into
    # 2 sin^(2a-1) r cos^(2b-1) r dr, removing endpoint singularities.
    tp = tprime(t)
    return _quad(lambda r: 2.0 * math.sin(r) ** (2.0 * a - 1.0) * math.cos(r) ** (2.0 * b - 1.0),
                 tp, math.pi / 2.0 - tp)


def expectation(dist, h, upper=None, tol=QUAD_TOL):
    """E_f[h(p)] over [t, upper] (default the whole support) by quadrature.

    Integrates in the angle variable p = sin^2 r so that the arcsine density
    becomes flat and inverse-square-root endpoints stay benign.
    """
    tp, tol = tprime(dist.t), _positive(tol, "tol")
    hi_p = 1.0 - dist.t if upper is None else float(_probs(upper, 0, "upper", *_support(dist.t)))
    hi_r = math.asin(math.sqrt(hi_p))

    if dist.kind == ARCSINE:
        scale = 2.0 / (math.pi - 4.0 * tp)

        def fr(r):
            return scale * h(math.sin(r) ** 2)
    else:
        nrm = _beta_normalizer(dist.a, dist.b, dist.t)

        def fr(r):
            s, c = math.sin(r), math.cos(r)
            return 2.0 * s ** (2.0 * dist.a - 1.0) * c ** (2.0 * dist.b - 1.0) * h(s * s) / nrm

    return _quad(fr, tp, hi_r, tol=tol)


def nu(dist, g1_choice="tardos", tol=1e-9):
    """Per-column second moment of an innocent score weight.

    nu = 2 * integral_t^{1/2} f(p) * (p/(1-p)) * g1(p)^2 dp. Equals 1 for the
    default weights with any normalized symmetric f. ``g1_choice`` is either
    the string "tardos" or a callable g(p) that is positive on (t, 1/2].
    """
    if g1_choice == "tardos":
        gfun = g1
    elif callable(g1_choice):
        gfun = g1_choice
        probe = np.linspace(dist.t, 0.5, 7)
        vals = np.asarray([float(gfun(p)) for p in probe])
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ParameterError("nu: g1_choice must be positive on (t, 1/2]")
    else:
        raise ParameterError("nu: g1_choice must be 'tardos' or a callable")
    return 2.0 * expectation(
        dist, lambda p: (p / (1.0 - p)) * float(gfun(p)) ** 2, upper=0.5, tol=tol)


def _ln_ceil(eps1):
    return math.ceil(math.log(1.0 / eps1))


@dataclass(frozen=True)
class SchemeParams:
    """Static parameters of one code instance.

    n users, m columns, design coalition size c0, soundness target eps1
    (innocent accusation probability), completeness target eps2 (probability
    some size-<=c0 coalition escapes), bias cutoff t. The accusation threshold
    Z and the length/threshold coefficients A and B are optional: codebooks
    are often generated before a threshold is committed.
    """

    n: int
    m: int
    c0: int
    eps1: float
    eps2: float
    t: float
    Z: float | None = None
    A: float | None = None
    B: float | None = None

    def __post_init__(self):
        for name in ("n", "m"):
            _integer(getattr(self, name), name, 1)
        _check_tau(self.c0, self.t)
        _check_rate("eps1", self.eps1)
        _check_rate("eps2", self.eps2)
        for name in ("A", "B"):
            if getattr(self, name) is not None:
                _positive(getattr(self, name), name)
        # Z is any real threshold; deployments use Z > 0, but degenerate
        # thresholds are meaningful in tests and simulations.
        if self.Z is not None and math.isnan(_real(self.Z, "Z")):
            raise ParameterError("Z must not be NaN", param="Z")

    @classmethod
    def from_coefficients(cls, n, c0, eps1, eps2, A, B, t=None):
        """Build params from length/threshold coefficients.

        m = ceil(A * c0^2 * ceil(ln(1/eps1))), Z = B * c0 * ceil(ln(1/eps1)).
        """
        c0, A, B = _integer(c0, "c0", 1, _C0_MAX), _positive(A, "A"), _positive(B, "B")
        if t is None:
            t = default_cutoff(c0)
        lc = _ln_ceil(_check_rate("eps1", eps1))
        m = math.ceil(A * c0 ** 2 * lc)
        Z = B * c0 * lc
        return cls(n=n, m=m, c0=c0, eps1=eps1, eps2=eps2, t=t, Z=Z, A=A, B=B)

    _FIELD_ORDER = ("n", "m", "c0", "eps1", "eps2", "t", "Z", "A", "B")
    _INT_FIELDS = ("n", "m", "c0")

    def kv_text(self):
        """Serialize to the flat key=value text format (one pair per line)."""
        lines = []
        for name in self._FIELD_ORDER:
            v = getattr(self, name)
            if v is None:
                continue
            lines.append(f"{name}={int(v) if name in self._INT_FIELDS else repr(float(v))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_kv_text(cls, text):
        kv = parse_kv_text(text)
        unknown = set(kv) - set(cls._FIELD_ORDER)
        if unknown:
            raise ParameterError(f"unknown parameter keys: {sorted(unknown)}")
        missing = {"n", "m", "c0", "eps1", "eps2", "t"} - set(kv)
        if missing:
            raise ParameterError(f"missing parameter keys: {sorted(missing)}")
        try:
            args = {k: int(v) if k in cls._INT_FIELDS else float(v) for k, v in kv.items()}
        except ValueError as exc:  # such as n=8.5 or t=x
            raise ParameterError(f"bad parameter value: {exc}") from None
        return cls(**args)


def parse_kv_text(text):
    """Parse ``key=value`` lines into a dict; '#' starts a comment line."""
    out = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"line {ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


@dataclass(frozen=True)
class DerivedConstants:
    """Quantities derived from (t, c0) and the bias/weight choice."""

    tau: float
    tprime: float
    nu: float

    @classmethod
    def from_scheme(cls, t, c0, dist=None, g1_choice="tardos"):
        tau = _check_tau(c0, t)
        if dist is None:
            dist = BiasDistribution(ARCSINE, t=t)
        elif abs(dist.t - t) > _SUPPORT_SLOP:
            raise ParameterError("distribution cutoff disagrees with t")
        return cls(tau=tau, tprime=tprime(t), nu=nu(dist, g1_choice))
