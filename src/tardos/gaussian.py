"""Gaussian statistics of accusation scores: moments, lengths, thresholds.

For large code length m the innocent and coalition accusation sums are close
to normal, so design questions reduce to a handful of moments:

* innocent sum: mean 0, variance (per column) sigma_j_scaled^2 <= 1;
* coalition sum: mean mu_scaled and variance sigma_scaled^2 per column, both
  determined by the coalition strategy through its column-response table.

:func:`moments` evaluates those moments exactly for the arcsine bias density
with cutoff t; :func:`m_min` and :func:`z_interval` turn them into the
smallest usable code length and the admissible threshold interval;
:func:`conservative_plan` is the strategy-independent worst-case recipe; and
:func:`clt_report` estimates how far into the tails the normal approximation
can be trusted. The inverse complementary error function is implemented here
rather than imported so tail evaluations are self-contained and testable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .attacks import Strategy
from .errors import ParameterError
from .model import (_C0_MAX, QUAD_TOL, _check_cutoff, _check_rate, _integer, _positive, _quad,
                    _real, _real_array, _scalar_like, default_cutoff, tprime)

__all__ = [
    "MomentSummary", "GaussianPlan", "ZInterval", "CltReport",
    "erfc", "log_erfc", "erfc_inv", "normal_cdf",
    "moments", "m_min", "z_interval", "conservative_plan", "clt_report",
    "format_report",
]

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI


# ---------------------------------------------------------------------------
# Complementary error function: series + continued fraction, and its inverse.


def _erf_series(x):
    """Maclaurin series for erf, accurate for |x| <= 1.5."""
    total = 0.0
    term = x  # x^(2n+1) / n! carrying the sign
    n = 0
    while True:
        contrib = term / (2 * n + 1)
        total += contrib
        if not abs(contrib) > 1e-18 * abs(total):  # NaN ends too
            return _TWO_OVER_SQRT_PI * total
        n += 1
        term *= -x * x / n


def _cf_denominator(x):
    """g in erfc(x) = exp(-x^2)/sqrt(pi) / g via the Laplace continued fraction.

    g = x + (1/2)/(x + 1/(x + (3/2)/(x + 2/(x + ...)))); evaluated with the
    modified Lentz algorithm. Reliable for x >= 1 or so; used for x > 1.5.
    """
    tiny = 1e-300
    f = x if x != 0.0 else tiny
    c, d = f, 0.0
    n = 1
    while n < 400:
        a = 0.5 * n
        d = x + a * d
        d = tiny if d == 0.0 else d
        c = x + a / c
        c = tiny if c == 0.0 else c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return f
        n += 1
    return f


def erfc(x):
    """Complementary error function, relative accuracy ~1e-14 on both tails."""
    x = _real(x, "x")
    if math.isinf(x):
        return 0.0 if x > 0 else 2.0
    if x > 1.5:
        return math.exp(-x * x) / _SQRT_PI / _cf_denominator(x)
    if x < -1.5:
        return 2.0 - math.exp(-x * x) / _SQRT_PI / _cf_denominator(-x)
    return 1.0 - _erf_series(x)


def log_erfc(x):
    """ln(erfc(x)) without underflow for large positive x."""
    x = _real(x, "x")
    if x == math.inf:
        return -math.inf
    if x > 1.5:
        return -x * x - math.log(_SQRT_PI * _cf_denominator(x))
    return math.log(erfc(x))


def _dlog_erfc(x):
    """d/dx ln(erfc(x)) = -2 exp(-x^2) / (sqrt(pi) erfc(x))."""
    return -_TWO_OVER_SQRT_PI * math.exp(-x * x - log_erfc(x))


def erfc_inv(y):
    """Inverse of erfc on (0, 2), accurate to ~1e-14 relative.

    Solved on the log scale (log_erfc is smooth and strictly decreasing):
    bracket the root, bisect, then polish with a few Newton steps. y = 1 maps
    to 0 and y > 1 uses the reflection erfc(-x) = 2 - erfc(x).
    """
    y = _real(y, "y")
    if not 0.0 < y < 2.0:
        raise ParameterError(f"erfc_inv domain is (0, 2); got {y!r}", param="y")
    if y == 1.0:
        return 0.0
    if y > 1.0:
        return -erfc_inv(2.0 - y)
    target = math.log(y)
    lo, hi = 0.0, 1.0
    while log_erfc(hi) > target:
        hi *= 2.0
        if hi > 1e9:  # erfc underflows long before this
            raise ParameterError(f"erfc_inv({y!r}) is out of floating range")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if log_erfc(mid) > target:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(3):
        step = (log_erfc(x) - target) / _dlog_erfc(x)
        x_new = x - step
        if not lo <= x_new <= hi:
            break
        x = x_new
    return x


def _gauss_tail_inv(eps):
    """x with P[N(0,1) > x] = eps, i.e. sqrt(2) erfc_inv(2 eps)."""
    return math.sqrt(2.0) * erfc_inv(2.0 * eps)


_CF_DEPTH = 128  # fixed backward depth matching the adaptive fraction to ~1e-15


def _erfc_vec(x):
    """Vectorized erfc over a float64 array; same branches as :func:`erfc`."""
    out = np.empty_like(x)
    small = np.abs(x) <= 1.5
    if small.any():
        z = x[small]
        zz = z * z
        total = np.zeros_like(z)
        term = z.copy()
        n = 0
        while True:
            contrib = term / (2 * n + 1)
            total += contrib
            if np.max(np.abs(contrib)) <= 1e-18:
                break
            n += 1
            term *= -zz / n
        out[small] = 1.0 - _TWO_OVER_SQRT_PI * total
    for mask, reflect in (((x > 1.5), False), ((x < -1.5), True)):
        if not mask.any():
            continue
        z = -x[mask] if reflect else x[mask]
        f = z.copy()
        for n in range(_CF_DEPTH, 0, -1):
            f = z + (0.5 * n) / f
        tail = np.exp(-z * z) / _SQRT_PI / f
        out[mask] = 2.0 - tail if reflect else tail
    return out


def normal_cdf(x):
    """Standard normal CDF, vectorized; scalar in, scalar out."""
    arr = _real_array(x, None, "x").astype(np.float64)
    return _scalar_like(x, _erfc_vec(arr / -math.sqrt(2.0)) * 0.5)


# ---------------------------------------------------------------------------
# Moments of the accusation sums under the arcsine bias density.


@dataclass(frozen=True)
class MomentSummary:
    """Per-column moments of the accusation sums against a fixed strategy.

    ``mu_j`` is the innocent mean (identically zero); ``sigma_j_scaled`` the
    innocent per-column standard deviation; ``mu_scaled``/``sigma_scaled``
    the coalition-sum per-column mean and standard deviation. Totals over a
    length-m code are mean mu_scaled*m and variances sigma^2*m.
    """

    mu_j: float
    sigma_j_scaled: float
    mu_scaled: float
    sigma_scaled: float
    c: int
    t: float
    strategy: tuple

    def csv_row(self):
        head = "c,t,mu_j,sigma_j_scaled,mu_scaled,sigma_scaled"
        row = (f"{self.c},{self.t!r},{self.mu_j!r},{self.sigma_j_scaled!r},"
               f"{self.mu_scaled!r},{self.sigma_scaled!r}")
        return head, row


def moments(strategy, c, t=None, c0=None):
    """Exact accusation-sum moments for a coalition of c users.

    The bias density is the arcsine law truncated to [t, 1-t]; ``t`` defaults
    to the standard cutoff 1/(300 c0). With angle r' = arcsin(sqrt(t)) and
    psi the response table of ``strategy`` (anything :meth:`Strategy.of`
    takes):

      mu_scaled      = sum_x C(c,x) psi(x) [t^(c-x)(1-t)^x - t^x(1-t)^(c-x)]
                       / (pi - 4 r')
      sigma_j^2      = sum_x C(c,x) psi(x) E_p[p^x (1-p)^(c-x)]
      sigma^2 + mu^2 = sum_x C(c,x) psi(x) E_p[(x - c p)^2 p^(x-1) (1-p)^(c-x-1)]

    Binomial weights are kept in log space and every E_p uses the sin^2
    substitution, so the sums stay accurate up to c ~ 10^3.
    """
    c = _integer(c, "coalition size c", 1)
    if c0 is not None and c > _integer(c0, "c0", 1, _C0_MAX):
        raise ParameterError(f"coalition size {c} exceeds c0 = {c0}", param="coalition size c")
    if t is None and c0 is None:
        raise ParameterError("either t or c0 is required")
    t = _check_cutoff(default_cutoff(c0) if t is None else t)
    psi = Strategy.of(strategy, c).table()

    tp = tprime(t)
    norm = math.pi - 4.0 * tp
    scale = 2.0 / norm  # E_p[h] = scale * integral of h(sin^2 r) dr
    rlo, rhi = tp, 0.5 * math.pi - tp
    log_t, log_1mt = math.log(t), math.log1p(-t)

    mu = 0.0
    var_j = 0.0
    second = 0.0  # sigma_scaled^2 + mu_scaled^2
    for x in range(1, c + 1):
        w = psi[x]
        if w == 0.0:
            continue
        log_binom = (math.lgamma(c + 1) - math.lgamma(x + 1)
                     - math.lgamma(c - x + 1))
        lw = log_binom + math.log(w)
        mu += (math.exp(lw + (c - x) * log_t + x * log_1mt)
               - math.exp(lw + x * log_t + (c - x) * log_1mt)) / norm

        def detect_mass(r, _lw=lw, _x=x):
            s, co = math.sin(r), math.cos(r)
            return math.exp(_lw + 2.0 * _x * math.log(s)
                            + 2.0 * (c - _x) * math.log(co))

        var_j += scale * _quad(detect_mass, rlo, rhi, tol=QUAD_TOL)

        def weighted_square(r, _lw=lw, _x=x):
            s, co = math.sin(r), math.cos(r)
            p = s * s
            return ((_x - c * p) ** 2
                    * math.exp(_lw + 2.0 * (_x - 1) * math.log(s)
                               + 2.0 * (c - _x - 1) * math.log(co)))

        second += scale * _quad(weighted_square, rlo, rhi, tol=QUAD_TOL)

    var = second - mu * mu
    return MomentSummary(mu_j=0.0, sigma_j_scaled=math.sqrt(var_j),
                         mu_scaled=mu, sigma_scaled=math.sqrt(var), c=c,
                         t=float(t), strategy=tuple(float(v) for v in psi))


# ---------------------------------------------------------------------------
# Minimal length, threshold interval, conservative plan.


def m_min(summary, eps1, eps2, c0):
    """Smallest real code length with a nonempty threshold interval.

        m_min = mu^(-2) c0^2 [sigma_j G1 + (sigma/c0) G2]^2

    with G1 = sqrt(2) erfc_inv(2 eps1), G2 = sqrt(2) erfc_inv(2 eps2). The
    bracket is clamped at zero (error targets at or above 1/2 on both sides
    need no length at all).
    """
    if summary.mu_scaled <= 0.0:
        raise ParameterError("coalition mean must be positive")
    c0 = _integer(c0, "c0", 1, _C0_MAX)
    _check_rate("eps1", eps1)
    _check_rate("eps2", eps2)
    bracket = (summary.sigma_j_scaled * _gauss_tail_inv(eps1)
               + summary.sigma_scaled / c0 * _gauss_tail_inv(eps2))
    if bracket <= 0.0:
        return 0.0
    return (bracket / summary.mu_scaled) ** 2 * c0 ** 2


@dataclass(frozen=True)
class ZInterval:
    """Admissible threshold interval [low, high]; may be empty (low > high)."""

    low: float
    high: float

    @property
    def empty(self):
        return self.low > self.high

    @property
    def midpoint(self):
        return 0.5 * (self.low + self.high)

    def __iter__(self):
        return iter((self.low, self.high))


def z_interval(summary, m, eps1, eps2, c0):
    """Threshold interval for a length-m code: soundness floor vs completeness
    ceiling.

        low  = sigma_j sqrt(m) G1,
        high = (mu/c0) m - (sigma/c0) sqrt(m) G2,

    G as in :func:`m_min`. Empty (low > high) exactly when m < m_min; that is
    a valid flagged result, not an error.
    """
    _positive(m, "m")
    _check_rate("eps1", eps1)
    _check_rate("eps2", eps2)
    c0 = _integer(c0, "c0", 1, _C0_MAX)
    root = math.sqrt(m)
    low = summary.sigma_j_scaled * root * _gauss_tail_inv(eps1)
    high = (summary.mu_scaled / c0 * m
            - summary.sigma_scaled / c0 * root * _gauss_tail_inv(eps2))
    return ZInterval(low=low, high=high)


@dataclass(frozen=True)
class GaussianPlan:
    """Worst-case (strategy-independent) length and threshold choice.

    ``m_min`` is the real-valued minimum, ``m`` its ceiling; ``Z_low``/
    ``Z_high`` bound the admissible thresholds at length ``m`` and ``Z`` is
    their midpoint.
    """

    m_min: float
    Z_low: float
    Z_high: float
    m: int
    Z: float

    def csv_row(self):
        head = "m_min,m,Z_low,Z_high,Z"
        row = f"{self.m_min!r},{self.m},{self.Z_low!r},{self.Z_high!r},{self.Z!r}"
        return head, row


def conservative_plan(c0, tau, eps1, eps2):
    """Length and threshold valid against every strategy and coalition <= c0.

    The worst case replaces the moment triple by its extreme envelope
    (sigma_j -> 1, sigma -> sqrt(c0), mu -> (1 - 2 tau)/pi), giving

        m_min = (2 pi^2 / (1 - 2 tau)^2) c0^2
                [erfc_inv(2 eps1) + erfc_inv(2 eps2)/sqrt(c0)]^2

    and, at the chosen integer m, the threshold window

        Z_low  = sqrt(2 m) erfc_inv(2 eps1),
        Z_high = (1 - 2 tau) m / (pi c0) - sqrt(2 m / c0) erfc_inv(2 eps2).

    At m = m_min exactly the window is the single point where both sides
    meet; the integer ceiling reopens it slightly.
    """
    c0 = _integer(c0, "c0", 1, _C0_MAX)
    if not 0.0 <= _real(tau, "tau") < 0.5:
        raise ParameterError("tau must lie in [0, 1/2)", param="tau")
    eps1, eps2 = _check_rate("eps1", eps1), _check_rate("eps2", eps2)
    bracket = erfc_inv(2.0 * eps1) + erfc_inv(2.0 * eps2) / math.sqrt(c0)
    try:
        if bracket <= 0.0:
            mreal = 0.0
        else:
            mreal = 2.0 * math.pi ** 2 / (1.0 - 2.0 * tau) ** 2 * c0 ** 2 * bracket ** 2
        m = math.ceil(mreal)
    except OverflowError:
        raise ParameterError("c0 is too large: the length is beyond the float range",
                             param="c0") from None
    if m > 0:
        low = math.sqrt(2.0 * m) * erfc_inv(2.0 * eps1)
        high = ((1.0 - 2.0 * tau) * m / (math.pi * c0)
                - math.sqrt(2.0 * m / c0) * erfc_inv(2.0 * eps2))
        z = 0.5 * (low + high)
    else:
        low = high = z = 0.0
    return GaussianPlan(m_min=mreal, Z_low=low, Z_high=high, m=m, Z=z)


# ---------------------------------------------------------------------------
# Range of validity of the normal approximation.


@dataclass(frozen=True)
class CltReport:
    """How deep into the tail the normal approximation of the innocent score
    holds, versus how deep the soundness target needs it to hold."""

    kappa2: float
    kappa4: float
    n_sigmas: float
    required_sigmas: float

    def csv_row(self):
        head = "kappa2,kappa4,n_sigmas,required_sigmas"
        row = (f"{self.kappa2!r},{self.kappa4!r},{self.n_sigmas!r},"
               f"{self.required_sigmas!r}")
        return head, row


def clt_report(c0, t=None, eps1=1e-10, m=None):
    """Cumulants of the single-column accusation weight and the CLT radius.

    The weight u of one column has the symmetric heavy-shouldered density
    proportional to 1/(1+u^2)^2 on +-(sqrt(t/(1-t)), sqrt((1-t)/t)); with
    u = tan(theta) its even moments are plain trigonometric integrals, done
    here by quadrature. The normal approximation of a sum of m columns is
    reliable out to about

        n_sigmas = (24 kappa2^2 / kappa4)^(1/4) m^(1/4)

    standard deviations, to be compared with required_sigmas =
    sqrt(2) erfc_inv(2 eps1). ``t`` defaults to 1/(300 c0) and ``m`` to
    2 pi^2 c0^2 ln(1/eps1), the canonical length at these targets.
    """
    c0 = _integer(c0, "c0", 1, _C0_MAX)
    t = _check_cutoff(default_cutoff(c0) if t is None else t)
    eps1 = _check_rate("eps1", eps1)
    if m is None:
        m = 2.0 * math.pi ** 2 * c0 ** 2 * math.log(1.0 / eps1)
    if not 1 <= _real(m, "m") < math.inf:
        raise ParameterError("m must be finite and at least 1", param="m")

    tp = tprime(t)
    norm = 4.0 / (math.pi - 4.0 * tp)
    lo, hi = tp, 0.5 * math.pi - tp
    e2 = norm * _quad(lambda r: math.sin(r) ** 2, lo, hi, tol=QUAD_TOL)
    e4 = norm * _quad(lambda r: math.sin(r) ** 4 / math.cos(r) ** 2, lo, hi,
                      tol=QUAD_TOL)
    kappa2 = e2  # the density is symmetric, so the mean vanishes
    kappa4 = e4 - 3.0 * e2 * e2
    if kappa4 <= 0.0:
        raise ParameterError("fourth cumulant must be positive (t too large)", param="cutoff t")
    n_sigmas = (24.0 * kappa2 ** 2 / kappa4) ** 0.25 * m ** 0.25
    return CltReport(kappa2=kappa2, kappa4=kappa4, n_sigmas=n_sigmas,
                     required_sigmas=_gauss_tail_inv(eps1))


# ---------------------------------------------------------------------------
# Human-readable report used by the CLI.


def format_report(summary, plan, interval, clt):
    """Render the prediction bundle as an aligned key/value block."""
    lines = [
        "coalition moments",
        f"  c                 = {summary.c}",
        f"  t                 = {summary.t!r}",
        f"  innocent mean     = {summary.mu_j!r}",
        f"  innocent sd       = {summary.sigma_j_scaled!r}",
        f"  coalition mean    = {summary.mu_scaled!r}",
        f"  coalition sd      = {summary.sigma_scaled!r}",
        "threshold interval at chosen length",
        f"  Z low             = {interval.low!r}",
        f"  Z high            = {interval.high!r}",
        f"  empty             = {interval.empty}",
        "conservative plan",
        f"  m_min (real)      = {plan.m_min!r}",
        f"  m                 = {plan.m}",
        f"  Z in [{plan.Z_low!r}, {plan.Z_high!r}]",
        f"  Z (midpoint)      = {plan.Z!r}",
        "normal-approximation radius",
        f"  kappa2            = {clt.kappa2!r}",
        f"  kappa4            = {clt.kappa4!r}",
        f"  valid out to      = {clt.n_sigmas!r} sigmas",
        f"  required depth    = {clt.required_sigmas!r} sigmas",
    ]
    return "\n".join(lines) + "\n"
