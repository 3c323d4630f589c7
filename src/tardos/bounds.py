"""Provable parameter bounds and the randomized search for the length constant.

The code length is m = ceil(A c0^2 ceil(ln(1/eps1))) and the threshold is
Z = B c0 ceil(ln(1/eps1)). This module answers "how small can A be while both
error guarantees stay provable":

* :func:`closed_form_params` evaluates the explicit recipe that ties (A, B) to
  a cutoff fraction tau = c0 t and an auxiliary rate omega; it is valid for
  c0 >= 1/(tau (3.4 pi)^2) and approaches A = 4 pi^2 / (1 - 2 tau - pi omega)^2
  for large c0.
* :func:`length_window` gives, for chosen (nu, L, alpha2), the whole interval
  of admissible A at a given B: completeness forces A >= L B + L R/(alpha2
  c0^2) and soundness forces A <= B^2/(4 nu), with R = ln(eps2)/ln(eps1).
* :func:`check_general_condition` and :func:`check_tardos_condition` evaluate
  the completeness condition that makes an (L, alpha2) pair admissible, for a
  general bias density and for the arcsine family respectively.
* :func:`search_min_A` runs the uniform randomized search over
  (t, alpha1, L, alpha2) that produced the reference table of small A values,
  and :func:`emit_search_table` sweeps a (R, c0) grid into a CSV.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindowError, InfeasibleError, ParameterError, TardosError
from .model import (_C0_MAX, ARCSINE, BiasDistribution, _check_cutoff, _check_rate, _integer,
                    _ln_ceil, _positive, _quad, _real, expectation, g1, nu as nu_functional)
from .rng import SEED_LIMIT, TAG_SEARCH, _deprecated_threads, check_seed, stream

log = logging.getLogger(__name__)

_EXP17 = math.exp(1.7)


def _ratio(eps1, eps2):
    eps1, eps2 = _check_rate("eps1", eps1), _check_rate("eps2", eps2)
    return math.log(eps2) / math.log(eps1)


def eps2_for_ratio(eps1, R):
    """The eps2 with ln(eps2)/ln(eps1) = R, for eps1 in (0, 1) and an R > 0 that
    keeps eps2 = eps1^R in (0, 1) as a float (it can fall to 0 or round to 1)."""
    eps1, R = _check_rate("eps1", eps1), _real(R, "ratio R")
    eps2 = math.exp(R * math.log(eps1)) if R > 0.0 else 1.0
    if not 0.0 < eps2 < 1.0:
        raise ParameterError(f"ratio R = ln(eps2)/ln(eps1) = {R!r} must be positive and "
                             f"give eps2 = eps1^R in (0, 1) at eps1 = {eps1!r}", param="ratio R")
    return eps2


# ---------------------------------------------------------------------------
# Closed-form provable parameters.


@dataclass(frozen=True)
class ClosedFormInputs:
    """Inputs of the closed-form recipe: design size, tau = c0 t, rate omega."""

    c0: float
    tau: float
    omega: float
    eps1: float
    eps2: float

    def __post_init__(self):
        if not 1.0 <= _real(self.c0, "c0") < math.inf:
            raise ParameterError("c0 must be a real number of at least 1", param="c0")
        if not 0.0 < _real(self.tau, "tau") < 0.5:
            raise ParameterError("tau must lie in (0, 1/2)", param="tau")
        _positive(self.omega, "omega")
        _ratio(self.eps1, self.eps2)


@dataclass(frozen=True)
class ClosedFormOutputs:
    D: float
    delta: float
    xi: float
    A: float
    B: float
    m: int
    Z: float


def closed_form_params(inp):
    """Evaluate the closed-form (A, B, m, Z) recipe.

    D = e (omega/1.7)^2,
    delta = 2 tau + pi omega + e^1.7 (pi c0 / (omega (1-D))) D^(tau + (1.7
    sqrt(tau)/omega) sqrt(c0 - tau)),
    xi = sqrt(1 + (1-delta) R / (pi omega c0)) - 1,
    A = 4 pi^2 (1+xi)^2 / (1-delta)^2,  B = 4 pi (1+xi) / (1-delta),
    so A = B^2/4 exactly. Raises InfeasibleError outside the validity regime
    (c0 below the floor, D >= 1, or delta >= 1).
    """
    c0, tau, omega = inp.c0, inp.tau, inp.omega
    floor = 1.0 / (tau * (3.4 * math.pi) ** 2)
    if c0 < floor:
        raise InfeasibleError(
            f"c0 = {c0:g} is below the validity floor {floor:g} for tau = {tau:g}")
    D = math.e * (omega / 1.7) ** 2
    if D >= 1.0:
        raise InfeasibleError(f"omega = {omega:g} makes D = {D:g} >= 1")
    exponent = tau + (1.7 * math.sqrt(tau) / omega) * math.sqrt(c0 - tau)
    delta = (2.0 * tau + math.pi * omega
             + _EXP17 * (math.pi * c0 / (omega * (1.0 - D))) * D ** exponent)
    if delta >= 1.0:
        raise InfeasibleError(f"delta = {delta:g} >= 1: parameters outside the regime")
    R = _ratio(inp.eps1, inp.eps2)
    xi = math.sqrt(1.0 + (1.0 - delta) / (math.pi * omega * c0) * R) - 1.0
    A = 4.0 * math.pi ** 2 * (1.0 + xi) ** 2 / (1.0 - delta) ** 2
    B = 4.0 * math.pi * (1.0 + xi) / (1.0 - delta)
    lc = _ln_ceil(inp.eps1)
    return ClosedFormOutputs(D=D, delta=delta, xi=xi, A=A, B=B,
                             m=math.ceil(A * c0 ** 2 * lc), Z=B * c0 * lc)


# ---------------------------------------------------------------------------
# Window of admissible length coefficients.


@dataclass(frozen=True)
class WindowResult:
    """Admissible A interval at a given B, plus the canonical B choice."""

    A_low: float
    A_high: float
    B: float
    psi_scalar: float


def length_window(nu, L, alpha2, c0, eps1, eps2, B=None):
    """The admissible interval for A at threshold coefficient B.

    psi = sqrt(1 + R/(nu L alpha2 c0^2)) - 1; the canonical choice (used when
    ``B`` is omitted) is B = 4 nu L (1 + psi), whose upper endpoint
    B^2/(4 nu) = 4 nu L^2 (1+psi)^2 is the standard deployable A. The window
    is [L B + L R/(alpha2 c0^2), B^2/(4 nu)]; an empty interval raises
    EmptyWindowError. The smallest B with a nonempty window is
    2 nu L (2 + psi).
    """
    nu, L, alpha2 = _positive(nu, "nu"), _positive(L, "L"), _positive(alpha2, "alpha2")
    c0, R = _integer(c0, "c0", 1, _C0_MAX), _ratio(eps1, eps2)
    psi = math.sqrt(1.0 + R / (nu * L * alpha2 * c0 ** 2)) - 1.0
    B = 4.0 * nu * L * (1.0 + psi) if B is None else _positive(B, "B")
    A_low = L * B + L * R / (alpha2 * c0 ** 2)
    A_high = B * B / (4.0 * nu)
    if A_low > A_high * (1.0 + 1e-12) + 1e-12:
        raise EmptyWindowError(
            f"no admissible A at B = {B:g}: completeness needs A >= {A_low:g} "
            f"but soundness allows at most {A_high:g}")
    return WindowResult(A_low=A_low, A_high=A_high, B=float(B), psi_scalar=psi)


# ---------------------------------------------------------------------------
# Completeness condition: general density and arcsine specialization.


@dataclass(frozen=True)
class ConditionCheck:
    satisfied: bool
    slack: float


@dataclass(frozen=True)
class GeneralConditionInputs:
    """Inputs of the general completeness condition.

    ``beta`` is the growth exponent of the weight near the cutoff,
    g1(p) >= const * (1-p)^beta as p -> t; the default 1/2 matches the
    standard weight sqrt((1-p)/p).
    """

    dist: BiasDistribution
    c: int
    alpha2: float
    L: float
    beta: float = 0.5

    def __post_init__(self):
        _integer(self.c, "coalition size c", 1)
        _positive(self.alpha2, "alpha2")
        _positive(self.L, "L")
        if not 0.0 < _real(self.beta, "beta") < 1.0:
            raise ParameterError("beta must lie in (0, 1)", param="beta")


def _weight_flow_derivative(dist):
    """d/dp of p * f(p) * g1(p) as (callable, sign-change root or None).

    For the arcsine density the product is constant, so the derivative is
    exactly zero. For the beta family with shapes (a, b) the derivative is
    norm^-1 p^(a-3/2) (1-p)^(b-3/2) [(a-1/2)(1-p) - (b-1/2) p]; the bracket is
    linear in p, so the region where the derivative is positive is a single
    subinterval of the support.
    """
    if dist.kind == ARCSINE:
        return (lambda p: 0.0), []
    u, v = dist.a - 0.5, dist.b - 0.5
    lo, hi = dist.support

    # d/dp[p f g1] = f(p) sqrt((1-p)/p) [(a-1/2)(1-p) - (b-1/2) p] / (1-p)
    def deriv(p):
        return dist.density(p) * math.sqrt((1.0 - p) / p) * (u * (1.0 - p) - v * p) / (1.0 - p)

    intervals = []
    if u + v == 0.0:
        if u > 0.0:
            intervals.append((lo, hi))
    else:
        root = u / (u + v)
        if u + v > 0.0:
            # positive for p < root
            if root > lo:
                intervals.append((lo, min(root, hi)))
        else:
            # positive for p > root
            if root < hi:
                intervals.append((max(root, lo), hi))
    return deriv, intervals


def check_general_condition(inp):
    """Evaluate the completeness condition for a general bias density.

    The condition compares

        1 - c alpha2 E_p[p^c g1] + alpha2 S + nu c alpha2^2
          + e^1.7 Delta^(c - x_max) / (1 - Delta)   <   1 - alpha2 / L

    where S collects the detectable-column bound through the boundary value
    t f(t) g1(t) (1 - (1-t)^c - t^c) plus the integral of
    (1 - (1-p)^c - p^c) d/dp[p f g1] over the region where that derivative is
    positive, x_max = floor(c (1-t) - 1.7 (1-t)/(alpha2 g1(t))), and
    Delta = e (alpha2 c / 1.7)^(1/(1-beta)). Returns the boolean along with
    slack = RHS - LHS (positive means satisfied).
    """
    dist, c, alpha2, L = inp.dist, inp.c, inp.alpha2, inp.L
    t = dist.t
    delta_gap = math.e * (alpha2 * c / 1.7) ** (1.0 / (1.0 - inp.beta))
    if delta_gap >= 1.0:
        raise InfeasibleError(f"Delta = {delta_gap:g} >= 1: alpha2 too large for c = {c}")

    e_term = expectation(dist, lambda p: p ** c * math.sqrt((1.0 - p) / p), tol=1e-12)
    one_minus_ends = lambda p: 1.0 - (1.0 - p) ** c - p ** c
    boundary = t * dist.density(t) * g1(t) * one_minus_ends(t)
    deriv, intervals = _weight_flow_derivative(dist)
    flow = 0.0
    for lo, hi in intervals:
        if hi - lo <= 0.0:
            continue
        # angle space keeps the integrand bounded near the support edges
        rlo, rhi = math.asin(math.sqrt(lo)), math.asin(math.sqrt(hi))
        flow += _quad(
            lambda r: one_minus_ends(math.sin(r) ** 2) * deriv(math.sin(r) ** 2)
            * math.sin(2.0 * r), rlo, rhi, tol=1e-12)
    detect_sum = boundary + flow

    nu_val = nu_functional(dist, "tardos", tol=1e-12)
    x_max = math.floor(c * (1.0 - t) - 1.7 * (1.0 - t) / (alpha2 * g1(t)))
    K = c - x_max
    tail = _EXP17 * delta_gap ** K / (1.0 - delta_gap)
    lhs = 1.0 - c * alpha2 * e_term + alpha2 * detect_sum + nu_val * c * alpha2 ** 2 + tail
    rhs = 1.0 - alpha2 / L
    slack = rhs - lhs
    return ConditionCheck(satisfied=slack > 0.0, slack=slack)


def check_tardos_condition(c0, t, alpha2, L):
    """The same completeness condition specialized to the arcsine family.

    Reduces to

        1 - alpha2 (2 (1-t)^c0 - 1)/(pi - 4 t') + c0 alpha2^2
          + e^1.7 D^K / (1 - D)   <   1 - alpha2 / L

    with D = e (c0 alpha2 / 1.7)^2 and K = ceil(c0 t + 1.7 sqrt(t(1-t)) /
    alpha2). alpha2 = 0 is defined as not satisfied (the strict inequality
    degenerates); D >= 1 raises. The slack comes from the search's own kernel,
    so a point chosen by :func:`search_min_A` is judged as it was chosen.
    """
    c0, t = _integer(c0, "c0", 1, _C0_MAX), _check_cutoff(t)
    _positive(L, "L")
    if not 0.0 <= _real(alpha2, "alpha2") < math.inf:
        raise ParameterError("alpha2 must be nonnegative and finite", param="alpha2")
    if alpha2 == 0.0:
        return ConditionCheck(satisfied=False, slack=0.0)
    D = math.e * (c0 * alpha2 / 1.7) ** 2
    if D >= 1.0:
        raise InfeasibleError(f"D = {D:g} >= 1: alpha2 too large for c0 = {c0}")
    t_v, a2_v = np.array([[t], [alpha2]], dtype=np.float64)
    slack = float(_slack_rows(c0, _search_W(t_v, c0), t_v, a2_v, L)[0])
    return ConditionCheck(satisfied=slack > 0.0, slack=slack)


# ---------------------------------------------------------------------------
# Randomized search for the smallest A.


@dataclass(frozen=True)
class SearchResult:
    """Best tuple found by :func:`search_min_A`.

    All constraints re-verify at the reported point; ``B`` is the collapsed
    soundness-tight choice 2 sqrt(A) (unit nu on the arcsine family).
    """

    A: float
    B: float
    t: float
    L: float
    alpha1: float
    alpha2: float
    c0: int
    R: float
    iterations_used: int


_BLOCK = 4096            # iterations per random block (stream index = block)
_CHUNK = 128             # rows per prune step; bounds the (rows x _GRID) slack temporaries
_GRID = 256              # alpha2 grid resolution
_GRID_FACTORS = np.exp(np.linspace(math.log(1e-6), 0.0, _GRID))
_BISECT_STEPS = 50


def _slack_rows(c0, W, t, alpha2, L):
    """Vectorized arcsine-condition slack; infeasible rows get -inf."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        D = math.e * (c0 * alpha2 / 1.7) ** 2
        K = np.ceil(c0 * t + 1.7 * np.sqrt(t * (1.0 - t)) / alpha2)
        tail = _EXP17 * np.exp(K * np.log(D)) / (1.0 - D)
        slack = alpha2 * (W - 1.0 / L) - c0 * alpha2 ** 2 - tail
    bad = (D >= 1.0) | (alpha2 <= 0.0) | ~np.isfinite(slack)
    if np.any(bad):
        slack = np.where(bad, -np.inf, slack)
    return slack


def _search_W(t, c0):
    """W = (2 (1-t)^c0 - 1)/(pi - 4 t') over an array of cutoffs ``t``."""
    return (2.0 * (1.0 - t) ** c0 - 1.0) / (math.pi - 4.0 * np.arcsin(np.sqrt(t)))


def _search_block(c0, R, seed, block_index, size, cut=math.inf):
    """One block of the randomized search; deterministic in (seed, block_index).

    The block's best starts at ``cut``: rows whose lower bound on A is not
    below the best so far are dropped unscored, and a row replaces the best
    only with a strictly smaller A. Returns (best A, tuple, counts), with
    tuple None when no row beat ``cut``; counts tracks rows that died at the
    alpha2 stage or produced no valid draw.
    """
    rng = stream(seed, TAG_SEARCH, block_index)
    t = rng.random(size) * (0.5 / c0)
    u1 = rng.random(size)
    uL = rng.random(size)

    valid = t > 0.0
    t = np.where(valid, t, 0.25 / c0)  # placeholder; masked out below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        W = _search_W(t, c0)
        cap1 = np.minimum(1.7 * np.sqrt(t / (1.0 - t)), W / c0)
        alpha1 = cap1 * u1
        valid &= alpha1 > 0.0
        q = 1.0 / (c0 * alpha1)
        L = (1.0 / W) + (q - 1.0 / W) * uL
        cap2 = np.minimum(2.0 * np.sqrt(t), (W - 1.0 / L) / c0)
    valid &= cap2 > 0.0

    best = (cut, None)
    no_alpha2 = 0
    invalid = int(np.count_nonzero(~valid))
    for lo_row in range(0, size, _CHUNK):
        sel = slice(lo_row, min(lo_row + _CHUNK, size))
        v = valid[sel]
        if not v.any():
            continue
        tc, Wc, Lc, qc, a1c, capc = (arr[sel][v] for arr in (t, W, L, q, alpha1, cap2))
        # A decreases in alpha2, so alpha2 = cap gives a true lower bound;
        # rows that cannot beat the best so far are dropped before grid work.
        A_lb = (Lc * qc / (qc - Lc)) * (qc + R / (c0 ** 2 * capc))
        keep = A_lb < best[0]
        if not keep.any():
            continue
        tc, Wc, Lc, qc, a1c, capc = (arr[keep] for arr in (tc, Wc, Lc, qc, a1c, capc))

        grid = capc[:, None] * _GRID_FACTORS[None, :]
        slack = _slack_rows(c0, Wc[:, None], tc[:, None], grid, Lc[:, None])
        sat = slack > 0.0
        any_sat = sat.any(axis=1)
        no_alpha2 += int(np.count_nonzero(~any_sat))
        if not any_sat.any():
            continue
        tc, Wc, Lc, qc, a1c, capc, sat = (arr[any_sat] for arr in
                                          (tc, Wc, Lc, qc, a1c, capc, sat))
        idx = _GRID - 1 - np.argmax(sat[:, ::-1], axis=1)
        alpha2 = capc * _GRID_FACTORS[idx]
        refine = idx < _GRID - 1
        if refine.any():
            lo = alpha2[refine]
            hi = capc[refine] * _GRID_FACTORS[idx[refine] + 1]
            tr, Wr, Lr = tc[refine], Wc[refine], Lc[refine]
            for _ in range(_BISECT_STEPS):
                mid = 0.5 * (lo + hi)
                good = _slack_rows(c0, Wr, tr, mid, Lr) > 0.0
                lo = np.where(good, mid, lo)
                hi = np.where(good, hi, mid)
            alpha2 = alpha2.copy()
            alpha2[refine] = lo
        A = (Lc * qc / (qc - Lc)) * (qc + R / (c0 ** 2 * alpha2))
        j = int(np.argmin(A))
        if A[j] < best[0]:
            best = (float(A[j]), (float(tc[j]), float(Lc[j]), float(a1c[j]),
                                  float(alpha2[j])))
    return best[0], best[1], {"no_alpha2": no_alpha2, "invalid_draw": invalid}


def search_min_A(c0, eps1, eps2, iterations, seed, threads=None):
    """Uniform randomized search for the smallest admissible A.

    Per iteration: draw t ~ U(0, 1/(2 c0)); draw alpha1 ~ U(0, min(1.7
    sqrt(t/(1-t)), W/c0)) with W = (2 (1-t)^c0 - 1)/(pi - 4 t'); draw
    L ~ U(1/W, 1/(c0 alpha1)); take the largest alpha2 in (0, min(2 sqrt(t),
    (W - 1/L)/c0)] satisfying the arcsine completeness condition (log-grid
    scan plus bisection on the highest satisfied bracket); then

        A = (L q / (q - L)) (q + R / (c0^2 alpha2)),  q = 1/(c0 alpha1),

    keeping the minimum-A tuple. Deterministic for fixed (seed, iterations):
    iterations are split into fixed blocks with one random stream per block
    and reduced in block order with a strict ``<``.

    The blocks run serially with one running bound: each block gets the best
    A so far as its ``cut`` and drops rows whose lower bound A_lb (A at
    alpha2 = cap) is not below the best. This cannot change the result:
    alpha2 <= cap in floating point too, so A >= A_lb, and a row wins only
    with an A strictly below the best before it. While nothing is feasible
    the cut is inf, so the counts of an InfeasibleError are unchanged.
    ``threads`` is deprecated: passing it only warns.
    """
    _deprecated_threads(threads, "search_min_A")
    iterations = _integer(iterations, "iterations", 1)
    c0 = _integer(c0, "c0", 1, _C0_MAX)
    R = _ratio(eps1, eps2)

    best_A, best_tuple = math.inf, None
    counts = {"no_alpha2": 0, "invalid_draw": 0}
    for lo in range(0, iterations, _BLOCK):
        A, tup, cnt = _search_block(c0, R, seed, lo // _BLOCK,
                                    min(_BLOCK, iterations - lo), best_A)
        for k in counts:
            counts[k] += cnt[k]
        if tup is not None:
            best_A, best_tuple = A, tup
    if best_tuple is None:
        raise InfeasibleError(
            f"search found no feasible point in {iterations} iterations", counts=counts)

    t, L, alpha1, alpha2 = best_tuple
    result = SearchResult(A=best_A, B=2.0 * math.sqrt(best_A), t=t, L=L,
                          alpha1=alpha1, alpha2=alpha2, c0=c0, R=R,
                          iterations_used=iterations)
    _verify_search_result(result)
    return result


def _verify_search_result(res):
    """Re-check every constraint at the reported tuple; raises on any breach.

    The left-boundary coefficient A/L - R/(alpha2 c0^2) must equal the
    soundness form q + A c0 alpha1 identically (they are two readings of the
    same construction); disagreement flags an implementation bug. The rest is
    re-checked with the arithmetic that chose the tuple (W, the alpha2 cap and
    :func:`check_tardos_condition` all run the search's kernels); the tests
    check that formula against the quadrature of :func:`check_general_condition`.
    """
    c0, t, L, a1, a2, A, R = res.c0, res.t, res.L, res.alpha1, res.alpha2, res.A, res.R
    q = 1.0 / (c0 * a1)
    B_left = A / L - R / (a2 * c0 ** 2)
    B_sound = q + A * c0 * a1
    scale = max(1.0, abs(B_left))
    if abs(B_left - B_sound) > 1e-6 * scale:
        raise TardosError(
            f"internal inconsistency: boundary B {B_left!r} vs soundness B {B_sound!r}")
    if not 0.0 < t < 0.5 / c0:
        raise TardosError("search result t out of range")
    W = float(_search_W(np.array([t]), c0)[0])
    if not 0.0 < a1 < min(1.7 * math.sqrt(t / (1.0 - t)), W / c0):
        raise TardosError("search result alpha1 out of range")
    if not 1.0 / W < L < q:
        raise TardosError("search result L out of range")
    if not 0.0 < a2 <= min(2.0 * math.sqrt(t), (W - 1.0 / L) / c0):
        raise TardosError("search result alpha2 out of range")
    if not check_tardos_condition(c0, t, a2, L).satisfied:
        raise TardosError("search result fails the completeness condition")
    # AM-GM at the constructed point: q + A c0 a1 >= 2 sqrt(A)
    if B_left < res.B - 1e-9 * max(1.0, res.B):
        raise TardosError("collapsed B exceeds the admissible boundary")


@dataclass(frozen=True)
class SearchTable:
    """Search results over a (R, c0) grid, in R-major order."""

    R_list: tuple
    c0_list: tuple
    results: tuple  # SearchResult per (R, c0) cell, R-major

    def to_csv(self, fh):
        fh.write("R,c0,A,B,t_ratio\n")
        for res in self.results:
            t_ratio = res.t * 300.0 * res.c0
            fh.write(f"{res.R!r},{res.c0},{res.A!r},{res.B!r},{t_ratio!r}\n")


def _nonempty(values, what):
    """``values`` as a tuple, checked to be a nonempty iterable."""
    try:
        values = tuple(values)
    except TypeError:
        values = ()
    if not values:
        raise ParameterError(f"the {what} values must form a nonempty list", param=what)
    return values


def emit_search_table(c0_list, R_list, iterations, seed, threads=None, eps1=1e-10):
    """Run :func:`search_min_A` over every (R, c0) cell.

    A depends on the two error targets only through R = ln(eps2)/ln(eps1), so
    cells fix eps1 (default 1e-10) and set eps2 = eps1^R. Each cell uses its
    own seed, seed + k mod 2^64 for cell k; per-cell auxiliary ratios are
    logged, not returned. Cells run serially, like the blocks of each search;
    ``threads`` is deprecated: passing it only warns.
    """
    _deprecated_threads(threads, "emit_search_table")
    # Every cell's c0 and R is checked before the first cell runs.
    c0_list = tuple(_integer(c0, "c0", 1, _C0_MAX) for c0 in _nonempty(c0_list, "c0"))
    R_list = _nonempty(R_list, "ratio R")
    eps2_list = [eps2_for_ratio(eps1, R) for R in R_list]
    seed = check_seed(seed)
    results = []
    cell = 0
    for R, eps2 in zip(R_list, eps2_list):
        for c0 in c0_list:
            res = search_min_A(c0, eps1, eps2, iterations, (seed + cell) % SEED_LIMIT)
            tT = 1.0 / (300.0 * c0)
            log.info("cell R=%g c0=%d: A=%.4f B=%.4f t/tT=%.3f L/pi=%.4f "
                     "a1*10c0=%.3f a2*20c0=%.3f", R, c0, res.A, res.B, res.t / tT,
                     res.L / math.pi, res.alpha1 * 10 * c0, res.alpha2 * 20 * c0)
            results.append(res)
            cell += 1
    return SearchTable(R_list=R_list, c0_list=c0_list, results=tuple(results))
