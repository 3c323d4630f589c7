"""Monte Carlo harness: attack, trace, and compare rates against predictions.

Each trial draws a fresh bias vector and coalition, forges a copy under the
configured strategy, and scores both the coalition and a sample of innocent
users against the scheme threshold. Innocent rows are sampled
(``innocents_per_trial`` per trial) instead of materializing the full user
matrix; innocent rows are i.i.d. given the bias and the forged copy, so the
sampled false-positive rate estimates the per-user rate exactly. Columns
where the forged copy is 0 contribute nothing to any score, so innocent bits
are only drawn in the forged copy's one-columns.

Aggregates are deterministic for a fixed (config, seed) and independent of
the thread count: a trial is a function of its index, drawn from its own
counter-based random substream, and returns its outcome; :func:`run`
copies the outcomes, in trial order, into arrays it allocates up front. A
trial draws its coalition one row at a time and draws and scores its innocent
rows a block of at most 2^16 bits at a time, in row order, so its working set
does not grow with ``innocents_per_trial``: one block's raw words, bits and
float64 copy, about 1 MB (0.7 MB traced at 1000 innocents x ~1219 evidence
columns). Past that, an innocent score costs 8 bytes (16 with
``keep_scores``), a cost :func:`run` checks against a byte budget before it
starts. The KS distance and the histograms work in place on the sorted
scores, with temporaries of at most one chunk.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .attacks import Strategy, _forge
from .errors import CapacityError, ParameterError
from .gaussian import MomentSummary, moments, normal_cdf
from .model import ARCSINE, BiasDistribution, SchemeParams, _integer, _positive
from .rng import SEED_LIMIT, TAG_TRIAL, bernoulli, fan_out, substreams, thresholds
from .tracer import _score_blocks, _score_pieces

__all__ = ["SimConfig", "SimReport", "Histogram", "HistogramBundle",
           "run", "score_histograms", "wilson_interval"]

_WILSON_Z = 2.575829303548901  # two-sided 99% normal: sqrt(2) erfc_inv(0.01), correctly rounded
_CI_METHOD = "wilson-99"
_HIST_HALF_WIDTH = 6.0
_BIT_BUDGET = 2 * 10 ** 11
_SCORE_BYTE_BUDGET = 1 << 30  # 8 bytes a kept score, 16 with keep_scores
_MAX_BINS = 10 ** 6
_KS_CHUNK = 1 << 12  # normal_cdf's float64 temporaries: a few times 32 KB


def wilson_interval(successes, n, z=_WILSON_Z):
    """Wilson score interval for a binomial rate; well-behaved at 0 and n."""
    n = _integer(n, "n", 1)
    successes, z = _integer(successes, "successes", 0, n), _positive(z, "z")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: scheme parameters, adversary, and budget."""

    params: SchemeParams
    strategy: Strategy
    c: int
    trials: int
    innocents_per_trial: int
    seed: int
    threads: int = 1
    keep_scores: bool = False
    histogram_bins: int = 80

    def __post_init__(self):
        for name, lo, hi in (("c", 1, self.params.c0), ("trials", 1, math.inf),
                             ("innocents_per_trial", 1, math.inf), ("threads", 1, math.inf),
                             ("histogram_bins", 1, _MAX_BINS), ("seed", 0, SEED_LIMIT - 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, lo, hi))
        if not isinstance(self.keep_scores, (bool, np.bool_)):
            raise ParameterError("keep_scores must be a bool", param="keep_scores")
        object.__setattr__(self, "strategy", Strategy.of(self.strategy, self.c))
        if self.params.Z is None:
            raise ParameterError("scheme parameters must include a threshold Z")


@dataclass(frozen=True)
class Histogram:
    """Equal-width bins of normalized scores; density integrates to one.

    Samples beyond the range are counted in the edge bins, so the full
    sample mass is always represented.
    """

    edges: tuple
    density: tuple
    count: int

    def to_csv(self, fh):
        fh.write("bin_lo,bin_hi,density\n")
        for lo, hi, d in zip(self.edges[:-1], self.edges[1:], self.density):
            fh.write(f"{lo!r},{hi!r},{d!r}\n")


@dataclass(frozen=True)
class HistogramBundle:
    innocent: Histogram
    coalition: Histogram
    ks_innocent: float
    ks_coalition: float


@dataclass(frozen=True)
class SimReport:
    """Aggregated simulation outcome.

    Rates come with Wilson 99% intervals. ``innocent_score_moments`` is
    (mean, variance) of raw innocent scores pooled over trials;
    ``coalition_score_moments`` the same for the per-trial coalition score
    totals; the ``*_moment_se`` tuples hold their standard errors. Innocent
    histogram scores are normalized per trial by sqrt(#ones in the forged
    copy), which makes their variance exactly one; coalition totals are
    normalized by the predicted mean and standard deviation in ``predicted``.
    """

    fp_hat: float
    fp_ci: tuple
    fn_hat: float
    fn_ci: tuple
    ci_method: str
    innocent_score_moments: tuple
    innocent_moment_se: tuple
    coalition_score_moments: tuple
    coalition_moment_se: tuple
    histograms: HistogramBundle
    ks_innocent: float
    ks_coalition: float
    predicted: MomentSummary
    trials: int
    innocents_total: int
    m: int
    Z: float
    c: int
    trial_fn: tuple
    trial_innocents_accused: tuple
    trial_coalition_total: tuple
    trial_coalition_max: tuple
    innocent_scores: object = None  # raw pooled scores when keep_scores

    def to_jsonl(self, fh):
        """One record per trial plus a final aggregate record."""
        for k in range(self.trials):
            fh.write(json.dumps({
                "trial": k,
                "fn": bool(self.trial_fn[k]),
                "innocents_accused": int(self.trial_innocents_accused[k]),
                "coalition_total": self.trial_coalition_total[k],
                "coalition_max": self.trial_coalition_max[k],
            }, sort_keys=True) + "\n")
        fh.write(json.dumps({"aggregate": {
            "fp_hat": self.fp_hat, "fp_ci": list(self.fp_ci),
            "fn_hat": self.fn_hat, "fn_ci": list(self.fn_ci),
            "ci_method": self.ci_method,
            "trials": self.trials, "innocents_total": self.innocents_total,
            "m": self.m, "Z": self.Z, "c": self.c,
            "innocent_mean": self.innocent_score_moments[0],
            "innocent_variance": self.innocent_score_moments[1],
            "coalition_mean": self.coalition_score_moments[0],
            "coalition_variance": self.coalition_score_moments[1],
            "ks_innocent": self.ks_innocent,
            "ks_coalition": self.ks_coalition,
        }}, sort_keys=True) + "\n")


def _ks_distance(x):
    """Kolmogorov-Smirnov distance to the standard normal; sorts ``x`` in place."""
    x.sort()
    n = x.size
    gaps = []
    for lo in range(0, n, _KS_CHUNK):  # the CDF's temporaries stay chunk-sized
        cdf = normal_cdf(x[lo:lo + _KS_CHUNK])
        grid = np.arange(lo + 1, lo + cdf.size + 1) / n
        gaps += [np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n))]
    return float(np.max(gaps))


def _histogram(sample, bins):
    """Equal-width bins over +-_HIST_HALF_WIDTH of ``sample``, which must be sorted.

    Bin i counts the values in [edge i, edge i + 1), as ``np.histogram`` does,
    and the edge bins also take the tails. So each count is a difference of
    the positions of the inner edges in the sorted sample, and nothing of the
    sample's size is allocated.
    """
    half = _HIST_HALF_WIDTH
    edges = np.linspace(-half, half, bins + 1)
    cuts = np.searchsorted(sample, edges[1:-1], side="left")
    counts = np.diff(np.concatenate(([0], cuts, [sample.size])))
    width = edges[1] - edges[0]
    density = counts / (sample.size * width)
    return Histogram(edges=tuple(float(e) for e in edges),
                     density=tuple(float(d) for d in density),
                     count=int(sample.size))


def _trial(cfg, dist, k):
    """Draw, forge and score trial ``k``; return its outcome as :func:`run` unpacks it."""
    m, Z = cfg.params.m, cfg.params.Z
    g_bias, g_rows, g_forge, g_innocent = substreams(cfg.seed, TAG_TRIAL, k, 4)
    p = dist.sample(m, g_bias)
    thr = thresholds(p)
    rows = np.empty((cfg.c, m), dtype=np.uint8)
    for row in rows:  # one row's raw words at a time; the same words in the same order
        row[:] = bernoulli(g_rows, thr, m)
    y = _forge(rows, cfg.strategy, g_forge)  # rows are bits; SimConfig checked the strategy
    mask, w, base = _score_pieces(y, p)
    rows, thr = rows[:, mask], thr[mask]  # evidence columns only; F-ordered: see _score_blocks
    coal = _score_blocks(lambda lo, hi: rows[lo:hi], cfg.c, w, base)
    scores = _score_blocks(lambda lo, hi: bernoulli(g_innocent, thr, (hi - lo, w.size)),
                           cfg.innocents_per_trial, w, base)
    return (not bool(np.any(coal > Z)), int(np.count_nonzero(scores > Z)),
            float(coal.sum()), float(coal.max()),
            *(float((scores ** e).sum()) for e in (1, 2, 3, 4)),
            scores / math.sqrt(max(w.size, 1)), scores if cfg.keep_scores else None)


def run(cfg):
    """Execute the campaign and aggregate rates, moments, and histograms."""
    m, Z, c = cfg.params.m, cfg.params.Z, cfg.c
    K, trials = cfg.innocents_per_trial, cfg.trials
    N = trials * K
    if trials * (K + c) * m > _BIT_BUDGET:
        raise CapacityError(
            f"simulation would draw {trials} x {K + c} x {m} bits; "
            f"budget is {_BIT_BUDGET:.2e}")
    score_bytes = N * (16 if cfg.keep_scores else 8)
    if score_bytes > _SCORE_BYTE_BUDGET:
        raise CapacityError(
            f"simulation would keep {N} innocent scores, {score_bytes:.2e} bytes; "
            f"score byte budget is {_SCORE_BYTE_BUDGET:.2e}")
    dist = BiasDistribution(kind=ARCSINE, t=cfg.params.t)
    predicted = moments(cfg.strategy, c, cfg.params.t)
    normalized = np.empty(N)
    raw = np.empty(N) if cfg.keep_scores else None
    outcomes = []
    for k, (*outcome, trial_normalized, trial_raw) in enumerate(
            fan_out(lambda k: _trial(cfg, dist, k), trials, cfg.threads)):
        normalized[k * K:(k + 1) * K] = trial_normalized
        if raw is not None:
            raw[k * K:(k + 1) * K] = trial_raw
        outcomes.append(outcome)
    fn, accused, coal_total, coal_max, *sums = zip(*outcomes)
    s1, s2, s3, s4 = (float(np.sum(s)) for s in sums)

    mean_inn = s1 / N
    m2 = s2 / N - mean_inn ** 2
    m4 = (s4 - 4.0 * mean_inn * s3 + 6.0 * mean_inn ** 2 * s2) / N - 3.0 * mean_inn ** 4
    se_mean = math.sqrt(max(m2, 0.0) / N)
    se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / N)

    coal = np.array(coal_total)
    mean_coal = float(np.mean(coal))
    d = coal - mean_coal
    c2 = float(np.mean(d ** 2))
    c4 = float(np.mean(d ** 4))
    se_coal_mean = math.sqrt(max(c2, 0.0) / trials)
    se_coal_var = math.sqrt(max(c4 - c2 * c2, 0.0) / trials)

    accused_total, fn_total = sum(accused), sum(fn)
    ks_inn = _ks_distance(normalized)
    scale = predicted.sigma_scaled * math.sqrt(m)
    coal_norm = (coal - predicted.mu_scaled * m) / scale
    ks_coal = _ks_distance(coal_norm)
    bundle = HistogramBundle(  # _histogram counts from the samples _ks_distance sorted
        innocent=_histogram(normalized, cfg.histogram_bins),
        coalition=_histogram(coal_norm, cfg.histogram_bins),
        ks_innocent=ks_inn, ks_coalition=ks_coal)

    return SimReport(
        fp_hat=accused_total / N,
        fp_ci=wilson_interval(accused_total, N),
        fn_hat=fn_total / trials,
        fn_ci=wilson_interval(fn_total, trials),
        ci_method=_CI_METHOD,
        innocent_score_moments=(mean_inn, m2),
        innocent_moment_se=(se_mean, se_var),
        coalition_score_moments=(mean_coal, c2),
        coalition_moment_se=(se_coal_mean, se_coal_var),
        histograms=bundle,
        ks_innocent=ks_inn,
        ks_coalition=ks_coal,
        predicted=predicted,
        trials=trials,
        innocents_total=N,
        m=m, Z=float(Z), c=c,
        trial_fn=fn,
        trial_innocents_accused=accused,
        trial_coalition_total=coal_total,
        trial_coalition_max=coal_max,
        innocent_scores=raw,
    )


def score_histograms(cfg):
    """Convenience wrapper returning only the binned scores and KS distances."""
    return run(cfg).histograms
