"""Monte Carlo harness: rates, moments, histograms, determinism."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from tardos import (
    CapacityError,
    ParameterError,
    SchemeParams,
    SimConfig,
    Strategy,
    conservative_plan,
    default_cutoff,
    moments,
    run,
    score_histograms,
    wilson_interval,
)
from tardos import simulate
from tardos.gaussian import normal_cdf
from tardos.model import ARCSINE, BiasDistribution
from tardos.simulate import _KS_CHUNK, _ks_distance


def make_params(c0=6, m=1200, Z=50.0, t=None, n=1000):
    return SchemeParams(n=n, m=m, c0=c0, eps1=1e-2, eps2=0.25,
                        t=(1.0 / (300.0 * c0) if t is None else t), Z=Z)


class TestWilsonInterval:
    def test_hand_computed_value(self):
        z = 2.0
        lo, hi = wilson_interval(8, 40, z=z)
        phat, n = 0.2, 40
        denom = 1.0 + z * z / n
        center = (phat + z * z / (2 * n)) / denom
        half = z * math.sqrt(phat * 0.8 / n + z * z / (4 * n * n)) / denom
        assert lo == pytest.approx(center - half, rel=1e-12)
        assert hi == pytest.approx(center + half, rel=1e-12)

    def test_edge_rates(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.1
        lo, hi = wilson_interval(100, 100)
        assert 0.9 < lo < 1.0 and hi == 1.0

    def test_narrows_with_samples(self):
        w1 = np.diff(wilson_interval(10, 100))[0]
        w2 = np.diff(wilson_interval(1000, 10000))[0]
        assert w2 < w1

    def test_validation(self):
        with pytest.raises(ParameterError):
            wilson_interval(1, 0)
        with pytest.raises(ParameterError):
            wilson_interval(5, 4)


class TestConfigValidation:
    def test_string_strategy_coerced(self):
        cfg = SimConfig(params=make_params(), strategy="extremal", c=6,
                        trials=2, innocents_per_trial=2, seed=0)
        assert isinstance(cfg.strategy, Strategy)
        assert cfg.strategy.kind == "extremal"

    def test_table_strategy_coerced(self):
        cfg = SimConfig(params=make_params(), strategy=(0.0, 0.5, 1.0), c=2,
                        trials=2, innocents_per_trial=2, seed=0)
        assert cfg.strategy.psi == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("kw", [
        dict(c=0), dict(c=7),  # above design size 6
        dict(trials=0), dict(innocents_per_trial=0), dict(histogram_bins=0),
    ])
    def test_bad_config(self, kw):
        base = dict(params=make_params(), strategy="coin", c=6, trials=2,
                    innocents_per_trial=2, seed=0)
        base.update(kw)
        base["strategy"] = Strategy.from_kind("coin", base["c"]) if 0 < base["c"] <= 8 \
            else "coin"
        with pytest.raises(ParameterError):
            SimConfig(**base)

    def test_strategy_size_mismatch(self):
        with pytest.raises(ParameterError):
            SimConfig(params=make_params(), strategy=Strategy.from_kind("coin", 4),
                      c=6, trials=2, innocents_per_trial=2, seed=0)

    def test_threshold_required(self):
        with pytest.raises(ParameterError):
            SimConfig(params=make_params(Z=None), strategy="coin", c=6,
                      trials=2, innocents_per_trial=2, seed=0)

    def test_budget_guard(self):
        cfg = SimConfig(params=make_params(m=10 ** 6, n=10), strategy="coin",
                        c=6, trials=10 ** 6, innocents_per_trial=1000, seed=0)
        with pytest.raises(CapacityError):
            run(cfg)


class TestDegenerateThresholds:
    def test_threshold_below_all_scores(self):
        cfg = SimConfig(params=make_params(Z=float("-inf")), strategy="extremal",
                        c=6, trials=20, innocents_per_trial=10, seed=1)
        rep = run(cfg)
        assert rep.fn_hat == 0.0
        assert rep.fp_hat == 1.0

    def test_threshold_above_all_scores(self):
        cfg = SimConfig(params=make_params(Z=float("inf")), strategy="extremal",
                        c=6, trials=20, innocents_per_trial=10, seed=1)
        rep = run(cfg)
        assert rep.fn_hat == 1.0
        assert rep.fp_hat == 0.0


@pytest.fixture(scope="module")
def plan_report():
    plan = conservative_plan(6, 6.0 / (300.0 * 6.0), 0.01, 0.25)
    params = SchemeParams(n=10_000, m=plan.m, c0=6, eps1=0.01, eps2=0.25,
                          t=1.0 / (300.0 * 6.0), Z=plan.Z)
    cfg = SimConfig(params=params, strategy="extremal", c=6, trials=400,
                    innocents_per_trial=50, seed=11, threads=2)
    return cfg, run(cfg)


class TestAggregates:
    def test_rates_within_intervals(self, plan_report):
        _, rep = plan_report
        assert 0.0 <= rep.fp_ci[0] <= rep.fp_hat <= rep.fp_ci[1] <= 1.0
        assert 0.0 <= rep.fn_ci[0] <= rep.fn_hat <= rep.fn_ci[1] <= 1.0
        assert rep.ci_method == "wilson-99"

    def test_trial_arrays_consistent(self, plan_report):
        cfg, rep = plan_report
        assert len(rep.trial_fn) == cfg.trials
        assert len(rep.trial_coalition_total) == cfg.trials
        assert rep.innocents_total == cfg.trials * cfg.innocents_per_trial
        assert rep.fn_hat == pytest.approx(np.mean(rep.trial_fn), rel=1e-12)
        assert rep.fp_hat == pytest.approx(
            sum(rep.trial_innocents_accused) / rep.innocents_total, rel=1e-12)

    def test_innocent_moments_match_prediction(self, plan_report):
        cfg, rep = plan_report
        m = cfg.params.m
        pred = rep.predicted
        mean, var = rep.innocent_score_moments
        se_mean, se_var = rep.innocent_moment_se
        assert abs(mean - 0.0) < 3.0 * se_mean
        assert abs(var - pred.sigma_j_scaled ** 2 * m) < 3.0 * se_var

    def test_coalition_moments_match_prediction(self, plan_report):
        cfg, rep = plan_report
        m = cfg.params.m
        pred = rep.predicted
        mean, var = rep.coalition_score_moments
        se_mean, se_var = rep.coalition_moment_se
        assert abs(mean - pred.mu_scaled * m) < 3.0 * se_mean
        assert abs(var - pred.sigma_scaled ** 2 * m) < 3.0 * se_var

    def test_predicted_matches_moments_call(self, plan_report):
        cfg, rep = plan_report
        assert rep.predicted == moments(cfg.strategy, cfg.c, cfg.params.t)

    def test_plan_rates_hit_targets_scaled_down(self, plan_report):
        # Scaled-down version of the full acceptance campaign.
        _, rep = plan_report
        assert rep.fp_hat <= 0.02
        assert rep.fn_hat <= 0.5


class TestDeterminism:
    def _cfg(self, threads):
        return SimConfig(params=make_params(m=800, Z=30.0), strategy="interleave",
                         c=6, trials=60, innocents_per_trial=25, seed=5,
                         threads=threads)

    def test_identical_reruns(self):
        a, b = run(self._cfg(1)), run(self._cfg(1))
        assert a == b

    def test_thread_count_invariance(self):
        a, b = run(self._cfg(1)), run(self._cfg(4))
        assert a == b

    def test_scores_do_not_depend_on_blas_threads(self, cli_at_blas_threads):
        # Unblocked, each trial's 997 x ~1219 innocent product was split over
        # two OpenBLAS threads at a row that is not a multiple of 4.
        argv = ["--seed", "3", "simulate", "--c0", "6", "--eps1", "0.01", "--eps2", "0.25",
                "--innocents", "997", "--trials", "6", "--out-jsonl", "-"]
        one = cli_at_blas_threads(argv, 1)
        assert "innocent moments" in one
        assert cli_at_blas_threads(argv, 2) == one

    def test_lone_innocent_does_not_depend_on_blas_threads(self, cli_at_blas_threads):
        # One innocent a trial is a block of one row, which as one product of
        # 40,000 columns went to BLAS ddot and was split over two threads.
        argv = ["--seed", "3", "--threads", "1", "simulate", "--c0", "1", "--eps1", "0.01",
                "--eps2", "0.25", "--length", "40000", "--threshold", "5", "--trials", "3",
                "--innocents", "1", "--out-jsonl", "-"]
        one = cli_at_blas_threads(argv, 1)
        assert "innocent moments" in one
        assert cli_at_blas_threads(argv, 2) == one

    def test_coalition_scores_pin(self):
        # The coalition rows reach OpenBLAS F-ordered (simulate._trial); a
        # C-ordered copy moves the last digits of these sums.
        rep = run(SimConfig(params=make_params(m=800, Z=30.0), strategy="interleave", c=6,
                            trials=3, innocents_per_trial=4, seed=5))
        assert [repr(v) for v in rep.trial_coalition_total] == [
            "198.7583802978097", "194.85495090497307", "244.7748295886247"]
        assert [repr(v) for v in rep.trial_coalition_max] == [
            "67.37285751979311", "49.72047838651156", "70.16103085098416"]

    def test_seed_changes_outcome(self):
        base = self._cfg(1)
        other = SimConfig(params=base.params, strategy="interleave", c=6,
                          trials=60, innocents_per_trial=25, seed=6)
        assert run(base).trial_coalition_total != run(other).trial_coalition_total


class TestFpIndependenceFromCoalitionSize:
    def test_interleave_rates_agree(self):
        # Under the memberwise-copy strategy the forged bit is Bernoulli(p)
        # regardless of coalition size, so the per-user FP rate at a fixed
        # (m, Z) is the same law for c and 2c.
        m, Z, t = 1500, 45.0, 1.0 / 2400.0
        reports = []
        for c0, c in ((4, 4), (8, 8)):
            params = SchemeParams(n=1000, m=m, c0=c0, eps1=1e-2, eps2=0.25,
                                  t=t, Z=Z)
            cfg = SimConfig(params=params, strategy="interleave", c=c,
                            trials=300, innocents_per_trial=120, seed=21,
                            threads=2)
            reports.append(run(cfg))
        a, b = reports
        assert a.fp_hat > 0.005 and b.fp_hat > 0.005  # test has power
        assert a.fp_ci[0] <= b.fp_ci[1] and b.fp_ci[0] <= a.fp_ci[1]


@pytest.fixture(scope="module")
def report():
    cfg = SimConfig(params=make_params(c0=10, m=2000, Z=60.0, t=1.0 / 3000.0),
                    strategy="extremal", c=10, trials=150,
                    innocents_per_trial=150, seed=31, threads=2,
                    histogram_bins=64)
    return cfg, run(cfg)


class TestHistogramsAndKs:

    def test_density_integrates_to_one(self, report):
        _, rep = report
        for hist in (rep.histograms.innocent, rep.histograms.coalition):
            widths = np.diff(np.asarray(hist.edges))
            total = float(np.sum(widths * np.asarray(hist.density)))
            assert total == pytest.approx(1.0, abs=1e-12)
            assert len(hist.edges) == 65

    def test_innocent_scores_near_standard_normal(self, report):
        _, rep = report
        assert rep.ks_innocent < 0.05
        assert rep.histograms.ks_innocent == rep.ks_innocent

    def test_coalition_normalization_centers_totals(self, report):
        cfg, rep = report
        m = cfg.params.m
        pred = rep.predicted
        norm = (np.asarray(rep.trial_coalition_total) - pred.mu_scaled * m) / (
            pred.sigma_scaled * math.sqrt(m))
        assert abs(float(norm.mean())) < 3.0 / math.sqrt(cfg.trials)

    def test_histogram_csv(self, report):
        _, rep = report
        buf = io.StringIO()
        rep.histograms.innocent.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "bin_lo,bin_hi,density"
        assert len(lines) == 65
        lo, hi, dens = lines[1].split(",")
        assert float(hi) > float(lo)
        assert float(dens) == rep.histograms.innocent.density[0]

    def test_tails_land_in_edge_bins(self):
        sample = np.array([-np.inf, -100.0, -6.0, 0.0, 6.0, 100.0, np.inf])
        hist = simulate._histogram(sample, 4)
        assert hist.edges == (-6.0, -3.0, 0.0, 3.0, 6.0)
        counts = np.asarray(hist.density) * sample.size * 3.0
        assert counts.tolist() == [3.0, 0.0, 1.0, 3.0]

    def test_score_histograms_wrapper(self):
        cfg = SimConfig(params=make_params(m=500, Z=20.0), strategy="coin",
                        c=6, trials=30, innocents_per_trial=20, seed=41)
        assert score_histograms(cfg) == run(cfg).histograms


class TestJsonl:
    def test_format_and_aggregate(self):
        cfg = SimConfig(params=make_params(m=600, Z=25.0), strategy="majority",
                        c=6, trials=25, innocents_per_trial=15, seed=51)
        rep = run(cfg)
        buf = io.StringIO()
        rep.to_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == cfg.trials + 1
        first = json.loads(lines[0])
        assert set(first) == {"trial", "fn", "innocents_accused",
                              "coalition_total", "coalition_max"}
        assert first["trial"] == 0
        agg = json.loads(lines[-1])["aggregate"]
        assert agg["fp_hat"] == rep.fp_hat
        assert agg["trials"] == cfg.trials
        # keys are sorted for byte-stable output
        assert lines[0] == json.dumps(first, sort_keys=True)


class TestKeepScores:
    def test_raw_scores_exposed(self):
        cfg = SimConfig(params=make_params(m=400, Z=20.0), strategy="coin",
                        c=6, trials=10, innocents_per_trial=7, seed=61,
                        keep_scores=True)
        rep = run(cfg)
        assert rep.innocent_scores.shape == (70,)
        base = SimConfig(params=make_params(m=400, Z=20.0), strategy="coin",
                         c=6, trials=10, innocents_per_trial=7, seed=61)
        assert run(base).innocent_scores is None


class TestKsDistance:
    @staticmethod
    def _one_pass(sample):
        # The whole-array expression that the chunked distance replaced.
        x = np.sort(np.asarray(sample, dtype=np.float64))
        n = x.size
        cdf = normal_cdf(x)
        grid = np.arange(1, n + 1) / n
        return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n))))

    @pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (3, 7)])
    def test_chunks_match_one_pass_bit_for_bit(self, chunks, extra):
        # _erfc_vec stops its series on the largest term of what it is given,
        # so a chunk of small |x| runs fewer terms than the whole array; the
        # terms left out must stay below half an ulp of every running total.
        n = chunks * _KS_CHUNK + extra
        g = np.random.default_rng(n)
        x = np.clip(g.standard_normal(n) * 10.0 ** g.uniform(-8.0, 1.0, n), -40.0, 40.0)
        edge = 1.5 * math.sqrt(2.0)  # normal_cdf's x where _erfc_vec changes branch
        x[:6] = [-40.0, 40.0, -edge, edge, np.nextafter(-edge, 0.0), np.nextafter(edge, 0.0)]
        expected = self._one_pass(x)
        whole = normal_cdf(np.sort(x))
        assert _ks_distance(x) == expected
        assert np.all(x[:-1] <= x[1:])  # sorted in place
        pieces = [normal_cdf(x[lo:lo + _KS_CHUNK]) for lo in range(0, n, _KS_CHUNK)]
        assert np.array_equal(np.concatenate(pieces), whole)


class TestMemory:
    def test_innocent_score_costs_at_most_16_bytes(self):
        # A trial hands back its normalized innocent scores (8 bytes each) and
        # no raw copy; the KS distance sorts the joined array in place and
        # takes the CDF a chunk at a time, and the histogram counts the tails
        # without a clipped copy. Both sizes exceed one KS chunk; a trial
        # draws and scores its 4000 x ~100 innocent bits a block of at most
        # 2^16 bits at a time, so what grows with the trials is the scores.
        params = make_params(m=200, Z=20.0)

        def peak(trials):
            cfg = SimConfig(params=params, strategy="extremal", c=6, trials=trials,
                            innocents_per_trial=4000, seed=71)
            tracemalloc.start()
            try:
                run(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # warm caches
        assert 40 * 4000 > _KS_CHUNK
        small, large = peak(40), peak(80)
        assert (large - small) / (40 * 4000) <= 16.0

    def test_trial_working_set_stays_under_2_mb(self):
        # Criterion 07's shape. Drawn as one 1000 x ~1219 matrix with its
        # float64 copy, a trial's innocent bits peaked at 17.5 MB.
        c0, t = 6, default_cutoff(6)
        plan = conservative_plan(c0, c0 * t, 0.01, 0.25)
        params = SchemeParams(n=1000, m=plan.m, c0=c0, eps1=0.01, eps2=0.25, t=t, Z=plan.Z)
        cfg = SimConfig(params=params, strategy="extremal", c=c0, trials=2,
                        innocents_per_trial=1000, seed=7)
        dist = BiasDistribution(kind=ARCSINE, t=t)
        simulate._trial(cfg, dist, 0)  # warm caches
        tracemalloc.start()
        try:
            simulate._trial(cfg, dist, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.m == 2438
        assert peak < 2 * 2 ** 20
