"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each test exercises a shipped guarantee end to end, prints a single summary
line to the real stdout (visible even under capture), and then asserts. The
randomized-search checks use fixed seeds, so every run is reproducible.
"""

import math
import time
from io import StringIO

import numpy as np
import pytest

from tardos import (
    ARCSINE,
    BiasDistribution,
    ClosedFormInputs,
    GeneralConditionInputs,
    KINDS,
    SchemeParams,
    SimConfig,
    check_general_condition,
    check_tardos_condition,
    clt_report,
    closed_form_params,
    conservative_plan,
    default_cutoff,
    gen_matrix,
    length_window,
    m_min,
    moments,
    nu,
    run,
    sample_bias,
    save_codebook,
    search_min_A,
)


def _report(capfd, num, ok, detail):
    with capfd.disabled():
        print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} | {detail}",
              flush=True)
    return ok


def test_criterion_01_search_reference_cells(capfd):
    cells = ((0.02, 10, 41.31), (0.10, 80, 42.11), (0.06, 30, 42.50))
    ok, parts = True, []
    for ratio, c0, target in cells:
        start = time.perf_counter()
        res = search_min_A(c0, 1e-10, 10.0 ** (-10.0 * ratio), 200_000, seed=0)
        elapsed = time.perf_counter() - start
        good = (target - 0.2 <= res.A <= target + 0.7
                and abs(res.B - 2.0 * math.sqrt(res.A)) <= 0.05
                and elapsed < 60.0)
        ok = ok and good
        parts.append(f"(R={ratio},c0={c0}) A={res.A:.4f} target={target} "
                     f"{elapsed:.1f}s")
    assert _report(capfd, 1, ok, "; ".join(parts)), parts


def test_criterion_02_coupled_targets_sweep(capfd):
    start = time.perf_counter()
    best, best_c0 = math.inf, None
    for c0 in (10, 15, 20, 30, 40, 60, 80):
        eps2 = math.exp((c0 / 4.0) * math.log(1e-10))
        res = search_min_A(c0, 1e-10, eps2, 30_000, seed=0)
        if res.A < best:
            best, best_c0 = res.A, c0
    elapsed = time.perf_counter() - start
    ok = 85.0 <= best <= 95.0 and elapsed < 600.0
    assert _report(capfd, 2, ok, f"min A={best:.2f} at c0={best_c0}, "
                          f"{elapsed:.1f}s"), best


def test_criterion_03_closed_form_asymptote(capfd):
    start = time.perf_counter()
    steps = (0.01, 0.005, 0.002, 0.001)
    a_vals, asymptotes = [], []
    for s in steps:
        out = closed_form_params(ClosedFormInputs(
            c0=10_000, tau=s, omega=s, eps1=1e-10, eps2=0.1))
        a_vals.append(out.A)
        asymptotes.append(4.0 * math.pi ** 2 / (1.0 - 2.0 * s - math.pi * s) ** 2)
    elapsed = time.perf_counter() - start
    ok = (abs(a_vals[0] - 43.88733322036184) < 1e-9
          and all(39.48 < a < 52.0 for a in a_vals)
          and all(b < a for a, b in zip(a_vals, a_vals[1:]))
          and all(a > lim for a, lim in zip(a_vals, asymptotes))
          and a_vals[-1] - asymptotes[-1] < 1.0
          and elapsed < 1.0)
    assert _report(capfd, 3, ok, f"A path {[round(a, 3) for a in a_vals]} vs limits "
                          f"{[round(b, 3) for b in asymptotes]}, "
                          f"{elapsed * 1e3:.0f}ms"), a_vals


def test_criterion_04_second_moment_identity(capfd):
    gaps = [abs(nu(BiasDistribution(ARCSINE, t=t)) - 1.0)
            for t in (1.0 / 300.0, 1.0 / 3000.0, 1.0 / 30000.0)]
    ok = all(g <= 1e-9 for g in gaps)
    assert _report(capfd, 4, ok, f"max |nu - 1| = {max(gaps):.2e}"), gaps


def test_criterion_05_moment_agreement(capfd):
    ok, worst = True, 0.0
    for c0 in (5, 10, 20):
        t = default_cutoff(c0)
        for kind in ("extremal", "interleave", "coin"):
            params = SchemeParams(n=10, m=10_000, c0=c0, eps1=1e-3,
                                  eps2=0.3, t=t, Z=30.0)
            cfg = SimConfig(params=params, strategy=kind, c=c0,
                            trials=10_000, innocents_per_trial=10,
                            seed=1000 + c0, threads=4)
            rep = run(cfg)
            pred = rep.predicted
            m = params.m
            zs = (
                abs(rep.innocent_score_moments[1]
                    - pred.sigma_j_scaled ** 2 * m) / rep.innocent_moment_se[1],
                abs(rep.coalition_score_moments[0]
                    - pred.mu_scaled * m) / rep.coalition_moment_se[0],
                abs(rep.coalition_score_moments[1]
                    - pred.sigma_scaled ** 2 * m) / rep.coalition_moment_se[1],
            )
            worst = max(worst, *zs)
            ok = ok and all(z <= 3.0 for z in zs)
    assert _report(capfd, 5, ok, f"9 strategy/size cells, worst deviation "
                          f"{worst:.2f} standard errors (limit 3)"), worst


def test_criterion_06_extremal_dominance(capfd):
    ok, parts = True, []
    for c0 in (5, 10, 20):
        t = default_cutoff(c0)
        lengths = {kind: m_min(moments(kind, c0, t=t), 1e-6, 0.3, c0)
                   for kind in KINDS}
        top = max(lengths, key=lengths.get)
        strict = all(lengths["extremal"] > v for k, v in lengths.items()
                     if k != "extremal")
        ok = ok and top == "extremal" and strict
        parts.append(f"c0={c0} max={top} ({lengths['extremal']:.0f})")
    assert _report(capfd, 6, ok, "; ".join(parts)), parts


def test_criterion_07_desk_scale_error_rates(capfd):
    start = time.perf_counter()
    c0 = 6
    t = default_cutoff(c0)
    plan = conservative_plan(c0, c0 * t, 0.01, 0.25)
    params = SchemeParams(n=1000, m=plan.m, c0=c0, eps1=0.01, eps2=0.25,
                          t=t, Z=plan.Z)
    cfg = SimConfig(params=params, strategy="extremal", c=c0, trials=10_000,
                    innocents_per_trial=1000, seed=7, threads=4)
    rep = run(cfg)
    elapsed = time.perf_counter() - start
    ok = rep.fp_hat <= 0.02 and rep.fn_hat <= 0.5 and elapsed < 300.0
    assert _report(capfd, 7, ok, f"m={plan.m} Z={plan.Z:.1f} fp={rep.fp_hat:.4f} "
                          f"(<=0.02) fn={rep.fn_hat:.3f} (<=0.5) "
                          f"{elapsed:.0f}s"), (rep.fp_hat, rep.fn_hat)


def test_criterion_08_clt_radius_scaling(capfd):
    ok, parts = True, []
    for c0 in (4, 10, 50):
        rep = clt_report(c0, t=default_cutoff(c0), eps1=1e-15)
        ratio = rep.n_sigmas / (5.2 * c0 ** 0.375)
        ok = ok and 0.95 <= ratio <= 1.05
        parts.append(f"c0={c0} ratio={ratio:.4f}")
    assert _report(capfd, 8, ok, "; ".join(parts)), parts


def test_criterion_09_innocent_score_gaussianity(capfd):
    params = SchemeParams(n=1000, m=10_000, c0=20, eps1=1e-3, eps2=0.3,
                          t=default_cutoff(20), Z=60.0)
    cfg = SimConfig(params=params, strategy="extremal", c=20, trials=100,
                    innocents_per_trial=1000, seed=3, threads=4)
    rep = run(cfg)
    ok = rep.ks_innocent < 0.01
    assert _report(capfd, 9, ok, f"KS distance {rep.ks_innocent:.5f} on 1e5 "
                          f"normalized innocent scores (< 0.01)"), rep.ks_innocent


def test_criterion_10_consistency_suite(capfd):
    rng = np.random.default_rng(2024)
    agree, worst_abs = True, 0.0
    for _ in range(1000):
        c = int(rng.integers(2, 41))
        t = float(rng.uniform(1e-5, min(0.4, 0.5 / (2 * c))))
        alpha2 = float(rng.uniform(0.05, 0.95)) * min(2.0 * math.sqrt(t), 1.0 / c)
        big_l = float(rng.uniform(1.0, 12.0))
        named = check_tardos_condition(c, t, alpha2, big_l)
        general = check_general_condition(GeneralConditionInputs(
            dist=BiasDistribution(ARCSINE, t=t), c=c, alpha2=alpha2, L=big_l))
        agree = agree and general.satisfied == named.satisfied
        worst_abs = max(worst_abs, abs(general.slack - named.slack))

    worst_rel = 0.0
    for c0 in (300, 2000, 10_000):
        for tau in (0.005, 0.02):
            for omega in (0.005, 0.03):
                for ratio in (0.02, 0.1):
                    eps2 = 10.0 ** (-10.0 * ratio)
                    cf = closed_form_params(ClosedFormInputs(
                        c0=c0, tau=tau, omega=omega, eps1=1e-10, eps2=eps2))
                    win = length_window(nu=1.0,
                                        L=math.pi / (1.0 - cf.delta),
                                        alpha2=omega / c0, c0=c0,
                                        eps1=1e-10, eps2=eps2)
                    worst_rel = max(
                        worst_rel,
                        abs(win.psi_scalar - cf.xi) / cf.xi,
                        abs(win.B - cf.B) / cf.B,
                        abs(win.A_high - cf.A) / cf.A)
    ok = agree and worst_abs <= 1e-10 and worst_rel <= 1e-9
    assert _report(capfd, 10, ok, f"1000-point condition grid max |slack diff| = "
                           f"{worst_abs:.2e}; 24-point window/closed-form "
                           f"grid max rel diff = {worst_rel:.2e}"), \
        (agree, worst_abs, worst_rel)


def test_criterion_11_determinism(capfd, tmp_path):
    # Codebook bytes: two runs and 1 vs 8 worker threads.
    blobs = []
    for k, threads in enumerate((1, 1, 8)):
        bias = sample_bias(3000, t=1e-3, seed=5)
        cb = gen_matrix(40, bias, seed=5, threads=threads)
        path = tmp_path / f"cb{k}.bin"
        save_codebook(cb, path)
        blobs.append(path.read_bytes())
    codebook_ok = blobs[0] == blobs[1] == blobs[2]

    # Randomized search: repeated runs, and the deprecated threads=8 (it
    # runs serially and only warns).
    with pytest.warns(DeprecationWarning, match="threads"):
        runs = [search_min_A(10, 1e-10, 1e-2, 20_000, seed=4, threads=th)
                for th in (None, None, 8)]
    search_ok = runs[0] == runs[1] == runs[2]

    # Simulation: full JSONL transcript, repeated and 1 vs 8 threads.
    params = SchemeParams(n=30, m=800, c0=4, eps1=1e-2, eps2=0.3,
                          t=default_cutoff(4), Z=25.0)
    texts = []
    for threads in (1, 1, 8):
        cfg = SimConfig(params=params, strategy="extremal", c=4, trials=50,
                        innocents_per_trial=30, seed=6, threads=threads)
        out = StringIO()
        run(cfg).to_jsonl(out)
        texts.append(out.getvalue())
    sim_ok = texts[0] == texts[1] == texts[2]

    ok = codebook_ok and search_ok and sim_ok
    assert _report(capfd, 11, ok, f"codebook bytes {'==' if codebook_ok else '!='}, "
                           f"search result {'==' if search_ok else '!='}, "
                           f"simulation jsonl "
                           f"{'==' if sim_ok else '!='} across reruns and "
                           f"1 vs 8 threads"), (codebook_ok, search_ok, sim_ok)
