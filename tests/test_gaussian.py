"""Error-function machinery, score moments, length planning, CLT diagnostics."""

import io
import math

import numpy as np
import pytest

from tardos import (
    CltReport,
    GaussianPlan,
    ParameterError,
    Strategy,
    clt_report,
    conservative_plan,
    erfc,
    erfc_inv,
    format_report,
    log_erfc,
    m_min,
    moments,
    normal_cdf,
    z_interval,
)

TWO_PI_SQ = 2.0 * math.pi ** 2


class TestErfc:
    def test_matches_arbitrary_precision_oracle(self):
        import mpmath as mp

        mp.mp.dps = 30
        xs = list(np.linspace(-6.0, 8.0, 57)) + [
            -1.5 - 1e-9, -1.5 + 1e-9, 1.5 - 1e-9, 1.5 + 1e-9, 0.0]
        for x in xs:
            want = float(mp.erfc(x))
            assert erfc(float(x)) == pytest.approx(want, rel=5e-14), x

    def test_log_tail_matches_oracle(self):
        import mpmath as mp

        mp.mp.dps = 40
        for x in (2.0, 5.0, 10.0, 20.0, 50.0, 200.0):
            want = float(mp.log(mp.erfc(mp.mpf(x))))
            assert log_erfc(x) == pytest.approx(want, rel=1e-12)

    def test_special_values(self):
        assert erfc(0.0) == pytest.approx(1.0, rel=1e-15)
        assert erfc(-50.0) == pytest.approx(2.0, rel=1e-15)
        assert erfc(50.0) < 1e-300 or erfc(50.0) == 0.0

    def test_nan_gives_nan(self):
        # The series used to run on forever at NaN.
        assert math.isnan(erfc(math.nan)) and math.isnan(log_erfc(math.nan))

    def test_infinities_give_the_limits(self):
        # The continued fraction used to end in inf * 0 = NaN at infinity.
        assert (erfc(math.inf), erfc(-math.inf)) == (0.0, 2.0)
        assert log_erfc(math.inf) == -math.inf
        assert log_erfc(-math.inf) == math.log(2.0)
        assert (erfc(1e300), erfc(-1e300), log_erfc(1e300)) == (0.0, 2.0, -math.inf)

    def test_vectorized_path_matches_scalar(self):
        from tardos.gaussian import _erfc_vec

        xs = np.linspace(-8.0, 8.0, 4001)
        vec = _erfc_vec(xs)
        scal = np.array([erfc(float(x)) for x in xs])
        rel = np.abs(vec - scal) / np.maximum(np.abs(scal), 1e-300)
        assert float(rel.max()) < 5e-14

    def test_normal_cdf(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, rel=1e-15)
        assert isinstance(normal_cdf(0.3), float)
        xs = np.linspace(-5, 5, 101)
        out = normal_cdf(xs)
        assert np.all(np.diff(out) > 0)
        assert np.allclose(out + normal_cdf(-xs), 1.0, atol=1e-15)


ERFC_INV_PINS = [
    (2e-15, 5.615379131879607),
    (2e-11, 4.741874448044620),
    (1e-12, 5.042029745639059),
    (1e-6, 3.458910737279500),
    (2e-3, 2.185124219133004),
    (0.02, 1.644976357133187),
    (0.1, 1.163087153676674),
    (0.5, 0.476936276204470),
    (1.0, 0.0),
    (1.5, -0.476936276204470),
    (1.9, -1.163087153676674),
    (1.999, -2.326753765513525),
]


class TestErfcInv:
    @pytest.mark.parametrize("y,x", ERFC_INV_PINS)
    def test_pins(self, y, x):
        assert erfc_inv(y) == pytest.approx(x, rel=1e-12, abs=1e-14)

    def test_roundtrip(self):
        for y in (1e-12, 1e-6, 0.1, 1.0, 1.9):
            assert erfc(erfc_inv(y)) == pytest.approx(y, rel=1e-10)
        for x in (-3.0, -0.5, 0.0, 1.0, 4.0, 6.0):
            assert erfc_inv(erfc(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_documented_two_decimal_value(self):
        # Quoted at two decimals as ~4.76 in older notes; the exact value is
        # 4.7418744..., so keep a loose sanity band around the citation.
        assert abs(erfc_inv(2e-11) - 4.76) < 0.05

    def test_symmetry(self):
        assert erfc_inv(1.7) == pytest.approx(-erfc_inv(0.3), rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 2.0, -0.5, 2.5])
    def test_domain(self, bad):
        with pytest.raises(ParameterError):
            erfc_inv(bad)


# (mu_scaled, sigma_j_scaled^2, sigma_scaled^2) at c = 5, t = 1/1500.
MOMENT_PINS_C5 = {
    "extremal": (0.32803560449743335, 0.7625192514334910, 4.185653520712458),
    "interleave": (0.32869240516041632, 0.5, 2.3919613027898607),
    "coin": (0.32803560449743335, 0.5, 2.3923926421820035),
}


class TestMoments:
    @pytest.mark.parametrize("kind", sorted(MOMENT_PINS_C5))
    def test_pins_c5(self, kind):
        mu, sj2, s2 = MOMENT_PINS_C5[kind]
        s = moments(kind, 5, t=1.0 / 1500.0)
        assert s.mu_j == 0.0
        assert s.mu_scaled == pytest.approx(mu, rel=1e-9)
        assert s.sigma_j_scaled ** 2 == pytest.approx(sj2, rel=1e-9)
        assert s.sigma_scaled ** 2 == pytest.approx(s2, rel=1e-9)

    def test_pins_c10_via_design_size(self):
        s = moments("extremal", 10, c0=10)  # t defaults to 1/(300 c0)
        assert s.t == pytest.approx(1.0 / 3000.0, rel=1e-15)
        assert s.mu_scaled == pytest.approx(0.32480121377501368, rel=1e-9)
        assert s.sigma_j_scaled ** 2 == pytest.approx(0.83149646106838823, rel=1e-9)
        assert s.sigma_scaled ** 2 == pytest.approx(8.9452116476576498, rel=1e-9)

    def test_extremal_c100_deviation_from_asymptote(self):
        # The exact value sits ~3.4e-3 above 1 - 1/sqrt(100 pi): the cutoff
        # correction of order sqrt(t) dominates the 1/c0 term at c0 = 100.
        s = moments("extremal", 100, c0=100)
        sj2 = s.sigma_j_scaled ** 2
        assert sj2 == pytest.approx(0.9469328861843583, rel=1e-9)
        assert abs(sj2 - (1.0 - 1.0 / math.sqrt(100.0 * math.pi))) < 5e-3

    def test_coin_and_extremal_share_mean(self):
        # The interior psi values cancel in the mean for any table that is
        # antisymmetric around 1/2 plus the forced endpoints.
        a = moments("coin", 7, t=1e-3)
        b = moments("extremal", 7, t=1e-3)
        assert a.mu_scaled == pytest.approx(b.mu_scaled, rel=1e-12)

    @pytest.mark.parametrize("c0", [5, 10, 20])
    @pytest.mark.parametrize("kind", ["extremal", "interleave", "coin"])
    def test_mean_above_universal_floor(self, c0, kind):
        s = moments(kind, c0, c0=c0)
        tau = c0 * s.t
        assert s.mu_scaled > (1.0 - 2.0 * tau) / math.pi

    @pytest.mark.parametrize("c0", [5, 10, 20])
    @pytest.mark.parametrize("kind", ["extremal", "interleave", "majority",
                                      "minority", "coin"])
    def test_moment_bounds(self, c0, kind):
        s = moments(kind, c0, c0=c0)
        assert s.sigma_j_scaled < 1.0
        assert s.sigma_scaled < math.sqrt(c0)

    def test_mean_nearly_strategy_free(self):
        c0 = 20
        ext = moments("extremal", c0, c0=c0)
        tau = c0 * ext.t
        for kind in ("interleave", "majority", "minority", "coin"):
            s = moments(kind, c0, c0=c0)
            assert abs(s.mu_scaled - ext.mu_scaled) <= 2.0 * tau * ext.mu_scaled

    def test_strategy_object_and_table_inputs(self):
        via_kind = moments("interleave", 4, t=1e-3)
        via_obj = moments(Strategy.from_kind("interleave", 4), 4, t=1e-3)
        via_tab = moments((0.0, 0.25, 0.5, 0.75, 1.0), 4, t=1e-3)
        assert via_kind == via_obj == via_tab

    def test_input_validation(self):
        with pytest.raises(ParameterError):
            moments("extremal", 5)  # needs t or c0
        with pytest.raises(ParameterError):
            moments("extremal", 8, c0=5)  # coalition above design size
        with pytest.raises(ParameterError):
            moments((0.0, 0.5, 1.0), 5, t=1e-3)  # table length mismatch
        with pytest.raises(ParameterError):
            moments(Strategy.from_kind("coin", 4), 5, t=1e-3)
        # c0 given alongside t only enforces the size bound; t wins.
        assert moments("coin", 5, t=1e-3, c0=10).t == 1e-3

    def test_table_breaking_marking_condition_rejected(self):
        with pytest.raises(ParameterError):
            moments((0.4, 0.5, 0.2), 2, t=1e-2)

    def test_csv_row(self):
        s = moments("coin", 3, t=1e-3)
        header, row = s.csv_row()
        assert header.split(",") == ["c", "t", "mu_j", "sigma_j_scaled",
                                     "mu_scaled", "sigma_scaled"]
        vals = row.split(",")
        assert int(vals[0]) == 3
        assert float(vals[4]) == s.mu_scaled


class TestMMin:
    def test_pin(self):
        s = moments("extremal", 10, c0=10)
        assert m_min(s, 1e-3, 0.5, 10) == pytest.approx(7526.7479858062513, rel=1e-9)

    def test_zero_at_trivial_targets(self):
        s = moments("extremal", 10, c0=10)
        assert m_min(s, 0.5, 0.5, 10) == 0.0

    def test_extremal_needs_longest_code(self):
        for c0 in (5,):
            vals = {kind: m_min(moments(kind, c0, c0=c0), 1e-6, 0.3, c0)
                    for kind in ("extremal", "interleave", "majority",
                                 "minority", "coin")}
            ext = vals.pop("extremal")
            assert all(ext > v for v in vals.values())

    def test_ranking_invariant_under_joint_target_rescale(self):
        c0 = 10
        kinds = ("extremal", "interleave", "majority", "minority", "coin")
        summaries = {k: moments(k, c0, c0=c0) for k in kinds}

        def ranking(eps1, eps2):
            return sorted(kinds, key=lambda k: m_min(summaries[k], eps1, eps2, c0))

        assert ranking(1e-6, 0.3) == ranking(1e-12, 0.09)


@pytest.fixture(scope="module")
def summary():
    return moments("extremal", 10, c0=10)


class TestZInterval:

    def test_degenerate_at_minimum_length(self, summary):
        mm = m_min(summary, 1e-3, 0.25, 10)
        zi = z_interval(summary, mm, 1e-3, 0.25, 10)
        assert abs(zi.high - zi.low) <= 1e-6 * max(1.0, abs(zi.low))

    def test_strictly_open_at_twice_minimum(self, summary):
        mm = m_min(summary, 1e-3, 0.25, 10)
        zi = z_interval(summary, 2.0 * mm, 1e-3, 0.25, 10)
        assert zi.high > zi.low
        assert not zi.empty

    def test_empty_below_minimum(self, summary):
        mm = m_min(summary, 1e-3, 0.25, 10)
        zi = z_interval(summary, 0.5 * mm, 1e-3, 0.25, 10)
        assert zi.empty and zi.low > zi.high

    def test_monotone_and_continuous_in_length(self, summary):
        mm = m_min(summary, 1e-3, 0.25, 10)
        ms = np.linspace(mm, 4.0 * mm, 40)
        lows = [z_interval(summary, m, 1e-3, 0.25, 10).low for m in ms]
        highs = [z_interval(summary, m, 1e-3, 0.25, 10).high for m in ms]
        assert all(b > a for a, b in zip(lows, lows[1:]))
        assert all(b > a for a, b in zip(highs, highs[1:]))
        widths = np.array(highs) - np.array(lows)
        assert all(b > a for a, b in zip(widths, widths[1:]))
        step = np.max(np.abs(np.diff(lows)))
        assert step < 0.02 * max(lows)  # no jumps on a fine grid

    def test_iterable(self, summary):
        zi = z_interval(summary, 20_000, 1e-3, 0.25, 10)
        low, high = zi
        assert (low, high) == (zi.low, zi.high)
        assert zi.midpoint == pytest.approx(0.5 * (low + high), rel=1e-15)


class TestConservativePlan:
    def test_pin(self):
        plan = conservative_plan(6, 1.0 / 300.0, 0.01, 0.25)
        assert plan.m_min == pytest.approx(2437.4126022079693, rel=1e-12)
        assert plan.m == 2438
        assert plan.Z_low < plan.Z < plan.Z_high
        assert plan.Z == pytest.approx(0.5 * (plan.Z_low + plan.Z_high), rel=1e-15)
        assert plan.Z_low == pytest.approx(
            math.sqrt(2.0 * plan.m) * erfc_inv(2.0 * 0.01), rel=1e-12)

    def test_trivial_second_target_formula(self):
        c0, tau, eps1 = 12, 1e-3, 1e-4
        plan = conservative_plan(c0, tau, eps1, 0.5)
        want = (TWO_PI_SQ / (1.0 - 2.0 * tau) ** 2) * c0 ** 2 * erfc_inv(2 * eps1) ** 2
        assert plan.m_min == pytest.approx(want, rel=1e-12)

    def test_zero_length_edge(self):
        plan = conservative_plan(10, 1e-3, 0.5, 0.5)
        assert plan.m_min == 0.0 and plan.m == 0
        assert plan.Z_low == plan.Z_high == plan.Z == 0.0

    def test_classical_benchmark_dominates(self):
        # 2 pi^2 ln(1/(eps1 sqrt(2 pi))) at eps1 = 1e-10, per-c0^2 units.
        coeff = TWO_PI_SQ * math.log(1.0 / (1e-10 * math.sqrt(2.0 * math.pi)))
        assert coeff == pytest.approx(436.37295977064079, rel=1e-12)
        for eps2 in (0.5, 0.1, 0.01):
            plan = conservative_plan(100, 0.0, 1e-10, eps2)
            assert plan.m <= coeff * 100 ** 2

    def test_coupled_targets_inflate_prefactor(self):
        # eps2 = eps1^(c0/4) pushes m/(c0^2 ln(1/eps1)) up toward (9/2) pi^2,
        # always staying below that limit.
        eps1 = 1e-10
        L = math.log(1.0 / eps1)
        prefactors = []
        for c0 in (40, 80, 120):
            plan = conservative_plan(c0, 0.0, eps1, eps1 ** (c0 / 4.0))
            prefactors.append(plan.m_min / (c0 ** 2 * L))
        assert all(b > a for a, b in zip(prefactors, prefactors[1:]))
        uncoupled = conservative_plan(40, 0.0, eps1, 0.5).m_min / (40 ** 2 * L)
        assert prefactors[0] > TWO_PI_SQ > uncoupled
        assert all(p < 4.5 * math.pi ** 2 for p in prefactors)

    def test_interval_contained_in_moment_interval(self):
        # The conservative plan bounds every strategy's actual interval from
        # the inside: its low end is above, its high end below.
        c0 = 10
        t = 1.0 / 3000.0
        plan = conservative_plan(c0, c0 * t, 1e-3, 0.25)
        for kind in ("extremal", "interleave"):
            zi = z_interval(moments(kind, c0, t=t), plan.m, 1e-3, 0.25, c0)
            assert plan.Z_low >= zi.low - 1e-9
            assert plan.Z_high <= zi.high + 1e-9

    def test_csv_row(self):
        plan = conservative_plan(6, 1.0 / 300.0, 0.01, 0.25)
        header, row = plan.csv_row()
        assert header.split(",")[0] == "m_min"
        assert float(row.split(",")[0]) == plan.m_min


class TestCltReport:
    def test_pins(self):
        rep = clt_report(4, eps1=1e-15)
        assert rep.kappa2 == pytest.approx(1.0, abs=1e-12)
        assert rep.kappa4 == pytest.approx(39.732295534737244, rel=1e-9)
        assert rep.n_sigmas == pytest.approx(9.0096114930898839, rel=1e-9)
        assert rep.required_sigmas == pytest.approx(7.9413453261709968, rel=1e-12)

    def test_required_sigmas_definition(self):
        rep = clt_report(10, eps1=1e-6)
        assert rep.required_sigmas == pytest.approx(
            math.sqrt(2.0) * erfc_inv(2e-6), rel=1e-14)

    def test_second_cumulant_near_one_small_cutoff(self):
        rep = clt_report(4, t=1e-6, eps1=1e-10)
        assert abs(rep.kappa2 - 1.0) < 5e-3

    def test_fourth_cumulant_asymptote(self):
        # kappa4 ~ 4/(pi sqrt(t)) for small t.
        rep = clt_report(4, t=1e-6, eps1=1e-10)
        ratio = rep.kappa4 * math.sqrt(1e-6) * math.pi / 4.0 / rep.kappa2 ** 2
        assert abs(ratio - 1.0) < 0.1

    def test_convergence_margin_scaling(self):
        # n_sigmas grows like m^(1/4).
        a = clt_report(10, eps1=1e-10, m=10_000)
        b = clt_report(10, eps1=1e-10, m=160_000)
        assert b.n_sigmas == pytest.approx(2.0 * a.n_sigmas, rel=1e-12)
        assert b.kappa4 == a.kappa4

    def test_large_cutoff_rejected(self):
        with pytest.raises(ParameterError):
            clt_report(4, t=0.2)

    def test_csv_row(self):
        rep = clt_report(4, eps1=1e-10)
        header, row = rep.csv_row()
        assert header.split(",") == ["kappa2", "kappa4", "n_sigmas",
                                     "required_sigmas"]
        assert float(row.split(",")[2]) == rep.n_sigmas


class TestFormatReport:
    def test_contains_all_sections(self):
        s = moments("extremal", 6, c0=6)
        plan = conservative_plan(6, 6.0 * s.t, 0.01, 0.25)
        zi = z_interval(s, plan.m, 0.01, 0.25, 6)
        clt = clt_report(6, eps1=0.01, m=plan.m)
        text = format_report(s, plan, zi, clt)
        assert text.endswith("\n")
        for token in ("coalition mean", "innocent sd", "m_min", "Z low",
                      "Z high", "kappa4", "sigmas"):
            assert token in text
