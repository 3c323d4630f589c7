"""Closed-form constants, length windows, admissibility conditions, search."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tardos import (
    ARCSINE,
    BETA,
    BiasDistribution,
    ClosedFormInputs,
    EmptyWindowError,
    GeneralConditionInputs,
    InfeasibleError,
    ParameterError,
    check_general_condition,
    check_tardos_condition,
    closed_form_params,
    emit_search_table,
    length_window,
    search_min_A,
)
from tardos import bounds
from tardos.bounds import _BLOCK, _search_block

FOUR_PI_SQ = 4.0 * math.pi ** 2


class TestClosedForm:
    def test_regression_pin(self):
        out = closed_form_params(ClosedFormInputs(
            c0=2000, tau=0.02, omega=0.05, eps1=1e-10, eps2=0.5))
        assert out.D == pytest.approx(0.0023514548689092087, rel=1e-12)
        assert out.delta == pytest.approx(0.19707963267948966, rel=1e-12)
        assert out.xi == pytest.approx(3.846750558960758e-05, rel=1e-9)
        assert out.A == pytest.approx(61.24183559840551, rel=1e-12)
        assert out.B == pytest.approx(15.651432598763030, rel=1e-12)
        assert out.m == 5879216218
        assert out.Z == pytest.approx(751268.7647406254, rel=1e-12)

    def test_A_equals_quarter_B_squared(self):
        for c0, tau, om in [(500, 0.03, 0.02), (2000, 0.02, 0.05), (1e4, 0.01, 0.01)]:
            out = closed_form_params(ClosedFormInputs(
                c0=c0, tau=tau, omega=om, eps1=1e-10, eps2=0.5))
            assert out.A == pytest.approx(out.B ** 2 / 4.0, rel=1e-13)

    def test_large_design_size_pin(self):
        out = closed_form_params(ClosedFormInputs(
            c0=1e4, tau=0.01, omega=0.01, eps1=1e-10, eps2=1e-1))
        assert out.A == pytest.approx(43.88733322036184, rel=1e-12)
        assert 39.48 < out.A < 52.0

    def test_limit_bounds_from_below(self):
        # A always exceeds the asymptotic value 4 pi^2 / (1 - 2 tau - pi omega)^2.
        for c0 in (2000, 1e4, 1e6):
            tau, om = 0.01, 0.01
            out = closed_form_params(ClosedFormInputs(
                c0=c0, tau=tau, omega=om, eps1=1e-10, eps2=0.5))
            assert out.A > FOUR_PI_SQ / (1.0 - 2.0 * tau - math.pi * om) ** 2

    def test_xi_vanishes_with_second_target(self):
        # eps2 -> 1 drives the two-sided trade-off term to zero.
        strict = closed_form_params(ClosedFormInputs(
            c0=2000, tau=0.02, omega=0.05, eps1=1e-10, eps2=1.0 - 1e-12))
        loose = closed_form_params(ClosedFormInputs(
            c0=2000, tau=0.02, omega=0.05, eps1=1e-10, eps2=0.5))
        assert strict.xi < 1e-12
        assert strict.xi < loose.xi
        assert strict.A == pytest.approx(FOUR_PI_SQ / (1.0 - strict.delta) ** 2, rel=1e-9)

    def test_design_size_floor_infeasible(self):
        # The validity floor c0 >= 1/(tau (3.4 pi)^2) binds for tiny tau.
        tau = 1e-5
        assert 1.0 / (tau * (3.4 * math.pi) ** 2) > 800
        with pytest.raises(InfeasibleError):
            closed_form_params(ClosedFormInputs(
                c0=800, tau=tau, omega=0.05, eps1=1e-10, eps2=0.5))

    def test_wide_aperture_infeasible(self):
        # omega large enough pushes the decay base D past 1.
        with pytest.raises(InfeasibleError):
            closed_form_params(ClosedFormInputs(
                c0=2000, tau=0.02, omega=1.2, eps1=1e-10, eps2=0.5))

    def test_slack_budget_infeasible(self):
        # 2 tau + pi omega alone already exceeds 1.
        with pytest.raises(InfeasibleError):
            closed_form_params(ClosedFormInputs(
                c0=5000, tau=0.45, omega=0.1, eps1=1e-10, eps2=0.5))

    @pytest.mark.parametrize("kw", [
        dict(c0=0.5), dict(tau=0.0), dict(tau=0.5), dict(omega=0.0),
        dict(eps1=0.0), dict(eps1=1.0), dict(eps2=0.0), dict(eps2=1.0),
    ])
    def test_input_validation(self, kw):
        base = dict(c0=2000, tau=0.02, omega=0.05, eps1=1e-10, eps2=0.5)
        base.update(kw)
        with pytest.raises(ParameterError):
            closed_form_params(ClosedFormInputs(**base))


class TestLengthWindow:
    BASE = dict(nu=1.0, L=math.pi, alpha2=2e-3, c0=50, eps1=1e-10, eps2=1e-2)

    def _psi(self, nu, L, alpha2, c0, eps1, eps2):
        R = math.log(eps2) / math.log(eps1)
        return math.sqrt(1.0 + R / (nu * L * alpha2 * c0 ** 2)) - 1.0

    def test_default_threshold_coefficient(self):
        win = length_window(**self.BASE)
        psi = self._psi(**self.BASE)
        assert win.psi_scalar == pytest.approx(psi, rel=1e-12)
        assert win.B == pytest.approx(4.0 * self.BASE["nu"] * self.BASE["L"] * (1.0 + psi),
                                      rel=1e-12)

    def test_upper_end_equals_soundness_bound(self):
        win = length_window(**self.BASE)
        nu, L = self.BASE["nu"], self.BASE["L"]
        assert win.A_high == pytest.approx(win.B ** 2 / (4.0 * nu), rel=1e-12)
        assert win.A_high == pytest.approx(
            4.0 * nu * L ** 2 * (1.0 + win.psi_scalar) ** 2, rel=1e-9)

    def test_gap_at_default_threshold(self):
        # At the default B the window is an interval, not a point: the gap is
        # exactly nu L^2 psi (2 + 3 psi).
        win = length_window(**self.BASE)
        nu, L = self.BASE["nu"], self.BASE["L"]
        psi = win.psi_scalar
        assert psi > 0
        gap = win.A_high - win.A_low
        assert gap == pytest.approx(nu * L ** 2 * psi * (2.0 + 3.0 * psi), rel=1e-9)
        assert win.A_low < win.A_high

    def test_tangent_threshold_collapses_window(self):
        nu, L = self.BASE["nu"], self.BASE["L"]
        psi = self._psi(**self.BASE)
        b_tangent = 2.0 * nu * L * (2.0 + psi)
        win = length_window(**self.BASE, B=b_tangent)
        assert win.A_high - win.A_low <= 1e-9 * win.A_high
        assert win.A_high == pytest.approx(b_tangent ** 2 / (4.0 * nu), rel=1e-12)

    def test_below_tangent_is_empty(self):
        nu, L = self.BASE["nu"], self.BASE["L"]
        psi = self._psi(**self.BASE)
        with pytest.raises(EmptyWindowError):
            length_window(**self.BASE, B=0.98 * 2.0 * nu * L * (2.0 + psi))

    def test_vanishing_trade_off_limit(self):
        # eps2 -> 1 sends psi -> 0 and the soundness end to 4 nu L^2.
        kw = dict(self.BASE, eps2=1.0 - 1e-13)
        win = length_window(**kw)
        assert win.psi_scalar < 1e-9
        assert win.A_high == pytest.approx(4.0 * math.pi ** 2, rel=1e-6)

    @pytest.mark.parametrize("kw", [
        dict(nu=0.0), dict(L=0.0), dict(alpha2=0.0), dict(c0=0.0),
        dict(eps1=1.0), dict(eps2=0.0),
    ])
    def test_validation(self, kw):
        base = dict(self.BASE)
        base.update(kw)
        with pytest.raises(ParameterError):
            length_window(**base)


class TestAgreementWithClosedForm:
    def test_window_reproduces_closed_form(self):
        # With nu = 1, L = pi/(1-delta), alpha2 = omega/c0 the window's
        # soundness end and default threshold reproduce the closed form.
        inp = ClosedFormInputs(c0=2000, tau=0.02, omega=0.05, eps1=1e-10, eps2=0.5)
        cf = closed_form_params(inp)
        win = length_window(nu=1.0, L=math.pi / (1.0 - cf.delta),
                            alpha2=inp.omega / inp.c0, c0=inp.c0,
                            eps1=inp.eps1, eps2=inp.eps2)
        assert win.psi_scalar == pytest.approx(cf.xi, rel=1e-9)
        assert win.B == pytest.approx(cf.B, rel=1e-9)
        assert win.A_high == pytest.approx(cf.A, rel=1e-9)


class TestNamedCondition:
    def test_slack_pins(self):
        chk = check_tardos_condition(c0=20, t=1.0 / 6000.0, alpha2=1.0 / 400.0, L=4.0)
        assert chk.satisfied
        assert chk.slack == pytest.approx(5.368890683032389e-05, rel=1e-9)

        chk = check_tardos_condition(c0=20, t=1.0 / 6000.0, alpha2=1.0 / 400.0, L=3.3)
        assert not chk.satisfied
        assert chk.slack == pytest.approx(-7.888685074543368e-05, rel=1e-9)

        chk = check_tardos_condition(c0=10, t=1.0 / 3000.0, alpha2=1.0 / 200.0, L=4.0)
        assert chk.satisfied
        assert chk.slack == pytest.approx(1.1858277758362652e-04, rel=1e-9)

    def test_zero_alpha2_not_satisfied(self):
        chk = check_tardos_condition(c0=20, t=1.0 / 6000.0, alpha2=0.0, L=4.0)
        assert not chk.satisfied

    def test_decay_base_infeasible(self):
        # c0 * alpha2 past 1.7/sqrt(e) makes the tail geometric ratio >= 1.
        with pytest.raises(InfeasibleError):
            check_tardos_condition(c0=20, t=1.0 / 6000.0, alpha2=0.06, L=4.0)

    def test_slack_increases_with_length_coefficient(self):
        slacks = [check_tardos_condition(20, 1.0 / 6000.0, 1.0 / 400.0, L).slack
                  for L in (3.3, 3.6, 4.0, 5.0)]
        assert all(b > a for a, b in zip(slacks, slacks[1:]))

    def test_small_alpha2_always_satisfiable(self):
        for c0 in (5, 20, 100):
            chk = check_tardos_condition(c0, 1.0 / (300.0 * c0), 1e-6 / c0, 4.0)
            assert chk.satisfied


class TestGeneralCondition:
    def test_matches_named_condition_on_arcsine(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            c = int(rng.integers(2, 41))
            t = float(rng.uniform(1e-5, min(0.4, 0.5 / (2 * c))))
            cap = min(2.0 * math.sqrt(t), 1.0 / c)
            alpha2 = float(rng.uniform(0.05, 0.95)) * cap
            L = float(rng.uniform(1.0, 12.0))
            named = check_tardos_condition(c, t, alpha2, L)
            general = check_general_condition(GeneralConditionInputs(
                dist=BiasDistribution(ARCSINE, t=t), c=c, alpha2=alpha2, L=L))
            assert general.satisfied == named.satisfied
            assert general.slack == pytest.approx(named.slack, abs=1e-10)

    def test_arcsine_equals_half_half_beta(self):
        t, c, alpha2, L = 1.0 / 6000.0, 20, 1.0 / 400.0, 4.0
        arc = check_general_condition(GeneralConditionInputs(
            dist=BiasDistribution(ARCSINE, t=t), c=c, alpha2=alpha2, L=L))
        bet = check_general_condition(GeneralConditionInputs(
            dist=BiasDistribution(BETA, t=t, a=0.5, b=0.5), c=c, alpha2=alpha2, L=L))
        assert bet.slack == pytest.approx(arc.slack, abs=1e-9)

    def test_asymmetric_beta_runs(self):
        chk = check_general_condition(GeneralConditionInputs(
            dist=BiasDistribution(BETA, t=1e-3, a=1.0, b=2.0),
            c=10, alpha2=1e-3, L=4.0))
        assert math.isfinite(chk.slack)

    def test_tail_ratio_infeasible(self):
        with pytest.raises(InfeasibleError):
            check_general_condition(GeneralConditionInputs(
                dist=BiasDistribution(ARCSINE, t=1e-3),
                c=10, alpha2=0.11, L=4.0))

    def test_beta_exponent_validation(self):
        with pytest.raises(ParameterError):
            check_general_condition(GeneralConditionInputs(
                dist=BiasDistribution(ARCSINE, t=1e-3),
                c=10, alpha2=1e-3, L=4.0, beta=1.0))


def _unpruned_search(c0, eps1, eps2, seed, iterations):
    """Reference search: every block without a cut, reduced in block order."""
    R = bounds._ratio(eps1, eps2)
    best_A, best, counts = math.inf, None, {"no_alpha2": 0, "invalid_draw": 0}
    for start in range(0, iterations, _BLOCK):
        A, tup, cnt = _search_block(c0, R, seed, start // _BLOCK,
                                    min(_BLOCK, iterations - start))
        for k in counts:
            counts[k] += cnt[k]
        if A < best_A:
            best_A, best = A, tup
    return best_A, best, counts


@pytest.fixture(scope="module")
def small_search():
    return search_min_A(c0=10, eps1=1e-10, eps2=10.0 ** -0.2, iterations=20_000, seed=0)


class TestSearch:
    def test_deterministic(self, small_search):
        again = search_min_A(c0=10, eps1=1e-10, eps2=10.0 ** -0.2,
                             iterations=20_000, seed=0)
        assert again == small_search

    def test_thread_count_does_not_change_result(self, small_search):
        for threads in (2, 8):
            other = search_min_A(c0=10, eps1=1e-10, eps2=10.0 ** -0.2,
                                 iterations=20_000, seed=0, threads=threads)
            assert other == small_search

    def test_more_iterations_never_worse(self, small_search):
        # Iteration blocks are seeded by block index, so a longer run extends
        # the shorter one and its minimum can only improve.
        longer = search_min_A(c0=10, eps1=1e-10, eps2=10.0 ** -0.2,
                              iterations=60_000, seed=0)
        assert longer.A <= small_search.A

    def test_result_satisfies_constraints(self, small_search):
        res = small_search
        assert 0.0 < res.t < 0.5 / res.c0
        assert 0.0 < res.alpha1 <= 1.7 * math.sqrt(res.t / (1.0 - res.t)) + 1e-12
        assert 0.0 < res.alpha2 <= 2.0 * math.sqrt(res.t) + 1e-12
        assert check_tardos_condition(res.c0, res.t, res.alpha2, res.L).satisfied
        assert res.B == pytest.approx(2.0 * math.sqrt(res.A), rel=1e-12)
        # Soundness/completeness identity the optimizer maintains.
        q = 1.0 / (res.c0 * res.alpha1)
        b_left = res.A / res.L - res.R / (res.alpha2 * res.c0 ** 2)
        b_sound = q + res.A * res.c0 * res.alpha1
        assert b_left == pytest.approx(b_sound, abs=1e-6 * max(1.0, abs(b_sound)))

    def test_published_cell_budgets(self):
        res = search_min_A(c0=10, eps1=1e-10, eps2=10.0 ** -0.2,
                           iterations=200_000, seed=0)
        assert res.A <= 41.8
        res = search_min_A(c0=80, eps1=1e-10, eps2=1e-1,
                           iterations=200_000, seed=0)
        assert res.A <= 42.6

    @pytest.mark.parametrize("c0, R, seed, iterations", [
        (10, 0.02, 0, 20_000),
        (20, 0.06, 3, 4097),
        (40, 0.10, 5, 4096),
        (80, 0.06, 1, 9_000),
        (3, 0.5, 2, 1_000),
        (1, 0.3, 4, 8_192),
    ])
    def test_block_cut_matches_unpruned_search(self, c0, R, seed, iterations):
        eps2 = 1e-10 ** R
        A, tup, _ = _unpruned_search(c0, 1e-10, eps2, seed, iterations)
        res = search_min_A(c0=c0, eps1=1e-10, eps2=eps2,
                           iterations=iterations, seed=seed)
        assert res.A == A
        assert (res.t, res.L, res.alpha1, res.alpha2) == tup

    @pytest.mark.parametrize("c0, R", [(10, 0.02), (80, 0.10), (3, 0.5)])
    def test_block_exact_just_below_cut(self, c0, R):
        # The tightest cut that keeps the block's best must not change it.
        for block in range(4):
            A, tup, _ = _search_block(c0, R, 11, block, _BLOCK)
            cut = float(np.nextafter(A, math.inf))
            assert _search_block(c0, R, 11, block, _BLOCK, cut)[:2] == (A, tup)

    def test_infeasible_counts_match_unpruned_search(self, monkeypatch):
        # No alpha2 satisfies the condition, so every block is infeasible and
        # the cut stays at inf.
        monkeypatch.setattr(bounds, "_slack_rows",
                            lambda c0, W, t, alpha2, L: np.full(np.broadcast(
                                W, t, alpha2, L).shape, -np.inf))
        _, tup, counts = _unpruned_search(20, 1e-10, 1e-10 ** 0.06, 7, 10_000)
        assert tup is None
        with pytest.raises(InfeasibleError) as exc:
            search_min_A(c0=20, eps1=1e-10, eps2=1e-10 ** 0.06,
                         iterations=10_000, seed=7)
        assert exc.value.counts == counts
        assert counts["no_alpha2"] + counts["invalid_draw"] == 10_000

    @pytest.mark.parametrize("c0, R, seed", [(1, 0.3, 7), (1, 1.0, 42), (80, 0.01, 7)])
    def test_verifier_judges_cap_winner_like_public_check(self, c0, R, seed):
        # These winners sit on or a few ulp below the search's alpha2 cap
        # (W - 1/L)/c0, where the completeness slack is of rounding size. The
        # public check runs the search's own kernel, so it accepts them and
        # the search returns instead of rejecting its own winner.
        res = search_min_A(c0=c0, eps1=1e-10, eps2=1e-10 ** R,
                           iterations=13_000, seed=seed)
        W = float(bounds._search_W(np.array([res.t]), c0)[0])
        assert res.alpha2 == pytest.approx((W - 1.0 / res.L) / c0, rel=1e-9)
        assert check_tardos_condition(c0, res.t, res.alpha2, res.L).satisfied

    @pytest.mark.parametrize("seed", [44, 75, 79, 83, 149])
    def test_benchmark_table_returns_at_cap_winner_seeds(self, seed):
        # The 12-cell table of the analysis benchmark hit a cap winner at
        # these seeds while the public check had a slack formula of its own.
        tab = emit_search_table([10, 20, 40, 80], [0.02, 0.06, 0.10],
                                iterations=50_000, seed=seed)
        assert len(tab.results) == 12

    @settings(max_examples=200, deadline=None)
    @given(c0=st.integers(1, 80), R=st.floats(0.01, 1.0),
           iterations=st.integers(1, 8192), seed=st.integers(0, 2 ** 64 - 1))
    def test_every_winner_passes_public_check(self, c0, R, iterations, seed):
        # Bounded: c0 <= 80, R in [0.01, 1], iterations <= 8192.
        try:
            res = search_min_A(c0=c0, eps1=1e-10, eps2=1e-10 ** R,
                               iterations=iterations, seed=seed)
        except InfeasibleError:
            return
        assert check_tardos_condition(c0, res.t, res.alpha2, res.L).satisfied

    def test_validation(self):
        with pytest.raises(ParameterError):
            search_min_A(c0=10, eps1=1e-10, eps2=0.5, iterations=0, seed=0)
        with pytest.raises(ParameterError):
            search_min_A(c0=10, eps1=2.0, eps2=0.5, iterations=10, seed=0)
        with pytest.raises(ParameterError):
            search_min_A(c0=0, eps1=1e-10, eps2=0.5, iterations=10, seed=0)


PUBLISHED_A = {
    0.02: (41.31, 41.26, 41.16, 40.99, 40.85, 40.66, 40.54),
    0.04: (42.80, 42.47, 42.21, 41.85, 41.59, 41.27, 41.06),
    0.06: (43.95, 43.41, 43.03, 42.50, 42.17, 41.73, 41.46),
    0.08: (44.93, 44.22, 43.72, 43.07, 42.65, 42.13, 41.80),
    0.10: (45.80, 44.93, 44.34, 43.58, 43.09, 42.48, 42.11),
}
GRID_C0 = (10, 15, 20, 30, 40, 60, 80)
GRID_R = (0.02, 0.04, 0.06, 0.08, 0.10)


@pytest.fixture(scope="module")
def search_table():
    return emit_search_table(GRID_C0, GRID_R, iterations=100_000, seed=0, threads=4)


class TestSearchTable:
    def _cell(self, tab, i, j):
        return tab.results[i * len(GRID_C0) + j]

    def test_cells_near_published_values(self, search_table):
        for i, R in enumerate(GRID_R):
            for j in range(len(GRID_C0)):
                A = self._cell(search_table, i, j).A
                assert 39.4 <= A <= PUBLISHED_A[R][j] + 1.5

    def test_monotone_trends(self, search_table):
        # A decreases with the design size and grows with the target ratio,
        # up to search noise of 0.5.
        for i in range(len(GRID_R)):
            row = [self._cell(search_table, i, j).A for j in range(len(GRID_C0))]
            assert all(b <= a + 0.5 for a, b in zip(row, row[1:]))
        for j in range(len(GRID_C0)):
            col = [self._cell(search_table, i, j).A for i in range(len(GRID_R))]
            assert all(b >= a - 0.5 for a, b in zip(col, col[1:]))

    def test_cell_matches_direct_search(self):
        tab = emit_search_table([10, 15], [0.02], iterations=4000, seed=7)
        direct = search_min_A(c0=15, eps1=1e-10, eps2=10.0 ** (-10 * 0.02),
                              iterations=4000, seed=8)  # seed + flat index 1
        assert tab.results[1] == direct

    def test_cell_seed_wraps_modulo_2_64(self):
        tab = emit_search_table([10, 15], [0.02], iterations=2000, seed=2 ** 64 - 1)
        direct = search_min_A(c0=15, eps1=1e-10, eps2=bounds.eps2_for_ratio(1e-10, 0.02),
                              iterations=2000, seed=0)
        assert tab.results[1] == direct

    @pytest.mark.parametrize("kw", [dict(eps1=0.0), dict(eps1=-1.0), dict(eps1=1.0),
                                    dict(seed=2 ** 64), dict(seed=-1)])
    def test_bad_eps1_or_seed_rejected(self, kw):
        with pytest.raises(ParameterError):
            emit_search_table([4], [0.1], iterations=10, **{"seed": 0, **kw})

    @pytest.mark.parametrize("c0_list, R_list, param", [
        (5, [1.0], "c0"), ([], [1.0], "c0"), ([4], 1.0, "ratio R"), ([4], (), "ratio R")])
    def test_list_that_is_not_a_nonempty_list_rejected(self, c0_list, R_list, param):
        # A bare number used to end in TypeError: 'int' object is not iterable.
        with pytest.raises(ParameterError, match=f"the {param} values") as err:
            emit_search_table(c0_list, R_list, iterations=10, seed=0)
        assert err.value.param == param

    def test_csv_format(self):
        tab = emit_search_table([10], [0.02], iterations=2000, seed=0)
        buf = io.StringIO()
        tab.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "R,c0,A,B,t_ratio"
        fields = lines[1].split(",")
        assert float(fields[0]) == pytest.approx(0.02, rel=1e-12)
        assert int(fields[1]) == 10
        assert float(fields[2]) == tab.results[0].A
        assert float(fields[4]) == pytest.approx(
            tab.results[0].t * 300.0 * 10, rel=1e-12)
