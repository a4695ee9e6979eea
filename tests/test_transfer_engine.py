"""Transfer mechanics, mutual-benefit analysis, and the alliance optimum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blotto_alliance import transfer_engine as te
from blotto_alliance.adversary_response import (
    Case,
    GameParams,
    _payoffs_any_f,
    _payoffs_f,
    mirror,
    normalize,
)
from blotto_alliance.cli import DEFAULT_VERIFY_BETAS, FIXED_SEED_GAMES
from blotto_alliance.transfer_engine import (
    Transfer,
    alliance_beta_threshold,
    alliance_optimal,
    alliance_payoff,
    analyze,
    apply_transfer,
    delta_payoffs,
    in_g_dagger,
    mb_beta_threshold,
    mb_exists,
    mb_interval,
    payoffs_at,
)
from support import CASE1_GAME, CASE3_GAME, CASE4_GAME, G1, log_uniform, oriented_params, random_oriented_game

# exact optima for G1 derived from the case-4 crossing of the donation path:
# the proportional point (x2 - r*x1) / (1 + r*beta) with r = phi2/phi1
G1_TAU_DAGGER_BETA1 = -9.0 / 22.0
G1_TAU_DAGGER_BETA05 = -0.5625


class TestApplyTransfer:
    def test_identity(self):
        out = apply_transfer(G1, Transfer(tau=0.0, beta=0.7))
        assert (out.x1_bar, out.x2_bar) == (0.5, 1.5)

    def test_donation_from_player_2(self):
        out = apply_transfer(G1, Transfer(tau=-0.5, beta=0.5))
        assert (out.x1_bar, out.x2_bar) == (0.75, 1.0)

    def test_donation_from_player_1(self):
        out = apply_transfer(G1, Transfer(tau=0.2, beta=0.5))
        assert out.x1_bar == pytest.approx(0.3, abs=1e-15)
        assert out.x2_bar == pytest.approx(1.6, abs=1e-15)

    @pytest.mark.parametrize("tau", [-1.5, -2.0, 0.5, 1.0])
    def test_domain_errors(self, tau):
        with pytest.raises(ValueError, match="tau"):
            apply_transfer(G1, Transfer(tau=tau, beta=1.0))

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5])
    def test_beta_domain(self, beta):
        with pytest.raises(ValueError, match="beta"):
            Transfer(tau=0.0, beta=beta)

    def test_dissipation(self, rng):
        for _ in range(300):
            g = random_oriented_game(rng)
            beta = float(rng.uniform(0.05, 0.999))
            tau = float(rng.uniform(-g.x2 * 0.99, g.x1 * 0.99))
            out = apply_transfer(g, Transfer(tau=tau, beta=beta))
            total = out.x1_bar + out.x2_bar
            if tau == 0.0:
                assert total == pytest.approx(g.x1 + g.x2, abs=1e-12)
            else:
                assert total < g.x1 + g.x2

    def test_lossless_preserves_total(self, rng):
        for _ in range(100):
            g = random_oriented_game(rng)
            tau = float(rng.uniform(-g.x2 * 0.99, g.x1 * 0.99))
            out = apply_transfer(g, Transfer(tau=tau, beta=1.0))
            assert out.x1_bar + out.x2_bar == pytest.approx(g.x1 + g.x2, rel=1e-12)


class TestPayoffsAt:
    def test_nominal_case_2_values(self):
        p = payoffs_at(G1, Transfer(tau=0.0, beta=1.0))
        assert p.u1 == pytest.approx(0.31622776601683794, abs=1e-9)
        assert p.u2 == pytest.approx(1.2 * (2.0 / 3.0) + 0.31622776601683794, abs=1e-9)

    def test_case_1_player_2_untouched(self):
        p = payoffs_at(CASE1_GAME, Transfer(tau=0.0, beta=1.0))
        assert p.u2 == 1.2

    def test_conservation_through_transfers(self, rng):
        for _ in range(500):
            g = random_oriented_game(rng)
            beta = float(rng.uniform(0.05, 1.0))
            tau = float(rng.uniform(-g.x2 * 0.999, g.x1 * 0.999))
            p = payoffs_at(g, Transfer(tau=tau, beta=beta))
            total = g.phi1 + g.phi2
            assert abs(p.u1 + p.u2 + p.u_adversary - total) <= 1e-12 * total
            assert -1e-12 <= p.u1 <= g.phi1 + 1e-12
            assert -1e-12 <= p.u2 <= g.phi2 + 1e-12

    def test_adversary_budget_scaling(self):
        # scaling every budget (players and adversary) leaves payoffs unchanged
        scaled = GameParams(1.0, 1.2, 1.0, 3.0, adversary_budget=2.0)
        p_scaled = payoffs_at(scaled, Transfer(tau=-0.4, beta=0.5))
        p_unit = payoffs_at(G1, Transfer(tau=-0.2, beta=0.5))
        assert p_scaled.u1 == pytest.approx(p_unit.u1, rel=1e-12)
        assert p_scaled.u2 == pytest.approx(p_unit.u2, rel=1e-12)


class TestDeltaPayoffs:
    def test_zero_transfer_is_identity(self):
        assert delta_payoffs(G1, Transfer(tau=0.0, beta=0.3)) == (0.0, 0.0)

    def test_lossless_interior_point_mutually_improves(self):
        du1, du2 = delta_payoffs(G1, Transfer(tau=-0.2, beta=1.0))
        assert du1 > 0 and du2 > 0

    def test_half_efficiency_never_mutually_improves(self):
        for i in range(1, 2000):
            tau = -1.5 + 2.0 * i / 2000
            du1, du2 = delta_payoffs(G1, Transfer(tau=tau, beta=0.5))
            assert not (du1 > 0 and du2 > 0)


class TestMutualBenefitThreshold:
    def test_reference_game(self):
        assert mb_beta_threshold(G1) == pytest.approx(0.50994, abs=1e-3)
        assert mb_beta_threshold(G1) == pytest.approx(0.5099407093782344, abs=1e-12)

    def test_case_3_game_takes_second_branch(self):
        expected = min(math.sqrt(0.1 / 0.25) - 0.1, math.sqrt(0.1) + 0.1)
        assert expected == pytest.approx(math.sqrt(0.1) + 0.1, abs=1e-15)
        assert mb_beta_threshold(CASE3_GAME) == pytest.approx(0.41622776601683794, abs=1e-12)

    def test_unit_game_threshold_is_one(self):
        assert mb_beta_threshold(GameParams(1.0, 1.0, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
        assert not mb_exists(GameParams(1.0, 1.0, 1.0, 1.0), 1.0)


class TestMutualBenefitExists:
    def test_reference_game_verdicts(self):
        assert mb_exists(G1, 0.6)
        assert not mb_exists(G1, 0.5)

    def test_case_1_never(self):
        for beta in (0.05, 0.3, 0.7, 1.0):
            assert not mb_exists(CASE1_GAME, beta)

    def test_case_4_never(self):
        for beta in (0.05, 0.5, 1.0):
            assert not mb_exists(CASE4_GAME, beta)

    def test_monotone_in_beta(self, rng):
        for _ in range(300):
            g = random_oriented_game(rng)
            verdicts = [mb_exists(g, b) for b in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
            for earlier, later in zip(verdicts, verdicts[1:]):
                assert later or not earlier

    def test_nesting_in_alliance_region(self, rng):
        for _ in range(300):
            g = random_oriented_game(rng)
            beta = float(rng.uniform(0.05, 1.0))
            if mb_exists(g, beta):
                assert not in_g_dagger(g, beta)


class TestSharedRules:
    """The rules the scalar and array paths share give equal bits on either input."""

    def test_mutual_benefit_over_an_array_of_betas(self, rng):
        for _ in range(300):
            game = [float(v) for v in oriented_params(rng)]
            # a beta equal to the threshold is not above it
            betas = np.append(rng.uniform(0.0, 1.0, size=20), [1.0, te._mb_threshold_f(*game)])
            case, threshold, exists = te._mutual_benefit_f(*game, betas)
            scalar = [te._mutual_benefit_f(*game, b) for b in betas.tolist()]
            assert all(type(verdict) is bool for _, _, verdict in scalar)
            assert {(c, t) for c, t, _ in scalar} == {(case, threshold)}
            np.testing.assert_array_equal(exists, [verdict for _, _, verdict in scalar])

    def test_tau_bounds_over_arrays(self, rng):
        x1, x2 = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=(2, 4000)))
        x1[:3], x2[:3] = [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)], 1.0
        lo, hi = te._tau_bounds(x1, x2, np.maximum)
        scalar = [te._tau_bounds(a, b) for a, b in zip(x1.tolist(), x2.tolist())]
        assert_bits_equal(lo, [v for v, _ in scalar])
        assert_bits_equal(hi, [v for _, v in scalar])


class TestMutualBenefitInterval:
    def test_empty_below_threshold(self):
        assert mb_interval(G1, 0.5) is None

    def test_lossless_interval(self):
        interval = mb_interval(G1, 1.0)
        assert interval is not None
        lo, hi = interval
        assert hi == 0.0
        assert lo < -0.2 < hi
        # the closure of the improving set reaches the proportional crossing
        assert lo == pytest.approx(G1_TAU_DAGGER_BETA1, abs=1e-6)

    def test_interior_points_all_improve(self, rng):
        interval = mb_interval(G1, 0.8)
        assert interval is not None
        lo, hi = interval
        for i in range(1, 101):
            tau = lo + (hi - lo) * i / 102
            du1, du2 = delta_payoffs(G1, Transfer(tau=tau, beta=0.8))
            assert du1 > 0 and du2 > 0

    def test_swapped_interval_starts_at_positive_zero(self):
        lo, hi = mb_interval(mirror(G1), 0.9)
        assert (lo, math.copysign(1.0, lo)) == (0.0, 1.0)
        assert hi > 0.0

    def test_tiny_budgets_against_a_large_adversary(self):
        # tiny budgets against a large adversary: both players gain up to tau 9.5e-6
        g = GameParams(
            4.030808477775121e-06, 0.003449764547913423, 0.0030062043560922687,
            0.002798391361262098, 2.016679377759872,
        )
        report = analyze(g, 1.0)
        lo, hi = report.mb_interval
        assert lo <= 0.0 and hi >= 8e-6
        assert not report.mb_interval_anomaly
        for tau in (4e-6, 8e-6):
            du1, du2 = delta_payoffs(g, Transfer(tau=tau, beta=1.0))
            assert du1 > 0 and du2 > 0

    @pytest.mark.parametrize("game", [G1, CASE3_GAME], ids=["G1", "CASE3_GAME"])
    @pytest.mark.parametrize("excess", [1e-3, 1e-6])
    def test_just_above_the_threshold(self, game, excess):
        report = analyze(game, mb_beta_threshold(game) * (1.0 + excess))
        assert report.mb_interval is not None
        assert report.mb_interval[1] == 0.0
        assert not report.mb_interval_anomaly

    @settings(max_examples=100, deadline=None)
    @given(log_uniform, log_uniform, log_uniform, log_uniform, log_uniform)
    def test_agrees_with_a_dense_scan(self, phi1, phi2, x1, x2, xa):
        gn, _ = normalize(GameParams(phi1, phi2, x1, x2, xa))
        tol = 1e-9 * (gn.x1 + gn.x2)
        for beta in DEFAULT_VERIFY_BETAS:
            report = analyze(gn, beta)
            if report.mb_interval is None:
                continue
            assert not report.mb_interval_anomaly
            lo, hi = report.mb_interval
            taus, gains = scalar_mb_scan(gn.phi1, gn.phi2, gn.x1, gn.x2, beta)
            for tau, gain in zip(taus, gains):
                if gain > 0.0:
                    assert lo - tol <= tau <= hi + tol
                if lo + tol < tau < hi - tol:
                    assert gain >= -1e-12 * (gn.phi1 + gn.phi2)

    def test_interval_negative_in_oriented_frame(self, rng):
        found = 0
        for _ in range(200):
            g = random_oriented_game(rng)
            beta = float(rng.uniform(0.05, 1.0))
            interval = mb_interval(g, beta)
            if interval is None:
                continue
            found += 1
            lo, hi = interval
            assert lo < hi <= 0.0
        assert found > 5


class TestAlliance:
    def test_alliance_payoff_case_4_constant(self):
        assert alliance_payoff(CASE4_GAME, Transfer(tau=0.0, beta=1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_in_g_dagger_reference_thresholds(self):
        assert in_g_dagger(G1, 0.08)
        assert not in_g_dagger(G1, 0.1)

    def test_case_4_always_in_g_dagger(self):
        for beta in (0.01, 0.4, 1.0):
            assert in_g_dagger(CASE4_GAME, beta)

    def test_case_1_never_in_g_dagger(self):
        for beta in (0.01, 0.4, 1.0):
            assert not in_g_dagger(CASE1_GAME, beta)

    def test_alliance_beta_threshold_formula(self):
        expected = (math.sqrt(1.2 * 0.5 / 1.5) - 0.5) / 1.5
        assert alliance_beta_threshold(G1) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.088304, abs=1e-3)

    @pytest.mark.parametrize("game", [G1, CASE3_GAME], ids=["case-2", "case-3"])
    def test_in_g_dagger_decided_by_the_threshold(self, game):
        threshold = alliance_beta_threshold(game)
        for beta in (math.nextafter(threshold, 0.0), threshold, math.nextafter(threshold, 1.0)):
            assert in_g_dagger(game, beta) == (beta <= threshold), beta

    def test_alliance_optimal_inside_g_dagger(self):
        assert alliance_optimal(G1, 0.08) == (0.0, 0.0)
        for beta in (0.05, 0.5, 1.0):
            assert alliance_optimal(CASE4_GAME, beta) == (0.0, 0.0)

    def test_alliance_optimal_reference_values(self):
        tau, gain = alliance_optimal(G1, 1.0)
        assert tau == pytest.approx(G1_TAU_DAGGER_BETA1, abs=1e-8)
        assert gain == pytest.approx(1.65 - 1.4324555320336759, abs=1e-8)
        tau, gain = alliance_optimal(G1, 0.5)
        assert tau == pytest.approx(G1_TAU_DAGGER_BETA05, abs=1e-8)
        assert gain == pytest.approx(1.56 - 1.4324555320336759, abs=1e-8)

    def test_matches_dense_argmax(self, rng):
        # the march must land on the argmax of the closed-form payoff curve
        for _ in range(60):
            g = random_oriented_game(rng)
            beta = float(rng.uniform(0.05, 1.0))
            tau_dag, gain = alliance_optimal(g, beta)
            base = alliance_payoff(g, Transfer(tau=0.0, beta=beta))
            closed_best = base + gain
            lo = -g.x2 * (1 - 1e-9)
            hi = g.x1 * (1 - 1e-9)
            for i in range(2001):
                tau = lo + (hi - lo) * i / 2000
                value = alliance_payoff(g, Transfer(tau=tau, beta=beta))
                assert value <= closed_best + 1e-7 * (g.phi1 + g.phi2) + (hi - lo) / 2000

    def test_gain_nonnegative_and_zero_iff_in_g_dagger(self, rng):
        for _ in range(300):
            g = random_oriented_game(rng)
            beta = float(rng.uniform(0.05, 1.0))
            tau_dag, gain = alliance_optimal(g, beta)
            assert gain >= 0.0
            if in_g_dagger(g, beta):
                assert tau_dag == 0.0 and gain == 0.0
            else:
                assert tau_dag != 0.0

    def test_g_dagger_degenerate_at_full_efficiency(self, rng):
        for _ in range(300):
            g = random_oriented_game(rng)
            if abs(g.phi2 * g.x1 - g.phi1 * g.x2) < 1e-6 * max(g.phi2 * g.x1, g.phi1 * g.x2):
                continue
            assert not in_g_dagger(g, 1.0)


class TestSwapCoherence:
    def test_mirrored_analysis(self, rng):
        for _ in range(100):
            g = random_oriented_game(rng)
            beta = float(rng.uniform(0.05, 1.0))
            a = analyze(g, beta)
            b = analyze(mirror(g), beta)
            assert a.mb_exists == b.mb_exists
            assert a.in_g_dagger == b.in_g_dagger
            assert a.mb_beta_threshold == pytest.approx(b.mb_beta_threshold, rel=1e-12)
            assert a.alliance_tau == pytest.approx(-b.alliance_tau, abs=1e-8)
            assert a.alliance_payoff_gain == pytest.approx(b.alliance_payoff_gain, rel=1e-6, abs=1e-9)
            if a.mb_interval is not None:
                assert b.mb_interval is not None
                assert a.mb_interval[0] == pytest.approx(-b.mb_interval[1], abs=1e-6)
                assert a.mb_interval[1] == pytest.approx(-b.mb_interval[0], abs=1e-6)

    def test_mirrored_payoffs(self, rng):
        for _ in range(100):
            g = random_oriented_game(rng)
            beta = float(rng.uniform(0.05, 1.0))
            tau = float(rng.uniform(-g.x2 * 0.99, g.x1 * 0.99))
            p = payoffs_at(g, Transfer(tau=tau, beta=beta))
            q = payoffs_at(mirror(g), Transfer(tau=-tau, beta=beta))
            assert p.u1 == pytest.approx(q.u2, rel=1e-12, abs=1e-12)
            assert p.u2 == pytest.approx(q.u1, rel=1e-12, abs=1e-12)


class TestAnalyze:
    def test_reference_game_report(self):
        report = analyze(G1, 1.0)
        assert report.mb_exists
        assert report.case_at_zero is Case.CASE_2
        assert not report.orientation.swapped
        assert not report.in_g_dagger
        assert report.mb_interval is not None
        assert not report.mb_interval_anomaly

    def test_mb_implies_nonzero_alliance_tau(self, rng):
        for _ in range(200):
            g = random_oriented_game(rng)
            beta = float(rng.uniform(0.05, 1.0))
            report = analyze(g, beta)
            if report.mb_exists:
                assert report.alliance_tau != 0.0
            assert report.in_g_dagger == (report.alliance_tau == 0.0)

    # Two rounding faults that break properties bench/run.py's queries check asserts.
    @pytest.mark.xfail(
        strict=True,
        reason="1e-9 above the threshold both gains lie below payoff rounding, so the interval is lost",
    )
    def test_interval_reported_whenever_mutual_benefit_exists(self):
        g = GameParams(
            1.0204545067180197, 0.13502026309007734, 0.07497686127844347, 0.6502550852448137
        )
        report = analyze(g, 0.26459740921105734)
        assert report.mb_exists == (report.mb_interval is not None)

    @pytest.mark.xfail(
        strict=True,
        reason="on the case-1/2 boundary within rounding, player 2's gain reads exactly 0.0",
    )
    def test_both_gain_at_the_interval_middle(self):
        g = GameParams(math.exp(-4), 0.9999999999999998, 1.0, math.exp(-4))
        report = analyze(g, 0.1)
        lo, hi = report.mb_interval
        du1, du2 = delta_payoffs(g, Transfer(tau=0.5 * (lo + hi), beta=0.1))
        assert du1 > 0.0 and du2 > 0.0


def scalar_margin(g, beta):
    """mutual_margin one point at a time."""
    gn, _ = normalize(g)
    u1_base, u2_base = te._induced_payoffs(gn, 0.0, beta)
    lo, hi = te._tau_bounds(gn.x1, gn.x2)
    best = -math.inf
    for i in range(te._DOMAIN_POINTS):
        u1, u2 = te._induced_payoffs(gn, lo + (hi - lo) * i / (te._DOMAIN_POINTS - 1), beta)
        best = max(best, min(u1 - u1_base, u2 - u2_base))
    return best


def scalar_mb_scan(phi1, phi2, x1, x2, beta):
    """min(du1, du2) on a dense donation grid, refined geometrically toward 0.

    The reference the closed-form interval is checked against, one point at a time.
    """
    lo_edge = te._tau_bounds(x1, x2)[0]
    taus = {lo_edge * (1.0 - i / 2048) for i in range(2048)} | {-x2 * 2.0**-k for k in range(12, 46)}
    taus = sorted(taus)
    u1_base, u2_base = _payoffs_f(phi1, phi2, x1, x2)
    gains = []
    for tau in taus:
        u1, u2 = _payoffs_any_f(phi1, phi2, *te._induced_budgets(x1, x2, tau, beta))
        gains.append(min(u1 - u1_base, u2 - u2_base))
    return taus, gains


class TestScansMatchScalar:
    """The array scans equal their scalar statement bit for bit."""

    @pytest.mark.parametrize("label", sorted(FIXED_SEED_GAMES))
    def test_mutual_margin(self, label):
        g = FIXED_SEED_GAMES[label]
        for beta in DEFAULT_VERIFY_BETAS:
            np.testing.assert_array_equal(te.mutual_margin(g, beta), scalar_margin(g, beta))


class TestMarchExtremes:
    """The alliance march on extreme budget ratios, where it once raised or stopped short."""

    def test_tiny_budgets_reach_an_optimum(self):
        g = GameParams(430.68339991383306, 2.595334120745248e-05, 1.2505347403904855e-06, 1.1153075458945495e-05)
        _, gain = alliance_optimal(g, 0.8522946148256045)
        assert gain > 0.0

    def test_extreme_ratio_is_not_beaten_by_a_larger_transfer(self):
        g = GameParams(
            8415.22266849264, 0.00014135579166912234, 40013.94656382554,
            3.0081503146076037e-05, 0.00035837601208222057,
        )
        tau, _ = alliance_optimal(g, 0.8)
        assert alliance_payoff(g, Transfer(tau, 0.8)) >= alliance_payoff(g, Transfer(0.001, 0.8))

    @settings(max_examples=100, deadline=None)
    @given(log_uniform, log_uniform, log_uniform, log_uniform, log_uniform)
    def test_no_grid_transfer_beats_the_alliance_optimum(self, phi1, phi2, x1, x2, xa):
        g = GameParams(phi1, phi2, x1, x2, xa)
        lo, hi = te._tau_bounds(x1, x2)
        taus = lo + (hi - lo) * np.arange(2001) / 2000
        for beta in DEFAULT_VERIFY_BETAS:
            tau = analyze(g, beta).alliance_tau
            best = alliance_payoff(g, Transfer(tau, beta))
            u1, u2 = te._induced_payoffs_vec(g, taus, beta)
            assert np.max(u1 + u2) - best <= 1e-9 * (phi1 + phi2)


def oriented(phi1, phi2, x1, x2):
    """The same parameters as an oriented unit-adversary game."""
    return (phi2, phi1, x2, x1) if phi2 * x1 > phi1 * x2 else (phi1, phi2, x1, x2)


def assert_bits_equal(actual, expected):
    """Equal element for element, the sign of zero included."""
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def assert_march_matches_scalar(phi1, phi2, x1, x2, betas):
    """The array march over broadcast arrays against alliance_optimal one game at a time."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (phi1, phi2, x1, x2, betas)))
    expected = []
    # the scalar path on Python floats, as the CLI and analyze call it
    for *args, beta in zip(*(a.ravel().tolist() for a in arrays)):
        try:
            expected.append(alliance_optimal(GameParams(*args), beta))
        except (te.InternalInconsistencyError, ValueError) as scalar:
            # the array march stops at the same first failing game
            with pytest.raises(type(scalar)) as array:
                te._alliance_optimal_vec(*arrays)
            assert getattr(array.value, "diagnostics", None) == getattr(scalar, "diagnostics", None)
            assert str(array.value) == str(scalar)
            return
    tau, gain = te._alliance_optimal_vec(*arrays)
    assert_bits_equal(tau.ravel(), [t for t, _ in expected])
    assert_bits_equal(gain.ravel(), [g for _, g in expected])


unit_betas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


# numpy's floating-point warnings are RuntimeWarnings; "error" alone would also
# trip a DeprecationWarning that hypothesis's pytest plugin raises on import
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestArrayMarch:
    """_alliance_optimal_vec equals the scalar alliance_optimal bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(log_uniform, log_uniform, log_uniform, log_uniform, st.lists(unit_betas, min_size=1, max_size=6))
    def test_matches_scalar_over_twelve_decades(self, phi1, phi2, x1, x2, betas):
        assert_march_matches_scalar(*oriented(phi1, phi2, x1, x2), np.array(betas))

    def test_one_call_over_mixed_games(self, rng):
        params = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=(3000, 4)))
        games = np.array([oriented(*p) for p in params.tolist()])
        betas = rng.uniform(0.0, 1.0, size=3000)
        betas[::5] = 1.0
        assert_march_matches_scalar(*games.T, betas)

    def test_proportional_ray_and_frame_edge(self):
        # phi2*x1 == phi1*x2 exactly, on both sides of x1 + x2 = 1, and one
        # ulp either side of the ray (in frame on one side only)
        x1 = np.array([0.05, 0.25, 0.5, 1.0, 3.0])
        for phi1, phi2, x2 in [(1.0, 1.0, x1), (2.0, 1.0, x1 / 2.0), (1.0, 4.0, 4.0 * x1)]:
            for off in (x2, np.nextafter(x2, np.inf)):
                assert_march_matches_scalar(phi1, phi2, x1[:, None], off[:, None], [0.05, 0.3, 0.9, 1.0])
        # the in-frame cells of a raster next to its frame edge, the diagonal
        x = 0.05 + (3.0 - 0.05) * np.arange(60) / 59
        x1_grid, x2_grid = np.meshgrid(x, x)
        edge = (x1_grid <= x2_grid) & (x2_grid - x1_grid <= 2 * (3.0 - 0.05) / 59)
        assert_march_matches_scalar(1.0, 1.0, x1_grid[edge], x2_grid[edge], np.array([[0.3], [0.9]]))

    def test_smallest_beta(self):
        # beta*beta and r*beta underflow, so one seed quadratic turns linear
        assert_march_matches_scalar(1.0, 0.3, 0.2, 0.9, [5e-324, 1e-300, 1e-160])

    def test_beta_outside_unit_interval(self):
        for beta in (0.0, 1.5):
            with pytest.raises(ValueError, match="beta"):
                te._alliance_optimal_vec(1.0, 1.2, 0.5, 1.5, [0.5, beta])

    def test_losing_transfer_raises_as_the_scalar_march(self, monkeypatch):
        # donating almost all of player 2's budget loses at beta 0.1
        monkeypatch.setattr(te, "_march_alliance", lambda *args: 1.4)
        monkeypatch.setattr(te, "_march_alliance_vec", lambda phi1, phi2, x1, x2, beta: np.full_like(x1, 1.4))
        with pytest.raises(te.InternalInconsistencyError) as scalar:
            alliance_optimal(G1, 0.1)
        with pytest.raises(te.InternalInconsistencyError) as array:
            te._alliance_optimal_vec(G1.phi1, G1.phi2, G1.x1, G1.x2, [0.05, 0.1])
        assert array.value.diagnostics == scalar.value.diagnostics
        assert str(array.value) == str(scalar.value)

    def test_mapped_to_the_callers_frame(self):
        # swapped and xa map tau back as alliance_optimal does, zeros included
        g = GameParams(1.2, 1.0, 4.5, 1.5, adversary_budget=3.0)
        gn, orientation = normalize(g)
        betas = np.array([0.01, 0.05, 0.3, 1.0])
        tau, gain = te._alliance_optimal_vec(
            gn.phi1, gn.phi2, gn.x1, gn.x2, betas, orientation.swapped, g.adversary_budget
        )
        expected = [alliance_optimal(g, b) for b in betas.tolist()]
        assert orientation.swapped and expected[0] == (0.0, 0.0)
        assert_bits_equal(tau, [t for t, _ in expected])
        assert_bits_equal(gain, [v for _, v in expected])


class TestThresholdRange:
    """The mutual-benefit threshold rejects games whose phi1*x2**3 leaves the float range."""

    @pytest.mark.parametrize(
        "params, how",
        [((1e300, 1e-300, 1e300, 1e-300), "underflows to 0"), ((1.0, 1.0, 1e200, 1e200), "overflows")],
    )
    def test_scalar_and_array_raise_the_same_error(self, params, how):
        with pytest.raises(ValueError, match=how) as scalar:
            te._mb_threshold_f(*params)
        phi1, phi2, x1, x2 = params
        with pytest.raises(ValueError, match=how) as array:
            te._mb_threshold_vec(phi1, phi2, np.array([1.0, x1]), np.array([1.0, x2]))
        assert str(array.value) == str(scalar.value)
        with pytest.raises(ValueError, match=how):
            analyze(GameParams(*params), 0.5)

    def test_array_threshold_matches_scalar(self, rng):
        params = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=(2000, 4)))
        games = np.array([oriented(*p) for p in params.tolist()])
        assert_bits_equal(te._mb_threshold_vec(*games.T), [te._mb_threshold_f(*g) for g in games.tolist()])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSeedRange:
    """The alliance march rejects games whose seed squares (1 - x)**2 overflow."""

    OVERFLOW = (1e300, 1.0, 1e200, 1.0)  # (1 - x1)**2 overflows; phi1*x2**3 does not

    def test_scalar_and_array_raise_the_same_error(self):
        with pytest.raises(ValueError, match=r"\(1 - x1\)\*\*2 or \(1 - x2\)\*\*2 overflows") as scalar:
            alliance_optimal(GameParams(*self.OVERFLOW), 0.5)
        assert "x1=1e+200, x2=1.0" in str(scalar.value)
        phi1, phi2, x1, x2 = self.OVERFLOW
        assert_march_matches_scalar(phi1, phi2, [0.5, x1], x2, 0.5)
        assert_march_matches_scalar(1.0, 1e-300, 1.0, [1.5, 1e200], 0.5)
        with pytest.raises(ValueError, match="overflows"):
            analyze(GameParams(*self.OVERFLOW), 0.5)

    def test_array_skips_games_in_g_dagger(self):
        # a case-4 game is in G-dagger, so the scalar march never runs on it
        assert alliance_optimal(GameParams(1.0, 1.0, 1e200, 1e200), 0.5) == (0.0, 0.0)
        tau, gain = te._alliance_optimal_vec(1.0, 1.0, 1e200, 1e200, [0.5, 1.0])
        assert_bits_equal(tau, [0.0, 0.0])
        assert_bits_equal(gain, [0.0, 0.0])
        assert_march_matches_scalar([1.0, 1e300], 1.0, [1e200, 1e200], [1e200, 1.0], 0.5)

    def test_in_element_order_with_the_losing_transfer(self, monkeypatch):
        # donating 1.4 loses for G1 at beta 0.1 (see TestArrayMarch)
        monkeypatch.setattr(te, "_march_alliance_vec", lambda phi1, phi2, x1, x2, beta: np.full_like(x1, 1.4))
        games = np.array([(G1.phi1, G1.phi2, G1.x1, G1.x2), self.OVERFLOW])
        with pytest.raises(te.InternalInconsistencyError):
            te._alliance_optimal_vec(*games.T, 0.1)
        with pytest.raises(ValueError, match="overflows"):
            te._alliance_optimal_vec(*games[::-1].T, 0.1)
