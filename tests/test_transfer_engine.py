"""Transfer mechanics, mutual-benefit analysis, and the alliance optimum."""

import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blotto_alliance import transfer_engine as te
from blotto_alliance.adversary_response import (
    PROPORTIONAL_RTOL,
    Case,
    GameParams,
    _classify_vec,
    _frame,
    _orient_vec,
    _payoffs_any_f,
    _payoffs_f,
    _proportional,
    _response_f,
    classify,
    mirror,
    normalize,
    optimal_split,
)
from blotto_alliance.cli import DEFAULT_VERIFY_BETAS, FIXED_SEED_GAMES
from blotto_alliance.sweep import Axis, SweepGrid, beta_sweep, payoff_curves, region_raster
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
from support import (
    CASE1_GAME,
    CASE3_GAME,
    CASE4_GAME,
    G1,
    decimal_gains,
    decimal_induced_payoffs,
    decimal_split,
    decimal_thresholds,
    log_uniform,
    oriented_params,
    random_oriented_game,
    unit_game,
)

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

    @pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
    def test_nonfinite_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            Transfer(tau=tau, beta=1.0)

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

    @pytest.mark.parametrize("tau", [-1.5, 0.5])
    def test_domain_errors(self, tau):
        with pytest.raises(ValueError, match=r"tau must lie in \(-1.5, 0.5\)"):
            payoffs_at(G1, Transfer(tau=tau, beta=1.0))

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
        """Both zero-transfer verdicts, mb_exists and in_g_dagger, over an array of betas equal the per-beta ones."""
        for _ in range(300):
            game = [float(v) for v in oriented_params(rng)]
            # a beta at the mutual-benefit threshold is not above it, and one at an alliance branch is at most it
            mutual, alliance = te._threshold_branches(*game)
            betas = np.append(rng.uniform(0.0, 1.0, size=20), [1.0, min(mutual), *alliance])
            case, threshold, exists, dagger = te._verdicts_f(*game, betas)
            scalar = [te._verdicts_f(*game, b) for b in betas.tolist()]
            assert all(type(v) is bool for _, _, *verdicts in scalar for v in verdicts)
            assert {(c, t) for c, t, _, _ in scalar} == {(case, threshold)}
            np.testing.assert_array_equal(exists, [mb for _, _, mb, _ in scalar])
            np.testing.assert_array_equal(dagger, [dag for _, _, _, dag in scalar])

    def test_case_4_without_orienting(self, rng):
        # random points; points on the proportional ray, where phi1, phi2 = u, v
        # times a power of two make phi2*u == phi1*v exactly; one ulp either side
        # of it; seven ulps around each edge of the band; and u + v exactly 1,
        # then one ulp off
        u, v = np.exp(rng.uniform(math.log(0.05), math.log(5.0), size=(2, 2000)))
        points = [(*np.exp(rng.uniform(math.log(0.05), math.log(5.0), size=(2, 2000))), u, v)]
        scale = 2.0 ** rng.integers(-20, 21, size=u.size)
        points += [(u * scale, v * scale, u, np.nextafter(v, off)) for off in (v, 0.0, np.inf)]
        for edge in (v * (1.0 - PROPORTIONAL_RTOL), v * (1.0 + PROPORTIONAL_RTOL)):
            for _ in range(3):
                edge = np.nextafter(edge, 0.0)
            for _ in range(7):
                points.append((u, v, u, edge))
                edge = np.nextafter(edge, np.inf)
        u = rng.uniform(0.5, 1.0, size=500)
        points += [(u, 1.0 - u, u, np.nextafter(1.0 - u, off)) for off in (1.0 - u, 0.0, 1.0)]
        phi1, phi2, u, v = (np.concatenate(column) for column in zip(*points))

        got = _classify_vec(*_orient_vec(phi1, phi2, u, v)[1:])[0] == 4
        games = list(zip(*(column.tolist() for column in (phi1, phi2, u, v))))
        assert [te._segment_label(*game, 0.5, 0.0)[0] == 4 for game in games] == got.tolist()
        # both orientations reach case 4, and a proportional point below u + v = 1 does not
        flipped = phi2 * u > phi1 * v
        assert (got & flipped).any() and (got & ~flipped).any()
        assert (~got & (u + v < 1.0) & (phi2 * u == phi1 * v)).any()

    def test_tau_bounds_over_arrays(self, rng):
        x1, x2 = np.exp(rng.uniform(math.log(1e-20), math.log(1e6), size=(2, 4000)))
        x1[:3], x2[:3] = [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)], 1.0
        x1[3:6], x2[3:6] = [1e-6, np.nextafter(1e-6, 0.0), np.nextafter(1e-6, 1.0)], 1e-6
        lo, hi = te._tau_bounds(x1, x2, np.maximum, np.minimum)
        scalar = [te._tau_bounds(a, b) for a, b in zip(x1.tolist(), x2.tolist())]
        assert_bits_equal(lo, [v for v, _ in scalar])
        assert_bits_equal(hi, [v for _, v in scalar])

    def test_tau_bounds_stay_inside_the_domain(self):
        # an edge of max(1e-12, 1e-12*x) reaches past any budget at or below 1e-12
        x = np.array([1e-300, 1e-14, 1e-12, 1e-9, 1e-6, 0.5, 1.0, 1e6, 1e300])
        lo, hi = te._tau_bounds(x, x, np.maximum, np.minimum)
        assert ((-x < lo) & (lo < 0.0) & (0.0 < hi) & (hi < x)).all()
        # and is kept from a budget of 1e-6 up
        kept = x >= 1e-6
        assert_bits_equal(hi[kept], x[kept] - np.maximum(1e-12, 1e-12 * x[kept]))


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
    # player 2's float gain reads +1 ulp at tau = -7.45e-9 and -3.73e-9, outside the
    # interval (-9.3e-10, 0); its 60-digit values there are -1.2e-17 and -2.6e-18
    @example(phi1=1.0, phi2=1.0, x1=1.0, x2=1.0000610370189331, xa=1.0000610370189331)
    def test_agrees_with_a_dense_scan(self, phi1, phi2, x1, x2, xa):
        gn, _ = normalize(GameParams(phi1, phi2, x1, x2, xa))
        tol = 1e-9 * (gn.x1 + gn.x2)
        # a float gain this close to 0 may have either sign; the 60-digit reference settles it
        rounding = 4.0 * math.ulp(max(gn.phi1, gn.phi2))
        for beta in DEFAULT_VERIFY_BETAS:
            report = analyze(gn, beta)
            if report.mb_interval is None:
                continue
            assert not report.mb_interval_anomaly
            lo, hi = report.mb_interval
            taus, gains = scalar_mb_scan(gn.phi1, gn.phi2, gn.x1, gn.x2, beta)
            for tau, gain in zip(taus, gains):
                if abs(gain) <= rounding:
                    gain = float(min(decimal_gains(gn.phi1, gn.phi2, gn.x1, gn.x2, tau, beta)))
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
        assert report.swapped is False
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


# Log-uniform boxes of parameters that the point path is compared over.
BOXES = pytest.mark.parametrize("box", [(0.05, 5.0), (1e-3, 1e3), (1e-6, 1e6)], ids=["0.05-5", "1e-3-1e3", "1e-6-1e6"])


def outcome(fn, *args):
    """(fn(*args), None), or (None, (type, message)) of the error it raises."""
    try:
        return fn(*args), None
    except (ValueError, te.InternalInconsistencyError) as exc:
        return None, (type(exc), str(exc))


def assert_analysis_matches_entry_points(g, beta):
    """Every field of analyze by repr equals the entry point that computes it alone.

    Returns (report, error): analyze raises exactly when mb_interval or
    alliance_optimal does, and takes the interval first, so its error is
    the first of theirs.
    """
    interval, interval_error = outcome(mb_interval, g, beta)
    alliance, alliance_error = outcome(alliance_optimal, g, beta)
    report, error = outcome(analyze, g, beta)
    assert error == (interval_error or alliance_error), (g, beta)
    if error is not None:
        return report, error
    alone = {
        "mb_exists": mb_exists(g, beta),
        "mb_beta_threshold": mb_beta_threshold(g),
        "in_g_dagger": in_g_dagger(g, beta),
        "mb_interval": interval,
        "case_at_zero": classify(normalize(g)[0]),
    }
    for name, value in alone.items():
        assert repr(getattr(report, name)) == repr(value), (g, beta, name)
    assert repr((report.alliance_tau, report.alliance_payoff_gain)) == repr(alliance), (g, beta)
    return report, None


class TestAnalyzeMatchesEntryPoints:
    """analyze shares its zero-transfer work between its fields; each still equals its entry point."""

    @BOXES
    def test_over_random_games(self, rng, box):
        params = np.exp(rng.uniform(math.log(box[0]), math.log(box[1]), size=(300, 5)))
        seen = set()
        for p in params.tolist():
            g = GameParams(*p)
            for beta in DEFAULT_VERIFY_BETAS:
                report, error = assert_analysis_matches_entry_points(g, beta)
                assert error is None
                seen.add((report.mb_exists, report.in_g_dagger, report.swapped))
        # intervals, marches without one and G-dagger games, in both orientations
        assert {(True, False), (False, False), (False, True)} <= {v[:2] for v in seen}
        assert {True, False} <= {v[2] for v in seen}

    @pytest.mark.parametrize(
        "g, beta, kind",
        [
            (GameParams(1e300, 1.0, 1e200, 1.0), 0.5, ValueError),  # (1 - x1)**2 overflows
            (GameParams(1.0, 1.0, math.exp(-1), math.exp(2)), 1e-16, te.InternalInconsistencyError),  # a losing march
        ],
        ids=["seed-overflow", "losing-transfer"],
    )
    def test_errors(self, g, beta, kind):
        assert assert_analysis_matches_entry_points(g, beta)[1][0] is kind


# Hypothesis draws of one parameter log-uniform in the audit's box [0.05, 5],
# and of an efficiency above the tiny betas where the march is known to fail
box = st.floats(min_value=math.log(0.05), max_value=math.log(5.0)).map(math.exp)
box_betas = st.floats(min_value=0.05, max_value=1.0)
# m for a common valuation scale 4**m: exact, and its square root 2**m is exact too
four_powers = st.integers(min_value=-250, max_value=250)
# scales every draw is also checked at: phi1*phi2 leaves the normal range at 4**-260
# and 4**260, and the interval's degree-4 discriminant at 4**-130 and 4**130
EXTREME_POWERS = (-260, -130, 130, 260)


def scale_phi(g, m):
    """g with both valuations times 4**m."""
    return dataclasses.replace(g, phi1=math.ldexp(g.phi1, 2 * m), phi2=math.ldexp(g.phi2, 2 * m))


def assert_beta_sweep_scales_exactly(g, powers):
    """beta_sweep's payoff columns times exactly 4**m, and its other columns unchanged, for each m."""
    want = beta_sweep(g, (0.05, 1.0), 12)
    unscaled = {"beta", "mb_exists", "alliance_nonzero"}
    for k in powers:
        for row_got, row_want in zip(beta_sweep(scale_phi(g, k), (0.05, 1.0), 12), want, strict=True):
            for field in dataclasses.fields(row_want):
                value = getattr(row_want, field.name)
                expected = value if field.name in unscaled else math.ldexp(value, 2 * k)
                assert repr(getattr(row_got, field.name)) == repr(expected), (g, k, row_want.beta, field.name)


def assert_analysis_scales_exactly(g, beta, powers):
    """analyze at phi times 4**m equals the unscaled analysis, the gain times 4**m, for each m."""
    want = analyze(g, beta)
    for m in powers:
        # repr tells -0.0 from 0.0; only the gain carries the scale
        scaled = dataclasses.replace(want, alliance_payoff_gain=math.ldexp(want.alliance_payoff_gain, 2 * m))
        assert repr(analyze(scale_phi(g, m), beta)) == repr(scaled)


class TestCommonPhiScale:
    """Verdicts and transfers depend on phi1 and phi2 only through their ratio."""

    @pytest.mark.parametrize(
        "x1, x2, s",
        [
            (0.05, 0.5, 1e-100),
            (0.05, 0.5, 1e100),
            (0.5, 1.5, 1e-100),
            (0.05, 0.5, 1e-200),
            (0.05, 0.5, 1e-160),
            (0.05, 0.5, 1e160),
            (0.5, 1.5, 1e-200),
        ],
    )
    def test_matches_the_unit_scale(self, x1, x2, s):
        # (0.05, 0.5) lies in case 3 at tau = 0, (0.5, 1.5) in case 2
        want = analyze(GameParams(1.0, 1.0, x1, x2), 0.5)
        got = analyze(GameParams(s, s, x1, x2), 0.5)
        assert (got.case_at_zero, got.in_g_dagger, got.mb_exists) == (want.case_at_zero, want.in_g_dagger, want.mb_exists)
        assert got.alliance_tau == pytest.approx(want.alliance_tau, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(box, box, box, box, box_betas, four_powers)
    def test_point_path_is_exact_under_a_power_of_four(self, phi1, phi2, x1, x2, beta, m):
        assert_analysis_scales_exactly(GameParams(phi1, phi2, x1, x2), beta, (m, *EXTREME_POWERS))

    def test_point_path_is_exact_over_seeded_games(self, rng):
        # at 4**-130 and 4**130 only 9 and 5 of these 800 games once moved, too few for the draws above
        params = np.exp(rng.uniform(math.log(0.05), math.log(5.0), size=(800, 4))).tolist()
        for game, beta in zip(params, rng.uniform(0.05, 1.0, size=800).tolist()):
            assert_analysis_scales_exactly(GameParams(*game), beta, EXTREME_POWERS)

    @settings(max_examples=50, deadline=None)
    @given(box, box, box, box, st.lists(box_betas, min_size=1, max_size=3), four_powers)
    def test_region_raster_is_exact_under_a_power_of_four(self, phi1, phi2, x_lo, x_hi, betas, m):
        lo, hi = sorted((x_lo, x_hi))
        assume(lo < hi)
        axes = (Axis("x1", lo, hi, 6), Axis("x2", lo, hi, 6))
        want = list(map(repr, region_raster(SweepGrid(axes, {"phi1": phi1, "phi2": phi2}, tuple(betas)))))
        for k in (m, *EXTREME_POWERS):
            scaled = {"phi1": math.ldexp(phi1, 2 * k), "phi2": math.ldexp(phi2, 2 * k)}
            # no cell field carries the scale
            assert list(map(repr, region_raster(SweepGrid(axes, scaled, tuple(betas))))) == want

    @settings(max_examples=50, deadline=None)
    @given(box, box, box, box, four_powers)
    def test_beta_sweep_is_exact_under_a_power_of_four(self, phi1, phi2, x1, x2, m):
        assert_beta_sweep_scales_exactly(GameParams(phi1, phi2, x1, x2), (m, *EXTREME_POWERS))

    def test_beta_sweep_is_exact_over_seeded_games(self, rng):
        # an absolute 1e-12 slack in the mutual columns moved 700 to 705 of these 720 rows at each m < 0
        params = np.exp(rng.uniform(math.log(0.05), math.log(5.0), size=(60, 4))).tolist()
        for game in params:
            assert_beta_sweep_scales_exactly(GameParams(*game), (-250, -100, -20, 20, 100, 250))

    @pytest.mark.parametrize("m", [130, -132])
    def test_interval_keeps_its_unscaled_bits(self, m):
        # phi times 2**260 and 2**-264: the interval once ended at 0.06224295433948833
        g = GameParams(0.09639688996757616, 3.135938930450365, 0.20266539100982064, 0.09088650054563877)
        want = analyze(g, 1.0)
        assert want.mb_interval == pytest.approx((0.0, 0.06227444782583058), rel=1e-15, abs=0.0)
        got = analyze(scale_phi(g, m), 1.0)
        assert repr(got.mb_interval) == repr(want.mb_interval) and not got.mb_interval_anomaly


def scalar_margin(g, beta):
    """mutual_margin one point at a time, on the oriented unit-adversary game."""
    game = unit_game(normalize(g)[0])
    u1_base, u2_base = te._induced_payoffs(*game, 0.0, beta)
    lo, hi = te._tau_bounds(*game[2:])
    best = -math.inf
    for i in range(te._DOMAIN_POINTS):
        u1, u2 = te._induced_payoffs(*game, lo + (hi - lo) * i / (te._DOMAIN_POINTS - 1), beta)
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


def assert_curve_matches_scalar(g, beta, steps):
    """payoff_curves over the whole domain against _induced_payoffs, one transfer at a time.

    The tau column is in the caller's units, clamped to the adversary's multiple
    of the unit-adversary edges; the payoffs are read at tau over the adversary's budget.
    """
    lo, hi = -g.x2, g.x1
    xa = g.adversary_budget
    game = unit_game(g)
    edge_lo, edge_hi = te._tau_bounds(*game[2:])
    u1_base, u2_base = te._induced_payoffs(*game, 0.0, beta)
    expected = []
    for k in range(steps):
        tau = min(max(min(lo + (hi - lo) * k / (steps - 1), hi), xa * edge_lo), xa * edge_hi)
        u1, u2 = te._induced_payoffs(*game, tau / xa, beta)
        expected.append((tau, u1 - u1_base, u2 - u2_base, u1 + u2))
    rows = payoff_curves(g, beta, (lo, hi), steps)
    assert rows.dtype == np.float64 and rows.shape == (steps, 4)
    assert_bits_equal(rows, np.array(expected))


class TestScansMatchScalar:
    """The array scans equal their scalar statement bit for bit."""

    @pytest.mark.parametrize("label", sorted(FIXED_SEED_GAMES))
    def test_mutual_margin(self, label):
        g = FIXED_SEED_GAMES[label]
        for beta in DEFAULT_VERIFY_BETAS:
            np.testing.assert_array_equal(te.mutual_margin(g, beta), scalar_margin(g, beta))

    @pytest.mark.parametrize("label", sorted(FIXED_SEED_GAMES))
    def test_payoff_curves(self, label):
        g = FIXED_SEED_GAMES[label]
        for beta in DEFAULT_VERIFY_BETAS:
            assert_curve_matches_scalar(g, beta, 2001)

    @settings(max_examples=120, deadline=None)
    @given(log_uniform, log_uniform, log_uniform, log_uniform, log_uniform.filter(lambda xa: xa != 1.0))
    def test_payoff_curves_over_twelve_decades(self, phi1, phi2, x1, x2, xa):
        g = GameParams(phi1, phi2, x1, x2, xa)
        for game in (g, mirror(g)):  # both orientations
            for beta in DEFAULT_VERIFY_BETAS:
                assert_curve_matches_scalar(game, beta, 201)


def tiny_budget_games():
    """300 games with all five parameters log-uniform in [1e-20, 1e20]; over a third have a normalized budget <= 1e-12."""
    params = np.exp(np.random.default_rng(4).uniform(math.log(1e-20), math.log(1e20), size=(300, 5)))
    return [GameParams(*p) for p in params.tolist()]


class TestMarchExtremes:
    """The alliance march on extreme budget ratios, where it once raised or stopped short."""

    def test_budgets_at_or_below_1e_12_stay_inside_the_domain(self):
        games = tiny_budget_games()
        assert sum(min(normalize(g)[0].x1, normalize(g)[0].x2) <= 1e-12 for g in games) > 100
        for g in games:
            for beta in DEFAULT_VERIFY_BETAS:
                assert -g.x2 < analyze(g, beta).alliance_tau < g.x1

    def test_tiny_budgets_are_not_beaten_by_a_grid_transfer(self):
        # The grid and the march share the unit-adversary domain, so a grid transfer can beat
        # the alliance transfer only by the rounding of the two sums u1 + u2. With d = 2**-53,
        # each errs by at most 4.5*d*(phi1 + phi2): a Lotto payoff's elasticity in its budget
        # is at most 1/2, so the budget's two roundings move it by at most d*phi_i; its formula
        # adds at most 2.5*d*phi_i and the sum d*(phi1 + phi2); the split's rounding enters only
        # at second order, since the split minimizes phi1 + phi2 - u1 - u2. The worst gap over
        # these games is 1.65e-16*(phi1 + phi2), about 1.5*d.
        for g in tiny_budget_games():
            game = _frame(g)[:4]
            grid = te._even_grid(*te._tau_bounds(*game[2:]), 2001)
            for beta in DEFAULT_VERIFY_BETAS:
                u1, u2 = te._induced_payoffs_vec(*game, grid, beta)
                tau = 0.0
                if not te._verdicts_f(*game, beta)[3]:
                    base, cuts = _payoffs_any_f(*game), te._cuts(*game, beta)
                    tau = te._alliance_optimal_f(*game, beta, base, cuts, False, 1.0)[0]
                best = sum(te._induced_payoffs(*game, tau, beta))
                assert np.max(u1 + u2) - best <= 9 * 2.0**-53 * (g.phi1 + g.phi2)

    def test_flipped_case_2_ratio_when_phi2_k_squared_underflows(self):
        # phi2*K*K underflows to 0 in this game, K = x1 + beta*x2
        g = GameParams(
            5.069249472840368e110, 3.1679988813176167e-149, 4.7001122150468385e-148,
            1.4187502486085081e-130, 1.2553453651880894e-31,
        )
        for beta in (0.1, 0.5, 1.0):
            tau, gain = alliance_optimal(g, beta)
            assert -g.x2 < tau < 0.0 and gain > 0.0
        gn = normalize(g)[0]
        assert assert_analysis_matches_point_path(gn.phi1, gn.phi2, gn.x1, gn.x2, [0.1, 0.5, 1.0]) is None

    def test_case_3_split_when_phi1_x1_underflows(self):
        # phi1*x1 = 9e-332 underflows to 0.0 in this case-3 game, and the split once read 0.0
        # as s1/(s1 + s2), s_i = sqrt(phi_i*x_i): front 1 was left undefended, every transfer
        # seemed to lose phi1, and each beta raised "losing transfer"
        g = GameParams(
            7.307865001439245e-136, 1.8981122151291395e-134, 1.8413212813796505e-117,
            2.188447389895861e-17, 1.4679693447667783e79,
        )
        gn = normalize(g)[0]
        assert gn.phi1 * gn.x1 == 0.0
        # As 1/(1 + sqrt(phi2/phi1*(x2/x1))) the split takes six roundings of at most 2**-53 each;
        # the square root halves the three before it, so it lies within 4.5*2**-53 < 2**-50 of
        # the 60-digit reference, relatively.
        split = optimal_split(gn)
        assert split.case_label is Case.CASE_3
        assert split.x_a1 == pytest.approx(float(decimal_split(gn.phi1, gn.phi2, gn.x1, gn.x2)), rel=2.0**-50, abs=0.0)
        for beta in (0.1, 0.5, 1.0):
            tau, gain = alliance_optimal(g, beta)
            assert -g.x2 < tau < 0.0 and gain > 0.0
        assert assert_analysis_matches_point_path(gn.phi1, gn.phi2, gn.x1, gn.x2, [0.1, 0.5, 1.0]) is None

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
        # The bound stays 1e-9, not a rounding bound such as the tiny-budget test's 9*2**-53:
        # - the march itself can stop short by more. At GameParams(499109.8985450305,
        #   0.00012648682762207974, 4.396384601607237, 1.4855246143538252, 17.07339378803206),
        #   beta 1, it stops in a case-2 segment 2e-17 wide, though u1 + u2 still rises in the
        #   case-3 segment after it; a grid transfer beats it by 1.2e-10*(phi1 + phi2), and the
        #   60-digit reference agrees;
        # - tau's round trip through xa moves the donor's budget v by up to 2 ulps of the
        #   donation t, and the payoff's slope in v is bounded only by phi/(2v), with t/v up to
        #   1e12 where the optimum sits at the domain edge.
        # Elsewhere the gap is a few ulps: 1.94*2**-53*(phi1 + phi2) at worst over 3,000 games
        # log-uniform in [1e-6, 1e6] (numpy seed 5) at the five verify betas.
        g = GameParams(phi1, phi2, x1, x2, xa)
        game = unit_game(g)
        lo, hi = te._tau_bounds(*game[2:])
        taus = lo + (hi - lo) * np.arange(2001) / 2000
        for beta in DEFAULT_VERIFY_BETAS:
            tau = analyze(g, beta).alliance_tau
            best = alliance_payoff(g, Transfer(tau, beta))
            u1, u2 = te._induced_payoffs_vec(*game, taus, beta)
            assert np.max(u1 + u2) - best <= 1e-9 * (phi1 + phi2)

    @pytest.mark.xfail(
        strict=True,
        reason="the march stops in a case-2 segment 2e-17 wide while u1 + u2 still rises through the next case-3 one",
    )
    def test_does_not_stop_in_a_case_2_sliver(self):
        g = GameParams(
            499109.8985450305, 0.00012648682762207974, 4.396384601607237,
            1.4855246143538252, 17.07339378803206,
        )
        gn, swapped = normalize(g)
        assert not swapped
        game = (gn.phi1, gn.phi2, gn.x1, gn.x2)
        cuts = te._cuts(*game, 1.0)
        t = te._march_alliance(*game, 1.0, cuts)
        # the far end of the first case-3 segment past the march's stop
        t_end = next(
            t_b for t_a, t_b in zip(cuts, cuts[1:])
            if t_a >= t and te._segment_label(*game, 1.0, 0.5 * (t_a + t_b))[0] == 3
        )
        at_tau = sum(decimal_induced_payoffs(*game, analyze(g, 1.0).alliance_tau / g.adversary_budget, 1.0))
        at_end = sum(decimal_induced_payoffs(*game, -t_end, 1.0))
        assert float(at_end - at_tau) <= 4.0 * 2.0**-53 * (g.phi1 + g.phi2)

    @pytest.mark.xfail(
        strict=True,
        raises=te.InternalInconsistencyError,
        reason="at tiny beta the march lands on a losing donation (t = 4.718 at 1e-16)",
    )
    def test_tiny_efficiency_reaches_an_optimum(self):
        # the gain is 2.3e-6 at beta 1e-6 but 4.8e-13 at 1e-12, where about 2.3e-12 is due
        _, gain = alliance_optimal(GameParams(1.0, 1.0, math.exp(-1), math.exp(2)), 1e-16)
        assert gain >= 0.0


def oriented(phi1, phi2, x1, x2):
    """The same parameters as an oriented unit-adversary game."""
    return (phi2, phi1, x2, x1) if phi2 * x1 > phi1 * x2 else (phi1, phi2, x1, x2)


def assert_bits_equal(actual, expected):
    """Equal element for element, the sign of zero included."""
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def point_path(phi1, phi2, x1, x2, beta):
    """(case, threshold, mb_exists, tau, gain) of one oriented game through the scalar point path."""
    case, threshold, exists, _ = te._verdicts_f(phi1, phi2, x1, x2, beta)
    return (case, threshold, exists, *alliance_optimal(GameParams(phi1, phi2, x1, x2), beta))


def assert_analysis_matches_point_path(phi1, phi2, x1, x2, betas):
    """_analyze_vec over broadcast arrays against the point path one game at a time.

    Returns the point path's first error, which _analyze_vec must raise as it is, or None.
    """
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (phi1, phi2, x1, x2, betas)))
    expected = []
    # the scalar path on Python floats, as the CLI and analyze call it
    for game in zip(*(a.ravel().tolist() for a in arrays)):
        try:
            expected.append(point_path(*game))
        except (te.InternalInconsistencyError, ValueError) as scalar:
            # the array pass raises the point path's first error
            with pytest.raises(type(scalar)) as array:
                te._analyze_vec(*arrays)
            assert getattr(array.value, "diagnostics", None) == getattr(scalar, "diagnostics", None)
            assert str(array.value) == str(scalar)
            return scalar
    for actual, column in zip(te._analyze_vec(*arrays), zip(*expected)):
        assert actual.shape == arrays[0].shape
        assert_bits_equal(actual.ravel(), column)
    return None


unit_betas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


# numpy's floating-point warnings are RuntimeWarnings; "error" alone would also
# trip a DeprecationWarning that hypothesis's pytest plugin raises on import
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestArrayMarch:
    """_analyze_vec equals the scalar point path bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(log_uniform, log_uniform, log_uniform, log_uniform, st.lists(unit_betas, min_size=1, max_size=6))
    def test_matches_scalar_over_twelve_decades(self, phi1, phi2, x1, x2, betas):
        assert_analysis_matches_point_path(*oriented(phi1, phi2, x1, x2), np.array(betas))

    def test_one_call_over_mixed_games(self, rng):
        params = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=(3000, 4)))
        games = np.array([oriented(*p) for p in params.tolist()])
        betas = rng.uniform(0.0, 1.0, size=3000)
        betas[::5] = 1.0
        assert assert_analysis_matches_point_path(*games.T, betas) is None

    def test_proportional_ray_and_frame_edge(self):
        # phi2*x1 == phi1*x2 exactly, on both sides of x1 + x2 = 1, and one
        # ulp either side of the ray (in frame on one side only)
        x1 = np.array([0.05, 0.25, 0.5, 1.0, 3.0])
        for phi1, phi2, x2 in [(1.0, 1.0, x1), (2.0, 1.0, x1 / 2.0), (1.0, 4.0, 4.0 * x1)]:
            for off in (x2, np.nextafter(x2, np.inf)):
                assert_analysis_matches_point_path(phi1, phi2, x1[:, None], off[:, None], [0.05, 0.3, 0.9, 1.0])
        # the in-frame cells of a raster next to its frame edge, the diagonal
        x = 0.05 + (3.0 - 0.05) * np.arange(60) / 59
        x1_grid, x2_grid = np.meshgrid(x, x)
        edge = (x1_grid <= x2_grid) & (x2_grid - x1_grid <= 2 * (3.0 - 0.05) / 59)
        assert_analysis_matches_point_path(1.0, 1.0, x1_grid[edge], x2_grid[edge], np.array([[0.3], [0.9]]))

    def test_smallest_beta(self):
        # beta*beta and r*beta underflow, so one seed quadratic turns linear
        assert assert_analysis_matches_point_path(1.0, 0.3, 0.2, 0.9, [5e-324, 1e-300, 1e-160]) is None

    def test_beta_outside_unit_interval(self):
        for beta in (0.0, 1.5):
            with pytest.raises(ValueError, match="beta"):
                te._analyze_vec(1.0, 1.2, 0.5, 1.5, [0.5, beta])

    def test_losing_transfer_raises_as_the_scalar_march(self, monkeypatch):
        # donating almost all of player 2's budget loses at beta 0.1
        monkeypatch.setattr(te, "_march_alliance", lambda *args: 1.4)
        monkeypatch.setattr(te, "_march_alliance_vec", lambda phi1, phi2, x1, x2, beta: np.full_like(x1, 1.4))
        with pytest.raises(te.InternalInconsistencyError) as scalar:
            alliance_optimal(G1, 0.1)
        with pytest.raises(te.InternalInconsistencyError) as array:
            te._analyze_vec(G1.phi1, G1.phi2, G1.x1, G1.x2, [0.05, 0.1])
        assert array.value.diagnostics == scalar.value.diagnostics
        assert str(array.value) == str(scalar.value)

    def test_a_flag_the_point_path_does_not_raise_is_inconsistent(self, monkeypatch):
        # only the array march donates the losing 1.4, so the point path reruns without an error
        monkeypatch.setattr(te, "_march_alliance_vec", lambda phi1, phi2, x1, x2, beta: np.full_like(x1, 1.4))
        with pytest.raises(te.InternalInconsistencyError, match="point path accepts"):
            te._analyze_vec(G1.phi1, G1.phi2, G1.x1, G1.x2, [0.05, 0.1])


def march_with_cut_test(phi1, phi2, x1, x2, beta):
    """(t, stopped_at_a_cut): _march_alliance's walk that also stops at every case-4 cut, as the march once did."""
    ratio_2, ratio_2_flipped, ratio_3 = te._stationary_ratios(phi1, phi2, x1, x2, beta)
    cuts = te._cuts(phi1, phi2, x1, x2, beta)
    for t_a, t_b in zip(cuts, cuts[1:]):
        u, v = x1 + beta * t_a, x2 - t_a
        if _proportional(phi2 * u, phi1 * v) and u + v >= 1.0:
            return t_a, True
        case, _, flipped = te._segment_label(phi1, phi2, x1, x2, beta, 0.5 * (t_a + t_b))
        if case == 1 and not flipped:
            continue
        if case in (1, 4):
            return t_a, False
        r = ratio_3 if case == 3 else ratio_2_flipped if flipped else ratio_2
        t = (r * x2 - x1) / (beta + r)
        if t < t_b:
            return max(t, t_a), False
    return cuts[-1], False


class TestCaseFourStop:
    """A case-4 cut stops the march through the label of the segment after it."""

    @BOXES
    def test_equals_a_march_that_tests_every_cut(self, rng, box):
        games = np.array([oriented_params(rng, *box) for _ in range(300)])
        stops = 0
        for beta in DEFAULT_VERIFY_BETAS:
            expected = []
            for game in games.tolist():
                if te._verdicts_f(*game, beta)[3]:
                    expected.append(0.0)
                    continue
                t, at_cut = march_with_cut_test(*game, beta)
                assert_bits_equal(te._march_alliance(*game, beta, te._cuts(*game, beta)), t)
                expected.append(-t)
                stops += at_cut
            assert_bits_equal(te._analyze_vec(*games.T, beta)[3], expected)
        # the reference's cut test decides a share of these marches, so the implied stop is exercised
        assert stops > 0

    def test_where_the_ray_meets_x1_plus_x2_equal_1_at_full_efficiency(self, rng):
        # at beta = 1 and x1 + x2 = 1 the stationary point lies on the ray in exact arithmetic,
        # so past a case-4 cut the march may take one more segment; its end agrees within
        # rounding, the transfer's scaled by the phi1/phi2 of the seed quadratics that meet there
        x1 = rng.uniform(0.0, 1.0, size=1500)
        moved = 0
        for x2 in (1.0 - x1, np.nextafter(1.0 - x1, 0.0), (1.0 - x1) * (1.0 + rng.uniform(-1e-15, 1e-15, x1.size))):
            phi1, phi2 = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=(2, x1.size)))
            for game in zip(*(column.tolist() for column in (phi1, phi2, x1, x2))):
                game = oriented(*game)
                if te._verdicts_f(*game, 1.0)[3]:
                    continue
                p1, p2, y1, y2 = game
                t, t_cut = te._march_alliance(*game, 1.0, te._cuts(*game, 1.0)), march_with_cut_test(*game, 1.0)[0]
                assert t_cut <= t <= t_cut + 4.0 * (1.0 + p1 / p2) * 2.0**-53 * (y1 + y2), game
                gain, gain_cut = (te._alliance_gain(*game, 1.0, at, _payoffs_any_f(*game))[0] for at in (t, t_cut))
                assert abs(gain - gain_cut) <= 4.0 * 2.0**-53 * (p1 + p2), game
                moved += t != t_cut
        assert moved > 0


def interval_by_segment_solves(phi1, phi2, x1, x2, beta):
    """_mb_interval_oriented's search as it once ran: each segment solves every crossing equation of its case anew."""
    u1_base, u2_base = _payoffs_f(phi1, phi2, x1, x2)
    equations = te._crossing_equations(phi1, phi2, u1_base, x1, beta, x2, -1.0)
    equations += te._crossing_equations(phi2, phi1, u2_base, x2, -1.0, x1, beta)
    march_cuts = te._cuts(phi1, phi2, x1, x2, beta)
    bands = [t for t in te._band_edges(phi1, phi2, x1, x2, beta) if 0.0 < t < march_cuts[-1]]
    edges = sorted(march_cuts + bands)
    cuts = edges.copy()
    for t_a, t_b in zip(edges, edges[1:]):
        case = te._segment_label(phi1, phi2, x1, x2, beta, 0.5 * (t_a + t_b))[0]
        for eq_case, a, b, c in equations:
            if eq_case == case:
                cuts += [t for t in te._quadratic_roots(a, b, c if t_a > 0.0 else 0.0) if t_a < t < t_b]
    cuts.sort()
    runs = []
    for t_a, t_b in zip(cuts, cuts[1:]):
        u1, u2 = _payoffs_any_f(phi1, phi2, *te._induced_budgets(x1, x2, -0.5 * (t_a + t_b), beta))
        if t_a < t_b and u1 >= u1_base and u2 >= u2_base:
            if runs and runs[-1][1] == t_a:
                runs[-1][1] = t_b
            else:
                runs.append([t_a, t_b])
    if not runs:
        return None, True
    t_low, t_high = runs[0]
    return (-t_high, 0.0 - t_low), len(runs) > 1 or t_low > 0.0


class TestIntervalRootSearch:
    """Solving each crossing equation once finds the interval that a solve per segment found."""

    @BOXES
    def test_equals_a_solve_per_segment(self, rng, box):
        games = [oriented_params(rng, *box) for _ in range(300)]
        intervals = 0
        for game in games:
            base = _payoffs_f(*game)
            for beta in DEFAULT_VERIFY_BETAS:
                got = te._mb_interval_oriented(*game, beta, base, te._cuts(*game, beta))
                # repr tells -0.0 from 0.0
                assert repr(got) == repr(interval_by_segment_solves(*game, beta)), (game, beta)
                intervals += got[0] is not None
        assert intervals > 100


def assert_thresholds_match_the_reference(phi1, phi2, x1, x2):
    """Each branch of both thresholds is finite and within 1e-15 of |t| + x1/x2 of the 60-digit reference."""
    ratio = decimal.Decimal(x1) / decimal.Decimal(x2)
    got = [t for branches in te._threshold_branches(phi1, phi2, x1, x2) for t in branches]
    want = [t for branches in decimal_thresholds(phi1, phi2, x1, x2) for t in branches]
    for actual, exact in zip(got, want):
        assert math.isfinite(actual)
        assert abs(decimal.Decimal(actual) - exact) <= decimal.Decimal("1e-15") * (abs(exact) + ratio)


class TestThresholdRange:
    """Both thresholds come from R = sqrt(phi2/phi1 * x1/x2) and need no float-range error."""

    # phi1*x2**3, which the threshold once divided by, underflows to 0 in the
    # first two games and overflows in the third
    FORMER_RANGE_ERRORS = [(1.0, 1.0, 1e-120, 1e-110), (1e-250, 1e-251, 1e-31, 1e-30), (1.0, 1.0, 1e200, 1e200)]

    @pytest.mark.parametrize("params", FORMER_RANGE_ERRORS, ids=["tiny-budgets", "tiny-valuations", "huge-budgets"])
    def test_former_range_errors_are_finite(self, params):
        assert_thresholds_match_the_reference(*params)
        assert math.isfinite(analyze(GameParams(*params), 0.5).mb_beta_threshold)
        phi1, phi2, x1, x2 = params
        assert assert_analysis_matches_point_path(phi1, phi2, np.array([1.0, x1]), np.array([1.0, x2]), 0.5) is None

    def test_thresholds_match_the_reference_over_the_float_range(self, rng):
        params = np.exp(rng.uniform(math.log(1e-150), math.log(1e150), size=(2000, 4)))
        games = [g for g in map(oriented, *params.T.tolist()) if _response_f(*g)[0] in (2, 3)]
        assert len(games) > 500
        for game in games:
            assert_thresholds_match_the_reference(*game)
        # the array branches, as _analyze_vec takes them, equal the scalar ones bit for bit
        scalar = [[*mutual, *alliance] for mutual, alliance in (te._threshold_branches(*g) for g in games)]
        mutual, alliance = te._threshold_branches(*np.array(games).T, np.sqrt)
        assert_bits_equal(np.column_stack([*mutual, *alliance]), scalar)

    def test_array_threshold_matches_scalar(self, rng):
        params = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=(2000, 4)))
        # and a game whose branches are -0.0 and 0.0, where min keeps the first and np.minimum may not
        games = np.array([oriented(*p) for p in params.tolist()] + [(1.0, 1.0, 1e-180, 1e150)])
        threshold = te._analyze_vec(*games.T, 1.0)[1]
        assert_bits_equal(threshold, [min(te._threshold_branches(*g)[0]) for g in games.tolist()])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSeedRange:
    """The alliance march rejects games whose seed squares (1 - x)**2 overflow."""

    OVERFLOW = (1e300, 1.0, 1e200, 1.0)  # (1 - x1)**2 overflows

    def test_scalar_and_array_raise_the_same_error(self):
        with pytest.raises(ValueError, match=r"\(1 - x1\)\*\*2 or \(1 - x2\)\*\*2 overflows") as scalar:
            alliance_optimal(GameParams(*self.OVERFLOW), 0.5)
        assert "x1=1e+200, x2=1.0" in str(scalar.value)
        phi1, phi2, x1, x2 = self.OVERFLOW
        error = assert_analysis_matches_point_path(phi1, phi2, [0.5, x1], x2, 0.5)
        assert str(error) == str(scalar.value)
        # and (1 - x2)**2 at x2 = 1e200, after a finite threshold
        error = assert_analysis_matches_point_path(1.0, 1e-300, 1.0, [1.5, 1e200], 0.5)
        assert "(x1=1.0, x2=1e+200 against a unit adversary)" in str(error)
        with pytest.raises(ValueError, match="overflows"):
            analyze(GameParams(*self.OVERFLOW), 0.5)

    def test_array_skips_games_in_g_dagger(self):
        # a case-4 game is in G-dagger, so the scalar march never runs on it
        dagger = (1.0, 1e-200, 1e200, 1.0)
        assert alliance_optimal(GameParams(*dagger), 0.5) == (0.0, 0.0)
        _, _, _, tau, gain = te._analyze_vec(*dagger, [0.5, 1.0])
        assert_bits_equal(tau, [0.0, 0.0])
        assert_bits_equal(gain, [0.0, 0.0])
        games = np.array([dagger, self.OVERFLOW])
        error = assert_analysis_matches_point_path(*games.T, 0.5)
        assert "alliance march out of float range" in str(error)

    def test_in_element_order_with_the_losing_transfer(self, monkeypatch):
        # donating 1.4 loses for G1 at beta 0.1 (see TestArrayMarch); the scalar
        # march still runs first, so it keeps its own seed-overflow error
        march = te._march_alliance
        monkeypatch.setattr(te, "_march_alliance", lambda *args: (march(*args), 1.4)[1])
        monkeypatch.setattr(te, "_march_alliance_vec", lambda phi1, phi2, x1, x2, beta: np.full_like(x1, 1.4))
        games = np.array([(G1.phi1, G1.phi2, G1.x1, G1.x2), self.OVERFLOW])
        with pytest.raises(te.InternalInconsistencyError, match="losing transfer"):
            te._analyze_vec(*games.T, 0.1)
        with pytest.raises(ValueError, match="overflows"):
            te._analyze_vec(*games[::-1].T, 0.1)

