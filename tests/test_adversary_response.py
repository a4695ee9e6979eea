"""Case classification and optimal split against worked examples and enumeration."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blotto_alliance.adversary_response import (
    Case,
    GameParams,
    _classify_vec,
    _orient_vec,
    _payoffs_any_f,
    _payoffs_vec,
    _response_f,
    classify,
    mirror,
    normalize,
    optimal_split,
    stage_payoffs,
)
from blotto_alliance.lotto_core import payoff
from support import CASE1_GAME, CASE3_GAME, CASE4_GAME, G1, log_uniform, random_oriented_game


class TestNormalize:
    def test_already_normalized_and_oriented(self):
        gn, swapped = normalize(G1)
        assert gn == G1
        assert swapped is False

    def test_swaps_mirrored_game(self):
        gn, swapped = normalize(GameParams(1.2, 1.0, 1.5, 0.5))
        assert gn == G1
        assert swapped is True

    def test_scales_budgets_by_adversary(self):
        raw = GameParams(2.0, 2.4, 1.0, 3.0, adversary_budget=2.0)
        gn, swapped = normalize(raw)
        assert gn == GameParams(2.0, 2.4, 0.5, 1.5)
        assert swapped is False

    @pytest.mark.parametrize("bad", [
        dict(phi1=0.0), dict(phi2=-1.0), dict(x1=0.0), dict(x2=-2.0), dict(adversary_budget=0.0),
    ])
    def test_rejects_nonpositive_parameters(self, bad):
        base = dict(phi1=1.0, phi2=1.0, x1=1.0, x2=1.0, adversary_budget=1.0)
        base.update(bad)
        with pytest.raises(ValueError):
            GameParams(**base)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["phi1", "phi2", "x1", "x2", "adversary_budget"])
    def test_rejects_nonfinite_parameters(self, name, value):
        base = dict(phi1=1.0, phi2=1.0, x1=1.0, x2=1.0, adversary_budget=1.0)
        base[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GameParams(**base)

    # x/adversary_budget overflows to inf, then underflows to 0.0; every entry point
    # takes its game as a GameParams, so none can be given such a game
    @pytest.mark.parametrize("budget, xa", [(1e300, 1e-100), (1e-300, 1e100)], ids=["overflow", "underflow"])
    @pytest.mark.parametrize("name", ["x1", "x2"])
    def test_rejects_a_budget_ratio_outside_the_float_range(self, name, budget, xa):
        base = dict(phi1=1.0, phi2=1.0, x1=1.0, x2=1.0, adversary_budget=xa)
        base[name] = budget
        with pytest.raises(ValueError, match=re.escape(f"{name}/adversary_budget leaves the float range: {budget}/{xa}")):
            GameParams(**base)


class TestClassify:
    def test_reference_games(self):
        assert classify(G1) is Case.CASE_2
        assert classify(CASE1_GAME) is Case.CASE_1
        assert classify(CASE3_GAME) is Case.CASE_3
        assert classify(CASE4_GAME) is Case.CASE_4

    def test_rejects_unoriented_game(self):
        with pytest.raises(ValueError, match="oriented"):
            classify(GameParams(1.2, 1.0, 1.5, 0.5))

    def test_rejects_unnormalized_game(self):
        with pytest.raises(ValueError, match="normalized"):
            classify(GameParams(1.0, 1.2, 0.5, 1.5, adversary_budget=2.0))

    def test_exhaustive_on_random_games(self, rng):
        for _ in range(2000):
            g = random_oriented_game(rng)
            assert classify(g) in (Case.CASE_1, Case.CASE_2, Case.CASE_3, Case.CASE_4)

    def test_proportional_small_budgets_are_case_3(self):
        # proportional but combined budget below the adversary's
        g = GameParams(1.0, 2.0, 0.2, 0.4)
        assert classify(g) is Case.CASE_3


class TestOptimalSplit:
    def test_case_2_formula(self):
        resp = optimal_split(G1)
        assert resp.case_label is Case.CASE_2
        assert resp.x_a1 == pytest.approx(math.sqrt(0.625), abs=1e-12)
        assert resp.x_a2 == pytest.approx(1.0 - math.sqrt(0.625), abs=1e-12)

    def test_case_1_all_in(self):
        resp = optimal_split(CASE1_GAME)
        assert resp.case_label is Case.CASE_1
        assert resp.x_a1 == 1.0

    def test_case_4_proportional_convention(self):
        resp = optimal_split(CASE4_GAME)
        assert resp.case_label is Case.CASE_4
        assert resp.x_a1 == pytest.approx(0.5 / 1.5, abs=1e-12)

    def test_split_is_feasible_everywhere(self, rng):
        for _ in range(1000):
            g = random_oriented_game(rng)
            resp = optimal_split(g)
            assert resp.x_a1 >= 0.0 and resp.x_a2 >= 0.0
            assert resp.x_a1 + resp.x_a2 == pytest.approx(1.0, abs=1e-12)

    def test_continuity_across_case_2_3_boundary(self):
        # on the boundary 1 - sqrt(phi1*x1*x2/phi2) == x2 both formulas agree
        phi1, x1, x2 = 1.0, 0.3, 0.4
        phi2 = phi1 * x1 * x2 / (1.0 - x2) ** 2
        q = math.sqrt(phi1 * x1 * x2 / phi2)
        assert q == pytest.approx(1.0 - x2, abs=1e-12)
        case3 = math.sqrt(phi1 * x1) / (math.sqrt(phi1 * x1) + math.sqrt(phi2 * x2))
        assert case3 == pytest.approx(q, abs=1e-9)
        # nudging across the boundary moves the split continuously
        lo = optimal_split(GameParams(phi1, phi2 * (1 - 1e-7), x1, x2))
        hi = optimal_split(GameParams(phi1, phi2 * (1 + 1e-7), x1, x2))
        assert lo.case_label != hi.case_label or lo.case_label in (Case.CASE_2, Case.CASE_3)
        assert lo.x_a1 == pytest.approx(hi.x_a1, abs=1e-6)


class TestStagePayoffs:
    def test_case_1_player_2_wins_all(self):
        profile = stage_payoffs(CASE1_GAME)
        assert profile.u2 == 1.2
        assert profile.u1 == pytest.approx(0.75, abs=1e-12)
        assert profile.u_adversary == pytest.approx(0.25, abs=1e-12)

    def test_case_2_reference_value(self):
        profile = stage_payoffs(G1)
        assert profile.u1 == pytest.approx(0.5 * math.sqrt(1.2 * 0.5 / 1.5), abs=1e-9)
        assert profile.u1 == pytest.approx(0.31622776601683794, abs=1e-9)

    def test_case_4_alliance_value(self):
        profile = stage_payoffs(CASE4_GAME)
        assert profile.u1 + profile.u2 == pytest.approx(2.0, abs=1e-12)

    def test_conservation_and_bounds(self, rng):
        for _ in range(1000):
            g = random_oriented_game(rng)
            p = stage_payoffs(g)
            assert abs(p.u1 + p.u2 + p.u_adversary - (g.phi1 + g.phi2)) <= 1e-12 * (g.phi1 + g.phi2)
            assert -1e-12 <= p.u1 <= g.phi1 + 1e-12
            assert -1e-12 <= p.u2 <= g.phi2 + 1e-12


class TestSplitOptimality:
    """The closed-form split must beat every split on an enumeration grid."""

    def _grid_best(self, g: GameParams, step: float) -> tuple[float, float]:
        best_a, best_w = 0.0, -math.inf
        n = round(1.0 / step)
        for i in range(n + 1):
            a = i / n
            w = (g.phi1 - payoff(g.x1, a, g.phi1)) + (g.phi2 - payoff(g.x2, 1.0 - a, g.phi2))
            if w > best_w:
                best_a, best_w = a, w
        return best_a, best_w

    def test_no_grid_split_beats_closed_form(self, rng):
        step = 1e-3
        for _ in range(60):
            g = random_oriented_game(rng)
            resp = optimal_split(g)
            closed_w = (g.phi1 - payoff(g.x1, resp.x_a1, g.phi1)) + (
                g.phi2 - payoff(g.x2, resp.x_a2, g.phi2)
            )
            grid_a, grid_w = self._grid_best(g, step)
            lipschitz = abs(
                (g.phi1 - payoff(g.x1, min(grid_a + step, 1.0), g.phi1))
                + (g.phi2 - payoff(g.x2, 1.0 - min(grid_a + step, 1.0), g.phi2))
                - grid_w
            )
            assert grid_w <= closed_w + lipschitz + 1e-9

    def test_case_4_alliance_payoff_constant_over_admissible_splits(self, rng):
        for _ in range(20):
            x1 = float(np.exp(rng.uniform(math.log(0.1), math.log(3.0))))
            x2 = float(np.exp(rng.uniform(math.log(0.1), math.log(3.0))))
            if x1 + x2 < 1.0:
                x1, x2 = x1 + 1.0, x2 + 1.0
            phi1 = float(rng.uniform(0.2, 3.0))
            g = GameParams(phi1, phi1 * x2 / x1, x1, x2)
            assert classify(g) is Case.CASE_4
            lo = max(0.0, 1.0 - g.x2)
            hi = min(1.0, g.x1)
            values = []
            for i in range(101):
                a = lo + (hi - lo) * i / 100
                values.append(payoff(g.x1, a, g.phi1) + payoff(g.x2, 1.0 - a, g.phi2))
            assert max(values) - min(values) <= 1e-9


class TestMirror:
    def test_mirror_swaps_players(self):
        m = mirror(G1)
        assert (m.phi1, m.phi2, m.x1, m.x2) == (1.2, 1.0, 1.5, 0.5)
        gn, swapped = normalize(m)
        assert gn == G1
        assert swapped is True


def boundary_budgets(phi1, phi2, xs, pairs=()):
    """The pairs given, and budget pairs on and one ulp either side of every case boundary.

    Boundaries in both frames, for each x: the proportional ray x2 = x1*phi2/phi1 (case 4 when x1 + x2 >= 1),
    the case 1/2 boundaries x1*x2 = phi2/phi1 and phi1/phi2, and the case 2/3
    boundaries sqrt(phi1*x1*x2/phi2) = 1 - x2 and its mirror at y = x/(1+x) < 1.
    """
    r = phi2 / phi1
    out = list(pairs)
    for x in xs:
        y = x / (1.0 + x)
        out += [
            (x, x * r),
            (phi1 * x, phi2 * x),
            (x, r / x),
            (x, 1.0 / (r * x)),
            ((1.0 - y) ** 2 * phi2 / (phi1 * y), y),
            (y, (1.0 - y) ** 2 * phi1 / (phi2 * y)),
        ]
    x1, x2 = np.array(out, dtype=float).reshape(-1, 2).T
    x1, x2 = np.tile(x1, 3), np.concatenate((x2, np.nextafter(x2, 0.0), np.nextafter(x2, np.inf)))
    keep = (x1 > 0.0) & (x2 > 0.0) & np.isfinite(x1) & np.isfinite(x2)
    return x1[keep], x2[keep]


def march_label(phi1, phi2, u, v):
    """The alliance march's label of one induced game: orient, then classify."""
    if phi2 * u > phi1 * v:
        return _response_f(phi2, phi1, v, u)[0], True
    return _response_f(phi1, phi2, u, v)[0], False


def assert_kernel_matches_scalar(phi1, phi2, x1, x2):
    """_payoffs_vec against _payoffs_any_f; phi1 and phi2 are floats or arrays of the budgets' shape."""
    games = zip(*(np.broadcast_to(v, x1.shape).tolist() for v in (phi1, phi2, x1, x2)))
    expected = [_payoffs_any_f(*game) for game in games]
    u1, u2 = _payoffs_vec(phi1, phi2, x1, x2)
    np.testing.assert_array_equal(u1, [e[0] for e in expected])
    np.testing.assert_array_equal(u2, [e[1] for e in expected])


def assert_twins_match_scalar(phi1, phi2, x1, x2):
    """_classify_vec's (case, q) against _response_f's case and its q, by repr so -0.0 counts."""
    _, p1, p2, y1, y2 = _orient_vec(phi1, phi2, x1, x2)
    case, q = _classify_vec(p1, p2, y1, y2)
    games = list(zip(p1.tolist(), p2.tolist(), y1.tolist(), y2.tolist()))
    assert case.tolist() == [_response_f(*game)[0] for game in games]
    assert [repr(v) for v in q.tolist()] == [repr(math.sqrt(a * c * d / b)) for a, b, c, d in games]


class TestArrayKernel:
    """The array kernel equals the scalar table and _payoffs_any_f bit for bit."""

    def test_boundaries_reach_every_label(self):
        x1, x2 = boundary_budgets(1.0, 1.2, [0.05, 0.3, 0.7, 1.5, 4.0])
        assert_kernel_matches_scalar(1.0, 1.2, x1, x2)
        assert_twins_match_scalar(1.0, 1.2, x1, x2)
        seen = {march_label(1.0, 1.2, a, b) for a, b in zip(x1.tolist(), x2.tolist())}
        assert seen >= {(c, f) for c in (1, 2, 3, 4) for f in (False, True)}

    @settings(max_examples=200, deadline=None)
    @given(
        log_uniform,
        log_uniform,
        st.lists(log_uniform, min_size=1, max_size=6),
        st.lists(st.tuples(log_uniform, log_uniform), max_size=6),
    )
    def test_matches_scalar_over_wide_range(self, phi1, phi2, xs, pairs):
        x1, x2 = boundary_budgets(phi1, phi2, xs, pairs)
        assert_kernel_matches_scalar(phi1, phi2, x1, x2)
        assert_twins_match_scalar(phi1, phi2, x1, x2)
        # the broadcast valuations the raster's alliance gain passes
        assert_kernel_matches_scalar(np.full(x1.shape, phi1), np.full(x1.shape, phi2), x1, x2)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(log_uniform, log_uniform, log_uniform), min_size=1, max_size=4))
    def test_array_valuations_match_scalar(self, games):
        # each element its own valuations, its budgets on that pair's boundaries
        parts = [(phi1, phi2, *boundary_budgets(phi1, phi2, [x])) for phi1, phi2, x in games]
        x1, x2 = (np.concatenate([part[k] for part in parts]) for k in (2, 3))
        phi1, phi2 = (np.concatenate([np.full(part[2].shape, part[k]) for part in parts]) for k in (0, 1))
        assert_kernel_matches_scalar(phi1, phi2, x1, x2)
