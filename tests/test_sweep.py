"""Raster, curve, and efficiency-sweep products used for figure reproduction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blotto_alliance import sweep, transfer_engine as te
from blotto_alliance.adversary_response import Case, GameParams, _frame, _proportional, mirror
from blotto_alliance.cli import main
from blotto_alliance.sweep import (
    Axis,
    SweepCell,
    SweepGrid,
    beta_sweep,
    payoff_curves,
    region_raster,
)
from support import CASE1_GAME, CASE3_GAME, CASE4_GAME, G1, decimal_induced_payoffs, decimal_payoffs, unit_game

SWEEP_GAMES = [G1, mirror(G1), GameParams(1.0, 1.2, 1.5, 4.5, 3.0), CASE1_GAME, CASE3_GAME, CASE4_GAME]
SWEEP_IDS = ["G1", "G1-mirrored", "G1-xa-3", "case-1", "case-3", "case-4"]
# Hypothesis draws of one positive parameter, log-uniform over six decades.
wide = st.floats(min_value=math.log(1e-3), max_value=math.log(1e3)).map(math.exp)
# A maximum is a real payoff when the 60-digit payoff of its transfer agrees this closely, relative to phi1 + phi2.
ATTAINED = 4 * 2.0**-52
# Hypothesis draws of a valuation or valuation ratio, log-uniform in [0.05, 20].
ratio = st.floats(min_value=math.log(0.05), max_value=math.log(20.0)).map(math.exp)

FIG_RASTER = SweepGrid(
    axes=(Axis("x1", 0.1, 3.0, 30), Axis("x2", 0.1, 3.0, 30)),
    fixed={"phi1": 1.2, "phi2": 1.0},
    beta_list=(0.25, 0.5, 1.0),
)


def scalar_region_raster(grid):
    """region_raster one cell at a time through the point path."""
    phi1, phi2 = grid.fixed["phi1"], grid.fixed["phi2"]
    by_name = {a.name: a for a in grid.axes}
    cells = []
    for beta in grid.beta_list:
        for x2 in by_name["x2"].values():
            for x1 in by_name["x1"].values():
                if phi2 * x1 > phi1 * x2:
                    cells.append(SweepCell(beta=beta, x1=x1, x2=x2, in_frame=False))
                    continue
                case, _, exists, _ = te._verdicts_f(phi1, phi2, x1, x2, beta)
                tau, _ = te.alliance_optimal(GameParams(phi1, phi2, x1, x2), beta)
                cells.append(SweepCell(beta, x1, x2, True, Case(case), exists, tau))
    return cells


def scalar_beta_sweep(g, beta_range, steps):
    """beta_sweep's columns other than the four maxima, one row at a time through the point path.

    Payoffs are read on the unit-adversary game, at the alliance transfer in the adversary's units.
    """
    lo, hi = beta_range
    game = unit_game(g)
    *oriented, swapped = _frame(g)
    u1_nom, u2_nom = te._induced_payoffs(*game, 0.0, 1.0)
    rows = []
    for i in range(steps):
        beta = min(lo + (hi - lo) * i / (steps - 1), hi)
        tau_dag, gain = te._alliance_optimal_f(*oriented, beta, te.in_g_dagger(g, beta), swapped, 1.0)
        assert (tau_dag * g.adversary_budget, gain) == te.alliance_optimal(g, beta)
        u1_dag, u2_dag = te._induced_payoffs(*game, tau_dag, beta)
        rows.append(
            (beta, u1_nom, u2_nom, u1_nom + u2_nom, u1_nom + u2_nom + gain,
             u1_dag, u2_dag, te.mb_exists(g, beta), tau_dag != 0.0)
        )
    return rows


MAXIMA = ("max_u1_mutual", "max_u2_mutual", "max_u1_any", "max_u2_any")


def grid_maxima(game, beta, taus):
    """The four maxima over a grid of unit-adversary transfers; the mutual ones where the other player does not lose."""
    u1_nom, u2_nom = te._induced_payoffs(*game, 0.0, 1.0)
    u1, u2 = te._induced_payoffs_vec(*game, taus, beta)
    return np.array([
        np.max(u1, where=u2 >= u2_nom, initial=-math.inf),
        np.max(u2, where=u1 >= u1_nom, initial=-math.inf),
        np.max(u1),
        np.max(u2),
    ])


def restated_maxima(g, beta_range, steps):
    """beta_sweep's four maxima from every candidate column, each 0.0 placeholder evaluated too.

    Returns the maxima, one row per beta, and the unit-adversary transfer that attains each.
    """
    betas = te._even_grid(*beta_range, steps)
    game = unit_game(g)
    x1, x2 = game[2:]
    u1_nom, u2_nom = te._induced_payoffs(*game, 0.0, 1.0)
    lo, hi = te._tau_bounds(x1, x2)
    with np.errstate(all="ignore"):
        by_2 = sweep._donation_candidates(g.phi1, g.phi2, u1_nom, u2_nom, x1, x2, betas, -lo)
        by_1 = sweep._donation_candidates(g.phi2, g.phi1, u2_nom, u1_nom, x2, x1, betas, hi)
    taus = np.hstack([np.broadcast_to([0.0, lo, hi], (steps, 3)), -by_2, by_1])
    u1, u2 = te._induced_payoffs_vec(*game, taus, betas[:, None])
    slack = 1e-12 * (g.phi1 + g.phi2)
    candidates = [np.where(u2 >= u2_nom - slack, u1, -math.inf), np.where(u1 >= u1_nom - slack, u2, -math.inf), u1, u2]
    at = np.column_stack([np.argmax(u, axis=1) for u in candidates])
    maxima = np.column_stack([np.max(u, axis=1) for u in candidates])
    return maxima, np.take_along_axis(taus, at, axis=1)


def in_case_4(phi1, phi2, u, v):
    """Whether budgets (u, v) put a unit-adversary game in case 4, either way round, as the library's band reads it."""
    return _proportional(phi2 * u, phi1 * v) and u + v >= 1.0


def assert_maxima_bracketed(g, beta_range, steps):
    """Each maximum is a real payoff, and no transfer of the reference grid beats it.

    Attained: at the candidate transfer that gives a maximum, the 60-digit payoff agrees with
    it within ATTAINED*(phi1 + phi2), and a mutual maximum's transfer keeps the other player
    above their 60-digit no-transfer payoff, less the sweep's slack and the same rounding. The
    slack cannot shrink to rounding: over 900 games log-uniform in [1e-3, 1e3] (seed 1, 20 betas),
    1,036 of 36,000 mutual maxima lie more than 4*2^-53*(phi1 + phi2) below the other player's
    60-digit no-transfer payoff, by up to 9.9e-13*(phi1 + phi2), at case-boundary candidates
    (785, 482 of them the 1e-12 steps beside a boundary) and at crossing roots (251). The
    reference takes the proportional split wherever the library's band puts the budgets in case 4.
    Not beaten: the 2,002-point reference grid (the domain grid and 0), whose mutual columns
    take the other player's constraint without slack, reads at most 1e-12*(phi1 + phi2) more.
    """
    game = unit_game(g)
    scale = g.phi1 + g.phi2
    reference = np.append(te._even_grid(*te._tau_bounds(*game[2:]), te._DOMAIN_POINTS), 0.0)
    nominal = decimal_payoffs(*game, in_case_4(*game))
    _, taus = restated_maxima(g, beta_range, steps)
    for row, at in zip(beta_sweep(g, beta_range, steps), taus.tolist()):
        got = np.array([getattr(row, name) for name in MAXIMA])
        below = grid_maxima(game, row.beta, reference) - 1e-12 * scale
        assert np.all(below <= got), (g, row.beta, dict(zip(MAXIMA, got - below)))
        for k, (name, value, tau) in enumerate(zip(MAXIMA, got.tolist(), at)):
            band = in_case_4(*game[:2], *te._induced_budgets(*game[2:], tau, row.beta))
            exact = decimal_induced_payoffs(*game, tau, row.beta, band)
            player = k % 2
            assert abs(float(exact[player]) - value) <= ATTAINED * scale, (g, row.beta, name, tau)
            if k < 2:
                other = 1 - player
                assert float(exact[other] - nominal[other]) >= -(1e-12 + ATTAINED) * scale, (g, row.beta, name, tau)


def reprs(records):
    """Record reprs, which name the type and tell -0.0 from 0.0 where == does not."""
    return [repr(r) for r in records]


@pytest.mark.filterwarnings("error")
class TestRegionRaster:
    def test_mirrored_reference_point_is_out_of_frame(self):
        # with phi1=1.2, phi2=1 the point (x1, x2) = (1.5, 0.5) violates the
        # orientation predicate phi2/phi1 <= x2/x1 and is only marked
        grid = SweepGrid(
            axes=(Axis("x1", 0.5, 1.5, 3), Axis("x2", 0.5, 1.5, 3)),
            fixed={"phi1": 1.2, "phi2": 1.0},
            beta_list=(1.0,),
        )
        cells = {(c.x1, c.x2): c for c in region_raster(grid)}
        cell = cells[(1.5, 0.5)]
        assert not cell.in_frame
        assert cell.case_label is None and cell.mb_exists is None and cell.tau_dagger is None

    def test_frame_predicate(self):
        for cell in region_raster(FIG_RASTER):
            assert cell.in_frame == (1.0 * cell.x1 <= 1.2 * cell.x2)

    def test_mb_region_nested_in_nonzero_alliance_region(self):
        for cell in region_raster(FIG_RASTER):
            if cell.in_frame and cell.mb_exists:
                assert cell.tau_dagger != 0.0

    def test_regions_monotone_in_beta(self):
        by_beta = {}
        for cell in region_raster(FIG_RASTER):
            if cell.in_frame:
                by_beta.setdefault(cell.beta, {})[(cell.x1, cell.x2)] = cell
        for low, high in [(0.25, 0.5), (0.5, 1.0)]:
            for key, cell_low in by_beta[low].items():
                cell_high = by_beta[high][key]
                if cell_low.mb_exists:
                    assert cell_high.mb_exists
                if cell_low.tau_dagger != 0.0:
                    assert cell_high.tau_dagger != 0.0

    def test_row_major_order_and_determinism(self):
        first = region_raster(FIG_RASTER)
        second = region_raster(FIG_RASTER)
        assert first == second
        betas = [c.beta for c in first]
        assert betas == sorted(betas)
        x1_values = [c.x1 for c in first[:30]]
        assert x1_values == sorted(x1_values)

    @pytest.mark.parametrize(
        "grid",
        [
            FIG_RASTER,
            # five decades at phi2/phi1 = 1/15: cases 1-3
            SweepGrid(
                axes=(Axis("x1", 0.001, 50.0, 25), Axis("x2", 0.001, 50.0, 25)),
                fixed={"phi1": 3.0, "phi2": 0.2},
                beta_list=(0.1, 0.6, 1.0),
            ),
            # phi1 = phi2 puts the diagonal on the proportional ray: case 4 cells
            SweepGrid(
                axes=(Axis("x1", 0.05, 3.0, 30), Axis("x2", 0.05, 3.0, 30)),
                fixed={"phi1": 1.0, "phi2": 1.0},
                beta_list=(0.01, 0.3, 0.9),
            ),
        ],
        ids=["figure", "wide", "diagonal"],
    )
    def test_equals_the_point_path(self, grid):
        assert reprs(region_raster(grid)) == reprs(scalar_region_raster(grid))

    @settings(max_examples=40, deadline=None)
    @given(
        ratio,
        ratio,
        st.integers(2, 12),
        st.integers(2, 12),
        st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3),
        st.booleans(),
    )
    def test_equals_the_point_path_on_non_square_grids(self, phi1, phi2_over_phi1, x1_steps, x2_steps, betas, x2_first):
        # x2 spans [0.5, 2] and x1 spans [r/4, 4r] with r = phi1/phi2, so the frame's
        # edge x1 = r*x2 cuts every row: each starts in frame and ends out of it
        phi2 = phi1 * phi2_over_phi1
        r = phi1 / phi2
        axes = (Axis("x1", r / 4, 4 * r, x1_steps), Axis("x2", 0.5, 2.0, x2_steps))
        grid = SweepGrid(axes[::-1] if x2_first else axes, {"phi1": phi1, "phi2": phi2}, tuple(betas))
        cells = region_raster(grid)
        assert len(cells) == len(betas) * x2_steps * x1_steps
        rows = [cells[i:i + x1_steps] for i in range(0, len(cells), x1_steps)]
        assert all(row[0].in_frame and not row[-1].in_frame for row in rows)
        assert reprs(cells) == reprs(scalar_region_raster(grid))

    def test_cell_contract(self, capsys):
        cells = region_raster(FIG_RASTER)
        inside = next(c for c in cells if c.in_frame)
        outside = next(c for c in cells if not c.in_frame)
        with pytest.raises(AttributeError):
            inside.tau_dagger = 0.0
        assert all(c.case_label is Case(int(c.case_label)) for c in cells if c.in_frame)
        assert outside[-3:] == (None, None, None)
        # a cell is a tuple: equal to the plain tuple of its values
        assert inside == tuple(inside) and outside == (outside.beta, outside.x1, outside.x2, False, None, None, None)
        # the fields in the region CSV's column order, case_label under the column "case"
        assert main([
            "region", "--phi1", "1.2", "--phi2", "1", "--beta-list", "0.5",
            "--x1-min", "0.5", "--x1-max", "1", "--x2-min", "0.5", "--x2-max", "1", "--resolution", "2",
        ]) == 0
        header = capsys.readouterr().out.splitlines()[0].split(",")
        assert header == [name.replace("case_label", "case") for name in SweepCell._fields]

    @pytest.mark.parametrize(
        "grid",
        [
            FIG_RASTER,
            SweepGrid(
                axes=(Axis("x1", 2.0, 3.0, 3), Axis("x2", 0.1, 0.2, 3)),
                fixed={"phi1": 1.0, "phi2": 1.0},
                beta_list=(0.5,),
            ),
            # (1, 0.5) is out of frame, the other three cells in it
            SweepGrid(
                axes=(Axis("x1", 0.5, 1.0, 2), Axis("x2", 0.5, 1.0, 2)),
                fixed={"phi1": 1.2, "phi2": 1.0},
                beta_list=(0.5, 1.0),
            ),
        ],
        ids=["figure", "all-out-of-frame", "2x2"],
    )
    def test_cells_are_whole_and_hold_python_values(self, grid):
        # tuple.__new__ builds the cells and checks no arity, so each is checked here
        cells = region_raster(grid)
        assert len(cells) == len(grid.beta_list) * math.prod(a.steps for a in grid.axes)
        for cell in cells:
            assert type(cell) is SweepCell and len(cell) == 7
            assert [type(v) for v in cell[:4]] == [float, float, float, bool]
            if cell.in_frame:
                assert any(cell.case_label is member for member in Case)
                assert type(cell.mb_exists) is bool and type(cell.tau_dagger) is float
            else:
                assert all(v is None for v in cell[4:])

    def test_all_cells_out_of_frame(self):
        grid = SweepGrid(
            axes=(Axis("x1", 2.0, 3.0, 3), Axis("x2", 0.1, 0.2, 3)),
            fixed={"phi1": 1.0, "phi2": 1.0},
            beta_list=(0.5,),
        )
        assert reprs(region_raster(grid)) == reprs(scalar_region_raster(grid))

    def test_budgets_below_1e_100_match_the_point_path(self):
        # every in-frame cell is a case-3 game whose threshold, 2R + x1/x2, is near 2e-5
        grid = SweepGrid(
            axes=(Axis("x1", 1e-120, 2e-120, 2), Axis("x2", 1e-110, 2e-110, 2)),
            fixed={"phi1": 1.0, "phi2": 1.0},
            beta_list=(0.5,),
        )
        cells = region_raster(grid)
        assert reprs(cells) == reprs(scalar_region_raster(grid))
        assert all(c.in_frame and c.case_label == 3 and c.mb_exists and c.tau_dagger < 0.0 for c in cells)

    def test_first_failing_cell_is_the_point_paths(self):
        # the marches of both cells at x2 = 1 overflow; the error names the first
        grid = SweepGrid(
            axes=(Axis("x1", 1e200, 2e200, 2), Axis("x2", 1.0, 1e103, 2)),
            fixed={"phi1": 1e300, "phi2": 1.0},
            beta_list=(0.5,),
        )
        with pytest.raises(ValueError, match="alliance march") as array:
            region_raster(grid)
        with pytest.raises(ValueError) as scalar:
            scalar_region_raster(grid)
        with pytest.raises(ValueError) as point:
            te.analyze(GameParams(1e300, 1.0, 1e200, 1.0), 0.5)
        assert str(array.value) == str(scalar.value) == str(point.value)

    def test_configuration_errors(self):
        with pytest.raises(ValueError, match="steps"):
            Axis("x1", 0.1, 1.0, 1)
        with pytest.raises(ValueError, match="lower"):
            Axis("x1", 2.0, 1.0, 5)
        with pytest.raises(ValueError, match="axis x1: upper must be finite, got inf"):
            Axis("x1", 0.1, math.inf, 3)
        with pytest.raises(ValueError, match="phi1 and phi2 must be positive"):
            region_raster(
                SweepGrid(
                    axes=(Axis("x1", 0.5, 1.0, 2), Axis("x2", 0.5, 1.0, 2)),
                    fixed={"phi1": 1.0, "phi2": math.inf},
                    beta_list=(0.5,),
                )
            )
        with pytest.raises(ValueError, match="beta"):
            SweepGrid(axes=(Axis("x1", 0.1, 1.0, 3),), fixed={}, beta_list=(1.5,))
        with pytest.raises(ValueError, match="beta_list must be nonempty"):
            SweepGrid(axes=(Axis("x1", 0.1, 1.0, 3),), fixed={}, beta_list=())
        with pytest.raises(ValueError, match="fixes exactly"):
            SweepGrid(
                axes=(Axis("x1", 0.1, 1.0, 3), Axis("x2", 0.1, 1.0, 3)),
                fixed={"x1": 1.0},
                beta_list=(0.5,),
            )
        with pytest.raises(ValueError, match="sweeps exactly"):
            region_raster(
                SweepGrid(
                    axes=(Axis("x1", 0.1, 1.0, 3), Axis("phi", 0.1, 1.0, 3)),
                    fixed={"phi1": 1.0, "phi2": 1.0},
                    beta_list=(0.5,),
                )
            )


class TestPayoffCurves:
    def test_lossless_has_contiguous_mutual_range(self):
        rows = payoff_curves(G1, 1.0, (-1.5, 0.5), 2001)
        mutual = [i for i, (_, du1, du2, _) in enumerate(rows) if du1 > 0 and du2 > 0]
        assert mutual
        assert mutual == list(range(mutual[0], mutual[-1] + 1))

    def test_half_efficiency_has_no_mutual_rows(self):
        rows = payoff_curves(G1, 0.5, (-1.5, 0.5), 2001)
        assert not any(du1 > 0 and du2 > 0 for _, du1, du2, _ in rows)

    def test_row_nearest_zero_has_vanishing_deltas(self):
        rows = payoff_curves(G1, 0.7, (-1.0, 0.25), 501)
        tau, du1, du2, u12 = min(rows, key=lambda r: abs(r[0]))
        assert abs(tau) < 1e-2
        assert abs(du1) <= 1e-9 and abs(du2) <= 1e-9

    def test_grid_row_at_exact_zero_is_exact(self):
        rows = payoff_curves(G1, 0.7, (-0.5, 0.5), 3)
        tau, du1, du2, _ = rows[1]
        assert tau == 0.0 and du1 == 0.0 and du2 == 0.0

    def test_range_violation(self):
        with pytest.raises(ValueError, match="tau range"):
            payoff_curves(G1, 1.0, (-2.0, 0.4), 10)
        with pytest.raises(ValueError, match="tau range"):
            payoff_curves(G1, 1.0, (-1.0, 0.6), 10)
        for beta in (0.0, 1.5):
            with pytest.raises(ValueError, match="beta"):
                payoff_curves(G1, beta, (-1.0, 0.4), 10)


@pytest.mark.filterwarnings("error")
class TestBetaSweep:
    def test_mutual_flag_switch_brackets_threshold(self):
        rows = beta_sweep(G1, (0.4, 0.6), 201)
        switches = [
            (a.beta, b.beta)
            for a, b in zip(rows, rows[1:])
            if a.mb_exists != b.mb_exists
        ]
        assert len(switches) == 1
        lo, hi = switches[0]
        assert lo <= 0.5099407093782344 <= hi

    def test_alliance_flag_switch_brackets_threshold(self):
        rows = beta_sweep(G1, (0.05, 0.12), 141)
        switches = [
            (a.beta, b.beta)
            for a, b in zip(rows, rows[1:])
            if a.alliance_nonzero != b.alliance_nonzero
        ]
        assert len(switches) == 1
        lo, hi = switches[0]
        assert lo <= 0.08830368802245058 <= hi

    def test_max_alliance_payoff_dominates_nominal_and_grows(self):
        rows = beta_sweep(G1, (0.05, 1.0), 40)
        for row in rows:
            assert row.max_u12 >= row.u12_nominal - 1e-12
            assert row.max_u1_mutual >= row.u1_nominal - 1e-12
            assert row.max_u2_mutual >= row.u2_nominal - 1e-12
            assert row.max_u1_any >= row.max_u1_mutual - 1e-12
            assert row.max_u2_any >= row.max_u2_mutual - 1e-12
        for a, b in zip(rows, rows[1:]):
            assert b.max_u12 >= a.max_u12 - 1e-9

    @pytest.mark.parametrize("game", SWEEP_GAMES, ids=SWEEP_IDS)
    def test_rows_equal_the_point_path(self, game):
        # every column but the four maxima, which the grid tests below bracket
        for beta_range, steps in [((0.05, 1.0), 20), ((0.01, 0.2), 37)]:
            rows = [dataclasses.astuple(r) for r in beta_sweep(game, beta_range, steps)]
            point = [r[:4] + r[8:] for r in rows]
            assert list(map(repr, point)) == list(map(repr, scalar_beta_sweep(game, beta_range, steps)))

    @pytest.mark.parametrize("steps", [20, 1000])
    @pytest.mark.parametrize(
        "game",
        [*SWEEP_GAMES, GameParams(1.2, 1.0, 1.5, 0.5, 2.0)],
        ids=[*SWEEP_IDS, "G1-swapped-xa-2"],
    )
    def test_maxima_equal_every_candidate_evaluated(self, game, steps):
        # the sweep evaluates only real candidates and fills the rest with the nominal payoffs
        rows = beta_sweep(game, (0.05, 1.0), steps)
        got = np.array([[getattr(row, name) for name in MAXIMA] for row in rows])
        assert got.tobytes() == restated_maxima(game, (0.05, 1.0), steps)[0].tobytes()

    @pytest.mark.parametrize("game", SWEEP_GAMES, ids=SWEEP_IDS)
    def test_maxima_lie_between_grid_readings(self, game):
        for beta_range, steps in [((0.05, 1.0), 20), ((0.01, 0.2), 37)]:
            assert_maxima_bracketed(game, beta_range, steps)

    @settings(max_examples=60, deadline=None)
    @given(wide, wide, wide, wide, wide)
    # max_u2_any is a real payoff on a spike past a jump near tau = 54.596, narrower than one
    # step of a 20,001-point grid, so a bracket of that grid's maximum plus its largest
    # one-step change once read below it
    @example(math.exp(-3), math.exp(4), math.exp(4), math.exp(-6.5), math.e)
    def test_maxima_lie_between_grid_readings_over_a_wide_box(self, phi1, phi2, x1, x2, xa):
        assert_maxima_bracketed(GameParams(phi1, phi2, x1, x2, xa), (0.05, 1.0), 4)

    @pytest.mark.parametrize(
        "game, beta_range, name, at_least",
        [
            # player 2's payoff jumps at the proportional ray: read only at the band's
            # edges, max_u2_mutual was 1.637; a 100,001-point grid reads 2.10451
            (
                GameParams(1.9448803691156142, 4.142876112048367, 0.5488471256549139, 0.2924225035709374, 0.5232918073375491),
                (0.4, 0.8), "max_u2_mutual", 2.1045,
            ),
            # player 2's payoff all but jumps where case 1 meets case 3 on its tiny budget:
            # read only at the boundary, max_u1_mutual was 168.33488; a 1,000,001-point
            # grid reads 168.33788
            (
                GameParams(973.6541973418985, 0.002969054901884881, 17.517181170557876, 262.39717393298355, 232.77987255539705),
                (0.05, 0.24), "max_u1_mutual", 168.3378,
            ),
            # the game sits on the proportional ray at t = 0, where a step of 1e-12 of t
            # stays inside the band: max_u1_any was 0.915
            (GameParams(1.0, 1.0, 1.0, 1.0), (0.025, 0.05), "max_u1_any", 0.99999),
        ],
        ids=["proportional-ray", "case-1-edge", "proportional-at-zero"],
    )
    def test_maximum_read_on_both_sides_of_a_jump(self, game, beta_range, name, at_least):
        row = beta_sweep(game, beta_range, 2)[-1]
        assert row.beta == beta_range[1]
        assert getattr(row, name) >= at_least
        assert_maxima_bracketed(game, beta_range, 2)

    def test_failing_rows_raise_the_point_paths_error_for_the_first_failing_beta(self, monkeypatch):
        # a march that donates 1.4 loses for G1 outside G-dagger (see test_transfer_engine)
        march = te._march_alliance
        monkeypatch.setattr(te, "_march_alliance", lambda *args: (march(*args), 1.4)[1])
        with pytest.raises(te.InternalInconsistencyError) as swept:
            beta_sweep(G1, (0.05, 1.0), 20)
        betas = (0.05 + 0.95 * np.arange(20) / 19).tolist()
        assert te.alliance_optimal(G1, betas[0]) == (0.0, 0.0)  # in G-dagger: no march, no error
        with pytest.raises(te.InternalInconsistencyError) as point:
            te.alliance_optimal(G1, betas[1])
        assert swept.value.diagnostics == point.value.diagnostics
        assert str(swept.value) == str(point.value)

    def test_rows_stay_inside_the_beta_range(self, rng):
        # lo + (hi - lo)*k/(steps - 1) rounds past hi = 1 at k = steps - 1 for
        # about one decimal lo in 75 (1 - lo is exact for a multiple of 2**-53,
        # so a plain uniform draw never overshoots); run every such draw of
        # 1,000 and ten others
        lo = rng.integers(1, 1000, size=1000) / 1000
        steps = rng.integers(2, 200, size=1000)
        overshoots = lo + (1.0 - lo) * (steps - 1) / (steps - 1) > 1.0
        assert overshoots.sum() >= 5
        picked = np.concatenate([np.flatnonzero(overshoots), np.flatnonzero(~overshoots)[:10]])
        for lo_k, steps_k in [(0.075, 83), (0.291, 57), *zip(lo[picked].tolist(), steps[picked].tolist())]:
            betas = [row.beta for row in beta_sweep(G1, (lo_k, 1.0), steps_k)]
            assert betas[0] == lo_k and all(lo_k <= b <= 1.0 for b in betas)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="beta range"):
            beta_sweep(G1, (0.0, 1.0), 10)
        with pytest.raises(ValueError, match="beta range"):
            beta_sweep(G1, (0.5, 1.2), 10)
