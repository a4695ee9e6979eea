"""Raster, curve, and efficiency-sweep products used for figure reproduction."""

import dataclasses
import math

import numpy as np
import pytest

from blotto_alliance import transfer_engine as te
from blotto_alliance.adversary_response import Case, GameParams, mirror
from blotto_alliance.sweep import (
    Axis,
    BetaSweepRow,
    SweepCell,
    SweepGrid,
    beta_sweep,
    payoff_curves,
    region_raster,
)
from support import CASE1_GAME, CASE3_GAME, CASE4_GAME, G1

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
                case, threshold, exists = te._mutual_benefit_f(phi1, phi2, x1, x2, beta)
                tau, gain = te.alliance_optimal(GameParams(phi1, phi2, x1, x2), beta)
                cells.append(SweepCell(beta, x1, x2, True, Case(case), exists, tau, threshold, gain))
    return cells


def scalar_beta_sweep(g, beta_range, steps):
    """beta_sweep one row at a time, the alliance columns through the point path."""
    lo, hi = beta_range
    u1_nom, u2_nom = te._induced_payoffs(g, 0.0, 1.0)
    taus = np.append(te._domain_grid(g.x1, g.x2), 0.0)
    rows = []
    for i in range(steps):
        beta = lo + (hi - lo) * i / (steps - 1)
        u1, u2 = te._induced_payoffs_vec(g, taus, beta)
        tau_dag, gain = te.alliance_optimal(g, beta)
        u1_dag, u2_dag = te._induced_payoffs(g, tau_dag, beta)
        rows.append(
            BetaSweepRow(
                beta, u1_nom, u2_nom, u1_nom + u2_nom,
                float(np.max(u1, where=u2 >= u2_nom - 1e-12, initial=-math.inf)),
                float(np.max(u2, where=u1 >= u1_nom - 1e-12, initial=-math.inf)),
                float(np.max(u1)), float(np.max(u2)), u1_nom + u2_nom + gain,
                u1_dag, u2_dag, te.mb_exists(g, beta), tau_dag != 0.0,
            )
        )
    return rows


def reprs(records):
    """Dataclass reprs, which tell -0.0 from 0.0 where == does not."""
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

    def test_all_cells_out_of_frame(self):
        grid = SweepGrid(
            axes=(Axis("x1", 2.0, 3.0, 3), Axis("x2", 0.1, 0.2, 3)),
            fixed={"phi1": 1.0, "phi2": 1.0},
            beta_list=(0.5,),
        )
        assert reprs(region_raster(grid)) == reprs(scalar_region_raster(grid))

    def test_threshold_out_of_float_range(self):
        # x2**3 underflows to 0 in every in-frame cell
        grid = SweepGrid(
            axes=(Axis("x1", 1e-120, 2e-120, 2), Axis("x2", 1e-110, 2e-110, 2)),
            fixed={"phi1": 1.0, "phi2": 1.0},
            beta_list=(0.5,),
        )
        with pytest.raises(ValueError, match="underflows to 0") as array:
            region_raster(grid)
        with pytest.raises(ValueError) as scalar:
            te._mb_threshold_f(1.0, 1.0, 1e-120, 1e-110)
        assert str(array.value) == str(scalar.value)

    def test_configuration_errors(self):
        with pytest.raises(ValueError, match="steps"):
            Axis("x1", 0.1, 1.0, 1)
        with pytest.raises(ValueError, match="lower"):
            Axis("x1", 2.0, 1.0, 5)
        with pytest.raises(ValueError, match="beta"):
            SweepGrid(axes=(Axis("x1", 0.1, 1.0, 3),), fixed={}, beta_list=(1.5,))
        with pytest.raises(ValueError, match="overlap"):
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

    @pytest.mark.parametrize(
        "game",
        [G1, mirror(G1), GameParams(1.0, 1.2, 1.5, 4.5, 3.0), CASE1_GAME, CASE3_GAME, CASE4_GAME],
        ids=["G1", "G1-mirrored", "G1-xa-3", "case-1", "case-3", "case-4"],
    )
    def test_rows_equal_the_point_path(self, game):
        for beta_range, steps in [((0.05, 1.0), 20), ((0.01, 0.2), 37)]:
            rows = beta_sweep(game, beta_range, steps)
            assert reprs(rows) == reprs(scalar_beta_sweep(game, beta_range, steps))

    def test_range_validation(self):
        with pytest.raises(ValueError, match="beta range"):
            beta_sweep(G1, (0.0, 1.0), 10)
        with pytest.raises(ValueError, match="beta range"):
            beta_sweep(G1, (0.5, 1.2), 10)
