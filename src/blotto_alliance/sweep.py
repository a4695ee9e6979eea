"""Parameter rasters and efficiency sweeps for figure reproduction.

Three products: a raster over the (x1, x2) budget plane showing where
mutually beneficial transfers exist and where the alliance-optimal transfer
is nonzero; payoff-change curves along the transfer axis for one game; and
a sweep over the efficiency beta tabulating attainable payoff maxima.

Rasters depict only the oriented half plane phi2/phi1 <= x2/x1; cells on
the other side are marked out of frame and carry no analysis fields.

The raster sends every in-frame cell at every beta through one array pass of
the alliance march, and the beta sweep sends all its beta rows through one;
both equal the scalar point path bit for bit. The beta sweep still scans its
transfer grid one beta row at a time.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from blotto_alliance.adversary_response import Case, GameParams, _classify_vec, normalize
from blotto_alliance.transfer_engine import (
    _alliance_optimal_vec,
    _check_beta,
    _domain_grid,
    _induced_payoffs,
    _induced_payoffs_vec,
    _mb_exists_rule,
    _mb_threshold_vec,
    _mutual_benefit_f,
    _tau_bounds,
)


@dataclass(frozen=True)
class Axis:
    name: str
    lower: float
    upper: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError(f"axis {self.name}: steps must be >= 2, got {self.steps}")
        if not (self.lower < self.upper):
            raise ValueError(f"axis {self.name}: lower must be < upper")
        if not (self.lower > 0):
            raise ValueError(f"axis {self.name}: lower must be positive for budget axes")

    def values(self) -> list[float]:
        span = self.upper - self.lower
        return [self.lower + span * i / (self.steps - 1) for i in range(self.steps)]


@dataclass(frozen=True)
class SweepGrid:
    axes: tuple[Axis, ...]
    fixed: dict
    beta_list: tuple[float, ...]

    def __post_init__(self):
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("swept axis names must be distinct")
        overlap = set(names) & set(self.fixed)
        if overlap:
            raise ValueError(f"swept parameters overlap fixed ones: {sorted(overlap)}")
        if not self.beta_list:
            raise ValueError("beta_list must be nonempty")
        _check_beta(*self.beta_list)


@dataclass(frozen=True)
class SweepCell:
    beta: float
    x1: float
    x2: float
    in_frame: bool
    case_label: Case | None = None
    mb_exists: bool | None = None
    tau_dagger: float | None = None
    mb_beta_threshold: float | None = None
    alliance_gain: float | None = None


def region_raster(grid: SweepGrid) -> list[SweepCell]:
    """One cell per (beta, x2, x1) triple, row-major with x1 varying fastest.

    Raises ValueError, as the point path does, when an in-frame cell's
    mutual-benefit threshold or alliance march leaves the float range.
    """
    names = {a.name for a in grid.axes}
    if names != {"x1", "x2"}:
        raise ValueError(f"region raster sweeps exactly x1 and x2, got {sorted(names)}")
    if set(grid.fixed) != {"phi1", "phi2"}:
        raise ValueError(f"region raster fixes exactly phi1 and phi2, got {sorted(grid.fixed)}")
    phi1 = float(grid.fixed["phi1"])
    phi2 = float(grid.fixed["phi2"])
    if not (phi1 > 0 and phi2 > 0):
        raise ValueError("phi1 and phi2 must be positive")
    by_name = {a.name: a for a in grid.axes}
    x1_values = by_name["x1"].values()
    x2_values = by_name["x2"].values()

    x1_grid, x2_grid = np.meshgrid(x1_values, x2_values)
    with np.errstate(over="ignore"):  # the products overflow silently on Python floats
        in_frame = ~(phi2 * x1_grid > phi1 * x2_grid)
    # an in-frame cell is its own oriented unit-adversary game
    x1_in, x2_in = x1_grid[in_frame], x2_grid[in_frame]
    if x1_in.size:
        # the first cell with a non-finite budget, else any: GameParams names the bad field
        k = int(np.argmin(np.isfinite(x1_in) & np.isfinite(x2_in)))
        GameParams(phi1, phi2, x1_in[k].item(), x2_in[k].item())
    with np.errstate(all="ignore"):
        case = _classify_vec(phi1, phi2, x1_in, x2_in)
    threshold = _mb_threshold_vec(phi1, phi2, x1_in, x2_in)
    betas = np.array(grid.beta_list)[:, None]
    tau_dagger, gain = _alliance_optimal_vec(phi1, phi2, x1_in, x2_in, betas)
    exists = _mb_exists_rule(case, threshold, betas)

    labels = [Case(c) for c in case.tolist()]
    thresholds = threshold.tolist()
    frame = in_frame.ravel().tolist()
    cells = []
    per_beta = zip(grid.beta_list, exists.tolist(), tau_dagger.tolist(), gain.tolist())
    for beta, exists_row, tau_row, gain_row in per_beta:
        fields = zip(labels, exists_row, tau_row, thresholds, gain_row)
        for (x2, x1), inside in zip(itertools.product(x2_values, x1_values), frame):
            if not inside:
                cells.append(SweepCell(beta=beta, x1=x1, x2=x2, in_frame=False))
                continue
            label, cell_exists, cell_tau, cell_threshold, cell_gain = next(fields)
            cells.append(
                SweepCell(
                    beta=beta,
                    x1=x1,
                    x2=x2,
                    in_frame=True,
                    case_label=label,
                    mb_exists=cell_exists,
                    tau_dagger=cell_tau,
                    mb_beta_threshold=cell_threshold,
                    alliance_gain=cell_gain,
                )
            )
    return cells


def payoff_curves(
    g: GameParams, beta: float, tau_range: tuple[float, float], steps: int
) -> list[tuple[float, float, float, float]]:
    """Rows (tau, du1, du2, u12) at evenly spaced transfers over tau_range."""
    _check_beta(beta)
    lo, hi = tau_range
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not (lo < hi):
        raise ValueError("tau range must satisfy lo < hi")
    if lo < -g.x2 or hi > g.x1:
        raise ValueError(f"tau range must lie within (-{g.x2}, {g.x1})")
    u1_base, u2_base = _induced_payoffs(g, 0.0, beta)
    eps_lo, eps_hi = _tau_bounds(g.x1, g.x2)
    taus = np.minimum(np.maximum(lo + (hi - lo) * np.arange(steps) / (steps - 1), eps_lo), eps_hi)
    u1, u2 = _induced_payoffs_vec(g, taus, beta)
    columns = (taus, u1 - u1_base, u2 - u2_base, u1 + u2)
    return list(zip(*(c.tolist() for c in columns)))


@dataclass(frozen=True)
class BetaSweepRow:
    beta: float
    u1_nominal: float
    u2_nominal: float
    u12_nominal: float
    max_u1_mutual: float
    max_u2_mutual: float
    max_u1_any: float
    max_u2_any: float
    max_u12: float
    u1_at_alliance_opt: float
    u2_at_alliance_opt: float
    mb_exists: bool
    alliance_nonzero: bool


def beta_sweep(
    g: GameParams,
    beta_range: tuple[float, float],
    steps: int,
) -> list[BetaSweepRow]:
    """Attainable payoff maxima per efficiency value.

    The mutual columns maximize one player's payoff over transfers that do
    not push the other player below their no-transfer payoff; the any
    columns drop that constraint; max_u12 uses the exact alliance optimum.
    Payoffs at the alliance-optimal transfer are tabulated separately since
    that transfer generally favors one player.
    """
    lo, hi = beta_range
    if not (0.0 < lo < hi <= 1.0):
        raise ValueError(f"beta range must satisfy 0 < lo < hi <= 1, got ({lo}, {hi})")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")

    gn, orientation = normalize(g)
    phi1, phi2, x1, x2 = gn.phi1, gn.phi2, gn.x1, gn.x2
    betas = lo + (hi - lo) * np.arange(steps) / (steps - 1)
    exists = _mutual_benefit_f(phi1, phi2, x1, x2, betas)[2]
    u1_nom, u2_nom = _induced_payoffs(g, 0.0, 1.0)
    u12_nom = u1_nom + u2_nom
    tau_dag, gain = _alliance_optimal_vec(phi1, phi2, x1, x2, betas, orientation.swapped, g.adversary_budget)
    u1_dag, u2_dag = _induced_payoffs_vec(g, tau_dag, betas)

    taus = np.append(_domain_grid(g.x1, g.x2), 0.0)
    rows = []
    alliance = zip(u1_dag.tolist(), u2_dag.tolist(), (u12_nom + gain).tolist(), (tau_dag != 0.0).tolist())
    for beta, (u1_at, u2_at, max_u12, nonzero), mb in zip(betas.tolist(), alliance, exists.tolist()):
        # one beta row at a time keeps every temporary one tau grid long
        u1, u2 = _induced_payoffs_vec(g, taus, beta)
        max_u1_mut = float(np.max(u1, where=u2 >= u2_nom - 1e-12, initial=-math.inf))
        max_u2_mut = float(np.max(u2, where=u1 >= u1_nom - 1e-12, initial=-math.inf))
        rows.append(
            BetaSweepRow(
                beta=beta,
                u1_nominal=u1_nom,
                u2_nominal=u2_nom,
                u12_nominal=u12_nom,
                max_u1_mutual=max_u1_mut,
                max_u2_mutual=max_u2_mut,
                max_u1_any=float(np.max(u1)),
                max_u2_any=float(np.max(u2)),
                max_u12=max_u12,
                u1_at_alliance_opt=u1_at,
                u2_at_alliance_opt=u2_at,
                mb_exists=mb,
                alliance_nonzero=nonzero,
            )
        )
    return rows


__all__ = [
    "Axis",
    "BetaSweepRow",
    "SweepCell",
    "SweepGrid",
    "beta_sweep",
    "payoff_curves",
    "region_raster",
]
