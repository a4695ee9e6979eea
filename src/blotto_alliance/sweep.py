"""Parameter rasters and efficiency sweeps for figure reproduction.

Three products: a raster over the (x1, x2) budget plane showing where
mutually beneficial transfers exist and where the alliance-optimal transfer
is nonzero; payoff-change curves along the transfer axis for one game; and
a sweep over the efficiency beta tabulating attainable payoff maxima.

Rasters depict only the oriented half plane phi2/phi1 <= x2/x1; cells on
the other side are marked out of frame and carry no analysis fields.

The raster sends every in-frame cell at every beta through one call of
transfer_engine._analyze_vec, which equals the scalar point path bit for
bit and raises its error for the first failing (beta, cell). The beta
sweep's rows are point queries, one beta at a time.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from blotto_alliance.adversary_response import Case, GameParams
from blotto_alliance.transfer_engine import (
    _analyze_vec,
    _check_beta,
    _domain_grid,
    _induced_payoffs,
    _induced_payoffs_vec,
    _tau_bounds,
    alliance_optimal,
    mb_exists,
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
    """The raster's grid: x1 and x2 swept, phi1 and phi2 fixed, one raster per beta."""

    axes: tuple[Axis, ...]
    fixed: dict
    beta_list: tuple[float, ...]

    def __post_init__(self):
        if not self.beta_list:
            raise ValueError("beta_list must be nonempty")
        _check_beta(*self.beta_list)
        names = [a.name for a in self.axes]
        if sorted(names) != ["x1", "x2"]:
            raise ValueError(f"region raster sweeps exactly x1 and x2, got {sorted(names)}")
        if sorted(self.fixed) != ["phi1", "phi2"]:
            raise ValueError(f"region raster fixes exactly phi1 and phi2, got {sorted(self.fixed)}")


@dataclass(frozen=True)
class SweepCell:
    beta: float
    x1: float
    x2: float
    in_frame: bool
    case_label: Case | None = None
    mb_exists: bool | None = None
    tau_dagger: float | None = None


def region_raster(grid: SweepGrid) -> list[SweepCell]:
    """One cell per (beta, x2, x1) triple, row-major with x1 varying fastest.

    Raises the point path's error for the first failing in-frame cell in
    that order, as when its mutual-benefit threshold or alliance march
    leaves the float range.
    """
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
    # beta rows first, so the first failing element is the raster's first failing cell
    case, _, exists, tau_dagger, _ = _analyze_vec(
        phi1, phi2, x1_in, x2_in, np.array(grid.beta_list)[:, None]
    )

    # the case does not depend on beta
    labels = [Case(c) for c in case[0].tolist()]
    frame = in_frame.ravel().tolist()
    cells = []
    for beta, exists_row, tau_row in zip(grid.beta_list, exists.tolist(), tau_dagger.tolist()):
        fields = zip(labels, exists_row, tau_row)
        for (x2, x1), inside in zip(itertools.product(x2_values, x1_values), frame):
            if not inside:
                cells.append(SweepCell(beta=beta, x1=x1, x2=x2, in_frame=False))
                continue
            # (case_label, mb_exists, tau_dagger)
            cells.append(SweepCell(beta, x1, x2, True, *next(fields)))
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
    not push the other player below their no-transfer payoff, less a slack
    of 1e-12*(phi1 + phi2) that scales with the valuations; the any
    columns drop that constraint; max_u12 uses the exact alliance optimum.
    Payoffs at the alliance-optimal transfer are tabulated separately since
    that transfer generally favors one player.
    """
    lo, hi = beta_range
    if not (0.0 < lo < hi <= 1.0):
        raise ValueError(f"beta range must satisfy 0 < lo < hi <= 1, got ({lo}, {hi})")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")

    # k/(steps - 1) can round the last row past hi
    betas = np.minimum(lo + (hi - lo) * np.arange(steps) / (steps - 1), hi)
    u1_nom, u2_nom = _induced_payoffs(g, 0.0, 1.0)
    u12_nom = u1_nom + u2_nom
    slack = 1e-12 * (g.phi1 + g.phi2)

    taus = np.append(_domain_grid(g.x1, g.x2), 0.0)
    rows = []
    for beta in betas.tolist():
        # the point path's order, so a failing game raises its first error
        mb = mb_exists(g, beta)
        tau_dag, gain = alliance_optimal(g, beta)
        u1_at, u2_at = _induced_payoffs(g, tau_dag, beta)
        u1, u2 = _induced_payoffs_vec(g, taus, beta)
        max_u1_mut = float(np.max(u1, where=u2 >= u2_nom - slack, initial=-math.inf))
        max_u2_mut = float(np.max(u2, where=u1 >= u1_nom - slack, initial=-math.inf))
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
                max_u12=u12_nom + gain,
                u1_at_alliance_opt=u1_at,
                u2_at_alliance_opt=u2_at,
                mb_exists=mb,
                alliance_nonzero=tau_dag != 0.0,
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
