"""Parameter rasters and efficiency sweeps for figure reproduction.

Three products: a raster over the (x1, x2) budget plane showing where
mutually beneficial transfers exist and where the alliance-optimal transfer
is nonzero; payoff-change curves along the transfer axis for one game,
returned as one float array with a row per transfer; and a sweep over the
efficiency beta tabulating attainable payoff maxima.

Rasters depict only the oriented half plane phi2/phi1 <= x2/x1; cells on
the other side are marked out of frame and carry no analysis fields.
A raster cell is a named tuple, so it is immutable and reads by field
name, but it also compares equal to a plain tuple of the same values. The
raster builds one column of Python values per field and makes its cells
from the zipped columns, with no Python call per cell.

The raster sends every in-frame cell at every beta through one call of
transfer_engine._analyze_vec, which equals the scalar point path bit for
bit and raises its error for the first failing (beta, cell). The beta
sweep orients its game once, takes both zero-transfer verdicts over the
whole beta grid in one call, and marches to the alliance optimum one beta
at a time. Its four payoff maxima are maxima over candidate transfers in
closed form, in either donation direction: zero and the domain edges; the
case boundaries and the proportional band's edges, each read on both sides;
each player's stationary points; and the crossings of each player's
no-transfer payoff.
Every candidate is a real transfer taken at its true payoffs, so a maximum
never exceeds what some transfer attains. All rows' candidates go through
one array call; a candidate of 0.0, a placeholder for a root outside the
domain or missing, induces the game itself and takes the no-transfer payoffs
without being evaluated.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from blotto_alliance.adversary_response import Case, GameParams, _frame, _payoffs_any_f
from blotto_alliance.transfer_engine import (
    _alliance_optimal_f,
    _analyze_vec,
    _band_edges,
    _check_beta,
    _crossing_equations,
    _cuts,
    _even_grid,
    _induced_payoffs,
    _induced_payoffs_vec,
    _quadratic_roots_vec,
    _seed_polynomials,
    _tau_bounds,
    _verdicts_f,
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
        if not math.isfinite(self.upper):
            raise ValueError(f"axis {self.name}: upper must be finite, got {self.upper}")

    def values(self) -> list[float]:
        return _even_grid(self.lower, self.upper, self.steps).tolist()


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


class SweepCell(NamedTuple):
    beta: float
    x1: float
    x2: float
    in_frame: bool
    case_label: Case | None = None
    mb_exists: bool | None = None
    tau_dagger: float | None = None


# Case members by value in an object array, so a raster maps its case codes in one indexing
_CASE_OF = np.array((None, *Case), dtype=object)


def region_raster(grid: SweepGrid) -> list[SweepCell]:
    """One cell per (beta, x2, x1) triple, row-major with x1 varying fastest.

    Raises the point path's error for the first failing in-frame cell in
    that order, as when its alliance march leaves the float range.
    """
    phi1 = float(grid.fixed["phi1"])
    phi2 = float(grid.fixed["phi2"])
    if not (0 < phi1 < math.inf and 0 < phi2 < math.inf):
        raise ValueError(f"phi1 and phi2 must be positive and finite, got {phi1} and {phi2}")
    by_name = {a.name: a for a in grid.axes}
    x1_values = by_name["x1"].values()
    x2_values = by_name["x2"].values()

    x1_grid, x2_grid = np.meshgrid(x1_values, x2_values)
    with np.errstate(over="ignore"):  # the products overflow silently on Python floats
        in_frame = ~(phi2 * x1_grid > phi1 * x2_grid)
    # an in-frame cell is its own oriented unit-adversary game
    x1_in, x2_in = x1_grid[in_frame], x2_grid[in_frame]
    # beta rows first, so the first failing element is the raster's first failing cell
    case, _, exists, tau_dagger, _ = _analyze_vec(
        phi1, phi2, x1_in, x2_in, np.array(grid.beta_list)[:, None]
    )

    # one column per SweepCell field in raster order, beta rows first
    nb, n = len(grid.beta_list), in_frame.size
    inside = in_frame.ravel()
    columns = [
        list(itertools.chain.from_iterable(itertools.repeat(beta, n) for beta in grid.beta_list)),
        x1_values * (len(x2_values) * nb),
        list(itertools.chain.from_iterable(itertools.repeat(x2, len(x1_values)) for x2 in x2_values)) * nb,
        inside.tolist() * nb,
    ]
    # the analysis fields hold None out of frame: spread the in-frame values into one object array
    spread = np.full((nb, n), None, dtype=object)
    for values in (_CASE_OF[case], exists, tau_dagger):
        spread[:, inside] = values
        columns.append(spread.ravel().tolist())
    # tuple.__new__ makes each cell in C, with no Python call per cell
    return list(map(tuple.__new__, itertools.repeat(SweepCell), zip(*columns)))


def payoff_curves(
    g: GameParams, beta: float, tau_range: tuple[float, float], steps: int
) -> np.ndarray:
    """Rows (tau, du1, du2, u12) at evenly spaced transfers over tau_range.

    One float64 array of shape (steps, 4), a row per transfer; its rows
    iterate, index and unpack as tuples do, and .tolist() gives Python floats.
    """
    _check_beta(beta)
    lo, hi = tau_range
    taus = _even_grid(lo, hi, steps)
    if not (lo < hi):
        raise ValueError("tau range must satisfy lo < hi")
    if lo < -g.x2 or hi > g.x1:
        raise ValueError(f"tau range must lie within (-{g.x2}, {g.x1})")
    xa = g.adversary_budget
    game = g.phi1, g.phi2, g.x1 / xa, g.x2 / xa
    u1_base, u2_base = _induced_payoffs(*game, 0.0, beta)
    eps_lo, eps_hi = _tau_bounds(*game[2:])
    taus = np.minimum(np.maximum(taus, xa * eps_lo), xa * eps_hi)
    u1, u2 = _induced_payoffs_vec(*game, taus / xa, beta)
    return np.column_stack((taus, u1 - u1_base, u2 - u2_base, u1 + u2))


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


def _donation_candidates(phi_r, phi_d, u_r, u_d, x_r, x_d, betas, t_top):
    """Candidate donations t in (0, t_top), one row per beta, each candidate a column.

    The donor's unit-adversary budget is x_d - t and the recipient's
    x_r + beta*t, with u_r and u_d their no-transfer payoffs. Along this path
    each payoff is smooth between the case boundaries (the seed roots) and
    the proportional band's edges, and may jump at them, so its maximum over
    a stretch on which the other player keeps its no-transfer payoff lies at
    a candidate: a boundary or band edge, read on both sides; a stationary
    point of the player's own payoff; or a crossing of the other player's
    no-transfer payoff. A root of a formula not in force is still a real
    transfer and only adds a point. Candidates outside (0, t_top), and the
    roots that do not exist, read 0.0.
    """
    linear, quadratics = _seed_polynomials(phi_r, phi_d, x_r, x_d, betas, np.float_power)
    # each player's budget p = p0 + p1*t against the other's q = q0 + q1*t
    for phi, phi_o, u0, p0, p1, q0, q1 in (
        (phi_r, phi_d, u_r, x_r, betas, x_d, -1.0),
        (phi_d, phi_r, u_d, x_d, -1.0, x_r, betas),
    ):
        m = 4.0 * (phi / phi_o) * p1 * p1
        a, k = p1 * q0 + p0 * q1, q1 * p0 - q0 * p1
        quadratics += [
            # case 3, (phi*p + sqrt(phi*phi_o*p*q))/2 and its strong form: m*p*q = (p1*q + p*q1)^2
            (m * p1 * q1 - 4.0 * (p1 * q1) ** 2, (m - 4.0 * p1 * q1) * a, m * p0 * q0 - a * a),
            # case 2 strong, phi - phi/(2p) + sqrt(phi*phi_o*q/p)/2: m*q = k^2*p
            (0.0, m * q1 - k * k * p1, m * q0 - k * k * p0),
            *(eq[1:] for eq in _crossing_equations(phi, phi_o, u0, p0, p1, q0, q1)),
        ]
    coefficients = np.empty((3, len(quadratics), betas.size))
    for i, quadratic in enumerate(quadratics):
        for j, value in enumerate(quadratic):
            coefficients[j, i] = value
    first, second = _quadratic_roots_vec(*coefficients)
    # The seed roots come first. The payoffs jump at the proportional ray, and all but
    # jump where case 1 meets case 3 on a tiny budget, so every edge is also read a step
    # to either side: 1e-12 of the edge, to clear its rounding, plus the step that moves
    # the budget ratio p_r/p_d by 1e-12, to clear the band's.
    edges = np.vstack([linear, first[:4], second[:4], *_band_edges(phi_r, phi_d, x_r, x_d, betas)])
    p_r, p_d = x_r + betas * edges, x_d - edges
    step = 1e-12 * (edges + p_r * p_d / (p_r + betas * p_d))
    t = np.vstack([edges, edges - step, edges + step, first[4:], second[4:]]).T
    return np.where((0.0 < t) & (t < t_top), t, 0.0)


def beta_sweep(
    g: GameParams,
    beta_range: tuple[float, float],
    steps: int,
) -> list[BetaSweepRow]:
    """Attainable payoff maxima per efficiency value.

    max_u1_any and max_u2_any are each player's largest payoff over the
    candidate transfers of _donation_candidates in both donation directions,
    with zero and both domain edges; the candidates read each case boundary
    and each edge of the proportional band on both sides, since a payoff can
    jump at the proportional ray. max_u1_mutual and max_u2_mutual are the
    largest over those candidates that do not push the other player below
    their no-transfer payoff, less a slack of 1e-12*(phi1 + phi2) that
    scales with the valuations and is more than rounding: a boundary is also
    read 1e-12 to either side, and a rounded root moves along a steep payoff,
    so a mutual maximum may leave the other player up to about
    1e-12*(phi1 + phi2) below their exact no-transfer payoff (measured in
    tests/test_sweep.py). max_u12 uses the exact alliance optimum.
    Payoffs at the alliance-optimal transfer are tabulated separately since
    that transfer generally favors one player.

    The game is oriented once, its zero-transfer payoffs are taken once, and
    one call takes both zero-transfer verdicts for every beta before the
    per-beta marches.
    """
    lo, hi = beta_range
    if not (0.0 < lo < hi <= 1.0):
        raise ValueError(f"beta range must satisfy 0 < lo < hi <= 1, got ({lo}, {hi})")
    betas = _even_grid(lo, hi, steps)
    xa = g.adversary_budget
    game = g.phi1, g.phi2, g.x1 / xa, g.x2 / xa
    x1, x2 = game[2:]
    u1_nom, u2_nom = _induced_payoffs(*game, 0.0, 1.0)
    u12_nom = u1_nom + u2_nom
    *oriented, swapped = _frame(g)
    exists, dagger = (v.tolist() for v in _verdicts_f(*oriented, betas)[2:])
    base = _payoffs_any_f(*oriented)
    points = []
    for mb, dag, beta in zip(exists, dagger, betas.tolist()):
        tau_dag, gain = 0.0, 0.0
        if not dag:
            tau_dag, gain = _alliance_optimal_f(*oriented, beta, base, _cuts(*oriented, beta), swapped, 1.0)
        points.append((mb, tau_dag, gain, *_induced_payoffs(*game, tau_dag, beta)))

    tau_lo, tau_hi = _tau_bounds(x1, x2)
    with np.errstate(all="ignore"):  # missing and overflowing roots read 0.0
        by_2 = _donation_candidates(g.phi1, g.phi2, u1_nom, u2_nom, x1, x2, betas, -tau_lo)
        by_1 = _donation_candidates(g.phi2, g.phi1, u2_nom, u1_nom, x2, x1, betas, tau_hi)
    taus = np.hstack([np.broadcast_to([0.0, tau_lo, tau_hi], (steps, 3)), -by_2, by_1])
    # a transfer of +-0.0 induces the game itself at any beta: only real candidates are evaluated
    real = taus != 0.0
    u1, u2 = np.full(taus.shape, u1_nom), np.full(taus.shape, u2_nom)
    u1[real], u2[real] = _induced_payoffs_vec(*game, taus[real], np.broadcast_to(betas[:, None], taus.shape)[real])
    slack = 1e-12 * (g.phi1 + g.phi2)
    # (max_u1_mutual, max_u2_mutual, max_u1_any, max_u2_any) per row
    maxima = np.column_stack([
        np.max(u1, axis=1, where=u2 >= u2_nom - slack, initial=-math.inf),
        np.max(u2, axis=1, where=u1 >= u1_nom - slack, initial=-math.inf),
        np.max(u1, axis=1),
        np.max(u2, axis=1),
    ])
    return [
        BetaSweepRow(beta, u1_nom, u2_nom, u12_nom, *row, u12_nom + gain, u1_at, u2_at, mb, tau_dag != 0.0)
        for beta, (mb, tau_dag, gain, u1_at, u2_at), row in zip(betas.tolist(), points, maxima.tolist())
    ]


__all__ = [
    "Axis",
    "BetaSweepRow",
    "SweepCell",
    "SweepGrid",
    "beta_sweep",
    "payoff_curves",
    "region_raster",
]
