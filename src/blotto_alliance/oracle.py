"""Brute-force ground truth for the coalitional game, on dense grids.

The oracle never touches the closed-form case table or any transfer
threshold: it computes the adversary's best response over a grid of splits
and scores transfers by enumerating tau on a grid, using only the
single-front Lotto payoff. Closed-form results enter exclusively as values
to compare against, passed in by the caller; disagreements are reported
with the discretization slack that was allowed.

The grid best response is the first split j/n, j = 0..n, that minimizes the
players' combined payoff f(j) = L1(x1, j/n) + L2(x2, 1 - j/n). A player's
Lotto payoff is convex and non-increasing in the adversary's allocation
(phi*(1 - a/(2x)) up to a = x, phi*x/(2a) beyond, with matching slopes at
a = x), so f is convex in j: its forward difference f(j+1) - f(j) never
decreases, and the first j at which it stops being negative is the first
minimizer. transfer_grid_scan finds that j for each tau row from a guess:
the continuous minimizer of the split objective, which the single-front
slopes give in closed form, rounded to the grid. A guess is kept only under
a certificate, a margin far above rounding on both sides of it, that proves
by convexity that a bisection over all splits would return the same split;
the few rows it rejects are each bisected over all splits (see
_bisect_rows). A single row, as in adversary_grid_best_response, runs the
same bisection, on scalar payoffs free of numpy's per-call cost, so it
returns the scan's bits for the same budgets. Enumerating all n + 1 splits
stays only as the reference the bisection is tested against. Where f is
flat (proportional games in which both players are strong) the bisection
and the enumeration can pick different splits among ties equal to
rounding; the adversary payoffs then differ by rounding only.

Each _bisect_rows call works in one (4, 3, rows) block of float64, allocated
for that call and freed when it returns, so threads never share it: front 1's
payoffs, front 2's payoffs, the splits (then f), and a scratch plane. glibc
raises its mmap threshold to the size of a freed mmapped block, and its trim
threshold to twice that, so once the first scan has freed the block, the heap
is no longer handed back to the system between scans, and later scans take
their memory without page faults. That holds while the block outweighs every
other temporary alive beside it: a (3, 3, rows) block left the largest audit
game at about 1,170 faults per scan, and (4, 3, rows) at none.

Slack is estimated by finite differences: the variation of each payoff from
the chosen split to the neighbouring grid splits, which the certificate
already evaluates, and the variation of the relevant quantity over one tau
step near its argmax, plus the TOLERANCE floor.

transfer_grid_scan builds one OracleReport. _compare reads its verdicts and
slacks, and appends to it one Disagreement (quantity, closed_value,
grid_value, slack) per closed-form quantity the grid cannot reconcile.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from blotto_alliance import lotto_core
from blotto_alliance.adversary_response import GameParams

# Comparisons are skipped within this distance of a beta threshold, where
# grid resolution cannot distinguish the two verdicts.
THRESHOLD_BAND = 1e-3

# Floor added to every slack, so that no verdict turns on rounding alone.
TOLERANCE = 1e-9

# The scan keeps a row's guessed split only when both neighbouring splits lie
# CERTIFICATE_MARGIN*(phi1 + phi2) above it, far beyond rounding (see
# _bisect_rows).
CERTIFICATE_MARGIN = 1e-14


@dataclass(frozen=True)
class OracleConfig:
    tau_step: float = 1e-4
    split_step: float = 1e-3

    def __post_init__(self):
        for name in ("tau_step", "split_step"):
            step = getattr(self, name)
            if not 0.0 < step < math.inf:
                raise ValueError(f"{name} must lie in (0, inf), got {step}")


@dataclass(frozen=True)
class ClosedFormSummary:
    """Closed-form values to audit; produced by the analysis engine, not here."""

    mb_exists: bool
    mb_margin: float
    mb_threshold: float
    case_at_zero: int
    tau_dagger: float
    alliance_gain: float
    alliance_value: float
    alliance_beta_threshold: float | None
    adversary_payoff_at_zero: float


@dataclass(frozen=True)
class Disagreement:
    quantity: str
    closed_value: float
    grid_value: float
    slack: float


@dataclass(frozen=True)
class OracleReport:
    """Grid verdicts for one (game, beta) pair.

    mb_exists_grid holds only when some grid transfer improves both players
    by more than the finite-difference slack of the enumeration. The
    unslacked verdict, mutual_margin > 0, is only a diagnostic: the true best
    margin tends to zero as tau -> 0 for every below-threshold game, which
    makes it resolution-dependent.
    """

    mb_exists_grid: bool
    alliance_argmax_tau: float
    alliance_max: float
    disagreements: list[Disagreement] = field(default_factory=list)
    # diagnostics
    mutual_margin: float = -math.inf
    positive_tau_mutual: bool = False
    alliance_gain_grid: float = 0.0
    tau_count: int = 0
    slack_mutual: float = 0.0
    slack_alliance: float = 0.0


def _n_split(split_step: float) -> int:
    if not 0.0 < split_step < math.inf:
        raise ValueError(f"split_step must lie in (0, inf), got {split_step}")
    return max(1, round(1.0 / split_step))


@functools.lru_cache(maxsize=8)
def _split_grid(n_split: int) -> tuple[np.ndarray, np.ndarray, tuple, tuple]:
    """The splits a = j/n and b = 1 - a, j = 0..n: read-only arrays, then as float tuples."""
    a = np.linspace(0.0, 1.0, n_split + 1)
    b = 1.0 - a
    a.flags.writeable = b.flags.writeable = False
    return a, b, tuple(a.tolist()), tuple(b.tolist())


def _enumerate_rows(
    phi1: float, phi2: float, x1b: np.ndarray, x2b: np.ndarray, n_split: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid best response per row of induced budgets, by enumeration: O(n) per row.

    Evaluates every split a in {0, 1/n, ..., 1} of the unit adversary budget
    and takes the first (smallest-a) minimizer of the players' combined
    payoff, i.e. the first maximizer of the adversary's. Returns
    (a_star, u1, u2) at that split for every row.
    """
    a, b, _, _ = _split_grid(n_split)
    mat1 = lotto_core.payoff_vec(x1b[:, None], a[None, :], phi1)
    mat2 = lotto_core.payoff_vec(x2b[:, None], b[None, :], phi2)
    j = np.argmin(mat1 + mat2, axis=1)
    rows = np.arange(x1b.size)
    return a[j], mat1[rows, j], mat2[rows, j]


def _split_guess(
    phi1: float, phi2: float, x1b: np.ndarray, x2b: np.ndarray, n_split: int
) -> np.ndarray:
    """Each row's split index, rounded from the continuous minimizer of G.

    G(a) = L1(x1b, a) + L2(x2b, 1 - a). A player's slope in the adversary's
    allocation a is -phi/(2x) where the player is strong (a <= x) and
    -phi*x/(2a**2) where it is weak, so G' is continuous and nondecreasing,
    and on each regime its zero has a closed form. With c = sqrt(phi2/phi1)
    and cq = c*sqrt(x1*x2), it is x1/(x1 + cq) where both players are weak;
    if player 1 is strong there, 1 - cq; if player 2 is strong there,
    cq/c**2. Where both are strong, G' is a constant, and the zero lies
    outside that stretch unless phi1/x1 == phi2/x2 makes G flat on it. Each
    regime's guess overwrites the last in place, and so do the clamp into
    [0, 1] and the rounding.

    Only the certificate in _bisect_rows decides whether a guess is kept, so
    a guess that overflows or lands a split off costs time, never a bit.
    """
    with np.errstate(all="ignore"):
        c = np.sqrt(phi2 / phi1)
        cq = c * np.sqrt(x1b * x2b)
        a = x1b / (x1b + cq)
        np.copyto(a, 1.0 - cq, where=a < x1b)
        np.copyto(a, cq / (c * c), where=1.0 - a < x2b)
        # fmax and fmin take the number over a nan, so a row whose guess overflowed guesses split 0
        np.fmin(np.fmax(a, 0.0, out=a), 1.0, out=a)
        return np.rint(np.multiply(n_split, a, out=a), out=a).astype(np.intp)


def _bisect_rows(
    phi1: float, phi2: float, x1b: np.ndarray, x2b: np.ndarray, n_split: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The same best response as _enumerate_rows: a certified guess, else bisection.

    The split index of a row is that of a plain bisection over [0, n] for the
    first j with f(j+1) >= f(j), which is the first minimizer because f is
    convex (see the module docstring). Each row starts from the guess g of
    _split_guess and keeps it when g is certified:
    (g == 0 or f(g-1) - f(g) > M) and (g == n or f(g+1) - f(g) > M), with
    M = CERTIFICATE_MARGIN*(phi1 + phi2). Each front is evaluated once, at
    splits (g-1, g, g+1) clamped into [0, n]. A certified row's u1 and u2 are
    the certificate's own front payoffs at g, and its split slack is the
    largest change of either front's payoff from g to a neighbour. A rejected
    row is bisected over [0, n] by _bisect_row, and its three splits are
    evaluated again around the bisection's. Returns (a*, u1, u2, slack).

    The fronts are written into one (4, 3, rows) block, split-major: planes 0
    and 1 take front 1's and front 2's payoffs through payoff_vec's out=,
    plane 2 front 1's gathered splits, then front 2's, then f, and plane 3
    with plane 2 the slack's differences. u1 and u2 are returned as
    copies, so that the block is freed before the caller's row temporaries
    are allocated, and glibc keeps the heap mapped (see the module
    docstring). Every element of the block is written before it is read.

    A certified g is the plain bisection's own answer, bit for bit, whatever
    produced it:

    - payoff_vec is within 2.01u*phi of the exact payoff at its float
      arguments (u = 2**-53), and the sum of the two fronts adds one rounding,
      so each computed f(j) is within 3.02u*(phi1 + phi2) of the exact
      L1(x1b, a[j]) + L2(x2b, b[j]). b[j] = 1 - a[j] is exact for a[j] >= 1/2;
      below that it is off by at most u/2, on allocations above 1/2 where
      |dL2/da| <= phi2. So f(j) is within e = 3.52u*(phi1 + phi2) of
      G(a[j]) = L1(x1b, a[j]) + L2(x2b, 1 - a[j]).
    - G is convex and the a[j] increase, so the slopes
      (G(a[j+1]) - G(a[j]))/(a[j+1] - a[j]) never decrease in j, and the
      steps a[j+1] - a[j] agree to a relative 4n*u. M = 1e-14*(phi1 + phi2)
      is over 25e, so the certificate's exact differences exceed M - 2e in
      size, and for any n below 1e14 every G(a[j+1]) - G(a[j]) is below
      -(M - 2e)(1 - 4n*u) < -2e for j < g and above 2e for j >= g. (The
      certificate's differences are rounded too, but rounding is monotone
      and M is a float, so a rounded difference above M is one exactly.)
    - So the rounded predicate f(j+1) >= f(j) is false for every j < g and
      true for every j >= g, the bisection over [0, n] returns g, and a[g],
      u1 and u2 are the same bits.
    - The same bounds make the computed f fall strictly before g and rise
      strictly after it, so g is f's unique minimizer, np.argmin's answer in
      _enumerate_rows too. lotto_core.payoff equals payoff_vec bit for bit,
      so _bisect_row, on scalar payoffs, gives a rejected row, or the single
      row of adversary_grid_best_response, these bits as well.

    A guess on a stretch of two or more splits where f is flat within
    rounding (case 4) is never certified, so such a row falls back to the
    full bisection and lands on the same tie as it.
    """
    a, _, a_floats, b_floats = _split_grid(n_split)
    margin = CERTIFICATE_MARGIN * (phi1 + phi2)

    def fronts(x1, x2, j, w):
        """Both fronts' payoffs at splits (j-1, j, j+1), clamped into [0, n], into the split-major planes w[0] and w[1].

        w[2] takes the splits, a[k] for front 1 and then 1.0 - a[k] for front 2,
        which is b[k] bit for bit, since b = 1.0 - a.
        """
        l1, l2, s = w[:3]
        for k in range(3):
            np.take(a, j + (k - 1), out=s[k], mode="clip")
        lotto_core.payoff_vec(x1, s, phi1, out=l1)
        np.subtract(1.0, s, out=s)
        lotto_core.payoff_vec(x2, s, phi2, out=l2)
        return l1, l2

    w = np.empty((4, 3, x1b.size))
    j = _split_guess(phi1, phi2, x1b, x2b, n_split)
    l1, l2 = fronts(x1b, x2b, j, w)
    f = np.add(l1, l2, out=w[2])
    certified = ((j == 0) | (f[0] - f[1] > margin)) & ((j == n_split) | (f[2] - f[1] > margin))
    rejected = np.flatnonzero(~certified)
    if rejected.size:
        x1, x2 = x1b[rejected], x2b[rejected]
        j[rejected] = [
            _bisect_row(phi1, phi2, r1, r2, a_floats, b_floats) for r1, r2 in zip(x1.tolist(), x2.tolist())
        ]
        l1[:, rejected], l2[:, rejected] = fronts(x1, x2, j[rejected], np.empty((3, 3, rejected.size)))
    u1, u2 = l1[1].copy(), l2[1].copy()
    # |L(neighbour) - L(j)| for both fronts, in the plane that held f and the scratch plane
    diffs = w[2:, ::2]
    np.subtract(l1[::2], u1, out=diffs[0])
    np.subtract(l2[::2], u2, out=diffs[1])
    slack = np.abs(diffs, out=diffs).max(axis=(0, 1))
    return a[j], u1, u2, slack


def _bisect_row(phi1: float, phi2: float, x1b: float, x2b: float, a: tuple, b: tuple) -> int:
    """One row's split index: the first j in [0, n] with f(j+1) >= f(j), by bisection on scalar payoffs.

    a and b are _split_grid's splits as float tuples, which index faster than arrays.
    """

    def f(j):
        return lotto_core.payoff(x1b, a[j], phi1) + lotto_core.payoff(x2b, b[j], phi2)

    lo, hi = 0, len(a) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid + 1) >= f(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def adversary_grid_best_response(
    induced: GameParams, split_step: float = 1e-3
) -> tuple[float, float]:
    """Best split fraction on front 1 and the adversary payoff it earns.

    The split is _bisect_row's, the bisection _bisect_rows falls back to, so
    the split and payoff are the scan's bits for the same budgets. That split
    is the first minimizer, the smallest allocation on front 1 among ties;
    where f is flat within rounding (case 4), its payoff ties the first
    minimizer's to rounding.
    """
    phi1, phi2 = induced.phi1, induced.phi2
    xa = induced.adversary_budget
    x1b, x2b = induced.x1 / xa, induced.x2 / xa
    _, _, a, b = _split_grid(_n_split(split_step))
    j = _bisect_row(phi1, phi2, x1b, x2b, a, b)
    return a[j], phi1 + phi2 - (lotto_core.payoff(x1b, a[j], phi1) + lotto_core.payoff(x2b, b[j], phi2))


def _tau_grid(
    g: GameParams, beta: float, cfg: OracleConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The scan's tau rows: (taus, induced x1, induced x2, index of tau == 0).

    Budgets are normalized by the adversary's; taus are the multiples of
    cfg.tau_step strictly inside the transfer domain (-x2, x1). The rows up
    to the zero index are player 2's donations and the rest player 1's, so
    each half's induced budgets are computed from its own slice of taus.
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    xa = g.adversary_budget
    x1, x2 = g.x1 / xa, g.x2 / xa
    if cfg.tau_step >= min(x1, x2):
        raise ValueError("tau_step must be smaller than both player budgets")

    step = cfg.tau_step
    kmin = math.floor(-x2 / step) + 1
    kmax = math.ceil(x1 / step) - 1
    taus = np.arange(kmin, kmax + 1) * step
    i0 = -kmin
    # k*step keeps the sign of k, so taus[: i0 + 1] <= 0.0 < taus[i0 + 1 :]
    donated, sent = -taus[: i0 + 1], taus[i0 + 1 :]
    x1b = np.concatenate((x1 + beta * donated, x1 - sent))
    x2b = np.concatenate((x2 - donated, x2 + beta * sent))
    return taus, x1b, x2b, i0


def transfer_grid_scan(
    g: GameParams,
    beta: float,
    cfg: OracleConfig,
    closed: ClosedFormSummary | None = None,
) -> OracleReport:
    """Scan every transfer on the tau grid and score it by the grid best response.

    Works in the caller's frame (no index swap). When a ClosedFormSummary is
    supplied, the scan appends one Disagreement per audited quantity whose
    closed-form value cannot be reconciled with the grid within slack;
    comparisons inside a declared beta threshold band are skipped.
    """
    taus, x1b, x2b, i0 = _tau_grid(g, beta, cfg)

    n_split = _n_split(cfg.split_step)
    _, u1, u2, row_slack = _bisect_rows(g.phi1, g.phi2, x1b, x2b, n_split)

    du1 = u1 - u1[i0]
    du2 = u2 - u2[i0]
    margin = np.minimum(du1, du2)
    margin_conf = margin - (row_slack + row_slack[i0])

    alliance = u1 + u2
    i_star = int(np.argmax(alliance))
    alliance_max = float(alliance[i_star])

    # local tau-direction variation of the alliance payoff near its argmax
    lo = max(i_star - 5, 0)
    hi = min(i_star + 6, alliance.size)
    window = alliance[lo:hi]
    l_tau = float(np.abs(np.diff(window)).max()) if window.size > 1 else 0.0

    report = OracleReport(
        mb_exists_grid=bool((margin_conf > 0.0).any()),
        alliance_argmax_tau=float(taus[i_star]),
        alliance_max=alliance_max,
        mutual_margin=float(margin.max()),
        positive_tau_mutual=bool((margin_conf[i0 + 1 :] > 0.0).any()),
        alliance_gain_grid=alliance_max - float(alliance[i0]),
        tau_count=int(taus.size),
        slack_mutual=float(2.0 * row_slack.max() + TOLERANCE),
        slack_alliance=float(row_slack[i_star] + row_slack[i0] + l_tau + TOLERANCE),
    )
    if closed is not None:
        w_grid = g.phi1 + g.phi2 - float(u1[i0] + u2[i0])
        _compare(closed, beta, report, w_grid, float(row_slack[i0]) + TOLERANCE)
    return report


def _compare(
    closed: ClosedFormSummary, beta: float, report: OracleReport, w_grid: float, w_slack: float
) -> None:
    out = report.disagreements
    in_mb_band = closed.case_at_zero in (2, 3) and abs(beta - closed.mb_threshold) < THRESHOLD_BAND
    if not in_mb_band:
        margin, slack = report.mutual_margin, report.slack_mutual
        if closed.mb_exists and closed.mb_margin > slack and margin <= 0.0:
            out.append(Disagreement("mb_exists", closed.mb_margin, margin, slack))
        elif not closed.mb_exists and report.mb_exists_grid:
            out.append(Disagreement("mb_exists", 0.0, margin, slack))

    in_alliance_band = (
        closed.alliance_beta_threshold is not None
        and abs(beta - closed.alliance_beta_threshold) < THRESHOLD_BAND
    )
    if not in_alliance_band:
        gain, slack = report.alliance_gain_grid, report.slack_alliance
        closed_nonzero = closed.tau_dagger != 0.0
        grid_nonzero = gain > slack
        if closed_nonzero and closed.alliance_gain > slack and not grid_nonzero:
            out.append(Disagreement("alliance_nonzero", closed.alliance_gain, gain, slack))
        elif not closed_nonzero and grid_nonzero:
            out.append(Disagreement("alliance_nonzero", 0.0, gain, slack))
        if abs(report.alliance_max - closed.alliance_value) > slack:
            out.append(Disagreement("alliance_value", closed.alliance_value, report.alliance_max, slack))

    if abs(w_grid - closed.adversary_payoff_at_zero) > w_slack:
        out.append(Disagreement("adversary_split", closed.adversary_payoff_at_zero, w_grid, w_slack))


__all__ = [
    "ClosedFormSummary",
    "Disagreement",
    "OracleConfig",
    "OracleReport",
    "THRESHOLD_BAND",
    "TOLERANCE",
    "adversary_grid_best_response",
    "transfer_grid_scan",
]
