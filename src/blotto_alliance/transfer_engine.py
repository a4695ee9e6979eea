"""Budget-transfer analysis: payoff curves, mutual-benefit tests, alliance optimum.

A transfer tau in (-x2, x1) moves budget between the players before the
adversary responds; the recipient only receives a fraction beta in (0, 1] of
what was sent. Payoffs read budgets only against the adversary's, so each
public function divides x1, x2 and tau by it once and works in its units.
All analysis happens in the oriented frame (phi2/phi1 <= x2/x1), where the
only candidate direction is player 2 donating to player 1 (tau < 0);
mirrored games are handled by swapping indices on entry and negating
transfer signs on exit. Every point query takes that frame, as floats, from
adversary_response._frame.

Closed forms implemented here:

  * both efficiency thresholds, as functions of R = sqrt(phi2/phi1 * x1/x2).
    The mutual-benefit threshold is min((2R - x1)/x2, 2R + x1/x2), where the
    first branch binds in case 2 and the second in case 3; a mutually
    beneficial transfer exists iff the game is in case 2 or 3 and beta
    strictly exceeds the branch for its case.

  * the zero-transfer-optimal set: games where no transfer can raise the
    combined payoff u1 + u2. Case 4 games always belong; case 2 games belong
    iff x1 + beta*x2 <= R, that is beta <= (R - x1)/x2; case 3 games belong
    iff beta <= R; case 1 games never belong. The case-2 and case-3 bounds
    are alliance_beta_threshold.

  * the alliance-optimal transfer. Along the donation path the case
    boundaries are roots of linear and quadratic polynomials in the
    donation, and within each case region u1 + u2 is stationary where the
    post-transfer budget ratio reaches a closed-form value; the march walks
    the regions in order and stops at the first stationary point or
    falling region edge.

  * the mutual-benefit interval. With p, q a player's own and the other's
    budget (linear in the donation) and d = 1 - U/phi, its payoff meets the
    no-transfer value U where phi*p = 2U or 2dp = 1 (case 1, front 1),
    (phi_o/phi)*p = 4(U/phi)^2*q (case 2, front 1), 2d(p + q) = 1 (case 4),
    or k*p*q = (a + b*p)^2 with (k, a, b) = (phi_o/phi, 1, -2d) (case 2,
    front 2), (4d^2*phi_o/phi, 1, -2d) (case 3, strong on front 1) or
    (phi_o/phi, 2U/phi, -1) (case 3, weak). Between these roots, the case
    boundaries and the proportional band's edges, min(du1, du2) keeps its
    sign; the interval is the first improving run.

No closed form multiplies two valuations: each reads them only as phi2/phi1
or U/phi, so scaling both by 4**m scales payoffs and gains by exactly 4**m
and changes nothing else, while the payoffs stay normal floats.

The point path, the mutual-benefit test then the alliance march, also runs
as one array pass, _analyze_vec, over broadcast arrays of oriented
unit-adversary games; only the region raster calls it. Each closed-form
rule is written once and both paths call it: the thresholds and the
threshold's min, the mutual-benefit rule and the zero-transfer-optimal rule
(all three in _verdicts), the transfer-domain edge, the seed polynomials,
the stationary ratios and the alliance gain. So is the evenly spaced grid,
_even_grid, which every sweep product and mutual_margin take their grids
from. The array pass takes the scalar steps in the same order, so every
element equals the scalar result bit for bit, the sign of zero included. It
only flags the games the point path rejects, then reruns the scalar alliance
optimum to raise its own error, so only the scalar path words a
seed-overflow or losing-transfer error.

analyze takes the zero-transfer response and the _cuts list once, and both
the mutual-benefit interval and the alliance march read them.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from blotto_alliance.adversary_response import (
    PROPORTIONAL_RTOL,
    Case,
    GameParams,
    PayoffProfile,
    _classify_vec,
    _frame,
    _orient_vec,
    _payoffs_any_f,
    _payoffs_vec,
    _response_f,
)
from blotto_alliance.lotto_core import payoff

# Transfers are clamped this far inside the open domain (-x2, x1) before
# payoff evaluation (see _tau_bounds): _EDGE of the budget above 1, _EDGE
# itself from _EDGE_CAP up to 1, and _EDGE_CAP of the budget below that, so
# the range never empties; the boundaries themselves are excluded.
_EDGE = 1e-12
_EDGE_CAP = 1e-6
# mutual_margin evaluates this many evenly spaced transfers, from one end
# of _tau_bounds to the other.
_DOMAIN_POINTS = 2001


class InternalInconsistencyError(RuntimeError):
    """A result the theory rules out, such as an alliance transfer that loses."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message if diagnostics is None else f"{message} ({diagnostics})")
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class Transfer:
    """A net transfer from player 1 to player 2 (negative = the reverse)."""

    tau: float
    beta: float

    def __post_init__(self):
        _check_beta(self.beta)
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")


@dataclass(frozen=True)
class PostTransferBudgets:
    x1_bar: float
    x2_bar: float


@dataclass(frozen=True)
class TransferAnalysis:
    """Full transfer analysis of one game at one efficiency beta.

    Transfer quantities (interval endpoints, alliance_tau) are expressed in
    the caller's frame and budget units; case_at_zero refers to the oriented
    normalized game, which exchanges the players when `swapped` is True.
    """

    mb_exists: bool
    mb_interval: tuple[float, float] | None
    mb_beta_threshold: float
    alliance_tau: float
    alliance_payoff_gain: float
    in_g_dagger: bool
    case_at_zero: Case
    swapped: bool
    mb_interval_anomaly: bool = False


def apply_transfer(g: GameParams, t: Transfer) -> PostTransferBudgets:
    """Post-transfer budgets in the caller's frame; tau must lie in (-x2, x1)."""
    if not (-g.x2 < t.tau < g.x1):
        raise ValueError(f"tau must lie in (-{g.x2}, {g.x1}), got {t.tau}")
    x1_bar, x2_bar = _induced_budgets(g.x1, g.x2, t.tau, t.beta)
    return PostTransferBudgets(x1_bar=x1_bar, x2_bar=x2_bar)


def _induced_budgets(x1: float, x2: float, tau: float, beta: float) -> tuple[float, float]:
    if tau > 0.0:
        return x1 - tau, x2 + beta * tau
    return x1 + beta * (-tau), x2 - (-tau)


def _tau_bounds(x1: float, x2: float, maximum=max, minimum=min) -> tuple[float, float]:
    """The closed range of transfers that payoffs are evaluated at; arrays take np.maximum and np.minimum."""
    edge1 = minimum(maximum(_EDGE, _EDGE * x1), _EDGE_CAP * x1)
    edge2 = minimum(maximum(_EDGE, _EDGE * x2), _EDGE_CAP * x2)
    return -x2 + edge2, x1 - edge1


def _even_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    """steps evenly spaced values from lo to hi, both included."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    # k/(steps - 1) can round the last value past hi; an overflow or a non-finite
    # bound gives inf or nan silently, as on Python floats, for the caller to reject
    with np.errstate(over="ignore", invalid="ignore"):
        return np.minimum(lo + (hi - lo) * np.arange(steps) / (steps - 1), hi)


def _induced_payoffs(phi1: float, phi2: float, x1: float, x2: float, tau: float, beta: float) -> tuple[float, float]:
    """Payoffs (u1, u2) after a transfer tau in a unit-adversary game, tau clamped to _tau_bounds."""
    lo, hi = _tau_bounds(x1, x2)
    return _payoffs_any_f(phi1, phi2, *_induced_budgets(x1, x2, min(max(tau, lo), hi), beta))


def _induced_payoffs_vec(phi1: float, phi2: float, x1: float, x2: float, taus: np.ndarray, beta):
    """_induced_payoffs over an array of transfers, equal element for element."""
    lo, hi = _tau_bounds(x1, x2)
    taus = np.minimum(np.maximum(taus, lo), hi)
    x1_bar = np.where(taus > 0.0, x1 - taus, x1 + beta * -taus)
    x2_bar = np.where(taus > 0.0, x2 + beta * taus, x2 - -taus)
    return _payoffs_vec(phi1, phi2, x1_bar, x2_bar)


def payoffs_at(g: GameParams, t: Transfer) -> PayoffProfile:
    """Equilibrium payoffs of the game induced by the transfer, caller's frame."""
    if not (-g.x2 < t.tau < g.x1):
        raise ValueError(f"tau must lie in (-{g.x2}, {g.x1}), got {t.tau}")
    xa = g.adversary_budget
    u1, u2 = _induced_payoffs(g.phi1, g.phi2, g.x1 / xa, g.x2 / xa, t.tau / xa, t.beta)
    return PayoffProfile(u1=u1, u2=u2, u_adversary=g.phi1 + g.phi2 - u1 - u2)


def delta_payoffs(g: GameParams, t: Transfer) -> tuple[float, float]:
    """Per-player payoff change of the transfer relative to no transfer."""
    now = payoffs_at(g, t)
    base = payoffs_at(g, Transfer(tau=0.0, beta=t.beta))
    return now.u1 - base.u1, now.u2 - base.u2


def alliance_payoff(g: GameParams, t: Transfer) -> float:
    """Combined payoff u1 + u2 of the two players under the transfer."""
    p = payoffs_at(g, t)
    return p.u1 + p.u2


def _threshold_branches(phi1, phi2, x1, x2, sqrt=math.sqrt):
    """The case-2 and case-3 branches of the mutual-benefit and of the alliance threshold.

    Each is a function of R = sqrt(phi2/phi1 * x1/x2): ((2R - x1)/x2, 2R + x1/x2)
    and ((R - x1)/x2, R). Floats, or arrays with sqrt=np.sqrt.
    """
    root = sqrt(phi2 / phi1 * (x1 / x2))
    return ((2.0 * root - x1) / x2, 2.0 * root + x1 / x2), ((root - x1) / x2, root)


def _verdicts(case, phi1, phi2, x1, x2, beta, sqrt=math.sqrt, minimum=min):
    """(threshold, mb_exists, in_g_dagger) at zero transfer; arrays take np.sqrt and a minimum like min.

    The threshold is the smaller mutual-benefit branch. A mutually beneficial
    transfer exists iff the case is 2 or 3 and beta exceeds it; zero transfer
    is alliance-optimal iff the case is 4, or 2 or 3 with beta at most that
    case's alliance branch.
    """
    mutual, (alliance_2, alliance_3) = _threshold_branches(phi1, phi2, x1, x2, sqrt)
    threshold = minimum(*mutual)
    exists = ((case == 2) | (case == 3)) & (beta > threshold)
    dagger = (case == 4) | ((case == 2) & (beta <= alliance_2)) | ((case == 3) & (beta <= alliance_3))
    return threshold, exists, dagger


def _verdicts_f(phi1: float, phi2: float, x1: float, x2: float, beta):
    """(case, threshold, mb_exists, in_g_dagger) of an oriented unit-adversary game; beta may be an array."""
    case = _response_f(phi1, phi2, x1, x2)[0]
    return (case, *_verdicts(case, phi1, phi2, x1, x2, beta))


def mb_beta_threshold(g: GameParams) -> float:
    """Efficiency above which a mutually beneficial transfer exists.

    Returned for every game; it is operative only in cases 2 and 3, where the
    smaller branch is always the one matching the game's own case.
    """
    return _verdicts_f(*_frame(g)[:4], 1.0)[1]  # any beta: the threshold does not read it


def mb_exists(g: GameParams, beta: float) -> bool:
    """Whether some transfer strictly raises both players' payoffs."""
    _check_beta(beta)
    return _verdicts_f(*_frame(g)[:4], beta)[2]


def in_g_dagger(g: GameParams, beta: float) -> bool:
    """Whether no transfer at all can improve the combined payoff u1 + u2."""
    _check_beta(beta)
    return _verdicts_f(*_frame(g)[:4], beta)[3]


def alliance_beta_threshold(g: GameParams) -> float | None:
    """Efficiency at which the alliance-optimal transfer turns nonzero.

    None for case 1 (always nonzero) and case 4 (always zero); for cases 2
    and 3 the returned value solves the respective membership boundary of
    the zero-transfer-optimal set, and may fall outside (0, 1].
    """
    phi1, phi2, x1, x2, _ = _frame(g)
    case = _response_f(phi1, phi2, x1, x2)[0]
    return None if case in (1, 4) else _threshold_branches(phi1, phi2, x1, x2)[1][case - 2]


def _check_beta(*betas: float) -> None:
    for beta in betas:
        if not (0.0 < beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {beta}")


# ---------------------------------------------------------------------------
# Alliance-optimal transfer: piecewise march over case regions.
# ---------------------------------------------------------------------------


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    return [(-b - s) / (2.0 * a), (-b + s) / (2.0 * a)]


def _seed_squares(x1, x2, power=operator.pow):
    """The seed polynomials' squares; on floats ValueError where one overflows, on arrays inf."""
    try:
        return power(1.0 - x1, 2), power(1.0 - x2, 2)
    except OverflowError:
        raise ValueError(
            "alliance march out of float range: (1 - x1)**2 or (1 - x2)**2 overflows "
            f"(x1={x1!r}, x2={x2!r} against a unit adversary)"
        ) from None


def _seed_polynomials(phi1, phi2, x1, x2, beta, power=operator.pow):
    """The linear seed and the (a, b, c) of the four quadratics of _cuts.

    Floats or broadcast arrays; the array march passes np.float_power for
    power, since an ndarray's ** does not round like the scalar pow.
    """
    r = phi2 / phi1
    c = phi1 / phi2
    square1, square2 = _seed_squares(x1, x2, power)
    linear = (x2 - r * x1) / (1.0 + r * beta)
    return linear, [
        # (x1 + beta*t)(x2 - t) = cap, for cap = phi2/phi1 and phi1/phi2
        (beta, x1 - beta * x2, r - x1 * x2),
        (beta, x1 - beta * x2, c - x1 * x2),
        # c*u*v = (1 - v)^2 = (t + 1 - x2)^2
        (c * beta + 1.0, 2.0 * (1.0 - x2) - c * (beta * x2 - x1), square2 - c * x1 * x2),
        # r*u*v = (1 - u)^2 = (1 - x1 - beta*t)^2
        (beta * beta + r * beta, -2.0 * beta * (1.0 - x1) - r * (beta * x2 - x1), square1 - r * x1 * x2),
    ]


def _cuts(phi1: float, phi2: float, x1: float, x2: float, beta: float) -> list[float]:
    """0, the case-boundary crossings inside (0, t_top) in order, then t_top, the donation's bound.

    With u = x1 + beta*t and v = x2 - t, every boundary between case regions
    (either orientation) is a root of a linear or quadratic polynomial in t:
    the proportional ray phi2*u = phi1*v, the all-in boundaries u*v = phi2/phi1
    and u*v = phi1/phi2, and the two strong-to-weak switches
    phi1*u*v/phi2 = (1-v)^2 and phi2*u*v/phi1 = (1-u)^2. A root that is no
    boundary only splits a segment in two.
    """
    t_top = -_tau_bounds(x1, x2)[0]
    linear, quadratics = _seed_polynomials(phi1, phi2, x1, x2, beta)
    seeds = [linear]
    for a, b, c in quadratics:
        seeds += _quadratic_roots(a, b, c)
    return [0.0, *sorted(t for t in seeds if 0.0 < t < t_top), t_top]


def _band_edges(phi1, phi2, x1, x2, beta):
    """The donations t where s2*phi2*(x1 + beta*t) = s1*phi1*(x2 - t) at the band's edges (s1, s2); floats or arrays."""
    r, s = phi2 / phi1, 1.0 - PROPORTIONAL_RTOL
    return [(s1 * x2 - s2 * r * x1) / (s2 * r * beta + s1) for s1, s2 in ((1.0, s), (s, 1.0))]


def _segment_label(phi1: float, phi2: float, x1: float, x2: float, beta: float, t: float) -> tuple[int, float, bool]:
    """(case, split, flipped) after a donation t, classified in the post-transfer orientation.

    The split is the adversary's allocation to the front of the player
    that is player 1 in that orientation.
    """
    u, v = x1 + beta * t, x2 - t
    if phi2 * u > phi1 * v:
        case, a = _response_f(phi2, phi1, v, u)
        return case, a, True
    case, a = _response_f(phi1, phi2, u, v)
    return case, a, False


def _donation_payoffs(phi1: float, phi2: float, x1: float, x2: float, beta: float, t: float):
    """(case, u1, u2) after a donation t, from _segment_label's one response."""
    case, a, flipped = _segment_label(phi1, phi2, x1, x2, beta, t)
    b = 1.0 - a
    if flipped:
        a, b = b, a
    return case, payoff(x1 + beta * t, a, phi1), payoff(x2 - t, b, phi2)


def _stationary_ratios(phi1, phi2, x1, x2, beta):
    """u/v where d(u1 + u2)/dt = 0 in case 2, flipped case 2 and case 3; floats or arrays."""
    big_k = x1 + beta * x2  # x1_bar + beta*x2_bar is invariant along donations
    # in case 3, sqrt(u/v) = beta*sqrt(phi1/phi2): its quadratic's discriminant is (beta*phi1 + phi2)**2
    return big_k * big_k * phi1 / phi2, beta / big_k * (beta / big_k) * phi1 / phi2, beta * beta * phi1 / phi2


def _march_alliance(phi1: float, phi2: float, x1: float, x2: float, beta: float, cuts: list[float]) -> float:
    """Donation size t = -tau >= 0 maximizing u1 + u2 in the oriented frame.

    _cuts splits the donation path [0, t_top] at the case boundaries into
    segments of one (case, flipped) label each, read at the segment's
    midpoint. Within a segment the derivative of u1 + u2 falls in t: it is
    positive throughout unflipped case 1, negative throughout flipped case 1,
    and in cases 2 and 3 it vanishes where u/v reaches a closed-form ratio r,
    that is at t = (r*x2 - x1)/(beta + r). The march stops at the first
    segment that does not improve all the way to its far end; when the
    payoff still improves at t_top, it returns t_top.

    A case-4 cut needs no test of its own. It is zero-transfer optimal, so
    the segment after it is flipped case 1, case 4, or flipped case 2 or 3,
    whose r, (beta/K)^2*phi1/phi2 with K = u + beta*v >= beta*(u + v) >= beta
    or beta^2*phi1/phi2, is at most the ray's phi1/phi2; each stops at the cut.
    """
    ratio_2, ratio_2_flipped, ratio_3 = _stationary_ratios(phi1, phi2, x1, x2, beta)
    for t_a, t_b in zip(cuts, cuts[1:]):
        case, _, flipped = _segment_label(phi1, phi2, x1, x2, beta, 0.5 * (t_a + t_b))
        if case == 1 and not flipped:
            continue
        if case in (1, 4):
            return t_a
        r = ratio_3 if case == 3 else ratio_2_flipped if flipped else ratio_2
        t = (r * x2 - x1) / (beta + r)
        if t < t_b:
            return max(t, t_a)  # t <= t_a: the payoff already falls from t_a
    return cuts[-1]


def _alliance_gain(phi1, phi2, x1, x2, beta, t, base, payoffs=_payoffs_any_f):
    """The gain in u1 + u2 of a donation t over the zero-transfer (u1, u2) base, and whether it loses.

    Arrays take payoffs=_payoffs_vec.
    """
    u1, u2 = payoffs(phi1, phi2, x1 + beta * t, x2 - t)
    u1_base, u2_base = base
    gain = (u1 + u2) - (u1_base + u2_base)
    return gain, gain < -1e-9 * (phi1 + phi2)


def _alliance_optimal_f(
    phi1, phi2, x1, x2, beta, base: tuple[float, float], cuts: list[float], swapped: bool, xa: float
) -> tuple[float, float]:
    """(tau, gain) for an oriented unit-adversary game outside G-dagger, tau in the caller's frame.

    base is the zero-transfer (u1, u2) and cuts the game's _cuts list at beta.
    """
    t_dag = _march_alliance(phi1, phi2, x1, x2, beta, cuts)
    gain, losing = _alliance_gain(phi1, phi2, x1, x2, beta, t_dag, base)
    if losing:
        raise InternalInconsistencyError(
            "alliance march produced a losing transfer",
            {"phi1": phi1, "phi2": phi2, "x1": x1, "x2": x2, "beta": beta, "t": t_dag, "gain": gain},
        )
    return (t_dag if swapped else -t_dag) * xa, max(gain, 0.0)


def alliance_optimal(g: GameParams, beta: float) -> tuple[float, float]:
    """The transfer maximizing u1 + u2 and its gain over no transfer.

    Returns (0, 0) when the game sits in the zero-transfer-optimal set;
    otherwise the transfer is strictly in the donating direction (negative
    in the oriented frame) and the gain is positive.
    """
    _check_beta(beta)
    phi1, phi2, x1, x2, swapped = _frame(g)
    case, u1, u2 = _donation_payoffs(phi1, phi2, x1, x2, beta, 0.0)
    if _verdicts(case, phi1, phi2, x1, x2, beta)[2]:
        return 0.0, 0.0
    cuts = _cuts(phi1, phi2, x1, x2, beta)
    return _alliance_optimal_f(phi1, phi2, x1, x2, beta, (u1, u2), cuts, swapped, g.adversary_budget)


def _quadratic_roots_vec(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """_quadratic_roots per element, as two roots each with NaN for a missing one."""
    disc = b * b - 4.0 * a * c
    s = np.sqrt(np.where(disc < 0.0, np.nan, disc))
    linear = a == 0.0
    return (
        np.where(linear, -c / b, (-b - s) / (2.0 * a)),
        np.where(linear, np.nan, (-b + s) / (2.0 * a)),
    )


def _march_alliance_vec(phi1, phi2, x1, x2, beta) -> np.ndarray:
    """_march_alliance per element of equal-length 1-d arrays.

    The seeds inside (0, t_top) are sorted into one row of cuts per element,
    with t_top after the last of them and +inf after that; each step of the
    walk gathers the games of the elements still marching once and labels
    their segment at its midpoint.
    """
    t_top = -_tau_bounds(x1, x2, np.maximum, np.minimum)[0]
    linear, quadratics = _seed_polynomials(phi1, phi2, x1, x2, beta, np.float_power)
    seeds = np.stack([linear, *(root for q in quadratics for root in _quadratic_roots_vec(*q))], axis=1)
    seeds[~((0.0 < seeds) & (seeds < t_top[:, None]))] = np.inf
    cuts = np.sort(np.column_stack([np.zeros_like(t_top), seeds, t_top]), axis=1)
    ratio_2, ratio_2_flipped, ratio_3 = _stationary_ratios(phi1, phi2, x1, x2, beta)

    t_dag = t_top.copy()  # where every segment improves to its far end
    live = np.arange(t_top.size)
    for k in range(cuts.shape[1] - 1):
        live = live[cuts[live, k + 1] < np.inf]
        if live.size == 0:
            break
        p1, p2, y1, y2, b = phi1[live], phi2[live], x1[live], x2[live], beta[live]
        t_a, t_b = cuts[live, k], cuts[live, k + 1]
        t_mid = 0.5 * (t_a + t_b)
        flipped, *oriented = _orient_vec(p1, p2, y1 + b * t_mid, y2 - t_mid)
        case = _classify_vec(*oriented)[0]
        at_a = (case == 4) | ((case == 1) & flipped)
        r = np.where(case == 3, ratio_3[live], np.where(flipped, ratio_2_flipped[live], ratio_2[live]))
        t = (r * y2 - y1) / (b + r)
        done = at_a | ((case != 1) & (t < t_b))
        # max(t, t_a) keeps t on a tie, so a -0.0 survives as it does in the scalar march
        t_dag[live[done]] = np.where(at_a | (t < t_a), t_a, t)[done]
        live = live[~done]
    return t_dag


def _analyze_vec(phi1, phi2, x1, x2, beta):
    """The point path, _verdicts_f then _alliance_optimal_f, per element, bit for bit.

    The five arguments are oriented unit-adversary games and broadcast
    against each other; (case, threshold, mb_exists, tau, gain) come back in
    their broadcast shape, tau in the oriented frame. Rounding that overflows
    stays silent, as it does on Python floats. The array passes only flag the
    elements the point path rejects; if any is flagged, the alliance optimum
    reruns over the elements in broadcast order and raises its first error.
    """
    _check_beta(*np.asarray(beta, dtype=float).ravel().tolist())
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (phi1, phi2, x1, x2, beta)))
    shape = args[0].shape
    phi1, phi2, x1, x2, beta = (v.ravel() for v in args)
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        case = _classify_vec(phi1, phi2, x1, x2)[0]
        # as min does, keep the first of a tie: np.minimum may return the second of -0.0 and 0.0
        threshold, exists, dagger = _verdicts(
            case, phi1, phi2, x1, x2, beta, np.sqrt, lambda a, b: np.where(b < a, b, a)
        )
        overflow = np.logical_or(*map(np.isinf, _seed_squares(x1, x2, np.float_power)))
        t_dag = _march_alliance_vec(phi1, phi2, x1, x2, beta)
        gain, losing = _alliance_gain(phi1, phi2, x1, x2, beta, t_dag, _payoffs_vec(phi1, phi2, x1, x2), _payoffs_vec)
    if (~dagger & (overflow | losing)).any():
        for *game, b, dag in zip(*(v.tolist() for v in (phi1, phi2, x1, x2, beta, dagger))):
            if not dag:
                _alliance_optimal_f(*game, b, _payoffs_any_f(*game), _cuts(*game, b), False, 1.0)
        raise InternalInconsistencyError("the array pass rejects a game that the point path accepts")
    tau = np.where(dagger, 0.0, -t_dag)
    # max(gain, 0.0): a difference of equal sums is +0.0, so no -0.0 reaches here
    gain = np.where(dagger | (gain < 0.0), 0.0, gain)
    return tuple(v.reshape(shape) for v in (case, threshold, exists, tau, gain))


# ---------------------------------------------------------------------------
# Mutually beneficial transfer interval.
# ---------------------------------------------------------------------------


def _crossing_equations(phi, phi_o, u0, p0, p1, q0, q1) -> list[tuple[int, float, float, float]]:
    """(case, a, b, c): a*t^2 + b*t + c = 0 wherever a payoff formula of the case equals u0.

    The player's budget is p = p0 + p1*t and its valuation phi, the other's
    q = q0 + q1*t and phi_o. A case lists its formulas for either front,
    weak and strong (case 1's front 2 keeps phi and never crosses); roots of
    a formula not in force, or added by squaring, only split a segment.
    """
    d = 1.0 - u0 / phi
    lines = [  # alpha*p + gamma*q + delta = 0
        (1, phi, 0.0, -2.0 * u0),  # front 1, weak: phi*p/2 = u0
        (1, 2.0 * d, 0.0, -1.0),  # front 1, strong: phi*(1 - 1/(2p)) = u0
        (2, phi_o / phi, -4.0 * (u0 / phi) ** 2, 0.0),  # front 1: sqrt(phi*phi_o*p/q)/2 = u0
        (4, 2.0 * d, 2.0 * d, -1.0),  # either front: phi*(1 - 1/(2(p + q))) = u0
    ]
    squares = [  # k*p*q = (a + b*p)^2
        (2, phi_o / phi, 1.0, -2.0 * d),  # front 2
        (3, 4.0 * d * d * phi_o / phi, 1.0, -2.0 * d),  # front 1, strong
        (3, phi_o / phi, 2.0 * u0 / phi, -1.0),  # either front, weak
    ]
    out = [(case, 0.0, al * p1 + ga * q1, al * p0 + ga * q0 + de) for case, al, ga, de in lines]
    for case, k, a, b in squares:
        a0, a1 = a + b * p0, b * p1
        out.append((case, k * p1 * q1 - a1 * a1, k * (p0 * q1 + p1 * q0) - 2.0 * a0 * a1, k * p0 * q0 - a0 * a0))
    return out


def _mb_interval_oriented(
    phi1: float, phi2: float, x1: float, x2: float, beta: float, base: tuple[float, float], cuts: list[float]
) -> tuple[tuple[float, float] | None, bool]:
    """Maximal interval of donations improving both players, adjacent to 0.

    base is the zero-transfer (u1, u2) and cuts the march's _cuts list, into
    which the proportional band's edges are merged. A segment is split at the
    roots of its own case's crossing equations, each solved at most once.
    Returns ((tau_low, tau_high), anomaly) in the oriented frame with
    tau_low < tau_high <= 0, or (None, True) when no donation improves both.
    The anomaly flag marks an improving set apart from 0 or in pieces.
    """
    u1_base, u2_base = base
    edges = sorted(cuts + [t for t in _band_edges(phi1, phi2, x1, x2, beta) if 0.0 < t < cuts[-1]])
    # (t_a, t_b, case, u1, u2): a segment's label and, unless a root splits it, its payoffs
    segments = [
        (t_a, t_b, *_donation_payoffs(phi1, phi2, x1, x2, beta, 0.5 * (t_a + t_b)))
        for t_a, t_b in zip(edges, edges[1:])
    ]
    first_case, first_roots = segments[0][2], []
    roots = {case: [] for _, _, case, _, _ in segments[1:]}
    equations = _crossing_equations(phi1, phi2, u1_base, x1, beta, x2, -1.0)
    equations += _crossing_equations(phi2, phi1, u2_base, x2, -1.0, x1, beta)
    for case, a, b, c in equations:
        if case in roots:
            roots[case] += _quadratic_roots(a, b, c)
        if case == first_case:
            # the first segment's formulas meet u0 exactly at t = 0: drop c's rounding
            first_roots += _quadratic_roots(a, b, 0.0)

    pieces = []  # (t_a, t_b, u1, u2) between consecutive cuts and roots
    for t_a, t_b, case, u1, u2 in segments:
        inner = sorted([t for t in (roots[case] if t_a > 0.0 else first_roots) if t_a < t < t_b])
        if inner:
            bounds = [t_a, *inner, t_b]
            pieces += [
                (s_a, s_b, *_donation_payoffs(phi1, phi2, x1, x2, beta, 0.5 * (s_a + s_b))[1:])
                for s_a, s_b in zip(bounds, bounds[1:])
            ]
        else:
            pieces.append((t_a, t_b, u1, u2))
    runs: list[list[float]] = []
    for t_a, t_b, u1, u2 in pieces:
        # no gain is 0 between cuts, so one that reads 0 is below rounding: no loss
        if t_a < t_b and u1 >= u1_base and u2 >= u2_base:
            if runs and runs[-1][1] == t_a:
                runs[-1][1] = t_b
            else:
                runs.append([t_a, t_b])
    if not runs:
        return None, True
    t_low, t_high = runs[0]
    # 0.0 - t rather than -t, so a run from t = 0 ends at tau 0.0 and not -0.0
    return (-t_high, 0.0 - t_low), len(runs) > 1 or t_low > 0.0


def mb_interval(g: GameParams, beta: float) -> tuple[float, float] | None:
    """Open interval of transfers improving both players, in the caller's frame."""
    _check_beta(beta)
    phi1, phi2, x1, x2, swapped = _frame(g)
    case, u1, u2 = _donation_payoffs(phi1, phi2, x1, x2, beta, 0.0)
    if not _verdicts(case, phi1, phi2, x1, x2, beta)[1]:
        return None
    interval = _mb_interval_oriented(phi1, phi2, x1, x2, beta, (u1, u2), _cuts(phi1, phi2, x1, x2, beta))[0]
    return _map_interval(interval, swapped, g.adversary_budget)


def _map_interval(
    interval: tuple[float, float] | None, swapped: bool, xa: float
) -> tuple[float, float] | None:
    if interval is None:
        return None
    lo, hi = interval
    if swapped:
        # 0.0 - x rather than -x, so a zero endpoint maps to 0.0 and not -0.0
        return 0.0 - hi * xa, 0.0 - lo * xa
    return lo * xa, hi * xa


def analyze(g: GameParams, beta: float) -> TransferAnalysis:
    """Complete transfer analysis of a raw game at one efficiency value.

    The zero-transfer response gives the case, both verdicts and the base
    payoffs; one _cuts list serves the interval and the alliance march.
    """
    _check_beta(beta)
    phi1, phi2, x1, x2, swapped = _frame(g)
    xa = g.adversary_budget
    case, u1, u2 = _donation_payoffs(phi1, phi2, x1, x2, beta, 0.0)  # the untransferred game, oriented
    threshold, exists, dagger = _verdicts(case, phi1, phi2, x1, x2, beta)
    interval, anomaly, tau, gain = None, False, 0.0, 0.0
    if exists or not dagger:
        cuts = _cuts(phi1, phi2, x1, x2, beta)
        if exists:
            interval, anomaly = _mb_interval_oriented(phi1, phi2, x1, x2, beta, (u1, u2), cuts)
        if not dagger:
            tau, gain = _alliance_optimal_f(phi1, phi2, x1, x2, beta, (u1, u2), cuts, swapped, xa)
    return TransferAnalysis(
        mb_exists=exists,
        mb_interval=_map_interval(interval, swapped, xa),
        mb_beta_threshold=threshold,
        alliance_tau=tau,
        alliance_payoff_gain=gain,
        in_g_dagger=dagger,
        case_at_zero=Case(case),
        swapped=swapped,
        mb_interval_anomaly=anomaly,
    )


def mutual_margin(g: GameParams, beta: float) -> float:
    """Best simultaneous improvement max_tau min(du1, du2) on a closed-form grid.

    Used to gate oracle comparisons: a grid oracle can only be expected to
    certify mutual benefit when this margin clears its discretization slack.
    """
    _check_beta(beta)
    game = _frame(g)[:4]
    u1_base, u2_base = _induced_payoffs(*game, 0.0, beta)
    u1, u2 = _induced_payoffs_vec(*game, _even_grid(*_tau_bounds(*game[2:]), _DOMAIN_POINTS), beta)
    return float(np.max(np.minimum(u1 - u1_base, u2 - u2_base)))


__all__ = [
    "InternalInconsistencyError",
    "PostTransferBudgets",
    "Transfer",
    "TransferAnalysis",
    "alliance_beta_threshold",
    "alliance_optimal",
    "alliance_payoff",
    "analyze",
    "apply_transfer",
    "delta_payoffs",
    "in_g_dagger",
    "mb_beta_threshold",
    "mb_exists",
    "mb_interval",
    "mutual_margin",
    "payoffs_at",
]
