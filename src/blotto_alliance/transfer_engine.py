"""Budget-transfer analysis: payoff curves, mutual-benefit tests, alliance optimum.

A transfer tau in (-x2, x1) moves budget between the players before the
adversary responds; the recipient only receives a fraction beta in (0, 1] of
what was sent. All analysis happens in the oriented frame
(phi2/phi1 <= x2/x1), where the only candidate direction is player 2
donating to player 1 (tau < 0); mirrored games are handled by swapping
indices on entry and negating transfer signs on exit.

Closed forms implemented here:

  * mutual-benefit efficiency threshold
        min( sqrt(4*phi2*x1/(phi1*x2**3)) - x1/x2,
             sqrt(4*phi2*x1/(phi1*x2))    + x1/x2 )
    where the first branch binds in case 2 and the second in case 3; a
    mutually beneficial transfer exists iff the game is in case 2 or 3 and
    beta strictly exceeds the branch for its case.

  * the zero-transfer-optimal set: games where no transfer can raise the
    combined payoff u1 + u2. Case 4 games always belong; case 2 games belong
    iff x1 + beta*x2 <= sqrt(phi2*x1/(phi1*x2)); case 3 games belong iff
    beta*phi1 - phi2 <= sqrt(phi1*phi2/(x1*x2)) * (x1 - beta*x2), both
    decided as beta <= alliance_beta_threshold; case 1 games never belong.

  * the alliance-optimal transfer. Along the donation path the case
    boundaries are roots of linear and quadratic polynomials in the
    donation, and within each case region u1 + u2 is stationary where the
    post-transfer budget ratio reaches a closed-form value; the march walks
    the regions in order and stops at the first stationary point or
    falling region edge.

  * the mutual-benefit interval. With p, q a player's own and the other's
    budget (linear in the donation) and d = 1 - U/phi, its payoff meets the
    no-transfer value U where phi*p = 2U or 2dp = 1 (case 1, front 1),
    phi*phi_o*p = 4U^2*q (case 2, front 1), 2d(p + q) = 1 (case 4), or
    k*p*q = (a + b*p)^2 with (k, a, b) = (phi_o/phi, 1, -2d) (case 2,
    front 2), (4d^2*phi_o/phi, 1, -2d) (case 3, strong on front 1) or
    (phi*phi_o, 2U, -phi) (case 3, weak). Between these roots, the case
    boundaries and the proportional band's edges, min(du1, du2) keeps its
    sign; the interval is the first improving run.

The alliance march and the mutual-benefit threshold also run as array
passes (_alliance_optimal_vec, _mb_threshold_vec) over broadcast arrays of
oriented unit-adversary games. Each closed-form rule is written once and
both paths call it: the mutual-benefit rule, the transfer-domain edge, the
seed polynomials, the stationary ratios, the alliance gain and its
losing-transfer error. The array passes take the scalar steps in the same
order, so every element equals the scalar result bit for bit, the sign of
zero included. The region raster and the beta sweep use them; point
queries (analyze, alliance_optimal) stay scalar.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from blotto_alliance.adversary_response import (
    PROPORTIONAL_RTOL,
    Case,
    GameParams,
    Orientation,
    PayoffProfile,
    _classify_f,
    _classify_vec,
    _orient_vec,
    _payoffs_any_f,
    _payoffs_f,
    _payoffs_vec,
    normalize,
)

# Transfers are clamped this far inside the open domain (-x2, x1) before
# payoff evaluation: absolute for budgets below 1, relative above (see
# _tau_bounds); the boundaries themselves are excluded.
_EDGE = 1e-12
# Points of the evenly spaced transfer grid across the whole domain that the
# closed-form scans (mutual_margin, the beta sweep) evaluate.
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
    normalized game recorded in `orientation`.
    """

    mb_exists: bool
    mb_interval: tuple[float, float] | None
    mb_beta_threshold: float
    alliance_tau: float
    alliance_payoff_gain: float
    in_g_dagger: bool
    case_at_zero: Case
    orientation: Orientation
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


def _tau_bounds(x1: float, x2: float, maximum=max) -> tuple[float, float]:
    """The closed range of transfers that payoffs are evaluated at; arrays take maximum=np.maximum."""
    return -x2 + maximum(_EDGE, _EDGE * x2), x1 - maximum(_EDGE, _EDGE * x1)


def _domain_grid(x1: float, x2: float) -> np.ndarray:
    """_DOMAIN_POINTS evenly spaced transfers from one end of _tau_bounds to the other."""
    lo, hi = _tau_bounds(x1, x2)
    return lo + (hi - lo) * np.arange(_DOMAIN_POINTS) / (_DOMAIN_POINTS - 1)


def _induced_payoffs(g: GameParams, tau: float, beta: float) -> tuple[float, float]:
    """Payoffs (u1, u2) of the game induced by a transfer, tau clamped to _tau_bounds."""
    lo, hi = _tau_bounds(g.x1, g.x2)
    x1_bar, x2_bar = _induced_budgets(g.x1, g.x2, min(max(tau, lo), hi), beta)
    xa = g.adversary_budget
    return _payoffs_any_f(g.phi1, g.phi2, x1_bar / xa, x2_bar / xa)


def _induced_payoffs_vec(g: GameParams, taus: np.ndarray, beta: float):
    """_induced_payoffs over an array of transfers, equal element for element."""
    lo, hi = _tau_bounds(g.x1, g.x2)
    taus = np.minimum(np.maximum(taus, lo), hi)
    x1_bar = np.where(taus > 0.0, g.x1 - taus, g.x1 + beta * -taus)
    x2_bar = np.where(taus > 0.0, g.x2 + beta * taus, g.x2 - -taus)
    xa = g.adversary_budget
    return _payoffs_vec(g.phi1, g.phi2, x1_bar / xa, x2_bar / xa)


def payoffs_at(g: GameParams, t: Transfer) -> PayoffProfile:
    """Equilibrium payoffs of the game induced by the transfer, caller's frame."""
    if not (-g.x2 < t.tau < g.x1):
        raise ValueError(f"tau must lie in (-{g.x2}, {g.x1}), got {t.tau}")
    u1, u2 = _induced_payoffs(g, t.tau, t.beta)
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


def _oriented_floats(g: GameParams) -> tuple[float, float, float, float, bool]:
    gn, orientation = normalize(g)
    return gn.phi1, gn.phi2, gn.x1, gn.x2, orientation.swapped


def _mb_threshold_branches(phi1, phi2, x1, x2, cube, sqrt=math.sqrt):
    """The case-2 and case-3 branches of the threshold, given cube = phi1*x2**3."""
    return sqrt(4.0 * phi2 * x1 / cube) - x1 / x2, sqrt(4.0 * phi2 * x1 / (phi1 * x2)) + x1 / x2


def _cube_out_of_range(cube: float, phi1: float, x2: float) -> ValueError:
    how = "underflows to 0" if cube == 0.0 else "overflows"
    return ValueError(
        f"mutual-benefit threshold out of float range: phi1*x2**3 {how} "
        f"(phi1={phi1!r}, x2={x2!r} against a unit adversary)"
    )


def _mb_threshold_f(phi1: float, phi2: float, x1: float, x2: float) -> float:
    """The mutual-benefit threshold; ValueError where phi1*x2**3 is 0 or overflows."""
    try:
        cube = phi1 * x2**3
    except OverflowError:
        cube = math.inf
    if not 0.0 < cube < math.inf:
        raise _cube_out_of_range(cube, phi1, x2)
    t_case2, t_case3 = _mb_threshold_branches(phi1, phi2, x1, x2, cube)
    return min(t_case2, t_case3)


def _mb_threshold_vec(phi1, phi2, x1, x2) -> np.ndarray:
    """_mb_threshold_f per element of oriented unit-adversary arrays, raising as it does."""
    with np.errstate(all="ignore"):  # Python floats overflow silently too
        cube = phi1 * np.float_power(x2, 3)
        t_case2, t_case3 = _mb_threshold_branches(phi1, phi2, x1, x2, cube, np.sqrt)
    bad = np.flatnonzero(~((cube > 0.0) & (cube < math.inf)))
    if bad.size:
        k = bad[0]
        raise _cube_out_of_range(*(np.broadcast_to(v, cube.shape).flat[k].item() for v in (cube, phi1, x2)))
    return np.where(t_case3 < t_case2, t_case3, t_case2)  # min() keeps the first on a tie


def mb_beta_threshold(g: GameParams) -> float:
    """Efficiency above which a mutually beneficial transfer exists.

    Returned for every game; it is operative only in cases 2 and 3, where the
    smaller branch is always the one matching the game's own case.
    """
    phi1, phi2, x1, x2, _ = _oriented_floats(g)
    return _mb_threshold_f(phi1, phi2, x1, x2)


def _mb_exists_rule(case, threshold, beta):
    """Mutual benefit exists iff the case is 2 or 3 and beta > threshold; floats or arrays."""
    return ((case == 2) | (case == 3)) & (beta > threshold)


def _mutual_benefit_f(phi1: float, phi2: float, x1: float, x2: float, beta):
    """(case, threshold, exists) for an oriented unit-adversary game; beta may be an array."""
    case = _classify_f(phi1, phi2, x1, x2)
    threshold = _mb_threshold_f(phi1, phi2, x1, x2)
    return case, threshold, _mb_exists_rule(case, threshold, beta)


def mb_exists(g: GameParams, beta: float) -> bool:
    """Whether some transfer strictly raises both players' payoffs."""
    _check_beta(beta)
    phi1, phi2, x1, x2, _ = _oriented_floats(g)
    return _mutual_benefit_f(phi1, phi2, x1, x2, beta)[2]


def in_g_dagger(g: GameParams, beta: float) -> bool:
    """Whether no transfer at all can improve the combined payoff u1 + u2."""
    _check_beta(beta)
    phi1, phi2, x1, x2, _ = _oriented_floats(g)
    return _in_g_dagger_f(phi1, phi2, x1, x2, beta)


def _alliance_threshold_f(
    phi1: float, phi2: float, x1: float, x2: float, case: int, sqrt=math.sqrt
) -> float | None:
    """Zero transfer is alliance-optimal iff beta <= this (cases 2, 3); None in cases 1, 4.

    The budgets and valuations may be arrays, with sqrt=np.sqrt, for a case of 2 or 3.
    """
    if case in (1, 4):
        return None
    if case == 2:
        return (sqrt(phi2 * x1 / (phi1 * x2)) - x1) / x2
    c = sqrt(phi1 * phi2 / (x1 * x2))
    return (phi2 + c * x1) / (phi1 + c * x2)


def _in_g_dagger_f(phi1: float, phi2: float, x1: float, x2: float, beta: float) -> bool:
    case = _classify_f(phi1, phi2, x1, x2)
    threshold = _alliance_threshold_f(phi1, phi2, x1, x2, case)
    if threshold is None:
        return case == 4
    return beta <= threshold


def _in_g_dagger_vec(phi1, phi2, x1, x2, beta) -> np.ndarray:
    """_in_g_dagger_f per element of oriented unit-adversary arrays."""
    case = _classify_vec(phi1, phi2, x1, x2)
    below = [beta <= _alliance_threshold_f(phi1, phi2, x1, x2, c, np.sqrt) for c in (2, 3)]
    return (case == 4) | ((case == 2) & below[0]) | ((case == 3) & below[1])


def alliance_beta_threshold(g: GameParams) -> float | None:
    """Efficiency at which the alliance-optimal transfer turns nonzero.

    None for case 1 (always nonzero) and case 4 (always zero); for cases 2
    and 3 the returned value solves the respective membership boundary of
    the zero-transfer-optimal set, and may fall outside (0, 1].
    """
    phi1, phi2, x1, x2, _ = _oriented_floats(g)
    return _alliance_threshold_f(phi1, phi2, x1, x2, _classify_f(phi1, phi2, x1, x2))


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
    """The linear seed and the (a, b, c) of the four quadratics of _boundary_seeds.

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


def _boundary_seeds(
    phi1: float, phi2: float, x1: float, x2: float, beta: float, t_top: float
) -> list[float]:
    """Candidate case-boundary crossings along the donation path.

    With u = x1 + beta*t and v = x2 - t, every boundary between case regions
    (either orientation) is a root of a linear or quadratic polynomial in t:
    the proportional ray phi2*u = phi1*v, the all-in boundaries u*v = phi2/phi1
    and u*v = phi1/phi2, and the two strong-to-weak switches
    phi1*u*v/phi2 = (1-v)^2 and phi2*u*v/phi1 = (1-u)^2. The roots inside
    (0, t_top) are the march's segment edges; a root that is no boundary
    only splits a segment in two.
    """
    linear, quadratics = _seed_polynomials(phi1, phi2, x1, x2, beta)
    seeds = [linear]
    for a, b, c in quadratics:
        seeds += _quadratic_roots(a, b, c)
    return [t for t in seeds if 0.0 < t < t_top]


def _segment_label(phi1: float, phi2: float, x1: float, x2: float, beta: float, t: float) -> tuple[int, bool]:
    """(case, flipped) after a donation t, classified in the post-transfer orientation."""
    u, v = x1 + beta * t, x2 - t
    if phi2 * u > phi1 * v:
        return _classify_f(phi2, phi1, v, u), True
    return _classify_f(phi1, phi2, u, v), False


def _stationary_ratios(phi1, phi2, x1, x2, beta, sqrt=math.sqrt):
    """u/v where d(u1 + u2)/dt = 0 in case 2, flipped case 2 and case 3; arrays take sqrt=np.sqrt."""
    big_k = x1 + beta * x2  # x1_bar + beta*x2_bar is invariant along donations
    lead = beta * phi1 - phi2
    w = (lead + sqrt(lead * lead + 4.0 * beta * phi1 * phi2)) / (2.0 * sqrt(phi1 * phi2))
    return big_k * big_k * phi1 / phi2, beta * beta * phi1 / (phi2 * big_k * big_k), w * w


def _march_alliance(phi1: float, phi2: float, x1: float, x2: float, beta: float) -> float:
    """Donation size t = -tau >= 0 maximizing u1 + u2 in the oriented frame.

    The case boundaries of _boundary_seeds cut the donation path [0, t_top]
    into segments of one (case, flipped) label each, read at the segment's
    midpoint. Within a segment the derivative of u1 + u2 falls in t: it is
    positive throughout unflipped case 1, negative throughout flipped case 1,
    and in cases 2 and 3 it vanishes where u/v reaches a closed-form ratio r,
    that is at t = (r*x2 - x1)/(beta + r). The march stops at the first
    segment that does not improve all the way to its far end, or at a case 4
    point; when the payoff still improves at t_top, it returns t_top.
    """
    ratio_2, ratio_2_flipped, ratio_3 = _stationary_ratios(phi1, phi2, x1, x2, beta)
    t_top = -_tau_bounds(x1, x2)[0]
    cuts = [0.0, *sorted(_boundary_seeds(phi1, phi2, x1, x2, beta, t_top)), t_top]
    for t_a, t_b in zip(cuts, cuts[1:]):
        if _segment_label(phi1, phi2, x1, x2, beta, t_a)[0] == 4:
            return t_a
        case, flipped = _segment_label(phi1, phi2, x1, x2, beta, 0.5 * (t_a + t_b))
        if case == 1 and not flipped:
            continue
        if case in (1, 4):
            return t_a
        r = ratio_3 if case == 3 else ratio_2_flipped if flipped else ratio_2
        t = (r * x2 - x1) / (beta + r)
        if t < t_b:
            return max(t, t_a)  # t <= t_a: the payoff already falls from t_a
    return t_top


def _alliance_gain(phi1, phi2, x1, x2, beta, t, payoffs=_payoffs_any_f):
    """The gain in u1 + u2 of a donation t, and whether it loses; arrays take payoffs=_payoffs_vec."""
    u1, u2 = payoffs(phi1, phi2, x1 + beta * t, x2 - t)
    u1_base, u2_base = payoffs(phi1, phi2, x1, x2)
    gain = (u1 + u2) - (u1_base + u2_base)
    return gain, gain < -1e-9 * (phi1 + phi2)


def _losing_transfer(phi1, phi2, x1, x2, beta, t, gain) -> InternalInconsistencyError:
    return InternalInconsistencyError(
        "alliance march produced a losing transfer",
        {"phi1": phi1, "phi2": phi2, "x1": x1, "x2": x2, "beta": beta, "t": t, "gain": gain},
    )


def _alliance_optimal_f(phi1, phi2, x1, x2, beta, swapped: bool, xa: float) -> tuple[bool, float, float]:
    """(in_g_dagger, tau, gain) for an oriented unit-adversary game, tau in the caller's frame."""
    if _in_g_dagger_f(phi1, phi2, x1, x2, beta):
        return True, 0.0, 0.0
    t_dag = _march_alliance(phi1, phi2, x1, x2, beta)
    gain, losing = _alliance_gain(phi1, phi2, x1, x2, beta, t_dag)
    if losing:
        raise _losing_transfer(phi1, phi2, x1, x2, beta, t_dag, gain)
    return False, (t_dag if swapped else -t_dag) * xa, max(gain, 0.0)


def alliance_optimal(g: GameParams, beta: float) -> tuple[float, float]:
    """The transfer maximizing u1 + u2 and its gain over no transfer.

    Returns (0, 0) when the game sits in the zero-transfer-optimal set;
    otherwise the transfer is strictly in the donating direction (negative
    in the oriented frame) and the gain is positive.
    """
    _check_beta(beta)
    phi1, phi2, x1, x2, swapped = _oriented_floats(g)
    return _alliance_optimal_f(phi1, phi2, x1, x2, beta, swapped, g.adversary_budget)[1:]


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
    walk labels one segment of every element still marching.
    """
    t_top = -_tau_bounds(x1, x2, np.maximum)[0]
    linear, quadratics = _seed_polynomials(phi1, phi2, x1, x2, beta, np.float_power)
    seeds = np.stack([linear, *(root for q in quadratics for root in _quadratic_roots_vec(*q))], axis=1)
    seeds[~((0.0 < seeds) & (seeds < t_top[:, None]))] = np.inf
    cuts = np.sort(np.column_stack([np.zeros_like(t_top), seeds, t_top]), axis=1)
    ratio_2, ratio_2_flipped, ratio_3 = _stationary_ratios(phi1, phi2, x1, x2, beta, np.sqrt)

    def label(i, t):
        u, v = x1[i] + beta[i] * t, x2[i] - t
        flipped, *oriented = _orient_vec(phi1[i], phi2[i], u, v)
        return _classify_vec(*oriented), flipped

    t_dag = t_top.copy()  # where every segment improves to its far end
    live = np.arange(t_top.size)
    for k in range(cuts.shape[1] - 1):
        live = live[cuts[live, k + 1] < np.inf]
        if live.size == 0:
            break
        t_a, t_b = cuts[live, k], cuts[live, k + 1]
        case, flipped = label(live, 0.5 * (t_a + t_b))
        at_a = (label(live, t_a)[0] == 4) | (case == 4) | ((case == 1) & flipped)
        r = np.where(case == 3, ratio_3[live], np.where(flipped, ratio_2_flipped[live], ratio_2[live]))
        t = (r * x2[live] - x1[live]) / (beta[live] + r)
        inside = ~at_a & (case != 1) & (t < t_b)
        # max(t, t_a) keeps t on a tie, so a -0.0 survives as it does in the scalar march
        t_dag[live] = np.where(at_a, t_a, np.where(inside, np.where(t >= t_a, t, t_a), t_dag[live]))
        live = live[~(at_a | inside)]
    return t_dag


def _alliance_optimal_vec(phi1, phi2, x1, x2, beta, swapped: bool = False, xa: float = 1.0):
    """alliance_optimal per element of oriented unit-adversary games, bit for bit.

    The five arguments broadcast against each other; (tau, gain) come back
    in their broadcast shape, tau mapped to the caller's frame by swapped
    and xa as alliance_optimal maps it. Rounding that overflows or divides
    by zero stays silent, as it does on Python floats; an element outside
    G-dagger whose seed squares overflow raises the scalar march's
    ValueError, in element order with the losing-transfer check.
    """
    _check_beta(*np.asarray(beta, dtype=float).ravel().tolist())
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (phi1, phi2, x1, x2, beta)))
    shape = args[0].shape
    phi1, phi2, x1, x2, beta = (v.ravel() for v in args)
    with np.errstate(all="ignore"):
        dagger = _in_g_dagger_vec(phi1, phi2, x1, x2, beta)
        overflow = np.logical_or(*map(np.isinf, _seed_squares(x1, x2, np.float_power)))
        t_dag = _march_alliance_vec(phi1, phi2, x1, x2, beta)
        gain, losing = _alliance_gain(phi1, phi2, x1, x2, beta, t_dag, _payoffs_vec)
    bad = np.flatnonzero(~dagger & (overflow | losing))
    if bad.size:
        k = bad[0]
        if overflow[k]:
            _seed_squares(x1[k].item(), x2[k].item())  # raises the scalar march's ValueError
        raise _losing_transfer(*(v[k].item() for v in (phi1, phi2, x1, x2, beta, t_dag, gain)))
    tau = np.where(dagger, 0.0, (t_dag if swapped else -t_dag) * xa)
    # max(gain, 0.0): a difference of equal sums is +0.0, so no -0.0 reaches here
    gain = np.where(dagger | (gain < 0.0), 0.0, gain)
    return tau.reshape(shape), gain.reshape(shape)


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
        (2, phi * phi_o, -4.0 * u0 * u0, 0.0),  # front 1: sqrt(phi*phi_o*p/q)/2 = u0
        (4, 2.0 * d, 2.0 * d, -1.0),  # either front: phi*(1 - 1/(2(p + q))) = u0
    ]
    squares = [  # k*p*q = (a + b*p)^2
        (2, phi_o / phi, 1.0, -2.0 * d),  # front 2
        (3, 4.0 * d * d * phi_o / phi, 1.0, -2.0 * d),  # front 1, strong
        (3, phi * phi_o, 2.0 * u0, -phi),  # either front, weak
    ]
    out = [(case, 0.0, al * p1 + ga * q1, al * p0 + ga * q0 + de) for case, al, ga, de in lines]
    for case, k, a, b in squares:
        a0, a1 = a + b * p0, b * p1
        out.append((case, k * p1 * q1 - a1 * a1, k * (p0 * q1 + p1 * q0) - 2.0 * a0 * a1, k * p0 * q0 - a0 * a0))
    return out


def _mb_interval_oriented(
    phi1: float, phi2: float, x1: float, x2: float, beta: float
) -> tuple[tuple[float, float] | None, bool]:
    """Maximal interval of donations improving both players, adjacent to 0.

    Returns ((tau_low, tau_high), anomaly) in the oriented frame with
    tau_low < tau_high <= 0, or (None, True) when no donation improves both.
    The anomaly flag marks an improving set apart from 0 or in pieces.
    """
    u1_base, u2_base = _payoffs_f(phi1, phi2, x1, x2)
    equations = _crossing_equations(phi1, phi2, u1_base, x1, beta, x2, -1.0)
    equations += _crossing_equations(phi2, phi1, u2_base, x2, -1.0, x1, beta)
    t_top = -_tau_bounds(x1, x2)[0]
    edges = _boundary_seeds(phi1, phi2, x1, x2, beta, t_top)
    for s1, s2 in ((1.0, 1.0 - PROPORTIONAL_RTOL), (1.0 - PROPORTIONAL_RTOL, 1.0)):
        t = (s1 * phi1 * x2 - s2 * phi2 * x1) / (s2 * phi2 * beta + s1 * phi1)  # s2*phi2*u = s1*phi1*v
        edges += [t] if 0.0 < t < t_top else []
    edges = [0.0, *sorted(edges), t_top]
    cuts = edges.copy()
    for t_a, t_b in zip(edges, edges[1:]):
        case = _segment_label(phi1, phi2, x1, x2, beta, 0.5 * (t_a + t_b))[0]
        for eq_case, a, b, c in equations:
            if eq_case == case:
                # the first segment's formulas meet u0 exactly at t = 0: drop c's rounding
                cuts += [t for t in _quadratic_roots(a, b, c if t_a > 0.0 else 0.0) if t_a < t < t_b]
    cuts.sort()

    runs: list[list[float]] = []
    for t_a, t_b in zip(cuts, cuts[1:]):
        u1, u2 = _payoffs_any_f(phi1, phi2, *_induced_budgets(x1, x2, -0.5 * (t_a + t_b), beta))
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
    phi1, phi2, x1, x2, swapped = _oriented_floats(g)
    if not _mutual_benefit_f(phi1, phi2, x1, x2, beta)[2]:
        return None
    return _map_interval(_mb_interval_oriented(phi1, phi2, x1, x2, beta)[0], swapped, g.adversary_budget)


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
    """Complete transfer analysis of a raw game at one efficiency value."""
    _check_beta(beta)
    gn, orientation = normalize(g)
    phi1, phi2, x1, x2 = gn.phi1, gn.phi2, gn.x1, gn.x2
    case, threshold, exists = _mutual_benefit_f(phi1, phi2, x1, x2, beta)

    interval, anomaly = _mb_interval_oriented(phi1, phi2, x1, x2, beta) if exists else (None, False)
    dagger, tau, gain = _alliance_optimal_f(phi1, phi2, x1, x2, beta, orientation.swapped, g.adversary_budget)
    return TransferAnalysis(
        mb_exists=exists,
        mb_interval=_map_interval(interval, orientation.swapped, g.adversary_budget),
        mb_beta_threshold=threshold,
        alliance_tau=tau,
        alliance_payoff_gain=gain,
        in_g_dagger=dagger,
        case_at_zero=Case(case),
        orientation=orientation,
        mb_interval_anomaly=anomaly,
    )


def mutual_margin(g: GameParams, beta: float) -> float:
    """Best simultaneous improvement max_tau min(du1, du2) on a closed-form grid.

    Used to gate oracle comparisons: a grid oracle can only be expected to
    certify mutual benefit when this margin clears its discretization slack.
    """
    _check_beta(beta)
    gn, _ = normalize(g)
    u1_base, u2_base = _induced_payoffs(gn, 0.0, beta)
    u1, u2 = _induced_payoffs_vec(gn, _domain_grid(gn.x1, gn.x2), beta)
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
