"""Shared fixtures for the test suite: reference games, samplers and a 60-digit payoff reference."""

import decimal
import math

import numpy as np
from hypothesis import strategies as st

from blotto_alliance.adversary_response import GameParams, _response_f

# Hypothesis draws of one positive parameter, log-uniform over twelve decades.
log_uniform = st.floats(min_value=math.log(1e-6), max_value=math.log(1e6)).map(math.exp)

# The running example used across the docs and figure tests: a case-2 game
# with a sharp mutual-benefit threshold near beta = 0.51.
G1 = GameParams(1.0, 1.2, 0.5, 1.5)

CASE1_GAME = GameParams(1.0, 1.2, 2.0, 3.0)
CASE3_GAME = GameParams(2.0, 0.5, 0.05, 0.5)
CASE4_GAME = GameParams(1.0, 2.0, 0.5, 1.0)


def unit_game(g: GameParams) -> tuple[float, float, float, float]:
    """(phi1, phi2, x1, x2) of a game with its budgets in the adversary's units."""
    xa = g.adversary_budget
    return g.phi1, g.phi2, g.x1 / xa, g.x2 / xa


def oriented_params(rng: np.random.Generator, lo: float = 0.05, hi: float = 5.0):
    """Log-uniform positive parameters, swapped into the oriented frame."""
    phi1, phi2, x1, x2 = np.exp(rng.uniform(math.log(lo), math.log(hi), size=4))
    if phi2 * x1 > phi1 * x2:
        phi1, phi2, x1, x2 = phi2, phi1, x2, x1
    return float(phi1), float(phi2), float(x1), float(x2)


def random_oriented_game(rng: np.random.Generator, **kw) -> GameParams:
    return GameParams(*oriented_params(rng, **kw))


def random_game_of_case(rng: np.random.Generator, case: int) -> GameParams:
    """Rejection-sample an oriented game with the requested case label.

    Case 4 is a measure-zero set, so it is constructed directly: proportional
    valuations with combined budget at least the adversary's.
    """
    if case == 4:
        while True:
            x1 = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
            x2 = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
            if x1 + x2 < 1.0:
                continue
            phi1 = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
            return GameParams(phi1, phi1 * x2 / x1, x1, x2)
    while True:
        g = random_oriented_game(rng)
        if _response_f(g.phi1, g.phi2, g.x1, g.x2)[0] == case:
            return g


# The 60-digit reference. Lotto payoffs are evaluated in decimal arithmetic on
# the exact values of their float arguments. The adversary's best split
# minimizes G(a) = L1(x1, a) + L2(x2, 1 - a) over a in [0, 1]. G is convex and
# smooth between the kinks a = x1 and a = 1 - x2, so its least value lies at
# an end, at a kink, or where the single-front slopes cancel within one
# regime, which they do in closed form (see oracle._split_guess). The
# reference takes the least G over those candidates, and never calls the
# closed-form case table.
DECIMAL_CONTEXT = decimal.Context(prec=60)


def _decimal_lotto(x, a, phi):
    if a == 0:
        return phi
    if x <= a:
        return phi * x / (2 * a)
    return phi * (1 - a / (2 * x))


def decimal_split(phi1, phi2, x1, x2):
    """The adversary's split to front 1 in a unit-adversary game, in either orientation, as a 60-digit Decimal.

    Float arguments are taken at their exact values; Decimal arguments as given.
    A split at which G ties the least value exactly, where G is flat because
    phi1*x2 == phi2*x1, goes to the proportional split x1/(x1 + x2).
    """
    with decimal.localcontext(DECIMAL_CONTEXT):
        phi1, phi2, x1, x2 = (decimal.Decimal(v) for v in (phi1, phi2, x1, x2))
        c, q = (phi2 / phi1).sqrt(), (x1 * x2).sqrt()
        candidates = [
            x1 / (x1 + x2),
            decimal.Decimal(0),
            decimal.Decimal(1),
            x1,
            1 - x2,
            1 / (1 + c * (x2 / x1).sqrt()),  # both players weak
            1 - c * q,  # player 1 strong
            q / c,  # player 2 strong
        ]
        splits = [min(max(a, decimal.Decimal(0)), decimal.Decimal(1)) for a in candidates]
        return min(splits, key=lambda a: _decimal_lotto(x1, a, phi1) + _decimal_lotto(x2, 1 - a, phi2))


def decimal_payoffs(phi1, phi2, x1, x2, proportional=False):
    """Player payoffs (u1, u2) of a unit-adversary game at decimal_split's split, as 60-digit Decimals.

    proportional=True takes the proportional split x1/(x1 + x2) instead, the case-4
    convention, which the library also takes inside its band around the proportional ray.
    """
    with decimal.localcontext(DECIMAL_CONTEXT):
        phi1, phi2, x1, x2 = (decimal.Decimal(v) for v in (phi1, phi2, x1, x2))
        a = x1 / (x1 + x2) if proportional else decimal_split(phi1, phi2, x1, x2)
        return _decimal_lotto(x1, a, phi1), _decimal_lotto(x2, 1 - a, phi2)


def decimal_induced_payoffs(phi1, phi2, x1, x2, tau, beta, proportional=False):
    """(u1, u2) after the transfer tau at efficiency beta in a unit-adversary game, as 60-digit Decimals.

    The induced budgets are exact: the receiver gains beta*|tau|, the donor loses |tau|.
    """
    with decimal.localcontext(DECIMAL_CONTEXT):
        x1d, x2d, t, b = (decimal.Decimal(v) for v in (x1, x2, tau, beta))
        y1, y2 = (x1d - t, x2d + b * t) if tau > 0.0 else (x1d - b * t, x2d + t)
        return decimal_payoffs(phi1, phi2, y1, y2, proportional)


def decimal_gains(phi1, phi2, x1, x2, tau, beta):
    """(du1, du2) of the transfer tau at efficiency beta in a unit-adversary game, as 60-digit Decimals."""
    with decimal.localcontext(DECIMAL_CONTEXT):
        u1, u2 = decimal_induced_payoffs(phi1, phi2, x1, x2, tau, beta)
        v1, v2 = decimal_payoffs(phi1, phi2, x1, x2)
        return u1 - v1, u2 - v2


def decimal_thresholds(phi1, phi2, x1, x2):
    """The case-2 and case-3 branches of the mutual-benefit and alliance thresholds, as 60-digit Decimals.

    Written as the paper states them, not through R: mutual benefit
    sqrt(4*phi2*x1/(phi1*x2**3)) - x1/x2 and sqrt(4*phi2*x1/(phi1*x2)) + x1/x2,
    alliance (sqrt(phi2*x1/(phi1*x2)) - x1)/x2 and sqrt(phi2*x1/(phi1*x2)), for
    an oriented unit-adversary game. Decimal's exponent range holds every
    product of floats, so no product underflows or overflows here.
    """
    with decimal.localcontext(DECIMAL_CONTEXT):
        phi1, phi2, x1, x2 = (decimal.Decimal(v) for v in (phi1, phi2, x1, x2))
        root = (phi2 * x1 / (phi1 * x2)).sqrt()
        mutual = ((4 * phi2 * x1 / (phi1 * x2**3)).sqrt() - x1 / x2, (4 * phi2 * x1 / (phi1 * x2)).sqrt() + x1 / x2)
        return mutual, ((root - x1) / x2, root)
