"""Adversary best response in the coalitional game: case classification and split.

A coalitional game (phi1, phi2, x1, x2) pits two players, each on their own
Lotto front, against one adversary holding a unit budget. After normalizing
the adversary budget to 1 and orienting the indices so that
phi2/phi1 <= x2/x1, the adversary's optimal division of its budget between
the two fronts falls into one of four regimes:

  case 1: phi2/phi1 != x2/x1 and phi2/phi1 <= x1*x2      -> all-in on front 1
  case 2: 0 < 1 - sqrt(phi1*x1*x2/phi2) <= x2            -> sqrt(phi1*x1*x2/phi2) on front 1
  case 3: 1 - sqrt(phi1*x1*x2/phi2) > x2                 -> 1/(1 + sqrt(phi2/phi1 * x2/x1))
  case 4: phi2/phi1 == x2/x1 and x1 + x2 >= 1            -> indifferent among splits with x_a_i <= x_i

The adversary always exhausts its budget. In case 4 its payoff is constant
over admissible splits, and this module reports the proportional split
x_a_i = x_i/(x1+x2) as a documented convention; individual player payoffs do
depend on that choice even though the adversary and alliance totals do not.
"""

import math
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from blotto_alliance import lotto_core

# Relative tolerance under which phi2*x1 and phi1*x2 are treated as equal,
# i.e. the game is considered exactly proportional (case 4 candidate).
PROPORTIONAL_RTOL = 1e-9


class Case(IntEnum):
    CASE_1 = 1
    CASE_2 = 2
    CASE_3 = 3
    CASE_4 = 4


@dataclass(frozen=True)
class GameParams:
    """A coalitional game: front valuations, player budgets, adversary budget."""

    phi1: float
    phi2: float
    x1: float
    x2: float
    adversary_budget: float = 1.0

    def __post_init__(self):
        for name in ("phi1", "phi2", "x1", "x2", "adversary_budget"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                kind = "strictly positive" if math.isfinite(value) else "finite"
                raise ValueError(f"{name} must be {kind}, got {value}")
        for name, value in (("x1", self.x1), ("x2", self.x2)):
            if not (0.0 < value / self.adversary_budget < math.inf):
                raise ValueError(f"{name}/adversary_budget leaves the float range: {value}/{self.adversary_budget}")


@dataclass(frozen=True)
class PayoffProfile:
    """Equilibrium payoffs of the two players and the adversary (valuation units)."""

    u1: float
    u2: float
    u_adversary: float


@dataclass(frozen=True)
class AdversaryResponse:
    case_label: Case
    x_a1: float
    x_a2: float


def _frame(g: GameParams) -> tuple[float, float, float, float, bool]:
    """(phi1, phi2, x1, x2, swapped): the game with budgets in the adversary's units, oriented.

    The indices are swapped, and swapped is True, where phi2/phi1 > x2/x1
    (cross-multiplied to avoid division), so the result has phi2/phi1 <= x2/x1.
    """
    xa = g.adversary_budget
    x1, x2 = g.x1 / xa, g.x2 / xa
    if g.phi2 * x1 > g.phi1 * x2:
        return g.phi2, g.phi1, x2, x1, True
    return g.phi1, g.phi2, x1, x2, False


def normalize(raw: GameParams) -> tuple[GameParams, bool]:
    """_frame's game as a GameParams holding a unit adversary budget, and swapped."""
    phi1, phi2, x1, x2, swapped = _frame(raw)
    return GameParams(phi1, phi2, x1, x2), swapped


def _require_normalized_oriented(g: GameParams) -> None:
    if abs(g.adversary_budget - 1.0) > 1e-12:
        raise ValueError(f"game must be normalized (adversary_budget == 1), got {g.adversary_budget}")
    lhs, rhs = g.phi2 * g.x1, g.phi1 * g.x2
    if lhs > rhs * (1.0 + PROPORTIONAL_RTOL):
        raise ValueError("game must be oriented: phi2/phi1 <= x2/x1 is violated")


def _proportional(a, b, maximum=max):
    """Whether a and b agree within PROPORTIONAL_RTOL, the band of case 4; arrays take maximum=np.maximum.

    Symmetric in a and b: a - b is exactly -(b - a), and max is symmetric.
    """
    return abs(a - b) <= PROPORTIONAL_RTOL * maximum(a, b)


def _response_f(phi1: float, phi2: float, x1: float, x2: float) -> tuple[int, float]:
    """(case, split) of an oriented unit-adversary game: a plain-int label, the allocation to front 1."""
    proportional = _proportional(phi2 * x1, phi1 * x2)
    if proportional and x1 + x2 >= 1.0:
        return 4, x1 / (x1 + x2)
    if not proportional and phi2 / phi1 <= x1 * x2:
        return 1, 1.0
    # Reaching here forces q < 1: with phi2/phi1 > x1*x2 that is immediate,
    # and a proportional game with x1 + x2 < 1 has q = x1 < 1.
    q = math.sqrt(phi1 * x1 * x2 / phi2)
    if 1.0 - q <= x2:
        return 2, q
    # sqrt(phi1*x1)/(sqrt(phi1*x1) + sqrt(phi2*x2)) as a ratio, so no product underflows
    return 3, 1.0 / (1.0 + math.sqrt(phi2 / phi1 * (x2 / x1)))


def _payoffs_f(phi1: float, phi2: float, x1: float, x2: float) -> tuple[float, float]:
    """Player payoffs (u1, u2) for an oriented unit-adversary game."""
    a = _response_f(phi1, phi2, x1, x2)[1]
    return lotto_core.payoff(x1, a, phi1), lotto_core.payoff(x2, 1.0 - a, phi2)


def _payoffs_any_f(phi1: float, phi2: float, x1: float, x2: float) -> tuple[float, float]:
    """Player payoffs for a unit-adversary game in either orientation."""
    if phi2 * x1 > phi1 * x2:
        u2, u1 = _payoffs_f(phi2, phi1, x2, x1)
        return u1, u2
    return _payoffs_f(phi1, phi2, x1, x2)


# Array kernel: the scalar functions above over numpy arrays of budgets,
# element for element in the same order of operations, so every element
# equals its scalar counterpart bit for bit. _classify_vec returns only the
# case, with q = sqrt(phi1*x1*x2/phi2), for the march's labels; _payoffs_vec
# chooses the split itself and never orients its outputs.


def _orient_vec(phi1: float, phi2: float, x1: np.ndarray, x2: np.ndarray):
    """(flipped, phi1, phi2, x1, x2) per element, swapped as in _payoffs_any_f."""
    flipped = phi2 * x1 > phi1 * x2
    return (
        flipped,
        np.where(flipped, phi2, phi1),
        np.where(flipped, phi1, phi2),
        np.where(flipped, x2, x1),
        np.where(flipped, x1, x2),
    )


def _classify_vec(phi1, phi2, x1, x2) -> tuple[np.ndarray, np.ndarray]:
    """(case, q) per element of oriented arrays, the case as _response_f's; case 4 takes precedence."""
    proportional = _proportional(phi2 * x1, phi1 * x2, np.maximum)
    q = np.sqrt(phi1 * x1 * x2 / phi2)
    case = np.where(1.0 - q <= x2, 2, 3)
    case[~proportional & (phi2 / phi1 <= x1 * x2)] = 1
    case[proportional & (x1 + x2 >= 1.0)] = 4
    return case, q


def _payoffs_vec(phi1, phi2, x1: np.ndarray, x2: np.ndarray):
    """_payoffs_any_f per element: player payoffs (u1, u2) of unit-adversary games.

    The band test, x1 + x2 and x1*x2 are symmetric under the player swap, so
    they are taken in the caller's frame; the split a goes to the oriented
    front 1, and each player's own front is read in the caller's frame.
    """
    flipped, p1, p2, y1, y2 = _orient_vec(phi1, phi2, x1, x2)
    total = x1 + x2
    q = np.sqrt(p1 * y1 * y2 / p2)
    a = np.where(1.0 - q <= y2, q, 1.0 / (1.0 + np.sqrt(p2 / p1 * (y2 / y1))))  # case 2 or 3
    a = np.where(
        _proportional(phi2 * x1, phi1 * x2, np.maximum),
        np.where(total >= 1.0, y1 / total, a),  # case 4, or a proportional game off it
        np.where(p2 / p1 <= x1 * x2, 1.0, a),  # case 1
    )
    b = 1.0 - a
    return (
        lotto_core.payoff_vec(x1, np.where(flipped, b, a), phi1),
        lotto_core.payoff_vec(x2, np.where(flipped, a, b), phi2),
    )


def classify(g: GameParams) -> Case:
    """Classify a normalized, oriented game into one of the four Table regimes.

    Case 4 is tested first because its equality condition overlaps case 1 at
    tolerance boundaries; cases 1, 2, 3 follow in order. Exactly one label is
    returned for every positive parameter tuple.
    """
    _require_normalized_oriented(g)
    return Case(_response_f(g.phi1, g.phi2, g.x1, g.x2)[0])


def optimal_split(g: GameParams) -> AdversaryResponse:
    """The adversary's optimal division of its unit budget between the fronts."""
    _require_normalized_oriented(g)
    case, x_a1 = _response_f(g.phi1, g.phi2, g.x1, g.x2)
    return AdversaryResponse(case_label=Case(case), x_a1=x_a1, x_a2=1.0 - x_a1)


def stage_payoffs(g: GameParams) -> PayoffProfile:
    """Equilibrium payoffs of a normalized, oriented game under the optimal split."""
    _require_normalized_oriented(g)
    u1, u2 = _payoffs_f(g.phi1, g.phi2, g.x1, g.x2)
    _check_bounds(u1, g.phi1)
    _check_bounds(u2, g.phi2)
    return PayoffProfile(u1=u1, u2=u2, u_adversary=g.phi1 + g.phi2 - u1 - u2)


def _check_bounds(u: float, phi: float) -> None:
    if not (-1e-9 * phi <= u <= phi * (1.0 + 1e-9)):
        raise ArithmeticError(f"player payoff {u} escaped [0, {phi}]")


def mirror(g: GameParams) -> GameParams:
    """The same game with player indices exchanged."""
    return replace(g, phi1=g.phi2, phi2=g.phi1, x1=g.x2, x2=g.x1)


__all__ = [
    "AdversaryResponse",
    "Case",
    "GameParams",
    "PROPORTIONAL_RTOL",
    "PayoffProfile",
    "classify",
    "mirror",
    "normalize",
    "optimal_split",
    "stage_payoffs",
]
