"""Closed-form equilibrium payoffs for a single two-agent General Lotto game.

In a General Lotto game a player with budget X faces an adversary with
budget X_A over contests worth phi in total, and budget constraints bind
only in expectation. The equilibrium payoff to the player is

    phi * X / (2 * X_A)        if X <= X_A
    phi * (1 - X_A / (2 * X))  if X >  X_A

and the adversary receives the remainder phi minus that. Ties at zero
allocation go to the player, so a zero adversary budget yields the full
valuation phi regardless of the player's budget.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LottoInstance:
    """One front of a Lotto contest: budgets in resource units, value phi > 0."""

    player_budget: float
    adversary_budget: float
    total_value: float

    def __post_init__(self):
        if not (self.player_budget >= 0):
            raise ValueError(f"player_budget must be >= 0, got {self.player_budget}")
        if not (self.adversary_budget >= 0):
            raise ValueError(f"adversary_budget must be >= 0, got {self.adversary_budget}")
        if not (self.total_value > 0):
            raise ValueError(f"total_value must be > 0, got {self.total_value}")


def payoff(player_budget: float, adversary_budget: float, total_value: float) -> float:
    """Player-side equilibrium payoff; the scalar path for point queries."""
    if adversary_budget == 0.0:
        return total_value
    if player_budget <= adversary_budget:
        return total_value * player_budget / (2.0 * adversary_budget)
    return total_value * (1.0 - adversary_budget / (2.0 * player_budget))


def equilibrium_payoff(inst: LottoInstance) -> tuple[float, float]:
    """Return (player_payoff, adversary_payoff); the two always sum to phi."""
    u = payoff(inst.player_budget, inst.adversary_budget, inst.total_value)
    return u, inst.total_value - u


def payoff_vec(player_budget, adversary_budget, total_value: float | np.ndarray) -> np.ndarray:
    """Vectorized player payoff; total_value broadcasts like the budgets.

    Each element equals payoff() of the same arguments bit for bit.
    """
    x = np.asarray(player_budget, dtype=float)
    xa = np.asarray(adversary_budget, dtype=float)
    safe_xa = np.where(xa > 0.0, xa, 1.0)
    safe_x = np.where(x > 0.0, x, 1.0)
    weak = total_value * x / (2.0 * safe_xa)
    strong = total_value * (1.0 - xa / (2.0 * safe_x))
    out = np.where(x <= xa, weak, strong)
    return np.where(xa == 0.0, total_value, out)


__all__ = ["LottoInstance", "equilibrium_payoff", "payoff", "payoff_vec"]
