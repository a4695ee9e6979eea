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

import numpy as np


def payoff(player_budget: float, adversary_budget: float, total_value: float) -> float:
    """Player-side equilibrium payoff; the scalar path for point queries."""
    if adversary_budget == 0.0:
        return total_value
    if player_budget <= adversary_budget:
        return total_value * player_budget / (2.0 * adversary_budget)
    return total_value * (1.0 - adversary_budget / (2.0 * player_budget))


def payoff_vec(player_budget, adversary_budget, total_value: float | np.ndarray) -> np.ndarray:
    """Vectorized player payoff; total_value broadcasts like the budgets.

    Each element equals payoff() of the same arguments bit for bit.
    """
    x = np.asarray(player_budget, dtype=float)
    xa = np.asarray(adversary_budget, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero budget's branch is never selected
        # asarray: on 0-d inputs the arithmetic returns a scalar, which copyto cannot write into
        out = np.asarray(total_value * (1.0 - xa / (2.0 * x)))
        np.copyto(out, total_value * x / (2.0 * xa), where=x <= xa)
    np.copyto(out, total_value, where=xa == 0.0)
    return out


__all__ = ["payoff", "payoff_vec"]
