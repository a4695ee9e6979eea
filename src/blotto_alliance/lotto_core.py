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


def payoff_vec(player_budget, adversary_budget, total_value: float | np.ndarray, out=None) -> np.ndarray:
    """Vectorized player payoff; total_value broadcasts to the budgets' shape.

    Each element equals payoff() of the same arguments bit for bit. The
    result is written into out when one is given, an array of the budgets'
    broadcast shape, and out itself is returned; a 0-d result is a 0-d array.
    """
    x = np.asarray(player_budget, dtype=float)
    xa = np.asarray(adversary_budget, dtype=float)
    # the branch not selected may divide by a zero budget or overflow; the scalar path is silent too
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the strong branch, total_value*(1 - xa/(2x)), in out; then the weak one, total_value*x/(2xa).
        # asarray: on 0-d inputs and no out, the division returns a scalar, which cannot be written into
        out = np.asarray(np.divide(xa, 2.0 * x, out=out))
        np.subtract(1.0, out, out=out)
        np.multiply(total_value, out, out=out)
        weak = np.multiply(2.0, xa, out=np.empty_like(out))
        np.divide(total_value * x, weak, out=weak)
    np.copyto(out, weak, where=x <= xa)
    np.copyto(out, total_value, where=xa == 0.0)
    return out


__all__ = ["payoff", "payoff_vec"]
