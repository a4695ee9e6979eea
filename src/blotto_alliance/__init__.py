"""Numerical analysis of coalitional General Lotto games with lossy budget transfers.

Two players fight separate Lotto contests against a common adversary who
splits a single budget between the two fronts. Before the adversary moves,
the players may shift budget between themselves, losing a fraction of any
transfer in transit. This package computes the closed-form equilibrium
payoffs, the adversary's optimal budget division, the set of transfers that
benefit both players, and the transfer that maximizes the two players'
combined payoff, and it ships a brute-force grid oracle that validates every
closed form by enumeration.
"""

from blotto_alliance.adversary_response import (
    AdversaryResponse,
    Case,
    GameParams,
    PayoffProfile,
    classify,
    normalize,
    optimal_split,
    stage_payoffs,
)
from blotto_alliance.transfer_engine import (
    PostTransferBudgets,
    Transfer,
    TransferAnalysis,
    alliance_optimal,
    alliance_payoff,
    analyze,
    apply_transfer,
    delta_payoffs,
    in_g_dagger,
    mb_beta_threshold,
    mb_exists,
    mb_interval,
    payoffs_at,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryResponse",
    "Case",
    "GameParams",
    "PayoffProfile",
    "PostTransferBudgets",
    "Transfer",
    "TransferAnalysis",
    "alliance_optimal",
    "alliance_payoff",
    "analyze",
    "apply_transfer",
    "classify",
    "delta_payoffs",
    "in_g_dagger",
    "mb_beta_threshold",
    "mb_exists",
    "mb_interval",
    "normalize",
    "optimal_split",
    "payoffs_at",
    "stage_payoffs",
]
