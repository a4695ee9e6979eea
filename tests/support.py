"""Shared fixtures for the test suite: reference games and samplers."""

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
