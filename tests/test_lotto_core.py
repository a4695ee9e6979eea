"""Single-front Lotto payoff: worked examples and structural properties."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blotto_alliance.lotto_core import LottoInstance, equilibrium_payoff, payoff, payoff_vec

budgets = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=50.0, allow_nan=False)


class TestWorkedExamples:
    def test_symmetric_budgets_split_evenly(self):
        assert equilibrium_payoff(LottoInstance(1.0, 1.0, 1.0)) == (0.5, 0.5)

    def test_weak_side_branch(self):
        assert equilibrium_payoff(LottoInstance(0.5, 1.0, 1.0)) == (0.25, 0.75)

    def test_strong_side_branch(self):
        u, ua = equilibrium_payoff(LottoInstance(2.0, 1.0, 1.2))
        assert u == pytest.approx(0.9, abs=1e-15)
        assert ua == pytest.approx(0.3, abs=1e-15)

    def test_zero_budget_wins_nothing(self):
        assert equilibrium_payoff(LottoInstance(0.0, 1.0, 3.0)) == (0.0, 3.0)

    def test_both_budgets_zero_ties_go_to_player(self):
        assert equilibrium_payoff(LottoInstance(0.0, 0.0, 2.0)) == (2.0, 0.0)

    def test_zero_adversary_budget_yields_full_value(self):
        assert equilibrium_payoff(LottoInstance(0.7, 0.0, 2.0)) == (2.0, 0.0)


class TestValidation:
    @pytest.mark.parametrize(
        "player,adversary,value",
        [(-0.1, 1.0, 1.0), (1.0, -0.1, 1.0), (1.0, 1.0, 0.0), (1.0, 1.0, -2.0)],
    )
    def test_domain_errors(self, player, adversary, value):
        with pytest.raises(ValueError):
            LottoInstance(player, adversary, value)


class TestProperties:
    @given(budgets, budgets, positive)
    def test_conservation(self, x, xa, phi):
        u, ua = equilibrium_payoff(LottoInstance(x, xa, phi))
        assert abs(u + ua - phi) <= 1e-12 * phi

    @given(budgets, budgets, positive)
    def test_bounds(self, x, xa, phi):
        u, ua = equilibrium_payoff(LottoInstance(x, xa, phi))
        assert -1e-15 <= u <= phi * (1 + 1e-15)
        assert -1e-15 <= ua <= phi * (1 + 1e-15)

    @given(positive, positive)
    def test_continuity_at_equal_budgets(self, x, phi):
        weak = phi * x / (2.0 * x)
        strong = phi * (1.0 - x / (2.0 * x))
        assert payoff(x, x, phi) == pytest.approx(weak, rel=1e-12)
        assert weak == pytest.approx(strong, rel=1e-12)

    def test_monotone_in_budgets(self, rng):
        for _ in range(200):
            x, xa = rng.uniform(0.01, 5.0, size=2)
            phi = rng.uniform(0.1, 5.0)
            h = 1e-6
            assert payoff(x + h, xa, phi) >= payoff(x, xa, phi) - 1e-12
            assert payoff(x, xa + h, phi) <= payoff(x, xa, phi) + 1e-12

    @given(positive, positive, positive, st.floats(min_value=1e-2, max_value=1e3))
    def test_scale_invariance(self, x, xa, phi, c):
        assert payoff(c * x, c * xa, phi) == pytest.approx(payoff(x, xa, phi), rel=1e-12)


# the zero-budget branches are computed and discarded; no warning may leak
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestVectorized:
    def test_matches_scalar(self, rng):
        x = rng.uniform(0.0, 5.0, size=300)
        xa = rng.uniform(0.0, 5.0, size=300)
        xa[::17] = 0.0
        x[::23] = 0.0
        got = payoff_vec(x, xa, 1.7)
        expected = np.array([payoff(a, b, 1.7) for a, b in zip(x, xa)])
        np.testing.assert_allclose(got, expected, rtol=0, atol=0)

    def test_array_total_value_matches_scalar(self, rng):
        x = rng.uniform(0.0, 5.0, size=300)
        xa = rng.uniform(0.0, 5.0, size=300)
        phi = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=300))
        xa[::17] = 0.0
        got = payoff_vec(x, xa, phi)
        np.testing.assert_array_equal(got, [payoff(*args) for args in zip(x.tolist(), xa.tolist(), phi.tolist())])

    def test_broadcasts(self):
        x = np.array([[0.5], [2.0]])
        xa = np.array([0.25, 0.5, 1.0])
        out = payoff_vec(x, xa, 1.0)
        assert out.shape == (2, 3)
        assert out[0, 2] == 0.25
