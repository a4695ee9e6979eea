"""Single-front Lotto payoff: worked examples and structural properties."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blotto_alliance.lotto_core import payoff, payoff_vec

budgets = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=50.0, allow_nan=False)


class TestWorkedExamples:
    def test_symmetric_budgets_split_evenly(self):
        assert payoff(1.0, 1.0, 1.0) == 0.5

    def test_weak_side_branch(self):
        assert payoff(0.5, 1.0, 1.0) == 0.25

    def test_strong_side_branch(self):
        u = payoff(2.0, 1.0, 1.2)
        assert u == pytest.approx(0.9, abs=1e-15)
        assert 1.2 - u == pytest.approx(0.3, abs=1e-15)

    def test_zero_budget_wins_nothing(self):
        assert payoff(0.0, 1.0, 3.0) == 0.0

    def test_both_budgets_zero_ties_go_to_player(self):
        assert payoff(0.0, 0.0, 2.0) == 2.0

    def test_zero_adversary_budget_yields_full_value(self):
        assert payoff(0.7, 0.0, 2.0) == 2.0


class TestProperties:
    @given(budgets, budgets, positive)
    def test_bounds(self, x, xa, phi):
        # the player's payoff and the adversary's remainder both lie in [0, phi]
        u = payoff(x, xa, phi)
        assert -1e-15 <= u <= phi * (1 + 1e-15)
        assert -1e-15 <= phi - u <= phi * (1 + 1e-15)

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
        # bit for bit, sign of zero included: the single-row oracle's proof leans on it
        x = rng.uniform(0.0, 5.0, size=300)
        xa = rng.uniform(0.0, 5.0, size=300)
        xa[::17] = 0.0
        x[::23] = 0.0
        # exact ties x == xa on the oracle's 1,001-split grid, on both fronts' allocations
        grid = np.linspace(0.0, 1.0, 1001)
        wide = np.exp(rng.uniform(math.log(1e-12), math.log(1e12), size=(2, 300)))
        x = np.concatenate([x, grid, 1.0 - grid, wide[0]])
        xa = np.concatenate([xa, grid, 1.0 - grid, wide[1]])
        got = payoff_vec(x, xa, 1.7)
        expected = np.array([payoff(a, b, 1.7) for a, b in zip(x.tolist(), xa.tolist())])
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @staticmethod
    def assert_out_contract(x, xa, phi):
        """payoff_vec into a NaN-filled buffer returns that buffer, with the bits of the fresh and scalar results."""
        x, xa = np.asarray(x, dtype=float), np.asarray(xa, dtype=float)
        shape = np.broadcast(x, xa, phi).shape
        buf = np.full(shape, np.nan)
        got = payoff_vec(x, xa, phi, out=buf)
        assert got is buf
        columns = (a.ravel().tolist() for a in np.broadcast_arrays(x, xa, phi))
        scalar = np.array([payoff(*args) for args in zip(*columns)]).reshape(shape)
        np.testing.assert_array_equal(got.view(np.uint64), payoff_vec(x, xa, phi).view(np.uint64))
        np.testing.assert_array_equal(got.view(np.uint64), scalar.view(np.uint64))

    def test_array_total_value_matches_scalar(self, rng):
        x = rng.uniform(0.0, 5.0, size=300)
        xa = rng.uniform(0.0, 5.0, size=300)
        phi = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), size=300))
        xa[::17] = 0.0
        x[::13] = xa[::13]
        self.assert_out_contract(x, xa, phi)
        # one total value per row, broadcast over a split-major (3, rows) block
        self.assert_out_contract(x[:100], np.stack([xa[:100], xa[100:200], xa[200:]]), phi[200:])

    @pytest.mark.parametrize("x, xa", [(0.5, 0.3), (0.2, 0.3), (0.3, 0.3), (0.5, 0.0), (0.0, 0.0), (5e-324, 1.0)])
    def test_zero_dimensional_inputs(self, x, xa):
        # floats and 0-d arrays both give a 0-d array
        for args in [(x, xa, 1.7), (np.array(x), np.array(xa), np.array(1.7))]:
            out = payoff_vec(*args)
            assert isinstance(out, np.ndarray) and out.shape == ()
            assert out.tobytes() == np.float64(payoff(x, xa, 1.7)).tobytes()
            self.assert_out_contract(*args)

    def test_broadcasts(self):
        x = np.array([[0.5], [2.0]])
        xa = np.array([0.25, 0.5, 1.0])
        out = payoff_vec(x, xa, 1.0)
        assert out.shape == (2, 3)
        assert out[0, 2] == 0.25

    def test_out_holds_the_result_on_edge_budgets(self):
        # the least subnormal, another subnormal, and a budget whose 2*x is still finite
        tiny, huge = 5e-324, 1e300
        edges = [0.0, tiny, 2.2e-310, 1e-300, 0.3, 1.0, 7.5, huge]
        x, xa = (np.array(v) for v in zip(*[(p, q) for p in edges for q in edges]))
        assert (xa == 0.0).any() and (x == xa).any()
        self.assert_out_contract(x, xa, 1.7)
        self.assert_out_contract(x, xa, tiny)
        self.assert_out_contract(x, xa, huge)

    def test_out_holds_the_result_on_broadcast_shapes(self, rng):
        # the oracle's shapes: one row of budgets against a split-major (3, rows) block
        grid = np.linspace(0.0, 1.0, 1001)
        x = rng.uniform(0.0, 2.0, size=400)
        x[::9] = grid[::9][: x[::9].size]
        splits = np.stack([np.roll(grid[:400], k) for k in (-1, 0, 1)])
        self.assert_out_contract(x, splits, 1.7)
        # the enumeration's shapes: a column of budgets against a row of every split
        self.assert_out_contract(rng.uniform(0.0, 2.0, size=(500, 1)), grid[None, :], 0.9)
