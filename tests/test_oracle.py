"""Grid oracle: enumeration examples, the single-row bisection against the
scan's, the scan's bisection against enumeration up to rounding ties, the
guessed and certified splits against the full bisection, the split slack
against the certificate's neighbour payoffs, pins of the scan's bits, kernel
calls and memory, convergence, and independence from closed forms."""

import ast
import dataclasses
import hashlib
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blotto_alliance.oracle as oracle_module
from blotto_alliance import adversary_response, lotto_core, transfer_engine
from blotto_alliance.adversary_response import GameParams
from blotto_alliance.cli import DEFAULT_VERIFY_BETAS, FIXED_SEED_GAMES, closed_form_summary
from blotto_alliance.oracle import (
    OracleConfig,
    OracleReport,
    adversary_grid_best_response,
    transfer_grid_scan,
)
from support import CASE1_GAME, CASE3_GAME, CASE4_GAME, G1, random_game_of_case

COARSE = OracleConfig(tau_step=1e-3, split_step=1e-3)


class TestGridBestResponse:
    def test_reference_game_matches_closed_split(self):
        a_star, _ = adversary_grid_best_response(G1, split_step=1e-3)
        assert abs(a_star - 0.7905694150420949) <= 1e-3 + 1e-12

    def test_case_1_all_in(self):
        a_star, _ = adversary_grid_best_response(CASE1_GAME, split_step=1e-3)
        assert a_star == 1.0

    def test_symmetric_game_within_slack(self):
        g = adversary_response.GameParams(1.0, 1.0, 1.0, 1.0)
        a_star, w_grid = adversary_grid_best_response(g, split_step=1e-3)
        profile = adversary_response.stage_payoffs(g)
        assert abs(w_grid - profile.u_adversary) <= 1e-3

    @pytest.mark.parametrize("step", [0.0, -0.5, math.inf, math.nan])
    def test_rejects_a_split_step_outside_the_open_positive_range(self, step):
        with pytest.raises(ValueError, match="split_step must lie in"):
            adversary_grid_best_response(G1, split_step=step)

    def test_ties_take_smallest_allocation(self):
        # a game where front 1 is worthless to attack: everything at a = 0
        g = adversary_response.GameParams(1e-9, 1.0, 1e-9, 1.0)
        a_star, _ = adversary_grid_best_response(g, split_step=0.25)
        assert a_star == 0.0


def one_row(g, split_step, rows):
    """(a*, w) of a best-response routine over arrays, on the one row of g's induced budgets."""
    xa = g.adversary_budget
    x1b, x2b = np.array([g.x1 / xa]), np.array([g.x2 / xa])
    a_star, u1, u2 = rows(g.phi1, g.phi2, x1b, x2b, oracle_module._n_split(split_step))[:3]
    return float(a_star[0]), g.phi1 + g.phi2 - float(u1[0] + u2[0])


def log_uniform_game(rng, lo, hi):
    return GameParams(*np.exp(rng.uniform(math.log(lo), math.log(hi), size=5)).tolist())


class TestSingleRow:
    """adversary_grid_best_response gives _bisect_rows' (a*, w) bits on the one-row array and never enumerates."""

    SPLIT_STEPS = [1.0, 0.5, 0.25, 1e-2, 1e-3]

    @staticmethod
    def assert_matches_the_scan(monkeypatch, games, split_step):
        """_bisect_rows' bits while _enumerate_rows raises, and the enumeration's payoff up to a tie.

        The tie rule is bench/reference.py's: where f is flat within rounding
        the split may differ from the enumeration's, the adversary payoff by
        at most 1e-12*(phi1 + phi2).
        """
        want = np.array([one_row(g, split_step, oracle_module._bisect_rows) for g in games])
        enumerated = np.array([one_row(g, split_step, oracle_module._enumerate_rows) for g in games])

        def boom(*args, **kwargs):
            raise AssertionError("the single row reached the enumeration")

        monkeypatch.setattr(oracle_module, "_enumerate_rows", boom)
        got = np.array([adversary_grid_best_response(g, split_step) for g in games])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        tol = 1e-12 * np.array([g.phi1 + g.phi2 for g in games])
        assert np.all(np.abs(got[:, 1] - enumerated[:, 1]) <= tol)

    @pytest.mark.parametrize("split_step", SPLIT_STEPS)
    def test_log_uniform_games(self, rng, monkeypatch, split_step):
        games = [log_uniform_game(rng, 0.05, 5.0) for _ in range(300)]
        self.assert_matches_the_scan(monkeypatch, games, split_step)

    @pytest.mark.parametrize("split_step", SPLIT_STEPS)
    def test_games_induced_at_the_alliance_optimum_over_twelve_decades(self, rng, monkeypatch, split_step):
        games = []
        for _ in range(40):
            g = log_uniform_game(rng, 1e-6, 1e6)
            for beta in DEFAULT_VERIFY_BETAS:
                tau, _ = transfer_engine.alliance_optimal(g, beta)
                post = transfer_engine.apply_transfer(g, transfer_engine.Transfer(tau, beta))
                games.append(GameParams(g.phi1, g.phi2, post.x1_bar, post.x2_bar, g.adversary_budget))
        self.assert_matches_the_scan(monkeypatch, games, split_step)

    @pytest.mark.parametrize("split_step", SPLIT_STEPS)
    def test_flat_case_4_games(self, rng, monkeypatch, split_step):
        # f is flat within rounding for every split in [1 - x2, x1]
        games = [CASE4_GAME] + [random_game_of_case(rng, 4) for _ in range(60)]
        self.assert_matches_the_scan(monkeypatch, games, split_step)

    def test_the_split_grid_is_built_once_per_split_count(self, monkeypatch):
        want = [adversary_grid_best_response(g, 1e-3) for g in (G1, CASE4_GAME)]

        def boom(*args, **kwargs):
            raise AssertionError("the split grid was built again")

        monkeypatch.setattr(oracle_module.np, "linspace", boom)
        assert [adversary_grid_best_response(g, 1e-3) for g in (G1, CASE4_GAME)] == want


def assert_bisection_matches_enumeration(phi1, phi2, x1b, x2b, n_split, rows_per_slice=500):
    """The scan's bisection against plain enumeration, row by row.

    Both must pick the same split, with bit-identical payoffs, unless the
    bisection's split is itself a minimizer within 1e-12*(phi1 + phi2):
    then the enumeration's minimizer is not unique, and rounding on the flat
    stretch decides which of the tied splits each method lands on.
    Enumeration runs slice by slice to keep its row-by-split matrices small.
    """
    a_b, u1_b, u2_b = oracle_module._bisect_rows(phi1, phi2, x1b, x2b, n_split)[:3]
    tol = 1e-12 * (phi1 + phi2)
    ties = 0
    for lo in range(0, x1b.size, rows_per_slice):
        sl = slice(lo, lo + rows_per_slice)
        a_e, u1_e, u2_e = oracle_module._enumerate_rows(phi1, phi2, x1b[sl], x2b[sl], n_split)
        same = a_b[sl] == a_e
        np.testing.assert_array_equal(u1_b[sl][same], u1_e[same])
        np.testing.assert_array_equal(u2_b[sl][same], u2_e[same])
        gap = (u1_b[sl] + u2_b[sl]) - (u1_e + u2_e)
        assert np.all(gap[~same] <= tol), (phi1, phi2, x1b[sl][~same], x2b[sl][~same])
        ties += int((~same).sum())
    return ties


def full_bisection(phi1, phi2, x1b, x2b, n_split):
    """The scan's split search without its guess: every row bisected over [0, n], as arrays."""
    a = np.linspace(0.0, 1.0, n_split + 1)
    b = 1.0 - a

    def combined(j):
        return lotto_core.payoff_vec(x1b, a[j], phi1) + lotto_core.payoff_vec(x2b, b[j], phi2)

    lo = np.zeros(x1b.size, dtype=np.intp)
    hi = np.full(x1b.size, n_split, dtype=np.intp)
    while (open_rows := lo < hi).any():
        mid = (lo + hi) // 2
        rising = combined(np.minimum(mid + 1, n_split)) >= combined(mid)
        hi = np.where(open_rows & rising, mid, hi)
        lo = np.where(open_rows & ~rising, mid + 1, lo)
    return a[lo], lotto_core.payoff_vec(x1b, a[lo], phi1), lotto_core.payoff_vec(x2b, b[lo], phi2)


def assert_warm_start_matches_full_bisection(phi1, phi2, x1b, x2b, n_split):
    """_bisect_rows against full_bisection: a*, u1 and u2 with the same bits, sign of zero included."""
    got = oracle_module._bisect_rows(phi1, phi2, x1b, x2b, n_split)[:3]
    want = full_bisection(phi1, phi2, x1b, x2b, n_split)
    for name, g, w in zip(("a_star", "u1", "u2"), got, want):
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64), err_msg=name)
    return got


# unsorted budgets over six decades, 64 rows, and any split count
RANDOM_ROWS = (
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def random_rows(log_phi1, log_phi2, seed):
    budgets = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, size=(2, 64))
    return 10.0**log_phi1, 10.0**log_phi2, budgets[0], budgets[1]


class TestBisectionAgainstEnumeration:
    """The scan's bisection picks the enumeration's split, or one tied with it to rounding."""

    @pytest.mark.parametrize("label", sorted(FIXED_SEED_GAMES))
    def test_fixed_games_on_the_audit_grid(self, label):
        # every 10th row of the audit's tau grid at every verify beta
        g = FIXED_SEED_GAMES[label]
        for beta in DEFAULT_VERIFY_BETAS:
            _, x1b, x2b, _ = oracle_module._tau_grid(g, beta, OracleConfig())
            ties = assert_bisection_matches_enumeration(
                g.phi1, g.phi2, x1b[::10], x2b[::10], 1000
            )
            assert ties <= 2, (label, beta, ties)

    def test_flat_objective_of_proportional_games(self, rng):
        # phi1/x1 == phi2/x2 with x1 + x2 > 1: the combined payoff is constant
        # for every split in [1 - x2, x1], where both players are strong
        games = [CASE4_GAME] + [random_game_of_case(rng, 4) for _ in range(5)]
        for g in games:
            scale = np.linspace(1.0, 3.0, 400)
            x1b, x2b = g.x1 * scale, g.x2 * scale
            ties = assert_bisection_matches_enumeration(g.phi1, g.phi2, x1b, x2b, 1000)
            assert ties > 0, "rounding on the flat stretch should leave tied minimizers"
            # a guess on a flat stretch is never certified, so these rows reach the full bisection
            a_star, _, _ = assert_warm_start_matches_full_bisection(g.phi1, g.phi2, x1b, x2b, 1000)
            # one split step off the flat stretch already costs far more than rounding
            assert np.all(a_star >= 1.0 - x2b - 1e-12), g
            assert np.all(a_star <= x1b + 1e-12), g

    @pytest.mark.parametrize("label", sorted(FIXED_SEED_GAMES))
    def test_coarse_split_grid(self, label):
        g = FIXED_SEED_GAMES[label]
        for beta in DEFAULT_VERIFY_BETAS:
            _, x1b, x2b, _ = oracle_module._tau_grid(g, beta, OracleConfig(tau_step=1e-3))
            for n_split in (1, 2, 4):
                assert_bisection_matches_enumeration(g.phi1, g.phi2, x1b, x2b, n_split)

    @settings(max_examples=40, deadline=None)
    @given(*RANDOM_ROWS)
    def test_random_rows(self, log_phi1, log_phi2, n_split, seed):
        phi1, phi2, x1b, x2b = random_rows(log_phi1, log_phi2, seed)
        assert_bisection_matches_enumeration(phi1, phi2, x1b, x2b, n_split)
        assert_warm_start_matches_full_bisection(phi1, phi2, x1b, x2b, n_split)


def fake_guess(kind, seed=0):
    """A stand-in for _split_guess: every row at split 0, every row at split n, or random splits."""

    def guess(phi1, phi2, x1b, x2b, n_split):
        if kind == "random":
            return np.random.default_rng(seed).integers(0, n_split, size=x1b.size, endpoint=True)
        return np.full(x1b.size, 0 if kind == "zero" else n_split, dtype=np.intp)

    return guess


class TestWarmStart:
    """The scan's guessed and certified splits give the full bisection's bits on every row."""

    @pytest.mark.parametrize("label", sorted(FIXED_SEED_GAMES))
    def test_every_row_of_the_audit_grid(self, label):
        g = FIXED_SEED_GAMES[label]
        for beta in DEFAULT_VERIFY_BETAS:
            _, x1b, x2b, _ = oracle_module._tau_grid(g, beta, OracleConfig())
            assert_warm_start_matches_full_bisection(g.phi1, g.phi2, x1b, x2b, 1000)

    def test_flat_row_9374_of_the_case_2_game_at_half_efficiency(self):
        # a flat proportional row (phi1/x1 == phi2/x2 == 1.28): f is flat within
        # rounding from split 63 to 781, with strict local minima of one rounding
        # only (725 is one), so no guess on it is certified, and the full
        # bisection lands on split 83
        g = FIXED_SEED_GAMES["fixed-case-2-game"]
        _, x1b, x2b, _ = oracle_module._tau_grid(g, 0.5, OracleConfig())
        assert (x1b[9374], x2b[9374]) == (0.78125, 0.9375)
        a_star, _, _ = assert_warm_start_matches_full_bisection(g.phi1, g.phi2, x1b, x2b, 1000)
        assert a_star[9374] == np.linspace(0.0, 1.0, 1001)[83]

    @pytest.mark.parametrize("rows", [1, 2, 31, 32, 33, 65])
    def test_row_counts_around_the_stride(self, rows):
        g = FIXED_SEED_GAMES["fixed-case-3-game"]
        _, x1b, x2b, i0 = oracle_module._tau_grid(g, 0.8, OracleConfig())
        sl = slice(i0 - rows // 2, i0 - rows // 2 + rows)
        assert_warm_start_matches_full_bisection(g.phi1, g.phi2, x1b[sl], x2b[sl], 1000)

    @pytest.mark.parametrize("n_split", [1, 2, 4, 1000])
    def test_split_counts(self, n_split):
        for g in FIXED_SEED_GAMES.values():
            _, x1b, x2b, _ = oracle_module._tau_grid(g, 0.5, OracleConfig(tau_step=1e-3))
            assert_warm_start_matches_full_bisection(g.phi1, g.phi2, x1b, x2b, n_split)

    @pytest.mark.parametrize("kind", ["zero", "n", "random"])
    def test_the_guess_cannot_change_a_bit_on_the_audit_grid(self, monkeypatch, kind):
        # the certificate, not the guess, decides: a bad guess reaches the fallback bisection
        monkeypatch.setattr(oracle_module, "_split_guess", fake_guess(kind))
        for g in FIXED_SEED_GAMES.values():
            _, x1b, x2b, _ = oracle_module._tau_grid(g, 0.5, OracleConfig())
            assert_warm_start_matches_full_bisection(g.phi1, g.phi2, x1b, x2b, 1000)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["zero", "n", "random"]), *RANDOM_ROWS)
    def test_the_guess_cannot_change_a_bit_on_random_rows(self, kind, log_phi1, log_phi2, n_split, seed):
        phi1, phi2, x1b, x2b = random_rows(log_phi1, log_phi2, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "_split_guess", fake_guess(kind, seed))
            assert_warm_start_matches_full_bisection(phi1, phi2, x1b, x2b, n_split)

    def test_the_guess_is_certified_on_all_but_a_thousandth_of_the_audit_rows(self, monkeypatch):
        # a later edit that keeps every bit but loses the guess's accuracy fails here; at
        # the finer split counts a guess in float32 is rejected on 28 and 84 of 45,230 rows
        fallback = oracle_module._bisect_row
        calls = []

        def counted(*args):
            calls.append(args)
            return fallback(*args)

        monkeypatch.setattr(oracle_module, "_bisect_row", counted)
        for tau_step, n_split in ((1e-4, 1000), (1e-3, 10**4), (1e-3, 10**5)):
            calls.clear()
            rows = 0
            for g in FIXED_SEED_GAMES.values():
                for beta in DEFAULT_VERIFY_BETAS:
                    _, x1b, x2b, _ = oracle_module._tau_grid(g, beta, OracleConfig(tau_step=tau_step))
                    oracle_module._bisect_rows(g.phi1, g.phi2, x1b, x2b, n_split)
                    rows += x1b.size
            assert len(calls) <= 1e-3 * rows, (n_split, len(calls), rows)

    def test_extreme_budgets_are_warning_free(self):
        x1b, x2b = np.array([1e200, 1e-200, 3.0]), np.array([1e200, 1e-200, 1e-250])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a_star, _, _ = assert_warm_start_matches_full_bisection(1.0, 2.0, x1b, x2b, 1000)
        np.testing.assert_array_equal(a_star, np.linspace(0.0, 1.0, 1001)[[0, 414, 999]])

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=-20.0, max_value=20.0),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_budgets_over_twenty_four_decades(self, log_phi1, log_phi2, n_split, seed):
        budgets = np.exp(np.random.default_rng(seed).uniform(math.log(1e-12), math.log(1e12), size=(2, 64)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_warm_start_matches_full_bisection(
                math.exp(log_phi1), math.exp(log_phi2), budgets[0], budgets[1], n_split
            )


def assert_slack_is_the_certificates_own(phi1, phi2, x1b, x2b, n_split):
    """_bisect_rows' slack against the neighbour payoffs restated here, and against the one-step formula it replaced.

    The slack must equal, bit for bit, the largest |L(a[j +- 1]) - u| over
    both fronts, with the neighbours clamped into [0, n]. The formula it
    replaced took the payoffs at a* +- 1/n, clipped into [0, 1], which can
    miss the neighbouring grid split by an ulp. Returns, per row, the gap
    between the two slacks and the largest change of either payoff between
    the grid neighbour and the one-step one, which bounds that gap up to
    rounding.
    """
    a_star, u1, u2, slack = oracle_module._bisect_rows(phi1, phi2, x1b, x2b, n_split)
    a = np.linspace(0.0, 1.0, n_split + 1)
    j = np.searchsorted(a, a_star)
    np.testing.assert_array_equal(a[j], a_star)
    grid = a[np.stack((np.maximum(j - 1, 0), np.minimum(j + 1, n_split)))]
    step = np.clip(a_star + np.array([[-1.0], [1.0]]) * (1.0 / n_split), 0.0, 1.0)
    p1, q1 = (lotto_core.payoff_vec(x1b, s, phi1) for s in (grid, step))
    p2, q2 = (lotto_core.payoff_vec(x2b, 1.0 - s, phi2) for s in (grid, step))
    want = np.maximum(np.abs(p1 - u1), np.abs(p2 - u2)).max(axis=0)
    np.testing.assert_array_equal(slack.view(np.uint64), want.view(np.uint64))
    old = np.maximum(np.abs(q1 - u1), np.abs(q2 - u2)).max(axis=0)
    drift = np.maximum(np.abs(p1 - q1), np.abs(p2 - q2)).max(axis=0)
    return np.abs(slack - old), drift


class TestSplitSlack:
    """The split slack is the change of either payoff to the splits the certificate already evaluates."""

    @pytest.mark.parametrize("label", sorted(FIXED_SEED_GAMES))
    def test_fixed_games_on_the_audit_grid(self, label):
        g = FIXED_SEED_GAMES[label]
        _, x1b, x2b, _ = oracle_module._tau_grid(g, 0.5, OracleConfig())
        gap, _ = assert_slack_is_the_certificates_own(g.phi1, g.phi2, x1b, x2b, 1000)
        assert np.all(gap <= 1e-15 * (g.phi1 + g.phi2)), gap.max()

    @settings(max_examples=40, deadline=None)
    @given(*RANDOM_ROWS)
    def test_random_rows(self, log_phi1, log_phi2, n_split, seed):
        # a* + 1/n can round to 1 - 2**-53 where the grid has 1, so front 2 sees 1.1e-16
        # for 0 and, against a budget of 1e-3, moves by 5e-14 of phi2: the gap is that drift
        phi1, phi2, x1b, x2b = random_rows(log_phi1, log_phi2, seed)
        gap, drift = assert_slack_is_the_certificates_own(phi1, phi2, x1b, x2b, n_split)
        assert np.all(gap <= drift + 1e-15 * (phi1 + phi2)), (gap - drift).max()
        assert np.all(gap[drift == 0.0] == 0.0)


# sha256 of the float64 bytes of each numeric OracleReport field over the four
# fixed games (sorted by label) at the five verify betas, at the default grid steps
SCAN_FIELD_DIGESTS = {
    "mb_exists_grid": "f3976ed32f6e0e6acb839e88d2f60438b0ade5a86b5b952ce5be04ad7282ca89",
    "alliance_argmax_tau": "4262a86d5258a246253b780d05bb44a85604cdd00ca7fdd992771a5e410c6b1e",
    "alliance_max": "242687e0108e1b38167d91471f9f6dc9dbbbe172297caa680c328338fddd4b34",
    "mutual_margin": "6676b0d732ba8adece31e7fe2157a0aa9111bf376872c88aa6efab2ae4bbcf4e",
    "positive_tau_mutual": "b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4",
    "alliance_gain_grid": "841edfff7f17f0f3e6fe803f98a52ffe0d309fd0507e3a4d3767d3717cf8dd09",
    "tau_count": "4e9d14468c148901997a492807367f61b353fb558ed96352893f48d4c1a91725",
    "slack_mutual": "d8a85eb9c2f9a408ce716a44e8c38b5a704027a7e2e35ce24cc42d57011e366a",
    "slack_alliance": "50f37fe85c4ece24c18ecf0beb6030185fb320a9878445784fe680c1ada5192e",
}


class TestScanCost:
    """Pins of the scan's bits, its kernel calls and its memory, so that a faster scan must show the same bytes."""

    @staticmethod
    def changed_report_fields():
        """The numeric report fields whose bits over the fixed games at the verify betas differ from their pins."""
        reports = [
            transfer_grid_scan(g, beta, OracleConfig())
            for _, g in sorted(FIXED_SEED_GAMES.items())
            for beta in DEFAULT_VERIFY_BETAS
        ]
        names = [f.name for f in dataclasses.fields(OracleReport) if f.name != "disagreements"]
        got = {
            name: hashlib.sha256(np.array([getattr(r, name) for r in reports], dtype="<f8").tobytes()).hexdigest()
            for name in names
        }
        return [name for name in names if got[name] != SCAN_FIELD_DIGESTS[name]]

    def test_every_numeric_report_field_keeps_its_bits(self):
        assert self.changed_report_fields() == []

    def test_every_workspace_element_is_written_before_it_is_read(self, monkeypatch):
        # a NaN left in the workspace would reach a payoff, a slack or the certificate, and move a digest
        def poisoned(allocate):
            def allocate_nan(*args, **kwargs):
                out = allocate(*args, **kwargs)
                if out.dtype.kind == "f":
                    out.fill(np.nan)
                return out

            return allocate_nan

        monkeypatch.setattr(np, "empty", poisoned(np.empty))
        monkeypatch.setattr(np, "empty_like", poisoned(np.empty_like))
        splits, bisected = [], []
        bisect_rows, bisect_row = oracle_module._bisect_rows, oracle_module._bisect_row

        def recorded_rows(*args):
            result = bisect_rows(*args)
            splits.append(result[0])
            return result

        def recorded_row(*args):
            bisected.append(args)
            return bisect_row(*args)

        monkeypatch.setattr(oracle_module, "_bisect_rows", recorded_rows)
        monkeypatch.setattr(oracle_module, "_bisect_row", recorded_row)
        assert self.changed_report_fields() == []
        # the poison reached the rejected-row path and both clamped splits, j == 0 and j == n
        a_star = np.concatenate(splits)
        assert bisected and (a_star == 0.0).any() and (a_star == 1.0).any()

    def test_a_scan_without_rejected_rows_calls_the_kernel_twice(self, monkeypatch):
        # one call per front, each on the certificate's three splits
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        counted(lotto_core, "payoff_vec")
        counted(oracle_module, "_bisect_row")
        transfer_grid_scan(FIXED_SEED_GAMES["fixed-case-3-game"], 0.1, OracleConfig())
        assert calls == ["payoff_vec", "payoff_vec"]

    def test_peak_allocation_stays_within_21_row_arrays(self):
        g = FIXED_SEED_GAMES["fixed-case-1-game"]
        transfer_grid_scan(g, 0.1, OracleConfig())  # builds the cached split grid outside the trace
        tracemalloc.start()
        try:
            report = transfer_grid_scan(g, 0.1, OracleConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.tau_count == 49_999
        assert peak <= 21 * 8 * report.tau_count, peak / (8 * report.tau_count)


def masked_tau_grid(g, beta, step):
    """_tau_grid's (taus, x1b, x2b, i0) with one mask over all rows, each row evaluating both branches."""
    xa = g.adversary_budget
    x1, x2 = g.x1 / xa, g.x2 / xa
    kmin, kmax = math.floor(-x2 / step) + 1, math.ceil(x1 / step) - 1
    taus = np.arange(kmin, kmax + 1) * step
    pos = taus > 0.0
    return taus, np.where(pos, x1 - taus, x1 + beta * (-taus)), np.where(pos, x2 + beta * taus, x2 - (-taus)), -kmin


class TestTransferGridScan:
    def test_lossless_reference_game_has_mutual_transfers(self):
        report = transfer_grid_scan(G1, 1.0, COARSE)
        assert report.mb_exists_grid
        assert report.mutual_margin > 0
        assert not report.positive_tau_mutual

    def test_half_efficiency_has_none(self):
        report = transfer_grid_scan(G1, 0.5, COARSE)
        assert not report.mb_exists_grid

    def test_low_efficiency_alliance_argmax_at_zero(self):
        report = transfer_grid_scan(G1, 0.08, COARSE)
        assert abs(report.alliance_argmax_tau) <= COARSE.tau_step + 1e-15

    def test_no_positive_mutual_transfer_in_oriented_frame(self):
        for beta in (0.3, 0.7, 1.0):
            report = transfer_grid_scan(G1, beta, COARSE)
            assert not report.positive_tau_mutual

    def test_alliance_argmax_matches_closed_form(self):
        report = transfer_grid_scan(G1, 1.0, COARSE)
        assert report.alliance_argmax_tau == pytest.approx(-9.0 / 22.0, abs=2 * COARSE.tau_step)
        assert report.alliance_max == pytest.approx(1.65, abs=5e-3)

    def test_alliance_argmax_fine_grid_within_1e3(self):
        fine = OracleConfig(tau_step=1e-4, split_step=1e-3)
        report = transfer_grid_scan(G1, 1.0, fine)
        tau_dagger, _ = transfer_engine.alliance_optimal(G1, 1.0)
        assert abs(report.alliance_argmax_tau - tau_dagger) <= 1e-3

    @pytest.mark.parametrize("name", ["tau_step", "split_step"])
    @pytest.mark.parametrize("step", [0.0, -0.5, math.inf, math.nan])
    def test_config_rejects_a_step_outside_the_open_positive_range(self, name, step):
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            OracleConfig(**{name: step})

    @pytest.mark.parametrize("tau_step", [1e-4, 1e-3])
    def test_tau_grid_equals_the_masked_formula(self, tau_step):
        # a budget one tau step and a bit leaves one transfer in its player's direction
        tiny = [np.nextafter(tau_step, 1.0), tau_step * (1.0 + 1e-6)]
        games = [*FIXED_SEED_GAMES.values(), GameParams(1.0, 1.2, 1.0, 3.0, 2.0)]
        games += [GameParams(1.0, 1.2, 0.5, x) for x in tiny] + [GameParams(1.0, 1.2, x, 0.5) for x in tiny]
        halves = set()
        for g in games:
            for beta in DEFAULT_VERIFY_BETAS:
                taus, x1b, x2b, i0 = oracle_module._tau_grid(g, beta, OracleConfig(tau_step=tau_step))
                want = masked_tau_grid(g, beta, tau_step)
                assert i0 == want[3]
                assert [v.tobytes() for v in (taus, x1b, x2b)] == [v.tobytes() for v in want[:3]]
                halves.add((i0, taus.size - i0 - 1))  # (negative taus, positive taus)
        other = round(0.5 / tau_step) - 1  # the other player's budget is 0.5
        assert {(1, other), (other, 1)} <= halves

    def test_rejects_oversized_tau_step(self):
        with pytest.raises(ValueError, match="tau_step"):
            transfer_grid_scan(G1, 1.0, OracleConfig(tau_step=0.75))

    @pytest.mark.parametrize("beta", [0.0, -0.5, 1.5, math.nan])
    def test_rejects_beta_outside_the_unit_interval(self, beta):
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\]"):
            transfer_grid_scan(G1, beta, COARSE)


class TestConvergence:
    """Halving both steps never flips grid verdicts away from thresholds."""

    GAMES_AND_BETAS = [
        (G1, 1.0),
        (G1, 0.5),
        (G1, 0.08),
        (CASE1_GAME, 0.7),
        (CASE3_GAME, 0.9),
        (CASE3_GAME, 0.2),
    ]

    def test_verdicts_stable_under_refinement(self):
        for g, beta in self.GAMES_AND_BETAS:
            coarse = transfer_grid_scan(g, beta, OracleConfig(tau_step=2e-3, split_step=2e-3))
            fine = transfer_grid_scan(g, beta, OracleConfig(tau_step=1e-3, split_step=1e-3))
            assert coarse.mb_exists_grid == fine.mb_exists_grid, (g, beta)


class TestAgreementWithClosedForms:
    def test_random_sample_no_disagreements(self, rng):
        cfg = OracleConfig(tau_step=5e-4, split_step=1e-3)
        from blotto_alliance.cli import sample_game

        for _ in range(15):
            g = sample_game(rng)
            for beta in (0.2, 0.6, 1.0):
                closed = closed_form_summary(g, beta)
                report = transfer_grid_scan(g, beta, cfg, closed)
                assert report.disagreements == [], (g, beta, report.disagreements)

    def test_planted_disagreement_is_caught(self):
        closed = closed_form_summary(G1, 1.0)
        # corrupt the closed-form verdicts and make sure the oracle objects
        broken = oracle_module.ClosedFormSummary(
            mb_exists=False,
            mb_margin=-math.inf,
            mb_threshold=closed.mb_threshold,
            case_at_zero=closed.case_at_zero,
            tau_dagger=0.0,
            alliance_gain=0.0,
            alliance_value=closed.alliance_value - 0.2,
            alliance_beta_threshold=closed.alliance_beta_threshold,
            adversary_payoff_at_zero=closed.adversary_payoff_at_zero + 0.1,
        )
        report = transfer_grid_scan(G1, 1.0, COARSE, broken)
        quantities = {d.quantity for d in report.disagreements}
        assert {"mb_exists", "alliance_nonzero", "alliance_value", "adversary_split"} <= quantities

    def test_planted_benefit_the_grid_does_not_find_is_caught(self):
        # at beta 0.1 the game is below both thresholds (0.416 and 0.158) and
        # outside both bands; claim a mutual and an alliance benefit anyway
        g = FIXED_SEED_GAMES["fixed-case-3-game"]
        closed = closed_form_summary(g, 0.1)
        assert not closed.mb_exists and closed.tau_dagger == 0.0
        broken = dataclasses.replace(closed, mb_exists=True, mb_margin=1.0, tau_dagger=-0.01, alliance_gain=1.0)
        report = transfer_grid_scan(g, 0.1, COARSE, broken)
        assert [(d.quantity, d.closed_value, d.grid_value) for d in report.disagreements] == [
            ("mb_exists", 1.0, 0.0),
            ("alliance_nonzero", 1.0, 0.0),
        ]


class TestIndependence:
    """The oracle's ground truth must not call into any closed-form module."""

    def test_scan_survives_stubbed_closed_forms(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("oracle reached a closed-form function")

        for name in ("classify", "optimal_split", "stage_payoffs", "normalize"):
            monkeypatch.setattr(adversary_response, name, boom)
        for name in (
            "analyze",
            "mb_exists",
            "mb_beta_threshold",
            "mb_interval",
            "in_g_dagger",
            "alliance_optimal",
            "payoffs_at",
            "stage_payoffs" if hasattr(transfer_engine, "stage_payoffs") else "alliance_payoff",
        ):
            monkeypatch.setattr(transfer_engine, name, boom, raising=False)

        report = transfer_grid_scan(G1, 1.0, COARSE)
        assert report.mb_exists_grid
        a_star, _ = adversary_grid_best_response(G1)
        assert 0.0 <= a_star <= 1.0

    def test_import_graph_is_clean(self):
        source = inspect.getsource(oracle_module)
        tree = ast.parse(source)
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.endswith("adversary_response"):
                    names = {alias.name for alias in node.names}
                    assert names <= {"GameParams"}, names
                imported.add(module)
        assert not any("transfer_engine" in name for name in imported)
        assert not any("sweep" in name for name in imported)
