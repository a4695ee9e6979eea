"""Benchmark of blotto-alliance: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Runs one workload (audit, figures or queries) in this process on one thread
and checks every output against the independent references and properties
in reference.py. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 every call the benchmark makes into
a layer is recorded as a span, the spans are written to
bench/out/trace-<workload>-<seed>.json, and the metrics are the per-layer
ones. bench/README.md describes the workloads and the metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Whether the kernel grants numpy's huge-page requests depends on how
# fragmented the host's free memory is at the time, which moved audit op
# times by half from one hour to the next. Without them they repeat.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "blotto_alliance" / "__init__.py").is_file():
    sys.exit(f"error: library source not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from blotto_alliance import cli, lotto_core, oracle, sweep  # noqa: E402
from blotto_alliance import transfer_engine as te  # noqa: E402
from blotto_alliance.adversary_response import (  # noqa: E402
    GameParams,
    mirror,
    normalize,
    optimal_split,
    stage_payoffs,
)
from blotto_alliance.oracle import OracleConfig  # noqa: E402
from blotto_alliance.transfer_engine import InternalInconsistencyError, Transfer  # noqa: E402

import queries_inputs  # noqa: E402
from reference import (  # noqa: E402
    PAPER_ALLIANCE_THRESHOLD,
    PAPER_GAME,
    PAPER_MUTUAL_THRESHOLD,
    CheckFailed,
    best_splits,
    check_monotone_flags,
    check_split,
    close,
    induced_budgets,
    require,
)

BETAS = cli.DEFAULT_VERIFY_BETAS
TAU_STEP = 1e-4
N_SPLIT = 1000
ORACLE_CFG = OracleConfig(tau_step=TAU_STEP, split_step=1.0 / N_SPLIT)
SETUP_SAMPLES = 9
SETUP_PACE_SAMPLES = 10
PEAK_OPS = 6
# A run starts no new round after this many seconds of wall time, so that it
# ends within three minutes even when the host lends it a fraction of a CPU.
WALL_LIMIT_S = 110.0
STARTED = time.monotonic()
MARCH_FAULT = "combined payoff still improving at the donation limit"


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------


class Direct:
    """Calls a layer with nothing recorded: the untraced run."""

    traced = False

    @staticmethod
    def begin_op():
        pass

    @staticmethod
    def call(name, fn, *args, usage=False):
        return fn(*args)

    @staticmethod
    def note(**counts):
        pass


class Tracer:
    """Keeps spans in memory: (name, start_ns, end_ns, parent, op, error, counts)."""

    traced = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def begin_op(self):
        self.op += 1

    def call(self, name, fn, *args, usage=False):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        counts = {}
        error = None
        before = resource.getrusage(resource.RUSAGE_SELF) if usage else None
        start = time.process_time_ns()
        try:
            return fn(*args)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.process_time_ns()
            if usage:
                after = resource.getrusage(resource.RUSAGE_SELF)
                counts = {
                    "minflt": after.ru_minflt - before.ru_minflt,
                    "utime": after.ru_utime - before.ru_utime,
                    "stime": after.ru_stime - before.ru_stime,
                }
            self._stack.pop()
            self.spans[index] = [name, start, end, parent, self.op, error, counts]

    def note(self, **counts):
        """Attach work counts to the span that closed last."""
        self.spans[-1][6].update(counts)


# ---------------------------------------------------------------------------
# Workloads. Each yields rounds of items; op() is the timed unit of work,
# check() verifies its output outside the timed interval, and probe() times
# finer public functions on the same inputs in traced runs only.
# ---------------------------------------------------------------------------


LOTTO_REPS = 50


def _lotto_calls(gn, x_a1):
    for _ in range(LOTTO_REPS):
        lotto_core.payoff(gn.x1, x_a1, gn.phi1)
        lotto_core.payoff(gn.x2, 1.0 - x_a1, gn.phi2)


class Workload:
    """Defaults for a workload whose ops never fail and that has no probes."""

    @staticmethod
    def failed(out):
        return False

    def probe(self, item, out, tr):
        pass


def _tau_grid(g):
    """Normalized budgets and the first and last k of the oracle's tau grid k * TAU_STEP."""
    x1, x2 = g.x1 / g.adversary_budget, g.x2 / g.adversary_budget
    return x1, x2, math.floor(-x2 / TAU_STEP) + 1, math.ceil(x1 / TAU_STEP) - 1


class Audit(Workload):
    """One op: cli.closed_form_summary then oracle.transfer_grid_scan for a (game, beta) pair.

    A round is the four fixed-case games at one beta (rotating through the
    five) plus four sampled games at all five betas. Sampled games come from
    cli.sample_game and are kept only when their tau grid has 9,900 to
    10,100 rows, since a scan's cost is proportional to its rows and a
    seed-independent cost per op keeps the op mix of a run steady.
    """

    name = "audit"
    pace = "array"
    tail = 0.75
    SAMPLED_PER_ROUND = 4
    ROW_BAND = (9_900, 10_100)
    CHECK_ROWS = 4
    FIXED = list(cli.FIXED_SEED_GAMES.items())

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._row_rng = np.random.default_rng([seed, 1])
        self._sampled = []

    def _sample(self):
        while True:
            g = cli.sample_game(self._rng)
            rows = (g.x1 + g.x2) / TAU_STEP
            if self.ROW_BAND[0] <= rows <= self.ROW_BAND[1]:
                return g

    def round(self, r):
        while len(self._sampled) < (r + 1) * self.SAMPLED_PER_ROUND:
            self._sampled.append(self._sample())
        beta = BETAS[r % len(BETAS)]
        items = [(label, g, beta) for label, g in self.FIXED]
        for i, g in enumerate(self._sampled[r * self.SAMPLED_PER_ROUND:][: self.SAMPLED_PER_ROUND]):
            items += [(f"sampled-{r}-{i}", g, b) for b in BETAS]
        return items

    warmup = ("fixed-case-3-game", cli.FIXED_SEED_GAMES["fixed-case-3-game"], 1.0)
    companion = [(label, g, 0.8) for label, g in FIXED[1:3]]

    @staticmethod
    def op(item, tr):
        _, g, beta = item
        closed = tr.call("cli.closed_form_summary", cli.closed_form_summary, g, beta)
        report = tr.call("oracle.transfer_grid_scan", oracle.transfer_grid_scan, g, beta, ORACLE_CFG, closed, usage=True)
        tr.note(rows=report.tau_count, cells=report.tau_count * (N_SPLIT + 1))
        return closed, report

    @staticmethod
    def key(item):
        _, g, beta = item
        return (g, beta)

    @staticmethod
    def fingerprint(out):
        _, report = out
        return (len(report.disagreements), report.alliance_max, report.alliance_argmax_tau, report.mutual_margin)

    def check(self, item, out):
        label, g, beta = item
        closed, report = out
        where = f"audit {label} {g} beta={beta}"
        require(not report.disagreements, f"{where}: disagreements {report.disagreements}")
        require(not report.positive_tau_mutual, f"{where}: mutual benefit at a positive transfer")
        if (g.phi1, g.phi2, g.x1, g.x2) == PAPER_GAME:
            require(close(closed.mb_threshold, PAPER_MUTUAL_THRESHOLD, 5e-6), f"{where}: mutual threshold {closed.mb_threshold}")
            require(
                close(closed.alliance_beta_threshold, PAPER_ALLIANCE_THRESHOLD, 5e-7),
                f"{where}: alliance threshold {closed.alliance_beta_threshold}",
            )
        # Re-check sampled rows of the scan: tau = 0, the alliance argmax, and a few at random.
        x1, x2, kmin, kmax = _tau_grid(g)
        require(report.tau_count == kmax - kmin + 1, f"{where}: {report.tau_count} rows, grid has {kmax - kmin + 1}")
        k_star = round(report.alliance_argmax_tau / TAU_STEP)
        ks = [0, k_star] + [int(k) for k in self._row_rng.integers(kmin, kmax + 1, self.CHECK_ROWS)]
        tol = 1e-12 * (g.phi1 + g.phi2)
        for k in ks:
            b1, b2 = induced_budgets(x1, x2, k * TAU_STEP, beta)
            ties, u1, u2 = best_splits(g.phi1, g.phi2, b1, b2, N_SPLIT)
            a_star, _ = oracle.adversary_grid_best_response(GameParams(g.phi1, g.phi2, b1, b2), 1.0 / N_SPLIT)
            check_split(f"{where} row k={k}", a_star, ties, N_SPLIT)
            u12 = u1 + u2
            require(u12 <= report.alliance_max + tol, f"{where}: row k={k} beats the alliance maximum")
            if k == k_star:
                require(close(u12, report.alliance_max, tol), f"{where}: alliance maximum {report.alliance_max}, row gives {u12}")
            if k == 0:
                base = report.alliance_max - report.alliance_gain_grid
                require(close(u12, base, tol), f"{where}: zero-transfer value {base}, row gives {u12}")

    def probe(self, item, out, tr):
        _, g, beta = item
        tr.call("transfer_engine.mutual_margin", te.mutual_margin, g, beta)
        x1, _, kmin, _ = _tau_grid(g)
        rows = min(out[1].tau_count, 2000)
        taus = np.arange(kmin, kmin + rows) * TAU_STEP
        x1b = np.where(taus > 0.0, x1 - taus, x1 - beta * taus)
        a = np.linspace(0.0, 1.0, N_SPLIT + 1)
        tr.call("lotto_core.payoff_vec", lotto_core.payoff_vec, x1b[:, None], a[None, :], g.phi1)
        tr.note(cells=rows * (N_SPLIT + 1))


class Figures(Workload):
    """One op: the three CLI data products for one valuation pair (phi1, phi2).

    region_raster over a 20x20 budget grid at betas 0.5 and 1, beta_sweep of
    the game (phi1, phi2, 0.5, 1.5) at 20 betas in [0.05, 1], and
    payoff_curves over the whole transfer domain at betas 0.5 and 1. A raster
    costs more the smaller phi2/phi1 is (more cells in frame), so a round
    holds the paper's pairs (1.2, 1) and (1, 1.2) plus one pair from each of
    16 equal strata of log(phi2/phi1) over [log 0.2, log 5].
    """

    name = "figures"
    pace = "scalar"
    tail = 0.8
    STRATA = 16
    RESOLUTION = 20
    RASTER_BETAS = (0.5, 1.0)
    SWEEP_BETAS = (0.05, 1.0)
    SWEEP_STEPS = 20
    CURVE_BETAS = (0.5, 1.0)
    CURVE_STEPS = 2001
    BUDGETS = (0.5, 1.5)
    REFERENCE_PAIRS = [(1.2, 1.0), (1.0, 1.2)]

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        lo, hi = math.log(0.2), math.log(5.0)
        self.pairs = list(self.REFERENCE_PAIRS)
        for k in range(self.STRATA):
            ratio = math.exp(lo + (hi - lo) * (k + rng.uniform()) / self.STRATA)
            phi1 = math.exp(rng.uniform(lo, hi))
            self.pairs.append((phi1, phi1 * ratio))

    def round(self, r):
        return self.pairs

    warmup = REFERENCE_PAIRS[0]
    companion = REFERENCE_PAIRS

    @classmethod
    def op(cls, pair, tr):
        phi1, phi2 = pair
        grid = sweep.SweepGrid(
            axes=(
                sweep.Axis("x1", 0.05, 3.0, cls.RESOLUTION),
                sweep.Axis("x2", 0.05, 3.0, cls.RESOLUTION),
            ),
            fixed={"phi1": phi1, "phi2": phi2},
            beta_list=cls.RASTER_BETAS,
        )
        cells = tr.call("sweep.region_raster", sweep.region_raster, grid)
        tr.note(cells=len(cells))
        g = GameParams(phi1, phi2, *cls.BUDGETS)
        rows = tr.call("sweep.beta_sweep", sweep.beta_sweep, g, cls.SWEEP_BETAS, cls.SWEEP_STEPS)
        curves = [
            tr.call("sweep.payoff_curves", sweep.payoff_curves, g, b, (-g.x2, g.x1), cls.CURVE_STEPS)
            for b in cls.CURVE_BETAS
        ]
        return cells, rows, curves

    @staticmethod
    def key(pair):
        return pair

    @staticmethod
    def fingerprint(out):
        cells, rows, curves = out
        return hash((
            tuple((c.mb_exists, c.tau_dagger) for c in cells),
            tuple((r.max_u12, r.max_u1_mutual, r.max_u2_mutual) for r in rows),
            tuple(row[3] for curve in curves for row in curve),
        ))

    def check(self, pair, out):
        phi1, phi2 = pair
        cells, rows, curves = out
        where = f"figures phi=({phi1}, {phi2})"
        tol = 1e-9 * (phi1 + phi2)
        n = self.RESOLUTION**2
        require(len(cells) == len(self.RASTER_BETAS) * n, f"{where}: {len(cells)} raster cells")
        for lo_cell, hi_cell in zip(cells[:n], cells[n:]):
            require(lo_cell.in_frame == hi_cell.in_frame, f"{where}: frame differs across betas at {lo_cell}")
            if not lo_cell.in_frame:
                continue
            for c in (lo_cell, hi_cell):
                require(not c.mb_exists or c.tau_dagger != 0.0, f"{where}: mutual benefit with zero alliance transfer at {c}")
            require(not lo_cell.mb_exists or hi_cell.mb_exists, f"{where}: mutual benefit lost as beta grows at {hi_cell}")
            require(lo_cell.tau_dagger == 0.0 or hi_cell.tau_dagger != 0.0, f"{where}: alliance transfer lost as beta grows at {hi_cell}")

        require(len(rows) == self.SWEEP_STEPS, f"{where}: {len(rows)} sweep rows")
        mb_on = check_monotone_flags(f"{where} mb_exists", [r.mb_exists for r in rows])
        ally_on = check_monotone_flags(f"{where} alliance_nonzero", [r.alliance_nonzero for r in rows])
        if (phi1, phi2, *self.BUDGETS) == PAPER_GAME:
            for on, ref, what in ((mb_on, PAPER_MUTUAL_THRESHOLD, "mutual"), (ally_on, PAPER_ALLIANCE_THRESHOLD, "alliance")):
                require(on > 0 and rows[on - 1].beta <= ref < rows[on].beta, f"{where}: {what} flag does not switch on at {ref}")
        for r in rows:
            require(r.mb_exists <= r.alliance_nonzero, f"{where}: mutual benefit without an alliance transfer at beta={r.beta}")
            u_star = r.u1_at_alliance_opt + r.u2_at_alliance_opt
            require(close(u_star, r.max_u12, tol), f"{where}: payoffs at the alliance optimum sum to {u_star}, max_u12 is {r.max_u12}")
            require(0.0 <= r.u1_at_alliance_opt <= phi1 and 0.0 <= r.u2_at_alliance_opt <= phi2, f"{where}: payoff out of bounds at beta={r.beta}")
            require(r.max_u1_any >= r.max_u1_mutual >= r.u1_nominal - tol, f"{where}: u1 maxima out of order at beta={r.beta}")
            require(r.max_u2_any >= r.max_u2_mutual >= r.u2_nominal - tol, f"{where}: u2 maxima out of order at beta={r.beta}")
        for b, curve in zip(self.CURVE_BETAS, curves):
            r = min(rows, key=lambda r: abs(r.beta - b))
            require(abs(r.beta - b) <= 1e-12, f"{where}: sweep has no row at beta={b}")
            best = max(row[3] for row in curve)
            require(r.max_u12 >= best - tol, f"{where}: max_u12 {r.max_u12} below the curve's {best} at beta={b}")
            require(len(curve) == self.CURVE_STEPS and all(row[3] <= phi1 + phi2 for row in curve), f"{where}: curve at beta={b}")


class Queries(Workload):
    """One op: one game analysed at the five betas, one small call at a time.

    Per beta: transfer_engine.analyze, payoffs_at at the alliance transfer
    and at the middle of the mutual-benefit interval, stage_payoffs of the
    game that transfer induces, and a single-row
    oracle.adversary_grid_best_response of it. A round is the games stored
    in queries_inputs.json that the seed picks, then the pinned failing
    games; queries_inputs.py describes its make-up. The op fails when
    analyze raises InternalInconsistencyError at some beta.
    """

    name = "queries"
    pace = "scalar"
    tail = 0.99
    SCALE = 3.0

    def __init__(self, seed):
        self.games = [GameParams(*p) for p in queries_inputs.round_games(seed)]

    def round(self, r):
        return self.games

    warmup = GameParams(*PAPER_GAME)

    @property
    def companion(self):
        return self.games

    @staticmethod
    def op(g, tr):
        out = []
        for beta in BETAS:
            try:
                a = tr.call("transfer_engine.analyze", te.analyze, g, beta)
            except InternalInconsistencyError as exc:
                out.append(exc)
                continue
            p_star = tr.call("transfer_engine.payoffs_at", te.payoffs_at, g, Transfer(a.alliance_tau, beta))
            p_mid = None
            if a.mb_interval is not None:
                mid = 0.5 * (a.mb_interval[0] + a.mb_interval[1])
                p_mid = tr.call("transfer_engine.payoffs_at", te.payoffs_at, g, Transfer(mid, beta))
            post = te.apply_transfer(g, Transfer(a.alliance_tau, beta))
            induced = GameParams(g.phi1, g.phi2, post.x1_bar, post.x2_bar, g.adversary_budget)
            gn, _ = normalize(induced)
            stage = tr.call("adversary_response.stage_payoffs", stage_payoffs, gn)
            br = tr.call("oracle.adversary_grid_best_response", oracle.adversary_grid_best_response, induced)
            out.append((a, p_star, p_mid, induced, gn, stage, br))
        return out

    @staticmethod
    def failed(out):
        return any(isinstance(res, InternalInconsistencyError) for res in out)

    @staticmethod
    def key(g):
        return g

    @staticmethod
    def fingerprint(out):
        return tuple(
            str(res) if isinstance(res, Exception) else (res[0].alliance_tau, res[0].mb_interval, res[6])
            for res in out
        )

    def check(self, g, out):
        tol = 1e-9 * (g.phi1 + g.phi2)

        def same_tau(x, y):
            # analyze bisects to 1e-9 in adversary-budget units, or to rounding where that is coarser
            return abs(x - y) <= 2e-9 * self.SCALE * g.adversary_budget + 1e-12 * max(abs(x), abs(y))

        for beta, res in zip(BETAS, out):
            where = f"queries {g} beta={beta}"
            if isinstance(res, Exception):
                require(str(res).startswith(MARCH_FAULT), f"{where}: unexpected failure {res}")
                continue
            a, p_star, p_mid, induced, gn, stage, br = res
            base = te.payoffs_at(g, Transfer(0.0, beta))
            for p in filter(None, (base, p_star, p_mid)):
                require(all(map(math.isfinite, (p.u1, p.u2, p.u_adversary))), f"{where}: non-finite payoff {p}")
                require(close(p.u1 + p.u2 + p.u_adversary, g.phi1 + g.phi2, 1e-12 * (g.phi1 + g.phi2)), f"{where}: {p} does not conserve phi1 + phi2")
                require(-tol <= p.u1 <= g.phi1 + tol and -tol <= p.u2 <= g.phi2 + tol, f"{where}: payoff out of bounds {p}")
            require(a.mb_exists == (a.mb_interval is not None), f"{where}: mb_exists={a.mb_exists} with interval {a.mb_interval}")
            if p_mid is not None:
                # Endpoints are exact to 1e-9 in adversary-budget units; a narrower
                # interval has no resolved middle, so there only rounding may lose.
                lo, hi = a.mb_interval
                floor = 0.0 if hi - lo > 2e-9 * g.adversary_budget else -1e-12 * (g.phi1 + g.phi2)
                require(
                    p_mid.u1 - base.u1 > floor and p_mid.u2 - base.u2 > floor,
                    f"{where}: a player loses at the middle of {a.mb_interval}",
                )
            better = queries_inputs.neighbour_beats(g, beta, a.alliance_tau)
            require(better is None, f"{where}: transfer {better} beats the alliance transfer {a.alliance_tau}")
            # The grid best response agrees with plain enumeration and cannot beat the closed form.
            xa = induced.adversary_budget
            ties, _, _ = best_splits(g.phi1, g.phi2, induced.x1 / xa, induced.x2 / xa, N_SPLIT)
            check_split(f"{where} best response", br[0], ties, N_SPLIT)
            require(br[1] <= stage.u_adversary + tol, f"{where}: grid adversary payoff {br[1]} beats the closed form {stage.u_adversary}")
            # Mirroring negates the interval; scaling every budget scales it.
            m = te.analyze(mirror(g), beta)
            s = te.analyze(GameParams(g.phi1, g.phi2, self.SCALE * g.x1, self.SCALE * g.x2, self.SCALE * g.adversary_budget), beta)
            require(m.mb_exists == a.mb_exists == s.mb_exists, f"{where}: mirrored or scaled game changes mb_exists")
            require(same_tau(m.alliance_tau, -a.alliance_tau), f"{where}: mirrored alliance transfer {m.alliance_tau}")
            if a.mb_interval is not None:
                lo, hi = a.mb_interval
                require(same_tau(m.mb_interval[0], -hi) and same_tau(m.mb_interval[1], -lo), f"{where}: mirrored interval {m.mb_interval}")
                require(
                    same_tau(s.mb_interval[0], self.SCALE * lo) and same_tau(s.mb_interval[1], self.SCALE * hi),
                    f"{where}: scaled interval {s.mb_interval}",
                )

    def probe(self, g, out, tr):
        for beta, res in zip(BETAS, out):
            if isinstance(res, Exception):
                continue
            gn = res[4]
            tr.call("transfer_engine.mb_interval", te.mb_interval, g, beta)
            tr.call("transfer_engine.alliance_optimal", te.alliance_optimal, g, beta)
            split = tr.call("adversary_response.optimal_split", optimal_split, gn)
            tr.call("lotto_core.payoff", _lotto_calls, gn, split.x_a1)
            tr.note(calls=2 * LOTTO_REPS)


WORKLOADS = {w.name: w for w in (Audit, Figures, Queries)}


# ---------------------------------------------------------------------------
# Host pace. The host is shared, and how fast it runs this process changes
# by up to 2.5 times from one stretch of minutes to the next. The kernel does
# not count the slow stretches as stolen time, so they lengthen CPU time as
# much as wall time. A run therefore times a fixed kernel of the benchmark's
# own code between its ops, one sample per PACE_EVERY_S of op time, and
# reports op times scaled by the kernel's reference time over its mean time
# in the run. The kernels never call the library, so a change to the library
# moves the scaled times and leaves the kernels alone.
# ---------------------------------------------------------------------------

_ROW = np.linspace(0.0, 1.0, N_SPLIT + 1)
_X = np.linspace(0.05, 2.0, 400)[:, None]
_BLOCK = [np.empty((400, N_SPLIT + 1)) for _ in range(2)]
_MASK = np.empty((400, N_SPLIT + 1), dtype=bool)


def scalar_kernel():
    """Scalar arithmetic in the interpreter and small-array numpy, like a single-row call."""
    for k in range(20):
        best_splits(1.0 + k, 1.2, 0.5, 1.5, 100)
        lo = np.minimum(_ROW, 0.5 + 0.01 * k)
        (lo / (2.0 * _ROW[1:].max()) + _ROW).argmin()


def array_kernel():
    """A block of 400 x 1001 Lotto payoffs into preallocated arrays, like one chunk of a grid scan."""
    u, v = _BLOCK
    np.divide(_X, 2.0 * np.maximum(_ROW, 1e-12), out=u)
    np.divide(_ROW, 2.0 * _X, out=v)
    np.subtract(1.0, v, out=v)
    np.less_equal(_X, _ROW, out=_MASK)
    np.copyto(v, u, where=_MASK)
    v.sum(axis=1).argmin()


KERNELS = {"scalar": scalar_kernel, "array": array_kernel}
# Mean CPU seconds of one pace sample on the reference host (see README).
PACE_REF_S = {"scalar": 1.1e-3, "array": 2.2e-3}
PACE_EVERY_S = 0.1
PACE_BURST = 3


def pace_sample(kernel):
    """CPU seconds of the named kernel: the least of PACE_BURST calls, so that neither a cold cache nor an interrupt counts."""
    best = math.inf
    for _ in range(PACE_BURST):
        start = time.process_time()
        KERNELS[kernel]()
        best = min(best, time.process_time() - start)
    return best


def paced(times, samples, kernel):
    """CPU times scaled by the named kernel's reference time over its mean time in `samples`."""
    scale = PACE_REF_S[kernel] / statistics.fmean(samples)
    return [t * scale for t in times]


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


class Run:
    """Ops of one workload: CPU times, pace samples, counts, the checks already made and what they found."""

    def __init__(self, workload, tr):
        self.workload = workload
        self.tr = tr
        self.times = []
        self.ok = []
        self.samples = [pace_sample(workload.pace)]
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.rounds = 0
        self.problems = []
        self._checked = {}
        self._since_sample = 0.0

    def do(self, item):
        w, tr = self.workload, self.tr
        tr.begin_op()
        start = time.process_time()
        out = tr.call(f"op.{w.name}", w.op, item, tr)
        elapsed = time.process_time() - start
        self.busy += elapsed
        self.attempted += 1
        failed = w.failed(out)
        self.failed += failed
        self.times.append(elapsed)
        self.ok.append(not failed)
        # one kernel sample per PACE_EVERY_S of op time, so that the samples spread over the run as the ops do
        self._since_sample += elapsed
        while self._since_sample >= PACE_EVERY_S:
            self.samples.append(pace_sample(w.pace))
            self._since_sample -= PACE_EVERY_S
        key, fingerprint = w.key(item), w.fingerprint(out)
        try:
            if key in self._checked:
                require(self._checked[key] == fingerprint, f"{w.name}: output for {key} changed between rounds")
            else:
                self._checked[key] = fingerprint
                w.check(item, out)
        except CheckFailed as exc:
            self.problems.append(str(exc))
        if tr.traced and not failed:
            w.probe(item, out, tr)

    def rounds_for(self, seconds):
        """Whole rounds until the ops have taken `seconds` of CPU time at the reference pace."""
        while self.rounds == 0 or (
            self.busy * PACE_REF_S[self.workload.pace] / statistics.fmean(self.samples) < seconds
            and time.monotonic() - STARTED < WALL_LIMIT_S
        ):
            for item in self.workload.round(self.rounds):
                self.do(item)
            self.rounds += 1
        self.samples.append(pace_sample(self.workload.pace))

    def paced(self):
        """Op times at the reference pace, and the latencies of the ops that did not fail."""
        times = paced(self.times, self.samples, self.workload.pace)
        return times, [t for t, ok in zip(times, self.ok) if ok]


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _child(workload, seed, mode):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), mode]


def setup_seconds(workload, seed):
    """Median CPU time, at the reference pace, of a fresh interpreter from its start to its first op being ready.

    Interpreter start-up and imports are interpreter work, so the pace is
    that of the scalar kernel, sampled around every child.
    """
    times, samples = [], []
    for _ in range(SETUP_SAMPLES):
        samples += [pace_sample("scalar") for _ in range(SETUP_PACE_SAMPLES)]
        child = subprocess.run(
            _child(workload, seed, "--setup-only"), stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(child.stdout.split()[-1]))
    samples += [pace_sample("scalar") for _ in range(SETUP_PACE_SAMPLES)]
    return statistics.median(paced(times, samples, "scalar"))


def peak_memory_mb(workload, seed):
    """Peak resident memory of a fresh interpreter that runs the first PEAK_OPS ops of a round.

    The measuring process is not used: the checks it makes between ops leave
    small allocations on the C heap that, depending on where they land, keep
    a freed oracle chunk of 16 MB resident or not, so its own peak moved by
    15 to 28 MB from one run to the next.
    """
    child = subprocess.run(
        _child(workload, seed, "--peak-memory"), stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=170, check=True
    )
    return float(child.stdout.split()[-1])


def prepare(name, seed):
    """Build a workload's inputs and run its warm-up op."""
    workload = WORKLOADS[name](seed)
    workload.op(workload.warmup, Direct)
    return workload


def end_to_end(name, seed, seconds):
    setup = setup_seconds(name, seed)
    memory = peak_memory_mb(name, seed)
    workload = prepare(name, seed)
    run = Run(workload, Direct)
    run.rounds_for(seconds)
    times, lat = run.paced()
    raw = [t for t, ok in zip(run.times, run.ok) if ok]
    print(
        f"pace: {workload.pace} kernel mean {1e3 * statistics.fmean(run.samples):.4f} ms "
        f"(reference {1e3 * PACE_REF_S[workload.pace]:.4f} ms); unscaled op p50 {1e3 * statistics.median(raw):.4f} ms",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": ((run.attempted - run.failed) / sum(times), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * percentile(lat, workload.tail), "ms"),
        "peak_rss_mb": (memory, "MB"),
    }
    return run, metrics, run.problems


def traced(name, seed, seconds):
    """The named workload for `seconds`, then the companion ops of the others, all traced."""
    tr = Tracer()
    runs = {}
    for other in [name] + [w for w in WORKLOADS if w != name]:
        workload = prepare(other, seed)
        run = runs[other] = Run(workload, tr)
        if other == name:
            run.rounds_for(seconds)
        else:
            for item in workload.companion:
                run.do(item)
            run.rounds = 1
    metrics = layer_metrics(tr.spans, runs)
    times, lat = runs[name].paced()
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    doc = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced_ops": {
            w: {"ops": r.attempted, "failed": r.failed, "rounds": r.rounds, "busy_s": r.busy} for w, r in runs.items()
        },
        "traced_op_p50_ms": 1e3 * statistics.median(lat),
        "traced_ops_per_s": (runs[name].attempted - runs[name].failed) / sum(times),
        "pace": {"kernel": runs[name].workload.pace, "mean_s": statistics.fmean(runs[name].samples), "reference_s": PACE_REF_S[runs[name].workload.pace]},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "error", "counts"],
        "spans": tr.spans,
    }
    (out / f"trace-{name}-{seed}.json").write_text(json.dumps(doc))
    return runs[name], metrics, [p for r in runs.values() for p in r.problems]


def layer_metrics(spans, runs):
    """Per-layer figures from the spans: self time is a span minus its child spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    by_name = {}
    for i, (name, start, end, parent, op, error, counts) in enumerate(spans):
        by_name.setdefault(name, []).append((end - start - child_ns[i], end - start, error, counts))

    def ok(name):
        return [s for s in by_name.get(name, []) if s[2] is None]

    def mean_self(name, scale):
        selfs = [s[0] for s in ok(name)]
        return scale * statistics.fmean(selfs) if selfs else math.nan

    def per(name, count, scale):
        spans_ = ok(name)
        work = sum(s[3][count] for s in spans_)
        return scale * sum(s[0] for s in spans_) / work if work else math.nan

    scans = ok("oracle.transfer_grid_scan")
    cpu = sum(s[3]["utime"] + s[3]["stime"] for s in scans)
    audit_ops = sum(s[1] for s in ok("op.audit"))
    rasters = ok("sweep.region_raster")
    failed_analyze = sum(1 for s in by_name.get("transfer_engine.analyze", []) if s[2] is not None)
    ms, us = 1e-6, 1e-3
    return {
        "oracle.scan_ms": (mean_self("oracle.transfer_grid_scan", ms), "ms"),
        "oracle.cells_per_us": (sum(s[3]["cells"] for s in scans) / (us * sum(s[0] for s in scans)), "cells/us"),
        "oracle.rows": (statistics.fmean(s[3]["rows"] for s in scans), "count"),
        "oracle.minor_faults": (statistics.fmean(s[3]["minflt"] for s in scans), "count"),
        "oracle.sys_share": (sum(s[3]["stime"] for s in scans) / cpu if cpu else math.nan, "ratio"),
        "oracle.scan_share": (sum(s[1] for s in scans) / audit_ops, "ratio"),
        "oracle.best_response_us": (mean_self("oracle.adversary_grid_best_response", us), "us"),
        "cli.closed_form_summary_ms": (mean_self("cli.closed_form_summary", ms), "ms"),
        "transfer_engine.mutual_margin_ms": (mean_self("transfer_engine.mutual_margin", ms), "ms"),
        "transfer_engine.analyze_us": (mean_self("transfer_engine.analyze", us), "us"),
        "transfer_engine.alliance_optimal_us": (mean_self("transfer_engine.alliance_optimal", us), "us"),
        "transfer_engine.mb_interval_us": (mean_self("transfer_engine.mb_interval", us), "us"),
        "transfer_engine.payoffs_at_us": (mean_self("transfer_engine.payoffs_at", us), "us"),
        "transfer_engine.analyze_failed": (failed_analyze / runs["queries"].rounds, "count"),
        "adversary_response.stage_payoffs_us": (mean_self("adversary_response.stage_payoffs", us), "us"),
        "adversary_response.optimal_split_us": (mean_self("adversary_response.optimal_split", us), "us"),
        "lotto_core.payoff_ns": (per("lotto_core.payoff", "calls", 1.0), "ns"),
        "lotto_core.payoff_vec_ns_per_cell": (per("lotto_core.payoff_vec", "cells", 1.0), "ns"),
        "sweep.region_raster_ms": (mean_self("sweep.region_raster", ms), "ms"),
        "sweep.raster_cells_per_s": (sum(s[3]["cells"] for s in rasters) / (1e-9 * sum(s[0] for s in rasters)), "1/s"),
        "sweep.beta_sweep_ms": (mean_self("sweep.beta_sweep", ms), "ms"),
        "sweep.payoff_curves_ms": (mean_self("sweep.payoff_curves", ms), "ms"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--peak-memory", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only or args.peak_memory:
        workload = prepare(args.workload, args.seed)
        if args.setup_only:
            # CPU time counts from the start of this process, interpreter start-up included.
            print(time.process_time())
        else:
            for item in workload.round(0)[:PEAK_OPS]:
                workload.op(item, Direct)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return 0

    run, metrics, problems = (traced if args.trace else end_to_end)(args.workload, args.seed, args.seconds)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
