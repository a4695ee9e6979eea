"""Inputs of the queries workload, and the command that regenerates them.

Games draw all five parameters (phi1, phi2, x1, x2, adversary budget)
log-uniform in [1e-6, 1e6]. What one game costs depends mostly on how many
of the five betas have a mutual-benefit interval (each one costs a dense
interval scan) and how many need the alliance march, so a round holds a
fixed number of games per stratum (interval count, march count). The quotas
are the stratum shares of the first 3,000 games of seed 2024, scaled to
200 games, so a round costs about the same whatever the seed.

queries_inputs.json stores everything a run needs as plain parameters, so
no run asks the code it measures which games to measure: per stratum a pool
of POOL_FACTOR times its quota of games, from which a run's seed picks the
quota, and the pinned failing games that every round carries.

Two faults of the alliance march show on some games of this range. It
raises InternalInconsistencyError on some games with tiny normalized
budgets, and on some games with extreme budget ratios it stops short of the
optimum, so that a transfer one step away pays the alliance more. The pools
hold no game that showed either when the file was generated; a change that
makes the march raise or stop short on a pooled game fails the run's checks
or adds to its failed ops. The pinned failing games are the first seven
games of the seed-2024 stream that raise, and their failures are counted as
failed ops, the same number in every round.

Regenerate queries_inputs.json with

    python3 bench/queries_inputs.py
"""

import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from blotto_alliance import transfer_engine as te  # noqa: E402
from blotto_alliance.adversary_response import GameParams  # noqa: E402
from blotto_alliance.cli import DEFAULT_VERIFY_BETAS  # noqa: E402

DATA = BENCH / "queries_inputs.json"
STREAM_SEED = 2024
STREAM_GAMES = 3000
ROUND_GAMES = 200
POOL_FACTOR = 5
PINNED_FAILING = 7
_LOG_LO, _LOG_HI = math.log(1e-6), math.log(1e6)


def neighbour_beats(g: GameParams, beta: float, tau: float) -> float | None:
    """A transfer one step of a 1000-step grid from tau that pays the alliance more, if any."""
    tol = 1e-9 * (g.phi1 + g.phi2)
    best = te.alliance_payoff(g, te.Transfer(tau, beta))
    h = 1e-3 * (g.x1 + g.x2)
    for t in (tau - h, tau + h):
        if -g.x2 < t < g.x1 and te.alliance_payoff(g, te.Transfer(t, beta)) > best + tol:
            return t
    return None


def round_games(seed: int) -> list[tuple[float, ...]]:
    """One round: each stratum's quota picked from its pool by the seed, then the pinned failures."""
    data = json.loads(DATA.read_text())
    rng = np.random.default_rng(seed)
    games = []
    for key in sorted(data["pools"]):
        pool = data["pools"][key]
        picks = rng.choice(len(pool), size=data["quota"][key], replace=False)
        games += [tuple(pool[i]) for i in sorted(picks)]
    return games + [tuple(p) for p in data["failing"]]


def regenerate() -> dict:
    betas = DEFAULT_VERIFY_BETAS

    def raises(g):
        try:
            for b in betas:
                te.alliance_optimal(g, b)
        except te.InternalInconsistencyError:
            return True
        return False

    def stops_short(g):
        return any(neighbour_beats(g, b, te.alliance_optimal(g, b)[0]) is not None for b in betas)

    def stratum(g):
        """(betas with a mutual-benefit interval, betas needing the alliance march)."""
        return f"{sum(te.mb_exists(g, b) for b in betas)},{sum(not te.in_g_dagger(g, b) for b in betas)}"

    rng = np.random.default_rng(STREAM_SEED)
    clean = defaultdict(list)
    failing = []
    screened = {"raising": 0, "stopping_short": 0}
    for _ in range(STREAM_GAMES):
        params = [float(v) for v in np.exp(rng.uniform(_LOG_LO, _LOG_HI, size=5))]
        g = GameParams(*params)
        if raises(g):
            screened["raising"] += 1
            if len(failing) < PINNED_FAILING:
                failing.append(params)
        elif stops_short(g):
            screened["stopping_short"] += 1
        else:
            clean[stratum(g)].append(params)
    # largest-remainder rounding of the stratum shares to ROUND_GAMES games
    total = sum(map(len, clean.values()))
    exact = {k: ROUND_GAMES * len(v) / total for k, v in clean.items()}
    quota = {k: math.floor(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: (quota[k] - exact[k], k))[: ROUND_GAMES - sum(quota.values())]:
        quota[k] += 1
    quota = {k: n for k, n in sorted(quota.items()) if n}
    pools = {k: clean[k][: POOL_FACTOR * n] for k, n in quota.items()}
    short = [k for k, n in quota.items() if len(pools[k]) < POOL_FACTOR * n]
    if short:
        sys.exit(f"error: strata {short} have fewer than {POOL_FACTOR} games per place")
    return {
        "stream_seed": STREAM_SEED,
        "stream_games": STREAM_GAMES,
        "screened": screened,
        "quota": quota,
        "failing": failing,
        "pools": pools,
    }


def dump(data: dict) -> str:
    """JSON with one game per line."""
    games = {k: "[\n   " + ",\n   ".join(map(json.dumps, v)) + "\n  ]" for k, v in data["pools"].items()}
    head = {k: v for k, v in data.items() if k not in ("failing", "pools")}
    lines = [json.dumps(head, indent=1)[:-2] + ","]
    lines.append(' "failing": [\n  ' + ",\n  ".join(map(json.dumps, data["failing"])) + "\n ],")
    lines.append(' "pools": {\n' + ",\n".join(f"  {json.dumps(k)}: {v}" for k, v in games.items()) + "\n }")
    return "\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    DATA.write_text(dump(regenerate()))
    print(f"wrote {DATA}")
