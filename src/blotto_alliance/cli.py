"""Command-line surface: analyze | curve | region | beta-sweep | verify.

All commands are pure functions of their flags (plus the verify seed):
repeated invocations emit identical bytes. CSV goes to stdout with a header
row and newline line endings; JSON documents carry a schema_version field
and serialize every real number with 17 significant digits, which
round-trips doubles losslessly. Diagnostics go to stderr; exit codes are
0 (success), 1 (verification found disagreements), 2 (invalid parameters).

`verify` defaults to 200 trials, seed 0, tau step 1e-4, split step 1e-3 and
betas 0.1,0.3,0.5,0.8,1.0. `--config FILE` holds `key = value` lines whose
keys are flag names with `-` or `_`: keys of other subcommands are ignored,
an unknown key exits 2, and flags given on the command line override the file.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys

import numpy as np

import blotto_alliance
from blotto_alliance import oracle, sweep, transfer_engine
from blotto_alliance.adversary_response import (
    GameParams,
    PROPORTIONAL_RTOL,
    normalize,
    stage_payoffs,
)
from blotto_alliance.oracle import ClosedFormSummary, Disagreement, OracleConfig
from blotto_alliance.transfer_engine import Transfer

SCHEMA_VERSION = "1"
DEFAULT_VERIFY_BETAS = (0.1, 0.3, 0.5, 0.8, 1.0)

# Sampled games are re-drawn when this close (relative) to a case boundary,
# so grid verdicts are not flaky at region edges.
BOUNDARY_MARGIN = 1e-3

FIXED_SEED_GAMES = {
    "fixed-case-1-game": GameParams(1.0, 1.2, 2.0, 3.0),
    "fixed-case-2-game": GameParams(1.0, 1.2, 0.5, 1.5),
    "fixed-case-3-game": GameParams(2.0, 0.5, 0.05, 0.5),
    "fixed-case-4-game": GameParams(1.0, 2.0, 0.5, 1.0),
}


class CliError(Exception):
    """Invalid parameters; the message names the violated constraint."""


# ---------------------------------------------------------------------------
# Serialization helpers.
# ---------------------------------------------------------------------------


def _json_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    s = format(x, ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _dumps(value, indent: int = 0) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + _dumps(v, indent + 1) for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _dumps(v, indent + 1)
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_csv(header: list[str], rows, out) -> None:
    """csv writes None as empty, a float as its repr and an int with str; callers pass bools as 0/1."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# Flag plumbing.
# ---------------------------------------------------------------------------


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subparsers by name; each flag's type and default are stated only here."""
    parser = argparse.ArgumentParser(
        prog="blotto-alliance",
        description="Transfer analysis for coalitional Lotto games with lossy transfers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value file mirroring the flags; flags override it")

    def add_game(p):
        p.add_argument("--phi1", type=float, help="front 1 total valuation")
        p.add_argument("--phi2", type=float, help="front 2 total valuation")
        p.add_argument("--x1", type=float, help="player 1 budget")
        p.add_argument("--x2", type=float, help="player 2 budget")
        p.add_argument("--xa", type=float, default=1.0, help="adversary budget (default 1)")

    p = sub.add_parser("analyze", help="full transfer analysis of one game")
    add_common(p)
    add_game(p)
    p.add_argument("--beta", type=float, help="transfer efficiency in (0, 1]")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json")
    fmt.add_argument("--text", dest="format", action="store_const", const="text")
    p.set_defaults(handler=cmd_analyze, format="json")

    p = sub.add_parser("curve", help="payoff-change curve along the transfer axis (CSV)")
    add_common(p)
    add_game(p)
    p.add_argument("--beta", type=float)
    # argparse takes a separate "-1e-06" for an option, so that form of value is attached with "="
    p.add_argument("--tau-min", type=float, help="first transfer; attach a value like -1e-06 as --tau-min=-1e-06")
    p.add_argument("--tau-max", type=float, help="last transfer; attach a value like -1e-06 as --tau-max=-1e-06")
    p.add_argument("--steps", type=int)
    p.set_defaults(handler=cmd_curve)

    p = sub.add_parser("region", help="raster of the (x1, x2) plane (CSV)")
    add_common(p)
    p.add_argument("--phi1", type=float)
    p.add_argument("--phi2", type=float)
    p.add_argument("--beta-list", help="comma-separated efficiencies")
    p.add_argument("--x1-min", type=float)
    p.add_argument("--x1-max", type=float)
    p.add_argument("--x2-min", type=float)
    p.add_argument("--x2-max", type=float)
    p.add_argument("--resolution", type=int, help="cells per axis")
    p.set_defaults(handler=cmd_region)

    p = sub.add_parser("beta-sweep", help="attainable payoff maxima per efficiency (CSV)")
    add_common(p)
    add_game(p)
    p.add_argument("--beta-min", type=float)
    p.add_argument("--beta-max", type=float)
    p.add_argument("--steps", type=int)
    p.set_defaults(handler=cmd_beta_sweep)

    oracle_defaults = OracleConfig()
    p = sub.add_parser("verify", help="audit closed forms against the grid oracle (JSON)")
    add_common(p)
    p.add_argument("--trials", type=int, default=200, help="number of random games")
    p.add_argument(
        "--seed",
        default="0",
        help="integer, arbitrary string (hashed), or a fixed-case-N-game fixture name",
    )
    p.add_argument("--tau-step", type=float, default=oracle_defaults.tau_step)
    p.add_argument("--split-step", type=float, default=oracle_defaults.split_step)
    betas = ",".join(map(str, DEFAULT_VERIFY_BETAS))
    p.add_argument("--beta-list", default=betas, help="comma-separated efficiencies")
    p.set_defaults(handler=cmd_verify)

    return parser, sub.choices


def _load_config(path: str, commands: dict, command: str) -> dict[str, str]:
    """The file's values for the flags of `command`, keyed by argparse dest.

    Keys are flag names with `-` or `_`, and `#` starts a comment anywhere
    on a line. Keys of other subcommands are skipped; a key that no
    subcommand has is an error.
    """
    dests = {name: {a.dest for a in p._actions} for name, p in commands.items()}
    known = set().union(*dests.values()) - {"help", "config"}
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.partition("#")[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_").lstrip("_")
                if key not in known:
                    raise CliError(f"unknown config key {key!r}")
                if key in dests[command]:
                    values[key] = val = val.strip()
                    # --json and --text store a constant, so argparse converts no file value of format
                    if key == "format" and val not in ("json", "text"):
                        raise CliError(f"config key 'format' takes json or text, got {val!r}")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return values


def _require(args, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise CliError(f"missing required parameter --{name.replace('_', '-')}")
    return value


def _game_from(args) -> GameParams:
    phi1, phi2, x1, x2 = (_require(args, name) for name in ("phi1", "phi2", "x1", "x2"))
    return GameParams(phi1, phi2, x1, x2, adversary_budget=args.xa)


def _parse_beta_list(raw: str) -> tuple[float, ...]:
    try:
        betas = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise CliError(f"malformed beta list {raw!r}") from exc
    if not betas:
        raise CliError("beta list must be nonempty")
    transfer_engine._check_beta(*betas)
    return betas


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    game = _game_from(args)
    beta = _require(args, "beta")
    analysis = transfer_engine.analyze(game, beta)
    nominal = transfer_engine.payoffs_at(game, Transfer(tau=0.0, beta=beta))
    gn, swapped = normalize(game)

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "blotto-alliance", "version": blotto_alliance.__version__},
        "input": {
            "phi1": game.phi1, "phi2": game.phi2, "x1": game.x1, "x2": game.x2,
            "adversary_budget": game.adversary_budget, "beta": beta,
        },
        "normalized_game": {
            "phi1": gn.phi1, "phi2": gn.phi2, "x1": gn.x1, "x2": gn.x2,
            "swapped": swapped,
        },
        "case_at_zero": int(analysis.case_at_zero),
        "nominal_payoffs": {
            "u1": nominal.u1, "u2": nominal.u2, "u_adversary": nominal.u_adversary,
        },
        "transfer_analysis": {
            "mb_exists": analysis.mb_exists,
            "mb_interval": list(analysis.mb_interval) if analysis.mb_interval else None,
            "mb_beta_threshold": analysis.mb_beta_threshold,
            "alliance_tau": analysis.alliance_tau,
            "alliance_payoff_gain": analysis.alliance_payoff_gain,
            "in_g_dagger": analysis.in_g_dagger,
            "mb_interval_anomaly": analysis.mb_interval_anomaly,
        },
        "provenance": {
            "proportional_rtol": PROPORTIONAL_RTOL,
            "transfer_domain_edge": transfer_engine._EDGE,
            "case4_split_convention": "proportional: x_a_i = x_i / (x1 + x2)",
        },
    }
    if args.format == "json":
        print(_dumps(report))
    else:
        _print_text_report(report)
    return 0


def _print_text_report(report: dict) -> None:
    game = report["input"]
    norm = report["normalized_game"]
    ta = report["transfer_analysis"]
    pay = report["nominal_payoffs"]
    print(f"game: phi=({game['phi1']:g}, {game['phi2']:g})  "
          f"x=({game['x1']:g}, {game['x2']:g})  adversary={game['adversary_budget']:g}  "
          f"beta={game['beta']:g}")
    swapped = "yes" if norm["swapped"] else "no"
    print(f"oriented frame: phi=({norm['phi1']:g}, {norm['phi2']:g})  "
          f"x=({norm['x1']:g}, {norm['x2']:g})  swapped={swapped}")
    print(f"case at tau=0: {report['case_at_zero']}")
    print(f"nominal payoffs: u1={pay['u1']:.6f}  u2={pay['u2']:.6f}  "
          f"adversary={pay['u_adversary']:.6f}")
    print(f"mutual benefit: exists={ta['mb_exists']}  threshold beta={ta['mb_beta_threshold']:.6f}")
    if ta["mb_interval"]:
        lo, hi = ta["mb_interval"]
        print(f"mutual interval: ({lo:.6f}, {hi:.6f})")
    print(f"alliance optimum: tau={ta['alliance_tau']:.6f}  gain={ta['alliance_payoff_gain']:.6f}  "
          f"zero-optimal={ta['in_g_dagger']}")


def cmd_curve(args) -> int:
    game = _game_from(args)
    beta = _require(args, "beta")
    tau_range = (_require(args, "tau_min"), _require(args, "tau_max"))
    rows = sweep.payoff_curves(game, beta, tau_range, _require(args, "steps"))
    # Python floats, so the CSV holds each value's repr
    _write_csv(["tau", "du1", "du2", "u12"], rows.tolist(), sys.stdout)
    return 0


def cmd_region(args) -> int:
    betas = _parse_beta_list(_require(args, "beta_list"))
    resolution = _require(args, "resolution")
    grid = sweep.SweepGrid(
        axes=(
            sweep.Axis("x1", _require(args, "x1_min"), _require(args, "x1_max"), resolution),
            sweep.Axis("x2", _require(args, "x2_min"), _require(args, "x2_max"), resolution),
        ),
        fixed={"phi1": _require(args, "phi1"), "phi2": _require(args, "phi2")},
        beta_list=betas,
    )
    cells = sweep.region_raster(grid)
    # int(), since Python 3.10 prints an IntEnum member as its name
    rows = (
        (c.beta, c.x1, c.x2, 1, int(c.case_label), int(c.mb_exists), c.tau_dagger)
        if c.in_frame else (c.beta, c.x1, c.x2, 0, None, None, None)
        for c in cells
    )
    _write_csv(["beta", "x1", "x2", "in_frame", "case", "mb_exists", "tau_dagger"], rows, sys.stdout)
    return 0


def cmd_beta_sweep(args) -> int:
    game = _game_from(args)
    beta_range = (_require(args, "beta_min"), _require(args, "beta_max"))
    rows = sweep.beta_sweep(game, beta_range, _require(args, "steps"))
    # BetaSweepRow's fields are the CSV columns, in order, ending in the two flags
    header = [f.name for f in dataclasses.fields(sweep.BetaSweepRow)]
    rows = ((*dataclasses.astuple(r)[:-2], int(r.mb_exists), int(r.alliance_nonzero)) for r in rows)
    _write_csv(header, rows, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# verify: closed forms against the grid oracle.
# ---------------------------------------------------------------------------


def _resolve_seed(spec: str) -> tuple[np.random.Generator, GameParams | None]:
    if spec in FIXED_SEED_GAMES:
        return np.random.default_rng(0), FIXED_SEED_GAMES[spec]
    try:
        seed = int(spec)
    except ValueError:
        digest = hashlib.sha256(spec.encode("utf-8")).digest()
        seed = int.from_bytes(digest[:8], "big")
    if seed < 0:
        raise CliError(f"an integer seed must be >= 0, got {seed}")
    return np.random.default_rng(seed), None


def _boundary_distance(g: GameParams) -> float:
    a, b = g.phi2 * g.x1, g.phi1 * g.x2
    d_prop = abs(a - b) / max(a, b)
    p = g.phi1 * g.x1 * g.x2
    d_c1 = abs(g.phi2 - p) / max(g.phi2, p)
    q = math.sqrt(p / g.phi2)
    d_c23 = abs(1.0 - q - g.x2) / max(1.0, g.x2)
    return min(d_prop, d_c1, d_c23)


def sample_game(rng: np.random.Generator) -> GameParams:
    """One oriented game, parameters log-uniform in [0.05, 5], off case boundaries."""
    lo, hi = math.log(0.05), math.log(5.0)
    while True:
        g = normalize(GameParams(*np.exp(rng.uniform(lo, hi, size=4)).tolist()))[0]
        if _boundary_distance(g) >= BOUNDARY_MARGIN:
            return g


def closed_form_summary(g: GameParams, beta: float) -> ClosedFormSummary:
    """Assemble the closed-form values the oracle audits, for one (game, beta)."""
    analysis = transfer_engine.analyze(g, beta)
    # oracle._compare reads the margin only where mutual benefit exists
    margin = transfer_engine.mutual_margin(g, beta) if analysis.mb_exists else -math.inf
    alliance_value = transfer_engine.alliance_payoff(
        g, Transfer(tau=analysis.alliance_tau, beta=beta)
    )
    profile = stage_payoffs(normalize(g)[0])
    return ClosedFormSummary(
        mb_exists=analysis.mb_exists,
        mb_margin=margin,
        mb_threshold=analysis.mb_beta_threshold,
        case_at_zero=int(analysis.case_at_zero),
        tau_dagger=analysis.alliance_tau,
        alliance_gain=analysis.alliance_payoff_gain,
        alliance_value=alliance_value,
        alliance_beta_threshold=transfer_engine.alliance_beta_threshold(g),
        adversary_payoff_at_zero=profile.u_adversary,
    )


def run_verify(
    trials: int,
    seed_spec: str,
    betas: tuple[float, ...],
    cfg: OracleConfig,
) -> dict:
    """Audit `trials` sampled games at each beta; returns the report document."""
    rng, fixed_game = _resolve_seed(seed_spec)
    entries = []
    n_disagreements = 0
    n_positive_mutual = 0
    for trial in range(trials):
        g = fixed_game if fixed_game is not None else sample_game(rng)
        for beta in betas:
            closed = closed_form_summary(g, beta)
            report = oracle.transfer_grid_scan(g, beta, cfg, closed)
            issues = list(report.disagreements)
            # audited games are oriented, so mutual benefit at tau > 0 is a fault
            if report.positive_tau_mutual:
                n_positive_mutual += 1
                issues.append(
                    Disagreement(
                        "positive_tau_mutual", 0.0, report.mutual_margin, report.slack_mutual
                    )
                )
            n_disagreements += len(issues)
            if issues:
                entries.append(
                    {
                        "trial": trial,
                        "game": {"phi1": g.phi1, "phi2": g.phi2, "x1": g.x1, "x2": g.x2},
                        "beta": beta,
                        "mb_exists_closed": closed.mb_exists,
                        "mb_exists_grid": report.mb_exists_grid,
                        "disagreements": [dataclasses.asdict(d) for d in issues],
                    }
                )
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "blotto-alliance", "version": blotto_alliance.__version__},
        "config": {
            "trials": trials,
            "seed": seed_spec,
            "beta_list": list(betas),
            "tau_step": cfg.tau_step,
            "split_step": cfg.split_step,
            "tolerance": oracle.TOLERANCE,
            "threshold_band": oracle.THRESHOLD_BAND,
        },
        "summary": {
            "pairs_checked": trials * len(betas),
            "disagreements": n_disagreements,
            "positive_tau_mutual": n_positive_mutual,
        },
        "failures": entries,
    }


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise CliError(f"trials must be >= 1, got {args.trials}")
    betas = _parse_beta_list(args.beta_list)
    cfg = OracleConfig(tau_step=args.tau_step, split_step=args.split_step)
    report = run_verify(args.trials, args.seed, betas, cfg)
    print(_dumps(report))
    return 0 if report["summary"]["disagreements"] == 0 else 1


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    # CliError and the library's ValueError both mean invalid parameters
    try:
        if args.config:
            # the file's values become defaults, so flags given in argv still win
            commands[args.command].set_defaults(**_load_config(args.config, commands, args.command))
            args = parser.parse_args(argv)
        return args.handler(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
