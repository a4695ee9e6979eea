"""Smoke test of the benchmark harness at a tiny size.

    python3 bench/smoke.py

Runs one round of every workload, untraced and traced, and checks that each
run exits 0 with a correct result, that the untraced run prints every
end-to-end metric of BENCHMARK.json with its unit, and that the traced run
prints every per-layer metric and writes its trace. It also checks that the
harness exits non-zero, printing no result, where the library source is
missing. Exits 1 and names each problem when any check fails.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_problems(proc: subprocess.CompletedProcess, metrics: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1 and isinstance(result.get("failed"), int)):
        problems.append(f"attempted={result.get('attempted')!r} failed={result.get('failed')!r}")
    printed = result.get("metrics", {})
    for m in metrics:
        got = printed.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} printed as {got}")
    extra = set(printed) - {m["name"] for m in metrics}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    return problems


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            trace_file = BENCH / "out" / f"trace-{workload}-{SEED}.json"
            trace_file.unlink(missing_ok=True)
            found = result_problems(run(ROOT, workload, trace), SPEC[key])
            if trace and not trace_file.is_file():
                found.append(f"no trace written at {trace_file}")
            problems += [f"{workload} --trace {trace}: {p}" for p in found]
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without the library source: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
    shutil.rmtree(bare)
    print(f"without the library source: {'refused' if proc.returncode else 'FAILED'}")

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
