"""Record the benchmark of this checkout in BENCH_<date>_<short sha>.json.

For each workload named in BENCHMARK.json the script runs perfbench/run.py
twice: untraced (--trace 0, the end-to-end metrics) and then traced
(--trace 1, the per-layer metrics).  It then runs the Tier-1 suite.  The
file it writes at the repository root holds:

- the commit, and whether tracked files differed from it;
- the source line count (`source_lines`, as `git ls-files src | xargs wc -l`
  totals it);
- the config key count (`config_keys`, the total of `config.KNOWN_KEYS`
  read from this checkout's src/);
- the environment record of the benchmark runs (from
  .bench_out/<workload>/seed<N>-trace<T>/run.json);
- for each workload and trace setting, the verdict and the metrics;
- the Tier-1 pass count and wall time.

Usage (from anywhere; takes a few minutes):

    python3 scripts/bench_record.py [--seed 1] [--seconds 8] [--trace-seconds 1]

It exits 1 when a benchmark run is not correct or a Tier-1 test fails, and
writes the file either way.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def source_lines() -> int:
    """Newline count of the tracked files under src/."""
    return sum((ROOT / name).read_bytes().count(b"\n") for name in git("ls-files", "src").splitlines())


def config_keys() -> int:
    """Number of keys the config sections accept, summed over sections."""
    sys.path.insert(0, str(ROOT / "src"))
    from nlinvade.config import KNOWN_KEYS

    return sum(len(keys) for keys in KNOWN_KEYS.values())


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result, environment) of one perfbench/run.py invocation."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stderr, file=sys.stderr)
        return {"correct": False, "exit_code": done.returncode}, {}
    record = json.loads((ROOT / ".bench_out" / workload / f"seed{seed}-trace{trace}"
                         / "run.json").read_text())
    result = json.loads(lines[-1])
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result, record["environment"]


def tier1() -> dict:
    """Pass count and wall time of the Tier-1 suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    t0 = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = perf_counter() - t0
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "exit_code": done.returncode, "wall_s": round(wall, 2), "summary": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0, help="untraced run length")
    ap.add_argument("--trace-seconds", type=float, default=1.0, help="traced run length")
    args = ap.parse_args(argv)

    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs, environment, ok = {}, None, True
    for name in workloads:
        runs[name] = {}
        for trace, seconds in ((0, args.seconds), (1, args.trace_seconds)):
            print(f"{name} --trace {trace} --seconds {seconds}", flush=True)
            result, env = bench(name, args.seed, seconds, trace)
            runs[name][f"trace{trace}"] = result
            ok = ok and result.get("correct") is True
            environment = environment or env
    print("tier-1", flush=True)
    tests = tier1()
    ok = ok and tests["exit_code"] == 0

    now = datetime.now(timezone.utc)
    record = {
        "commit": commit,
        "dirty": dirty,
        "source_lines": source_lines(),
        "config_keys": config_keys(),
        "recorded_utc": now.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seed": args.seed,
        "seconds": {"trace0": args.seconds, "trace1": args.trace_seconds},
        "environment": environment,
        "workloads": runs,
        "tier1": tests,
    }
    out = ROOT / f"BENCH_{now:%Y-%m-%d}_{commit[:7]}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
