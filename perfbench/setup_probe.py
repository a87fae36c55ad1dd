"""Set-up of one workload in a fresh interpreter, for the setup_s metric.

Imports the package and builds the workload's inputs (build_scenario or
load_scenario, validate_kernel, init_state), then exits.  run.py times the
whole process, interpreter start included.
"""

import argparse
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description="time-free set-up of one workload")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    outroot = BENCH.parent / ".bench_out" / args.workload / f"setup-seed{args.seed}"
    workloads.WORKLOADS[args.workload](args.seed, outroot, workloads.load_reference())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
