"""Record reference.json: the results every seeded benchmark input must reproduce.

Runs every candidate input any seed can draw (8 per stratum) and stores:
  spread   final fronts per mu, after checking exit code 0, regime
           spreading, all checks passed and zero clamps;
  sweep-mu regime and status of every candidate cell, after checking that
           each matches its stratum's expected regime with status ok;
  spectra  the eigenvalue of every candidate solve, or the error it raised.

Re-run it only when a change is meant to move these results, and say so:

    python3 perfbench/make_reference.py
"""

import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from nlinvade.config import build_scenario  # noqa: E402
from nlinvade.eigenvalue import principal_eigenvalue  # noqa: E402
from nlinvade.kernels import validate_kernel  # noqa: E402
from nlinvade.runner import run_scenario  # noqa: E402

import workloads as w  # noqa: E402


def spread() -> dict:
    out = {}
    for mu in w.SPREAD_MUS:
        outcome = run_scenario(build_scenario(w.spread_mapping(mu)), write_files=False)
        fronts = outcome.report["fronts"]
        ref = {"g_front": fronts["g_front"], "h_front": fronts["h_front"]}
        problems = w.spread_problems(outcome, ref)
        if problems:
            raise SystemExit(f"spread mu={mu}: {problems}")
        out[repr(mu)] = ref
        print(f"spread mu={mu}: {ref}", flush=True)
    return out


def sweep_mu() -> dict:
    out = {}
    for stratum in w.SWEEP_STRATA:
        for mu in w.sweep_candidates(stratum):
            mapping = w.sweep_mapping([mu])
            mapping.pop("sweep")
            mapping["params"]["mu"] = mu
            outcome = run_scenario(build_scenario(mapping), write_files=False)
            margins = [c["margin"] for c in outcome.report["theorem_checks"]]
            regime = outcome.report["regime"]
            if outcome.exit_code != 0 or regime != stratum[2]:
                raise SystemExit(f"sweep mu={mu}: exit {outcome.exit_code}, regime {regime}")
            out[repr(mu)] = {"regime": regime, "min_check_margin": min(margins)}
            print(f"sweep mu={mu}: {out[repr(mu)]}", flush=True)
    return out


def spectra() -> dict:
    out = {}
    for solve in w.spectra_candidates():
        spec, _ = w.SPECTRA_KERNELS[solve.kernel]
        kernel = validate_kernel(spec, solve.dx)
        try:
            res = principal_eigenvalue(kernel, solve.d1, (0.0, solve.length), solve.dx)
        except ValueError as exc:
            out[solve.key] = f"{type(exc).__name__}: {exc}"
            continue
        problems = w.solve_problems(solve, res, {})
        if problems:
            raise SystemExit(f"spectra {solve.key}: {problems}")
        out[solve.key] = res.lambda_p
    print(f"spectra: {len(out)} solves, "
          f"{sum(isinstance(v, str) for v in out.values())} raised", flush=True)
    return out


def main() -> int:
    reference = {"spread": spread(), "sweep_mu": sweep_mu(), "spectra": spectra()}
    path = BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
