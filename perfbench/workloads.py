"""Workload inputs, timed passes and output checks for the nlinvade benchmark.

Every workload draws its inputs from the seed, but only inside fixed strata:
the seed picks one of eight candidate values per stratum, and every
candidate is listed in ``reference.json`` with the result this package gave
when the reference was recorded.  The regime mix, the node-count range and
the share of known-defect solves therefore do not depend on the seed.

The program is called through module attributes (``runner.run_scenario``,
``cli.main``, ``eigenvalue.principal_eigenvalue``, ``dynamics.theta_classify``)
so that the traced run can wrap them from outside.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from nlinvade import cli, dynamics, eigenvalue, kernels, runner, simulator
from nlinvade.config import build_scenario, load_scenario, serialize_config_mapping
from nlinvade.dynamics import THETA1, ModelParams

HERE = Path(__file__).resolve().parent
CANDIDATES = 8  # values per stratum the seed chooses between

# Fronts may move this much (relative) before a spread pass counts as wrong.
# Reordering the floating-point sums of one step changes the fronts by
# rounding only (well below 1e-9 relative over the run); halving dt moves
# them by about 1e-3, so this catches a changed scheme but not a new
# summation order.
FRONT_REL_TOL = 1e-6
ORACLE_TOL = 1e-10
REFERENCE_TOL = 1e-8
RESIDUAL_MAX = 1e-8


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


@dataclass
class PassResult:
    """One timed pass: its wall time, per-operation samples and checks."""

    seconds: float
    op_seconds: list = field(default_factory=list)  # successful operations only
    attempted: int = 0
    failed: int = 0
    known_failures: int = 0  # failures of the documented eigensolver defect
    problems: list = field(default_factory=list)  # every other failure, described
    scenario_seconds: float = 0.0  # time inside run_scenario


def output_digest(directory: Path) -> str:
    """sha256 over report.json, timeseries.csv and the snapshots, in name order."""
    h = hashlib.sha256()
    files = [directory / "report.json", directory / "timeseries.csv"]
    files += sorted(directory.glob("snapshot_*.txt"))
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- spread --------------------------------------------------------------------

SPREAD_MUS = tuple(round(4.9 + 0.025 * k, 6) for k in range(CANDIDATES))
SPREAD_T = 100.0


def spread_mapping(mu: float) -> dict:
    """The acceptance "weak" fixture (coexistence case) with mu and T set."""
    return {
        "params": dict(d1=1.0, d2=1.0, k=0.5, h_comp=0.5, gamma=1.0, mu=mu, h0=2.0),
        "kernel_u": {"form": "uniform", "L0": 1.0},
        "kernel_v": {"form": "uniform", "L0": 1.0},
        "numerics": {"dx": 0.025, "dt": 0.02, "T": SPREAD_T, "snapshot_every": 0.5},
        "diagnostics": {"dt_halving": True},
        "output": {"directory": "out"},
    }


def spread_problems(outcome, ref: dict) -> list[str]:
    """Checks of one spread run; an empty list means it is correct."""
    rep = outcome.report
    problems = []
    if outcome.exit_code != 0:
        problems.append(f"exit code {outcome.exit_code}")
    if rep.get("regime") != "spreading":
        problems.append(f"regime {rep.get('regime')!r}")
    failing = [c["name"] for c in rep.get("theorem_checks", []) if not c["pass"]]
    if failing:
        problems.append(f"failed checks {failing}")
    clamps = rep.get("numerics_audit", {}).get("clamp_count")
    if clamps != 0:
        problems.append(f"clamp count {clamps}")
    for key in ("g_front", "h_front"):
        got = rep.get("fronts", {}).get(key)
        if got is None or abs(got - ref[key]) > FRONT_REL_TOL * abs(ref[key]):
            problems.append(f"{key} {got!r} differs from reference {ref[key]!r}")
    return problems


class Spread:
    name = "spread"
    why = ("one long coexistence run of the acceptance weak fixture (uniform kernels, "
           "dt halving on) whose window grows to 2881 nodes, past the n*m > 200000 "
           "convolution switch")
    loads = "simulator and kernels convolution and front flux at large n; the runner's dt-halving re-run"
    skips = "eigenvalue (spreading runs skip the eigensolve)"

    def __init__(self, seed: int, outroot: Path, reference: dict):
        rng = random.Random(seed)
        self.mu = SPREAD_MUS[rng.randrange(CANDIDATES)]
        self.ref = reference["spread"][repr(self.mu)]
        self.outroot = outroot
        self.first_digest = None
        self.setup()

    def setup(self):
        self.cfg = build_scenario(spread_mapping(self.mu))
        ku = kernels.validate_kernel(self.cfg.kernel_u, self.cfg.numerics.dx)
        kv = kernels.validate_kernel(self.cfg.kernel_v, self.cfg.numerics.dx)
        simulator.init_state(
            self.cfg.params, ku, kv, self.cfg.u_profile, self.cfg.v_profile,
            self.cfg.numerics.dx, self.cfg.numerics.window_pad,
        )

    def run_pass(self, index: int) -> PassResult:
        outdir = self.outroot / f"pass_{index:03d}"
        shutil.rmtree(outdir, ignore_errors=True)
        t0 = perf_counter()
        outcome = runner.run_scenario(self.cfg, outdir=outdir, check_theorems=True, write_files=True)
        seconds = perf_counter() - t0
        problems = spread_problems(outcome, self.ref)
        digest = output_digest(outdir)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("output files differ from the first pass of this invocation")
        shutil.rmtree(outdir, ignore_errors=True)
        return PassResult(
            seconds=seconds,
            op_seconds=[] if problems else [seconds],
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
            scenario_seconds=seconds,
        )


# -- sweep-mu ------------------------------------------------------------------

# Five log strata on the vanishing side and two on the spreading side.  The
# band (1.2, 12) between them is left out on purpose: it holds the
# threshold (near mu = 2.7 here), and at this horizon its cells end
# undecided or fail the spreading centre check, which would make the
# expected regime depend on the seed.
SWEEP_STRATA = (
    *((0.005 * 240.0 ** (i / 5), 0.005 * 240.0 ** ((i + 1) / 5), "vanishing") for i in range(5)),
    *((12.0 * (20.0 / 12.0) ** (i / 2), 12.0 * (20.0 / 12.0) ** ((i + 1) / 2), "spreading")
      for i in range(2)),
)
SWEEP_T = 30.0


def sweep_candidates(stratum) -> list[float]:
    lo, hi, _ = stratum
    return [float(f"{lo * (hi / lo) ** ((k + 0.5) / CANDIDATES):.6g}") for k in range(CANDIDATES)]


def sweep_mapping(mus: list[float]) -> dict:
    kernel = {"form": "truncated_gaussian", "sigma": 1.0, "L0": 2.0}
    return {
        "params": dict(d1=1.2, d2=1.0, k=0.5, h_comp=0.5, gamma=1.0, mu=1.0, h0=0.2),
        "kernel_u": dict(kernel),
        "kernel_v": dict(kernel),
        "numerics": {"dx": 0.05, "dt": 0.02, "T": SWEEP_T, "snapshot_every": 0.5},
        "output": {"directory": "out"},
        "sweep": {"cap": 64, "axis.params.mu": list(mus)},
    }


class SweepMu:
    name = "sweep-mu"
    why = ("a mu sweep through the CLI, one mu per log stratum, truncated-gaussian kernels; "
           "most steps run on windows of 100-220 nodes")
    loads = ("per-step Python overhead in simulator, plus config, runner, output and "
             "diagnostics; non-uniform kernel, so a uniform-only stencil shortcut does not apply")
    skips = "large-n convolution; the eigensolver sees only grids of about 18 nodes"

    def __init__(self, seed: int, outroot: Path, reference: dict):
        rng = random.Random(seed)
        self.mus = [sweep_candidates(s)[rng.randrange(CANDIDATES)] for s in SWEEP_STRATA]
        self.expected = [s[2] for s in SWEEP_STRATA]
        self.outroot = outroot
        outroot.mkdir(parents=True, exist_ok=True)
        self.config_path = outroot / "sweep.cfg"
        self.config_path.write_text(serialize_config_mapping(sweep_mapping(self.mus)))
        self.cell_marks: list[tuple[str, float]] = []
        self._install_cell_clock()
        self.setup()

    def setup(self):
        cfg = load_scenario(self.config_path)
        ku = kernels.validate_kernel(cfg.kernel_u, cfg.numerics.dx)
        kv = kernels.validate_kernel(cfg.kernel_v, cfg.numerics.dx)
        simulator.init_state(
            cfg.params, ku, kv, cfg.u_profile, cfg.v_profile,
            cfg.numerics.dx, cfg.numerics.window_pad,
        )

    def _install_cell_clock(self):
        """Two timestamps per cell: when the runner builds its scenario and
        when run_scenario returns.  jobs=1 keeps cells sequential."""
        build, run_scenario, marks = runner.build_scenario, runner.run_scenario, self.cell_marks

        def timed_build(*args, **kwargs):
            marks.append(("start", perf_counter()))
            return build(*args, **kwargs)

        def timed_run_scenario(*args, **kwargs):
            t0 = perf_counter()
            try:
                return run_scenario(*args, **kwargs)
            finally:
                end = perf_counter()
                marks.append(("scenario", end - t0))
                marks.append(("end", end))

        runner.build_scenario = timed_build
        runner.run_scenario = timed_run_scenario

    def run_pass(self, index: int) -> PassResult:
        outdir = self.outroot / f"pass_{index:03d}"
        shutil.rmtree(outdir, ignore_errors=True)
        self.cell_marks.clear()
        argv = ["sweep", "--config", str(self.config_path), "--out", str(outdir),
                "--jobs", "1", "--quiet"]
        t0 = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - t0

        starts = [t for kind, t in self.cell_marks if kind == "start"]
        ends = [t for kind, t in self.cell_marks if kind == "end"]
        scenario = sum(t for kind, t in self.cell_marks if kind == "scenario")
        cell_seconds = [e - s for s, e in zip(starts, ends)]

        problems = []
        rows = []
        if code != 0:
            problems.append(f"sweep exit code {code}")
        else:
            with open(outdir / "sweep.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        ok_cells = []
        for i, expected in enumerate(self.expected):
            row = rows[i] if i < len(rows) else None
            if row is None:
                problems.append(f"cell {i} missing")
            elif row["status"] != "ok" or row["regime"] != expected:
                problems.append(f"cell {i} (mu={self.mus[i]}): status {row['status']}, "
                                f"regime {row['regime']}, expected {expected}")
            else:
                ok_cells.append(i)
        shutil.rmtree(outdir, ignore_errors=True)
        return PassResult(
            seconds=seconds,
            op_seconds=[cell_seconds[i] for i in ok_cells if i < len(cell_seconds)],
            attempted=len(self.expected),
            failed=len(self.expected) - len(ok_cells),
            problems=problems,
            scenario_seconds=scenario,
        )


# -- spectra -------------------------------------------------------------------

SPECTRA_KERNELS = {
    "uniform": (kernels.KernelSpec.uniform(1.0), 1.0),
    "gaussian": (kernels.KernelSpec.truncated_gaussian(1.0, 2.0), 2.0),
}
SPECTRA_D1 = (0.5, 1.0, 2.0)
# Interval lengths in units of L0 at dx = L0/40.  Up to 14 the grid has
# fewer than DENSE_THRESHOLD (600) nodes and takes the dense path; 16 and
# 32 take power iteration.  0.3-0.9 are at most L0, where uniform kernels
# have the exact rank-one eigenvalue.
SPECTRA_RATIOS = (0.3, 0.6, 0.9, 2.0, 4.0, 8.0, 14.0, 16.0, 32.0)
# Intervals shorter than the uniform stencil (2001 cells) at dx = 0.001:
# 600 or more nodes, so power iteration, where the matvec raises a raw
# ValueError at the time the reference was recorded.
DEFECT_DX = 0.001
DEFECT_LENGTHS = (0.8, 1.5)
# Lengths move by at most 1% with the seed: dense solves cost O(n^3), and a
# wider jitter would make the solve-time percentiles depend on the seed.
JITTER = tuple(-0.01 + 0.02 * k / (CANDIDATES - 1) for k in range(CANDIDATES))
THETA_BATCH = 400


@dataclass(frozen=True)
class Solve:
    kernel: str
    d1: float
    dx: float
    length: float
    defect_stratum: bool

    @property
    def key(self) -> str:
        return f"{self.kernel}|{self.d1!r}|{self.dx!r}|{self.length!r}"


def spectra_candidates() -> list[Solve]:
    """Every solve any seed can draw, in stratum order."""
    out = []
    for name, (_, L0) in SPECTRA_KERNELS.items():
        for d1 in SPECTRA_D1:
            for ratio in SPECTRA_RATIOS:
                for j in JITTER:
                    out.append(Solve(name, d1, L0 / 40.0, round(ratio * L0 * (1 + j), 10), False))
            if name == "uniform":
                for base in DEFECT_LENGTHS:
                    for j in JITTER:
                        out.append(Solve(name, d1, DEFECT_DX, round(base * (1 + j), 10), True))
    return out


def theta_batch(rng: random.Random) -> list[ModelParams]:
    """Log-uniform tuples on [0.01, 100] with d1 + k > 1, as in the acceptance suite."""
    batch = []
    while len(batch) < THETA_BATCH:
        g, h, k, d1, d2 = (10.0 ** rng.uniform(-2.0, 2.0) for _ in range(5))
        if d1 + k - 1.0 > 0.0:
            batch.append(ModelParams(d1=d1, d2=d2, k=k, h_comp=h, gamma=g, mu=1.0, h0=1.0))
    return batch


def solve_problems(solve: Solve, res, reference: dict) -> list[str]:
    lam = res.lambda_p
    problems = []
    if not -solve.d1 < lam < 0.0:
        problems.append(f"lambda {lam!r} outside (-d1, 0)")
    if not res.residual <= RESIDUAL_MAX:
        problems.append(f"residual {res.residual:.3e}")
    L0 = SPECTRA_KERNELS[solve.kernel][1]
    if solve.kernel == "uniform" and solve.length <= L0:
        exact = solve.d1 * (solve.length / (2.0 * L0) - 1.0)
        if abs(lam - exact) > ORACLE_TOL:
            problems.append(f"lambda {lam!r} misses the rank-one value {exact!r}")
    ref = reference.get(solve.key)
    if isinstance(ref, float) and abs(lam - ref) > REFERENCE_TOL:
        problems.append(f"lambda {lam!r} differs from reference {ref!r}")
    return problems


class Spectra:
    name = "spectra"
    why = ("interval eigenvalues for uniform and gaussian kernels, d1 in {0.5, 1, 2}, lengths on "
           "both sides of the 600-node dense threshold, plus a batch of theta classifications")
    loads = "eigenvalue (dense and power paths), kernels.grid_stencil, dynamics.theta_classify"
    skips = "simulator, runner, output"

    def __init__(self, seed: int, outroot: Path, reference: dict):
        rng = random.Random(seed)
        self.reference = reference["spectra"]
        # spectra_candidates lists each stratum's candidates consecutively
        candidates = spectra_candidates()
        self.solves = [candidates[i + rng.randrange(CANDIDATES)]
                       for i in range(0, len(candidates), CANDIDATES)]
        self.thetas = theta_batch(rng)
        self.setup()

    def setup(self):
        self.kernels = {}
        for name, (spec, L0) in SPECTRA_KERNELS.items():
            self.kernels[name] = kernels.validate_kernel(spec, L0 / 40.0)

    def run_pass(self, index: int) -> PassResult:
        result = PassResult(seconds=0.0)
        lambdas: dict[tuple, list] = {}
        t_pass = perf_counter()
        for solve in self.solves:
            result.attempted += 1
            t0 = perf_counter()
            try:
                res = eigenvalue.principal_eigenvalue(
                    self.kernels[solve.kernel], solve.d1, (0.0, solve.length), solve.dx
                )
            except ValueError as exc:
                result.failed += 1
                if solve.defect_stratum:
                    result.known_failures += 1
                else:
                    result.problems.append(f"{solve.key}: {type(exc).__name__}: {exc}")
                continue
            except Exception as exc:  # any other failure is unexpected
                result.failed += 1
                result.problems.append(f"{solve.key}: {type(exc).__name__}: {exc}")
                continue
            elapsed = perf_counter() - t0
            problems = solve_problems(solve, res, self.reference)
            if problems:
                result.failed += 1
                result.problems.append(f"{solve.key}: " + "; ".join(problems))
            else:
                result.op_seconds.append(elapsed)
                lambdas.setdefault((solve.kernel, solve.d1, solve.dx), []).append(
                    (solve.length, res.lambda_p))

        result.attempted += 1  # the theta batch is one operation
        bad = 0
        for params in self.thetas:
            rep = dynamics.theta_classify(params)
            if rep.verdict_roots != rep.verdict_closed_form or (
                rep.sufficient_condition_hit is not None and rep.verdict_roots != THETA1
            ):
                bad += 1
        result.seconds = perf_counter() - t_pass
        if bad:
            result.failed += 1
            result.problems.append(f"theta batch: {bad} of {len(self.thetas)} tuples disagree")

        for group, pairs in lambdas.items():
            pairs.sort()
            if any(b[1] <= a[1] for a, b in zip(pairs, pairs[1:])):
                result.problems.append(f"{group}: eigenvalue not strictly increasing in length")
                result.failed += 1
        return result


WORKLOADS = {cls.name: cls for cls in (Spread, SweepMu, Spectra)}


def percentile_tail(samples: list[float]) -> tuple[float, str]:
    """The highest whole percentile with at least ten samples above it.

    Returns (value, label).  Below 20 samples no percentile at or above the
    median qualifies, and the maximum is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    for q in range(99, 49, -1):
        value = quantile(xs, q / 100.0)
        if sum(1 for x in xs if x > value) >= 10:
            return value, f"p{q} of {n} samples"
    return xs[-1], f"max of {n} samples (fewer than ten beyond any percentile >= p50)"


def quantile(sorted_xs: list[float], p: float) -> float:
    """Linear-interpolation quantile of sorted data (numpy's default)."""
    pos = p * (len(sorted_xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (pos - lo) * (sorted_xs[hi] - sorted_xs[lo])
