"""nlinvade benchmark: one workload, measured for a fixed time, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload {spread,sweep-mu,spectra} --seed N \
        --seconds S --trace {0,1}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from a traced run.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The package is imported from ./src of the checkout
this file sits in; without it the benchmark exits with code 2 and prints
no result.  Scratch output goes to .bench_out/ and is removed as passes
finish, apart from the run record and, for a traced run, the spans of
its last traced pass.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: with the default thread count an
# occasional dense eigensolve stalls for about a second.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median
CALIBRATIONS = 3  # calibration-kernel runs before each probe and pass, and at the end
MIN_PASSES = 3  # timed passes, whatever --seconds says
EXIT_NO_PROGRAM = 2
EXIT_SETUP_FAILED = 3


def import_program():
    """Import nlinvade from this checkout's src/, or exit without a result."""
    if not (SRC / "nlinvade" / "__init__.py").is_file():
        print(f"benchmark: no nlinvade package under {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import nlinvade

    if Path(nlinvade.__file__).resolve().parent != (SRC / "nlinvade").resolve():
        print(f"benchmark: imported nlinvade from {nlinvade.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PROGRAM)


def blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import hashlib
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append({f: (index / f).read_text().strip() for f in ("level", "type", "size")})
        except OSError:
            pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "nlinvade").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_runtime": blas_runtime_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports and builds the workload."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        print(f"benchmark: set-up probe exited with {done.returncode}", file=sys.stderr)
        raise SystemExit(EXIT_SETUP_FAILED)
    return elapsed


def count_node_steps(wl, index: int):
    """One pass with a counter on simulator.step; returns (result, node-steps)."""
    from nlinvade import simulator

    step = simulator.step
    total = [0]

    def counting_step(state, dt):
        total[0] += state.u.size
        return step(state, dt)

    simulator.step = counting_step
    try:
        return wl.run_pass(index), total[0]
    finally:
        simulator.step = step


def enough(passes: list, started: float, seconds: float) -> bool:
    if len(passes) < MIN_PASSES:
        return False
    estimate = statistics.median(p.seconds for p in passes)
    return perf_counter() - started + estimate > seconds


def untraced(wl, workload: str, seed: int, seconds: float):
    """End-to-end metrics.  Each set-up probe and pass is timed between two
    calibration slots and scaled by their mean (see calibration.py)."""
    from calibration import REFERENCE_SECONDS, kernel_seconds
    from workloads import percentile_tail

    def calibrate(slots):
        slots.append([kernel_seconds() for _ in range(CALIBRATIONS)])

    def factors(slots):
        """Scale factor of the i-th timing, which lies between slots i and i+1."""
        return [REFERENCE_SECONDS / statistics.mean(a + b) for a, b in zip(slots, slots[1:])]

    probe_slots, setup = [], []
    for _ in range(SETUP_PROBES):
        calibrate(probe_slots)
        setup.append(probe_setup(workload, seed))
    calibrate(probe_slots)
    warm, node_steps = count_node_steps(wl, 0)
    pass_slots, passes, cpu = [], [], []
    started = perf_counter()
    while not enough(passes, started, seconds):
        calibrate(pass_slots)
        c0 = process_time()
        passes.append(wl.run_pass(len(passes) + 1))
        cpu.append(process_time() - c0)
    calibrate(pass_slots)
    setup_f, pass_f = factors(probe_slots), factors(pass_slots)

    # Node-steps per second inside run_scenario (zero where nothing simulates).
    per_pass_steps = [node_steps / p.scenario_seconds if p.scenario_seconds else 0.0
                      for p in passes]
    if wl.name == "spread":
        rates = per_pass_steps
    else:
        rates = [len(p.op_seconds) / p.seconds for p in passes]
    samples = [s for p in passes for s in p.op_seconds]
    scaled_samples = [s * f for p, f in zip(passes, pass_f) for s in p.op_seconds]
    everything = [warm, *passes]
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)

    def summary(setup_s, pass_s, rate, ops):
        # No samples means every operation failed, and the run reports correct: false.
        tail, label = percentile_tail(ops) if ops else (0.0, "no samples")
        return {
            "setup_s": (statistics.median(setup_s), "s"),
            "run_s": (statistics.median(pass_s), "s"),
            "ops_per_s": (statistics.median(rate), "1/s"),
            "op_s_p50": (statistics.median(ops) if ops else 0.0, "s"),
            "op_s_ptail": (tail, "s"),
        }, label

    raw, tail_label = summary(setup, [p.seconds for p in passes], rates, samples)
    metrics, tail_label = summary(
        [t * f for t, f in zip(setup, setup_f)],
        [p.seconds * f for p, f in zip(passes, pass_f)],
        [r / f for r, f in zip(rates, pass_f)],
        scaled_samples,
    )
    metrics["ok_frac"] = (1.0 - failed / attempted, "fraction")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    notes = {
        "calibration_slots": {"setup": probe_slots, "passes": pass_slots},
        "wall": {k: v for k, (v, _) in raw.items()},
        "passes": len(passes),
        "op_samples": len(samples),
        "op_s_ptail": tail_label,
        "node_steps_per_pass": node_steps,
        "setup_probes": setup,
        "pass_seconds": [p.seconds for p in passes],
        "pass_cpu_seconds": cpu,
    }

    # Unscaled wall-clock figures, and the same figures under their
    # per-workload names.
    aliases = {f"wall_{k}": v for k, v in raw.items()}
    aliases["fail_frac"] = (failed / attempted, "fraction")
    if wl.name in ("spread", "sweep-mu"):
        aliases["node_steps_per_s"] = (
            statistics.median(r / f for r, f in zip(per_pass_steps, pass_f)), "1/s")
    unit, op = {"sweep-mu": ("cells", "cell"), "spectra": ("solves", "solve")}.get(wl.name, (None, None))
    if unit:
        aliases[f"{unit}_per_s"] = metrics["ops_per_s"]
        aliases[f"{op}_s_p50"] = metrics["op_s_p50"]
        aliases[f"{op}_s_ptail"] = (metrics["op_s_ptail"][0], f"s, {tail_label}")
    if wl.name == "spectra":
        solves = sum(p.attempted - 1 for p in everything)  # minus the theta batch
        known = sum(p.known_failures for p in everything)
        aliases["defect_share_of_solves"] = (known / solves, f"fraction, {known} of {solves}")
    return everything, metrics, notes, aliases


def traced(wl, seconds: float, outdir: Path):
    from tracer import Tracer, per_layer

    tracer = Tracer()
    warm = wl.run_pass(0)
    plain, with_trace, layers = [], [], []
    last_spans = []
    started = perf_counter()
    while not (plain and with_trace and enough(plain + with_trace, started, seconds)):
        index = len(plain) + len(with_trace) + 1
        if len(plain) <= len(with_trace):
            plain.append(wl.run_pass(index))
            continue
        tracer.install()
        try:
            result = wl.run_pass(index)
        finally:
            tracer.uninstall()
        with_trace.append(result)
        cell_failures = result.failed if wl.name in ("spread", "sweep-mu") else 0
        layers.append(per_layer(tracer.spans, cell_failures))
        last_spans = list(tracer.spans)

    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        if key in ("eigenvalue.max_residual", "simulator.nodes_final"):
            metrics[key] = max(values)
        else:
            metrics[key] = sum(values) / len(values)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.seconds for p in with_trace)
        / statistics.median(p.seconds for p in plain) - 1.0
    )
    with open(outdir / "spans.csv", "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent\n")
        for i, (name, t0, t1, parent, _) in enumerate(last_spans):
            fh.write(f"{i},{name},{t0},{t1},{parent}\n")
    notes = {"plain_passes": len(plain), "traced_passes": len(with_trace),
             "plain_seconds": [p.seconds for p in plain],
             "traced_seconds": [p.seconds for p in with_trace]}
    return [warm, *plain, *with_trace], metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nlinvade benchmark")
    ap.add_argument("--workload", required=True, choices=["spread", "sweep-mu", "spectra"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH))
    import workloads
    from tracer import LAYER_UNITS

    outdir = ROOT / ".bench_out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    wl = workloads.WORKLOADS[args.workload](args.seed, outdir, workloads.load_reference())

    print(f"workload {wl.name}: {wl.why}")
    print(f"  loads: {wl.loads}")
    print(f"  should not load: {wl.skips}")
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        passes, values, notes = traced(wl, args.seconds, outdir)
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
        for key, item in metrics.items():
            print(f"  {key} = {item['value']:.6g} {item['unit']}")
    else:
        passes, values, notes, aliases = untraced(wl, args.workload, args.seed, args.seconds)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        for key, (value, unit) in values.items():
            label = f"  ({notes['op_s_ptail']})" if key == "op_s_ptail" else ""
            print(f"  {key} = {value:.6g} {unit}{label}")
        for key, (value, unit) in aliases.items():
            print(f"  {key} = {value:.6g} {unit}")

    problems = [msg for p in passes for msg in p.problems]
    for msg in problems:
        print(f"  FAILED: {msg}")
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    (outdir / "run.json").write_text(json.dumps(
        {"args": vars(args), "environment": env, "notes": notes, "result": result},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
