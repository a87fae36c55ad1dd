"""Spans around calls into the nlinvade modules, recorded from outside.

The tracer replaces the names each caller resolves (``simulator.step``,
``runner.run``, ``diagnostics.principal_eigenvalue``, ...) with wrappers
that record a span: name, start, end, parent span and a few facts about
the call (node count, stencil length, eigensolver method, bytes written).
The inline ``np.convolve`` in ``simulator.step`` is reached through a
forwarding stand-in for ``simulator.np`` whose ``convolve`` is wrapped.
Spans stay in memory; ``per_layer`` turns one pass's spans into the
per-layer metrics, where a span's self time is its duration minus the
durations of its direct children.

Wrappers are installed only around traced passes, so untraced passes run
the program's own functions.
"""

from __future__ import annotations

import os
import types
from time import perf_counter_ns

import numpy as np

from nlinvade import cli, config, diagnostics, dynamics, eigenvalue, runner, simulator

DENSE_THRESHOLD = eigenvalue.DENSE_THRESHOLD
WRITERS = ("write_timeseries_csv", "write_snapshot", "write_report_json",
           "write_profile_svg", "write_sweep_csv")


def _nodes_of_state(args, kwargs, result):
    return args[0].u.size


def _conv_sizes(args, kwargs, result):
    return (np.size(args[0]), np.size(args[1]))


def _grid_convolve_sizes(args, kwargs, result):
    return (args[0].size, args[1].masses.size)


def _run_final(args, kwargs, result):
    s = result.final_state
    return (s.u.size, s.window_growths, s.clamp_count)


def _eigen_result(args, kwargs, result):
    return (result.nodes.size, result.method, result.iterations, result.residual)


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, attribute, span name, describe(args, kwargs, result) or None)
TARGETS = [
    (simulator, "step", "simulator.step", _nodes_of_state),
    (simulator, "front_speeds", "simulator.front_speeds", None),
    (simulator, "grid_convolve", "kernels.grid_convolve", _grid_convolve_sizes),
    (simulator, "cell_weights", "kernels.cell_weights", None),
    (simulator, "oaconvolve", "simulator.oaconvolve", _conv_sizes),
    (simulator, "integrate_u", "simulator.integrate_u", None),
    (simulator, "v_deviation", "simulator.v_deviation", None),
    (simulator, "grid_stencil", "kernels.grid_stencil", None),
    (eigenvalue, "grid_stencil", "kernels.grid_stencil", None),
    (eigenvalue, "principal_eigenvalue", "eigenvalue.principal_eigenvalue", _eigen_result),
    (diagnostics, "principal_eigenvalue", "eigenvalue.principal_eigenvalue", _eigen_result),
    (dynamics, "theta_classify", "dynamics.theta_classify", None),
    (runner, "theta_classify", "dynamics.theta_classify", None),
    (diagnostics, "theta_classify", "dynamics.theta_classify", None),
    (runner, "validate_kernel", "kernels.validate_kernel", None),
    (config, "validate_kernel", "kernels.validate_kernel", None),
    (runner, "init_state", "simulator.init_state", None),
    (runner, "run", "simulator.run", _run_final),
    (runner, "detect_regime", "diagnostics.detect_regime", None),
    (runner, "verify_theorems", "diagnostics.verify_theorems", None),
    (runner, "run_scenario", "runner.run_scenario", None),
    (runner, "build_scenario", "config.build_scenario", None),
    (cli, "load_scenario", "config.load_scenario", None),
    (cli, "sweep", "runner.sweep", None),
    (cli, "main", "cli.main", None),
    *((runner, w, "output.write", _written_bytes) for w in WRITERS),
]


# Unit of every per-layer metric.  Times are seconds per traced pass;
# "computed_*" values follow from array sizes, not from a measurement.
LAYER_UNITS = {
    "simulator.steps": "count",
    "simulator.node_steps": "count",
    "simulator.nodes_final": "count",
    "simulator.window_growths": "count",
    "simulator.clamps": "count",
    "simulator.init_s": "s",
    "simulator.step_s": "s",
    "simulator.step_self_s": "s",
    "simulator.step_ns_per_node_step": "ns",
    "simulator.front_flux_s": "s",
    "simulator.convolve_v_s": "s",
    "simulator.convolve_v_oa_calls": "count",
    "simulator.convolve_v_madds": "computed_madd",
    "simulator.record_s": "s",
    "kernels.validate_s": "s",
    "kernels.stencil_s": "s",
    "kernels.convolve_u_s": "s",
    "kernels.convolve_u_ns_per_node": "ns",
    "kernels.convolve_u_madds": "computed_madd",
    "kernels.convolve_u_bytes": "computed_bytes",
    "kernels.cell_weights_s": "s",
    "kernels.cell_weights_calls": "count",
    "eigenvalue.solves": "count",
    "eigenvalue.failures": "count",
    "eigenvalue.dense_solves": "count",
    "eigenvalue.power_solves": "count",
    "eigenvalue.power_iterations": "count",
    "eigenvalue.solve_s_small": "s",
    "eigenvalue.solve_s_large": "s",
    "eigenvalue.max_residual": "residual",
    "dynamics.theta_calls": "count",
    "dynamics.theta_us_per_call": "us",
    "diagnostics.detect_s": "s",
    "diagnostics.verify_self_s": "s",
    "runner.scenario_self_s": "s",
    "runner.halving_run_s": "s",
    "runner.cell_failures": "count",
    "config.load_s": "s",
    "config.cells_built": "count",
    "cli.self_s": "s",
    "output.write_s": "s",
    "output.files": "count",
    "output.bytes": "bytes",
    "trace.overhead_frac": "fraction",
}


class Tracer:
    """Records spans as (name, start_ns, end_ns, parent index, facts)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name, describe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                facts = None
                if describe is not None:
                    try:
                        facts = describe(args, kwargs, result)
                    except (AttributeError, IndexError, TypeError, OSError):
                        facts = None  # the call raised, so there is no result to describe
                spans[idx] = (name, t0, t1, parent, facts)

        return traced

    def install(self):
        """Wrap every target and the stand-in numpy of the simulator."""
        self.spans.clear()
        for module, attr, name, describe in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, describe))
        stand_in = types.ModuleType("numpy")
        stand_in.__dict__.update(np.__dict__)
        stand_in.convolve = self._wrap(np.convolve, "simulator.np_convolve", _conv_sizes)
        self._saved.append((simulator, "np", simulator.np))
        simulator.np = stand_in

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def per_layer(spans: list, failed_cells: int) -> dict:
    """Per-layer metrics of one traced pass (times in seconds)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_ns = [0] * n
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_ns[s[3]] += dur[i]
            children.setdefault(s[3], []).append(i)

    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    described: dict[str, list] = {}
    for i, s in enumerate(spans):
        total[s[0]] = total.get(s[0], 0) + dur[i] * 1e-9
        self_s[s[0]] = self_s.get(s[0], 0) + (dur[i] - child_ns[i]) * 1e-9
        count[s[0]] = count.get(s[0], 0) + 1
        if s[4] is not None:
            described.setdefault(s[0], []).append((s[4], dur[i]))

    def facts(name):
        return [f for f, _ in described.get(name, [])]

    def t(name):
        return total.get(name, 0.0)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    node_steps = sum(facts("simulator.step"))
    runs = facts("simulator.run")
    conv_u = facts("kernels.grid_convolve")
    conv_u_nodes = sum(nn for nn, _ in conv_u)
    conv_v = facts("simulator.np_convolve") + facts("simulator.oaconvolve")
    eig_timed = described.get("eigenvalue.principal_eigenvalue", [])
    eig = [e for e, _ in eig_timed]
    halving = 0.0
    for i, s in enumerate(spans):
        if s[0] == "runner.run_scenario":
            runs_here = [c for c in children.get(i, []) if spans[c][0] == "simulator.run"]
            halving += sum(dur[c] for c in runs_here[1:]) * 1e-9
    theta_n = count.get("dynamics.theta_classify", 0)

    return {
        "simulator.steps": count.get("simulator.step", 0),
        "simulator.node_steps": node_steps,
        "simulator.nodes_final": max((r[0] for r in runs), default=0),
        "simulator.window_growths": sum(r[1] for r in runs),
        "simulator.clamps": sum(r[2] for r in runs),
        "simulator.init_s": t("simulator.init_state"),
        "simulator.step_s": t("simulator.step"),
        "simulator.step_self_s": self_s.get("simulator.step", 0.0),
        "simulator.step_ns_per_node_step": ratio(t("simulator.step"), node_steps, 1e9),
        "simulator.front_flux_s": t("simulator.front_speeds"),
        "simulator.convolve_v_s": t("simulator.np_convolve") + t("simulator.oaconvolve"),
        "simulator.convolve_v_oa_calls": count.get("simulator.oaconvolve", 0),
        # computed from array sizes: valid-mode output (n - m + 1) times m
        "simulator.convolve_v_madds": sum((nn - m + 1) * m for nn, m in conv_v),
        "simulator.record_s": t("simulator.integrate_u") + t("simulator.v_deviation"),
        "kernels.validate_s": t("kernels.validate_kernel"),
        "kernels.stencil_s": t("kernels.grid_stencil"),
        "kernels.convolve_u_s": t("kernels.grid_convolve"),
        "kernels.convolve_u_ns_per_node": ratio(t("kernels.grid_convolve"), conv_u_nodes, 1e9),
        # computed from array sizes: same-mode output n times m, and
        # 8 bytes per float64 read (input, stencil) or written (output)
        "kernels.convolve_u_madds": sum(nn * m for nn, m in conv_u),
        "kernels.convolve_u_bytes": sum(8 * (2 * nn + m) for nn, m in conv_u),
        "kernels.cell_weights_s": t("kernels.cell_weights"),
        "kernels.cell_weights_calls": count.get("kernels.cell_weights", 0),
        "eigenvalue.solves": len(eig),
        "eigenvalue.failures": count.get("eigenvalue.principal_eigenvalue", 0) - len(eig),
        "eigenvalue.dense_solves": sum(1 for e in eig if e[1] == "dense"),
        "eigenvalue.power_solves": sum(1 for e in eig if e[1] == "power"),
        "eigenvalue.power_iterations": sum(e[2] for e in eig),
        "eigenvalue.solve_s_small": sum(d for e, d in eig_timed if e[0] < DENSE_THRESHOLD) * 1e-9,
        "eigenvalue.solve_s_large": sum(d for e, d in eig_timed if e[0] >= DENSE_THRESHOLD) * 1e-9,
        "eigenvalue.max_residual": max((e[3] for e in eig), default=0.0),
        "dynamics.theta_calls": theta_n,
        "dynamics.theta_us_per_call": ratio(t("dynamics.theta_classify"), theta_n, 1e6),
        "diagnostics.detect_s": t("diagnostics.detect_regime"),
        "diagnostics.verify_self_s": self_s.get("diagnostics.verify_theorems", 0.0),
        "runner.scenario_self_s": self_s.get("runner.run_scenario", 0.0),
        "runner.halving_run_s": halving,
        "runner.cell_failures": failed_cells,
        "config.load_s": t("config.load_scenario") + t("config.build_scenario"),
        "config.cells_built": count.get("config.build_scenario", 0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "output.write_s": t("output.write"),
        "output.files": count.get("output.write", 0),
        "output.bytes": sum(facts("output.write")),
    }
