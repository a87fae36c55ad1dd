"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion.  The three long-horizon field runs take a few minutes in total;
everything else is seconds.
"""

import numpy as np
import pytest

from nlinvade.config import build_scenario
from nlinvade.dynamics import (
    THETA1,
    THETA2,
    GeneralParams,
    ModelParams,
    ode_trajectory,
    theta_classify,
)
from nlinvade.eigenvalue import principal_eigenvalue
from nlinvade.kernels import KernelSpec, validate_kernel
from nlinvade.runner import run_scenario
from nlinvade.simulator import Profile, init_state, run

from model_support import attractor_bounds, reduce_general

UNIFORM = validate_kernel(KernelSpec.uniform(1.0), 0.025)
GAUSS = validate_kernel(KernelSpec.truncated_gaussian(1.0, 2.0), 0.05)


def report(name: str, ok: bool, detail: str = ""):
    print(f"acceptance[{name}]: {'PASS' if ok else 'FAIL'}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def base_mapping(**params):
    p = dict(d1=1.0, d2=1.0, k=0.5, h_comp=0.5, gamma=1.0, mu=5.0, h0=2.0)
    p.update(params)
    return {
        "params": p,
        "kernel_u": {"form": "uniform", "L0": 1.0},
        "kernel_v": {"form": "uniform", "L0": 1.0},
        "numerics": {"dx": 0.025, "dt": 0.02, "T": 400.0, "snapshot_every": 0.5},
        "diagnostics": {"dt_halving": True},
        "output": {"directory": "out"},
    }


@pytest.fixture(scope="module")
def weak_run():
    cfg = build_scenario(base_mapping())
    return cfg, run_scenario(cfg, check_theorems=True, write_files=False)


@pytest.fixture(scope="module")
def exclusion_run():
    # dt = 0.02 violates the stability bound once h_comp = 2 (bound 0.019),
    # so this scenario runs at dt = 0.015; all other numerics unchanged.
    mapping = base_mapping(h_comp=2.0)
    mapping["numerics"]["dt"] = 0.015
    cfg = build_scenario(mapping)
    return cfg, run_scenario(cfg, check_theorems=True, write_files=False)


@pytest.fixture(scope="module")
def vanishing_run():
    # Searches mu downward by factor 2 until a vanishing run is found.
    mu = 0.05
    for _ in range(8):
        mapping = base_mapping(d1=1.2, mu=mu, h0=0.2)
        cfg = build_scenario(mapping)
        outcome = run_scenario(cfg, check_theorems=True, write_files=False)
        if outcome.report["regime"] == "vanishing":
            return cfg, outcome, mu
        mu /= 2.0
    raise AssertionError("no vanishing run found down to mu = 0.05/2^7")


@pytest.fixture(scope="module")
def twin_run():
    gp = GeneralParams(D1=2.0, D2=2.0, a1=2.0, b1=0.5, c1=0.5, a2=1.0, b2=1.0,
                       c2=0.4, mu_hat=2.0, H0=1.0)
    params, tr = reduce_general(gp)
    dx = 0.05
    T_general, dt_general, every_general = 15.0, 0.01, 2.5
    general = run(
        init_state(gp, UNIFORM, UNIFORM, Profile.cosine(1.0), Profile.constant(1.0), dx, 3.0),
        T_general, dt_general, every_general, profile_every=every_general,
    )
    reduced = run(
        init_state(params, UNIFORM, UNIFORM, Profile.cosine(tr.u_scale), Profile.constant(tr.v_scale), dx, 3.0),
        tr.time_scale * T_general, tr.time_scale * dt_general, tr.time_scale * every_general,
        profile_every=tr.time_scale * every_general,
    )

    # The reduced twin again, scenario-style, for the structural audits.
    mapping = {
        "params": dict(d1=params.d1, d2=params.d2, k=params.k, h_comp=params.h_comp,
                       gamma=params.gamma, mu=params.mu, h0=params.h0),
        "kernel_u": {"form": "uniform", "L0": 1.0},
        "kernel_v": {"form": "uniform", "L0": 1.0},
        "initial": {"u_max": tr.u_scale},
        "numerics": {"dx": dx, "dt": tr.time_scale * dt_general,
                     "T": tr.time_scale * T_general, "snapshot_every": 1.0},
        "diagnostics": {"dt_halving": True},
        "output": {"directory": "out"},
    }
    audited = run_scenario(build_scenario(mapping), check_theorems=False, write_files=False)
    return gp, params, tr, general, reduced, audited


class TestEigenvalueSuite:
    def test_length_monotonicity_and_limits(self):
        lengths = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        ok, notes = True, []
        for kernel, L0, name in [(UNIFORM, 1.0, "uniform"), (GAUSS, 2.0, "gaussian")]:
            dx = L0 / 40.0
            for d1 in (0.5, 1.0, 2.0):
                vals = [principal_eigenvalue(kernel, d1, (0.0, l), dx).lambda_p for l in lengths]
                if not np.all(np.diff(vals) > 0):
                    ok, _ = False, notes.append(f"{name} d1={d1} not strictly increasing")
                small = principal_eigenvalue(kernel, d1, (0.0, 1e-3), dx).lambda_p
                if name == "uniform":  # rank one at l = 1e-3: d1 * (l / (2 L0) - 1) -> -d1
                    err, tol = abs(small - d1 * (1e-3 / (2.0 * L0) - 1.0)), 1e-12 * d1
                else:
                    err, tol = abs(small + d1), 1e-3
                if err > tol:
                    ok, _ = False, notes.append(f"{name} d1={d1} small-l limit off by {err:.2e}")
                big = principal_eigenvalue(kernel, d1, (0.0, 64.0), dx).lambda_p
                if not big > -0.06 * d1:
                    ok, _ = False, notes.append(f"{name} d1={d1} l=64 value {big:.2e}")
                for l in lengths:
                    shifted = principal_eigenvalue(kernel, d1, (5.0, 5.0 + l), dx).lambda_p
                    origin = principal_eigenvalue(kernel, d1, (0.0, l), dx).lambda_p
                    if shifted != origin:
                        ok, _ = False, notes.append(f"{name} d1={d1} l={l} translation not bitwise")
        report("eigen_monotone_limits_translation", ok, "; ".join(notes) or
               "strict increase, end limits, bitwise translation, both kernels x 3 diffusivities")

    def test_rank_one_oracle(self):
        res = principal_eigenvalue(UNIFORM, 1.0, (0.0, 1.0), 0.025)
        err = abs(res.lambda_p - (-0.5))
        report("eigen_rank_one_constant_kernel", err <= 1e-10,
               f"lambda_p={res.lambda_p!r}, analytic -0.5, |err|={err:.2e}")


class TestThetaSuite:
    def test_bulk_agreement(self):
        rng = np.random.default_rng(20250808)
        checked = 0
        ok = True
        note = ""
        while checked < 10_000:
            g, h, k, d1, d2 = 10.0 ** rng.uniform(-2.0, 2.0, size=5)
            if d1 + k - 1.0 <= 0.0:
                continue
            rep = theta_classify(ModelParams(d1=d1, d2=d2, k=k, h_comp=h, gamma=g, mu=1.0, h0=1.0))
            if rep.verdict_roots != rep.verdict_closed_form:
                ok, note = False, f"verdict mismatch at {(g, h, k, d1, d2)}"
                break
            if rep.sufficient_condition_hit is not None and rep.verdict_roots != THETA1:
                ok, note = False, f"sufficient condition unsound at {(g, h, k, d1, d2)}"
                break
            checked += 1
        report("theta_root_vs_closed_form_10k", ok, note or f"{checked} tuples, verdicts identical")

    def test_worked_tuple(self):
        rep = theta_classify(ModelParams(d1=0.1, d2=0.05, k=2.0, h_comp=2.0, gamma=1.0, mu=1.0, h0=1.0))
        roots = rep.roots_in_unit_interval
        ok = (
            rep.verdict_roots == THETA2
            and len(roots) == 2
            and abs(roots[0] - 0.8) <= 1e-9
            and abs(roots[1] - 11.0 / 12.0) <= 1e-9
            and abs(rep.x_star - 0.8) <= 1e-9
        )
        report("theta_worked_tuple", ok, f"roots={roots}, x_star={rep.x_star}")


class TestOdeSuite:
    CASES = [
        ("weak_interior", dict(k=0.5, h_comp=0.5), (0.1, 0.1), 200.0, (2 / 3, 2 / 3)),
        ("weak_from_near_origin", dict(k=0.5, h_comp=0.5), (0.01, 0.01), 250.0, (2 / 3, 2 / 3)),
        ("u_strong", dict(k=0.5, h_comp=2.0), (0.1, 0.9), 300.0, (1.0, 0.0)),
        ("v_strong", dict(k=2.0, h_comp=0.5), (0.9, 0.1), 300.0, (0.0, 1.0)),
        ("strong_u_side", dict(k=2.0, h_comp=2.0), (0.9, 0.4), 300.0, (1.0, 0.0)),
        ("strong_v_side", dict(k=2.0, h_comp=2.0), (0.4, 0.9), 300.0, (0.0, 1.0)),
    ]

    def test_case_suite(self):
        worst = 0.0
        for name, kw, init, T, target in self.CASES:
            p = ModelParams(d1=1.0, d2=1.0, gamma=1.0, mu=1.0, h0=1.0, **kw)
            final = ode_trajectory(p, init, T, 0.01).final
            err = max(abs(final[0] - target[0]), abs(final[1] - target[1]))
            worst = max(worst, err)
            assert err <= 1e-6, f"{name}: final {final} vs {target} (err {err:.2e})"
        report("ode_competition_cases", True, f"6 trajectories, worst error {worst:.2e} <= 1e-6")


class TestBoundIteration:
    def test_weak_limits(self):
        it = attractor_bounds(0.5, 0.5, 60)
        err = max(abs(it.lower_u[-1] - 2 / 3), abs(it.upper_v[-1] - 2 / 3))
        ok = it.outcome == "coexistence_limits" and err <= 1e-10
        report("bound_iteration_coexistence", ok, f"limits error {err:.2e} by j=60")

    def test_dominance(self):
        it = attractor_bounds(0.5, 2.0, 60)
        ok = it.outcome == "u_dominance" and it.dominance_step == 1
        report("bound_iteration_dominance", ok, f"dominance at j={it.dominance_step}")


class TestSpreadingRuns:
    def test_weak_coexistence(self, weak_run):
        cfg, outcome = weak_run
        final = outcome.result.final_state
        series = outcome.result.series
        i0 = int(np.argmin(np.abs(final.x)))
        du = abs(final.u[i0] - 2 / 3)
        dv = abs(final.v[i0] - 2 / 3)
        checks = {c["name"]: c for c in outcome.report["theorem_checks"]}
        ok = (
            outcome.report["regime"] == "spreading"
            and outcome.exit_code == 0
            and checks["spreading_center_limit"]["pass"]
            and checks["spreading_fronts_diverge"]["pass"]
            and bool(np.all(np.diff(series.h_front) >= 0.0))
            and bool(np.all(np.diff(series.g_front) <= 0.0))
            and du <= 1e-2
            and dv <= 1e-2
        )
        report("spreading_weak_coexistence", ok,
               f"regime={outcome.report['regime']}, center offsets ({du:.2e}, {dv:.2e})")

    def test_exclusion(self, exclusion_run):
        cfg, outcome = exclusion_run
        final = outcome.result.final_state
        i0 = int(np.argmin(np.abs(final.x)))
        du = abs(final.u[i0] - 1.0)
        dv = abs(final.v[i0] - 0.0)
        checks = {c["name"]: c for c in outcome.report["theorem_checks"]}
        ok = (
            outcome.report["regime"] == "spreading"
            and outcome.exit_code == 0
            and checks["spreading_center_limit"]["details"]["target_kind"] == "exclusion"
            and du <= 1e-2
            and dv <= 1e-2
        )
        report("spreading_exclusion", ok,
               f"regime={outcome.report['regime']}, center offsets ({du:.2e}, {dv:.2e})")


class TestVanishingRun:
    def test_consistency(self, vanishing_run):
        cfg, outcome, mu = vanishing_run
        checks = {c["name"]: c for c in outcome.report["theorem_checks"]}
        p = cfg.params
        needed = [
            "vanishing_diffusion_dominates",
            "vanishing_eigenvalue_bound",
            "vanishing_mass_decay",
            "vanishing_native_recovery",
        ]
        ok = p.d1 > 1.0 - p.k and all(checks[n]["pass"] for n in needed)
        mass = checks["vanishing_mass_decay"]["details"]
        factor = mass["peak_mass"] / mass["final_mass"] if mass["final_mass"] > 0 else float("inf")
        detail = (
            f"mu={mu}, eigen margin {checks['vanishing_eigenvalue_bound']['margin']:.3f}, "
            f"mass factor {factor:.3g}, "
            f"recovery margin {checks['vanishing_native_recovery']['margin']:.3g}"
        )
        report("vanishing_consistency", ok, detail)


class TestCheckMargins:
    def test_margin_sign_matches_verdict(self, weak_run, exclusion_run, vanishing_run, twin_run):
        # Every margin is tolerance minus excess: >= 0 on a pass, <= 0 or None on a fail.
        bad = [
            f"{label}: {c['name']} pass={c['pass']} margin={c['margin']}"
            for label, outcome in [("weak", weak_run[1]), ("exclusion", exclusion_run[1]),
                                   ("vanishing", vanishing_run[1]), ("twin_reduced", twin_run[5])]
            for c in outcome.report["theorem_checks"]
            if not (c["margin"] >= 0.0 if c["pass"] else c["margin"] is None or c["margin"] <= 0.0)
        ]
        report("check_margin_sign", not bad, "; ".join(bad) or "margin sign agrees on 4 runs")


class TestStructuralInvariants:
    def _audit(self, outcome, label, notes):
        audit = outcome.report["numerics_audit"]
        final = outcome.result.final_state
        series = outcome.result.series
        ok = True
        if audit["clamp_count"] != 0:
            ok = False
            notes.append(f"{label}: clamp_count={audit['clamp_count']}")
        outside = (final.x <= final.g_front) | (final.x >= final.h_front)
        if not np.all(final.u[outside] == 0.0):
            ok = False
            notes.append(f"{label}: support discipline violated")
        if not (np.all(np.diff(series.h_front) >= 0.0) and np.all(np.diff(series.g_front) <= 0.0)):
            ok = False
            notes.append(f"{label}: fronts not monotone")
        bound = next(c for c in outcome.report["theorem_checks"] if c["name"] == "native_upper_bound")
        if not bound["pass"]:
            ok = False
            notes.append(f"{label}: comparison bound violated by {bound['details']['worst_violation']:.2e}")
        rel = audit["dt_halving_rel_front_change"]
        if rel is None or rel >= 0.02:
            ok = False
            notes.append(f"{label}: dt-halving front change {rel}")
        return ok

    def test_all_runs(self, weak_run, exclusion_run, vanishing_run, twin_run):
        notes = []
        ok = True
        for label, outcome in [
            ("weak", weak_run[1]),
            ("exclusion", exclusion_run[1]),
            ("vanishing", vanishing_run[1]),
            ("twin_reduced", twin_run[5]),
        ]:
            ok = self._audit(outcome, label, notes) and ok
        report("structural_invariants", ok, "; ".join(notes) or
               "clamp=0, exact support, monotone fronts, comparison bound, dt-halving < 2% on 4 runs")


class TestScalingEquivalence:
    def test_dual_run(self, twin_run):
        gp, params, tr, general, reduced, _ = twin_run
        n = min(len(general.profiles), len(reduced.profiles))
        worst = 0.0
        matched = 0
        for (tg, xg, ug, vg), (tr_, xr, ur, vr) in zip(general.profiles[:n], reduced.profiles[:n]):
            assert abs(tr.time_scale * tg - tr_) <= 1e-9 * max(1.0, tr_)
            m = min(xg.size, xr.size)
            worst = max(
                worst,
                float(np.max(np.abs(tr.u_scale * ug[:m] - ur[:m]))),
                float(np.max(np.abs(tr.v_scale * vg[:m] - vr[:m]))),
            )
            matched += 1
        front_err = max(
            abs(general.final_state.h_front - reduced.final_state.h_front),
            abs(general.final_state.g_front - reduced.final_state.g_front),
        )
        ok = worst <= 5e-3 and front_err <= 5e-3 and matched >= 3
        report("scaling_equivalence", ok,
               f"{matched} matched times, worst field gap {worst:.2e}, front gap {front_err:.2e}")
