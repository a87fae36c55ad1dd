import json
import os
import selectors
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nlinvade.cli import main
from nlinvade.config import apply_override, build_scenario, load_scenario, parse_config_text
from nlinvade.errors import ConfigInvalid, GridTooLarge, NoConvergence, StabilityViolated
from nlinvade.output import TIMESERIES_HEADER, report_text, snapshot_name, write_rows
from nlinvade import diagnostics, kernels, runner
from nlinvade.eigenvalue import RESIDUAL_TOL
from nlinvade.runner import run_scenario, sweep

BASE = """
[params]
d1 = 1.0
d2 = 1.0
k = 0.5
h_comp = 0.5
gamma = 1.0
mu = 1.0
h0 = 1.0

[kernel_u]
form = "uniform"
L0 = 1.0

[kernel_v]
form = "uniform"
L0 = 1.0

[numerics]
dx = 0.1
dt = 0.02
T = 3.0
snapshot_every = 0.25

[output]
directory = "out"
"""


# BASE with a small initial range and slow fronts: the invader vanishes by T = 20.
VANISHING = (BASE.replace("d1 = 1.0", "d1 = 1.2").replace("mu = 1.0", "mu = 0.01")
             .replace("h0 = 1.0", "h0 = 0.2").replace("T = 3.0", "T = 20.0"))

GAUSSIAN = BASE.replace('form = "uniform"', 'form = "truncated_gaussian"\nsigma = 0.5')

# VANISHING with truncated-gaussian kernels: the verdict runs the eigensolve.
GAUSSIAN_VANISHING = (VANISHING.replace('form = "uniform"', 'form = "truncated_gaussian"\nsigma = 1.0')
                      .replace("mu = 0.01", "mu = 0.05").replace("T = 20.0", "T = 30.0"))

# BASE sampled once a unit of time: 4 samples, too few for regime detection.
SHORT = BASE.replace("snapshot_every = 0.25", "snapshot_every = 1.0")

# BASE with fronts so fast that growing the window to follow them needs
# more than MAX_GRID_NODES nodes: GridTooLarge, a numerical failure (exit 3).
BLOW_UP = BASE.replace("mu = 1.0", "mu = 1e9")

# A spreading run with k >= 1, outside the spreading checks' scope.
STRONG_K = (BASE.replace("k = 0.5", "k = 1.1").replace("h_comp = 0.5", "h_comp = 3.0")
            .replace("mu = 1.0", "mu = 5.0").replace("h0 = 1.0", "h0 = 2.0")
            .replace("dt = 0.02", "dt = 0.01").replace("T = 3.0", "T = 10.0"))


def config_file(tmp_path, text=BASE, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def scenario(text=BASE):
    return build_scenario(parse_config_text(text))


@pytest.mark.parametrize(
    "rows, header, sep, text",
    [
        ([(np.float64(0.1), 0.1, 3, True, "x")], "a,b,c,d,e", ",",
         "a,b,c,d,e\n0.10000000000000001,0.10000000000000001,3,True,x\n"),
        ([(np.float64(0.1), 0.1, 3, True, "x"), (np.float32(0.1), -2.5, 0, False, "")], None, ",",
         "0.10000000000000001,0.10000000000000001,3,True,x\n0.10000000149011612,-2.5,0,False,\n"),
        ([(1.0, np.float64(1 / 3), "y")], "# x u v", " ", "# x u v\n1 0.33333333333333331 y\n"),
        ([], None, ",", "\n"),
        ([], "t,u,v", ",", "t,u,v\n"),
    ],
    ids=["header", "no-header", "space-separated", "empty", "header-only"],
)
def test_write_rows_bytes(tmp_path, rows, header, sep, text):
    write_rows(tmp_path / "rows.txt", rows, header, sep)
    assert (tmp_path / "rows.txt").read_bytes() == text.encode()


def test_report_text_sanitises():
    # NaN to null, infinities clamped to +-1e308, arrays to lists, numpy
    # bools to JSON booleans; keys sorted, indent 2.
    report = {"e": np.bool_(True), "d": np.arange(2), "c": -np.inf, "b": np.inf, "a": np.nan}
    assert report_text(report) == ('{\n  "a": null,\n  "b": 1e+308,\n  "c": -1e+308,\n'
                                   '  "d": [\n    0,\n    1\n  ],\n  "e": true\n}\n')


class TestRunScenario:
    def test_emits_files(self, tmp_path):
        out = tmp_path / "run"
        outcome = run_scenario(scenario(), outdir=out, check_theorems=False)
        assert outcome.exit_code == 0
        assert (out / "timeseries.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "profile.svg").exists()
        snaps = sorted(out.glob("snapshot_t*.txt"))
        assert len(snaps) == 2  # initial and final profiles by default

    def test_timeseries_header_exact(self, tmp_path):
        out = tmp_path / "run"
        run_scenario(scenario(), outdir=out, check_theorems=False)
        first = (out / "timeseries.csv").read_text().splitlines()[0]
        assert first == TIMESERIES_HEADER == "t,g_front,h_front,mass_u,sup_u,v_dev_L"

    def test_report_top_level_keys(self, tmp_path):
        out = tmp_path / "run"
        run_scenario(scenario(), outdir=out, check_theorems=False)
        report = json.loads((out / "report.json").read_text())
        assert {"regime", "fronts", "theta", "theorem_checks", "numerics_audit"} <= set(report)
        audit = report["numerics_audit"]
        assert "clamp_count" in audit
        assert "leakage" in audit
        assert "dt_halving_rel_front_change" in audit
        assert audit["steps"] == 150 and audit["node_steps"] > 0
        assert "dt_halving_steps" not in audit and "dt_halving_node_steps" not in audit

    @pytest.mark.parametrize("text", [BASE, GAUSSIAN], ids=["uniform", "truncated_gaussian"])
    def test_byte_identical_reruns(self, tmp_path, text):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_scenario(scenario(text), outdir=out1, check_theorems=False)
        run_scenario(scenario(text), outdir=out2, check_theorems=False)
        snaps = sorted(p.name for p in out1.glob("snapshot_t*.txt"))
        assert snaps and snaps == sorted(p.name for p in out2.glob("snapshot_t*.txt"))
        for name in ["timeseries.csv", "report.json", *snaps]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_undecided_fails_verify_mode(self, tmp_path):
        # Front rate lands between eps_front and 10*eps_front: undecided,
        # and verify mode must exit 4.
        text = BASE + "\n[diagnostics]\neps_front = 0.2\n"
        outcome = run_scenario(scenario(text), outdir=tmp_path / "run", check_theorems=True)
        assert outcome.report["regime"] == "undecided"
        assert outcome.exit_code == 4

    @pytest.mark.parametrize("text", [BASE, BASE + "\n[diagnostics]\neps_front = 0.2\n"])
    def test_theorem_check_record_keys(self, tmp_path, text):
        # the second config ends undecided, so its checks include the error record
        outcome = run_scenario(scenario(text), outdir=tmp_path / "run", check_theorems=True)
        checks = outcome.report["theorem_checks"]
        names = [c["name"] for c in checks]
        assert "native_upper_bound" in names and len(names) >= 2
        for check in checks:
            assert list(check) == ["name", "pass", "margin", "details"]

    def test_eigensolve_in_vanishing_check_details(self, tmp_path):
        outcome = run_scenario(scenario(VANISHING), outdir=tmp_path / "run", check_theorems=True)
        assert outcome.report["regime"] == "vanishing"
        (check,) = [c for c in outcome.report["theorem_checks"]
                    if c["name"] == "vanishing_eigenvalue_bound"]
        details = check["details"]
        assert details["method"] == "krylov"  # the one solver, on a short interval too
        assert details["iterations"] > 0
        assert 0.0 <= details["residual"] <= RESIDUAL_TOL

    def test_failed_check_margin_not_positive(self, tmp_path):
        # A small invader at a short horizon: the run is classed vanishing,
        # but its mass has not yet fallen a hundredfold from the peak.
        text = (VANISHING.replace("T = 20.0", "T = 6.0")
                + "\n[initial]\nu_max = 0.05\n[sweep]\naxis.params.mu = [0.01]\n")
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw")
        row = dict(zip(header, rows[0]))
        assert (row["status"], row["regime"]) == ("exit4", "vanishing")
        assert row["min_check_margin"] <= 0.0
        report = json.loads((tmp_path / "sw" / "cell_0000" / "report.json").read_text())
        checks = {c["name"]: c for c in report["theorem_checks"]}
        decay = checks["vanishing_mass_decay"]
        assert not decay["pass"] and decay["margin"] < 0.0
        assert decay["margin"] == pytest.approx(decay["details"]["peak_mass"]
                                                / diagnostics.MASS_DECAY_FACTOR
                                                - decay["details"]["final_mass"])
        for check in checks.values():
            assert check["margin"] >= 0.0 if check["pass"] else check["margin"] <= 0.0

    def test_failed_check_without_margin_empties_column(self, tmp_path):
        # Undecided at T = 2: the failed "theorem_checks" record has no
        # margin, so no passing check's margin may stand for the row.
        text = (BASE.replace("d1 = 1.0", "d1 = 1.2").replace("h0 = 1.0", "h0 = 0.2")
                .replace("T = 3.0", "T = 2.0")
                + "\n[sweep]\naxis.params.mu = [0.01, 1.0, 5.0]\naxis.numerics.dt = [0.02, 0.01]\n")
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw")
        assert len(rows) == 6
        for values in rows:
            row = dict(zip(header, values))
            assert (row["status"], row["regime"], row["min_check_margin"]) == ("exit4", "undecided", "")
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert all(",exit4,undecided," in line and line.endswith(",,") for line in lines[1:])

    @pytest.mark.parametrize("halfwidth", [None, 50.0])
    def test_recovery_halfwidth_clipped_to_window(self, tmp_path, halfwidth):
        text = VANISHING
        if halfwidth is not None:
            text += f"\n[diagnostics]\ncompact_halfwidth = {halfwidth}\n"
        cfg = scenario(text)
        outcome = run_scenario(cfg, outdir=tmp_path / "run", check_theorems=True)
        assert outcome.report["regime"] == "vanishing"
        (check,) = [c for c in outcome.report["theorem_checks"]
                    if c["name"] == "vanishing_native_recovery"]
        x_min, x_max = outcome.report["numerics_audit"]["final_window"]
        got = check["details"]["compact_halfwidth"]
        assert got == min(cfg.diagnostics.compact_halfwidth, -x_min, x_max)
        # the default 2*h0 fits the window; 50 is clipped to its edge, and
        # the details keep the requested value
        assert got == (0.4 if halfwidth is None else min(-x_min, x_max))
        if halfwidth is None:
            assert "compact_halfwidth_requested" not in check["details"]
        else:
            assert check["details"]["compact_halfwidth_requested"] == halfwidth

    def test_short_series_undecided(self, tmp_path):
        out = tmp_path / "run"
        outcome = run_scenario(scenario(SHORT), outdir=out, check_theorems=True)
        assert outcome.result.series.t.size == 4
        report = json.loads((out / "report.json").read_text())
        assert report["regime"] == "undecided"
        assert report["notes"] == ["regime detection skipped: need at least 10 samples, got 4"]
        fronts = report["fronts"]
        assert fronts["g_inf_est"] is None
        assert fronts["h_inf_est"] is None
        assert fronts["trailing_front_rate"] is None
        assert fronts["h_front"] == outcome.result.final_state.h_front
        assert report["theorem_checks"][0] == {
            "name": "theorem_checks",
            "pass": False,
            "margin": None,
            "details": {"error": "regime undecided; nothing to verify"},
        }
        assert outcome.exit_code == 4

    def test_strong_k_spreading_out_of_scope(self, tmp_path):
        outcome = run_scenario(scenario(STRONG_K), outdir=tmp_path / "run", check_theorems=True)
        report = outcome.report
        assert report["regime"] == "spreading"
        assert [c["name"] for c in report["theorem_checks"]] == [
            "theorem_checks", "native_upper_bound"
        ]
        check = report["theorem_checks"][0]
        assert not check["pass"] and check["margin"] is None
        assert check["details"] == {"error": "OutOfScope: spreading checks cover only k < 1"}
        assert outcome.exit_code == 4

    def test_numerical_failure_report_keys(self, tmp_path):
        cfg = scenario(BLOW_UP)
        out = tmp_path / "fail"
        outcome = run_scenario(cfg, outdir=out, check_theorems=True)
        assert outcome.exit_code == 3 and outcome.result is None
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {
            "regime", "fronts", "theta", "theorem_checks", "numerics_audit", "error"
        }
        assert report["regime"] == "error"
        assert report["fronts"] == {}
        assert report["theorem_checks"] == []
        assert set(report["numerics_audit"]) == {
            "competition_case", "dx", "dt", "stability_bound", "dt_halving_rel_front_change"
        }

    def test_window_growth_capped(self, tmp_path, monkeypatch):
        # At mu = 1e6 the window doubles about every step (ten growths to
        # T = 3 uncapped); past MAX_GRID_NODES the run is a numerical
        # failure before the grown arrays are allocated, and a sweep cell
        # gets its error row.
        monkeypatch.setattr(kernels, "MAX_GRID_NODES", 4000)
        fast = BASE.replace("mu = 1.0", "mu = 1e6")
        outcome = run_scenario(scenario(fast), outdir=tmp_path / "run", check_theorems=False)
        assert outcome.exit_code == 3
        assert outcome.report["error"].startswith("GridTooLarge: the window grown for fronts")
        assert outcome.report["error"].endswith("more than 4000")
        text = BASE + "\n[sweep]\naxis.params.mu = [1.0, 1e6]\n"
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False)
        status, error = header.index("status"), header.index("error")
        assert [r[status] for r in rows] == ["ok", "exit3"]
        assert rows[1][error].startswith("GridTooLarge: the window grown for fronts")

    def test_dt_halving_audit(self, tmp_path):
        text = BASE + "\n[diagnostics]\ndt_halving = true\n"
        outcome = run_scenario(scenario(text), outdir=tmp_path / "run", check_theorems=False)
        audit = outcome.report["numerics_audit"]
        rel = audit["dt_halving_rel_front_change"]
        assert rel is not None
        assert rel < 0.02
        final = outcome.result.final_state
        assert (audit["steps"], audit["node_steps"]) == (final.steps, final.node_steps)
        assert audit["steps"] == 150 and audit["dt_halving_steps"] == 300
        assert audit["node_steps"] >= 150 * outcome.result.profiles[0][1].size
        assert audit["dt_halving_node_steps"] >= 2 * audit["node_steps"]

    def test_dt_halving_run_keeps_no_profiles(self, tmp_path, monkeypatch):
        """Only the halving run's final state is read, so it keeps the first
        and last profile alone; the main run keeps its profile_every ones.
        The main run may step in a forked child, so each call is recorded
        in a file rather than in this process's memory."""
        log, real = tmp_path / "runs.txt", runner.run

        def recording_run(*args, **kwargs):
            result = real(*args, **kwargs)
            with open(log, "a") as fh:
                fh.write(f"{args[2]!r} {len(result.profiles)}\n")
            return result

        monkeypatch.setattr(runner, "run", recording_run)
        text = (BASE.replace("T = 3.0", "T = 12.0")
                .replace("snapshot_every = 0.25", "snapshot_every = 0.25\nprofile_every = 5.0")
                + "\n[diagnostics]\ndt_halving = true\n")
        out = tmp_path / "run"
        run_scenario(scenario(text), outdir=out, check_theorems=False)
        runs = [(float(dt), int(kept)) for dt, kept in map(str.split, log.read_text().splitlines())]
        assert sorted(runs) == sorted([(0.02, 4), (0.01, 2)])
        assert sorted(p.name for p in out.glob("snapshot_t*.txt")) == [
            snapshot_name(t) for t in (0.0, 5.0, 10.0, 12.0)]

    @pytest.mark.parametrize("where", ["eigensolve", "dt_halving"])
    def test_failed_diagnosis_keeps_the_run(self, tmp_path, monkeypatch, where):
        """A numerical failure after the main run (the vanishing eigensolve,
        the dt-halving run) exits 3 with the completed run's files written
        and the error in report.json."""
        if where == "eigensolve":
            def failing_solver(*args, **kwargs):
                raise NoConvergence("forced for the test")

            monkeypatch.setattr(diagnostics, "principal_eigenvalue", failing_solver)
            text = GAUSSIAN_VANISHING
        else:
            real = runner.run

            def failing_halving(state, T, dt, *args, **kwargs):
                if dt < 0.02:
                    raise StabilityViolated("forced for the test")
                return real(state, T, dt, *args, **kwargs)

            monkeypatch.setattr(runner, "run", failing_halving)
            text = BASE + "\n[diagnostics]\ndt_halving = true\n"
        out = tmp_path / "run"
        outcome = run_scenario(scenario(text), outdir=out, check_theorems=True)
        assert outcome.exit_code == 3 and outcome.result is not None
        names = sorted(p.name for p in out.iterdir())
        assert names[:2] == ["profile.svg", "report.json"] and names[-1] == "timeseries.csv"
        assert len(list(out.glob("snapshot_t*.txt"))) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["regime"] == "error"
        assert report["error"] == ("NoConvergence: forced for the test" if where == "eigensolve"
                                   else "StabilityViolated: forced for the test")
        assert report["numerics_audit"]["steps"] == outcome.result.final_state.steps
        assert main(["verify", "--config", str(config_file(tmp_path, text)),
                     "--out", str(tmp_path / "cli"), "--quiet"]) == 3
        assert (tmp_path / "cli" / "timeseries.csv").exists()


HALVING = "\n[diagnostics]\ndt_halving = true\n"


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_main_run(monkeypatch, fail):
    """Make the run at the main dt (0.02) call ``fail``; the halving run is real."""
    real = runner.run

    def run(state, T, dt, *args, **kwargs):
        if dt == 0.02:
            fail()
        return real(state, T, dt, *args, **kwargs)

    monkeypatch.setattr(runner, "run", run)


class TestHalvingBesideMainRun:
    """With dt_halving on, the main run may step in a forked child that
    pickles its result back: the files, the report and the errors are those
    of the main run alone, and no child outlives run_scenario."""

    def test_main_run_crosses_bit_for_bit(self, tmp_path, monkeypatch):
        states, real_init = [], runner.init_state

        def recording_init(*args, **kwargs):
            states.append(real_init(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(runner, "init_state", recording_init)
        text = (BASE.replace("T = 3.0", "T = 6.0")
                .replace("snapshot_every = 0.25", "snapshot_every = 0.25\nprofile_every = 2.0"))
        plain = run_scenario(scenario(text), outdir=tmp_path / "plain", check_theorems=True)
        both = run_scenario(scenario(text + HALVING), outdir=tmp_path / "both", check_theorems=True)
        no_child_left()
        assert plain.exit_code == both.exit_code

        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "both").iterdir())
        assert len([n for n in names if n.startswith("snapshot_t")]) == 4
        for name in names:
            if name != "report.json":
                assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        reports = [json.loads((tmp_path / d / "report.json").read_text()) for d in ("plain", "both")]
        for report in reports:
            report["numerics_audit"] = {k: v for k, v in report["numerics_audit"].items()
                                        if not k.startswith("dt_halving")}
        assert reports[0] == reports[1]
        assert "dt_halving_steps" in both.report["numerics_audit"]

        a, b = plain.result.final_state, both.result.final_state
        for name in ("u", "v", "x"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in ("t", "g_front", "h_front", "i0", "x_list", "clamp_count", "window_growths",
                     "steps", "node_steps"):
            assert getattr(a, name) == getattr(b, name)
        assert b.j1 is states[1].j1 and b.j2 is states[1].j2
        assert b.j1.cdf(0.25) == a.j1.cdf(0.25)

    def test_package_error_as_without_halving(self, tmp_path, monkeypatch):
        def fail():
            raise StabilityViolated("forced for the test")

        failing_main_run(monkeypatch, fail)
        outcomes = {}
        for name, text in (("plain", BASE), ("both", BASE + HALVING)):
            outcomes[name] = run_scenario(scenario(text), outdir=tmp_path / name, check_theorems=True)
            no_child_left()
            assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["report.json"]
        assert outcomes["plain"].exit_code == outcomes["both"].exit_code == 3
        assert outcomes["both"].result is None
        assert outcomes["both"].report["error"] == "StabilityViolated: forced for the test"
        assert ((tmp_path / "both" / "report.json").read_bytes()
                == (tmp_path / "plain" / "report.json").read_bytes())

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the main run steps in this process")
    def test_killed_child_exit_3(self, tmp_path, monkeypatch):
        failing_main_run(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        outcome = run_scenario(scenario(BASE + HALVING), outdir=tmp_path / "run", check_theorems=True)
        no_child_left()
        assert outcome.exit_code == 3 and outcome.result is None
        assert outcome.report["error"] == "NlinvadeError: main run process died, killed by SIGKILL"
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["report.json"]

    def test_other_error_keeps_its_type(self, tmp_path, monkeypatch):
        def fail():
            raise RuntimeError("forced for the test")

        failing_main_run(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="^forced for the test$"):
            run_scenario(scenario(BASE + HALVING), outdir=tmp_path / "run", check_theorems=True)
        no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the main run steps in this process")
    def test_interrupted_halving_run_kills_the_child(self, tmp_path, monkeypatch):
        def run(state, T, dt, *args, **kwargs):
            if dt == 0.02:
                time.sleep(60.0)
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "run", run)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_scenario(scenario(BASE + HALVING), outdir=tmp_path / "run", check_theorems=True)
        no_child_left()
        assert time.monotonic() - started < 30.0

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the parent-death signal is Linux's")
    def test_child_ends_with_its_parent(self):
        # A process that forks a sleeping child and is then SIGKILLed, so
        # it never unwinds: the child must end within seconds, not sleep on.
        code = ("import time\nfrom nlinvade import runner\n"
                "print(runner._fork(lambda: time.sleep(60))[0], flush=True)\ntime.sleep(60)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(runner.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              text=True) as parent:
            child = int(parent.stdout.readline())
            parent.kill()

        def ended():  # gone, or a zombie where PID 1 does not reap
            try:  # the state follows the parenthesised command name
                return Path(f"/proc/{child}/stat").read_text().rpartition(")")[2].split()[0] == "Z"
            except FileNotFoundError:
                return True

        deadline = time.monotonic() + 10.0
        while not ended() and time.monotonic() < deadline:
            time.sleep(0.05)
        if not ended():
            os.kill(child, signal.SIGKILL)
            pytest.fail(f"child {child} outlived its parent by 10 s")


class TestSweep:
    def test_rows_follow_enumeration_order(self, tmp_path):
        text = BASE + "\n[sweep]\naxis.params.mu = [0.1, 1.0, 10.0]\n"
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False)
        assert header[1] == "params.mu"
        assert [r[1] for r in rows] == [0.1, 1.0, 10.0]
        assert (tmp_path / "sw" / "sweep.csv").exists()
        assert (tmp_path / "sw" / "cell_0000" / "report.json").exists()

    def test_grid_cap(self, tmp_path):
        text = BASE + "\n[sweep]\ncap = 2\naxis.params.mu = [0.1, 1.0, 10.0]\n"
        with pytest.raises(GridTooLarge):
            sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False)

    def test_grid_cap_counts_exactly(self, tmp_path):
        # 65536**4 cells: a count that wraps modulo 2**64 would read 0 and
        # pass the cap, and the sweep would then enumerate the whole grid.
        mapping = parse_config_text(BASE + "\n[sweep]\ncap = 2\n")
        values = list(range(1, 65537))
        mapping["sweep"].update({f"axis.params.{key}": values for key in ("d1", "d2", "k", "mu")})
        with pytest.raises(GridTooLarge, match="has 18446744073709551616 cells, cap is 2$"):
            sweep(build_scenario(mapping), outdir=tmp_path / "sw", check_theorems=False)
        assert not (tmp_path / "sw").exists()

    def test_cell_is_its_direct_run(self, tmp_path):
        # No snapshot_every or window_pad is set, so both derive per cell from
        # the cell's own T, dt, h0, dx and kernel radii, as in a direct run.
        text = (BASE.replace("snapshot_every = 0.25\n", "").replace("h0 = 1.0", "h0 = 0.2")
                .replace("L0 = 1.0", "L0 = 0.2").replace("T = 3.0", "T = 2.0"))
        grid = [(T, h0) for T in (2.0, 20.0) for h0 in (0.2, 3.0)]
        axes = "\n[sweep]\naxis.numerics.T = [2.0, 20.0]\naxis.params.h0 = [0.2, 3.0]\n"
        sweep(scenario(text + axes), outdir=tmp_path / "sw", check_theorems=False)
        for index, (T, h0) in enumerate(grid):
            mapping = parse_config_text(text)
            apply_override(mapping, f"numerics.T={T}")
            apply_override(mapping, f"params.h0={h0}")
            direct = tmp_path / f"direct_{index}"
            run_scenario(build_scenario(mapping), outdir=direct, check_theorems=False)
            cell = tmp_path / "sw" / f"cell_{index:04d}"
            names = sorted(p.name for p in direct.iterdir())
            assert sorted(p.name for p in cell.iterdir()) == names
            assert {"report.json", "timeseries.csv", snapshot_name(T)} <= set(names)
            for name in names:
                assert (cell / name).read_bytes() == (direct / name).read_bytes(), (T, h0, name)
            assert len((cell / "timeseries.csv").read_text().splitlines()) == 102

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("load", ["absolute", "relative"])
    def test_relative_table_from_any_directory(self, tmp_path, monkeypatch, jobs, load):
        # A table path resolves against the config's directory, not the
        # working directory, in every cell as when the config was loaded,
        # also when the config itself was loaded by a relative path.
        xs = np.linspace(-1.0, 1.0, 21)
        np.savetxt(tmp_path / "k.txt", np.column_stack([xs, 1.0 - np.abs(xs)]))
        text = (BASE.replace('form = "uniform"\nL0 = 1.0', 'form = "tabulated"\ntable = "k.txt"', 1)
                + "\n[sweep]\naxis.params.mu = [0.5, 2.0]\n")
        path = config_file(tmp_path, text)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        if load == "relative":
            monkeypatch.chdir(tmp_path)
            path = path.name
        cfg = load_scenario(path)
        monkeypatch.chdir(elsewhere)
        header, rows = sweep(cfg, outdir=tmp_path / "sw", check_theorems=False, jobs=jobs)
        assert [r[header.index("status")] for r in rows] == ["ok", "ok"]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        text = BASE + "\n[sweep]\naxis.params.mu = [0.5]\n"
        with pytest.raises(ConfigInvalid, match="--jobs must be at least 1"):
            sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False, jobs=jobs)
        assert not (tmp_path / "sw").exists()

    def test_cell_error_recorded_not_fatal(self, tmp_path):
        # Second mu value drives dt over the stability bound for h_comp=2.
        text = BASE.replace("h_comp = 0.5", "h_comp = 2.0").replace("dt = 0.02", "dt = 0.019")
        text += "\n[sweep]\naxis.numerics.dt = [0.01, 0.5]\n"
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False)
        assert rows[0][header.index("status")] == "ok"
        assert rows[1][header.index("status")] == "error"
        assert "stability" in rows[1][header.index("error")]

    def test_numerical_failure_row(self, tmp_path):
        # mu = 1e9 grows the window past MAX_GRID_NODES: exit 3, no series.
        text = BASE + "\n[sweep]\naxis.params.mu = [1.0, 1e9]\n"
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False)
        row = dict(zip(header, rows[1]))
        assert (row["status"], row["regime"]) == ("exit3", "error")
        for key in ("g_front", "h_front", "mass_u", "sup_u", "min_check_margin"):
            assert row[key] == ""
        assert row["error"].startswith("GridTooLarge")
        assert rows[0][header.index("status")] == "ok"

    def test_axis_key_not_read_by_the_form(self, tmp_path, capsys):
        text = BASE + "\n[sweep]\naxis.kernel_u.sigma = [0.5]\n"
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False)
        assert rows[0][header.index("status")] == "error"
        assert "kernel_u.sigma: not read by kernel form 'uniform'" in rows[0][header.index("error")]
        # a check tolerance is no config key, so an axis over one is a config error
        gate = config_file(tmp_path, BASE + "\n[sweep]\naxis.diagnostics.center_tol = [10]\n")
        assert main(["sweep", "--config", str(gate), "--out", str(tmp_path / "gate")]) == 2
        assert "sweep.axis.diagnostics.center_tol" in capsys.readouterr().err

    def test_axis_initial_key_not_read_by_the_kind(self, tmp_path):
        text = BASE + '\n[sweep]\naxis.initial.v_table = ["v.txt"]\n'
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False)
        assert rows[0][header.index("status")] == "error"
        assert "initial.v_table: not read by v profile 'constant'" in rows[0][header.index("error")]

    def test_any_cell_exception_recorded_not_fatal(self, tmp_path, monkeypatch):
        real = runner.run_scenario

        def flaky(cfg, **kwargs):
            if cfg.params.mu == 2.0:
                raise RuntimeError("cell blew up")
            return real(cfg, **kwargs)

        monkeypatch.setattr(runner, "run_scenario", flaky)
        text = BASE + "\n[sweep]\naxis.params.mu = [0.5, 2.0, 3.0]\n"
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False)
        status, error = header.index("status"), header.index("error")
        assert [r[status] for r in rows] == ["ok", "error", "ok"]
        assert rows[1][error] == "RuntimeError: cell blew up"

    def test_parallel_matches_serial(self, tmp_path):
        # Cells that differ in kernel form and dx, with a truncated-gaussian
        # v kernel throughout and dt halving on, so that each cell forks its
        # own halving child: serial and parallel write the same bytes.  An
        # axis cannot switch a kernel between uniform and truncated gaussian
        # (only the latter reads sigma), so u goes uniform and triangular.
        text = (BASE.replace('form = "uniform"\nL0 = 1.0\n\n[numerics]',
                             'form = "truncated_gaussian"\nL0 = 1.0\nsigma = 0.5\n\n[numerics]')
                + HALVING + '\n[sweep]\naxis.kernel_u.form = ["uniform", "triangular"]\n'
                + "axis.numerics.dx = [0.1, 0.05]\n")
        assert scenario(text).kernel_v.form == "truncated_gaussian"
        _, rows1 = sweep(scenario(text), outdir=tmp_path / "s1", check_theorems=False, jobs=1)
        _, rows2 = sweep(scenario(text), outdir=tmp_path / "s2", check_theorems=False, jobs=2)
        assert rows1 == rows2
        assert [r[1:3] for r in rows1] == [["uniform", 0.1], ["uniform", 0.05],
                                           ["triangular", 0.1], ["triangular", 0.05]]
        assert all(r[3] == "ok" for r in rows1)
        files = sorted(p.relative_to(tmp_path / "s1") for p in (tmp_path / "s1").rglob("*"))
        assert files == sorted(p.relative_to(tmp_path / "s2") for p in (tmp_path / "s2").rglob("*"))
        assert len([f for f in files if f.name == "report.json"]) == 4
        for name in files:
            if (tmp_path / "s1" / name).is_file():
                assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="a sweep without os.fork is serial")
    def test_workers_capped_at_cell_count(self, tmp_path, monkeypatch):
        # Wrap the fork and the join of the cell children, and count at each
        # start the children started and not yet joined.
        alive, counts = set(), []
        real_fork, real_join = runner._fork, runner._join

        def fork(fn):
            child = real_fork(fn)
            alive.add(child)
            counts.append(len(alive))
            return child

        def join(child, what):
            alive.discard(child)
            return real_join(child, what)

        monkeypatch.setattr(runner, "_fork", fork)
        monkeypatch.setattr(runner, "_join", join)
        for jobs, mus in ((500, [0.5, 2.0]), (2, [0.5, 1.0, 2.0, 3.0, 4.0])):
            counts.clear()
            text = BASE + f"\n[sweep]\naxis.params.mu = {mus}\n"
            _, rows = sweep(scenario(text), outdir=tmp_path / f"sw{jobs}", check_theorems=False,
                            jobs=jobs)
            assert max(counts) == min(jobs, len(mus))
            assert len(counts) == len(rows) == len(mus)
            assert not alive

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="the cell processes must inherit the patched run_scenario")
    @pytest.mark.parametrize(
        "cells, dies, how",
        [(3, 0, "exit"), (3, 1, "exit"), (3, 2, "exit"),
         (3, 0, "kill"), (3, 1, "kill"), (3, 2, "kill"), (3000, 1, "exit")],
        ids=["first-exit", "middle-exit", "last-exit", "first-kill", "middle-kill", "last-kill",
             "3000"],
    )
    def test_dying_worker_recorded_not_fatal(self, tmp_path, monkeypatch, cells, dies, how):
        # One cell's process ends without a word, by os._exit(1) or by
        # SIGKILL to itself.  Only that cell gets an error row, naming the
        # exit code or the signal; every other cell runs as usual.
        mus = [0.5 + i for i in range(cells)]

        def dying(cfg, **kwargs):
            if cfg.params.mu == mus[dies]:
                if how == "exit":
                    os._exit(1)
                os.kill(os.getpid(), signal.SIGKILL)
            return runner.RunOutcome(exit_code=0, report={}, outdir=None)

        monkeypatch.setattr(runner, "run_scenario", dying)
        text = BASE + f"\n[sweep]\ncap = {cells}\naxis.params.mu = {mus}\n"
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False, jobs=2)
        status, error = header.index("status"), header.index("error")
        died = "exit code 1" if how == "exit" else "killed by SIGKILL"
        assert [r[0] for r in rows] == list(range(cells))
        assert rows[dies][status] == "error"
        assert rows[dies][error] == f"NlinvadeError: cell process died, {died}"
        assert all(r[status] == "ok" for r in rows[:dies] + rows[dies + 1:])
        lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + cells
        assert lines[1 + dies].startswith(f"{dies},{mus[dies]},error,")

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="the cell processes must inherit the patched run_scenario")
    def test_parent_failure_stops_the_cells(self, tmp_path, monkeypatch):
        # Every cell would sleep for a minute.  The parent's wait for rows
        # raises, and sweep kills and reaps the cells it started.
        def interrupted(self, timeout=None):
            raise RuntimeError("parent interrupted")

        monkeypatch.setattr(runner, "run_scenario", lambda cfg, **kwargs: time.sleep(60))
        monkeypatch.setattr(selectors.DefaultSelector, "select", interrupted)
        text = BASE + "\n[sweep]\naxis.params.mu = [0.5, 2.0, 3.0]\n"
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="parent interrupted"):
            sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False, jobs=2)
        no_child_left()
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize("text", [VANISHING.replace("T = 20.0", "T = 5.0"), BASE],
                             ids=["vanishing", "base"])
    def test_fronts_ordered_in_mu(self, tmp_path, text):
        # Comparison principle: a larger front coefficient never slows
        # either front.  The scheme keeps the order exactly, at every
        # recorded instant, so there is no tolerance.
        mus = [0.0, 0.005, 0.1, 1.0, 3.0]  # mu = 0: frozen fronts, the low end
        sweep(scenario(text + f"\n[sweep]\naxis.params.mu = {mus}\n"), outdir=tmp_path / "sw",
              check_theorems=False)
        series = [np.loadtxt(tmp_path / "sw" / f"cell_{i:04d}" / "timeseries.csv", delimiter=",",
                             skiprows=1) for i in range(len(mus))]
        t, g, h = (np.array([s[:, TIMESERIES_HEADER.split(",").index(c)] for s in series])
                   for c in ("t", "g_front", "h_front"))
        assert np.all(t == t[0])
        assert np.all(np.diff(h, axis=0) >= 0.0)
        assert np.all(np.diff(g, axis=0) <= 0.0)

    def test_mu_dichotomy(self, tmp_path):
        # Small front response pins the invader (vanishing); a large one
        # lets it escape (spreading).
        text = """
[params]
d1 = 1.2
d2 = 1.0
k = 0.5
h_comp = 0.5
gamma = 1.0
mu = 1.0
h0 = 0.2

[kernel_u]
form = "uniform"
L0 = 1.0

[kernel_v]
form = "uniform"
L0 = 1.0

[numerics]
dx = 0.05
dt = 0.02
T = 80.0
snapshot_every = 0.5

[sweep]
axis.params.mu = [0.01, 20.0]
"""
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False)
        regimes = [r[header.index("regime")] for r in rows]
        assert regimes == ["vanishing", "spreading"]


class TestCli:
    def test_validate_kernel(self, tmp_path, capsys):
        rc = main(["validate-kernel", "--config", str(config_file(tmp_path))])
        assert rc == 0
        assert "kernel_u" in capsys.readouterr().out

    def test_classify(self, tmp_path, capsys):
        rc = main(["classify", "--config", str(config_file(tmp_path))])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["competition_case"] == "weak"
        assert record["verdict_roots"] == "theta1"

    def test_classify_out_prints_the_file(self, tmp_path, capsys):
        out = tmp_path / "cls"
        assert main(["classify", "--config", str(config_file(tmp_path)), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (out / "classify.json").read_text()

    def test_classify_quiet_prints_nothing(self, tmp_path, capsys):
        out = tmp_path / "cls"
        argv = ["classify", "--config", str(config_file(tmp_path)), "--out", str(out), "--quiet"]
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        assert json.loads((out / "classify.json").read_text())["competition_case"] == "weak"

    def test_eigen_curve_file_format(self, tmp_path):
        cfg = config_file(tmp_path, BASE + "\n[eigen]\nlengths = [1.0, 2.0]\n")
        out = tmp_path / "eig"
        rc = main(["eigen-curve", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 0
        lines = (out / "eigen_curve.txt").read_text().splitlines()
        assert len(lines) == 2
        l, lam = lines[0].split()
        assert float(l) == 1.0
        assert float(lam) < 0.0
        assert len(lam.replace("-", "").replace(".", "").lstrip("0")) >= 15

    @pytest.mark.parametrize(
        "command, assignment, grid",
        [
            ("eigen-curve", "eigen.lengths=[1e-9]", "a uniform stencil"),
            ("eigen-curve", "eigen.lengths=[1e300]", "an interval of length 1e+300"),
            ("eigen-curve", "numerics.dx=1e-300", "an interval of length 1 "),
            ("simulate", "numerics.dx=1e-300", "the initial window"),
        ],
    )
    def test_oversized_grid_exit_3(self, tmp_path, capsys, command, assignment, grid):
        # The node count is checked before any array is allocated: l = 1e-9
        # asks for a 6e9-tap stencil at spacing l/3, the others for grids of
        # 1e300 nodes or more.
        cfg = config_file(tmp_path, BASE.replace("dx = 0.1", "dx = 0.05"))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet",
                "--set", assignment]
        tracemalloc.start()
        try:
            assert main(argv) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: GridTooLarge: {grid}")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
    def test_window_growth_exit_3_under_a_memory_limit(self, tmp_path):
        # mu = 1e9 grows the window every step.  Under a 1.5 GB address
        # space the run stops at MAX_GRID_NODES with exit 3, not with a
        # MemoryError traceback once an allocation fails.
        cfg = config_file(tmp_path, BASE.replace("dx = 0.1", "dx = 0.05").replace("T = 3.0", "T = 2.0"))
        limit = 1536 * 2**20
        code = (f"import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
                "from nlinvade.cli import main\nsys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(runner.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code, "simulate", "--config", str(cfg), "--out",
             str(tmp_path / "o"), "--quiet", "--set", "params.mu=1e9"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("numerical failure: GridTooLarge: the window grown")
        assert "Traceback" not in done.stderr
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["error"].startswith("GridTooLarge: the window grown")

    def test_ode(self, tmp_path):
        cfg = config_file(tmp_path, BASE + "\n[ode]\nu0 = 0.1\nv0 = 0.1\nT = 50.0\ndt = 0.01\n")
        out = tmp_path / "ode"
        rc = main(["ode", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 0
        lines = (out / "ode.csv").read_text().splitlines()
        assert lines[0] == "t,u,v"
        final = lines[-1].split(",")
        assert float(final[1]) == pytest.approx(2.0 / 3.0, abs=1e-3)

    def test_negative_ode_horizon_exit_2(self, tmp_path, capsys):
        rc = main(["ode", "--config", str(config_file(tmp_path)), "--set", "ode.T=-1", "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ode.T:")

    def test_simulate_and_set_override(self, tmp_path):
        cfg = config_file(tmp_path)
        out = tmp_path / "sim"
        rc = main(
            ["simulate", "--config", str(cfg), "--out", str(out),
             "--set", "numerics.T=1.0", "--quiet"]
        )
        assert rc == 0
        assert (out / "report.json").exists()

    @pytest.mark.parametrize(
        "assignment, path",
        [("kernel_u.sigma=0", "kernel_u.sigma"), ("params.mu=-1", "params.mu"),
         ("diagnostics.center_tol=10", "diagnostics.center_tol"),
         ("diagnostics.comparison_slack=1", "diagnostics.comparison_slack"),
         ("numerics.dx=0", "numerics.dx"), ("params.d1=0", "params.d1"),
         ("numerics.T=-1", "numerics.T"), ("initial.v_value=-1", "initial.v_value"),
         ("numerics.profile_every=-0.5", "numerics.profile_every"), ("ode.u0=-1", "ode.u0"),
         ("sweep.cap=0", "sweep.cap"), ("params.gamma=5e-324", "params.gamma")],
    )
    def test_config_error_names_its_key(self, tmp_path, capsys, assignment, path):
        argv = ["simulate", "--config", str(config_file(tmp_path)), "--set", assignment, "--quiet"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}:")

    @pytest.mark.parametrize(
        "command, text, assignment, message",
        [("simulate", BASE, "params.mu", "override 'params.mu' is not of the form path=value"),
         ("simulate", "[params]\nmu = 1.0\n", "kernel_u.form=tabulated",
          "kernel_u.table: tabulated kernel needs table = <path>"),
         ("sweep", BASE + "\n[sweep]\naxis.params.mu = []\n", None,
          "sweep.axis.params.mu: axis values must be a nonempty list"),
         ("sweep", BASE, None, "sweep: no sweep axes configured")],
        ids=["override-without-value", "tabulated-without-table", "empty-axis", "no-axis"],
    )
    def test_config_error_line(self, tmp_path, capsys, command, text, assignment, message):
        argv = [command, "--config", str(config_file(tmp_path, text)),
                "--out", str(tmp_path / "out"), "--quiet"]
        if assignment is not None:
            argv += ["--set", assignment]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_config_error_exit_2(self, tmp_path):
        cfg = config_file(tmp_path)
        rc = main(["simulate", "--config", str(cfg), "--set", "numerics.dt=0.9", "--quiet"])
        assert rc == 2

    def test_missing_config_exit_2(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--quiet"])
        assert rc == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            ["initial.u_profile=table", "initial.u_table=missing.txt"],
            ["initial.v_profile=table", "initial.v_table=missing.txt"],
            ["initial.u_profile=table", "initial.u_table=garbled.txt"],
            ["kernel_u.form=tabulated", "kernel_u.table=garbled.txt"],
            ["ode.u0=abc"],
            ["sweep.cap=x"],
            ["numerics.profile_every=x"],
            ["params.mu=abc"],
            ["diagnostics.dt_halving=no"],
            ['diagnostics.dt_halving="false"'],
        ],
    )
    def test_config_escapes_exit_2(self, tmp_path, capsys, overrides):
        (tmp_path / "garbled.txt").write_text("0.0 one\n1.0 two\n")
        cfg = config_file(tmp_path)
        argv = ["simulate", "--config", str(cfg), "--quiet"]
        for assignment in overrides:
            argv += ["--set", assignment]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_mixed_kernel_forms_end_to_end(self, tmp_path):
        import numpy as np

        xs = np.linspace(-1.2, 1.2, 241)
        table = np.column_stack([xs, np.exp(-0.5 * (xs / 0.5) ** 2)])
        np.savetxt(tmp_path / "j1.txt", table)
        text = """
[params]
d1 = 1.0
d2 = 1.0
k = 0.5
h_comp = 0.5
gamma = 1.0
mu = 1.0
h0 = 1.0

[kernel_u]
form = "tabulated"
table = "j1.txt"

[kernel_v]
form = "triangular"
L0 = 0.8

[numerics]
dx = 0.05
dt = 0.02
T = 2.0
snapshot_every = 0.25
"""
        cfg = config_file(tmp_path, text)
        out = tmp_path / "mixed"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        audit = report["numerics_audit"]
        assert audit["clamp_count"] == 0
        assert abs(audit["stencil_mass_correction_u"] - 1.0) < 1e-3
        assert audit["leakage"]["front_mass_outside_left"] == 0.0

    def test_numerical_failure_exit_3(self, tmp_path):
        cfg = config_file(tmp_path, BLOW_UP)
        out = tmp_path / "fail"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        assert report["regime"] == "error"
        assert "GridTooLarge" in report["error"]

    @pytest.mark.parametrize("profile", ["cosine", "table"])
    def test_initial_window_too_large_is_the_runs_failure(self, tmp_path, monkeypatch, profile):
        # BASE's initial window [-3.5, 3.5] has 71 nodes at dx = 0.1.  Over
        # the cap, either profile kind loads, classify runs, and simulate
        # reports GridTooLarge as a numerical failure.
        monkeypatch.setattr(kernels, "MAX_GRID_NODES", 70)
        (tmp_path / "u0.txt").write_text("-1.0 0.0\n0.0 1.0\n1.0 0.0\n")
        text = BASE + ('\n[initial]\nu_profile = "table"\nu_table = "u0.txt"\n'
                       if profile == "table" else "")
        cfg = config_file(tmp_path, text)
        assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "cls"),
                     "--quiet"]) == 0
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["regime"] == "error"
        assert report["error"].startswith("GridTooLarge: the initial window")

    @pytest.mark.parametrize("command", ["simulate", "classify"])
    def test_bad_initial_table_exit_2(self, tmp_path, capsys, command):
        # A table that the initial sampling rejects is a config error, found
        # before any command runs.
        (tmp_path / "u0.txt").write_text("-1.0 0.0 0.0\n0.0 1.0 1.0\n1.0 0.0 0.0\n")
        text = BASE + '\n[initial]\nu_profile = "table"\nu_table = "u0.txt"\n'
        cfg = config_file(tmp_path, text)
        assert main([command, "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("config error: initial.u_table:")

    def test_verify_mu_zero_freezes_the_fronts(self, tmp_path):
        # The flux laws carry a factor mu: at mu = 0 the fronts stay at
        # -h0 and h0 exactly, and the invader still vanishes.
        out = tmp_path / "ver"
        argv = ["verify", "--config", str(config_file(tmp_path, VANISHING)), "--out", str(out),
                "--set", "params.mu=0", "--quiet"]
        assert main(argv) == 0
        assert json.loads((out / "report.json").read_text())["regime"] == "vanishing"
        series = np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1)
        assert np.all(series[:, 1] == -0.2) and np.all(series[:, 2] == 0.2)

    def test_verify_exit_4_on_undecided(self, tmp_path):
        cfg = config_file(tmp_path)
        out = tmp_path / "ver"
        rc = main(
            ["verify", "--config", str(cfg), "--out", str(out),
             "--set", "diagnostics.eps_front=0.2", "--quiet"]
        )
        assert rc == 4

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--jobs", "2"], ["verify", "--jobs", "2"],
         ["validate-kernel", "--out", "x"]],
    )
    def test_unread_flag_is_usage_error(self, tmp_path, argv):
        # Each subcommand takes only the flags it reads.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(config_file(tmp_path))])
        assert exc.value.code == 2

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_sweep_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        cfg = config_file(tmp_path, BASE + "\n[sweep]\naxis.params.mu = [0.5]\n")
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"), "--jobs", jobs]
        assert main(argv) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_sweep_cli_benchmark_argv(self, tmp_path):
        # The argv the benchmark's sweep workload passes.
        cfg = config_file(tmp_path, BASE + "\n[sweep]\naxis.params.mu = [0.5, 2.0]\n")
        out = tmp_path / "sw"
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1", "--quiet"]
        assert main(argv) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_sweep_cli(self, tmp_path):
        cfg = config_file(tmp_path, BASE + "\n[sweep]\naxis.params.mu = [0.5, 2.0]\n")
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
