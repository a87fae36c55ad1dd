import json

import pytest

from nlinvade.cli import main
from nlinvade.config import build_scenario, parse_config_text
from nlinvade.errors import GridTooLarge
from nlinvade.output import TIMESERIES_HEADER
from nlinvade import runner
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

# BASE sampled once a unit of time: 4 samples, too few for regime detection.
SHORT = BASE.replace("snapshot_every = 0.25", "snapshot_every = 1.0")

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
        assert details["method"] == "dense"  # a short interval, below DENSE_THRESHOLD nodes
        assert details["iterations"] == 0
        assert 0.0 <= details["residual"] <= RESIDUAL_TOL

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
        table = tmp_path / "u0.txt"
        table.write_text("-1.0 0.0\n-0.5 1.0\n0.0 0.0\n0.5 1.0\n1.0 0.0\n")
        text = BASE + f'\n[initial]\nu_profile = "table"\nu_table = "{table.name}"\n'
        cfg = build_scenario(parse_config_text(text), base_dir=tmp_path)
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

    def test_dt_halving_audit(self, tmp_path):
        text = BASE + "\n[diagnostics]\ndt_halving = true\n"
        outcome = run_scenario(scenario(text), outdir=tmp_path / "run", check_theorems=False)
        rel = outcome.report["numerics_audit"]["dt_halving_rel_front_change"]
        assert rel is not None
        assert rel < 0.02


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

    def test_cell_error_recorded_not_fatal(self, tmp_path):
        # Second mu value drives dt over the stability bound for h_comp=2.
        text = BASE.replace("h_comp = 0.5", "h_comp = 2.0").replace("dt = 0.02", "dt = 0.019")
        text += "\n[sweep]\naxis.numerics.dt = [0.01, 0.5]\n"
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False)
        assert rows[0][header.index("status")] == "ok"
        assert rows[1][header.index("status")] == "error"
        assert "stability" in rows[1][header.index("error")]

    def test_axis_key_not_read_by_the_form(self, tmp_path):
        text = BASE + "\n[sweep]\naxis.kernel_u.sigma = [0.5]\n"
        header, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False)
        assert rows[0][header.index("status")] == "error"
        assert "kernel_u.sigma: not read by kernel form 'uniform'" in rows[0][header.index("error")]

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
        text = BASE + "\n[sweep]\naxis.params.mu = [0.5, 2.0]\n"
        _, rows1 = sweep(scenario(text), outdir=tmp_path / "s1", check_theorems=False, jobs=1)
        _, rows2 = sweep(scenario(text), outdir=tmp_path / "s2", check_theorems=False, jobs=2)
        assert rows1 == rows2

    def test_workers_capped_at_cell_count(self, tmp_path, monkeypatch):
        # A stand-in pool records max_workers and maps serially, so no
        # process starts.
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
        text = BASE + "\n[sweep]\naxis.params.mu = [0.5, 2.0]\n"
        _, rows = sweep(scenario(text), outdir=tmp_path / "sw", check_theorems=False, jobs=500)
        assert seen == [2]
        assert len(rows) == 2

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
        [("kernel_u.sigma=0", "kernel_u.sigma"), ("params.mu=-1", "params.mu")],
    )
    def test_config_error_names_its_key(self, tmp_path, capsys, assignment, path):
        argv = ["simulate", "--config", str(config_file(tmp_path)), "--set", assignment, "--quiet"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}:")

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
        # A u0 table with an interior zero violates the initial support
        # condition at init time, after config validation has passed.
        table = tmp_path / "u0.txt"
        table.write_text("-1.0 0.0\n-0.5 1.0\n0.0 0.0\n0.5 1.0\n1.0 0.0\n")
        text = BASE + f'\n[initial]\nu_profile = "table"\nu_table = "{table.name}"\n'
        cfg = config_file(tmp_path, text)
        out = tmp_path / "fail"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        assert report["regime"] == "error"
        assert "InvalidInitialU" in report["error"]

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
