import csv
import json
import warnings

import numpy as np
import pytest

from unravel import cli
from unravel import gaussian as G
from unravel import trajectories as T
from unravel.gaussian import DiskPoint, QbmParams, qbm_generators


def run_cli(argv):
    return cli.main(argv)


def _never_called(*args, **kwargs):
    raise AssertionError("a run started before the arguments were checked")


class TestQbmOptimal:
    def test_single_point_survival(self, tmp_path):
        out = tmp_path / "opt.csv"
        code = run_cli(["qbm-optimal", "--temps", "1.0", "--measure", "survival",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if l.startswith("#")]
        assert any("unravel" in h for h in header)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "T,measure,r_star,phi_star,value,error"
        assert len(data) == 2
        fields = data[1].split(",")
        assert float(fields[2]) >= 0.98  # boundary optimum

    def test_numeric_fields_are_plain_floats(self, tmp_path):
        # the refinement returns numpy scalars; no field may read np.float64(...)
        out = tmp_path / "opt.csv"
        assert run_cli(["qbm-optimal", "--temps", "1.0", "--measure",
                        "efficiency_threshold", "--out", str(out)]) == 0
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        t, _, r, phi, value, error = row.split(",")
        for field in (t, r, phi, value):
            float(field)
        assert r == "1.0" and error == ""

    def test_fmt_writes_numpy_scalars_as_plain_floats(self):
        assert cli._fmt(np.float64(1.0)) == "1.0"
        assert cli._fmt(np.float32(0.5)) == "0.5"
        assert cli._fmt(0.1) == "0.1" and cli._fmt(3) == "3" and cli._fmt("x") == "x"

    def test_unknown_measure_is_usage_error(self, tmp_path):
        code = run_cli(["qbm-optimal", "--temps", "1.0", "--measure", "entropy",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("temps", [",", ""])
    def test_empty_temperature_list_is_usage_error(self, tmp_path, temps):
        out = tmp_path / "x.csv"
        assert run_cli(["qbm-optimal", "--temps", temps, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("temps", ["1,1", "0.5,1,1.0"])
    def test_repeated_temperature_is_usage_error(self, tmp_path, monkeypatch, temps):
        # the optimum would be computed again and written as a second row
        monkeypatch.setattr(cli.M, "optimize_disk", _never_called)
        out = tmp_path / "x.csv"
        assert run_cli(["qbm-optimal", "--temps", temps, "--out", str(out)]) == 2
        assert not out.exists()


    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, tmp_path, monkeypatch, threads):
        # no optimum runs, and no file records the bad value
        monkeypatch.setattr(cli.M, "optimize_disk", _never_called)
        out = tmp_path / "x.csv"
        assert run_cli(["qbm-optimal", "--temps", "1", "--threads", threads,
                        "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-4"])
    def test_bad_threads_variable_is_usage_error(self, tmp_path, monkeypatch, capsys, value):
        # as --threads below 1: no optimum runs, no file is written, and the
        # message names the variable
        monkeypatch.setenv(cli.THREADS_ENV, value)
        monkeypatch.setattr(cli.M, "optimize_disk", _never_called)
        out = tmp_path / "x.csv"
        assert run_cli(["qbm-optimal", "--temps", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert f"{cli.THREADS_ENV} must be an integer of at least 1, got {value!r}" in (
            capsys.readouterr().err)

    def test_threads_variable_is_the_flag_default(self, tmp_path, monkeypatch):
        # a valid value writes the file its --threads writes; unset, one thread
        args = ["qbm-optimal", "--temps", "0.5,1", "--measure", "efficiency_threshold"]
        files = {}
        for name, env, flag in [("flag1", None, "1"), ("env_unset", None, None),
                                ("flag2", None, "2"), ("env2", "2", None)]:
            if env is None:
                monkeypatch.delenv(cli.THREADS_ENV, raising=False)
            else:
                monkeypatch.setenv(cli.THREADS_ENV, env)
            files[name] = tmp_path / f"{name}.csv"
            threads = ["--threads", flag] if flag else []
            assert run_cli(args + threads + ["--out", str(files[name])]) == 0
        assert files["env_unset"].read_bytes() == files["flag1"].read_bytes()
        assert files["env2"].read_bytes() == files["flag2"].read_bytes()
        assert '"threads": 2' in files["env2"].read_text()

    def test_failed_optimum_names_its_cause(self, tmp_path):
        # at T = 1e-9 every grid point fails: the row says how many and why,
        # quoted, since the cause holds commas, so the row keeps six fields
        out = tmp_path / "x.csv"
        assert run_cli(["qbm-optimal", "--temps", "1e-9", "--measure", "mixing",
                        "--out", str(out)]) == 3
        [row] = csv.DictReader(l for l in out.read_text().splitlines()
                               if not l.startswith("#"))
        assert None not in row and row["r_star"] == "nan"
        assert row["error"].startswith(
            "every grid point failed to converge (97 of 97); the first raised "
            "ConvergenceError: stationary covariance is not attracting")


class TestTlaCurves:
    def test_tiny_run_well_formed(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = run_cli(["tla-curves", "--omega", "2.0", "--schemes",
                        "homodyne_x,direct", "--n-traj", "2", "--horizon",
                        "0.1", "--stride", "20", "--out", str(out)])
        assert code == 0
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "t,scheme,mean_purity,stderr"
        assert all(len(l.split(",")) == 4 for l in data[1:])
        schemes = {l.split(",")[1] for l in data[1:]}
        assert schemes == {"homodyne_x", "direct"}

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["tla-curves", "--omega", "1.0", "--schemes", "heterodyne",
                "--n-traj", "8", "--horizon", "0.2", "--stride", "50",
                "--seed", "77"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_trajectory_dump(self, tmp_path):
        out = tmp_path / "curves.csv"
        dump = tmp_path / "dump.csv"
        code = run_cli(["tla-curves", "--schemes", "direct", "--n-traj", "2",
                        "--horizon", "0.1", "--stride", "25",
                        "--out", str(out), "--dump", str(dump),
                        "--dump-count", "2"])
        assert code == 0
        data = [l for l in dump.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "t,purity,trajectory"
        trajectories = {l.split(",")[2] for l in data[1:]}
        assert trajectories == {"0", "1"}

    def test_dump_times_are_the_curve_times(self, tmp_path):
        # the curves and the dump of their first scheme share one clock in
        # 1/gamma, which ends at --horizon
        out, dump = tmp_path / "c.csv", tmp_path / "d.csv"
        assert run_cli(["tla-curves", "--schemes", "homodyne_x,direct", "--n-traj", "2",
                        "--horizon", "0.2", "--stride", "50", "--out", str(out),
                        "--dump", str(dump), "--dump-count", "2"]) == 0
        curves, dumped = (list(csv.DictReader(l for l in path.read_text().splitlines()
                                              if not l.startswith("#")))
                          for path in (out, dump))
        times = [row["t"] for row in curves if row["scheme"] == "homodyne_x"]
        for index in ("0", "1"):
            assert [row["t"] for row in dumped if row["trajectory"] == index] == times
        assert float(times[-1]) == 0.2

    @pytest.mark.parametrize("command", ["tla-curves", "tla-rank"])
    def test_gamma_is_no_flag(self, tmp_path, monkeypatch, command):
        # the atom's unit is gamma, so neither a flag nor a config key sets it
        monkeypatch.setattr(cli.M, "rank_unravellings", _never_called)
        monkeypatch.setattr(cli.T, "run_ensemble", _never_called)
        out, cfg = tmp_path / "x", tmp_path / "run.cfg"
        cfg.write_text("gamma = 2\n")
        assert run_cli([command, "--gamma", "2", "--out", str(out)]) == 2
        assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_dump_count_below_one_is_usage_error(self, tmp_path, monkeypatch, count):
        # no ensemble runs and neither file is written, not even a
        # header-only dump
        monkeypatch.setattr(cli.T, "run_ensemble", _never_called)
        out, dump = tmp_path / "c.csv", tmp_path / "d.csv"
        assert run_cli(["tla-curves", "--n-traj", "2", "--out", str(out),
                        "--dump", str(dump), "--dump-count", count]) == 2
        assert not out.exists() and not dump.exists()

    def test_threads_variable_is_not_read(self, tmp_path, monkeypatch):
        # only qbm-optimal fans out, so only it reads UNRAVEL_THREADS
        monkeypatch.setenv(cli.THREADS_ENV, "abc")
        assert run_cli(["tla-curves", "--schemes", "direct", "--n-traj", "2",
                        "--horizon", "0.1", "--stride", "25",
                        "--out", str(tmp_path / "c.csv")]) == 0

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_traj = 2\nhorizon = 0.1\nschemes = direct\n")
        out = tmp_path / "c.csv"
        code = run_cli(["tla-curves", "--config", str(cfg), "--horizon", "0.2",
                        "--stride", "50", "--out", str(out)])
        assert code == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("# config")]
        blob = json.loads(header[0].split("# config: ")[1])
        assert blob["n_traj"] == 2          # from config file
        assert blob["horizon"] == 0.2       # flag wins over config

    def test_repeated_scheme_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.T, "run_ensemble", _never_called)
        out = tmp_path / "c.csv"
        assert run_cli(["tla-curves", "--schemes", "aid,direct,aid", "--n-traj", "10",
                        "--out", str(out)]) == 2
        assert not out.exists()


class TestTlaRank:
    def test_tiny_ensembles_unresolved_exit(self, tmp_path):
        out = tmp_path / "rank.json"
        code = run_cli(["tla-rank", "--measure", "mixing", "--schemes",
                        "homodyne_x,heterodyne", "--n-traj", "10",
                        "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["verdict"] == "unresolved"
        assert code == 1

    def test_one_trajectory_is_usage_error(self, tmp_path):
        # one final state has no spread, so its uncertainty would be NaN
        out = tmp_path / "rank.json"
        code = run_cli(["tla-rank", "--measure", "survival", "--schemes", "aid,direct",
                        "--n-traj", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_resolved_pair(self, tmp_path):
        out = tmp_path / "rank.json"
        code = run_cli(["tla-rank", "--measure", "survival", "--schemes",
                        "aid,direct", "--n-traj", "1200", "--dt", "2e-3",
                        "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0
        assert report["verdict"] == "resolved"
        assert report["entries"][0]["scheme"] == "aid"

    def test_survival_ranking_matches_frozen_fixture(self, tmp_path):
        # recorded with group-keyed noise and event-driven counting final
        # states; at 200 trajectories homodyne_x (0.601 +- 0.032) and
        # heterodyne (0.540 +- 0.018) are not resolved on this seed
        frozen = {"aid": (1.384365864725082, 0.0004621858984296392),
                  "homodyne_x": (0.6006824239988697, 0.031866637552566204),
                  "heterodyne": (0.5395557839193076, 0.018429925904440002),
                  "direct": (0.40350039216068045, 0.015486436097929919)}
        out = tmp_path / "rank.json"
        code = run_cli(["tla-rank", "--omega", "2", "--measure", "survival",
                        "--schemes", "aid,homodyne_x,heterodyne,direct",
                        "--n-traj", "200", "--seed", "3", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 1 and report["verdict"] == "unresolved"
        assert report["unresolved_after"] == ["homodyne_x"]
        assert [e["scheme"] for e in report["entries"]] == list(frozen)
        for entry in report["entries"]:
            value, uncertainty = frozen[entry["scheme"]]
            assert abs(entry["value"] - value) < 1e-9, entry
            assert abs(entry["uncertainty"] - uncertainty) < 1e-9, entry

    @pytest.mark.slow
    def test_threshold_ranking_resolves_aid_against_heterodyne(self, tmp_path):
        # the bisection's early stop once left AID (0.531 +- 0.031)
        # unresolved against heterodyne here, and exited 1
        out = tmp_path / "rank.json"
        code = run_cli(["tla-rank", "--omega", "5", "--measure", "efficiency_threshold",
                        "--schemes", "aid,heterodyne,direct", "--n-traj", "500",
                        "--seed", "3", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0, report
        assert report["verdict"] == "resolved"
        assert [e["scheme"] for e in report["entries"]] == ["aid", "heterodyne", "direct"]

    @pytest.mark.slow
    def test_threshold_error_falls_with_more_trajectories(self, tmp_path):
        errors = {}
        for n in (500, 2000):
            out = tmp_path / f"rank{n}.json"
            run_cli(["tla-rank", "--omega", "5", "--measure", "efficiency_threshold",
                     "--schemes", "heterodyne,direct", "--n-traj", str(n), "--dt", "4e-3",
                     "--seed", "3", "--out", str(out)])
            errors[n] = {e["scheme"]: e["uncertainty"]
                         for e in json.loads(out.read_text())["entries"]}
        for scheme in ("heterodyne", "direct"):
            assert errors[2000][scheme] < errors[500][scheme], errors

    def test_unknown_scheme(self, tmp_path):
        code = run_cli(["tla-rank", "--schemes", "telepathy",
                        "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_repeated_scheme_is_usage_error(self, tmp_path, monkeypatch):
        # the scheme would run twice and be reported once
        monkeypatch.setattr(cli.M, "rank_unravellings", _never_called)
        out = tmp_path / "r.json"
        assert run_cli(["tla-rank", "--schemes", "aid,aid", "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["qbm-optimal", "--temps", "inf"], "temperature"),
    (["qbm-optimal", "--temps", "1,nan"], "temperature"),
    (["tla-rank", "--omega", "nan"], "rabi"),
    (["tla-curves", "--omega", "nan"], "rabi"),
])
def test_non_finite_parameter_is_usage_error(tmp_path, capsys, argv, field):
    # rejected by the parameter check, before numpy meets the value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(argv + ["--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{field} must be finite" in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["tla-curves", "--seed", "-1"],
    ["tla-rank", "--seed", "-2"],
    ["validate", "properties", "--seed", "-3"],
    ["validate", "invariance", "--seed", "-4"],
])
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    # rejected when the run's configuration is built, before any run or check
    for owner, name in ((cli.T, "run_ensemble"), (cli.T, "run_trajectory"),
                        (cli.M, "rank_unravellings"), (G, "covariance_ode")):
        monkeypatch.setattr(owner, name, _never_called)
    out = tmp_path / "x"
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


class TestUndrivenAtom:
    @pytest.mark.parametrize("measure, schemes", [
        ("survival", "aid,direct"), ("mixing", "homodyne_x,direct"),
        ("efficiency_threshold", "aid,direct")])
    def test_degenerate_measure_is_a_numeric_failure(self, tmp_path, monkeypatch, capsys,
                                                     measure, schemes):
        # the pure steady state (theta = 1) stops the ranking before any
        # ensemble runs, and no report with an infinite uncertainty is written
        for name in ("run_final_states", "run_purity_averages"):
            monkeypatch.setattr(T, name, _never_called)
        out = tmp_path / "rank.json"
        assert run_cli(["tla-rank", "--omega", "0", "--measure", measure,
                        "--schemes", schemes, "--n-traj", "50", "--out", str(out)]) == 3
        assert "steady state is already pure" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_unknown_suite_usage_error(self, tmp_path):
        assert run_cli(["validate", "nonsense",
                        "--out", str(tmp_path / "v.json")]) == 2

    def test_properties_suite_passes(self, tmp_path):
        out = tmp_path / "props.json"
        code = run_cli(["validate", "properties", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0, report
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_gaussian_oracle_suite_reports_its_margin(self, tmp_path):
        out = tmp_path / "oracle.json"
        code = run_cli(["validate", "gaussian-oracle", "--n-traj", "20",
                        "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0, report
        [check] = report["checks"]
        # the largest excess over the allowance, not a floor of 0.0
        assert check["passed"] is True and check["value"] < 0.0

    def test_gaussian_oracle_runs_and_reports_the_requested_count(self, tmp_path, monkeypatch):
        # a stub ensemble that records its size and returns the exact curve
        sizes = []

        def exact_ensemble(model, spec, rho0, cfg, n_traj, statistic):
            sizes.append(n_traj)
            _, dt, sample_idx = cfg.grid()
            times = sample_idx * dt
            mean = G.conditioned_purity_curve(
                qbm_generators(QbmParams(0.5), DiskPoint(1.0, 0.0), 1.0), times, np.eye(2))
            return T.EnsembleCurve(times=times, mean=mean, stderr=np.zeros_like(mean), n=n_traj)

        monkeypatch.setattr(T, "run_ensemble", exact_ensemble)
        out = tmp_path / "oracle.json"
        code = run_cli(["validate", "gaussian-oracle", "--n-traj", "600",
                        "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0, report
        [check] = report["checks"]
        assert sizes == [600] and check["n"] == 600 and report["n_traj"] == 600

    @pytest.mark.slow
    def test_invariance_suite_passes(self, tmp_path):
        out = tmp_path / "inv.json"
        code = run_cli(["validate", "invariance", "--n-traj", "400",
                        "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0, report
        assert report["passed"] is True


class TestConfigParsing:
    def test_read_config(self, tmp_path):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("# comment\nomega = 3.5\nn-traj = 12\n\n")
        parsed = cli.read_config(str(cfg))
        assert parsed == {"omega": "3.5", "n_traj": "12"}

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("omega 3.5\n")
        with pytest.raises(ValueError):
            cli.read_config(str(cfg))
