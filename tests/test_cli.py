import json

import numpy as np
import pytest

from unravel import cli


def run_cli(argv):
    return cli.main(argv)


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


class TestTlaRank:
    def test_tiny_ensembles_unresolved_exit(self, tmp_path):
        out = tmp_path / "rank.json"
        code = run_cli(["tla-rank", "--measure", "mixing", "--schemes",
                        "homodyne_x,heterodyne", "--n-traj", "10",
                        "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["verdict"] == "unresolved"
        assert code == 1

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
        # recorded while states were packed complex rows; the real Hermitian
        # basis draws the same noise, so values may move by rounding only
        frozen = {"aid": (1.3855606490209953, 0.0004537892013325804),
                  "homodyne_x": (0.6395087646837824, 0.028520516697915846),
                  "heterodyne": (0.5670914271881649, 0.02050661507360266),
                  "direct": (0.3912142333672097, 0.013370493872261894)}
        out = tmp_path / "rank.json"
        code = run_cli(["tla-rank", "--omega", "2", "--measure", "survival",
                        "--schemes", "aid,homodyne_x,heterodyne,direct",
                        "--n-traj", "200", "--seed", "3", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0 and report["verdict"] == "resolved"
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
