"""Command line front end: flag handling, config layering, outputs, exit codes."""

import csv
import json
import math

import pytest

from subshot.cli import main, parse_float_grid, parse_int_list


class TestGridParsing:
    def test_linspace_syntax(self):
        grid = parse_float_grid("0:1:5")
        assert grid == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_comma_syntax(self):
        assert parse_float_grid("0.1, 0.5,0.9") == (0.1, 0.5, 0.9)

    def test_int_list(self):
        assert parse_int_list("1,3,5") == (1, 3, 5)

    def test_malformed_grid(self):
        with pytest.raises(ValueError):
            parse_float_grid("0:1")


class TestMain:
    def test_nr_ratio_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["nr-ratio", "--m", "2", "--nu", "200", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        # header + 101 t-points x (coherent, multiplexed, fock)
        assert len(lines) == 1 + 101 * 3
        assert "rows ->" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["fluctuations", "--rounds", "20", "--a-grid", "0,0.3", "--m", "3", "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["nr-ratio", "--m", "2", "--t-grid", "0.5,0.9", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data) == 6

    def test_both_formats(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["nr-ratio", "--m", "2", "--t-grid", "0.5", "--format", "both", "--out", str(out)]
        )
        assert code == 0
        assert out.exists() and out.with_suffix(".json").exists()

    def test_show_config_prints_defaults(self, capsys):
        assert main(["show-config"]) == 0
        text = capsys.readouterr().out
        assert "eta=0.9" in text
        assert "optics=0.9" in text
        assert "nu=200" in text
        assert "[fluctuations]" in text

    def test_invalid_value_exits_one(self, tmp_path, capsys):
        code = main(["nr-ratio", "--eta", "1.7", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "detector_eff" in capsys.readouterr().err

    def test_strong_pump_writes_finite_rows(self, tmp_path):
        """A target of 50 photons at one stage drives mu * eta_herald past 37,
        where the per-window herald probability rounds to 1."""
        out = tmp_path / "r.csv"
        code = main(["nr-ratio", "--mean-n", "50", "--t-grid", "0.5", "--m", "1", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        for row in rows:
            for column in ("expectation", "variance", "mse", "ratio_to_snl"):
                assert math.isfinite(float(row[column]))

    @pytest.mark.parametrize(
        "flag, field",
        [
            ("--eta-stage", "stage_transmission"),
            ("--optics", "optics_transmission"),
            ("--eta-herald", "herald_eff"),
        ],
    )
    def test_zero_source_transmission_names_field(self, tmp_path, capsys, flag, field):
        """The multiplexed source cannot reach any target mean; the run must
        say which field makes it so instead of failing inside the tuning."""
        code = main(["nr-ratio", flag, "0", "--t-grid", "0.5", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert field in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "args, field",
        [
            (["nr-ratio", "--mean-n", "nan"], "mean_photons"),
            (["nr-ratio", "--mean-n", "inf"], "mean_photons"),
            (["asymptotic", "--mean-grid", "inf"], "mean_grid"),
            (["intensity-sweep", "--mean-grid", "0.5,nan"], "mean_grid"),
        ],
    )
    def test_non_finite_mean_names_field(self, tmp_path, capsys, args, field):
        """A NaN or infinite mean must be rejected by name, not fail inside
        the pump tuning."""
        code = main([*args, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["nr-ratio", "--frobnicate", "1"])
        assert err.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["definitely-not-an-experiment"])
        assert err.value.code == 2

    def test_unwritable_output_exits_one(self, capsys):
        code = main(["nr-ratio", "--m", "2", "--t-grid", "0.5", "--out", "/nonexistent/dir/x.csv"])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_and_flag_precedence(self, tmp_path):
        ini = tmp_path / "sweep.ini"
        ini.write_text(
            "[defaults]\nnu = 400\nseed = 3\n\n[nr-ratio]\nt-grid = 0.25,0.75\nm = 2\n"
        )
        out = tmp_path / "r.csv"
        code = main(["nr-ratio", "--config", str(ini), "--out", str(out), "--nu", "500"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3
        assert ",500," in lines[1]  # flag beats config file

    def test_env_var_config(self, tmp_path, monkeypatch):
        ini = tmp_path / "sweep.ini"
        ini.write_text("[nr-ratio]\nt-grid = 0.5\nm = 2\n")
        monkeypatch.setenv("SUBSHOT_CONFIG", str(ini))
        out = tmp_path / "r.csv"
        assert main(["nr-ratio", "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 3

    def test_unknown_key_reports_field(self, tmp_path, capsys):
        ini = tmp_path / "sweep.ini"
        ini.write_text("[defaults]\nbogus = 1\n")
        code = main(["nr-ratio", "--config", str(ini), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["nr-ratio", "--config", str(tmp_path / "nope.ini")])
        assert code == 1
        assert "config" in capsys.readouterr().err
