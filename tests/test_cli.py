"""Command line front end: flag handling, config layering, outputs, exit codes."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import textwrap
import threading
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subshot import cli, experiments, output
from subshot.cli import build_parser, main, parse_float_grid, parse_int_list, resolve_config
from subshot.experiments import EXPERIMENTS, ConfigError, SweepConfig


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

    @pytest.mark.parametrize("flag, field", [("t-grid", "t_grid"), ("mean-grid", "mean_grid"),
                                             ("a-grid", "a_grid")])
    @pytest.mark.parametrize("points", [10**12, 10**9, 100 * cli.MAX_GRID_POINTS])
    def test_oversized_grid_is_refused_before_it_is_built(self, flag, field, points, capsys):
        """A grid of more than `MAX_GRID_POINTS` points is refused by name
        through `resolve_config` and `show-config`, without a traceback,
        before `np.linspace` allocates it (nothing here builds such a grid)."""
        args = build_parser().parse_args(["nr-ratio", f"--{flag}", f"0:1:{points}"])
        with pytest.raises(ConfigError) as err:
            resolve_config("nr-ratio", args)
        assert err.value.field == field
        assert main(["show-config", "nr-ratio", f"--{flag}", f"0:1:{points}"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"configuration error: {field}: ") and "Traceback" not in err
        assert out == ""

    def test_literal_grid_past_the_cap_is_refused(self):
        assert len(parse_float_grid("0.5," * cli.MAX_GRID_POINTS)) == cli.MAX_GRID_POINTS
        with pytest.raises(ValueError, match="at most"):
            parse_float_grid("0.5," * (cli.MAX_GRID_POINTS + 1))


class TestMain:
    def test_nr_ratio_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["nr-ratio", "--m", "2", "--nu", "200", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        # header + 101 t-points x (coherent, multiplexed, fock)
        assert len(lines) == 1 + 101 * 3
        assert "rows ->" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["fluctuations", "--rounds", "20", "--a-grid", "0,0.3", "--m", "3", "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_repeated_calls_do_not_leak_flags(self, tmp_path, monkeypatch):
        """The parser is built once per process; a second run at defaults
        takes none of the first run's flags."""
        monkeypatch.chdir(tmp_path)
        assert main(["intensity-sweep", "--seed", "5", "--format", "json"]) == 0
        assert not (tmp_path / "intensity-sweep.csv").exists()
        assert main(["intensity-sweep"]) == 0
        with open(tmp_path / "intensity-sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 280
        assert {row["seed"] for row in rows} == {"0"}
        assert {row["config_hash"] for row in rows} == {SweepConfig("intensity-sweep").digest()}

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["nr-ratio", "--m", "2", "--t-grid", "0.5,0.9", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data) == 6

    def test_both_formats(self, tmp_path):
        """`--format both` writes, block by block, the bytes that each format
        alone writes."""
        argv = ["nr-ratio", "--m", "2", "--t-grid", "0:1:5"]
        with mock.patch.object(output, "_BLOCK_ROWS", 4):  # 15 rows in 4 blocks
            for fmt in ("both", "csv", "json"):
                out = tmp_path / f"{fmt}.{'json' if fmt == 'json' else 'csv'}"
                assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        assert (tmp_path / "both.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()
        assert (tmp_path / "both.json").read_bytes() == (tmp_path / "json.json").read_bytes()

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

    @pytest.mark.parametrize("error", [RuntimeError("did not converge"), ValueError("bad cell")])
    def test_run_error_exits_one_without_traceback(self, tmp_path, capsys, monkeypatch, error):
        """A RuntimeError, or a ValueError other than a ConfigError, raised
        by the run exits 1 with its message alone (no traceback) and writes
        no file."""

        def fail(cfg):
            raise error

        monkeypatch.setattr(cli, "run_experiment", fail)
        out = tmp_path / "x.csv"
        assert main(["nr-ratio", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["nr-ratio", "threshold-ratio"])
    def test_perfect_detector_leaves_unbounded_ratio_empty(self, tmp_path, command):
        """At --eta 1 the Fock(1) row at t = 1 has MSE exactly 0, so its
        ratio to the shot-noise MSE is unbounded; the cell stays empty, as
        at t = 0."""
        out = tmp_path / "r.csv"
        assert main([command, "--eta", "1", "--m", "2", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        (fock,) = [r for r in rows if r["source"] == "fock" and float(r["t"]) == 1.0]
        assert float(fock["mse"]) == 0.0
        assert fock["ratio_to_snl"] == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["nr-ratio", "--eta-stage", "0.01", "--m", "40", "--t-grid", "0.5"],
            ["intensity-sweep", "--eta-stage", "0.05", "--m", "64"],
        ],
    )
    def test_lossy_network_writes_finite_rows(self, tmp_path, args):
        """Network transmissions of ~1e-80 need pumps of ~1e80, far beyond
        200 doublings of the tuning bracket."""
        out = tmp_path / "r.csv"
        assert main([*args, "--out", str(out)]) == 0
        for row in csv.DictReader(out.open()):
            for column in ("expectation", "variance", "mse"):
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

    @pytest.mark.parametrize(
        "args, field",
        [
            (["show-config", "--nu", "abc"], "nu"),
            (["show-config", "--config", "{tmp}/nope.ini"], "config"),
            (["show-config", "nr-ratio", "--t-grid", ","], "t_grid"),
            (["show-config", "nr-ratio", "--t-grid", "2"], "t_grid"),
            (["nr-ratio", "--m", "1024", "--t-grid", "0.5"], "stage_counts"),
            (["show-config", "nr-ratio", "--m", "65"], "stage_counts"),
            (["show-config", "fluctuations", "--redraw", "per-repetition", "--mean-n", "2e4"],
             "mean_photons"),
            (["show-config", "fluctuations", "--redraw", "per_round"], "redraw"),
            (["fluctuations", "--a-grid", ","], "a_grid"),
            (["nr-ratio", "--mean-n", "1e6", "--t-grid", "0.5"], "mean_photons"),
            (["nr-ratio", "--mean-n", "1e200", "--t-grid", "0.5", "--m", "1"], "mean_photons"),
            (["fluctuations", "--mean-n", "1e5"], "mean_photons"),
            (["nr-ratio", "--eta-stage", "1e-10", "--m", "64", "--t-grid", "0.5"],
             "stage_transmission"),
            *(([name, "--eta", "0"], "detector_eff")
              for name in ("nr-ratio", "threshold-ratio", "intensity-sweep", "asymptotic",
                           "mc-validate", "fluctuations")),
            (["nr-ratio", "--eta", "1e-300", "--t-grid", "0.5"], "detector_eff"),
            (["nr-ratio", "--mean-n", "1e-200", "--t-grid", "0.5"], "mean_photons"),
            (["mc-validate", "--mean-n", "1e-300"], "mean_photons"),
            (["intensity-sweep", "--mean-grid", "1e-300"], "mean_grid"),
            (["mc-validate", "--nu", "2.5"], "nu"),
            (["mc-validate", "--seed", "-1", "--trials", "10"], "seed"),
            (["show-config", "fluctuations", "--seed", "-1"], "seed"),
            (["show-config", "mc-validate", "--trials", "100000000000000000000"], "trials"),
            # An unparsable value names the field, as a parsed bad one does.
            (["nr-ratio", "--m", "1.5", "--t-grid", "0.5"], "stage_counts"),
            (["show-config", "nr-ratio", "--eta", "abc"], "detector_eff"),
            (["nr-ratio", "--t-grid", "0:1:0"], "t_grid"),
            (["show-config", "nr-ratio", "--config", "{tmp}/bad.ini"], "mean_photons"),
        ],
    )
    def test_bad_config_names_field(self, tmp_path, capsys, args, field):
        """Unparsable, unreadable and invalid settings exit 1 with the field
        named, for show-config as for a run, and print no configuration."""
        (tmp_path / "bad.ini").write_text("[defaults]\nmean-n = x\n")
        argv = [arg.format(tmp=tmp_path) for arg in args]
        code = main([*argv, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"configuration error: {field}: ")
        assert out == ""
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "args, field",
        [
            (["fluctuations", "--nu", "2000000000", "--rounds", "100000000"], "nu"),
            (["fluctuations", "--rounds", "100000000"], "rounds"),
            (["fluctuations", "--nu", "10000000", "--rounds", "101"], "rounds"),
            (["fluctuations", "--nu", "1000000", "--rounds", "3000"], "rounds"),
            (["mc-validate", "--nu", "10000", "--mean-n", "10000", "--eta-herald", "6.1e-6"],
             "herald_eff"),
            (["mc-validate", "--nu", "1000000000000000"], "nu"),
            (["asymptotic", "--mean-grid", "0.01:1:100000", "--t-grid", "0:1:100000"], "t_grid"),
        ],
    )
    def test_runs_that_cannot_finish_are_refused_by_name(self, capsys, args, field):
        """show-config refuses a Monte Carlo run past a budget or a cap by name,
        without a traceback, and prints no configuration."""
        assert main(["show-config", *args]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"configuration error: {field}: ")
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["nr-ratio", "--mean-n", "0.5", "--mean-grid", "2", "--t-grid", "0.5"],
            ["intensity-sweep", "--mean-grid", "0.5", "--mean-n", "2"],
        ],
    )
    def test_a_mean_the_run_does_not_tune_is_not_checked(self, tmp_path, args):
        """A 64-stage network through 1.24e-4 stages reaches mean 0.5 but not
        2, so each run tunes its mean, and the mean it leaves unused does not
        refuse it."""
        lossy = ["--m", "64", "--eta-stage", "1.24e-4"]
        assert main([*args, *lossy, "--out", str(tmp_path / "x.csv")]) == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["nr-ratio", "--frobnicate", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in EXPERIMENTS)])
    def test_help_exits_zero(self, argv, capsys):
        """argparse %-formats every help string, so a stray % crashes --help."""
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        assert "usage: subshot" in capsys.readouterr().out

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["definitely-not-an-experiment"])
        assert err.value.code == 2

    def test_unwritable_output_exits_one(self, capsys):
        code = main(["nr-ratio", "--m", "2", "--t-grid", "0.5", "--out", "/nonexistent/dir/x.csv"])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "both"])
    def test_a_failed_write_keeps_the_previous_outputs(self, tmp_path, capsys, monkeypatch, fmt):
        """A write that fails after its first block exits 1, leaves every
        earlier output byte for byte and no temporary file; a rerun through
        a symlinked --out replaces the bytes behind the link, the JSON of
        `--format both` named after the linked file, and keeps the link."""
        argv = ["nr-ratio", "--format", fmt]
        out = tmp_path / "out.csv"
        assert main([*argv, "--seed", "1", "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert len(before) == (2 if fmt == "both" else 1)
        written = output.text_pieces

        def fail_after_first_block(rows, formats):
            pieces = written(rows, formats)
            yield next(pieces)
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "text_pieces", fail_after_first_block)
            assert main([*argv, "--out", str(out)]) == 1
        assert "cannot write output" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

        link = tmp_path / "link.csv"
        link.symlink_to("out.csv")
        assert main([*argv, "--out", str(link)]) == 0
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert main([*argv, "--out", str(fresh / "out.csv")]) == 0
        assert link.is_symlink() and os.readlink(link) == "out.csv"
        assert out.read_bytes() == (fresh / "out.csv").read_bytes() != before["out.csv"]
        names = {"out.csv", "link.csv", "fresh"}
        if fmt == "both":
            assert (tmp_path / "out.json").read_bytes() == (fresh / "out.json").read_bytes()
            names.add("out.json")
        assert {path.name for path in tmp_path.iterdir()} == names

    def test_a_device_output_is_written_in_place(self, capsys):
        """Only a regular file is replaced: a device keeps its node."""
        assert main(["nr-ratio", "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
        assert "rows -> " in capsys.readouterr().err

    def test_a_symlink_to_a_fifo_is_written_through(self, tmp_path):
        fifo, link = tmp_path / "fifo", tmp_path / "link.csv"
        os.mkfifo(fifo)
        link.symlink_to(fifo)
        read = []  # a daemon reader, so a run that never opens the FIFO fails, not hangs
        reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["nr-ratio", "--out", str(link)]) == 0
        reader.join(timeout=60)
        assert main(["nr-ratio", "--out", str(tmp_path / "fresh.csv")]) == 0
        assert read == [(tmp_path / "fresh.csv").read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode) and link.is_symlink()
        assert {path.name for path in tmp_path.iterdir()} == {"fifo", "link.csv", "fresh.csv"}

    def test_dev_stdout_on_a_pipe_is_written(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-m", "subshot", "nr-ratio", "--out", "/dev/stdout"],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main(["nr-ratio", "--out", str(tmp_path / "fresh.csv")]) == 0
        fresh = (tmp_path / "fresh.csv").read_bytes()
        assert proc.stdout == fresh
        assert proc.stderr == b"nr-ratio: 808 rows -> /dev/stdout\n"

    def test_json_to_stdout_on_a_pipe_is_the_json_alone(self, tmp_path):
        """`--format json` writes to `--out` as given: through a link to
        /dev/stdout on a pipe, stdout carries the JSON bytes of a file run
        and nothing is written beside the link."""
        link = tmp_path / "stdout"
        link.symlink_to("/dev/stdout")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        argv = ["nr-ratio", "--t-grid", "0:1:5", "--format", "json"]
        proc = subprocess.run([sys.executable, "-m", "subshot", *argv, "--out", str(link)],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main([*argv, "--out", str(tmp_path / "fresh.json")]) == 0
        assert proc.stdout == (tmp_path / "fresh.json").read_bytes()
        assert {path.name for path in tmp_path.iterdir()} == {"stdout", "fresh.json"}

    def test_json_takes_the_out_name_as_given(self, tmp_path):
        argv = ["nr-ratio", "--m", "2", "--t-grid", "0.5,0.9", "--format", "json"]
        assert main([*argv, "--out", str(tmp_path / "r.txt")]) == 0
        assert len(json.loads((tmp_path / "r.txt").read_text())) == 6
        assert [path.name for path in tmp_path.iterdir()] == ["r.txt"]

    def test_both_formats_to_a_fifo_are_refused(self, tmp_path, capsys):
        """`--format both` writes two files beside a regular file: an `--out`
        that is a FIFO is refused by name, and no file is made."""
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        # A daemon reader, so a run that opens the FIFO fails, not hangs.
        threading.Thread(target=fifo.read_bytes, daemon=True).start()
        assert main(["nr-ratio", "--t-grid", "0.5", "--format", "both", "--out", str(fifo)]) == 1
        assert capsys.readouterr().err.startswith(f"cannot write output: --out {fifo} ")
        assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_both_formats_to_a_fifo_are_refused_before_the_run(self, tmp_path, capsys):
        """The `--out` of `--format both` is checked before the run, which
        may take long, is computed."""
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        run = mock.Mock(side_effect=AssertionError("ran before --out was checked"))
        with mock.patch.object(cli, "run_experiment", run):
            assert main(["fluctuations", "--format", "both", "--out", str(fifo)]) == 1
        assert capsys.readouterr().err.startswith(f"cannot write output: --out {fifo} ")
        run.assert_not_called()

    def test_a_rerun_keeps_the_permission_bits_and_refuses_what_open_refuses(self, tmp_path):
        """The replacing file takes the old one's mode, and a read-only
        output is refused exactly when `open("w")` would refuse it (never
        for root)."""
        private, readonly = tmp_path / "private.csv", tmp_path / "readonly.csv"
        for path in (private, readonly):
            assert main(["nr-ratio", "--seed", "1", "--out", str(path)]) == 0
        private.chmod(0o600)
        readonly.chmod(0o444)
        before = readonly.read_bytes()
        assert main(["nr-ratio", "--out", str(private)]) == 0
        assert stat.S_IMODE(private.stat().st_mode) == 0o600
        writable = os.access(readonly, os.W_OK)
        assert main(["nr-ratio", "--out", str(readonly)]) == (0 if writable else 1)
        assert (readonly.read_bytes() == before) != writable
        assert stat.S_IMODE(readonly.stat().st_mode) == 0o444
        assert {path.name for path in tmp_path.iterdir()} == {"private.csv", "readonly.csv"}


class TestConfigFile:
    def test_config_file_and_flag_precedence(self, tmp_path):
        """Each layer overrides the one before it for one field: the
        per-experiment `mean_photons` the built-in one, `[defaults]` the
        per-experiment `stage_counts`, `[fluctuations]` the `nu` of
        `[defaults]` and a flag the `seed` of `[fluctuations]`.  The layered
        config is the one its settings give as flags, and writes its bytes."""
        ini = tmp_path / "layers.ini"
        ini.write_text(
            "[defaults]\nm = 2\nnu = 400\nrounds = 7\n\n"
            "[fluctuations]\nnu = 300\nseed = 3\na-grid = 0,0.3\n"
        )
        layered = ["fluctuations", "--config", str(ini), "--seed", "5"]
        flags = ["fluctuations", "--m", "2", "--nu", "300", "--rounds", "7", "--a-grid", "0,0.3",
                 "--seed", "5"]
        cfg, flag_cfg = (resolve_config("fluctuations", build_parser().parse_args(argv))
                         for argv in (layered, flags))
        assert SweepConfig("fluctuations").mean_photons == 1.0
        assert (cfg.mean_photons, cfg.stage_counts, cfg.nu, cfg.seed) == (0.5, (2,), 300, 5)
        assert cfg.digest() == flag_cfg.digest()
        for name, argv in (("layered", layered), ("flags", flags)):
            assert main([*argv, "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "layered.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()

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


def number_text(values):
    """A number drawn from `values` as Python spells it or, when it is an
    integral float, also as an int."""
    return values.flatmap(
        lambda x: st.sampled_from([repr(x), str(int(x))] if x.is_integer() else [repr(x)]))


def grid_text(low: float, high: float):
    """Tiny grids in [low, high]: comma literals and `start:stop:num`."""
    value = st.floats(low, high)
    literal = st.lists(number_text(value), min_size=1, max_size=3).map(",".join)
    uniform = st.tuples(value, value, st.integers(1, 4)).map(
        lambda grid: f"{grid[0]!r}:{grid[1]!r}:{grid[2]}")
    return literal | uniform


# A strategy for each flag, drawing only settings that every experiment
# accepts.
FLAG_TEXT = {
    "t-grid": grid_text(0.0, 1.0),
    "m": st.lists(st.integers(1, 8), min_size=1, max_size=3).map(
        lambda stages: ",".join(map(str, stages))),
    "mean-n": number_text(st.floats(0.05, 3.0)),
    "mean-grid": st.just("") | grid_text(0.05, 3.0),
    "a-grid": grid_text(0.0, 0.6),
    "t": number_text(st.floats(0.0, 1.0)),
    "nu": st.integers(1, 1000).map(str),
    "eta": number_text(st.floats(0.5, 1.0)),
    "eta-stage": number_text(st.floats(0.5, 1.0)),
    "eta-herald": number_text(st.floats(0.5, 1.0)),
    "optics": number_text(st.floats(0.5, 1.0)),
    "rounds": st.integers(2, 100).map(str),
    "trials": st.integers(1, 10**6).map(str),
    "redraw": st.sampled_from(["per-round", "per-repetition"]),
    "negatives": st.sampled_from(["clamp", "resample"]),
    "seed": st.integers(0, 2**64).map(str),
}


class TestShowConfig:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(experiment=st.sampled_from(EXPERIMENTS),
           flags=st.fixed_dictionaries({}, optional=FLAG_TEXT))
    def test_printed_config_is_the_ini_file_of_the_run(self, tmp_path, capsys, experiment, flags):
        """`show-config` prints, per experiment, every `_KEY_MAP` key once
        and the config hash: an INI file that resolves to the config of the
        same flags, and whose own `show-config` prints the same text."""
        argv = [experiment, *(arg for key, text in flags.items() for arg in (f"--{key}", text))]
        capsys.readouterr()
        assert main(["show-config", *argv]) == 0
        text = capsys.readouterr().out
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        cfg = resolve_config(experiment, build_parser().parse_args(argv))
        ini_cfg = resolve_config(experiment, build_parser().parse_args(
            [experiment, "--config", str(ini)]))
        assert ini_cfg == cfg and ini_cfg.digest() == cfg.digest()
        header, *lines, footer = text.splitlines()
        assert (header, footer) == (f"[{experiment}]", f"# config-hash={cfg.digest()}")
        assert [line.split("=", 1)[0] for line in lines] == list(cli._KEY_MAP)
        assert main(["show-config", experiment, "--config", str(ini)]) == 0
        assert capsys.readouterr().out == text

    def test_every_experiment_prints_every_key(self, capsys):
        assert main(["show-config"]) == 0
        sections = capsys.readouterr().out.split("[")[1:]
        assert [section.split("]")[0] for section in sections] == list(EXPERIMENTS)
        for section in sections:
            keys = [line.split("=", 1)[0] for line in section.splitlines()[1:-1]]
            assert keys == list(cli._KEY_MAP)

    @pytest.mark.parametrize(
        "args",
        [
            ["nr-ratio", "--m", ",".join(["3"] * 10**4), "--t-grid", "0:1:100000"],
            ["intensity-sweep", "--m", ",".join(["3"] * 10**4), "--mean-grid", "0.01:1:100000"],
            ["asymptotic", "--m", "1,2,3,4,5,6", "--t-grid", "0:1:100000"],
        ],
    )
    def test_networks_past_the_cap_are_refused_before_their_reach(self, capsys, args):
        """Networks x grid points past `MAX_GRID_CELLS` are refused naming
        the stage list before the pumps are tuned on networks x means arrays."""
        reach = mock.Mock(side_effect=AssertionError("make_multiplexed called"))
        with mock.patch.object(experiments, "make_multiplexed", reach):
            assert main(["show-config", *args]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("configuration error: stage_counts: ") and "Traceback" not in err
        assert out == ""
        reach.assert_not_called()


def reference_parser() -> argparse.ArgumentParser:
    """The parser built the way it was before the subcommands shared one
    parent: each subcommand adds every common flag itself."""

    def add_common_flags(sub):
        sub.add_argument("--config", help="INI config file (or set $SUBSHOT_CONFIG)")
        sub.add_argument("--out", help="output path (default: <experiment>.<format>)")
        sub.add_argument(
            "--format", choices=("csv", "json", "both"), default="csv", help="output format"
        )
        for key in cli._KEY_MAP:
            sub.add_argument(f"--{key}", dest=key.replace("-", "_"), default=None)

    parser = argparse.ArgumentParser(
        prog="subshot",
        description="Sub-shot-noise transmission measurement sweeps",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        add_common_flags(subparsers.add_parser(name, help=cli.EXPERIMENT_HELP[name]))
    show = subparsers.add_parser("show-config", help="print the resolved configuration")
    show.add_argument("experiment", nargs="?", choices=EXPERIMENTS)
    add_common_flags(show)
    return parser


def parse_outcome(parser: argparse.ArgumentParser, argv: list[str]):
    """Stdout, stderr and exit code (None if parsing succeeds) of parsing
    `argv`, and the parsed flags."""
    out, err = io.StringIO(), io.StringIO()
    code, parsed = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit as exit_:
            code = exit_.code
    return out.getvalue(), err.getvalue(), code, parsed


class TestSharedFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            *([name, "--help"] for name in (*EXPERIMENTS, "show-config")),
            ["definitely-not-an-experiment"],
            ["nr-ratio", "--frobnicate", "1"],
            ["show-config", "not-an-experiment"],
            ["nr-ratio", "--format", "xml"],
            [],
            ["show-config", "fluctuations", "--nu", "7", "--a-grid", "0,0.2"],
            ["mc-validate", "--config", "x.ini", "--format", "both", "--eta-herald", "0.5"],
        ],
    )
    def test_parser_matches_the_one_built_flag_by_flag(self, argv):
        """Help, usage, error text, exit code and parsed flags are those of
        the parser whose subcommands each add their own flags, whatever
        Python version formats them."""
        assert parse_outcome(build_parser(), argv) == parse_outcome(reference_parser(), argv)


class TestFreshProcess:
    def test_a_run_loads_configparser_only_with_a_config_file(self, tmp_path):
        """A fresh process that runs fluctuations and nr-ratio loads neither
        `numpy.ma` (which `np.percentile` imports) nor `configparser`; a run
        with a config file loads `configparser` and writes the bytes of the
        same settings given as flags."""
        (tmp_path / "sweep.ini").write_text("[nr-ratio]\nt-grid = 0.5\nm = 2\n")
        script = textwrap.dedent("""
            import json, sys
            from subshot import cli
            out = sys.argv[1]
            cli.main(["fluctuations", "--rounds", "3", "--a-grid", "0,0.6", "--m", "2",
                      "--nu", "20", "--out", out + "/fluctuations.csv"])
            cli.main(["nr-ratio", "--t-grid", "0.5", "--m", "2", "--out", out + "/flags.csv"])
            flags_only = sorted({"numpy.ma", "configparser"} & set(sys.modules))
            cli.main(["nr-ratio", "--config", out + "/sweep.ini", "--out", out + "/config.csv"])
            print(json.dumps([flags_only, "configparser" in sys.modules]))
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        env.pop(cli.CONFIG_ENV_VAR, None)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        flags_only, with_config = json.loads(proc.stdout.splitlines()[-1])
        assert flags_only == []
        assert with_config
        assert (tmp_path / "config.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()


class TestWeakHerald:
    @pytest.mark.parametrize(
        "args",
        [
            ["nr-ratio", "--eta-herald", "1e-320", "--m", "1", "--t-grid", "0.5"],
            ["intensity-sweep", "--eta-herald", "1e-307"],
            ["asymptotic", "--eta-herald", "2.2250738585072014e-308"],
            ["mc-validate", "--eta-herald", "1e-11"],
            ["fluctuations", "--eta-herald", "1e-16"],
        ],
    )
    def test_run_and_show_config_name_the_herald(self, tmp_path, capsys, args):
        """Refused by `validate` before a pump is tuned or a row built."""
        experiment, *flags = args
        for argv in (args, ["show-config", experiment, *flags]):
            assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
            assert capsys.readouterr().err.startswith("configuration error: herald_eff: ")
        assert not (tmp_path / "x.csv").exists()
