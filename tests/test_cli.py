"""CLI behavior: subcommands, config handling, exit codes, determinism."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optodicke import cli, diagram, rabi, solver
from optodicke.cli import run
from optodicke.model import ModelParams, PhaseLabel, Stability

import oracles

LINSPACE = np.linspace  # TestGridCaps replaces np.linspace

RABI_ARGV = ["rabi-compare", "--g", "0:1:3"]

# (flag, config key, value) of each knob that no command takes any more
RETIRED_KNOBS = [
    ("--tol-root", "tol_root", "1e-10"), ("--scan-points", "scan_points", "2000"),
    ("--tol-gt", "tol_gt", "1e-6"), ("--tol-curv", "tol_curv", "1e-9")]


def read_csv(path):
    text = path.read_text()
    assert text.startswith("# all quantities in units of omega_a")
    lines = text.splitlines()[1:]
    return list(csv.DictReader(lines))


class TestTurningPoint:
    def test_reference_run(self, tmp_path, capsys):
        out = tmp_path / "gt.csv"
        code = run(["turning-point", "--omega", "1", "--omega-a", "1", "--omega-b", "10",
                    "--zeta", "1.0", "--output", str(out)])
        assert code == 0
        (row,) = read_csv(out)
        assert float(row["g_t"]) == pytest.approx(1.763, abs=0.005)
        assert float(row["g_c"]) == 1.0

    def test_zeta_zero_is_solver_error(self, capsys):
        code = run(["turning-point", "--zeta", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "NotFound" in err and "zeta" in err

    def test_beyond_closure_is_solver_error(self, tmp_path):
        code = run(["turning-point", "--zeta", "3.2", "--output", str(tmp_path / "x.csv")])
        assert code == 3


class TestSweep:
    def test_dicke_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--zeta", "0", "--g", "0:3:61", "--output", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 61
        assert list(rows[0]) == [
            "g", "phase", "np_ground", "dna_ground", "nb_ground", "eps_ground",
            "np_N-", "eps_N-", "stability_N-", "np_N+", "eps_N+", "stability_N+",
            "np_gs-", "eps_gs-", "stability_gs-", "np_gus-", "eps_gus-", "stability_gus-",
            "np_gus+", "eps_gus+", "stability_gus+",
        ]
        for row in rows:
            g = float(row["g"])
            expected = 0.0 if g <= 1.0 else 0.25 * (g * g - 1.0 / (g * g))
            assert float(row["np_ground"]) == pytest.approx(expected, abs=1e-7)
            assert row["np_gus-"] == "" and row["eps_gus+"] == ""
        above = [r for r in rows if float(r["g"]) > 1.0]
        assert all(r["phase"] == "SP" and r["np_gs-"] != "" for r in above)

    def test_absent_branches_empty_beyond_fold(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--zeta", "1", "--g", "2:2.5:2", "--output", str(out)]) == 0
        rows = read_csv(out)
        for row in rows:
            assert row["phase"] == "NP_Nplus"
            assert row["np_gs-"] == "" and row["np_gus-"] == ""
            assert row["np_gus+"] != ""


class TestDeterminism:
    def test_identical_bytes_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--zeta", "1", "--g", "0:3:31"]
        assert run(argv + ["--output", str(a)]) == 0
        assert run(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_independent_of_worker_count(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--zeta", "1.5", "--g", "0:3:25"]
        monkeypatch.setenv("OPTODICKE_WORKERS", "1")
        assert run(argv + ["--output", str(a)]) == 0
        monkeypatch.setenv("OPTODICKE_WORKERS", "2")
        assert run(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_phase_diagram_workers(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["phase-diagram", "--g", "0.5:2.5:5", "--zeta", "0.5:2.5:3"]
        monkeypatch.setenv("OPTODICKE_WORKERS", "1")
        assert run(argv + ["--output", str(a)]) == 0
        monkeypatch.setenv("OPTODICKE_WORKERS", "3")
        assert run(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConfig:
    def test_defaults_from_empty_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        out = tmp_path / "roots.csv"
        assert run(["roots", "--config", str(cfg), "--g", "1.5", "--zeta", "1",
                    "--output", str(out)]) == 0
        rows = read_csv(out)
        # omega_b defaulted to 10: the stable superradiant root sits at 0.6229
        stable = [r for r in rows if r["stability"] == "stable" and r["branch"] == "normal"]
        assert float(stable[0]["np"]) == pytest.approx(0.622866850, abs=1e-6)

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 1.0}))
        out = tmp_path / "gt.csv"
        assert run(["turning-point", "--config", str(cfg), "--zeta", "1.203",
                    "--output", str(out)]) == 0
        (row,) = read_csv(out)
        assert float(row["zeta"]) == 1.203
        assert float(row["g_t"]) == pytest.approx(1.500, abs=0.005)

    def test_file_value_used_without_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 1.0, "omega_b": 10.0}))
        out = tmp_path / "gt.csv"
        assert run(["turning-point", "--config", str(cfg), "--output", str(out)]) == 0
        (row,) = read_csv(out)
        assert float(row["g_t"]) == pytest.approx(1.763, abs=0.005)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega_c": 1.0}))
        assert run(["roots", "--config", str(cfg)]) == 2
        assert "omega_c" in capsys.readouterr().err

    def test_invalid_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega_b": -1.0}))
        assert run(["roots", "--config", str(cfg), "--g", "1", "--zeta", "1"]) == 2
        assert "omega_b" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["roots", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("content", [
        b'{"x": "\xff"}',  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # nested past the decoder's recursion limit
        b'{"n_atoms": ' + b"1" * 5000 + b"}",  # past Python's int conversion limit
    ], ids=["not-utf8", "deep", "long-int"])
    def test_undecodable_json_rejected(self, content, tmp_path, capsys):
        # json.load raises no JSONDecodeError for these
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert run(["roots", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"config file {str(cfg)!r} is not valid JSON" in err

    @pytest.mark.parametrize("name, content, message", [
        ("missing.json", None, "cannot read config file"),
        (".", None, "cannot read config file"),  # the directory itself
        ("list.json", "[1, 2]", "must hold a JSON object"),
    ], ids=["missing", "directory", "not-an-object"])
    def test_unreadable_or_non_object_config_rejected(self, name, content, message, tmp_path,
                                                      capsys):
        cfg = tmp_path / name
        if content is not None:
            cfg.write_text(content)
        assert run(["roots", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"config file {str(cfg)!r}" in err and message in err

    @pytest.mark.parametrize("flag, key, value", RETIRED_KNOBS)
    def test_retired_knobs_rejected(self, flag, key, value, tmp_path, capsys):
        # the solver is closed form: no root tolerance, root scan or g_t
        # tolerance, and no marginal band
        assert run(["turning-point", "--zeta", "1", flag, value]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: float(value)}))
        assert run(["turning-point", "--zeta", "1", "--config", str(cfg)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_bad_flag_value(self, tmp_path):
        assert run(["sweep", "--g", "3:0:10"]) == 2
        assert run(["sweep", "--g", "abc"]) == 2
        assert run(["roots", "--g", "abc"]) == 2
        # integers beyond the range of a double, from a flag and from a config file
        assert run(["rabi-compare", "--g", "1", "--n-max", "1" + "0" * 400]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_atoms": 1e400}')
        assert run(["roots", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("argv, key", [
        (["rabi-compare", "--g", "0:1:3", "--n-max", "10"], "zeta"),
        (["sp-closure"], "zeta"),
        (["turning-point", "--zeta", "1"], "g"),
        (["sweep", "--g", "0:1:3"], "n_max"),
        (["roots", "--g", "1"], "detuning"),
        (["roots", "--g", "1"], "command"),
        (["roots", "--g", "1"], "config"),
        (["roots", "--g", "1"], "help"),
        (["roots", "--g", "1"], "omega-b"),  # a key names the flag's dest, not the flag
    ])
    def test_key_the_command_has_no_flag_for_rejected(self, argv, key, tmp_path, capsys):
        # an entry is read as its flag, so a key the command has no flag for is
        # rejected, even one another command takes: no value is silently dropped
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1.0}))
        assert run([*argv, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unknown config key {key!r}" in err

    @pytest.mark.parametrize("entry, message, argv", [
        # a value that is no string is read as its JSON text
        ({"n_atoms": 2.0}, "argument --n-atoms: invalid int value: '2.0'", RABI_ARGV),
        ({"n_max": 40.0}, "argument --n-max: invalid int value: '40.0'", RABI_ARGV),
        ({"omega": True}, "argument --omega: invalid float value: 'true'", RABI_ARGV),
        ({"omega": None}, "argument --omega: invalid float value: 'null'", RABI_ARGV),
        ({"format": "xml"}, "argument --format: invalid choice: 'xml'", RABI_ARGV),
        ({"detuning": "green"}, "argument --detuning: invalid choice: 'green'", RABI_ARGV),
        # couplings, grids and bounded values are typed by their flags too
        ({"g": "x"}, "argument --g: expects min:max:count or a number, got 'x'", ["sweep"]),
        ({"zeta": "1:0:3"}, "argument --zeta: need min < max and count >= 2, got '1:0:3'",
         ["phase-diagram", "--g", "0:1:3"]),
        ({"g": "0:inf:3"}, "argument --g: grid ends must be finite, got '0:inf:3'",
         ["rabi-compare"]),
        ({"zeta": "abc"}, "argument --zeta: invalid float value: 'abc'", ["roots"]),
        ({"zeta": "x"}, "argument --zeta: invalid float value: 'x'", ["turning-point"]),
        ({"n_max": 1}, f"argument --n-max: n_max must be in [2, {cli.MAX_N_MAX}], got 1",
         RABI_ARGV),
        ({"width_tol": 0}, "argument --width-tol: --width-tol must be finite and > 0, got 0.0",
         ["sp-closure"]),
    ])
    def test_badly_typed_value_named_by_its_flag(self, entry, message, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        assert run([*argv, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err
        assert err.endswith(f"optodicke: invalid input: the error above is in config file "
                            f"{str(cfg)!r}\n")
        # the same value on the command line gets the same message, and no file line
        (key, value), = entry.items()
        text = value if isinstance(value, str) else json.dumps(value)
        assert run([*argv, f"--{key.replace('_', '-')}={text}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err and "config file" not in err

    def test_every_flag_value_is_typed_by_the_parser(self):
        # a flag with neither type nor choices would leave its text to a command to parse
        for command, parser in cli._build_parser().commands.items():
            for action in parser._actions:
                flag = action.option_strings[-1] if action.option_strings else None
                if flag not in (None, "--help", "--config", "--output"):
                    assert action.type is not None or action.choices, (command, flag)

    @pytest.mark.parametrize("path", ["a\u0000b", "\ud800"], ids=["nul", "lone-surrogate"])
    def test_unwritable_output_path(self, path, tmp_path, monkeypatch, capsys):
        # only a config file can carry these: open() raises ValueError, not OSError
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"output": path}))
        assert run(["turning-point", "--zeta", "1", "--config", "cfg.json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("optodicke: cannot write output: ")
        assert err.count("\n") == 1 and os.listdir(tmp_path) == ["cfg.json"]

    def test_bad_command_line_flag_does_not_name_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 1.0}))
        assert run(["roots", "--g", "1.5", "--config", str(cfg), "--n-atoms", "2.0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --n-atoms: invalid int value: '2.0'" in err
        assert str(cfg) not in err and "config file" not in err

    @pytest.mark.parametrize("entries, flags, omega", [
        ({"omega": 1.2}, ["--omega", "0.9"], "0.9"),  # a flag beats the file
        ({"omega": 1.2}, ["--detuning", "red"], "0.8"),  # --detuning beats a file's omega
        ({"detuning": "blue"}, ["--detuning", "red"], "0.8"),
        ({"detuning": "red"}, [], "0.8"),
        ({"detuning": "red"}, ["--omega", "1.1"], "1.1"),  # --omega beats --detuning
        ({"omega": 1.1, "detuning": "red"}, [], "1.1"),  # in the file as on the command line
        ({"omega": 1.1, "detuning": "red"}, ["--detuning", "blue"], "1.2"),
    ])
    def test_omega_precedence(self, entries, flags, omega, tmp_path, capsys):
        argv = ["rabi-compare", "--g", "0:1.5:4", "--n-max", "20"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        got = _run_captured([*argv, "--config", str(cfg), *flags], capsys)
        assert got == _run_captured([*argv, "--omega", omega], capsys) and got[0] == 0

    def test_value_that_begins_with_a_dash(self, tmp_path, monkeypatch, capsys):
        # an entry is one --flag=value token, so a value may look like a flag
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"output": "-x.csv", "zeta": "-1"}))
        assert run(["turning-point", "--config", "cfg.json", "--zeta", "1"]) == 0
        assert (tmp_path / "-x.csv").read_text().splitlines()[1] == "zeta,g_c,g_t"
        assert run(["turning-point", "--config", "cfg.json"]) == 2
        assert "zeta must be >= 0, got -1.0" in capsys.readouterr().err

    def test_huge_integer_n_atoms_accepted(self, capsys):
        # n_atoms stays an int (scaled quantities do not depend on it), never a float
        argv = ["roots", "--g", "1.5", "--zeta", "1"]
        huge = _run_captured([*argv, "--n-atoms", "1" + "0" * 400], capsys)
        assert huge == _run_captured(argv, capsys) and huge[0] == 0

    def test_unknown_subcommand_exit_two(self):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv", [
        ["roots", "--g", "nan", "--zeta", "1"],
        ["roots", "--g", "inf", "--zeta", "1"],
        ["turning-point", "--zeta", "nan"],
        ["rabi-compare", "--g", "nan"],
        ["rabi-compare", "--g", "1", "--omega", "inf"],
        ["rabi-compare", "--g", "0:inf:3"],
    ])
    def test_non_finite_rejected(self, argv, capsys):
        assert run(argv) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_bad_worker_count_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("OPTODICKE_WORKERS", "abc")
        assert run(["sweep", "--g", "0:1:3"]) == 2
        assert "OPTODICKE_WORKERS" in capsys.readouterr().err

    def test_bad_worker_count_rejected_by_phase_diagram(self, monkeypatch, capsys):
        monkeypatch.setenv("OPTODICKE_WORKERS", "abc")
        assert run(["phase-diagram", "--g", "0:1:3", "--zeta", "0:1:2"]) == 2
        assert "OPTODICKE_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["roots", "--g", "1", "--zeta", "1"],
                                      ["turning-point", "--zeta", "1"], ["sp-closure"]])
    def test_bad_worker_count_rejected_by_every_command(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("OPTODICKE_WORKERS", "abc")
        assert run(argv) == 2
        assert "OPTODICKE_WORKERS must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["phase-diagram", "--g=-1:3:5", "--zeta", "0:1:2"],
        ["phase-diagram", "--g", "0:3:5", "--zeta=-1:1:2"],
        ["sweep", "--g=-1:3:5", "--zeta", "1"],
        # spans past the largest double, which np.linspace would fill with NaN
        ["sweep", "--g=-1.7e308:1.7e308:3"],
        ["phase-diagram", "--g", "0:1:3", "--zeta=-1e308:1e308:3"],
    ])
    def test_negative_grid_start_rejected(self, argv, capsys):
        assert run(argv) == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_bad_grid_shape_rejected(self, capsys):
        for argv, message in [
            (["sweep", "--g", "0:1:1"], "need min < max and count >= 2"),
            (["sweep", "--g", "2:1:3"], "need min < max and count >= 2"),
            (["phase-diagram", "--zeta", "1:0:3"], "need min < max and count >= 2"),
            (["phase-diagram", "--zeta", "0:1:1"], "need min < max and count >= 2"),
            # a bare number is no grid
            (["sweep", "--g", "1.5"], "--g needs a grid min:max:count, got the number 1.5"),
            (["sweep"], "--g needs a grid min:max:count, got the number 0.0"),
            (["phase-diagram", "--g", "0:1:3", "--zeta", "1"],
             "--zeta needs a grid min:max:count, got the number 1.0"),
            (["sweep", "--g", "0:1:3", "--omega-b", "-1"], "omega_b must be > 0"),
            # unused by the ED, but checked by ModelParams as in every other command
            (["rabi-compare", "--g", "0:1:3", "--omega-b", "-1"], "omega_b must be > 0"),
        ]:
            assert run(argv) == 2, argv
            assert message in capsys.readouterr().err, argv

    @pytest.mark.parametrize("argv", [
        ["sweep", "--g", "-1:3:5"],
        ["roots", "--g", "-1e-3"],
        ["phase-diagram", "--zeta", "-1:2:3"],
        ["roots", "--omega", "-1e-3"],
        ["rabi-compare", "--g", "-.5:1:3"],
        ["sweep", "-o", "-", "--g", "-1:3:5"],
    ])
    def test_negative_value_after_a_space(self, argv, capsys):
        # a value that begins -<digit> or -.<digit> is the flag's value, as in --flag=value
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        assert _run_captured(argv, capsys)[::2] == _run_captured(joined, capsys)[::2]
        assert _run_captured(argv, capsys)[0] == 2


class TestGridCaps:
    """Counts above the caps exit 2 before any grid array is allocated."""

    @pytest.fixture(autouse=True)
    def no_grids(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid was allocated")
        monkeypatch.setattr(np, "linspace", refuse)

    @pytest.mark.parametrize("command", ["sweep", "rabi-compare"])
    def test_grid_count(self, command, capsys):
        assert run([command, "--g", f"0:1:{cli.MAX_GRID_COUNT + 1}"]) == 2
        assert "exceeds the cap" in capsys.readouterr().err

    def test_zeta_count(self, capsys):
        assert run(["phase-diagram", "--g", "0:1:3",
                    "--zeta", f"0:1:{cli.MAX_GRID_COUNT + 1}"]) == 2
        assert "exceeds the cap" in capsys.readouterr().err

    def test_phase_diagram_cells(self, capsys):
        side = math.isqrt(cli.MAX_GRID_CELLS)
        assert side * (side + 1) > cli.MAX_GRID_CELLS and side + 1 <= cli.MAX_GRID_COUNT
        assert run(["phase-diagram", "--g", f"0:3:{side}", "--zeta", f"0:3:{side + 1}"]) == 2
        assert "cells exceed the cap" in capsys.readouterr().err

    def test_n_max(self, capsys):
        assert run(["rabi-compare", "--g", "0:1:3", "--n-max", str(cli.MAX_N_MAX + 1)]) == 2
        assert "n_max must be in" in capsys.readouterr().err

    def test_at_the_caps(self, monkeypatch):
        # the caps themselves are accepted (checked without solving anything);
        # np.linspace builds only the two axes, of 1000 points each
        side = math.isqrt(cli.MAX_GRID_CELLS)

        def axis(lo, hi, count):
            assert count <= side
            return LINSPACE(lo, hi, count)

        monkeypatch.setattr(np, "linspace", axis)
        none, no_labels = np.empty(0), np.empty(0, dtype=int)
        empty = diagram.PhaseGrid(g=none, zeta=none, phase=no_labels, boundary_zeta=none,
                                  boundary_g=none, boundary_below=no_labels,
                                  boundary_above=no_labels)
        monkeypatch.setattr(diagram, "phase_grid", lambda params, g, zeta: empty)
        assert run(["phase-diagram", "--g", f"0:3:{side}", "--zeta", f"0:3:{side}"]) == 0


class TestJsonOutput:
    def test_round_trip_matches_quantized_values(self, tmp_path):
        out_json = tmp_path / "sweep.json"
        out_csv = tmp_path / "sweep.csv"
        argv = ["sweep", "--zeta", "1", "--g", "0.5:2.5:9"]
        assert run(argv + ["--format", "json", "--output", str(out_json)]) == 0
        assert run(argv + ["--output", str(out_csv)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["units"] == "all quantities in units of omega_a"
        rows_json = payload["rows"]
        rows_csv = read_csv(out_csv)
        assert len(rows_json) == len(rows_csv) == 9
        for rj, rc in zip(rows_json, rows_csv):
            for key, value in rj.items():
                if isinstance(value, float):
                    # 9-significant-digit quantization is shared by both formats
                    assert float(f"{value:.9g}") == value
                    assert float(rc[key]) == value
                elif value is None:
                    assert rc[key] == ""
                else:
                    assert rc[key] == str(value)

    def test_float_text_referee(self, capsys):
        # random bit patterns, subnormals, signed zeros, infinities and NaN, as
        # one float column: CSV text is f"{v:.9g}" (so also the %-format of
        # every double), JSON text json.dumps of that value, NaN absent
        rng = np.random.default_rng(2017)
        values = np.concatenate([
            rng.integers(-2**63, 2**63, size=200_000, dtype=np.int64).view(np.float64),
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
             1e-310, 1.7976931348623157e308, 0.1, 1e16, 123456789.5, 999999999.5]])
        csv_ref = [f"{v:.9g}" for v in values.tolist()]
        json_ref = json.dumps(list(map(float, csv_ref)))[1:-1].split(", ")
        absent = np.isnan(values).tolist()
        cli._emit(argparse.Namespace(format="csv", output="-"), ["v"], [values])
        assert capsys.readouterr().out.split("\r\n")[2:-1] == [
            "" if a else t for a, t in zip(absent, csv_ref)]
        cli._emit(argparse.Namespace(format="json", output="-"), ["v"], [values])
        key = '      "v": '
        assert [line[len(key):] for line in capsys.readouterr().out.splitlines()
                if line.startswith(key)] == ["null" if a else t for a, t in zip(absent, json_ref)]

    def test_roots_json(self, tmp_path):
        out = tmp_path / "roots.json"
        assert run(["roots", "--g", "2", "--zeta", "1", "--format", "json",
                    "--output", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert {r["branch"] for r in rows} == {"normal", "inverted"}


@pytest.mark.parametrize("g, zeta", [(1.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.5, 0.0), (1.2, 4.0)],
                         ids=["window", "at-g_c", "beyond-fold", "zeta-0", "closed-window"])
def test_roots_rows_against_the_scan_oracle(g, zeta, capsys):
    # the roots command's rows: the normal branch's before the inverted one's,
    # each opening with its zero point, then its positive roots, those of the
    # sign-scan oracle; each stability label is the sign of the curvature
    assert run(["roots", "--g", repr(g), "--zeta", repr(zeta), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    branches = [row["branch"] for row in rows]
    assert branches == sorted(branches, key=["normal", "inverted"].index)
    for sign, name in ((-1, "normal"), (+1, "inverted")):
        gamma_bar = [row["gamma_bar"] for row in rows if row["branch"] == name]
        assert gamma_bar[:1] == [0.0] and 0.0 not in gamma_bar[1:], name
        x = [value * value for value in gamma_bar[1:]]
        assert x == pytest.approx(oracles.scan_roots(sign, g, zeta, 1.0, 1.0, 10.0), rel=1e-7)
    for row in rows:
        curv = row["curvature"]
        assert row["stability"] == ("stable" if curv > 1e-9 else
                                    "unstable" if curv < -1e-9 else "marginal"), row


def test_no_twin_of_the_zero_point_at_critical_coupling(capsys):
    # omega = 2 puts g_c = sqrt(2) on a double whose square rounds above
    # omega*omega_a.  At g == g_c the zero point is marginal and its twin, an
    # excess of rounding size, is no root: as at zeta = 0, and in the sweep row
    flags = ["--zeta", "2.971977623041274", "--omega", "2", "--omega-b", "10"]
    assert run(["roots", "--g", "1.4142135623730951", *flags]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
    assert [(row["branch"], row["stability"]) for row in rows] == [
        ("normal", "marginal"), ("normal", "unstable"), ("inverted", "stable"),
        ("inverted", "unstable")]
    assert float(rows[1]["np"]) == pytest.approx(0.688314509, rel=1e-8)
    assert run(["sweep", "--g", "0:2.8284271247461903:3", *flags]) == 0
    row = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))[1]
    assert row["g"] == "1.41421356" and row["stability_N-"] == "marginal"
    assert row["np_gs-"] == "" and row["np_gus-"] == rows[1]["np"]


class TestRabiCompare:
    def test_bound_column(self, tmp_path):
        out = tmp_path / "rabi.csv"
        assert run(["rabi-compare", "--g", "0:3:13", "--n-max", "120",
                    "--output", str(out)]) == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["g", "energy_ed", "energy_variational", "deviation"]
        assert all(float(r["deviation"]) >= -1e-8 for r in rows)

    def test_detuning_preset(self, tmp_path):
        out = tmp_path / "red.csv"
        assert run(["rabi-compare", "--g", "0:1:3", "--n-max", "60", "--detuning", "red",
                    "--output", str(out)]) == 0
        rows = read_csv(out)
        # red preset means omega = 0.8: variational energy leaves -1/2 at
        # g_c = sqrt(0.8) < 1
        assert float(rows[-1]["energy_variational"]) == pytest.approx(
            -(0.8 / 4) * (1 / 0.64 + 1), rel=1e-8)

    def test_explicit_omega_beats_preset(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["rabi-compare", "--g", "0:1:3", "--n-max", "60", "--detuning", "red",
                    "--omega", "1.0", "--output", str(out)]) == 0
        rows = read_csv(out)
        assert float(rows[-1]["energy_variational"]) == -0.5

    def test_convergence_failure_is_solver_error(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise rabi.ConvergenceFailure("block is malformed")

        monkeypatch.setattr(rabi, "compare_columns", fail)
        assert run(["rabi-compare", "--g", "0:1:3"]) == 3
        assert capsys.readouterr().err == (
            "optodicke: solver failure: ConvergenceFailure: block is malformed\n")

    def test_independent_of_worker_count(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["rabi-compare", "--g", "0:3:61"]
        monkeypatch.setenv("OPTODICKE_WORKERS", "1")
        assert run(argv + ["--output", str(a)]) == 0
        monkeypatch.setenv("OPTODICKE_WORKERS", "2")
        assert run(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_worker_count_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("OPTODICKE_WORKERS", "abc")
        assert run(["rabi-compare", "--g", "1"]) == 2
        assert "OPTODICKE_WORKERS" in capsys.readouterr().err


    def test_zero_atoms_rejected(self, capsys):
        # 0 atoms is invalid input as elsewhere
        assert run(["rabi-compare", "--g", "0:1:3", "--n-atoms", "0"]) == 2
        assert "n_atoms must be a positive integer" in capsys.readouterr().err

    def test_many_atoms_rejected(self, capsys):
        # the ED is that of one atom; it must not print the N = 1 table for N = 2 or 16
        for n_atoms in ("2", "16"):
            assert run(["rabi-compare", "--g", "0:1:3", "--n-atoms", n_atoms]) == 2
            out, err = capsys.readouterr()
            assert out == "" and f"n_atoms must be 1 for the one-atom (Rabi) ED, got {n_atoms}" in err


class TestSpClosure:
    def test_coarse_width(self, tmp_path):
        out = tmp_path / "closure.csv"
        assert run(["sp-closure", "--width-tol", "0.05", "--output", str(out)]) == 0
        (row,) = read_csv(out)
        star = float(row["zeta_star"])
        assert 2.0 < star < 2.5
        assert float(row["zeta_estimate"]) == pytest.approx(math.sqrt(10.0), rel=1e-9)

    def test_huge_width_tol(self, tmp_path):
        # the window is that wide only where zeta is tiny: g_t ~ sqrt(omega_b) (omega/1.5)^1.5 / zeta
        out = tmp_path / "closure.csv"
        assert run(["sp-closure", "--width-tol", "1e300", "--output", str(out)]) == 0
        (row,) = read_csv(out)
        assert float(row["zeta_star"]) == pytest.approx(
            math.sqrt(10.0) * (1.0 / 1.5) ** 1.5 / 1e300, rel=1e-8)

    def test_underflowing_closure_estimate_rejected(self, capsys):
        assert run(["sp-closure", "--omega", "1e-300"]) == 2
        assert "underflows to 0" in capsys.readouterr().err

    @pytest.mark.parametrize("width_tol", ["0", "nan", "-1", "inf"])
    def test_bad_width_tol_rejected(self, width_tol, capsys):
        assert run(["sp-closure", "--width-tol", width_tol]) == 2
        assert "--width-tol must be finite and > 0" in capsys.readouterr().err


def test_stdout_default(capsys):
    assert run(["roots", "--g", "0.5", "--zeta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# all quantities in units of omega_a")
    assert "branch" in out.splitlines()[1]


def _run_captured(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_parser_reuse_leaks_nothing(capsys):
    # the parser is built once per process; flags and defaults of one call
    # must not carry over into the next
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    calls = [["sweep", "--zeta", "1", "--g", "0:3:7"], ["turning-point", "--omega-b", "5"],
             ["sweep", "--g", "0:3:7"]]
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "optodicke.cli", *argv], env=env,
                               capture_output=True)
        assert _run_captured(argv, capsys) == (fresh.returncode, fresh.stdout.decode(),
                                               fresh.stderr.decode())


# g or zeta at the edge of double range.  The finite cases are checked against
# the closed forms of their limits: the g -> 0 root omega*omega_b/(2 zeta^2) on
# both branches, and for zeta -> 0 the Dicke root g^2/4 - 1/(4 g^2) next to it.
EXTREME = {
    ("1e-170", "1"): {"normal": [5.0], "inverted": [5.0]},
    ("2", "1e-103"): {"normal": [0.9375, 5e206], "inverted": [5e206]},
    ("1", "1e200"): None,  # zeta^2 overflows
    ("2", "1e-160"): None,  # the root omega*omega_b/(2 zeta^2) overflows
}


def _check_extreme(argv, expected, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run_captured(argv, capsys)
    if expected is None:
        assert code == 2 and out == ""
        assert "outside the supported range" in err and "Traceback" not in err
        return None
    assert code == 0 and err == ""
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert all(math.isfinite(float(v)) for row in rows for k, v in row.items()
               if v and k not in ("branch", "phase") and not k.startswith("stability"))
    return rows


@pytest.mark.parametrize("g, zeta", list(EXTREME))
def test_roots_at_extreme_g_and_zeta(g, zeta, capsys):
    expected = EXTREME[(g, zeta)]
    rows = _check_extreme(["roots", "--g", g, "--zeta", zeta], expected, capsys)
    if rows is not None:
        for branch, xs in expected.items():
            got = [float(r["np"]) for r in rows if r["branch"] == branch][1:]
            assert got == pytest.approx(xs, rel=1e-8)


@pytest.mark.parametrize("g, zeta", list(EXTREME))
def test_sweep_at_extreme_g_and_zeta(g, zeta, capsys):
    expected = EXTREME[(g, zeta)]
    rows = _check_extreme(["sweep", "--g", f"0:{g}:2", "--zeta", zeta], expected, capsys)
    if rows is not None:
        row = rows[1]
        normal = [float(row[f"np_{t}"]) for t in ("gs-", "gus-") if row[f"np_{t}"]]
        assert sorted(normal) == pytest.approx(expected["normal"], rel=1e-8)
        assert float(row["np_gus+"]) == pytest.approx(expected["inverted"][0], rel=1e-8)


def test_phase_diagram_zeta_past_double_range(capsys):
    # a phase diagram solves no stationary point, so a zeta whose square does not
    # fit in a double is no error: g_c, g_t and closure_estimate all fit.  The exit
    # code is the same whether a cell lands on g_c = 1 (the first grid) or not.
    lines = []
    for g in ("0:3:4", "0:3:5"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["phase-diagram", "--g", g, "--zeta", "3:1e200:2"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines.append(out.splitlines())
    # at g_c: N- below closure_estimate = sqrt(10), N+ past it
    assert {"cell,3,1,NP_Nminus,", "cell,1e+200,1,NP_Nplus,"} <= set(lines[0])
    assert lines[0][-2:] == lines[1][-2:] == ["boundary,3,1,NP_Nminus,SP",
                                              "boundary,1e+200,1,NP_Nminus,NP_Nplus"]


@pytest.mark.parametrize("argv, code, message", [
    # every point fits in doubles: g < g_c = 1e150, so N- throughout
    (["sweep", "--g", "0:3:5", "--omega", "1e300"], 0, ""),
    # omega^2 overflows in the superradiant root above g_c
    (["sweep", "--g", "1e151:1e152:3", "--omega", "1e300"], 2, "outside the supported range"),
    (["phase-diagram", "--g", "0:1e300:3", "--zeta", "0:1:2"], 0, ""),
    # g = 0 < g_c = 1e-150: N- is a strict minimum, of curvature 2e-300, and the
    # ground state; above g_c the window is closed (zeta > closure_estimate)
    (["sweep", "--g", "0:3:5", "--omega", "1e-300", "--zeta", "1"], 0,
     "0,NP_Nminus,0,-0.5,0,-0.5,0,-0.5,stable,"),
    # the cell at g_c, past closure_estimate = 4.5e-13: N+, with no point solved
    (["phase-diagram", "--g", f"{2.0**248!r}:{2.0**249!r}:2", "--zeta", "1:10:2",
      "--omega", repr(2.0**496), "--omega-b", "5e-324"], 0, "cell,1,4.52312849e+74,NP_Nplus,"),
    # the stationary points do not fit in doubles here (the sweep of
    # test_outside_the_domain), but a phase diagram needs only g_c and g_t
    (["phase-diagram", "--omega", "2.3773359643333753e-39", "--omega-a", "1e-150",
      "--g", "0:1e50:3", "--zeta", "0:1e50:2"], 0, "cell,1e+50,5e+49,NP_Nplus,"),
])
def test_huge_and_tiny_parameters(argv, code, message, capsys):
    # message is in stdout on success, in stderr otherwise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == code
    out, err = capsys.readouterr()
    assert message in (out if code == 0 else err)


def test_out_of_range_names_the_smallest_failing_coupling(capsys):
    # at zeta = 1e-76 the inverted root overflows from g = 4.5e77 on, the
    # normal roots only at 8e77: the message names the smaller coupling
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sweep", "--g", "1e77:8e77:3", "--zeta", "1e-76"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("optodicke: invalid input: g=4.5e+77, zeta=1e-76 ")


@pytest.mark.parametrize("argv, message", [
    # the ED's domain, stated in rabi.ed_couplings
    (["rabi-compare", "--g", "0:3:3", "--omega", "1e-300", "--n-max", "20"], "omega must be in"),
    (["rabi-compare", "--g", "1e300", "--n-max", "50"], "g must be in"),
    (["rabi-compare", "--g", "0:1e300:3", "--n-max", "50"], "g must be in"),
    (["rabi-compare", "--g", "1:1.0000000000000002e50:3", "--n-max", "50"], "g must be in"),
    (["rabi-compare", "--g", "1", "--omega", "1e300", "--n-max", "50"], "omega must be in"),
    (["rabi-compare", "--g", "1", "--omega-a", "1e100", "--n-max", "50"], "omega_a must be in"),
    # omega_a**2 in the model's closed forms, stated in ModelParams
    (["roots", "--g", "1", "--omega-a", "1e300", "--zeta", "1"], "omega_a must be <= 1e+150"),
    (["sweep", "--g", "0:3:5", "--omega-a", "1e300", "--zeta", "1"], "omega_a must be <= 1e+150"),
    # omega**2 in the closure coupling
    (["sp-closure", "--omega", "1e300"], "outside the range of the closure coupling"),
    (["turning-point", "--omega", "1e300", "--zeta", "1"], "outside the range of the closure"),
    # the closure coupling sqrt(omega_b/omega_a)*omega = 1e300 fits, but the closed
    # form of zeta_star overflows; then sqrt(omega_b/omega_a) itself overflows
    (["sp-closure", "--omega", "1e150", "--omega-b", "1e300"], "outside the range of the closure"),
    (["turning-point", "--zeta", "1e-300", "--omega", "1e150", "--omega-a", "1e-50",
      "--omega-b", "1e300"], "outside the range of the closure"),
    # the phonon number (zeta*n_p/omega_b)^2 overflows where n_p itself fits
    (["roots", "--omega-b", "4.046207997021028e-185", "--g", "1e50",
      "--zeta", "7.326211170790973e-157"], "outside the supported range"),
    (["sweep", "--omega", "1e150", "--omega-b", "1e-300", "--g", "0:4.4613934136508984e+73:3",
      "--zeta", "1e-50"], "outside the supported range"),
    # the closure coupling fits, g_t does not
    (["turning-point", "--zeta", "1e-300", "--omega", "1e150", "--omega-a", "1e-50"],
     "g_t exceeds the largest double"),
    (["turning-point", "--zeta", "1e-310"], "g_t exceeds the largest double"),
    # zeta^2 overflows, and at g = 0 the zero point's curvature is 0/0 (g^2 over an
    # A^3 = omega_a^3 that underflows): the stationary points must not warn
    (["sweep", "--omega", "2.3773359643333753e-39", "--omega-a", "1e-150",
      "--g", "0:1e50:3", "--zeta", "1e50"], "outside the supported range"),
    # the closed form of zeta_star: its denominator underflows to 0, and g_c^2 underflows
    (["sp-closure", "--omega", "1.3713377659722352e-295", "--width-tol",
      "1.4149466218321612e-36"], "outside the range of the closure coupling's closed form"),
    (["sp-closure", "--omega", "9.498801589929211e-140", "--omega-a", "1.3802052338300373e-287",
      "--width-tol", "5e-324"], "outside the range of the closure coupling's closed form"),
    # ModelParams checks rabi-compare's input before the ED's domain does
    (["rabi-compare", "--g", "1", "--omega-a", "1e300", "--n-max", "50"],
     "omega_a must be <= 1e+150"),
    (["rabi-compare", "--g=-1:1:3", "--n-max", "50"], "g must be >= 0"),
    (["rabi-compare", "--g", "0:1:3", "--omega", "0"], "omega must be > 0"),
    (["turning-point", "--zeta", "-0.3"], "zeta must be >= 0, got -0.3"),
    # a grid up to the largest double: np.linspace's k*step overflows at its last point
    (["sweep", "--g", "0:1.7976931348623157e308:61"], "outside the supported range"),
])
def test_outside_the_domain(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("optodicke: invalid input: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv", [
    ["rabi-compare", "--g", "1e4", "--n-max", "50"],
    ["rabi-compare", "--g", "0:1e50:3", "--omega", "1e-50", "--omega-a", "1e50", "--n-max", "50"],
    ["rabi-compare", "--g", "0:1e50:3", "--omega", "1e50", "--omega-a", "1e-50", "--n-max", "50"],
    ["roots", "--g", "1", "--omega-a", "1e150", "--zeta", "1"],
    ["sp-closure", "--omega", "1e150"],
    # omega_b*omega^2/omega_a overflows, the closure coupling and g_t do not
    ["turning-point", "--zeta", "1", "--omega", "1e150", "--omega-a", "1e-50"],
    ["sp-closure", "--omega", "1e150", "--omega-a", "1e-50"],
])
def test_edges_of_the_domain(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    body = out.splitlines()[2:]
    assert body and all(math.isfinite(float(v)) for line in body for v in line.split(",")
                        if v not in ("normal", "inverted", "stable", "unstable", "marginal"))


def test_closure_coupling_formed_without_its_square(capsys):
    # omega_b*omega^2/omega_a = 1e351 does not fit in a double; the fold does
    flags = ["--omega", "1e150", "--omega-a", "1e-50"]
    assert run(["turning-point", "--zeta", "1", *flags]) == 0
    assert capsys.readouterr().out.splitlines()[2] == "1,1e+50,1.72132593e+225"
    assert run(["sweep", "--g", "0:3:3", "--zeta", "1", *flags]) == 0


@pytest.mark.parametrize("argv", [["sweep", "--g", "0:3:7", "--zeta", "1"],
                                  ["phase-diagram", "--g", "0:3:7", "--zeta", "0:1:3"],
                                  ["roots", "--g", "1", "--zeta", "1"],
                                  ["turning-point", "--zeta", "1"],
                                  ["sp-closure"],
                                  ["rabi-compare", "--g", "0:3:7"]])
def test_value_error_inside_the_solve_is_not_invalid_input(argv, monkeypatch, capsys):
    # inputs are checked before the solve, so an error raised by the solve
    # itself propagates instead of being reported as the user's (exit 2)
    def fail(*args, **kwargs):
        raise ValueError("raised inside the solve")

    inside = {  # a call each command makes after its input checks
        "roots": "optodicke.cli.find_roots",
        "sweep": "optodicke.diagram.solve_ground",
        "phase-diagram": "optodicke.diagram.critical_coupling",
        "turning-point": "optodicke.cli.turning_point",
        "sp-closure": "optodicke.cli.sp_closure",
        "rabi-compare": "optodicke.rabi._ground_rows",
    }
    monkeypatch.setattr(inside[argv[0]], fail)
    with pytest.raises(ValueError, match="raised inside the solve"):
        run(argv)
    assert "invalid input" not in capsys.readouterr().err


def test_sweep_and_phase_diagram_build_no_row_objects(monkeypatch):
    # Results are columns: one BranchPoints, both branches, for a whole sweep
    # or a roots call, from one call of the root kernel, and none for a phase
    # diagram, whose cells are labelled from g_c and g_t
    built, kernel_calls = [], []
    branch_points_class, kernel = solver.BranchPoints, solver._points

    def counting(*args, **kwargs):
        built.append(None)
        return branch_points_class(*args, **kwargs)

    def counting_kernel(*args, **kwargs):
        kernel_calls.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(solver, "BranchPoints", counting)
    monkeypatch.setattr(solver, "_points", counting_kernel)
    # g = 1 = g_c is a marginal row, and a marginal cell of every zeta row
    for argv, count, calls in ((["sweep", "--g", "0:3:301", "--zeta", "1"], 1, 1),
                               (["phase-diagram", "--g", "0:3:61", "--zeta", "0:3:61"], 0, 0),
                               (["roots", "--g", "1", "--zeta", "1"], 1, 1)):
        built.clear()
        kernel_calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0
        assert (len(built), len(kernel_calls)) == (count, calls), argv
    for g, zeta in ((0.5, 0.0), (1.0, 1.0), (1.5, 1.0), (2.0, 1.0)):
        kernel_calls.clear()
        solver.ground_state(ModelParams(g=g, zeta=zeta))
        assert len(kernel_calls) == 1, (g, zeta)


_LABELS = ([p.value for p in PhaseLabel] + [s.value for s in Stability]
           + ["normal", "inverted", "cell", "boundary"])
# A small pool drawn often, so that columns repeat values: the writer formats
# each distinct bit pattern once.  1.0 and the next double print alike.
_REPEATED = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.0,
                             math.nextafter(1.0, 2.0), 0.1, -2.5e-7])
_FLOATS = st.one_of(_REPEATED,
                    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf,
                                     -math.inf, 5e-324, -5e-324, 2.5e-310, -1e-320]),
                    st.integers(-10**12, 10**12).map(float), st.floats(allow_nan=False))


def _per_row_writer(fmt, fieldnames, rows):
    """The writer the column writer replaced: csv.writer fed f"{v:.9g}" per float value."""
    if fmt == "json":
        def quantize(v):
            return float(f"{v:.9g}") if isinstance(v, float) else v
        rows = [dict(zip(fieldnames, map(quantize, row))) for row in rows]
        return json.dumps({"units": cli.UNITS_NOTE, "rows": rows}, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(f"# {cli.UNITS_NOTE}\r\n")
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    writer.writerows([f"{v:.9g}" if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def _rows(columns):
    """The rows of the columns' values, NaN as None; a coded column is decoded here,
    as table[i] for each of its codes i, and an Enum label stands for its value.
    A tuple of Python floats is one row."""
    if isinstance(columns, tuple):
        return [[None if math.isnan(v) else v for v in columns]]
    values = []
    for column in columns:
        if isinstance(column, np.ndarray):
            column = column.tolist()
        else:
            codes, table = column
            table = table.tolist() if isinstance(table, np.ndarray) else table
            column = [table[i] for i in codes]
        values.append([None if isinstance(v, float) and math.isnan(v) else
                       v.value if isinstance(v, Enum) else v for v in column])
    return [list(row) for row in zip(*values)]


def _json_reference(fieldnames, columns):
    """json.dumps of the payload: 9-digit floats, None for NaN and absent labels."""
    return _per_row_writer("json", fieldnames, _rows(columns))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["csv", "json"]))
def test_column_writer_matches_per_row_writer(data, fmt):
    # every command emits at least two columns: float arrays, and (codes, table)
    # columns over a float or a label table, whose codes may repeat entries or
    # leave some unused; NaN and None are absent values
    n_rows = data.draw(st.integers(0, 6))
    columns = []
    for kind in data.draw(st.lists(st.sampled_from(["floats", "float table", "label table"]),
                                   min_size=2, max_size=6)):
        if kind == "floats":
            columns.append(np.array(data.draw(st.lists(_FLOATS, min_size=n_rows,
                                                       max_size=n_rows)), dtype=float))
            continue
        entry = (_FLOATS if kind == "float table"
                 else st.one_of(st.none(), st.sampled_from(_LABELS)))
        table = data.draw(st.lists(entry, min_size=1 if n_rows else 0, max_size=5))
        codes = data.draw(st.lists(st.integers(0, max(len(table) - 1, 0)), min_size=n_rows,
                                   max_size=n_rows))
        columns.append((np.array(codes, dtype=int),
                        np.array(table, dtype=float) if kind == "float table" else table))
    fieldnames = [f"c{i}" for i in range(len(columns))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(argparse.Namespace(format=fmt, output="-"), fieldnames, columns)
    assert out.getvalue() == _per_row_writer(fmt, fieldnames, _rows(columns))


_COMMAND_ARGV = [
    ["roots", "--g", "1.5", "--zeta", "1"],
    ["sweep", "--g", "0:3:31", "--zeta", "1"],  # NaN and None cells of absent branches
    ["phase-diagram", "--g", "0:3:13", "--zeta", "0:3:7"],  # phase_above: labels and None
    ["turning-point", "--zeta", "1"],
    ["sp-closure"],
    ["rabi-compare", "--g", "0:3:13", "--n-max", "40"],  # g = 3 prints as 3.0
]


def _command_columns(argv):
    args, params = cli._parse(argv)
    return args, *cli._COMMANDS[args.command](args, params)


@pytest.mark.parametrize("argv", _COMMAND_ARGV)
def test_json_text_is_that_of_json_dumps(argv, capsys):
    cfg, fieldnames, columns = _command_columns(argv + ["--format", "json"])
    cli._emit(cfg, fieldnames, columns)
    assert capsys.readouterr().out == _json_reference(fieldnames, columns)


@pytest.mark.parametrize("argv", _COMMAND_ARGV)
def test_csv_text_is_that_of_csv_writer(argv, capsys):
    cfg, fieldnames, columns = _command_columns(argv)
    cli._emit(cfg, fieldnames, columns)
    assert capsys.readouterr().out == _per_row_writer("csv", fieldnames, _rows(columns))


@pytest.mark.parametrize("argv", _COMMAND_ARGV)
def test_every_column_is_an_array_or_coded(argv):
    # no command builds a Python list of per-row values: a column is a float
    # array or (codes, table), and only a table is a sequence of labels; the
    # two scalar commands return their one row as a tuple of Python floats
    _, fieldnames, columns = _command_columns(argv)
    assert len(columns) == len(fieldnames)
    if argv[0] in ("turning-point", "sp-closure"):
        assert isinstance(columns, tuple) and {type(v) for v in columns} == {float}, argv
        return
    assert isinstance(columns, list), argv  # a tuple would be written as one row
    for column in columns:
        if isinstance(column, np.ndarray):
            assert column.dtype.kind == "f", argv
            continue
        assert isinstance(column, tuple), argv
        codes, table = column
        assert isinstance(codes, np.ndarray) and codes.dtype.kind == "i", argv
        assert isinstance(table, (np.ndarray, list, tuple)), argv


# Doubles at the edges of '%.9g' and of repr: signed zeros, the smallest
# subnormal, the largest double, infinities, NaN (absent), each side of the
# switch to exponent notation ('%.9g' at 1e9 and 1e-4, repr at 1e16 and 1e-4),
# and 9-digit rounding carries.
_ROW_EDGES = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, math.inf,
              -math.inf, math.nan, 1e16, 9.99999999e15, math.nextafter(1e16, 0.0), 1e9,
              999999999.0, 999999999.5, 1e-4, 9.99999999e-5, 1e-5, 9.999999995e-5, 9.999999995,
              -9.999999995, 99999999.95, 0.1 + 0.2, 1.0, 3.0, 1e300, 2.5e-310)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_row_text_is_that_of_one_element_arrays(fmt, capsys):
    # the scalar commands' row path writes no other text than the column path
    names = [f"c{i}" for i in range(len(_ROW_EDGES))]
    args = argparse.Namespace(format=fmt, output="-")
    cli._emit(args, names, _ROW_EDGES)
    row_text = capsys.readouterr().out
    cli._emit(args, names, [np.array([v]) for v in _ROW_EDGES])
    assert row_text == capsys.readouterr().out
    assert row_text == _per_row_writer(fmt, names, _rows(_ROW_EDGES))
    assert ("Infinity" in row_text) == (fmt == "json")
    for value in _ROW_EDGES:  # each alone, which is the first and last field of its row
        cli._emit(args, ["x"], (value,))
        row_text = capsys.readouterr().out
        cli._emit(args, ["x"], [np.array([value])])
        assert row_text == capsys.readouterr().out, value


def test_phase_diagram_peak_memory():
    # labels and axes are written once per table entry, not once per cell:
    # a 301 x 301 map, solved and emitted, peaks at 16 MiB or less in CSV and
    # at 36 MiB or less in JSON
    for fmt, mib in (("csv", 16), ("json", 36)):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(["phase-diagram", "--g", "0:3:301", "--zeta", "0:3:301",
                            "--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20, (fmt, peak / 2**20)


def test_json_text_of_edge_values(capsys):
    columns = [np.array([-0.0, 3.0, math.nan, math.inf, -math.inf, 1e-320, 0.1 + 0.2]),
               (np.array([0, 3, 1, 2, 3, 4, 0]),
                ["cell", "a \"quoted\" label", "é", None, "boundary", "unused"]),
               (np.array([2, 0, 0, 1, 1, 2, 3]), np.array([-0.0, math.nan, 1e-320, 5.0]))]
    names = ["x", "phase_above", "y"]
    cli._emit(argparse.Namespace(format="json", output="-"), names, columns)
    text = capsys.readouterr().out
    assert text == _json_reference(names, columns)
    assert '"x": -0.0' in text and '"x": 3.0' in text and '"x": null' in text
    assert '"y": null' in text and '"phase_above": null' in text
    empty = [np.array([]), (np.array([], dtype=int), []), (np.array([], dtype=int), np.array([]))]
    cli._emit(argparse.Namespace(format="json", output="-"), names, empty)
    assert capsys.readouterr().out == _json_reference(names, empty)


# The fuzz referee: every numeric flag of every command is drawn log-uniformly
# in [1e-300, 1e300], or is one of 0, 1, the smallest subnormal and the powers of
# 1e150, or is left out.  Grids are always given (a bare default is no grid), with
# two distinct sorted ends and 2 to 4 points; n_max and n_atoms are small integers.
_FUZZ_NUMBER = st.one_of(st.floats(-300.0, 300.0).map(lambda e: repr(10.0**e)),
                         st.sampled_from(["0", "1", "5e-324", "1e-300", "1e-150", "1e150",
                                          "1e300"]))
_FUZZ_GRID = st.tuples(st.lists(_FUZZ_NUMBER.map(float), min_size=2, max_size=2, unique=True),
                       st.integers(2, 4)).map(lambda t: f"{min(t[0])!r}:{max(t[0])!r}:{t[1]}")
_FUZZ_COMMON = {"--omega": _FUZZ_NUMBER, "--omega-a": _FUZZ_NUMBER, "--omega-b": _FUZZ_NUMBER,
                "--n-atoms": st.sampled_from(["0", "1", "2", "16"])}
_FUZZ_FLAGS = {  # (flags always given, flags that may be left out)
    "roots": ({}, {"--g": _FUZZ_NUMBER, "--zeta": _FUZZ_NUMBER}),
    "sweep": ({"--g": _FUZZ_GRID}, {"--zeta": _FUZZ_NUMBER}),
    "phase-diagram": ({"--g": _FUZZ_GRID, "--zeta": _FUZZ_GRID}, {}),
    "turning-point": ({}, {"--zeta": _FUZZ_NUMBER}),
    "sp-closure": ({}, {"--width-tol": _FUZZ_NUMBER}),
    "rabi-compare": ({"--g": _FUZZ_GRID}, {
        "--n-max": st.integers(0, 60).map(str),
        "--detuning": st.sampled_from(sorted(cli.DETUNING_PRESETS))}),
}
_FUZZ_ARGV = {command: st.fixed_dictionaries(given, optional={**_FUZZ_COMMON, **optional}).map(
    lambda flags, command=command: [command, *(x for item in flags.items() for x in item)])
    for command, (given, optional) in _FUZZ_FLAGS.items()}


@pytest.mark.parametrize("command", list(_FUZZ_FLAGS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzz_referee(command, data):
    argv = data.draw(_FUZZ_ARGV[command], label="argv")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert sum(line.startswith("optodicke:") for line in err.splitlines()) <= 1, (argv, err)
    if code != 0:
        assert out == "", argv
        return
    for line in out.splitlines()[2:]:
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:  # a label or an absent value
                continue
            assert math.isfinite(value), (argv, line)


def _as_json_value(text):
    """A flag's text as the JSON value a config file may hold for it."""
    if text.isdigit():
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


@pytest.mark.parametrize("command", list(_FUZZ_FLAGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_config_file_reads_as_its_flags(command, data, tmp_path_factory):
    # any subset of a drawn argv's flags, moved into a config file (as a string
    # or as a JSON number), gives the output of the all-flags run; --omega and
    # --detuning stay on one side, since --detuning beats a file's omega
    argv = data.draw(_FUZZ_ARGV[command], label="argv")
    flags = dict(zip(argv[1::2], argv[2::2]))
    side = {flag: "--omega" if flag == "--detuning" else flag for flag in flags}
    move = {key: data.draw(st.booleans(), label=f"move {key}")
            for key in sorted(set(side.values()))}
    moved = {flag for flag in flags if move[side[flag]]}
    entries = {flag[2:].replace("-", "_"): _as_json_value(value)
               if data.draw(st.booleans(), label=f"number {flag}") else value
               for flag, value in flags.items() if flag in moved}
    cfg = tmp_path_factory.getbasetemp() / f"fuzz-{command}.json"
    cfg.write_text(json.dumps(entries))
    kept = [x for flag, value in flags.items() if flag not in moved for x in (flag, value)]
    results = []
    for args in (argv, [command, "--config", str(cfg), *kept]):
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            results.append((run(args), out.getvalue()))
    assert results[0] == results[1], (argv, entries)
