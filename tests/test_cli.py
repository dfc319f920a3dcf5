"""Command-line surface: formats, exit codes, determinism, config handling."""

import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import dunklkg
from dunklkg import CurvatureCase, bargmann_index, build_profile, gridops
from dunklkg.cli import cli
from dunklkg.coherent import _PROFILES_BYTES_PER_POINT, profiles_to_csv

GOLDEN = Path(__file__).parent / "golden"
NOT_UTF8_CONFIG = Path(__file__).parent / "data" / "not_utf8.cfg"  # alpha=<byte 0xff>/2
# a numerator past int()'s 4300-digit limit for decimal strings
LONG_ALPHA = "1" * 5000 + "/2"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(cli, args, catch_exceptions=False, **kw)


# --- spectrum ---------------------------------------------------------------

def test_spectrum_rational_first_row(runner):
    res = invoke(runner, ["spectrum", "--case", "rational", "--alpha", "1/2", "--n", "0..5"])
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert len(lines) == 7
    row = lines[1].split(",")
    assert float(row[3]) == pytest.approx(3.297, abs=1e-2)
    assert float(row[4]) == pytest.approx(-4.223, abs=1e-2)


def test_spectrum_zero_curvature(runner):
    res = invoke(runner, ["spectrum", "--case", "gaussian", "--alpha", "1/2", "--R", "0", "--n", "0"])
    assert res.exit_code == 0
    row = res.output.strip().split("\n")[1].split(",")
    assert float(row[3]) == pytest.approx(1.0)  # E = m
    assert float(row[4]) == pytest.approx(0.0, abs=1e-15)
    assert row[5] == "" and row[6] == ""


def test_spectrum_sinc_alpha_seven_halves(runner):
    res = invoke(runner, ["spectrum", "--case", "sinc", "--alpha", "7/2", "--n", "0", "--format", "json"])
    rows = json.loads(res.output)
    assert rows[0]["re_e_minus"] == pytest.approx(3.096, abs=1e-2)
    assert rows[0]["im_e_minus"] == pytest.approx(-1.119, abs=1e-2)


def test_spectrum_computes_only_the_requested_n(runner, monkeypatch):
    from dunklkg import spectrum

    calls = []
    energy_pair = spectrum.energy_pair

    def counted(case, n, alpha, R, m):
        calls.append((alpha, n))
        return energy_pair(case, n, alpha, R, m)

    monkeypatch.setattr(spectrum, "energy_pair", counted)
    res = invoke(runner, ["spectrum", "--case", "gaussian", "--alpha", "1/2,3/2", "--n", "40"])
    assert res.exit_code == 0
    assert calls == [(Fraction(1, 2), 40), (Fraction(3, 2), 40)]
    calls.clear()
    res = invoke(runner, ["spectrum", "--alpha", "1/2", "--n", "5,0,5"])
    assert [line.split(",")[2] for line in res.output.splitlines()[1:]] == ["0", "5"]
    assert calls == [(Fraction(1, 2), 0), (Fraction(1, 2), 5)]


def test_spectrum_rejects_float_alpha(runner):
    res = runner.invoke(cli, ["spectrum", "--alpha", "0.5", "--n", "0"])
    assert res.exit_code == 2


def test_spectrum_byte_determinism(runner):
    args = ["spectrum", "--case", "sinc", "--alpha", "1/2", "--alpha", "7/2", "--n", "0..4"]
    out1 = invoke(runner, args).output
    out2 = invoke(runner, args).output
    assert out1 == out2


# --- table ------------------------------------------------------------------

@pytest.mark.parametrize("table_id", ["table1", "table2"])
def test_table_reproduction_passes(runner, table_id):
    res = invoke(runner, ["table", "--reproduce", table_id])
    assert res.exit_code == 0
    assert "passed=true" in res.output.splitlines()[0]


def test_table_fails_at_tight_tolerance(runner):
    res = runner.invoke(cli, ["table", "--reproduce", "table1", "--tol", "1e-6"])
    assert res.exit_code == 1
    assert "passed=false" in res.output.splitlines()[0]


def test_table_json_format(runner):
    res = invoke(runner, ["table", "--reproduce", "table2", "--format", "json"])
    payload = json.loads(res.output)
    assert payload["passed"] is True
    assert len(payload["entries"]) == 36


# --- density / evolve ----------------------------------------------------------

def test_density_six_profiles(runner):
    res = invoke(
        runner,
        ["density", "--alpha", "1/2", "--xi", "0.5+0.2i", "--n", "0..5", "--points", "60"],
    )
    assert res.exit_code == 0
    blocks = [b for b in res.output.split("# ") if b.strip()]
    assert len(blocks) == 6
    for block in blocks:
        lines = block.strip().split("\n")
        data = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        x, dens = data[:, 0], data[:, 3]
        assert np.all(dens >= 0)
        # CSV carries 9 significant digits, so the round-trip integral is ~1e-7
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-7)


def test_density_rejects_xi_outside_disk(runner):
    res = runner.invoke(cli, ["density", "--alpha", "1/2", "--xi", "1.5"])
    assert res.exit_code == 2


def test_density_requires_branch_for_rational(runner):
    res = runner.invoke(
        cli, ["density", "--case", "rational", "--alpha", "1/2", "--xi", "0.3"]
    )
    assert res.exit_code == 2
    res = invoke(
        runner,
        ["density", "--case", "rational", "--alpha", "1/2", "--xi", "0.3",
         "--branch", "minus", "--points", "30"],
    )
    assert res.exit_code == 0


def test_density_warning_for_unstable_combination(runner):
    res = invoke(
        runner,
        ["density", "--alpha", "7/2", "--xi", "0.5+0.2i", "--n", "0", "--points", "30"],
    )
    assert res.exit_code == 0
    assert "warning" in res.stderr.lower()


def test_evolve_figure_parameters(runner):
    # tau = pi/2, 3pi/2, 2pi, 3pi for n = 1
    res = invoke(
        runner,
        ["evolve", "--alpha", "1/2", "--xi", "0.5+0.2i", "--n", "1",
         "--tau", "1.5708,4.7124,6.2832,9.4248", "--points", "60"],
    )
    assert res.exit_code == 0
    blocks = [b for b in res.output.split("# ") if b.strip()]
    assert len(blocks) == 4
    assert "tau=1.5708" in blocks[0]


def test_evolve_json_format(runner):
    res = invoke(
        runner,
        ["evolve", "--alpha", "1/2", "--xi", "0.3", "--n", "0", "--tau", "0,3.14159",
         "--points", "30", "--format", "json"],
    )
    payload = json.loads(res.output)
    assert len(payload["profiles"]) == 2
    assert payload["profiles"][0]["phase_convention"] == "corrected"
    assert len(payload["profiles"][0]["samples"]) == 30


def test_density_byte_determinism(runner):
    args = ["density", "--alpha", "3/2", "--xi", "0.1-0.6i", "--n", "2", "--points", "40"]
    assert invoke(runner, args).output == invoke(runner, args).output


# --- config file and environment -------------------------------------------------

def test_config_file_overrides_flags(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=3/2\nn=0..1  # comment\n")
    res = invoke(
        runner,
        ["spectrum", "--case", "rational", "--alpha", "1/2", "--n", "0..5",
         "--config", str(cfg)],
    )
    lines = res.output.strip().split("\n")
    assert len(lines) == 3  # n=0..1 from the config, not 0..5 from the flag
    assert all(line.split(",")[1] == "3/2" for line in lines[1:])


def test_config_rejects_unknown_keys(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    res = runner.invoke(cli, ["spectrum", "--alpha", "1/2", "--config", str(cfg)])
    assert res.exit_code == 2


def test_format_environment_variable(runner):
    res = invoke(
        runner,
        ["spectrum", "--alpha", "1/2", "--n", "0"],
        env={"DUNKLKG_FORMAT": "json"},
    )
    rows = json.loads(res.output)
    assert rows[0]["n"] == 0


# The base arguments of each command, as config keys; ``cli_args`` spells
# them as flags.  Density's base takes a branch, so every case is valid.
BASE = {
    "spectrum": {"alpha": "1/2", "n": "0..2"},
    "density": {"case": "rational", "branch": "plus", "alpha": "1/2", "xi": "0.3",
                "points": "20"},
    "evolve": {"alpha": "1/2", "xi": "0.3", "tau": "1", "points": "20"},
    "table": {"reproduce": "table1"},
}
CONFIG_KEYS = {
    "spectrum": ("case", "alpha", "n", "R", "m", "format"),
    "density": ("case", "alpha", "xi", "n", "tau", "branch", "phase_convention", "R",
                "x_min", "x_max", "points", "format"),
}
# for each config key, a valid value that changes the base output
CHANGED = {"case": "sinc", "alpha": "3/2", "xi": "0.1-0.2i", "n": "1,3", "tau": "0.5,1",
           "branch": "minus", "phase_convention": "as-printed", "R": "0.5", "m": "2",
           "x_min": "0.1", "x_max": "1.5", "points": "30", "format": "json"}


def cli_args(command, values):
    return [command] + [arg for key, value in values.items()
                        for arg in ("--" + key.replace("_", "-"), value)]


@pytest.mark.parametrize(
    "command, key", [(command, key) for command, keys in CONFIG_KEYS.items() for key in keys]
)
def test_config_line_prints_what_its_flag_prints(runner, tmp_path, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={CHANGED[key]}\n")
    by_flag = invoke(runner, cli_args(command, {**BASE[command], key: CHANGED[key]}))
    by_config = invoke(runner, cli_args(command, BASE[command]) + ["--config", str(cfg)])
    assert by_flag.exit_code == by_config.exit_code == 0
    assert by_config.stdout_bytes == by_flag.stdout_bytes
    assert by_flag.stdout_bytes != invoke(runner, cli_args(command, BASE[command])).stdout_bytes


# The coherent states read only E^2 - m^2, which is free of m, so the
# profile commands take no mass, neither as a flag nor as a config key.
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["density", "evolve"])
def test_profile_commands_refuse_m(runner, tmp_path, command, source):
    args = cli_args(command, BASE[command])
    if source == "flag":
        args += ["--m", "2"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=2\n")
        args += ["--config", str(cfg)]
    res = runner.invoke(cli, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    errors = [line for line in res.stderr.splitlines() if line.startswith("Error:")]
    assert errors == [res.stderr.rstrip("\n").splitlines()[-1]]
    if source == "flag":
        assert "No such option" in errors[0] and "--m" in errors[0]
    else:
        assert errors[0] == "Error: unknown config key 'm'"


@pytest.mark.parametrize("value", ["xml", "json5", "c sv"])
@pytest.mark.parametrize(
    "command, source",
    [(command, source) for command in ("spectrum", "table", "density", "evolve")
     for source in ("flag", "config", "env") if (command, source) != ("table", "config")],
)
def test_invalid_format_exits_2_with_one_line_message(runner, tmp_path, command, source, value):
    args, env = cli_args(command, BASE[command]), {}
    if source == "flag":
        args += ["--format", value]
    elif source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"format={value}\n")
        args += ["--config", str(cfg)]
    else:
        env["DUNKLKG_FORMAT"] = value
    res = runner.invoke(cli, args, env=env)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    errors = [line for line in res.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert res.stderr.rstrip("\n").endswith(errors[0])
    assert f"{value!r} is not one of 'csv', 'json'" in errors[0]
    assert ("config key 'format'" in errors[0]) == (source == "config")


@pytest.mark.parametrize(
    "line, message",
    [
        ("config=other.cfg", "Error: unknown config key 'config'"),
        ("output=out.csv", "Error: unknown config key 'output'"),
        ("branch=", "Error: Invalid value for config key 'branch': '' is not one of 'plus', 'minus'."),
        ("points=1.5", "Error: Invalid value for config key 'points': '1.5' is not a valid integer."),
        ("x-min=abc", "Error: Invalid value for config key 'x_min': 'abc' is not a valid float."),
        ("case=cosh", "Error: Invalid value for config key 'case': 'cosh' is not one of "
                      "'gaussian', 'rational', 'sinc'."),
    ],
)
def test_bad_config_line_exits_2_naming_its_key(runner, tmp_path, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out.csv"
    res = runner.invoke(cli, cli_args("density", BASE["density"])
                        + ["--config", str(cfg), "-o", str(out)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.endswith("\n" + message + "\n")
    assert not out.exists()  # the -o file the failed run had to create is removed


def test_choice_names_ignore_letter_case(runner):
    def density(case, convention, *args, env=None):
        values = {**BASE["density"], "case": case, "phase_convention": convention}
        return invoke(runner, cli_args("density", values) + list(args), env=env)

    lower = density("sinc", "as-printed", "--format", "json")
    assert lower.exit_code == 0
    for upper in (density("Sinc", "AS-PRINTED", "--format", "JSON"),
                  density("SINC", "As-Printed", env={"DUNKLKG_FORMAT": "Json"})):
        assert upper.exit_code == 0
        assert upper.stdout_bytes == lower.stdout_bytes


# --- malformed parameters and file output --------------------------------------

def test_bad_n_specification_is_usage_error(runner):
    res = runner.invoke(cli, ["spectrum", "--alpha", "1/2", "--n", "abc"])
    assert res.exit_code == 2
    res = runner.invoke(cli, ["spectrum", "--alpha", "1/2", "--n", "5..2"])
    assert res.exit_code == 2


def test_bad_tau_specification_is_usage_error(runner):
    res = runner.invoke(
        cli, ["evolve", "--alpha", "1/2", "--xi", "0.3", "--tau", "1.0,oops"]
    )
    assert res.exit_code == 2


def test_bad_config_numeric_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("R=not-a-number\n")
    res = runner.invoke(cli, ["spectrum", "--alpha", "1/2", "--config", str(cfg)])
    assert res.exit_code == 2


def test_negative_n_rejected(runner):
    res = runner.invoke(cli, ["spectrum", "--alpha", "1/2", "--n", "-1"])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--alpha", "1/2", "--R", "nan"],
        ["spectrum", "--alpha", "1/2", "--m", "nan"],
        ["spectrum", "--alpha", "1/2", "--R", "inf"],
        ["spectrum", "--alpha", "1/2", "--n", "-3..1"],
        ["spectrum", "--alpha", "1/2", "--m", "-1"],
        ["density", "--alpha", "1/2", "--xi", "nan"],
        ["density", "--alpha", "1/2", "--xi", "0.3", "--R", "inf"],
        ["density", "--alpha", "1/2", "--xi", "0.3", "--R", "0"],
        ["density", "--alpha", "1/2", "--xi", "0.3", "--m", "0"],
        ["evolve", "--alpha", "1/2", "--xi", "0.3", "--tau", "1", "--R", "-1"],
        ["density", "--alpha", "1/2", "--xi", "0.3", "--x-min", "2", "--x-max", "1"],
        ["evolve", "--alpha", "1/2", "--xi", "0.3", "--tau", "nan"],
        ["verify", "--grid-h", "0"],
        ["verify", "--suite", "casimir", "--grid-h", "nan"],
        ["table", "--reproduce", "table1", "--tol", "nan"],
        ["spectrum", "--alpha", "1/2", "-o", "/nonexistent-dir/out.csv"],
        ["spectrum", "--alpha", "1/2", "-o", "/"],
        ["spectrum", "--alpha", "1/2", "--config", "/"],
        ["verify", "--suite", "casimir", "-o", "/nonexistent-dir/x.json"],
        pytest.param(["spectrum", "--alpha", "1/2", "--config", str(NOT_UTF8_CONFIG)],
                     id="spectrum --alpha 1/2 --config not_utf8.cfg"),
        pytest.param(["spectrum", "--alpha", LONG_ALPHA], id="spectrum --alpha 5000-digit p/2"),
        pytest.param(["density", "--alpha", LONG_ALPHA, "--xi", "0.3"],
                     id="density --alpha 5000-digit p/2 --xi 0.3"),
    ],
    ids=lambda args: " ".join(args),
)
def test_bad_input_exits_2_with_one_line_message(runner, args):
    res = runner.invoke(cli, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # not an uncaught error
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    errors = [line for line in res.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert res.stderr.rstrip("\n").endswith(errors[0])


# The grid (1e15 points) exceeds physical memory, and any address space, so
# the size estimate refuses it before anything is allocated.  A count past
# 15 digits is printed to 3 significant digits, so the line stays short.
@pytest.mark.parametrize(
    "args",
    [
        ["density", "--alpha", "1/2", "--xi", "0.3", "--points", "1000000000000000"],
    ],
    ids=lambda args: " ".join(args),
)
def test_unallocatable_grid_exits_1_with_one_line_message(runner, args):
    res = runner.invoke(cli, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr.startswith("error: Unable to allocate")
    assert res.stderr.count("\n") == 1
    assert len(res.stderr) <= 120


def test_unlistable_n_range_exits_1_with_one_line_message(runner):
    # 1e14 entries need 800 TB of list, more than any address space, so the
    # allocation fails at once; CPython's MemoryError for it has no message
    res = runner.invoke(cli, ["spectrum", "--alpha", "1/2", "--n", "0..100000000000000"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr == (
        "error: n range '0..100000000000000' has 100000000000001 entries, "
        "too many to hold in memory\n"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_alpha_list_is_usage_error(runner, tmp_path, fmt, source):
    if source == "flag":
        args, spec = ["--alpha", ","], ","
    else:
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("alpha=\n")
        args, spec = ["--alpha", "1/2", "--config", str(cfg)], ""
    res = runner.invoke(cli, ["spectrum", *args, "--format", fmt])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.rstrip("\n").endswith(f"Error: bad alpha specification {spec!r}: no entries")


# E^2 = m^2 - 8R(...)^2 (or its rational/sinc analogue) overflows to infinity
@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--alpha", "1/2", "--R", "1e308"],
        ["spectrum", "--case", "rational", "--alpha", "1/2", "--R", "1e307", "--m", "1e200"],
        ["spectrum", "--case", "sinc", "--alpha", "1/2", "--R", "1e307", "--m", "1e200"],
    ],
    ids=lambda args: " ".join(args),
)
def test_overflowing_spectrum_exits_1_with_one_line_message(runner, args):
    res = runner.invoke(cli, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr.startswith("error: E^2 is not finite")
    assert res.stderr.count("\n") == 1


# The coherent states overflow in the shift E^2 - m^2 (R = 1e308) or only in
# the scale factor, sqrt(2R(E^2 - m^2)) (R = 1e200)
@pytest.mark.parametrize(
    "R, message",
    [("1e308", "error: E^2 is not finite for n=0 at R=1e+308: E^2 - m^2 overflows\n"),
     ("1e200", "error: the scale factor is not finite at R=1e+200\n")],
    ids=["shift", "scale-factor"],
)
@pytest.mark.parametrize("command", ["density", "evolve"])
def test_overflowing_profile_exits_1_with_one_line_message(runner, command, R, message):
    res = runner.invoke(cli, cli_args(command, {**BASE["evolve"], "R": R}))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr == message


# A tiny curvature has a tiny, nonzero scale factor: the profile is computed
# (or fails as a computation), never refused as the flat E^2 = m^2
@pytest.mark.parametrize(
    "case",
    [["--case", "gaussian"], ["--case", "rational", "--branch", "minus"],
     ["--case", "sinc", "--branch", "plus"]],
    ids=lambda case: " ".join(case),
)
def test_tiny_curvature_density_is_not_refused(runner, case):
    res = runner.invoke(cli, ["density", "--alpha", "1/2", "--xi", "0.3", "--R", "1e-16", *case])
    assert res.exception is None or isinstance(res.exception, SystemExit)  # no traceback
    if res.exit_code == 1:
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    else:
        assert res.exit_code == 0
        rows = [line.split(",") for line in res.stdout.splitlines()[2:]]
        assert len(rows) == 400
        assert np.all(np.isfinite(np.array(rows, dtype=float)))


def test_density_with_tiny_normal_integral_is_normalized(runner):
    # at R = 1e-152 the raw density integral is about 1.4e-301: below the old
    # 1e-300 floor, but a normal float that can be divided by
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(cli, ["density", "--alpha", "1/2", "--xi", "0.3", "--R", "1e-152"])
    assert res.exit_code == 0
    assert res.stderr == ""
    header, _, *lines = res.stdout.splitlines()
    assert header.endswith(" warning=")  # no warning in the metadata either
    assert 1e-302 < float(re.search(r"norm_integral=(\S+)", header).group(1)) < 1e-300
    rows = np.array([line.split(",") for line in lines], dtype=float)
    assert rows.shape == (400, 4) and np.all(np.isfinite(rows))
    assert np.trapezoid(rows[:, 3], rows[:, 0]) == pytest.approx(1.0, rel=1e-6)


def test_flat_density_is_refused(runner):
    res = runner.invoke(cli, ["density", "--alpha", "1/2", "--xi", "0.3", "--R", "0"])
    assert res.exit_code == 2
    assert res.stderr.rstrip("\n").endswith("scale factor degenerates to zero")


# A window with an infinite end is refused before np.linspace (which would
# warn and turn it into nan), and so is one whose x_max^2, the variable of the
# closed form's exponent, overflows.  Numpy warnings are errors here, so none
# may be raised.
@pytest.mark.parametrize(
    "window, code, message",
    [
        (["--x-max", "inf"], 2,
         "Error: density grid must be finite with 0 < x_min < x_max, got [0.01, inf]"),
        (["--x-min", "-inf"], 2,
         "Error: density grid must be finite with 0 < x_min < x_max, got [-inf, 2.0]"),
        (["--x-max", "1e308"], 2,
         "Error: density grid needs a finite x_max^2, got x_max = 1e+308"),
    ],
    ids=["x-max inf", "x-min -inf", "x-max 1e308"],
)
def test_unusable_density_window_gives_one_line_and_no_warning(runner, window, code, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(cli, ["density", "--alpha", "1/2", "--xi", "0.3", *window])
    assert res.exit_code == code
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    if code == 1:
        assert res.stderr == message + "\n"
    else:  # click's usage preamble, then the one message line
        assert [line for line in res.stderr.splitlines() if line.startswith("Error")] == [message]
        assert res.stderr.endswith(message + "\n")


@pytest.mark.parametrize(
    "args",
    [
        ["density", "--alpha", "1/2", "--xi", "0.3", "--points", "100000"],
        ["verify", "--suite", "z3_convergence"],
    ],
    ids=lambda args: " ".join(args),
)
def test_grid_larger_than_physical_memory_exits_1(runner, monkeypatch, args):
    # a 1 MiB machine: both grids fit the address space but not the memory
    # (the convergence check's finest grid, h = 0.002, is 9951 points x 184 B)
    monkeypatch.setattr(gridops, "_physical_memory", lambda: 2**20)
    res = runner.invoke(cli, args)
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: Unable to allocate about ")
    assert res.stderr.endswith("physical memory is 0.000977 GiB\n")
    assert res.stderr.count("\n") == 1


def test_exports_need_no_more_memory_than_their_profiles(runner, monkeypatch):
    # 4 MiB holds the 10k-point profile (96 B/point while it is built); the
    # writers stream their text in blocks, so neither format needs more
    monkeypatch.setattr(gridops, "_physical_memory", lambda: 4 * 2**20)
    args = ["density", "--alpha", "1/2", "--xi", "0.3", "--points", "10000"]
    res = invoke(runner, args + ["--format", "json"])
    assert res.exit_code == 0
    assert len(json.loads(res.stdout)["profiles"][0]["samples"]) == 10000
    res = invoke(runner, args + ["--format", "csv"])
    assert res.exit_code == 0
    assert len(res.stdout.splitlines()) == 10002


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_profiles_larger_than_physical_memory_exit_1_before_any_is_built(runner, monkeypatch,
                                                                          fmt):
    # 1000 profiles of 1e6 points each pass the per-profile estimate of an
    # 8 GiB machine, but together hold about 30 GiB
    def never(*args, **kwargs):
        raise AssertionError("a profile was built before the total was checked")

    monkeypatch.setattr(gridops, "_physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr("dunklkg.coherent.build_profile", never)
    res = runner.invoke(cli, ["density", "--alpha", "1/2", "--xi", "0.3", "--n", "0..999",
                              "--points", "1000000", "--format", fmt])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == (
        "error: Unable to allocate about 59.6 GiB for a grid of 1000000000 points; "
        "physical memory is 8 GiB\n"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_total_points_guard_counts_every_n_and_tau(runner, monkeypatch, fmt):
    # 2 n x 2 tau x 1000 points at 64 B/point; one byte less is refused
    need = 2 * 2 * 1000 * _PROFILES_BYTES_PER_POINT
    args = ["evolve", "--alpha", "1/2", "--xi", "0.3", "--n", "0,1", "--tau", "0,1",
            "--points", "1000", "--format", fmt]
    monkeypatch.setattr(gridops, "_physical_memory", lambda: need)
    assert invoke(runner, args).exit_code == 0
    monkeypatch.setattr(gridops, "_physical_memory", lambda: need - 1)
    res = runner.invoke(cli, args)
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith("error: Unable to allocate about ")
    assert "a grid of 4000 points" in res.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_file_gets_the_bytes_of_stdout(runner, tmp_path, fmt):
    # two 10k-point profiles: whole blocks and a partial one each
    args = ["density", "--alpha", "3/2", "--xi", "0.1-0.6i", "--n", "1", "--tau", "0,1",
            "--points", "10000", "--format", fmt]
    out = tmp_path / f"profiles.{fmt}"
    longer = b"a longer file that the export replaces\n" * 10**5
    out.write_bytes(longer)
    stdout = invoke(runner, args).stdout_bytes
    assert invoke(runner, args + ["-o", str(out)]).stdout_bytes == b""
    assert out.read_bytes() == stdout
    assert len(stdout) < len(longer)


def test_unwritable_output_fails_before_any_work(runner, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the check ran before -o was opened")

    monkeypatch.setattr("dunklkg.verify.check_casimir_identity", never)
    res = runner.invoke(cli, ["verify", "--suite", "casimir", "-o", "/nonexistent-dir/x.json"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Error:" in res.stderr


def test_failed_run_leaves_output_file_untouched(runner, tmp_path):
    # the window [50, 60] underflows the density, so the run fails with exit 1
    failing = ["density", "--alpha", "1/2", "--xi", "0.3", "--x-min", "50", "--x-max", "60"]
    existing = tmp_path / "old.csv"
    existing.write_bytes(b"previous contents\n")
    res = runner.invoke(cli, failing + ["-o", str(existing)])
    assert res.exit_code == 1
    assert existing.read_bytes() == b"previous contents\n"
    fresh = tmp_path / "new.csv"
    assert runner.invoke(cli, failing + ["-o", str(fresh)]).exit_code == 1
    assert not fresh.exists()
    ok = invoke(runner, ["spectrum", "--alpha", "1/2", "--n", "0", "-o", str(existing)])
    assert ok.exit_code == 0
    assert existing.read_text().startswith("case,alpha,n")  # replaced, not appended


def test_closed_stdout_pipe_exits_1_quietly(runner, monkeypatch):
    # a reader that goes away (`dunklkg ... | head`) is not a bad-input error
    def closed_pipe(text, output):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("dunklkg.cli._emit", closed_pipe)
    res = runner.invoke(cli, ["spectrum", "--alpha", "1/2"])
    assert res.exit_code == 1
    assert "Error" not in res.stderr


# /dev/full refuses every write with ENOSPC, as a full disk does
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [
    "spectrum --alpha 1/2",
    "table --reproduce table1",
    "density --alpha 1/2 --xi 0.3 --points 20",
    "verify --suite casimir",
    "spectrum --alpha 1/2 -o /dev/full",
    "density --alpha 1/2 --xi 0.3 --points 20 -o /dev/full",
])
def test_failed_write_of_the_results_exits_1_with_one_line_message(args, buffered):
    # with either stdout buffering the refused write fails inside the command,
    # not in the interpreter's flush at exit (which would exit 120)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(dunklkg.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        child = subprocess.run([sys.executable, "-m", "dunklkg.cli", *args.split()],
                               stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert child.returncode == 1
    assert child.stderr == "error: [Errno 28] No space left on device\n"


def test_spectrum_output_file(runner, tmp_path):
    out = tmp_path / "spec.csv"
    res = invoke(runner, ["spectrum", "--alpha", "1/2", "--n", "0..1", "-o", str(out)])
    assert res.exit_code == 0
    assert res.output == ""
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("case,alpha,n")
    assert len(lines) == 3


# --- verify -----------------------------------------------------------------------

def test_verify_single_suite(runner):
    res = invoke(runner, ["verify", "--suite", "casimir"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["n_pass"] == 1
    assert report["checks"][0]["name"] == "casimir_identity"


def test_verify_unknown_suite(runner):
    for suite in ("nonexistent", "commutator"):
        res = runner.invoke(cli, ["verify", "--suite", suite])
        assert res.exit_code == 2


@pytest.mark.parametrize("grid_h", ["1e-4", "1e-13", "5e-324"])
def test_verify_at_a_fine_spacing_passes_with_the_default_records(runner, grid_h):
    # the convergence checks clamp the spacing, and no other check reads it
    default = invoke(runner, ["verify"]).output.splitlines()
    res = invoke(runner, ["verify", "--grid-h", grid_h])
    assert res.exit_code == 0
    fine = res.output.splitlines()
    changed = [(a, b) for a, b in zip(default, fine) if a != b]
    assert len(fine) == len(default)
    assert changed == [('  "grid_h": 0.001,', f'  "grid_h": {float(grid_h)!r},')]


def test_verify_output_to_file(runner, tmp_path):
    out = tmp_path / "report.json"
    res = invoke(runner, ["verify", "--suite", "sigma", "-o", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["passed"] is True


# --- writers: byte for byte against the standard library and the goldens ---------

@pytest.mark.parametrize(
    "case, branch",
    [("gaussian", None), ("rational", "plus"), ("rational", "minus"),
     ("sinc", "plus"), ("sinc", "minus")],
)
def test_density_json_document_equals_json_dumps(runner, case, branch):
    args = ["density", "--case", case, "--alpha", "3/2", "--xi", "0.5+0.2i", "--n", "0..3",
            "--points", "40", "--format", "json"]
    if branch:
        args += ["--branch", branch]
    res = invoke(runner, args)
    assert res.exit_code == 0
    profiles = [
        build_profile(CurvatureCase(case), Fraction(3, 2), n, 0.5 + 0.2j, branch=branch, points=40)
        for n in range(4)
    ]
    doc = {"profiles": [p.to_json_obj() for p in profiles]}
    assert res.stdout == json.dumps(doc, indent=2) + "\n"


def test_evolve_json_document_equals_json_dumps(runner):
    res = invoke(
        runner,
        ["evolve", "--alpha", "1/2", "--xi", "0.3-0.4i", "--n", "1", "--tau", "0.7854,2.3562",
         "--points", "30", "--format", "json"],
    )
    assert res.exit_code == 0
    profiles = [
        build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 1, 0.3 - 0.4j, tau=tau,
                      points=30, evolved=True)
        for tau in (0.7854, 2.3562)
    ]
    doc = {"profiles": [p.to_json_obj() for p in profiles]}
    assert res.stdout == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("window", [[], ["--x-min", "0.001"]], ids=["default", "x-min-0.001"])
def test_library_profile_has_the_bytes_density_prints(runner, window):
    # the README's library call, written by the CLI's CSV writer; the second
    # window starts below the spacing of its 400 samples
    res = invoke(runner, ["density", "--alpha", "1/2", "--xi", "0.5+0.2i"] + window)
    assert res.exit_code == 0
    window_options = {"x_min": float(window[1])} if window else {}
    profile = build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 0, 0.5 + 0.2j,
                            **window_options)
    assert res.stdout == "".join(profiles_to_csv([profile]))


def test_density_is_the_evolved_state_at_its_tau(runner):
    # density and evolve build the same profiles; evolve only requires --tau
    for fmt in ("csv", "json"):
        args = ["--alpha", "1/2", "--xi", "0.5+0.2i", "--n", "0,1", "--tau", "1,2.5",
                "--points", "40", "--format", fmt]
        density, evolve = (invoke(runner, [command] + args) for command in ("density", "evolve"))
        assert density.exit_code == evolve.exit_code == 0
        assert density.stdout == evolve.stdout
    # at the default tau = 0 the as-printed convention carries the constant e^(-ik)
    args = ["density", "--alpha", "1/2", "--xi", "0.5+0.2i", "--points", "40", "--format", "json"]
    corrected, printed = (
        json.loads(invoke(runner, args + ["--phase-convention", name]).stdout)["profiles"][0]
        for name in ("corrected", "as-printed")
    )
    assert printed["phase_convention"] == "as-printed"
    phase = np.exp(-1j * bargmann_index(Fraction(1, 2)))
    values = [
        np.array([complex(s["re"], s["im"]) for s in profile["samples"]])
        for profile in (corrected, printed)
    ]
    np.testing.assert_allclose(values[1], phase * values[0], rtol=1e-13)
    np.testing.assert_allclose([s["density"] for s in printed["samples"]],
                               [s["density"] for s in corrected["samples"]], rtol=1e-13)


# The README-size calls; the golden files were written by independent
# writers: the profile and spectrum ones per sample, the table ones by
# per-format code that ``csv_text`` and one ``json.dumps`` call replaced.
GOLDEN_CALLS = [
    ("density.csv", ["density", "--alpha", "1/2", "--xi", "0.5+0.2i", "--n", "0..5"]),
    ("density.json", ["density", "--alpha", "1/2", "--xi", "0.5+0.2i", "--n", "0..5",
                      "--format", "json"]),
    ("evolve.json", ["evolve", "--alpha", "1/2", "--xi", "0.5+0.2i", "--n", "1",
                     "--tau", "1.5708,4.7124,6.2832,9.4248", "--format", "json"]),
    ("spectrum.csv", ["spectrum", "--case", "rational", "--alpha", "1/2", "--n", "0..5"]),
    ("spectrum.json", ["spectrum", "--case", "rational", "--alpha", "1/2", "--n", "0..5",
                       "--format", "json"]),
    ("spectrum_gaussian.json", ["spectrum", "--alpha", "1/2", "--n", "0..2", "--format", "json"]),
    ("table1.csv", ["table", "--reproduce", "table1", "--format", "csv"]),
    ("table1.json", ["table", "--reproduce", "table1", "--format", "json"]),
    ("table2.csv", ["table", "--reproduce", "table2", "--format", "csv"]),
    ("table2.json", ["table", "--reproduce", "table2", "--format", "json"]),
]


@pytest.mark.parametrize("name, args", GOLDEN_CALLS, ids=[name for name, _ in GOLDEN_CALLS])
def test_output_matches_golden_file(runner, tmp_path, name, args):
    golden = (GOLDEN / name).read_bytes()
    res = invoke(runner, args)
    assert res.exit_code == 0
    assert res.stdout_bytes == golden
    out = tmp_path / name
    assert invoke(runner, args + ["-o", str(out)]).exit_code == 0
    assert out.read_bytes() == golden


# writes the output of each (name, args) pair of argv[2] to the file of that
# name in directory argv[1], from one interpreter
_GOLDEN_CHILD = """
import json, sys
from pathlib import Path
from click.testing import CliRunner
from dunklkg.cli import cli
for name, args in json.loads(sys.argv[2]):
    res = CliRunner().invoke(cli, args, catch_exceptions=False)
    assert res.exit_code == 0, (name, res.stderr)
    (Path(sys.argv[1]) / name).write_bytes(res.stdout_bytes)
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="NPY_DISABLE_CPU_FEATURES names x86 feature groups",
)
def test_golden_files_without_avx2(tmp_path):
    # numpy's AVX2/AVX-512 kernels are off in the child only; every golden
    # must come out with the same bytes
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4")
    src = str(Path(dunklkg.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", _GOLDEN_CHILD, str(tmp_path), json.dumps(GOLDEN_CALLS)],
        env=env, check=True,
    )
    for name, _ in GOLDEN_CALLS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


# --- any float input: an exit code, never a traceback or a NaN ---------------------

# st.floats() draws nan, +-inf and subnormals; the extremes are added so that
# every run meets them, and half the draws come from a range where the
# command can succeed
EXTREMES = st.sampled_from([1e308, -1e308, 5e-324, 0.0, -0.0])


def any_float(lo, hi):
    """Any float, from [lo, hi] about half the time."""
    return st.one_of(st.floats(lo, hi), st.one_of(st.floats(), EXTREMES))


CASES = st.sampled_from(["gaussian", "rational", "sinc"])
BRANCHES = st.sampled_from([["--case", "gaussian"]] + [
    ["--case", case, "--branch", branch]
    for case in ("rational", "sinc")
    for branch in ("plus", "minus")
])
NAN_FIELD = re.compile(r"(^|[,:\s])-?(nan|NaN)(,|$)", re.MULTILINE)


def _run_twice(args):
    runner = CliRunner()
    first, second = runner.invoke(cli, args), runner.invoke(cli, args)
    assert first.exit_code in (0, 1, 2), first.exception
    assert first.exception is None or isinstance(first.exception, SystemExit)
    assert "Traceback" not in first.stderr
    if first.exit_code == 0:
        assert not NAN_FIELD.search(first.stdout)
    assert (second.exit_code, second.stdout_bytes, second.stderr_bytes) == (
        first.exit_code, first.stdout_bytes, first.stderr_bytes
    )


@settings(derandomize=True, max_examples=50, deadline=None)
@given(case=CASES, R=any_float(0, 4), m=any_float(0.1, 4), fmt=st.sampled_from(["csv", "json"]))
def test_spectrum_any_float_input(case, R, m, fmt):
    _run_twice(["spectrum", "--case", case, "--alpha", "1/2,7/2", "--n", "0,5",
                "--R", repr(R), "--m", repr(m), "--format", fmt])


@settings(derandomize=True, max_examples=50, deadline=None)
@given(branch=BRANCHES, R=any_float(0, 4), re_xi=any_float(-0.7, 0.7),
       im_xi=any_float(-0.7, 0.7), fmt=st.sampled_from(["csv", "json"]))
def test_density_any_float_input(branch, R, re_xi, im_xi, fmt):
    _run_twice(["density", *branch, "--alpha", "3/2",
                "--xi", f"{re_xi!r}{im_xi:+}i", "--R", repr(R),
                "--points", "20", "--format", fmt])


@settings(derandomize=True, max_examples=50, deadline=None)
@given(branch=BRANCHES, R=any_float(0, 4), tau=any_float(-10, 10),
       re_xi=any_float(-0.7, 0.7), im_xi=any_float(-0.7, 0.7), fmt=st.sampled_from(["csv", "json"]))
def test_evolve_any_float_input(branch, R, tau, re_xi, im_xi, fmt):
    _run_twice(["evolve", *branch, "--alpha", "1/2",
                "--xi", f"{re_xi!r}{im_xi:+}i", "--R", repr(R),
                "--tau", repr(tau), "--points", "20", "--format", fmt])


# --- any text input: an exit code, never a traceback --------------------------------

# Config lines end at a newline ('\r' counts as one when the file is read)
# and at '#', so neither is drawn, for config lines or flags.
ANY_CHAR = st.characters(exclude_categories=["Cs"], exclude_characters="\n\r#")


def any_text(max_size):
    """Any text, half the time over the characters the options' parsers read."""
    return st.one_of(st.text(ANY_CHAR, max_size=max_size),
                     st.text("0123456789./,+-eij ", max_size=max_size))


def text_for(key):
    # at most 5 characters of n list at most 100 entries, and at most 4 of
    # points ask for at most 9999, so no example allocates a large grid
    return any_text({"n": 5, "points": 4}.get(key, 12))


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_any_config_text(command, data):
    key = data.draw(st.sampled_from(CONFIG_KEYS[command]), label="key")
    text = data.draw(text_for(key), label="text")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(f"{key}={text}\n", encoding="utf-8")
        _run_twice(cli_args(command, BASE[command]) + ["--config", str(cfg)])


@pytest.mark.parametrize(
    "command, keys", [("spectrum", ("alpha", "n")), ("evolve", ("alpha", "xi", "n", "tau"))],
    ids=["spectrum", "evolve"],
)
@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_any_flag_text(command, keys, data):
    key = data.draw(st.sampled_from(keys), label="key")
    text = data.draw(text_for(key), label="text")
    _run_twice(cli_args(command, {**BASE[command], key: text}))
