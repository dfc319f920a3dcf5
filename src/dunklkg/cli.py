"""Command-line surface: spectra, density profiles, time evolution,
published-table regression, and the verification suite.

Output is byte-deterministic for a fixed invocation: CSV numerics use 9
significant digits, JSON documents are exactly what json.dumps(...,
indent=2) writes (numbers in Python's shortest round-trip repr, <= 17
significant digits).  The DUNKLKG_FORMAT environment variable sets the
default output format; a config file passed via --config holds key=value
lines whose values override the corresponding flags.
"""

from __future__ import annotations

import functools
import json
import os
import stat
import sys
from typing import List, Optional

import click

from .coherent import PhaseConvention, build_profile, profiles_to_json
from .errors import DunklKGError, NormalizationError
from .model import CurvatureCase, parse_alpha, parse_complex
from .refdata import TABLES, compare_reference
from .spectrum import csv_text, spectrum_table, table_to_csv, table_to_json
from .verify import report_to_json, run_verification

ENV_FORMAT = "DUNKLKG_FORMAT"


def _parse_n_list(spec: str) -> List[int]:
    """'0..5' (inclusive range), '0,2,5', or a single integer."""
    try:
        spec = spec.strip()
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError("empty range")
            try:
                values = list(range(lo_i, hi_i + 1))
            except MemoryError:  # CPython's failed allocation carries no message
                raise MemoryError(
                    f"n range {spec!r} has {hi_i - lo_i + 1} entries, too many to hold in memory"
                ) from None
        else:
            values = [int(tok) for tok in spec.split(",") if tok.strip()]
        if not values:
            raise ValueError("no entries")
        if min(values) < 0:
            raise ValueError("n must be non-negative")
        return values
    except ValueError as exc:
        raise click.UsageError(f"bad n specification {spec!r}: {exc}") from exc


def _parse_list(name: str, spec: str, parse) -> list:
    """A comma list; an empty one, or an entry ``parse`` rejects with
    ValueError, is a usage error."""
    try:
        values = [parse(tok) for tok in spec.split(",") if tok.strip()]
        if not values:
            raise ValueError("no entries")
        return values
    except ValueError as exc:
        raise click.UsageError(f"bad {name} specification {spec!r}: {exc}") from exc


def _numeric(vals: dict, key: str, kind=float):
    """Convert a (possibly config-supplied) value; malformed input is a usage error."""
    try:
        return kind(vals[key])
    except ValueError as exc:
        raise click.UsageError(f"bad value for {key}: {vals[key]!r}") from exc


def _load_config(path: Optional[str]) -> dict:
    """key=value lines; '#' starts a comment.  Values override flags."""
    if path is None:
        return {}
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.UsageError(f"config line {raw.rstrip()!r} is not key=value")
            key, value = line.split("=", 1)
            overrides[key.strip().replace("-", "_")] = value.strip()
    return overrides


def _apply_config(config: dict, **values):
    """Return values with config-file overrides applied."""
    out = dict(values)
    for key, raw in config.items():
        if key not in out:
            raise click.UsageError(f"unknown config key {key!r}")
        out[key] = raw
    return out


def _default_format() -> str:
    fmt = os.environ.get(ENV_FORMAT, "csv").lower()
    return fmt if fmt in ("csv", "json") else "csv"


def _opens_output(command):
    """Open the -o file before the command computes anything.

    An unwritable path then fails at once, not after the work.  The file is
    opened for appending, so a run that fails leaves an existing file's
    bytes as they were, and a file it had to create is removed again;
    ``_emit`` replaces the contents on success.
    """

    @functools.wraps(command)
    def opened(*args, output=None, **kwargs):
        if output is None:
            return command(*args, output=None, **kwargs)
        existed = os.path.exists(output)
        with open(output, "a", encoding="utf-8") as fh:
            try:
                return command(*args, output=fh, **kwargs)
            finally:
                if not existed and fh.tell() == 0:  # failed before writing
                    os.unlink(output)

    return opened


def _emit(text: str, output) -> None:
    """Write to stdout, or replace the contents of the opened -o file."""
    if output is None:
        sys.stdout.write(text)
        return
    if stat.S_ISREG(os.fstat(output.fileno()).st_mode):  # not /dev/null, a pipe, ...
        output.truncate(0)
    output.write(text)


def _exit_codes(command):
    """The CLI's one error boundary: bad input exits 2, a failed computation exits 1.

    NormalizationError, ValueError, OverflowError and MemoryError (a grid
    or n range larger than the machine can hold) are failed computations
    and print ``error: ...``; every other DunklKGError, and an OSError from
    an unreadable --config or unwritable -o path, is bad input and becomes
    a usage error.  A closed stdout pipe is left to click, which exits 1
    quietly.
    """

    @functools.wraps(command)
    def guarded(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (NormalizationError, ValueError, OverflowError, MemoryError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise click.exceptions.Exit(1) from exc
        except BrokenPipeError:
            raise
        except (DunklKGError, OSError) as exc:
            raise click.UsageError(str(exc)) from exc

    return guarded


@click.group()
def cli():
    """Complex spectra, radial eigenfunctions and su(1,1) coherent states
    of the canonical Dunkl-Klein-Gordon equation."""


@cli.command("spectrum")
@click.option("--case", "case_name", default="gaussian", show_default=True,
              type=click.Choice([c.value for c in CurvatureCase]))
@click.option("--alpha", "alpha_text", required=True, multiple=True,
              help="half-odd rational 'p/2'; repeatable")
@click.option("--n", "n_spec", default="0..5", show_default=True,
              help="'lo..hi' or comma list")
@click.option("--R", "-R", "curvature", default=1.0, show_default=True, type=float)
@click.option("--m", "mass", default=1.0, show_default=True, type=float)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("-o", "--output", default=None, help="write to file instead of stdout")
@_exit_codes
@_opens_output
def cmd_spectrum(case_name, alpha_text, n_spec, curvature, mass, fmt, config_path, output):
    """Emit the complex energy table for the chosen case."""
    cfg = _load_config(config_path)
    vals = _apply_config(
        cfg,
        case=case_name,
        alpha=",".join(alpha_text),
        n=n_spec,
        R=str(curvature),
        m=str(mass),
        format=fmt or _default_format(),
    )
    case = CurvatureCase.from_name(vals["case"])
    alphas = _parse_list("alpha", vals["alpha"], parse_alpha)
    n_list = _parse_n_list(vals["n"])
    table = spectrum_table(case, alphas, n_list, _numeric(vals, "R"), _numeric(vals, "m"))
    text = table_to_csv(table) if vals["format"] == "csv" else table_to_json(table)
    _emit(text, output)


@cli.command("table")
@click.option("--reproduce", "table_id", required=True,
              type=click.Choice(sorted(TABLES)))
@click.option("--tol", default=1e-2, show_default=True, type=float)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
@click.option("-o", "--output", default=None)
@_exit_codes
@_opens_output
def cmd_table(table_id, tol, fmt, output):
    """Regenerate a published reference table and diff it entrywise.

    Exits 0 iff every component deviation is within --tol.
    """
    cmp = compare_reference(table_id, tol)
    meta = {
        "table": cmp.table,
        "case": cmp.case.value,
        "tolerance": cmp.tolerance,
        "max_deviation": cmp.max_deviation,
        "passed": cmp.passed,
    }
    if (fmt or _default_format()) == "json":
        text = json.dumps({**meta, "entries": list(cmp.entries)}, indent=2) + "\n"
    else:
        # every table has entries, all with the keys of the first
        text = csv_text(cmp.entries[0].keys(), (e.values() for e in cmp.entries), meta)
    _emit(text, output)
    if not cmp.passed:
        raise click.exceptions.Exit(1)


def _profile_command(evolved: bool):
    @click.option("--case", "case_name", default="gaussian", show_default=True,
                  type=click.Choice([c.value for c in CurvatureCase]))
    @click.option("--alpha", "alpha_text", required=True)
    @click.option("--xi", "xi_text", required=True, help="complex literal, e.g. 0.5+0.2i")
    @click.option("--n", "n_spec", default="0", show_default=True)
    @click.option("--tau", "tau_spec", default="0" if not evolved else None,
                  required=evolved, help="comma list of evolution times")
    @click.option("--branch", type=click.Choice(["plus", "minus"]), default=None,
                  help="spectral branch (required for rational/sinc)")
    @click.option("--phase-convention", "convention",
                  type=click.Choice([c.value for c in PhaseConvention]),
                  default=PhaseConvention.CORRECTED.value, show_default=True)
    @click.option("--R", "-R", "curvature", default=1.0, show_default=True, type=float)
    @click.option("--m", "mass", default=1.0, show_default=True, type=float)
    @click.option("--x-min", default=0.01, show_default=True, type=float)
    @click.option("--x-max", default=2.0, show_default=True, type=float)
    @click.option("--points", default=400, show_default=True, type=int)
    @click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None)
    @click.option("--config", "config_path", type=click.Path(exists=True), default=None)
    @click.option("-o", "--output", default=None)
    @_exit_codes
    @_opens_output
    def command(case_name, alpha_text, xi_text, n_spec, tau_spec, branch, convention,
                curvature, mass, x_min, x_max, points, fmt, config_path, output):
        cfg = _load_config(config_path)
        vals = _apply_config(
            cfg,
            case=case_name,
            alpha=alpha_text,
            xi=xi_text,
            n=n_spec,
            tau=tau_spec if tau_spec is not None else "0",
            branch=branch or "",
            phase_convention=convention,
            R=str(curvature),
            m=str(mass),
            x_min=str(x_min),
            x_max=str(x_max),
            points=str(points),
            format=fmt or _default_format(),
        )
        case = CurvatureCase.from_name(vals["case"])
        alpha = parse_alpha(vals["alpha"])
        xi = parse_complex(vals["xi"])
        n_list = _parse_n_list(vals["n"])
        tau_list = _parse_list("tau", vals["tau"], float)
        R, m = _numeric(vals, "R"), _numeric(vals, "m")
        profiles = [
            build_profile(
                case, alpha, n, xi,
                R=R, m=m, branch=vals["branch"] or None,
                tau=tau, phase_convention=PhaseConvention.from_name(vals["phase_convention"]),
                x_min=_numeric(vals, "x_min"), x_max=_numeric(vals, "x_max"),
                points=_numeric(vals, "points", int), evolved=evolved,
            )
            for n in n_list
            for tau in tau_list
        ]
        for profile in profiles:
            if profile.meta.get("warning"):
                click.echo(f"warning: {profile.meta['warning']}", err=True)
        if vals["format"] == "json":
            text = profiles_to_json(profiles)
        else:
            text = "\n".join(p.to_csv() for p in profiles)
        _emit(text, output)

    return command


cmd_density = cli.command("density")(_profile_command(evolved=False))
cmd_density.help = "Emit normalized density profiles, one block per (n, tau)."
cmd_evolve = cli.command("evolve")(_profile_command(evolved=True))
cmd_evolve.help = "Emit time-evolved normalized density profiles."


@cli.command("verify")
@click.option("--suite", default=None, help="substring filter on check names")
@click.option("--grid-h", default=1e-3, show_default=True, type=float)
@click.option("-o", "--output", default=None)
@_exit_codes
@_opens_output
def cmd_verify(suite, grid_h, output):
    """Run the verification suite; exit 0 iff every assertable check passes.

    Measured-only diagnostics (the su(1,1) commutator relations and ladder
    action of Z3 and T+-, density-peak trends, the strict-principal
    residual) are included in the JSON report but never affect the exit
    code.
    """
    report = run_verification(grid_h=grid_h, suite=suite)
    _emit(report_to_json(report), output)
    if not report["passed"]:
        raise click.exceptions.Exit(1)


def main():
    cli(prog_name="dunklkg")


if __name__ == "__main__":
    main()
