"""Command-line surface: spectra, density profiles, time evolution,
published-table regression, and the verification suite.

Output is byte-deterministic for a fixed invocation: CSV numerics use 9
significant digits, JSON documents are exactly what json.dumps(...,
indent=2) writes (numbers in Python's shortest round-trip repr, <= 17
significant digits).

Each option has one parser, its click declaration.  The DUNKLKG_FORMAT
environment variable is the default of the shared --format option (a
value other than csv or json exits 2), and the key=value lines of a
--config file override the flags of the same name, each value converted
by its flag's click type, so it is parsed exactly as the same text after
the flag.  Choice names (--case, --phase-convention, --format) ignore
letter case.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import json
import os
import stat
import sys
from typing import Iterable, List

# One BLAS thread when the CLI is the first to load numpy: no call here
# reaches BLAS with more than 6 elements, and OpenBLAS would otherwise start
# a worker per core that spins at every start-up.  A host that imported
# numpy first, or an explicit setting, is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

# The scalar modules load eagerly: none of them loads numpy, so `spectrum`,
# `table` and --help run without it (numpy is most of a cold call's import
# time).  `verify` loads lazily and loads no numpy itself; the array modules,
# and numpy with them, load lazily too, on the first attribute access by
# density, evolve or a verify check that computes on arrays, so the scalar
# suites (casimir, sigma, table, self_consistency) also run without numpy.
from .errors import DunklKGError, NormalizationError
from .model import CurvatureCase, PhaseConvention, parse_alpha, parse_complex
from .refdata import TABLES, compare_reference
from .spectrum import csv_text, spectrum_table, table_to_csv, table_to_json


def _lazy(name):
    """The package module ``name``, executed on its first attribute access.

    Lazy, not imported inside the commands, because the benchmark tracer
    reads the modules it wraps from sys.modules right after importing this
    one; once it imports them itself, imports in the commands can replace
    this.  A module already loaded is kept, and a new one is set on the
    package as an import would, so ``dunklkg.<name>`` is one object.
    """
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


_, _, coherent, verify = map(_lazy, ("gridops", "eigenfunctions", "coherent", "verify"))


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


def _open(path: str, mode: str):
    """The --config or -o file, opened; a path that cannot be opened (a
    missing directory, a directory, no permission) is bad input."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(str(exc)) from exc


def _reads_config(command):
    """Apply the --config file: its key=value lines override the flags.

    '#' starts a comment.  A key names one of the command's options (not
    ``config`` or ``output``), and the value is converted by that option's
    own click type, so it is parsed exactly as the same text after the flag.
    """

    @functools.wraps(command)
    def configured(*args, config=None, **values):
        if config is None:
            return command(*args, **values)
        ctx = click.get_current_context()
        params = {p.name: p for p in ctx.command.params if p.name not in ("config", "output")}
        with _open(config, "r") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as exc:
                raise click.UsageError(f"config file {config!r} is not UTF-8: {exc}") from None
        for raw in lines:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.UsageError(f"config line {raw.rstrip()!r} is not key=value")
            key, text = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in params:
                raise click.UsageError(f"unknown config key {key!r}")
            param = params[key]
            try:
                values[key] = param.type_cast_value(ctx, (text,) if param.multiple else text)
            except click.BadParameter as exc:
                exc.param_hint = f"config key {key!r}"
                raise
        return command(*args, **values)

    return configured


def _opens_output(command):
    """Open the -o file before the command computes anything.

    An unwritable path then fails at once, not after the work.  The file is
    opened for appending, so a run that fails leaves an existing file's
    bytes as they were, and a file it had to create is removed again;
    ``_emit`` replaces the contents once the results are computed.
    """

    @functools.wraps(command)
    def opened(*args, output=None, **kwargs):
        if output is None:
            return command(*args, output=None, **kwargs)
        existed = os.path.exists(output)
        with _open(output, "a") as fh:
            try:
                return command(*args, output=fh, **kwargs)
            finally:
                if not existed and fh.tell() == 0:  # failed before writing
                    os.unlink(output)

    return opened


def _emit(blocks: Iterable[str], output) -> None:
    """Write the text blocks, each as it comes, to stdout or in place of the
    contents of the opened -o file.

    Every command calls this once all its results are computed, so a run
    that fails writes nothing; the profile writers format each block only
    when it is asked for, so the document is never whole in memory.  The
    final flush makes a failed write (a full disk) fail here, inside the
    error boundary, however the stream is buffered.
    """
    if output is None:
        output = sys.stdout
    elif stat.S_ISREG(os.fstat(output.fileno()).st_mode):  # not /dev/null, a pipe, ...
        output.truncate(0)
    try:
        for block in blocks:
            output.write(block)
        output.flush()
    except BrokenPipeError:
        raise
    except OSError:
        if output is sys.stdout:  # drop what the device refused, or the exit flush retries it
            with contextlib.suppress(OSError):
                output.close()
        raise


def _exit_codes(command):
    """The CLI's one error boundary: bad input exits 2, a failed computation exits 1.

    NormalizationError, ValueError, OverflowError and MemoryError (a grid
    or n range larger than the machine can hold) are failed computations,
    as is an OSError from writing the results (a full disk); they print
    ``error: ...``.  Every other DunklKGError is bad input and becomes a
    usage error, as does a --config or -o path that cannot be opened
    (``_open``).  A closed stdout pipe is left to click, which exits 1
    quietly.
    """

    @functools.wraps(command)
    def guarded(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except BrokenPipeError:
            raise
        except (NormalizationError, ValueError, OverflowError, MemoryError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise click.exceptions.Exit(1) from exc
        except DunklKGError as exc:
            raise click.UsageError(str(exc)) from exc

    return guarded


@click.group()
def cli():
    """Complex spectra, radial eigenfunctions and su(1,1) coherent states
    of the canonical Dunkl-Klein-Gordon equation."""


_CASE = click.option("--case", default="gaussian", show_default=True,
                     type=click.Choice([c.value for c in CurvatureCase], case_sensitive=False))
_R = click.option("--R", "-R", "R", default=1.0, show_default=True, type=float)
_FORMAT = click.option("--format", default="csv", show_default=True,
                       envvar="DUNKLKG_FORMAT", show_envvar=True,
                       type=click.Choice(["csv", "json"], case_sensitive=False))
_CONFIG = click.option("--config", type=click.Path(exists=True), default=None,
                       help="key=value lines that override the flags")
_OUTPUT = click.option("-o", "--output", default=None, help="write to file instead of stdout")


@cli.command("spectrum")
@_CASE
@click.option("--alpha", required=True, multiple=True,
              help="half-odd rational 'p/2'; repeatable")
@click.option("--n", default="0..5", show_default=True, help="'lo..hi' or comma list")
@_R
@click.option("--m", default=1.0, show_default=True, type=float)
@_FORMAT
@_CONFIG
@_OUTPUT
@_exit_codes
@_opens_output
@_reads_config
def cmd_spectrum(case, alpha, n, R, m, format, output):
    """Emit the complex energy table for the chosen case."""
    alphas = _parse_list("alpha", ",".join(alpha), parse_alpha)
    table = spectrum_table(CurvatureCase(case), alphas, _parse_n_list(n), R, m)
    _emit([table_to_csv(table) if format == "csv" else table_to_json(table)], output)


@cli.command("table")
@click.option("--reproduce", "table_id", required=True,
              type=click.Choice(sorted(TABLES)))
@click.option("--tol", default=1e-2, show_default=True, type=float)
@_FORMAT
@_OUTPUT
@_exit_codes
@_opens_output
def cmd_table(table_id, tol, format, output):
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
    if format == "json":
        text = json.dumps({**meta, "entries": list(cmp.entries)}, indent=2) + "\n"
    else:
        # every table has entries, all with the keys of the first
        text = csv_text(cmp.entries[0].keys(), (e.values() for e in cmp.entries), meta)
    _emit([text], output)
    if not cmp.passed:
        raise click.exceptions.Exit(1)


def _profile_command(tau_required: bool):
    """A profile command: every profile is the evolved state at its tau
    (at tau = 0 under the corrected convention, the static state bit for bit)."""
    @_CASE
    @click.option("--alpha", required=True, help="half-odd rational 'p/2'")
    @click.option("--xi", required=True, help="complex literal, e.g. 0.5+0.2i")
    @click.option("--n", default="0", show_default=True, help="'lo..hi' or comma list")
    @click.option("--tau", default=None if tau_required else "0", show_default=True,
                  required=tau_required, help="comma list of evolution times")
    @click.option("--branch", type=click.Choice(["plus", "minus"]), default=None,
                  help="spectral branch (required for rational/sinc)")
    @click.option("--phase-convention", default=PhaseConvention.CORRECTED.value,
                  show_default=True, type=click.Choice([c.value for c in PhaseConvention],
                                                       case_sensitive=False))
    @_R
    @click.option("--x-min", default=0.01, show_default=True, type=float)
    @click.option("--x-max", default=2.0, show_default=True, type=float)
    @click.option("--points", default=400, show_default=True, type=int)
    @_FORMAT
    @_CONFIG
    @_OUTPUT
    @_exit_codes
    @_opens_output
    @_reads_config
    def command(case, alpha, xi, n, tau, branch, phase_convention, R, x_min, x_max,
                points, format, output):
        case = CurvatureCase(case)
        alpha, xi = parse_alpha(alpha), parse_complex(xi)
        n_list, tau_list = _parse_n_list(n), _parse_list("tau", tau, float)
        profiles = coherent.build_profiles(
            case, alpha, n_list, xi, tau_list, R=R, branch=branch,
            phase_convention=PhaseConvention(phase_convention),
            x_min=x_min, x_max=x_max, points=points, evolved=True,
        )
        for profile in profiles:
            if profile.meta.get("warning"):
                click.echo(f"warning: {profile.meta['warning']}", err=True)
        writer = coherent.profiles_to_json if format == "json" else coherent.profiles_to_csv
        _emit(writer(profiles), output)

    return command


cmd_density = cli.command("density")(_profile_command(tau_required=False))
cmd_density.help = "Emit normalized density profiles, one block per (n, tau)."
cmd_evolve = cli.command("evolve")(_profile_command(tau_required=True))
cmd_evolve.help = "Emit time-evolved normalized density profiles."


@cli.command("verify")
@click.option("--suite", default=None, help="substring filter on check names")
@click.option("--grid-h", default=1e-3, show_default=True, type=float)
@_OUTPUT
@_exit_codes
@_opens_output
def cmd_verify(suite, grid_h, output):
    """Run the verification suite; exit 0 iff every assertable check passes.

    Measured-only diagnostics (the su(1,1) ladder action of T+- on the
    eigenfunctions, which with the Z3 check gives the commutation relations,
    density-peak trends, the strict-principal residual) are included in the
    JSON report but never affect the exit code.
    """
    report = verify.run_verification(grid_h=grid_h, suite=suite)
    _emit([verify.report_to_json(report)], output)
    if not report["passed"]:
        raise click.exceptions.Exit(1)


def main():
    cli(prog_name="dunklkg")


if __name__ == "__main__":
    main()
