"""Every memory estimate bounds what its code path allocates.

``require_memory`` refuses work whose points times a fixed number of bytes
per point exceeds physical memory.  Each constant here is checked against
the tracemalloc peak of its path, measured after a warm-up call, so a
change that makes a path heavier fails here instead of slipping past the
guard.  The profile writers have no constant: they stream their text in
blocks, so their peak is held under one bound whatever the points, and a
CLI export stays within the estimate for building its profile.
"""

import gc
import tracemalloc
from fractions import Fraction

import pytest
from click.testing import CliRunner

from dunklkg import CurvatureCase, build_profile, gridops, verify
from dunklkg.cli import cli
from dunklkg.coherent import (
    _PROFILE_BYTES_PER_POINT,
    _PROFILES_BYTES_PER_POINT,
    build_profiles,
    profiles_to_csv,
    profiles_to_json,
)

GAUSSIAN = CurvatureCase.GAUSSIAN
HALF = Fraction(1, 2)


def traced_peak(work) -> int:
    """Peak bytes that tracemalloc sees allocated while ``work()`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def profile(points, n=1, tau=0.0):
    return build_profile(GAUSSIAN, HALF, n, 0.5 + 0.2j, tau=tau, points=points, evolved=True)


def grid_points(h):
    return round((verify.R_MAX - verify.R_MIN) / h) + 1


# build_profile peaks at 48 B/point with the closed form's exponent built in
# place (81 when it was scattered from a masked copy of x into a zeroed array)
PROFILE_PEAK_BYTES_PER_POINT = 64


@pytest.mark.parametrize("points", [100_000, 400_000])
def test_profile_constant_bounds_build_profile(points):
    profile(100)
    peak = traced_peak(lambda: profile(points))
    assert peak <= _PROFILE_BYTES_PER_POINT * points
    assert peak <= PROFILE_PEAK_BYTES_PER_POINT * points


@pytest.mark.parametrize("count", [2, 4])
def test_profiles_constant_bounds_every_profile_held_at_once(count):
    # one profile is bounded by build_profile's own constant above
    points = 50_000
    build_profiles(GAUSSIAN, HALF, [0], 0.3, [0.0], points=100, evolved=True)
    peak = traced_peak(lambda: build_profiles(GAUSSIAN, HALF, range(count), 0.3, [0.0],
                                              points=points, evolved=True))
    assert peak <= _PROFILES_BYTES_PER_POINT * count * points


def test_positive_grid_constant_bounds_a_verify_grid_sweep():
    verify.grid_sweep(1e-2)
    peak = traced_peak(lambda: verify.grid_sweep(1e-3))
    assert peak <= gridops._POSITIVE_GRID_BYTES_PER_POINT * grid_points(1e-3)


# A stencil sweep at h = 1e-3 peaks at 135 B/point while z3_values sums in its
# second-derivative array (151 with r F'' as a new array).  verify itself
# sweeps no grid finer than 0.002, so this bounds the stencil path alone.
SWEEP_BYTES_PER_POINT = 160


def test_verify_grid_sweep_peak_per_point():
    verify.grid_sweep(1e-2)
    peak = traced_peak(lambda: verify.grid_sweep(1e-3))
    assert peak <= SWEEP_BYTES_PER_POINT * grid_points(1e-3)


def test_positive_grid_constant_bounds_the_ladder_diagnostic():
    verify.diagnostics_ladder()
    peak = traced_peak(verify.diagnostics_ladder)
    assert peak <= gridops._POSITIVE_GRID_BYTES_PER_POINT * grid_points(verify.DIAGNOSTIC_H)


def test_positive_grid_constant_bounds_a_whole_verify_run():
    # the ladder diagnostic at h = 0.002 sets the peak (1.6 MiB); the exact
    # residuals take no grid, and the stencil sweeps none finer than 0.002
    verify.run_verification()
    peak = traced_peak(verify.run_verification)
    assert peak <= gridops._POSITIVE_GRID_BYTES_PER_POINT * grid_points(verify.DIAGNOSTIC_H)


# Measured 2.9 MB for JSON and 1.2 MB for CSV at both sizes.  Text built
# whole would peak at about 137 MB (JSON) and 28 MB (CSV) at 200k points.
WRITER_PEAK_BOUND = 4 * 2**20


@pytest.mark.parametrize("writer", [profiles_to_json, profiles_to_csv],
                         ids=["json", "csv"])
def test_streamed_writers_peak_does_not_grow_with_points(writer):
    def drain(profiles):
        for _ in writer(profiles):
            pass

    for points in (20_000, 200_000):
        profiles = [profile(points)]
        assert traced_peak(lambda: drain(profiles)) <= WRITER_PEAK_BOUND, points


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_export_peaks_while_it_builds_its_profile(tmp_path, fmt):
    # the blocks go to the -o file as they come, so writing adds the writer's
    # fixed peak to the 32 B/point the profile holds, and the command stays
    # within build_profile's estimate (57 B/point measured for CSV, 88 for
    # JSON); text built whole would add 138 (CSV) or 685 (JSON) B/point
    points = 50_000
    args = ["density", "--alpha", "1/2", "--xi", "0.5+0.2i", "--n", "1", "--format", fmt,
            "-o", str(tmp_path / f"out.{fmt}")]
    runner = CliRunner()
    runner.invoke(cli, args + ["--points", "100"], catch_exceptions=False)
    peak = traced_peak(lambda: runner.invoke(cli, args + ["--points", str(points)],
                                             catch_exceptions=False))
    assert peak <= _PROFILE_BYTES_PER_POINT * points
