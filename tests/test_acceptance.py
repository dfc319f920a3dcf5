"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criteria 3-10 run the ``dunklkg.verify`` checks, the one
implementation of each measurement, and pin the records they return: the
tolerance, the kind of bound and the inputs (grid spacings, seeds, sample
counts) are written here, so loosening or shrinking a check in ``verify``
fails the gate.

Criteria 5 and 6 bound the exact residuals of the ODE and of the Z3
eigenvalue relation (F_n'' from the Laguerre derivative identity, at 200
samples), and demonstrate the stencil's 4th order by halving h from within
the truncation-dominated regime (0.008 -> 0.004 for the ODE residual,
0.004 -> 0.002 for the Z3 check): at h = 1e-3 the 4th-order term already
sits below the double-precision round-off floor of the second difference.
"""

import math
import time
from fractions import Fraction

import numpy as np
from click.testing import CliRunner

from dunklkg import compare_reference, verify
from dunklkg.cli import cli

ALPHAS = (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2))
XIS = (0.3 + 0.0j, 0.5 + 0.2j, 0.1 - 0.6j)


def announce(num, description, passed=True, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {description} {detail}".rstrip())
    assert passed, f"criterion {num}: {description} {detail}"


def pinned(record, tolerance, kind="max", **inputs):
    """Assert a passing verify record with exactly the pinned tolerance, kind and inputs.

    Returns ``name=measured`` for the criterion's line.
    """
    expected = {"status": "pass", "tolerance": tolerance, "kind": kind, **inputs}
    actual = {key: record.get(key) for key in expected}
    assert actual == expected, f"{record['name']}: {actual} is not the pinned {expected}"
    measured = record["measured"]
    assert measured <= tolerance if kind == "max" else measured >= tolerance, record
    return f"{record['name']}={record['measured']:.2e}"


def test_verify_sweeps_are_pinned():
    """The sweeps and grids that criteria 4-9 run over, as verify defines them."""
    assert verify.SWEEP_ALPHAS == ALPHAS and list(verify.SWEEP_N) == list(range(6))
    assert verify.SERIES_XIS == XIS and (verify.R_MIN, verify.R_MAX) == (0.1, 20.0)
    # the coherent-state grids, as their linspace arguments (start, stop, samples)
    assert verify.SERIES_X == (0.01, 1.2, 120) and verify.DENSITY_X == (0.01, 2.0, 400)


def test_criterion_01_table1_reproduction():
    start = time.perf_counter()
    cmp = compare_reference("table1", tolerance=1e-2)
    elapsed = time.perf_counter() - start
    ok = cmp.passed and len(cmp.entries) == 36 and elapsed < 1.0
    announce(
        1,
        "table1 entrywise reproduction within 1e-2,",
        ok,
        f"max_dev={cmp.max_deviation:.2e} runtime={elapsed*1e3:.0f}ms",
    )


def test_criterion_02_table2_reproduction():
    start = time.perf_counter()
    cmp = compare_reference("table2", tolerance=1e-2)
    elapsed = time.perf_counter() - start
    # the n=0 label anomaly rows must match as printed (big branch on E_-)
    swap_rows = [
        e for e in cmp.entries
        if e["n"] == 0 and e["alpha"] in ("3/2", "7/2") and e["branch"] == "minus"
    ]
    swaps_ok = all(abs(e["reference_im"]) > 1.0 and e["deviation"] <= 1e-2 for e in swap_rows)
    ok = cmp.passed and swaps_ok and elapsed < 1.0
    announce(
        2,
        "table2 entrywise reproduction within 1e-2 (incl. n=0 branch-role swap rows),",
        ok,
        f"max_dev={cmp.max_deviation:.2e} runtime={elapsed*1e3:.0f}ms",
    )


def test_criterion_03_casimir_identity():
    detail = pinned(verify.check_casimir_identity(), 1e-13)
    announce(3, "Casimir/Bargmann identity |k(k-1) + a/2 + 3/16| and Casimir eigenvalue < 1e-13,",
             detail=detail)


def test_criterion_04_self_consistency():
    detail = pinned(verify.check_self_consistency(), 1e-13)
    announce(4, "eigenvalue relation residual < 1e-13 on some branch for every (case, alpha, n),",
             detail=detail)


def test_criterion_05_ode_residuals():
    detail = " ".join([
        pinned(verify.check_ode_residual(verify.exact_sweep), 1e-12, samples=200),
        pinned(verify.check_ode_convergence(verify.grid_sweep, 1e-3), 8.0, "min", h_coarse=0.008, h_fine=0.004),
    ])
    announce(5, "exact ODE residual < 1e-12 at 200 samples and 4th-order h->h/2 shrink >= 8x,",
             detail=detail)


def test_criterion_06_z3_eigenvalue():
    detail = " ".join([
        pinned(verify.check_z3_eigenvalue(verify.exact_sweep), 1e-13, samples=200),
        pinned(verify.check_z3_convergence(verify.grid_sweep, 1e-3), 8.0, "min", h_coarse=0.004, h_fine=0.002),
    ])
    announce(6, "exact Z3 eigenvalue residual < 1e-13 at 200 samples and h->h/2 shrink >= 8x,",
             detail=detail)


def test_criterion_07_series_oracle_equivalence():
    detail = pinned(verify.check_series_agreement(), 1e-6)
    announce(7, "closed form vs Perelomov series sup-rel difference < 1e-6,", detail=detail)


def test_criterion_08_xi_zero_reduction():
    detail = pinned(verify.check_xi_zero_reduction(), 1e-12, seed=20240811, samples=100)
    announce(8, "xi=0 reduction to the n=0 eigenfunction within 1e-12 at 100 random x,",
             detail=detail)


def test_criterion_09_time_evolution():
    tau_zero = verify.check_tau_zero_reduction()
    detail = " ".join([pinned(tau_zero, 1e-15), pinned(verify.check_tau_periodicity(), 1e-10)])
    # single-command emission of the published evolution-figure parameters
    res = CliRunner().invoke(
        cli,
        ["evolve", "--alpha", "1/2", "--xi", "0.5+0.2i", "--n", "1",
         "--tau", f"{math.pi/2},{3*math.pi/2},{2*math.pi},{3*math.pi}", "--points", "200"],
        catch_exceptions=False,
    )
    blocks = [b for b in res.output.split("# ") if b.strip()]
    emitted_ok = res.exit_code == 0 and len(blocks) == 4
    for block in blocks:
        rows = np.array(
            [[float(v) for v in line.split(",")] for line in block.strip().split("\n")[2:]]
        )
        emitted_ok = emitted_ok and bool(np.all(rows[:, 3] >= 0.0))
        # emitted CSV carries 9 significant digits; in-memory normalization
        # is separately checked to 1e-10 by criterion-9's density evaluation
        emitted_ok = emitted_ok and abs(np.trapezoid(rows[:, 3], rows[:, 0]) - 1.0) < 1e-7
    # tau = 0 must reproduce the closed form exactly, not merely within 1e-15
    ok = tau_zero["measured"] == 0.0 and emitted_ok
    announce(9, "tau=0 exact, 2pi-periodic normalized densities, evolved profiles emitted,",
             ok, f"{detail} blocks={len(blocks)}")


def test_criterion_10_special_function_suite():
    detail = " ".join([
        pinned(verify.check_laguerre_recurrence(), 1e-10, seed=977101, samples=200),
        pinned(verify.check_gamma_recurrence(), 1e-11, seed=515253, samples=500),
        pinned(verify.check_gamma_reflection(), 1e-14, seed=616263, samples=500),
    ])
    announce(10, "Laguerre recurrence < 1e-10, gamma recurrence < 1e-11, reflection < 1e-14,",
             detail=detail)


# Bounds on verify's su(1,1) diagnostics, exact at 200 samples for alpha in
# {1/2, 3/2, 7/2}: about twice the larger of the values measured natively and
# with numpy's AVX2 and AVX-512 kernels disabled
# (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4").  With the Z3 eigenvalue relation
# (criterion 6's z3_eigenvalue), the ladder action on F_0 .. F_5 gives the
# commutation relations on span{F_0, .., F_4}.
SU11_BOUNDS = {
    "ladder_action_plus": 1.5e-14,      # 6.55e-15 natively, 7.11e-15 without AVX2
    "ladder_action_minus": 8e-15,       # 3.27e-15 natively, 3.93e-15 without AVX2
}


def test_criterion_11_soft_trend_diagnostics():
    """Reported, not gated by ``verify``: peak trends and the su(1,1) algebra.

    The peak trends need only be produced.  Each direction of the ladder
    action must also measure below its bound here, which holds the algebra
    in the gate while ``verify`` reports it as measured only.
    """
    peaks = verify.diagnostics_peak_trend()
    su11 = verify.diagnostics_ladder(verify.exact_sweep)
    within = [
        rec["name"] for rec in su11
        if rec["samples"] == 200 and rec["measured"] < SU11_BOUNDS.get(rec["name"], 0.0)
    ]
    passed = len(peaks) == 2 and within == list(SU11_BOUNDS)
    for item in peaks + su11:
        print(f"   measured {item['name']}: {item['measured']}")
    announce(11, "figure trends reported, su(1,1) ladder action within bounds,",
             passed, " ".join(f"{rec['name']}={rec['measured']:.2e}" for rec in su11))
