"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.

Convergence-ratio sub-checks (criteria 5 and 6) halve h from within the
truncation-dominated regime (0.008 -> 0.004 for the ODE residual,
0.004 -> 0.002 for the Z3 check): at h = 1e-3 the 4th-order term already
sits below the double-precision round-off floor of the second-difference
stencil, so the bound checks run at the stated h = 1e-3 and the
order-of-convergence demonstration at the documented coarser pair.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from dunklkg import (
    CoherentParams,
    CurvatureCase,
    bargmann_index,
    coherent_closed_form,
    coherent_evolved,
    coherent_series,
    compare_reference,
    density_profile,
    eigenfunction_x,
    gamma,
    laguerre_sequence,
    ode_residual,
    radial_coupling,
    self_consistency_residual,
    z3_eigenvalue_residual,
)
from dunklkg.cli import cli
from dunklkg.verify import (
    diagnostics_commutators,
    diagnostics_ladder,
    diagnostics_peak_trend,
)

ALPHAS = [Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)]
XIS = [0.3 + 0.0j, 0.5 + 0.2j, 0.1 - 0.6j]


def announce(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {description} {detail}".rstrip())
    assert passed, f"criterion {num}: {description} {detail}"


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
    worst = 0.0
    for num in range(1, 100, 2):
        alpha = Fraction(num, 2)
        k = bargmann_index(alpha)
        worst = max(worst, abs(k * (k - 1.0) + radial_coupling(alpha)))
    announce(3, "Casimir/Bargmann identity |k(k-1) + a/2 + 3/16| < 1e-13,", worst < 1e-13,
             f"worst={worst:.2e}")


def test_criterion_04_self_consistency():
    worst = 0.0
    for case in CurvatureCase:
        for alpha in ALPHAS:
            for n in range(6):
                worst = max(worst, self_consistency_residual(case, n, alpha, 1.0, 1.0))
    announce(4, "eigenvalue relation residual < 1e-8 on some branch for every (case, alpha, n),",
             worst < 1e-8, f"worst={worst:.2e}")


def test_criterion_05_ode_residuals():
    worst = max(ode_residual(n, a, 0.1, 20.0, 1e-3) for a in ALPHAS for n in range(6))
    coarse = max(ode_residual(n, a, 0.1, 20.0, 8e-3) for a in ALPHAS for n in range(6))
    fine = max(ode_residual(n, a, 0.1, 20.0, 4e-3) for a in ALPHAS for n in range(6))
    ratio = coarse / fine
    ok = worst < 1e-5 and ratio >= 8.0
    announce(5, "ODE residual < 1e-5 at h=1e-3 and 4th-order h->h/2 shrink >= 8x,",
             ok, f"worst={worst:.2e} ratio={ratio:.1f} (0.008->0.004)")


def test_criterion_06_z3_eigenvalue():
    worst = max(z3_eigenvalue_residual(n, a, h=1e-3) for a in ALPHAS for n in range(6))
    coarse = max(z3_eigenvalue_residual(n, a, h=4e-3) for a in ALPHAS for n in range(6))
    fine = max(z3_eigenvalue_residual(n, a, h=2e-3) for a in ALPHAS for n in range(6))
    ratio = coarse / fine
    ok = worst < 1e-4 and ratio >= 8.0
    announce(6, "Z3 eigenvalue residual < 1e-4 at h=1e-3 and h->h/2 shrink >= 8x,",
             ok, f"worst={worst:.2e} ratio={ratio:.1f} (0.004->0.002)")


def test_criterion_07_series_oracle_equivalence():
    x = np.linspace(0.01, 1.2, 120)
    worst = 0.0
    for alpha in ALPHAS:
        for xi in XIS:
            params = CoherentParams.for_case(CurvatureCase.GAUSSIAN, alpha, 0, xi)
            closed = coherent_closed_form(x, params)
            series = coherent_series(x, params)
            worst = max(worst, float(np.max(np.abs(closed - series)) / np.max(np.abs(closed))))
    announce(7, "closed form vs Perelomov series sup-rel difference < 1e-6,",
             worst < 1e-6, f"worst={worst:.2e}")


def test_criterion_08_xi_zero_reduction():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.01, 2.0, size=100)
    worst = 0.0
    for alpha in ALPHAS:
        params = CoherentParams.for_case(CurvatureCase.GAUSSIAN, alpha, 0, 0.0 + 0.0j)
        closed = coherent_closed_form(x, params)
        eig = eigenfunction_x(0, alpha, params.lambda_scale, x)
        worst = max(worst, float(np.max(np.abs(closed - eig) / np.abs(eig))))
    announce(8, "xi=0 reduction to the n=0 eigenfunction within 1e-12 at 100 random x,",
             worst < 1e-12, f"worst={worst:.2e}")


def test_criterion_09_time_evolution():
    x = np.linspace(0.01, 2.0, 400)
    params0 = CoherentParams.for_case(CurvatureCase.GAUSSIAN, Fraction(1, 2), 1, 0.5 + 0.2j)
    exact_tau0 = bool(
        np.array_equal(coherent_evolved(x, params0), coherent_closed_form(x, params0))
    )
    periodic = 0.0
    d0 = density_profile(x, params0, evolved=True).values
    params_2pi = CoherentParams.for_case(
        CurvatureCase.GAUSSIAN, Fraction(1, 2), 1, 0.5 + 0.2j, tau=2.0 * math.pi
    )
    d1 = density_profile(x, params_2pi, evolved=True).values
    periodic = float(np.max(np.abs(d0 - d1)) / np.max(d0))
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
    ok = exact_tau0 and periodic < 1e-10 and emitted_ok
    announce(9, "tau=0 exact, 2pi-periodic normalized densities, evolved profiles emitted,",
             ok, f"periodicity={periodic:.2e} blocks={len(blocks)}")


def test_criterion_10_special_function_suite():
    rng = np.random.default_rng(12)
    lag_worst = 0.0
    for _ in range(100):
        a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        seq = laguerre_sequence(31, a, z)
        for n in range(1, 30):
            resid = abs((n + 1) * seq[n + 1] - (2 * n + 1 + a - z) * seq[n] + (n + a) * seq[n - 1])
            lag_worst = max(lag_worst, resid / max(1.0, abs(seq[n])))
    rec_worst = 0.0
    for _ in range(300):
        z = complex(rng.uniform(0.5, 19.0), rng.uniform(-49.0, 49.0))
        g1 = gamma(z + 1)
        rec_worst = max(rec_worst, abs(g1 - z * gamma(z)) / abs(g1))
    refl_worst = 0.0
    for _ in range(300):
        z = complex(rng.uniform(-5.0, 5.0), rng.choice([-1, 1]) * rng.uniform(0.1, 10.0))
        lhs = gamma(z) * gamma(1.0 - z)
        rhs = math.pi / complex(np.sin(math.pi * z))
        refl_worst = max(refl_worst, abs(lhs - rhs) / abs(rhs))
    ok = lag_worst < 1e-10 and rec_worst < 1e-11 and refl_worst < 1e-10
    announce(10, "Laguerre recurrence < 1e-10, gamma recurrence < 1e-11, reflection < 1e-10,",
             ok, f"laguerre={lag_worst:.2e} recurrence={rec_worst:.2e} reflection={refl_worst:.2e}")


def test_criterion_11_soft_trend_diagnostics():
    """Reported, not asserted: peak trends, commutators, ladder collinearity.

    These never gate the build (the printed operator relations are
    internally inconsistent); the criterion is that the measurements are
    produced and reported.
    """
    peaks = diagnostics_peak_trend()
    commutators = diagnostics_commutators()
    ladder = diagnostics_ladder()
    produced = len(peaks) == 2 and len(commutators) == 3 and len(ladder) == 2
    for item in peaks + commutators + ladder:
        print(f"   measured {item['name']}: {item['measured']}")
    announce(11, "figure-trend and operator diagnostics reported (soft),", produced)
