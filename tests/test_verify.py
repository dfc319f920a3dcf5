"""The verify grid sweeps and block-drawn samples against their per-n and
per-sample definitions, and verify's BLAS-free series against its BLAS form.

The sweeps stream F_0 .. F_5 once per (alpha, grid) and the random checks
draw all their samples in one ``rng.uniform`` call; both must give exactly
(``==``) the records that per-n residuals and one ``rng.uniform`` call per
real or imaginary part give.  The exact residuals' F_n'' is held to the
stencil's as h -> 0.  Each sweep runs once per ``run_verification`` call
and is never shared between calls, so two calls give equal reports.

The Perelomov series sums in plain numpy, with no BLAS call, because BLAS
worker threads keep spinning after each call and bill verify about twice
its wall time in CPU.  Here it is held to the matrix-product form it
replaces, at a tolerance fixed from the reassociated sums, and an ``ast``
scan keeps BLAS out of every package module but the stencils' short edge
rows, so the CLI runs with a single BLAS thread at no cost.

The ``ladder`` suite reports one record per direction of the su(1,1)
ladder action and nothing else; the commutation relations follow from
those actions and the Z3 eigenvalue relation, so no suite measures them.

A subprocess run with numpy's AVX2 and AVX-512 kernels disabled must give
the same records wherever the report does not depend on SIMD dispatch.

Any float ``grid_h`` ends in a report or in an error that the CLI turns
into exit 1 or 2, the same on a repeat.
"""

import ast
import cmath
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkg import (
    CoherentParams,
    bargmann_index,
    coherent_series,
    complexfn,
    eigenfunction_r,
    log_gamma,
    normalization,
    ode_residual,
    positive_grid,
    second_derivative_4th,
    sigma_index,
    suggested_series_terms,
    verify,
)
from dunklkg.eigenfunctions import radial_envelope, row_residuals
from dunklkg.errors import DunklKGError
from dunklkg.gridops import ladder_values, z3_values


def z3_eigenvalue_residual(n, alpha, r_min, r_max, h):
    """sup |Z3 F_n - (k+n) F_n| / sup |F_n| on the positive grid, with the
    stencil's F_n'': the Z3 counterpart of ``ode_residual``."""
    r = positive_grid(r_min, r_max, h)
    f = eigenfunction_r(n, alpha, r)
    z3 = z3_values(f, r, second_derivative_4th(f, h), alpha)
    return row_residuals(n, alpha, r, f, z3)[0]


def sweep_max(residual, h):
    return max(
        residual(n, alpha, verify.R_MIN, verify.R_MAX, h)
        for alpha in verify.SWEEP_ALPHAS
        for n in verify.SWEEP_N
    )


def exact_rows(n, alpha, r):
    """F_n and its exact F_n' and F_n'' at the real points r, one n at a time:
    the derivatives of L_n^(a)(ir) are L_{n-1}^(a+1) and L_{n-2}^(a+2) (DLMF
    18.9.23), each read out of its own ``laguerre_sequence`` table."""
    sig = sigma_index(alpha)

    def lag(m, j):  # L_m^(a+j)(ir), and 0 below m = 0
        return complexfn.laguerre_sequence(m, 2.0 * sig + j, 1j * r)[m] if m >= 0 else 0.0

    g = radial_envelope(alpha, r + 0j)
    d1 = (sig + 0.5) / r - 0.5j  # g'/g
    d2 = d1 * d1 - (sig + 0.5) / (r * r)  # g''/g
    return (g * lag(n, 0), g * (d1 * lag(n, 0) - 1j * lag(n - 1, 1)),
            g * (d2 * lag(n, 0) - 2j * d1 * lag(n - 1, 1) - lag(n - 2, 2)))


def test_exact_second_derivative_is_the_stencils_limit():
    # the stencil's F_n'' approaches the exact one at 4th order (about 14x per
    # halving of h; 7.5e-7 of sup |F_n''| at h = 1e-3)
    def worst(h):
        r = positive_grid(verify.R_MIN, verify.R_MAX, h)
        out = 0.0
        for alpha in verify.SWEEP_ALPHAS:
            for n in verify.SWEEP_N:
                f, _, f2 = exact_rows(n, alpha, r)
                assert np.array_equal(f, eigenfunction_r(n, alpha, r))
                out = max(out, np.max(np.abs(second_derivative_4th(f, h) - f2)) / np.max(np.abs(f2)))
        return out

    fine = worst(1e-3)
    assert fine <= 1e-6 and worst(2e-3) / fine >= 8.0


def test_residual_bounds_equal_the_per_n_maxima():
    r = np.linspace(verify.R_MIN, verify.R_MAX, verify.EXACT_SAMPLES)
    per_n = []
    for alpha in verify.SWEEP_ALPHAS:
        for n in verify.SWEEP_N:
            f, _, f2 = exact_rows(n, alpha, r)
            per_n.append(row_residuals(n, alpha, r, f, z3_values(f, r, f2, alpha)))
    for check, field in ((verify.check_z3_eigenvalue, 0), (verify.check_ode_residual, 1)):
        record = check(verify.exact_sweep)
        assert record["samples"] == r.size
        assert record["measured"] == max(res[field] for res in per_n)


def test_ladder_records_equal_the_per_n_maxima():
    # T+ F_n = -(n+1) F_{n+1} for n = 0..4 and T- F_n = -(n+2k-1) F_{n-1} for
    # n = 0..5, relative to sup |F_n|, each row from its own tables
    r = np.linspace(verify.R_MIN, verify.R_MAX, verify.EXACT_SAMPLES)
    plus, minus = [], []
    for alpha in verify.SWEEP_ALPHAS:
        k = bargmann_index(alpha)
        rows = [exact_rows(n, alpha, r) for n in verify.SWEEP_N]
        for n, (f, f1, f2) in enumerate(rows):
            z3 = z3_values(f, r, f2, alpha)
            scale = np.max(np.abs(f))
            if n + 1 < len(rows):
                up = ladder_values(+1, f, r, f1, z3) + (n + 1) * rows[n + 1][0]
                plus.append(np.max(np.abs(up)) / scale)
            down = ladder_values(-1, f, r, f1, z3)
            if n:
                down = down + (n + 2 * k - 1) * rows[n - 1][0]
            minus.append(np.max(np.abs(down)) / scale)
    assert len(plus) == 15 and len(minus) == 18
    records = verify.diagnostics_ladder(verify.exact_sweep)
    assert [rec["measured"] for rec in records] == [max(plus), max(minus)]


def test_convergence_ratios_equal_the_per_n_ratios():
    for check, residual in (
        (verify.check_ode_convergence, ode_residual),
        (verify.check_z3_convergence, z3_eigenvalue_residual),
    ):
        record = check(verify.grid_sweep, 1e-3)
        coarse = sweep_max(residual, record["h_coarse"])
        fine = sweep_max(residual, record["h_fine"])
        assert record["measured"] == coarse / fine


def test_each_spacing_is_swept_once_per_run(monkeypatch):
    swept = []

    def counting(h):
        swept.append(h)
        return original(h)

    def counting_exact():
        swept.append("exact")
        return original_exact()

    original, original_exact = verify.grid_sweep, verify.exact_sweep
    monkeypatch.setattr(verify, "grid_sweep", counting)
    monkeypatch.setattr(verify, "exact_sweep", counting_exact)
    verify.run_verification()
    assert sorted(swept, key=str) == [0.002, 0.004, 0.008, "exact"]
    verify.run_verification()  # a new run computes its sweeps again
    assert len(swept) == 8
    swept.clear()
    verify.run_verification(grid_h=1e-4)  # clamped to the same spacings
    assert sorted(swept, key=str) == [0.002, 0.004, 0.008, "exact"]
    swept.clear()
    verify.run_verification(suite="ode_residual")
    assert swept == ["exact"]


def test_consecutive_runs_give_equal_reports():
    # the sweeps' caches carry nothing into the next run
    first = verify.report_to_json(verify.run_verification())
    assert verify.report_to_json(verify.run_verification()) == first


# every check's name, and every diagnostic builder's (each emits several records)
SUITE_NAMES = (
    "casimir_identity", "sigma_identity", "table1_reproduction", "table2_reproduction",
    "self_consistency", "ode_residual", "ode_convergence", "z3_eigenvalue", "z3_convergence",
    "coherent_series_agreement", "xi_zero_reduction", "tau_zero_reduction", "tau_periodicity",
    "laguerre_recurrence", "gamma_recurrence", "gamma_reflection", "sqrt_square_roundtrip",
    "pow_identities", "ladder_action", "density_peak", "self_consistency_strict_principal",
)


def test_a_suite_filter_changes_no_record():
    full = verify.run_verification()
    by_name = {rec["name"]: rec for rec in full["checks"] + full["diagnostics"]}
    covered = set()
    for suite in SUITE_NAMES:
        part = verify.run_verification(suite=suite)
        records = part["checks"] + part["diagnostics"]
        assert any(rec["name"].startswith(suite) for rec in records), suite
        for rec in records:
            assert rec == by_name[rec["name"]], (suite, rec["name"])
            covered.add(rec["name"])
    assert covered == set(by_name)


# Any float spacing: st.floats() draws nan, +-inf, 0, negatives, subnormals and
# 1e308.  No spacing builds a grid finer than the convergence checks' clamps
# (0.002), so [1e-12, 1e-3) gives the default's records; above about 0.4 the
# grid has too few points, and (1e-3, 0.1) gives reports.
GRID_H = st.one_of(
    st.floats(),
    st.sampled_from([5e-324, 1e-300, 1e308]),
    st.floats(1e-12, 1e-3, exclude_max=True),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 0.1),
)


def z3_report_or_error(grid_h):
    """The z3 suite's report as JSON text, or the type and message of the
    error that the CLI turns into exit 1 or 2."""
    try:
        return verify.report_to_json(verify.run_verification(grid_h=grid_h, suite="z3"))
    except (DunklKGError, MemoryError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(grid_h=GRID_H)
def test_any_grid_spacing_gives_a_report_or_an_error(grid_h):
    first = z3_report_or_error(grid_h)
    assert z3_report_or_error(grid_h) == first
    if isinstance(first, tuple):
        if first[0] is MemoryError:
            assert first[1].startswith("Unable to allocate about ")
        return
    records = json.loads(first)["checks"]
    assert [rec["name"] for rec in records] == ["z3_eigenvalue", "z3_convergence"]
    for record in records:
        assert record["status"] in ("pass", "fail")
        assert record["status"] == "fail" or math.isfinite(record["measured"])


def per_sample_draws(record, low, high, per_sample=1):
    """The record's samples drawn one ``rng.uniform`` call per real and imaginary part."""
    rng = np.random.default_rng(record["seed"])
    return [
        complex(rng.uniform(low[0], high[0]), rng.uniform(low[1], high[1]))
        for _ in range(record["samples"] * per_sample)
    ]


def test_laguerre_recurrence_equals_per_sample_draws():
    record = verify.check_laguerre_recurrence()
    draws = per_sample_draws(record, (-10, -10), (10, 10), per_sample=2)
    worst = 0.0
    for a, z in zip(draws[0::2], draws[1::2]):
        seq = complexfn.laguerre_sequence(31, a, z)
        for n in range(1, 30):
            lhs = (n + 1) * seq[n + 1] - (2 * n + 1 + a - z) * seq[n] + (n + a) * seq[n - 1]
            worst = max(worst, abs(lhs) / max(1.0, abs(seq[n])))
    assert record["measured"] == worst


def test_gamma_recurrence_equals_per_sample_draws():
    record = verify.check_gamma_recurrence()
    worst = 0.0
    for z in per_sample_draws(record, (0.5, -49.0), (19.0, 49.0)):
        g1 = complexfn.gamma(z + 1.0)
        worst = max(worst, abs(g1 - z * complexfn.gamma(z)) / abs(g1))
    assert record["measured"] == worst


def test_sqrt_roundtrip_equals_per_sample_draws():
    record = verify.check_sqrt_roundtrip()
    worst = 0.0
    for z in per_sample_draws(record, (-50, -50), (50, 50)):
        if z != 0:
            root = complexfn.principal_sqrt(z)
            worst = max(worst, abs(root * root - z) / abs(z))
    assert record["measured"] == worst


def test_pow_identities_equal_per_sample_draws():
    record = verify.check_pow_identities()
    worst = 0.0
    for z in per_sample_draws(record, (-20, -20), (20, 20)):
        if z != 0:
            worst = max(worst, abs(complexfn.principal_pow(z, 1.0) - z) / abs(z))
            worst = max(worst, abs(complexfn.principal_pow(z, 0.0) - 1.0))
    assert record["measured"] == worst


def test_gamma_reflection_equals_per_sample_draws():
    record = verify.check_gamma_reflection()
    rng = np.random.default_rng(record["seed"])
    worst = 0.0
    for _ in range(record["samples"]):
        t = rng.uniform(-10.0, 10.0)
        x = math.pi * abs(t)
        rhs = math.log(2.0 * math.pi) - x - math.log1p(math.exp(-2.0 * x))
        assert rhs == pytest.approx(math.log(math.pi) - math.log(math.cosh(x)), abs=1e-13)
        lhs = log_gamma(complex(0.5, t)) + log_gamma(complex(0.5, -t))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert record["measured"] == worst


# --- the su(1,1) suites -------------------------------------------------------------

@pytest.mark.parametrize("suite, names", [
    ("ladder", ["ladder_action_plus", "ladder_action_minus"]),
])
def test_su11_suites_report_one_record_per_relation(suite, names):
    report = verify.run_verification(suite=suite)
    assert report["checks"] == []
    assert [rec["name"] for rec in report["diagnostics"]] == names
    for rec in report["diagnostics"]:
        assert set(rec) == {"name", "measured", "tolerance", "status", "samples"}
        assert rec["status"] == "measured" and rec["samples"] == 200
        assert isinstance(rec["measured"], float)


# --- BLAS-free series against its BLAS form ----------------------------------------

def series_by_contraction(x, params):
    """``coherent_series`` as the weights c_n xi^n N_n, each written out, times a
    ``laguerre_sequence`` table."""
    alpha, lam, xi = params.alpha, params.lambda_scale, params.xi
    n_terms = suggested_series_terms(params, float(np.max(x)))
    two_k = 2.0 * bargmann_index(alpha)
    weights = np.array([
        cmath.exp(0.5 * (log_gamma(n + two_k) - math.lgamma(n + 1) - log_gamma(two_k)))
        * xi**n * normalization(n, alpha, lam)
        for n in range(n_terms)
    ])
    r = lam * x**2
    lag = complexfn.laguerre_sequence(n_terms - 1, 2.0 * sigma_index(alpha), 1j * r)
    return (weights @ lag) * radial_envelope(alpha, r) * cmath.exp(
        0.5 * two_k * math.log1p(-abs(xi) ** 2)
    )


@pytest.mark.parametrize("alpha", verify.SWEEP_ALPHAS, ids=str)
@pytest.mark.parametrize("xi", verify.SERIES_XIS, ids=str)
def test_series_equals_table_contraction(alpha, xi):
    params = CoherentParams.for_case(verify.GAUSSIAN, alpha, 0, xi)
    x = np.linspace(*verify.SERIES_X)
    got = coherent_series(x, params)
    want = series_by_contraction(x, params)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


BLAS_ATTRIBUTES = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot"}
# (module, top-level definition) -> why its BLAS call may stay
BLAS_ALLOWED = {
    ("gridops.py", "_stencil"): "the 5- and 6-element edge rows of the 4th-order stencils: "
                                "OpenBLAS runs a dot this short on the calling thread",
}
PACKAGE_MODULES = sorted(p.name for p in Path(verify.__file__).parent.glob("*.py"))


def _blas_uses(module):
    """(top-level definition, line) of each BLAS call or import in ``module``."""
    tree = ast.parse((Path(verify.__file__).parent / module).read_text())
    return [
        (getattr(stmt, "name", None), node.lineno)
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES
        or isinstance(node, ast.alias) and node.name.split(".")[-1] in BLAS_ATTRIBUTES
    ]


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_no_blas_call_in_the_package(module):
    found = [use for use in _blas_uses(module) if (module, use[0]) not in BLAS_ALLOWED]
    assert not found, f"{module}: BLAS call or import at (definition, line) {found}"


def test_blas_allow_list_names_only_blas_users():
    stale = [key for key in BLAS_ALLOWED if key[1] not in {d for d, _ in _blas_uses(key[0])}]
    assert not stale, f"allow-listed but making no BLAS call: {stale}"


# --- records that do not depend on numpy's SIMD dispatch ---------------------------

# Checks and diagnostics whose records are the same whichever SIMD kernels
# numpy dispatches: 16 of the report's 23 records.  The other 7, the four
# residual checks, the series agreement and the two exact ladder residuals,
# still move in their last digits without AVX2, through the complex products
# of the Laguerre recurrence and the eigenfunction envelope.
DISPATCH_INVARIANT = (
    "casimir_identity", "sigma_identity", "table1_reproduction", "table2_reproduction",
    "self_consistency", "xi_zero_reduction", "tau_zero_reduction", "tau_periodicity",
    "laguerre_recurrence", "gamma_recurrence", "gamma_reflection", "sqrt_square_roundtrip",
    "pow_identities", "density_peak_vs_n", "density_peak_vs_alpha",
    "self_consistency_strict_principal_max",
)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="NPY_DISABLE_CPU_FEATURES names x86 feature groups",
)
def test_dispatch_invariant_records_equal_without_avx2():
    src = Path(verify.__file__).parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import json; from dunklkg import verify; print(json.dumps(verify.run_verification()))"
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    report = verify.run_verification()

    def invariant(rep):
        return {
            rec["name"]: rec
            for rec in rep["checks"] + rep["diagnostics"]
            if rec["name"] in DISPATCH_INVARIANT
        }

    native = invariant(report)
    assert sorted(native) == sorted(DISPATCH_INVARIANT)
    assert invariant(json.loads(child.stdout)) == json.loads(json.dumps(native))
