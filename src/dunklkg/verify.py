"""Verification suite: assertable invariants plus measured-only diagnostics.

Assertable checks carry a tolerance and a pass/fail status; diagnostics
are reported with status ``measured`` and never gate anything.  Among the
diagnostics, the su(1,1) algebra of Z3 and the ladder pair T+- of
``gridops.ladder_apply`` is measured at h = DIAGNOSTIC_H as one residual per
direction of the ladder action on F_0 .. F_3:
T+ F_n = -(n+1) F_{n+1} for n = 0..2 and T- F_n = -(n+2k-1) F_{n-1} for
n = 0..3.  With Z3 F_n = (k+n) F_n (the ``z3_eigenvalue`` check), these
actions give the three commutation relations on span{F_0, F_1, F_2}, one
line each (Perelomov, *Generalized Coherent States*, 1986, ch. 5; DLMF 18.9):

    [Z3, T+] F_n = ((k+n+1) - (k+n)) T+ F_n = T+ F_n,
    [Z3, T-] F_n = ((k+n-1) - (k+n)) T- F_n = -T- F_n,
    [T+, T-] F_n = (n (n+2k-1) - (n+1) (n+2k)) F_n = -2 (k+n) F_n = -2 Z3 F_n.

For n = 0..2 they read T+ on F_0 .. F_2 and T- on F_0 .. F_3, the records'
range.  Composing the stencils to form the commutators again would measure
only how the stencils compose: that round-off floor rises about 8x per
halving of h.

Every record is the worst of its samples (``refdata.worst``), and a NaN
sample makes it NaN: an assertable record then fails, and ``measured``
reads ``NaN`` in the JSON report.

Each assertable record also carries the inputs that fix what it measured:
``samples`` of the exact residuals, ``h_coarse``/``h_fine`` of the
convergence checks, and ``seed``/``samples`` of the random-sample checks.

The residual bounds ``ode_residual`` and ``z3_eigenvalue`` are exact
(``exact_sweep``), so they read round-off, not a stencil floor.  The
convergence checks compare the stencil's residuals (``grid_sweep``) at a
spacing h against h/2 where the 4th-order truncation term still dominates
the round-off floor of the second difference (relative to sup|F|, about
eps r^2 / h^2 for the Z3 residual and eps r^3 / h^2 for the ODE residual,
r times it).  ``grid_h`` is their fine spacing, clamped up to ODE_CONV_H and
Z3_CONV_H, so no run builds a grid finer than 0.002.  Each sweep runs once
per ``run_verification`` call: a default run sweeps h = 0.002, 0.004, 0.008.

Importing this module loads no numpy: each check that computes on arrays
imports numpy and the array modules (``coherent``, ``eigenfunctions``,
``gridops``) itself, so the scalar suites (casimir, sigma, table,
self_consistency) run without it.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import complexfn
from .errors import DomainError
from .model import CurvatureCase, bargmann_index, radial_coupling, sigma_index
from .refdata import compare_reference, worst
from .spectrum import energy_shifts, relation_rhs, self_consistency_residual

__all__ = ["exact_sweep", "grid_sweep", "run_verification", "report_to_json"]

SWEEP_ALPHAS = (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2))
IDENTITY_ALPHAS = tuple(Fraction(num, 2) for num in range(1, 100, 2))  # 1/2 .. 99/2
SWEEP_N = range(6)  # from 0 and contiguous: the sweeps enumerate one F_n stream
SERIES_XIS = (0.3 + 0.0j, 0.5 + 0.2j, 0.1 - 0.6j)
# coherent-state checks run on the gaussian spectrum at R = 1
GAUSSIAN = CurvatureCase.GAUSSIAN

# standard grids: the radial range of the sweeps, and the linspace arguments
# (start, stop, samples) of the coherent-state grids, built where they are used
R_MIN, R_MAX = 0.1, 20.0
SERIES_X = (0.01, 1.2, 120)
DENSITY_X = (0.01, 2.0, 400)

# samples of the exact residuals, linspace(R_MIN, R_MAX, EXACT_SAMPLES)
EXACT_SAMPLES = 200
# spacing of the su(1,1) ladder diagnostics
DIAGNOSTIC_H = 0.002
# minimum spacings for the h -> h/2 convergence diagnostics (see module doc)
ODE_CONV_H = 0.004
Z3_CONV_H = 0.002


def _checked_grid(r_min: float, r_max: float, h: float):
    """The positive grid as the ``GridFunction`` r; building it checks the grid
    (uniform spacing, r >= h) once for every row evaluated on it."""
    from .gridops import POSITIVE, GridFunction, positive_grid

    r = positive_grid(r_min, r_max, h)
    return GridFunction(r, r, h, POSITIVE)


def _check(
    name: str, measured: float, tolerance: Optional[float], kind: str = "max", **inputs
) -> Dict:
    """One assertable record; ``inputs`` (grid spacings, seeds, sample counts) ride along."""
    passed = measured <= tolerance if kind == "max" else measured >= tolerance
    return {
        "name": name,
        "measured": measured,
        "tolerance": tolerance,
        "kind": kind,
        "status": "pass" if passed else "fail",
        **inputs,
    }


def _diagnostic(name: str, measured, **extra) -> Dict:
    out = {"name": name, "measured": measured, "tolerance": None, "status": "measured"}
    out.update(extra)
    return out


def _rel(residual, scale) -> float:
    """sup |residual| / sup |scale| of two arrays: the relative sup deviation
    max|a - b| / max|a| as ``_rel(a - b, a)``."""
    import numpy as np

    return float(np.max(np.abs(residual)) / np.max(np.abs(scale)))


# ---------------------------------------------------------------------------
# assertable checks
# ---------------------------------------------------------------------------

def check_casimir_identity() -> Dict:
    ks = ((bargmann_index(alpha), alpha) for alpha in IDENTITY_ALPHAS)
    residuals = (abs(k * (k - 1.0) + radial_coupling(alpha)) for k, alpha in ks)
    return _check("casimir_identity", worst(residuals), 1e-13)


def check_sigma_identity() -> Dict:
    sigs = ((sigma_index(alpha), alpha) for alpha in IDENTITY_ALPHAS)
    residuals = (abs(sig * sig - (1.0 / 16.0 - float(alpha) / 2.0)) for sig, alpha in sigs)
    return _check("sigma_identity", worst(residuals), 1e-13)


def check_table(table_id: str) -> Dict:
    cmp = compare_reference(table_id)
    return _check(f"{table_id}_reproduction", cmp.max_deviation, cmp.tolerance)


def check_self_consistency() -> Dict:
    # measured 8.9e-16 natively and with AVX2/AVX-512 off
    return _check("self_consistency", worst(
        self_consistency_residual(case, n, alpha, 1.0)
        for case in CurvatureCase for alpha in SWEEP_ALPHAS for n in SWEEP_N
    ), 1e-13)


def grid_sweep(h: float) -> Tuple[float, float]:
    """Worst (Z3, ODE) ``row_residuals`` of the alpha x n sweep on the standard grid
    of spacing h, with the stencil's F_n''; one F_n stream per alpha."""
    from .eigenfunctions import eigenfunction_rows, row_residuals
    from .gridops import second_derivative_4th

    r = _checked_grid(R_MIN, R_MAX, h).points
    z3, ode = zip(*(
        row_residuals(n, alpha, r, f, second_derivative_4th(f, h))
        for alpha in SWEEP_ALPHAS
        for n, f in enumerate(eigenfunction_rows(max(SWEEP_N), alpha, r))
    ))
    return worst(z3), worst(ode)


def exact_sweep() -> Tuple[float, float]:
    """Worst (Z3, ODE) ``row_residuals`` of the alpha x n sweep at EXACT_SAMPLES
    points of [R_MIN, R_MAX], with the exact F_n''.

    F_n = g L_n^(a)(ir), g = r^(sigma+1/2) e^(-ir/2), a = 2 sigma.  As
    d/dz L_n^(a) = -L_{n-1}^(a+1) (DLMF 18.9.23), with L_{-1} = L_{-2} = 0,
    F_n'' = g [(g''/g) L_n^(a) - 2i (g'/g) L_{n-1}^(a+1) - L_{n-2}^(a+2)], where
    g'/g = (sigma+1/2)/r - i/2 and g''/g = (g'/g)^2 - (sigma+1/2)/r^2.
    """
    import numpy as np

    from .eigenfunctions import radial_envelope, row_residuals

    r, n_max = np.linspace(R_MIN, R_MAX, EXACT_SAMPLES), max(SWEEP_N)
    rows = []
    for alpha in SWEEP_ALPHAS:
        sig = sigma_index(alpha)
        g = radial_envelope(alpha, r + 0j)
        d1 = (sig + 0.5) / r - 0.5j
        d2 = d1 * d1 - (sig + 0.5) / (r * r)
        # lag[j][n] is L_{n-j}^(a+j)(ir)
        lag = [[0.0] * j + list(complexfn.laguerre_rows(n_max - j, 2.0 * sig + j, 1j * r))
               for j in range(3)]
        for n in SWEEP_N:
            f2 = g * (d2 * lag[0][n] - 2j * d1 * lag[1][n] - lag[2][n])
            rows.append(row_residuals(n, alpha, r, g * lag[0][n], f2))
    z3, ode = zip(*rows)
    return worst(z3), worst(ode)


# The residual checks take a ``sweep``: grid_sweep or exact_sweep, or (in
# run_verification) a cache of it.  _Z3, _ODE index its result.
_Z3, _ODE = 0, 1


def _residual_convergence(name: str, sweep: Callable, field: int, h: float, h_min: float) -> Dict:
    """Shrink factor of the sweep's worst residual from 2h to h, with h >= h_min."""
    h_fine = max(h, h_min)
    ratio = sweep(2.0 * h_fine)[field] / sweep(h_fine)[field]
    return _check(name, ratio, 8.0, "min", h_coarse=2.0 * h_fine, h_fine=h_fine)


def check_ode_residual(sweep: Callable) -> Dict:
    return _check("ode_residual", sweep()[_ODE], 1e-12, samples=EXACT_SAMPLES)


def check_ode_convergence(sweep: Callable, h: float) -> Dict:
    return _residual_convergence("ode_convergence", sweep, _ODE, h, ODE_CONV_H)


def check_z3_eigenvalue(sweep: Callable) -> Dict:
    return _check("z3_eigenvalue", sweep()[_Z3], 1e-13, samples=EXACT_SAMPLES)


def check_z3_convergence(sweep: Callable, h: float) -> Dict:
    return _residual_convergence("z3_convergence", sweep, _Z3, h, Z3_CONV_H)


def check_series_agreement() -> Dict:
    import numpy as np

    from .coherent import CoherentParams, coherent_closed_form, coherent_series

    x = np.linspace(*SERIES_X)
    rels = []
    for alpha in SWEEP_ALPHAS:
        for xi in SERIES_XIS:
            params = CoherentParams.for_case(GAUSSIAN, alpha, 0, xi)
            closed = coherent_closed_form(x, params)
            rels.append(_rel(closed - coherent_series(x, params), closed))
    return _check("coherent_series_agreement", worst(rels), 1e-6)


def check_xi_zero_reduction() -> Dict:
    import numpy as np

    from .coherent import CoherentParams, coherent_closed_form
    from .eigenfunctions import eigenfunction_x

    seed, samples = 20240811, 100
    x = np.random.default_rng(seed).uniform(0.01, 2.0, size=samples)
    rels = []
    for alpha in SWEEP_ALPHAS:
        params = CoherentParams.for_case(GAUSSIAN, alpha, 0, 0.0 + 0.0j)
        closed = coherent_closed_form(x, params)
        eig = eigenfunction_x(0, alpha, params.lambda_scale, x)
        rels.append(float(np.max(np.abs(closed - eig) / np.abs(eig))))
    return _check("xi_zero_reduction", worst(rels), 1e-12, seed=seed, samples=samples)


def check_tau_zero_reduction() -> Dict:
    import numpy as np

    from .coherent import CoherentParams, coherent_closed_form, coherent_evolved

    x = np.linspace(*DENSITY_X)
    rels = []
    for alpha in SWEEP_ALPHAS:
        params = CoherentParams.for_case(GAUSSIAN, alpha, 1, 0.5 + 0.2j, tau=0.0)
        closed = coherent_closed_form(x, params)
        rels.append(_rel(closed - coherent_evolved(x, params), closed))
    return _check("tau_zero_reduction", worst(rels), 1e-15)


def check_tau_periodicity() -> Dict:
    from .coherent import build_profile

    x_min, x_max, points = DENSITY_X
    rels = []
    for alpha in SWEEP_ALPHAS:
        for tau0 in (0.0, math.pi / 2):
            base, shifted = (
                build_profile(GAUSSIAN, alpha, 1, 0.5 + 0.2j, tau=tau, x_min=x_min,
                              x_max=x_max, points=points, evolved=True).density
                for tau in (tau0, tau0 + 2.0 * math.pi)
            )
            rels.append(_rel(base - shifted, base))
    return _check("tau_periodicity", worst(rels), 1e-10)


def check_laguerre_recurrence() -> Dict:
    import numpy as np

    seed, samples = 977101, 200
    draws = np.random.default_rng(seed).uniform(-10, 10, size=(samples, 4))
    rels = []
    for a, z in draws.view(complex).tolist():
        seq = list(complexfn.laguerre_rows(31, a, z))
        for n in range(1, 30):
            lhs = (n + 1) * seq[n + 1] - (2 * n + 1 + a - z) * seq[n] + (n + a) * seq[n - 1]
            rels.append(abs(lhs) / max(1.0, abs(seq[n])))
    return _check("laguerre_recurrence", worst(rels), 1e-10, seed=seed, samples=samples)


def check_gamma_recurrence() -> Dict:
    import numpy as np

    seed, samples = 515253, 500
    draws = np.random.default_rng(seed).uniform((0.5, -49.0), (19.0, 49.0), size=(samples, 2))
    rels = []
    for z in draws.view(complex).ravel().tolist():
        g1 = complexfn.gamma(z + 1.0)
        rels.append(abs(g1 - z * complexfn.gamma(z)) / abs(g1))
    return _check("gamma_recurrence", worst(rels), 1e-11, seed=seed, samples=samples)


def check_gamma_reflection() -> Dict:
    import numpy as np

    seed, samples = 616263, 500
    rng = np.random.default_rng(seed)
    rels = []
    for _ in range(samples):
        z = complex(rng.uniform(-5.0, 5.0), (-1, 1)[rng.integers(0, 2)] * rng.uniform(0.1, 10.0))
        lhs = complexfn.gamma(z) * complexfn.gamma(1.0 - z)
        rhs = math.pi / complex(np.sin(math.pi * z))
        rels.append(abs(lhs - rhs) / abs(rhs))
    return _check("gamma_reflection", worst(rels), 1e-10, seed=seed, samples=samples)


def check_sqrt_roundtrip() -> Dict:
    import numpy as np

    seed, samples = 717273, 10000
    draws = np.random.default_rng(seed).uniform(-50, 50, size=(samples, 2))
    zs = [z for z in draws.view(complex).ravel().tolist() if z != 0]
    roots = map(complexfn.principal_sqrt, zs)
    residuals = (abs(w * w - z) / abs(z) for w, z in zip(roots, zs))
    return _check("sqrt_square_roundtrip", worst(residuals), 1e-14, seed=seed, samples=samples)


def check_pow_identities() -> Dict:
    import numpy as np

    seed, samples = 818283, 2000
    draws = np.random.default_rng(seed).uniform(-20, 20, size=(samples, 2))
    zs = [z for z in draws.view(complex).ravel().tolist() if z != 0]
    return _check("pow_identities", worst(
        dev for z in zs for dev in (abs(complexfn.principal_pow(z, 1.0) - z) / abs(z),
                                    abs(complexfn.principal_pow(z, 0.0) - 1.0))
    ), 1e-15, seed=seed, samples=samples)


# ---------------------------------------------------------------------------
# measured-only diagnostics
# ---------------------------------------------------------------------------

def diagnostics_ladder() -> List[Dict]:
    """Residuals of the ladder action on F_0 .. F_3 at alpha = 1/2:
    T+ F_n = -(n+1) F_{n+1} and T- F_n = -(n+2k-1) F_{n-1}, with T- F_0 = 0.

    F_0 .. F_3 come from one pass on the standard grid of spacing
    DIAGNOSTIC_H.  Each record is the worst over n of
    sup |T+- F_n - rhs| / sup |F_n|, the normalisation of the Z3 residual,
    over the interior: 8 samples in from each edge, clear of the stencils'
    one-sided edge rows (2 samples in).  The margin is part of what the
    records measure, so it stays fixed.
    """
    from .eigenfunctions import eigenfunction_rows
    from .gridops import ladder_apply

    alpha = Fraction(1, 2)
    grid = _checked_grid(R_MIN, R_MAX, DIAGNOSTIC_H)
    grid_rows = [grid.with_values(row) for row in eigenfunction_rows(3, alpha, grid.points)]
    inner = slice(8, -8)
    f = [row.values[inner] for row in grid_rows]
    below = [0.0] + f  # below[n] is F_{n-1}, and F_{-1} = 0
    k = bargmann_index(alpha)

    def action(sign: int, n: int):
        return ladder_apply(sign, grid_rows[n], alpha).values[inner]

    plus = worst(_rel(action(+1, n) + (n + 1) * f[n + 1], f[n]) for n in range(3))
    minus = worst(_rel(action(-1, n) + (n + 2 * k - 1) * below[n], f[n]) for n in range(4))
    return [
        _diagnostic("ladder_action_plus", plus, h=DIAGNOSTIC_H),
        _diagnostic("ladder_action_minus", minus, h=DIAGNOSTIC_H),
    ]


def diagnostics_peak_trend() -> List[Dict]:
    """Density peak locations versus n and alpha (figure-trend diagnostics)."""
    import numpy as np

    from .coherent import build_profile

    x_min, x_max, points = DENSITY_X
    peaks: Dict[str, List[float]] = {}
    for alpha in SWEEP_ALPHAS:
        row = []
        for n in SWEEP_N:
            prof = build_profile(GAUSSIAN, alpha, n, 0.5 + 0.2j, x_min=x_min, x_max=x_max,
                                 points=points)
            row.append(float(prof.x[int(np.argmax(prof.density))]))
        peaks[str(alpha)] = row
    increases_with_n = {
        a: all(row[i] <= row[i + 1] for i in range(len(row) - 1)) for a, row in peaks.items()
    }
    by_alpha = {
        f"n={n}": [peaks[str(a)][n] for a in SWEEP_ALPHAS] for n in SWEEP_N
    }
    increases_with_alpha = {
        key: all(row[i] <= row[i + 1] for i in range(len(row) - 1))
        for key, row in by_alpha.items()
    }
    return [
        _diagnostic("density_peak_vs_n", peaks, monotone_increasing=increases_with_n),
        _diagnostic(
            "density_peak_vs_alpha", by_alpha, monotone_increasing=increases_with_alpha
        ),
    ]


def diagnostics_strict_principal() -> List[Dict]:
    """Eigenvalue-relation residual with a strictly principal scale root.

    Large values here are expected: the principal determination lands on
    -(k+n), which is why the assertable check resolves the root sign.
    """
    return [_diagnostic("self_consistency_strict_principal_max", worst(
        abs(bargmann_index(alpha) + n - relation_rhs(case, u, 1.0))
        for case in CurvatureCase for alpha in SWEEP_ALPHAS for n in SWEEP_N
        for u in energy_shifts(case, n, alpha, 1.0)
    ))]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_verification(grid_h: float = 1e-3, suite: Optional[str] = None) -> Dict:
    """Run checks (optionally filtered by name substring) and assemble the report.

    The filter matches against check names before execution, so a narrow
    suite runs quickly.  ``grid_h`` is the fine spacing of the convergence
    checks, which clamp it up to ODE_CONV_H and Z3_CONV_H.
    """
    if not (0.0 < grid_h < math.inf):
        raise DomainError(f"grid_h must be positive and finite, got {grid_h}")
    # the four residual checks share each sweep, within this call only
    sweep, exact = functools.cache(grid_sweep), functools.cache(exact_sweep)
    check_builders: List[tuple] = [
        ("casimir_identity", check_casimir_identity),
        ("sigma_identity", check_sigma_identity),
        ("table1_reproduction", lambda: check_table("table1")),
        ("table2_reproduction", lambda: check_table("table2")),
        ("self_consistency", check_self_consistency),
        ("ode_residual", lambda: check_ode_residual(exact)),
        ("ode_convergence", lambda: check_ode_convergence(sweep, grid_h)),
        ("z3_eigenvalue", lambda: check_z3_eigenvalue(exact)),
        ("z3_convergence", lambda: check_z3_convergence(sweep, grid_h)),
        ("coherent_series_agreement", check_series_agreement),
        ("xi_zero_reduction", check_xi_zero_reduction),
        ("tau_zero_reduction", check_tau_zero_reduction),
        ("tau_periodicity", check_tau_periodicity),
        ("laguerre_recurrence", check_laguerre_recurrence),
        ("gamma_recurrence", check_gamma_recurrence),
        ("gamma_reflection", check_gamma_reflection),
        ("sqrt_square_roundtrip", check_sqrt_roundtrip),
        ("pow_identities", check_pow_identities),
    ]
    # diagnostic builders may emit several records each
    diagnostic_builders: List[tuple] = [
        ("ladder_action", diagnostics_ladder),
        ("density_peak", diagnostics_peak_trend),
        ("self_consistency_strict_principal", diagnostics_strict_principal),
    ]
    needle = suite.lower() if suite else None

    def wanted(name: str) -> bool:
        return needle is None or needle in name

    if needle is not None and not any(
        wanted(name) for name, _ in check_builders + diagnostic_builders
    ):
        raise DomainError(f"no checks match suite filter {suite!r}")
    checks: List[Dict] = [build() for name, build in check_builders if wanted(name)]
    diagnostics: List[Dict] = []
    for name, build in diagnostic_builders:
        if wanted(name):
            diagnostics.extend(build())
    passed = all(c["status"] == "pass" for c in checks)
    return {
        "grid_h": grid_h,
        "suite": suite,
        "checks": checks,
        "diagnostics": diagnostics,
        "n_pass": sum(c["status"] == "pass" for c in checks),
        "n_fail": sum(c["status"] == "fail" for c in checks),
        "n_measured": len(diagnostics),
        "passed": passed,
    }


def report_to_json(report: Dict) -> str:
    return json.dumps(report, indent=2) + "\n"
