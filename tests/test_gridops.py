"""Grid machinery: stencil order, Dunkl operator, su(1,1) generators,
commutators."""

from fractions import Fraction

import numpy as np
import pytest

from dunklkg import (
    GridError,
    GridFunction,
    bargmann_index,
    derivative_4th,
    dunkl_apply,
    eigenfunction_r,
    eigenfunction_rows,
    gridops,
    ladder_apply,
    positive_grid,
    radial_coupling,
    second_derivative_4th,
    symmetric_grid,
    z3_apply,
)
from dunklkg.eigenfunctions import row_residuals

ALPHAS = [Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)]


def on_symmetric(f, h, n_per_side):
    pts = symmetric_grid(h, n_per_side)
    return GridFunction(pts, np.asarray(f(pts), dtype=complex), h, "symmetric")


def on_positive(f, r_min, r_max, h):
    pts = positive_grid(r_min, r_max, h)
    return GridFunction(pts, np.asarray(f(pts), dtype=complex), h, "positive")


# --- grid structure -----------------------------------------------------------

def test_positive_grid_refuses_more_than_physical_memory(monkeypatch):
    points = 19901  # r = 0.1 .. 20 at h = 1e-3
    need = points * gridops._POSITIVE_GRID_BYTES_PER_POINT
    monkeypatch.setattr(gridops, "_physical_memory", lambda: need)
    assert positive_grid(0.1, 20.0, 1e-3).size == points
    monkeypatch.setattr(gridops, "_physical_memory", lambda: need - 1)
    with pytest.raises(MemoryError, match=f"grid of {points} points"):
        positive_grid(0.1, 20.0, 1e-3)


@pytest.mark.parametrize("h", [1e-13, 1e-300, 5e-324])
def test_positive_grid_refuses_an_unallocatable_spacing(h):
    # 2e14 and 2e301 points, and a count that overflows to inf, exceed any
    # memory; a count past 15 digits is printed to 3 significant digits
    with pytest.raises(MemoryError, match=r"^Unable to allocate about .* points; ") as err:
        positive_grid(0.1, 20.0, h)
    assert len(str(err.value)) <= 110


def test_symmetric_grid_structure():
    pts = symmetric_grid(0.1, 20)
    assert pts.size == 40
    np.testing.assert_array_equal(pts, -pts[::-1])
    assert np.min(np.abs(pts)) == pytest.approx(0.05)
    assert np.max(np.abs(np.diff(pts) - 0.1)) < 1e-15


def test_grid_validation():
    with pytest.raises(GridError):  # not symmetric
        GridFunction(np.linspace(0.1, 2.0, 20), np.zeros(20), 0.1, "symmetric")
    with pytest.raises(GridError):  # symmetric needs >= 9 points per side
        pts = symmetric_grid(0.1, 8)
        GridFunction(pts, np.zeros(pts.size), 0.1, "symmetric")
    with pytest.raises(GridError):  # too few points
        GridFunction(np.linspace(1.0, 2.0, 5), np.zeros(5), 0.25, "positive")
    with pytest.raises(GridError):  # positive grid must start at >= h
        GridFunction(0.001 + 0.1 * np.arange(20), np.zeros(20), 0.1, "positive")
    with pytest.raises(GridError):  # non-uniform
        pts = np.concatenate([np.linspace(1, 2, 10), [2.3]])
        GridFunction(pts, np.zeros(11), 1.0 / 9.0, "positive")
    with pytest.raises(GridError):  # unknown kind
        GridFunction(np.linspace(1, 2, 10), np.zeros(10), 1.0 / 9.0, "circular")


def test_with_values_checks_the_shape_of_new_samples():
    gf = on_positive(lambda r: r, 0.1, 2.0, 0.01)
    assert gf.with_values(2j * gf.points).points is gf.points  # the checked grid, reused
    for values in (gf.points[:-1], np.ones((2, gf.points.size)), 1.0):
        with pytest.raises(GridError):
            gf.with_values(values)


# --- stencils -------------------------------------------------------------------

def test_first_derivative_exact_on_quartics():
    h = 0.1
    x = positive_grid(1.0, 3.0, h)
    for p in range(5):
        exact = p * x ** (p - 1) if p else np.zeros_like(x)
        got = derivative_4th(x**p + 0j, h)
        assert np.max(np.abs(got - exact)) < 1e-10  # includes the edge rows


def test_second_derivative_exact_on_quintics():
    h = 0.1
    x = positive_grid(1.0, 3.0, h)
    for p in range(6):
        exact = p * (p - 1) * x ** (p - 2) if p >= 2 else np.zeros_like(x)
        got = second_derivative_4th(x**p + 0j, h)
        assert np.max(np.abs(got - exact)) < 1e-9


@pytest.mark.parametrize("h", [1e-3, 0.37, 3.0])
def test_stencil_interior_rows_equal_complex_expressions_bitwise(h):
    # the float-view rows against the complex-arithmetic expressions they replace
    rng = np.random.default_rng(20261018)
    f = rng.uniform(-1e3, 1e3, 2000) + 1j * rng.uniform(-1e3, 1e3, 2000)
    d1 = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d2 = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h * h)
    assert np.array_equal(derivative_4th(f, h)[2:-2].view(np.uint64), d1.view(np.uint64))
    assert np.array_equal(second_derivative_4th(f, h)[2:-2].view(np.uint64), d2.view(np.uint64))


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
def test_z3_values_equal_the_divided_formula_bitwise(alpha):
    # f / r as f * (1 / r), and the sum formed in place, keep every bit
    h = 1e-3
    r = positive_grid(0.1, 20.0, h)
    f = eigenfunction_r(3, alpha, r)
    c = radial_coupling(alpha)
    want = 1j * (r * second_derivative_4th(f, h) + c * f / r + 0.25 * r * f)
    got = gridops.z3_values(f, r, second_derivative_4th(f, h), alpha)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_dunkl_richardson_ratio_on_sine():
    # 4th-order scaling: halving h divides the error by ~16 (the reflection
    # term is exact index mirroring, so the error is pure stencil truncation)
    alpha = Fraction(3, 2)

    def err(h):
        gf = on_symmetric(np.sin, h, int(round(2.0 / h)))
        x = gf.points
        exact = np.cos(x) + float(alpha) / x * (np.sin(x) - np.sin(-x))
        return float(np.max(np.abs(dunkl_apply(gf, alpha).values - exact)))

    # h small enough that the one-sided edge rows are in their asymptotic
    # regime too (their h^5 term is larger than the central row's)
    ratio = err(0.02) / err(0.01)
    assert 14.0 <= ratio <= 18.0


# --- Dunkl operator ---------------------------------------------------------------

def test_dunkl_even_reduces_to_derivative():
    h = 1e-3
    gf = on_symmetric(lambda x: x**2, h, 1000)
    out = dunkl_apply(gf, Fraction(3, 2)).values
    assert np.max(np.abs(out - 2.0 * gf.points)) < 1e-8


def test_dunkl_even_polynomials_up_to_degree_8():
    h = 1e-3
    for p in (2, 4, 6, 8):
        gf = on_symmetric(lambda x, p=p: x**p, h, 1000)
        out = dunkl_apply(gf, Fraction(7, 2)).values
        assert np.max(np.abs(out - p * gf.points ** (p - 1))) < 1e-8


def test_dunkl_linear():
    gf = on_symmetric(lambda x: x, 0.01, 100)
    for alpha in ALPHAS:
        out = dunkl_apply(gf, alpha).values
        assert np.max(np.abs(out - (1.0 + 2.0 * float(alpha)))) < 1e-10


def test_dunkl_cubic():
    gf = on_symmetric(lambda x: x**3, 0.01, 100)
    alpha = Fraction(3, 2)
    expected = 3.0 * gf.points**2 + 2.0 * float(alpha) * gf.points**2
    assert np.max(np.abs(dunkl_apply(gf, alpha).values - expected)) < 1e-9


def test_dunkl_requires_symmetric_grid():
    gf = on_positive(lambda r: r, 1.0, 2.0, 0.05)
    with pytest.raises(GridError):
        dunkl_apply(gf, Fraction(1, 2))


# --- Z3 and ladder operators --------------------------------------------------------

def test_z3_on_constant():
    h = 0.01
    gf = on_positive(lambda r: np.ones_like(r), 0.5, 3.0, h)
    alpha = Fraction(1, 2)
    c = float(alpha) / 2 + 3.0 / 16.0
    expected = 1j * (c / gf.points + 0.25 * gf.points)
    assert np.max(np.abs(z3_apply(gf, alpha).values - expected)) < 1e-9


def z3_eigenvalue_residual(n, alpha, h):
    """sup |Z3 F_n - (k+n) F_n| / sup |F_n| on the standard grid [0.1, 20]."""
    r = positive_grid(0.1, 20.0, h)
    f = eigenfunction_r(n, alpha, r)
    return row_residuals(n, alpha, r, f, second_derivative_4th(f, h))[0]


def test_z3_eigenvalue_relation():
    for alpha in ALPHAS:
        for n in (0, 2, 5):
            assert z3_eigenvalue_residual(n, alpha, h=1e-3) < 1e-4


def test_z3_fourth_order_convergence():
    def worst(h):
        return max(z3_eigenvalue_residual(n, a, h=h) for a in ALPHAS for n in range(6))

    assert worst(4e-3) / worst(2e-3) >= 8.0


def ladder_rows(alpha, h=2e-3):
    """F_0 .. F_5 of alpha as grid functions on [0.1, 20] with spacing h."""
    r = positive_grid(0.1, 20.0, h)
    return [GridFunction(r, f, h, "positive") for f in eigenfunction_rows(5, alpha, r)]


def test_ladder_difference_is_derivative_term():
    # T+ - T- applied to F equals -2 r dF/dr; T+ + T- equals i r F - 2 Z3 F
    for alpha in ALPHAS:
        for gf in ladder_rows(alpha):
            r = gf.points
            tplus = ladder_apply(+1, gf, alpha).values
            tminus = ladder_apply(-1, gf, alpha).values
            dfdr = derivative_4th(gf.values, gf.h)
            z3 = z3_apply(gf, alpha).values
            assert np.max(np.abs(tplus - tminus + 2.0 * r * dfdr)) < 1e-10 * np.max(
                np.abs(dfdr) * r
            )
            assert np.max(np.abs(tplus + tminus - (1j * r * gf.values - 2.0 * z3))) < (
                1e-12 * np.max(np.abs(z3))
            )


def test_ladder_action_on_eigenfunctions():
    # T+ F_n = -(n+1) F_{n+1}, T- F_n = -(n+2k-1) F_{n-1} and T- F_0 = 0, on the
    # interior (8 samples per edge) relative to sup |F_n|; worst measured 1.2e-7
    sl = slice(8, -8)
    for alpha in ALPHAS:
        k = bargmann_index(alpha)
        rows = ladder_rows(alpha)
        f = [gf.values for gf in rows]
        for n, gf in enumerate(rows):
            scale = np.max(np.abs(f[n][sl]))
            lower = (n + 2 * k - 1) * f[n - 1] if n else 0.0
            resid = ladder_apply(-1, gf, alpha).values + lower
            assert np.max(np.abs(resid[sl])) < 1e-6 * scale
            if n + 1 < len(f):
                resid = ladder_apply(+1, gf, alpha).values + (n + 1) * f[n + 1]
                assert np.max(np.abs(resid[sl])) < 1e-6 * scale


def test_ladder_sign_validation():
    gf = on_positive(lambda r: r, 1.0, 2.0, 0.05)
    with pytest.raises(GridError):
        ladder_apply(0, gf, Fraction(1, 2))


# --- commutators ----------------------------------------------------------------------

def test_commutator_double_evaluation_consistency():
    # [Z3, r.] composed from the two operators matches the symbolic
    # [Z3, r.] = 2 i r d/dr on the interior at stencil tolerance
    h = 1e-3
    r = positive_grid(0.1, 5.0, h)
    alpha = Fraction(1, 2)
    gf = GridFunction(r, eigenfunction_r(0, alpha, r), h, "positive")
    composed = (
        z3_apply(gf.with_values(r * gf.values), alpha).values - r * z3_apply(gf, alpha).values
    )
    sl = slice(8, -8)
    expected = 2j * r * derivative_4th(gf.values, h)
    rel = np.max(np.abs(composed - expected)[sl]) / np.max(np.abs(expected)[sl])
    assert rel < 1e-6
