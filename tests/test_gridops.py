"""Grid machinery: stencil order, Dunkl operator, su(1,1) generators,
commutators."""

from fractions import Fraction

import numpy as np
import pytest

from dunklkg import (
    GridError,
    GridFunction,
    bargmann_index,
    commutator_apply,
    derivative_4th,
    dunkl_apply,
    eigenfunction_r,
    ladder_apply,
    positive_grid,
    second_derivative_4th,
    symmetric_grid,
    z3_apply,
    z3_eigenvalue_residual,
)

ALPHAS = [Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)]


def on_symmetric(f, h, n_per_side):
    pts = symmetric_grid(h, n_per_side)
    return GridFunction(pts, np.asarray(f(pts), dtype=complex), h, "symmetric")


def on_positive(f, r_min, r_max, h):
    pts = positive_grid(r_min, r_max, h)
    return GridFunction(pts, np.asarray(f(pts), dtype=complex), h, "positive")


# --- grid structure -----------------------------------------------------------

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


def test_z3_eigenvalue_relation():
    for alpha in ALPHAS:
        for n in (0, 2, 5):
            assert z3_eigenvalue_residual(n, alpha, h=1e-3) < 1e-4


def test_z3_fourth_order_convergence():
    def worst(h):
        return max(z3_eigenvalue_residual(n, a, h=h) for a in ALPHAS for n in range(6))

    assert worst(4e-3) / worst(2e-3) >= 8.0


def test_ladder_difference_is_derivative_term():
    # D+ - D- applied to F equals -2 r dF/dr; D+ + D- equals i r F + 2 Z3 F
    h = 2e-3
    r = positive_grid(0.1, 10.0, h)
    alpha = Fraction(1, 2)
    gf = GridFunction(r, eigenfunction_r(0, alpha, r), h, "positive")
    dplus = ladder_apply(+1, gf, alpha).values
    dminus = ladder_apply(-1, gf, alpha).values
    diff = dplus - dminus
    total = dplus + dminus
    dfdr = derivative_4th(gf.values, h)
    z3 = z3_apply(gf, alpha).values
    assert np.max(np.abs(diff + 2.0 * r * dfdr)) < 1e-10 * np.max(np.abs(dfdr) * r)
    assert np.max(np.abs(total - (1j * r * gf.values + 2.0 * z3))) < 1e-12 * np.max(np.abs(z3))


def test_ladder_lowest_state_collinearity():
    # projection of D+- F0 onto span{F0, F1}: D+ F0 = 2k F0 - F1, D- F0 = 2k F0
    h = 2e-3
    r = positive_grid(0.1, 20.0, h)
    alpha = Fraction(1, 2)
    k = bargmann_index(alpha)
    gf = GridFunction(r, eigenfunction_r(0, alpha, r), h, "positive")
    sl = slice(8, -8)
    basis = np.stack([gf.values[sl], eigenfunction_r(1, alpha, r)[sl]], axis=1)
    for sign, expected in ((+1, np.array([2 * k, -1.0])), (-1, np.array([2 * k, 0.0]))):
        y = ladder_apply(sign, gf, alpha).values[sl]
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        resid = np.linalg.norm(y - basis @ coef) / np.linalg.norm(y)
        assert resid < 1e-8
        assert np.max(np.abs(coef - expected)) < 1e-6


def test_ladder_sign_validation():
    gf = on_positive(lambda r: r, 1.0, 2.0, 0.05)
    with pytest.raises(GridError):
        ladder_apply(0, gf, Fraction(1, 2))


# --- commutators ----------------------------------------------------------------------

def test_self_commutator_vanishes():
    h = 2e-3
    r = positive_grid(0.1, 5.0, h)
    alpha = Fraction(1, 2)
    gf = GridFunction(r, eigenfunction_r(0, alpha, r), h, "positive")

    def z3(g):
        return z3_apply(g, alpha)

    out = commutator_apply(z3, z3, gf).values
    assert np.max(np.abs(out)) == 0.0


def test_multiplication_operators_commute():
    gf = on_positive(lambda r: np.exp(1j * r), 0.5, 3.0, 0.01)

    def mul(c):
        return lambda g: g.with_values(c * g.values)

    out = commutator_apply(mul(2.3 + 1j), mul(-0.7j), gf).values
    # zero up to the non-associativity of complex float multiplication
    assert np.max(np.abs(out)) < 1e-15 * np.max(np.abs(gf.values))


def test_commutator_antisymmetry():
    h = 2e-3
    r = positive_grid(0.1, 5.0, h)
    alpha = Fraction(3, 2)
    gf = GridFunction(r, eigenfunction_r(1, alpha, r), h, "positive")

    def z3(g):
        return z3_apply(g, alpha)

    def rmul(g):
        return g.with_values(g.points * g.values)

    ab = commutator_apply(z3, rmul, gf).values
    ba = commutator_apply(rmul, z3, gf).values
    scale = np.max(np.abs(ab))
    assert np.max(np.abs(ab + ba)) < 1e-12 * max(scale, 1.0)


def test_commutator_double_evaluation_consistency():
    # [Z3, r.] measured two ways: commutator_apply vs explicit composition
    h = 1e-3
    r = positive_grid(0.1, 5.0, h)
    alpha = Fraction(1, 2)
    gf = GridFunction(r, eigenfunction_r(0, alpha, r), h, "positive")

    def z3(g):
        return z3_apply(g, alpha)

    def rmul(g):
        return g.with_values(g.points * g.values)

    via_op = commutator_apply(z3, rmul, gf).values
    direct = z3(rmul(gf)).values - rmul(z3(gf)).values
    assert np.max(np.abs(via_op - direct)) == 0.0
    # and the measured action matches the symbolic [Z3, r.] = 2 i r d/dr on
    # the interior at stencil tolerance
    sl = slice(8, -8)
    expected = 2j * r * derivative_4th(gf.values, h)
    rel = np.max(np.abs(via_op - expected)[sl]) / np.max(np.abs(expected)[sl])
    assert rel < 1e-6
