"""Radial eigenfunctions: frozen values, x/r consistency and ODE residuals."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dunklkg import (
    CoherentParams,
    CurvatureCase,
    DegenerateError,
    DomainError,
    eigenfunction_r,
    eigenfunction_rows,
    eigenfunction_x,
    energy_shifts,
    laguerre_sequence,
    normalization,
    ode_residual,
    positive_grid,
    scale_factor,
    second_derivative_4th,
    sigma_index,
)
from dunklkg.eigenfunctions import radial_envelope, row_residuals

ALPHAS = [Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)]
CASE_BRANCHES = [
    (CurvatureCase.GAUSSIAN, None),
    (CurvatureCase.RATIONAL, "plus"),
    (CurvatureCase.RATIONAL, "minus"),
    (CurvatureCase.SINC, "plus"),
    (CurvatureCase.SINC, "minus"),
]


def case1_lambda(n, alpha, R=1.0):
    (shift,) = energy_shifts(CurvatureCase.GAUSSIAN, n, alpha, R)
    return scale_factor(CurvatureCase.GAUSSIAN, shift, R)


# --- pointwise values -----------------------------------------------------------

def test_vanishes_at_origin():
    assert eigenfunction_x(0, Fraction(1, 2), case1_lambda(0, Fraction(1, 2)), 0.0) == 0.0
    assert eigenfunction_r(0, Fraction(3, 2), 0.0) == 0.0


def test_ground_state_x_frozen_value():
    # sqrt(2 / Gamma(2k)) e^{-i/2} with k = 0.5 + 0.43301270i (mpmath oracle)
    expected = 1.717535733068468 - 0.6200962921263738j
    assert eigenfunction_x(0, Fraction(1, 2), 1.0, 1.0) == pytest.approx(expected, rel=1e-12)


def test_ground_state_r_value():
    # r = 1 kills the power factor: F = e^{-i/2}
    assert eigenfunction_r(0, Fraction(1, 2), 1.0) == pytest.approx(
        cmath.exp(-0.5j), rel=1e-14
    )


def test_second_state_r_frozen_value():
    # independent hand recurrence: L2^{2s}(2i) with s = sigma(1/2), then
    # 2^{s+1/2} e^{-i} L2 (mpmath arithmetic)
    expected = -2.074078473124485 - 3.2470847471025841j
    assert eigenfunction_r(2, Fraction(1, 2), 2.0) == pytest.approx(expected, rel=1e-12)


def test_first_laguerre_modulus_minimum():
    # |L_1^{2 sigma}(i x^2)| = |1 + 2 sigma - i x^2| is minimized where x^2
    # matches the imaginary part of 1 + 2 sigma
    alpha = Fraction(1, 2)
    sig = sigma_index(alpha)
    x = np.linspace(0.05, 2.5, 2000)
    mod = np.abs(1.0 + 2.0 * sig - 1j * x**2)
    x_star = x[int(np.argmin(mod))]
    assert x_star**2 == pytest.approx(2.0 * sig.imag, rel=1e-2)


def test_lambda_zero_rejected():
    with pytest.raises(DegenerateError):
        eigenfunction_x(0, Fraction(1, 2), 0.0, 1.0)
    with pytest.raises(DegenerateError):
        normalization(0, Fraction(1, 2), 0.0)


# --- x-form vs r-form ------------------------------------------------------------

def test_x_equals_normalized_r_composition():
    rng = np.random.default_rng(2024)
    x = rng.uniform(0.01, 2.5, size=100)
    for alpha in ALPHAS:
        for n in (0, 1, 3, 5):
            lam = case1_lambda(n, alpha)
            lhs = eigenfunction_x(n, alpha, lam, x)
            rhs = normalization(n, alpha, lam) * eigenfunction_r(n, alpha, lam * x**2)
            assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 1e-10


def test_streamed_rows_equal_eigenfunction_r():
    # one envelope and one recurrence pass give every F_n bit for bit, on the
    # real sweep grid and on a complex Lambda x^2 array
    x = np.linspace(0.01, 2.0, 50)
    for alpha in ALPHAS:
        for r in (positive_grid(0.1, 20.0, 0.01), case1_lambda(1, alpha) * x**2):
            rows = list(eigenfunction_rows(5, alpha, r))
            assert len(rows) == 6
            table = laguerre_sequence(5, 2.0 * sigma_index(alpha), 1j * r)
            envelope = radial_envelope(alpha, r.astype(complex))
            for n, row in enumerate(rows):
                assert np.array_equal(row, eigenfunction_r(n, alpha, r))
                assert np.array_equal(row, envelope * table[n])


def test_envelope_is_zero_at_r_zero_and_the_masked_formula_elsewhere():
    # built in place over every sample, log 0 included, the envelope raises no
    # floating-point warning and keeps the bits of the formula applied to r != 0 only
    x = np.linspace(0.0, 2.0, 50)
    for alpha in ALPHAS:
        sig = sigma_index(alpha)
        real_r = np.concatenate(([0.0], positive_grid(0.1, 20.0, 0.01), [0.0]))
        for r in (real_r.astype(complex), case1_lambda(1, alpha) * x**2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                envelope = radial_envelope(alpha, r)
            nz = r != 0
            want = np.exp((sig + 0.5) * np.log(r[nz])) * np.exp(-0.5j * r[nz])
            assert np.array_equal(envelope[nz].view(np.uint64), want.view(np.uint64))
            assert not envelope[~nz].view(np.uint64).any()  # +0 in both parts


def test_even_factorization():
    # apart from (sqrt(Lambda) x)^(2 sigma + 1), the state depends on x only
    # through x^2: F(x) = norm * power * exp(-i Lambda x^2/2) L_n(i Lambda x^2).
    # One loop over every case/branch covers rational and sinc scale factors.
    alpha = Fraction(3, 2)
    n = 2
    sig = sigma_index(alpha)
    for case, branch in CASE_BRANCHES:
        lam = CoherentParams.for_case(case, alpha, n, 0.0, branch=branch).lambda_scale
        norm = normalization(n, alpha, lam)
        for x in (0.2, 0.7, 1.3):
            power = cmath.exp((2 * sig + 1) * (0.5 * cmath.log(lam) + math.log(x)))
            u = x * x
            even_part = cmath.exp(-0.5j * lam * u) * (
                # L_2^a(z) by the recurrence, z = i Lambda u
                ((3 + 2 * sig - 1j * lam * u) * (1 + 2 * sig - 1j * lam * u) - (1 + 2 * sig)) / 2
            )
            assert eigenfunction_x(n, alpha, lam, x) == pytest.approx(
                norm * power * even_part, rel=1e-12
            ), (case, branch, x)


# --- ODE residuals ----------------------------------------------------------------

def test_ode_residual_ground_state():
    # the closed form satisfies the equation exactly; the measured level is
    # the round-off floor of the second difference (~ eps r^2 / h^2 at the
    # far end of the grid), which sits at ~1.2e-6 for h = 1e-3
    assert ode_residual(0, Fraction(1, 2)) < 2e-6


def test_ode_residual_excited():
    assert ode_residual(3, Fraction(3, 2)) < 1e-5


def test_ode_residual_sweep():
    for alpha in ALPHAS:
        for n in range(6):
            assert ode_residual(n, alpha) < 1e-5


def test_ode_residual_rejects_non_eigenfunction():
    # F_0 put through the n = 1 equation, whose eigenvalue is k + 1, not k
    alpha, h = Fraction(1, 2), 1e-3
    r = positive_grid(0.1, 20.0, h)
    f = eigenfunction_r(0, alpha, r)
    assert row_residuals(1, alpha, r, f, second_derivative_4th(f, h))[1] > 1e-2


def test_ode_fourth_order_convergence():
    # h -> h/2 in the truncation-dominated regime (see verification notes)
    coarse = max(ode_residual(n, a, h=8e-3) for a in ALPHAS for n in range(6))
    fine = max(ode_residual(n, a, h=4e-3) for a in ALPHAS for n in range(6))
    assert coarse / fine >= 8.0


def test_ode_residual_grid_validation():
    with pytest.raises(DomainError):
        ode_residual(0, Fraction(1, 2), r_min=0.0)
