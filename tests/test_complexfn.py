"""Special-function checks: frozen oracle values, algebraic identities, and
a live sweep against an arbitrary-precision reference (mpmath)."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from dunklkg import (
    DomainError,
    PoleError,
    gamma,
    laguerre_rows,
    laguerre_sequence,
    log_gamma,
    principal_pow,
    principal_sqrt,
)

mp.mp.dps = 30


# --- gamma -----------------------------------------------------------------

def test_gamma_factorial():
    assert gamma(5) == pytest.approx(24.0, rel=1e-13)


def test_gamma_half():
    assert gamma(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert abs(gamma(0.5).imag) < 1e-15


def test_gamma_one_plus_i():
    # arbitrary-precision oracle: 0.498015668118356043 - 0.154949828301810685 i
    expected = 0.49801566811835604 - 0.15494982830181069j
    assert gamma(1 + 1j) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3 + 5e-13j])
def test_gamma_pole(z):
    with pytest.raises(PoleError):
        gamma(z)


def test_gamma_against_mpmath_on_strip():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(300):
        z = complex(rng.uniform(0.5, 20.0), rng.uniform(-50.0, 50.0))
        exact = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        worst = max(worst, abs(gamma(z) - exact) / abs(exact))
    assert worst < 1e-12


def test_gamma_recurrence_on_strip():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(300):
        z = complex(rng.uniform(0.5, 19.0), rng.uniform(-49.0, 49.0))
        g1 = gamma(z + 1)
        worst = max(worst, abs(g1 - z * gamma(z)) / abs(g1))
    assert worst < 1e-11


def test_gamma_reflection_off_axis():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(300):
        z = complex(rng.uniform(-5.0, 5.0), rng.choice([-1, 1]) * rng.uniform(0.1, 10.0))
        lhs = gamma(z) * gamma(1 - z)
        rhs = math.pi / cmath.sin(math.pi * z)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-10


def test_log_gamma_is_analytic_continuation():
    # continuous in Im(z), agreeing with mpmath.loggamma (which never wraps)
    for y in np.linspace(-30.0, 30.0, 41):
        z = complex(3.0, y)
        expected = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        assert log_gamma(z) == pytest.approx(expected, abs=1e-11)


def test_log_gamma_against_mpmath_on_strip():
    # relative to max(1, |log Gamma|); measured 7.4e-16.  log_gamma + 1e-12
    # reads 8.7e-13 here, and LANCZOS_COEFFS[5] off by 1e-6 relative 5.0e-13
    rng = np.random.default_rng(20261020)
    worst = 0.0
    for _ in range(500):
        z = complex(rng.uniform(0.5, 20.0), rng.uniform(-50.0, 50.0))
        exact = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        worst = max(worst, abs(log_gamma(z) - exact) / max(1.0, abs(exact)))
    assert worst < 1e-14


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.2 + 1j)


# --- principal roots and powers ---------------------------------------------

def test_sqrt_examples():
    assert principal_sqrt(4.0) == pytest.approx(2.0)
    assert principal_sqrt(-1.0) == pytest.approx(1j)          # cut maps upward
    assert principal_sqrt(complex(-1.0, -0.0)) == pytest.approx(1j)
    # polar-form oracle for the case-1 ground-state energy square
    expected = 2.5389411168290024 - 2.7287766480100386j
    assert principal_sqrt(-1 - 13.856406460551018j) == pytest.approx(expected, rel=1e-13)


def test_sqrt_square_roundtrip():
    rng = np.random.default_rng(46)
    for _ in range(10000):
        z = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        if z == 0:
            continue
        root = principal_sqrt(z)
        assert abs(root * root - z) <= 1e-14 * abs(z)
        assert root.real >= 0.0


def test_pow_examples():
    assert principal_pow(math.e, 1.0) == pytest.approx(math.e, rel=1e-15)
    for k in (2.0, -3.5, 0.3 + 7j, 1j):
        assert principal_pow(1.0, k) == pytest.approx(1.0, abs=1e-15)
    expected = 0.7692389013639721 + 0.6389612763136348j  # exp(i ln 2)
    assert principal_pow(2.0, 1j) == pytest.approx(expected, rel=1e-14)


def test_pow_identities():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if z == 0:
            continue
        assert abs(principal_pow(z, 1.0) - z) <= 1e-15 * abs(z)
        assert principal_pow(z, 0.0) == 1.0


def test_pow_zero_base():
    assert principal_pow(0.0, 2.5) == 0.0
    assert principal_pow(0.0, 1j + 3) == 0.0
    with pytest.raises(DomainError):
        principal_pow(0.0, 0.0)
    with pytest.raises(DomainError):
        principal_pow(0.0, -1.0 + 2j)


# --- Laguerre ----------------------------------------------------------------

def test_laguerre_low_orders():
    assert laguerre_sequence(0, 3.7 - 2j, 1.1 + 0.3j)[0] == pytest.approx(1.0)
    assert laguerre_sequence(1, 1.0, 2.0)[1] == pytest.approx(0.0, abs=1e-15)
    assert laguerre_sequence(2, 1.0, 2.0)[2] == pytest.approx(-1.0, rel=1e-14)


def test_laguerre_recurrence_residual():
    rng = np.random.default_rng(48)
    for _ in range(100):
        a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        seq = laguerre_sequence(31, a, z)
        for n in range(1, 30):
            resid = abs(
                (n + 1) * seq[n + 1] - (2 * n + 1 + a - z) * seq[n] + (n + a) * seq[n - 1]
            )
            assert resid <= 1e-10 * max(1.0, abs(seq[n]))


def test_laguerre_against_scipy_for_real_orders():
    # independent reference for integer orders where scipy applies
    from scipy.special import eval_genlaguerre

    rng = np.random.default_rng(49)
    for _ in range(50):
        n = int(rng.integers(0, 12))
        a = int(rng.integers(0, 5))
        x = float(rng.uniform(-5, 5))
        assert laguerre_sequence(n, a, x)[n].real == pytest.approx(
            float(eval_genlaguerre(n, a, x)), rel=1e-10, abs=1e-10
        )


def test_laguerre_vectorized_matches_scalar():
    z = np.array([0.1 + 0.2j, -1.0, 3.0 - 4.0j])
    vec = laguerre_sequence(5, 0.5 + 0.1j, z)[5]
    for i, zi in enumerate(z):
        assert vec[i] == pytest.approx(laguerre_sequence(5, 0.5 + 0.1j, complex(zi))[5], rel=1e-14)


def test_laguerre_rows_stream_the_sequence():
    z = np.array([0.1 + 0.2j, -1.0, 3.0 - 4.0j])
    rows = list(laguerre_rows(7, 0.5 + 0.1j, z))
    assert np.array_equal(np.array(rows), laguerre_sequence(7, 0.5 + 0.1j, z))
    assert len({id(row) for row in rows}) == len(rows)  # each row its own array
    with pytest.raises(DomainError):
        laguerre_rows(-1, 0.5, z)  # at the call, before any row is asked for


def divided_recurrence(n_max, a, z):
    """L_0 .. L_nmax by the recurrence as printed, each row divided by n + 1."""
    rows = [np.ones_like(z), 1.0 + a - z]
    for n in range(1, n_max):
        rows.append(((2 * n + 1 + a - z) * rows[n] - (n + a) * rows[n - 1]) / (n + 1))
    return np.array(rows[: n_max + 1])


def bits(x):
    return np.asarray(x).view(np.uint64)


@pytest.mark.parametrize("a", [0.5, -0.3 + 0.8j, 2.0 + 0j])
def test_laguerre_sequence_equals_the_divided_recurrence_bitwise(a):
    # multiplying by 1 / (n + 1) is how numpy divides a complex by a real
    rng = np.random.default_rng(20261019)
    z = rng.uniform(-10, 10, 4001) + 1j * rng.uniform(-10, 10, 4001)
    assert np.array_equal(bits(laguerre_sequence(31, a, z)), bits(divided_recurrence(31, a, z)))
    for zi in z[:40]:  # numpy scalars
        assert np.array_equal(
            bits(laguerre_sequence(31, a, zi)), bits(divided_recurrence(31, a, zi))
        )
