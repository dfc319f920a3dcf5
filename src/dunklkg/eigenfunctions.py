"""Closed-form radial eigenfunctions and residual diagnostics.

In the reduced variable r the (unnormalized) eigenfunction is

    F_n(r) = r^(sigma + 1/2) exp(-i r / 2) L_n^(2 sigma)(i r),

and the normalized physical-coordinate form is that same function at
r = Lambda x^2 times a prefactor,

    F_n(x) = N_n F_n(Lambda x^2),
    N_n    = sqrt(2 Lambda^(sigma+1) n! / Gamma(n + 2 sigma + 1)).

For x > 0 the principal power (Lambda x^2)^(sigma + 1/2) equals
(sqrt(Lambda) x)^(2 sigma + 1), so F_n is written once, in r.

For the rational and sinc profiles only the r-form equation is derived
directly; the x-form there adopts r = (scale) x^2 by analogy with the
gaussian substitution, and callers that emit x-domain data for those cases
mark it as such.

The normalization N_n is evaluated in log space with the analytic
log-gamma, which keeps the prefactor continuous in n (no spurious sign
flips from a principal square root of a ratio whose argument wanders) and
avoids overflow of n! / Gamma(n + 2k) at large n.  For the small n and the
parameter sets exercised publicly this coincides with the literal
principal root of the ratio to machine precision (asserted in the tests).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .complexfn import laguerre_rows, log_gamma, principal_log
from .errors import DegenerateError, DomainError, GridError
from .gridops import positive_grid, second_derivative_4th
from .model import AlphaLike, bargmann_index, radial_coupling, sigma_index

__all__ = [
    "approximation_gap",
    "eigenfunction_r",
    "eigenfunction_rows",
    "eigenfunction_x",
    "full_wavefunction_even",
    "normalization",
    "ode_residual",
    "ode_row_residual",
    "radial_envelope",
]

_LN2 = math.log(2.0)


def normalization(n: int, alpha: AlphaLike, lambda_scale: complex) -> complex:
    """Prefactor sqrt(2 Lambda^(sigma+1) n! / Gamma(n + 2 sigma + 1)), log-space branch."""
    if n < 0:
        raise DomainError("n must be non-negative")
    lam = complex(lambda_scale)
    if lam == 0:
        raise DegenerateError("lambda_scale = 0 has no normalizable eigenfunction")
    sig = sigma_index(alpha)
    log_norm_sq = (
        _LN2
        + (sig + 1.0) * principal_log(lam)
        + math.lgamma(n + 1)
        - log_gamma(n + 2.0 * sig + 1.0)
    )
    return cmath.exp(0.5 * log_norm_sq)


def radial_envelope(alpha: AlphaLike, r: np.ndarray) -> np.ndarray:
    """The factor r^(sigma+1/2) e^(-ir/2) of F_n shared by every n; 0 at r = 0.

    ``r`` is a complex ndarray.  The power is principal; Re(sigma + 1/2) =
    1/2 > 0, so the value at r = 0 is its limit 0.
    """
    sig = sigma_index(alpha)
    out = np.zeros_like(r)
    nz = r != 0
    out[nz] = np.exp((sig + 0.5) * np.log(r[nz])) * np.exp(-0.5j * r[nz])
    return out


def eigenfunction_rows(n_max: int, alpha: AlphaLike, r):
    """Iterator over F_0(r) .. F_nmax(r) on one ndarray ``r`` (real or complex).

    One ``radial_envelope`` and one Laguerre recurrence pass serve every n;
    only the last two Laguerre rows are kept, never the whole table.
    """
    r_arr = np.asarray(r, dtype=complex)
    lag_rows = laguerre_rows(n_max, 2.0 * sigma_index(alpha), 1j * r_arr)
    envelope = radial_envelope(alpha, r_arr)
    return (envelope * lag for lag in lag_rows)


def eigenfunction_r(n: int, alpha: AlphaLike, r):
    """Unnormalized F_n(r) = r^(sigma+1/2) e^(-ir/2) L_n^(2 sigma)(i r).

    ``r`` may be a scalar or ndarray, real non-negative or complex (the
    x-form feeds complex r = Lambda x^2).  F(0) = 0.  The value is the
    last row of ``eigenfunction_rows(n, alpha, r)``.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    for out in eigenfunction_rows(n, alpha, np.atleast_1d(r)):
        pass
    if np.ndim(r) == 0:
        return complex(out[0])
    return out


def eigenfunction_x(n: int, alpha: AlphaLike, lambda_scale: complex, x):
    """Normalized N_n F_n(Lambda x^2) in the physical coordinate; x >= 0 (scalar or ndarray)."""
    lam = complex(lambda_scale)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise DomainError("eigenfunction_x is defined for x >= 0")
    return normalization(n, alpha, lam) * eigenfunction_r(n, alpha, lam * x_arr**2)


def ode_residual(
    n: int,
    alpha: AlphaLike,
    r_min: float = 0.1,
    r_max: float = 20.0,
    h: float = 1e-3,
    eigenvalue_shift: complex = 0.0,
) -> float:
    """Max relative residual of the reduced radial equation on a grid.

    Checks  -r^2 F'' - i(k+n) r F - (1/4) r^2 F = (alpha/2 + 3/16) F  with a
    4th-order central second difference; the two samples nearest each edge
    (where a central stencil does not exist) are dropped.  Returns
    max |lhs - rhs| / max |F| over the interior.

    ``eigenvalue_shift`` perturbs the eigenvalue k + n; any nonzero shift
    must drive the residual up (a non-eigenfunction check).
    """
    if r_min <= 0:
        raise DomainError("grid must exclude r = 0")
    r = positive_grid(r_min, r_max, h)
    return ode_row_residual(n, alpha, r, h, eigenfunction_r(n, alpha, r), eigenvalue_shift)


def ode_row_residual(
    n: int, alpha: AlphaLike, r: np.ndarray, h: float, f: np.ndarray,
    eigenvalue_shift: complex = 0.0,
) -> float:
    """``ode_residual`` of given samples ``f`` of F_n on the positive grid ``r`` (spacing h)."""
    if r.size < 9:
        raise GridError("need at least 9 grid points")
    d2 = second_derivative_4th(f, h)
    k = bargmann_index(alpha) + complex(eigenvalue_shift)
    c = radial_coupling(alpha)
    lhs = -(r**2) * d2 - 1j * (k + n) * r * f - 0.25 * r**2 * f
    res = np.abs(lhs - c * f)[2:-2]
    return float(np.max(res) / np.max(np.abs(f)))


def approximation_gap(x: float, alpha: AlphaLike, R: float, e2_minus_m2: complex) -> float:
    """|exact - approximate| potential for the gaussian profile at one x.

    Exact:       (E^2 - m^2) e^(2 R x^2) - R^2 x^2 + R
    Approximate: Lambda^2 x^2 + (E^2 - m^2),  Lambda^2 = 2 R (E^2 - m^2)

    The deformation term 2 alpha / x^2 is common to both forms and drops
    out; alpha is accepted for interface symmetry only.  At x = 0 the gap
    is exactly R (the dropped constant); for large x it grows like
    2 R^2 x^4 |E^2 - m^2|.
    """
    if R <= 0:
        raise DomainError("R must be positive")
    u = complex(e2_minus_m2)
    x2 = x * x
    exact = u * cmath.exp(2.0 * R * x2) - R * R * x2 + R
    approx = 2.0 * R * u * x2 + u
    return abs(exact - approx)


def full_wavefunction_even(
    t: float,
    x: float,
    alpha: AlphaLike,
    R: float,
    energy: complex,
    chi_value: complex,
) -> complex:
    """Even-parity wavefunction psi_+(t, x) assembled from a chi_+ sample.

    psi_+ = (|x| sqrt(R))^(-alpha) exp( i E (x sqrt(R))^(2 alpha + 1)
            / (sqrt(R) (2 alpha + 1)) - i E t ) chi_+(x).

    For half-odd alpha the exponent power 2 alpha + 1 is an even integer,
    so no branch choice arises for x < 0.
    """
    if x == 0:
        raise DomainError("psi_+ has a power-law singularity at x = 0")
    if R <= 0:
        raise DomainError("R must be positive")
    a = float(alpha)
    sqrt_r = math.sqrt(R)
    power = 2.0 * a + 1.0
    power_int = round(power)
    if abs(power - power_int) < 1e-12:
        xs = (x * sqrt_r) ** int(power_int)  # exact integer power
    else:
        xs = (x * sqrt_r) ** power
    prefactor = (abs(x) * sqrt_r) ** (-a)
    phase = cmath.exp(1j * complex(energy) * xs / (sqrt_r * power) - 1j * complex(energy) * t)
    return prefactor * phase * complex(chi_value)
