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
from typing import Tuple

import numpy as np

from .complexfn import laguerre_rows, log_gamma, principal_log
from .errors import DegenerateError, DomainError
from .gridops import positive_grid, second_derivative_4th, z3_values
from .model import AlphaLike, bargmann_index, sigma_index

__all__ = [
    "eigenfunction_r",
    "eigenfunction_rows",
    "eigenfunction_x",
    "log_normalization",
    "normalization",
    "ode_residual",
    "radial_envelope",
    "row_residuals",
]

_LN2 = math.log(2.0)


def log_normalization(n: int, alpha: AlphaLike, lambda_scale: complex) -> complex:
    """log N_n = (1/2) log(2 Lambda^(sigma+1) n! / Gamma(n + 2 sigma + 1)), principal Log Lambda."""
    if n < 0:
        raise DomainError("n must be non-negative")
    lam = complex(lambda_scale)
    if lam == 0:
        raise DegenerateError("lambda_scale = 0 has no normalizable eigenfunction")
    sig = sigma_index(alpha)
    return 0.5 * (
        _LN2
        + (sig + 1.0) * principal_log(lam)
        + math.lgamma(n + 1)
        - log_gamma(n + 2.0 * sig + 1.0)
    )


def normalization(n: int, alpha: AlphaLike, lambda_scale: complex) -> complex:
    """Prefactor N_n = exp(``log_normalization``), log-space branch."""
    return cmath.exp(log_normalization(n, alpha, lambda_scale))


def radial_envelope(alpha: AlphaLike, r: np.ndarray) -> np.ndarray:
    """The factor r^(sigma+1/2) e^(-ir/2) of F_n shared by every n; 0 at r = 0.

    ``r`` is a complex ndarray.  The power is principal; Re(sigma + 1/2) =
    1/2 > 0, so the value at r = 0 is its limit 0.  The product is built in
    one new array and one phase array, each step through ``out=``; log 0
    gives non-finite values there, which the limit then replaces.
    """
    sig = sigma_index(alpha)
    out = np.empty_like(r)
    phase = np.multiply(-0.5j, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.exp(np.multiply(sig + 0.5, np.log(r, out=out), out=out), out=out)
    np.multiply(out, np.exp(phase, out=phase), out=out)
    out[r == 0] = 0
    return out


def eigenfunction_rows(n_max: int, alpha: AlphaLike, r):
    """Iterator over F_0(r) .. F_nmax(r) on one ndarray ``r`` (real or complex).

    One ``radial_envelope`` and one Laguerre recurrence pass serve every n;
    only the last two Laguerre rows are kept, never the whole table.
    """
    r_arr = np.asarray(r, dtype=complex)
    # the envelope first, so its phase array is freed before 1j * r exists
    envelope = radial_envelope(alpha, r_arr)
    lag_rows = laguerre_rows(n_max, 2.0 * sigma_index(alpha), 1j * r_arr)
    return (envelope * lag for lag in lag_rows)


def eigenfunction_r(n: int, alpha: AlphaLike, r):
    """Unnormalized F_n(r) = r^(sigma+1/2) e^(-ir/2) L_n^(2 sigma)(i r).

    ``r`` may be a scalar or ndarray, real non-negative or complex (the
    x-form feeds complex r = Lambda x^2).  F(0) = 0.  The value is the
    last row of ``eigenfunction_rows(n, alpha, r)``; a negative n raises
    DomainError there.
    """
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


def ode_residual(n: int, alpha: AlphaLike, r_min: float = 0.1, r_max: float = 20.0,
                 h: float = 1e-3) -> float:
    """Max relative residual of the reduced radial equation on a grid.

    Checks  -r^2 F'' - i(k+n) r F - (1/4) r^2 F = (alpha/2 + 3/16) F  with
    F'' from the 4th-order stencil; the two samples nearest each edge
    (where a central stencil does not exist) are dropped.  Returns
    max |lhs - rhs| / max |F| over the interior.
    """
    if r_min <= 0:
        raise DomainError("grid must exclude r = 0")
    r = positive_grid(r_min, r_max, h)
    f = eigenfunction_r(n, alpha, r)
    return row_residuals(n, alpha, r, f, second_derivative_4th(f, h))[1]


def row_residuals(n: int, alpha: AlphaLike, r: np.ndarray, f: np.ndarray,
                  d2: np.ndarray) -> Tuple[float, float]:
    """(Z3, ODE) residuals of samples ``f`` of F_n at the real points ``r``, given
    F_n'' there (``d2``, the stencil's or the exact one; overwritten).

    With res = Z3 F - (k+n) F, the Z3 eigenvalue residual is
    max |res| / max |F|.  The reduced equation's residual is i r times res,
    so ``ode_residual`` is max |r res| / max |F| with the two samples nearest
    each edge dropped.  The operator is written once, in ``z3_values``.
    """
    res = z3_values(f, r, d2, alpha)
    res -= (bargmann_index(alpha) + n) * f
    scale = np.max(np.abs(f))
    z3 = float(np.max(np.abs(res)) / scale)
    return z3, float(np.max(np.abs(np.multiply(r, res, out=res)[2:-2])) / scale)
