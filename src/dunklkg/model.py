"""Physical parameters, curvature profiles, and derived su(1,1) constants.

Units: hbar = c = 1.  The deformation parameter alpha is structurally
restricted to half-odd integers (2j+1)/2 and is carried as an exact
Fraction so that validation never depends on float rounding.  Only the
even-parity sector is implemented.

The symbol mu that appears alongside alpha in the reduced radial equation
is treated as identical to alpha throughout.
"""

from __future__ import annotations

import cmath
import enum
import re
from fractions import Fraction
from typing import Union

from .complexfn import principal_sqrt
from .errors import DegenerateError, DomainError

__all__ = [
    "CurvatureCase",
    "bargmann_index",
    "casimir_eigenvalue",
    "half_odd_alpha",
    "parse_alpha",
    "parse_complex",
    "radial_coupling",
    "scale_factor",
    "sigma_index",
]

AlphaLike = Union[Fraction, int, float]


class CurvatureCase(enum.Enum):
    """The three even curvature profiles a(x) treated by the package."""

    GAUSSIAN = "gaussian"  # a(x) = exp(-R x^2)
    RATIONAL = "rational"  # a(x) = (1 - R x^2) / (1 + R x^2)
    SINC = "sinc"          # a(x) = sin(x sqrt(R)) / (x sqrt(R))

    @classmethod
    def from_name(cls, name: str) -> "CurvatureCase":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise DomainError(
                f"unknown curvature case {name!r}; expected one of "
                f"{[c.value for c in cls]}"
            ) from None


def half_odd_alpha(alpha: AlphaLike) -> Fraction:
    """``alpha`` as an exact Fraction; the one check that it is a positive
    half-odd integer (2j+1)/2."""
    try:
        value = Fraction(alpha)
    except (ValueError, OverflowError):  # NaN, +-inf
        value = Fraction(0)
    if value <= 0 or value.denominator != 2:
        raise DomainError(f"alpha must be a positive half-odd integer (2j+1)/2, got {alpha}")
    return value


_ALPHA_RE = re.compile(r"^(\d+)/2$")


def parse_alpha(text: str) -> Fraction:
    """Parse a half-odd-integer alpha given as a 'p/2' rational literal.

    Decimal notation is rejected even when the value would be valid: the
    half-odd restriction is structural and the literal keeps it exact.
    """
    match = _ALPHA_RE.match(text.strip())
    if match is not None:
        try:
            return half_odd_alpha(Fraction(int(match.group(1)), 2))
        except ValueError:  # a numerator longer than sys.get_int_max_str_digits()
            pass
    raise DomainError(f"cannot parse alpha from {text!r}; expected 'p/2' with odd p")


def parse_complex(text: str) -> complex:
    """Parse a complex literal written with an 'i' suffix, e.g. '0.5+0.2i'."""
    cleaned = text.strip().replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise DomainError(f"cannot parse complex literal {text!r}") from None


def bargmann_index(alpha: AlphaLike) -> complex:
    """Bargmann index k = 1/2 + sqrt(1 - 8 alpha)/4 (principal root).

    For alpha > 1/8 the root is positive imaginary, so Im(k) > 0.
    """
    a = float(alpha)
    return 0.5 + principal_sqrt(1.0 - 8.0 * a) / 4.0


def sigma_index(alpha: AlphaLike) -> complex:
    """sigma = sqrt(1/16 - alpha/2) = k - 1/2; kept exactly equal to k - 1/2."""
    return bargmann_index(alpha) - 0.5


def radial_coupling(alpha: AlphaLike) -> float:
    """The constant alpha/2 + 3/16 multiplying 1/r in the reduced operator."""
    return float(alpha) / 2.0 + 3.0 / 16.0


def casimir_eigenvalue(alpha: AlphaLike) -> complex:
    """Quadratic Casimir eigenvalue k(k-1) = -(alpha/2 + 3/16)."""
    return complex(-radial_coupling(alpha))


_SCALE_PREFACTOR = {
    CurvatureCase.GAUSSIAN: 2.0,   # Lambda = sqrt(2 R (E^2 - m^2))
    CurvatureCase.RATIONAL: 4.0,   # Theta  = sqrt(4 R (E^2 - m^2))
    CurvatureCase.SINC: 1.0 / 3.0, # Pi     = sqrt(R (E^2 - m^2) / 3)
}


def scale_factor(case: CurvatureCase, shift: complex, R: float) -> complex:
    """Case-specific scale (Lambda, Theta or Pi) of the shift E^2 - m^2, principal root.

    Raises DegenerateError when the scale is zero: at the flat configuration
    E^2 = m^2 (a zero shift, or R = 0), or when the product underflows.  Any
    other shift, however small, has its scale.  Raises OverflowError when the
    scale is not finite.
    """
    scale = principal_sqrt(_SCALE_PREFACTOR[case] * R * complex(shift))
    if scale == 0:
        raise DegenerateError("E^2 = m^2: scale factor degenerates to zero")
    if not cmath.isfinite(scale):
        raise OverflowError(f"the scale factor is not finite at R={R}")
    return scale
