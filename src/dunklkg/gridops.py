"""Finite-difference realization of the Dunkl derivative and the su(1,1) operators.

Grids are uniform.  SYMMETRIC grids hold +-(h/2 + j h) so that every point
has its mirror image present and x = 0 is excluded; reflection is exact
index mirroring, never interpolation.  POSITIVE grids live on r >= h > 0.

Derivatives use 4th-order stencils: 5-point central rows in the interior
and shifted 4th-order rows at the two points nearest each edge, so every
returned sample has O(h^4) truncation.

``dunkl_apply`` implements the reflection form of the Dunkl derivative,
D f = f' + (alpha/x)(1 - P) f with P the parity operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridError
from .model import AlphaLike, radial_coupling

__all__ = [
    "GridFunction",
    "commutator_apply",
    "derivative_4th",
    "dunkl_apply",
    "ladder_apply",
    "positive_grid",
    "second_derivative_4th",
    "symmetric_grid",
    "z3_apply",
]

SYMMETRIC = "symmetric"
POSITIVE = "positive"

_UNIFORM_TOL = 1e-12
_MIN_POINTS = 9

GridOperator = Callable[["GridFunction"], "GridFunction"]


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a uniform 1-D grid."""

    points: np.ndarray
    values: np.ndarray
    h: float
    domain_kind: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        if pts.ndim != 1 or pts.shape != vals.shape:
            raise GridError("points and values must be matching 1-D arrays")
        if pts.size < _MIN_POINTS:
            raise GridError(f"grid needs at least {_MIN_POINTS} points, got {pts.size}")
        if not (self.h > 0.0):
            raise GridError("grid spacing must be positive")
        if np.max(np.abs(np.diff(pts) - self.h)) > _UNIFORM_TOL:
            raise GridError("grid spacing not uniform to 1e-12")
        if self.domain_kind == SYMMETRIC:
            if np.max(np.abs(pts + pts[::-1])) > _UNIFORM_TOL:
                raise GridError("symmetric grid must contain -x for every x")
            if np.any(pts == 0.0):
                raise GridError("symmetric grid must exclude x = 0")
            if pts.size < 2 * _MIN_POINTS:
                raise GridError(
                    f"symmetric grid needs at least {_MIN_POINTS} points per side"
                )
        elif self.domain_kind == POSITIVE:
            if pts[0] < self.h - _UNIFORM_TOL:
                raise GridError("positive grid must start at r >= h > 0")
        else:
            raise GridError(f"unknown domain kind {self.domain_kind!r}")

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.points, values, self.h, self.domain_kind)


def symmetric_grid(h: float, n_per_side: int) -> np.ndarray:
    """Points +-(h/2 + j h), j = 0..n_per_side-1, ascending; excludes zero."""
    half = h / 2.0 + h * np.arange(n_per_side)
    return np.concatenate([-half[::-1], half])


def positive_grid(r_min: float, r_max: float, h: float) -> np.ndarray:
    n = int(round((r_max - r_min) / h))
    return r_min + h * np.arange(n + 1)


# 4th-order rows: interior central, plus shifted rows for the two points at
# each edge (offsets noted).  Second-derivative edge rows use 6 points.
_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0  # offsets 0..4
_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0    # offsets -1..3
_D2_EDGE0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0  # 0..5
_D2_EDGE1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0        # -1..4


def derivative_4th(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative, O(h^4) at every sample."""
    f = np.asarray(values)
    if f.size < _MIN_POINTS:
        raise GridError("need at least 9 samples for the 4th-order stencils")
    out = np.empty_like(f, dtype=complex)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = np.dot(_D1_EDGE0, f[:5]) / h
    out[1] = np.dot(_D1_EDGE1, f[:5]) / h
    out[-2] = -np.dot(_D1_EDGE1, f[-5:][::-1]) / h
    out[-1] = -np.dot(_D1_EDGE0, f[-5:][::-1]) / h
    return out


def second_derivative_4th(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative, O(h^4) at every sample."""
    f = np.asarray(values)
    if f.size < _MIN_POINTS:
        raise GridError("need at least 9 samples for the 4th-order stencils")
    h2 = h * h
    out = np.empty_like(f, dtype=complex)
    out[2:-2] = (
        -f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]
    ) / (12.0 * h2)
    out[0] = np.dot(_D2_EDGE0, f[:6]) / h2
    out[1] = np.dot(_D2_EDGE1, f[:6]) / h2
    out[-2] = np.dot(_D2_EDGE1, f[-6:][::-1]) / h2
    out[-1] = np.dot(_D2_EDGE0, f[-6:][::-1]) / h2
    return out


def _require(gf: GridFunction, kind: str, op: str) -> None:
    if gf.domain_kind != kind:
        raise GridError(f"{op} requires a {kind} grid, got {gf.domain_kind}")


def dunkl_apply(gf: GridFunction, alpha: AlphaLike) -> GridFunction:
    """Reflection-form Dunkl derivative D f = f' + (alpha/x)(f(x) - f(-x))."""
    _require(gf, SYMMETRIC, "dunkl_apply")
    a = float(alpha)
    deriv = derivative_4th(gf.values, gf.h)
    reflected = gf.values[::-1]  # exact mirror on a symmetric grid
    out = deriv + a / gf.points * (gf.values - reflected)
    return gf.with_values(out)


def z3_apply(gf: GridFunction, alpha: AlphaLike) -> GridFunction:
    """Compact generator Z3 f = i [ r f'' + (alpha/2 + 3/16) f / r + r f / 4 ]."""
    _require(gf, POSITIVE, "z3_apply")
    c = radial_coupling(alpha)
    r = gf.points
    d2 = second_derivative_4th(gf.values, gf.h)
    return gf.with_values(1j * (r * d2 + c * gf.values / r + 0.25 * r * gf.values))


def ladder_apply(sign: int, gf: GridFunction, alpha: AlphaLike) -> GridFunction:
    """Ladder operator D_+- f = -+ r f' + (i/2) r f + Z3 f.

    ``sign`` is +1/-1 selecting D_plus / D_minus.
    """
    _require(gf, POSITIVE, "ladder_apply")
    if sign not in (1, -1):
        raise GridError(f"ladder sign must be +1 or -1, got {sign!r}")
    s = -float(sign)  # D_plus carries -r d/dr
    r = gf.points
    d1 = derivative_4th(gf.values, gf.h)
    z3 = z3_apply(gf, alpha).values
    return gf.with_values(s * r * d1 + 0.5j * r * gf.values + z3)


def commutator_apply(op_a: GridOperator, op_b: GridOperator, gf: GridFunction) -> GridFunction:
    """[A, B] f = A(B f) - B(A f) for two composable grid operators."""
    ab = op_a(op_b(gf))
    ba = op_b(op_a(gf))
    return gf.with_values(ab.values - ba.values)
