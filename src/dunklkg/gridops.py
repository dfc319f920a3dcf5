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

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .model import AlphaLike, radial_coupling

__all__ = [
    "GridFunction",
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
# peak bytes per point of the heaviest positive-grid user, the ladder
# diagnostics on F_0 .. F_3 (168 measured with tracemalloc; a stencil sweep
# of verify peaks at 135), with a 29 % margin
_POSITIVE_GRID_BYTES_PER_POINT = 216


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
        """This grid, checked when it was built, with new samples; only their
        shape is checked."""
        vals = np.asarray(values)
        if vals.shape != self.points.shape:
            raise GridError("points and values must be matching 1-D arrays")
        out = object.__new__(GridFunction)
        out.__dict__.update(self.__dict__, values=vals)
        return out


def symmetric_grid(h: float, n_per_side: int) -> np.ndarray:
    """Points +-(h/2 + j h), j = 0..n_per_side-1, ascending; excludes zero."""
    half = h / 2.0 + h * np.arange(n_per_side)
    return np.concatenate([-half[::-1], half])


def positive_grid(r_min: float, r_max: float, h: float) -> np.ndarray:
    span = (r_max - r_min) / h
    # a spacing so fine that the count overflows needs more than any memory
    n = round(span) if math.isfinite(span) else math.inf
    require_memory(n + 1, _POSITIVE_GRID_BYTES_PER_POINT)
    with np.errstate(invalid="ignore"):  # h = inf gives [nan], one point, refused later
        return r_min + h * np.arange(n + 1)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_memory(points: int, bytes_per_point: int) -> None:
    """Refuse, before allocating, a grid whose code path would need more than
    physical memory: points x that path's fixed bytes per point.

    A grid that fits the address space but not the machine would otherwise
    be attempted and could end in the out-of-memory killer.
    """
    need, have = points * bytes_per_point, _physical_memory()
    if need > have:
        count = points if points < 10**15 else f"{points:.3g}"  # at most 15 digits in full
        raise MemoryError(
            f"Unable to allocate about {need / 2**30:.3g} GiB for a grid of {count} points; "
            f"physical memory is {have / 2**30:.3g} GiB"
        )


# 4th-order rows: interior central (offsets -2..2), plus shifted rows for
# the two points at each edge, mirrored at the right edge with a sign.
# Second-derivative edge rows use 6 points.
_D1_INTERIOR = (1.0, -8.0, 0.0, 8.0, -1.0)  # over 12 h
_D2_INTERIOR = (-1.0, 16.0, -30.0, 16.0, -1.0)  # over 12 h^2
_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0  # offsets 0..4
_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0    # offsets -1..3
_D2_EDGE0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0  # 0..5
_D2_EDGE1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0        # -1..4


def _stencil(values: np.ndarray, h_pow: float, interior, edge0, edge1, right_sign: float):
    """One 4th-order derivative of complex samples, h_pow = h^order, in a new array.

    Row i is sum_j interior[j] f[i+j-2] / (12 h_pow), summed term by term on
    the float view of f (re, im interleaved, so offsets double), then
    multiplied by 1 / (12 h_pow), as numpy divides a complex by a real: for
    finite samples each row equals the complex expression bit for bit, with
    one temporary.  The two rows at each edge use ``edge0`` and ``edge1``.
    """
    f = np.ascontiguousarray(values, dtype=complex)
    if f.ndim != 1 or f.size < _MIN_POINTS:
        raise GridError("need a 1-D array of at least 9 samples for the 4th-order stencils")
    out = np.empty_like(f)
    g, rows = f.view(float), out.view(float)[4:-4]
    term = np.empty_like(rows)
    np.multiply(g[:rows.size], interior[0], out=rows)
    for j, w in enumerate(interior[1:], 1):
        if w:
            rows += np.multiply(g[2 * j:2 * j + rows.size], w, out=term)
    rows *= 1.0 / (12.0 * h_pow)
    left, right = f[:edge0.size], f[-edge0.size:][::-1]
    out[0], out[1] = np.dot(edge0, left) / h_pow, np.dot(edge1, left) / h_pow
    out[-1] = np.dot(right_sign * edge0, right) / h_pow
    out[-2] = np.dot(right_sign * edge1, right) / h_pow
    return out


def derivative_4th(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative, O(h^4) at every sample."""
    return _stencil(values, h, _D1_INTERIOR, _D1_EDGE0, _D1_EDGE1, -1.0)


def second_derivative_4th(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative, O(h^4) at every sample."""
    return _stencil(values, h * h, _D2_INTERIOR, _D2_EDGE0, _D2_EDGE1, 1.0)


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


def z3_values(values: np.ndarray, r: np.ndarray, d2: np.ndarray, alpha: AlphaLike) -> np.ndarray:
    """Compact generator Z3 f = i [ r f'' + (alpha/2 + 3/16) f / r + r f / 4 ].

    ``values`` are samples of f at the real points ``r`` and ``d2`` are its
    f'' there: the 4th-order stencil's (``z3_apply``) or an exact one.  The
    sum is formed term by term in ``d2``'s array, which is returned; f / r
    is f times 1 / r, which is how numpy divides a complex by a real, so
    the bits are those of the plain formula.
    """
    c = radial_coupling(alpha)
    z3 = np.multiply(r, d2, out=d2)
    term = np.multiply(c, values)
    term *= 1.0 / r
    z3 += term
    z3 += np.multiply(0.25 * r, values, out=term)
    return np.multiply(1j, z3, out=z3)


def z3_apply(gf: GridFunction, alpha: AlphaLike) -> GridFunction:
    """``z3_values`` of a positive-grid function, with the stencil's f''."""
    _require(gf, POSITIVE, "z3_apply")
    d2 = second_derivative_4th(gf.values, gf.h)
    return gf.with_values(z3_values(gf.values, gf.points, d2, alpha))


def ladder_apply(sign: int, gf: GridFunction, alpha: AlphaLike) -> GridFunction:
    """Ladder operator T_+- f = -+ r f' + (i/2) r f - Z3 f.

    ``sign`` is +1/-1 selecting T_plus / T_minus.  With Z3 these close the
    su(1,1) algebra, [Z3, T_+-] = +-T_+- and [T_+, T_-] = -2 Z3, and act on
    the eigenfunctions as the Laguerre ladder (DLMF 18.9):
    T_+ F_n = -(n+1) F_{n+1} and T_- F_n = -(n+2k-1) F_{n-1}, T_- F_0 = 0.
    Relative to D_+- = -+ r f' + (i/2) r f + Z3 f, which closes no such
    algebra, T_+- = D_+- - 2 Z3.
    The paper's printed relations, [Z3, D+] = -D+, [Z3, D-] = +D- and
    [D+, D-] = 2 Z3, hold for T_-+ (its D+ is T_-, its D- is T_+).
    """
    _require(gf, POSITIVE, "ladder_apply")
    if sign not in (1, -1):
        raise GridError(f"ladder sign must be +1 or -1, got {sign!r}")
    s = -float(sign)  # T_plus carries -r d/dr
    r = gf.points
    d1 = derivative_4th(gf.values, gf.h)
    return gf.with_values(s * r * d1 + 0.5j * r * gf.values - z3_apply(gf, alpha).values)
