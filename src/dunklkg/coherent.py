"""Perelomov su(1,1) coherent states in closed radial form, their series
construction, time evolution, and normalized density profiles.

Closed form (k the Bargmann index, Lambda the case scale factor):

    R_k(x, xi) = [ 2 Lambda^(k+1/2) (1-|xi|^2)^(2k) / Gamma(2k) ]^(1/2)
                 (sqrt(Lambda) x)^(2k)
                 exp[ (i Lambda x^2 / 2) (xi+1)/(xi-1) ] / (1 - xi)^(2k)

with xi in the open unit disk.  It is evaluated as exp E(x) of one exponent
(0 at x = 0),

    E(x) = C + 2k log x + q x^2,   q = (i Lambda / 2) (xi+1)/(xi-1),
    C = log[N_0 (1-|xi|^2)^k] + k Log Lambda - 2k Log(1-xi) + log phase,

with N_0 the n = 0 eigenfunction prefactor and the log phase 0 (static) or
that of the evolved state.  Re E and Im E are built from real arrays and one
complex exp gives each sample, so no complex product or complex abs touches
the samples, and the profiles do not depend on numpy's SIMD kernels.

The independent construction sums the displacement series
sum_n sqrt(Gamma(n+2k)/(n! Gamma(2k))) xi^n F_n(x) over the eigenfunctions;
agreement of the two is the principal correctness check of this module.

The closed form carries no explicit n; the quantum number enters through
the shift E_n^2 - m^2 (free of m, so no mass enters) of the spectral
branch feeding the scale factor, so each n labels the coherent state
built on that branch.  Time evolution maps xi to xi e^(-i tau) (hbar = 1)
with an overall phase prefactor that is e^(-i k tau) under the 'corrected'
convention (default) or the constant e^(-i k) 'as-printed'; the two yield
identical normalized densities.

Densities are always renormalized numerically on their grid: the complex
Bargmann index makes the closed-form prefactor non-unitary, so no analytic
normalization is claimed.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .complexfn import laguerre_rows, log_gamma, principal_log
from .errors import DomainError, NormalizationError
from .eigenfunctions import radial_envelope
from .gridops import POSITIVE, GridFunction, require_memory
from .model import (
    AlphaLike,
    CurvatureCase,
    PhaseConvention,
    bargmann_index,
    half_odd_alpha,
    scale_factor,
    sigma_index,
)
from .spectrum import BRANCHES, CSV_FLOAT, csv_field, csv_text, energy_shifts

__all__ = [
    "CoherentParams",
    "PhaseConvention",
    "ProfileData",
    "build_profile",
    "coherent_closed_form",
    "coherent_evolved",
    "coherent_series",
    "density_profile",
    "profiles_to_json",
    "suggested_series_terms",
]

_LN2 = math.log(2.0)

# Series truncation: cut when the term bound drops below this relative level.
_TAIL_TARGET = 1e-10
_MAX_TERMS = 600
_MIN_TERMS = 16

# peak bytes per point of build_profile (89 measured with tracemalloc)
_PROFILE_BYTES_PER_POINT = 96
# peak bytes per sample point of profiles_to_json (674 measured with
# tracemalloc for one 200k-point profile, 565 for four of 50k)
_JSON_BYTES_PER_POINT = 704


@dataclass(frozen=True)
class CoherentParams:
    """Displacement parameter, algebra inputs, and evolution settings."""

    xi: complex
    alpha: Fraction
    lambda_scale: complex
    tau: float = 0.0
    phase_convention: PhaseConvention = PhaseConvention.CORRECTED

    def __post_init__(self):
        object.__setattr__(self, "alpha", half_odd_alpha(self.alpha))
        if not abs(self.xi) < 1.0:  # also rejects a NaN xi
            raise DomainError(f"|xi| must be < 1 (Perelomov disk), got |xi| = {abs(self.xi)}")
        if not math.isfinite(self.tau):
            raise DomainError(f"tau must be finite, got {self.tau}")
        if self.lambda_scale == 0:
            raise DomainError("lambda_scale must be nonzero")

    @classmethod
    def for_case(
        cls,
        case: CurvatureCase,
        alpha: AlphaLike,
        n: int,
        xi: complex,
        R: float = 1.0,
        branch: Optional[str] = None,
        tau: float = 0.0,
        phase_convention: PhaseConvention = PhaseConvention.CORRECTED,
    ) -> "CoherentParams":
        """Build params with Lambda = scale(E_n^2 - m^2) on the chosen spectral branch.

        The gaussian case has a single branch and ``branch`` must be omitted;
        the rational and sinc cases require an explicit 'plus' or 'minus'.
        """
        shifts = energy_shifts(case, n, alpha, R)
        if case is CurvatureCase.GAUSSIAN:
            if branch not in (None, "plus"):
                raise DomainError("the gaussian case has a single spectral branch")
            branch = "plus"
        elif branch not in BRANCHES:
            raise DomainError(
                f"case {case.value} needs an explicit branch ('plus' or 'minus')"
            )
        lam = scale_factor(case, shifts[BRANCHES.index(branch)], R)
        return cls(
            xi=complex(xi),
            alpha=alpha,
            lambda_scale=lam,
            tau=tau,
            phase_convention=phase_convention,
        )


def coherent_closed_form(x, params: CoherentParams):
    """Closed-form radial coherent state at the params' xi (tau ignored).

    Evaluated with principal powers throughout; the prefactor square root
    is taken in log space, which coincides with the literal principal root
    for the parameter ranges exercised and reduces exactly to the n = 0
    eigenfunction at xi = 0.  x >= 0, scalar or ndarray; value 0 at x = 0.
    """
    return _closed_form(x, params.alpha, params.lambda_scale, params.xi)


def _log_weight(k: complex, lam: complex, xi: complex) -> complex:
    """Log of the weight N_0 (1-|xi|^2)^k, N_0 the n = 0 eigenfunction prefactor."""
    return (
        0.5 * (_LN2 + (k + 0.5) * principal_log(lam) - log_gamma(2.0 * k))
        + k * math.log1p(-abs(xi) ** 2)
    )


def _closed_form(x, alpha: AlphaLike, lam: complex, xi: complex, log_phase: complex = 0j):
    k = bargmann_index(alpha)
    two_k = 2.0 * k
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0):
        raise DomainError("coherent states are evaluated for x >= 0")
    c = _log_weight(k, lam, xi) + k * principal_log(lam) - two_k * principal_log(1.0 - xi)
    c += log_phase
    q = 0.5j * lam * (xi + 1.0) / (xi - 1.0)
    out = np.zeros_like(x_arr, dtype=complex)
    nz = x_arr > 0
    x_nz = x_arr[nz]
    log_x, x_sq = np.log(x_nz), x_nz * x_nz
    exponent = np.empty(x_nz.shape, dtype=complex)
    exponent.real = c.real + two_k.real * log_x + q.real * x_sq
    exponent.imag = c.imag + two_k.imag * log_x + q.imag * x_sq
    out[nz] = np.exp(exponent)
    if scalar:
        return complex(out[0])
    return out


def suggested_series_terms(params: CoherentParams, x_max: float) -> int:
    """Term count from the tail bound |term_n| ~ exp(beta sqrt(n) + n ln|xi|).

    beta = 2 x_max |Im sqrt(i Lambda)| is the sub-exponential growth rate of
    the Laguerre factor on the grid; the count is where the bound falls
    below 1e-10, clamped to [16, 600].
    """
    mod_xi = abs(params.xi)
    if mod_xi == 0.0:
        return _MIN_TERMS
    beta = 2.0 * x_max * abs(cmath.sqrt(1j * params.lambda_scale).imag)
    log_xi = math.log(mod_xi)
    log_tol = math.log(_TAIL_TARGET)
    disc = beta * beta + 4.0 * log_xi * log_tol
    t = (-beta - math.sqrt(disc)) / (2.0 * log_xi)
    return int(min(_MAX_TERMS, max(_MIN_TERMS, math.ceil(t * t) + 10)))


def coherent_series(x, params: CoherentParams, n_terms: Optional[int] = None):
    """Truncated Perelomov displacement series over the eigenfunctions.

    The term sqrt(Gamma(n+2k)/(n! Gamma(2k))) xi^n N_n F_n(Lambda x^2) has
    weight xi^n N_0: sigma = k - 1/2 makes N_n = N_0 sqrt(n! Gamma(2k) /
    Gamma(n+2k)), so the displacement coefficient and N_n cancel to N_0 for
    every n, and the sum is the Laguerre generating function (DLMF 18.12.13)
    times one constant.  Every F_n shares the factor r^(sigma+1/2) e^(-ir/2)
    at r = Lambda x^2, so one Laguerre pass streams L_n(i r) up to the last
    term, each row is added in times xi^n as it comes (no table of rows, no
    matrix product), and the sum is times that shared factor and N_0.  With
    ``n_terms`` None the tail bound picks the count for the given grid.
    """
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if n_terms is None:
        n_terms = suggested_series_terms(params, float(np.max(x_arr)))
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    alpha, lam = params.alpha, params.lambda_scale
    r = lam * x_arr**2
    total = np.zeros(x_arr.shape, dtype=complex)
    xi_pow = 1.0 + 0.0j
    for row in laguerre_rows(n_terms - 1, 2.0 * sigma_index(alpha), 1j * r):
        total += xi_pow * row
        xi_pow *= params.xi
    total *= radial_envelope(alpha, r)
    total *= cmath.exp(_log_weight(bargmann_index(alpha), lam, params.xi))
    if scalar:
        return complex(total[0])
    return total


def coherent_evolved(x, params: CoherentParams):
    """Time-evolved coherent state: xi -> xi e^(-i tau) plus a phase prefactor.

    At tau = 0 the 'corrected' convention reduces exactly to the static
    closed form.  The prefactor has constant modulus in x, so normalized
    densities agree between the two conventions.
    """
    k = bargmann_index(params.alpha)
    rotated = params.xi * cmath.exp(-1j * params.tau)
    if params.phase_convention is PhaseConvention.CORRECTED:
        log_phase = -1j * k * params.tau
    else:
        log_phase = -1j * k
    return _closed_form(x, params.alpha, params.lambda_scale, rotated, log_phase)


def _require_window(x_min: float, x_max: float) -> None:
    if not (0.0 < x_min < x_max < math.inf):
        raise DomainError(
            f"density grid must be finite with 0 < x_min < x_max, got [{x_min}, {x_max}]"
        )
    if not math.isfinite(x_max * x_max):  # x^2 is the variable of the exponent
        raise DomainError(f"density grid needs a finite x_max^2, got x_max = {x_max}")


def _normalized_density(x_arr: np.ndarray, params: CoherentParams, evolved: bool):
    """Amplitudes, normalized density, and the raw trapezoidal integral.

    The static state is the evolved one at tau = 0 in the corrected
    convention, so ``evolved`` False with any other tau or convention is
    refused rather than labelled with a state it did not build.
    """
    if not evolved and (params.tau != 0 or params.phase_convention is PhaseConvention.AS_PRINTED):
        raise DomainError(
            f"the static state has tau = 0 in the corrected convention; pass evolved=True "
            f"for tau = {params.tau} and phase convention {params.phase_convention.value!r}"
        )
    if x_arr.size < 2:
        raise DomainError(f"density grid needs at least 2 points, got {x_arr.size}")
    _require_window(float(x_arr[0]), float(x_arr[-1]))
    with np.errstate(all="ignore"):  # overflow shows as a non-finite integral
        values = coherent_evolved(x_arr, params) if evolved else coherent_closed_form(x_arr, params)
        dens = values.real * values.real + values.imag * values.imag
        integral = float(np.trapezoid(dens, x_arr))
    if not math.isfinite(integral) or integral < sys.float_info.min:  # subnormal
        raise NormalizationError(f"raw density integral {integral} cannot be normalized")
    return values, dens / integral, integral


def density_profile(x_grid, params: CoherentParams, evolved: bool = False) -> GridFunction:
    """Normalized |R|^2 on the grid; integrates to 1 by trapezoidal rule.

    Raises NormalizationError when the raw integral is non-finite or below
    sys.float_info.min, where it is subnormal and has lost precision, and
    DomainError for the static state (``evolved`` False) at tau != 0 or in
    the as-printed convention.
    """
    x_arr = np.asarray(x_grid, dtype=float)
    _, dens, _ = _normalized_density(x_arr, params, evolved)
    h = float(x_arr[1] - x_arr[0])
    return GridFunction(points=x_arr, values=dens, h=h, domain_kind=POSITIVE)


# figure-note instability: this (alpha, n) combination produces a density
# dominated by a sharp boundary peak; emitted with a warning, never silently
_UNSTABLE_ALPHA = Fraction(7, 2)


def _format_complex(z: complex) -> str:
    return f"{csv_field(z.real)}{'+' if z.imag >= 0 else '-'}{csv_field(abs(z.imag))}i"


_SAMPLE_KEYS = ("x", "re", "im", "density")
_CSV_ROW = ",".join([CSV_FLOAT] * len(_SAMPLE_KEYS)) + "\n"
# rows formatted per ``%`` call: bounds the Python floats alive at once
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ProfileData:
    """One emitted density profile: samples plus reproducibility metadata.

    ``meta`` holds natively typed values; the CSV writer renders them
    (floats at 9 significant digits, booleans lowercase, None empty).
    Both writers, ``to_csv`` and ``profiles_to_json``, format the samples
    from whole arrays with ``%``: the JSON writer one call per profile,
    the CSV writer one block of rows at a time.
    """

    x: np.ndarray
    values: np.ndarray       # complex amplitudes
    density: np.ndarray      # normalized |R|^2
    meta: dict = field(default_factory=dict)

    def _table(self) -> np.ndarray:
        """(points, 4) samples in ``_SAMPLE_KEYS`` order."""
        return np.column_stack([self.x, self.values.real, self.values.imag, self.density])

    def to_csv(self) -> str:
        table = self._table()
        parts = [csv_text(_SAMPLE_KEYS, (), self.meta)]
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            parts.append((_CSV_ROW * len(block)) % tuple(block.ravel().tolist()))
        return "".join(parts)

    def to_json_obj(self) -> dict:
        obj = dict(self.meta)
        obj["samples"] = [
            {"x": float(xv), "re": float(val.real), "im": float(val.imag), "density": float(dv)}
            for xv, val, dv in zip(self.x, self.values, self.density)
        ]
        return obj


# stands where each profile's samples go in the json.dumps skeleton; no
# meta value contains a NUL, so its JSON text occurs nowhere else
_SAMPLES_MARKER = "\0samples\0"


def _samples_template(rows: int) -> str:
    """A samples array of ``rows`` records laid out as json.dumps(..., indent=2)
    lays it out in the document (three levels deep), as a ``%`` template with
    one slot per value, row by row in ``_SAMPLE_KEYS`` order.  A slot takes a
    finite float (str() writes the digits json.dumps writes) or a JSON text
    such as "NaN", so one call formats every number of the array in C."""
    if not rows:
        return "[]"
    pad = "\n" + "  " * 3
    members = ",".join(f"{pad}    {json.dumps(key)}: %s" for key in _SAMPLE_KEYS)
    item = f"{pad}  {{{members}{pad}  }}"
    return "[" + ",".join([item] * rows) + pad + "]"


def profiles_to_json(profiles: Sequence[ProfileData]) -> str:
    """The CLI's JSON document, byte for byte
    ``json.dumps({"profiles": [p.to_json_obj() for p in profiles]}, indent=2) + "\\n"``.

    json.dumps lays out the document around a marker per samples array, and
    each array is filled in one ``%`` call on its ``_samples_template``.
    """
    require_memory(sum(len(p.x) for p in profiles), _JSON_BYTES_PER_POINT)
    skeleton = json.dumps(
        {"profiles": [{**p.meta, "samples": _SAMPLES_MARKER} for p in profiles]}, indent=2
    )
    head, *tails = skeleton.split(json.dumps(_SAMPLES_MARKER))
    parts = [head]
    for profile, tail in zip(profiles, tails):
        table = profile._table()
        samples = table.ravel().tolist()
        if not np.isfinite(table).all():  # str() writes nan/inf, json.dumps NaN/Infinity
            samples = [json.dumps(v) for v in samples]
        parts += [_samples_template(len(table)) % tuple(samples), tail]
    return "".join(parts) + "\n"


def build_profile(
    case: CurvatureCase,
    alpha: AlphaLike,
    n: int,
    xi: complex,
    R: float = 1.0,
    branch: Optional[str] = None,
    tau: float = 0.0,
    phase_convention: PhaseConvention = PhaseConvention.CORRECTED,
    x_min: float = 0.01,
    x_max: float = 2.0,
    points: int = 400,
    evolved: bool = False,
) -> ProfileData:
    """Evaluate one (n, tau) profile with full metadata for the CLI, which
    always builds the evolved state; ``evolved`` False gives the static one,
    which exists only at tau = 0 in the corrected convention (else DomainError)."""
    if points < 9:
        raise DomainError("need at least 9 grid points")
    params = CoherentParams.for_case(
        case, alpha, n, xi, R=R, branch=branch, tau=tau, phase_convention=phase_convention
    )
    require_memory(points, _PROFILE_BYTES_PER_POINT)
    _require_window(x_min, x_max)  # before linspace, which turns infinities into nan
    x_arr = np.linspace(x_min, x_max, points)
    values, dens, integral = _normalized_density(x_arr, params, evolved)
    warning = None
    if Fraction(alpha) == _UNSTABLE_ALPHA and n == 0:
        warning = "density numerically unstable (boundary-dominated peak) for alpha=7/2, n=0"
    meta = {
        "case": case.value,
        "alpha": str(Fraction(alpha)),
        "n": n,
        "xi": _format_complex(complex(xi)),
        "tau": float(tau),
        "phase_convention": phase_convention.value,
        "branch": branch,
        "norm_integral": integral,
        "x_map_by_analogy": case is not CurvatureCase.GAUSSIAN,
        "warning": warning,
    }
    return ProfileData(x=x_arr, values=values, density=dens, meta=meta)
