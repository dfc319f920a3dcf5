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

with N_0 the n = 0 eigenfunction prefactor (``log_normalization`` at n = 0)
and the log phase 0 (static) or that of the evolved state.  Re E and Im E
are built from real arrays and one complex exp gives each sample, so no
complex product or complex abs touches the samples.  The real log x still
goes through numpy's SIMD kernels, whose AVX-512 log differs from the
baseline one in the last bit on some x: the goldens and CSV at 9 digits
hold across the kernels, larger JSON exports need not.

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
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .complexfn import laguerre_rows, principal_log
from .errors import DomainError, NormalizationError
from .eigenfunctions import log_normalization, radial_envelope
from .gridops import require_memory
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
    "build_profiles",
    "coherent_closed_form",
    "coherent_evolved",
    "coherent_series",
    "profiles_to_csv",
    "profiles_to_json",
    "suggested_series_terms",
]

# Series truncation: cut when the term bound drops below this relative level.
_TAIL_TARGET = 1e-10
_MAX_TERMS = 600
_MIN_TERMS = 16

# peak bytes per point of build_profile (48 measured with tracemalloc at
# 100k and 400k points)
_PROFILE_BYTES_PER_POINT = 96
# peak bytes per point of build_profiles over all its profiles, which it
# holds together: 32 held per point (x, complex values, density) plus the
# 16 of work of the one being built, spread over the count (40.1 measured
# with tracemalloc for two profiles, 36.0 for four); one profile is
# bounded by build_profile's own guard
_PROFILES_BYTES_PER_POINT = 64


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


def _log_weight(alpha: AlphaLike, lam: complex, xi: complex) -> complex:
    """Log of the weight N_0 (1-|xi|^2)^k, N_0 the n = 0 eigenfunction prefactor."""
    return log_normalization(0, alpha, lam) + bargmann_index(alpha) * math.log1p(-abs(xi) ** 2)


def _closed_form(x, alpha: AlphaLike, lam: complex, xi: complex, log_phase: complex = 0j):
    """exp E(x) of the module docstring in one complex array: Re E and Im E
    are built in its two planes through ``out=``, then exp in place.  log 0
    gives non-finite values at x = 0, which the limit 0 then replaces."""
    k = bargmann_index(alpha)
    two_k = 2.0 * k
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(x_arr >= 0):  # also rejects a NaN x
        raise DomainError("coherent states are evaluated for x >= 0")
    c = _log_weight(alpha, lam, xi) + k * principal_log(lam) - two_k * principal_log(1.0 - xi)
    c += log_phase
    q = 0.5j * lam * (xi + 1.0) / (xi - 1.0)
    out = np.empty(x_arr.shape, dtype=complex)
    re, im = out.real, out.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        log_x, x_sq = np.log(x_arr), x_arr * x_arr
        np.add(c.real, np.multiply(two_k.real, log_x, out=re), out=re)
        np.add(c.imag, np.multiply(two_k.imag, log_x, out=im), out=im)
        re += np.multiply(q.real, x_sq, out=log_x)
        im += np.multiply(q.imag, x_sq, out=x_sq)
        np.exp(out, out=out)
    out[x_arr == 0] = 0
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
    total *= cmath.exp(_log_weight(alpha, lam, params.xi))
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


# figure-note instability: this (alpha, n) combination produces a density
# dominated by a sharp boundary peak; emitted with a warning, never silently
_UNSTABLE_ALPHA = Fraction(7, 2)


def _format_complex(z: complex) -> str:
    return f"{csv_field(z.real)}{'+' if z.imag >= 0 else '-'}{csv_field(abs(z.imag))}i"


_SAMPLE_KEYS = ("x", "re", "im", "density")
_CSV_ROW = ",".join([CSV_FLOAT] * len(_SAMPLE_KEYS)) + "\n"
# rows formatted per ``%`` call by both writers: bounds the Python floats
# and the text alive at once, whatever the number of points
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ProfileData:
    """One emitted density profile: samples plus reproducibility metadata.

    ``meta`` holds natively typed values; the CSV writer renders them
    (floats at 9 significant digits, booleans lowercase, None empty).
    Both writers, ``profiles_to_csv`` and ``profiles_to_json``, yield their
    text in blocks of at most ``_BLOCK_ROWS`` rows, each formatted in one
    ``%`` call, so their memory does not grow with the number of points.
    """

    x: np.ndarray
    values: np.ndarray       # complex amplitudes
    density: np.ndarray      # normalized |R|^2
    meta: dict = field(default_factory=dict)

    def _blocks(self) -> Iterator[np.ndarray]:
        """(rows, 4) sample blocks in ``_SAMPLE_KEYS`` order, ``_BLOCK_ROWS`` rows
        but the last."""
        columns = (self.x, self.values.real, self.values.imag, self.density)
        for start in range(0, len(self.x), _BLOCK_ROWS):
            yield np.column_stack([column[start:start + _BLOCK_ROWS] for column in columns])

    def to_csv(self) -> str:
        return "".join(profiles_to_csv([self]))

    def to_json_obj(self) -> dict:
        obj = dict(self.meta)
        obj["samples"] = [
            {"x": float(xv), "re": float(val.real), "im": float(val.imag), "density": float(dv)}
            for xv, val, dv in zip(self.x, self.values, self.density)
        ]
        return obj


def profiles_to_csv(profiles: Sequence[ProfileData]) -> Iterator[str]:
    """The CLI's CSV text, ``"\\n".join(p.to_csv() for p in profiles)``, in
    blocks: each profile's header, then its rows one block at a time."""
    for i, profile in enumerate(profiles):
        if i:
            yield "\n"
        yield csv_text(_SAMPLE_KEYS, (), profile.meta)
        for block in profile._blocks():
            yield (_CSV_ROW * len(block)) % tuple(block.ravel().tolist())


# stands where each profile's samples go in the json.dumps skeleton; no
# meta value contains a NUL, so its JSON text occurs nowhere else
_SAMPLES_MARKER = "\0samples\0"


def profiles_to_json(profiles: Sequence[ProfileData]) -> Iterator[str]:
    """The CLI's JSON document in blocks, byte for byte
    ``json.dumps({"profiles": [p.to_json_obj() for p in profiles]}, indent=2) + "\\n"``.

    json.dumps lays out the document around a marker per samples array.
    Each array is "[", its blocks of records, and its closing line.  A
    record is laid out as json.dumps lays it out three levels deep, with one
    ``%`` slot per value and a leading comma, and a block is one ``%`` call
    on a slice of a template of ``_BLOCK_ROWS`` records (the array's first
    without its comma).  A slot takes a finite float (str() writes the
    digits json.dumps writes) or a JSON text such as "NaN".
    """
    skeleton = json.dumps(
        {"profiles": [{**p.meta, "samples": _SAMPLES_MARKER} for p in profiles]}, indent=2
    )
    head, *tails = skeleton.split(json.dumps(_SAMPLES_MARKER))
    yield head
    pad = "\n" + "  " * 3
    members = ",".join(f"{pad}    {json.dumps(key)}: %s" for key in _SAMPLE_KEYS)
    record = f",{pad}  {{{members}{pad}  }}"
    template = record * _BLOCK_ROWS
    for profile, tail in zip(profiles, tails):
        yield "["
        for i, block in enumerate(profile._blocks()):
            samples = block.ravel().tolist()
            if not np.isfinite(block).all():  # str() writes nan/inf, json.dumps NaN/Infinity
                samples = [json.dumps(v) for v in samples]
            yield template[i == 0:len(block) * len(record)] % tuple(samples)
        yield (pad + "]" if len(profile.x) else "]") + tail
    yield "\n"


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
    """One (n, tau) profile on ``points`` samples of [x_min, x_max], its density
    normalized to 1 by the trapezoidal rule, with full metadata.

    The CLI builds the evolved state; ``evolved`` False gives the static one,
    which exists only at tau = 0 in the corrected convention (else
    DomainError).  A raw integral that is non-finite or below
    sys.float_info.min (subnormal, so it has lost precision) raises
    NormalizationError.
    """
    if points < 9:
        raise DomainError("need at least 9 grid points")
    params = CoherentParams.for_case(
        case, alpha, n, xi, R=R, branch=branch, tau=tau, phase_convention=phase_convention
    )
    require_memory(points, _PROFILE_BYTES_PER_POINT)
    # the window is checked before linspace, which turns infinities into nan
    if not (0.0 < x_min < x_max < math.inf):
        raise DomainError(
            f"density grid must be finite with 0 < x_min < x_max, got [{x_min}, {x_max}]"
        )
    if not math.isfinite(x_max * x_max):  # x^2 is the variable of the exponent
        raise DomainError(f"density grid needs a finite x_max^2, got x_max = {x_max}")
    x_arr = np.linspace(x_min, x_max, points)
    if not evolved and (tau != 0 or phase_convention is PhaseConvention.AS_PRINTED):
        raise DomainError(
            f"the static state has tau = 0 in the corrected convention; pass evolved=True "
            f"for tau = {tau} and phase convention {phase_convention.value!r}"
        )
    with np.errstate(all="ignore"):  # overflow shows as a non-finite integral
        values = coherent_evolved(x_arr, params) if evolved else coherent_closed_form(x_arr, params)
        dens = values.real * values.real + values.imag * values.imag
        integral = float(np.trapezoid(dens, x_arr))
    if not math.isfinite(integral) or integral < sys.float_info.min:  # subnormal
        raise NormalizationError(f"raw density integral {integral} cannot be normalized")
    dens /= integral
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


def build_profiles(
    case: CurvatureCase,
    alpha: AlphaLike,
    ns: Sequence[int],
    xi: complex,
    taus: Sequence[float],
    points: int = 400,
    **options,
) -> List[ProfileData]:
    """``build_profile`` at every (n, tau), n-major, all held together (the CLI
    writes none before the last is built, so a failure writes nothing).

    Refuses, before the first is built, profiles that together would need
    more than physical memory."""
    require_memory(len(ns) * len(taus) * points, _PROFILES_BYTES_PER_POINT)
    return [
        build_profile(case, alpha, n, xi, tau=tau, points=points, **options)
        for n in ns
        for tau in taus
    ]
