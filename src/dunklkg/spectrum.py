"""Closed-form complex energy spectra for the three curvature cases.

Writing s = sqrt(2 alpha - 1/4) and q = 2 + 4n + 2 i s, the spectra are

* gaussian:  E_n^2 = m^2 - 8 R (2n + 1 + i s)^2           (single branch)
* rational:  E^2   = m^2 - 2 R  [q^2 + 1 +- sqrt((q^2+1)^2 - 1)]
* sinc:      E^2   = m^2 - R/6 [q^2 + 1 +- sqrt((q^2+1)^2 - 1)]

Branch labelling.  The +- labels are pinned empirically by the published
reference tables (R = m = 1, alpha in {1/2, 3/2, 7/2}, n = 0..5):

* For the sinc case the inner square root is the principal one; the labels
  then follow the formula literally, which makes the roles of the two
  branches (stable vs decaying) swap at the n = 0, alpha in {3/2, 7/2}
  entries, exactly as the published table prints them.
* For the rational case the published table instead keeps the fast-decaying
  branch on E_+ for every entry.  That corresponds to taking the inner root
  on the branch asymptotic to q^2 + 1, i.e. (q^2+1) * sqrt(1 - (q^2+1)^-2)
  with a principal square root.  For Re(q^2 + 1) > 0 the two conventions
  coincide; they differ only where q^2 + 1 crosses into the left half-plane
  (n = 0, alpha >= 3/2 at R = m = 1).

Reported energies E are principal roots of E^2, so Re(E) >= 0.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Iterable, Optional, Sequence, Tuple, Union

from .complexfn import principal_sqrt
from .errors import DomainError
from .model import (
    AlphaLike,
    CurvatureCase,
    bargmann_index,
    half_odd_alpha,
    scale_factor,
)

__all__ = [
    "EnergyPair",
    "SpectrumTable",
    "energy_pair",
    "energy_shifts",
    "relation_rhs",
    "self_consistency_residual",
    "spectrum_table",
    "table_to_csv",
    "table_to_json",
]


BRANCHES = ("plus", "minus")  # spectral branch names, in the order every tuple of them takes


@dataclass(frozen=True)
class EnergyPair:
    """Squared complex energies for one (case, n); E is the principal root of E^2.

    The gaussian case has a single branch: it is stored in the ``plus``
    slot and the ``minus`` slot is None.
    """

    n: int
    e2_plus: complex
    e2_minus: Optional[complex] = None

    @property
    def e_plus(self) -> complex:
        return principal_sqrt(self.e2_plus)

    @property
    def e_minus(self) -> Optional[complex]:
        return None if self.e2_minus is None else principal_sqrt(self.e2_minus)


def _inner_s(alpha: AlphaLike) -> float:
    return (2.0 * float(alpha) - 0.25) ** 0.5


def _gaussian_shifts(n: int, alpha: AlphaLike, R: float) -> Tuple[complex]:
    """Gaussian-profile shift E_n^2 - m^2 = -8R (2n + 1 + i sqrt(2a - 1/4))^2."""
    s = _inner_s(alpha)
    return (-8.0 * R * (2 * n + 1 + 1j * s) ** 2,)


def _bracket(n: int, alpha: AlphaLike) -> complex:
    s = _inner_s(alpha)
    q = 2.0 + 4.0 * n + 2j * s
    return q * q + 1.0


def _rational_shifts(n: int, alpha: AlphaLike, R: float) -> Tuple[complex, complex]:
    """Rational-profile shifts; E_+ is the fast-decaying branch everywhere.

    The inner root is taken asymptotic to the bracket (see module docstring)
    so the labels match the published table entrywise.
    """
    b = _bracket(n, alpha)
    root = b * principal_sqrt(1.0 - 1.0 / (b * b))
    return -2.0 * R * (b + root), -2.0 * R * (b - root)


def _sinc_shifts(n: int, alpha: AlphaLike, R: float) -> Tuple[complex, complex]:
    """Sinc-profile shifts; labels follow the formula with a principal root."""
    b = _bracket(n, alpha)
    root = principal_sqrt(b * b - 1.0)
    return -R / 6.0 * (b + root), -R / 6.0 * (b - root)


_CASE_DISPATCH = {
    CurvatureCase.GAUSSIAN: _gaussian_shifts,
    CurvatureCase.RATIONAL: _rational_shifts,
    CurvatureCase.SINC: _sinc_shifts,
}


def energy_shifts(case: CurvatureCase, n: int, alpha: AlphaLike, R: float) -> Tuple[complex, ...]:
    """E^2 - m^2 on each branch, 'plus' first; the one check of n, alpha and R.

    The shift is free of m, and it is all the coherent states read.  Raises
    OverflowError when a shift is not finite.
    """
    if n < 0:
        raise DomainError("quantum number n must be non-negative")
    if not 0.0 <= R < math.inf:  # also rejects NaN
        raise DomainError(f"need finite R >= 0, got R={R}")
    shifts = _CASE_DISPATCH[case](n, half_odd_alpha(alpha), R)
    if not all(map(cmath.isfinite, shifts)):
        raise OverflowError(f"E^2 is not finite for n={n} at R={R}: E^2 - m^2 overflows")
    return shifts


def energy_pair(case: CurvatureCase, n: int, alpha: AlphaLike, R: float, m: float) -> EnergyPair:
    """E^2 = m^2 + (E^2 - m^2) on each branch; the one check of m.  Raises
    OverflowError when E^2 on some branch is not finite."""
    if not 0.0 < m < math.inf:  # also rejects NaN
        raise DomainError(f"need finite m > 0, got m={m}")
    e2s = tuple(m * m + u for u in energy_shifts(case, n, alpha, R))
    if not all(map(cmath.isfinite, e2s)):
        raise OverflowError(f"E^2 is not finite for n={n} at R={R}, m={m}")
    return EnergyPair(n, *e2s)


def self_consistency_residual(
    case: CurvatureCase,
    n: int,
    alpha: AlphaLike,
    R: float,
) -> float:
    """Residual of the su(1,1) eigenvalue relation with the closed-form shift substituted back.

    The relation reads k + n = -i * num / (4 * scale) with the case-specific
    numerator (u, u + 2R, or (6u + R)/6 for the shift u = E^2 - m^2) and
    scale factor.  The scale factor is defined only through its square, so
    both determinations of the root are tried and the smaller residual
    returned; measured behaviour at R = 1 is that the relation is exact (to
    round-off) for every spectral branch once the root sign is resolved.
    The minimum over the available branches is returned.
    """
    k = bargmann_index(alpha)
    return min(
        float(min(abs(k + n - rhs), abs(k + n + rhs)))
        for rhs in (relation_rhs(case, u, R) for u in energy_shifts(case, n, alpha, R))
    )


def relation_rhs(case: CurvatureCase, shift: complex, R: float) -> complex:
    """Right-hand side -i num / (4 scale) of the eigenvalue relation k + n = rhs.

    ``num`` is the case numerator of the shift u = E^2 - m^2 and ``scale``
    the principal case scale factor (see ``self_consistency_residual``);
    raises DegenerateError at u = 0, where the scale factor vanishes.
    """
    if case is CurvatureCase.GAUSSIAN:
        num = shift
    elif case is CurvatureCase.RATIONAL:
        num = shift + 2.0 * R
    else:
        num = (6.0 * shift + R) / 6.0
    return -1j * num / (4.0 * scale_factor(case, shift, R))


@dataclass(frozen=True)
class SpectrumTable:
    case: CurvatureCase
    R: float
    m: float
    rows: Tuple[Tuple[Fraction, int, EnergyPair], ...]


def spectrum_table(
    case: CurvatureCase,
    alphas: Sequence[AlphaLike],
    n_values: Union[int, Iterable[int]],
    R: float,
    m: float,
) -> SpectrumTable:
    """Rows for the requested (alpha, n), sorted by (alpha, n), duplicates dropped.

    ``n_values`` lists the quantum numbers; an int n_max stands for 0..n_max.
    """
    if isinstance(n_values, Integral):
        if n_values < 0:
            raise DomainError("n_max must be >= 0")
        n_values = range(n_values + 1)
    ns = sorted(set(n_values))
    rows = tuple(
        (a, n, energy_pair(case, n, a, R, m))
        for a in sorted({Fraction(a) for a in alphas})
        for n in ns
    )
    return SpectrumTable(case=case, R=R, m=m, rows=rows)


# --- text writers ------------------------------------------------------------
# The one CSV number rule; JSON is what json.dumps(..., indent=2) writes.

CSV_FLOAT = "%.9g"  # every CSV number: 9 significant digits


def csv_field(value) -> str:
    """One CSV field: floats at 9 significant digits, booleans lowercase, None empty."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return CSV_FLOAT % value
    if value is None:
        return ""
    return str(value)


def csv_text(keys: Sequence[str], rows: Iterable[Iterable], meta: Optional[dict] = None) -> str:
    """A CSV block: the optional '# key=value ...' line, the header, one line per row."""
    lines = [",".join(keys)]
    if meta is not None:
        lines.insert(0, "# " + " ".join(f"{k}={csv_field(v)}" for k, v in meta.items()))
    lines += [",".join(map(csv_field, row)) for row in rows]
    return "\n".join(lines) + "\n"


_TABLE_KEYS = ("case", "alpha", "n", "re_e_plus", "im_e_plus", "re_e_minus", "im_e_minus")


def _table_values(table: SpectrumTable):
    """One tuple per row, in ``_TABLE_KEYS`` order; None where a branch is absent."""
    for alpha, n, pair in table.rows:
        ep, em = pair.e_plus, pair.e_minus
        yield (
            table.case.value,
            str(alpha),
            n,
            ep.real,
            ep.imag,
            None if em is None else em.real,
            None if em is None else em.imag,
        )


def table_to_csv(table: SpectrumTable) -> str:
    """CSV rows (9 significant digits); empty fields where a branch is absent."""
    return csv_text(_TABLE_KEYS, _table_values(table))


def table_to_json(table: SpectrumTable) -> str:
    """JSON array, one object per row; floats keep full round-trip precision,
    None is null and a non-finite energy NaN or Infinity."""
    records = [dict(zip(_TABLE_KEYS, row)) for row in _table_values(table)]
    return json.dumps(records, indent=2) + "\n"
