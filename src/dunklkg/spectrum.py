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

import json
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
    scale_factor,
)

__all__ = [
    "EnergyPair",
    "SpectrumTable",
    "energy_pair",
    "relation_rhs",
    "self_consistency_residual",
    "spectrum_table",
    "table_to_csv",
    "table_to_json",
]


@dataclass(frozen=True)
class EnergyPair:
    """Complex energies (and their squares) for one (case, n).

    The gaussian case has a single branch: it is stored in the ``plus``
    slots and the ``minus`` slots are None.
    """

    n: int
    e2_plus: complex
    e_plus: complex
    e2_minus: Optional[complex] = None
    e_minus: Optional[complex] = None

    @property
    def branches(self) -> Tuple[Tuple[str, complex], ...]:
        out = [("plus", self.e2_plus)]
        if self.e2_minus is not None:
            out.append(("minus", self.e2_minus))
        return tuple(out)


def _inner_s(alpha: AlphaLike) -> float:
    a = float(alpha)
    if a < 0.125:
        raise DomainError("alpha must be >= 1/8 so that sqrt(2 alpha - 1/4) is real")
    return (2.0 * a - 0.25) ** 0.5


def _gaussian_pair(n: int, alpha: AlphaLike, R: float, m: float) -> EnergyPair:
    """Gaussian-profile spectrum E_n^2 = m^2 - 8R (2n + 1 + i sqrt(2a - 1/4))^2."""
    s = _inner_s(alpha)
    e2 = m * m - 8.0 * R * (2 * n + 1 + 1j * s) ** 2
    return EnergyPair(n=n, e2_plus=e2, e_plus=principal_sqrt(e2))


def _bracket(n: int, alpha: AlphaLike) -> complex:
    s = _inner_s(alpha)
    q = 2.0 + 4.0 * n + 2j * s
    return q * q + 1.0


def _rational_pair(n: int, alpha: AlphaLike, R: float, m: float) -> EnergyPair:
    """Rational-profile spectrum; E_+ is the fast-decaying branch everywhere.

    The inner root is taken asymptotic to the bracket (see module docstring)
    so the labels match the published table entrywise.
    """
    b = _bracket(n, alpha)
    root = b * principal_sqrt(1.0 - 1.0 / (b * b))
    e2p = m * m - 2.0 * R * (b + root)
    e2m = m * m - 2.0 * R * (b - root)
    return EnergyPair(
        n=n,
        e2_plus=e2p,
        e_plus=principal_sqrt(e2p),
        e2_minus=e2m,
        e_minus=principal_sqrt(e2m),
    )


def _sinc_pair(n: int, alpha: AlphaLike, R: float, m: float) -> EnergyPair:
    """Sinc-profile spectrum; labels follow the formula with a principal root."""
    b = _bracket(n, alpha)
    root = principal_sqrt(b * b - 1.0)
    e2p = m * m - R / 6.0 * (b + root)
    e2m = m * m - R / 6.0 * (b - root)
    return EnergyPair(
        n=n,
        e2_plus=e2p,
        e_plus=principal_sqrt(e2p),
        e2_minus=e2m,
        e_minus=principal_sqrt(e2m),
    )


_CASE_DISPATCH = {
    CurvatureCase.GAUSSIAN: _gaussian_pair,
    CurvatureCase.RATIONAL: _rational_pair,
    CurvatureCase.SINC: _sinc_pair,
}


def energy_pair(case: CurvatureCase, n: int, alpha: AlphaLike, R: float, m: float) -> EnergyPair:
    if n < 0:
        raise DomainError("quantum number n must be non-negative")
    return _CASE_DISPATCH[case](n, alpha, R, m)


def self_consistency_residual(
    case: CurvatureCase,
    n: int,
    alpha: AlphaLike,
    R: float,
    m: float,
    branch: Optional[str] = None,
) -> float:
    """Residual of the su(1,1) eigenvalue relation with closed-form E^2 substituted back.

    The relation reads k + n = -i * num / (4 * scale) with the case-specific
    numerator (E^2 - m^2, E^2 - m^2 + 2R, or (6(E^2 - m^2) + R)/6) and scale
    factor.  The scale factor is defined only through its square, so both
    determinations of the root are tried and the smaller residual returned;
    measured behaviour at R = m = 1 is that the relation is exact (to
    round-off) for every spectral branch once the root sign is resolved.
    With ``branch`` None the minimum over the available branches is returned.
    """
    pair = energy_pair(case, n, alpha, R, m)
    if branch is None:
        return min(
            _relation_residual(case, n, e2, alpha, R, m) for _, e2 in pair.branches
        )
    chosen = dict(pair.branches).get(branch)
    if chosen is None:
        raise DomainError(f"branch {branch!r} not available for case {case.value}")
    return _relation_residual(case, n, chosen, alpha, R, m)


def _relation_residual(
    case: CurvatureCase, n: int, e_squared: complex, alpha: AlphaLike, R: float, m: float
) -> float:
    rhs = relation_rhs(case, e_squared, R, m)
    k = bargmann_index(alpha)
    return float(min(abs(k + n - rhs), abs(k + n + rhs)))


def relation_rhs(case: CurvatureCase, e_squared: complex, R: float, m: float) -> complex:
    """Right-hand side -i num / (4 scale) of the eigenvalue relation k + n = rhs.

    ``num`` is the case numerator and ``scale`` the principal case scale
    factor (see ``self_consistency_residual``); raises DegenerateError at
    E^2 = m^2, where the scale factor vanishes.
    """
    u = complex(e_squared) - m * m
    if case is CurvatureCase.GAUSSIAN:
        num = u
    elif case is CurvatureCase.RATIONAL:
        num = u + 2.0 * R
    else:
        num = (6.0 * u + R) / 6.0
    return -1j * num / (4.0 * scale_factor(case, e_squared, R, m))


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
# The one CSV number rule, and the layout of json.dumps(..., indent=2) as a
# ``%`` template with one %s slot per value; both are shared with the
# profile writers in ``coherent`` and the CLI.  A slot takes a finite float
# or an int (str() writes the digits json.dumps writes) or a JSON text such
# as "null", and filling a whole document in one call formats every number
# in C.

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


def csv_comment(meta: dict) -> str:
    """The '# key=value ...' line that heads a CSV block."""
    return "# " + " ".join(f"{key}={csv_field(value)}" for key, value in meta.items())


def json_array(items: Sequence[str], depth: int) -> str:
    """Template of an array nested ``depth`` levels deep, from its items' templates."""
    if not items:
        return "[]"
    sep = "\n" + "  " * (depth + 1)
    return f"[{sep}{(',' + sep).join(items)}\n{'  ' * depth}]"


def json_object(members: Sequence[Tuple[str, str]], depth: int) -> str:
    """Template of an object nested ``depth`` levels deep, from (key, value template) pairs."""
    if not members:
        return "{}"
    sep = "\n" + "  " * (depth + 1)
    body = ("," + sep).join(
        f"{json.dumps(key).replace('%', '%%')}: {item}" for key, item in members
    )
    return f"{{{sep}{body}\n{'  ' * depth}}}"


def json_records(keys: Sequence[str], rows: int, depth: int = 0) -> str:
    """Template of an array of ``rows`` objects that share ``keys``; its slots
    take the member values row by row."""
    item = json_object([(key, "%s") for key in keys], depth + 1)
    return json_array([item] * rows, depth)


_TABLE_KEYS = ("case", "alpha", "n", "re_e_plus", "im_e_plus", "re_e_minus", "im_e_minus")


def _table_values(table: SpectrumTable):
    """One tuple per row, in ``_TABLE_KEYS`` order; None where a branch is absent."""
    for alpha, n, pair in table.rows:
        em = pair.e_minus
        yield (
            table.case.value,
            str(alpha),
            n,
            pair.e_plus.real,
            pair.e_plus.imag,
            None if em is None else em.real,
            None if em is None else em.imag,
        )


def table_to_csv(table: SpectrumTable) -> str:
    """CSV rows (9 significant digits); empty fields where a branch is absent."""
    lines = [",".join(_TABLE_KEYS)]
    lines += [",".join(map(csv_field, row)) for row in _table_values(table)]
    return "\n".join(lines) + "\n"


def table_to_json(table: SpectrumTable) -> str:
    """JSON array, one object per row; floats keep full round-trip precision.

    Byte for byte ``json.dumps(rows, indent=2) + "\\n"``: one json.dumps
    call renders every value (None as null, a non-finite energy as NaN or
    Infinity) and one template lays out the array.
    """
    flat = [value for row in _table_values(table) for value in row]
    # the only strings are case names and 'p/q' fractions, so no value's
    # JSON text contains the list separator ', '
    tokens = json.dumps(flat)[1:-1].split(", ") if flat else []
    return (json_records(_TABLE_KEYS, len(table.rows)) + "\n") % tuple(tokens)
