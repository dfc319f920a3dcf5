"""Published 3-decimal reference values for the resonance tables (R = 1, m = 1).

These are transcribed regression data, not recomputed: the ``table``
command and the acceptance suite diff freshly computed spectra against
them.  The comparison tolerance is 1e-2 absolute per component, though
the source prints 3 decimals: the rational-case alpha=1/2, n=0 minus entry
computes to 0.98315+0.06754i against the printed 0.983+0.068i, and the
worst deviation over both tables is 4.98e-4.

Keys are (alpha numerator over 2, n); values are (E_plus, E_minus).  An
entry's deviation and the table's ``max_deviation`` are each the worst of
their samples (``worst``, as every ``verify`` record), so a NaN fails them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .errors import DomainError
from .model import CurvatureCase
from .spectrum import energy_pair

__all__ = ["REFERENCE_M", "REFERENCE_R", "TABLES", "TableComparison", "compare_reference"]

REFERENCE_R = 1.0
REFERENCE_M = 1.0

_TABLE1 = {
    (1, 0): (3.297 - 4.223j, 0.983 + 0.068j),
    (1, 1): (3.432 - 12.114j, 0.989 + 0.007j),
    (1, 2): (3.452 - 20.072j, 0.995 + 0.002j),
    (1, 3): (3.458 - 28.053j, 0.998 + 0.001j),
    (1, 4): (3.460 - 36.041j, 0.999 + 0.0003j),
    (1, 5): (3.461 - 44.034j, 0.999 + 0.0002j),
    (3, 0): (6.468 - 4.107j, 1.014 + 0.031j),
    (3, 1): (6.582 - 12.096j, 0.994 + 0.009j),
    (3, 2): (6.611 - 20.067j, 0.996 + 0.003j),
    (3, 3): (6.621 - 28.051j, 0.998 + 0.001j),
    (3, 4): (6.626 - 36.040j, 0.999 + 0.001j),
    (3, 5): (6.628 - 44.033j, 0.999 + 0.000j),
    (7, 0): (10.266 - 4.050j, 1.012 + 0.011j),
    (7, 1): (10.331 - 12.072j, 0.999 + 0.008j),
    (7, 2): (10.362 - 20.059j, 0.998 + 0.003j),
    (7, 3): (10.375 - 28.047j, 0.998 + 0.001j),
    (7, 4): (10.381 - 36.038j, 0.999 + 0.001j),
    (7, 5): (10.385 - 44.032j, 0.999 + 0.000j),
}

_TABLE2 = {
    (1, 0): (1.158 - 1.002j, 0.998 + 0.006j),
    (1, 1): (1.027 - 3.374j, 0.999 + 0.001j),
    (1, 2): (1.010 - 5.717j, 1.000 + 0.0001j),
    (1, 3): (1.005 - 8.042j, 1.000 + 0.00005j),
    (1, 4): (1.003 - 10.360j, 1.000 + 0.00002j),
    (1, 5): (1.002 - 12.676j, 1.000 + 0.00001j),
    (3, 0): (1.001 + 0.003j, 2.043 - 1.084j),
    (3, 1): (1.957 - 3.390j, 1.000 + 0.001j),
    (3, 2): (1.932 - 5.721j, 1.000 + 0.0002j),
    (3, 3): (1.924 - 8.044j, 1.000 + 0.00009j),
    (3, 4): (1.921 - 10.361j, 1.000 + 0.00004j),
    (3, 5): (1.919 - 12.676j, 1.000 + 0.00002j),
    (7, 0): (1.001 + 0.001j, 3.096 - 1.119j),
    (7, 1): (3.048 - 3.410j, 1.000 + 0.001j),
    (7, 2): (3.024 - 5.728j, 1.000 + 0.0003j),
    (7, 3): (3.014 - 8.047j, 1.000 + 0.00012j),
    (7, 4): (3.009 - 10.363j, 1.000 + 0.00006j),
    (7, 5): (3.006 - 12.677j, 1.000 + 0.00004j),
}

# table id -> (curvature case, reference entries)
TABLES: Dict[str, Tuple[CurvatureCase, Dict[Tuple[int, int], Tuple[complex, complex]]]] = {
    "table1": (CurvatureCase.RATIONAL, _TABLE1),
    "table2": (CurvatureCase.SINC, _TABLE2),
}


@dataclass(frozen=True)
class TableComparison:
    table: str
    case: CurvatureCase
    tolerance: float
    max_deviation: float
    passed: bool
    # one record per (alpha, n, branch): computed and reference values + deviation
    entries: Tuple[dict, ...]


def worst(values: Iterable[float]) -> float:
    """The largest of ``values``, 0.0 for none, and NaN as soon as one is NaN
    (``max`` keeps its running value against a NaN, and so would pass it)."""
    out = 0.0
    for value in values:
        if value != value:
            return math.nan
        if value > out:
            out = value
    return out


def compare_reference(table_id: str, tolerance: float = 1e-2) -> TableComparison:
    """Recompute a published table and diff it entrywise against the transcription."""
    if table_id not in TABLES:
        raise KeyError(f"unknown table {table_id!r}; expected one of {sorted(TABLES)}")
    if not tolerance >= 0.0:  # also rejects a NaN tolerance
        raise DomainError(f"tolerance must be >= 0, got {tolerance}")
    case, reference = TABLES[table_id]
    entries: List[dict] = []
    for (num, n) in sorted(reference):
        alpha = Fraction(num, 2)
        pair = energy_pair(case, n, alpha, REFERENCE_R, REFERENCE_M)
        for branch, computed in (("plus", pair.e_plus), ("minus", pair.e_minus)):
            ref = reference[(num, n)][0 if branch == "plus" else 1]
            dev = worst((abs(computed.real - ref.real), abs(computed.imag - ref.imag)))
            entries.append(
                {
                    "alpha": str(alpha),
                    "n": n,
                    "branch": branch,
                    "computed_re": computed.real,
                    "computed_im": computed.imag,
                    "reference_re": ref.real,
                    "reference_im": ref.imag,
                    "deviation": dev,
                }
            )
    max_dev = worst(entry["deviation"] for entry in entries)
    return TableComparison(
        table=table_id,
        case=case,
        tolerance=tolerance,
        max_deviation=max_dev,
        passed=max_dev <= tolerance,
        entries=tuple(entries),
    )
