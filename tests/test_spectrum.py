"""Spectrum formulas, published-table regression, and branch diagnostics."""

import json
import math
from fractions import Fraction

import pytest

from dunklkg import (
    CurvatureCase,
    DegenerateError,
    EnergyPair,
    SpectrumTable,
    compare_reference,
    energy_pair,
    self_consistency_residual,
    spectrum_table,
    table_to_csv,
    table_to_json,
)

ALPHAS = [Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)]


# --- closed forms -----------------------------------------------------------

def test_case1_ground_state():
    # hand evaluation: sqrt(0.75) = 0.8660254, (1 + i s)^2 = 0.25 + 1.7320508i
    e2 = energy_pair(CurvatureCase.GAUSSIAN, 0, Fraction(1, 2), 1.0, 1.0).e2_plus
    assert e2 == pytest.approx(-1.0 - 13.856406460551018j, rel=1e-12)


def test_case1_first_excited():
    # (3 + 0.8660254i)^2 = 8.25 + 5.1961524i, times 8, subtracted from 1
    e2 = energy_pair(CurvatureCase.GAUSSIAN, 1, Fraction(1, 2), 1.0, 1.0).e2_plus
    assert e2 == pytest.approx(-65.0 - 41.569219381653056j, rel=1e-12)


def test_case1_zero_curvature():
    for n in (0, 3, 17):
        pair = energy_pair(CurvatureCase.GAUSSIAN, n, Fraction(5, 2), 0.0, 1.0)
        assert pair.e2_plus == pytest.approx(1.0)


@pytest.mark.parametrize(
    "n,alpha,e_plus",
    [
        (0, Fraction(1, 2), 3.297 - 4.223j),
        (5, Fraction(1, 2), 3.461 - 44.034j),
        (0, Fraction(7, 2), 10.266 - 4.050j),
    ],
)
def test_case2_published_entries(n, alpha, e_plus):
    pair = energy_pair(CurvatureCase.RATIONAL, n, alpha, 1.0, 1.0)
    assert pair.e_plus.real == pytest.approx(e_plus.real, abs=1e-2)
    assert pair.e_plus.imag == pytest.approx(e_plus.imag, abs=1e-2)


@pytest.mark.parametrize(
    "n,alpha,branch,expected",
    [
        (0, Fraction(1, 2), "plus", 1.158 - 1.002j),
        (0, Fraction(1, 2), "minus", 0.998 + 0.006j),
        (0, Fraction(3, 2), "plus", 1.001 + 0.003j),
        (0, Fraction(3, 2), "minus", 2.043 - 1.084j),
        (5, Fraction(7, 2), "plus", 3.006 - 12.677j),
    ],
)
def test_case3_published_entries(n, alpha, branch, expected):
    pair = energy_pair(CurvatureCase.SINC, n, alpha, 1.0, 1.0)
    value = pair.e_plus if branch == "plus" else pair.e_minus
    assert value.real == pytest.approx(expected.real, abs=1e-2)
    assert value.imag == pytest.approx(expected.imag, abs=1e-2)


def test_full_table_reproduction():
    for table_id in ("table1", "table2"):
        cmp = compare_reference(table_id, tolerance=1e-2)
        assert cmp.passed, f"{table_id} max deviation {cmp.max_deviation}"
        assert len(cmp.entries) == 36  # 18 (alpha, n) pairs x 2 branches


def test_table_not_reproducible_at_print_precision():
    # the source prints 3 decimals; 1e-6 must fail
    assert not compare_reference("table1", tolerance=1e-6).passed


# --- EnergyPair invariants ----------------------------------------------------

def test_energy_pair_invariants():
    for case in CurvatureCase:
        for alpha in ALPHAS:
            for n in range(6):
                pair = energy_pair(case, n, alpha, 1.0, 1.0)
                assert pair.e_plus**2 == pytest.approx(pair.e2_plus, rel=1e-12)
                assert pair.e_plus.real >= 0.0
                if case is CurvatureCase.GAUSSIAN:
                    assert pair.e2_minus is None and pair.e_minus is None
                else:
                    assert pair.e_minus**2 == pytest.approx(pair.e2_minus, rel=1e-12)
                    assert pair.e_minus.real >= 0.0


def test_case1_imaginary_part_strictly_decreasing():
    for alpha in ALPHAS:
        pairs = [energy_pair(CurvatureCase.GAUSSIAN, n, alpha, 1.0, 1.0) for n in range(11)]
        ims = [pair.e2_plus.imag for pair in pairs]
        assert all(ims[i] > ims[i + 1] for i in range(10))


def test_zero_curvature_linearity():
    # E^2(R) - m^2 is proportional to R for all three cases; recovering the
    # ratio from E^2 costs cancellation against m^2, hence the 1e-6 window
    for case in CurvatureCase:
        for minus in (False, True):
            ratios = []
            for R in (1e-3, 1e-4, 1e-5):
                pair = energy_pair(case, 2, Fraction(3, 2), R, 1.0)
                # the gaussian case has only the plus branch
                e2 = pair.e2_minus if minus and pair.e2_minus is not None else pair.e2_plus
                ratios.append((e2 - 1.0) / R)
            assert ratios[0] == pytest.approx(ratios[1], rel=1e-6)
            assert ratios[1] == pytest.approx(ratios[2], rel=1e-6)


# --- self-consistency -----------------------------------------------------------

def test_self_consistency_all_cases():
    for case in CurvatureCase:
        for alpha in ALPHAS:
            for n in range(6):
                assert self_consistency_residual(case, n, alpha, 1.0) < 1e-10


def test_self_consistency_per_branch():
    # measured behaviour: the relation holds for BOTH spectral branches once
    # the scale-root sign is resolved (the squaring step loses the sign)
    for case in (CurvatureCase.RATIONAL, CurvatureCase.SINC):
        for branch in ("plus", "minus"):
            res = self_consistency_residual(case, 2, Fraction(3, 2), 1.0, branch=branch)
            assert res < 1e-10


def test_self_consistency_degenerate():
    with pytest.raises(DegenerateError):
        self_consistency_residual(CurvatureCase.GAUSSIAN, 0, Fraction(1, 2), 0.0)


def test_beyond_reference_sweep():
    # larger alpha pushes the case-2 bracket into the left half-plane for
    # n >= 1 as well; the branch convention and the eigenvalue relation must
    # stay consistent out there
    for alpha in (Fraction(11, 2), Fraction(19, 2)):
        for n in range(4):
            for case in CurvatureCase:
                pair = energy_pair(case, n, alpha, 1.0, 1.0)
                assert pair.e_plus**2 == pytest.approx(pair.e2_plus, rel=1e-12)
                assert self_consistency_residual(case, n, alpha, 1.0) < 1e-8
            # decaying branch stays on E_plus for the rational case
            pair2 = energy_pair(CurvatureCase.RATIONAL, n, alpha, 1.0, 1.0)
            assert pair2.e2_plus.imag < pair2.e2_minus.imag


# --- table assembly and serialization -------------------------------------------

def test_spectrum_table_ordering_and_dedup():
    table = spectrum_table(
        CurvatureCase.RATIONAL, [Fraction(3, 2), Fraction(1, 2), Fraction(3, 2)], 2, 1.0, 1.0
    )
    keys = [(a, n) for a, n, _ in table.rows]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys)) == 6


def test_table_csv_shape():
    table = spectrum_table(CurvatureCase.GAUSSIAN, [Fraction(1, 2)], 1, 1.0, 1.0)
    lines = table_to_csv(table).strip().split("\n")
    assert lines[0] == "case,alpha,n,re_e_plus,im_e_plus,re_e_minus,im_e_minus"
    assert len(lines) == 3
    # gaussian has no minus branch: trailing fields empty
    assert lines[1].endswith(",,")


def test_table_json_roundtrip():
    table = spectrum_table(CurvatureCase.SINC, [Fraction(1, 2)], 1, 1.0, 1.0)
    rows = json.loads(table_to_json(table))
    assert len(rows) == 2
    assert rows[0]["case"] == "sinc"
    assert rows[0]["alpha"] == "1/2"
    assert isinstance(rows[0]["re_e_minus"], float)


def test_serialization_deterministic():
    table = spectrum_table(CurvatureCase.RATIONAL, ALPHAS, 5, 1.0, 1.0)
    assert table_to_csv(table) == table_to_csv(table)
    assert table_to_json(table) == table_to_json(table)


# --- writers: byte for byte against the standard library ------------------------

def _rows(table):
    rows = []
    for alpha, n, pair in table.rows:
        em = pair.e_minus
        rows.append(
            {
                "case": table.case.value,
                "alpha": str(alpha),
                "n": n,
                "re_e_plus": pair.e_plus.real,
                "im_e_plus": pair.e_plus.imag,
                "re_e_minus": em.real if em is not None else None,
                "im_e_minus": em.imag if em is not None else None,
            }
        )
    return rows


@pytest.mark.parametrize("case", list(CurvatureCase), ids=lambda c: c.value)
def test_table_writers_equal_stdlib(case):
    table = spectrum_table(case, ALPHAS, 5, 1.0, 1.0)
    rows = _rows(table)
    assert table_to_json(table) == json.dumps(rows, indent=2) + "\n"
    csv_lines = table_to_csv(table).split("\n")
    assert csv_lines[-1] == ""
    for line, row in zip(csv_lines[1:-1], rows):
        fields = [row["case"], row["alpha"], str(row["n"])]
        fields += [
            "" if row[key] is None else format(row[key], ".9g")
            for key in ("re_e_plus", "im_e_plus", "re_e_minus", "im_e_minus")
        ]
        assert line == ",".join(fields)
    assert len(csv_lines) == len(rows) + 2
    if case is CurvatureCase.GAUSSIAN:
        assert '"re_e_minus": null' in table_to_json(table)


def test_table_json_non_finite_and_empty_equal_stdlib():
    # an infinite energy (energy_pair refuses to compute one), which json.dumps spells Infinity
    pair = EnergyPair(0, complex(math.inf, -math.inf))
    huge = SpectrumTable(CurvatureCase.GAUSSIAN, 1e308, 1.0, ((Fraction(1, 2), 0, pair),))
    assert table_to_json(huge) == json.dumps(_rows(huge), indent=2) + "\n"
    assert "Infinity" in table_to_json(huge)
    empty = spectrum_table(CurvatureCase.SINC, [], 1, 1.0, 1.0)
    assert table_to_json(empty) == "[]\n"
