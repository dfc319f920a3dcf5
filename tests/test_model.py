"""Parameter validation, scale factors, and su(1,1) algebra constants."""

import math
from fractions import Fraction

import pytest

from dunklkg import (
    CoherentParams,
    CurvatureCase,
    DegenerateError,
    DomainError,
    bargmann_index,
    build_profile,
    casimir_eigenvalue,
    energy_pair,
    energy_shifts,
    parse_alpha,
    parse_complex,
    radial_coupling,
    scale_factor,
    sigma_index,
)

HALF_ODD = [Fraction(num, 2) for num in range(1, 100, 2)]


# --- parsing and validation ---------------------------------------------------

@pytest.mark.parametrize("text,expected", [("1/2", Fraction(1, 2)), ("7/2", Fraction(7, 2)), (" 3/2 ", Fraction(3, 2))])
def test_parse_alpha_valid(text, expected):
    assert parse_alpha(text) == expected


@pytest.mark.parametrize("text", ["0.5", "1", "2/4", "-1/2", "3/4", "abc", "0/2"])
def test_parse_alpha_rejects_non_half_odd(text):
    with pytest.raises(DomainError):
        parse_alpha(text)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0.5+0.2i", 0.5 + 0.2j),
        ("0.3", 0.3 + 0j),
        ("0.1-0.6i", 0.1 - 0.6j),
        ("-2i", -2j),
        ("1e-3+2.5e-1i", 1e-3 + 0.25j),
    ],
)
def test_parse_complex(text, expected):
    assert parse_complex(text) == expected


def test_parse_complex_rejects_garbage():
    with pytest.raises(DomainError):
        parse_complex("1+2x")


def test_energy_pair_validates_R_and_m():
    # the one rule for each physical input: finite R >= 0 (energy_shifts)
    # and finite m > 0 (energy_pair)
    for case in CurvatureCase:
        assert energy_pair(case, 0, Fraction(3, 2), 0.0, 1.0).e2_plus == 1.0  # flat: E^2 = m^2
        for R in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(DomainError, match="need finite R >= 0"):
                energy_pair(case, 0, Fraction(1, 2), R, 1.0)
        for m in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="need finite m > 0"):
                energy_pair(case, 0, Fraction(1, 2), 1.0, m)


def test_alpha_rule_applies_in_the_library():
    # the rule parse_alpha applies to the CLI's text holds for library callers too
    gaussian = CurvatureCase.GAUSSIAN
    calls = (
        lambda a: energy_pair(gaussian, 0, a, 1.0, 1.0),
        lambda a: CoherentParams.for_case(gaussian, a, 0, 0.3),
        lambda a: build_profile(gaussian, a, 0, 0.3),
        lambda a: CoherentParams(xi=0.3, alpha=a, lambda_scale=1.0),
    )
    for call in calls:
        for alpha in (Fraction(1, 3), 0.3, 1, 0, Fraction(-1, 2)):
            with pytest.raises(DomainError, match="positive half-odd integer"):
                call(alpha)
        for alpha in (Fraction(1, 2), 0.5):
            call(alpha)


# --- algebra constants ---------------------------------------------------------

@pytest.mark.parametrize(
    "alpha,expected",
    [
        (Fraction(1, 2), 0.5 + 0.4330127018922193j),   # sqrt(3)/4
        (Fraction(3, 2), 0.5 + 0.8291561975888499j),   # sqrt(11)/4
        (Fraction(7, 2), 0.5 + 1.299038105676658j),    # 3 sqrt(3)/4
    ],
)
def test_bargmann_examples(alpha, expected):
    assert bargmann_index(alpha) == pytest.approx(expected, rel=1e-13)
    assert bargmann_index(alpha).imag > 0


@pytest.mark.parametrize(
    "alpha,expected", [(Fraction(1, 2), -0.4375), (Fraction(3, 2), -0.9375), (Fraction(7, 2), -1.9375)]
)
def test_casimir_examples(alpha, expected):
    value = casimir_eigenvalue(alpha)
    assert value.real == pytest.approx(expected, abs=1e-15)
    assert value.imag == 0.0


def test_casimir_bargmann_identity_sweep():
    for alpha in HALF_ODD:
        k = bargmann_index(alpha)
        assert abs(k * (k - 1) + radial_coupling(alpha)) < 1e-13


def test_sigma_identity_sweep():
    for alpha in HALF_ODD:
        sig = sigma_index(alpha)
        assert abs(sig * sig - (1.0 / 16.0 - float(alpha) / 2.0)) < 1e-13
        assert sig == bargmann_index(alpha) - 0.5


# --- scale factors ---------------------------------------------------------------

def test_scale_factor_case1_value():
    (shift,) = energy_shifts(CurvatureCase.GAUSSIAN, 0, Fraction(1, 2), 1.0)
    lam = scale_factor(CurvatureCase.GAUSSIAN, shift, 1.0)
    # (2 sqrt(3) - 4i)^2 = -4 - 16 sqrt(3) i reproduces 2R(E^2 - m^2)
    assert lam == pytest.approx(2 * math.sqrt(3) - 4j, rel=1e-12)
    assert lam * lam == pytest.approx(2.0 * shift, rel=1e-12)


def test_scale_factor_unit_arguments():
    assert scale_factor(CurvatureCase.GAUSSIAN, 1.0 / 2.0, 1.0) == pytest.approx(1.0)
    assert scale_factor(CurvatureCase.RATIONAL, 1.0 / 4.0, 1.0) == pytest.approx(1.0)
    assert scale_factor(CurvatureCase.SINC, 3.0, 1.0) == pytest.approx(1.0)
    assert scale_factor(CurvatureCase.SINC, 12.0, 1.0) == pytest.approx(2.0)


def test_scale_factor_degenerate():
    # only a zero scale is refused: a zero shift, or a product that underflows
    for shift, R in ((0.0, 1.0), (5e-15, 0.0), (5e-15, 1e-310)):
        with pytest.raises(DegenerateError):
            scale_factor(CurvatureCase.GAUSSIAN, shift, R)
    assert scale_factor(CurvatureCase.GAUSSIAN, 5e-15, 1.0) == pytest.approx(1e-7)


def test_case_from_name():
    assert CurvatureCase.from_name("Gaussian") is CurvatureCase.GAUSSIAN
    with pytest.raises(DomainError):
        CurvatureCase.from_name("cosh")
