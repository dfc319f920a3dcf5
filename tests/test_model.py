"""Parameter validation, curvature profiles, and su(1,1) algebra constants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dunklkg import (
    CurvatureCase,
    DegenerateError,
    DomainError,
    Parity,
    PhysParams,
    UnsupportedParity,
    bargmann_index,
    casimir_eigenvalue,
    energy_squared_case1,
    parse_alpha,
    parse_complex,
    profile_a,
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


def test_phys_params_validation():
    params = PhysParams(alpha=Fraction(3, 2), R=1.0, m=1.0)
    assert params.parity is Parity.EVEN
    with pytest.raises(UnsupportedParity):
        PhysParams(alpha=Fraction(1, 2), R=1.0, m=1.0, parity=Parity.ODD)
    with pytest.raises(DomainError):
        PhysParams(alpha=Fraction(1, 2), R=0.0, m=1.0)
    with pytest.raises(DomainError):
        PhysParams(alpha=Fraction(1, 2), R=1.0, m=-1.0)
    with pytest.raises(DomainError):
        PhysParams(alpha=Fraction(1, 3), R=1.0, m=1.0)


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


# --- curvature profiles ---------------------------------------------------------

def test_profile_values():
    assert profile_a(CurvatureCase.GAUSSIAN, 0.0, 1.0) == pytest.approx(1.0)
    assert profile_a(CurvatureCase.RATIONAL, 1.0, 1.0) == pytest.approx(0.0)
    assert profile_a(CurvatureCase.SINC, math.pi / 2, 1.0) == pytest.approx(
        math.sin(math.pi / 2) / (math.pi / 2), rel=1e-12
    )
    # removable singularity and allowed zeros of the sinc profile
    assert profile_a(CurvatureCase.SINC, 0.0, 1.0) == pytest.approx(1.0)
    assert profile_a(CurvatureCase.SINC, math.pi, 1.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("case", list(CurvatureCase))
def test_profile_even(case):
    x = np.linspace(0.05, 3.0, 40)
    np.testing.assert_array_equal(profile_a(case, x, 0.7), profile_a(case, -x, 0.7))


@pytest.mark.parametrize("case", list(CurvatureCase))
def test_profile_flat_space_limit(case):
    for x in (0.3, 1.0, 2.5):
        assert abs(profile_a(case, x, 1e-8) - 1.0) < 1e-6


# --- scale factors ---------------------------------------------------------------

def test_scale_factor_case1_value():
    e2 = energy_squared_case1(0, Fraction(1, 2), 1.0, 1.0)
    lam = scale_factor(CurvatureCase.GAUSSIAN, e2, 1.0, 1.0)
    # (2 sqrt(3) - 4i)^2 = -4 - 16 sqrt(3) i reproduces 2R(E^2 - m^2)
    assert lam == pytest.approx(2 * math.sqrt(3) - 4j, rel=1e-12)
    assert lam * lam == pytest.approx(2.0 * (e2 - 1.0), rel=1e-12)


def test_scale_factor_unit_arguments():
    assert scale_factor(CurvatureCase.GAUSSIAN, 1.0 + 1.0 / 2.0, 1.0, 1.0) == pytest.approx(1.0)
    assert scale_factor(CurvatureCase.RATIONAL, 1.0 + 1.0 / 4.0, 1.0, 1.0) == pytest.approx(1.0)
    assert scale_factor(CurvatureCase.SINC, 1.0 + 3.0, 1.0, 1.0) == pytest.approx(1.0)
    assert scale_factor(CurvatureCase.SINC, 1.0 + 12.0, 1.0, 1.0) == pytest.approx(2.0)


def test_scale_factor_degenerate():
    with pytest.raises(DegenerateError):
        scale_factor(CurvatureCase.GAUSSIAN, 1.0 + 5e-15, 1.0, 1.0)


def test_case_from_name():
    assert CurvatureCase.from_name("Gaussian") is CurvatureCase.GAUSSIAN
    with pytest.raises(DomainError):
        CurvatureCase.from_name("cosh")
