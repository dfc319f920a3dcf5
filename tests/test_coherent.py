"""Coherent states: closed form vs series oracle, reductions, time
evolution, and density profiles."""

import cmath
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkg import (
    CoherentParams,
    CurvatureCase,
    DomainError,
    DunklKGError,
    NormalizationError,
    PhaseConvention,
    ProfileData,
    bargmann_index,
    build_profile,
    coherent_closed_form,
    coherent_evolved,
    coherent_series,
    eigenfunction_x,
    energy_pair,
    gridops,
    log_gamma,
    normalization,
    principal_log,
    profiles_to_json,
    suggested_series_terms,
    verify,
)
from dunklkg.coherent import _BLOCK_ROWS, _PROFILE_BYTES_PER_POINT, profiles_to_csv
from dunklkg.spectrum import csv_field

ALPHAS = [Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)]
XIS = [0.3 + 0.0j, 0.5 + 0.2j, 0.1 - 0.6j]
X_GRID = np.linspace(0.01, 1.2, 120)


def params_for(alpha, n=0, xi=0.5 + 0.2j, tau=0.0, convention=PhaseConvention.CORRECTED):
    return CoherentParams.for_case(
        CurvatureCase.GAUSSIAN, alpha, n, xi, tau=tau, phase_convention=convention
    )


# --- parameter validation ---------------------------------------------------

def test_disk_constraint():
    with pytest.raises(DomainError):
        params_for(Fraction(1, 2), xi=1.0 + 0.0j)
    with pytest.raises(DomainError):
        params_for(Fraction(1, 2), xi=0.9 + 0.9j)


def test_branch_requirements():
    with pytest.raises(DomainError):
        CoherentParams.for_case(CurvatureCase.RATIONAL, Fraction(1, 2), 0, 0.3)
    with pytest.raises(DomainError):
        CoherentParams.for_case(
            CurvatureCase.GAUSSIAN, Fraction(1, 2), 0, 0.3, branch="minus"
        )
    ok = CoherentParams.for_case(
        CurvatureCase.SINC, Fraction(1, 2), 1, 0.3, branch="minus"
    )
    assert ok.lambda_scale != 0


# --- reductions ----------------------------------------------------------------

def test_xi_zero_reduction():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.01, 2.0, size=100)
    for alpha in ALPHAS:
        params = params_for(alpha, xi=0.0 + 0.0j)
        closed = coherent_closed_form(x, params)
        eig = eigenfunction_x(0, alpha, params.lambda_scale, x)
        assert np.max(np.abs(closed - eig) / np.abs(eig)) < 1e-12


def test_vanishes_at_origin():
    assert coherent_closed_form(0.0, params_for(Fraction(1, 2))) == 0.0


def test_closed_form_is_zero_at_x_zero_and_the_masked_formula_elsewhere():
    # built in place over every sample, log 0 included, the closed form raises
    # no floating-point warning and keeps the bits of the exponent formed on
    # x > 0 only, with N_0 written through (k + 1/2) and Gamma(2k)
    x = np.concatenate(([0.0], np.linspace(0.01, 2.0, 199), [0.0]))
    nz = x > 0
    for alpha in ALPHAS:
        k = bargmann_index(alpha)
        for xi in XIS:
            params = params_for(alpha, xi=xi)
            lam = params.lambda_scale
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = coherent_closed_form(x, params)
            c = (0.5 * (math.log(2.0) + (k + 0.5) * principal_log(lam) - log_gamma(2.0 * k))
                 + k * math.log1p(-abs(xi) ** 2)
                 + k * principal_log(lam) - 2.0 * k * principal_log(1.0 - xi))
            q = 0.5j * lam * (xi + 1.0) / (xi - 1.0)
            log_x, x_sq = np.log(x[nz]), x[nz] * x[nz]
            exponent = np.empty(log_x.shape, dtype=complex)
            exponent.real = c.real + (2.0 * k).real * log_x + q.real * x_sq
            exponent.imag = c.imag + (2.0 * k).imag * log_x + q.imag * x_sq
            assert np.array_equal(got[nz].view(np.uint64), np.exp(exponent).view(np.uint64))
            assert not got[~nz].view(np.uint64).any()  # +0 in both parts
    with pytest.raises(DomainError):
        coherent_closed_form(np.array([0.5, np.nan]), params_for(Fraction(1, 2)))


def test_series_single_term_is_ground_state():
    params = params_for(Fraction(3, 2), xi=0.0 + 0.0j)
    x = np.linspace(0.05, 1.5, 30)
    series = coherent_series(x, params, n_terms=1)
    eig = eigenfunction_x(0, Fraction(3, 2), params.lambda_scale, x)
    assert np.max(np.abs(series - eig) / np.abs(eig)) < 1e-14


# --- series vs closed form (the module's primary correctness check) --------------

@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("xi", XIS)
def test_series_matches_closed_form(alpha, xi):
    params = params_for(alpha, xi=xi)
    closed = coherent_closed_form(X_GRID, params)
    series = coherent_series(X_GRID, params)
    rel = np.max(np.abs(closed - series)) / np.max(np.abs(closed))
    assert rel < 1e-6


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("xi", XIS)
def test_series_at_term_clamp_matches_closed_form(alpha, xi):
    # 600 terms is the upper clamp of suggested_series_terms; the automatic
    # count on this grid is only 38-173, so this reaches the far terms
    params = params_for(alpha, xi=xi)
    closed = coherent_closed_form(X_GRID, params)
    series = coherent_series(X_GRID, params, n_terms=600)
    rel = np.max(np.abs(closed - series)) / np.max(np.abs(closed))
    assert rel < 1e-6


def test_series_self_convergence():
    params = params_for(Fraction(1, 2), xi=0.5 + 0.2j)
    a = coherent_series(X_GRID, params, n_terms=60)
    b = coherent_series(X_GRID, params, n_terms=80)
    assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-8


N0_SCALES = [
    (case, branch)
    for case in CurvatureCase
    for branch in ((None,) if case is CurvatureCase.GAUSSIAN else ("plus", "minus"))
]


@pytest.mark.parametrize("case, branch", N0_SCALES, ids=lambda v: getattr(v, "value", v))
@pytest.mark.parametrize("alpha", verify.SWEEP_ALPHAS, ids=str)
def test_series_weight_times_normalization_is_n0_normalization(case, branch, alpha):
    # coherent_series weights every term by N_0 alone: the displacement
    # coefficient sqrt(Gamma(n+2k)/(n! Gamma(2k))) times N_n is N_0 for every
    # n up to the 600-term clamp, which also reaches log_gamma's large-n path
    lam = CoherentParams.for_case(case, alpha, 0, 0.0, branch=branch).lambda_scale
    two_k = 2.0 * bargmann_index(alpha)
    n0 = normalization(0, alpha, lam)
    worst = max(
        abs(
            cmath.exp(0.5 * (log_gamma(n + two_k) - math.lgamma(n + 1) - log_gamma(two_k)))
            * normalization(n, alpha, lam) - n0
        )
        for n in range(600)
    )
    assert worst <= 1e-12 * abs(n0)


@pytest.mark.parametrize("case, branch", N0_SCALES, ids=lambda v: getattr(v, "value", v))
def test_scale_factor_is_linear_in_R(case, branch):
    # the shift E^2 - m^2 is R times an R-free bracket and Lambda^2 is R
    # times the shift, so Lambda(R) = R Lambda(1) to round-off, however
    # small R is next to the kinetic term
    for alpha in verify.SWEEP_ALPHAS:
        for n in range(6):
            unit = CoherentParams.for_case(case, alpha, n, 0.0, branch=branch).lambda_scale
            for R in (2.0**-20, 1e-4, 1e-8, 1e-10):
                lam = CoherentParams.for_case(case, alpha, n, 0.0, R=R, branch=branch).lambda_scale
                assert abs(lam / R - unit) <= 1e-15 * abs(unit), (alpha, n, R)


def test_non_finite_scale_factor_raises():
    # the shift -8R(1 + i s)^2 is finite at R = 1e200, but 2R times it is not
    with pytest.raises(OverflowError, match="scale factor is not finite at R=1e[+]200"):
        CoherentParams.for_case(CurvatureCase.GAUSSIAN, Fraction(1, 2), 0, 0.3, R=1e200)


def test_suggested_terms_scales_with_xi():
    few = suggested_series_terms(params_for(Fraction(1, 2), xi=0.1 + 0.0j), 1.2)
    many = suggested_series_terms(params_for(Fraction(1, 2), xi=0.1 - 0.6j), 1.2)
    assert few < many <= 600


# --- time evolution ---------------------------------------------------------------

def test_tau_zero_is_exact_identity():
    params = params_for(Fraction(1, 2), n=1, tau=0.0)
    x = np.linspace(0.01, 2.0, 200)
    np.testing.assert_array_equal(coherent_evolved(x, params), coherent_closed_form(x, params))


@pytest.mark.parametrize("case, branch", N0_SCALES, ids=lambda v: getattr(v, "value", v))
def test_static_profile_is_the_evolved_profile_at_tau_zero(case, branch):
    # the CLI builds every density through the evolved state, so at tau = 0
    # (corrected convention) it must give the static profile bit for bit
    for alpha in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2), Fraction(21, 2)):
        for xi in XIS + [0j, -0.7 + 0.1j]:
            for n in range(6):
                for R in (1.0, 0.3):
                    static, evolved = (
                        build_profile(case, alpha, n, xi, R=R, branch=branch, points=60,
                                      tau=0.0, evolved=flag)
                        for flag in (False, True)
                    )
                    assert evolved.meta == static.meta
                    for name in ("x", "values", "density"):
                        assert getattr(evolved, name).tobytes() == getattr(static, name).tobytes()


def test_tau_pi_flips_real_xi():
    alpha = Fraction(1, 2)
    base = params_for(alpha, xi=0.4 + 0.0j)
    evolved = coherent_evolved(X_GRID, params_for(alpha, xi=0.4 + 0.0j, tau=math.pi))
    k = bargmann_index(alpha)
    flipped = CoherentParams(
        xi=-0.4 + 0.0j, alpha=base.alpha, lambda_scale=base.lambda_scale
    )
    expected = cmath.exp(-1j * k * math.pi) * coherent_closed_form(X_GRID, flipped)
    assert np.max(np.abs(evolved - expected)) / np.max(np.abs(expected)) < 1e-12


def test_density_periodicity_two_pi():
    for tau0 in (0.0, 1.3):
        d0, d1 = (
            build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 1, 0.5 + 0.2j, tau=tau,
                          evolved=True).density
            for tau in (tau0, tau0 + 2.0 * math.pi)
        )
        assert np.max(np.abs(d0 - d1)) / np.max(d0) < 1e-10


def test_phase_conventions_share_densities():
    for tau in (0.0, 1.1):
        d_corr, d_print = (
            build_profile(CurvatureCase.GAUSSIAN, Fraction(3, 2), 1, 0.5 + 0.2j, tau=tau,
                          phase_convention=convention, points=300, evolved=True).density
            for convention in (PhaseConvention.CORRECTED, PhaseConvention.AS_PRINTED)
        )
        assert np.max(np.abs(d_corr - d_print)) < 1e-12 * np.max(d_corr)


# --- densities ----------------------------------------------------------------------

def test_density_normalized_and_nonnegative():
    for alpha in ALPHAS:
        for n in range(3):
            prof = build_profile(CurvatureCase.GAUSSIAN, alpha, n, 0.5 + 0.2j)
            assert np.all(prof.density >= 0.0)
            assert np.trapezoid(prof.density, prof.x) == pytest.approx(1.0, abs=1e-10)
            assert prof.density[0] < np.max(prof.density)


def test_density_vanishes_toward_origin():
    # Re(2k) = 1 makes |R|^2 scale like x^2 as x -> 0+
    params = params_for(Fraction(1, 2), n=1)
    d1 = abs(coherent_closed_form(1e-2, params)) ** 2
    d2 = abs(coherent_closed_form(1e-3, params)) ** 2
    assert d2 / d1 == pytest.approx(1e-2, rel=0.05)


def test_density_normalization_error_on_underflow():
    # the raw integral is about 1.4e-311, subnormal
    with pytest.raises(NormalizationError):
        build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 0, 0.3, R=1e-157)


def test_density_grid_whose_square_overflows_is_refused_without_warning():
    # x^2 is the variable of the closed form's exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite x_max\\^2"):
            build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 0, 0.3, x_min=1.0, x_max=1e200)


def test_build_profile_metadata_and_warning():
    prof = build_profile(CurvatureCase.GAUSSIAN, Fraction(7, 2), 0, 0.5 + 0.2j, points=50)
    assert prof.meta["warning"]  # figure-note instability flagged, not hidden
    assert prof.meta["x_map_by_analogy"] is False
    prof2 = build_profile(
        CurvatureCase.SINC, Fraction(1, 2), 1, 0.3, branch="minus", points=50
    )
    assert prof2.meta["x_map_by_analogy"] is True
    assert prof2.meta["warning"] is None
    assert prof2.meta["branch"] == "minus"


@pytest.mark.parametrize("tau, convention", [(1.0, PhaseConvention.CORRECTED),
                                               (0.0, PhaseConvention.AS_PRINTED)])
def test_static_state_is_refused_where_it_is_not_the_evolved_one(tau, convention):
    # the static profile would be the tau = 0, corrected one under another label
    with pytest.raises(DomainError, match="evolved=True"):
        build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 1, 0.3, tau=tau,
                      phase_convention=convention, points=40)


def test_build_profile_refuses_more_than_physical_memory(monkeypatch):
    need = 400 * _PROFILE_BYTES_PER_POINT
    monkeypatch.setattr(gridops, "_physical_memory", lambda: need)
    assert build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 0, 0.3, points=400).x.size == 400
    monkeypatch.setattr(gridops, "_physical_memory", lambda: need - 1)
    with pytest.raises(MemoryError, match="grid of 400 points"):
        build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 0, 0.3, points=400)


def test_profile_serialization_deterministic():
    prof = build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 1, 0.5 + 0.2j, points=50)
    assert prof.to_csv() == prof.to_csv()
    assert json_text([prof]) == json_text([prof])
    header = prof.to_csv().splitlines()[0]
    assert header.startswith("# case=gaussian alpha=1/2 n=1 xi=0.5+0.2i tau=0")


def parse_meta_line(line):
    """A CSV profile's ``# key=value ...`` line, read by the README's rule: the
    pairs are split on spaces up to ``warning``, the last key, whose value
    runs to the end of the line."""
    assert line.startswith("# ")
    head, sep, warning = line[2:].partition(" warning=")
    assert sep
    return [tuple(pair.split("=", 1)) for pair in head.split(" ")] + [("warning", warning)]


@pytest.mark.parametrize("alpha, n", [(Fraction(7, 2), 0), (Fraction(1, 2), 1)],
                         ids=["warned", "unwarned"])
def test_csv_meta_line_parses_back_to_meta(alpha, n):
    # the warned profile's value holds spaces and the tokens "alpha=7/2," and
    # "n=0", so only the rule, not a split on spaces, reads it back
    prof = build_profile(CurvatureCase.GAUSSIAN, alpha, n, 0.3, points=50)
    assert bool(prof.meta["warning"]) == (alpha == Fraction(7, 2))
    line = next(profiles_to_csv([prof])).splitlines()[0]
    assert parse_meta_line(line) == [(key, csv_field(value)) for key, value in prof.meta.items()]


# --- writers: byte for byte against the standard library ------------------------

CASE_BRANCHES = [
    (CurvatureCase.GAUSSIAN, None),
    (CurvatureCase.RATIONAL, "plus"),
    (CurvatureCase.RATIONAL, "minus"),
    (CurvatureCase.SINC, "plus"),
    (CurvatureCase.SINC, "minus"),
]


def writer_profiles():
    """Every case/branch at n = 0..3, evolve at two tau, and extreme hand-built samples."""
    profiles = [
        build_profile(case, Fraction(3, 2), n, 0.5 + 0.2j, branch=branch, points=40)
        for case, branch in CASE_BRANCHES
        for n in range(4)
    ]
    profiles += [
        build_profile(
            CurvatureCase.GAUSSIAN, Fraction(1, 2), 1, 0.3 - 0.4j, tau=tau, points=30, evolved=True
        )
        for tau in (0.7854, 2.3562)
    ]
    extremes = np.array([-0.0, 5e-324, 1e308, -1e308, 1.0 / 3.0, 0.1])
    profiles.append(
        ProfileData(
            x=extremes,
            values=extremes[::-1] + 1j * extremes,
            density=extremes,
            meta={"case": "hand-built", "n": 0, "tau": -0.0, "flag": True, "warning": None},
        )
    )
    return profiles


def json_dumps_document(profiles):
    return json.dumps({"profiles": [prof.to_json_obj() for prof in profiles]}, indent=2) + "\n"


def json_text(profiles):
    return "".join(profiles_to_json(profiles))


def test_profile_json_equals_json_dumps():
    profiles = writer_profiles()
    nested = {"grid": [0.01, 2.0], "fit": {"terms": [1, {"tail": None}], "empty": []}}
    profiles.append(ProfileData(x=np.ones(2), values=np.ones(2) + 0j, density=np.ones(2),
                                meta=nested))
    empty = np.empty(0)
    profiles.append(ProfileData(x=empty, values=empty + 0j, density=empty, meta={"n": 2}))
    for prof in profiles:
        assert json_text([prof]) == json_dumps_document([prof])
    assert json_text(profiles) == json_dumps_document(profiles)
    assert json_text([]) == json_dumps_document([])


def test_profile_json_spells_non_finite_samples_as_json_dumps():
    samples = np.array([math.inf, -math.inf, math.nan, 1.0])
    prof = ProfileData(x=samples, values=samples + 0j, density=samples, meta={"n": 1})
    text = json_text([prof])
    assert text == json_dumps_document([prof])
    assert "Infinity" in text and "NaN" in text


def test_profile_csv_rows_are_nine_significant_digits():
    for prof in writer_profiles():
        lines = prof.to_csv().split("\n")
        assert lines[1] == "x,re,im,density" and lines[-1] == ""
        expected = [
            ",".join(format(v, ".9g") for v in (xv, val.real, val.imag, dv))
            for xv, val, dv in zip(prof.x, prof.values, prof.density)
        ]
        assert lines[2:-1] == expected
    assert lines[0] == "# case=hand-built n=0 tau=-0 flag=true warning="


def test_profile_csv_blocks_join_into_one_body():
    # two whole formatting blocks and a partial third
    points = 2 * _BLOCK_ROWS + 3
    prof = build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 1, 0.5 + 0.2j, points=points)
    lines = prof.to_csv().split("\n")
    expected = [
        ",".join(format(v, ".9g") for v in (xv, val.real, val.imag, dv))
        for xv, val, dv in zip(prof.x, prof.values, prof.density)
    ]
    assert lines[2:-1] == expected and lines[-1] == ""


@pytest.mark.parametrize("points", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 10000])
def test_streamed_writers_equal_whole_documents_at_block_boundaries(points):
    # two profiles, each one row short of, at, or past a whole block, or two
    # blocks and a partial third
    profiles = [
        build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 1, 0.3 - 0.4j, tau=tau,
                      points=points, evolved=True)
        for tau in (0.0, 2.3562)
    ]
    assert json_text(profiles) == json_dumps_document(profiles)
    assert "".join(profiles_to_csv(profiles)) == "\n".join(prof.to_csv() for prof in profiles)


def test_profile_json_spells_a_non_finite_sample_past_the_first_block():
    prof = build_profile(CurvatureCase.GAUSSIAN, Fraction(1, 2), 1, 0.5 + 0.2j,
                         points=_BLOCK_ROWS + 100)
    prof.density[_BLOCK_ROWS + 50] = math.nan
    text = json_text([prof])
    assert text == json_dumps_document([prof])
    assert text.count("NaN") == 1 and "nan" not in text


# --- any float input: a library error, or finite values equal on a repeat ----------

def mostly(good, other):
    """Draws from ``good`` seven times in eight, else from ``other``, so that
    a call with several inputs still succeeds often."""
    return st.integers(0, 7).flatmap(lambda i: other if i == 0 else good)


# st.floats() draws nan, +-inf and subnormals; R's other draws also meet 0,
# subnormals, 1e200 (where the scale factor overflows) and 1e308 (the shift)
ANY = st.floats()
ANY_R = mostly(
    st.floats(1e-3, 4), st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e200, 1e308]), ANY)
)
ANY_ALPHA = mostly(st.sampled_from(ALPHAS), ANY)
ANY_XI = st.builds(complex, mostly(st.floats(-0.7, 0.7), ANY), mostly(st.floats(-0.7, 0.7), ANY))
ANY_TAU = mostly(st.floats(-10, 10), ANY)
CASE_BRANCH = st.sampled_from(N0_SCALES)
N = st.integers(0, 5)


def _twice(call):
    """Two outcomes of ``call()``: its result, or the type and message of the
    DunklKGError or OverflowError it raised.  Warnings count as failures."""
    outcomes = []
    for _ in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                outcomes.append(call())
            except (DunklKGError, OverflowError) as exc:
                outcomes.append((type(exc), str(exc)))
    return outcomes


@settings(derandomize=True, max_examples=50, deadline=None)
@given(case_branch=CASE_BRANCH, n=N, alpha=ANY_ALPHA, R=ANY_R, m=mostly(st.floats(0.1, 4), ANY))
def test_energy_pair_any_float_input(case_branch, n, alpha, R, m):
    first, second = _twice(lambda: energy_pair(case_branch[0], n, alpha, R, m))
    assert repr(first) == repr(second)
    if not isinstance(first, tuple):
        e2s = (first.e2_plus, first.e2_minus)
        assert all(cmath.isfinite(e2) for e2 in e2s if e2 is not None)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(case_branch=CASE_BRANCH, n=N, alpha=ANY_ALPHA, xi=ANY_XI, R=ANY_R, tau=ANY_TAU)
def test_coherent_params_any_float_input(case_branch, n, alpha, xi, R, tau):
    case, branch = case_branch
    first, second = _twice(
        lambda: CoherentParams.for_case(case, alpha, n, xi, R=R, branch=branch, tau=tau)
    )
    assert repr(first) == repr(second)
    if not isinstance(first, tuple):
        assert cmath.isfinite(first.lambda_scale) and first.lambda_scale != 0


@settings(derandomize=True, max_examples=50, deadline=None)
@given(case_branch=CASE_BRANCH, n=N, alpha=ANY_ALPHA, xi=ANY_XI, R=ANY_R,
       tau=ANY_TAU, x_min=mostly(st.floats(0.001, 0.5), ANY),
       x_max=mostly(st.floats(0.5, 3), ANY), points=st.integers(9, 20), evolved=st.booleans())
def test_build_profile_any_float_input(case_branch, n, alpha, xi, R, tau, x_min, x_max,
                                       points, evolved):
    case, branch = case_branch
    first, second = _twice(lambda: build_profile(
        case, alpha, n, xi, R=R, branch=branch, tau=tau, x_min=x_min, x_max=x_max,
        points=points, evolved=evolved,
    ))
    if isinstance(first, tuple):
        assert first == second
        return
    assert evolved or tau == 0, "a static profile exists at tau = 0 only"
    assert repr(first.meta) == repr(second.meta)
    for name in ("x", "values", "density"):
        a, b = getattr(first, name), getattr(second, name)
        assert np.isfinite(a).all()
        assert a.tobytes() == b.tobytes()
    assert math.isfinite(first.meta["norm_integral"])
