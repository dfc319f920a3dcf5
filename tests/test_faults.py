"""Seeded faults: each small error in one name of the package fails ``verify``.

A passing report says only that nothing it measures is wrong.  Each case
here monkeypatches one constant or function with a small error and asserts
that ``run_verification()`` then fails the named records, so a loosened
bound or a check that stops reading the code it should shows up as a fault
that passes.  Each fault but one is small against what the code computes:
a relative error of 1e-9 to 1e-5, or a constant off by 1e-12 to 1e-7.  The
one large fault, ``log_gamma`` + 0.1 z, holds that the reflection check
reads ``log_gamma`` at all.  The NaN faults hold the rule that a record
is the worst of its samples and a NaN sample fails it, which ``max`` does
not keep: ``max(x, nan)`` is x.
"""

import math
import sys
import types

import numpy as np
import pytest
from click.testing import CliRunner

from dunklkg import coherent, complexfn, eigenfunctions, gridops, model, refdata, spectrum, verify
from dunklkg.cli import cli
from dunklkg.model import CurvatureCase


def closed_form_lambda(monkeypatch):
    original = coherent._closed_form

    def faulty(x, alpha, lam, *args):
        return original(x, alpha, lam * (1.0 + 1e-9), *args)

    monkeypatch.setattr(coherent, "_closed_form", faulty)


def envelope_phase(monkeypatch):
    # e^(-ir/2) as e^(-i (1 + 1e-8) r / 2).  The exact residuals cannot see it:
    # the factor multiplies F_n and their F_n'' alike, which takes g'/g from
    # its formula, not from the envelope.  The stencil's F_n'' does see it.
    original = eigenfunctions.radial_envelope

    def faulty(alpha, r):
        return original(alpha, r) * np.exp(-0.5e-8j * r)

    monkeypatch.setattr(eigenfunctions, "radial_envelope", faulty)


def everywhere(monkeypatch, owner, name, faulty):
    # ``owner.name`` as ``faulty(owner.name)``, under every name the package binds it to
    original = getattr(owner, name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("dunklkg") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, faulty(original))


def coupling_everywhere(monkeypatch):
    everywhere(monkeypatch, model, "radial_coupling", lambda f: lambda alpha: f(alpha) + 1e-7)


def coupling_in_z3(monkeypatch):
    original = gridops.radial_coupling
    monkeypatch.setattr(gridops, "radial_coupling", lambda alpha: original(alpha) + 1e-7)


def rational_spectrum(monkeypatch):
    original = spectrum._CASE_DISPATCH[CurvatureCase.RATIONAL]

    def faulty(n, alpha, R):
        return tuple(shift * (1.0 + 1e-5) for shift in original(n, alpha, R))

    monkeypatch.setitem(spectrum._CASE_DISPATCH, CurvatureCase.RATIONAL, faulty)


def gaussian_spectrum(monkeypatch):
    # reads 2.8e-9 against the clean 8.9e-16
    original = spectrum._CASE_DISPATCH[CurvatureCase.GAUSSIAN]

    def faulty(n, alpha, R):
        return tuple(shift * (1.0 + 1e-9) for shift in original(n, alpha, R))

    monkeypatch.setitem(spectrum._CASE_DISPATCH, CurvatureCase.GAUSSIAN, faulty)


def envelope_nan_at_3_2(monkeypatch):
    # a third of every sweep's rows
    original = eigenfunctions.radial_envelope

    def faulty(alpha, r):
        g = original(alpha, r)
        return g * np.nan if alpha == 1.5 else g

    monkeypatch.setattr(eigenfunctions, "radial_envelope", faulty)


def sqrt_nan_far_right(monkeypatch):
    original = complexfn.principal_sqrt
    monkeypatch.setattr(complexfn, "principal_sqrt",
                        lambda z: complex(math.nan, math.nan) if z.real > 45 else original(z))


def log_gamma_offset(monkeypatch):
    # the recurrence cancels a constant; the reflection on Re z = 1/2 reads 2e-12
    everywhere(monkeypatch, complexfn, "log_gamma", lambda f: lambda z: f(z) + 1e-12)


def lanczos_c5(monkeypatch):
    # reads 2.2e-13 against the clean 1.7e-15; gamma_recurrence only 4.4e-13 of 1e-11
    coeffs = list(complexfn.LANCZOS_COEFFS)
    coeffs[5] *= 1.0 + 1e-6
    monkeypatch.setattr(complexfn, "LANCZOS_COEFFS", tuple(coeffs))


def log_gamma_linear(monkeypatch):
    # 0.1 z adds 0.1 to log Gamma(1/2 + it) + log Gamma(1/2 - it)
    everywhere(monkeypatch, complexfn, "log_gamma", lambda f: lambda z: f(z) + 0.1 * complex(z))


# (fault, the records it must fail)
FAULTS = [
    (closed_form_lambda, {"xi_zero_reduction"}),
    (envelope_phase, {"ode_convergence", "xi_zero_reduction"}),
    (coupling_everywhere, {"casimir_identity", "ode_residual", "z3_eigenvalue"}),
    (coupling_in_z3, {"ode_residual", "z3_eigenvalue"}),
    (rational_spectrum, {"self_consistency"}),
    (gaussian_spectrum, {"self_consistency"}),
    (envelope_nan_at_3_2, {"ode_residual", "z3_eigenvalue", "ode_convergence", "z3_convergence"}),
    (sqrt_nan_far_right, {"sqrt_square_roundtrip"}),
    (log_gamma_offset, {"gamma_reflection"}),
    (lanczos_c5, {"gamma_reflection"}),
    (log_gamma_linear, {"gamma_recurrence", "gamma_reflection"}),
]


def failed_records(report):
    return {rec["name"] for rec in report["checks"] if rec["status"] == "fail"}


def test_the_unfaulted_report_passes():
    assert failed_records(verify.run_verification()) == set()


@pytest.mark.parametrize("fault, records", FAULTS, ids=[f.__name__ for f, _ in FAULTS])
def test_seeded_fault_fails_verify(monkeypatch, fault, records):
    fault(monkeypatch)
    report = verify.run_verification()
    assert not report["passed"]
    assert records <= failed_records(report), failed_records(report)


# the minus branch of table 1's alpha = 3/2 entries, wholly NaN or NaN only in
# its imaginary part
TABLE_NANS = {
    "minus_nan": lambda e: complex(math.nan, math.nan),
    "minus_imag_nan": lambda e: complex(e.real, math.nan),
}


@pytest.mark.parametrize("nan", TABLE_NANS.values(), ids=TABLE_NANS.keys())
def test_nan_table_entry_fails_the_table(monkeypatch, nan):
    original = refdata.energy_pair

    def faulty(case, n, alpha, R, m):
        pair = original(case, n, alpha, R, m)
        if alpha != 1.5:
            return pair
        return types.SimpleNamespace(e_plus=pair.e_plus, e_minus=nan(pair.e_minus))

    monkeypatch.setattr(refdata, "energy_pair", faulty)
    cmp = refdata.compare_reference("table1")
    assert not cmp.passed and math.isnan(cmp.max_deviation)
    assert failed_records(verify.run_verification(suite="table1")) == {"table1_reproduction"}
    result = CliRunner().invoke(cli, ["table", "--reproduce", "table1"])
    assert result.exit_code == 1, result.output
