"""Complex spectra, radial eigenfunctions and SU(1,1) Perelomov coherent
states of the canonical Dunkl-Klein-Gordon equation on three curved
backgrounds (gaussian, rational and sinc curvature profiles), with
grid-operator verification of the underlying algebra.

Units: hbar = c = 1.  Every multivalued complex function uses the
principal branch (see ``complexfn``); the single documented exception is
the inner root of the rational-case spectrum, whose branch is pinned by
the published reference table (see ``spectrum``).

The exports load their module on first access (PEP 562), so ``import
dunklkg`` imports no numpy: ``dunklkg.cli`` can still choose the BLAS
thread count before numpy is loaded.
"""

import importlib

_EXPORTS = {
    **dict.fromkeys((
        "CoherentParams", "ProfileData", "build_profile",
        "coherent_closed_form", "coherent_evolved", "coherent_series",
        "profiles_to_json", "suggested_series_terms",
    ), "coherent"),
    **dict.fromkeys((
        "gamma", "laguerre_rows", "laguerre_sequence", "log_gamma", "principal_log",
        "principal_pow", "principal_sqrt",
    ), "complexfn"),
    **dict.fromkeys((
        "eigenfunction_r", "eigenfunction_rows", "eigenfunction_x", "normalization",
        "ode_residual",
    ), "eigenfunctions"),
    **dict.fromkeys((
        "DegenerateError", "DomainError", "DunklKGError", "GridError", "NormalizationError",
    ), "errors"),
    **dict.fromkeys((
        "GridFunction", "derivative_4th", "ladder_apply", "positive_grid",
        "second_derivative_4th", "z3_apply",
    ), "gridops"),
    **dict.fromkeys((
        "CurvatureCase", "PhaseConvention", "bargmann_index", "parse_alpha", "parse_complex",
        "radial_coupling", "scale_factor", "sigma_index",
    ), "model"),
    "compare_reference": "refdata",
    **dict.fromkeys((
        "EnergyPair", "SpectrumTable", "energy_pair", "energy_shifts",
        "self_consistency_residual", "spectrum_table", "table_to_csv", "table_to_json",
    ), "spectrum"),
    "run_verification": "verify",
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
