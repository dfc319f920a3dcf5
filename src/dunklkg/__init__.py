"""Complex spectra, radial eigenfunctions and SU(1,1) Perelomov coherent
states of the canonical Dunkl-Klein-Gordon equation on three curved
backgrounds (gaussian, rational and sinc curvature profiles), with
grid-operator verification of the underlying algebra.

Units: hbar = c = 1.  Every multivalued complex function uses the
principal branch (see ``complexfn``); the single documented exception is
the inner root of the rational-case spectrum, whose branch is pinned by
the published reference table (see ``spectrum``).
"""

from .coherent import (
    CoherentParams,
    PhaseConvention,
    ProfileData,
    build_profile,
    coherent_closed_form,
    coherent_evolved,
    coherent_series,
    density_profile,
    profiles_to_json,
    suggested_series_terms,
)
from .complexfn import (
    gamma,
    laguerre_rows,
    laguerre_sequence,
    log_gamma,
    principal_log,
    principal_pow,
    principal_sqrt,
)
from .eigenfunctions import (
    eigenfunction_r,
    eigenfunction_rows,
    eigenfunction_x,
    normalization,
    ode_residual,
)
from .errors import (
    DegenerateError,
    DomainError,
    DunklKGError,
    GridError,
    NormalizationError,
    PoleError,
)
from .gridops import (
    GridFunction,
    derivative_4th,
    dunkl_apply,
    ladder_apply,
    positive_grid,
    second_derivative_4th,
    symmetric_grid,
    z3_apply,
)
from .model import (
    CurvatureCase,
    bargmann_index,
    casimir_eigenvalue,
    parse_alpha,
    parse_complex,
    radial_coupling,
    scale_factor,
    sigma_index,
)
from .refdata import compare_reference
from .spectrum import (
    EnergyPair,
    SpectrumTable,
    energy_pair,
    self_consistency_residual,
    spectrum_table,
    table_to_csv,
    table_to_json,
)
from .verify import run_verification, z3_eigenvalue_residual

__version__ = "0.1.0"
