"""The verify grid sweeps and block-drawn samples against their per-n and
per-sample definitions.

The sweeps stream F_0 .. F_5 once per (alpha, grid) and the random checks
draw all their samples in one ``rng.uniform`` call; both must give exactly
(``==``) the records that the public per-n residual functions and one
``rng.uniform`` call per real or imaginary part give.
"""

import numpy as np

from dunklkg import complexfn, ode_residual, verify, z3_eigenvalue_residual


def sweep_max(residual, h):
    return max(
        residual(n, alpha, verify.R_MIN, verify.R_MAX, h)
        for alpha in verify.SWEEP_ALPHAS
        for n in verify.SWEEP_N
    )


def test_residual_bounds_equal_the_per_n_maxima():
    for check, residual in (
        (verify.check_ode_residual, ode_residual),
        (verify.check_z3_eigenvalue, z3_eigenvalue_residual),
    ):
        record = check(1e-3)
        assert record["measured"] == sweep_max(residual, record["h"])


def test_convergence_ratios_equal_the_per_n_ratios():
    for check, residual in (
        (verify.check_ode_convergence, ode_residual),
        (verify.check_z3_convergence, z3_eigenvalue_residual),
    ):
        record = check(1e-3)
        coarse = sweep_max(residual, record["h_coarse"])
        fine = sweep_max(residual, record["h_fine"])
        assert record["measured"] == coarse / fine


def per_sample_draws(record, low, high, per_sample=1):
    """The record's samples drawn one ``rng.uniform`` call per real and imaginary part."""
    rng = np.random.default_rng(record["seed"])
    return [
        complex(rng.uniform(low[0], high[0]), rng.uniform(low[1], high[1]))
        for _ in range(record["samples"] * per_sample)
    ]


def test_laguerre_recurrence_equals_per_sample_draws():
    record = verify.check_laguerre_recurrence()
    draws = per_sample_draws(record, (-10, -10), (10, 10), per_sample=2)
    worst = 0.0
    for a, z in zip(draws[0::2], draws[1::2]):
        seq = complexfn.laguerre_sequence(31, a, z)
        for n in range(1, 30):
            lhs = (n + 1) * seq[n + 1] - (2 * n + 1 + a - z) * seq[n] + (n + a) * seq[n - 1]
            worst = max(worst, abs(lhs) / max(1.0, abs(seq[n])))
    assert record["measured"] == worst


def test_gamma_recurrence_equals_per_sample_draws():
    record = verify.check_gamma_recurrence()
    worst = 0.0
    for z in per_sample_draws(record, (0.5, -49.0), (19.0, 49.0)):
        g1 = complexfn.gamma(z + 1.0)
        worst = max(worst, abs(g1 - z * complexfn.gamma(z)) / abs(g1))
    assert record["measured"] == worst


def test_sqrt_roundtrip_equals_per_sample_draws():
    record = verify.check_sqrt_roundtrip()
    worst = 0.0
    for z in per_sample_draws(record, (-50, -50), (50, 50)):
        if z != 0:
            root = complexfn.principal_sqrt(z)
            worst = max(worst, abs(root * root - z) / abs(z))
    assert record["measured"] == worst


def test_pow_identities_equal_per_sample_draws():
    record = verify.check_pow_identities()
    worst = 0.0
    for z in per_sample_draws(record, (-20, -20), (20, 20)):
        if z != 0:
            worst = max(worst, abs(complexfn.principal_pow(z, 1.0) - z) / abs(z))
            worst = max(worst, abs(complexfn.principal_pow(z, 0.0) - 1.0))
    assert record["measured"] == worst
