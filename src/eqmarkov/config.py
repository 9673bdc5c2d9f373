"""Central tolerance/limit record.

Every numeric knob in the package lives here so that a tolerance is stated
once and tests pin against the same value the implementation uses.  The
defaults are deliberate choices, not guesses; loosening one to make a test
pass defeats the certificates built on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Tolerances:
    # quadrature
    quad_initial_points: int = 64        # first Gauss-Chebyshev size per band
    quad_max_points: int = 4096          # doubling cap
    quad_rel: float = 1e-12              # doubling stop: |change| < quad_rel * max(1, |value|)
    gl_weight_sum: float = 1e-13         # Gauss-Legendre weights must sum to 2 this tightly
    gl_max_points: int = 10000

    # Bessel zeros
    bessel_scan_max: float = 100.0       # ceiling on the first zero; a larger one is a NumericFailureError
    bessel_residual: float = 1e-12       # |J_nu| at a returned zero must stay below this

    # LP
    lp_feasibility: float = 1e-9
    lp_iteration_limit: int = 1_000_000
    lp_max_constraints: int = 20_000
    lp_max_variables: int = 200

    # scalar root finding / eigenvalues
    root_abs: float = 1e-13
    eig_max_dim: int = 200

    # equilibrium measure
    xi_gap_residual: float = 1e-11       # gap-moment residual ceiling after solving
    mass_tol: float = 1e-8               # |total mass - 1|
    frostman_spread: float = 1e-6        # max-min of the log potential over probes
    frostman_buffer_rel: float = 1e-3    # probe buffer, relative to band length
    frostman_probes_per_band: int = 24
    band_expansion_degree: int = 64      # Chebyshev degree for band regular parts
    collocation_degree: int = 40
    collocation_cond_max: float = 1e12
    oracle_agreement: float = 1e-6       # closed form vs collocation density
    omega_extrapolation: float = 1e-6    # error estimate ceiling for extrapolated limits
    extrapolation_chords: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)

    # extremal oracles
    grid_per_degree: int = 4             # start-grid points per band per degree; cutting planes add the rest
    refine_max_rounds: int = 60
    cert_slack: float = 1e-6             # certified_norm <= 1 + cert_slack
    objective_recheck: float = 1e-9
    basis_cond_max: float = 1e10

    # verification
    verify_hard: float = 1e-9            # slack on inequalities that hold for every n
    asymptotic_slack: float = 0.02       # LP may exceed an asymptotic bound by at most this
    verify_default_trials: int = 200
    verify_max_degree: int = 15

    # geometry
    lemniscate_on_curve: float = 1e-10
    point_on_set: float = 1e-12


DEFAULT_TOL = Tolerances()
