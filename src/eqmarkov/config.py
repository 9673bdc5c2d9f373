"""Central tolerance/limit record.

Every tolerance and limit a caller may tune lives here, stated once, and tests
pin against the same value the implementation uses.  The defaults are
deliberate choices, not guesses; loosening one to make a test pass defeats
the certificates built on top of them.  Fixed design constants stay in the
code and are not knobs: the 1e12 moment-matrix ceiling in `solve_xi`, the
1e-13 tail and 8x degree cap of `_cheb_coeffs_of`, `_ARC_QUAD_POINTS` = 256,
the verifier's 64 probes per band and their buffer of 1e-3 of the band
length, its 16 sample points per band and unit of degree for the bounds that
decide which trials get the exact kernel, the L2 rule of 2n + 40 points, the
16-point grid per band on which a weight's h must be positive and the 8-band
collocation limit.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    lp_max_constraints: int = 10_000
    lp_max_variables: int = 200

    # scalar root finding
    root_abs: float = 1e-13

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
    verify_default_trials: int = 200
    verify_max_degree: int = 15

    # geometry
    lemniscate_on_curve: float = 1e-10
    point_on_set: float = 1e-12


DEFAULT_TOL = Tolerances()
