"""Central tolerance/limit record.

`Tolerances` holds the knobs a caller turns: each one has a caller (the
program, the benchmark or a test) that sets it to a value other than its
default, and a solver takes it as `tol` only if it reaches code that reads
one.  The defaults are deliberate choices, not guesses; loosening one to make
a test pass defeats the certificates built on top of them.

Every other threshold is a fixed design constant, stated once beside the
code that reads it.  This is their one list: a named constant as
module.NAME = value, a literal by the function that holds it.

  equilibrium._QUAD_INITIAL_POINTS = 64      first Gauss-Chebyshev size per band
  equilibrium._QUAD_MAX_POINTS = 4096        its doubling cap
  equilibrium._QUAD_REL = 1e-12              doubling stop, relative to max(1, |value|)
  equilibrium._BAND_EXPANSION_DEGREE = 64    first Chebyshev degree of a band's regular part
  equilibrium._cheb_coeffs_of                its tail: 1e-13 relative; degree cap: 8x the first
  equilibrium.solve_xi                       1e12 ceiling on the gap-moment condition number
  equilibrium._XI_GAP_RESIDUAL = 1e-11       gap-condition residual, relative to max(1, diameter)
  equilibrium._MASS_TOL = 1e-8               |total mass - 1|
  equilibrium._FROSTMAN_SPREAD = 1e-6        max - min of the log potential over the probes
  equilibrium._FROSTMAN_BUFFER_REL = 1e-3    probe buffer, relative to the band length
  equilibrium._ARC_QUAD_POINTS = 256         circle-kernel quadrature
  equilibrium._COLLOCATION_COND_MAX = 1e12   collocation matrix condition number
  equilibrium.collocation_density            at most 8 bands
  equilibrium._OMEGA_EXTRAPOLATION = 1e-6    error estimate of an extrapolated endpoint limit
  equilibrium._EXTRAPOLATION_CHORDS = (1e-2, 1e-3, 1e-4, 1e-5)
  numerics._GL_MAX_POINTS = 10000            largest Gauss-Legendre rule
  numerics._ROOT_ABS = 1e-13                 absolute tolerance of find_root_bracketed
  numerics.LP_FEASIBILITY = 1e-9             LP vertex re-check; the LP exchange's pricing
  numerics.LP_MAX_VARIABLES = 200            LP columns; the LP exchange's basis dimension
  extremal._GRID_PER_DEGREE = 4              LP start-grid points per band and unit of degree
  extremal._BASIS_COND_MAX = 1e10            basis on the LP start grid; L2 Gram matrix
  extremal._OBJECTIVE_RECHECK = 1e-9         witness vs LP value; a Markov walk's stopping rise
  extremal._NEWTON_STEPS = 8                 Newton iterations on an LP reference
  extremal._NEWTON_SEPARATION = 1e-9         Newton atom vs existing rows, relative to band length
  extremal._gram_factors                     L2 rule of 2n + 40 points per band
  extremal._probe_points                     verifier's 64 probes per band, 1e-3 of it from each end
  extremal._SAMPLES_PER_DEGREE = 16          verifier's samples per band and unit of degree
  extremal._VERIFY_HARD = 1e-9               slack on inequalities that hold for every n
  extremal._VERIFY_MAX_DEGREE = 15           largest random degree and va-markov order
  factors.Weight.validate_on                 16 points per band on which h must be positive
  sets.Lemniscate.on_curve                   default tol 1e-10 on ||T(z)| - 1|
  cli.RunConfig.trials = 200                 verify's trials per inequality
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # quadrature and Bessel zeros
    gl_weight_sum: float = 1e-13         # Gauss-Legendre weights must sum to 2 this tightly
    bessel_scan_max: float = 100.0       # ceiling on the first zero; a larger one is a NumericFailureError
    bessel_residual: float = 1e-12       # |J_nu| at a returned zero must stay below this

    # LP and extremal oracles
    lp_iteration_limit: int = 1_000_000
    lp_max_constraints: int = 10_000
    refine_max_rounds: int = 60
    cert_slack: float = 1e-6             # certified_norm <= 1 + cert_slack

    # equilibrium measure
    frostman_probes_per_band: int = 24
    collocation_degree: int = 40

    # geometry
    point_on_set: float = 1e-12


DEFAULT_TOL = Tolerances()
