"""Sharp derivative-inequality factors built from equilibrium quantities.

Every factor here multiplies a power of the degree: |P^(k)| <= value * n^p * ||P||
with p = degree_power (va_markov_exact is the one exception: its value already
contains the full degree dependence).  `asymptotic` records whether the bound
is attained only in the n -> infinity limit or holds verbatim for every n.

Pointwise factors come from densities, endpoint (Markov-type) factors from the
square of the endpoint limit Omega, and the L2 factors combine Omega with the
smallest positive zero of a Bessel function whose order is set by the weight's
endpoint exponent.  Nothing in this module runs an optimization; the extremal
module recomputes the same constants by brute force so the two can be compared.

The endpoint factors of an interval union read only its gap points and take
`xi`; the other factors that read a density take the set's `density` (of
gamma_of(e) for a periodic set).  None builds it, so a caller that needs
several factors of one set builds the data once and passes it to each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .equilibrium import (
    EquilibriumDensity,
    arc_density,
    circle_density,
    interval_density,
    lemniscate_density,
    omega_limit,
    omega_limit_arc,
    solve_xi,
)
from .errors import DomainError, InvalidArgumentError
from .numerics import bessel_smallest_zero
from .sets import ArcUnion, Circle, IntervalUnion, Lemniscate, PeriodicSet, gamma_of

__all__ = [
    "FACTOR_KINDS",
    "FactorReport",
    "Weight",
    "bernstein_factor",
    "bernstein_factor_circle_subset",
    "bernstein_factor_trig",
    "bernstein_higher",
    "l2_bernstein_jacobi",
    "l2_markov_constant",
    "markov_arc_endpoint",
    "markov_global",
    "markov_higher",
    "markov_local",
    "markov_local_arc",
    "markov_trig",
    "nu_exponent",
    "riesz_factor",
    "va_markov_exact",
    "videnskii_markov",
    "videnskii_pointwise",
]

FACTOR_KINDS = (
    "bernstein-alg",
    "bernstein-trig",
    "bernstein-circle-subset",
    "riesz-curve",
    "markov-local",
    "markov-global",
    "markov-trig",
    "markov-arc-endpoint",
    "higher-markov",
    "higher-bernstein",
    "l2-markov",
    "l2-markov-weighted",
    "l2-bernstein-jacobi",
    "videnskii-pointwise",
    "videnskii-markov",
    "va-markov",
)


@dataclass(frozen=True)
class FactorReport:
    kind: str
    value: float
    degree_power: int
    asymptotic: bool

    def __post_init__(self):
        if self.kind not in FACTOR_KINDS:
            raise InvalidArgumentError(f"unknown factor kind {self.kind!r}")
        if not (np.isfinite(self.value) and self.value > 0):
            raise InvalidArgumentError("factor value must be positive and finite")
        minimum = 0 if self.kind == "va-markov" else 1
        if not (isinstance(self.degree_power, int) and self.degree_power >= minimum):
            raise InvalidArgumentError(f"bad degree power {self.degree_power!r}")


@dataclass(frozen=True)
class Weight:
    """Generalized Jacobi weight: prod |t - a_i|^{alpha_i} times a smooth
    strictly positive factor h.  exponents[i] attaches to endpoints[i] of the
    set the weight is used with; h defaults to 1 and influences only the
    quadrature in the extremal module, never the closed-form constants.
    """

    exponents: tuple[float, ...]
    h: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        exps = tuple([float(a) for a in self.exponents])
        if not exps or any(not np.isfinite(a) or a <= -1.0 for a in exps):
            raise InvalidArgumentError("weight exponents must all be > -1")
        if self.h is not None and not callable(self.h):
            raise InvalidArgumentError("h must be callable")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def unweighted(cls, e: IntervalUnion) -> "Weight":
        return cls((0.0,) * len(e.endpoints))

    @classmethod
    def jacobi(cls, alpha: float, beta: float) -> "Weight":
        """(1-x)^alpha (1+x)^beta on [-1, 1]: exponent beta at -1, alpha at 1."""
        return cls((beta, alpha))

    def band_exponents(self, k: int) -> tuple[float, float]:
        return self.exponents[2 * k], self.exponents[2 * k + 1]

    def evaluate_h(self, t):
        if self.h is None:
            return np.ones_like(np.asarray(t, dtype=float))
        return np.asarray(self.h(t), dtype=float)

    def validate_on(self, e: IntervalUnion) -> None:
        if len(self.exponents) != len(e.endpoints):
            raise InvalidArgumentError(
                "weight needs one exponent per endpoint "
                f"({len(e.endpoints)}, got {len(self.exponents)})"
            )
        if self.h is None:
            return
        for lo, hi in e.bands:
            pts = np.linspace(lo, hi, 16)
            vals = self.evaluate_h(pts)
            if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
                raise InvalidArgumentError("h must be strictly positive on the set")


def _double_factorial_odd(k: int) -> int:
    """(2k - 1)!! for k >= 1."""
    return math.prod(range(1, 2 * k, 2))


def _endpoint_factor(scale: float, om: float, k: int) -> float:
    """(scale pi^2 Omega^2)^k / (2k - 1)!!; scale is 8 for trigonometric
    polynomials, 2 otherwise."""
    return (scale * math.pi**2 * om * om) ** k / _double_factorial_odd(k)


# ---------------------------------------------------------------------------
# pointwise (Bernstein-type) factors
# ---------------------------------------------------------------------------

def bernstein_factor(
    e: IntervalUnion,
    x: float,
    density: EquilibriumDensity | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> FactorReport:
    """pi * density(x) at an interior point: the sharp first-derivative factor
    for algebraic polynomials on a real set."""
    if density is None:
        density = interval_density(e, tol)
    return FactorReport("bernstein-alg", math.pi * density.evaluate(x), 1, False)


def videnskii_pointwise(beta: float, theta: float) -> FactorReport:
    """Closed-form trig factor on the symmetric interval [-beta, beta]."""
    if not 0.0 < beta < math.pi:
        raise InvalidArgumentError("beta must be in (0, pi)")
    if not abs(theta) < beta:
        raise DomainError("theta outside the open interval")
    den = math.sin(0.5 * (beta - theta)) * math.sin(0.5 * (beta + theta))
    return FactorReport(
        "videnskii-pointwise", math.cos(0.5 * theta) / math.sqrt(den), 1, False
    )


def bernstein_factor_trig(
    e: PeriodicSet,
    theta: float,
    density: EquilibriumDensity | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> FactorReport:
    """2 pi * (circle-image density) at e^{i theta}: the sharp factor for
    trigonometric polynomials on a periodic set."""
    if e.locate(theta).kind != "interior":
        raise DomainError("theta must be interior to the periodic set")
    if density is None:
        density = arc_density(gamma_of(e), tol)
    return FactorReport("bernstein-trig", 2.0 * math.pi * density.evaluate(theta), 1, False)


def bernstein_factor_circle_subset(
    a: ArcUnion,
    theta: float,
    density: EquilibriumDensity | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> FactorReport:
    """(1 + 2 pi * density)/2 at an inner point of an arc union: the sharp
    asymptotic factor for algebraic polynomials restricted to part of the
    circle.  As the arcs fill the circle the density tends to 1/(2 pi) and the
    factor to 1, the full-circle value."""
    if a.locate_angle(theta).kind != "interior":
        raise DomainError("point must be interior to an arc")
    if density is None:
        density = arc_density(a, tol)
    value = 0.5 * (1.0 + 2.0 * math.pi * density.evaluate(theta))
    return FactorReport("bernstein-circle-subset", value, 1, True)


def riesz_factor(s: Circle | Lemniscate, z: complex, tol: Tolerances = DEFAULT_TOL) -> FactorReport:
    """2 pi * density on a closed curve; exact on circles, asymptotic on
    lemniscates."""
    if isinstance(s, Circle):
        d = circle_density(s, tol)
        return FactorReport("riesz-curve", 2.0 * math.pi * d.evaluate(z), 1, False)
    if isinstance(s, Lemniscate):
        d = lemniscate_density(s)
        value = 2.0 * math.pi * d.evaluate(z)
        if value == 0.0:
            raise DomainError("factor degenerates at a critical point")
        return FactorReport("riesz-curve", value, 1, True)
    raise InvalidArgumentError("riesz_factor needs a circle or lemniscate")


def bernstein_higher(
    s, point, k: int, density: EquilibriumDensity | None = None, tol: Tolerances = DEFAULT_TOL
) -> FactorReport:
    """k-th derivative pointwise factor: (first-order factor)^k.

    Exact for trigonometric polynomials and on circles; attained only
    asymptotically for k >= 2 on real sets and on lemniscates.  density goes
    to the first-order factor of an interval, arc or periodic set; circles and
    lemniscates build theirs without a solve.
    """
    if not (isinstance(k, int) and k >= 1):
        raise InvalidArgumentError("k must be a positive integer")
    if isinstance(s, IntervalUnion):
        base = bernstein_factor(s, point, density, tol)
        asym = k >= 2
    elif isinstance(s, PeriodicSet):
        base = bernstein_factor_trig(s, point, density, tol)
        asym = False
    elif isinstance(s, ArcUnion):
        base = bernstein_factor_circle_subset(s, point, density, tol)
        asym = True
    elif isinstance(s, (Circle, Lemniscate)):
        base = riesz_factor(s, point, tol)
        asym = base.asymptotic
    else:
        raise InvalidArgumentError("unsupported set for higher-order factor")
    return FactorReport("higher-bernstein", base.value**k, k, asym)


# ---------------------------------------------------------------------------
# endpoint (Markov-type) factors
# ---------------------------------------------------------------------------

def markov_local(e: IntervalUnion, j: int, xi=None) -> FactorReport:
    """2 pi^2 Omega_j^2: the sharp asymptotic second-order degree factor near
    endpoint j of a real set."""
    om = omega_limit(e, j, xi).omega_limit
    return FactorReport("markov-local", _endpoint_factor(2.0, om, 1), 2, True)


def markov_global(e: IntervalUnion, xi=None) -> FactorReport:
    if xi is None:
        xi = solve_xi(e)
    best = max(omega_limit(e, j, xi).omega_limit for j in range(1, 2 * e.m + 1))
    return FactorReport("markov-global", _endpoint_factor(2.0, best, 1), 2, True)


def markov_local_arc(
    a: ArcUnion, j: int, density: EquilibriumDensity | None = None, tol: Tolerances = DEFAULT_TOL
) -> FactorReport:
    om = omega_limit_arc(a, j, density, tol).omega_limit
    return FactorReport("markov-local", _endpoint_factor(2.0, om, 1), 2, True)


def videnskii_markov(beta: float) -> FactorReport:
    """Closed-form trig Markov factor 2 cot(beta/2) on [-beta, beta]."""
    if not 0.0 < beta < math.pi:
        raise InvalidArgumentError("beta must be in (0, pi)")
    return FactorReport("videnskii-markov", 2.0 / math.tan(0.5 * beta), 2, True)


def markov_trig(
    e: PeriodicSet, j: int, density: EquilibriumDensity | None = None, tol: Tolerances = DEFAULT_TOL
) -> FactorReport:
    """8 pi^2 (Omega_j of the circle image)^2 for trigonometric polynomials."""
    om = omega_limit_arc(gamma_of(e), j, density, tol).omega_limit
    return FactorReport("markov-trig", _endpoint_factor(8.0, om, 1), 2, True)


def markov_higher(e: IntervalUnion, j: int, k: int, xi=None) -> FactorReport:
    """2^k pi^{2k} Omega_j^{2k} / (2k-1)!! for the k-th derivative."""
    if not (isinstance(k, int) and k >= 1):
        raise InvalidArgumentError("k must be a positive integer")
    om = omega_limit(e, j, xi).omega_limit
    return FactorReport("higher-markov", _endpoint_factor(2.0, om, k), 2 * k, True)


def markov_arc_endpoint(
    a: ArcUnion, k: int, j: int | None = None, density: EquilibriumDensity | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> FactorReport:
    """Arc version of the higher-order endpoint factor; j=None takes the worst
    endpoint (the global variant).  Closed curves have no endpoints and are
    rejected."""
    if not isinstance(a, ArcUnion):
        raise InvalidArgumentError("endpoint factors need a set with endpoints")
    if not (isinstance(k, int) and k >= 1):
        raise InvalidArgumentError("k must be a positive integer")
    if density is None:
        density = arc_density(a, tol)
    ends = range(1, 2 * a.m + 1) if j is None else (j,)
    om = max(omega_limit_arc(a, jj, density, tol).omega_limit for jj in ends)
    return FactorReport("markov-arc-endpoint", _endpoint_factor(2.0, om, k), 2 * k, True)


def va_markov_exact(n: int, k: int) -> float:
    """Exact k-th derivative sup-norm constant on [-1, 1] at degree n:
    prod_{i<k}(n^2 - i^2) / (2k-1)!!.  Unlike every other factor this is not
    an n -> infinity statement; the value already contains the degree."""
    if not (isinstance(n, int) and isinstance(k, int) and 1 <= k <= n):
        raise InvalidArgumentError("need integers 1 <= k <= n")
    return math.prod(n * n - i * i for i in range(k)) / _double_factorial_odd(k)


# ---------------------------------------------------------------------------
# L2 factors
# ---------------------------------------------------------------------------

def nu_exponent(alpha: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Smallest positive zero of the Bessel function of order (alpha - 1)/2.

    This is the quantity the sharp L2 constants divide by; alpha = 0 gives
    pi/2, alpha = 1 gives the first zero of J_0, alpha = 2 gives pi.
    """
    if alpha <= -1.0:
        raise InvalidArgumentError("exponent must be > -1")
    return bessel_smallest_zero(alpha, tol=tol).zero


def l2_markov_constant(
    e: IntervalUnion, w: Weight | None = None, xi=None, tol: Tolerances = DEFAULT_TOL
) -> FactorReport:
    """max_j pi^2 Omega_j^2 / nu(alpha_j): the sharp asymptotic constant for
    sqrt(lambda_max) / n^2 in the L2 Markov problem with a generalized Jacobi
    weight.  Only the endpoint exponents matter; h does not enter."""
    if w is None:
        w = Weight.unweighted(e)
    w.validate_on(e)
    if xi is None:
        xi = solve_xi(e)
    best = -math.inf
    for j in range(1, 2 * e.m + 1):
        om = omega_limit(e, j, xi).omega_limit
        best = max(best, math.pi**2 * om * om / nu_exponent(w.exponents[j - 1], tol))
    plain = all(a == 0.0 for a in w.exponents) and w.h is None
    kind = "l2-markov" if plain else "l2-markov-weighted"
    return FactorReport(kind, best, 2, True)


def l2_bernstein_jacobi(n: int, alpha: float, beta: float) -> float:
    """Exact constant sqrt(n (n + 1 + alpha + beta)) in the weighted L2
    gradient inequality on [-1, 1]; equality holds for the degree-n Jacobi
    polynomial of the same weight."""
    if not (isinstance(n, int) and n >= 1):
        raise InvalidArgumentError("n must be a positive integer")
    if alpha <= -1.0 or beta <= -1.0:
        raise InvalidArgumentError("Jacobi exponents must be > -1")
    return math.sqrt(n * (n + 1.0 + alpha + beta))
