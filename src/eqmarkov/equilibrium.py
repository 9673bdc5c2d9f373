"""Equilibrium measures: densities, gap points, endpoint limits, certificates.

Representation. On every band (real interval, or circular arc in angle
coordinates) the density is written as

    omega(t) = G(s) / sqrt(1 - s^2),      s = (t - center)/half  in (-1, 1),

with G analytic on the closed band: the inverse-square-root blow-up at the two
band endpoints is explicit and G carries everything else.  Closed-form
densities store G symbolically and also as a Chebyshev expansion; the
collocation oracle produces the Chebyshev coefficients directly.

Log potentials. With G = sum_p c_p T_p(s), every integral of the form
int G(s)/sqrt(1-s^2) * log|x - t(s)| ds reduces to the classical integrals

    int T_p(s) log|sigma - s| / sqrt(1-s^2) ds
        = -pi log 2                     (p = 0, |sigma| <= 1)
        = -pi T_p(sigma)/p              (p >= 1, |sigma| <= 1)
        =  pi log(|zeta|/2)             (p = 0, |sigma| > 1)
        = -pi / (p zeta^p)              (p >= 1, |sigma| > 1)

where zeta is the exterior inverse Joukowski image of sigma.  On the line the
kernel is exactly log(half * |sigma - s|), so potentials are closed-form; on
the circle the kernel log|e^{i a} - e^{i b}| = log|a - b| + log|sinc((a-b)/2)|
leaves an analytic correction that plain Gauss-Chebyshev quadrature handles.
One kernel, `_potential_rows`, turns a band's coefficients into its potential
at any set of points; the Frostman certificate and the collocation solve both
use it, so the equation the oracle solves is the one every density is checked
against.

Certificates. Every constructed density is checked two ways: total mass 1 and
constancy of the log potential over interior probes (Frostman property).  The
mass is pi * sum_k half_k c_{k,0}, the exact integral of the stored expansion.
For the closed forms c_0 is a Gauss-Chebyshev mean of the closed-form G, so
the mass checks the formula; for collocation the mass row imposes it, and the
Frostman check is the one that tests the solve.  One constructor,
`_banded_density`, builds every line and circle density and fills in both
checks; a density that fails either is not returned, the builders raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .config import DEFAULT_TOL, Tolerances
from .errors import DomainError, InvalidArgumentError, NumericFailureError
from .numerics import find_root_bracketed, gauss_chebyshev
from .sets import (
    ArcUnion,
    Circle,
    IntervalUnion,
    Lemniscate,
    SetLike,
    wrap_angle,
    wrap_angles,
)

__all__ = [
    "EndpointData",
    "EquilibriumDensity",
    "arc_density",
    "circle_density",
    "collocation_density",
    "density_arc",
    "density_circle",
    "density_intervals",
    "density_lemniscate",
    "frostman_check",
    "frostman_profile",
    "interval_density",
    "lemniscate_density",
    "omega_limit",
    "omega_limit_arc",
    "omega_limit_extrapolated",
    "solve_xi",
]


# fixed design constants (see the list in `config`)
_QUAD_INITIAL_POINTS = 64
_QUAD_MAX_POINTS = 4096
_QUAD_REL = 1e-12
_BAND_EXPANSION_DEGREE = 64
_XI_GAP_RESIDUAL = 1e-11
_MASS_TOL = 1e-8
_FROSTMAN_SPREAD = 1e-6
_FROSTMAN_BUFFER_REL = 1e-3
_COLLOCATION_COND_MAX = 1e12
_OMEGA_EXTRAPOLATION = 1e-6
_EXTRAPOLATION_CHORDS = (1e-2, 1e-3, 1e-4, 1e-5)


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

def _sqrt_weight_integral(g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float | np.ndarray:
    """int_lo^hi g(u)/sqrt((u-lo)(hi-u)) du for analytic g.

    With u = c + r x this is int_{-1}^{1} g(c + r x)/sqrt(1-x^2) dx, which the
    n-point Gauss-Chebyshev rule integrates as the equal-weight midpoint sum
    of the periodic integrand g(c + r cos s), geometrically convergent for
    analytic g (Trefethen & Weideman, SIAM Review 2014).  The rule's nodes are
    exactly antisymmetric, so symmetric sets cancel odd integrands in floating
    point.  Doubling from _QUAD_INITIAL_POINTS until the value moves by less
    than _QUAD_REL * max(1, |value|).

    g may return a stack of rows, one integrand per row: the result is then
    the array of their integrals, and the doubling stops only when every
    component has settled.  A scalar integrand gives a float.
    """
    c = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    n = _QUAD_INITIAL_POINTS
    prev = None
    while n <= _QUAD_MAX_POINTS:
        rule = gauss_chebyshev(n)
        val = np.asarray(g(c + r * rule.nodes), dtype=float) @ rule.weights
        if prev is not None and np.all(abs(val - prev) < _QUAD_REL * np.maximum(1.0, abs(val))):
            return float(val) if val.ndim == 0 else val
        prev = val
        n *= 2
    raise NumericFailureError("singular band quadrature did not converge")


def _cheb_log_integrals(sigma: np.ndarray, pmax: int) -> np.ndarray:
    """Rows I_p = int T_p(s) log|sigma - s| / sqrt(1-s^2) ds, p = 0..pmax,
    one row per entry of sigma."""
    sigma = np.asarray(sigma, dtype=float)
    out = np.empty((sigma.size, pmax + 1))
    p = np.arange(1, pmax + 1, dtype=float)
    inside = np.abs(sigma) <= 1.0
    theta = np.arccos(np.clip(sigma[inside], -1.0, 1.0))
    out[inside, 0] = -math.pi * math.log(2.0)
    out[inside, 1:] = -math.pi * np.cos(np.outer(theta, p)) / p
    s_out = sigma[~inside]
    a = np.abs(s_out)
    # sigma^2 - 1 as (|sigma| - 1)(|sigma| + 1): the first factor is exact
    # near the band ends, where sigma^2 - 1 would cancel
    zeta = np.copysign(a + np.sqrt((a - 1.0) * (a + 1.0)), s_out)
    out[~inside, 0] = math.pi * np.log(0.5 * np.abs(zeta))
    inv = np.broadcast_to(1.0 / zeta[:, None], (zeta.size, pmax))
    out[~inside, 1:] = -math.pi * np.cumprod(inv, axis=1) / p
    return out


def _cheb_coeffs_of(g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Chebyshev expansion of an analytic function, degree doubled until the
    tail is at machine level (relative 1e-13)."""
    deg = _BAND_EXPANSION_DEGREE
    while True:
        coeffs = _cheb.chebinterpolate(g, deg)
        scale = float(np.max(np.abs(coeffs)))
        if scale == 0.0:
            return coeffs
        if float(np.max(np.abs(coeffs[-4:]))) <= 1e-13 * scale or deg >= 8 * _BAND_EXPANSION_DEGREE:
            return coeffs
        deg *= 2


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointData:
    """Endpoint limit Omega_j = lim sqrt(dist) * density along the set."""

    omega_limit: float

    def __post_init__(self):
        if not (np.isfinite(self.omega_limit) and self.omega_limit > 0):
            raise NumericFailureError("endpoint limit must be finite and positive")


@dataclass(frozen=True)
class _Band:
    center: float
    half: float
    coeffs: np.ndarray          # Chebyshev coefficients of the regular part G


@dataclass(frozen=True)
class EquilibriumDensity:
    """Equilibrium density of a set, with its correctness certificates.

    `geometry` is 'line' (interval unions), 'circle' (arc unions, evaluate
    takes an angle), 'constant' (circles) or 'level-set' (lemniscates,
    evaluate takes a complex point).  `xi` is populated only by the
    closed-form interval route.  Line and circle densities also evaluate an
    array of points at once.
    """

    set: SetLike
    geometry: str
    xi: tuple[float, ...]
    mass: float
    frostman_spread: float
    method: str
    bands: tuple[_Band, ...] = field(repr=False, default=())
    _eval: Callable = field(repr=False, default=None, compare=False)
    _eval_array: Callable | None = field(repr=False, default=None, compare=False)

    def evaluate(self, point):
        """Density at a point: real t (line), angle (circle), complex z.

        An array (or list) of points gives an array of densities, on line
        and circle geometries only; DomainError if any point is not interior.
        """
        if isinstance(point, (np.ndarray, list, tuple)) and np.ndim(point) > 0:
            if self._eval_array is None:
                raise InvalidArgumentError(f"{self.geometry} densities take one point at a time")
            return self._eval_array(np.asarray(point, dtype=float))
        return self._eval(point)

    @property
    def spans(self) -> tuple[tuple[float, float], ...]:
        """(lo, hi) per band: t on the line, angle on the circle; () otherwise."""
        if self.geometry == "line":
            return self.set.bands
        if self.geometry == "circle":
            return self.set.arcs
        return ()


def _band_index(t: np.ndarray, spans) -> np.ndarray:
    """Index of the span whose interior holds each point; DomainError if a
    point (or a NaN) lies in none."""
    index = np.full(t.shape, -1)
    for k, (lo, hi) in enumerate(spans):
        index[(lo < t) & (t < hi)] = k
    if np.any(index < 0):
        raise DomainError("density needs interior points")
    return index


# ---------------------------------------------------------------------------
# gap points (interval unions)
# ---------------------------------------------------------------------------

def solve_xi(e: IntervalUnion) -> list[float]:
    """Gap points xi_1 < ... < xi_{m-1}: one in each gap of E.

    The defining conditions (each gap integral of the monic gap polynomial
    against the endpoint weight vanishes) are linear in the polynomial's
    coefficients, so they are assembled as an (m-1)x(m-1) moment system and
    solved directly; the xi are then the bracketed roots of that polynomial,
    one per gap.
    """
    m = e.m
    if m == 1:
        return []
    npoly = m - 1
    # 1/sqrt(prod |u - a|) on a gap is analytic over the endpoints that do
    # not bound it; the cosine substitution absorbs the gap's own two
    others = [e.endpoints[: 2 * j + 1] + e.endpoints[2 * j + 3 :] for j in range(npoly)]
    powers = np.arange(npoly + 1)[:, None]
    moments = np.empty((npoly, npoly + 1))
    for j, (glo, ghi) in enumerate(e.gaps):
        moments[j] = _sqrt_weight_integral(
            lambda u: u**powers * _gap_quotient(u, (), others[j], 1.0), glo, ghi
        )
    a = moments[:, :npoly]
    rhs = -moments[:, npoly]
    if np.linalg.cond(a) > 1e12:
        raise NumericFailureError("gap moment system is numerically singular")
    coeffs = np.linalg.solve(a, rhs)
    poly = np.concatenate([coeffs, [1.0]])

    xi = []
    for j, (glo, ghi) in enumerate(e.gaps):
        qlo = float(np.polynomial.polynomial.polyval(glo, poly))
        qhi = float(np.polynomial.polynomial.polyval(ghi, poly))
        if qlo == 0.0 or qhi == 0.0 or qlo * qhi > 0:
            raise NumericFailureError(
                f"gap polynomial does not change sign across gap {j + 1}; "
                "root left its gap"
            )
        root = find_root_bracketed(lambda u: float(np.polynomial.polynomial.polyval(u, poly)), glo, ghi)
        if not glo < root < ghi:
            raise NumericFailureError(f"xi escaped gap {j + 1}")
        xi.append(root)

    # re-verify the defining conditions with the factored polynomial
    diam = max(1.0, e.endpoints[-1] - e.endpoints[0])
    for j, (glo, ghi) in enumerate(e.gaps):
        def integrand(u):
            q = np.ones_like(u)
            for x0 in xi:
                q = q * (u - x0)
            return q * _gap_quotient(u, (), others[j], 1.0)

        residual = abs(_sqrt_weight_integral(integrand, glo, ghi))
        if residual > _XI_GAP_RESIDUAL * diam:
            raise NumericFailureError(
                f"gap condition residual {residual:.3e} in gap {j + 1}"
            )
    return xi


# ---------------------------------------------------------------------------
# pointwise density formulas
# ---------------------------------------------------------------------------

_NOT_FINITE = "density or endpoint limit is not finite: a product of distances under- or overflows"


def _gap_quotient(t, xi: Sequence[float], roots: Sequence[float], scale: float = math.pi):
    """prod |t - xi_i| / (scale sqrt(prod |t - a|)) over the given roots a,
    for a float t or an array, by the same products in the same order.  A
    float quotient that is not finite raises NumericFailureError."""
    array = isinstance(t, np.ndarray)
    num = den = np.ones_like(t) if array else 1.0
    for x0 in xi:
        num = num * abs(t - x0)
    for a in roots:
        den = den * abs(t - a)
    if array:
        return num / (scale * np.sqrt(den))
    root = scale * math.sqrt(den)
    value = num / root if root else math.inf
    if not value < math.inf:            # also NaN
        raise NumericFailureError(_NOT_FINITE)
    return value


def density_intervals(e: IntervalUnion, xi: Sequence[float], t: float) -> float:
    """Density of an interval union at an interior point."""
    loc = e.locate(t)
    if loc.kind != "interior":
        raise DomainError(f"density needs an interior point, got {loc.kind}")
    return _gap_quotient(t, xi, e.endpoints)


def density_arc(beta: float, t: float) -> float:
    """Density (per arc length) of the arc {e^{is}: |s| <= beta} at angle t."""
    if not 0.0 < beta < math.pi:
        raise InvalidArgumentError("beta must be in (0, pi)")
    if not abs(t) < beta:
        raise DomainError("angle outside the open arc")
    # sin^2(b/2) - sin^2(t/2) = sin((b-t)/2) sin((b+t)/2), cancellation-free
    den = math.sin(0.5 * (beta - t)) * math.sin(0.5 * (beta + t))
    return math.cos(0.5 * t) / (2.0 * math.pi * math.sqrt(den))


def density_circle(c: Circle) -> float:
    return 1.0 / (2.0 * math.pi * c.radius)


def density_lemniscate(lem: Lemniscate, z: complex) -> float:
    """Density on |T(z)| = 1 per arc length: |T'(z)| / (2 pi N)."""
    if not lem.on_curve(z):
        raise DomainError("point is not on the lemniscate")
    return abs(lem.derivative_value(z)) / (2.0 * math.pi * lem.degree)


# ---------------------------------------------------------------------------
# endpoint limits
# ---------------------------------------------------------------------------

def omega_limit(e: IntervalUnion, j: int, xi: Sequence[float] | None = None) -> EndpointData:
    """Closed-form limit of sqrt|t - a_j| * density at endpoint j (1-based)."""
    if not 1 <= j <= 2 * e.m:
        raise InvalidArgumentError(f"endpoint index {j} out of range")
    if xi is None:
        xi = solve_xi(e)
    others = e.endpoints[: j - 1] + e.endpoints[j:]
    return EndpointData(_gap_quotient(e.endpoints[j - 1], xi, others))


def _neville_richardson(values: Sequence[float], ratio: float) -> tuple[float, float]:
    """Eliminate powers d, d^2, ... from f(d_i) with d_{i+1} = d_i / ratio.

    Returns (extrapolated value, error estimate)."""
    col = list(values)
    last_penultimate = col[-1]
    for k in range(1, len(values)):
        rk = ratio**k
        col = [(rk * col[i + 1] - col[i]) / (rk - 1.0) for i in range(len(col) - 1)]
        if len(col) >= 2:
            last_penultimate = col[-1]
    return col[0], abs(col[0] - last_penultimate)


def omega_limit_extrapolated(d: EquilibriumDensity, j: int) -> EndpointData:
    """Omega_j from the density alone: Richardson extrapolation of
    sqrt(dist) * omega over distances 1e-2 .. 1e-5 approaching endpoint j.

    Distance is |t - a_j| on the line and chordal |z - A_j| on the circle.
    """
    spans = d.spans
    if not spans:
        raise InvalidArgumentError("endpoint limits need a line or circle density")
    if not 1 <= j <= 2 * len(spans):
        raise InvalidArgumentError(f"endpoint index {j} out of range")
    band, end = divmod(j - 1, 2)
    lo, hi = spans[band]
    a, side = (lo, "left") if end == 0 else (hi, "right")

    def offset(dist):
        # on the circle, chord d corresponds to angular offset 2 asin(d/2)
        return 2.0 * math.asin(0.5 * dist) if d.geometry == "circle" else dist

    length = hi - lo
    dists = np.asarray(_EXTRAPOLATION_CHORDS)
    if offset(dists[0]) >= 0.25 * length:
        dists = dists * (0.25 * length / offset(dists[0]))
    fvals = []
    for dist in dists:
        t = a + offset(dist) if side == "left" else a - offset(dist)
        fvals.append(math.sqrt(dist) * d.evaluate(t))
    value, err = _neville_richardson(fvals, 10.0)
    if not err < _OMEGA_EXTRAPOLATION:
        raise NumericFailureError(
            f"endpoint extrapolation not converging (error estimate {err:.2e})"
        )
    return EndpointData(value)


def omega_limit_arc(
    a: ArcUnion,
    j: int,
    density: EquilibriumDensity | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> EndpointData:
    """Omega_j on an arc union (chordal normalization)."""
    if density is None:
        density = arc_density(a, tol)
    return omega_limit_extrapolated(density, j)


# ---------------------------------------------------------------------------
# density builders
# ---------------------------------------------------------------------------

def _interval_regular(e: IntervalUnion, xi: Sequence[float], k: int) -> Callable:
    lo, hi = e.bands[k]
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    others = [a for i, a in enumerate(e.endpoints) if i not in (2 * k, 2 * k + 1)]

    def g(s):
        return _gap_quotient(c + r * np.asarray(s, dtype=float), xi, others, math.pi * r)

    return g


def _band_mass(bands: tuple[_Band, ...]) -> float:
    """Total mass pi * sum_k half_k * c_{k,0}.

    The band integral of G(s)/sqrt(1-s^2) is pi times the constant Chebyshev
    coefficient of G, and the Gauss-Chebyshev doubling this replaces could
    only return that: an n-point rule integrates T_p exactly unless p is a
    nonzero multiple of 2n.  The certificate is not empty for the closed
    forms, whose c_0 is the (deg+1)-point Gauss-Chebyshev mean of the
    closed-form G.  For collocation the mass row makes it 1 by construction.
    """
    return math.pi * sum(b.half * float(b.coeffs[0]) for b in bands)


_ARC_QUAD_POINTS = 256


def _potential_rows(lo: float, hi: float, deg: int, points: np.ndarray, circle: bool) -> np.ndarray:
    """Matrix L, one row per point, such that L @ coeffs is the log potential
    at `points` of the band [lo, hi] carrying G(s)/sqrt(1-s^2) with
    G = sum_p coeffs[p] T_p (p = 0..deg).

    On the line the kernel is log(half |sigma - s|), all in closed form.  On
    the circle, points on the band (|sigma| <= 1) add the analytic correction
    log|sinc| by Gauss-Chebyshev quadrature; points off the band integrate
    the chordal kernel log(2|sin(delta/2)|) by the same rule.
    """
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    sigma = (points - center) / half
    rows = np.zeros((points.size, deg + 1))
    near = np.abs(sigma) <= 1.0 + 1e-12 if circle else np.ones(points.size, dtype=bool)
    rows[near] = _cheb_log_integrals(sigma[near], deg)
    rows[near, 0] += math.pi * math.log(half)
    if circle:
        rule = gauss_chebyshev(_ARC_QUAD_POINTS)
        tmat = _cheb.chebvander(rule.nodes, deg) * (math.pi / _ARC_QUAD_POINTS)
        nodes = center + half * rule.nodes
        delta = points[near, None] - nodes
        rows[near] += np.log(np.abs(np.sinc(delta / (2.0 * math.pi)))) @ tmat
        delta = points[~near, None] - nodes
        rows[~near] = np.log(2.0 * np.abs(np.sin(0.5 * delta))) @ tmat
    return -half * rows


def frostman_profile(d: EquilibriumDensity, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Log potential U(x) = int log(1/|x-t|) dmu(t) on interior probe points,
    tol.frostman_probes_per_band per band."""
    probes = tol.frostman_probes_per_band
    if probes < 3:
        raise InvalidArgumentError("need at least 3 probes per band")
    spans = d.spans
    if not spans:
        raise InvalidArgumentError("Frostman probing needs a line or circle density")
    points = []
    for lo, hi in spans:
        buf = _FROSTMAN_BUFFER_REL * (hi - lo)
        points.append(np.linspace(lo + buf, hi - buf, probes))
    points = np.concatenate(points)
    circle = d.geometry == "circle"
    values = sum(
        _potential_rows(lo, hi, b.coeffs.size - 1, points, circle) @ b.coeffs
        for b, (lo, hi) in zip(d.bands, spans)
    )
    return points, values


def frostman_check(d: EquilibriumDensity, tol: Tolerances = DEFAULT_TOL) -> float:
    """Max - min of the log potential over probe points (ideally 0)."""
    _, values = frostman_profile(d, tol)
    return float(np.max(values) - np.min(values))


def _banded_density(s, geometry, coeffs, xi, method, evaluate, evaluate_array, tol):
    """The line or circle density of s whose k-th band carries the regular
    part sum_p coeffs[k][p] T_p over the k-th span of s; its mass and
    Frostman spread are filled in and enforced."""
    spans = s.bands if geometry == "line" else s.arcs
    bands = tuple([_Band(0.5 * (lo + hi), 0.5 * (hi - lo), c) for (lo, hi), c in zip(spans, coeffs)])
    d = EquilibriumDensity(
        set=s, geometry=geometry, xi=tuple(xi), mass=_band_mass(bands),
        frostman_spread=math.nan, method=method, bands=bands, _eval=evaluate,
        _eval_array=evaluate_array,
    )
    # the spread is measured on the finished record, so it is filled in by copy
    d = replace(d, frostman_spread=frostman_check(d, tol=tol))
    _validate_density(d)
    return d


def interval_density(e: IntervalUnion, tol: Tolerances = DEFAULT_TOL) -> EquilibriumDensity:
    """Closed-form density of an interval union (the xi route)."""
    xi = solve_xi(e)
    coeffs = [_cheb_coeffs_of(_interval_regular(e, xi, k)) for k in range(e.m)]

    def evaluate(t: float) -> float:
        return density_intervals(e, xi, t)

    def evaluate_array(t: np.ndarray) -> np.ndarray:
        _band_index(t, e.bands)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = _gap_quotient(t, xi, e.endpoints)
        if not np.all(np.isfinite(values)):
            raise NumericFailureError(_NOT_FINITE)
        return values

    return _banded_density(e, "line", coeffs, xi, "closed-form", evaluate, evaluate_array, tol)


def _validate_density(d: EquilibriumDensity) -> None:
    if abs(d.mass - 1.0) > _MASS_TOL:
        raise NumericFailureError(f"density mass {d.mass!r} is not 1 within {_MASS_TOL}")
    if not d.frostman_spread <= _FROSTMAN_SPREAD:
        raise NumericFailureError(
            f"log potential not constant: spread {d.frostman_spread:.3e}"
        )


def arc_density(a: ArcUnion, tol: Tolerances = DEFAULT_TOL) -> EquilibriumDensity:
    """Density of an arc union: closed form for one arc, collocation otherwise."""
    if a.m > 1:
        return collocation_density(a, tol)
    lo, hi = a.arcs[0]
    center = 0.5 * (lo + hi)
    beta = 0.5 * (hi - lo)

    def g(s):
        s = np.asarray(s, dtype=float)
        h1 = 0.5 * beta * np.sinc(beta * (1.0 - s) / (2.0 * math.pi))
        h2 = 0.5 * beta * np.sinc(beta * (1.0 + s) / (2.0 * math.pi))
        return np.cos(0.5 * beta * s) / (2.0 * math.pi * np.sqrt(h1 * h2))

    coeffs = _cheb_coeffs_of(g)

    def evaluate(theta: float) -> float:
        t = wrap_angle(theta - center)
        return density_arc(beta, t)

    def evaluate_array(theta: np.ndarray) -> np.ndarray:
        t = wrap_angles(theta - center)
        _band_index(t, ((-beta, beta),))
        den = np.sin(0.5 * (beta - t)) * np.sin(0.5 * (beta + t))
        return np.cos(0.5 * t) / (2.0 * math.pi * np.sqrt(den))

    return _banded_density(a, "circle", [coeffs], (), "closed-form", evaluate, evaluate_array, tol)


def circle_density(c: Circle, tol: Tolerances = DEFAULT_TOL) -> EquilibriumDensity:
    """Uniform density on a circle; potential constancy holds by symmetry."""
    value = density_circle(c)

    def evaluate(z) -> float:
        if not c.on_curve(complex(z), tol.point_on_set):
            raise DomainError("point is not on the circle")
        return value

    return EquilibriumDensity(
        set=c, geometry="constant", xi=(), mass=1.0, frostman_spread=0.0,
        method="closed-form", bands=(), _eval=evaluate,
    )


def lemniscate_density(lem: Lemniscate) -> EquilibriumDensity:
    """Density on |T(z)| = 1; the potential is -log|T|/N + const, constant on
    the curve by construction, so no numeric Frostman check is run."""

    def evaluate(z) -> float:
        return density_lemniscate(lem, complex(z))

    return EquilibriumDensity(
        set=lem, geometry="level-set", xi=(), mass=1.0, frostman_spread=0.0,
        method="closed-form", bands=(), _eval=evaluate,
    )


# ---------------------------------------------------------------------------
# collocation oracle
# ---------------------------------------------------------------------------

def collocation_density(s: IntervalUnion | ArcUnion, tol: Tolerances = DEFAULT_TOL) -> EquilibriumDensity:
    """Independent equilibrium solver: no gap points, no density formulas.

    Unknowns are the Chebyshev coefficients of the regular part on every band
    plus the (unknown) constant value of the potential; equations are
    potential constancy at interior Chebyshev collocation points and total
    mass 1.  A failure at tol.collocation_degree (an ill-conditioned matrix
    or a rejected mass or Frostman certificate) triggers one degree doubling,
    then a hard failure.
    """
    if isinstance(s, IntervalUnion):
        geometry = "line"
        band_spans = s.bands
    elif isinstance(s, ArcUnion):
        geometry = "circle"
        band_spans = s.arcs
    else:
        raise InvalidArgumentError("collocation needs an interval or arc union")
    if len(band_spans) > 8:
        raise InvalidArgumentError("collocation limited to 8 bands")

    try:
        return _collocation_at(s, band_spans, geometry, tol.collocation_degree, tol)
    except NumericFailureError:
        return _collocation_at(s, band_spans, geometry, 2 * tol.collocation_degree, tol)


def _collocation_at(s, band_spans, geometry: str, deg: int, tol: Tolerances) -> EquilibriumDensity:
    """The certified collocation density of one degree."""
    matrix, rhs, cond = _collocation_system(band_spans, geometry, deg)
    if cond > _COLLOCATION_COND_MAX:
        raise NumericFailureError(
            f"collocation matrix ill-conditioned (estimate {cond:.2e}); "
            "try larger degree or fewer bands"
        )
    solution = np.linalg.solve(matrix, rhs)

    per = deg + 1
    coeffs = [solution[k * per : (k + 1) * per].copy() for k in range(len(band_spans))]

    def evaluate(point: float) -> float:
        t = wrap_angle(point) if geometry == "circle" else point
        for c, (lo, hi) in zip(coeffs, band_spans):
            if lo < t < hi:
                sig = (t - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
                return float(_cheb.chebval(sig, c) / math.sqrt(1.0 - sig * sig))
        raise DomainError("density evaluation needs an interior point")

    def evaluate_array(points: np.ndarray) -> np.ndarray:
        t = wrap_angles(points) if geometry == "circle" else points
        index = _band_index(t, band_spans)
        out = np.empty(t.shape)
        for k, (c, (lo, hi)) in enumerate(zip(coeffs, band_spans)):
            sig = (t[index == k] - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
            out[index == k] = _cheb.chebval(sig, c) / np.sqrt(1.0 - sig * sig)
        return out

    return _banded_density(s, geometry, coeffs, (), "collocation", evaluate, evaluate_array, tol)


def _collocation_system(band_spans, geometry: str, deg: int):
    per = deg + 1
    size = len(band_spans) * per + 1
    halves = np.array([0.5 * (hi - lo) for lo, hi in band_spans])
    # first-kind Chebyshev collocation points per band (strictly interior)
    q = np.arange(per)
    s_colloc = np.cos((2 * q + 1) * np.pi / (2.0 * per))
    points = np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * s_colloc for lo, hi in band_spans])

    matrix = np.zeros((size, size))
    matrix[:-1, :-1] = np.hstack([
        _potential_rows(lo, hi, deg, points, geometry == "circle") for lo, hi in band_spans
    ])
    matrix[:-1, -1] = -1.0      # unknown potential constant
    # mass row: int G_k/sqrt(1-s^2) * half_k ds = pi * half_k * c_{k,0}
    matrix[-1, :-1:per] = math.pi * halves
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    cond = float(np.linalg.cond(matrix))
    return matrix, rhs, cond
