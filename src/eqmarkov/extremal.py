"""Brute-force extremal constants: LP sup-norm problems and L2 eigenproblems.

Nothing here uses the closed-form factors.  Both sup-norm oracles share one
exact kernel: the sup of |P| over a union of bands is the largest |P| at the
band ends and at the critical points of P inside the bands, found as the roots
of P' (colleague matrix) or, for trigonometric polynomials, as the unimodular
roots of a degree-2n polynomial in z = e^{it}.

Sup-norm extremal problems are semi-infinite linear programs solved by an
exchange method: start from a small Chebyshev-spaced constraint grid, solve
one LP (the feasible set is symmetric, so one sign suffices), take the
witness's exact sup norm, and add every critical point where |P| pokes above 1
as a new constraint until the norm is certified to 1 + cert_slack.  The
reported value therefore brackets the true extremum within that slack from
above.  L2 problems become generalized eigenproblems for the pencil (A, B) of
derivative and plain Gram matrices assembled with per-band Gauss-Jacobi rules
that absorb the weight's endpoint exponents exactly; the pencil is solved from
row factors of A and B so basis conditioning enters only through its square
root.

verify_inequality is the falsification harness: it throws seeded random
polynomials at every non-asymptotic inequality in the catalog and reports any
ratio that exceeds 1 beyond floating-point slack.  Every norm in a ratio is
the exact kernel's, so an undersampled norm can never manufacture a spurious
violation; pointwise left-hand sides are sampled on fixed probe points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from .config import DEFAULT_TOL, Tolerances
from .equilibrium import arc_density, interval_density, solve_xi
from .errors import (
    DomainError,
    InvalidArgumentError,
    NumericFailureError,
    ResourceLimitError,
)
from .factors import Weight, va_markov_exact, videnskii_pointwise, videnskii_markov
from .numerics import golub_welsch, jacobi_recurrence, simplex_solve
from .sets import IntervalUnion, PeriodicSet, gamma_of

__all__ = [
    "BASIS_KINDS",
    "ExtremalResult",
    "L2_MODES",
    "PolyBasis",
    "VERIFY_INEQUALITIES",
    "VerifyReport",
    "VidenskiiReport",
    "l2_ratio_numeric",
    "markov_constant_numeric",
    "pointwise_derivative_sup",
    "verify_inequality",
    "videnskii_check",
]

BASIS_KINDS = ("algebraic-chebyshev", "trigonometric")
L2_MODES = ("markov", "gradient-bernstein", "omega-bernstein")


def __getattr__(name: str):
    # Nothing here calls scipy's minimize_scalar, but perfbench/spans.py
    # traces it by this name; importing it on access keeps scipy.optimize
    # out of every other import of this module.
    if name == "minimize_scalar":
        from scipy.optimize import minimize_scalar

        return minimize_scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class PolyBasis:
    """Evaluation basis for the LP problems.

    algebraic-chebyshev: T_0..T_n of the reference interval (conditioning is
    what the reference interval is for; span is all polynomials of degree n).
    trigonometric: 1, cos t, sin t, ..., cos nt, sin nt.
    """

    kind: str
    degree: int
    reference: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise InvalidArgumentError(f"unknown basis kind {self.kind!r}")
        if not (isinstance(self.degree, int) and self.degree >= 1):
            raise InvalidArgumentError("degree must be a positive integer")
        lo, hi = self.reference
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise InvalidArgumentError("bad reference interval")

    @property
    def dim(self) -> int:
        return self.degree + 1 if self.kind == "algebraic-chebyshev" else 2 * self.degree + 1

    def design_matrix(self, points, deriv: int = 0) -> np.ndarray:
        """(len(points), dim) matrix of the deriv-th basis derivatives."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        if self.kind == "algebraic-chebyshev":
            lo, hi = self.reference
            c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
            s = (pts - c) / r
            coeffs = np.eye(self.degree + 1)
            if deriv:
                coeffs = _cheb.chebder(coeffs, deriv, axis=0)
                if coeffs.shape[0] == 0:
                    return np.zeros((pts.size, self.dim))
            return _cheb.chebval(s, coeffs).T * r ** (-deriv)
        cols = [np.full(pts.size, 1.0 if deriv == 0 else 0.0)]
        shift = 0.5 * math.pi * deriv
        for j in range(1, self.degree + 1):
            amp = float(j) ** deriv
            cols.append(amp * np.cos(j * pts + shift))
            cols.append(amp * np.sin(j * pts + shift))
        return np.stack(cols, axis=1)


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of one sup-norm extremal problem, with its certificate."""

    value: float
    coefficients: tuple[float, ...]
    grid: tuple[float, ...]
    refinements: int
    certified_norm: float
    degree: int
    order: int
    l_n: float | None = None
    cert_slack: float = DEFAULT_TOL.cert_slack

    def __post_init__(self):
        if not self.certified_norm <= 1.0 + self.cert_slack:
            raise NumericFailureError(
                f"uncertified extremal result (norm {self.certified_norm!r})"
            )


def _bands_of(domain) -> tuple[tuple[float, float], ...]:
    if isinstance(domain, IntervalUnion):
        return domain.bands
    if isinstance(domain, PeriodicSet):
        return domain.base.bands
    raise InvalidArgumentError("need an interval union or a periodic set")


def _check_pairing(domain, basis: PolyBasis) -> None:
    algebraic = isinstance(domain, IntervalUnion)
    if algebraic != (basis.kind == "algebraic-chebyshev"):
        raise InvalidArgumentError(
            "algebraic basis goes with interval unions, trigonometric with periodic sets"
        )


def _chebyshev_spaced(bands, per_band: int) -> np.ndarray:
    pieces = []
    for lo, hi in bands:
        c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pieces.append(c + r * np.cos(np.linspace(math.pi, 0.0, per_band)))
    return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# exact sup norm of a coefficient vector
# ---------------------------------------------------------------------------

def _derivative(basis: PolyBasis, coeffs: np.ndarray, k: int) -> np.ndarray:
    """Coefficient vector of P^(k) in the same basis."""
    if basis.kind == "algebraic-chebyshev":
        lo, hi = basis.reference
        out = np.zeros(basis.dim)
        der = _cheb.chebder(coeffs, k) * (0.5 * (hi - lo)) ** (-k)
        out[: der.size] = der
        return out
    out = np.array(coeffs, dtype=float)
    out[0] = 0.0
    j = np.arange(1, basis.degree + 1)
    for _ in range(k):          # (a cos jt + b sin jt)' = j b cos jt - j a sin jt
        out[1::2], out[2::2] = j * out[2::2], -j * out[1::2]
    return out


def _abs_extrema(basis: PolyBasis, coeffs: np.ndarray, bands) -> tuple[np.ndarray, np.ndarray]:
    """Every point where |P| can attain its maximum over the bands, and |P| there.

    These are the band ends and the critical points of P inside each band, so
    the largest value is the exact sup norm.  Critical points are the real
    roots of P' (colleague matrix) for the algebraic basis, and for the
    trigonometric basis the unimodular roots of z^n P'(t), a polynomial of
    degree 2n in z = e^{it}.  Every root is projected onto the line or circle
    and kept if it falls in a band: a true critical point may come back from
    the eigensolver slightly complex or slightly off the circle, and an extra
    candidate is a point of the set, so it can only raise the maximum.
    """
    deriv = _derivative(basis, coeffs, 1)
    pieces = []
    if basis.kind == "algebraic-chebyshev":
        ref_lo, ref_hi = basis.reference
        crit = 0.5 * (ref_lo + ref_hi) + 0.5 * (ref_hi - ref_lo) * _cheb.chebroots(deriv).real
        for lo, hi in bands:
            pieces.append(np.concatenate(([lo, hi], crit[(crit > lo) & (crit < hi)])))
    else:
        n = basis.degree
        zcoeffs = np.empty(2 * n + 1, dtype=complex)    # powers z^0 .. z^2n of z^n P'
        zcoeffs[n] = deriv[0]
        zcoeffs[n + 1 :] = 0.5 * (deriv[1::2] - 1j * deriv[2::2])
        zcoeffs[:n] = np.conj(zcoeffs[n + 1 :])[::-1]
        crit = np.angle(_poly.polyroots(zcoeffs))
        for lo, hi in bands:
            shifted = lo + np.mod(crit - lo, 2.0 * math.pi)   # bands may wrap past +-pi
            pieces.append(np.concatenate(([lo, hi], shifted[shifted < hi])))
    points = np.concatenate(pieces)
    return points, np.abs(basis.design_matrix(points) @ coeffs)


def _sup_norm(basis: PolyBasis, coeffs: np.ndarray, bands) -> float:
    return float(np.max(_abs_extrema(basis, coeffs, bands)[1]))


def _circle_norm(coeffs: np.ndarray) -> float:
    """max |P(z)| on |z| = 1 for real power coefficients of P.

    |P(e^{it})|^2 = rho_0 + 2 sum_m rho_m cos(mt), with rho the
    autocorrelation of the coefficients: a trigonometric polynomial of the
    same degree, so the trigonometric kernel serves it.
    """
    n = len(coeffs) - 1
    rho = np.correlate(coeffs, coeffs, "full")[n:]
    square = np.zeros(2 * n + 1)
    square[0] = rho[0]
    square[1::2] = 2.0 * rho[1:]
    return math.sqrt(_sup_norm(PolyBasis("trigonometric", n), square, ((-math.pi, math.pi),)))


# ---------------------------------------------------------------------------
# sup-norm LPs
# ---------------------------------------------------------------------------

class _CuttingPlaneLP:
    """The constraints |P| <= 1 at finitely many points of the set.

    The LP is solved in QR-orthonormalized coordinates: the extremal
    polynomial is representation-free, and on short arcs or gapped sets the
    raw coefficient basis can be so skewed that no vertex meets the
    feasibility certificate.  Witness coefficients are mapped back and
    re-checked against the original objective row.  Cutting planes only ever
    add points of the set, so each row is valid for every objective, and a
    Markov sweep solves all its candidates on one growing constraint set.
    """

    def __init__(self, domain, basis: PolyBasis, tol: Tolerances):
        if basis.dim > tol.lp_max_variables:
            raise ResourceLimitError(
                f"basis dimension {basis.dim} exceeds the LP limit of {tol.lp_max_variables}"
            )
        self.basis, self.tol = basis, tol
        self.bands = _bands_of(domain)
        per = tol.grid_per_degree * basis.degree
        if 2 * len(self.bands) * per > tol.lp_max_constraints:
            raise ResourceLimitError("initial constraint grid exceeds the LP limit")
        self.grid = _chebyshev_spaced(self.bands, per)
        v_start = basis.design_matrix(self.grid)
        if np.linalg.cond(v_start) > tol.basis_cond_max:
            raise NumericFailureError("basis is ill-conditioned on the constraint grid")
        self.rows, self.r_fac = np.linalg.qr(v_start)

    def _to_working(self, mat: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.r_fac.T, mat.T).T

    def solve(self, x0: float, k: int) -> ExtremalResult:
        """sup |P^(k)(x0)| subject to |P| <= 1 on the set, certified exactly.

        The feasible set is centrally symmetric, so max c.x = max |c.x| and
        one LP per round suffices.  Each round certifies the witness's exact
        sup norm and adds every critical point above 1 as a cutting plane.
        """
        basis, tol = self.basis, self.tol
        objective = basis.design_matrix([x0], deriv=k)[0]
        objective_w = self._to_working(objective[None, :])[0]
        refinements = 0
        while True:
            if 2 * self.rows.shape[0] > tol.lp_max_constraints:
                raise ResourceLimitError("constraint grid exceeded the LP limit")
            lhs = np.vstack([self.rows, -self.rows])
            lp = simplex_solve(objective_w, lhs, np.ones(lhs.shape[0]), tol=tol)
            if lp.status == "iteration-limit":
                raise ResourceLimitError("LP iteration limit reached")
            if lp.status != "optimal":
                raise NumericFailureError(f"LP ended with status {lp.status!r}")
            coeff = np.linalg.solve(self.r_fac, lp.solution)
            points, values = _abs_extrema(basis, coeff, self.bands)
            certified = float(np.max(values))
            if certified <= 1.0 + tol.cert_slack:
                break
            excess = float(np.max(np.abs(self.rows @ lp.solution))) - 1.0
            if excess > tol.cert_slack:
                # the LP honours its rows only to lp_feasibility, so re-adding
                # a violated point cannot bring the witness within cert_slack
                raise NumericFailureError(
                    f"LP witness exceeds its own constraints by {excess:.1e}, more than "
                    f"cert_slack {tol.cert_slack:.1e} (lp_feasibility {tol.lp_feasibility:.1e})"
                )
            if refinements >= tol.refine_max_rounds:
                raise NumericFailureError("cutting-plane refinement did not converge")
            # the argmax is always a cut, also when cert_slack < lp_feasibility
            cuts = points[values > 1.0 + min(tol.cert_slack, tol.lp_feasibility)]
            self.rows = np.vstack([self.rows, self._to_working(basis.design_matrix(cuts))])
            self.grid = np.concatenate([self.grid, cuts])
            refinements += 1
        value = float(lp.objective)
        recheck = abs(float(objective @ coeff))
        if abs(recheck - value) > tol.objective_recheck * max(1.0, abs(value)):
            raise NumericFailureError("extremal witness does not reproduce the LP value")
        return ExtremalResult(
            value=value,
            coefficients=tuple(float(c) for c in coeff),
            grid=tuple(float(g) for g in np.sort(self.grid)),
            refinements=refinements,
            certified_norm=certified,
            degree=basis.degree,
            order=k,
            cert_slack=tol.cert_slack,
        )


def pointwise_derivative_sup(
    domain, basis: PolyBasis, x0: float, k: int = 1, tol: Tolerances = DEFAULT_TOL
) -> ExtremalResult:
    """sup |P^(k)(x0)| over the basis span with sup-norm at most 1 on the set."""
    _check_pairing(domain, basis)
    if not (isinstance(k, int) and k >= 1):
        raise InvalidArgumentError("derivative order must be a positive integer")
    if domain.locate(x0).kind != "interior":
        raise DomainError("evaluation point must be interior to the set")
    return _CuttingPlaneLP(domain, basis, tol).solve(x0, k)


def markov_constant_numeric(
    domain, basis: PolyBasis, k: int = 1, tol: Tolerances = DEFAULT_TOL
) -> ExtremalResult:
    """sup over the set of |P^(k)|, by sweeping endpoint-clustered candidates.

    Candidates per band: both endpoints plus ten geometrically spaced interior
    points per endpoint, from half the band length down to 1e-6 of it; the
    k-th derivative extremum localizes at endpoint distance ~ n^-2, which this
    ladder straddles for every tested degree.  l_n is value / n^{2k}.
    """
    _check_pairing(domain, basis)
    if not (isinstance(k, int) and k >= 1):
        raise InvalidArgumentError("derivative order must be a positive integer")
    lp = _CuttingPlaneLP(domain, basis, tol)
    candidates: list[float] = []
    for lo, hi in lp.bands:
        length = hi - lo
        dists = np.geomspace(0.5 * length, 1e-6 * length, tol.interior_probes_per_endpoint)
        candidates.append(lo)
        candidates.append(hi)
        candidates.extend(lo + dists)
        candidates.extend(hi - dists)
    best = None
    for x0 in candidates:
        result = lp.solve(float(x0), k)
        if best is None or result.value > best.value:
            best = result
    return replace(best, l_n=best.value / float(basis.degree) ** (2 * k))


# ---------------------------------------------------------------------------
# L2 eigenproblems
# ---------------------------------------------------------------------------

def _gauss_jacobi_band(lo: float, hi: float, alpha_left: float, alpha_right: float, m: int):
    """Nodes/weights for int_lo^hi f(t) (t-lo)^aL (hi-t)^aR dt."""
    rec = jacobi_recurrence(alpha_right, alpha_left, m)
    rule = golub_welsch(rec, m)
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = c + r * rule.nodes
    weights = rule.weights * r ** (1.0 + alpha_left + alpha_right)
    return nodes, weights


def _gram_factors(
    e: IntervalUnion,
    w: Weight,
    basis: PolyBasis,
    mode: str,
    tol: Tolerances,
) -> tuple[np.ndarray, np.ndarray]:
    """Row factors (N, M) of the derivative/plain Gram pencil: A = N^T N, B = M^T M.

    The pencil is solved from the factors (QR plus one triangular solve plus an
    SVD) instead of from the assembled Gram matrices.  The factors carry
    sqrt(cond(B)) instead of cond(B), which is what keeps the eigenvalues
    basis-independent to near machine precision even for poorly scaled
    reference intervals.
    """
    n = basis.degree
    m = 2 * n + 40
    b_rows: list[np.ndarray] = []
    a_rows: list[np.ndarray] = []

    if mode == "omega-bernstein":
        xi = solve_xi(e, tol)
        endpoints = e.endpoints
        for kband, (lo, hi) in enumerate(e.bands):
            others = [p for i, p in enumerate(endpoints) if i not in (2 * kband, 2 * kband + 1)]

            def gap_product(t):
                out = np.ones_like(t)
                for x0 in xi:
                    out = out * np.abs(t - x0)
                return out

            def other_roots(t):
                out = np.ones_like(t)
                for p in others:
                    out = out * np.abs(t - p)
                return out

            # B: measure omega dt = gap_product / (pi sqrt(prod |t-a|)) dt
            nodes, weights = _gauss_jacobi_band(lo, hi, -0.5, -0.5, m)
            rest = gap_product(nodes) / (math.pi * np.sqrt(other_roots(nodes)))
            v0 = basis.design_matrix(nodes)
            b_rows.append(v0 * np.sqrt(weights * rest)[:, None])
            # A: (P'/(pi omega))^2 omega dt = P'^2 sqrt(prod |t-a|)/(pi gap_product) dt
            nodes, weights = _gauss_jacobi_band(lo, hi, 0.5, 0.5, m)
            rest = np.sqrt(other_roots(nodes)) / (math.pi * gap_product(nodes))
            v1 = basis.design_matrix(nodes, deriv=1)
            a_rows.append(v1 * np.sqrt(weights * rest)[:, None])
        return np.vstack(a_rows), np.vstack(b_rows)

    for kband, (lo, hi) in enumerate(e.bands):
        alpha_left, alpha_right = w.band_exponents(kband)
        other = [
            (i, p)
            for i, p in enumerate(e.endpoints)
            if i not in (2 * kband, 2 * kband + 1)
        ]

        def rest_factor(t):
            out = w.evaluate_h(t)
            for i, p in other:
                out = out * np.abs(t - p) ** w.exponents[i]
            return out

        nodes, weights = _gauss_jacobi_band(lo, hi, alpha_left, alpha_right, m)
        scaled = np.sqrt(weights * rest_factor(nodes))
        v0 = basis.design_matrix(nodes)
        b_rows.append(v0 * scaled[:, None])
        if mode == "markov":
            v1 = basis.design_matrix(nodes, deriv=1)
            a_rows.append(v1 * scaled[:, None])
        else:  # gradient-bernstein: multiplier (1-t)(1+t), exponents bumped by 1
            nodes, weights = _gauss_jacobi_band(lo, hi, alpha_left + 1.0, alpha_right + 1.0, m)
            scaled = np.sqrt(weights * rest_factor(nodes))
            v1 = basis.design_matrix(nodes, deriv=1)
            a_rows.append(v1 * scaled[:, None])
    return np.vstack(a_rows), np.vstack(b_rows)


def l2_ratio_numeric(
    e: IntervalUnion,
    w: Weight | None,
    n: int,
    mode: str = "markov",
    tol: Tolerances = DEFAULT_TOL,
    reference: tuple[float, float] | None = None,
) -> float:
    """sqrt of the largest eigenvalue of the derivative-vs-plain Gram pencil.

    mode=markov compares ||P'|| to ||P|| in L2(w); gradient-bernstein inserts
    the multiplier (1-x^2) and therefore requires E = [-1, 1]; omega-bernstein
    ignores w and measures P'/(pi * density) in L2(equilibrium measure).
    """
    if mode not in L2_MODES:
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    if not (isinstance(n, int) and 1 <= n <= 100):
        raise InvalidArgumentError("degree must be an integer in 1..100")
    if w is None:
        w = Weight.unweighted(e)
    w.validate_on(e)
    if mode == "gradient-bernstein" and (
        e.m != 1 or abs(e.endpoints[0] + 1.0) > 1e-12 or abs(e.endpoints[1] - 1.0) > 1e-12
    ):
        raise InvalidArgumentError("gradient-bernstein mode is defined on [-1, 1] only")
    basis = PolyBasis("algebraic-chebyshev", n, reference or e.covering_interval)
    a_fac, b_fac = _gram_factors(e, w, basis, mode, tol)
    cond_b = float(np.linalg.cond(b_fac)) ** 2
    if not np.isfinite(cond_b) or cond_b > tol.basis_cond_max:
        raise NumericFailureError(
            f"basis Gram condition estimate {cond_b:.3e} exceeds {tol.basis_cond_max:.1e}; "
            "choose a reference interval closer to the covering interval"
        )
    # QR of the B-factor yields the Cholesky factor of B without squaring the
    # conditioning; sqrt(lambda_max) is then the top singular value of the
    # A-factor expressed in the B-orthonormal coordinates.
    r = np.linalg.qr(b_fac, mode="r")
    x = np.linalg.solve(r.T, a_fac.T).T
    return float(np.linalg.svd(x, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# randomized falsification harness
# ---------------------------------------------------------------------------

VERIFY_INEQUALITIES = (
    "bernstein-unit",       # |P'(x)| sqrt(1-x^2) <= n ||P|| on [-1,1]
    "markov-unit",          # ||P'|| <= n^2 ||P|| on [-1,1]
    "va-markov",            # ||P^(k)|| <= exact constant on [-1,1]
    "szego-unit",           # (P' sqrt(1-x^2))^2 + n^2 P^2 <= n^2 ||P||^2
    "bernstein-szego",      # (P'/(pi w))^2 + n^2 P^2 <= n^2 ||P||^2 on any E
    "bernstein-alg",        # |P'(x)| <= n pi w_E(x) ||P||
    "bernstein-trig",       # |T'(t)| <= n 2 pi w_Gamma ||T||
    "trig-full-period",     # ||T'|| <= n ||T||
    "riesz-circle",         # |P'(z)| <= n ||P|| on |z| = 1
)


@dataclass(frozen=True)
class VerifyReport:
    inequality: str
    trials: int
    seed: int
    max_ratio: float
    worst_degree: int
    violations: tuple[tuple[int, int, float], ...]   # (trial, degree, ratio)
    witnesses: tuple[tuple[float, ...], ...] = ()    # coefficients, one per violation

    @property
    def ok(self) -> bool:
        return not self.violations


def _verify_context(s, inequality: str, tol: Tolerances, density_scale: float):
    """Everything degree-independent a single inequality check needs."""
    ctx = {}
    density = None
    if inequality in ("bernstein-unit", "markov-unit", "va-markov", "szego-unit"):
        if not (isinstance(s, IntervalUnion) and s.endpoints == (-1.0, 1.0)):
            raise InvalidArgumentError(f"{inequality} is specific to [-1, 1]")
        ctx["bands"] = s.bands
    elif inequality in ("bernstein-szego", "bernstein-alg"):
        if not isinstance(s, IntervalUnion):
            raise InvalidArgumentError(f"{inequality} needs an interval union")
        ctx["bands"] = s.bands
        density = interval_density(s, tol)
    elif inequality == "bernstein-trig":
        if not isinstance(s, PeriodicSet):
            raise InvalidArgumentError("bernstein-trig needs a periodic set")
        ctx["bands"] = s.base.bands
        density = arc_density(gamma_of(s), tol)
    elif inequality == "trig-full-period":
        ctx["bands"] = ((-math.pi, math.pi),)
    elif inequality == "riesz-circle":
        ctx["bands"] = ((-math.pi, math.pi),)
    else:
        raise InvalidArgumentError(f"unknown inequality {inequality!r}")
    ctx["probes"] = _probe_points(ctx["bands"], tol)
    if density is not None:
        ctx["omega"] = density_scale * np.array([density.evaluate(float(t)) for t in ctx["probes"]])
    return ctx


def _probe_points(bands, tol: Tolerances, per_band: int = 64) -> np.ndarray:
    pieces = []
    for lo, hi in bands:
        buf = tol.frostman_buffer_rel * (hi - lo)
        pieces.append(np.linspace(lo + buf, hi - buf, per_band))
    return np.concatenate(pieces)


def _trial_ratio(s, inequality: str, ctx, n: int, k: int, coeffs: np.ndarray) -> float:
    """Worst LHS/RHS ratio of one random polynomial; > 1 means violation."""
    bands, probes = ctx["bands"], ctx["probes"]
    if inequality == "riesz-circle":
        norm = _circle_norm(coeffs)
        z = np.exp(1j * probes)
        lhs = np.max(np.abs(_poly.polyval(z, _poly.polyder(coeffs))))
        return float(lhs / (n * norm))

    if inequality in ("bernstein-trig", "trig-full-period"):
        basis = PolyBasis("trigonometric", n)
    else:
        lo, hi = s.covering_interval if isinstance(s, IntervalUnion) else (-1.0, 1.0)
        basis = PolyBasis("algebraic-chebyshev", n, (lo, hi))
    norm = _sup_norm(basis, coeffs, bands)
    if inequality == "markov-unit":
        return _sup_norm(basis, _derivative(basis, coeffs, 1), bands) / (n * n * norm)
    if inequality == "va-markov":
        return _sup_norm(basis, _derivative(basis, coeffs, k), bands) / (va_markov_exact(n, k) * norm)
    if inequality == "trig-full-period":
        return _sup_norm(basis, _derivative(basis, coeffs, 1), bands) / (n * norm)

    p = basis.design_matrix(probes) @ coeffs
    dp = basis.design_matrix(probes, deriv=1) @ coeffs
    if inequality == "bernstein-unit":
        lhs = np.abs(dp) * np.sqrt(1.0 - probes**2)
        return float(np.max(lhs) / (n * norm))
    if inequality == "szego-unit":
        lhs = (dp * np.sqrt(1.0 - probes**2)) ** 2 + n * n * p**2
        return float(np.max(lhs) / (n * n * norm * norm))
    omega = ctx["omega"]
    if inequality == "bernstein-szego":
        lhs = (dp / (math.pi * omega)) ** 2 + n * n * p**2
        return float(np.max(lhs) / (n * n * norm * norm))
    if inequality == "bernstein-alg":
        lhs = np.abs(dp) / (math.pi * omega)
        return float(np.max(lhs) / (n * norm))
    if inequality == "bernstein-trig":
        lhs = np.abs(dp) / (2.0 * math.pi * omega)
        return float(np.max(lhs) / (n * norm))
    raise InvalidArgumentError(f"unknown inequality {inequality!r}")


def verify_inequality(
    s,
    inequality: str,
    trials: int,
    rng_seed: int,
    order: int = 2,
    tol: Tolerances = DEFAULT_TOL,
    density_scale: float = 1.0,
) -> VerifyReport:
    """Randomized check of a non-asymptotic inequality; `order` is the
    derivative order used by the exact higher-derivative inequality only.

    density_scale is a negative-control hook: the density-based bounds are
    divided through the scaled density, so any value other than 1 corrupts
    the right-hand sides on purpose and must produce violations.
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    if not (np.isfinite(density_scale) and density_scale > 0):
        raise InvalidArgumentError("density_scale must be positive")
    ctx = _verify_context(s, inequality, tol, float(density_scale))
    rng = np.random.default_rng(rng_seed)
    max_ratio = -math.inf
    worst_degree = 0
    violations = []
    witnesses = []
    for trial in range(trials):
        lowest = order if inequality == "va-markov" else 1
        n = int(rng.integers(lowest, tol.verify_max_degree + 1))
        if inequality == "riesz-circle":
            coeffs = rng.standard_normal(n + 1)
        elif inequality in ("bernstein-trig", "trig-full-period"):
            coeffs = rng.standard_normal(2 * n + 1)
        else:
            coeffs = rng.standard_normal(n + 1)
        ratio = _trial_ratio(s, inequality, ctx, n, order, coeffs)
        if ratio > max_ratio:
            max_ratio = ratio
            worst_degree = n
        if ratio > 1.0 + tol.verify_hard:
            violations.append((trial, n, float(ratio)))
            witnesses.append(tuple(float(c) for c in coeffs))
    return VerifyReport(
        inequality=inequality,
        trials=trials,
        seed=rng_seed,
        max_ratio=float(max_ratio),
        worst_degree=worst_degree,
        violations=tuple(violations),
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# trigonometric interval check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VidenskiiReport:
    beta: float
    degree: int
    pointwise_ratios: tuple[float, ...]
    max_pointwise_ratio: float
    markov_ratio: float
    cert_slack: float = DEFAULT_TOL.cert_slack

    @property
    def ok(self) -> bool:
        """Certifies the exact pointwise bound only.  The norm ratio is
        reported raw: its closed-form constant is asymptotic, and for wide
        arcs the finite-degree extremum genuinely exceeds it (by 79% at
        beta = 3, n = 4), converging from above as n grows."""
        return self.max_pointwise_ratio <= 1.0 + self.cert_slack


def videnskii_check(beta: float, n: int, tol: Tolerances = DEFAULT_TOL) -> VidenskiiReport:
    """LP extremal values on [-beta, beta] against the closed trig bounds:
    pointwise derivative sup vs n * (pointwise factor), and the derivative
    norm vs n^2 * 2 cot(beta/2)."""
    if not 0.0 < beta < math.pi:
        raise InvalidArgumentError("beta must be in (0, pi)")
    per = PeriodicSet(IntervalUnion((-beta, beta)))
    basis = PolyBasis("trigonometric", n)
    ratios = []
    for theta in np.linspace(-0.8 * beta, 0.8 * beta, 9):
        bound = n * videnskii_pointwise(beta, float(theta)).value
        got = pointwise_derivative_sup(per, basis, float(theta), 1, tol).value
        ratios.append(got / bound)
    markov = markov_constant_numeric(per, basis, 1, tol)
    markov_ratio = markov.value / (n * n * videnskii_markov(beta).value)
    return VidenskiiReport(
        beta=beta,
        degree=n,
        pointwise_ratios=tuple(float(r) for r in ratios),
        max_pointwise_ratio=float(max(ratios)),
        markov_ratio=float(markov_ratio),
        cert_slack=tol.cert_slack,
    )
