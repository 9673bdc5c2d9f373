"""Shared numerical kernels: quadrature, Bessel functions, LP, eigenpencils.

Everything downstream (density solvers, extremal oracles) is built on the
handful of primitives in this module.  Conventions:

  * Quadrature rules live on [-1,1] unless stated otherwise; `QuadratureRule.mapped`
    transplants a rule affinely.
  * Three-term recurrences are monic: p_{k+1} = (x - a_k) p_k - b_k p_{k-1},
    with b[0] holding the total mass of the measure (Gautschi's convention).
  * `simplex_solve` maximizes c.x subject to A x <= b with free variables and
    returns a basic (vertex) optimum, which is what equioscillation extraction
    relies on.

scipy is imported where it is used, never at module level: `simplex_solve`
(HiGHS through `linprog`), `bessel_j` and `bessel_smallest_zero` (`jv`),
`symmetric_eig_max` (the generalized `eigh`) and `gauss_legendre`
(`roots_legendre`).  Everything the closed-form route calls (Gauss-Chebyshev,
Golub-Welsch, the bracketed root finder) runs on numpy alone, so a process
that only builds densities never loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import InvalidArgumentError, NumericFailureError, ResourceLimitError

QUAD_KINDS = ("gauss-legendre", "gauss-chebyshev", "golub-welsch-custom")
LP_STATUSES = ("optimal", "infeasible", "unbounded", "iteration-limit")


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.kind not in QUAD_KINDS:
            raise InvalidArgumentError(f"unknown quadrature kind {self.kind!r}")
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise InvalidArgumentError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0):
            raise InvalidArgumentError("quadrature nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise InvalidArgumentError("quadrature weights must be positive")

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    def mapped(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Affine image of the rule on [lo, hi] (nodes, scaled weights)."""
        c = 0.5 * (lo + hi)
        r = 0.5 * (hi - lo)
        return c + r * self.nodes, r * self.weights

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(self.weights @ np.asarray(f(self.nodes), dtype=float))


@dataclass(frozen=True)
class Recurrence:
    """Monic three-term recurrence coefficients; b[0] is the measure's mass."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
            raise InvalidArgumentError("recurrence arrays must be 1-d of equal length")

    def __len__(self) -> int:
        return int(self.a.size)


def gauss_legendre(n: int, *, tol: Tolerances = DEFAULT_TOL) -> QuadratureRule:
    """Classical n-point Gauss-Legendre rule on [-1,1]."""
    if not isinstance(n, (int, np.integer)) or n < 1 or n > tol.gl_max_points:
        raise InvalidArgumentError(f"gauss_legendre size must be in [1, {tol.gl_max_points}]")
    rule = _gauss_legendre_rule(int(n))
    # checked per call, not in the cache, so that each caller's tol applies
    if abs(rule.weights.sum() - 2.0) > tol.gl_weight_sum:
        raise NumericFailureError(
            f"Gauss-Legendre weights do not sum to 2 within {tol.gl_weight_sum:.1e}"
        )
    return rule


def _read_only_rule(nodes: np.ndarray, weights: np.ndarray, kind: str) -> QuadratureRule:
    # Cached rules are shared by every caller, hence read-only.
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes, weights, kind)


@functools.lru_cache(maxsize=None)
def _gauss_legendre_rule(n: int) -> QuadratureRule:
    from scipy.special import roots_legendre

    nodes, weights = roots_legendre(n)
    return _read_only_rule(nodes, weights, "gauss-legendre")


def gauss_chebyshev(n: int) -> QuadratureRule:
    """n-point rule for the weight 1/sqrt(1-x^2) on [-1,1]: w_i = pi/n."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError("gauss_chebyshev size must be >= 1")
    return _gauss_chebyshev_rule(int(n))


@functools.lru_cache(maxsize=None)
def _gauss_chebyshev_rule(n: int) -> QuadratureRule:
    # cos((2j-1) pi/(2n)) written as a sine of an odd argument, so the nodes
    # are exactly antisymmetric in floating point
    nodes = np.sin(0.5 * np.pi * np.arange(1 - n, n, 2) / n)
    return _read_only_rule(nodes, np.full(n, np.pi / n), "gauss-chebyshev")


def legendre_recurrence(n: int) -> Recurrence:
    k = np.arange(n, dtype=float)
    a = np.zeros(n)
    b = np.empty(n)
    b[0] = 2.0
    if n > 1:
        kk = k[1:]
        b[1:] = kk * kk / (4.0 * kk * kk - 1.0)
    return Recurrence(a, b)


def chebyshev1_recurrence(n: int) -> Recurrence:
    a = np.zeros(n)
    b = np.full(n, 0.25)
    b[0] = np.pi
    if n > 1:
        b[1] = 0.5
    return Recurrence(a, b)


def jacobi_recurrence(alpha: float, beta: float, n: int) -> Recurrence:
    """Recurrence for the weight (1-x)^alpha (1+x)^beta on [-1,1] (Gautschi)."""
    if alpha <= -1 or beta <= -1:
        raise InvalidArgumentError("Jacobi exponents must exceed -1")
    a = np.zeros(n)
    b = np.zeros(n)
    ab = alpha + beta
    a[0] = (beta - alpha) / (ab + 2.0)
    b[0] = (
        2.0 ** (ab + 1.0)
        * math.gamma(alpha + 1.0)
        * math.gamma(beta + 1.0)
        / math.gamma(ab + 2.0)
    )
    if n > 1:
        b[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
        for k in range(1, n):
            d = 2.0 * k + ab
            a[k] = (beta * beta - alpha * alpha) / (d * (d + 2.0))
            if k >= 2:
                b[k] = (
                    4.0 * k * (k + alpha) * (k + beta) * (k + ab)
                    / (d * d * (d + 1.0) * (d - 1.0))
                )
    return Recurrence(a, b)


def golub_welsch(recurrence: Recurrence, n: int) -> QuadratureRule:
    """Gauss rule for the measure behind a recurrence, via its Jacobi matrix.

    Nodes are the eigenvalues of the symmetric tridiagonal matrix with the
    recurrence's a on the diagonal and sqrt(b) off it; weights are the mass
    times the squared first components of the eigenvectors.
    """
    if n < 1:
        raise InvalidArgumentError("rule size must be >= 1")
    if len(recurrence) < n:
        raise InvalidArgumentError(f"recurrence too short for n={n}")
    a = recurrence.a[:n]
    b = recurrence.b[:n]
    if b[0] <= 0 or (n > 1 and np.any(b[1:] <= 0)):
        raise InvalidArgumentError("recurrence does not define a positive measure")
    if n == 1:
        return QuadratureRule(a[:1].copy(), b[:1].copy(), "golub-welsch-custom")
    off = np.sqrt(b[1:])
    jacobi = np.diag(a) + np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jacobi)
    return QuadratureRule(vals, b[0] * vecs[0, :] ** 2, "golub-welsch-custom")


def bessel_j(order: float, x: float) -> float:
    """J_order(x) for order > -1 and 0 < x <= 100, |error| <= 1e-12."""
    if not order > -1.0:
        raise InvalidArgumentError("Bessel order must exceed -1")
    if not 0.0 < x <= 100.0:
        raise InvalidArgumentError("bessel_j argument must be in (0, 100]")
    from scipy.special import jv

    return float(jv(order, x))


@dataclass(frozen=True)
class BesselZero:
    order: float
    zero: float
    residual: float
    bessel_residual: float = DEFAULT_TOL.bessel_residual

    def __post_init__(self):
        if not self.zero > 0:
            raise NumericFailureError("Bessel zero must be positive")
        if not self.residual < self.bessel_residual:
            raise NumericFailureError(
                f"Bessel zero residual {self.residual:.3e} exceeds "
                f"{self.bessel_residual:.1e}"
            )


def bessel_smallest_zero(kappa: float, *, tol: Tolerances = DEFAULT_TOL) -> BesselZero:
    """Smallest positive zero of J_{(kappa-1)/2}, located by sign scan.

    J_nu is positive on (0, first zero) for nu > -1, so the first sign change
    of a 0.1-step scan brackets the zero; the bracket is then polished to
    machine accuracy.
    """
    if not kappa > -1.0:
        raise InvalidArgumentError("kappa must exceed -1")
    from scipy.special import jv

    order = 0.5 * (kappa - 1.0)
    # 1e-6 stands in for 0+; the zero collapses toward 0 only as kappa -> -1.
    grid = np.concatenate(([1e-6], np.arange(tol.bessel_scan_step, tol.bessel_scan_max + 1e-9, tol.bessel_scan_step)))
    prev_x = grid[0]
    prev_f = jv(order, prev_x)
    for x in grid[1:]:
        f = jv(order, x)
        if f == 0.0:
            return BesselZero(order, float(x), 0.0, tol.bessel_residual)
        if prev_f * f < 0:
            root = find_root_bracketed(lambda t: float(jv(order, t)), prev_x, x, tol=tol)
            return BesselZero(order, root, abs(float(jv(order, root))), tol.bessel_residual)
        prev_x, prev_f = x, f
    raise NumericFailureError(
        f"no sign change of J_{order} found in (0, {tol.bessel_scan_max}]"
    )


@dataclass(frozen=True)
class LPResult:
    objective: float
    solution: np.ndarray
    status: str

    def __post_init__(self):
        if self.status not in LP_STATUSES:
            raise InvalidArgumentError(f"unknown LP status {self.status!r}")


def simplex_solve(
    objective: np.ndarray,
    lhs: np.ndarray,
    rhs: np.ndarray,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> LPResult:
    """Maximize objective . x subject to lhs @ x <= rhs, x free.

    Solved by dual simplex so that the reported optimum is a vertex of the
    feasible polytope.  Feasibility of an optimal solution is re-checked
    against the raw data to tol.lp_feasibility.
    """
    c = np.asarray(objective, dtype=float)
    a = np.atleast_2d(np.asarray(lhs, dtype=float))
    b = np.asarray(rhs, dtype=float)
    if c.ndim != 1 or a.shape != (b.size, c.size):
        raise InvalidArgumentError("inconsistent LP dimensions")
    if b.size > tol.lp_max_constraints or c.size > tol.lp_max_variables:
        raise InvalidArgumentError(
            f"LP limited to {tol.lp_max_constraints} constraints x {tol.lp_max_variables} variables"
        )
    from scipy.optimize import linprog

    res = linprog(
        -c,
        A_ub=a,
        b_ub=b,
        bounds=(None, None),
        method="highs-ds",
        options={
            "maxiter": tol.lp_iteration_limit,
            # tightest tolerances HiGHS accepts, so the vertex re-check below
            # can be held to tol.lp_feasibility
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status == 0:
        x = np.asarray(res.x, dtype=float)
        residual = float(np.max(a @ x - b, initial=0.0))
        if residual > tol.lp_feasibility:
            # The solver's vertex is only accurate to its internal tolerance.
            # By complementary slackness every row with a nonzero multiplier
            # is exactly binding at the optimum, so re-solving that system by
            # least squares reproduces the vertex at working precision.  Pad
            # with the smallest-slack rows if the duals under-determine it,
            # and keep the refined point only if it is genuinely better.
            duals = getattr(getattr(res, "ineqlin", None), "marginals", None)
            binding = (
                np.flatnonzero(np.abs(duals) > 1e-12)
                if duals is not None
                else np.array([], dtype=int)
            )
            if binding.size < c.size:
                padding = [
                    int(i)
                    for i in np.argsort(b - a @ x)
                    if i not in set(binding.tolist())
                ]
                binding = np.concatenate(
                    [binding, np.array(padding[: c.size - binding.size], dtype=int)]
                )
            refined, *_ = np.linalg.lstsq(a[binding], b[binding], rcond=None)
            refined_residual = float(np.max(a @ refined - b, initial=0.0))
            if refined_residual < residual:
                x, residual = refined, refined_residual
        if residual > tol.lp_feasibility:
            raise NumericFailureError(f"LP feasibility residual {residual:.3e}")
        return LPResult(float(c @ x), x, "optimal")
    if res.status == 1:
        return LPResult(math.nan, np.full(c.size, math.nan), "iteration-limit")
    if res.status == 2:
        return LPResult(math.nan, np.full(c.size, math.nan), "infeasible")
    if res.status == 3:
        return LPResult(math.inf, np.full(c.size, math.nan), "unbounded")
    raise NumericFailureError(f"LP solver failed: {res.message}")


def symmetric_eig_max(a: np.ndarray, b: np.ndarray, *, tol: Tolerances = DEFAULT_TOL) -> float:
    """Largest lambda with det(A - lambda B) = 0 for symmetric A, SPD B."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("pencil matrices must be square and equally sized")
    n = a.shape[0]
    if n > tol.eig_max_dim:
        raise InvalidArgumentError(f"pencil dimension limited to {tol.eig_max_dim}")
    scale_a = float(np.max(np.abs(a), initial=0.0)) or 1.0
    scale_b = float(np.max(np.abs(b), initial=0.0)) or 1.0
    if np.max(np.abs(a - a.T)) > 1e-10 * scale_a or np.max(np.abs(b - b.T)) > 1e-10 * scale_b:
        raise InvalidArgumentError("pencil matrices must be symmetric")
    try:
        np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise InvalidArgumentError("B is not positive definite") from exc
    from scipy.linalg import eigh

    vals = eigh(0.5 * (a + a.T), 0.5 * (b + b.T), eigvals_only=True)
    return float(vals[-1])


_EPS = float(np.finfo(float).eps)
# Bisection needs at most about 60 halvings to shrink a bracket to root_abs
# (or to 4 eps |x| for large |x|); where interpolation stalls, as at a
# multiple root, Brent's method spends about three steps per halving.
_ROOT_MAX_STEPS = 300


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """Root of f in [lo, hi] given a sign change, to absolute tolerance tol.root_abs.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4): inverse quadratic or secant steps while they shrink the bracket
    fast enough, bisection otherwise.  Every iterate stays inside the current
    bracket, and the bracket shrinks to 2 * (2 eps |x| + root_abs / 2).
    """
    if not lo < hi:
        raise InvalidArgumentError("need lo < hi")
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise InvalidArgumentError("no sign change on the bracket")
    # b is the best estimate, c the other end of the bracket [b, c] (either
    # order), a the previous b; d is the last step and e the one before it
    c, fc = a, fa
    d = e = b - a
    for _ in range(_ROOT_MAX_STEPS):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        step_min = 2.0 * _EPS * abs(b) + 0.5 * tol.root_abs
        half = 0.5 * (c - b)
        if abs(half) <= step_min or fb == 0.0:
            return b
        if abs(e) >= step_min and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s                     # secant
            else:
                q, r = fa / fc, fb / fc                            # inverse quadratic
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            # accept the step only if it lands well inside the bracket and
            # shrinks faster than the step before last
            if 2.0 * p < min(3.0 * half * q - abs(step_min * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = half
        else:
            e = d = half
        a, fa = b, fb
        b += d if abs(d) > step_min else math.copysign(step_min, half)
        fb = f(b)
    raise NumericFailureError(f"root finder did not converge in {_ROOT_MAX_STEPS} steps")
