"""Shared numerical kernels: quadrature, Bessel functions, LP, root finding.

Everything downstream (density solvers, extremal oracles) is built on the
handful of primitives in this module.  Conventions:

  * Quadrature rules live on [-1,1] unless stated otherwise.
  * Three-term recurrences are monic: p_{k+1} = (x - a_k) p_k - b_k p_{k-1},
    with b[0] holding the total mass of the measure (Gautschi's convention).
  * `simplex_solve` maximizes c.x subject to A x <= b with free variables and
    returns a basic (vertex) optimum.

The program runs on numpy alone; `bessel_smallest_zero` takes J_nu from
Miller's recurrence and the first zero from an eigenvalue.  scipy serves only
the oracles that tests and the benchmark still look up here by name,
imported where they are used, never at module level: `simplex_solve`
(HiGHS through `linprog`, the oracle for the LP exchange in `extremal`) and
`gauss_legendre` (`roots_legendre`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import InvalidArgumentError, NumericFailureError, ResourceLimitError

LP_STATUSES = ("optimal", "infeasible", "unbounded", "iteration-limit")


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise InvalidArgumentError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0):
            raise InvalidArgumentError("quadrature nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise InvalidArgumentError("quadrature weights must be positive")

    @property
    def size(self) -> int:
        return int(self.nodes.size)


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


def _read_only_rule(nodes: np.ndarray, weights: np.ndarray) -> QuadratureRule:
    # Cached rules are shared by every caller, hence read-only.
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes, weights)


@functools.lru_cache(maxsize=None)
def _gauss_legendre_rule(n: int) -> QuadratureRule:
    from scipy.special import roots_legendre

    nodes, weights = roots_legendre(n)
    return _read_only_rule(nodes, weights)


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
    return _read_only_rule(nodes, np.full(n, np.pi / n))


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
        return QuadratureRule(a[:1].copy(), b[:1].copy())
    off = np.sqrt(b[1:])
    jacobi = np.diag(a) + np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jacobi)
    return QuadratureRule(vals, b[0] * vecs[0, :] ** 2)


# Backward recurrence values are rescaled past this; two unchecked steps
# grow them at most (2 * 300 / 1e-30)^2 times, which stays finite.
_MILLER_RESCALE = 1e200


def _bessel_miller(mu: float, n: int, x: float) -> float:
    """J_{mu+n}(x) for 0 <= mu < 1, integer n >= -1 (mu > 0 if n = -1), x >= 1e-30.

    The recurrence f_{k-1} = (2 (mu + k) / x) f_k - f_{k+1}, run down from
    f_{N+1} = 0, f_N = 1 at an even N ~ max(mu + n, x) + 40 + 2 sqrt(...),
    gives f_k proportional to J_{mu+k}(x) to working precision.  Neumann's
    identity fixes the factor:
        (x/2)^mu / Gamma(mu + 1) = J_mu + sum_{j>=1} (mu + 2j) g_j J_{mu+2j},
    with g_1 = 1 and g_{j+1} = g_j (mu + j) / (j + 1).  Order mu - 1 takes
    one more step of the recurrence.
    """
    m = max(mu + n, x)
    top = 2 * int(0.5 * m + 20.0 + math.sqrt(m))
    two_x = 2.0 / x
    f_up, f = 0.0, 1.0          # f_{k+1}, f_k for k = top
    g = 1.0                     # g_{k/2}, up to a factor fixed at the end
    s = (mu + top) * f          # the Neumann sum over even indices k..top, same factor
    target = 0.0                # f_n
    for k in range(top, 2, -2):
        a = mu + k
        f_up, f = f, a * two_x * f - f_up
        if k - 1 == n:
            target = f
        f_up, f = f, (a - 1.0) * two_x * f - f_up
        if k - 2 == n:
            target = f
        g *= k / (a + mu - 2.0)                 # g_{j-1} / g_j = j / (mu + j - 1), j = k/2
        s += (a - 2.0) * g * f
        if abs(f) > _MILLER_RESCALE:
            f, f_up = f / _MILLER_RESCALE, f_up / _MILLER_RESCALE
            s, target = s / _MILLER_RESCALE, target / _MILLER_RESCALE
    f_up, f = f, (mu + 2.0) * two_x * f - f_up      # f_1
    f_up, f = f, (mu + 1.0) * two_x * f - f_up      # f_0
    if n == 0:
        target = f
    elif n == 1:
        target = f_up
    elif n == -1:
        target = mu * two_x * f - f_up
    # the loop ended with g = g_1 (which is 1) times the common factor
    return target * (0.5 * x) ** mu / (math.gamma(mu + 1.0) * (f + s / g))


@dataclass(frozen=True)
class BesselZero:
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


# Relative half-width of the sign-change certificate around the eigenvalue
# estimate (see `bessel_smallest_zero`).
_ZERO_BRACKET = 64.0 * float(np.finfo(float).eps)


def _ikebe_zero_estimate(h: float) -> float:
    """First zero of J_nu, h = nu + 1 > 0, from a truncated Ikebe matrix.

    Ikebe, Kikuchi & Fujishiro (J. Comput. Appl. Math. 38, 1991): the
    symmetric tridiagonal matrix with d_k = 2 / ((nu+2k-1)(nu+2k+1)) on the
    diagonal and e_k = 1 / ((nu+2k+1) sqrt((nu+2k)(nu+2k+2))) off it has the
    eigenvalues 4 / j_{nu,k}^2.  A leading principal block has a smaller
    largest eigenvalue, so the estimate lies above j_{nu,1}; about nu/2 + 20
    rows make the difference negligible.  Entries are formed from h, so that
    nu + 1 keeps its digits as nu -> -1.
    """
    rows = int(0.5 * h) + 20
    c = h + 2.0 * np.arange(rows + 1)            # nu + 2k - 1, k = 1..rows+1
    d = 2.0 / (c[:-1] * c[1:])
    inner = c[1:-1]
    e = 1.0 / (inner * np.sqrt((inner - 1.0) * (inner + 1.0)))
    t = np.zeros((rows, rows))
    t.flat[:: rows + 1] = d
    t.flat[1 :: rows + 1] = e
    t.flat[rows :: rows + 1] = e
    return 2.0 / math.sqrt(float(np.linalg.eigvalsh(t)[-1]))


def bessel_smallest_zero(kappa: float, *, tol: Tolerances = DEFAULT_TOL) -> BesselZero:
    """Smallest positive zero of J_{(kappa-1)/2}, from an eigenvalue and certified.

    The estimate g comes from the Ikebe matrix (`_ikebe_zero_estimate`), J_nu
    from Miller's recurrence (`_bessel_miller`).  J_nu is positive on
    (0, j_{nu,1}) and negative just past it, and g converges to j_{nu,1} from
    above, so the zero is certified when J_nu > 0 at g (1 - delta), J_nu < 0
    at g (1 + delta), delta = 64 eps, and |J_nu(g)| < tol.bessel_residual; the
    order of the signs also rules out the second zero.  No polishing step is
    needed: the estimate passes with delta = 16 eps for kappa in (-1, 183].
    A failed certificate, or a zero above tol.bessel_scan_max, raises
    NumericFailureError.
    """
    if not kappa > -1.0:
        raise InvalidArgumentError("kappa must exceed -1")
    order = 0.5 * (kappa - 1.0)
    # j_{nu,1} > nu, which also keeps the Ikebe matrix small
    if not order < tol.bessel_scan_max:
        raise NumericFailureError(
            f"the first zero of J_{order} lies above {tol.bessel_scan_max}"
        )
    h = 0.5 * (kappa + 1.0)                      # nu + 1, exact as kappa -> -1
    zero = _ikebe_zero_estimate(h)
    if zero > tol.bessel_scan_max:
        raise NumericFailureError(
            f"the first zero of J_{order} lies above {tol.bessel_scan_max}"
        )
    whole = math.floor(h)
    mu, n = h - whole, whole - 1

    def j(x: float) -> float:
        return _bessel_miller(mu, n, x)

    if not j(zero * (1.0 - _ZERO_BRACKET)) > 0.0 > j(zero * (1.0 + _ZERO_BRACKET)):
        raise NumericFailureError(f"J_{order} does not change sign about {zero!r}")
    return BesselZero(zero, abs(j(zero)), tol.bessel_residual)


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
