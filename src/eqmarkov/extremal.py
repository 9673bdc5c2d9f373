"""Brute-force extremal constants: LP sup-norm problems and L2 eigenproblems.

Nothing here uses the closed-form factors.  Both sup-norm oracles share one
exact kernel, `_abs_extrema`: the sup of |P| over a union of bands is the
largest |P| at the band ends and at the critical points of P inside the bands,
found as the roots of P' (colleague matrix) or, for trigonometric polynomials,
as the unimodular roots of a degree-2n polynomial in z = e^{it}.  The kernel
takes a stack of coefficient rows, which may be zero-padded to a common
width, and solves their eigenproblems in one call per distinct true degree;
the LP passes a stack of one.  `PolyBasis.design_matrix` shares the kernel's
differentiator `_derivative` and evaluator `_values`.

Sup-norm extremal problems are semi-infinite linear programs solved by cutting
planes: start from a small Chebyshev-spaced constraint grid, solve one LP (the
feasible set is symmetric, so one sign suffices), take the witness's exact sup
norm, and add every critical point where |P| pokes above 1 as a new constraint
until the norm is certified to 1 + cert_slack.  The reported value therefore
brackets the true extremum within that slack from above.  Each LP is solved
on numpy alone, by a simplex exchange on its L1 dual (Hettich & Kortanek,
SIAM Review 1993; the Remez exchange of Pachon & Trefethen, BIT 2009) that is
warm-started from the reference the previous LP ended on.  A Markov constant
is the sup of such pointwise values over the set; its sweep walks from every
band end to the argmax of its own witness's |P^(k)|, so it is a certified
lower bound on that sup.  L2 problems become
generalized eigenproblems for the pencil (A, B) of derivative and plain Gram
matrices; each mode is a pair of generalized Jacobi weights, one for P and one
for P', assembled with per-band Gauss-Jacobi rules that absorb the weights'
endpoint exponents exactly; the pencil is solved from row factors of A and B
so basis conditioning enters only through its square root.

verify_inequality is the falsification harness: it throws seeded random
polynomials at every non-asymptotic inequality in the catalog and reports any
ratio that exceeds 1 beyond floating-point slack.  The trials are drawn one
by one and then checked as one zero-padded stack, so every pointwise
left-hand side comes from one product with probe design matrices built once.
A report keeps only the largest ratio and the violations, so sampling bounds
each ratio from above first (Ehlich & Zeller on a band, Riesz's lemma on the
full period), and the exact kernel runs only on the trials whose bound can
reach the largest ratio or a violation.  Every ratio a report keeps is
therefore the exact kernel's, so an undersampled norm can never manufacture
a spurious violation; pointwise left-hand sides are sampled on fixed probe
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .config import DEFAULT_TOL, Tolerances
from .equilibrium import arc_density, interval_density, solve_xi
from .errors import (
    DomainError,
    InvalidArgumentError,
    NumericFailureError,
    ResourceLimitError,
)
from .factors import Weight, va_markov_exact, videnskii_pointwise, videnskii_markov
from .numerics import golub_welsch, jacobi_recurrence
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
        return _values(self, _derivative(self, np.eye(self.dim), deriv), pts[None, :]).T


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
    """Coefficient rows of P^(k) in the same basis, for a (g, dim) stack."""
    if basis.kind == "algebraic-chebyshev":
        lo, hi = basis.reference
        # T_j' = 2j (T_{j-1} + T_{j-3} + ...), with T_0 counted once
        j = np.arange(basis.dim)
        step = np.where((j[:, None] > j) & ((j[:, None] - j) % 2 == 1), 2.0 * j[:, None], 0.0)
        step[:, 0] *= 0.5
        out = coeffs
        for _ in range(k):
            out = out @ step
        return out * (0.5 * (hi - lo)) ** (-k)
    out = np.array(coeffs, dtype=float)
    j = np.arange(1, basis.degree + 1)
    for _ in range(k):          # (a cos jt + b sin jt)' = j b cos jt - j a sin jt
        out[:, 0] = 0.0
        out[:, 1::2], out[:, 2::2] = j * out[:, 2::2], -j * out[:, 1::2]
    return out


def _colleague(c: np.ndarray) -> np.ndarray:
    """numpy's chebcompanion for a stack of Chebyshev series of degree >= 2,
    rotated as chebroots rotates it."""
    g, n = c.shape[0], c.shape[1] - 1
    mat = np.zeros((g, n, n))
    flat = mat.reshape(g, n * n)
    flat[:, 1 :: n + 1] = flat[:, n :: n + 1] = 0.5      # super- and subdiagonal
    mat[:, 0, 1] = mat[:, 1, 0] = math.sqrt(0.5)
    scl = np.array([1.0] + [math.sqrt(0.5)] * (n - 1))
    mat[:, :, -1] -= (c[:, :-1] / c[:, -1:]) * (scl / scl[-1]) * 0.5
    return mat[:, ::-1, ::-1]


def _companion(c: np.ndarray) -> np.ndarray:
    """numpy's polycompanion for a stack of power series of degree >= 2."""
    g, n = c.shape[0], c.shape[1] - 1
    mat = np.zeros((g, n, n), dtype=c.dtype)
    mat.reshape(g, n * n)[:, n :: n + 1] = 1.0          # subdiagonal
    mat[:, :, -1] -= c[:, :-1] / c[:, -1:]
    return mat


def _roots(rows: np.ndarray, companion, fill: complex, keep=None) -> np.ndarray:
    """Roots of every row of a stack of series, or of its rows `keep`, sorted
    per row as chebroots and polyroots sort them, from one eigvals call per
    distinct degree.

    Trailing zeros lower a row's degree, as in numpy; a row with fewer roots
    than the widest row of the whole stack is padded with `fill`.
    """
    size = np.max((rows != 0.0) * np.arange(1, rows.shape[1] + 1), axis=1)
    out = np.full((rows.shape[0], max(int(np.max(size)) - 1, 0)), fill, dtype=complex)
    if keep is not None:
        rows, size, out = rows[keep], size[keep], out[keep]
    for width in set(size.tolist()) - {0, 1}:
        sel = size == width
        c = rows[sel, :width]
        roots = -c[:, :1] / c[:, 1:] if width == 2 else np.linalg.eigvals(companion(c))
        out[sel, : width - 1] = np.sort(roots, axis=1)
    return out


def _abs_extrema(basis: PolyBasis, coeffs: np.ndarray, bands, keep=None) -> tuple[np.ndarray, np.ndarray]:
    """Every point where |P| can attain its maximum over the bands, and |P|
    there, for each row of a (g, dim) stack of coefficients, or for its rows
    `keep` only, each exactly as in the whole stack.

    These are the band ends and the critical points of P, so the largest
    value of a row is its exact sup norm.  Critical points are the real roots
    of P' (colleague matrix) for the algebraic basis, and for the
    trigonometric basis the unimodular roots of z^n P'(t), a polynomial of
    degree 2n in z = e^{it}; the stack goes through one eigvals call per
    distinct degree, which is one call when its rows share their degree.  A
    zero-padded row keeps its own degree: trailing zeros lower an algebraic
    row's colleague matrix, and a trigonometric row of degree d < n, whose
    z^n P' is z^(n-d) times a degree-2d polynomial, is shifted down to that
    polynomial, so it reaches eigvals as a 2d x 2d companion matrix.
    Every root is projected onto the line or circle and clipped into each
    band, so every row has the same number of candidates: the band ends plus
    its clipped roots.  A true critical point may come back from the
    eigensolver slightly complex or slightly off the circle, and a clipped
    or spurious candidate is still a point of the set, so it can only raise
    the maximum towards the sup, never past it.  Returns (g, m) arrays of
    points and of |P| at them.

    The candidate count, and with it the rounding of a trigonometric row's
    values, depends on the widest row of the stack, and numpy multiplies a
    one-row stack by a matrix-vector product that rounds unlike the stack's
    matrix product.  So `keep` solves only the rows it names, but takes the
    derivative and sizes the candidates from the whole stack.
    """
    deriv = _derivative(basis, coeffs, 1)
    if basis.kind == "algebraic-chebyshev":
        ref_lo, ref_hi = basis.reference
        crit = 0.5 * (ref_lo + ref_hi) + 0.5 * (ref_hi - ref_lo) * _roots(deriv, _colleague, 0.0, keep).real
    else:
        n = basis.degree
        zcoeffs = np.empty((deriv.shape[0], 2 * n + 1), dtype=complex)    # z^0 .. z^2n of z^n P'
        zcoeffs[:, n] = deriv[:, 0]
        zcoeffs[:, n + 1 :] = 0.5 * (deriv[:, 1::2] - 1j * deriv[:, 2::2])
        zcoeffs[:, :n] = np.conj(zcoeffs[:, n + 1 :])[:, ::-1]
        # a row of degree d < n is z^(n-d) times a degree-2d polynomial:
        # rotating its leading zeros to the top leaves that polynomial
        first = np.argmax(zcoeffs != 0.0, axis=1)
        shift = (first[:, None] + np.arange(2 * n + 1)) % (2 * n + 1)
        crit = np.angle(_roots(np.take_along_axis(zcoeffs, shift, axis=1), _companion, 1.0, keep))
    if keep is not None:
        coeffs = coeffs[keep]
    g = coeffs.shape[0]
    # per band: its two ends, then every root clipped into it
    points = np.empty((g, len(bands), 2 + crit.shape[1]))
    for i, (lo, hi) in enumerate(bands):
        near = crit if basis.kind == "algebraic-chebyshev" else lo + np.mod(crit - lo, 2.0 * math.pi)
        points[:, i, :2] = lo, hi       # bands may wrap past +-pi: angles are shifted past lo
        points[:, i, 2:] = np.minimum(np.maximum(near, lo), hi)
    points = points.reshape(g, -1)
    return points, np.abs(_values(basis, coeffs, points))


def _values(basis: PolyBasis, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Each row of a (g, dim) stack evaluated at its own row of (g, m) points,
    or every row at one shared (1, m) row."""
    if basis.kind == "algebraic-chebyshev":
        lo, hi = basis.reference
        c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return _cheb.chebval(((points - c) / r).T, coeffs.T, tensor=False).T
    phase = points[:, :, None] * np.arange(1, basis.degree + 1)
    return coeffs[:, :1] + (np.cos(phase) @ coeffs[:, 1::2, None]
                            + np.sin(phase) @ coeffs[:, 2::2, None])[:, :, 0]


def _sup_norm(basis: PolyBasis, coeffs: np.ndarray, bands, keep=None) -> np.ndarray:
    """Exact sup norm over the bands of each row of a (g, dim) stack, or of
    its rows `keep` (see `_abs_extrema`)."""
    return np.max(_abs_extrema(basis, coeffs, bands, keep)[1], axis=1)


def _circle_square(coeffs: np.ndarray) -> np.ndarray:
    """|P(e^{it})|^2 as a Chebyshev series in x = cos t, for each row of a
    (g, n + 1) stack of real power coefficients.

    |P(e^{it})|^2 = rho_0 + 2 sum_m rho_m cos(mt) = sum_m c_m T_m(cos t),
    with rho the autocorrelation of the coefficients, c_0 = rho_0 and
    c_m = 2 rho_m: a series of the same degree, whose max over [-1, 1] is the
    squared norm of P on the unit circle.
    """
    n = coeffs.shape[1] - 1
    square = np.stack([np.sum(coeffs[:, : n + 1 - m] * coeffs[:, m:], axis=1) for m in range(n + 1)], axis=1)
    square[:, 1:] *= 2.0
    return square


def _circle_norm(coeffs: np.ndarray, keep=None) -> np.ndarray:
    """max |P(z)| on |z| = 1 for each row of a (g, n + 1) stack of real power
    coefficients, or of its rows `keep`, from the algebraic kernel on
    `_circle_square` (a real colleague matrix of order n - 1)."""
    basis = PolyBasis("algebraic-chebyshev", coeffs.shape[1] - 1)
    return np.sqrt(_sup_norm(basis, _circle_square(coeffs), ((-1.0, 1.0),), keep))


def _roundoff(basis: PolyBasis, coeffs: np.ndarray) -> np.ndarray:
    """A bound on the round-off of |P| evaluated at a point of the set, for
    each row of a (g, dim) stack: dim^2 eps sum|c|.  Every basis function is
    at most 1 in modulus there, and dim^2 covers the error growth of the
    Chebyshev recurrence near the band ends."""
    return basis.dim**2 * np.finfo(float).eps * np.sum(np.abs(coeffs), axis=1)


def _sampled_bounds(basis: PolyBasis, coeffs: np.ndarray, bands, m: int, degree: np.ndarray):
    """(lower, upper) with lower <= `_sup_norm` <= upper for each row of a
    (g, dim) stack, from values at sample points of the set alone; row i has
    degree degree[i] < m.

    lower is the largest |P| at the band ends and at m points per band.
    upper divides that largest value by cos(d pi / (2m)), the sampling
    inequality: for an algebraic polynomial of degree d sampled at the m
    Chebyshev points of the first kind of each band, in the band's own
    variable, it is Ehlich & Zeller's (Math. Z. 1964); for a trigonometric
    polynomial of degree d sampled at 2m equispaced points of the full period
    it is Riesz's lemma.  No such inequality holds on a proper sub-arc, where
    upper is inf.  Both bounds allow `_roundoff` twice, once for these
    samples and once for the kernel's own evaluation, so they hold as
    computed.
    """
    full_period = basis.kind == "trigonometric" and bands[0][1] - bands[0][0] >= 2.0 * math.pi
    if full_period:
        nodes = bands[0][0] + (math.pi / m) * np.arange(2 * m)
    else:
        first_kind = np.cos((np.arange(1, m + 1) - 0.5) * (math.pi / m))
        nodes = np.concatenate([[lo, hi, *(0.5 * (lo + hi) + 0.5 * (hi - lo) * first_kind)] for lo, hi in bands])
    if basis.kind == "algebraic-chebyshev":
        lo, hi = basis.reference
        rows = _cheb.chebvander((nodes - 0.5 * (lo + hi)) / (0.5 * (hi - lo)), basis.degree)
    else:                                           # e^{ijt} = cos jt + i sin jt
        powers = np.cumprod(np.repeat(np.exp(1j * nodes)[:, None], basis.degree, axis=1), axis=1)
        rows = np.empty((nodes.size, basis.dim))
        rows[:, 0], rows[:, 1::2], rows[:, 2::2] = 1.0, powers.real, powers.imag
    values = coeffs @ rows.T
    sampled = np.maximum(np.max(values, axis=1), -np.min(values, axis=1))
    slack = 2.0 * _roundoff(basis, coeffs)
    if basis.kind == "trigonometric" and not full_period:
        return sampled - slack, np.full(sampled.shape, np.inf)
    return sampled - slack, (sampled + slack) / np.cos(degree * (0.5 * math.pi / m))


# ---------------------------------------------------------------------------
# sup-norm LPs
# ---------------------------------------------------------------------------

def _exchange(rows: np.ndarray, objective: np.ndarray, ref: np.ndarray, tol: Tolerances):
    """max objective.x s.t. |rows @ x| <= 1, by simplex pivots on its L1 dual.

    The dual is min sum|w| s.t. rows^T w = objective.  A reference B of dim
    row indices is a basis of it: w = R_B^{-T} objective, and x = R_B^{-1}
    sign(w) interpolates the signs on B, so objective.x = sum|w|.  Any
    nonsingular reference is dual feasible, so there is no phase 1 and a
    reference from an earlier solve is a warm start.  The row where |rows @ x|
    is largest enters while it exceeds 1 + min(cert_slack, lp_feasibility);
    the leaving row comes from a long-step ratio test over the breakpoints of
    sum|w| along the entering direction.  An entering row that is already in
    the reference means the pricing threshold is below round-off, and x is
    returned as it stands for the caller's checks to judge.  On a degenerate
    vertex, pivots whose step is at round-off can cycle, so the references
    they leave are recorded.  The first repeat restarts from there on an
    objective perturbed by about 1e-7 relative, whose optimal reference the
    true objective then resumes from; a second repeat raises.  A pivot
    |d_i| at round-off relative to max |d| never leaves, since it would make
    the reference singular.  On a reference that is already singular to
    round-off the ratio test can find no leaving row at all; the row of the
    largest |d_i| leaves then, and that step counts as a round-off step.

    Returns x and the final reference.
    """
    threshold = 1.0 + min(tol.cert_slack, tol.lp_feasibility)
    pivot_floor = rows.shape[1] * np.finfo(float).eps
    pivots = 0
    target, seen, restarted = objective, set(), False
    while True:
        basic = rows[ref]
        try:
            w = np.linalg.solve(basic.T, target)
            s = np.where(w < 0.0, -1.0, 1.0)
            x = np.linalg.solve(basic, s)
        except np.linalg.LinAlgError:
            raise NumericFailureError("singular reference in the LP exchange") from None
        r = rows @ x
        enter = int(np.argmax(np.abs(r)))
        excess = abs(float(r[enter]))
        if not np.isfinite(excess):
            raise NumericFailureError("LP exchange lost its reference to round-off")
        if excess <= threshold or enter in ref:
            if target is objective:
                return x, ref
            target, seen = objective, set()     # resume the true objective from there
            continue
        if pivots >= tol.lp_iteration_limit:
            raise ResourceLimitError("LP iteration limit reached")
        # w_B(t) = w - t d as the entering weight grows to t sign(r); each
        # |w_i| that reaches zero raises the slope 1 - excess by 2 |d_i|
        d = math.copysign(1.0, r[enter]) * np.linalg.solve(basic.T, rows[enter])
        size = np.abs(d)
        # a pivot on a |d_i| at round-off would leave the reference singular
        cand = np.flatnonzero(s * d > pivot_floor * size.max())
        order = np.argsort(np.abs(w[cand]) / size[cand], kind="stable")
        slope = 1.0 - excess + 2.0 * np.cumsum(size[cand[order]])
        stop = np.flatnonzero(slope >= 0.0)
        if stop.size:
            leave = cand[order[stop[0]]]
        else:
            # x = 0 is feasible, so the dual is bounded: the reference is
            # singular to round-off.  The largest pivot |d_i| swaps out the
            # row that the entering row best replaces.
            leave = int(np.argmax(size))
        if stop.size == 0 or abs(w[leave]) <= w.size * np.finfo(float).eps * np.sum(np.abs(w)):
            # a step at round-off: on a degenerate vertex these can cycle
            key = tuple(sorted(ref.tolist()))
            if key in seen:
                if restarted:
                    raise NumericFailureError("LP exchange cycles on a degenerate reference")
                restarted = True
                target = objective * (1.0 + 1e-7 * np.random.default_rng(0).standard_normal(objective.size))
                seen = set()
                continue
            seen.add(key)
        ref = ref.copy()
        ref[leave] = enter
        pivots += 1


class _CuttingPlaneLP:
    """The constraints |P| <= 1 at finitely many points of the set.

    The LP is solved in QR-orthonormalized coordinates: the extremal
    polynomial is representation-free, and on short arcs or gapped sets the
    raw coefficient basis can be so skewed that no vertex meets the
    feasibility certificate.  Witness coefficients are mapped back and
    re-checked against the original objective row.  Cutting planes only ever
    add points of the set, so each row is valid for every objective, and a
    Markov sweep solves every step of its walks on one growing constraint set.

    Each LP is solved by `_exchange`, warm-started from the reference that
    the previous one ended on: `ref` indexes `rows`, which only ever grow.
    The first reference is dim points evenly spread over the (ascending)
    start grid, which the Haar property of both bases makes nonsingular.
    """

    def __init__(self, domain, basis: PolyBasis, tol: Tolerances):
        if basis.dim > tol.lp_max_variables:
            raise ResourceLimitError(
                f"basis dimension {basis.dim} exceeds the LP limit of {tol.lp_max_variables}"
            )
        self.basis, self.tol = basis, tol
        self.bands = _bands_of(domain)
        per = tol.grid_per_degree * basis.degree
        if len(self.bands) * per > tol.lp_max_constraints:
            raise ResourceLimitError("initial constraint grid exceeds the LP limit")
        self.grid = _chebyshev_spaced(self.bands, per)
        v_start = basis.design_matrix(self.grid)
        if np.linalg.cond(v_start) > tol.basis_cond_max:
            raise NumericFailureError("basis is ill-conditioned on the constraint grid")
        self.rows, self.r_fac = np.linalg.qr(v_start)
        self.ref = np.round(np.linspace(0, self.grid.size - 1, basis.dim)).astype(int)

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
            if self.rows.shape[0] > tol.lp_max_constraints:
                raise ResourceLimitError("constraint grid exceeded the LP limit")
            solution, self.ref = _exchange(self.rows, objective_w, self.ref, tol)
            coeff = np.linalg.solve(self.r_fac, solution)
            points, values = _abs_extrema(basis, coeff[None, :], self.bands)
            certified = float(np.max(values))
            if certified <= 1.0 + tol.cert_slack:
                break
            excess = float(np.max(np.abs(self.rows @ solution))) - 1.0
            if excess > tol.cert_slack:
                # the exchange stopped at round-off above its own rows, so
                # re-adding a violated point cannot bring the witness within
                # cert_slack
                raise NumericFailureError(
                    f"LP witness exceeds its own constraints by {excess:.1e}, more than "
                    f"cert_slack {tol.cert_slack:.1e} (lp_feasibility {tol.lp_feasibility:.1e})"
                )
            if refinements >= tol.refine_max_rounds:
                raise NumericFailureError("cutting-plane refinement did not converge")
            # the argmax is always a cut, also when cert_slack < lp_feasibility;
            # a root clipped to its band end duplicates that end, and enters once
            cuts = np.sort(points[values > 1.0 + min(tol.cert_slack, tol.lp_feasibility)])
            cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]
            self.rows = np.vstack([self.rows, self._to_working(basis.design_matrix(cuts))])
            self.grid = np.concatenate([self.grid, cuts])
            refinements += 1
        value = float(objective_w @ solution)
        recheck = abs(float(objective @ coeff))
        if abs(recheck - value) > tol.objective_recheck * max(1.0, abs(value)):
            raise NumericFailureError("extremal witness does not reproduce the LP value")
        return ExtremalResult(
            value=value,
            coefficients=tuple(coeff.tolist()),
            grid=tuple(np.sort(self.grid).tolist()),
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
    """sup over the set of |P^(k)|, by walks that follow their own witnesses.

    One walk starts at each band end.  A step solves the pointwise LP at the
    current point and moves to the exact argmax over the set of the witness's
    |P^(k)|.  A walk stops when that argmax is a point this call has already
    solved, or when its LP value rises by no more than objective_recheck
    relative to the previous step.  The result is the best LP value over all
    walks, at the abscissa where it was solved, so it is a certified lower
    bound on the constant (up to cert_slack): the walks are local, and on a
    set whose pointwise envelope has many local maxima (a periodic arc close
    to the full circle at low degree) they can stop short of the global one.
    l_n is value / n^{2k}.
    """
    _check_pairing(domain, basis)
    if not (isinstance(k, int) and k >= 1):
        raise InvalidArgumentError("derivative order must be a positive integer")
    lp = _CuttingPlaneLP(domain, basis, tol)
    solved: set[float] = set()
    best = None
    for x0 in (float(end) for band in lp.bands for end in band):
        last = None
        while x0 not in solved:
            solved.add(x0)
            result = lp.solve(x0, k)
            if best is None or result.value > best.value:
                best = result
            if last is not None and result.value <= last * (1.0 + tol.objective_recheck):
                break
            last = result.value
            deriv = _derivative(basis, np.asarray(result.coefficients)[None, :], k)
            points, values = _abs_extrema(basis, deriv, lp.bands)
            x0 = float(points[0, np.argmax(values[0])])
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


def _weighted_nodes(e: IntervalUnion, w: Weight, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Jacobi nodes of every band, stacked, and sqrt(weight
    * rest) there: rest is h times |t - a|^alpha over the other endpoints."""
    nodes, scales = [], []
    for kband, (lo, hi) in enumerate(e.bands):
        t, weights = _gauss_jacobi_band(lo, hi, *w.band_exponents(kband), m)
        rest = w.evaluate_h(t)
        for i, p in enumerate(e.endpoints):
            if i not in (2 * kband, 2 * kband + 1):
                rest = rest * np.abs(t - p) ** w.exponents[i]
        nodes.append(t)
        scales.append(np.sqrt(weights * rest))
    return np.concatenate(nodes), np.concatenate(scales)


def _gram_factors(
    e: IntervalUnion,
    w: Weight,
    basis: PolyBasis,
    mode: str,
    tol: Tolerances,
    xi=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row factors (N, M) of the derivative/plain Gram pencil: A = N^T N, B = M^T M.

    The weights for P and P' are (w, w) in markov mode, (w, w with every
    exponent + 1) in gradient-bernstein mode, and in omega-bernstein mode
    exponents -1/2 with h = prod|t - xi| / pi and +1/2 with
    h = 1 / (pi prod|t - xi|), i.e. omega dt against (P' / (pi omega))^2 omega dt;
    xi are the gap points of e, solved here when None.

    The pencil is solved from the factors (QR plus one triangular solve plus an
    SVD) instead of from the assembled Gram matrices.  The factors carry
    sqrt(cond(B)) instead of cond(B), which is what keeps the eigenvalues
    basis-independent to near machine precision even for poorly scaled
    reference intervals.
    """
    if mode == "omega-bernstein":
        xi = solve_xi(e, tol) if xi is None else xi
        ends = len(e.endpoints)

        def gap_product(t):
            return math.prod((np.abs(t - x0) for x0 in xi), start=np.ones_like(t))

        plain = Weight((-0.5,) * ends, lambda t: gap_product(t) / math.pi)
        deriv = Weight((0.5,) * ends, lambda t: 1.0 / (math.pi * gap_product(t)))
    elif mode == "gradient-bernstein":
        plain, deriv = w, Weight(tuple([a + 1.0 for a in w.exponents]), w.h)
    else:
        plain = deriv = w
    m = 2 * basis.degree + 40
    nodes, scale = _weighted_nodes(e, plain, m)
    b_fac = basis.design_matrix(nodes) * scale[:, None]
    if deriv is not plain:
        nodes, scale = _weighted_nodes(e, deriv, m)
    return basis.design_matrix(nodes, deriv=1) * scale[:, None], b_fac


def _l2_checked_weight(e: IntervalUnion, w: Weight | None, degrees, mode: str) -> Weight:
    """The weight of an L2 pencil on e, after every check of its arguments."""
    if mode not in L2_MODES:
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    if not all(isinstance(n, int) and 1 <= n <= 100 for n in degrees):
        raise InvalidArgumentError("degree must be an integer in 1..100")
    if w is None:
        w = Weight.unweighted(e)
    w.validate_on(e)
    if mode == "gradient-bernstein" and (
        e.m != 1 or abs(e.endpoints[0] + 1.0) > 1e-12 or abs(e.endpoints[1] - 1.0) > 1e-12
    ):
        raise InvalidArgumentError("gradient-bernstein mode is defined on [-1, 1] only")
    return w


def l2_ratio_numeric(
    e: IntervalUnion,
    w: Weight | None,
    n: int,
    mode: str = "markov",
    tol: Tolerances = DEFAULT_TOL,
    reference: tuple[float, float] | None = None,
    xi=None,
) -> float:
    """sqrt of the largest eigenvalue of the derivative-vs-plain Gram pencil.

    mode=markov compares ||P'|| to ||P|| in L2(w); gradient-bernstein inserts
    the multiplier (1-x^2) and therefore requires E = [-1, 1]; omega-bernstein
    ignores w and measures P'/(pi * density) in L2(equilibrium measure);
    there xi may pass the gap points of e, so that a sweep over degrees
    solves them once.
    """
    w = _l2_checked_weight(e, w, (n,), mode)
    basis = PolyBasis("algebraic-chebyshev", n, reference or e.covering_interval)
    a_fac, b_fac = _gram_factors(e, w, basis, mode, tol, xi)
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


def _verify_context(s, inequality: str, tol: Tolerances, density_scale: float, density):
    """Everything degree-independent a single inequality check needs.  Only
    the density-based inequalities read density, which must then be that of
    s (of gamma_of(s) on a periodic set); None builds it."""
    ctx = {"kind": "algebraic-chebyshev", "reference": (-1.0, 1.0)}
    owner = None        # the set whose density the inequality reads
    if inequality in ("bernstein-unit", "markov-unit", "va-markov", "szego-unit"):
        if not (isinstance(s, IntervalUnion) and s.endpoints == (-1.0, 1.0)):
            raise InvalidArgumentError(f"{inequality} is specific to [-1, 1]")
        ctx["bands"] = s.bands
    elif inequality in ("bernstein-szego", "bernstein-alg"):
        if not isinstance(s, IntervalUnion):
            raise InvalidArgumentError(f"{inequality} needs an interval union")
        ctx["bands"] = s.bands
        ctx["reference"] = s.covering_interval
        owner = s
        if density is None:
            density = interval_density(s, tol)
    elif inequality == "bernstein-trig":
        if not isinstance(s, PeriodicSet):
            raise InvalidArgumentError("bernstein-trig needs a periodic set")
        ctx["bands"] = s.base.bands
        ctx["kind"] = "trigonometric"
        owner = gamma_of(s)
        if density is None:
            density = arc_density(owner, tol)
    elif inequality == "trig-full-period":
        ctx["bands"] = ((-math.pi, math.pi),)
        ctx["kind"] = "trigonometric"
    elif inequality == "riesz-circle":
        ctx["bands"] = ((-math.pi, math.pi),)
    else:
        raise InvalidArgumentError(f"unknown inequality {inequality!r}")
    ctx["probes"] = _probe_points(ctx["bands"])
    if owner is not None:
        if density.set != owner:
            raise InvalidArgumentError(f"{inequality} was given the density of another set")
        ctx["omega"] = density_scale * density.evaluate(ctx["probes"])
    return ctx


def _probe_points(bands) -> np.ndarray:
    """The verifier's 64 probes per band, a thousandth of its length off each end."""
    pieces = []
    for lo, hi in bands:
        buf = 1e-3 * (hi - lo)
        pieces.append(np.linspace(lo + buf, hi - buf, 64))
    return np.concatenate(pieces)


# sample points per band and unit of degree in the verifier's bounds: the
# sampling inequality's factor 1 / cos(d pi / (2m)) is then at most 1.0049
_SAMPLES_PER_DEGREE = 16


def _ratios(inequality: str, ctx, n: np.ndarray, k: int, coeffs: np.ndarray, hard: float) -> np.ndarray:
    """LHS/RHS ratio of each random polynomial in a (trials, dim) stack, row
    i of degree n[i] and padded with zeros to the widest row; > hard means
    violation.

    Each ratio is a left side over scale * norm**power, where norm is the
    exact sup norm of P (on the unit circle for riesz-circle) and the left
    side is either sampled on the probes or the exact sup norm of a
    derivative.  `_sampled_bounds` gives a cheap upper bound hi on every
    ratio: a sampled lower bound on the norm, and the sampling inequality's
    upper bound on a left-side sup norm.  `_exact_where_needed` then runs
    the exact kernel only on the trials whose hi can reach the largest ratio
    or exceed hard.  So the result is each ratio exactly as the full stack
    would give it wherever it can change a report, and hi elsewhere, which
    is below both.
    """
    bands, probes = ctx["bands"], ctx["probes"]
    top = int(np.max(n))
    basis = PolyBasis(ctx["kind"], top, ctx["reference"])
    m = _SAMPLES_PER_DEGREE * top
    scale, power = n, 1
    left_of = None              # the stack whose sup norm is the left side, if it is one
    if inequality == "riesz-circle":
        # P'(e^{it}) = sum_j (j + 1) c_{j+1} (cos jt + i sin jt)
        dcoeffs = coeffs[:, 1:] * np.arange(1, top + 1)
        phase = np.outer(np.arange(top), probes)
        left = np.max(np.hypot(dcoeffs @ np.cos(phase), dcoeffs @ np.sin(phase)), axis=1)
        # basis is T_0..T_top of [-1, 1], in which |P|^2 is a series in cos t
        square = _sampled_bounds(basis, _circle_square(coeffs), ((-1.0, 1.0),), m, n)[0]
        low = np.sqrt(np.maximum(square, 0.0))
    else:
        low = _sampled_bounds(basis, coeffs, bands, m, n)[0]
    if inequality in ("markov-unit", "va-markov", "trig-full-period"):
        order = k if inequality == "va-markov" else 1
        left_of = _derivative(basis, coeffs, order)
        degree = n - order if ctx["kind"] == "algebraic-chebyshev" else n
        left = _sampled_bounds(basis, left_of, bands, m, degree)[1]       # exact() runs the kernel
        if inequality == "markov-unit":
            scale = n * n
        elif inequality == "va-markov":
            scale = np.array([va_markov_exact(d, k) for d in n.tolist()])
    elif inequality != "riesz-circle":
        p = coeffs @ basis.design_matrix(probes).T
        dp = coeffs @ basis.design_matrix(probes, deriv=1).T
        if inequality == "bernstein-unit":
            lhs = np.abs(dp) * np.sqrt(1.0 - probes**2)
        elif inequality == "szego-unit":
            lhs = (dp * np.sqrt(1.0 - probes**2)) ** 2 + (n * n)[:, None] * p**2
        elif inequality == "bernstein-szego":
            lhs = (dp / (math.pi * ctx["omega"])) ** 2 + (n * n)[:, None] * p**2
        elif inequality == "bernstein-alg":
            lhs = np.abs(dp) / (math.pi * ctx["omega"])
        elif inequality == "bernstein-trig":
            lhs = np.abs(dp) / (2.0 * math.pi * ctx["omega"])
        else:
            raise InvalidArgumentError(f"unknown inequality {inequality!r}")
        left = np.max(lhs, axis=1)
        if inequality in ("szego-unit", "bernstein-szego"):
            scale, power = n * n, 2

    def ratio(rows, side, norm):
        if power == 1:
            return side / (scale[rows] * norm)
        return side / (scale[rows] * norm * norm)

    def exact(rows):
        if inequality == "riesz-circle":
            norm = _circle_norm(coeffs, rows)
        else:
            norm = _sup_norm(basis, coeffs, bands, rows)
        return ratio(rows, left[rows] if left_of is None else _sup_norm(basis, left_of, bands, rows), norm)

    hi = np.full(n.shape, np.inf)
    usable = low > 0.0
    hi[usable] = ratio(usable, left[usable], low[usable])
    return _exact_where_needed(hi, exact, hard)


def _exact_where_needed(hi: np.ndarray, exact, hard: float) -> np.ndarray:
    """hi, with exact(rows) in place wherever a trial can change a report.

    hi bounds every exact ratio from above.  The kernel first runs on the
    trial with the largest hi and on every trial with hi > hard; call the
    largest of their ratios r.  A trial can only reach the largest ratio, or
    be a violation, if its hi >= r or hi > hard, and one more kernel call
    takes every such trial not yet run.  Every other trial keeps hi < r, so
    the largest entry, the first trial to reach it, and the entries above
    hard are those of the full stack.
    """
    out = hi.copy()
    done = hi > hard
    done[np.argmax(hi)] = True
    out[done] = exact(np.flatnonzero(done))
    rest = (hi >= np.max(out[done])) & ~done
    if rest.any():
        out[rest] = exact(np.flatnonzero(rest))
    return out


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def verify_inequality(
    s,
    inequality: str,
    trials: int,
    rng_seed: int,
    order: int = 2,
    tol: Tolerances = DEFAULT_TOL,
    density_scale: float = 1.0,
    density=None,
) -> VerifyReport:
    """Randomized check of a non-asymptotic inequality; `order` is the
    derivative order used by the exact higher-derivative inequality only,
    and must lie in 1..verify_max_degree there.

    Each trial draws its degree and then its coefficients from the seeded
    generator, in trial order; all trials are then checked as one stack,
    each row padded with zeros to the widest.

    density_scale is a negative-control hook: the density-based bounds are
    divided through the scaled density, so any value other than 1 corrupts
    the right-hand sides on purpose and must produce violations.  density is
    the set's certified equilibrium density, for a caller that checks several
    inequalities on one set; None builds it when the inequality reads one.
    """
    if not (_is_integer(trials) and trials >= 1):
        raise InvalidArgumentError("trials must be an integer >= 1")
    if not (_is_integer(rng_seed) and rng_seed >= 0):
        raise InvalidArgumentError("seed must be a non-negative integer")
    if inequality == "va-markov" and not (_is_integer(order) and 1 <= order <= tol.verify_max_degree):
        raise InvalidArgumentError(
            f"va-markov needs a derivative order in 1..{tol.verify_max_degree}, got {order!r}"
        )
    if not (np.isfinite(density_scale) and density_scale > 0):
        raise InvalidArgumentError("density_scale must be positive")
    ctx = _verify_context(s, inequality, tol, float(density_scale), density)
    rng = np.random.default_rng(rng_seed)
    lowest = order if inequality == "va-markov" else 1
    trig = inequality in ("bernstein-trig", "trig-full-period")
    degrees = np.empty(trials, dtype=int)
    draws = []
    for trial in range(trials):
        n = int(rng.integers(lowest, tol.verify_max_degree + 1))
        degrees[trial] = n
        draws.append(rng.standard_normal(2 * n + 1 if trig else n + 1))
    stack = np.zeros((trials, max(row.size for row in draws)))
    for row, draw in zip(stack, draws):
        row[: draw.size] = draw
    ratios = _ratios(inequality, ctx, degrees, order, stack, 1.0 + tol.verify_hard)
    worst = int(np.argmax(ratios))       # the first trial that reaches the maximum
    bad = np.flatnonzero(ratios > 1.0 + tol.verify_hard)
    return VerifyReport(
        inequality=inequality,
        trials=trials,
        seed=rng_seed,
        max_ratio=float(ratios[worst]),
        worst_degree=int(degrees[worst]),
        violations=tuple([(t, int(degrees[t]), float(ratios[t])) for t in bad.tolist()]),
        witnesses=tuple([tuple(draws[t].tolist()) for t in bad.tolist()]),
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
        reported raw, and it is a lower bound: the Markov sweep is local.  Its
        closed-form constant is asymptotic, and for wide arcs the
        finite-degree extremum genuinely exceeds it (by at least 88% at
        beta = 3, n = 4, where a pointwise witness at theta = 2.745 reaches
        4.2693), converging from above as n grows."""
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
        pointwise_ratios=tuple([float(r) for r in ratios]),
        max_pointwise_ratio=float(max(ratios)),
        markov_ratio=float(markov_ratio),
        cert_slack=tol.cert_slack,
    )
