"""Brute-force extremal solvers against frozen constants and the factor catalog.

The LP route and the closed-form factors never share code, so agreement between
them is evidence, not tautology.  Wherever an extremal value is known exactly
(Chebyshev polynomials and their derivatives) the LP is held to a two-sided
bracket: the reported value sits above the true supremum because the norm
constraint lives on a grid, and at most a factor 1 + 1e-6 above it because the
certificate bounds the witness's exact sup norm.  The L2 pencil gets an
independent QUADPACK-assembled oracle.
"""

import dataclasses
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb
from scipy.integrate import quad
from scipy.linalg import eigh

from eqmarkov.config import DEFAULT_TOL
from eqmarkov.errors import (
    DomainError,
    EqmarkovError,
    InvalidArgumentError,
    NumericFailureError,
    ResourceLimitError,
)
from eqmarkov.extremal import (
    _OBJECTIVE_RECHECK,
    _VERIFY_HARD,
    _VERIFY_MAX_DEGREE,
    ExtremalResult,
    PolyBasis,
    VerifyReport,
    VidenskiiReport,
    _derivative,
    l2_ratio_numeric,
    markov_constant_numeric,
    pointwise_derivative_sup,
    verify_inequality,
    videnskii_check,
)
from eqmarkov.factors import (
    Weight,
    bernstein_factor,
    l2_markov_constant,
    markov_global,
    va_markov_exact,
    videnskii_markov,
    videnskii_pointwise,
)
from eqmarkov.numerics import LP_FEASIBILITY, simplex_solve
from eqmarkov.sets import Circle, IntervalUnion, PeriodicSet

UNIT = IntervalUnion((-1.0, 1.0))
SPLIT = IntervalUnion((-1.0, -0.5, 0.5, 1.0))
TWO = IntervalUnion((-1.0, -0.3, 0.2, 1.0))
THREE = IntervalUnion((-1.0, -0.6, -0.2, 0.3, 0.5, 1.0))

# how far an LP value may exceed an asymptotic bound at the finite degrees
# tested here; never loosen it
ASYMPTOTIC_SLACK = 0.02


@pytest.fixture
def lp_solves(monkeypatch):
    """One entry per LP the extremal module solves (one exchange) while the
    test runs."""
    import eqmarkov.extremal as ex

    calls = []
    real = ex._exchange

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ex, "_exchange", counting)
    return calls


def cheb_deriv_at(n: int, k: int, x: float) -> float:
    """Oracle: T_n^(k)(x) straight from the Chebyshev coefficient calculus."""
    e = np.zeros(n + 1)
    e[n] = 1.0
    return float(cheb.chebval(x, cheb.chebder(e, k)))


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

class TestPolyBasis:
    def test_algebraic_values_match_cosine_formula(self):
        basis = PolyBasis("algebraic-chebyshev", 5)
        xs = np.array([-0.9, -0.25, 0.0, 0.6, 0.99])
        mat = basis.design_matrix(xs)
        theta = np.arccos(xs)
        for j in range(6):
            np.testing.assert_allclose(mat[:, j], np.cos(j * theta), atol=1e-13)

    def test_algebraic_derivative_matches_oracle(self):
        basis = PolyBasis("algebraic-chebyshev", 6)
        xs = np.array([-0.7, 0.1, 0.45])
        for k in (1, 2, 3):
            mat = basis.design_matrix(xs, deriv=k)
            for j in range(7):
                want = [cheb_deriv_at(j, k, float(x)) if j else 0.0 for x in xs]
                if j == 0:
                    want = [0.0, 0.0, 0.0]
                np.testing.assert_allclose(mat[:, j], want, atol=1e-10)

    def test_reference_interval_chain_rule(self):
        plain = PolyBasis("algebraic-chebyshev", 4)
        scaled = PolyBasis("algebraic-chebyshev", 4, (1.0, 5.0))
        xs = np.array([1.5, 3.0, 4.2])
        pulled = (xs - 3.0) / 2.0
        np.testing.assert_allclose(
            scaled.design_matrix(xs, deriv=1),
            plain.design_matrix(pulled, deriv=1) / 2.0,
            rtol=1e-13,
        )

    def test_trig_columns_and_derivatives(self):
        basis = PolyBasis("trigonometric", 3)
        ts = np.array([-2.0, 0.3, 1.7])
        mat = basis.design_matrix(ts)
        assert mat.shape == (3, 7)
        np.testing.assert_allclose(mat[:, 0], 1.0)
        np.testing.assert_allclose(mat[:, 3], np.cos(2 * ts), atol=1e-14)
        np.testing.assert_allclose(mat[:, 6], np.sin(3 * ts), atol=1e-14)
        der = basis.design_matrix(ts, deriv=1)
        np.testing.assert_allclose(der[:, 0], 0.0)
        np.testing.assert_allclose(der[:, 1], -np.sin(ts), atol=1e-14)
        np.testing.assert_allclose(der[:, 2], np.cos(ts), atol=1e-14)
        np.testing.assert_allclose(der[:, 5], -3 * np.sin(3 * ts), atol=1e-13)
        second = basis.design_matrix(ts, deriv=2)
        np.testing.assert_allclose(second[:, 3], -4 * np.cos(2 * ts), atol=1e-13)

    def test_derivative_past_degree_is_zero(self):
        for ref in ((-1.0, 1.0), (-3.0, 2.0)):
            basis = PolyBasis("algebraic-chebyshev", 5, ref)
            mat = basis.design_matrix(np.linspace(-0.9, 0.9, 7), deriv=6)
            assert mat.shape == (7, 6) and not np.any(mat)

    def test_trig_constant_column_kept_at_order_zero(self):
        basis = PolyBasis("trigonometric", 4)
        ts = np.array([-3.0, -0.4, 0.0, 2.2])
        assert basis.design_matrix(ts)[:, 0].tolist() == [1.0] * 4
        assert not np.any(basis.design_matrix(ts, deriv=1)[:, 0])

    def test_order_zero_derivative_is_identity(self):
        rng = np.random.default_rng(3)
        for basis in (PolyBasis("algebraic-chebyshev", 6, (-2.0, 0.5)), PolyBasis("trigonometric", 3)):
            c = rng.standard_normal((4, basis.dim))
            got = _derivative(basis, c, 0)
            assert got.tolist() == c.tolist()

    def test_dim(self):
        assert PolyBasis("algebraic-chebyshev", 7).dim == 8
        assert PolyBasis("trigonometric", 7).dim == 15

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            PolyBasis("legendre", 3)
        with pytest.raises(InvalidArgumentError):
            PolyBasis("algebraic-chebyshev", 0)
        with pytest.raises(InvalidArgumentError):
            PolyBasis("algebraic-chebyshev", 3, (2.0, 2.0))


class TestExtremalResult:
    def test_uncertified_norm_rejected(self):
        with pytest.raises(NumericFailureError):
            ExtremalResult(
                value=1.0,
                coefficients=(1.0,),
                grid=(0.0,),
                refinements=0,
                certified_norm=1.0 + 2e-6,
                degree=1,
                order=1,
            )

    def test_caller_slack_honoured(self):
        tight = dataclasses.replace(DEFAULT_TOL, cert_slack=1e-9)
        with pytest.raises(NumericFailureError):
            ExtremalResult(
                value=1.0,
                coefficients=(1.0,),
                grid=(0.0,),
                refinements=0,
                certified_norm=1.0 + 1e-7,
                degree=1,
                order=1,
                cert_slack=tight.cert_slack,
            )
        res = pointwise_derivative_sup(UNIT, PolyBasis("algebraic-chebyshev", 11), 0.0, tol=tight)
        assert res.certified_norm <= 1.0 + tight.cert_slack
        report = dict(beta=2.0, degree=4, pointwise_ratios=(1.0 + 1e-7,),
                      max_pointwise_ratio=1.0 + 1e-7, markov_ratio=1.0)
        assert VidenskiiReport(**report).ok
        assert not VidenskiiReport(**report, cert_slack=tight.cert_slack).ok
        # cert_slack under lp_feasibility: points between the two must still
        # become cutting planes (n = 8 at the center stalls without them)
        tighter = dataclasses.replace(DEFAULT_TOL, cert_slack=1e-10)
        assert tighter.cert_slack < LP_FEASIBILITY
        res = pointwise_derivative_sup(UNIT, PolyBasis("algebraic-chebyshev", 8), 0.0, tol=tighter)
        assert res.certified_norm <= 1.0 + tighter.cert_slack
        per = PeriodicSet(IntervalUnion((-2.0, 2.0)))
        res = pointwise_derivative_sup(per, PolyBasis("trigonometric", 6), 0.3, tol=tighter)
        assert res.certified_norm <= 1.0 + tighter.cert_slack
        # the exchange holds its reference rows to round-off, so a slack
        # far below lp_feasibility still certifies
        tightest = dataclasses.replace(DEFAULT_TOL, cert_slack=1e-12)
        for n in (7, 11):
            res = pointwise_derivative_sup(UNIT, PolyBasis("algebraic-chebyshev", n), 0.0, tol=tightest)
            assert res.certified_norm <= 1.0 + tightest.cert_slack
        # below round-off, the failure is named at once instead of spending
        # the refinement budget on the same LP
        below_round_off = dataclasses.replace(DEFAULT_TOL, cert_slack=1e-16)
        with pytest.raises(NumericFailureError, match="own constraints"):
            pointwise_derivative_sup(UNIT, PolyBasis("algebraic-chebyshev", 7), 0.0, tol=below_round_off)


# ---------------------------------------------------------------------------
# pointwise LP
# ---------------------------------------------------------------------------

class TestPointwiseLP:
    def test_unit_interval_odd_degree_center(self):
        basis = PolyBasis("algebraic-chebyshev", 11)
        res = pointwise_derivative_sup(UNIT, basis, 0.0)
        assert abs(res.value - 11.0) < 1e-3
        assert res.certified_norm <= 1.0 + 1e-6
        coeffs = np.asarray(res.coefficients)
        cosine = abs(coeffs[11]) / np.linalg.norm(coeffs)
        assert cosine > 1.0 - 1e-6

    def test_two_sided_bracket_against_chebyshev(self):
        # At x0 = 0.5 with n = 4 the Chebyshev witness gives |T_4'(0.5)| = 4
        # and the square-root Bernstein bound caps the sup at n / sqrt(1 - x0^2).
        basis = PolyBasis("algebraic-chebyshev", 4)
        res = pointwise_derivative_sup(UNIT, basis, 0.5)
        lower = abs(cheb_deriv_at(4, 1, 0.5))
        upper = 4.0 / math.sqrt(1.0 - 0.25)
        assert lower - 1e-9 <= res.value <= upper * (1.0 + 2e-6)

    def test_interior_requirement(self):
        basis = PolyBasis("algebraic-chebyshev", 5)
        with pytest.raises(DomainError):
            pointwise_derivative_sup(UNIT, basis, 1.0)
        with pytest.raises(DomainError):
            pointwise_derivative_sup(TWO, basis, 0.0)

    def test_pairing_and_order_validation(self):
        with pytest.raises(InvalidArgumentError):
            pointwise_derivative_sup(UNIT, PolyBasis("trigonometric", 5), 0.0)
        with pytest.raises(InvalidArgumentError):
            pointwise_derivative_sup(
                PeriodicSet(IntervalUnion((-1.0, 1.0))),
                PolyBasis("algebraic-chebyshev", 5),
                0.0,
            )
        with pytest.raises(InvalidArgumentError):
            pointwise_derivative_sup(UNIT, PolyBasis("algebraic-chebyshev", 5), 0.0, k=0)

    def test_trig_pointwise_against_closed_bound(self):
        beta = 0.5 * math.pi
        per = PeriodicSet(IntervalUnion((-beta, beta)))
        basis = PolyBasis("trigonometric", 8)
        res = pointwise_derivative_sup(per, basis, 0.0)
        bound = 8 * videnskii_pointwise(beta, 0.0).value
        assert res.value <= bound * (1.0 + 2e-6)
        assert res.value / bound > 0.90

    def test_ill_conditioned_reference_raises(self):
        basis = PolyBasis("algebraic-chebyshev", 10, (-60.0, 60.0))
        with pytest.raises(NumericFailureError):
            pointwise_derivative_sup(UNIT, basis, 0.0)

    def test_overflowing_half_width_raises(self):
        # the set's own check of its endpoints overflows, which numpy warns of
        with np.errstate(over="ignore"):
            wide = IntervalUnion((-1e308, 1e308))
        basis = PolyBasis("algebraic-chebyshev", 3, wide.covering_interval)
        with pytest.raises(NumericFailureError, match="half-width overflows"):
            pointwise_derivative_sup(wide, basis, 0.0)
        with pytest.raises(NumericFailureError, match="half-width overflows"):
            markov_constant_numeric(wide, basis)

    def test_resource_limit_honest(self):
        tight = dataclasses.replace(DEFAULT_TOL, lp_max_constraints=10)
        basis = PolyBasis("algebraic-chebyshev", 5)
        with pytest.raises(ResourceLimitError):
            pointwise_derivative_sup(UNIT, basis, 0.0, tol=tight)

    def test_iteration_limit_honest(self):
        # the first LP at n = 7 needs more than three exchange pivots
        tight = dataclasses.replace(DEFAULT_TOL, lp_iteration_limit=3)
        basis = PolyBasis("algebraic-chebyshev", 7)
        with pytest.raises(ResourceLimitError, match="iteration limit"):
            pointwise_derivative_sup(UNIT, basis, 0.0, tol=tight)

    def test_refinement_budget_honest(self):
        # n = 11 at the center needs at least one cutting-plane round; with a
        # zero budget the solver must fail loudly instead of returning the
        # unrefined value.
        tight = dataclasses.replace(DEFAULT_TOL, refine_max_rounds=0)
        basis = PolyBasis("algebraic-chebyshev", 11)
        with pytest.raises(NumericFailureError):
            pointwise_derivative_sup(UNIT, basis, 0.0, tol=tight)


# ---------------------------------------------------------------------------
# Markov sweep LP
# ---------------------------------------------------------------------------

class TestMarkovLP:
    def test_unit_interval_exact_bracket(self):
        basis = PolyBasis("algebraic-chebyshev", 8)
        res = markov_constant_numeric(UNIT, basis)
        assert 64.0 - 1e-9 <= res.value <= 64.0 * (1.0 + 2e-6)
        assert abs(res.l_n - 1.0) < 1e-5
        assert res.order == 1 and res.degree == 8

    def test_higher_order_frozen(self):
        assert va_markov_exact(6, 3) == 2688.0
        basis = PolyBasis("algebraic-chebyshev", 6)
        res = markov_constant_numeric(UNIT, basis, k=3)
        assert 2688.0 - 1e-6 <= res.value <= 2688.0 * (1.0 + 2e-6)

    def test_equality_witness_identity(self):
        for n, k in [(5, 1), (8, 2), (11, 3), (6, 6)]:
            direct = cheb_deriv_at(n, k, 1.0)
            assert abs(direct - va_markov_exact(n, k)) <= 1e-10 * direct

    def test_affine_scaling(self):
        basis = PolyBasis("algebraic-chebyshev", 6, (0.0, 1.0))
        res = markov_constant_numeric(IntervalUnion((0.0, 1.0)), basis)
        assert 72.0 - 1e-9 <= res.value <= 72.0 * (1.0 + 2e-6)

    def test_split_set_tracks_global_factor(self):
        factor = markov_global(SPLIT).value
        assert abs(factor - 4.0 / 3.0) < 1e-8
        ratios = []
        for n in (6, 12):
            basis = PolyBasis("algebraic-chebyshev", n)
            res = markov_constant_numeric(SPLIT, basis)
            ratios.append(res.value / (factor * n * n))
        assert ratios[1] >= ratios[0] - 1e-9
        assert ratios[1] > 0.8
        assert ratios[1] <= 1.0 + ASYMPTOTIC_SLACK

    @pytest.mark.parametrize("domain, kind, n, k", [
        pytest.param(UNIT, "algebraic-chebyshev", 5, 1, id="unit-n5-k1"),
        pytest.param(UNIT, "algebraic-chebyshev", 5, 2, id="unit-n5-k2"),
        pytest.param(UNIT, "algebraic-chebyshev", 5, 3, id="unit-n5-k3"),
        pytest.param(TWO, "algebraic-chebyshev", 4, 1, id="two-n4"),
        pytest.param(TWO, "algebraic-chebyshev", 8, 1, id="two-n8"),
        pytest.param(THREE, "algebraic-chebyshev", 6, 1, id="three-n6"),
        pytest.param(PeriodicSet(IntervalUnion((-2.0, 2.0))), "trigonometric", 4, 1, id="arc2-n4"),
        pytest.param(PeriodicSet(IntervalUnion((-2.5, 2.5))), "trigonometric", 4, 1, id="arc2.5-n4"),
    ])
    def test_no_worse_than_endpoint_ladder(self, domain, kind, n, k):
        # The candidates of an endpoint-clustered ladder: both ends of every
        # band and ten geometrically spaced points per end, from half the band
        # down to 1e-6 of it, each solved by a fresh LP.  The public
        # pointwise_derivative_sup rejects band ends, so the LP class is used.
        import eqmarkov.extremal as ex

        ref = domain.covering_interval if kind == "algebraic-chebyshev" else (-1.0, 1.0)
        basis = PolyBasis(kind, n, ref)
        candidates = []
        for lo, hi in ex._bands_of(domain):
            dists = np.geomspace(0.5 * (hi - lo), 1e-6 * (hi - lo), 10)
            candidates += [lo, hi, *(lo + dists), *(hi - dists)]
        ladder = max(
            ex._CuttingPlaneLP(domain, basis, DEFAULT_TOL).solve(float(x0), k).value
            for x0 in candidates
        )
        res = markov_constant_numeric(domain, basis, k)
        assert res.value >= ladder * (1.0 - DEFAULT_TOL.cert_slack)

    @pytest.mark.parametrize("domain, n, k", [
        pytest.param(UNIT, 5, 3, id="unit-n5-k3"),
        pytest.param(TWO, 4, 1, id="two-n4"),
        pytest.param(TWO, 8, 1, id="two-n8"),
        pytest.param(THREE, 6, 1, id="three-n6"),
    ])
    def test_witness_is_a_fixed_point(self, domain, n, k):
        ref = domain.covering_interval
        res = markov_constant_numeric(domain, PolyBasis("algebraic-chebyshev", n, ref), k)
        half = 0.5 * (ref[1] - ref[0])
        deriv = cheb.chebder(np.asarray(res.coefficients), k) / half**k
        reach = brute_sup_algebraic(deriv, domain.bands, ref)
        assert reach <= res.value * (1.0 + DEFAULT_TOL.cert_slack)

    def test_lp_count_two_band_n24(self, lp_solves):
        res = markov_constant_numeric(TWO, PolyBasis("algebraic-chebyshev", 24, TWO.covering_interval))
        assert len(lp_solves) <= 16
        assert res.value / (markov_global(TWO).value * 24 * 24) > 0.85

    def test_short_arc_certifies(self):
        # An endpoint ladder failed here: its carried-constraint solve at
        # theta = -1 + 0.2327... did not reproduce its own LP value.
        per = PeriodicSet(IntervalUnion((-1.0, 1.0)))
        res = markov_constant_numeric(per, PolyBasis("trigonometric", 8))
        assert brute_sup_trig(res.coefficients, per.base.bands) <= 1.0 + DEFAULT_TOL.cert_slack
        j = np.arange(1, 9)
        c = np.asarray(res.coefficients)
        deriv = np.zeros_like(c)
        deriv[1::2], deriv[2::2] = j * c[2::2], -j * c[1::2]
        assert brute_sup_trig(deriv, per.base.bands) <= res.value * (1.0 + DEFAULT_TOL.cert_slack)
        ratio = res.value / (64 * videnskii_markov(1.0).value)
        assert 0.99 < ratio <= 1.0 + ASYMPTOTIC_SLACK


# ---------------------------------------------------------------------------
# exact sup-norm certificate
# ---------------------------------------------------------------------------

def brute_sup_algebraic(coeffs, bands, reference, points=2_000_001) -> float:
    """max |P| over the bands: a uniform grid per band plus the real roots of P'."""
    c = np.asarray(coeffs, dtype=float)
    mid, half = 0.5 * (reference[0] + reference[1]), 0.5 * (reference[1] - reference[0])
    roots = cheb.chebroots(cheb.chebder(c))
    roots = roots[np.abs(roots.imag) < 1e-9].real
    best = 0.0
    for lo, hi in bands:
        s_lo, s_hi = (lo - mid) / half, (hi - mid) / half
        s = np.concatenate([np.linspace(s_lo, s_hi, points), roots[(roots > s_lo) & (roots < s_hi)]])
        best = max(best, float(np.max(np.abs(cheb.chebval(s, c)))))
    return best


def trig_eval(coeffs, t):
    c = np.asarray(coeffs, dtype=float)
    out = np.full(np.shape(t), c[0])
    for j in range(1, (c.size - 1) // 2 + 1):
        out += c[2 * j - 1] * np.cos(j * t) + c[2 * j] * np.sin(j * t)
    return out


def brute_sup_trig(coeffs, bands, points=2_000_001) -> float:
    """max |T| over the bands: a uniform grid plus the unimodular roots of z^n T'."""
    c = np.asarray(coeffs, dtype=float)
    n = (c.size - 1) // 2
    j = np.arange(1, n + 1)
    # T' has cosine coefficients j b_j and sine coefficients -j a_j
    up = 0.5 * (j * c[2::2] + 1j * j * c[1::2])
    zpoly = np.concatenate([np.conj(up)[::-1], [0.0], up])
    roots = np.polynomial.polynomial.polyroots(zpoly)
    crit = np.angle(roots[np.abs(np.abs(roots) - 1.0) < 1e-6])
    best = 0.0
    for lo, hi in bands:
        t = np.concatenate([np.linspace(lo, hi, points), crit[(crit > lo) & (crit < hi)]])
        best = max(best, float(np.max(np.abs(trig_eval(c, t)))))
    return best


def band_points(a, b, theta):
    """The points 0.5(a + b) + 0.5(b - a) cos(theta) of the band [a, b],
    clipped into it: at theta = 0 the sum can round one ulp past b, where
    the sampled polynomial may exceed its sup over the band."""
    return np.clip(0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta), a, b)


def zoomed_grid_max(f, lo, hi, coarse=20_001, fine=20_001, top=8) -> float:
    """max |f| over [lo, hi] by sampling alone: a uniform grid, then a finer
    one around each of the strongest local maxima."""
    x = np.linspace(lo, hi, coarse)
    v = np.abs(f(x))
    padded = np.concatenate([[-np.inf], v, [-np.inf]])
    peaks = np.flatnonzero((v >= padded[:-2]) & (v >= padded[2:]))
    best = float(np.max(v))
    for i in peaks[np.argsort(v[peaks])][-top:]:
        xs = np.linspace(x[max(i - 1, 0)], x[min(i + 1, coarse - 1)], fine)
        best = max(best, float(np.max(np.abs(f(xs)))))
    return best


class TestExactCertificate:
    """The LP witness's sup norm, recomputed without the library's kernel,
    stays within the certificate, and the kernel itself matches sampling."""

    def test_pointwise_unit_n7(self):
        res = pointwise_derivative_sup(UNIT, PolyBasis("algebraic-chebyshev", 7), 0.0)
        norm = brute_sup_algebraic(res.coefficients, UNIT.bands, (-1.0, 1.0))
        assert norm <= 1.0 + DEFAULT_TOL.cert_slack
        assert 7.0 * (1.0 - 1e-9) <= res.value <= 7.0 * (1.0 + DEFAULT_TOL.cert_slack)

    def test_markov_two_band_n4(self):
        res = markov_constant_numeric(TWO, PolyBasis("algebraic-chebyshev", 4))
        norm = brute_sup_algebraic(res.coefficients, TWO.bands, TWO.covering_interval)
        assert norm <= 1.0 + DEFAULT_TOL.cert_slack

    def test_periodic_trig_n6(self):
        per = PeriodicSet(IntervalUnion((-2.0, 2.0)))
        res = pointwise_derivative_sup(per, PolyBasis("trigonometric", 6), 0.3)
        norm = brute_sup_trig(res.coefficients, per.base.bands)
        assert norm <= 1.0 + DEFAULT_TOL.cert_slack

    def test_one_lp_per_round(self, lp_solves):
        res = pointwise_derivative_sup(UNIT, PolyBasis("algebraic-chebyshev", 11), 0.0)
        assert res.refinements >= 1
        assert len(lp_solves) == res.refinements + 1

    @pytest.mark.parametrize("seed", range(12))
    def test_kernel_matches_dense_sampling(self, seed):
        from eqmarkov.extremal import _circle_norm, _sup_norm

        rng = np.random.default_rng([seed, 2026])
        eps = np.finfo(float).eps

        # algebraic: random reference interval and one to three bands inside it
        n = int(rng.integers(1, 16))
        lo, hi = sorted(rng.uniform(-2.0, 2.0, 2))
        ref = (lo - rng.uniform(0.0, 0.5), hi + rng.uniform(0.0, 0.5))
        cuts = np.sort(rng.uniform(lo, hi, 2 * int(rng.integers(0, 3))))
        ends = np.concatenate([[lo], cuts, [hi]])
        bands = tuple(zip(ends[0::2], ends[1::2]))
        c = rng.standard_normal(n + 1)
        mid, half = 0.5 * (ref[0] + ref[1]), 0.5 * (ref[1] - ref[0])
        got = _sup_norm(PolyBasis("algebraic-chebyshev", n, ref), c[None, :], bands)[0]
        # sampled in the angle of each band, where P is uniformly smooth
        want = max(
            zoomed_grid_max(lambda th, a=a, b=b: cheb.chebval((band_points(a, b, th) - mid) / half, c),
                            0.0, math.pi)
            for a, b in bands
        )
        assert got >= want - 8 * eps * np.sum(np.abs(c))
        assert abs(got - want) <= 1e-12 * want

        # trigonometric: one arc, which may wrap past +-pi
        n = int(rng.integers(1, 16))
        a = rng.uniform(-math.pi, math.pi)
        b = a + rng.uniform(0.2, 2.0 * math.pi)
        c = rng.standard_normal(2 * n + 1)
        got = _sup_norm(PolyBasis("trigonometric", n), c[None, :], ((a, b),))[0]
        want = zoomed_grid_max(lambda t: trig_eval(c, t), a, b)
        assert got >= want - 8 * eps * np.sum(np.abs(c))
        assert abs(got - want) <= 1e-12 * want

        # the circle: |P(e^{it})| through the square of its modulus
        n = int(rng.integers(1, 16))
        c = rng.standard_normal(n + 1)
        got = _circle_norm(c[None, :])[0]
        want = zoomed_grid_max(
            lambda t: np.polynomial.polynomial.polyval(np.exp(1j * t), c), -math.pi, math.pi)
        assert got >= want - 8 * eps * np.sum(np.abs(c))
        assert abs(got - want) <= 1e-12 * want


class TestStackedKernel:
    """The sup-norm kernel on random stacks: every row as it comes out of the
    stack equals the kernel run on that row alone, and is no smaller than
    the dense-sampled maximum."""

    @staticmethod
    def check_stack(got, alone, sampled, scale):
        eps = np.finfo(float).eps
        for row, (value, single, want) in enumerate(zip(got, alone, sampled)):
            assert abs(value - single) <= 1e-12 * single, row
            assert value >= want - 8 * eps * scale[row], row
            assert abs(value - want) <= 1e-12 * want, row

    @staticmethod
    def draw_stack(rng, g, dim, drop_top):
        c = rng.standard_normal((g, dim))
        if drop_top and g > 1:
            c[0, -1] = 0.0          # one row of lower degree than the rest
        return c

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 6), n=st.integers(1, 15),
           nbands=st.integers(1, 3), drop_top=st.booleans())
    @example(seed=0, g=1, n=1, nbands=1, drop_top=False)
    @example(seed=1, g=3, n=1, nbands=3, drop_top=True)
    @example(seed=2515801, g=3, n=15, nbands=2, drop_top=False)   # cos 0 rounds past b
    def test_algebraic_stack(self, seed, g, n, nbands, drop_top):
        from eqmarkov.extremal import _sup_norm

        rng = np.random.default_rng(seed)
        lo, hi = sorted(rng.uniform(-2.0, 2.0, 2))
        ref = (lo - rng.uniform(0.0, 0.5), hi + rng.uniform(0.0, 0.5))
        ends = np.concatenate([[lo], np.sort(rng.uniform(lo, hi, 2 * nbands - 2)), [hi]])
        bands = tuple(zip(ends[0::2], ends[1::2]))
        c = self.draw_stack(rng, g, n + 1, drop_top)
        basis = PolyBasis("algebraic-chebyshev", n, ref)
        got = _sup_norm(basis, c, bands)
        alone = [_sup_norm(basis, c[i : i + 1], bands)[0] for i in range(g)]
        mid, half = 0.5 * (ref[0] + ref[1]), 0.5 * (ref[1] - ref[0])
        sampled = [
            max(zoomed_grid_max(
                lambda th, a=a, b=b, row=row: cheb.chebval((band_points(a, b, th) - mid) / half, row),
                0.0, math.pi) for a, b in bands)
            for row in c
        ]
        assert got.shape == (g,)
        self.check_stack(got, alone, sampled, np.sum(np.abs(c), axis=1))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 6), n=st.integers(1, 15),
           drop_top=st.booleans())
    @example(seed=0, g=1, n=1, drop_top=False)
    def test_trigonometric_stack(self, seed, g, n, drop_top):
        from eqmarkov.extremal import _sup_norm

        rng = np.random.default_rng(seed)
        a = rng.uniform(-math.pi, math.pi)
        b = a + rng.uniform(0.2, 2.0 * math.pi)       # may wrap past +-pi
        c = self.draw_stack(rng, g, 2 * n + 1, drop_top)
        if drop_top and g > 1:
            c[0, -2] = 0.0          # cos nt and sin nt both gone
        basis = PolyBasis("trigonometric", n)
        got = _sup_norm(basis, c, ((a, b),))
        alone = [_sup_norm(basis, c[i : i + 1], ((a, b),))[0] for i in range(g)]
        sampled = [zoomed_grid_max(lambda t, row=row: trig_eval(row, t), a, b) for row in c]
        self.check_stack(got, alone, sampled, np.sum(np.abs(c), axis=1))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), g=st.integers(1, 6), n=st.integers(1, 15))
    @example(seed=0, g=1, n=1)
    def test_circle_stack(self, seed, g, n):
        from eqmarkov.extremal import _circle_norm

        c = np.random.default_rng(seed).standard_normal((g, n + 1))
        got = _circle_norm(c)
        alone = [_circle_norm(c[i : i + 1])[0] for i in range(g)]
        sampled = [
            zoomed_grid_max(lambda t, row=row: np.polynomial.polynomial.polyval(np.exp(1j * t), row),
                            -math.pi, math.pi)
            for row in c
        ]
        self.check_stack(got, alone, sampled, np.sum(np.abs(c), axis=1))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("algebraic-chebyshev", "trigonometric")))
    @example(seed=0, kind="algebraic-chebyshev")
    @example(seed=0, kind="trigonometric")
    def test_every_degree_padded_into_one_stack(self, seed, kind):
        # rows of degrees 1..15 in random order, zero-padded to degree 15
        from eqmarkov.extremal import _sup_norm

        rng = np.random.default_rng(seed)
        if kind == "trigonometric":
            a = rng.uniform(-math.pi, math.pi)
            bands = ((a, a + rng.uniform(0.2, 2.0 * math.pi)),)
        else:
            ends = np.sort(rng.uniform(-1.0, 1.0, 2 * int(rng.integers(1, 4))))
            bands = tuple(zip(ends[0::2], ends[1::2]))
        top = PolyBasis(kind, 15)
        stack = np.zeros((15, top.dim))
        alone = []
        for row, d in zip(stack, rng.permutation(np.arange(1, 16)).tolist()):
            basis = PolyBasis(kind, d)
            row[: basis.dim] = rng.standard_normal(basis.dim)
            alone.append(_sup_norm(basis, row[None, : basis.dim], bands)[0])
        got = _sup_norm(top, stack, bands)
        for value, single in zip(got, alone):
            assert abs(value - single) <= 1e-12 * single

    def test_trig_row_reaches_eigvals_at_its_degree(self, monkeypatch):
        from eqmarkov.extremal import _sup_norm

        shapes = []
        real = np.linalg.eigvals

        def recording(a):
            shapes.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        degrees = (1, 2, 5, 9, 15)
        basis = PolyBasis("trigonometric", 15)
        stack = np.zeros((len(degrees), basis.dim))
        rng = np.random.default_rng(7)
        for row, d in zip(stack, degrees):
            row[: 2 * d + 1] = rng.standard_normal(2 * d + 1)
        _sup_norm(basis, stack, ((-1.0, 2.0),))
        assert sorted(shapes) == [(1, 2 * d, 2 * d) for d in degrees]

    @pytest.mark.parametrize("n", range(1, 16))
    def test_circle_norm_closed_forms(self, n):
        from eqmarkov.extremal import _circle_norm

        binomial = [math.comb(n, j) for j in range(n + 1)]       # (1 + z)^n
        monomial = [1.0] + [0.0] * (n - 1) + [1.0]                  # 1 + z^n
        got = _circle_norm(np.array([binomial, monomial], dtype=float))
        assert abs(got[0] - 2.0**n) <= 1e-14 * 2.0**n
        assert abs(got[1] - 2.0) <= 1e-14 * 2.0


# ---------------------------------------------------------------------------
# the LP exchange against solvers that share no code with it
# ---------------------------------------------------------------------------

ARC2 = PeriodicSet(IntervalUnion((-2.0, 2.0)))

# The cutting-plane problems of the benchmark's sup_oracle workload:
# (set, degree, point or None for the Markov sweep, derivative order).
SUP_ORACLE = [
    pytest.param(UNIT, 7, 0.0, 1, id="unit-n7"),
    pytest.param(UNIT, 8, 0.0, 1, id="unit-n8"),
    pytest.param(UNIT, 9, 0.0, 1, id="unit-n9"),
    pytest.param(UNIT, 8, 0.3, 2, id="unit-n8-k2"),
    pytest.param(UNIT, 7, -0.2, 3, id="unit-n7-k3"),
    pytest.param(UNIT, 5, None, 1, id="unit-markov-n5"),
    pytest.param(UNIT, 6, None, 2, id="unit-markov-n6-k2"),
    pytest.param(UNIT, 5, None, 3, id="unit-markov-n5-k3"),
    pytest.param(TWO, 8, 0.5, 1, id="two-n8"),
    pytest.param(TWO, 2, None, 1, id="two-markov-n2"),
    pytest.param(TWO, 4, None, 1, id="two-markov-n4"),
    pytest.param(ARC2, 6, 0.3, 1, id="arc2-n6"),
    pytest.param(ARC2, 4, None, 1, id="arc2-markov-n4"),
]


def solve_problem(domain, n, x0, k):
    if isinstance(domain, PeriodicSet):
        basis = PolyBasis("trigonometric", n)
    else:
        basis = PolyBasis("algebraic-chebyshev", n, domain.covering_interval)
    if x0 is None:
        return markov_constant_numeric(domain, basis, k)
    return pointwise_derivative_sup(domain, basis, x0, k)


def highs_lp(rows, objective, tol):
    """max objective.x s.t. |rows @ x| <= 1, by HiGHS through linprog."""
    return simplex_solve(objective, np.vstack([rows, -rows]), np.ones(2 * len(rows)), tol=tol)


def highs_exchange(rows, objective, ref, tol):
    """Drop-in for the exchange: each cutting-plane round solved by HiGHS."""
    lp = highs_lp(rows, objective, tol)
    if lp.status != "optimal":
        raise NumericFailureError(f"LP ended with status {lp.status!r}")
    return lp.solution, ref


def cheb_row(t, n, reference):
    """T_0..T_n of the reference interval at t, in the current mpmath precision."""
    mid = (mpmath.mpf(reference[0]) + reference[1]) / 2
    half = (mpmath.mpf(reference[1]) - reference[0]) / 2
    u = (mpmath.mpf(t) - mid) / half
    row = [mpmath.mpf(1), u]
    while len(row) < n + 1:
        row.append(2 * u * row[-1] - row[-2])
    return row[: n + 1]


class TestExchangeOracles:
    @pytest.mark.parametrize("domain, n, x0, k", SUP_ORACLE)
    def test_highs_matches_every_lp(self, monkeypatch, domain, n, x0, k):
        # Every LP the exchange solves, HiGHS solves again on the same rows.
        import eqmarkov.extremal as ex

        real = ex._exchange
        values = []

        def checked(rows, objective, ref, tol):
            x, ref = real(rows, objective, ref, tol)
            value = float(objective @ x)
            lp = highs_lp(rows, objective, tol)
            assert lp.status == "optimal"
            assert abs(lp.objective - value) <= LP_FEASIBILITY * abs(lp.objective)
            values.append(value)
            return x, ref

        monkeypatch.setattr(ex, "_exchange", checked)
        res = solve_problem(domain, n, x0, k)
        assert res.value in values

    @pytest.mark.parametrize("domain, n, x0, k", [
        p for p in SUP_ORACLE if not isinstance(p.values[0], PeriodicSet)
    ])
    def test_reference_resolved_at_30_digits(self, monkeypatch, domain, n, x0, k):
        # The LP value is sum |w| on the final reference B, where V_B^T w = c;
        # the interpolant a of sign(w) on B has c.a = sum |w|.
        import eqmarkov.extremal as ex

        real = ex._CuttingPlaneLP.solve
        solved = []

        def recording(self, point, order):
            res = real(self, point, order)
            solved.append((point, res, self.grid[self.ref].copy()))
            return res

        monkeypatch.setattr(ex._CuttingPlaneLP, "solve", recording)
        res = solve_problem(domain, n, x0, k)
        # a Markov walk can reach one extremal polynomial at several points
        point, _, reference = next(
            s for s in solved if (s[1].coefficients, s[1].value) == (res.coefficients, res.value))
        cover = domain.covering_interval
        with mpmath.workdps(30):
            half = (mpmath.mpf(cover[1]) - cover[0]) / 2
            at_point = cheb_row(point, n, cover)
            c = []
            for j in range(n + 1):
                e = np.zeros(j + 1)
                e[j] = 1.0
                der = cheb.chebder(e, k)     # integer coefficients, exact
                c.append(sum(mpmath.mpf(d) * t for d, t in zip(der, at_point)) / half**k)
            v = mpmath.matrix([cheb_row(t, n, cover) for t in reference])
            w = mpmath.lu_solve(v.T, mpmath.matrix(c))
            a = mpmath.lu_solve(v, mpmath.matrix([mpmath.sign(wi) for wi in w]))
            value = abs(sum(ci * ai for ci, ai in zip(c, a)))
            assert abs(value - sum(abs(wi) for wi in w)) <= mpmath.mpf(10) ** -25 * value
            assert abs(float(value) - res.value) <= _OBJECTIVE_RECHECK * float(value)

    def test_random_problems_agree_with_highs(self, monkeypatch):
        # Seeded problems across band layouts, arcs, degrees and orders: each
        # certifies or raises a typed error, and wherever the exchange and a
        # HiGHS-per-round route both certify, they agree within cert_slack.
        import eqmarkov.extremal as ex

        real = ex._exchange
        rng = np.random.default_rng(2026)
        agreed = 0
        for _ in range(40):
            if rng.uniform() < 0.6:
                while True:
                    ends = np.sort(rng.uniform(-1.0, 1.0, 2 * int(rng.integers(1, 4))))
                    if np.min(np.diff(ends)) >= 0.05:
                        break
                domain = IntervalUnion(tuple(float(e) for e in ends))
                n = int(rng.integers(1, 25))
            else:
                beta = float(rng.uniform(0.3, 3.05))
                domain = PeriodicSet(IntervalUnion((-beta, beta)))
                n = int(rng.integers(1, 13))
            k = int(rng.integers(1, 3))
            bands = ex._bands_of(domain)
            lo, hi = bands[int(rng.integers(len(bands)))]
            x0 = None if rng.uniform() < 0.4 else float(lo + (hi - lo) * rng.uniform(0.05, 0.95))
            outcomes = []
            for route in (real, highs_exchange):
                monkeypatch.setattr(ex, "_exchange", route)
                try:
                    outcomes.append(solve_problem(domain, n, x0, k).value)
                except EqmarkovError as exc:
                    outcomes.append(exc)
            exchange, highs = outcomes
            if isinstance(exchange, float) and isinstance(highs, float):
                assert abs(exchange - highs) <= DEFAULT_TOL.cert_slack * highs, (domain, n, x0, k)
                agreed += 1
        assert agreed >= 30


class TestExchangeRoundoffPivot:
    """A reference that is singular to round-off gives the ratio test no
    leaving row; the exchange then swaps in the entering row for the basic
    row of the largest pivot |d_i| instead of failing."""

    LAYOUT = IntervalUnion((-0.7047468146709341, 0.6837851647355018, 0.7306323622997986, 0.7824402953464473))
    X0 = 0.7388088991073399

    def test_degree_23_certifies_between_its_neighbours(self, monkeypatch):
        import eqmarkov.extremal as ex

        real = ex._exchange
        lps = []

        def recording(rows, objective, ref, tol):
            x, ref = real(rows, objective, ref, tol)
            lps.append((rows, objective, float(objective @ x)))
            return x, ref

        def solve(n):
            return pointwise_derivative_sup(self.LAYOUT, PolyBasis("algebraic-chebyshev", n, self.LAYOUT.covering_interval), self.X0)

        below, above = solve(22).value, solve(24).value
        monkeypatch.setattr(ex, "_exchange", recording)
        res = solve(23)
        assert below < res.value < above
        assert res.certified_norm <= 1.0 + DEFAULT_TOL.cert_slack
        rows, objective, value = lps[-1]
        lp = highs_lp(rows, objective, DEFAULT_TOL)
        assert lp.status == "optimal"
        assert abs(lp.objective - value) <= LP_FEASIBILITY * abs(lp.objective)


class TestExchangeCycles:
    """Degenerate LPs whose round-off pivots cycle: each call ends within a
    second, certified or with a typed numeric failure, never at the pivot
    limit."""

    def test_degenerate_arc_certifies(self):
        # HiGHS on a 40001-point grid brackets the value in
        # [10.3714418, 10.3714450].
        per = PeriodicSet(IntervalUnion((-2.5, 2.5)))
        start = time.perf_counter()
        res = pointwise_derivative_sup(per, PolyBasis("trigonometric", 10), 0.0)
        assert time.perf_counter() - start < 1.0
        assert 10.3714418 <= res.value <= 10.3714450 * (1.0 + DEFAULT_TOL.cert_slack)
        assert brute_sup_trig(res.coefficients, per.base.bands) <= 1.0 + DEFAULT_TOL.cert_slack

    @pytest.mark.parametrize("beta, n", [
        (2.0, 4), (2.0, 6), (2.5, 3), (2.5, 5), (2.5, 6), (3.0, 5), (3.0, 6), (3.0, 8),
    ])
    def test_mirrored_candidates(self, monkeypatch, beta, n):
        # Cutting at the mirror -t of every trigonometric candidate as well
        # makes the exchange meet degenerate references that cycle.
        import eqmarkov.extremal as ex

        real = ex._abs_extrema

        def mirrored(basis, coeffs, bands):
            points, values = real(basis, coeffs, bands)
            if basis.kind != "trigonometric":
                return points, values
            points = np.concatenate([points, -points], axis=1)
            return points, np.abs(ex._values(basis, coeffs, points))

        monkeypatch.setattr(ex, "_abs_extrema", mirrored)
        start = time.perf_counter()
        try:
            pointwise_derivative_sup(PeriodicSet(IntervalUnion((-beta, beta))), PolyBasis("trigonometric", n), 0.0)
        except NumericFailureError:
            pass
        assert time.perf_counter() - start < 1.0


# The cutting-plane route without its Newton step, per SUP_ORACLE problem:
# exchange calls, the refinements of each LP solve in call order, and the
# value, all as the plain route gives them.
PLAIN_ROUTE = {
    "unit-n7": (3, [2], 7.000000007297644),
    "unit-n8": (9, [8], 7.000003152487095),
    "unit-n9": (3, [2], 9.000000019896289),
    "unit-n8-k2": (9, [8], 59.899065689817185),
    "unit-n7-k3": (10, [9], 226.8751842890375),
    "unit-markov-n5": (4, [2, 0], 25.000000001920696),
    "unit-markov-n6-k2": (4, [2, 0], 420.00000045825675),
    "unit-markov-n5-k3": (4, [2, 0], 840.000000081625),
    "two-n8": (8, [7], 8.84699675249387),
    "two-markov-n2": (18, [0, 7, 7, 0], 4.166666666666667),
    "two-markov-n4": (7, [2, 0, 1, 0], 16.66666666667377),
    "arc2-n6": (12, [11], 6.99092693117266),
    "arc2-markov-n4": (5, [3, 0], 20.54696370990456),
}
# exchange calls with the Newton step
NEWTON_ROUTE = {
    "unit-n7": 2, "unit-n8": 4, "unit-n9": 2, "unit-n8-k2": 2, "unit-n7-k3": 2,
    "unit-markov-n5": 3, "unit-markov-n6-k2": 3, "unit-markov-n5-k3": 3,
    "two-n8": 2, "two-markov-n2": 6, "two-markov-n4": 6, "arc2-n6": 2, "arc2-markov-n4": 3,
}
# optima where the plain route converges only linearly
DEGENERATE = ("unit-n8", "unit-n8-k2", "unit-n7-k3", "two-n8", "two-markov-n2", "arc2-n6")


@pytest.fixture
def lp_rounds(monkeypatch):
    """The refinements of every LP solve, in call order, while the test
    runs."""
    import eqmarkov.extremal as ex

    rounds = []
    solve = ex._CuttingPlaneLP.solve

    def recording(self, point, order):
        res = solve(self, point, order)
        rounds.append(res.refinements)
        return res

    monkeypatch.setattr(ex._CuttingPlaneLP, "solve", recording)
    return rounds


class TestNewtonStep:
    """The local-reduction Newton step of the cutting-plane LP: fewer LPs,
    the same values within cert_slack, and the plain route whenever it
    fails."""

    @pytest.mark.parametrize("domain, n, x0, k", SUP_ORACLE)
    def test_fewer_exchanges(self, request, lp_solves, lp_rounds, domain, n, x0, k):
        label = request.node.callspec.id
        res = solve_problem(domain, n, x0, k)
        plain_calls, _, plain_value = PLAIN_ROUTE[label]
        assert len(lp_solves) == NEWTON_ROUTE[label] <= plain_calls
        assert abs(res.value - plain_value) <= DEFAULT_TOL.cert_slack * plain_value
        assert res.certified_norm <= 1.0 + DEFAULT_TOL.cert_slack
        if label in DEGENERATE:
            assert max(lp_rounds) <= 2

    def test_exchange_total(self, lp_solves):
        for p in SUP_ORACLE:
            solve_problem(*p.values)
        assert len(lp_solves) == sum(NEWTON_ROUTE.values()) <= 45

    @pytest.mark.parametrize("domain, n, x0, k", SUP_ORACLE)
    def test_failed_newton_is_the_plain_route(self, monkeypatch, request, lp_solves, lp_rounds,
                                              domain, n, x0, k):
        import eqmarkov.extremal as ex

        monkeypatch.setattr(ex, "_newton_reference", lambda *args: None)
        res = solve_problem(domain, n, x0, k)
        assert (len(lp_solves), lp_rounds, res.value) == PLAIN_ROUTE[request.node.callspec.id]

    @pytest.mark.parametrize("domain, n, x0, k", SUP_ORACLE)
    def test_exchange_failing_on_newton_rows_is_the_plain_route(self, monkeypatch, request, lp_rounds,
                                                                domain, n, x0, k):
        # every LP on rows that Newton added fails as a cycling exchange
        # does, and is solved again on that round's plain cuts
        import eqmarkov.extremal as ex

        newton, exchange = ex._newton_reference, ex._exchange
        added = []

        def adding(*args):
            found = newton(*args)
            added.append(found is not None and found[1].size > 0)
            return found

        def failing(rows, objective, ref, tol):
            if added and added.pop():
                raise NumericFailureError("LP exchange cycles on a degenerate reference")
            return exchange(rows, objective, ref, tol)

        monkeypatch.setattr(ex, "_newton_reference", adding)
        monkeypatch.setattr(ex, "_exchange", failing)
        res = solve_problem(domain, n, x0, k)
        _, plain_rounds, plain_value = PLAIN_ROUTE[request.node.callspec.id]
        assert (lp_rounds, res.value) == (plain_rounds, plain_value)

    @pytest.mark.parametrize("mutant", ["scaled-up", "scaled-down", "random"])
    @pytest.mark.parametrize("domain, n, x0, k", [
        p for p in SUP_ORACLE if p.id in DEGENERATE
    ])
    def test_perturbed_polynomial_is_never_the_witness(self, monkeypatch, mutant, domain, n, x0, k):
        import eqmarkov.extremal as ex

        newton = ex._newton_reference
        rng = np.random.default_rng(7)
        offered = []

        def perturbed(*args):
            found = newton(*args)
            if found is None:
                return None
            x, atoms = found
            if mutant == "scaled-up":
                x = x * (1.0 + 1e-6)
            elif mutant == "scaled-down":
                x = x * (1.0 - 1e-6)
            else:
                x = x + 1e-6 * np.max(np.abs(x)) * rng.standard_normal(x.size)
            offered.append(tuple(x.tolist()))
            return x, atoms

        monkeypatch.setattr(ex, "_newton_reference", perturbed)
        res = solve_problem(domain, n, x0, k)
        assert offered and res.coefficients not in offered
        assert res.certified_norm <= 1.0 + DEFAULT_TOL.cert_slack


# ---------------------------------------------------------------------------
# L2 pencil
# ---------------------------------------------------------------------------

def quadpack_pencil(e: IntervalUnion, n: int):
    """Independent Gram pair for T_0..T_n of the covering interval, w = 1."""
    lo0, hi0 = e.covering_interval
    c, r = 0.5 * (lo0 + hi0), 0.5 * (hi0 - lo0)

    def tval(j, x, deriv):
        ej = np.zeros(j + 1)
        ej[j] = 1.0
        cj = cheb.chebder(ej, deriv) if deriv else ej
        return cheb.chebval((x - c) / r, cj) / r**deriv

    dim = n + 1
    a = np.zeros((dim, dim))
    b = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i + 1):
            bij = sum(
                quad(lambda x: tval(i, x, 0) * tval(j, x, 0), lo, hi, epsabs=1e-13)[0]
                for lo, hi in e.bands
            )
            aij = sum(
                quad(lambda x: tval(i, x, 1) * tval(j, x, 1), lo, hi, epsabs=1e-13)[0]
                for lo, hi in e.bands
            )
            b[i, j] = b[j, i] = bij
            a[i, j] = a[j, i] = aij
    return a, b


def quadpack_weighted_pencil(e: IntervalUnion, n: int, plain, deriv):
    """Independent Gram pair for T_0..T_n of the covering interval under a
    pair of weights: on band k, plain(k) and deriv(k) give the exponents at
    the band's two ends and the smooth rest of the weight that P and P' are
    measured against, integrated by QUADPACK's algebraic-weight rule."""
    lo0, hi0 = e.covering_interval
    c, r = 0.5 * (lo0 + hi0), 0.5 * (hi0 - lo0)
    eye = np.eye(n + 1)

    def tval(j, x, order):
        cj = cheb.chebder(eye[j], order) if order else eye[j]
        return cheb.chebval((x - c) / r, cj) / r**order

    a = np.zeros((n + 1, n + 1))
    b = np.zeros((n + 1, n + 1))
    for band, (lo, hi) in enumerate(e.bands):
        for mat, side, k in ((b, plain, 0), (a, deriv, 1)):
            wvar, rest = side(band)
            for i in range(n + 1):
                for j in range(i + 1):
                    mat[i, j] += quad(
                        lambda x: tval(i, x, k) * tval(j, x, k) * rest(x),
                        lo, hi, weight="alg", wvar=wvar, epsabs=1e-13,
                    )[0]
    a = np.tril(a) + np.tril(a, -1).T
    b = np.tril(b) + np.tril(b, -1).T
    return a, b


def quadpack_gap_points(e: IntervalUnion) -> np.ndarray:
    """xi from the gap conditions: the monic q of degree m - 1 with
    int_gap q(u) / sqrt(prod |u - a|) du = 0 on every gap, from QUADPACK
    moments with the gap's own ends absorbed, and its real roots."""
    m = len(e.endpoints) // 2
    moments = np.empty((m - 1, m))
    for j in range(m - 1):
        glo, ghi = e.endpoints[2 * j + 1], e.endpoints[2 * j + 2]
        others = [a for i, a in enumerate(e.endpoints) if i not in (2 * j + 1, 2 * j + 2)]
        for p in range(m):
            moments[j, p] = quad(
                lambda u: u**p / math.sqrt(np.prod([abs(u - a) for a in others])),
                glo, ghi, weight="alg", wvar=(-0.5, -0.5), epsabs=1e-14, epsrel=1e-14,
            )[0]
    low = np.linalg.solve(moments[:, :-1], -moments[:, -1])
    return np.sort(np.roots(np.concatenate(([1.0], low[::-1]))).real)


def quadpack_omega_pencil(e: IntervalUnion, n: int):
    """Gram pair of the omega-bernstein mode: P in L2(omega dt) and
    P'/(pi omega) in L2(omega dt), for the density
    omega = prod |t - xi| / (pi sqrt(prod |t - a|)).  On each band the
    band's own two ends go to QUADPACK's weight, so the rest is omega times
    sqrt((t - lo)(hi - t)), written out without them."""
    xi = quadpack_gap_points(e)

    def regular(band):       # omega(t) sqrt((t - lo)(hi - t)) on the band
        others = [a for i, a in enumerate(e.endpoints) if i not in (2 * band, 2 * band + 1)]
        return lambda t: math.prod(abs(t - x) for x in xi) / (
            math.pi * math.sqrt(math.prod(abs(t - a) for a in others)))

    def plain(band):
        return (-0.5, -0.5), regular(band)

    def deriv(band):
        g = regular(band)
        return (0.5, 0.5), lambda t: 1.0 / (math.pi**2 * g(t))

    return quadpack_weighted_pencil(e, n, plain, deriv)


class TestL2Pencil:
    def test_degree_one_hand_computation(self):
        # Basis {1, x} on [-1, 1] with w = 1: only P = x has a derivative, and
        # ||1||^2 / ||x||^2 = 2 / (2/3) = 3.
        got = l2_ratio_numeric(UNIT, None, 1)
        assert abs(got - math.sqrt(3.0)) < 1e-12

    def test_quadpack_oracle_two_intervals(self):
        a, b = quadpack_pencil(SPLIT, 3)
        lam = eigh(a, b, eigvals_only=True)[-1]
        got = l2_ratio_numeric(SPLIT, None, 3)
        assert abs(got - math.sqrt(lam)) < 1e-10 * got

    def test_quadpack_oracle_gradient_mode(self):
        # B carries (1-x)^0.5 (1+x)^-0.3, A carries the exponents bumped by 1.
        alpha, beta = 0.5, -0.3
        nmax = 4
        dim = nmax + 1
        eye = np.eye(dim)

        def tv(j, x, deriv):
            cj = cheb.chebder(eye[j], deriv) if deriv else eye[j]
            return cheb.chebval(x, cj)

        a = np.zeros((dim, dim))
        b = np.zeros((dim, dim))
        for i in range(dim):
            for j in range(i + 1):
                b[i, j] = b[j, i] = quad(
                    lambda x: tv(i, x, 0) * tv(j, x, 0),
                    -1.0, 1.0, weight="alg", wvar=(beta, alpha), epsabs=1e-13,
                )[0]
                a[i, j] = a[j, i] = quad(
                    lambda x: tv(i, x, 1) * tv(j, x, 1),
                    -1.0, 1.0, weight="alg", wvar=(beta + 1.0, alpha + 1.0), epsabs=1e-13,
                )[0]
        lam = eigh(a, b, eigvals_only=True)[-1]
        got = l2_ratio_numeric(UNIT, Weight.jacobi(alpha, beta), nmax, mode="gradient-bernstein")
        assert abs(got - math.sqrt(lam)) < 1e-9 * got

    def test_gradient_equality_frozen(self):
        got = l2_ratio_numeric(UNIT, Weight.jacobi(0.5, -0.3), 7, mode="gradient-bernstein")
        assert abs(got - math.sqrt(7.0 * 8.2)) < 1e-8

    def test_omega_mode_is_degree_on_unit_interval(self):
        for n in (3, 9):
            got = l2_ratio_numeric(UNIT, None, n, mode="omega-bernstein")
            assert abs(got - n) < 1e-12 * n

    @pytest.mark.parametrize("e,n", [(SPLIT, 5), (TWO, 5), (THREE, 4)], ids=["split", "two", "three"])
    def test_quadpack_oracle_omega_mode(self, e, n):
        # the gap product is not empty here, unlike on [-1, 1]
        lam = eigh(*quadpack_omega_pencil(e, n), eigvals_only=True)[-1]
        got = l2_ratio_numeric(e, None, n, mode="omega-bernstein")
        assert abs(got - math.sqrt(lam)) < 1e-12 * got

    def test_quadpack_oracle_weighted_three_bands(self):
        exps = (0.3, -0.4, 0.7, 0.1, -0.2, 1.5)
        ends = THREE.endpoints

        def side(band):
            others = [(a, x) for i, (a, x) in enumerate(zip(ends, exps)) if i not in (2 * band, 2 * band + 1)]
            return (exps[2 * band], exps[2 * band + 1]), lambda t: math.prod(abs(t - a) ** x for a, x in others)

        lam = eigh(*quadpack_weighted_pencil(THREE, 4, side, side), eigvals_only=True)[-1]
        got = l2_ratio_numeric(THREE, Weight(exps), 4)
        assert abs(got - math.sqrt(lam)) < 1e-12 * got

    def test_markov_trend_toward_factor(self):
        limit = l2_markov_constant(UNIT).value
        assert abs(limit - 1.0 / math.pi) < 1e-12
        r20 = l2_ratio_numeric(UNIT, None, 20) / 400.0
        r40 = l2_ratio_numeric(UNIT, None, 40) / 1600.0
        assert abs(r40 / limit - 1.0) < 0.08
        assert abs(r40 - limit) < abs(r20 - limit)

    def test_split_trend_toward_factor(self):
        # Degrees stay below the Gram-condition ceiling: the Chebyshev basis
        # of the covering interval restricted to a gapped set degrades
        # exponentially with n (the guard trips near n = 24 for this set).
        limit = l2_markov_constant(SPLIT).value
        vals = [l2_ratio_numeric(SPLIT, None, n) / n**2 for n in (8, 14, 20)]
        assert vals[0] > vals[1] > vals[2] > limit
        assert vals[2] / limit < 1.25

    def test_gapped_set_high_degree_guard(self):
        with pytest.raises(NumericFailureError):
            l2_ratio_numeric(SPLIT, None, 32)

    def test_basis_change_invariance(self):
        base = l2_ratio_numeric(UNIT, None, 12)
        for ref in [(-1.3, 1.1), (-1.5, 1.5)]:
            other = l2_ratio_numeric(UNIT, None, 12, reference=ref)
            assert abs(other - base) < 1e-10

    def test_gram_condition_guard(self):
        with pytest.raises(NumericFailureError):
            l2_ratio_numeric(UNIT, None, 12, reference=(-2.5, 2.5))

    def test_overflowing_half_width_raises(self):
        # the set's own check of its endpoints overflows, which numpy warns of
        with np.errstate(over="ignore"):
            wide = IntervalUnion((-1e308, 1e308))
        with pytest.raises(NumericFailureError, match="half-width overflows"):
            l2_ratio_numeric(wide, None, 4)

    def test_omega_bernstein_takes_no_weight(self):
        with pytest.raises(InvalidArgumentError, match="takes no weight"):
            l2_ratio_numeric(UNIT, Weight.jacobi(0.5, 0.3), 4, mode="omega-bernstein")
        with pytest.raises(InvalidArgumentError, match="takes no weight"):
            l2_ratio_numeric(TWO, Weight((0.5, 0.5, 0.2, 0.1)), 4, mode="omega-bernstein")

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            l2_ratio_numeric(UNIT, None, 5, mode="sobolev")
        with pytest.raises(InvalidArgumentError):
            l2_ratio_numeric(UNIT, None, 0)
        with pytest.raises(InvalidArgumentError):
            l2_ratio_numeric(UNIT, None, 101)
        with pytest.raises(InvalidArgumentError):
            l2_ratio_numeric(SPLIT, None, 4, mode="gradient-bernstein")


# ---------------------------------------------------------------------------
# randomized verification
# ---------------------------------------------------------------------------

class TestVerifyHarness:
    CASES = [
        ("bernstein-unit", UNIT),
        ("markov-unit", UNIT),
        ("va-markov", UNIT),
        ("szego-unit", UNIT),
        ("bernstein-szego", TWO),
        ("bernstein-alg", TWO),
        ("bernstein-trig", PeriodicSet(IntervalUnion((-2.0, 1.2)))),
        ("trig-full-period", UNIT),
        ("riesz-circle", UNIT),
    ]

    @pytest.mark.parametrize("inequality,domain", CASES, ids=[c[0] for c in CASES])
    def test_no_violations(self, inequality, domain):
        report = verify_inequality(domain, inequality, trials=60, rng_seed=1234)
        assert report.ok, report.violations
        assert report.max_ratio <= 1.0 + _VERIFY_HARD
        assert report.max_ratio > 0.0

    def test_szego_saturates_near_one(self):
        # Wherever |P| attains its norm inside the interval the left side
        # already equals n^2 ||P||^2, so the best ratio over many trials must
        # come out essentially 1.
        report = verify_inequality(UNIT, "szego-unit", trials=40, rng_seed=7)
        assert 0.9 <= report.max_ratio <= 1.0 + _VERIFY_HARD

    def test_riesz_tight(self):
        report = verify_inequality(UNIT, "riesz-circle", trials=40, rng_seed=11)
        assert 0.5 <= report.max_ratio <= 1.0 + _VERIFY_HARD

    def test_seed_determinism(self):
        a = verify_inequality(UNIT, "bernstein-unit", trials=25, rng_seed=99)
        b = verify_inequality(UNIT, "bernstein-unit", trials=25, rng_seed=99)
        assert a.max_ratio == b.max_ratio and a.worst_degree == b.worst_degree

    def test_report_ok_logic(self):
        bad = VerifyReport("markov-unit", 5, 0, 1.2, 3, ((0, 3, 1.2),))
        assert not bad.ok

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            verify_inequality(TWO, "bernstein-unit", trials=5, rng_seed=0)
        with pytest.raises(InvalidArgumentError):
            verify_inequality(UNIT, "markov", trials=5, rng_seed=0)
        with pytest.raises(InvalidArgumentError):
            verify_inequality(UNIT, "markov-unit", trials=0, rng_seed=0)

    @pytest.mark.parametrize("kwargs", [
        {"inequality": "va-markov", "order": _VERIFY_MAX_DEGREE + 1},
        {"inequality": "va-markov", "order": 0},
        {"inequality": "va-markov", "order": 2.0},
        {"inequality": "markov-unit", "rng_seed": -1},
        {"inequality": "markov-unit", "rng_seed": 1.5},
        {"inequality": "markov-unit", "rng_seed": [1, 2]},
        {"inequality": "markov-unit", "trials": 2.0},
        {"inequality": "markov-unit", "trials": True},
    ], ids=["order-high", "order-zero", "order-float", "seed-negative", "seed-float",
            "seed-list", "trials-float", "trials-bool"])
    def test_typed_argument_failures(self, kwargs):
        args = {"trials": 5, "rng_seed": 0, **kwargs}
        with pytest.raises(InvalidArgumentError):
            verify_inequality(UNIT, **args)

    @pytest.mark.parametrize("inequality,domain", CASES, ids=[c[0] for c in CASES])
    def test_one_stack_per_report(self, monkeypatch, inequality, domain):
        import eqmarkov.extremal as ex

        calls = []
        real = ex._ratios

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(ex, "_ratios", counting)
        report = verify_inequality(domain, inequality, trials=40, rng_seed=3)
        assert len(calls) == 1
        assert len(calls[0]) == report.trials and len(set(calls[0].tolist())) > 1

    @pytest.mark.parametrize("inequality, domain", [
        ("bernstein-szego", TWO), ("bernstein-alg", TWO), ("bernstein-trig", PeriodicSet(IntervalUnion((-2.0, 1.2)))),
    ], ids=["szego", "alg", "trig"])
    def test_given_density_is_the_built_one(self, inequality, domain):
        from eqmarkov.equilibrium import arc_density, interval_density
        from eqmarkov.sets import gamma_of

        density = interval_density(domain) if isinstance(domain, IntervalUnion) else arc_density(gamma_of(domain))
        for scale in (1.0, 0.5):
            built = verify_inequality(domain, inequality, 30, 8, density_scale=scale)
            given = verify_inequality(domain, inequality, 30, 8, 2, DEFAULT_TOL, scale, density)
            assert given == built
        with pytest.raises(InvalidArgumentError):
            verify_inequality(SPLIT if domain == TWO else TWO, "bernstein-alg", 5, 0, density=density)

    def test_order_limits_accepted(self):
        top = _VERIFY_MAX_DEGREE
        assert verify_inequality(UNIT, "va-markov", 3, 0, order=top).worst_degree == top
        assert verify_inequality(UNIT, "va-markov", 3, 0, order=1).ok
        # order is read by va-markov only
        assert verify_inequality(UNIT, "markov-unit", 3, 0, order=top + 1).ok


# ---------------------------------------------------------------------------
# the verifier against a per-trial loop that shares no code with it
# ---------------------------------------------------------------------------

ARC12 = PeriodicSet(IntervalUnion((-1.2, 1.2)))
VERIFY_SUITE = (
    ("bernstein-unit", UNIT),
    ("markov-unit", UNIT),
    ("va-markov", UNIT),
    ("szego-unit", UNIT),
    ("bernstein-szego", TWO),
    ("bernstein-alg", TWO),
    ("bernstein-trig", ARC12),
    ("trig-full-period", ARC12),
    ("riesz-circle", Circle(1.0)),
)


def oracle_gap_point(e: IntervalUnion) -> float:
    """xi of a two-band set: the mean of u over the gap under the weight
    1/sqrt|prod(u - a_i)|, by QUADPACK with the gap's own endpoints absorbed."""
    a1, a2, a3, a4 = e.endpoints
    mass, _ = quad(lambda u: 1.0 / math.sqrt((u - a1) * (a4 - u)), a2, a3,
                   weight="alg", wvar=(-0.5, -0.5), epsabs=1e-16, epsrel=1e-14)
    first, _ = quad(lambda u: u / math.sqrt((u - a1) * (a4 - u)), a2, a3,
                    weight="alg", wvar=(-0.5, -0.5), epsabs=1e-16, epsrel=1e-14)
    return first / mass


def oracle_density(s, t: np.ndarray) -> np.ndarray:
    if isinstance(s, PeriodicSet):          # one symmetric arc of half-angle beta
        beta = s.base.endpoints[1]
        return np.cos(0.5 * t) / (2 * math.pi * np.sqrt(np.sin(0.5 * (beta - t)) * np.sin(0.5 * (beta + t))))
    den = np.prod([np.abs(t - a) for a in s.endpoints], axis=0)      # a two-band set
    return np.abs(t - oracle_gap_point(s)) / (math.pi * np.sqrt(den))


def oracle_cheb_sup(p: cheb.Chebyshev, bands) -> float:
    """max |p| over the bands: band ends and the real parts of the roots of p'
    that fall inside a band."""
    crit = p.deriv().roots().real if p.degree() > 1 else np.array([])
    best = 0.0
    for lo, hi in bands:
        x = np.concatenate([[lo, hi], crit[(crit > lo) & (crit < hi)]])
        best = max(best, float(np.max(np.abs(p(x)))))
    return best


def oracle_trig_derivative(c: np.ndarray) -> np.ndarray:
    d = np.zeros_like(c)
    j = np.arange(1, (c.size - 1) // 2 + 1)
    d[1::2], d[2::2] = j * c[2::2], -j * c[1::2]
    return d


def oracle_trig_sup(c: np.ndarray, bands) -> float:
    """max |T| over the bands: band ends and the angles of the roots of z^n T'(z)
    that fall inside a band."""
    n = (c.size - 1) // 2
    d = oracle_trig_derivative(c)
    up = 0.5 * (d[1::2] - 1j * d[2::2])            # z^1 .. z^n of T'
    zpoly = np.concatenate([np.conj(up)[::-1], [0.0], up])
    angles = np.angle(np.polynomial.polynomial.polyroots(zpoly))
    best = 0.0
    for lo, hi in bands:
        shifted = lo + np.mod(angles - lo, 2 * math.pi)
        t = np.concatenate([[lo, hi], shifted[shifted < hi]])
        best = max(best, float(np.max(np.abs(trig_eval(c, t)))))
    return best


def oracle_circle_sup(c: np.ndarray) -> float:
    """max |P(z)| on |z| = 1: |P(e^{it})|^2 = sum_m rho_m e^{imt}, so its
    critical angles are the unimodular roots of sum_m m rho_m z^(m + n)."""
    n = c.size - 1
    rho = np.correlate(c, c, "full")            # rho_{-n} .. rho_n
    roots = np.polynomial.polynomial.polyroots(np.arange(-n, n + 1) * rho) if n else np.array([1.0])
    z = np.exp(1j * np.concatenate([np.angle(roots), [0.0]]))
    return float(np.max(np.abs(np.polynomial.polynomial.polyval(z, c))))


def oracle_verify(s, inequality, trials, seed, order=2, density_scale=1.0):
    """(max_ratio, worst_degree, violations, witnesses), one trial at a time."""
    bands = ((-math.pi, math.pi),) if inequality in ("trig-full-period", "riesz-circle") else (
        s.base.bands if isinstance(s, PeriodicSet) else s.bands)
    probes = np.concatenate([np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 64) for lo, hi in bands])
    if inequality in ("bernstein-szego", "bernstein-alg", "bernstein-trig"):
        omega = density_scale * oracle_density(s, probes)
    rng = np.random.default_rng(seed)
    best, worst_degree, violations, witnesses = -math.inf, 0, [], []
    for trial in range(trials):
        n = int(rng.integers(order if inequality == "va-markov" else 1, _VERIFY_MAX_DEGREE + 1))
        trig = inequality in ("bernstein-trig", "trig-full-period")
        c = rng.standard_normal(2 * n + 1 if trig else n + 1)
        if inequality == "riesz-circle":
            z = np.exp(1j * probes)
            lhs = np.max(np.abs(np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(c))))
            ratio = lhs / (n * oracle_circle_sup(c))
        elif trig:
            norm = oracle_trig_sup(c, bands)
            d = oracle_trig_derivative(c)
            if inequality == "trig-full-period":
                ratio = oracle_trig_sup(d, bands) / (n * norm)
            else:
                ratio = np.max(np.abs(trig_eval(d, probes)) / (2 * math.pi * omega)) / (n * norm)
        else:
            p = cheb.Chebyshev(c, domain=s.covering_interval)
            norm = oracle_cheb_sup(p, bands)
            dp = p.deriv()(probes)
            if inequality == "markov-unit":
                ratio = oracle_cheb_sup(p.deriv(), bands) / (n * n * norm)
            elif inequality == "va-markov":
                exact = cheb.Chebyshev.basis(n).deriv(order)(1.0)
                ratio = oracle_cheb_sup(p.deriv(order), bands) / (exact * norm)
            elif inequality == "bernstein-unit":
                ratio = np.max(np.abs(dp) * np.sqrt(1 - probes**2)) / (n * norm)
            elif inequality == "szego-unit":
                ratio = np.max((dp * np.sqrt(1 - probes**2)) ** 2 + (n * p(probes)) ** 2) / (n * norm) ** 2
            elif inequality == "bernstein-szego":
                ratio = np.max((dp / (math.pi * omega)) ** 2 + (n * p(probes)) ** 2) / (n * norm) ** 2
            else:
                ratio = np.max(np.abs(dp) / (math.pi * omega)) / (n * norm)
        if ratio > best:
            best, worst_degree = ratio, n
        if ratio > 1.0 + _VERIFY_HARD:
            violations.append((trial, n, float(ratio)))
            witnesses.append(tuple(float(v) for v in c))
    return float(best), worst_degree, violations, witnesses


class TestVerifyOracle:
    """verify_inequality reproduces a test-side loop built on numpy.polynomial
    roots and evaluation, trial by trial."""

    CASES = [(name, s, 1.0) for name, s in VERIFY_SUITE] + [
        ("bernstein-szego", TWO, 0.5),      # negative controls: the density halved
        ("bernstein-alg", TWO, 0.5),
    ]

    @pytest.mark.parametrize("inequality,domain,scale", CASES,
                             ids=[f"{c[0]}-{c[2]}" for c in CASES])
    @pytest.mark.parametrize("seed", [5, 2026])
    def test_reproduces_per_trial_loop(self, inequality, domain, scale, seed):
        rep = verify_inequality(domain, inequality, 40, seed, density_scale=scale)
        best, degree, violations, witnesses = oracle_verify(domain, inequality, 40, seed, density_scale=scale)
        assert abs(rep.max_ratio - best) <= 1e-12 * best
        assert rep.worst_degree == degree
        assert [v[:2] for v in rep.violations] == [v[:2] for v in violations]
        for got, want in zip(rep.violations, violations):
            assert abs(got[2] - want[2]) <= 1e-12 * want[2]
        assert list(rep.witnesses) == witnesses
        if scale != 1.0:
            assert violations, "the negative control found no violation"

    def test_gate8_worst_ratios_pinned(self):
        pinned = (0.987182514266540, 0.982749332493633, 0.921109580650710, 0.999999997389612,
                  0.999999999846014, 0.877290449996825, 0.817092688934656, 0.964600418356420,
                  0.986385953042498)
        for i, ((name, s), want) in enumerate(zip(VERIFY_SUITE, pinned)):
            rep = verify_inequality(s, name, 1000, 20260800 + i)
            assert abs(rep.max_ratio - want) <= 1e-13 * want, name
            assert rep.ok, name


# ---------------------------------------------------------------------------
# the verifier's pruning: sampling bounds and the exact kernel where it matters
# ---------------------------------------------------------------------------

def mp_cheb_sup(c, lo, hi, reference):
    """max |P| over [lo, hi] for a Chebyshev series of the reference interval,
    at 30 digits: P in the power basis of u, with the ends and the real roots
    of P' (mpmath.polyroots) inside the band as candidates."""
    with mpmath.workdps(30):
        mid = (mpmath.mpf(reference[0]) + reference[1]) / 2
        half = (mpmath.mpf(reference[1]) - reference[0]) / 2
        power = [mpmath.mpf(0)] * len(c)
        for j, cj in enumerate(c):
            for k, t in enumerate(cheb.cheb2poly(np.eye(len(c))[j])):     # exact integers
                power[k] += mpmath.mpf(cj) * int(t)
        value = lambda x: mpmath.polyval(power[::-1], (x - mid) / half)
        candidates = [mpmath.mpf(lo), mpmath.mpf(hi)]
        slope = [k * a for k, a in enumerate(power)][1:]
        while len(slope) > 1 and slope[-1] == 0:
            slope.pop()
        if len(slope) > 1:
            for u in mpmath.polyroots(slope[::-1], maxsteps=200, extraprec=80):
                x = mid + half * mpmath.re(u)
                if abs(mpmath.im(u)) < mpmath.mpf(10) ** -20 and lo < x < hi:
                    candidates.append(x)
        return max(abs(value(x)) for x in candidates)


def mp_trig_sup(c):
    """max |T| over the full period at 30 digits: the angles of the
    unimodular roots of z^n T'(z) (mpmath.polyroots)."""
    n = (len(c) - 1) // 2
    with mpmath.workdps(30):
        a = [mpmath.mpf(v) for v in c]
        # T'(t) = sum_j j (b_j cos jt - a_j sin jt); z^n T' = sum_j j/2 ((b_j + i a_j) z^(n+j) + conj z^(n-j))
        coef = [mpmath.mpc(0)] * (2 * n + 1)
        for j in range(1, n + 1):
            up = j * mpmath.mpc(a[2 * j], a[2 * j - 1]) / 2
            coef[n + j] += up
            coef[n - j] += mpmath.conj(up)
        while abs(coef[-1]) == 0:
            coef.pop()
        value = lambda t: a[0] + sum(a[2 * j - 1] * mpmath.cos(j * t) + a[2 * j] * mpmath.sin(j * t)
                                     for j in range(1, n + 1))
        roots = mpmath.polyroots(coef[::-1], maxsteps=400, extraprec=120)
        return max(abs(value(mpmath.arg(z))) for z in roots)


class TestSamplingInequality:
    """`_sampled_bounds` brackets the exact sup norm from samples alone, with
    m > d samples per band: Ehlich & Zeller's inequality on a band and Riesz's
    lemma on the full period, checked against zoomed dense sampling and a
    30-digit mpmath sup on random polynomials of degree 1-15."""

    @pytest.mark.parametrize("seed", range(4))
    def test_algebraic_band(self, seed):
        from eqmarkov.extremal import _sampled_bounds

        rng = np.random.default_rng([seed, 23])
        for _ in range(6):
            d = int(rng.integers(1, 16))
            m = d + 1 + int(rng.integers(0, 3)) * d          # the constant is weakest at m = d + 1
            lo, hi = np.sort(rng.uniform(-2.0, 2.0, 2))
            reference = (float(lo) - float(rng.uniform(0.0, 1.0)), float(hi) + float(rng.uniform(0.0, 1.0)))
            c = rng.standard_normal(d + 1)
            basis = PolyBasis("algebraic-chebyshev", d, reference)
            lower, upper = _sampled_bounds(basis, c[None, :], ((lo, hi),), m, np.array([d]))
            mid, half = 0.5 * (reference[0] + reference[1]), 0.5 * (reference[1] - reference[0])
            dense = zoomed_grid_max(lambda x: cheb.chebval((x - mid) / half, c), lo, hi)
            exact = mp_cheb_sup(c, float(lo), float(hi), reference)
            assert lower[0] <= dense <= upper[0]
            assert lower[0] <= exact <= upper[0]
            assert upper[0] * math.cos(d * math.pi / (2 * m)) <= exact * (1.0 + 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_period(self, seed):
        from eqmarkov.extremal import _sampled_bounds

        rng = np.random.default_rng([seed, 29])
        for _ in range(6):
            d = int(rng.integers(1, 16))
            m = d + 1 + int(rng.integers(0, 3)) * d          # N = 2m > 2d equispaced points
            c = rng.standard_normal(2 * d + 1)
            basis = PolyBasis("trigonometric", d)
            lower, upper = _sampled_bounds(basis, c[None, :], ((-math.pi, math.pi),), m, np.array([d]))
            dense = zoomed_grid_max(lambda t: trig_eval(c, t), -math.pi, math.pi)
            exact = mp_trig_sup(c)
            assert lower[0] <= dense <= upper[0]
            assert lower[0] <= exact <= upper[0]

    @pytest.mark.parametrize("d, q", [(1, 2), (3, 2), (7, 3), (15, 2)])
    def test_riesz_constant_is_sharp(self, d, q):
        # cos(d (t - t0)) with every extremum halfway between two of the 2m
        # equispaced samples (m = q d) samples no higher than cos(d pi / (2m)),
        # so the bound is exactly its sup, 1: a smaller constant fails here,
        # a larger one fails the sup checks above.
        from eqmarkov.extremal import _sampled_bounds

        m = q * d
        t0 = -math.pi + 0.5 * math.pi / m
        c = np.zeros(2 * d + 1)
        c[2 * d - 1], c[2 * d] = math.cos(d * t0), math.sin(d * t0)      # cos(d t - d t0)
        lower, upper = _sampled_bounds(PolyBasis("trigonometric", d), c[None, :],
                                       ((-math.pi, math.pi),), m, np.array([d]))
        assert abs(upper[0] - 1.0) <= 1e-12
        assert abs(lower[0] - math.cos(d * math.pi / (2 * m))) <= 1e-12

    def test_no_upper_bound_on_a_sub_arc(self):
        from eqmarkov.extremal import _sampled_bounds

        c = np.random.default_rng(3).standard_normal((4, 9))
        lower, upper = _sampled_bounds(PolyBasis("trigonometric", 4), c, ((-1.2, 1.2),), 20, np.full(4, 4))
        assert np.all(np.isinf(upper))
        assert np.all(lower <= [brute_sup_trig(row, ((-1.2, 1.2),), 20_001) for row in c])


def full_kernel_ratios(inequality, ctx, n, k, coeffs):
    """Every trial's ratio from the exact kernel on the whole stack: the
    verifier's formulas with no pruning."""
    import eqmarkov.extremal as ex

    bands, probes = ctx["bands"], ctx["probes"]
    top = int(np.max(n))
    if inequality == "riesz-circle":
        dcoeffs = coeffs[:, 1:] * np.arange(1, top + 1)
        phase = np.outer(np.arange(top), probes)
        lhs = np.max(np.hypot(dcoeffs @ np.cos(phase), dcoeffs @ np.sin(phase)), axis=1)
        return lhs / (n * ex._circle_norm(coeffs))
    basis = PolyBasis(ctx["kind"], top, ctx["reference"])
    norm = ex._sup_norm(basis, coeffs, bands)
    if inequality == "markov-unit":
        return ex._sup_norm(basis, ex._derivative(basis, coeffs, 1), bands) / (n * n * norm)
    if inequality == "va-markov":
        exact = np.array([va_markov_exact(d, k) for d in n.tolist()])
        return ex._sup_norm(basis, ex._derivative(basis, coeffs, k), bands) / (exact * norm)
    if inequality == "trig-full-period":
        return ex._sup_norm(basis, ex._derivative(basis, coeffs, 1), bands) / (n * norm)
    p = coeffs @ basis.design_matrix(probes).T
    dp = coeffs @ basis.design_matrix(probes, deriv=1).T
    omega = ctx.get("omega")
    lhs = {
        "bernstein-unit": lambda: np.abs(dp) * np.sqrt(1.0 - probes**2),
        "szego-unit": lambda: (dp * np.sqrt(1.0 - probes**2)) ** 2 + (n * n)[:, None] * p**2,
        "bernstein-szego": lambda: (dp / (math.pi * omega)) ** 2 + (n * n)[:, None] * p**2,
        "bernstein-alg": lambda: np.abs(dp) / (math.pi * omega),
        "bernstein-trig": lambda: np.abs(dp) / (2.0 * math.pi * omega),
    }[inequality]()
    if inequality in ("szego-unit", "bernstein-szego"):
        return np.max(lhs, axis=1) / (n * n * norm * norm)
    return np.max(lhs, axis=1) / (n * norm)


def pruning_faults(monkeypatch, seeds, trials=40, first=False):
    """What the pruned verifier gets wrong against the full kernel, over
    VERIFY_SUITE and both negative controls: a report that differs (max_ratio,
    worst_degree, violations or witnesses), an upper bound hi below a trial's
    exact ratio, or a trial the filter should have run exactly but did not.
    A trial must run exactly when hi >= r or hi > 1 + verify_hard, with r the
    largest exact ratio over the trial of largest hi and every trial with
    hi > 1 + verify_hard."""
    import eqmarkov.extremal as ex

    hard = 1.0 + _VERIFY_HARD
    seen = {}
    inner_filter, inner_ratios = ex._exact_where_needed, ex._ratios

    def filter_seen(hi, exact, limit):
        out = inner_filter(hi, exact, limit)
        seen["hi"], seen["out"] = hi.copy(), out.copy()
        return out

    def ratios_seen(inequality, ctx, n, k, coeffs, limit):
        seen["full"] = full_kernel_ratios(inequality, ctx, n, k, coeffs)
        seen["degrees"], seen["coeffs"] = n.copy(), coeffs.copy()
        return inner_ratios(inequality, ctx, n, k, coeffs, limit)

    monkeypatch.setattr(ex, "_exact_where_needed", filter_seen)
    monkeypatch.setattr(ex, "_ratios", ratios_seen)
    faults = []
    cases = [(name, s, 1.0) for name, s in VERIFY_SUITE] + [("bernstein-szego", TWO, 0.5), ("bernstein-alg", TWO, 0.5)]
    for name, s, scale in cases:
        for seed in seeds:
            rep = verify_inequality(s, name, trials, seed, density_scale=scale)
            full, hi, out, n = seen["full"], seen["hi"], seen["out"], seen["degrees"]
            worst = int(np.argmax(full))
            bad = np.flatnonzero(full > hard)
            width = 2 * n + 1 if name in ("bernstein-trig", "trig-full-period") else n + 1
            want = (float(full[worst]), int(n[worst]),
                    [(int(t), int(n[t]), float(full[t])) for t in bad],
                    [tuple(float(v) for v in seen["coeffs"][t][: width[t]]) for t in bad])
            got = (rep.max_ratio, rep.worst_degree, list(rep.violations), list(rep.witnesses))
            if got != want:
                faults.append(f"{name} x{scale} seed {seed}: report differs from the full kernel's")
            if np.any(hi < full):
                faults.append(f"{name} x{scale} seed {seed}: hi below an exact ratio")
            ran = (hi > hard) | (np.arange(hi.size) == np.argmax(hi))
            due = (hi >= np.max(full[ran])) | (hi > hard)
            if not np.array_equal(out[due], full[due]) or np.any(out[~due] != hi[~due]):
                faults.append(f"{name} x{scale} seed {seed}: a trial due for the kernel was not run")
            if faults and first:
                return faults
    return faults


class TestPrunedVerifier:
    """The verifier runs the exact kernel only on trials that can change a
    report; against the full kernel its reports are identical, bit for bit."""

    def test_reports_equal_the_full_kernel(self, monkeypatch):
        assert pruning_faults(monkeypatch, range(20)) == []

    def test_short_stacks(self, monkeypatch):
        # one trial is a one-row stack, two trials the smallest matrix product
        for trials in (1, 2, 3):
            assert pruning_faults(monkeypatch, range(8), trials=trials) == []
            monkeypatch.undo()

    @pytest.mark.parametrize("mutant", ["drop-one-eligible", "skip-violations", "skip-near-max", "no-roundoff"])
    def test_mutants_are_caught(self, monkeypatch, mutant):
        import eqmarkov.extremal as ex

        real = ex._exact_where_needed
        if mutant == "drop-one-eligible":
            def filtered(hi, exact, hard):
                # the last trial of the last kernel call keeps its bound
                def dropping(rows):
                    got = exact(rows)
                    got[-1] = hi[rows[-1]]
                    return got
                return real(hi, dropping, hard)
        elif mutant == "skip-violations":
            def filtered(hi, exact, hard):
                return real(hi, exact, math.inf)
        elif mutant == "skip-near-max":
            def filtered(hi, exact, hard):
                out = hi.copy()
                done = hi > hard
                done[np.argmax(hi)] = True
                out[done] = exact(np.flatnonzero(done))
                return out
        else:
            filtered = real
            monkeypatch.setattr(ex, "_roundoff", lambda basis, coeffs: np.zeros(coeffs.shape[0]))
        monkeypatch.setattr(ex, "_exact_where_needed", filtered)
        assert pruning_faults(monkeypatch, range(20), first=True)

    def test_kernel_runs_on_few_trials(self, monkeypatch):
        # outside the negative controls, where every violation needs its
        # exact ratio, a 40-trial report sends few trials to the kernel
        import eqmarkov.extremal as ex

        rows = []
        real = ex._exact_where_needed

        def counting(hi, exact, hard):
            def counted(sel):
                rows[-1] += sel.size
                return exact(sel)
            rows.append(0)
            return real(hi, counted, hard)

        monkeypatch.setattr(ex, "_exact_where_needed", counting)
        for name, s in VERIFY_SUITE:
            rows.clear()
            for seed in range(10):
                verify_inequality(s, name, 40, seed)
            assert np.mean(rows) <= 10, (name, rows)

    def test_control_allocations_do_not_accumulate(self):
        # Tuples built from generators are resized after allocation, so they
        # are never taken from CPython's tuple free list but are freed into
        # it; reports built that way grew the allocated pymalloc blocks by
        # about 20-40 per control call, every call.
        import sys

        for name in ("bernstein-szego", "bernstein-alg"):
            for seed in range(20):
                verify_inequality(TWO, name, 40, seed, density_scale=0.5)
            start = sys.getallocatedblocks()
            for seed in range(200):
                verify_inequality(TWO, name, 40, 1000 + seed, density_scale=0.5)
            assert (sys.getallocatedblocks() - start) / 200 < 10, name


class TestVidenskii:
    def test_half_pi_report(self):
        report = videnskii_check(0.5 * math.pi, 8)
        assert report.ok
        assert 0.90 < report.max_pointwise_ratio <= 1.0 + 2e-6
        assert abs(report.markov_ratio - 1.0) < 1e-4
        assert abs(videnskii_markov(0.5 * math.pi).value - 2.0) < 1e-14

    def test_pointwise_ratio_climbs_to_one(self):
        r4 = videnskii_check(2.0, 4)
        r8 = videnskii_check(2.0, 8)
        assert r4.ok and r8.ok
        assert r8.max_pointwise_ratio > r4.max_pointwise_ratio
        assert r8.max_pointwise_ratio > 0.99

    def test_markov_ratio_converges_from_above(self):
        # The norm constant is asymptotic: on a wide arc the finite-degree
        # extremum genuinely beats it, and the excess must shrink with n.
        r4 = videnskii_check(3.0, 4)
        r8 = videnskii_check(3.0, 8)
        assert r4.markov_ratio > 1.5
        assert 1.0 - 1e-6 < r8.markov_ratio < r4.markov_ratio

    def test_beta_validation(self):
        for bad in (0.0, math.pi, 4.0, -1.0):
            with pytest.raises(InvalidArgumentError):
                videnskii_check(bad, 4)


# ---------------------------------------------------------------------------
# LP vs closed-form factors (soundness, dual route)
# ---------------------------------------------------------------------------

class TestSoundness:
    def test_pointwise_vs_density_bound_two_intervals(self):
        x0 = 0.6
        bound = 10 * bernstein_factor(TWO, x0).value
        res = pointwise_derivative_sup(TWO, PolyBasis("algebraic-chebyshev", 10), x0)
        assert res.value <= bound * (1.0 + ASYMPTOTIC_SLACK)
        assert res.value / bound > 0.7

    def test_pointwise_ratio_nondecreasing(self):
        x0 = -0.7
        ratios = []
        for n in (8, 16):
            bound = n * bernstein_factor(TWO, x0).value
            res = pointwise_derivative_sup(TWO, PolyBasis("algebraic-chebyshev", n), x0)
            ratios.append(res.value / bound)
        assert ratios[1] >= ratios[0] - 1e-9
