"""Kernel-level tests.

Independent oracles used here:
  * hand-solved moment equations for the 2-point Gauss-Legendre rule;
  * QUADPACK adaptive endpoint-weighted quadrature for the Jacobi rule;
  * an ascending power series for J_nu (written here, never scipy) plus
    bisection, as the reference for Bessel values and the smallest J_0 zero;
  * mpmath (besselj, besseljzero, a bracketed findroot) and scipy's jv for
    J_nu and its first zero over the whole order range;
  * sign-change bisection on det(A - t B) for the eigenpencil;
  * scipy's brentq and jv for the bracketed root finder (imported here only;
    the library's closed-form route does not load scipy).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh
from scipy.optimize import brentq
from scipy.special import jv

import eqmarkov.numerics as numerics
from eqmarkov.config import DEFAULT_TOL, Tolerances
from eqmarkov.errors import InvalidArgumentError, NumericFailureError
from eqmarkov.numerics import (
    BesselZero,
    LPResult,
    QuadratureRule,
    bessel_smallest_zero,
    find_root_bracketed,
    gauss_chebyshev,
    gauss_legendre,
    golub_welsch,
    jacobi_recurrence,
    simplex_solve,
)


def bessel_j(order: float, x: float) -> float:
    """J_order(x) from Miller's recurrence, the order split as mu + n, n = floor(order)."""
    n = math.floor(order)
    return numerics._bessel_miller(order - n, n, x)


def bessel_series(order: float, x: float, terms: int = 60) -> float:
    """Ascending series for J_order(x); accurate to ~1e-13 for x <= 12."""
    half = 0.5 * x
    term = half**order / math.gamma(order + 1.0)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (k + order))
        total += term
    return total


class TestGaussLegendre:
    def test_one_point_is_midpoint(self):
        rule = gauss_legendre(1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == 2.0

    def test_two_point_moment_equations(self):
        # By hand: w1 = w2 = w, 2w = 2, 2w x^2 = 2/3 -> x = 1/sqrt(3).
        rule = gauss_legendre(2)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)

    def test_degree_five_exactness(self):
        rule = gauss_legendre(3)
        assert rule.weights @ rule.nodes**4 == pytest.approx(0.4, abs=1e-15)

    def test_weight_sum_invariant(self):
        for n in (5, 40, 257):
            assert abs(gauss_legendre(n).weights.sum() - 2.0) <= 1e-13

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            gauss_legendre(0)
        with pytest.raises(InvalidArgumentError):
            gauss_legendre(10001)


class TestGaussChebyshev:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 4096])
    def test_classical_nodes_exactly_antisymmetric(self, n):
        rule = gauss_chebyshev(n)
        k = np.arange(n, 0, -1)
        assert rule.nodes == pytest.approx(np.cos((2 * k - 1) * np.pi / (2 * n)), abs=1e-15)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.all(rule.weights == np.pi / n)

    def test_cached_read_only(self):
        rule = gauss_chebyshev(128)
        assert gauss_chebyshev(128) is rule
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable


class TestJacobiRecurrence:
    def test_legendre_and_chebyshev_closed_forms(self):
        # Legendre: b_0 = 2, b_k = k^2 / (4k^2 - 1); Chebyshev (first kind):
        # b_0 = pi, b_1 = 1/2, b_k = 1/4; a_k = 0 for both
        for n in (1, 2, 5, 20):
            k = np.arange(1, n)
            legendre = np.concatenate([[2.0], k * k / (4.0 * k * k - 1.0)])
            chebyshev = np.full(n, 0.25)
            chebyshev[:2] = (math.pi, 0.5)[:n]
            for (alpha, beta), want in (((0.0, 0.0), legendre), ((-0.5, -0.5), chebyshev)):
                rec = jacobi_recurrence(alpha, beta, n)
                assert np.all(rec.a == 0.0)
                assert np.max(np.abs(rec.b / want - 1.0)) <= 1e-15


class TestGolubWelsch:
    def test_chebyshev_weights_are_pi_over_n(self):
        rule = golub_welsch(jacobi_recurrence(-0.5, -0.5, 4), 4)
        assert rule.weights == pytest.approx([math.pi / 4] * 4, abs=1e-14)
        direct = gauss_chebyshev(4)
        assert rule.nodes == pytest.approx(direct.nodes, abs=1e-14)

    def test_matches_gauss_legendre(self):
        rule = golub_welsch(jacobi_recurrence(0.0, 0.0, 3), 3)
        ref = gauss_legendre(3)
        assert rule.nodes == pytest.approx(ref.nodes, abs=1e-13)
        assert rule.weights == pytest.approx(ref.weights, abs=1e-13)

    def test_jacobi_mass_vs_adaptive_oracle(self):
        alpha, beta = 0.5, -0.3
        rule = golub_welsch(jacobi_recurrence(alpha, beta, 20), 20)
        # QUADPACK handles (x-a)^a2 (b-x)^b2 weights natively.
        oracle, err = quad(lambda x: 1.0, -1, 1, weight="alg", wvar=(beta, alpha))
        assert err < 1e-11
        assert rule.weights.sum() == pytest.approx(oracle, abs=1e-10)
        mom2, _ = quad(lambda x: x * x, -1, 1, weight="alg", wvar=(beta, alpha))
        assert rule.weights @ rule.nodes**2 == pytest.approx(mom2, abs=1e-10)

    def test_mass_invariant_all_kinds(self):
        assert gauss_legendre(17).weights.sum() == pytest.approx(2.0, abs=1e-12)
        assert gauss_chebyshev(9).weights.sum() == pytest.approx(math.pi, abs=1e-12)
        mass = 2.0**1.2 * math.gamma(1.5) * math.gamma(0.7) / math.gamma(2.2)
        rule = golub_welsch(jacobi_recurrence(0.5, -0.3, 8), 8)
        assert rule.weights.sum() == pytest.approx(mass, abs=1e-12)

    def test_rejects_bad_recurrence(self):
        rec = jacobi_recurrence(0.0, 0.0, 5)
        bad = rec.b.copy()
        bad[2] = -1.0
        from eqmarkov.numerics import Recurrence

        with pytest.raises(InvalidArgumentError):
            golub_welsch(Recurrence(rec.a, bad), 5)


def mpmath_first_zero(kappa: float, dps: int = 30) -> float:
    """j_{nu,1} for nu = (kappa - 1)/2, from mpmath alone.

    For -1 < nu < 0 the first zero is the only one below j_{0,1} (interlacing:
    j_{nu,2} > j_{nu+1,1} > j_{0,1}), and J_nu > 0 before it; halving from
    j_{0,1} finds a point where J_nu > 0, which brackets the zero.
    """
    with mpmath.workdps(dps):
        nu = (mpmath.mpf(kappa) - 1) / 2
        if nu >= 0:
            return float(mpmath.besseljzero(nu, 1))
        hi = mpmath.besseljzero(0, 1)
        lo = hi / 2
        while mpmath.besselj(nu, lo) <= 0:
            lo /= 2
        return float(mpmath.findroot(lambda x: mpmath.besselj(nu, x), (lo, hi), solver="anderson"))


# kappa whose first zero lies in (0, 100]; 183 is the last integer, and the
# zero drops below 1e-7 as kappa -> -1
CERTIFIED_KAPPAS = (
    -1.0 + 1e-14, -1.0 + 1e-10, math.nextafter(-1.0, 0.0), -0.99, -0.5, 0.0, 0.5,
    0.99, 1.0, 2.0, 5.0, 20.0, 60.0, 150.0, 180.0, 183.0,
)
# first zeros above bessel_scan_max = 100 (j_{91.5,1} = 100.09)
ABOVE_CEILING_KAPPAS = (184.0, 250.0, 400.0, 1000.0, math.inf)


class TestBessel:
    def test_half_order_closed_forms(self):
        # J_{-1/2}(x) = sqrt(2/(pi x)) cos x, J_{1/2}(x) = sqrt(2/(pi x)) sin x
        assert abs(bessel_j(-0.5, math.pi / 2)) < 1e-12
        assert abs(bessel_j(0.5, math.pi)) < 1e-12
        x = 1.7
        assert bessel_j(-0.5, x) == pytest.approx(math.sqrt(2 / (math.pi * x)) * math.cos(x), abs=1e-13)

    @pytest.mark.parametrize("order", [-0.5, 0.0, 0.5, 1.3, 4.0])
    @pytest.mark.parametrize("x", [0.3, 2.0, 7.5, 11.9])
    def test_matches_series_oracle(self, order, x):
        assert bessel_j(order, x) == pytest.approx(bessel_series(order, x), abs=1e-12)

    def test_nu0_is_half_pi(self):
        z = bessel_smallest_zero(0.0)
        assert z.zero == pytest.approx(math.pi / 2, abs=1e-12)

    def test_j0_zero_vs_series_bisection_oracle(self):
        # Bracket the first sign change of the series for J_0, then bisect.
        lo, hi = 2.0, 3.0
        assert bessel_series(0.0, lo) > 0 > bessel_series(0.0, hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if bessel_series(0.0, mid) > 0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        z = bessel_smallest_zero(1.0)
        assert z.zero == pytest.approx(oracle, abs=1e-10)

    def test_nu2_is_pi(self):
        assert bessel_smallest_zero(2.0).zero == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_residual_invariant(self, kappa):
        z = bessel_smallest_zero(kappa)
        assert z.residual < 1e-12
        assert z.zero > 0

    def test_zero_monotone_in_kappa(self):
        zeros = [bessel_smallest_zero(k).zero for k in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(a < b for a, b in zip(zeros, zeros[1:]))

    @settings(max_examples=200, deadline=None)
    @given(order=st.floats(-1.0, 90.0, exclude_min=True), t=st.floats(1e-32, 1.0))
    @example(order=0.0, t=0.0253)                     # 1.05 j_{0,1}
    @example(order=90.0, t=1.0)                       # x = 100, below j_{90,1}
    @example(order=-0.999999999999995, t=1.5e-9)      # near the zero at 1.41e-7
    @example(order=45.5, t=0.5)
    def test_bessel_j_matches_mpmath_and_scipy(self, order, t):
        x = 100.0 * t
        want = float(mpmath.besselj(order, x))
        got = bessel_j(order, x)
        # 1e-12 absolute, relative where |J| > 1 (order < 0 near x = 0)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        if not 0.0 < abs(order) < 1e-300:
            # scipy's jv gives 0 or inf for a subnormal order
            assert got == pytest.approx(float(jv(order, x)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("order", [-0.9, -0.5, 0.0, 0.7, 3.0, 17.25, 60.0, 89.5])
    @pytest.mark.parametrize("frac", [1e-6, 0.3, 0.999, 1.0, 1.001, 1.05])
    def test_bessel_j_up_to_just_past_the_first_zero(self, order, frac):
        x = min(100.0, frac * mpmath_first_zero(2.0 * order + 1.0))
        want = float(mpmath.besselj(order, x))
        assert bessel_j(order, x) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kappa", CERTIFIED_KAPPAS)
    def test_zero_matches_mpmath(self, kappa):
        z = bessel_smallest_zero(kappa)
        assert z.zero == pytest.approx(mpmath_first_zero(kappa), rel=1e-13)
        assert z.residual < DEFAULT_TOL.bessel_residual
        assert z.zero <= DEFAULT_TOL.bessel_scan_max

    @pytest.mark.parametrize("kappa", ABOVE_CEILING_KAPPAS)
    def test_zero_above_ceiling_is_a_typed_failure(self, kappa):
        with pytest.raises(NumericFailureError, match="above"):
            bessel_smallest_zero(kappa)

    def test_lower_ceiling_is_honoured(self):
        assert bessel_smallest_zero(20.0).zero < 14.0
        with pytest.raises(NumericFailureError, match="above"):
            bessel_smallest_zero(20.0, tol=Tolerances(bessel_scan_max=13.9))

    @pytest.mark.parametrize("kappa", [-1.0 + 1e-14, 1.0, 60.0])
    @pytest.mark.parametrize("shift", [1e-10, -1e-10])
    def test_certificate_rejects_an_estimate_off_the_zero(self, kappa, shift, monkeypatch):
        # 1e-10 off the zero, J_nu has one sign on both sides of the estimate
        estimate = bessel_smallest_zero(kappa).zero * (1.0 + shift)
        monkeypatch.setattr(numerics, "_ikebe_zero_estimate", lambda h: estimate)
        with pytest.raises(NumericFailureError, match="sign"):
            bessel_smallest_zero(kappa)

    @pytest.mark.parametrize("kappa", [1.0, 60.0])
    def test_certificate_rejects_the_second_zero(self, kappa, monkeypatch):
        # J_nu changes sign there too, but from negative to positive
        second = float(mpmath.besseljzero(0.5 * (kappa - 1.0), 2))
        monkeypatch.setattr(numerics, "_ikebe_zero_estimate", lambda h: second)
        with pytest.raises(NumericFailureError, match="sign"):
            bessel_smallest_zero(kappa)


class TestSimplex:
    def test_one_variable(self):
        res = simplex_solve([1.0], [[1.0], [-1.0]], [1.0, 1.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0, abs=1e-12)

    def test_vertex_solution(self):
        res = simplex_solve([1.0, 1.0], [[1, 0], [0, 1], [1, 1]], [1, 1, 1.5])
        assert res.objective == pytest.approx(1.5, abs=1e-12)

    def test_chebyshev_dual(self):
        # max P'(0) over cubics with |P| <= 1 on a 2001-point grid -> 3 (by -T_3).
        grid = np.linspace(-1, 1, 2001)
        basis = np.polynomial.chebyshev.chebvander(grid, 3)
        dcoef = np.zeros((4, 4))
        for p in range(4):
            e = np.zeros(p + 1)
            e[p] = 1.0
            d = np.polynomial.chebyshev.chebder(e)
            dcoef[: d.size, p] = d
        dp0 = np.polynomial.chebyshev.chebvander(np.array([0.0]), 3)[0] @ dcoef
        res = simplex_solve(dp0, np.vstack([basis, -basis]), np.ones(2 * grid.size))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0, abs=1e-4)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(40, 5))
        b = rng.uniform(1.0, 2.0, size=40)
        c = rng.normal(size=5)
        base = simplex_solve(c, a, b)
        perm = rng.permutation(40)
        shuffled = simplex_solve(c, a[perm], b[perm])
        assert base.status == shuffled.status == "optimal"
        assert shuffled.objective == pytest.approx(base.objective, abs=1e-9)

    def test_unbounded_and_infeasible(self):
        assert simplex_solve([1.0], [[-1.0]], [0.0]).status == "unbounded"
        assert simplex_solve([1.0], [[1.0], [-1.0]], [0.0, -1.0]).status == "infeasible"


def eig_max(a, b) -> float:
    return float(eigh(a, b, eigvals_only=True)[-1])


class TestEigMax:
    """scipy's generalized eigh, the oracle of the QUADPACK pencil tests in
    test_extremal, against hand values and a determinant bisection."""

    def test_identity_pencil(self):
        assert eig_max(np.eye(3), np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert eig_max(np.diag([1.0, 4.0]), np.eye(2)) == pytest.approx(4.0, abs=1e-12)

    def test_random_pencil_vs_det_bisection_oracle(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(10, 10))
        a = 0.5 * (m + m.T)
        r = rng.normal(size=(10, 10))
        b = r @ r.T + 10 * np.eye(10)
        lam = eig_max(a, b)

        def det(t):
            return np.linalg.det(a - t * b)

        # det(A - tB) = det(B) prod(mu_i - t): simple sign change at the top root.
        lo, hi = lam - 1e-3 * (1 + abs(lam)), lam + 1e-3 * (1 + abs(lam))
        assert det(lo) * det(hi) < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if det(mid) * det(hi) < 0:
                lo = mid
            else:
                hi = mid
        assert lam == pytest.approx(0.5 * (lo + hi), rel=1e-9)

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6))
        a = 0.5 * (m + m.T)
        r = rng.normal(size=(6, 6))
        b = r @ r.T + 6 * np.eye(6)
        assert eig_max(3.5 * a, b) == pytest.approx(
            3.5 * eig_max(a, b), rel=1e-10
        )

    def test_rejects_indefinite_b(self):
        with pytest.raises(np.linalg.LinAlgError):
            eig_max(np.eye(2), np.diag([1.0, -1.0]))


def gap_cubic(u: float) -> float:
    return float(np.polynomial.polynomial.polyval(u, [0.0261, -0.1075, -0.51, 1.0]))


class TestRootFinding:
    def test_sqrt_two(self):
        assert find_root_bracketed(lambda x: x * x - 2, 1, 2) == pytest.approx(
            math.sqrt(2), abs=1e-13
        )

    def test_half_pi(self):
        assert find_root_bracketed(math.cos, 1, 2) == pytest.approx(math.pi / 2, abs=1e-13)

    def test_requires_sign_change(self):
        with pytest.raises(InvalidArgumentError):
            find_root_bracketed(lambda x: x * x + 1, -1, 1)

    # (function, lo, hi): simple roots, including a monic cubic of the kind
    # solve_xi factors (one root in each of three gaps) and J_nu at its
    # first zero
    CASES = {
        "gap-cubic-1": (gap_cubic, -0.5, 0.0),
        "gap-cubic-2": (gap_cubic, 0.05, 0.4),
        "gap-cubic-3": (gap_cubic, 0.5, 1.0),
        "j0": (lambda x: float(jv(0.0, x)), 2.3, 2.5),
        "j-0.4": (lambda x: float(jv(-0.4, x)), 1.0, 2.2),
        "j2.5": (lambda x: float(jv(2.5, x)), 4.0, 6.5),
        "wallis": (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
        "kepler": (lambda x: x - 0.9 * math.sin(x) - 1.0, 0.0, 3.0),
        "steep": (lambda x: math.exp(20 * x) - 2.0, -1.0, 1.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_agrees_with_brentq(self, case):
        f, lo, hi = self.CASES[case]
        assert f(lo) * f(hi) < 0
        ref = brentq(f, lo, hi, xtol=DEFAULT_TOL.root_abs)
        assert abs(find_root_bracketed(f, lo, hi) - ref) <= DEFAULT_TOL.root_abs

    def test_evaluation_budget(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.cos(x)

        find_root_bracketed(f, 1.0, 2.0)
        assert len(calls) <= 50

    @pytest.mark.parametrize("power", [3, 9, 15])
    def test_stays_inside_bracket_when_interpolation_stalls(self, power):
        # At a root of odd multiplicity the secant and inverse quadratic steps
        # crawl; every iterate must still fall inside the sign-change bracket
        # of the points evaluated before it.
        root = 1.0 / 3.0
        lo, hi = 0.0, 1.0
        calls = []

        def f(x):
            nonlocal lo, hi
            assert lo <= x <= hi
            calls.append(x)
            value = (x - root) ** power
            if value < 0:
                lo = max(lo, x)
            elif value > 0:
                hi = min(hi, x)
            return value

        found = find_root_bracketed(f, 0.0, 1.0)
        assert abs(found - root) <= DEFAULT_TOL.root_abs
        # bisection's halvings, at most four evaluations each
        assert len(calls) <= 4 * math.ceil(math.log2(1.0 / DEFAULT_TOL.root_abs))


class TestValidation:
    def test_quadrature_rule_rejects_bad_data(self):
        with pytest.raises(InvalidArgumentError):
            QuadratureRule(np.array([0.5, 0.1]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidArgumentError):
            QuadratureRule(np.array([0.1, 0.5]), np.array([1.0, -1.0]))

    def test_bessel_zero_residual_enforced(self):
        with pytest.raises(NumericFailureError):
            BesselZero(zero=1.0, residual=1e-6)

    def test_tight_bessel_residual_enforced(self):
        z = bessel_smallest_zero(1.0)
        assert z.residual > 0.0
        with pytest.raises(NumericFailureError, match="residual"):
            bessel_smallest_zero(1.0, tol=Tolerances(bessel_residual=z.residual))

    def test_tight_weight_sum_enforced_past_the_cache(self):
        # the rule is cached by size; the caller's tol must still be applied
        n = next(n for n in range(2, 200) if gauss_legendre(n).weights.sum() != 2.0)
        with pytest.raises(NumericFailureError, match="sum to 2"):
            gauss_legendre(n, tol=Tolerances(gl_weight_sum=0.0))

    def test_lp_result_status_enforced(self):
        with pytest.raises(InvalidArgumentError):
            LPResult(0.0, np.zeros(1), "solved")
