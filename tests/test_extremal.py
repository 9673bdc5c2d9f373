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

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from scipy.integrate import quad

from eqmarkov.config import DEFAULT_TOL
from eqmarkov.errors import (
    DomainError,
    InvalidArgumentError,
    NumericFailureError,
    ResourceLimitError,
)
from eqmarkov.extremal import (
    ExtremalResult,
    PolyBasis,
    VerifyReport,
    VidenskiiReport,
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
from eqmarkov.numerics import symmetric_eig_max
from eqmarkov.sets import IntervalUnion, PeriodicSet

UNIT = IntervalUnion((-1.0, 1.0))
SPLIT = IntervalUnion((-1.0, -0.5, 0.5, 1.0))
TWO = IntervalUnion((-1.0, -0.3, 0.2, 1.0))


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
        assert tighter.cert_slack < tighter.lp_feasibility
        res = pointwise_derivative_sup(UNIT, PolyBasis("algebraic-chebyshev", 8), 0.0, tol=tighter)
        assert res.certified_norm <= 1.0 + tighter.cert_slack
        per = PeriodicSet(IntervalUnion((-2.0, 2.0)))
        res = pointwise_derivative_sup(per, PolyBasis("trigonometric", 6), 0.3, tol=tighter)
        assert res.certified_norm <= 1.0 + tighter.cert_slack
        # below what the LP itself honours, the failure is named at once
        # instead of spending the refinement budget on the same LP
        tightest = dataclasses.replace(DEFAULT_TOL, cert_slack=1e-12)
        with pytest.raises(NumericFailureError, match="own constraints"):
            pointwise_derivative_sup(UNIT, PolyBasis("algebraic-chebyshev", 7), 0.0, tol=tightest)


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

    def test_resource_limit_honest(self):
        tight = dataclasses.replace(DEFAULT_TOL, lp_max_constraints=10)
        basis = PolyBasis("algebraic-chebyshev", 5)
        with pytest.raises(ResourceLimitError):
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
        assert ratios[1] <= 1.0 + DEFAULT_TOL.asymptotic_slack


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

    def test_one_lp_per_round(self, monkeypatch):
        import eqmarkov.extremal as ex

        calls = []
        real = ex.simplex_solve

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ex, "simplex_solve", counting)
        res = pointwise_derivative_sup(UNIT, PolyBasis("algebraic-chebyshev", 11), 0.0)
        assert res.refinements >= 1
        assert len(calls) == res.refinements + 1

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
        got = _sup_norm(PolyBasis("algebraic-chebyshev", n, ref), c, bands)
        # sampled in the angle of each band, where P is uniformly smooth
        want = max(
            zoomed_grid_max(
                lambda th, a=a, b=b: cheb.chebval((0.5 * (a + b) + 0.5 * (b - a) * np.cos(th) - mid) / half, c),
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
        got = _sup_norm(PolyBasis("trigonometric", n), c, ((a, b),))
        want = zoomed_grid_max(lambda t: trig_eval(c, t), a, b)
        assert got >= want - 8 * eps * np.sum(np.abs(c))
        assert abs(got - want) <= 1e-12 * want

        # the circle: |P(e^{it})| through the square of its modulus
        n = int(rng.integers(1, 16))
        c = rng.standard_normal(n + 1)
        got = _circle_norm(c)
        want = zoomed_grid_max(
            lambda t: np.polynomial.polynomial.polyval(np.exp(1j * t), c), -math.pi, math.pi)
        assert got >= want - 8 * eps * np.sum(np.abs(c))
        assert abs(got - want) <= 1e-12 * want


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


class TestL2Pencil:
    def test_degree_one_hand_computation(self):
        # Basis {1, x} on [-1, 1] with w = 1: only P = x has a derivative, and
        # ||1||^2 / ||x||^2 = 2 / (2/3) = 3.
        got = l2_ratio_numeric(UNIT, None, 1)
        assert abs(got - math.sqrt(3.0)) < 1e-12

    def test_quadpack_oracle_two_intervals(self):
        a, b = quadpack_pencil(SPLIT, 3)
        lam = symmetric_eig_max(a, b)
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
        lam = symmetric_eig_max(a, b)
        got = l2_ratio_numeric(UNIT, Weight.jacobi(alpha, beta), nmax, mode="gradient-bernstein")
        assert abs(got - math.sqrt(lam)) < 1e-9 * got

    def test_gradient_equality_frozen(self):
        got = l2_ratio_numeric(UNIT, Weight.jacobi(0.5, -0.3), 7, mode="gradient-bernstein")
        assert abs(got - math.sqrt(7.0 * 8.2)) < 1e-8

    def test_omega_mode_is_degree_on_unit_interval(self):
        for n in (3, 9):
            got = l2_ratio_numeric(UNIT, None, n, mode="omega-bernstein")
            assert abs(got - n) < 1e-12 * n

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
        assert report.max_ratio <= 1.0 + DEFAULT_TOL.verify_hard
        assert report.max_ratio > 0.0

    def test_szego_saturates_near_one(self):
        # Wherever |P| attains its norm inside the interval the left side
        # already equals n^2 ||P||^2, so the best ratio over many trials must
        # come out essentially 1.
        report = verify_inequality(UNIT, "szego-unit", trials=40, rng_seed=7)
        assert 0.9 <= report.max_ratio <= 1.0 + DEFAULT_TOL.verify_hard

    def test_riesz_tight(self):
        report = verify_inequality(UNIT, "riesz-circle", trials=40, rng_seed=11)
        assert 0.5 <= report.max_ratio <= 1.0 + DEFAULT_TOL.verify_hard

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
        assert res.value <= bound * (1.0 + DEFAULT_TOL.asymptotic_slack)
        assert res.value / bound > 0.7

    def test_pointwise_ratio_nondecreasing(self):
        x0 = -0.7
        ratios = []
        for n in (8, 16):
            bound = n * bernstein_factor(TWO, x0).value
            res = pointwise_derivative_sup(TWO, PolyBasis("algebraic-chebyshev", n), x0)
            ratios.append(res.value / bound)
        assert ratios[1] >= ratios[0] - 1e-9
