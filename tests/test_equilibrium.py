"""Equilibrium densities against independent oracles and closed-form limits.

Oracles used here and nowhere in the library:
  * QUADPACK (scipy.integrate.quad) with an explicit substitution or an
    algebraic weight for masses and gap conditions, against the library's
    constant Chebyshev coefficients and Gauss-Chebyshev moment doubling;
  * mpmath at 30 digits (tanh-sinh quadrature of the gap conditions and
    findroot on xi directly, with no moment system) for the gap points, and
    tanh-sinh quadrature of the log-potential kernel integrals;
  * the square-map identity for symmetric two-interval sets, which gives the
    density without any gap-point computation;
  * known potential constants: log 2 on [-1, 1], -log sin(beta/2) on the
    symmetric arc of half-angle beta, and, through the square map, the
    constants of two-band interval and arc sets.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from eqmarkov import equilibrium
from eqmarkov.config import DEFAULT_TOL, Tolerances
from eqmarkov.equilibrium import (
    EndpointData,
    _cheb_coeffs_of,
    _cheb_log_integrals,
    _gap_quotient,
    _interval_regular,
    _sqrt_weight_integral,
    arc_density,
    circle_density,
    collocation_density,
    density_arc,
    density_circle,
    density_intervals,
    density_lemniscate,
    frostman_check,
    frostman_profile,
    interval_density,
    lemniscate_density,
    omega_limit,
    omega_limit_arc,
    omega_limit_extrapolated,
    solve_xi,
)
from eqmarkov.errors import DomainError, InvalidArgumentError, NumericFailureError
from eqmarkov.numerics import find_root_bracketed
from eqmarkov.sets import ArcUnion, Circle, IntervalUnion, Lemniscate, affine_image

UNIT = IntervalUnion((-1.0, 1.0))
SPLIT = IntervalUnion((-1.0, -0.5, 0.5, 1.0))          # symmetric, a = 1/2
TWOBAND = IntervalUnion((-1.0, -0.3, 0.2, 1.0))
NARROW = IntervalUnion((-1.0, -0.4, -0.399, 0.25, 0.3, 1.0))   # a gap of 1e-3


def square_map_density(a: float, t: float) -> float:
    """Density of [-1, -a] u [a, 1] via the square-map identity: pulling the
    set back through t -> t^2 reduces it to the single interval [a^2, 1]."""
    return abs(t) / (math.pi * math.sqrt((t * t - a * a) * (1.0 - t * t)))


def interval_mass_oracle(density, lo: float, hi: float) -> float:
    """Band mass by QUADPACK after t = c + r sin(phi), which makes the
    integrand bounded; endpoints are never evaluated by the adaptive rule."""
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def f(phi):
        return density.evaluate(c + r * math.sin(phi)) * r * math.cos(phi)

    val, err = quad(f, -0.5 * math.pi, 0.5 * math.pi, limit=300)
    assert err < 1e-9
    return val


class TestGapPoints:
    def test_single_band_has_no_gap_points(self):
        assert solve_xi(UNIT) == []

    def test_symmetric_set_gives_zero(self):
        (xi,) = solve_xi(SPLIT)
        assert abs(xi) <= 1e-13

    def test_gap_point_is_bracketed(self):
        (xi,) = solve_xi(TWOBAND)
        assert -0.3 < xi < 0.2

    def test_gap_condition_against_quadpack(self):
        e = IntervalUnion((0.0, 1.0, 2.0, 4.0))
        (xi,) = solve_xi(e)
        assert 1.0 < xi < 2.0

        # int over the gap of (u - xi) / sqrt(u (u-1)(2-u)(4-u)) du must
        # vanish; QUADPACK absorbs the (u-1)^{-1/2} (2-u)^{-1/2} part.
        def f(u):
            return (u - xi) / math.sqrt(u * (4.0 - u))

        val, _ = quad(f, 1.0, 2.0, weight="alg", wvar=(-0.5, -0.5), epsabs=1e-13)
        assert abs(val) < 1e-9

    def test_affine_covariance(self):
        base = solve_xi(TWOBAND)
        moved = solve_xi(affine_image(TWOBAND, 3.0, -1.2))
        for x, y in zip(base, moved):
            assert abs(y - (3.0 * x - 1.2)) < 1e-10

    def test_three_bands(self):
        e = IntervalUnion((-1.0, -0.6, -0.2, 0.1, 0.4, 1.0))
        xi = solve_xi(e)
        assert len(xi) == 2
        assert -0.6 < xi[0] < -0.2 and 0.1 < xi[1] < 0.4


def mpmath_gap_points(endpoints, dps: int = 30) -> list:
    """xi solved from the gap conditions themselves: for every gap,
    int_gap prod_i (u - xi_i) / sqrt(prod_k |u - a_k|) du = 0, integrated by
    tanh-sinh (which absorbs the gap-end singularities) and solved for all xi
    at once by findroot from the gap midpoints."""
    with mpmath.workdps(dps):
        ends = [mpmath.mpf(a) for a in endpoints]
        gaps = [(ends[2 * j + 1], ends[2 * j + 2]) for j in range(len(ends) // 2 - 1)]

        def condition(j, xi):
            def integrand(u):
                num = mpmath.fprod(u - x for x in xi)
                return num / mpmath.sqrt(mpmath.fprod(abs(u - a) for a in ends))

            return mpmath.quad(integrand, list(gaps[j]), method="tanh-sinh")

        if len(gaps) == 1:
            roots = [mpmath.findroot(lambda x: condition(0, [x]), gaps[0], solver="anderson")]
        else:
            conditions = [lambda *xi, j=j: condition(j, xi) for j in range(len(gaps))]
            roots = list(mpmath.findroot(conditions, [(lo + hi) / 2 for lo, hi in gaps]))
        for (lo, hi), x in zip(gaps, roots):
            assert lo < x < hi
        return [float(x) for x in roots]


class TestGapPointsMpmathOracle:
    @pytest.mark.parametrize(
        "endpoints",
        [
            (-1.0, -0.3, 0.2, 1.0),
            (-1.0, -0.55, -0.2, 0.15, 0.5, 1.0),
            (-1.0, -0.4, -0.399, 0.25, 0.3, 1.0),       # a gap of 1e-3
        ],
    )
    def test_xi_matches_30_digit_oracle(self, endpoints):
        got = solve_xi(IntervalUnion(endpoints))
        want = mpmath_gap_points(endpoints)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert abs(x - y) <= 1e-12


class TestIntervalDensity:
    def test_unit_interval_closed_form(self):
        d = interval_density(UNIT)
        for t in np.linspace(-0.999, 0.999, 101):
            want = 1.0 / (math.pi * math.sqrt(1.0 - t * t))
            assert abs(d.evaluate(t) / want - 1.0) < 1e-13

    def test_unit_interval_certificates(self):
        d = interval_density(UNIT)
        assert abs(d.mass - 1.0) < 1e-12
        assert d.frostman_spread < 1e-10
        _, values = frostman_profile(d)
        assert abs(float(np.mean(values)) - math.log(2.0)) < 1e-10

    def test_square_map_oracle(self):
        d = interval_density(SPLIT)
        for t in np.linspace(0.52, 0.98, 24):
            want = square_map_density(0.5, t)
            assert abs(d.evaluate(t) / want - 1.0) < 1e-12
            assert abs(d.evaluate(-t) / want - 1.0) < 1e-12

    def test_mass_against_quadpack(self):
        d = interval_density(TWOBAND)
        total = sum(interval_mass_oracle(d, lo, hi) for lo, hi in TWOBAND.bands)
        assert abs(total - 1.0) < 1e-8
        assert abs(d.mass - 1.0) < 1e-10

    def test_two_band_certificates(self):
        d = interval_density(TWOBAND)
        assert d.frostman_spread < 1e-10
        assert len(d.xi) == 1

    def test_domain_errors(self):
        d = interval_density(TWOBAND)
        for bad in (-1.0, -0.3, 0.0, 1.5):
            with pytest.raises(DomainError):
                d.evaluate(bad)

    def test_pointwise_function_matches_builder(self):
        xi = solve_xi(TWOBAND)
        d = interval_density(TWOBAND)
        for t in (-0.8, -0.4, 0.5, 0.93):
            assert density_intervals(TWOBAND, xi, t) == d.evaluate(t)

    def test_wrong_gap_point_fails_certificate(self, monkeypatch):
        # the true gap point of SPLIT is 0; the mass of two bands does not
        # depend on it, so only the Frostman certificate can catch the error
        monkeypatch.setattr(equilibrium, "solve_xi", lambda e, tol=DEFAULT_TOL: [0.15])
        with pytest.raises(NumericFailureError, match="log potential not constant") as info:
            interval_density(SPLIT)
        assert float(str(info.value).rsplit(" ", 1)[1]) > 1e-3

    def test_probe_count_validated(self):
        d = interval_density(UNIT)
        with pytest.raises(InvalidArgumentError):
            frostman_check(d, tol=Tolerances(frostman_probes_per_band=2))

    def test_probe_count_from_tol(self):
        with pytest.raises(InvalidArgumentError):
            interval_density(TWOBAND, Tolerances(frostman_probes_per_band=2))
        d = interval_density(TWOBAND)
        points, values = frostman_profile(d, tol=Tolerances(frostman_probes_per_band=5))
        assert points.shape == values.shape == (5 * TWOBAND.m,)


class TestEndpointLimits:
    def test_unit_interval_value(self):
        for j in (1, 2):
            data = omega_limit(UNIT, j)
            assert abs(data.omega_limit - 1.0 / (math.pi * math.sqrt(2.0))) < 1e-14

    def test_split_set_values(self):
        inner = 1.0 / (math.pi * math.sqrt(3.0))
        outer = 1.0 / (math.pi * math.sqrt(1.5))
        xi = solve_xi(SPLIT)
        assert abs(omega_limit(SPLIT, 2, xi).omega_limit - inner) < 1e-13
        assert abs(omega_limit(SPLIT, 3, xi).omega_limit - inner) < 1e-13
        assert abs(omega_limit(SPLIT, 1, xi).omega_limit - outer) < 1e-13
        assert abs(omega_limit(SPLIT, 4, xi).omega_limit - outer) < 1e-13

    def test_mirror_endpoints_agree(self):
        xi = solve_xi(SPLIT)
        left = omega_limit(SPLIT, 1, xi).omega_limit
        right = omega_limit(SPLIT, 4, xi).omega_limit
        assert abs(left - right) <= 1e-12

    def test_extrapolation_matches_closed_form(self):
        d = interval_density(TWOBAND)
        for j in (1, 2, 3, 4):
            closed = omega_limit(TWOBAND, j, d.xi).omega_limit
            extrap = omega_limit_extrapolated(d, j).omega_limit
            assert abs(extrap / closed - 1.0) < 1e-6

    def test_endpoint_data_validation(self):
        with pytest.raises(NumericFailureError):
            EndpointData(-0.5)
        with pytest.raises(NumericFailureError):
            EndpointData(math.nan)


class TestArcDensity:
    def test_right_angle_arc_midpoint(self):
        beta = 0.5 * math.pi
        assert abs(density_arc(beta, 0.0) - math.sqrt(2.0) / (2.0 * math.pi)) < 1e-15

    def test_mass_against_quadpack(self):
        for beta in (1.0, 0.5 * math.pi, 2.0):
            d = arc_density(ArcUnion((-beta, beta)))

            def f(phi):
                return d.evaluate(beta * math.sin(phi)) * beta * math.cos(phi)

            val, err = quad(f, -0.5 * math.pi, 0.5 * math.pi, limit=300)
            assert err < 1e-9
            assert abs(val - 1.0) < 1e-8
            assert abs(d.mass - 1.0) < 1e-10

    def test_potential_constant_is_arc_capacity(self):
        # equilibrium potential on an arc of half-angle beta is -log sin(beta/2)
        for beta in (1.0, 2.0):
            d = arc_density(ArcUnion((-beta, beta)))
            _, values = frostman_profile(d)
            assert abs(float(np.mean(values)) + math.log(math.sin(0.5 * beta))) < 1e-10
            assert d.frostman_spread < 1e-10

    def test_endpoint_identity(self):
        # 8 pi^2 Omega^2 = 2 cot(beta/2) with chordal normalization
        for beta in (1.0, 0.5 * math.pi, 2.0):
            d = arc_density(ArcUnion((-beta, beta)))
            for j in (1, 2):
                om = omega_limit_arc(ArcUnion((-beta, beta)), j, d).omega_limit
                closed = math.sqrt(1.0 / math.tan(0.5 * beta)) / (2.0 * math.pi)
                assert abs(om / closed - 1.0) < 1e-7
                assert abs(8.0 * math.pi**2 * om * om - 2.0 / math.tan(0.5 * beta)) < 1e-7

    def test_rotated_arc(self):
        rot = arc_density(ArcUnion((-0.5, 1.5)))
        sym = arc_density(ArcUnion((-1.0, 1.0)))
        for t in np.linspace(-0.95, 0.95, 21):
            assert abs(rot.evaluate(t + 0.5) / sym.evaluate(t) - 1.0) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            density_arc(1.0, 1.0)
        with pytest.raises(DomainError):
            density_arc(1.0, -1.3)
        with pytest.raises(InvalidArgumentError):
            density_arc(3.5, 0.0)

    def test_blow_up_near_endpoint(self):
        assert density_arc(1.0, 1.0 - 1e-8) > 1e3


class TestCollocationOracle:
    def test_unit_interval_against_closed_form(self):
        dc = collocation_density(UNIT)
        df = interval_density(UNIT)
        for t in np.linspace(-0.99, 0.99, 101):
            assert abs(dc.evaluate(t) / df.evaluate(t) - 1.0) < 1e-8
        assert abs(dc.mass - 1.0) < 1e-10
        assert dc.frostman_spread < 1e-10

    def test_two_band_against_gap_point_route(self):
        dc = collocation_density(TWOBAND)
        df = interval_density(TWOBAND)
        worst = 0.0
        for lo, hi in TWOBAND.bands:
            buf = 1e-3 * (hi - lo)
            for t in np.linspace(lo + buf, hi - buf, 60):
                worst = max(worst, abs(dc.evaluate(t) / df.evaluate(t) - 1.0))
        assert worst < DEFAULT_TOL.oracle_agreement
        assert dc.xi == ()           # this route never computes gap points

    def test_single_arc_against_closed_form(self):
        beta = 2.0
        dc = collocation_density(ArcUnion((-beta, beta)))
        df = arc_density(ArcUnion((-beta, beta)))
        for t in np.linspace(-beta + 1e-3, beta - 1e-3, 101):
            assert abs(dc.evaluate(t) / df.evaluate(t) - 1.0) < 1e-8

    def test_two_arc_certificates_and_symmetry(self):
        d = collocation_density(ArcUnion((-2.0, -1.0, 1.0, 2.0)))
        assert abs(d.mass - 1.0) < 1e-8
        assert d.frostman_spread < 1e-6
        for t in np.linspace(1.05, 1.95, 19):
            assert abs(d.evaluate(t) / d.evaluate(-t) - 1.0) < 1e-10

    def test_rejected_certificate_doubles_the_degree(self):
        # A gap of 1e-3: the default degree leaves a Frostman spread of 9e-6.
        narrow = IntervalUnion((-1.0, -0.4, -0.399, 0.25, 0.3, 1.0))
        deg = DEFAULT_TOL.collocation_degree
        dc = collocation_density(narrow)
        assert all(b.coeffs.size == 2 * deg + 1 for b in dc.bands)
        assert dc.frostman_spread <= DEFAULT_TOL.frostman_spread
        df = interval_density(narrow)
        worst = 0.0
        for lo, hi in narrow.bands:
            buf = 0.1 * (hi - lo)
            for t in np.linspace(lo + buf, hi - buf, 9):
                worst = max(worst, abs(dc.evaluate(t) / df.evaluate(t) - 1.0))
        assert worst < DEFAULT_TOL.oracle_agreement
        with pytest.raises(NumericFailureError, match="spread"):
            # degrees deg / 2 and deg: the default degree alone is rejected
            collocation_density(narrow, Tolerances(collocation_degree=deg // 2))

    def test_band_limit(self):
        pts = tuple(float(v) for v in np.linspace(-1.0, 1.0, 18))
        with pytest.raises(InvalidArgumentError):
            collocation_density(IntervalUnion(pts))

    def test_angle_wrapping_in_evaluate(self):
        d = collocation_density(ArcUnion((-2.0, -1.0, 1.0, 2.0)))
        assert d.evaluate(1.5) == d.evaluate(1.5 + 2.0 * math.pi)


class TestMultiBandPotentials:
    """Potential constants of two-band sets by the square map z -> z^2: the
    preimage of a set of capacity c has capacity sqrt(c).  [a^2, 1] has
    capacity (1 - a^2)/4, and the arc of half-angle beta centred at -1 has
    capacity sin(beta/2)."""

    def test_split_intervals(self):
        want = -0.5 * math.log((1.0 - 0.5**2) / 4.0)
        for d in (interval_density(SPLIT), collocation_density(SPLIT)):
            _, values = frostman_profile(d)
            assert float(np.max(np.abs(values - want))) < 1e-12

    def test_arc_pair_about_the_imaginary_axis(self):
        h = 0.5 * math.pi
        for beta in (1.0, 2.0):
            pair = ArcUnion((-h - 0.5 * beta, -h + 0.5 * beta, h - 0.5 * beta, h + 0.5 * beta))
            _, values = frostman_profile(collocation_density(pair))
            want = -0.5 * math.log(math.sin(0.5 * beta))
            assert float(np.max(np.abs(values - want))) < 1e-12


class TestScalingAndSymmetry:
    def test_density_covariance(self):
        d = interval_density(TWOBAND)
        for c, shift in ((0.5, 0.7), (3.0, -1.2)):
            ds = interval_density(affine_image(TWOBAND, c, shift))
            for lo, hi in TWOBAND.bands:
                for t in np.linspace(lo + 1e-2, hi - 1e-2, 25):
                    assert abs(ds.evaluate(c * t + shift) * c / d.evaluate(t) - 1.0) < 1e-10

    def test_endpoint_limit_covariance(self):
        for c in (0.5, 3.0):
            scaled = affine_image(SPLIT, c)
            for j in (1, 2, 3, 4):
                base = omega_limit(SPLIT, j).omega_limit
                moved = omega_limit(scaled, j).omega_limit
                assert abs(moved * math.sqrt(c) / base - 1.0) < 1e-12

    def test_even_density_on_symmetric_set(self):
        d = interval_density(SPLIT)
        for t in np.linspace(0.51, 0.99, 33):
            assert abs(d.evaluate(t) / d.evaluate(-t) - 1.0) <= 1e-12


class TestCircleAndLemniscate:
    def test_circle_density_value(self):
        d = circle_density(Circle(2.0))
        assert d.evaluate(2j) == 1.0 / (4.0 * math.pi)
        assert density_circle(Circle(0.5)) == 1.0 / math.pi
        assert d.mass == 1.0

    def test_circle_off_curve(self):
        d = circle_density(Circle(2.0))
        with pytest.raises(DomainError):
            d.evaluate(1.0)

    def test_square_lemniscate(self):
        # |z^2| = 1 is the unit circle; the density must match it
        d = lemniscate_density(Lemniscate((0.0, 0.0, 1.0)))
        z = complex(math.cos(0.3), math.sin(0.3))
        assert abs(d.evaluate(z) - 1.0 / (2.0 * math.pi)) < 1e-15

    def test_critical_point_gives_zero(self):
        lem = Lemniscate((1.0, 0.0, 1.0))       # z^2 + 1, critical point z = 0
        assert density_lemniscate(lem, 0.0) == 0.0

    def test_off_curve_rejected(self):
        d = lemniscate_density(Lemniscate((0.0, 0.0, 1.0)))
        with pytest.raises(DomainError):
            d.evaluate(2.0 + 0j)


class TestArrayEvaluate:
    """evaluate on an array of points against the scalar evaluate, point by point."""

    THREE = IntervalUnion((-1.0, -0.6, -0.2, 0.3, 0.5, 1.0))

    @staticmethod
    def interior_grid(spans, per=41, rel=1e-9):
        return np.concatenate([
            np.linspace(lo + rel * (hi - lo), hi - rel * (hi - lo), per) for lo, hi in spans
        ])

    @pytest.mark.parametrize("e", [UNIT, TWOBAND, THREE], ids=["unit", "two", "three"])
    def test_interval_union_bit_identical(self, e):
        d = interval_density(e)
        ts = self.interior_grid(e.bands)
        got = d.evaluate(ts)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        want = [density_intervals(e, d.xi, float(t)) for t in ts]
        assert got.tolist() == want
        assert d.evaluate(ts.tolist()).tolist() == want      # a list is an array too

    def test_closed_forms_return_python_floats(self):
        e = self.THREE
        for xi in (solve_xi(e), interval_density(e).xi):
            assert type(density_intervals(e, xi, 0.6)) is float
            for j in range(1, 2 * e.m + 1):
                assert type(omega_limit(e, j, xi).omega_limit) is float

    def test_one_band_regular_part_is_an_array(self):
        # no gap points and no other endpoints: the products are empty
        s = np.linspace(-1.0, 1.0, 5)
        g = _interval_regular(UNIT, [], 0)(s)
        assert isinstance(g, np.ndarray) and g.shape == s.shape
        assert np.allclose(g, 1.0 / math.pi, rtol=1e-15, atol=0.0)

    def test_scalar_in_float_out(self):
        for d, t in (
            (interval_density(TWOBAND), 0.5),
            (arc_density(ArcUnion((-1.0, 1.0))), 0.25),
            (collocation_density(TWOBAND), np.float64(0.5)),
            (collocation_density(ArcUnion((-2.0, -1.0, 1.0, 2.0))), 1.5),
        ):
            assert type(d.evaluate(t)) is float

    @pytest.mark.parametrize("d,spans", [
        (arc_density(ArcUnion((-2.0, 0.5))), ((-2.0, 0.5),)),
        (arc_density(ArcUnion((2.5, 3.1))), ((2.5, 3.1),)),
        (collocation_density(ArcUnion((-2.0, -1.0, 1.0, 2.0))), ((-2.0, -1.0), (1.0, 2.0))),
        (collocation_density(TWOBAND), TWOBAND.bands),
    ], ids=["arc", "arc-near-pi", "two-arcs", "collocation-line"])
    def test_within_four_ulp(self, d, spans):
        ts = self.interior_grid(spans)
        if d.geometry == "circle":
            ts = np.concatenate([ts, ts + 2.0 * math.pi, ts - 4.0 * math.pi])
        got = d.evaluate(ts)
        want = np.array([d.evaluate(float(t)) for t in ts])
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))

    @pytest.mark.parametrize("bad", [-1.0, -0.3, 0.0, 1.5, math.nan, math.inf])
    def test_any_point_not_interior_raises(self, bad):
        for d in (interval_density(TWOBAND), collocation_density(TWOBAND)):
            with pytest.raises(DomainError):
                d.evaluate(np.array([0.5, bad, -0.5]))

    @pytest.mark.parametrize("bad", [-1.0, 1.0, 2.0, -math.pi, math.nan, math.inf])
    def test_any_angle_not_interior_raises(self, bad):
        for d in (arc_density(ArcUnion((-1.0, 1.0))), collocation_density(ArcUnion((-1.0, -0.5, 0.5, 1.0)))):
            with pytest.raises(DomainError):
                d.evaluate(np.array([0.75, bad, 0.75 + 2.0 * math.pi]))

    def test_only_banded_geometries_take_arrays(self):
        with pytest.raises(InvalidArgumentError):
            circle_density(Circle(2.0)).evaluate(np.array([2j, -2j]))
        with pytest.raises(InvalidArgumentError):
            lemniscate_density(Lemniscate((0.0, 0.0, 1.0))).evaluate([1.0 + 0j])


def mpmath_log_integral(sigma: float, p: int, dps: int = 30) -> float:
    """int_0^pi cos(p theta) log|sigma - cos theta| d theta for sigma >= 0,
    by tanh-sinh with one piece per period of cos(p theta).

    For sigma >= 1, sigma - cos theta is written (sigma - 1) + 2 sin^2(theta/2),
    which does not cancel near theta = 0; at sigma = 1 the log singularity is
    theta = 0 itself, the lower end of the first piece.  Inside the band, the
    integral is split at
    theta_0 = arccos(sigma) and taken in u = |theta - theta_0|, with
    sigma - cos theta = 2 sin((theta + theta_0)/2) sin(u/2): the log
    singularity sits at u = 0, where no abscissa lands, and nothing cancels
    next to it."""
    with mpmath.workdps(dps):
        s = mpmath.mpf(sigma)

        def pieces(length):
            k = max(1, math.ceil(float(length) * p / (2.0 * math.pi)))
            return [length * i / k for i in range(k + 1)]

        if s >= 1:
            def f(theta):
                return mpmath.cos(p * theta) * mpmath.log((s - 1) + 2 * mpmath.sin(theta / 2) ** 2)

            return float(mpmath.quad(f, pieces(mpmath.pi)))
        theta0 = mpmath.acos(s)

        def g(theta, u):
            return mpmath.cos(p * theta) * mpmath.log(
                2 * mpmath.sin((theta + theta0) / 2) * mpmath.sin(u / 2))

        left = mpmath.quad(lambda u: g(theta0 - u, u), pieces(theta0))
        right = mpmath.quad(lambda u: g(theta0 + u, u), pieces(mpmath.pi - theta0))
        return float(left + right)


def assert_kernel_matches_oracle(sigma: float, pmax: int, ps) -> None:
    """Rows at +sigma and -sigma against the oracle at |sigma|, through the
    reflection I_p(-sigma) = (-1)^p I_p(sigma) (theta -> pi - theta)."""
    rows = _cheb_log_integrals(np.array([sigma, -sigma]), pmax)
    assert rows.shape == (2, pmax + 1)
    for p in ps:
        want = mpmath_log_integral(abs(sigma), p)
        for row, sign in zip(rows, (1.0, (-1.0) ** p)):
            assert abs(row[p] - sign * want) <= 2e-15 * max(1.0, abs(want)), (sigma, p, row[p], want)


class TestLogKernelOracle:
    """_cheb_log_integrals against 30-digit quadrature, on both sides of the
    band ends where the exterior Joukowski image would lose digits to
    sigma^2 - 1 cancelling."""

    @pytest.mark.parametrize("sigma", [
        0.0, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.5, 10.0, 1e3, 1e8,
    ])
    def test_rows_at_fixed_points(self, sigma):
        assert_kernel_matches_oracle(sigma, 520, (0, 1, 2, 3, 10, 64))

    @pytest.mark.parametrize("sigma", [1.0 + 1e-9, 1.0 + 1e-6])
    def test_high_order_next_to_a_band_end(self, sigma):
        # zeta^-520 is still about 1 here, so every factor of the product counts
        assert_kernel_matches_oracle(sigma, 520, (520,))

    @settings(max_examples=12, deadline=None)
    @given(
        magnitude=st.one_of(
            st.floats(0.0, 1.0),
            st.floats(-12.0, -1.0).map(lambda k: 1.0 - 10.0**k),
            st.floats(-12.0, 0.0).map(lambda k: 1.0 + 10.0**k),
            st.floats(0.0, 8.0).map(lambda k: 1.0 + 10.0**k),
        ),
        pmax=st.integers(1, 40),
    )
    def test_random_points_and_orders(self, magnitude, pmax):
        assert_kernel_matches_oracle(magnitude, pmax, sorted({0, 1, pmax}))


class TestStackedQuadrature:
    COMPONENTS = (np.exp, lambda u: 1.0 / (1.5 - u), lambda u: np.cos(7.0 * u))

    def stack(self, u):
        return np.stack([f(u) for f in self.COMPONENTS])

    def test_stack_matches_scalar_calls(self):
        tol = DEFAULT_TOL
        got = _sqrt_weight_integral(self.stack, -1.0, 0.5, tol)
        assert got.shape == (len(self.COMPONENTS),)
        for f, value in zip(self.COMPONENTS, got):
            want = _sqrt_weight_integral(f, -1.0, 0.5, tol)
            assert type(want) is float
            assert abs(value - want) <= tol.quad_rel * max(1.0, abs(want))

    def test_one_unsettled_component_fails_the_stack(self):
        def kinked(u):
            return np.abs(u - 0.1234)       # a kink: algebraic convergence only

        with pytest.raises(NumericFailureError, match="did not converge"):
            _sqrt_weight_integral(kinked, -1.0, 0.5)
        with pytest.raises(NumericFailureError, match="did not converge"):
            _sqrt_weight_integral(lambda u: np.vstack([self.stack(u), kinked(u)]), -1.0, 0.5)


def closed_form_unions(seed: int) -> list:
    """The benchmark's twelve seeded closed_form unions (1-4 bands, three of
    each): band lengths from [0.6, 1], gaps from [0.3, 0.6], scaled to [-1, 1]."""
    rng = np.random.default_rng([seed, 1])
    unions = []
    for m in (1, 2, 3, 4):
        for _ in range(3):
            lengths = rng.uniform(0.6, 1.0, m)
            gaps = rng.uniform(0.3, 0.6, m - 1)
            pieces = np.empty(2 * m - 1)
            pieces[0::2] = lengths
            pieces[1::2] = gaps
            points = np.concatenate([[0.0], np.cumsum(pieces)])
            points = -1.0 + 2.0 * points / points[-1]
            points[0], points[-1] = -1.0, 1.0
            unions.append(IntervalUnion(tuple(float(x) for x in points)))
    return unions


def per_moment_gap_points(e: IntervalUnion) -> list:
    """xi from one quadrature run per moment u^p w(u), then the same solve
    and bracketed roots as the library."""
    npoly = e.m - 1
    moments = np.array([
        [_sqrt_weight_integral(
            lambda u, p=p, others=e.endpoints[: 2 * j + 1] + e.endpoints[2 * j + 3 :]:
                u**p * _gap_quotient(u, (), others, 1.0),
            glo, ghi)
         for p in range(npoly + 1)]
        for j, (glo, ghi) in enumerate(e.gaps)
    ])
    poly = np.append(np.linalg.solve(moments[:, :npoly], -moments[:, npoly]), 1.0)
    return [
        find_root_bracketed(lambda u: float(np.polynomial.polynomial.polyval(u, poly)), glo, ghi)
        for glo, ghi in e.gaps
    ]


class TestGapMomentsInOnePass:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_moment_loop(self, seed):
        unions = closed_form_unions(seed)
        for e in unions[3:] + [affine_image(unions[3], 2.5, -1.3)]:
            got = solve_xi(e)
            want = per_moment_gap_points(e)
            assert len(got) == e.m - 1
            assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-14


def gauss_chebyshev_doubling_mass(d) -> float:
    """The band masses by Gauss-Chebyshev doubling (64, 128, ... points) of
    half * G on each band, stopping when the value moves by less than 1e-12."""
    total = 0.0
    for b in d.bands:
        n, prev = 64, None
        while True:
            nodes = np.cos((2.0 * np.arange(n) + 1.0) * math.pi / (2.0 * n))
            val = math.pi / n * float(np.sum(b.half * np.polynomial.chebyshev.chebval(nodes, b.coeffs)))
            if prev is not None and abs(val - prev) < 1e-12 * max(1.0, abs(val)):
                break
            prev, n = val, 2 * n
        total += val
    return total


class TestBandMass:
    """The mass is pi * sum_k half_k c_{k,0}.

    Wrong gap points are not a test of it: on a two-band set the mass does
    not depend on xi.  With xi moved by 0.05, the mass of TWOBAND's regular
    parts still reads 1.0, QUADPACK on them agrees to 9e-15, and only the
    Frostman check (spread 0.16) rejects the density, as
    TestIntervalDensity::test_wrong_gap_point_fails_certificate requires."""

    @staticmethod
    def regular_parts(e):
        xi = solve_xi(e)
        return [_interval_regular(e, xi, k) for k in range(e.m)]

    @pytest.mark.parametrize("label", ["twoband", "narrow", "pole"])
    def test_constant_coefficient_against_quadpack(self, label):
        if label == "pole":
            parts = [lambda s: 1.0 / (1.01 - np.asarray(s))]
        else:
            parts = self.regular_parts(TWOBAND if label == "twoband" else NARROW)
        degrees = []
        for g in parts:
            coeffs = _cheb_coeffs_of(g, DEFAULT_TOL)
            degrees.append(coeffs.size - 1)
            want, err = quad(lambda s: float(g(s)), -1.0, 1.0, weight="alg", wvar=(-0.5, -0.5),
                             epsabs=1e-15, epsrel=1e-13, limit=500)
            assert abs(math.pi * coeffs[0] - want) <= 1e-12 * abs(want)
        if label != "twoband":
            assert max(degrees) > 128      # past the 64- and 128-point rules
        if label == "pole":
            assert abs(math.pi * coeffs[0] - math.pi / math.sqrt(1.01**2 - 1.0)) <= 1e-12 * want

    @pytest.mark.parametrize("build", [
        lambda: interval_density(TWOBAND),
        lambda: interval_density(NARROW),
        lambda: arc_density(ArcUnion((-1.4, 2.0))),
        lambda: collocation_density(TWOBAND),
        lambda: collocation_density(ArcUnion((-2.0, -1.0, 1.0, 2.0))),
    ], ids=["interval", "narrow", "arc", "collocation-line", "collocation-arcs"])
    def test_mass_equals_quadrature_of_the_stored_coefficients(self, build):
        d = build()
        assert abs(d.mass - gauss_chebyshev_doubling_mass(d)) <= 1e-13


PAIR = ArcUnion((-2.0, -1.0, 1.0, 2.0))


class TestBandedConstruction:
    """Every line and circle density comes from one constructor: one band per
    span of the set, with the certificates it stores equal to the ones
    recomputed from the finished record."""

    def test_spans_per_geometry(self):
        assert interval_density(TWOBAND).spans == TWOBAND.bands
        assert arc_density(PAIR).spans == PAIR.arcs
        assert circle_density(Circle(2.0)).spans == ()
        assert lemniscate_density(Lemniscate((0.0, 0.0, 1.0))).spans == ()

    @pytest.mark.parametrize("build", [
        lambda: interval_density(TWOBAND),
        lambda: arc_density(ArcUnion((-1.4, 2.0))),
        lambda: collocation_density(TWOBAND),
        lambda: collocation_density(PAIR),
    ], ids=["interval", "arc", "collocation-line", "collocation-arcs"])
    def test_stored_certificates(self, build):
        d = build()
        assert [(b.center, b.half) for b in d.bands] == [
            (0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in d.spans
        ]
        assert d.mass == math.pi * sum(b.half * float(b.coeffs[0]) for b in d.bands)
        assert d.frostman_spread == frostman_check(d)

    @pytest.mark.parametrize("build", [
        lambda: interval_density(TWOBAND),
        lambda: arc_density(ArcUnion((-1.4, 2.0))),
        lambda: arc_density(PAIR),
    ], ids=["line", "arc", "arcs"])
    def test_extrapolated_limit_rejects_bad_endpoint_index(self, build):
        d = build()
        for j in (0, 2 * len(d.spans) + 1):
            with pytest.raises(InvalidArgumentError, match="out of range"):
                omega_limit_extrapolated(d, j)

    @pytest.mark.parametrize("d", [
        circle_density(Circle(2.0)),
        lemniscate_density(Lemniscate((0.0, 0.0, 1.0))),
    ], ids=["circle", "lemniscate"])
    def test_extrapolated_limit_needs_endpoints(self, d):
        with pytest.raises(InvalidArgumentError, match="line or circle"):
            omega_limit_extrapolated(d, 1)
