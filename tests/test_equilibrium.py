"""Equilibrium densities against independent oracles and closed-form limits.

Oracles used here and nowhere in the library:
  * QUADPACK (scipy.integrate.quad) with an explicit substitution for masses
    and gap conditions, against the library's Gauss-Chebyshev doubling;
  * mpmath at 30 digits (tanh-sinh quadrature of the gap conditions and
    findroot on xi directly, with no moment system) for the gap points;
  * the square-map identity for symmetric two-interval sets, which gives the
    density without any gap-point computation;
  * known potential constants: log 2 on [-1, 1] and -log sin(beta/2) on the
    symmetric arc of half-angle beta.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from eqmarkov.equilibrium import (
    EndpointData,
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
from eqmarkov.sets import ArcUnion, Circle, IntervalUnion, Lemniscate, affine_image

UNIT = IntervalUnion((-1.0, 1.0))
SPLIT = IntervalUnion((-1.0, -0.5, 0.5, 1.0))          # symmetric, a = 1/2
TWOBAND = IntervalUnion((-1.0, -0.3, 0.2, 1.0))


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

    def test_wrong_gap_point_fails_certificate(self):
        bad = interval_density(SPLIT, xi_override=[0.15], validate=False)
        assert bad.frostman_spread > 1e-3
        with pytest.raises(NumericFailureError):
            interval_density(SPLIT, xi_override=[0.15])

    def test_wrong_gap_point_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            interval_density(SPLIT, xi_override=[0.0, 0.1], validate=False)

    def test_probe_count_validated(self):
        d = interval_density(UNIT)
        with pytest.raises(InvalidArgumentError):
            frostman_check(d, probes=2)


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

    def test_sides_and_bands(self):
        data = omega_limit(SPLIT, 3)
        assert data.band == 1 and data.side == "left" and data.index == 3

    def test_extrapolation_matches_closed_form(self):
        d = interval_density(TWOBAND)
        for j in (1, 2, 3, 4):
            closed = omega_limit(TWOBAND, j, d.xi).omega_limit
            extrap = omega_limit_extrapolated(d, j).omega_limit
            assert abs(extrap / closed - 1.0) < 1e-6

    def test_endpoint_data_validation(self):
        with pytest.raises(NumericFailureError):
            EndpointData(1, -0.5, 0, "left")
        with pytest.raises(NumericFailureError):
            EndpointData(1, math.nan, 0, "left")
        with pytest.raises(InvalidArgumentError):
            EndpointData(1, 1.0, 0, "top")


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
        assert worst < 1e-6
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

    def test_band_limit(self):
        pts = tuple(float(v) for v in np.linspace(-1.0, 1.0, 18))
        with pytest.raises(InvalidArgumentError):
            collocation_density(IntervalUnion(pts))

    def test_angle_wrapping_in_evaluate(self):
        d = collocation_density(ArcUnion((-2.0, -1.0, 1.0, 2.0)))
        assert d.evaluate(1.5) == d.evaluate(1.5 + 2.0 * math.pi)


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
