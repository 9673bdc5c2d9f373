"""Factor catalog against frozen arithmetic values and cross-route identities.

The strongest checks here pit two genuinely different computations against
each other: closed trigonometric forms against the collocation machinery, and
the cosine-substitution identity linking real sets to their circle preimages.
"""

import math

import numpy as np
import pytest

from eqmarkov.config import Tolerances
from eqmarkov.equilibrium import (
    arc_density,
    collocation_density,
    interval_density,
    omega_limit,
    omega_limit_arc,
    solve_xi,
)
from eqmarkov.errors import DomainError, InvalidArgumentError, NumericFailureError
from eqmarkov.factors import (
    FactorReport,
    Weight,
    bernstein_factor,
    bernstein_factor_circle_subset,
    bernstein_factor_trig,
    bernstein_higher,
    l2_bernstein_jacobi,
    l2_markov_constant,
    markov_arc_endpoint,
    markov_global,
    markov_higher,
    markov_local,
    markov_local_arc,
    markov_trig,
    nu_exponent,
    riesz_factor,
    va_markov_exact,
    videnskii_markov,
    videnskii_pointwise,
)
from eqmarkov.sets import (
    ArcUnion,
    Circle,
    IntervalUnion,
    Lemniscate,
    PeriodicSet,
    gamma_of,
)

UNIT = IntervalUnion((-1.0, 1.0))
SPLIT = IntervalUnion((-1.0, -0.5, 0.5, 1.0))


class TestFactorReport:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            FactorReport("nonsense", 1.0, 1, False)
        with pytest.raises(InvalidArgumentError):
            FactorReport("bernstein-alg", -1.0, 1, False)
        with pytest.raises(InvalidArgumentError):
            FactorReport("bernstein-alg", 1.0, 0, False)

    def test_degree_power_zero_only_for_exact_kind(self):
        report = FactorReport("va-markov", 2688.0, 0, False)
        assert report.degree_power == 0


class TestWeight:
    def test_exponent_validation(self):
        with pytest.raises(InvalidArgumentError):
            Weight((-1.0, 0.0))
        with pytest.raises(InvalidArgumentError):
            Weight(())

    def test_jacobi_endpoint_mapping(self):
        w = Weight.jacobi(0.5, -0.3)
        assert w.exponents == (-0.3, 0.5)      # beta at -1, alpha at +1
        assert w.band_exponents(0) == (-0.3, 0.5)

    def test_h_positivity_checked(self):
        w = Weight((0.0, 0.0), h=lambda t: t)  # vanishes at 0
        with pytest.raises(InvalidArgumentError):
            w.validate_on(UNIT)
        good = Weight((0.0, 0.0), h=lambda t: 2.0 + np.sin(t))
        good.validate_on(UNIT)

    def test_exponent_count_checked(self):
        with pytest.raises(InvalidArgumentError):
            l2_markov_constant(SPLIT, Weight((0.0, 0.0)))


class TestBernsteinAlgebraic:
    def test_unit_interval_grid(self):
        d = interval_density(UNIT)
        for x in np.linspace(-0.99, 0.99, 100):
            got = bernstein_factor(UNIT, x, d).value
            assert abs(got - 1.0 / math.sqrt(1.0 - x * x)) < 1e-12

    def test_midpoint_is_one(self):
        report = bernstein_factor(UNIT, 0.0)
        assert report.value == 1.0
        assert report.degree_power == 1 and not report.asymptotic

    def test_split_set_frozen_value(self):
        # square-map density: pi * |t| / (pi sqrt((t^2-1/4)(1-t^2))) at t=0.8
        want = 0.8 / math.sqrt((0.64 - 0.25) * (1.0 - 0.64))
        got = bernstein_factor(SPLIT, 0.8).value
        assert abs(got / want - 1.0) < 1e-12

    def test_scaling(self):
        wide = IntervalUnion((-3.0, 3.0))
        assert abs(bernstein_factor(wide, 0.0).value - 1.0 / 3.0) < 1e-13

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bernstein_factor(SPLIT, 0.0)


class TestTrigFactors:
    def test_closed_form_matches_collocation_route(self):
        # closed Videnskii expression vs density obtained with no shared code
        for beta in (1.0, 0.5 * math.pi, 2.0):
            per = PeriodicSet(IntervalUnion((-beta, beta)))
            oracle = collocation_density(gamma_of(per))
            for theta in np.linspace(-0.9 * beta, 0.9 * beta, 25):
                closed = videnskii_pointwise(beta, theta).value
                routed = bernstein_factor_trig(per, theta, density=oracle).value
                assert abs(routed / closed - 1.0) < 1e-8

    def test_substitution_identity(self):
        # pi w_E(cos t)|sin t| = 2 pi w_Gamma(e^{it}) for E = cos(image of Gamma)
        b1, b2 = 0.7, 2.2
        e = IntervalUnion((math.cos(b2), math.cos(b1)))
        per = PeriodicSet(IntervalUnion((-b2, -b1, b1, b2)))
        de = interval_density(e)
        dg = collocation_density(gamma_of(per))
        for theta in np.linspace(b1 + 0.05, b2 - 0.05, 20):
            left = bernstein_factor(e, math.cos(theta), de).value * abs(math.sin(theta))
            right = bernstein_factor_trig(per, theta, density=dg).value
            assert abs(left / right - 1.0) < 1e-8

    def test_interior_required(self):
        per = PeriodicSet(IntervalUnion((-1.0, 1.0)))
        with pytest.raises(DomainError):
            bernstein_factor_trig(per, 1.0)
        with pytest.raises(DomainError):
            bernstein_factor_trig(per, 2.5)

    def test_full_period_rejected_at_construction(self):
        with pytest.raises(InvalidArgumentError):
            PeriodicSet(IntervalUnion((-math.pi, math.pi)))

    def test_videnskii_endpoint_blow_up_and_midpoint(self):
        beta = 1.2
        assert abs(videnskii_pointwise(beta, 0.0).value - 1.0 / math.sin(0.5 * beta)) < 1e-15
        assert videnskii_pointwise(beta, beta - 1e-9).value > 1e3


class TestCircleSubset:
    def test_right_angle_arc_value(self):
        report = bernstein_factor_circle_subset(ArcUnion((-0.5 * math.pi, 0.5 * math.pi)), 0.0)
        assert abs(report.value - 0.5 * (1.0 + math.sqrt(2.0))) < 1e-12
        assert report.asymptotic

    def test_symmetric_points_equal(self):
        a = ArcUnion((-1.5, 1.5))
        left = bernstein_factor_circle_subset(a, -0.8).value
        right = bernstein_factor_circle_subset(a, 0.8).value
        assert abs(left - right) < 1e-12

    def test_near_full_circle_tends_to_one(self):
        values = [
            bernstein_factor_circle_subset(ArcUnion((-b, b)), 0.0).value
            for b in (2.0, 2.6, 3.1)
        ]
        assert values[0] > values[1] > values[2]
        assert abs(values[-1] - 1.0) < 0.01

    def test_endpoint_rejected(self):
        with pytest.raises(DomainError):
            bernstein_factor_circle_subset(ArcUnion((-1.0, 1.0)), 1.0)


class TestRieszCurve:
    def test_unit_circle(self):
        report = riesz_factor(Circle(1.0), 1j)
        assert report.value == 1.0 and not report.asymptotic

    def test_radius_scaling(self):
        assert riesz_factor(Circle(2.0), 2.0 + 0j).value == 0.5

    def test_square_lemniscate_matches_circle(self):
        report = riesz_factor(Lemniscate((0.0, 0.0, 1.0)), 1.0 + 0j)
        assert abs(report.value - 1.0) < 1e-14
        assert report.asymptotic

    def test_off_curve_and_critical(self):
        with pytest.raises(DomainError):
            riesz_factor(Circle(1.0), 2.0 + 0j)
        with pytest.raises(DomainError):
            riesz_factor(Lemniscate((1.0, 0.0, 1.0)), 0.0 + 0j)

    def test_caller_tolerance_reaches_the_circle(self):
        z = 2.0 * (1.0 + 1e-11)         # 2e-11 off the circle of radius 2
        assert riesz_factor(Circle(2.0), z, Tolerances(point_on_set=1e-9)).value == 0.5
        with pytest.raises(DomainError):
            riesz_factor(Circle(2.0), z)


class TestMarkovEndpoint:
    def test_unit_interval_is_one(self):
        assert abs(markov_local(UNIT, 1).value - 1.0) < 1e-13

    def test_general_interval(self):
        e = IntervalUnion((0.25, 1.5))
        assert abs(markov_local(e, 1).value - 2.0 / 1.25) < 1e-12

    def test_split_set_values(self):
        assert abs(markov_local(SPLIT, 2).value - 2.0 / 3.0) < 1e-12
        assert abs(markov_local(SPLIT, 3).value - 2.0 / 3.0) < 1e-12
        assert abs(markov_local(SPLIT, 1).value - 4.0 / 3.0) < 1e-12
        assert abs(markov_global(SPLIT).value - 4.0 / 3.0) < 1e-12

    def test_scaling(self):
        for c in (0.5, 3.0):
            scaled = IntervalUnion((-c, c))
            assert abs(markov_local(scaled, 1).value - 1.0 / c) < 1e-12

    def test_higher_order_values(self):
        assert abs(markov_higher(UNIT, 1, 2).value - 1.0 / 3.0) < 1e-13
        assert abs(markov_higher(UNIT, 1, 3).value - 1.0 / 15.0) < 1e-13
        assert markov_higher(UNIT, 1, 2).degree_power == 4

    def test_higher_order_identity(self):
        # value * (2k-1)!! = (first order)^k exactly, by construction
        base = markov_local(SPLIT, 1).value
        xi = interval_density(SPLIT).xi
        for k, dfact in ((2, 3.0), (3, 15.0), (4, 105.0)):
            v = markov_higher(SPLIT, 1, k, xi=list(xi)).value
            assert abs(v * dfact / base**k - 1.0) < 1e-12

    @pytest.mark.parametrize("e", [UNIT, SPLIT], ids=["unit", "two-band"])
    def test_endpoint_index_out_of_range(self, e):
        xi = solve_xi(e)
        for j in (0, 2 * e.m + 1):
            for call in (
                lambda: omega_limit(e, j, xi),
                lambda: markov_local(e, j, xi),
                lambda: markov_higher(e, j, 2, xi),
            ):
                with pytest.raises(InvalidArgumentError, match="out of range"):
                    call()


class TestEndpointFactorFormula:
    """Every endpoint factor is (s pi^2 Omega^2)^k / (2k-1)!!, s = 2 on real
    sets and arcs and 8 for trigonometric polynomials, to the bit."""

    TWO = IntervalUnion((-1.0, -0.3, 0.2, 1.0))
    ARCS = ArcUnion((-2.5, -0.5, 0.5, 2.5))

    @staticmethod
    def explicit(scale, om, k):
        if k == 1:
            return scale * math.pi**2 * om * om
        return (scale * math.pi**2 * om * om) ** k / (1, 3, 15)[k - 1]

    def test_interval_factors(self):
        xi = solve_xi(self.TWO)
        oms = [omega_limit(self.TWO, j, xi).omega_limit for j in range(1, 5)]
        for j, om in enumerate(oms, start=1):
            assert markov_local(self.TWO, j, xi).value == self.explicit(2.0, om, 1)
            for k in (1, 2, 3):
                assert markov_higher(self.TWO, j, k, xi).value == self.explicit(2.0, om, k)
        assert markov_global(self.TWO).value == self.explicit(2.0, max(oms), 1)

    def test_arc_and_trig_factors(self):
        d = arc_density(self.ARCS)
        oms = [omega_limit_arc(self.ARCS, j, d).omega_limit for j in range(1, 5)]
        per = PeriodicSet(IntervalUnion(self.ARCS.angles))
        for j, om in enumerate(oms, start=1):
            assert markov_local_arc(self.ARCS, j).value == self.explicit(2.0, om, 1)
            assert markov_trig(per, j).value == self.explicit(8.0, om, 1)
            for k in (1, 2, 3):
                assert markov_arc_endpoint(self.ARCS, k, j).value == self.explicit(2.0, om, k)
        for k in (1, 2, 3):
            assert markov_arc_endpoint(self.ARCS, k).value == self.explicit(2.0, max(oms), k)


class TestPreparedData:
    """A factor given its set's data returns the report it builds alone: xi
    for the endpoint factors of an interval union, the density otherwise."""

    THREE = IntervalUnion((-1.0, -0.6, -0.2, 0.3, 0.5, 1.0))
    ARCS = ArcUnion((-2.5, -0.5, 0.5, 2.5))
    PERIODIC = PeriodicSet(IntervalUnion((-2.0, 2.0)))

    def test_interval_union(self):
        e = self.THREE
        d = interval_density(e)
        w = Weight((0.5, 0.0, 1.0, 0.2, 0.0, 2.0))
        assert markov_global(e, d.xi) == markov_global(e)
        assert l2_markov_constant(e, None, d.xi) == l2_markov_constant(e)
        assert l2_markov_constant(e, w, d.xi) == l2_markov_constant(e, w)
        for k in (1, 3):
            assert bernstein_higher(e, 0.6, k, d) == bernstein_higher(e, 0.6, k)

    def test_arc_union(self):
        a = self.ARCS
        d = arc_density(a)
        for j in range(1, 5):
            assert markov_local_arc(a, j, d) == markov_local_arc(a, j)
            assert markov_arc_endpoint(a, 2, j, d) == markov_arc_endpoint(a, 2, j)
        assert markov_arc_endpoint(a, 2, density=d) == markov_arc_endpoint(a, 2)
        assert bernstein_higher(a, 1.0, 2, d) == bernstein_higher(a, 1.0, 2)

    def test_periodic_set(self):
        per = self.PERIODIC
        d = arc_density(gamma_of(per))
        for j in (1, 2):
            assert markov_trig(per, j, d) == markov_trig(per, j)
        assert bernstein_higher(per, 0.5, 2, d) == bernstein_higher(per, 0.5, 2)


class TestMarkovTrigAndArc:
    def test_single_interval_identity(self):
        for beta in (1.0, 0.5 * math.pi, 2.0):
            per = PeriodicSet(IntervalUnion((-beta, beta)))
            got = markov_trig(per, 1).value
            assert abs(got - videnskii_markov(beta).value) < 1e-8

    def test_right_angle_value(self):
        per = PeriodicSet(IntervalUnion((-0.5 * math.pi, 0.5 * math.pi)))
        assert abs(markov_trig(per, 2).value - 2.0) < 1e-8

    def test_mirror_endpoints_equal(self):
        per = PeriodicSet(IntervalUnion((-2.0, -1.0, 1.0, 2.0)))
        vals = [markov_trig(per, j).value for j in (1, 4)]
        assert abs(vals[0] / vals[1] - 1.0) < 1e-6

    def test_arc_local_closed_form(self):
        for beta in (1.0, 2.0):
            got = markov_local_arc(ArcUnion((-beta, beta)), 1).value
            assert abs(got - 0.5 / math.tan(0.5 * beta)) < 1e-7

    def test_arc_factor_decreases_as_arc_grows(self):
        vals = [
            markov_local_arc(ArcUnion((-b, b)), 1).value
            for b in (0.8, 1.4, 2.0, 2.6)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_arc_endpoint_higher_order(self):
        a = ArcUnion((-1.0, 1.0))
        first = markov_arc_endpoint(a, 1).value
        second = markov_arc_endpoint(a, 2).value
        assert abs(second * 3.0 / first**2 - 1.0) < 1e-9
        assert markov_arc_endpoint(a, 2).degree_power == 4
        assert abs(markov_arc_endpoint(a, 1, j=2).value / first - 1.0) < 1e-9

    def test_closed_curve_rejected(self):
        with pytest.raises(InvalidArgumentError):
            markov_arc_endpoint(Circle(1.0), 1)


class TestExactDegreeConstants:
    def test_frozen_product(self):
        assert va_markov_exact(6, 3) == 2688.0

    def test_first_order_is_degree_squared(self):
        for n in (1, 5, 11):
            assert va_markov_exact(n, 1) == float(n * n)

    def test_full_order_matches_leading_term(self):
        # k = n: the n-th derivative of the degree-n extremal polynomial,
        # 2^{n-1} n!
        assert va_markov_exact(3, 3) == 24.0
        assert va_markov_exact(4, 4) == float(2**3 * math.factorial(4))

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            va_markov_exact(3, 4)
        with pytest.raises(InvalidArgumentError):
            va_markov_exact(0, 0)


class TestL2Factors:
    def test_bessel_thresholds(self):
        assert abs(nu_exponent(0.0) - 0.5 * math.pi) < 1e-12
        assert abs(nu_exponent(1.0) - 2.404825557695773) < 1e-10
        assert abs(nu_exponent(2.0) - math.pi) < 1e-12

    # 0.5 / j_{(kappa-1)/2,1} from mpmath at 30 digits; the zero drops below
    # 1e-7 as kappa -> -1 and reaches 99.58 at kappa = 183
    @pytest.mark.parametrize("kappa, value", [
        (-1.0 + 1e-14, 3536947.690441295),
        (-1.0 + 1e-10, 35355.33759622859),
        (183.0, 0.005021255531259193),
    ])
    def test_weighted_factor_at_the_ends_of_the_bessel_range(self, kappa, value):
        report = l2_markov_constant(UNIT, Weight.jacobi(kappa, kappa))
        assert report.value == pytest.approx(value, rel=1e-13)

    @pytest.mark.parametrize("kappa", [184.0, 250.0, 400.0, 1000.0])
    def test_zero_above_the_ceiling_is_a_typed_failure(self, kappa):
        with pytest.raises(NumericFailureError, match="above"):
            nu_exponent(kappa)
        with pytest.raises(NumericFailureError, match="above"):
            l2_markov_constant(UNIT, Weight.jacobi(kappa, 0.0))

    def test_unit_interval_unweighted(self):
        report = l2_markov_constant(UNIT)
        assert report.kind == "l2-markov"
        assert abs(report.value - 1.0 / math.pi) < 1e-12

    def test_symmetric_jacobi_weight(self):
        for alpha in (0.5, 1.0):
            w = Weight.jacobi(alpha, alpha)
            report = l2_markov_constant(UNIT, w)
            assert report.kind == "l2-markov-weighted"
            assert abs(report.value - 0.5 / nu_exponent(alpha)) < 1e-12

    def test_split_set_unweighted(self):
        report = l2_markov_constant(SPLIT)
        # worst endpoint is the outer one: pi^2 Omega^2 = 2/3, nu_0 = pi/2
        assert abs(report.value - (2.0 / 3.0) / (0.5 * math.pi)) < 1e-12

    def test_gradient_constant(self):
        assert abs(l2_bernstein_jacobi(7, 0.5, -0.3) - math.sqrt(57.4)) < 1e-14
        assert l2_bernstein_jacobi(5, -0.5, -0.5) == 5.0
        assert abs(l2_bernstein_jacobi(1, 0.0, 0.0) - math.sqrt(2.0)) < 1e-15
        with pytest.raises(InvalidArgumentError):
            l2_bernstein_jacobi(0, 0.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            l2_bernstein_jacobi(3, -1.0, 0.0)


class TestHigherBernstein:
    def test_unit_interval_midpoint(self):
        report = bernstein_higher(UNIT, 0.0, 2)
        assert report.value == 1.0 and report.degree_power == 2 and report.asymptotic

    def test_circle_powers_stay_exact(self):
        report = bernstein_higher(Circle(1.0), 1j, 3)
        assert report.value == 1.0 and not report.asymptotic

    def test_trig_power_is_exact(self):
        per = PeriodicSet(IntervalUnion((-1.2, 1.2)))
        report = bernstein_higher(per, 0.3, 2)
        assert abs(report.value - videnskii_pointwise(1.2, 0.3).value ** 2) < 1e-12
        assert not report.asymptotic

    def test_arc_power(self):
        a = ArcUnion((-1.0, 1.0))
        base = bernstein_factor_circle_subset(a, 0.2).value
        report = bernstein_higher(a, 0.2, 2)
        assert abs(report.value - base * base) < 1e-12 and report.asymptotic

    def test_bad_order(self):
        with pytest.raises(InvalidArgumentError):
            bernstein_higher(UNIT, 0.0, 0)
