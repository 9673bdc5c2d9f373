"""Release gate: nine end-to-end checks, each printing one PASS/FAIL line.

Every check exercises a full route through the library (density solvers,
closed-form constants, LP and eigenvalue oracles, randomized verifier) with
pinned tolerances and a wall-clock budget.  Run with ``pytest -s`` to see the
summary lines; each test also asserts, so a plain ``pytest`` run fails loudly.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from eqmarkov.equilibrium import (
    arc_density,
    collocation_density,
    interval_density,
    omega_limit,
    omega_limit_arc,
    solve_xi,
)
from eqmarkov.extremal import (
    PolyBasis,
    Weight,
    l2_ratio_numeric,
    markov_constant_numeric,
    pointwise_derivative_sup,
    verify_inequality,
)
from eqmarkov.factors import (
    bernstein_factor,
    markov_global,
    markov_local,
    nu_exponent,
    videnskii_markov,
    videnskii_pointwise,
)
from eqmarkov.sets import ArcUnion, Circle, IntervalUnion, PeriodicSet

ORACLE_AGREEMENT = 1e-6         # closed-form vs collocation density, relative

UNIT = IntervalUnion((-1.0, 1.0))
TWO = IntervalUnion((-1.0, -0.3, 0.2, 1.0))
SPLIT = IntervalUnion((-1.0, -0.5, 0.5, 1.0))


def _gate(name: str, elapsed: float, budget: float, details, problems):
    """Print the one-line verdict and fail the test if anything is off."""
    if elapsed >= budget:
        problems.append(f"runtime {elapsed:.2f} s over the {budget:.0f} s budget")
    verdict = "FAIL" if problems else "PASS"
    info = "; ".join(list(details) + list(problems))
    print(f"acceptance {name}: {verdict} [{elapsed:.2f} s] {info}")
    assert not problems, f"{name}: " + "; ".join(problems)


def test_01_unit_interval_density():
    t0 = time.perf_counter()
    d = interval_density(UNIT)
    ts = np.linspace(-1.0, 1.0, 514)[1:-1]          # 512 interior points
    exact = 1.0 / (np.pi * np.sqrt(1.0 - ts * ts))
    rel = float(np.max(np.abs(d.evaluate(ts) - exact) / exact))
    mass_err = abs(d.mass - 1.0)
    elapsed = time.perf_counter() - t0

    details = [f"max rel err {rel:.2e}", f"mass err {mass_err:.2e}"]
    problems = []
    if rel >= 1e-10:
        problems.append(f"density rel err {rel:.2e} >= 1e-10")
    if mass_err >= 1e-10:
        problems.append(f"mass err {mass_err:.2e} >= 1e-10")
    _gate("1/9 unit-interval density", elapsed, 1.0, details, problems)


def test_02_two_band_density_cross_checks():
    t0 = time.perf_counter()
    d = interval_density(TWO)
    (xi,) = d.xi
    a1, a2, a3, a4 = TWO.endpoints

    # independent residual oracle for the gap condition: the signed integrand
    # over the gap must vanish; QUADPACK absorbs the inverse-sqrt endpoints
    def smooth(u):
        return (u - xi) / math.sqrt((u - a1) * (a4 - u))

    residual, _ = quad(smooth, a2, a3, weight="alg", wvar=(-0.5, -0.5))

    dc = collocation_density(TWO)
    worst = 0.0
    for lo, hi in TWO.bands:
        buf = 1e-3 * (hi - lo)
        for t in np.linspace(lo + buf, hi - buf, 60):
            worst = max(worst, abs(dc.evaluate(float(t)) / d.evaluate(float(t)) - 1.0))
    elapsed = time.perf_counter() - t0

    details = [
        f"gap residual {abs(residual):.2e}",
        f"collocation agreement {worst:.2e}",
        f"frostman spread {d.frostman_spread:.2e}",
        f"gap point {xi:+.6f}",
    ]
    problems = []
    if abs(residual) >= 1e-11:
        problems.append(f"gap residual {abs(residual):.2e} >= 1e-11")
    if worst >= ORACLE_AGREEMENT:
        problems.append(f"collocation disagreement {worst:.2e} >= {ORACLE_AGREEMENT}")
    if d.frostman_spread >= 1e-6:
        problems.append(f"frostman spread {d.frostman_spread:.2e} >= 1e-6")
    if not a2 < xi < a3:
        problems.append(f"gap point {xi} outside ({a2}, {a3})")
    _gate("2/9 two-band density", elapsed, 5.0, details, problems)


def test_03_endpoint_and_markov_factors():
    t0 = time.perf_counter()
    om = omega_limit(UNIT, 1).omega_limit
    om_err = abs(om - 1.0 / (math.pi * math.sqrt(2.0)))
    m_err = abs(markov_local(UNIT, 1).value - 1.0)
    inner = [markov_local(SPLIT, j).value for j in (2, 3)]
    outer = [markov_local(SPLIT, j).value for j in (1, 4)]
    inner_err = max(abs(v - 2.0 / 3.0) for v in inner)
    outer_err = max(abs(v - 4.0 / 3.0) for v in outer)
    elapsed = time.perf_counter() - t0

    details = [
        f"endpoint limit err {om_err:.2e}",
        f"unit local constant err {m_err:.2e}",
        f"split inner err {inner_err:.2e}",
        f"split outer err {outer_err:.2e}",
    ]
    problems = []
    if om_err >= 1e-10:
        problems.append(f"endpoint limit err {om_err:.2e} >= 1e-10")
    if m_err > 1e-12:
        problems.append(f"unit local constant err {m_err:.2e} > 1e-12")
    if inner_err >= 1e-8:
        problems.append(f"inner constant err {inner_err:.2e} >= 1e-8 (target 2/3)")
    if outer_err >= 1e-8:
        problems.append(f"outer constant err {outer_err:.2e} >= 1e-8 (target 4/3)")
    _gate("3/9 endpoint and local constants", elapsed, 5.0, details, problems)


def test_04_arc_density_identity():
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_endpoint = 0.0
    for beta in (1.0, 0.5 * math.pi, 2.0):
        arc = ArcUnion((-beta, beta))
        d = arc_density(arc)
        thetas = np.linspace(-0.95 * beta, 0.95 * beta, 50)
        lhs = 2.0 * np.pi * d.evaluate(thetas)
        s2 = np.sin(0.5 * beta) ** 2 - np.sin(0.5 * thetas) ** 2
        rhs = np.cos(0.5 * thetas) / np.sqrt(s2)
        worst_rel = max(worst_rel, float(np.max(np.abs(lhs - rhs) / rhs)))
        om = omega_limit_arc(arc, 1, d).omega_limit
        gap = abs(8.0 * math.pi**2 * om * om - videnskii_markov(beta).value)
        worst_endpoint = max(worst_endpoint, gap)
    elapsed = time.perf_counter() - t0

    details = [
        f"pointwise identity err {worst_rel:.2e}",
        f"endpoint constant err {worst_endpoint:.2e}",
    ]
    problems = []
    if worst_rel >= 1e-10:
        problems.append(f"pointwise identity err {worst_rel:.2e} >= 1e-10")
    if worst_endpoint >= 1e-7:
        problems.append(f"endpoint constant err {worst_endpoint:.2e} >= 1e-7")
    _gate("4/9 arc density identity", elapsed, 30.0, details, problems)


def test_05_lp_exact_values():
    t0 = time.perf_counter()
    r11 = pointwise_derivative_sup(
        UNIT, PolyBasis("algebraic-chebyshev", 11, UNIT.covering_interval), 0.0
    )
    coeffs = np.asarray(r11.coefficients)
    cos_sim = abs(coeffs[11]) / float(np.linalg.norm(coeffs))
    m8 = markov_constant_numeric(UNIT, PolyBasis("algebraic-chebyshev", 8, UNIT.covering_interval))
    m63 = markov_constant_numeric(
        UNIT, PolyBasis("algebraic-chebyshev", 6, UNIT.covering_interval), k=3
    )
    elapsed = time.perf_counter() - t0

    details = [
        f"odd-degree sup {r11.value:.6f}",
        f"witness similarity {cos_sim:.9f}",
        f"first-derivative sup {m8.value:.4f}",
        f"third-derivative sup {m63.value:.2f}",
    ]
    problems = []
    if abs(r11.value - 11.0) > 1e-3:
        problems.append(f"odd-degree sup {r11.value} not within 1e-3 of 11")
    if cos_sim <= 1.0 - 1e-6:
        problems.append(f"witness similarity {cos_sim} <= 1 - 1e-6")
    if abs(m8.value - 64.0) > 0.05:
        problems.append(f"first-derivative sup {m8.value} not within 0.05 of 64")
    if abs(m63.value - 2688.0) > 2.0:
        problems.append(f"third-derivative sup {m63.value} not within 2 of 2688")
    _gate("5/9 LP exact values", elapsed, 60.0, details, problems)


def test_06_sharpness_trends():
    t0 = time.perf_counter()
    trends = {}

    bound = bernstein_factor(UNIT, 0.0).value
    trends["pointwise"] = [
        pointwise_derivative_sup(
            UNIT, PolyBasis("algebraic-chebyshev", n, UNIT.covering_interval), 0.0
        ).value
        / (n * bound)
        for n in (8, 16, 24)
    ]

    per = PeriodicSet(IntervalUnion((-2.0, 2.0)))
    tbound = videnskii_pointwise(2.0, 0.0).value
    trends["trig"] = [
        pointwise_derivative_sup(per, PolyBasis("trigonometric", n), 0.0).value / (n * tbound)
        for n in (4, 8, 16)
    ]

    glob = markov_global(TWO).value
    trends["markov"] = [
        markov_constant_numeric(
            TWO, PolyBasis("algebraic-chebyshev", n, TWO.covering_interval)
        ).value
        / (glob * n * n)
        for n in (8, 16, 24)
    ]
    elapsed = time.perf_counter() - t0

    details = [
        f"{label} ratios " + "/".join(f"{r:.4f}" for r in rs) for label, rs in trends.items()
    ]
    problems = []
    for label, rs in trends.items():
        if any(b < a for a, b in zip(rs, rs[1:])):
            problems.append(f"{label} ratios not nondecreasing: {rs}")
        if rs[-1] < 0.85:
            problems.append(f"{label} top ratio {rs[-1]:.4f} < 0.85")
    _gate("6/9 sharpness trends", elapsed, 600.0, details, problems)


def _j0_series(x: float) -> float:
    """Power series for the order-zero Bessel function, summed to 1e-24."""
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    m = 0
    while abs(term) > 1e-24:
        m += 1
        term *= -q / (m * m)
        total += term
    return total


def test_07_l2_constants():
    t0 = time.perf_counter()
    grad = l2_ratio_numeric(UNIT, Weight.jacobi(0.5, -0.3), 7, "gradient-bernstein")
    grad_err = abs(grad - math.sqrt(7.0 * 8.2))

    target = 1.0 / math.pi
    r20 = l2_ratio_numeric(UNIT, None, 20, "markov") / 400.0
    r40 = l2_ratio_numeric(UNIT, None, 40, "markov") / 1600.0

    nu0_err = abs(nu_exponent(0.0) - 0.5 * math.pi)

    lo, hi = 2.0, 3.0                       # sign change bracket for the series
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if _j0_series(lo) * _j0_series(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    zero_err = abs(nu_exponent(1.0) - 0.5 * (lo + hi))
    elapsed = time.perf_counter() - t0

    details = [
        f"weighted equality err {grad_err:.2e}",
        f"ratio at n=40 {r40:.6f} (target {target:.6f})",
        f"half-pi err {nu0_err:.2e}",
        f"series zero err {zero_err:.2e}",
    ]
    problems = []
    if grad_err > 1e-8:
        problems.append(f"weighted equality err {grad_err:.2e} > 1e-8")
    if abs(r40 - target) / target > 0.08:
        problems.append(f"n=40 ratio {r40:.6f} more than 8% from {target:.6f}")
    if abs(r40 - target) >= abs(r20 - target):
        problems.append(f"n=40 gap {abs(r40 - target):.2e} not below n=20 gap {abs(r20 - target):.2e}")
    if nu0_err > 1e-12:
        problems.append(f"half-pi err {nu0_err:.2e} > 1e-12")
    if zero_err > 1e-10:
        problems.append(f"series zero err {zero_err:.2e} > 1e-10")
    _gate("7/9 L2 constants", elapsed, 60.0, details, problems)


def test_08_randomized_inequalities():
    t0 = time.perf_counter()
    per = PeriodicSet(IntervalUnion((-1.2, 1.2)))
    suite = (
        ("bernstein-unit", UNIT),
        ("markov-unit", UNIT),
        ("va-markov", UNIT),
        ("szego-unit", UNIT),
        ("bernstein-szego", TWO),
        ("bernstein-alg", TWO),
        ("bernstein-trig", per),
        ("trig-full-period", per),
        ("riesz-circle", Circle(1.0)),
    )
    failed = []
    worst = -math.inf
    for i, (name, s) in enumerate(suite):
        rep = verify_inequality(s, name, 1000, 20260800 + i)
        worst = max(worst, rep.max_ratio)
        if not rep.ok:
            failed.append(f"{name}: {len(rep.violations)} violations")
    elapsed = time.perf_counter() - t0

    details = [f"9 inequalities x 1000 trials", f"worst ratio {worst:.9f}"]
    problems = list(failed)
    _gate("8/9 randomized inequalities", elapsed, 120.0, details, problems)


def test_09_scaling_and_symmetry():
    t0 = time.perf_counter()
    worst_scale = 0.0
    for base in (UNIT, TWO):
        d = interval_density(base)
        m = len(base.endpoints)
        for c in (0.5, 3.0):
            scaled = IntervalUnion(tuple(c * a for a in base.endpoints))
            ds = interval_density(scaled)
            for lo, hi in base.bands:
                buf = 0.02 * (hi - lo)
                for t in np.linspace(lo + buf, hi - buf, 25):
                    worst_scale = max(
                        worst_scale,
                        abs(ds.evaluate(float(c * t)) * c / d.evaluate(float(t)) - 1.0),
                    )
            for j in range(1, m + 1):
                worst_scale = max(
                    worst_scale,
                    abs(
                        omega_limit(scaled, j).omega_limit
                        * math.sqrt(c)
                        / omega_limit(base, j).omega_limit
                        - 1.0
                    ),
                    abs(markov_local(scaled, j).value * c / markov_local(base, j).value - 1.0),
                )

    worst_sym = 0.0
    for sym in (SPLIT, IntervalUnion((-1.5, -0.4, 0.4, 1.5))):
        (xi,) = solve_xi(sym)
        worst_sym = max(worst_sym, abs(xi))
        oms = [omega_limit(sym, j).omega_limit for j in (1, 2, 3, 4)]
        worst_sym = max(worst_sym, abs(oms[0] - oms[3]), abs(oms[1] - oms[2]))
    elapsed = time.perf_counter() - t0

    details = [f"scaling err {worst_scale:.2e}", f"symmetry err {worst_sym:.2e}"]
    problems = []
    if worst_scale >= 1e-9:
        problems.append(f"scaling covariance err {worst_scale:.2e} >= 1e-9")
    if worst_sym > 1e-12:
        problems.append(f"symmetry err {worst_sym:.2e} > 1e-12")
    _gate("9/9 scaling and symmetry", elapsed, 60.0, details, problems)
