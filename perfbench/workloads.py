"""The four workloads: seeded inputs, the operations of one round, and the
checks of their outputs.

A workload object is built from a seed and holds its inputs.  `operations`
lists the round: (label, call) pairs, where each call receives the outputs of
the round so far and makes one public call into eqmarkov.  Every round runs
the same operations on the same inputs.  `check(outputs)` returns a dict
label -> problems for the outputs of one round.

Program code is always reached through module attributes (`eq.solve_xi`, not
an imported name) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import eqmarkov.equilibrium as eq
import eqmarkov.extremal as ex
import eqmarkov.factors as fa
from eqmarkov.sets import ArcUnion, Circle, IntervalUnion, PeriodicSet
from proc import run_child

UNIT = IntervalUnion((-1.0, 1.0))
TWO_BAND = IntervalUnion((-1.0, -0.3, 0.2, 1.0))


def _random_union(rng, m: int) -> IntervalUnion:
    """m bands on [-1, 1]: band lengths drawn from [0.6, 1], gaps from [0.3, 0.6],
    so that no two endpoints come close and the cost per set stays alike."""
    lengths = rng.uniform(0.6, 1.0, m)
    gaps = rng.uniform(0.3, 0.6, m - 1)
    pieces = np.empty(2 * m - 1)
    pieces[0::2] = lengths
    pieces[1::2] = gaps
    points = np.concatenate([[0.0], np.cumsum(pieces)])
    points = -1.0 + 2.0 * points / points[-1]
    points[0], points[-1] = -1.0, 1.0
    return IntervalUnion(tuple(float(p) for p in points))


def _interior_point(rng, e: IntervalUnion) -> float:
    lo, hi = e.bands[int(rng.integers(e.m))]
    return float(lo + (hi - lo) * rng.uniform(0.2, 0.8))


def _omega_tol(omega: float, power: int, ceiling: float) -> float:
    """Absolute tolerance of c * Omega^power when Omega is known to `ceiling`."""
    return power * abs(omega) ** (power - 1) * ceiling


# ---------------------------------------------------------------------------
# closed_form
# ---------------------------------------------------------------------------

class ClosedForm:
    """Certified closed-form route: densities, gap points, endpoint limits,
    factors with Bessel zeros, and the L2 pencil; never the LP."""

    name = "closed_form"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.unions = [_random_union(rng, m) for m in (1, 2, 3, 4) for _ in range(3)]
        self.points = [_interior_point(rng, e) for e in self.unions]
        self.weights = [
            fa.Weight(tuple(float(a) for a in rng.uniform(0.0, 1.0, 2 * e.m)))
            for e in self.unions
        ]
        self.scale = float(rng.uniform(0.5, 3.0))
        self.shift = float(rng.uniform(-2.0, 2.0))
        base = self.unions[3]                       # a two-band union
        self.affine = IntervalUnion(tuple(self.scale * a + self.shift for a in base.endpoints))
        a, b = sorted(rng.uniform(0.2, 0.6, 1).tolist() + rng.uniform(1.0, 1.6, 1).tolist())
        self.symmetric = IntervalUnion((-b, -a, a, b))
        self.sym_ab = (a, b)
        self.unit_point = float(rng.uniform(-0.9, 0.9))
        self.jacobi = (float(rng.uniform(-0.5, 1.5)), float(rng.uniform(-0.5, 1.5)))
        self.nu_alphas = [float(x) for x in rng.uniform(-0.5, 3.0, 2)]
        self.arc_center = float(rng.uniform(-0.5, 0.5))
        self.arc_half = float(rng.uniform(1.4, 1.8))
        self.arc = ArcUnion((self.arc_center - self.arc_half, self.arc_center + self.arc_half))
        self.pair_half = float(rng.uniform(0.6, 0.8))
        h, c = self.pair_half, -0.5 * math.pi
        self.pair = ArcUnion((c - h, c + h, c + math.pi - h, c + math.pi + h))
        self.beta = float(rng.uniform(1.8, 2.2))
        self.periodic = PeriodicSet(IntervalUnion((-self.beta, self.beta)))
        self.theta = float(self.beta * rng.uniform(-0.8, 0.8))

    def operations(self):
        ops = []
        for i, e in enumerate(self.unions):
            p = f"U{i}."
            ops += [
                (p + "density", lambda o, e=e: eq.interval_density(e)),
                (p + "xi", lambda o, e=e: eq.solve_xi(e)),
                (p + "collocation", lambda o, e=e: eq.collocation_density(e)),
            ]
            for j in range(1, 2 * e.m + 1):
                ops += [
                    (p + f"omega{j}", lambda o, e=e, j=j, p=p: eq.omega_limit(e, j, o[p + "density"].xi)),
                    (p + f"omega_extrapolated{j}",
                     lambda o, j=j, p=p: eq.omega_limit_extrapolated(o[p + "density"], j)),
                ]
            ops += [
                (p + "markov_global", lambda o, e=e: fa.markov_global(e)),
                (p + "markov_local", lambda o, e=e, p=p: fa.markov_local(e, 1, o[p + "density"].xi)),
                (p + "bernstein", lambda o, e=e, p=p, x=self.points[i]:
                    fa.bernstein_factor(e, x, density=o[p + "density"])),
                (p + "l2_markov", lambda o, e=e, w=self.weights[i]: fa.l2_markov_constant(e, w)),
            ]
        ops += [
            ("affine.density", lambda o: eq.interval_density(self.affine)),
            ("U3.l2_ratio", lambda o: ex.l2_ratio_numeric(self.unions[3], None, 8)),
            ("affine.l2_ratio", lambda o: ex.l2_ratio_numeric(self.affine, None, 8)),
            ("unit.density", lambda o: eq.interval_density(UNIT)),
            ("unit.bernstein_higher", lambda o: fa.bernstein_higher(UNIT, self.unit_point, 2)),
            ("unit.markov_higher2", lambda o: fa.markov_higher(UNIT, 2, 2)),
            ("unit.markov_higher3", lambda o: fa.markov_higher(UNIT, 1, 3)),
            ("unit.va_markov", lambda o: fa.va_markov_exact(9, 3)),
            ("symmetric.density", lambda o: eq.interval_density(self.symmetric)),
        ]
        for j in range(1, 5):
            ops.append((f"symmetric.omega{j}", lambda o, j=j: eq.omega_limit(self.symmetric, j)))
        alpha, beta = self.jacobi
        for n in (4, 8):
            ops.append((f"unit.gradient_l2_{n}", lambda o, n=n: ex.l2_ratio_numeric(
                UNIT, fa.Weight.jacobi(alpha, beta), n, "gradient-bernstein")))
        for i, a in enumerate(self.nu_alphas):
            ops.append((f"nu{i}", lambda o, a=a: fa.nu_exponent(a)))
        ops += [
            ("arc.density", lambda o: eq.arc_density(self.arc)),
            ("arc.markov_local", lambda o: fa.markov_local_arc(self.arc, 2)),
            ("pair.density", lambda o: eq.arc_density(self.pair)),
            ("pair.markov_endpoint", lambda o: fa.markov_arc_endpoint(self.pair, 2)),
            ("periodic.markov_trig", lambda o: fa.markov_trig(self.periodic, 1)),
            ("periodic.bernstein_trig", lambda o: fa.bernstein_factor_trig(self.periodic, self.theta)),
        ]
        return ops

    def check(self, o) -> dict:
        import checks as C

        report = {}
        pi2 = math.pi**2
        for i, e in enumerate(self.unions):
            p = f"U{i}."
            d = o[p + "density"]
            probes = C.interior_probes(e.bands)
            report[p + "density"] = (C.check_mass_quadpack(d.evaluate, e.bands)
                                 + C.check_gap_conditions(e.endpoints, d.xi))
            report[p + "xi"] = [] if list(o[p + "xi"]) == list(d.xi) else [f"solve_xi {o[p + 'xi']} != density xi {d.xi}"]
            report[p + "collocation"] = C.check_density_matches(
                "collocation vs closed form", o[p + "collocation"].evaluate, d.evaluate, probes,
                C.ORACLE_AGREEMENT)
            omegas = []
            for j in range(1, 2 * e.m + 1):
                closed = o[p + f"omega{j}"].omega_limit
                extrap = o[p + f"omega_extrapolated{j}"].omega_limit
                omegas.append(extrap)
                report[p + f"omega{j}"] = C.close(f"Omega_{j} closed vs extrapolated", closed, extrap,
                                              0.0, C.OMEGA_EXTRAPOLATION)
                report[p + f"omega_extrapolated{j}"] = []
            top = max(omegas)
            report[p + "markov_global"] = C.close(
                "markov_global vs 2 pi^2 max Omega^2", o[p + "markov_global"].value, 2 * pi2 * top**2,
                0.0, 2 * pi2 * _omega_tol(top, 2, C.OMEGA_EXTRAPOLATION))
            report[p + "markov_local"] = C.close(
                "markov_local vs 2 pi^2 Omega_1^2", o[p + "markov_local"].value, 2 * pi2 * omegas[0]**2,
                0.0, 2 * pi2 * _omega_tol(omegas[0], 2, C.OMEGA_EXTRAPOLATION))
            x = self.points[i]
            report[p + "bernstein"] = C.close(
                "bernstein factor vs pi x collocation density", o[p + "bernstein"].value,
                math.pi * o[p + "collocation"].evaluate(x), C.ORACLE_AGREEMENT)
            want, tol = -math.inf, 0.0
            for j, om in enumerate(omegas):
                nu = C.bessel_first_zero(self.weights[i].exponents[j])
                if pi2 * om**2 / nu > want:
                    want = pi2 * om**2 / nu
                    tol = pi2 * (_omega_tol(om, 2, C.OMEGA_EXTRAPOLATION) / nu
                                 + om**2 * C.BESSEL_ZERO_ABS / nu**2)
            report[p + "l2_markov"] = C.close("l2_markov_constant vs mpmath Bessel zeros",
                                          o[p + "l2_markov"].value, want, 0.0, tol)

        base, c, s = o["U3.density"], self.scale, self.shift
        report["affine.density"] = C.check_density_matches(
            "affine covariance", lambda t: c * o["affine.density"].evaluate(c * t + s), base.evaluate,
            C.interior_probes(self.unions[3].bands), C.COVARIANCE_REL)
        report["affine.density"] += C.close("affine xi", o["affine.density"].xi[0], c * base.xi[0] + s,
                                        C.COVARIANCE_REL)
        report["U3.l2_ratio"] = []
        report["affine.l2_ratio"] = C.close("L2 ratio covariance", c * o["affine.l2_ratio"],
                                        o["U3.l2_ratio"], C.COVARIANCE_REL)

        unit_probes = C.interior_probes(UNIT.bands)
        report["unit.density"] = C.check_density_matches(
            "[-1, 1] density vs 1/(pi sqrt(1 - t^2))", o["unit.density"].evaluate,
            C.unit_interval_density, unit_probes, C.FORMULA_REL)
        report["unit.density"] += C.check_mass_quadpack(o["unit.density"].evaluate, UNIT.bands)
        x = self.unit_point
        report["unit.bernstein_higher"] = C.close("second-order Bernstein factor on [-1, 1]",
                                              o["unit.bernstein_higher"].value, 1.0 / (1.0 - x * x),
                                              C.FORMULA_REL)
        for k in (2, 3):
            report[f"unit.markov_higher{k}"] = C.close(
                f"order-{k} Markov factor on [-1, 1]", o[f"unit.markov_higher{k}"].value,
                1.0 / C.double_factorial_odd(k), C.FORMULA_REL)
        report["unit.va_markov"] = C.close("T_9'''(1)", o["unit.va_markov"],
                                       C.chebyshev_derivative_at_one(9, 3), C.FORMULA_REL)

        a, b = self.sym_ab
        sym = o["symmetric.density"]
        # gap points are held to 1e-12 on symmetric sets, as the symmetry gate asserts
        report["symmetric.density"] = C.close("symmetric xi", sym.xi[0], 0.0, 0.0, 1e-12)
        report["symmetric.density"] += C.check_density_matches(
            "symmetric two-band density", sym.evaluate, C.symmetric_two_band_density(a, b),
            C.interior_probes(self.symmetric.bands), 1e-12 / a + C.FORMULA_REL)
        for j, want in enumerate(C.symmetric_two_band_omegas(a, b), start=1):
            report[f"symmetric.omega{j}"] = C.close(f"symmetric Omega_{j}", o[f"symmetric.omega{j}"].omega_limit,
                                               want, 1e-12 / a + C.FORMULA_REL)
        alpha, beta = self.jacobi
        for n in (4, 8):
            report[f"unit.gradient_l2_{n}"] = C.close(
                f"gradient-Bernstein L2 at n={n}", o[f"unit.gradient_l2_{n}"],
                math.sqrt(n * (n + alpha + beta + 1.0)), 0.0, C.L2_EXACT_ABS)
        for i, alpha_i in enumerate(self.nu_alphas):
            report[f"nu{i}"] = C.close(f"Bessel zero for alpha={alpha_i:.4f}", o[f"nu{i}"],
                                   C.bessel_first_zero(alpha_i), 0.0, C.BESSEL_ZERO_ABS)

        arc_f = C.single_arc_density(self.arc_half, self.arc_center)
        report["arc.density"] = C.check_density_matches(
            "single arc density", o["arc.density"].evaluate, arc_f, C.interior_probes(self.arc.arcs),
            C.FORMULA_REL)
        om = C.single_arc_omega(self.arc_half)
        report["arc.markov_local"] = C.close("single arc Markov factor", o["arc.markov_local"].value,
                                         2 * pi2 * om**2, 0.0,
                                         2 * pi2 * _omega_tol(om, 2, C.OMEGA_EXTRAPOLATION))
        pair_f = C.antipodal_arcs_density(-0.5 * math.pi, self.pair_half)
        report["pair.density"] = C.check_density_matches(
            "two antipodal arcs vs pulled-back single arc", o["pair.density"].evaluate, pair_f,
            C.interior_probes(self.pair.arcs), C.ORACLE_AGREEMENT)
        om = C.antipodal_arcs_omega(self.pair_half)
        report["pair.markov_endpoint"] = C.close(
            "two-arc order-2 endpoint factor", o["pair.markov_endpoint"].value, (2 * pi2 * om**2) ** 2 / 3,
            0.0, (2 * pi2) ** 2 / 3 * _omega_tol(om, 4, C.OMEGA_EXTRAPOLATION))
        report["arc.density"] += C.check_mass_quadpack(o["arc.density"].evaluate, self.arc.arcs)
        report["pair.density"] += C.check_mass_quadpack(o["pair.density"].evaluate, self.pair.arcs)
        om = C.single_arc_omega(self.beta)
        report["periodic.markov_trig"] = C.close(
            "trigonometric Markov factor vs 2 cot(beta/2)", o["periodic.markov_trig"].value,
            2.0 / math.tan(0.5 * self.beta), 0.0, 8 * pi2 * _omega_tol(om, 2, C.OMEGA_EXTRAPOLATION))
        t, bt = self.theta, self.beta
        report["periodic.bernstein_trig"] = C.close(
            "trigonometric Bernstein factor (Videnskii)", o["periodic.bernstein_trig"].value,
            math.cos(0.5 * t) / math.sqrt(math.sin(0.5 * (bt - t)) * math.sin(0.5 * (bt + t))),
            C.FORMULA_REL)
        return report


# ---------------------------------------------------------------------------
# sup_oracle
# ---------------------------------------------------------------------------

class SupOracle:
    """Cutting-plane LP solves on fixed inputs; the seed orders the round."""

    name = "sup_oracle"
    PERIODIC = PeriodicSet(IntervalUnion((-2.0, 2.0)))
    # (label, set, basis kind, degree, point or None for the Markov sweep, k)
    PROBLEMS = (
        ("unit.pointwise_n7", UNIT, "algebraic-chebyshev", 7, 0.0, 1),
        ("unit.pointwise_n8", UNIT, "algebraic-chebyshev", 8, 0.0, 1),
        ("unit.pointwise_n9", UNIT, "algebraic-chebyshev", 9, 0.0, 1),
        ("unit.pointwise_n8_k2", UNIT, "algebraic-chebyshev", 8, 0.3, 2),
        ("unit.pointwise_n7_k3", UNIT, "algebraic-chebyshev", 7, -0.2, 3),
        ("unit.markov_n5", UNIT, "algebraic-chebyshev", 5, None, 1),
        ("unit.markov_n6_k2", UNIT, "algebraic-chebyshev", 6, None, 2),
        ("unit.markov_n5_k3", UNIT, "algebraic-chebyshev", 5, None, 3),
        ("two.pointwise_n8", TWO_BAND, "algebraic-chebyshev", 8, 0.5, 1),
        ("two.markov_n2", TWO_BAND, "algebraic-chebyshev", 2, None, 1),
        ("two.markov_n4", TWO_BAND, "algebraic-chebyshev", 4, None, 1),
        ("periodic.pointwise_n6", PERIODIC, "trigonometric", 6, 0.3, 1),
        ("periodic.markov_n4", PERIODIC, "trigonometric", 4, None, 1),
    )

    def __init__(self, seed: int):
        order = np.random.default_rng([seed, 2]).permutation(len(self.PROBLEMS))
        self.problems = [self.PROBLEMS[i] for i in order]

    def operations(self):
        ops = []
        for label, s, kind, n, x0, k in self.problems:
            ref = s.covering_interval if isinstance(s, IntervalUnion) else (-1.0, 1.0)
            basis = ex.PolyBasis(kind, n, ref)
            if x0 is None:
                call = lambda o, s=s, b=basis, k=k: ex.markov_constant_numeric(s, b, k)
            else:
                call = lambda o, s=s, b=basis, x0=x0, k=k: ex.pointwise_derivative_sup(s, b, x0, k)
            ops.append((label, call))
        return ops

    def check(self, o) -> dict:
        import checks as C

        report, norms = {}, {}
        for label, s, kind, n, x0, k in self.problems:
            r = o[label]
            trig = kind == "trigonometric"
            bands = s.base.bands if trig else s.bands
            ref = (-1.0, 1.0) if trig else s.covering_interval
            problems, norms[label] = C.check_witness(r.value, r.coefficients, x0, k, bands, ref, trig)
            if s is UNIT and x0 == 0.0:
                problems += C.check_exact_extremum(r.value, norms[label], n if n % 2 else n - 1)
            if s is UNIT and x0 is None:
                problems += C.check_exact_extremum(r.value, norms[label], C.chebyshev_derivative_at_one(n, k))
            report[label] = problems
        glob = fa.markov_global(TWO_BAND).value
        ratios = [o[f"two.markov_n{n}"].value / (glob * n * n) for n in (2, 4)]
        report["two.markov_n4"] += C.check_nondecreasing(ratios, [norms[f"two.markov_n{n}"] for n in (2, 4)])
        return report


# ---------------------------------------------------------------------------
# falsify
# ---------------------------------------------------------------------------

class Falsify:
    """verify_inequality over all nine inequalities, plus a negative control."""

    name = "falsify"
    TRIALS = 40
    # With the density halved, 75 % (bernstein-szego) and 49 % (bernstein-alg)
    # of random trials violate, so 40 trials miss with odds below 1e-11.
    CONTROLS = ("bernstein-szego", "bernstein-alg")
    CONTROL_TRIALS = 40
    SUITE = (
        ("bernstein-unit", UNIT),
        ("markov-unit", UNIT),
        ("va-markov", UNIT),
        ("szego-unit", UNIT),
        ("bernstein-szego", TWO_BAND),
        ("bernstein-alg", TWO_BAND),
        ("bernstein-trig", PeriodicSet(IntervalUnion((-1.2, 1.2)))),
        ("trig-full-period", PeriodicSet(IntervalUnion((-1.2, 1.2)))),
        ("riesz-circle", Circle(1.0)),
    )

    def __init__(self, seed: int):
        self.seeds = [int(s) for s in np.random.default_rng([seed, 3]).integers(0, 2**31, len(self.SUITE) + len(self.CONTROLS))]

    def operations(self):
        ops = [
            (name, lambda o, s=s, name=name, r=r: ex.verify_inequality(s, name, self.TRIALS, r))
            for (name, s), r in zip(self.SUITE, self.seeds)
        ]
        # dividing by half the density corrupts the right-hand sides on purpose
        for name, r in zip(self.CONTROLS, self.seeds[len(self.SUITE):]):
            ops.append((f"control.{name}", lambda o, name=name, r=r: ex.verify_inequality(
                TWO_BAND, name, self.CONTROL_TRIALS, r, density_scale=0.5)))
        return ops

    def check(self, o) -> dict:
        report = {}
        for name, _s in self.SUITE:
            rep = o[name]
            report[name] = []
            if rep.trials != self.TRIALS or rep.inequality != name:
                report[name].append(f"report covers {rep.trials} trials of {rep.inequality}")
            if rep.violations or not rep.max_ratio <= 1.0:
                report[name].append(f"{len(rep.violations)} violations, max ratio {rep.max_ratio!r}")
        for name in self.CONTROLS:
            report[f"control.{name}"] = [] if o[f"control.{name}"].violations else [
                f"negative control {name} with the density halved found no violation"]
        return report


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def _set_json(endpoints) -> str:
    return '{"type": "intervals", "endpoints": [' + ", ".join(repr(float(a)) for a in endpoints) + "]}"


class CliCold:
    """Fresh-process runs of the five subcommands on small inputs."""

    name = "cli_cold"
    children = True
    EXTREMAL_N = 7
    FACTORS_N, FACTORS_K = 8, 2
    L2_N = 7

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        a, b = float(rng.uniform(0.2, 0.6)), float(rng.uniform(1.0, 1.6))
        self.sym_ab = (a, b)
        self.point = float(rng.uniform(-0.9, 0.9))
        self.jacobi = (float(rng.uniform(-0.5, 1.5)), float(rng.uniform(-0.5, 1.5)))
        self.verify_seed = int(rng.integers(0, 2**31))
        unit = _set_json((-1.0, 1.0))
        alpha, beta = (repr(v) for v in self.jacobi)
        self.argv = {
            "eqdensity": ["eqdensity", "--set", _set_json((-b, -a, a, b)), "--grid", "24"],
            "factors": ["factors", "--set", unit, "--n", str(self.FACTORS_N), "--k", str(self.FACTORS_K),
                        "--point", repr(self.point), "--alpha", alpha, "--beta-exp", beta],
            "extremal": ["extremal", "--set", unit, "--n", str(self.EXTREMAL_N), "--point", "0"],
            "verify": ["verify", "--set", unit, "--trials", "8", "--seed", str(self.verify_seed)],
            "l2": ["l2", "--set", unit, "--alpha", alpha, "--beta-exp", beta,
                   "--mode", "gradient-bernstein", "--n", str(self.L2_N)],
        }

    def operations(self):
        return [(name, lambda o, argv=argv: run_cli(argv)) for name, argv in self.argv.items()]

    def check(self, o) -> dict:
        import checks as C

        report, payload = {}, {}
        for name in self.argv:
            report[name], payload[name] = C.parse_cli_output(o[name].code, o[name].stdout)
        if payload["eqdensity"] is not None:
            report["eqdensity"] += check_eqdensity(payload["eqdensity"], *self.sym_ab)
        if payload["factors"] is not None:
            report["factors"] += check_factors(payload["factors"], self.FACTORS_N, self.FACTORS_K,
                                           self.point, *self.jacobi)
        if payload["extremal"] is not None:
            (r,) = payload["extremal"]["results"]
            problems, norm = C.check_witness(r["value"], r["witness"], 0.0, 1, ((-1.0, 1.0),),
                                             (-1.0, 1.0), False)
            report["extremal"] += problems + C.check_exact_extremum(r["value"], norm, self.EXTREMAL_N)
        if payload["verify"] is not None:
            reports = payload["verify"]["reports"]
            if len(reports) != 8 or any(r["violations"] for r in reports):
                report["verify"].append(f"verify: {len(reports)} reports, violations in "
                                    f"{[r['inequality'] for r in reports if r['violations']]}")
        if payload["l2"] is not None:
            (row,) = payload["l2"]["values"]
            alpha, beta = self.jacobi
            n = self.L2_N
            report["l2"] += C.close("gradient-Bernstein L2 from the CLI", row["value"],
                                math.sqrt(n * (n + alpha + beta + 1.0)), 0.0, C.L2_EXACT_ABS)
        return report


def check_eqdensity(payload, a: float, b: float) -> list[str]:
    import checks as C

    problems = C.close("eqdensity xi", payload["xi"][0], 0.0, 0.0, 1e-12)
    problems += C.close("eqdensity mass certificate", payload["mass"], 1.0, 0.0, C.MASS_TOL)
    exact = C.symmetric_two_band_density(a, b)
    for sample in payload["samples"]:
        problems += C.close(f"eqdensity sample at {sample['t']:.6g}", sample["omega"], exact(sample["t"]),
                            1e-12 / a + C.FORMULA_REL)
    return problems[:3]


def check_factors(payload, n: int, k: int, x: float, alpha: float, beta: float) -> list[str]:
    """Every factor on [-1, 1] has a closed form: Omega = 1/(pi sqrt 2) at
    both ends, so 2 pi^2 Omega^2 = 1, and the density is 1/(pi sqrt(1-x^2))."""
    import checks as C

    bern = 1.0 / math.sqrt(1.0 - x * x)
    want = {
        "markov-local": 1.0,
        "markov-global": 1.0,
        "higher-markov": 1.0 / C.double_factorial_odd(k),
        "bernstein-alg": bern,
        "higher-bernstein": bern**k,
        "va-markov": C.chebyshev_derivative_at_one(n, k),
        "l2-bernstein-jacobi": math.sqrt(n * (n + alpha + beta + 1.0)),
    }
    problems, seen = [], set()
    for entry in payload["entries"]:
        kind = entry["kind"]
        seen.add(kind)
        if kind == "l2-markov-weighted":
            # max_j pi^2 Omega_j^2 / nu(exponent_j) = 1 / (2 min nu)
            nu = min(C.bessel_first_zero(alpha), C.bessel_first_zero(beta))
            problems += C.close("l2-markov-weighted", 0.5 / entry["value"], nu, 0.0, C.BESSEL_ZERO_ABS)
        elif kind in want:
            problems += C.close(kind, entry["value"], want[kind], C.FORMULA_REL)
        else:
            problems.append(f"unexpected factor kind {kind}")
    missing = set(want) - seen
    if missing or "l2-markov-weighted" not in seen:
        problems.append(f"factors output lacks {sorted(missing)}")
    return problems


def run_cli(argv):
    return run_child([sys.executable, "-m", "eqmarkov", *argv])


WORKLOADS = {w.name: w for w in (ClosedForm, SupOracle, Falsify, CliCold)}
