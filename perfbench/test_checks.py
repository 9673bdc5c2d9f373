"""The benchmark's output checks must fail on wrong values.

Run with `python3 -m pytest perfbench/test_checks.py`.  Each test feeds a
check one value known to be right, which must pass, and a perturbed copy
(a scaled witness or density, a shifted gap point, a wrong exit code), which
must fail.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks as C  # noqa: E402
import workloads as W  # noqa: E402


def chebyshev_t(n):
    return np.eye(n + 1)[n]


def test_algebraic_witness_perturbed():
    t7 = chebyshev_t(7)
    problems, norm = C.check_witness(7.0, t7, 0.0, 1, ((-1.0, 1.0),), (-1.0, 1.0), False)
    assert problems == [] and norm == pytest.approx(1.0, abs=1e-15)
    # an excess within the measured ceiling is the known fault ...
    scale = 1.0 + 5e-6
    problems, _ = C.check_witness(7.0 * scale, scale * t7, 0.0, 1, ((-1.0, 1.0),), (-1.0, 1.0), False)
    assert problems and all(p.startswith(C.KNOWN_FAULT) for p in problems)
    # ... and one beyond it is a wrong output, so a looser certificate shows
    problems, _ = C.check_witness(7.0 * 1.01, 1.01 * t7, 0.0, 1, ((-1.0, 1.0),), (-1.0, 1.0), False)
    assert problems and not any(p.startswith(C.KNOWN_FAULT) for p in problems)
    problems, _ = C.check_witness(7.01, t7, 0.0, 1, ((-1.0, 1.0),), (-1.0, 1.0), False)
    assert problems and not problems[0].startswith(C.KNOWN_FAULT)


def test_norm_between_grid_points_is_found():
    # the roots of P' add T_7's interior peaks, which no fixed grid hits exactly
    coeffs = 1.000002 * chebyshev_t(7)
    norm = C.algebraic_sup_norm(coeffs, ((-1.0, 1.0),), (-1.0, 1.0))
    assert norm == pytest.approx(1.000002, rel=1e-14)


def test_markov_sweep_witness_must_reach_value():
    t5 = chebyshev_t(5)
    assert C.check_witness(25.0, t5, None, 1, ((-1.0, 1.0),), (-1.0, 1.0), False)[0] == []
    assert C.check_witness(26.0, t5, None, 1, ((-1.0, 1.0),), (-1.0, 1.0), False)[0]


def test_trig_witness_perturbed():
    cos3 = np.zeros(7)
    cos3[5] = 1.0                    # (c0, a1, b1, a2, b2, a3, b3)
    bands = ((-2.0, 2.0),)
    value = 3.0 * math.sin(0.9)
    problems, norm = C.check_witness(value, cos3, 0.3, 1, bands, (-1.0, 1.0), True)
    assert problems == [] and norm == pytest.approx(1.0, abs=1e-12)
    problems, _ = C.check_witness(1.00004 * value, 1.00004 * cos3, 0.3, 1, bands, (-1.0, 1.0), True)
    assert problems and all(p.startswith(C.KNOWN_FAULT) for p in problems)
    problems, _ = C.check_witness(1.02 * value, 1.02 * cos3, 0.3, 1, bands, (-1.0, 1.0), True)
    assert problems and not any(p.startswith(C.KNOWN_FAULT) for p in problems)
    assert C.check_witness(value * 1.001, cos3, 0.3, 1, bands, (-1.0, 1.0), True)[0]


def test_exact_extremum_bracket():
    assert C.check_exact_extremum(7.0, 1.0, 7.0) == []
    assert C.check_exact_extremum(7.0 + 1e-6, 1.0 + 1e-6, 7.0) == []
    assert C.check_exact_extremum(7.001, 1.0, 7.0)
    assert C.check_exact_extremum(6.999, 1.0, 7.0)
    assert C.chebyshev_derivative_at_one(6, 2) == 420.0


def test_nondecreasing_ratios():
    assert C.check_nondecreasing([0.9, 0.9], [1.0, 1.0]) == []
    assert C.check_nondecreasing([0.9, 0.89], [1.0, 1.0])


def test_scaled_density_fails_mass_and_shape():
    bands = ((-1.0, 1.0),)
    assert C.check_mass_quadpack(C.unit_interval_density, bands) == []
    scaled = lambda t: 1.001 * C.unit_interval_density(t)
    assert C.check_mass_quadpack(scaled, bands)
    probes = C.interior_probes(bands)
    assert C.check_density_matches("unit", scaled, C.unit_interval_density, probes, C.FORMULA_REL)


def test_shifted_gap_point_fails():
    endpoints = (-1.5, -0.4, 0.4, 1.5)
    assert C.check_gap_conditions(endpoints, [0.0]) == []
    assert C.check_gap_conditions(endpoints, [0.01])
    assert C.check_gap_conditions(endpoints, [0.5])


def test_antipodal_arcs_pull_back_a_unit_mass():
    f = C.antipodal_arcs_density(-0.5 * math.pi, 0.7)
    arcs = ((-0.5 * math.pi - 0.7, -0.5 * math.pi + 0.7), (0.5 * math.pi - 0.7, 0.5 * math.pi + 0.7))
    assert C.check_mass_quadpack(f, arcs) == []


def test_bessel_zeros():
    assert C.bessel_first_zero(0.0) == pytest.approx(0.5 * math.pi, abs=1e-14)
    assert C.bessel_first_zero(2.0) == pytest.approx(math.pi, abs=1e-14)
    # J_{-3/4} has its first zero between 0 and j_{0,1}
    import mpmath
    zero = C.bessel_first_zero(-0.5)
    assert 0.0 < zero < 2.405 and abs(float(mpmath.besselj(-0.75, zero))) < 1e-14


def test_wrong_exit_code_and_output():
    assert C.parse_cli_output(0, '{"command": "l2"}') == ([], {"command": "l2"})
    assert C.parse_cli_output(3, "")[0]
    assert C.parse_cli_output(0, "numeric failure")[0]


def test_cli_payload_checks():
    a, b = 0.4, 1.2
    exact = C.symmetric_two_band_density(a, b)
    samples = [{"t": t, "omega": exact(t)} for t in (-1.0, -0.6, 0.5, 1.1)]
    good = {"xi": [0.0], "mass": 1.0, "samples": samples}
    assert W.check_eqdensity(good, a, b) == []
    scaled = dict(good, samples=[{"t": s["t"], "omega": 0.5 * s["omega"]} for s in samples])
    assert W.check_eqdensity(scaled, a, b)

    n, k, x, alpha, beta = 8, 2, 0.3, 0.5, -0.3
    bern = 1.0 / math.sqrt(1.0 - x * x)
    nu = min(C.bessel_first_zero(alpha), C.bessel_first_zero(beta))
    entries = [
        {"kind": "markov-local", "value": 1.0},
        {"kind": "markov-global", "value": 1.0},
        {"kind": "higher-markov", "value": 1.0 / 3.0},
        {"kind": "bernstein-alg", "value": bern},
        {"kind": "higher-bernstein", "value": bern**2},
        {"kind": "va-markov", "value": 64.0 * 63.0 / 3.0},
        {"kind": "l2-bernstein-jacobi", "value": math.sqrt(8 * 9.2)},
        {"kind": "l2-markov-weighted", "value": 0.5 / nu},
    ]
    assert W.check_factors({"entries": entries}, n, k, x, alpha, beta) == []
    wrong = [dict(e, value=e["value"] * 1.0001) if e["kind"] == "markov-global" else e for e in entries]
    assert W.check_factors({"entries": wrong}, n, k, x, alpha, beta)
    assert W.check_factors({"entries": entries[:-1]}, n, k, x, alpha, beta)


class _Report:
    def __init__(self, inequality, trials, violations, max_ratio):
        self.inequality, self.trials = inequality, trials
        self.violations, self.max_ratio = violations, max_ratio


def test_falsify_checks_violations_and_control():
    wl = W.Falsify(0)
    clean = {name: _Report(name, wl.TRIALS, (), 0.9) for name, _s in wl.SUITE}
    for name in wl.CONTROLS:
        clean[f"control.{name}"] = _Report(name, wl.CONTROL_TRIALS, ((0, 3, 1.4),), 1.4)
    assert not any(wl.check(clean).values())
    broken = dict(clean, **{"markov-unit": _Report("markov-unit", wl.TRIALS, ((4, 9, 1.01),), 1.01)})
    assert wl.check(broken)["markov-unit"]
    silent = dict(clean, **{"control.bernstein-szego": _Report("bernstein-szego", 40, (), 0.8)})
    assert wl.check(silent)["control.bernstein-szego"]
