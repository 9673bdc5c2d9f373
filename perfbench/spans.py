"""Span tracer for the benchmark's traced runs.

The tracer wraps public eqmarkov functions at the module (or class)
attributes their callers look them up through, records one span per call
(name, start, end, parent span), and turns the spans of one round into call
counts and self times.  It is installed only around traced rounds and is
removed again afterwards, so untraced rounds run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# span name -> (module that defines it, attribute path inside that module)
TARGETS = {
    "numerics.simplex_solve": ("eqmarkov.numerics", "simplex_solve"),
    "numerics.gauss_legendre": ("eqmarkov.numerics", "gauss_legendre"),
    "numerics.golub_welsch": ("eqmarkov.numerics", "golub_welsch"),
    "numerics.bessel_smallest_zero": ("eqmarkov.numerics", "bessel_smallest_zero"),
    "equilibrium.solve_xi": ("eqmarkov.equilibrium", "solve_xi"),
    "equilibrium.interval_density": ("eqmarkov.equilibrium", "interval_density"),
    "equilibrium.arc_density": ("eqmarkov.equilibrium", "arc_density"),
    "equilibrium.frostman_check": ("eqmarkov.equilibrium", "frostman_check"),
    "equilibrium.collocation_density": ("eqmarkov.equilibrium", "collocation_density"),
    "equilibrium.omega_limit_extrapolated": ("eqmarkov.equilibrium", "omega_limit_extrapolated"),
    "equilibrium.density_evaluate": ("eqmarkov.equilibrium", "EquilibriumDensity.evaluate"),
    "extremal.pointwise_derivative_sup": ("eqmarkov.extremal", "pointwise_derivative_sup"),
    "extremal.markov_constant_numeric": ("eqmarkov.extremal", "markov_constant_numeric"),
    "extremal.verify_inequality": ("eqmarkov.extremal", "verify_inequality"),
    "extremal.l2_ratio_numeric": ("eqmarkov.extremal", "l2_ratio_numeric"),
    "extremal.design_matrix": ("eqmarkov.extremal", "PolyBasis.design_matrix"),
    # scipy's optimizer, as the verifier's polishing step looks it up
    "extremal.minimize_scalar": ("eqmarkov.extremal", "minimize_scalar"),
}


def _targets() -> dict:
    """TARGETS plus one span per public function of eqmarkov.factors."""
    factors = importlib.import_module("eqmarkov.factors")
    out = dict(TARGETS)
    for name in factors.__all__:
        obj = getattr(factors, name)
        if inspect.isfunction(obj) and obj.__module__ == factors.__name__:
            out[f"factors.{name}"] = (factors.__name__, name)
    return out

# names of the per-layer metrics built from spans, besides the cli ones
SPAN_METRICS = (
    "numerics.simplex_solve.calls",
    "numerics.simplex_solve.self_s",
    "numerics.gauss_legendre.calls",
    "numerics.gauss_legendre.self_s",
    "numerics.golub_welsch.self_s",
    "numerics.bessel_smallest_zero.self_s",
    "equilibrium.solve_xi.self_s",
    "equilibrium.interval_density.self_s",
    "equilibrium.arc_density.self_s",
    "equilibrium.frostman_check.self_s",
    "equilibrium.collocation_density.self_s",
    "equilibrium.omega_limit_extrapolated.self_s",
    "equilibrium.density_evaluate.calls",
    "equilibrium.density_evaluate.self_s",
    "factors.calls",
    "factors.self_s",
    "extremal.pointwise_derivative_sup.self_s",
    "extremal.markov_constant_numeric.self_s",
    "extremal.cutting_plane_rounds",
    "extremal.constraint_points",
    "extremal.design_matrix.calls",
    "extremal.design_matrix.self_s",
    "extremal.minimize_scalar.calls",
    "extremal.minimize_scalar.self_s",
    "extremal.verify_inequality.self_s",
    "extremal.verify_trials",
    "extremal.l2_ratio_numeric.self_s",
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans while installed; `round_summary` aggregates them."""

    def __init__(self):
        self.spans: list = []           # (name, start, end, parent index)
        self.counters: dict = defaultdict(int)
        self._stack: list = []
        self._patched: list = []        # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if name in ("extremal.pointwise_derivative_sup", "extremal.markov_constant_numeric"):
                counters["extremal.cutting_plane_rounds"] += result.refinements
                counters["extremal.constraint_points"] += len(result.grid)
            elif name == "extremal.verify_inequality":
                counters["extremal.verify_trials"] += result.trials
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever an eqmarkov module or class holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("eqmarkov") and m]
        for name, (module_name, path) in _targets().items():
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if "." in path:             # a method: its class is the lookup point
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def round_summary(self) -> dict:
        """Counts and self times of the spans recorded since the last call."""
        if self._stack:
            raise RuntimeError("a span is still open")
        child = defaultdict(float)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
        out = {}
        for metric in SPAN_METRICS:
            if metric.startswith("factors."):
                table = calls if metric.endswith(".calls") else self_s
                out[metric] = sum(v for k, v in table.items() if k.startswith("factors."))
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                out[metric] = self_s[metric[: -len(".self_s")]]
            else:
                out[metric] = self.counters[metric]
        self.spans.clear()
        self.counters.clear()
        return out
