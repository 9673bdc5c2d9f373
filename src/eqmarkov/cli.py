"""Command-line front end: one binary, five subcommands.

eqdensity samples an equilibrium density on a uniform interior grid and
reports the gap points, mass and Frostman spread alongside; factors prints
every closed-form sharp constant applicable to the given set, point, order
and weight; extremal runs the brute-force LP solvers, optionally sweeping a
degree range; verify throws seeded random polynomials at the non-asymptotic
inequalities and fails loudly on any hard violation; l2 evaluates the
derivative-vs-plain Gram pencil.

All output is deterministic for a fixed config and seed: JSON is emitted with
sorted keys, CSV floats in shortest round-trip decimal.  An optional JSON
config file supplies defaults; explicit flags win.  Each subcommand takes
only the flags and config keys it reads (`_COMMANDS`); any other exits 2.
Exit codes: 0 success, 2 bad input, 3 numeric failure, 4 resource limit,
5 verified violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .equilibrium import arc_density, circle_density, interval_density, solve_xi
from .errors import (
    DomainError,
    InvalidArgumentError,
    NumericFailureError,
    ResourceLimitError,
)
from .extremal import (
    L2_MODES,
    VERIFY_INEQUALITIES,
    PolyBasis,
    _l2_checked_weight,
    l2_ratio_numeric,
    markov_constant_numeric,
    pointwise_derivative_sup,
    verify_inequality,
)
from .factors import (
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
    riesz_factor,
    va_markov_exact,
    videnskii_markov,
    videnskii_pointwise,
)
from .sets import (
    ArcUnion,
    Circle,
    IntervalUnion,
    Lemniscate,
    PeriodicSet,
    gamma_of,
    set_from_json,
    set_to_json,
)

__all__ = ["RunConfig", "main"]

_FORMATS = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Merged view of config-file defaults and command-line flags."""

    command: str
    set_spec: str | None = None
    beta: float | None = None
    n: int | None = None
    k: int | None = None            # factors and extremal read None as 1, verify as 2
    point: str | None = None
    alpha: float | None = None
    beta_exp: float | None = None
    weight: dict | None = None
    grid: int = 512
    seed: int = 0
    trials: int | None = None
    mode: str = "markov"
    inequality: str | None = None
    sweep: str | None = None
    fmt: str = "json"
    out: str | None = None
    corrupt_density: bool = False

    def __post_init__(self):
        if self.n is not None and self.n < 1:
            raise InvalidArgumentError("--n must be a positive integer")
        if self.k is not None and self.k < 1:
            raise InvalidArgumentError("--k must be >= 1")
        if self.grid < 2:
            raise InvalidArgumentError("--grid must be at least 2")
        if self.trials is not None and self.trials < 1:
            raise InvalidArgumentError("--trials must be >= 1")
        if self.fmt not in _FORMATS:
            raise InvalidArgumentError(f"--format must be one of {_FORMATS}")
        if self.mode not in L2_MODES:
            raise InvalidArgumentError(f"--mode must be one of {L2_MODES}")
        if self.inequality is not None and self.inequality not in VERIFY_INEQUALITIES:
            raise InvalidArgumentError(
                f"unknown inequality {self.inequality!r}; choose from {VERIFY_INEQUALITIES}"
            )


# ---------------------------------------------------------------------------
# parsing and merging
# ---------------------------------------------------------------------------

# flag: (the RunConfig field it sets, its add_argument keywords)
_FLAGS = {
    "--set": ("set_spec", {"help": "set description: inline JSON or a file path"}),
    "--beta": ("beta", {"type": float, "help": "shorthand for the periodic set [-beta, beta]"}),
    "--n": ("n", {"type": int, "help": "polynomial degree"}),
    "--k": ("k", {"type": int, "help": "derivative order (default 1; verify's va-markov: 2)"}),
    "--point": ("point", {"help": "evaluation point: a real, or re,im for curve sets"}),
    "--alpha": ("alpha", {"type": float, "help": "Jacobi weight exponent at +1"}),
    "--beta-exp": ("beta_exp", {"type": float, "help": "Jacobi weight exponent at -1"}),
    "--weight": ("weight", {"help": "generalized weight as JSON: {\"exponents\": [...]}"}),
    "--grid": ("grid", {"type": int, "help": "samples per band (default 512)"}),
    "--seed": ("seed", {"type": int, "help": "RNG seed for verify (default 0)"}),
    "--trials": ("trials", {"type": int, "help": "random trials per inequality"}),
    "--mode": ("mode", {"choices": L2_MODES, "help": "l2 pencil mode (default markov)"}),
    "--inequality": ("inequality", {"help": "restrict verify to one inequality"}),
    "--sweep": ("sweep", {"help": "degree sweep n1:n2:step (inclusive)"}),
    "--format": ("fmt", {"choices": _FORMATS, "help": "output format (default json)"}),
    "--out": ("out", {"help": "output path (default: standard output)"}),
    "--corrupt-density":
        ("corrupt_density", {"action": "store_true", "default": None, "help": argparse.SUPPRESS}),
}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of `command`: only its flags are added, since add_argument
    is the costly part of building a parser."""
    parser = argparse.ArgumentParser(
        prog="eqmarkov",
        description="equilibrium measures and sharp polynomial-inequality constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc, flags) in _COMMANDS.items():
        # no abbreviations: l2 --beta must not stand for --beta-exp
        subparser = sub.add_parser(name, help=doc, allow_abbrev=False)
        if name != command:
            continue
        subparser.add_argument("--config", help="JSON file of flag defaults; explicit flags win")
        for flag in flags.split():
            subparser.add_argument(flag, dest=_FLAGS[flag][0], **_FLAGS[flag][1])
    return parser


# the JSON types a config value may take, by its flag's argparse type or action
_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string"),
                 "store_true": ((bool,), "a boolean")}


def _config_value(key: str, flag: str, value):
    """A config file's value for `flag`, if its JSON type is the flag's."""
    spec = _FLAGS[flag][1]
    types, what = _CONFIG_TYPES[spec.get("action") or spec.get("type", str)]
    if flag == "--weight":
        types, what = (str, dict), "a string or an object"
    # JSON true and false load as bools, which Python counts as ints
    if not isinstance(value, types) or isinstance(value, bool) != (types == (bool,)):
        raise InvalidArgumentError(f"config key {key!r} must be {what}")
    return value


def _merge_config(args: argparse.Namespace) -> RunConfig:
    # a config key is its flag without the dashes, inner dashes as underscores
    keys = {flag[2:].replace("-", "_"): flag for flag in _COMMANDS[args.command][2].split()}
    merged: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_conf = json.load(fh)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"malformed config file: {exc}") from exc
        if not isinstance(file_conf, dict):
            raise InvalidArgumentError("config file must hold a JSON object")
        for key, value in file_conf.items():
            if key not in keys:
                raise InvalidArgumentError(f"{args.command} reads no config key {key!r}")
            merged[_FLAGS[keys[key]][0]] = _config_value(key, keys[key], value)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    merged.update((k, v) for k, v in flags.items() if v is not None)
    return RunConfig(command=args.command, **merged)


# ---------------------------------------------------------------------------
# shared input helpers
# ---------------------------------------------------------------------------

def _load_set(config: RunConfig):
    if config.beta is not None and config.set_spec is not None:
        raise InvalidArgumentError("give either --set or --beta, not both")
    if config.beta is not None:
        if not 0.0 < config.beta < math.pi:
            raise InvalidArgumentError("--beta must lie in (0, pi)")
        return PeriodicSet(IntervalUnion((-config.beta, config.beta)))
    if config.set_spec is None:
        raise InvalidArgumentError("a set is required: --set <file|json> or --beta")
    spec = config.set_spec.strip()
    if spec.startswith("{"):
        return set_from_json(spec)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return set_from_json(fh.read())
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read set file: {exc}") from exc


def _parse_point(text: str):
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return float(parts[0])
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise InvalidArgumentError(f"cannot parse point {text!r}: want x or re,im")


def _resolve_weight(config: RunConfig, e: IntervalUnion) -> tuple[Weight | None, bool]:
    """Returns (weight, explicit) where explicit means the user asked for one."""
    jacobi_given = config.alpha is not None or config.beta_exp is not None
    if config.weight is not None and jacobi_given:
        raise InvalidArgumentError("give either --weight or --alpha/--beta-exp, not both")
    if config.weight is not None:
        data = config.weight
        if isinstance(data, str):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as exc:
                raise InvalidArgumentError(f"malformed weight JSON: {exc}") from exc
        if not isinstance(data, dict) or "exponents" not in data:
            raise InvalidArgumentError("weight JSON must be {\"exponents\": [...]}")
        return Weight(tuple([float(v) for v in data["exponents"]])), True
    if jacobi_given:
        if e.endpoints != (-1.0, 1.0):
            raise InvalidArgumentError("--alpha/--beta-exp describe a Jacobi weight on [-1, 1]")
        return Weight.jacobi(config.alpha or 0.0, config.beta_exp or 0.0), True
    return None, False


def _parse_sweep(config: RunConfig) -> list[int]:
    if config.sweep is not None:
        if config.n is not None:
            raise InvalidArgumentError("give either --n or --sweep, not both")
        parts = config.sweep.split(":")
        if len(parts) != 3:
            raise InvalidArgumentError("--sweep wants n1:n2:step")
        try:
            lo, hi, step = (int(p) for p in parts)
        except ValueError as exc:
            raise InvalidArgumentError("--sweep wants integers n1:n2:step") from exc
        if lo < 1 or hi < lo or step < 1:
            raise InvalidArgumentError("--sweep wants 1 <= n1 <= n2 and step >= 1")
        return list(range(lo, hi + 1, step))
    if config.n is None:
        raise InvalidArgumentError("a degree is required: --n or --sweep")
    return [config.n]


def _round_trip(x: float) -> str:
    return repr(float(x))


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit_csv(header: list[str], rows: list[list], comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in comments or []]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_round_trip(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eqdensity(config: RunConfig) -> tuple[str, int]:
    s = _load_set(config)
    if isinstance(s, IntervalUnion):
        density = interval_density(s, DEFAULT_TOL)
    elif isinstance(s, ArcUnion):
        density = arc_density(s, DEFAULT_TOL)
    elif isinstance(s, PeriodicSet):
        density = arc_density(gamma_of(s), DEFAULT_TOL)
    elif isinstance(s, Circle):
        density = circle_density(s)
    elif isinstance(s, Lemniscate):
        raise InvalidArgumentError(
            "a lemniscate level set has no banded parameter grid; "
            "use the factors command for pointwise values"
        )
    else:
        raise InvalidArgumentError("unsupported set type for eqdensity")

    bands = ((-math.pi, math.pi),) if isinstance(s, Circle) else density.spans
    ts = np.concatenate([np.linspace(lo, hi, config.grid + 2)[1:-1] for lo, hi in bands])
    if isinstance(s, Circle):
        # the parameter is the angle; the density lives on the curve itself
        omega = [density.evaluate(s.center + s.radius * complex(math.cos(t), math.sin(t))) for t in ts]
    else:
        omega = density.evaluate(ts)
    samples = [(float(t), float(w)) for t, w in zip(ts, omega)]

    if config.fmt == "csv":
        comments = [
            "xi = [" + ", ".join(_round_trip(x) for x in density.xi) + "]",
            f"mass = {_round_trip(density.mass)}",
            f"frostman_spread = {_round_trip(density.frostman_spread)}",
        ]
        return _emit_csv(["t", "omega"], [list(row) for row in samples], comments), 0
    payload = {
        "command": "eqdensity",
        "set": set_to_json(s),
        "geometry": density.geometry,
        "method": density.method,
        "xi": list(density.xi),
        "mass": density.mass,
        "frostman_spread": density.frostman_spread,
        "grid_per_band": config.grid,
        "samples": [{"t": t, "omega": w} for t, w in samples],
    }
    return _emit_json(payload), 0


def _report_entry(report, **context) -> dict:
    entry = {
        "kind": report.kind,
        "value": report.value,
        "degree_power": report.degree_power,
        "asymptotic": report.asymptotic,
    }
    entry.update(context)
    return entry


def cmd_factors(config: RunConfig) -> tuple[str, int]:
    s = _load_set(config)
    intervals = isinstance(s, IntervalUnion)
    if not intervals and (config.alpha, config.beta_exp, config.weight) != (None, None, None):
        raise InvalidArgumentError("--alpha, --beta-exp and --weight weigh an interval union")
    if config.n is not None and not (intervals and s.endpoints == (-1.0, 1.0)):
        raise InvalidArgumentError("--n gives the va-markov degree, on the interval [-1, 1] only")
    k = 1 if config.k is None else config.k
    point = _parse_point(config.point) if config.point is not None else None
    entries: list[dict] = []
    higher_at = None    # (point argument, JSON point) of the higher-bernstein entry
    density = None      # built once per run and passed to every factor that reads it

    if isinstance(s, IntervalUnion):
        # certified also without --point: the endpoint factors read its xi
        density = interval_density(s)
        xi = density.xi
        for j in range(1, 2 * s.m + 1):
            entries.append(_report_entry(markov_local(s, j, xi), endpoint_index=j))
            if k >= 2:
                entries.append(
                    _report_entry(markov_higher(s, j, k, xi), endpoint_index=j, order=k)
                )
        entries.append(_report_entry(markov_global(s, xi)))
        if point is not None:
            entries.append(_report_entry(bernstein_factor(s, float(point), density), point=float(point)))
            higher_at = (float(point), float(point))
        weight, explicit = _resolve_weight(config, s)
        entries.append(_report_entry(l2_markov_constant(s, weight if explicit else None, xi)))
        if s.endpoints == (-1.0, 1.0) and config.n is not None:
            entries.append(
                {
                    "kind": "va-markov",
                    "value": va_markov_exact(config.n, k),
                    "degree_power": 0,
                    "asymptotic": False,
                    "degree": config.n,
                    "order": k,
                }
            )
            if config.alpha is not None and config.beta_exp is not None:
                entries.append(
                    {
                        "kind": "l2-bernstein-jacobi",
                        "value": l2_bernstein_jacobi(config.n, config.alpha, config.beta_exp),
                        "degree_power": 0,
                        "asymptotic": False,
                        "degree": config.n,
                    }
                )
    elif isinstance(s, PeriodicSet):
        if config.k is not None and point is None:
            raise InvalidArgumentError("--k orders the higher-bernstein factor, which needs --point here")
        base = s.base
        symmetric = base.m == 1 and abs(base.endpoints[0] + base.endpoints[1]) < 1e-12
        density = arc_density(gamma_of(s))
        for j in range(1, 2 * base.m + 1):
            entries.append(_report_entry(markov_trig(s, j, density), endpoint_index=j))
        if symmetric:
            beta = base.endpoints[1]
            entries.append(_report_entry(videnskii_markov(beta)))
            if point is not None:
                entries.append(
                    _report_entry(videnskii_pointwise(beta, float(point)), point=float(point))
                )
        if point is not None:
            entries.append(
                _report_entry(bernstein_factor_trig(s, float(point), density), point=float(point))
            )
            higher_at = (float(point), float(point))
    elif isinstance(s, ArcUnion):
        density = arc_density(s)
        for j in range(1, 2 * s.m + 1):
            entries.append(_report_entry(markov_local_arc(s, j, density), endpoint_index=j))
        entries.append(_report_entry(markov_arc_endpoint(s, k, density=density), order=k))
        if point is not None:
            entries.append(
                _report_entry(bernstein_factor_circle_subset(s, float(point), density), point=float(point))
            )
    elif isinstance(s, (Circle, Lemniscate)):
        if point is None:
            raise InvalidArgumentError("curve factors need --point")
        z = point
        if isinstance(s, Circle) and not isinstance(point, complex):
            z = s.center + s.radius * complex(math.cos(point), math.sin(point))
        entries.append(_report_entry(riesz_factor(s, z), point=[z.real, z.imag]))
        higher_at = (z, [z.real, z.imag])
    else:
        raise InvalidArgumentError("unsupported set type for factors")
    if higher_at is not None and k >= 2:
        at, label = higher_at
        entries.append(_report_entry(bernstein_higher(s, at, k, density), point=label, order=k))

    entries.sort(key=lambda d: (d["kind"], d.get("endpoint_index", 0), str(d.get("point", ""))))
    if config.fmt == "csv":
        rows = [
            [
                d["kind"],
                d.get("endpoint_index", ""),
                float(d["value"]),
                d["degree_power"],
                d["asymptotic"],
            ]
            for d in entries
        ]
        return _emit_csv(["kind", "endpoint_index", "value", "degree_power", "asymptotic"], rows), 0
    return _emit_json({"command": "factors", "set": set_to_json(s), "entries": entries}), 0


def cmd_extremal(config: RunConfig) -> tuple[str, int]:
    s = _load_set(config)
    if isinstance(s, IntervalUnion):
        kind, reference = "algebraic-chebyshev", s.covering_interval
    elif isinstance(s, PeriodicSet):
        kind, reference = "trigonometric", (-1.0, 1.0)
    else:
        raise InvalidArgumentError("extremal solves interval unions and periodic sets")
    degrees = _parse_sweep(config)
    k = 1 if config.k is None else config.k
    point = None
    if config.point is not None:
        point = _parse_point(config.point)
        if isinstance(point, complex):
            raise InvalidArgumentError("extremal evaluation points are real")

    results = []
    for n in degrees:
        basis = PolyBasis(kind, n, reference)
        if point is None:
            res = markov_constant_numeric(s, basis, k, DEFAULT_TOL)
        else:
            res = pointwise_derivative_sup(s, basis, float(point), k, DEFAULT_TOL)
        results.append(
            {
                "n": n,
                "k": k,
                "point": point,
                "value": res.value,
                "l_n": res.l_n,
                "certified_norm": res.certified_norm,
                "refinements": res.refinements,
                "grid_size": len(res.grid),
                "witness": list(res.coefficients),
            }
        )

    if config.fmt == "csv":
        rows = [
            [r["n"], float(r["value"]), "" if r["l_n"] is None else float(r["l_n"])]
            for r in results
        ]
        return _emit_csv(["n", "value", "l_n"], rows), 0
    payload = {
        "command": "extremal",
        "set": set_to_json(s),
        "basis": kind,
        "order": k,
        "results": results,
    }
    return _emit_json(payload), 0


def _default_suite(s) -> list[str]:
    if isinstance(s, IntervalUnion):
        if s.endpoints == (-1.0, 1.0):
            return [
                "bernstein-alg",
                "bernstein-szego",
                "bernstein-unit",
                "markov-unit",
                "riesz-circle",
                "szego-unit",
                "trig-full-period",
                "va-markov",
            ]
        return ["bernstein-alg", "bernstein-szego", "riesz-circle", "trig-full-period"]
    if isinstance(s, PeriodicSet):
        return ["bernstein-trig", "riesz-circle", "trig-full-period"]
    if isinstance(s, Circle):
        return ["riesz-circle", "trig-full-period"]
    raise InvalidArgumentError("verify supports interval unions, periodic sets and circles")


def cmd_verify(config: RunConfig) -> tuple[str, int]:
    s = _load_set(config)
    suite = [config.inequality] if config.inequality else _default_suite(s)
    if config.corrupt_density and not {"bernstein-alg", "bernstein-szego", "bernstein-trig"} & set(suite):
        raise InvalidArgumentError("--corrupt-density scales a density that no inequality of this suite reads")
    if config.k is not None and "va-markov" not in suite:
        raise InvalidArgumentError("--k gives the order of va-markov, which this suite does not run")
    trials = config.trials if config.trials is not None else DEFAULT_TOL.verify_default_trials
    scale = 0.5 if config.corrupt_density else 1.0
    order = 2 if config.k is None else config.k
    density = None      # built once, for the inequalities that read one
    if {"bernstein-alg", "bernstein-szego"} & set(suite) and isinstance(s, IntervalUnion):
        density = interval_density(s)
    elif "bernstein-trig" in suite and isinstance(s, PeriodicSet):
        density = arc_density(gamma_of(s))
    reports = []
    any_violation = False
    for name in sorted(suite):
        rep = verify_inequality(
            s, name, trials=trials, rng_seed=config.seed, order=order,
            density_scale=scale, density=density,
        )
        any_violation = any_violation or not rep.ok
        reports.append(
            {
                "inequality": rep.inequality,
                "max_ratio": rep.max_ratio,
                "worst_degree": rep.worst_degree,
                "violations": [
                    {
                        "trial": trial,
                        "degree": degree,
                        "ratio": ratio,
                        "witness": list(witness),
                    }
                    for (trial, degree, ratio), witness in zip(rep.violations, rep.witnesses)
                ],
            }
        )
    code = 5 if any_violation else 0
    if config.fmt == "csv":
        rows = [
            [r["inequality"], float(r["max_ratio"]), r["worst_degree"], len(r["violations"])]
            for r in reports
        ]
        return _emit_csv(["inequality", "max_ratio", "worst_degree", "violations"], rows), code
    payload = {
        "command": "verify",
        "set": set_to_json(s),
        "seed": config.seed,
        "trials_per_inequality": trials,
        "density_corrupted": config.corrupt_density,
        "reports": reports,
    }
    return _emit_json(payload), code


def cmd_l2(config: RunConfig) -> tuple[str, int]:
    s = _load_set(config)
    if not isinstance(s, IntervalUnion):
        raise InvalidArgumentError("l2 ratios are defined for interval unions")
    weight, _ = _resolve_weight(config, s)
    degrees = _parse_sweep(config)
    # every argument fault exits 2 before the one solve of the gap points
    _l2_checked_weight(s, weight, degrees, config.mode)
    xi = solve_xi(s) if config.mode == "omega-bernstein" else None
    rows = []
    for n in degrees:
        value = l2_ratio_numeric(s, weight, n, mode=config.mode, xi=xi)
        rows.append({"n": n, "value": value, "value_over_n2": value / (n * n)})
    if config.fmt == "csv":
        table = [[r["n"], float(r["value"]), float(r["value_over_n2"])] for r in rows]
        return _emit_csv(["n", "value", "value_over_n2"], table), 0
    payload = {
        "command": "l2",
        "set": set_to_json(s),
        "mode": config.mode,
        "values": rows,
    }
    return _emit_json(payload), 0


# name: (function, help, every flag it takes but --config)
_COMMANDS = {
    "eqdensity": (cmd_eqdensity, "sample an equilibrium density on a uniform interior grid",
                  "--set --beta --grid --format --out"),
    "factors": (cmd_factors, "closed-form sharp constants applicable to the inputs",
                "--set --beta --n --k --point --alpha --beta-exp --weight --format --out"),
    "extremal": (cmd_extremal, "brute-force LP extremal values, optionally swept over degrees",
                 "--set --beta --n --sweep --point --k --format --out"),
    "verify": (cmd_verify, "randomized falsification of the exact inequalities",
               "--set --beta --k --seed --trials --inequality --corrupt-density --format --out"),
    "l2": (cmd_l2, "L2 derivative-vs-plain pencil ratios",
           "--set --n --sweep --mode --alpha --beta-exp --weight --format --out"),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        config = _merge_config(args)
        text, code = _COMMANDS[config.command][0](config)
    except (InvalidArgumentError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    if config.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
