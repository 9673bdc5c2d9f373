#!/usr/bin/env python3
"""eqmarkov benchmark: one workload per process, a single-client closed loop.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's fixed operations until --seconds have
passed, checks the outputs against independent computations, writes a
results file under perfbench/results/ and prints, as its last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 untraced and traced rounds
alternate and the metrics are the per-layer ones, taken from spans around
calls into eqmarkov's public functions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from proc import SRC, THREAD_ENV, run_child

# nothing above loads numpy; the pool size must be set before it does
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
P90_MIN_OPS = 100


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed_form", "sup_oracle", "falsify", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_sources() -> None:
    if not (SRC / "eqmarkov" / "__init__.py").is_file():
        sys.exit(f"benchmark: no eqmarkov sources under {SRC}")


def load_eqmarkov(module: str):
    """Import eqmarkov from this checkout's src/ and nowhere else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    loaded = importlib.import_module(module)
    origin = Path(sys.modules["eqmarkov"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"benchmark: eqmarkov was imported from {origin}, not from {SRC}")
    return loaded


def setup(workload: str, seed: int):
    """Import eqmarkov and build the workload's inputs; returns (workload, seconds).

    The benchmark's own modules are imported outside the timed part."""
    start = time.perf_counter()
    load_eqmarkov("eqmarkov.cli" if workload == "cli_cold" else "eqmarkov.extremal")
    imported = time.perf_counter()
    import workloads

    built = time.perf_counter()
    instance = workloads.WORKLOADS[workload](seed)
    done = time.perf_counter()
    return instance, (imported - start) + (done - built)


def setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up time from fresh processes, as a user of the library pays it."""
    out = []
    for _ in range(SETUP_SAMPLES):
        child = run_child([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--setup-only"])
        if child.code != 0:
            sys.stderr.write(child.stderr)
            sys.exit(f"benchmark: set-up child exited with {child.code}")
        out.append(float(json.loads(child.stdout.splitlines()[-1])["setup_s"]))
    return out


@dataclass
class Round:
    traced: bool
    outputs: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    layers: dict = field(default_factory=dict)
    child_rss_kb: int = 0
    differs: list = field(default_factory=list)


def run_round(instance, children: bool, tracer=None) -> Round:
    rnd = Round(tracer is not None)
    ops = instance.operations()
    if tracer is not None:
        tracer.install()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for label, call in ops:
            t0 = time.perf_counter()
            try:
                rnd.outputs[label] = out = call(rnd.outputs)
            except Exception as exc:  # a failed operation is counted, the loop goes on
                rnd.errors[label] = f"{type(exc).__name__}: {exc}"
            else:
                if children and out.code != 0:
                    rnd.errors[label] = f"exit code {out.code}: {out.stderr.strip()[-300:]}"
            rnd.latencies.append(time.perf_counter() - t0)
        rnd.wall = time.perf_counter() - wall0
        if children:
            rnd.cpu = sum(out.cpu for out in rnd.outputs.values())
            rnd.child_rss_kb = max((out.maxrss_kb for out in rnd.outputs.values()), default=0)
        else:
            rnd.cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        rnd.layers = tracer.round_summary()
    return rnd


def cli_layers(instance, tracer) -> dict:
    """The cli layer's own costs for one round of cli_cold: interpreter floor,
    import of eqmarkov.cli, and main() in this process on the same argv,
    untraced and then traced."""
    import eqmarkov.cli as cli

    floor = run_child([sys.executable, "-c", "pass"]).wall
    imported = run_child([sys.executable, "-c", "import eqmarkov.cli"]).wall

    def mains():
        total = 0.0
        for argv in instance.argv.values():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                code = cli.main(list(argv))
                total += time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"in-process main({argv[0]}) returned {code}")
        return total

    untraced = mains()
    tracer.install()
    try:
        traced = mains()
    finally:
        tracer.uninstall()
    layers = tracer.round_summary()
    layers.update({"cli.interpreter_s": floor, "cli.import_s": imported, "cli.main_s": untraced,
                   "trace.traced_s": traced})
    return layers


def fingerprint(output) -> str:
    """What must repeat from round to round.  A density's repr leaves out its
    evaluator, so its values at nine interior points per band or arc are added."""
    import numpy as np

    if hasattr(output, "stdout"):
        return f"{output.code}\n{output.stdout}"
    text = repr(output)
    if hasattr(output, "evaluate") and hasattr(output, "set"):
        parts = getattr(output.set, "bands", None) or getattr(output.set, "arcs", None) or ()
        text += repr([float(output.evaluate(float(t)))
                      for lo, hi in parts for t in np.linspace(lo, hi, 11)[1:-1]])
    return text


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    sha = None
    if (HERE.parent / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    threads = None
    with contextlib.suppress(OSError):
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = next((int(line.split()[1]) for line in fh if line.startswith("Threads:")), None)
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "process_threads": threads,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        _instance, seconds = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    require_sources()
    setups = setup_samples(args.workload, args.seed)
    instance, _ = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    # cli_cold traces main() in this process after each round of children;
    # the other workloads alternate untraced and traced rounds
    children = getattr(instance, "children", False)
    # the first round's outputs are kept for the checks; a later round keeps
    # only the labels whose output differs from the first, so that memory
    # does not grow with the number of rounds
    rounds: list[Round] = []
    cli_rounds: list[dict] = []
    reference: dict = {}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and not children and len(rounds) % 2 == 1
        rnd = run_round(instance, children, tracer if traced else None)
        if rounds:
            rnd.differs = [label for label, out in rnd.outputs.items()
                           if fingerprint(out) != reference.get(label)]
            rnd.outputs = {}
        else:
            reference = {label: fingerprint(out) for label, out in rnd.outputs.items()}
        rounds.append(rnd)
        if tracer is not None and children:
            cli_rounds.append(cli_layers(instance, tracer))
        enough = tracer is None or children or len(rounds) >= 2
        if time.perf_counter() - start >= args.seconds and enough:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak_rss_kb = max(r.child_rss_kb for r in rounds)

    # checks: the first round against independent computations, the others
    # must reproduce it exactly (same inputs, one thread)
    from checks import KNOWN_FAULT

    first = rounds[0]
    try:
        problems = instance.check(first.outputs)
    except Exception as exc:  # a check that cannot run is a wrong output
        problems = {"(checks)": [f"checks raised {type(exc).__name__}: {exc}"]}
    labels = [label for label, _call in instance.operations()]
    attempted = failed = 0
    incorrect: dict = {}
    known_faults: dict = {}
    for index, rnd in enumerate(rounds):
        for label in labels:
            attempted += 1
            own = list(problems.get(label, []))
            if label in rnd.differs:
                own.append(f"round {index} output differs from round 0")
            if label in rnd.errors:
                failed += 1
                known_faults.setdefault(label, [rnd.errors[label]])
            elif own and all(p.startswith(KNOWN_FAULT) for p in own):
                failed += 1
                known_faults.setdefault(label, own)
            elif own:
                incorrect.setdefault(label, own)
    for label, own in problems.items():
        if label not in reference and label not in first.errors:
            incorrect.setdefault(label, own)
    if args.trace:
        metrics, count_problems = per_layer_metrics(rounds, cli_rounds)
        if count_problems:
            incorrect["(per-layer counts)"] = count_problems
    correct = not incorrect

    plain = [r for r in rounds if not r.traced]
    latencies = sorted(x for r in plain for x in r.latencies)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "rounds": len(rounds),
        "round_wall_s": [r.wall for r in rounds],
        "round_traced": [r.traced for r in rounds],
        "setup_samples_s": setups,
        "operations": len(latencies),
        "op_p90_s": (statistics.quantiles(latencies, n=10)[-1]
                     if len(latencies) >= P90_MIN_OPS else None),
        "failed_operations": known_faults,
        "incorrect_operations": incorrect,
    }
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(r.wall for r in plain), "s"),
            "cpu_s": (statistics.median(r.cpu for r in plain), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    result["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    for label, own in list(incorrect.items())[:10]:
        print(f"INCORRECT {label}: {'; '.join(own[:3])}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def per_layer_metrics(rounds, cli_rounds):
    """Returns (metrics, problems); a count that differs between traced rounds
    is a problem, since the same work must make the same calls."""
    from spans import SPAN_METRICS

    if cli_rounds:
        layers = cli_rounds
        floor = statistics.median(r["cli.interpreter_s"] for r in layers)
        extra = {
            "cli.interpreter_s": floor,
            "cli.import_s": statistics.median(r["cli.import_s"] for r in layers) - floor,
            "cli.main_s": statistics.median(r["cli.main_s"] for r in layers),
            "trace.overhead_s": statistics.median(r["trace.traced_s"] for r in layers)
            - statistics.median(r["cli.main_s"] for r in layers),
        }
    else:
        layers = [r.layers for r in rounds if r.traced]
        extra = {
            "cli.interpreter_s": 0.0,
            "cli.import_s": 0.0,
            "cli.main_s": 0.0,
            "trace.overhead_s": statistics.median(r.wall for r in rounds if r.traced)
            - statistics.median(r.wall for r in rounds if not r.traced),
        }
    out, problems = {}, []
    for name in SPAN_METRICS:
        if name.endswith("_s"):
            out[name] = (statistics.median(r[name] for r in layers), "s")
        else:
            values = {r[name] for r in layers}
            if len(values) != 1:
                problems.append(f"count {name} differs between traced rounds: {sorted(values)}")
            out[name] = (layers[0][name], "count")
    out.update({name: (value, "s") for name, value in extra.items()})
    return out, problems


if __name__ == "__main__":
    sys.exit(main())
