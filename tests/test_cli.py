"""CLI behavior: exit codes, determinism, config merging, format contracts.

Everything runs through main(argv) in-process so the tests see the real exit
codes and the exact bytes a shell user would.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eqmarkov
from eqmarkov.cli import main
from eqmarkov.extremal import l2_ratio_numeric
from eqmarkov.factors import (
    bernstein_factor,
    bernstein_higher,
    l2_markov_constant,
    markov_global,
    markov_higher,
    markov_local,
    va_markov_exact,
)
from eqmarkov.sets import Circle, IntervalUnion, Lemniscate, PeriodicSet

UNIT = '{"type":"intervals","endpoints":[-1,1]}'
TWO = '{"type":"intervals","endpoints":[-1,-0.3,0.2,1]}'
SPLIT = '{"type":"intervals","endpoints":[-1,-0.5,0.5,1]}'
CIRCLE = '{"type":"circle","r":0.5}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEqdensity:
    def test_unit_interval_json(self, capsys):
        code, out, err = run(capsys, "eqdensity", "--set", UNIT, "--grid", "64")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["geometry"] == "line"
        assert data["xi"] == []
        assert abs(data["mass"] - 1.0) < 1e-10
        assert data["frostman_spread"] < 1e-6
        assert len(data["samples"]) == 64
        for row in data["samples"]:
            want = 1.0 / (math.pi * math.sqrt(1.0 - row["t"] ** 2))
            assert abs(row["omega"] - want) < 1e-10 * want

    def test_csv_matches_json_and_round_trips(self, capsys):
        code, csv_out, _ = run(
            capsys, "eqdensity", "--set", UNIT, "--grid", "16", "--format", "csv"
        )
        assert code == 0
        code, json_out, _ = run(capsys, "eqdensity", "--set", UNIT, "--grid", "16")
        samples = json.loads(json_out)["samples"]
        lines = [l for l in csv_out.strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,omega"
        assert len(lines) == 17
        for line, row in zip(lines[1:], samples):
            t_text, w_text = line.split(",")
            assert float(t_text) == row["t"]
            assert float(w_text) == row["omega"]
        comments = [l for l in csv_out.splitlines() if l.startswith("#")]
        assert any("mass" in c for c in comments)
        assert any("xi" in c for c in comments)
        assert any("frostman_spread" in c for c in comments)

    def test_two_band_xi_in_gap(self, capsys):
        code, out, _ = run(capsys, "eqdensity", "--set", TWO, "--grid", "8")
        assert code == 0
        data = json.loads(out)
        assert len(data["xi"]) == 1
        assert -0.3 < data["xi"][0] < 0.2

    def test_arcs_collocation(self, capsys):
        arcs = '{"type":"arcs","angles":[-1.0,-0.2,0.4,1.3]}'
        code, out, _ = run(capsys, "eqdensity", "--set", arcs, "--grid", "8")
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "collocation"
        assert len(data["samples"]) == 16
        assert all(row["omega"] > 0 for row in data["samples"])

    def test_circle_constant(self, capsys):
        code, out, _ = run(
            capsys, "eqdensity", "--set", '{"type":"circle","r":2.0}', "--grid", "8"
        )
        assert code == 0
        data = json.loads(out)
        values = {row["omega"] for row in data["samples"]}
        assert len(values) == 1
        assert abs(values.pop() - 1.0 / (4.0 * math.pi)) < 1e-15

    def test_samples_are_the_pointwise_densities(self, capsys):
        from eqmarkov.equilibrium import interval_density
        from eqmarkov.sets import IntervalUnion

        a, b = 0.37, 1.42
        sym = '{"type": "intervals", "endpoints": [%r, %r, %r, %r]}' % (-b, -a, a, b)
        code, out, _ = run(capsys, "eqdensity", "--set", sym, "--grid", "24")
        assert code == 0
        samples = json.loads(out)["samples"]
        density = interval_density(IntervalUnion((-b, -a, a, b)))
        assert len(samples) == 48
        assert all(row["omega"] == density.evaluate(row["t"]) for row in samples)

    def test_lemniscate_rejected(self, capsys):
        lem = '{"type":"lemniscate","coeffs":[0,0,1]}'
        code, out, err = run(capsys, "eqdensity", "--set", lem)
        assert code == 2
        assert out == ""
        assert "factors" in err


class TestFactors:
    def test_unit_interval_catalog(self, capsys):
        code, out, _ = run(capsys, "factors", "--set", UNIT)
        assert code == 0
        data = json.loads(out)
        by_kind = {}
        for entry in data["entries"]:
            by_kind.setdefault(entry["kind"], []).append(entry)
        locals_ = by_kind["markov-local"]
        assert len(locals_) == 2
        assert all(abs(e["value"] - 1.0) < 1e-10 for e in locals_)
        assert abs(by_kind["l2-markov"][0]["value"] - 1.0 / math.pi) < 1e-12
        assert abs(by_kind["markov-global"][0]["value"] - 1.0) < 1e-10

    def test_videnskii_pointwise_at_center(self, capsys):
        code, out, _ = run(capsys, "factors", "--beta", "2.0", "--point", "0")
        assert code == 0
        entries = json.loads(out)["entries"]
        vid = [e for e in entries if e["kind"] == "videnskii-pointwise"]
        assert len(vid) == 1
        assert abs(vid[0]["value"] - 1.0 / math.sin(1.0)) < 1e-12
        trig = [e for e in entries if e["kind"] == "bernstein-trig"]
        assert abs(trig[0]["value"] - vid[0]["value"]) < 1e-8

    def test_exact_degree_constants(self, capsys):
        code, out, _ = run(
            capsys, "factors", "--set", UNIT, "--n", "6", "--k", "3",
            "--alpha", "0.5", "--beta-exp", "-0.3",
        )
        assert code == 0
        entries = json.loads(out)["entries"]
        va = [e for e in entries if e["kind"] == "va-markov"]
        assert va and va[0]["value"] == va_markov_exact(6, 3) == 2688.0
        assert va[0]["degree_power"] == 0
        lb = [e for e in entries if e["kind"] == "l2-bernstein-jacobi"]
        assert lb and abs(lb[0]["value"] - math.sqrt(6 * (7 + 0.2))) < 1e-12

    def test_riesz_on_circle(self, capsys):
        code, out, _ = run(
            capsys, "factors", "--set", '{"type":"circle","r":0.5}', "--point", "1.0"
        )
        assert code == 0
        entries = json.loads(out)["entries"]
        riesz = [e for e in entries if e["kind"] == "riesz-curve"]
        assert riesz and abs(riesz[0]["value"] - 2.0) < 1e-12

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "factors", "--set", UNIT, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,endpoint_index,value,degree_power,asymptotic"
        assert len(lines) >= 4


class TestExtremal:
    def test_markov_frozen(self, capsys):
        code, out, _ = run(capsys, "extremal", "--set", UNIT, "--n", "8")
        assert code == 0
        res = json.loads(out)["results"][0]
        assert 64.0 - 1e-9 <= res["value"] <= 64.0 * (1.0 + 2e-5)
        assert res["certified_norm"] <= 1.0 + 1e-6
        assert len(res["witness"]) == 9

    def test_pointwise_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--set", UNIT, "--point", "0.0",
            "--sweep", "5:11:2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value,l_n"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [5, 7, 9, 11]
        for r in rows:
            n = int(r[0])
            assert abs(float(r[1]) - n) < 1e-3
            assert r[2] == ""

    def test_resource_limit_exit(self, capsys):
        code, out, err = run(capsys, "extremal", "--set", UNIT, "--n", "251", "--point", "0.0")
        assert code == 4
        assert "resource limit" in err

    def test_iteration_limit_exit(self, capsys, monkeypatch):
        import eqmarkov.cli as cli

        tight = dataclasses.replace(cli.DEFAULT_TOL, lp_iteration_limit=3)
        monkeypatch.setattr(cli, "DEFAULT_TOL", tight)
        code, out, err = run(capsys, "extremal", "--set", UNIT, "--n", "7", "--point", "0.0")
        assert code == 4
        assert out == ""
        assert "iteration limit" in err

    def test_degree_required(self, capsys):
        code, _, err = run(capsys, "extremal", "--set", UNIT)
        assert code == 2
        assert "--n or --sweep" in err


class TestVerify:
    def test_default_suite_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "--set", UNIT, "--trials", "5", "--seed", "0")
        assert code == 0
        data = json.loads(out)
        names = [r["inequality"] for r in data["reports"]]
        assert names == sorted(names)
        assert "bernstein-unit" in names and "va-markov" in names
        assert all(not r["violations"] for r in data["reports"])
        assert all(r["max_ratio"] <= 1.0 + 1e-9 for r in data["reports"])

    def test_corrupted_density_exit_five_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--set", UNIT, "--inequality", "bernstein-alg",
            "--trials", "10", "--seed", "5", "--corrupt-density",
        )
        assert code == 5
        data = json.loads(out)
        assert data["density_corrupted"] is True
        violations = data["reports"][0]["violations"]
        assert violations
        first = violations[0]
        assert first["ratio"] > 1.0 + 1e-9
        assert len(first["witness"]) == first["degree"] + 1

    def test_byte_identical_given_seed(self, capsys):
        argv = ["verify", "--set", TWO, "--inequality", "bernstein-szego",
                "--trials", "8", "--seed", "42"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("flags,message", [
        (("--k", "16"), "derivative order"),
        (("--seed", "-1"), "seed"),
    ], ids=["order-past-max-degree", "negative-seed"])
    def test_bad_arguments_exit_two(self, capsys, flags, message):
        code, out, err = run(capsys, "verify", "--set", UNIT, "--trials", "5", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_periodic_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--beta", "1.2", "--trials", "5", "--seed", "3")
        assert code == 0
        names = [r["inequality"] for r in json.loads(out)["reports"]]
        assert names == ["bernstein-trig", "riesz-circle", "trig-full-period"]


class TestL2:
    def test_sweep_values(self, capsys):
        code, out, _ = run(capsys, "l2", "--set", UNIT, "--sweep", "5:10:5")
        assert code == 0
        values = json.loads(out)["values"]
        assert [v["n"] for v in values] == [5, 10]
        assert abs(values[0]["value"] - 13.591402961610823) < 1e-9
        assert values[1]["value_over_n2"] < values[0]["value_over_n2"]

    def test_gradient_mode(self, capsys):
        code, out, _ = run(
            capsys, "l2", "--set", UNIT, "--n", "7", "--mode", "gradient-bernstein",
            "--alpha", "0.5", "--beta-exp", "-0.3",
        )
        assert code == 0
        value = json.loads(out)["values"][0]["value"]
        assert abs(value - math.sqrt(57.4)) < 1e-8

    def test_numeric_failure_exit(self, capsys):
        code, _, err = run(capsys, "l2", "--set", SPLIT, "--n", "32")
        assert code == 3
        assert "numeric failure" in err

    @pytest.mark.parametrize("args, message", [
        (["--n", "101"], "degree must be an integer in 1..100"),
        (["--sweep", "4:101:97"], "degree must be an integer in 1..100"),
        (["--n", "4", "--weight", '{"exponents":[1]}'], "omega-bernstein mode weighs by the equilibrium measure"),
    ], ids=["degree", "last-degree-of-sweep", "weight"])
    def test_argument_fault_exits_two_before_the_gap_points(self, capsys, args, message):
        # the gap points of this set miss their residual bound (exit 3), so
        # the argument fault must be found before they are solved for
        far = '{"type":"intervals","endpoints":[100000,100001,100002,100003]}'
        code, out, err = run(capsys, "l2", "--set", far, "--mode", "omega-bernstein", *args)
        assert code == 2 and out == ""
        assert message in err


    @pytest.mark.parametrize("args", [
        ["--set", TWO, "--weight", '{"exponents":[0.5,0.5,0.2,0.1]}'],
        ["--set", UNIT, "--alpha", "0.5", "--beta-exp", "0.3"],
    ], ids=["weight", "jacobi"])
    def test_omega_bernstein_refuses_a_weight(self, capsys, args):
        # the mode weighs by the equilibrium measure, so a weight goes unread
        code, out, err = run(capsys, "l2", "--n", "4", "--mode", "omega-bernstein", *args)
        assert code == 2 and out == ""
        assert "takes no weight" in err


class TestPlumbing:
    def test_config_file_merge_flags_win(self, capsys, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"set": UNIT, "n": 8, "format": "csv"}))
        code, out, _ = run(
            capsys, "extremal", "--config", str(conf), "--format", "json"
        )
        assert code == 0
        data = json.loads(out)  # flag overrode csv
        assert data["results"][0]["n"] == 8  # file supplied the degree

    def test_unknown_config_key(self, capsys, tmp_path):
        conf = tmp_path / "bad.json"
        conf.write_text('{"degree": 8}')
        code, _, err = run(capsys, "factors", "--config", str(conf), "--set", UNIT)
        assert code == 2
        assert "degree" in err

    def test_set_from_file(self, capsys, tmp_path):
        setfile = tmp_path / "set.json"
        setfile.write_text(UNIT)
        code, out, _ = run(capsys, "factors", "--set", str(setfile))
        assert code == 0
        assert json.loads(out)["set"]["endpoints"] == [-1.0, 1.0]

    def test_missing_set_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "factors", "--set", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read set file" in err

    def test_malformed_inline_set(self, capsys):
        code, _, err = run(capsys, "factors", "--set", '{"type":"intervals"}')
        assert code == 2

    def test_set_and_beta_conflict(self, capsys):
        code, _, err = run(capsys, "factors", "--set", UNIT, "--beta", "1.0")
        assert code == 2
        assert "not both" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "density.csv"
        code, out, _ = run(
            capsys, "eqdensity", "--set", UNIT, "--grid", "4",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[3] == "t,omega"

    def test_bad_sweep(self, capsys):
        code, _, err = run(capsys, "l2", "--set", UNIT, "--sweep", "5-10")
        assert code == 2
        assert "n1:n2:step" in err

    def test_bad_beta(self, capsys):
        code, _, err = run(capsys, "factors", "--beta", "4.0", "--point", "0")
        assert code == 2

    @pytest.mark.parametrize("weight", [
        {"exponents": 5},
        {"exponents": ["a", 1]},
        {"exponents": "11"},
        {"exponents": [0.5, True]},
        {"exponents": [0.5, 0.5], "extra": 1},
        {"exponents": [10**400, 1]},
    ], ids=["number", "string-entry", "string", "boolean-entry", "extra-key", "beyond-float"])
    @pytest.mark.parametrize("command", ["l2", "factors"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_weight_object_is_checked_inside(self, capsys, tmp_path, weight, command, route):
        # exactly the key "exponents", holding an array of numbers; JSON
        # booleans are not numbers here, as for every config value
        argv = [command, "--set", UNIT, "--n", "4"]
        if route == "flag":
            argv += ["--weight", json.dumps(weight)]
        else:
            conf = tmp_path / "run.json"
            conf.write_text(json.dumps({"weight": weight}))
            argv += ["--config", str(conf)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "weight" in err and "Traceback" not in err


# The flags each subcommand reads, written out here rather than taken from
# the CLI's own table; every subcommand also takes --config, --format and --out.
READS = {
    "eqdensity": ("--set", "--beta", "--grid"),
    "factors": ("--set", "--beta", "--n", "--k", "--point", "--alpha", "--beta-exp", "--weight"),
    "extremal": ("--set", "--beta", "--n", "--sweep", "--point", "--k"),
    "verify": ("--set", "--beta", "--k", "--seed", "--trials", "--inequality", "--corrupt-density"),
    "l2": ("--set", "--n", "--sweep", "--mode", "--alpha", "--beta-exp", "--weight"),
}
COMMON = ("--config", "--format", "--out")
# a valid value for each flag, and a cheap run of each subcommand that succeeds
VALUE = {
    "--set": [UNIT], "--beta": ["2.0"], "--n": ["4"], "--k": ["2"], "--point": ["0.5"],
    "--alpha": ["0.5"], "--beta-exp": ["0.5"], "--weight": ['{"exponents":[1,1]}'],
    "--grid": ["4"], "--seed": ["1"], "--trials": ["3"], "--mode": ["omega-bernstein"],
    "--inequality": ["markov-unit"], "--sweep": ["4:5:1"], "--format": ["csv"],
    "--corrupt-density": [],
}
BASE = {
    "eqdensity": ["--set", UNIT, "--grid", "4"],
    "factors": ["--set", UNIT],
    "extremal": ["--set", UNIT, "--n", "4"],
    "verify": ["--set", UNIT, "--trials", "3"],
    "l2": ["--set", UNIT, "--n", "4"],
}
# JSON values of a type each flag's config key must refuse
WRONG_TYPE = {
    **dict.fromkeys(["--n", "--k", "--grid", "--seed", "--trials"], ["3", 3.5, True, None]),
    **dict.fromkeys(["--beta", "--alpha", "--beta-exp"], ["0.5", False, [0.5]]),
    **dict.fromkeys(["--set", "--point", "--mode", "--inequality", "--sweep", "--format", "--out"],
                    [0.5, 1, True, {"a": 1}]),
    "--weight": [[1, 1], 1, True],
    "--corrupt-density": [1, "true", None],
}
ALL_FLAGS = sorted(set(VALUE) | set(COMMON))
ACCEPTED = [(c, f) for c in READS for f in READS[c] + COMMON]
UNREAD = [(c, f) for c in READS for f in ALL_FLAGS if f not in READS[c] + COMMON]
CONFIGURABLE = [(c, f) for c, f in ACCEPTED if f != "--config"]


def outcome(capsys, argv, out_path=None):
    """(exit code, stdout, --out file or None) of one run; argparse's own
    rejections exit through SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    written = out_path.read_text() if out_path is not None and out_path.exists() else None
    return code, capsys.readouterr().out, written


def _drop(argv, flags):
    out, skip = [], False
    for word in argv:
        if skip:
            skip = False
        elif word in flags:
            skip = True
        else:
            out.append(word)
    return out


class TestFlagTable:
    def test_counts(self):
        assert len(ALL_FLAGS) == 18
        assert len(ACCEPTED) == 46 and len(UNREAD) == 44

    @pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
    def test_unread_flag_exits_two(self, capsys, command, flag):
        code, out, _ = outcome(capsys, [command, *BASE[command], flag, *VALUE[flag]])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command, flag", ACCEPTED, ids=[f"{c}{f}" for c, f in ACCEPTED])
    def test_accepted_flag_is_read(self, capsys, tmp_path, command, flag):
        # --beta replaces --set, and --sweep replaces --n
        drop = {flag, {"--beta": "--set", "--sweep": "--n"}.get(flag)}
        without = [command, *_drop(BASE[command], drop)]
        target = tmp_path / "out.txt"
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"format": "csv"}))
        # verify's --k defaults to 2, the others' to 1
        value = {"--out": [str(target)], "--config": [str(conf)]}.get(flag, VALUE.get(flag))
        if (command, flag) == ("verify", "--k"):
            value = ["1"]
        before = outcome(capsys, without, target)
        after = outcome(capsys, [*without, flag, *value], target)
        assert before != after

    @pytest.mark.parametrize("command, flag", UNREAD, ids=[f"{c}{f}" for c, f in UNREAD])
    def test_unread_config_key_exits_two(self, capsys, tmp_path, command, flag):
        key = flag[2:].replace("-", "_")
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({key: None}))
        code, out, err = run(capsys, command, *BASE[command], "--config", str(conf))
        assert code == 2 and out == ""
        assert repr(key) in err

    @pytest.mark.parametrize("command, key", [("extremal", "set_spec"), ("l2", "fmt"), ("verify", "degree")])
    def test_field_names_are_not_config_keys(self, capsys, tmp_path, command, key):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({key: UNIT}))
        code, out, err = run(capsys, command, *BASE[command], "--config", str(conf))
        assert code == 2 and out == ""
        assert repr(key) in err

    @pytest.mark.parametrize("command, keys, flags", [
        ("eqdensity", {"set": UNIT, "grid": 4}, ["--set", UNIT, "--grid", "4"]),
        ("factors", {"beta_exp": 0.5, "k": 2}, ["--set", UNIT, "--beta-exp", "0.5", "--k", "2"]),
        ("extremal", {"sweep": "4:5:1", "point": "0.5"}, ["--set", UNIT, "--sweep", "4:5:1", "--point", "0.5"]),
        ("verify", {"corrupt_density": True, "inequality": "bernstein-alg", "trials": 3},
         ["--set", UNIT, "--corrupt-density", "--inequality", "bernstein-alg", "--trials", "3"]),
        ("l2", {"mode": "gradient-bernstein", "n": 4, "weight": '{"exponents":[1,1]}'},
         ["--set", UNIT, "--mode", "gradient-bernstein", "--n", "4", "--weight", '{"exponents":[1,1]}']),
    ], ids=list(READS))
    def test_read_config_keys_act_as_their_flags(self, capsys, tmp_path, command, keys, flags):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(keys))
        from_file = outcome(capsys, [command, "--set", UNIT, "--config", str(conf)])
        assert from_file == outcome(capsys, [command, *flags])
        assert from_file[0] in (0, 5)

    @pytest.mark.parametrize("command, flag", CONFIGURABLE, ids=[f"{c}{f}" for c, f in CONFIGURABLE])
    def test_config_value_of_the_wrong_type_exits_two(self, capsys, tmp_path, command, flag):
        key = flag[2:].replace("-", "_")
        conf = tmp_path / "conf.json"
        for value in WRONG_TYPE[flag]:
            conf.write_text(json.dumps({key: value}))
            code, out, err = run(capsys, command, *BASE[command], "--config", str(conf))
            assert code == 2 and out == ""
            assert repr(key) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["extremal", "l2"])
    def test_n_with_sweep_exits_two(self, capsys, command):
        code, out, err = run(capsys, command, "--set", UNIT, "--n", "8", "--sweep", "4:4:1")
        assert code == 2 and out == ""
        assert "not both" in err

    @pytest.mark.parametrize("command, args", [
        ("verify", ["--set", CIRCLE, "--trials", "3", "--corrupt-density"]),
        ("verify", ["--set", TWO, "--trials", "3", "--inequality", "riesz-circle", "--corrupt-density"]),
        ("verify", ["--set", TWO, "--trials", "3", "--k", "3"]),
        ("verify", ["--set", UNIT, "--trials", "3", "--inequality", "markov-unit", "--k", "1"]),
        ("factors", ["--beta", "2.0", "--k", "2"]),
    ], ids=["verify-corrupt-circle", "verify-corrupt-density-free", "verify-k-two-bands",
            "verify-k-markov-unit", "factors-k-beta-without-point"])
    def test_flag_the_run_leaves_unread_exits_two(self, capsys, command, args):
        code, out, err = run(capsys, command, *args)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_corrupt_density_is_read_on_a_periodic_set(self, capsys):
        argv = ["verify", "--beta", "1.2", "--trials", "20"]
        before = outcome(capsys, argv)
        after = outcome(capsys, [*argv, "--corrupt-density"])
        assert before[0] == 0 and after[0] in (0, 5)
        assert before != after

    def test_verify_order_one_differs_from_default_two(self, capsys):
        argv = ["verify", "--set", UNIT, "--trials", "5", "--inequality", "va-markov"]
        default = run(capsys, *argv)
        order_one = run(capsys, *argv, "--k", "1")
        assert default == run(capsys, *argv, "--k", "2")
        assert default[0] == order_one[0] == 0
        assert default[1] != order_one[1]

    @pytest.mark.parametrize("args", [
        ["--beta", "2.0", "--point", "0.5", "--alpha", "0.3"],
        ["--set", '{"type":"circle","r":0.5}', "--point", "1.0", "--beta-exp", "0.3"],
        ["--set", '{"type":"arcs","angles":[-2,2]}', "--weight", '{"exponents":[1,1]}'],
        ["--beta", "2.0", "--point", "0.5", "--alpha", "0.3", "--weight", '{"exponents":[1,1]}', "--n", "9"],
        ["--set", TWO, "--n", "9"],
        ["--beta", "2.0", "--n", "9"],
        ["--set", '{"type":"circle","r":0.5}', "--point", "1.0", "--n", "9"],
    ], ids=["alpha-beta", "beta-exp-circle", "weight-arcs", "all-on-beta", "n-two-bands", "n-beta", "n-circle"])
    def test_factors_rejects_flags_the_set_leaves_unread(self, capsys, args):
        code, out, err = run(capsys, "factors", *args)
        assert code == 2 and out == ""
        assert err.startswith("error:")


class TestDegenerateInputs:
    """Inputs at the edge of floating point exit with a typed failure, never
    with a traceback or an uncertified number."""

    WIDE = '{"type":"intervals","endpoints":[-1e308,1e308]}'
    TINY = '{"type":"intervals","endpoints":[0,1e-300]}'

    @pytest.mark.parametrize("args", [
        ["factors", "--set", '{"type":"arcs","angles":[-2,-0.5,0.5,2]}'],
        ["factors", "--set", '{"type":"periodic","endpoints":[-2,-0.5,0.5,2]}'],
        ["extremal", "--set", '{"type":"periodic","endpoints":[-2,2]}', "--n", "4"],
        ["factors", "--set", '{"type":"circle","r":1}'],
    ], ids=["factors-arcs", "factors-periodic", "extremal-periodic", "factors-circle"])
    def test_non_finite_point_exits_two(self, capsys, args):
        code, out, err = run(capsys, *args, "--point", "inf")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "must be finite" in err

    @pytest.mark.parametrize("args", [
        ["extremal", "--n", "3"], ["extremal", "--n", "3", "--point", "0"], ["l2", "--n", "4"],
    ], ids=["extremal-markov", "extremal-pointwise", "l2"])
    def test_overflowing_band_width_exits_three(self, capsys, args):
        # the set's own check of its endpoints overflows, which numpy warns of
        with np.errstate(over="ignore"):
            code, out, err = run(capsys, *args, "--set", self.WIDE)
        assert code == 3 and out == ""
        assert "half-width overflows" in err

    @pytest.mark.parametrize("args", [
        ["eqdensity", "--grid", "4"], ["factors", "--point", "5e-301"], ["verify", "--trials", "3"],
    ], ids=["eqdensity", "factors", "verify"])
    def test_underflowing_density_exits_three(self, capsys, args):
        code, out, err = run(capsys, *args, "--set", self.TINY)
        assert code == 3 and out == ""
        assert "not finite" in err


class TestFactorsBesselRange:
    """The weighted L2 Markov factor on [-1, 1] with both exponents kappa is
    0.5 / j_{(kappa-1)/2,1}; the zero is certified in (0, 100] or the run
    fails with exit 3, never with a number."""

    # 0.5 / j_{nu,1} from mpmath at 30 digits (besseljzero for nu >= 0, a
    # bracketed findroot below)
    CERTIFIED = {
        "-0.99999999999999": 3536947.690441295,
        "-0.9999999999": 35355.33759622859,
        "183": 0.005021255531259193,
    }

    @pytest.mark.parametrize("kappa", sorted(CERTIFIED))
    def test_certified_zero(self, capsys, kappa):
        code, out, err = run(capsys, "factors", "--set", UNIT, "--alpha", kappa, "--beta-exp", kappa)
        assert code == 0 and err == ""
        (entry,) = [e for e in json.loads(out)["entries"] if e["kind"] == "l2-markov-weighted"]
        assert entry["value"] == pytest.approx(self.CERTIFIED[kappa], rel=1e-13)

    @pytest.mark.parametrize("kappa", ["184", "250", "400", "1000"])
    def test_zero_above_ceiling_exits_3(self, capsys, kappa):
        code, out, err = run(capsys, "factors", "--set", UNIT, "--alpha", kappa)
        assert code == 3
        assert out == ""
        assert "above 100" in err


THREE = '{"type":"intervals","endpoints":[-1,-0.6,-0.2,0.3,0.5,1]}'
LEMNISCATE = '{"type":"lemniscate","coeffs":[-1,0,1]}'


class TestFactorsHigherBernstein:
    """One higher-bernstein entry per run with --point and --k >= 2, equal to
    bernstein_higher on the same set and point; arc unions get none."""

    @pytest.mark.parametrize("args, s, at, label", [
        (["--set", TWO, "--point", "0.5"], IntervalUnion((-1.0, -0.3, 0.2, 1.0)), 0.5, 0.5),
        (["--beta", "2.0", "--point", "0.5"], PeriodicSet(IntervalUnion((-2.0, 2.0))), 0.5, 0.5),
        (["--set", '{"type":"circle","r":0.5}', "--point", "1.0"], Circle(0.5),
         0.5 * complex(math.cos(1.0), math.sin(1.0)),
         [0.5 * math.cos(1.0), 0.5 * math.sin(1.0)]),
        (["--set", LEMNISCATE, "--point", "1.4142135623730951,0"], Lemniscate((-1.0, 0.0, 1.0)),
         complex(1.4142135623730951, 0.0), [1.4142135623730951, 0.0]),
    ], ids=["intervals", "beta", "circle", "lemniscate"])
    def test_one_entry_equal_to_the_factor(self, capsys, args, s, at, label):
        code, out, _ = run(capsys, "factors", *args, "--k", "2")
        assert code == 0
        higher = [e for e in json.loads(out)["entries"] if e["kind"] == "higher-bernstein"]
        report = bernstein_higher(s, at, 2)
        assert higher == [{
            "kind": "higher-bernstein", "value": report.value, "degree_power": 2,
            "asymptotic": report.asymptotic, "point": label, "order": 2,
        }]

    @pytest.mark.parametrize("angles", ["[-2,2]", "[-2.5,-0.5,0.5,2.5]"])
    def test_none_on_arcs(self, capsys, angles):
        code, out, _ = run(capsys, "factors", "--set", f'{{"type":"arcs","angles":{angles}}}',
                           "--point", "1.0", "--k", "2")
        assert code == 0
        assert not [e for e in json.loads(out)["entries"] if e["kind"] == "higher-bernstein"]


ARCS = '{"type":"arcs","angles":[-2.5,-0.5,0.5,2.5]}'


@pytest.fixture
def builds(monkeypatch):
    """Counts of each closed-form builder's calls while the test runs:
    counters are patched over each module that names a builder, so a second
    build anywhere is seen."""
    import collections

    import eqmarkov.cli
    import eqmarkov.equilibrium
    import eqmarkov.extremal
    import eqmarkov.factors

    counts = collections.Counter()
    for name in ("solve_xi", "interval_density", "arc_density", "_collocation_at"):
        original = getattr(eqmarkov.equilibrium, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (eqmarkov.cli, eqmarkov.equilibrium, eqmarkov.extremal, eqmarkov.factors):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return counts


class TestFactorsSolvesXiOnce:
    """One factors run builds its set's closed-form data once and passes it
    to every factor."""

    def test_gap_points_are_shared(self, capsys, monkeypatch, builds):
        code, out, _ = run(capsys, "factors", "--set", THREE, "--point", "0.6", "--k", "3")
        assert code == 0
        assert builds == {"solve_xi": 1, "interval_density": 1}
        monkeypatch.undo()

        # every value is the one the factor gives with its own gap points
        e = IntervalUnion((-1.0, -0.6, -0.2, 0.3, 0.5, 1.0))
        want = {("markov-global", 0): markov_global(e).value,
                ("bernstein-alg", 0): bernstein_factor(e, 0.6).value,
                ("higher-bernstein", 0): bernstein_higher(e, 0.6, 3).value,
                ("l2-markov", 0): l2_markov_constant(e).value}
        for j in range(1, 7):
            want["markov-local", j] = markov_local(e, j).value
            want["higher-markov", j] = markov_higher(e, j, 3).value
        entries = json.loads(out)["entries"]
        assert {(d["kind"], d.get("endpoint_index", 0)): d["value"] for d in entries} == want
        assert len(entries) == len(want)
        assert run(capsys, "factors", "--set", THREE, "--point", "0.6", "--k", "3")[1] == out

    @pytest.mark.parametrize("args, want", [
        (["--set", THREE, "--k", "3"], {"solve_xi": 1, "interval_density": 1}),
        (["--set", ARCS, "--point", "1.0", "--k", "2"], {"arc_density": 1, "_collocation_at": 1}),
        (["--beta", "2.0", "--point", "0.5", "--k", "2"], {"arc_density": 1}),
    ], ids=["bands-without-point", "two-arcs", "beta"])
    def test_one_build_per_run(self, capsys, builds, args, want):
        code, out, _ = run(capsys, "factors", *args)
        assert code == 0 and out
        assert builds == want

    def test_density_certified_without_point(self, capsys):
        # the endpoint factors read xi, which comes from the certified
        # density: a set whose density fails its mass certificate exits 3
        # with or without --point
        tiny = '{"type":"intervals","endpoints":[-1,-1e-6,1e-6,1]}'
        for extra in ((), ("--point", "0.5")):
            code, out, err = run(capsys, "factors", "--set", tiny, *extra)
            assert code == 3 and out == "" and "mass" in err


class TestVerifyAndL2BuildOnce:
    """verify builds one density per set for all its inequalities, and an
    omega-bernstein l2 sweep solves the gap points once for all degrees."""

    @pytest.mark.parametrize("args, want", [
        (["--set", TWO], {"solve_xi": 1, "interval_density": 1}),
        (["--set", UNIT], {"solve_xi": 1, "interval_density": 1}),
        (["--beta", "1.2"], {"arc_density": 1}),
        (["--set", UNIT, "--inequality", "markov-unit"], {}),
    ], ids=["two-bands", "unit", "beta", "no-density"])
    def test_verify_builds_once(self, capsys, builds, args, want):
        code, out, _ = run(capsys, "verify", *args, "--trials", "5", "--seed", "1")
        assert code == 0 and out
        assert builds == want

    def test_omega_sweep_solves_xi_once(self, capsys, builds):
        code, out, _ = run(capsys, "l2", "--set", TWO, "--sweep", "4:12:4", "--mode", "omega-bernstein")
        assert code == 0
        assert builds == {"solve_xi": 1}
        e = IntervalUnion((-1.0, -0.3, 0.2, 1.0))
        values = [row["value"] for row in json.loads(out)["values"]]
        assert values == [l2_ratio_numeric(e, None, n, mode="omega-bernstein") for n in (4, 8, 12)]


# Runs CLI subcommands in one fresh interpreter and reports which scipy
# modules each has loaded by the time it returns.
_COLD_SCRIPT = """
import contextlib, io, json, sys
from eqmarkov.cli import main
from eqmarkov.extremal import l2_ratio_numeric
loaded = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (argv, code)
    loaded[argv[0]] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps(loaded))
"""


def _scipy_loaded_after(*argvs) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(eqmarkov.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_SCRIPT, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestColdStart:
    """Every subcommand runs on numpy alone: the closed-form route, the
    brute-force oracles and the Bessel zeros behind factors."""

    def test_closed_form_subcommands_never_load_scipy(self):
        loaded = _scipy_loaded_after(
            ["eqdensity", "--set", TWO, "--grid", "16"],
            ["verify", "--set", UNIT, "--trials", "5", "--seed", "0"],
            ["l2", "--set", UNIT, "--n", "6"],
        )
        assert loaded == {"eqdensity": [], "verify": [], "l2": []}

    def test_extremal_never_loads_scipy(self):
        loaded = _scipy_loaded_after(
            ["extremal", "--set", UNIT, "--n", "7"],
            ["extremal", "--set", TWO, "--n", "8", "--point", "0.5"],
            ["extremal", "--beta", "2.0", "--n", "6", "--point", "0.3"],
        )
        assert loaded == {"extremal": []}

    def test_factors_never_loads_scipy(self):
        # the benchmark's cold factors run (L2 factors included), then a
        # Jacobi weight on its own; the list is what both leave loaded
        loaded = _scipy_loaded_after(
            ["factors", "--set", UNIT, "--n", "8", "--k", "2", "--point", "0.3",
             "--alpha", "0.4", "--beta-exp", "0.7"],
            ["factors", "--set", UNIT, "--alpha", "0.4", "--beta-exp", "0.7"],
        )
        assert loaded == {"factors": []}
