"""Every Tolerances knob is read by the program and turned by some caller,
and every fixed constant in the config docstring's list has its listed value."""

import ast
import dataclasses
import importlib
import pathlib
import re

import pytest

from eqmarkov import config
from eqmarkov.config import Tolerances

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIG = ROOT / "src" / "eqmarkov" / "config.py"
PROGRAM = [path for path in sorted((ROOT / "src" / "eqmarkov").glob("*.py")) if path != CONFIG]
CALLERS = PROGRAM + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
SOURCES = "\n".join(path.read_text(encoding="utf-8") for path in PROGRAM)
FIELDS = [f.name for f in dataclasses.fields(Tolerances)]


def _turned() -> set:
    """Keywords of every Tolerances(...) and dataclasses.replace(...) call."""
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            record = isinstance(func, ast.Name) and func.id == "Tolerances" or (
                isinstance(func, ast.Attribute) and func.attr == "Tolerances")
            copy = (isinstance(func, ast.Attribute) and func.attr == "replace"
                    and isinstance(func.value, ast.Name) and func.value.id == "dataclasses")
            if record or copy:
                names.update(k.arg for k in node.keywords if k.arg is not None)
    return names


TURNED = _turned()
# "  module.NAME = value  description" lines of the config docstring
LISTED = re.findall(r"^  (\w+)\.([\w.]+) = (.+?)(?:  |$)", config.__doc__, re.MULTILINE)


@pytest.mark.parametrize("name", FIELDS)
def test_knob_is_read(name):
    assert re.search(rf"\.{name}\b", SOURCES), f"Tolerances.{name} is never read by the program"


@pytest.mark.parametrize("name", FIELDS)
def test_knob_is_turned(name):
    assert name in TURNED, f"no caller sets Tolerances.{name}: make it a constant beside its reader"


@pytest.mark.parametrize("module, name, value", LISTED, ids=[name for _, name, _ in LISTED])
def test_listed_constant_has_its_value(module, name, value):
    obj = importlib.import_module(f"eqmarkov.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert obj == ast.literal_eval(value)
    source = (ROOT / "src" / "eqmarkov" / f"{module}.py").read_text(encoding="utf-8")
    last = name.split(".")[-1]
    assert len(re.findall(rf"\b{last}\b", source)) >= 2, f"{module}.{name} is never read"
