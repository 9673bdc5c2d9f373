"""Every Tolerances knob is read somewhere outside the record that declares it."""

import dataclasses
import pathlib
import re

import pytest

from eqmarkov.config import Tolerances

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIG = ROOT / "src" / "eqmarkov" / "config.py"
SOURCES = "\n".join(
    path.read_text(encoding="utf-8")
    for path in sorted((ROOT / "src" / "eqmarkov").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    if path != CONFIG
)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Tolerances)])
def test_knob_is_read(name):
    assert re.search(rf"\.{name}\b", SOURCES), f"Tolerances.{name} is never read"
