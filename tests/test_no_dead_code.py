"""Every function, class and method of the package is used somewhere.

A definition counts as used when its name appears in src/, tests/ or
perfbench/ anywhere but on its own def or class line.  Module-level dunders
(such as `extremal.__getattr__`) are looked up by Python itself and skipped;
so are dunder methods.
"""

import ast
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eqmarkov"
FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)
LINES = {path: path.read_text(encoding="utf-8").splitlines() for path in FILES}
WORDS = Counter(word for lines in LINES.values() for line in lines for word in re.findall(r"\w+", line))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(id, path, def line, name) of every module-level function and class and
    of every non-dunder method of those classes."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, DEFS) or _is_dunder(node.name):
                continue
            out.append((f"{path.stem}.{node.name}", path, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{path.stem}.{node.name}.{sub.name}", path, sub.lineno, sub.name)
                    for sub in node.body
                    if isinstance(sub, DEFS) and not _is_dunder(sub.name)
                ]
    return out


DEFINITIONS = _definitions()


@pytest.mark.parametrize("path, line, name", [d[1:] for d in DEFINITIONS], ids=[d[0] for d in DEFINITIONS])
def test_definition_is_referenced(path, line, name):
    own = re.findall(r"\w+", LINES[path][line - 1]).count(name)
    assert WORDS[name] > own, f"{name} ({path.name}:{line}) is never referenced"
