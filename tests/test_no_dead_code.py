"""Every function, class and method of the package is used somewhere.

A reference is a NAME token of Python's `tokenize`, so a mention in a
docstring, comment or error message keeps nothing alive.  A definition counts
as used when its name is referenced in src/, tests/ or perfbench/ anywhere but
on its own def or class line; and it counts as reached when it is referenced
so in src/ or perfbench/ alone, or named in a string literal of
perfbench/spans.py, which looks the functions it times up by name.
Module-level dunders (such as `extremal.__getattr__`) are looked up by Python
itself and skipped; so are dunder methods.
"""

import ast
import pathlib
import re
import tokenize
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eqmarkov"
CODE_FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
FILES = CODE_FILES + sorted((ROOT / "tests").glob("*.py"))
SPANS = ROOT / "perfbench" / "spans.py"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# definitions that only tests reach, each with the reason it stays in src/
TEST_ONLY = {
    "affine_image": "the affine-covariance tests move sets with it",
    "videnskii_check": "the extremal tests compare the LP with Videnskii's closed form through it",
}


def _tokens(path: pathlib.Path) -> list:
    with path.open("rb") as fh:
        return list(tokenize.tokenize(fh.readline))


TOKENS = {path: _tokens(path) for path in FILES}
# (line, name) of every NAME token, per file
NAMES = {
    path: [(tok.start[0], tok.string) for tok in tokens if tok.type == tokenize.NAME]
    for path, tokens in TOKENS.items()
}
ALL_REFERENCES = Counter(name for path in FILES for _, name in NAMES[path])
CODE_REFERENCES = Counter(name for path in CODE_FILES for _, name in NAMES[path])
SPAN_STRINGS = Counter(
    word for tok in TOKENS[SPANS] if tok.type == tokenize.STRING for word in re.findall(r"\w+", tok.string)
)


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


def _own(path, line, name) -> int:
    return sum(1 for row, word in NAMES[path] if row == line and word == name)


@pytest.mark.parametrize("path, line, name", [d[1:] for d in DEFINITIONS], ids=[d[0] for d in DEFINITIONS])
def test_definition_is_referenced(path, line, name):
    assert ALL_REFERENCES[name] > _own(path, line, name), f"{name} ({path.name}:{line}) is never referenced"


@pytest.mark.parametrize(
    "path, line, name",
    [d[1:] for d in DEFINITIONS if d[3] not in TEST_ONLY],
    ids=[d[0] for d in DEFINITIONS if d[3] not in TEST_ONLY],
)
def test_definition_is_reached_outside_tests(path, line, name):
    reached = CODE_REFERENCES[name] > _own(path, line, name) or SPAN_STRINGS[name] > 0
    assert reached, f"{name} ({path.name}:{line}) is reached only from tests"
