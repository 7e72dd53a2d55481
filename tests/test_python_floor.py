"""The code stays inside the Python 3.10 floor that pyproject.toml declares.

Every file under src/, tests/ and perfbench/ is read (perfbench/ only read,
never imported here) and parsed with the 3.10 grammar, then scanned for the
names and calls that exist from 3.11 on and that this code could reach.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for tree in ("src", "tests", "perfbench")
    for path in (ROOT / tree).rglob("*.py")
)

# (module, name) pairs new in 3.11, whether imported from the module or read
# as an attribute of it
NEWER_NAMES = {
    ("typing", "Self"),
    ("datetime", "UTC"),
    ("enum", "StrEnum"),
}
NEWER_MODULES = {"tomllib"}
NEWER_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}


def floor_violations(source: str) -> list:
    """(line, what) for each use of a 3.11-only feature in source."""
    tree = ast.parse(source, feature_version=(3, 10))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.partition(".")[0] in NEWER_MODULES]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.partition(".")[0] in NEWER_MODULES:
                found.append((node.lineno, module))
            found += [(node.lineno, f"{module}.{a.name}") for a in node.names
                      if (module, a.name) in NEWER_NAMES]
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and (node.value.id, node.attr) in NEWER_NAMES:
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append((node.lineno, node.id))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("from_bytes", "to_bytes")):
            # 3.11 gave byteorder (and to_bytes' length) a default
            keywords = {k.arg for k in node.keywords}
            if len(node.args) < 2 and "byteorder" not in keywords:
                found.append((node.lineno, f"{node.func.attr} without a byteorder"))
    return found


def test_files_found():
    assert "src/nlts/cli.py" in FILES and "perfbench/run.py" in FILES
    assert "tests/test_python_floor.py" in FILES


@pytest.mark.parametrize("name", FILES)
def test_file_keeps_the_floor(name):
    assert floor_violations((ROOT / name).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def f[T](x: T) -> T:\n    return x\n",
])
def test_newer_grammar_rejected(source):
    with pytest.raises(SyntaxError):
        floor_violations(source)


@pytest.mark.parametrize("source,what", [
    ("n = int.from_bytes(b'ab')\n", "from_bytes without a byteorder"),
    ("b = (7).to_bytes(2)\n", "to_bytes without a byteorder"),
    ("b = (7).to_bytes()\n", "to_bytes without a byteorder"),
    ("import tomllib\n", "tomllib"),
    ("from tomllib import loads\n", "tomllib"),
    ("from typing import Self\n", "typing.Self"),
    ("import typing\nx: typing.Self\n", "typing.Self"),
    ("raise ExceptionGroup('e', [ValueError()])\n", "ExceptionGroup"),
    ("from datetime import UTC\n", "datetime.UTC"),
    ("import datetime\nz = datetime.UTC\n", "datetime.UTC"),
    ("from enum import StrEnum\n", "enum.StrEnum"),
    ("import enum\nclass E(enum.StrEnum):\n    A = 'a'\n", "enum.StrEnum"),
])
def test_newer_names_rejected(source, what):
    assert [w for _, w in floor_violations(source)] == [what]


@pytest.mark.parametrize("source", [
    "n = int.from_bytes(b'ab', 'big')\n",
    "n = int.from_bytes(b'ab', byteorder='little')\n",
    "b = (7).to_bytes(2, 'big')\n",
    "b = (7).to_bytes(length=2, byteorder='big')\n",
    "from typing import Optional\n",
    "import datetime\nz = datetime.timezone.utc\n",
])
def test_floor_code_passes(source):
    assert floor_violations(source) == []
