"""Every definition, constant and import in src/nlts is used by the package itself.

A top-level function or class, a non-dunder method, or a name a
module-level assignment binds (a constant) passes when its name is
referenced (as a name or an attribute) somewhere in src/nlts outside its
own definition, or when it is listed in an ``__all__``.  A name an import
binds passes when its module reads it, or when it is listed in an
``__all__``.  Code that only the tests use belongs in tests/.
"""

import ast
from pathlib import Path

import nlts

SRC = Path(nlts.__file__).parent


def _parse_sources():
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }


#: Defined in src/nlts for a caller outside it: perfbench/tracing.py reads
#: a traced block's branch against core.MODE.
USED_OUTSIDE = {"core.py:MODE"}


def _definitions(tree):
    """Yield (qualified name, name, node) for top-level defs, their methods
    and the non-dunder names module-level assignments bind."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, name.id, node
        if not isinstance(node, defs):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member.name, member


def _references(tree, skip=None):
    """Names and attributes referenced in tree, leaving out the subtree skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _exported(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def unreferenced(sources):
    exported = set().union(*(_exported(tree) for tree in sources.values()))
    unused = []
    for module, tree in sources.items():
        others = set().union(
            *(_references(t) for m, t in sources.items() if m != module)
        )
        for qualname, name, node in _definitions(tree):
            if name in exported or name in others:
                continue
            if name not in _references(tree, skip=node):
                unused.append(f"{module}:{qualname}")
    return [u for u in unused if u not in USED_OUTSIDE]


def unused_imports(sources):
    """module:name for each name an import binds that its module never reads."""
    exported = set().union(*(_exported(tree) for tree in sources.values()))
    unused = []
    for module, tree in sources.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read and name not in exported:
                    unused.append(f"{module}:{name}")
    return unused


def test_no_unreferenced_definitions():
    assert unreferenced(_parse_sources()) == []


def test_no_unused_imports():
    assert unused_imports(_parse_sources()) == []


def test_the_scans_find_a_stale_import_and_constant():
    # a module that imports Counter and defines LIMIT, and uses neither
    stale = ast.parse("from collections import Counter\nLIMIT = 4\n")
    sources = {**_parse_sources(), "stale.py": stale}
    assert unused_imports(sources) == ["stale.py:Counter"]
    assert unreferenced(sources) == ["stale.py:LIMIT"]
