"""Every function, class and method in src/nlts is used by the package itself.

A top-level function or class, or a non-dunder method, passes when its name
is referenced (as a name or an attribute) somewhere in src/nlts outside its
own definition, or when it is listed in an ``__all__``.  Code that only the
tests use belongs in tests/.
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


def _definitions(tree):
    """Yield (qualified name, name, node) for top-level defs and their methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
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


def unreferenced():
    sources = _parse_sources()
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
    return unused


def test_no_unreferenced_definitions():
    assert unreferenced() == []
