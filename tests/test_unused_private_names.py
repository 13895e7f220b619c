"""Every module-level private name in the program is read somewhere in it.

Deleting a caller tends to leave its private helper behind, and a helper that
only tests still call is not part of the program. This parses every module of
`src/catgcn` and fails on a module-level `_function`, `_Class` or `_CONSTANT`
that no module of the package reads: a name load, an attribute such as
`graph._expand_rows`, or a string annotation. Reads from `tests/` do not count.
"""

import ast
import os

import pytest

from test_unused_imports import SRC, annotation_names

MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def private_definitions(tree: ast.Module) -> dict:
    """{name: line} of the private functions, classes and constants a module defines
    at its top level; dunder names such as `__all__` are not private."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                       if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set:
    """Names the module reads: loaded names, attribute names, and the names in
    string annotations."""
    used = annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unused_private_names(sources: dict) -> list:
    """(module, name, line) of each private definition no module in `sources` reads."""
    trees = {module: ast.parse(text, filename=module) for module, text in sources.items()}
    used = set().union(*map(read_names, trees.values()))
    return sorted((module, name, line) for module, tree in trees.items()
                  for name, line in private_definitions(tree).items() if name not in used)


def test_every_private_name_is_read_in_the_program():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    unused = unused_private_names(sources)
    assert not unused, "defined but never read in src/catgcn: " + ", ".join(
        f"{module}:{line} {name}" for module, name, line in unused)


@pytest.mark.parametrize("source, want", [
    ("def _column(tokens):\n    return tokens\n", [("m.py", "_column", 1)]),
    ("class _Lines:\n    pass\n", [("m.py", "_Lines", 1)]),
    ("_LIMIT = 1\n_LIMIT = 2\n", [("m.py", "_LIMIT", 2)]),
    ("_LIMIT: int = 1\n", [("m.py", "_LIMIT", 1)]),
    ("def _f():\n    pass\n\ndef g():\n    return _f()\n", []),
    ("class _A:\n    pass\n\ndef g(x: '_A'):\n    pass\n", []),
    ("def g():\n    return '_f'\n\ndef _f():\n    pass\n", [("m.py", "_f", 4)]),
    ("import m\n\ndef g():\n    return m._helper\n\ndef _helper():\n    pass\n", []),
    ("__all__ = []\n_done = False\n\ndef g():\n    global _done\n    _done = True\n",
     [("m.py", "_done", 2)]),
], ids=["function", "class", "constant", "annotated", "called", "annotation", "string",
        "attribute", "stored-only"])
def test_the_check_sees_an_unused_private_name(source, want):
    assert unused_private_names({"m.py": source}) == want
