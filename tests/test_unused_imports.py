"""Every name a program module imports is used in it.

Deleting code tends to leave its imports behind. This parses each module of
`src/catgcn` except the package `__init__` (whose imports are its exports)
and fails on an imported name the module never reads. String annotations
count as reads of the names they contain.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "catgcn")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """{bound name: line} of every import statement, `from __future__` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set:
    """Names the module reads, including those inside string annotations."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | annotation_names(tree)


def annotation_names(tree: ast.Module) -> set:
    """Names inside the module's string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    used = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{module}: imported but never used: " + ", ".join(
        f"{name} (line {line})" for name, line in sorted(unused.items()))


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nx: 'd' = b\n")
    assert set(imported_names(tree)) - read_names(tree) == {"os"}
