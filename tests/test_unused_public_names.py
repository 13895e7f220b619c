"""Every module-level public function and class in the program is read somewhere in it.

The companion of `test_unused_private_names`: a public helper whose last
program caller is deleted is still importable, so nothing else fails, yet it
is no longer part of the program. This parses every module of `src/catgcn`
and fails on a module-level function or class without a leading underscore
that no module of the package reads outside its own definition: a name load,
an attribute, a string annotation, or an import, so a re-export from the
package `__init__` counts. Reads from `tests/` do not count.
"""

import ast
import os

import pytest

from test_unused_imports import SRC
from test_unused_private_names import read_names

MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statement_reads(node: ast.stmt) -> set:
    """Names one top-level statement reads, the names it imports included."""
    used = read_names(ast.Module(body=[node], type_ignores=[]))
    if isinstance(node, ast.ImportFrom):
        used |= {alias.name for alias in node.names}
    return used


def unused_public_names(sources: dict) -> list:
    """(module, name, line) of each public function or class that no top-level
    statement of `sources` reads, its own definition aside."""
    trees = {module: ast.parse(text, filename=module) for module, text in sources.items()}
    statements = [(node, statement_reads(node)) for tree in trees.values() for node in tree.body]
    return sorted(
        (module, node.name, node.lineno) for module, tree in trees.items() for node in tree.body
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
        and not any(node.name in used for other, used in statements if other is not node))


def test_every_public_name_is_read_in_the_program():
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    unused = unused_public_names(sources)
    assert not unused, "defined but never read in src/catgcn: " + ", ".join(
        f"{module}:{line} {name}" for module, name, line in unused)


@pytest.mark.parametrize("sources, want", [
    ({"m.py": "def size_groups(sizes):\n    return sizes\n"}, [("m.py", "size_groups", 1)]),
    ({"m.py": "class Report:\n    pass\n"}, [("m.py", "Report", 1)]),
    ({"m.py": "def walk(n):\n    return walk(n - 1) if n else 0\n"}, [("m.py", "walk", 1)]),
    ({"m.py": "def f():\n    pass\n\ndef g():\n    return f()\n"}, [("m.py", "g", 4)]),
    ({"a.py": "def f():\n    pass\n", "b.py": "from .a import f\n"}, []),
    ({"a.py": "def f():\n    pass\n", "b.py": "from . import a\n\ndef _g():\n    a.f()\n"},
     []),
    ({"m.py": "class A:\n    pass\n\ndef _g(x: 'A'):\n    pass\n"}, []),
    ({"m.py": "def _g():\n    return 'f'\n\ndef f():\n    pass\n"}, [("m.py", "f", 4)]),
    ({"m.py": "X = 1\n\ndef _f():\n    pass\n"}, []),
], ids=["function", "class", "only-itself", "called", "imported", "attribute", "annotation",
        "string", "constants-and-private-aside"])
def test_the_check_sees_an_unused_public_name(sources, want):
    assert unused_public_names(sources) == want
