"""The program modules import each other at module level, without a cycle.

An import cycle between `src/catgcn` modules loads only while one module of
it defers its import into a function body, so which module owns a name then
depends on import order. This parses each module of `src/catgcn`, takes its
runtime imports of sibling modules, and fails on one made inside a function
body and on any cycle among them. `if TYPE_CHECKING:` blocks are type-only
and never run, so their imports are left out.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "catgcn")
MODULES = {f[:-3] for f in os.listdir(SRC) if f.endswith(".py")}


def sibling_imports(tree: ast.Module, modules=MODULES) -> list:
    """(sibling module, line, inside a function) of each runtime import of a
    module of the package (the program imports its siblings relatively);
    `from . import name` of a name that is no module imports `__init__`."""
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child, in_function)
            return
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = ([node.module.split(".")[0]] if node.module else
                     [a.name if a.name in modules else "__init__" for a in node.names])
            found.extend((m, node.lineno, in_function) for m in names)
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return found


def import_graph(sources: dict) -> tuple:
    """({module: sibling modules it imports at run time}, [(module, sibling,
    line) of each import made inside a function body]) of {module: source}."""
    graph, deferred = {}, []
    for name, source in sources.items():
        imports = sibling_imports(ast.parse(source, filename=name), set(sources))
        graph[name] = {m for m, _, _ in imports}
        deferred += [(name, m, line) for m, line, inside in imports if inside]
    return graph, deferred


def find_cycle(graph: dict) -> list:
    """One import cycle as [m0, m1, ..., m0], or [] when the graph has none."""
    state = dict.fromkeys(graph, 0)  # 0 unseen, 1 on the current path, 2 done
    path = []

    def walk(m):
        state[m] = 1
        path.append(m)
        for n in sorted(graph.get(m, ())):
            if state.get(n) == 1:
                return path[path.index(n):] + [n]
            if state.get(n) == 0 and (cycle := walk(n)):
                return cycle
        path.pop()
        state[m] = 2
        return []

    for m in sorted(graph):
        if state[m] == 0 and (cycle := walk(m)):
            return cycle
    return []


def program_sources() -> dict:
    sources = {}
    for name in sorted(MODULES):
        with open(os.path.join(SRC, f"{name}.py"), encoding="utf-8") as fh:
            sources[name] = fh.read()
    return sources


def test_no_function_body_imports_a_sibling_module():
    _, deferred = import_graph(program_sources())
    assert not deferred, "imports inside a function body: " + ", ".join(
        f"{m}.py:{line} imports {n}" for m, n, line in deferred)


def test_module_imports_form_no_cycle():
    graph, _ = import_graph(program_sources())
    assert graph["model"] >= {"autodiff", "interaction"}
    assert find_cycle(graph) == [], " -> ".join(find_cycle(graph))


def test_the_check_sees_a_cycle_and_a_deferred_import():
    graph, deferred = import_graph({
        "__init__": "__version__ = '0'\nfrom .a import f\n",
        "a": ("from typing import TYPE_CHECKING\nfrom . import __version__\n"
              "if TYPE_CHECKING:\n    from .c import T\nelse:\n    from . import c\n"
              "def f():\n    from .b import g\n    return g\n"),
        "b": "from .a import f\n",
        "c": "from . import a\n",
    })
    assert graph == {"__init__": {"a"}, "a": {"__init__", "b", "c"}, "b": {"a"}, "c": {"a"}}
    assert deferred == [("a", "b", 8)]
    assert find_cycle(graph) == ["__init__", "a", "__init__"]
    assert find_cycle({"a": {"b"}, "b": set(), "c": {"a"}}) == []
