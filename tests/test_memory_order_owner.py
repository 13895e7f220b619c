"""`autodiff` alone decides how a node block is laid out in memory.

The primitives of `autodiff` choose each array's memory order so that a
slot-major block gives the bits of a node-major one; `interaction` states the
model with those primitives and nothing else. A layout rule in `interaction`
would be a second owner of that decision, which the primitives' rules would
then have to know. This parses `src/catgcn/interaction.py` and fails on any
memory-order API it uses: `asfortranarray`, `ascontiguousarray`, `empty_like`,
the `.flags` or `.strides` of an array, or an `order=` argument.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "catgcn")
LAYOUT_NAMES = {"asfortranarray", "ascontiguousarray", "empty_like", "flags", "strides"}


def layout_uses(source: str) -> list:
    """(line, what) of each memory-order API the source names: a name or
    attribute in `LAYOUT_NAMES`, or a call's `order=` keyword."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in LAYOUT_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name in LAYOUT_NAMES:
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Call):
            found += [(node.lineno, "order=") for k in node.keywords if k.arg == "order"]
    return sorted(found)


def test_interaction_makes_no_memory_order_call():
    with open(os.path.join(SRC, "interaction.py"), encoding="utf-8") as fh:
        found = layout_uses(fh.read())
    assert found == [], "interaction.py decides memory order: " + ", ".join(
        f"line {line} uses {what}" for line, what in found)


def test_the_check_sees_every_memory_order_api():
    source = ("import numpy as np\nfrom numpy import empty_like\n"
              "ids = np.asfortranarray(ids)\nx = np.ascontiguousarray(x)\n"
              "laid = empty_like(x)\nif x.flags.c_contiguous and x.strides[0]:\n"
              "    y = x.copy(order='F')\nz = np.zeros_like(x)\n")
    assert layout_uses(source) == [
        (2, "empty_like"), (3, "asfortranarray"), (4, "ascontiguousarray"),
        (5, "empty_like"), (6, "flags"), (6, "strides"), (7, "order=")]
