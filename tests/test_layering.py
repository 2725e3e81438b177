"""The chunk walk of a grid pass stays in one module.

`functions.chunks` is the only loop over a grid's chunks, and the only
caller of `find_shared`; every other module of the package iterates
`chunks`. This walks the package's sources and fails if another module
names ``_CHUNK`` or ``find_shared``.
"""

import ast
from pathlib import Path

import tameprobe

PRIVATE_TO_FUNCTIONS = {"_CHUNK", "find_shared"}


def names(tree):
    """Every identifier a module's syntax tree names or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_functions_walks_chunks():
    sources = sorted(Path(tameprobe.__file__).parent.glob("*.py"))
    assert "functions.py" in {p.name for p in sources}
    found = {}
    for path in sources:
        if path.name == "functions.py":
            continue
        used = PRIVATE_TO_FUNCTIONS & set(names(ast.parse(path.read_text())))
        if used:
            found[path.name] = sorted(used)
    assert found == {}
