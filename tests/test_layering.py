"""Knowledge that one module owns stays in that module.

`functions.chunks` is the only loop over a grid's chunks, and the only
caller of `find_shared`; every other module of the package iterates
`chunks`. This walks the package's sources and fails if another module
names ``_CHUNK`` or ``find_shared``.

`maps` does no grid work: every bound it reads on a function's values
comes from `functions.value_range`, so it names no grid, chunk walk,
seminorm pass or closed form.

The rules on k, l, m and the grid factor are the library's
(`functions.check_probe`, `driver.check_sweep`, `GridSpec`); the CLI calls
them and restates none, so it never names the order cap ``MAX_ORDER``.
"""

import ast
from pathlib import Path

import tameprobe

PRIVATE_TO_FUNCTIONS = {"_CHUNK", "find_shared"}
GRID_WORK = {"chunks", "DEFAULT_GRID", "GridSpec", "seminorm_profile",
             "seminorm_profiles", "_closed_form_amplitudes"}


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


def test_maps_does_no_grid_work():
    path = Path(tameprobe.__file__).parent / "maps.py"
    assert GRID_WORK & set(names(ast.parse(path.read_text()))) == set()


def test_cli_leaves_the_order_cap_to_the_library():
    path = Path(tameprobe.__file__).parent / "cli.py"
    assert "MAX_ORDER" not in set(names(ast.parse(path.read_text())))
