"""Knowledge that one module owns stays in that module.

`functions.chunks` is the only loop over a grid's chunks, and the only
caller of `find_shared`; every other module of the package iterates
`chunks`. This walks the package's sources and fails if another module
names ``_CHUNK`` or ``find_shared``.

`maps` does no grid work: every bound it reads on a function's values
comes from `functions.value_range`, so it names no grid, chunk walk,
seminorm pass or closed form.

The rules on k, l and m are the library's (`functions.check_probe`,
`driver.check_sweep`); the CLI calls them and restates none, so it never
names the order cap ``MAX_ORDER``.

The grid density is one constant, `functions.GRID_FACTOR`: no function
takes a grid, `GridSpec` takes no arguments, and the CLI names neither
`GridSpec` nor a grid factor.
"""

import ast
from pathlib import Path

import pytest

import tameprobe
from tameprobe.functions import GridSpec

PRIVATE_TO_FUNCTIONS = {"_CHUNK", "find_shared"}
GRID_WORK = {"chunks", "GRID", "GridSpec", "seminorm_profile",
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


def test_one_grid_density():
    sources = sorted(Path(tameprobe.__file__).parent.glob("*.py"))
    takes_grid = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                if "grid" in {arg.arg for arg in
                              a.posonlyargs + a.args + a.kwonlyargs}:
                    takes_grid.append(f"{path.name}:{node.lineno}")
    assert takes_grid == []
    with pytest.raises(TypeError):
        GridSpec(64)
    with pytest.raises(TypeError):
        GridSpec(factor=64)
    cli = ast.parse((Path(tameprobe.__file__).parent / "cli.py").read_text())
    strings = {n.value for n in ast.walk(cli)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert "GridSpec" not in set(names(cli))
    assert not any("grid_factor" in s or "grid-factor" in s
                   for s in set(names(cli)) | strings)
