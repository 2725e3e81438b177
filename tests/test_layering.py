"""Knowledge that one module owns stays in that module.

`functions.chunks` is the only loop over a grid's chunks, and the only
caller of `find_shared`; every other module of the package iterates
`chunks`. This walks the package's sources and fails if another module
names ``_CHUNK``, ``_CHUNK_FLOATS`` or ``find_shared``.

`maps` does no grid work: every bound it reads on a function's values
comes from `functions.value_range`, so it names no grid, chunk walk,
seminorm pass or closed form.

The rules on k, l and m are the library's (`functions.check_probe`,
`driver.check_sweep`); the CLI calls them and restates none, so it never
names the order cap ``MAX_ORDER``.

The grid density is one constant, `functions.GRID_FACTOR`: no function
takes a grid, `GridSpec` takes no arguments, and the CLI names neither
`GridSpec` nor a grid factor.

The driver owns the whole anchor: it picks s0 on a grid of the map's
domain, or its one fallback point, and reads t0 there, so no map class
defines where to look for t0 (``t0_candidates``), a bracket for s0
(``s0_bracket``), a fixed interior s0 (``interior_s0``) or a fallback
point or pair (``fallback_s0``, ``fallback_anchor``).

Only `functions` knows where grid points lie: the driver's second anchor
point is a quarter period of the probe from s0, not a grid point, so the
driver names no grid (``GRID``, ``GridSpec``, ``GRID_FACTOR``) and reaches
the grid only through `chunks`.

A probe is `functions.probe(m, k, s0)` and its direction
`functions.constant(1/l)`: no module bundles the four numbers
(``ProbeParams``) or builds the pair from them (``build_probe``).

The certificate is the driver's: the probe's k-th derivative carries
(2 pi m)^(1/2) whatever the map, so `driver.fix_m` states the one
inequality that certifies m for both maps, takes no map, and no map class
defines it (``certifies``).

A constant multiple c * node is a product, `functions.mul(node,
Constant(c))`: no module defines, names or imports a node or constructor
of its own for it (``Scale``, ``scale``).

A node's frequency facts are one walk: every node class of `functions`
defines `spectrum`, which gives its slope and its frequency bound
together, and none defines the two retired methods (``max_frequency``,
``affine_slope``).

Whether a number is finite in double precision is one rule,
`primitives.is_finite`: no other module names ``OverflowError``, the
error that ``float`` of an int past double range raises.

An interface has one form: `maps.gateaux_fd` returns its sample as two
arrays, so no module defines a record for it (``SampledFunction``);
subtraction is addition of a negation, so `SmoothFunction.__add__` and
`evaluate` check their own arguments, with no private helper
(``_combine``, ``_check_arg``); and `GridSpec.points` always writes into
its caller's array, so ``out`` has no default.
"""

import ast
import inspect
from pathlib import Path

import pytest

import tameprobe
from tameprobe.functions import GridSpec

PRIVATE_TO_FUNCTIONS = {"_CHUNK", "_CHUNK_FLOATS", "find_shared"}
GRID_WORK = {"chunks", "GRID", "GridSpec", "seminorm_profile",
             "seminorm_profiles", "_closed_form_amplitudes"}
GRID_LAYOUT = {"GRID", "GridSpec", "GRID_FACTOR"}
RETIRED_ANCHOR_HOOKS = {"t0_candidates", "s0_bracket", "fallback_anchor",
                        "interior_s0", "fallback_s0"}
RETIRED_PROBE_NAMES = {"ProbeParams", "build_probe"}
RETIRED_CERTIFICATE_HOOK = "certifies"
RETIRED_SCALE_NAMES = {"Scale", "scale"}
RETIRED_FREQUENCY_METHODS = {"max_frequency", "affine_slope"}
RETIRED_SECOND_FORMS = {"SampledFunction", "_combine", "_check_arg"}
NODE_CLASSES = {"Constant", "Affine", "SinusoidProbe", "Sum", "Product",
                "PrimitiveCompose"}


def names(tree):
    """Every identifier a module's syntax tree names or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def defined(tree):
    """Every class, function and parameter name a module's syntax tree
    defines."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg


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


def test_driver_knows_no_grid_layout():
    path = Path(tameprobe.__file__).parent / "driver.py"
    used = set(names(ast.parse(path.read_text())))
    assert "chunks" in used
    assert GRID_LAYOUT & used == set()


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


def class_members(tree):
    """(class, name) for each method and attribute a class body defines."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                yield cls.name, node.name
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield cls.name, target.id
            elif isinstance(node, ast.AnnAssign):
                yield cls.name, node.target.id


def test_maps_define_no_anchor_search():
    path = Path(tameprobe.__file__).parent / "maps.py"
    tree = ast.parse(path.read_text())
    members = {name for _, name in class_members(tree)}
    assert {"argument", "leading_primitive"} <= members
    assert members & RETIRED_ANCHOR_HOOKS == set()
    module_names = {t.id for node in tree.body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
    anchor = [name for name in members | module_names
              if "s0" in name.lower() or "anchor" in name.lower()]
    assert anchor == []


def test_no_probe_bundle():
    sources = sorted(Path(tameprobe.__file__).parent.glob("*.py"))
    found = {}
    for path in sources:
        used = RETIRED_PROBE_NAMES & set(names(ast.parse(path.read_text())))
        if used:
            found[path.name] = sorted(used)
    assert found == {}


def test_the_driver_owns_the_certificate():
    path = Path(tameprobe.__file__).parent / "maps.py"
    members = {name for _, name in class_members(ast.parse(path.read_text()))}
    assert "argument" in members
    assert RETIRED_CERTIFICATE_HOOK not in members
    params = list(inspect.signature(tameprobe.driver.fix_m).parameters)
    assert params == ["k", "l", "m_estimate", "deriv_mag"]


def test_a_constant_multiple_is_a_product():
    sources = sorted(Path(tameprobe.__file__).parent.glob("*.py"))
    found = {}
    for path in sources:
        tree = ast.parse(path.read_text())
        used = RETIRED_SCALE_NAMES & (set(names(tree)) | set(defined(tree)))
        if used:
            found[path.name] = sorted(used)
    assert found == {}


def test_a_nodes_frequency_facts_are_one_walk():
    path = Path(tameprobe.__file__).parent / "functions.py"
    members = set(class_members(ast.parse(path.read_text())))
    assert {(cls, "spectrum") for cls in NODE_CLASSES} <= members
    assert {m for m in members if m[1] in RETIRED_FREQUENCY_METHODS} == set()


def test_one_finiteness_rule():
    sources = sorted(Path(tameprobe.__file__).parent.glob("*.py"))
    found = [path.name for path in sources if path.name != "primitives.py"
             and "OverflowError" in set(names(ast.parse(path.read_text())))]
    assert found == []


def test_one_form_per_interface():
    sources = sorted(Path(tameprobe.__file__).parent.glob("*.py"))
    found = {}
    for path in sources:
        used = RETIRED_SECOND_FORMS & set(defined(ast.parse(path.read_text())))
        if used:
            found[path.name] = sorted(used)
    assert found == {}
    out = inspect.signature(GridSpec.points).parameters["out"]
    assert out.default is inspect.Parameter.empty
