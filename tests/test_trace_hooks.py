"""The benchmark's per-layer spans (`bench/spans.py`) wrap tameprobe's
functions and methods by name, and skip a method that no class defines. So
every name they list must still be bound where they look for it: moving a
method between classes would otherwise zero its span in silence. `bench/`
is only read."""

import importlib.util
import math
from pathlib import Path

from tameprobe import driver, maps
from tameprobe.functions import UNIT_INTERVAL, zero
from tameprobe.primitives import Exp, Sin
from tameprobe.tameness import PNormSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_spans",
                                               BENCH / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _module(name):
    return importlib.import_module(f"tameprobe.{name}")


def test_every_hook_replaces_a_binding():
    originals = {(mod, attr): getattr(_module(mod), attr)
                 for mod, attr, _, _ in spans.FUNCTIONS}
    map_spec, x = maps.PostComposition(Exp((0.0, 1.0))), zero(UNIT_INTERVAL)
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        for mod, attr, name, _ in spans.FUNCTIONS:
            fn = originals[(mod, attr)]
            assert any(orig is fn for _, _, orig in patched), name
        for mod, base, attr, name, _ in spans.METHODS:
            base_cls = getattr(_module(mod), base)
            assert any(isinstance(owner, type) and issubclass(owner, base_cls)
                       and key == attr for owner, key, _ in patched), name
        # a traced call records its span
        map_spec.in_domain(x)
        assert [s[0] for s in tracer.spans] == ["maps.in_domain"]
    finally:
        tracer.uninstall()
    for owner, key, fn in patched:
        assert vars(owner)[key] is fn
    for (mod, attr), fn in originals.items():
        assert getattr(_module(mod), attr) is fn


def test_residual_pass_is_traced():
    # the ex2 residual pass reaches trig, primitives, composition and node
    # evaluation through names the spans wrap; a trig call under another
    # name, or a coeffs no longer defined per node class, would drop one
    map_spec = maps.CirclePullback(Sin(omega=2.0 * math.pi), 1)
    params = driver.ProbeParams(k=3, l=8, m=16, s0=0.0)
    z, u = driver.build_probe(params, map_spec)
    v = map_spec.gateaux(zero() + z, u) - map_spec.gateaux(zero(), u)
    tracer = spans.Tracer()
    try:
        tracer.install()
        driver.residual_tz(map_spec, zero(), params, z, v, PNormSpec(2))
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert {"driver.residual_tz", "primitives.trig_cycle",
            "primitives.taylor_coeffs", "jets.compose_series",
            "functions.Node.coeffs"} <= names
