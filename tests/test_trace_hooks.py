"""The benchmark's per-layer spans (`bench/spans.py`) wrap tameprobe's
functions and methods by name, and skip a method that no class defines. So
every name they list must still be bound where they look for it: moving a
method between classes would otherwise zero its span in silence. `bench/`
is only read."""

import importlib.util
from pathlib import Path

from tameprobe import maps
from tameprobe.functions import UNIT_INTERVAL, zero
from tameprobe.primitives import Exp

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
