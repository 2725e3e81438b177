"""The benchmark's per-layer spans (`bench/spans.py`) wrap tameprobe's
functions and methods by name, and skip a method that no class defines. So
every name they list must still be bound where they look for it: moving a
method between classes would otherwise zero its span in silence, and a
layer that reads zero on a workload fails the benchmark's traced run.
`bench/` is only read."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from tameprobe import driver, maps
from tameprobe.functions import UNIT_INTERVAL, constant, probe, zero
from tameprobe.primitives import Exp, Sin
from tameprobe.tameness import PNormSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
# run.py puts bench/ on sys.path to import its workloads
_path = list(sys.path)
run = _load("run")
sys.path[:] = _path
PER_LAYER = [m["name"] for m in json.loads(
    (BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]


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
    z, u = probe(16, 3, 0.0), constant(0.125)
    v = map_spec.gateaux(zero() + z, u) - map_spec.gateaux(zero(), u)
    tracer = spans.Tracer()
    try:
        tracer.install()
        driver.residual_tz(v, map_spec.leading_term(zero(), z, 3),
                           map_spec.top_order(3), (0.0, 0.25 / 16), 0.125,
                           PNormSpec(2))
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert {"driver.residual_tz", "primitives.trig_cycle",
            "primitives.taylor_coeffs", "jets.compose_series",
            "functions.Node.coeffs"} <= names


@pytest.mark.parametrize("name", sorted(run.workloads.WORKLOADS))
def test_every_required_layer_is_nonzero(name, tmp_path):
    # one seed-0 claim under the benchmark's tracer; `--trace 1` marks the
    # run incorrect when a layer it requires reads zero
    argv, output = run.workloads.build_inputs(name, 0, tmp_path)
    tracer = spans.Tracer()
    claim = run.run_claim(run.import_tameprobe(), name, 0, argv, output,
                          tracer)
    assert claim["ok"]
    (totals,) = tracer.per_claim().values()
    # the import time is measured in fresh interpreters, not by spans
    metrics = {k: totals.get(k, 0.0) for k in PER_LAYER
               if k != "tameprobe.import.s"}
    required = run.layers_to_cover(name, metrics)
    assert required
    assert [k for k in required if metrics[k] == 0] == []
