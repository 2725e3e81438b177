"""Per-layer spans for the benchmark, recorded from outside the package.

`Tracer.install` replaces each traced function of tameprobe with a wrapper
that records one span per call: name, parent span, claim id, start and end,
plus work counts computed from array shapes at the call boundary. The
modules import each other by name, so every module attribute bound to a
traced function is replaced, not only the one in the defining module, and
a traced method is wrapped on every subclass that defines it. `uninstall`
restores the originals, so untraced claims run the unmodified code.

Spans stay in memory until `write` saves them at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("primitives", "jets", "functions", "maps", "tameness", "driver",
           "cli")


def _convolve_work(args, result):
    a, b = args[0], args[1]
    rows = a.shape[0]
    width = a.size // rows if rows else 0
    # row i of the truncated product contracts i+1 pairs at every point
    return {"madds": rows * (rows + 1) // 2 * width,
            "bytes": a.nbytes + b.nbytes + result.nbytes}


def _compose_work(args, result):
    outer, inner = args[0], args[1]
    # the linear shortcut applies when inner has nothing above order 1
    return {"horner": int(outer.shape[0] > 1 and bool(np.any(inner[2:])))}


def _argument_points(args, result):
    return {"points": int(np.size(args[1]))}


def _result_points(args, result):
    return {"points": int(result.size)}


# (module, function, span name, work counter)
FUNCTIONS = (
    ("jets", "convolve_trunc", "jets.convolve_trunc", _convolve_work),
    ("jets", "compose_series", "jets.compose_series", _compose_work),
    ("primitives", "trig_cycle", "primitives.trig_cycle", None),
    ("functions", "seminorm_profile", "functions.seminorm_profile", None),
    ("tameness", "pnorm_eval", "tameness.pnorm_eval", None),
    ("tameness", "check_tame_estimate", "tameness.check_tame_estimate", None),
    ("driver", "find_t0", "driver.find_t0", None),
    ("driver", "find_s0", "driver.find_s0", None),
    ("driver", "residual_tz", "driver.residual_tz", None),
    ("driver", "growth_sweep", "driver.growth_sweep", None),
    ("driver", "estimate_residual_bound", "driver.estimate_residual_bound",
     None),
    ("driver", "fix_m", "driver.fix_m", None),
    ("cli", "main", "cli.main", None),
)

# (module, base class, method, span name, work counter); every subclass
# that defines the method gets its own wrapper under the same span name
METHODS = (
    ("functions", "Node", "coeffs", "functions.Node.coeffs", None),
    ("functions", "GridSpec", "points", "functions.GridSpec.points",
     _result_points),
    ("primitives", "ScalarPrimitive", "taylor_coeffs",
     "primitives.taylor_coeffs", _argument_points),
    ("maps", "MapSpec", "gateaux", "maps.gateaux", None),
    ("maps", "MapSpec", "in_domain", "maps.in_domain", None),
)


def _family(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


class Tracer:
    """Spans of traced claims: ``[name, parent, claim, start, end, work]``.

    ``parent`` is the index of the enclosing span or -1; ``work`` is a dict
    of computed counts or None.
    """

    def __init__(self):
        self.spans = []
        self.claim = 0
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.claim, clock(),
                    0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span[5] = work(args, result)
            finally:
                span[4] = clock()
                stack.pop()
            return result
        return traced

    def install(self):
        pkg = importlib.import_module("tameprobe")
        mods = [pkg] + [importlib.import_module(f"tameprobe.{m}")
                        for m in MODULES]
        for mod_name, attr, name, work in FUNCTIONS:
            fn = getattr(importlib.import_module(f"tameprobe.{mod_name}"), attr)
            wrapper = self._wrap(name, fn, work)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        for mod_name, base, attr, name, work in METHODS:
            base_cls = getattr(importlib.import_module(f"tameprobe.{mod_name}"),
                               base)
            for cls in _family(base_cls):
                fn = cls.__dict__.get(attr)
                if fn is not None:
                    self._patched.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(name, fn, work))

    def uninstall(self):
        while self._patched:
            owner, key, fn = self._patched.pop()
            setattr(owner, key, fn)

    def per_claim(self) -> dict:
        """Per claim id: calls, inclusive ``s``, ``self_s`` and the work
        counts of every span name, plus the derived seminorm and Horner
        quantities."""
        spans = self.spans
        covered = [0.0] * len(spans)
        grid_points = defaultdict(int)
        for name, parent, _, start, end, work in spans:
            if parent >= 0:
                covered[parent] += end - start
                if name == "functions.GridSpec.points":
                    grid_points[parent] += work["points"]
        totals = defaultdict(lambda: defaultdict(float))
        for i, (name, _, claim, start, end, work) in enumerate(spans):
            t = totals[claim]
            t[name + ".calls"] += 1
            t[name + ".s"] += end - start
            t[name + ".self_s"] += end - start - covered[i]
            for key, val in (work or {}).items():
                t[f"{name}.{key}"] += val
            if name == "functions.seminorm_profile":
                if i in grid_points:
                    t[name + ".grid_points"] += grid_points[i]
                else:
                    t[name + ".closed_form"] += 1
        for t in totals.values():
            for name, part, frac in (
                    ("jets.compose_series", "horner", "horner_frac"),
                    ("functions.seminorm_profile", "closed_form",
                     "closed_form_frac")):
                calls = t.get(name + ".calls", 0)
                t[f"{name}.{frac}"] = t.get(f"{name}.{part}", 0) / calls \
                    if calls else 0.0
        return {claim: dict(t) for claim, t in totals.items()}

    def write(self, path):
        """One JSON array per span: index, parent, claim, name, start, end."""
        with open(path, "w") as fh:
            for i, (name, parent, claim, start, end, _) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, claim, name, start, end]))
                fh.write("\n")
