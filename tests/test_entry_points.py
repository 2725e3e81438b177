"""Typed errors at every library entry point that `tameprobe` exports.

One scalar argument of one entry point at a time takes a degenerate
value: nan, +-inf, 0, -1, True, or an int past double range. The other
arguments keep small valid values, and warnings are errors. The call must
raise ValueError, PrecisionBudgetError or DomainViolation, or return a
result whose numbers are all finite.

The records hold what they are given, and the rest of `NO_SCALAR` take
no scalar but what the drawn entry points build.
"""

import dataclasses
import inspect
import math
import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tameprobe
from tameprobe import (
    CirclePullback,
    Cos,
    DomainViolation,
    Exp,
    PNormSpec,
    Polynomial,
    PrecisionBudgetError,
    Sin,
    constant,
    find_t0,
    fix_m,
    gateaux_fd,
    growth_sweep,
    probe,
    residual_tz,
    seminorm_profile,
    zero,
)
from tameprobe.primitives import is_finite

DEGENERATE = (math.nan, math.inf, -math.inf, 0, -1, True, 10**400)
TYPED = (ValueError, PrecisionBudgetError, DomainViolation)
TWO_PI = 2.0 * math.pi
NO_SCALAR = {"GrowthRecord", "SweepResult", "TameCheckReport",
             "SampledFunction", "ScalarPrimitive", "zero", "GridSpec",
             "SmoothFunction", "PostComposition", "find_s0", "pnorm_eval",
             "check_tame_estimate", "estimate_residual_bound"}


def ex2():
    """The pullback of sin(2 pi t) at x = zero, and a probe pair at m = 16
    and k = 3 with its v and leading term."""
    map_spec = CirclePullback(Sin(omega=TWO_PI), 1)
    x, u, z = zero(), constant(0.125), probe(16, 3, 0.2)
    v = map_spec.gateaux(x + z, u) - map_spec.gateaux(x, u)
    return map_spec, x, u, v, map_spec.leading_term(x, z, 3)


def call(build, kwargs, key, value):
    """build(**kwargs) with argument ``key`` replaced by ``value``; a key
    "name[i]" replaces entry i of the sequence argument name."""
    name, _, i = key.partition("[")
    if i:
        entries = list(kwargs[name])
        entries[int(i[:-1])] = value
        value = tuple(entries)
    return build(**{**kwargs, name: value})


# (entry point, its valid keyword arguments, the argument that varies)
def cases():
    map_spec, x, u, v, lead = ex2()
    rho = PNormSpec(2)
    yield from [
        (Sin, dict(omega=TWO_PI, amplitude=1.0), "omega"),
        (Sin, dict(omega=TWO_PI, amplitude=1.0), "amplitude"),
        (Cos, dict(omega=TWO_PI, amplitude=1.0), "omega"),
        (Cos, dict(omega=TWO_PI, amplitude=1.0), "amplitude"),
        (CirclePullback, dict(phi=Sin(omega=TWO_PI), n=1), "n"),
        (PNormSpec, dict(truncation=2), "truncation"),
        (constant, dict(c=0.5), "c"),
        (probe, dict(m=16, k=3, s0=0.2), "m"),
        (probe, dict(m=16, k=3, s0=0.2), "k"),
        (probe, dict(m=16, k=3, s0=0.2), "s0"),
        (seminorm_profile, dict(f=probe(16, 3, 0.2), max_order=2),
         "max_order"),
        (find_t0, dict(map_spec=map_spec, x=x, s0=0.2), "s0"),
        (gateaux_fd, dict(map_spec=map_spec, x=x, u=u, t=1e-3), "t"),
    ]
    for key in ("k", "l", "m_estimate", "deriv_mag"):
        yield fix_m, dict(k=3, l=8, m_estimate=10.0, deriv_mag=1.0), key
    for key in ("k", "l"):
        yield (growth_sweep, dict(map_spec=map_spec, x=x, rho1=rho, rho2=rho,
                                  k=3, l=8, m_list=(16, 32)), key)
    for key in ("top", "s0", "eps0"):
        yield (residual_tz, dict(v=v, lead=lead, top=2, s0=0.2, eps0=0.125,
                                 rho2=rho), key)
    for i in range(2):
        yield Polynomial, dict(coeffs=(0.0, 1.0)), f"coeffs[{i}]"
        yield Exp, dict(poly=(0.0, 1.0)), f"poly[{i}]"
        yield (growth_sweep, dict(map_spec=map_spec, x=x, rho1=rho, rho2=rho,
                                  k=3, l=8, m_list=(16, 32)), f"m_list[{i}]")


CASES = list(cases())


def all_finite(result) -> bool:
    """Every number the result holds is finite: in arrays, sequences and
    dataclass fields; other objects hold none."""
    if result is None or isinstance(result, (bool, str)):
        return True
    if isinstance(result, numbers.Number):
        return is_finite(result)
    if isinstance(result, np.ndarray):
        return bool(np.all(np.isfinite(result)))
    if isinstance(result, (list, tuple)):
        return all(map(all_finite, result))
    if dataclasses.is_dataclass(result):
        return all(all_finite(getattr(result, f.name))
                   for f in dataclasses.fields(result))
    return True


def test_every_exported_entry_point_is_drawn():
    exported = {name for name, obj in vars(tameprobe).items()
                if not name.startswith("_") and callable(obj)
                and not (inspect.isclass(obj) and issubclass(obj, Exception))}
    drawn = {build.__name__ for build, _, _ in CASES}
    assert drawn | NO_SCALAR == exported
    assert drawn & NO_SCALAR == set()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build, kwargs, key", CASES, ids=[
    f"{build.__name__}-{key}" for build, _, key in CASES])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(DEGENERATE))
def test_degenerate_scalar_is_typed_or_finite(build, kwargs, key, value):
    try:
        result = call(build, kwargs, key, value)
    except TYPED:
        return
    assert all_finite(result), (build, key, value, result)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [lambda f, c: f * c, lambda f, c: c * f],
                         ids=["f*c", "c*f"])
@pytest.mark.parametrize("value", DEGENERATE, ids=[
    "nan", "inf", "-inf", "0", "-1", "True", "10**400"])
def test_scale_by_degenerate_is_typed_or_finite(scale, value):
    # 10**400 raised a bare OverflowError from float(), and inf and nan
    # built a tree whose slope is nan
    f = probe(16, 3, 0.2)
    if not is_finite(value):
        with pytest.raises(ValueError, match="a scale must be finite"):
            scale(f, value)
        return
    g = scale(f, value)
    assert all_finite(g) and all_finite(seminorm_profile(g, 2))


def test_product_of_functions_is_a_type_error():
    # `*` scales a function by a number; no caller multiplies two functions
    f = probe(16, 3, 0.2)
    with pytest.raises(TypeError):
        f * f
