"""Counterexample driver: probe construction, m-sweeps, residual bounds.

The driver locates an anchor (t0, s0) where the leading derivative of the
outer function is nonzero, builds the oscillatory probe pair (z, u), and
sweeps the frequency parameter m. At the anchor the top derivative of the
difference v of directional derivatives grows like sqrt(m) while the
residual (everything except the extracted leading term) stays bounded,
which is what defeats any fixed uniform estimate.

The algorithms here are generic: the anchor search, the residual pass,
and the power-of-two search for a certified m. The anchor search
evaluates phi's argument once on a grid of the map's domain; s0 is the
grid point where |phi_lead| there is largest, or ANCHOR_FALLBACK when
no point is better than another, and t0 is the argument at s0, so no
equation is solved and s0 lies in x's period. What differs between the
maps (the leading derivative, the top order and phi's argument) comes
from the `MapSpec` hooks; the driver owns the whole anchor and, in
`fix_m`, the one inequality that a certified m obeys for both maps.

A sweep builds u = 1/l, df(x, u) and rho1(u) once and each probe z with
`functions.probe`; it checks x's membership in the map's domain once, and
x + z's once per m (building df(x + z, u) checks only the domain tag). It
evaluates v once per m at two points, s0 and the grid point nearest it,
and makes one grid pass over v (`residual_tz`), which takes no map: it is
given v, T_z's leading term (`MapSpec.leading_term`), the top order, s0
and eps0. The first point gives the witness v^(top)(s0); the second bounds
v's seminorms from below, so that the grid pass, which gives sup|T_z| and
rho2(v), evaluates v only up to the rung below the first one that bound
proves saturated in rho2's sum. The pass walks `functions.chunks` over v
and the leading term and evaluates the term in v's own context, so that
what the term shares with v, phi_lead's composition for ex2 and z's sin
and cos, is evaluated once per chunk. The residual bound is read off the
main sweep's rows at the m of RESIDUAL_M_COARSE, and a coarse sweep runs
only the m the main sweep lacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .functions import (
    GRID,
    PERIODIC,
    Evaluation,
    Node,
    PrecisionBudgetError,
    SmoothFunction,
    check_probe,
    chunks,
    constant,
    is_integer,
    probe,
    seminorm_profile,
)
from .jets import MAX_ORDER
from .maps import DomainViolation, MapSpec
from .primitives import TWO_PI, is_finite
from .tameness import PNormSpec, pnorm_eval

MAX_M = 2**14
ANCHOR_POINTS = 8192
# |phi_lead| below this on the whole anchor grid makes the anchor degenerate
ANCHOR_TOL = 1e-9
# the anchor where no grid point is better than another: inside [0, 1] and
# on both maps' anchor grids
ANCHOR_FALLBACK = 0.5
# the widest gap between doubles at which a 1-periodic phi still reads its
# argument mod 1
ANCHOR_SPACING_MAX = 2.0**-20
RESIDUAL_M_COARSE = (16, 64, 256)


def check_sweep(k: int, l: int, m_list: Sequence[int] = (1,)):
    """The rules on the level l of u = 1/l and on a sweep's m list, which
    is nonempty and strictly ascending; k and each m obey `check_probe`."""
    if not is_integer(l) or l < 1:
        raise ValueError(f"l must be a positive integer, got {l!r}")
    if not is_finite(l):
        raise ValueError("l must be finite in double precision")
    if not m_list:
        raise ValueError("m list must not be empty")
    for m in m_list:
        check_probe(k, m)
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("m values must be strictly ascending")


@dataclass(frozen=True)
class GrowthRecord:
    """One row of an m-sweep; the fields are in the order of the CSV
    columns."""

    m: int
    p_km1_z: float
    rho1_z: float
    rho1_u: float
    top_deriv_s0: float
    predicted: float
    tz_sup: float
    rho2_v: float


@dataclass
class SweepResult:
    records: list
    slope: Optional[float]
    violation: bool
    t0: float
    s0: float
    degenerate: bool
    deriv_mag: float
    map_spec: MapSpec
    x: SmoothFunction
    k: int
    l: int


def find_s0(map_spec: MapSpec, x: SmoothFunction) -> float:
    """The first of ANCHOR_POINTS points of the map's domain, [0, 1) or
    [0, 1], where |phi_lead| at phi's argument is largest, or
    ANCHOR_FALLBACK where no point is better than another: |phi_lead|
    below ANCHOR_TOL on the whole grid (the degenerate,
    estimate-satisfying case), or one value at every point, as for ex4's
    constant x.

    A 1-periodic phi reads its argument mod 1, so an argument where
    doubles are more than ANCHOR_SPACING_MAX apart exceeds the precision
    budget. The guard runs between the two tests: a degenerate phi never
    trips it, and an argument beyond the budget, where every point ties,
    still does.
    """
    s = np.linspace(0.0, 1.0, ANCHOR_POINTS + 1)
    if map_spec.domain_tag == PERIODIC:
        s = s[:-1]   # 1 is 0 again
    t = map_spec.argument(x).values(s)
    vals = np.abs(map_spec.leading_primitive()(t))
    j = int(np.argmax(vals))
    if vals[j] < ANCHOR_TOL:
        return ANCHOR_FALLBACK
    reach = float(np.abs(t).max())
    gap = float(np.spacing(reach))
    if map_spec.phi.is_one_periodic and gap > ANCHOR_SPACING_MAX:
        raise PrecisionBudgetError(
            f"phi's argument reaches {reach:.4g}, where doubles are {gap:.4g} "
            "apart: a 1-periodic phi there exceeds the precision budget")
    return ANCHOR_FALLBACK if vals.min() == vals[j] else float(s[j])


def find_t0(map_spec: MapSpec, x: SmoothFunction, s0: float) -> float:
    """Phi's argument at the anchor point s0: n*s0 + x(s0) for the
    pullback, x(s0) for the composition."""
    if not is_finite(s0):
        raise ValueError(f"s0 must be finite, got {s0!r}")
    return map_spec.argument(x).values(s0)


def residual_tz(v: SmoothFunction, lead: Node, top: int, s0: float,
                eps0: float, rho2: PNormSpec):
    """One evaluation of v = df(x+z, u) - df(x, u) at the anchor s0, then
    one chunked grid pass over v; the pass takes no map. ``lead`` and
    ``top`` are the map's `leading_term` and `top_order`, ``eps0`` is 1/l.

    Returns ``(top_deriv, tz_sup, profile)``: |v^(top)(s0)|, the witness
    whose sqrt(m) growth the sweep fits; the sup over the grid of |T_z|,
    where T_z = v^(top)/eps0 - lead, and lead = phi_lead(phi's argument at
    x + z) * z^(k), is what is left of the top derivative; and the
    seminorms p_0 .. p_truncation of v that ``rho2.of_profile`` reads.
    Each chunk of `chunks` evaluates v and the leading term in one
    `Evaluation`, so the leading term reuses what v computed.

    The anchor evaluation takes v to order max(truncation, top) at s0 and
    at the grid point nearest s0. The coefficients at the grid point,
    max-accumulated, are lower bounds on v's seminorms. Let c be the first
    rung whose bound is at least 2^54 (``rho2.first_saturated``). The
    chunked pass's value at that point differs from the anchor value only
    by rounding, far less than the factor 2, so the grid's seminorms from
    rung c up are at least 2^53, where the P-norm term is exactly 2^(-i).
    The pass therefore evaluates v only to order max(c - 1, top), and the
    profile holds the lower bounds, not the grid seminorms, at rungs c and
    above; ``rho2.of_profile`` is the same either way. With no cut the
    pass runs to max(truncation, top) and the whole profile is the grid's.
    """
    if not (is_integer(top) and 0 <= top <= MAX_ORDER):
        raise ValueError(f"top must be an integer in 0..{MAX_ORDER}")
    if not (is_finite(s0) and is_finite(eps0) and eps0 > 0.0):
        raise ValueError("s0 must be finite, and eps0 positive and finite")
    order = max(rho2.truncation, top)
    fact = np.array([math.factorial(i) for i in range(order + 1)])
    anchor = Evaluation(np.array([s0, GRID.nearest(v, s0)])).coeffs(v.node,
                                                                   order)
    top_deriv = abs(float(fact[top] * anchor[top, 0]))
    lower = np.maximum.accumulate(np.abs(anchor[:rho2.truncation + 1, 1])
                                  * fact[:rho2.truncation + 1])
    cut = rho2.first_saturated(lower)
    n_profile = rho2.truncation + 1 if cut is None else cut
    n = max(n_profile - 1, top)
    sup = np.zeros(n + 1)
    tz_sup = 0.0
    for ev in chunks(v, v.node, lead):
        coeffs = ev.coeffs(v.node, n)
        np.maximum(sup, ev.abs_max(coeffs) * fact[:n + 1], out=sup)
        # fact[top] * v^(top) / eps0 - lead, one operation at a time
        tz = np.multiply(fact[top], coeffs[top],
                         out=ev.empty(ev.points.shape))
        tz /= eps0
        tz -= ev.coeffs(lead, 0)[0]
        tz_sup = np.maximum(tz_sup, np.abs(tz, out=tz).max())
        del coeffs, tz   # the next chunk writes into their buffers
    profile = np.concatenate([sup[:n_profile], lower[n_profile:]])
    return top_deriv, float(tz_sup), np.maximum.accumulate(profile)


def locate_anchor(map_spec: MapSpec, x: SmoothFunction):
    """(t0, s0, deriv_mag, degenerate) for a sweep or a probe family: s0
    from `find_s0`, t0 phi's argument there, and degenerate when
    |phi_lead(t0)| is below ANCHOR_TOL."""
    s0 = find_s0(map_spec, x)
    t0 = find_t0(map_spec, x, s0)
    deriv_mag = abs(float(map_spec.leading_primitive()(t0)))
    return t0, s0, deriv_mag, deriv_mag < ANCHOR_TOL


def growth_sweep(map_spec: MapSpec, x: SmoothFunction,
                 rho1: PNormSpec, rho2: PNormSpec,
                 k: int, l: int, m_list: Sequence[int]) -> SweepResult:
    """One GrowthRecord per m, plus the fitted log-log slope.

    Raises DomainViolation when x, or x + z at some m, leaves the map's
    domain; x is checked once, before the anchor search, and x + z once
    per m, before df(x + z, u) is built.
    """
    m_list = list(m_list)
    check_sweep(k, l, m_list)
    map_spec.require_domain(x)
    t0, s0, deriv_mag, degenerate = locate_anchor(map_spec, x)
    eps0, tag = 1.0 / l, map_spec.domain_tag
    u = constant(eps0, tag)
    rho1_u, base = pnorm_eval(rho1, u), map_spec.gateaux(x, u)
    records = []
    for m in m_list:
        z = probe(m, k, s0, tag)
        margin, ok = map_spec.in_domain(x + z)
        if not ok:
            raise DomainViolation(
                margin, f"x + z at m = {m} leaves the map's domain")
        v = map_spec.gateaux(x + z, u) - base
        top_deriv, tz_sup, v_profile = residual_tz(
            v, map_spec.leading_term(x, z, k), map_spec.top_order(k), s0,
            eps0, rho2)
        record = GrowthRecord(
            m=m,
            p_km1_z=float(seminorm_profile(z, k - 1)[k - 1]),
            rho1_z=pnorm_eval(rho1, z),
            rho1_u=rho1_u,
            top_deriv_s0=top_deriv,
            predicted=eps0 * math.sqrt(TWO_PI * m) * deriv_mag,
            tz_sup=tz_sup,
            rho2_v=rho2.of_profile(v_profile),
        )
        bad = [f.name for f in fields(record)
               if not math.isfinite(getattr(record, f.name))]
        if bad:
            raise PrecisionBudgetError(
                f"{', '.join(bad)} not finite at m = {m}: a value left "
                "double range")
        records.append(record)
    tops = np.array([r.top_deriv_s0 for r in records])
    if np.all(tops > 0.0) and len(records) >= 2:
        slope = float(np.polyfit(np.log([r.m for r in records]),
                                 np.log(tops), 1)[0])
    else:
        slope = None
    violation = any(r.rho1_z <= 1.0 and r.rho2_v > r.rho1_u for r in records)
    return SweepResult(records=records, slope=slope, violation=violation,
                       t0=t0, s0=s0, degenerate=degenerate,
                       deriv_mag=deriv_mag, map_spec=map_spec, x=x, k=k, l=l)


def estimate_residual_bound(sweep: SweepResult) -> float:
    """Empirical upper bound for the residual: twice the maximum of
    sup|T_z| over a coarse sweep (m in RESIDUAL_M_COARSE) of ``sweep``'s
    map, x, k and l, plus one; 1.0 when the anchor is degenerate. A row of
    ``sweep`` has the coarse sweep's sup|T_z| bit for bit, whatever rho1
    and rho2, so only the m of RESIDUAL_M_COARSE that it lacks are swept."""
    if sweep.degenerate:
        return 1.0
    tz_sup = {r.m: r.tz_sup for r in sweep.records}
    missing = [m for m in RESIDUAL_M_COARSE if m not in tz_sup]
    if missing:
        coarse = growth_sweep(sweep.map_spec, sweep.x, PNormSpec(0),
                              PNormSpec(0), sweep.k, sweep.l, missing)
        tz_sup.update((r.m, r.tz_sup) for r in coarse.records)
    return 2.0 * max(tz_sup[m] for m in RESIDUAL_M_COARSE) + 1.0


def fix_m(k: int, l: int, m_estimate: float, deriv_mag: float) -> int:
    """Smallest power-of-two m <= MAX_M with 2 pi m >= k^2 and l + M <
    (2 pi m)^(1/2) |phi_lead(t0)|, where M = ``m_estimate`` and
    |phi_lead(t0)| = ``deriv_mag``; both maps obey this one inequality."""
    check_sweep(k, l)
    if not (is_finite(m_estimate) and m_estimate >= 0.0):
        raise ValueError(
            f"M estimate must be nonnegative and finite, got {m_estimate}")
    if not (is_finite(deriv_mag) and deriv_mag > 0.0):
        raise ValueError(
            f"|phi derivative at t0| must be positive and finite, got {deriv_mag}")
    m = 1
    while m <= MAX_M:
        root = math.sqrt(TWO_PI * m)
        if 1.0 / root <= 1.0 / k and l + m_estimate < root * deriv_mag:
            return m
        m *= 2
    raise PrecisionBudgetError(
        f"required m exceeds precision budget (max {MAX_M})")
