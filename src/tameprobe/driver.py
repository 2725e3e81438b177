"""Counterexample driver: probe construction, m-sweeps, residual bounds.

The driver locates an anchor (t0, s0) where the leading derivative of the
outer function is nonzero, builds the oscillatory probe pair (z, u), and
sweeps the frequency parameter m. At the anchor the top derivative of the
difference v of directional derivatives grows like sqrt(m) while the
residual (everything except the extracted leading term) stays bounded,
which is what defeats any fixed uniform estimate.

The algorithms here are generic: argmax over candidates for t0, root
bracketing plus bisection for s0, the residual pass, and the power-of-two
search for a certified m. What differs between the maps (the leading
derivative, the top order, phi's argument, the search ranges, the fallback
anchor and the certifying inequality) comes from the `MapSpec` hooks.

A sweep checks x's membership in the map's domain once, and x + z's once
per m; building df(x + z, u) checks only the domain tag. It evaluates v
once per m at two points, s0 and the grid point nearest it, and makes one
grid pass over v (`residual_tz`). The first point gives the witness
v^(top)(s0); the second bounds v's seminorms from below, so that the grid
pass, which gives sup|T_z| and rho2(v), evaluates v only up to the rung
below the first one that bound proves saturated under rho2's bounded
transform. The pass walks `functions.chunks` over v and T_z's leading
term (`MapSpec.leading_term`) and evaluates the term in v's own context,
so that what the term shares with v, phi_lead's composition for ex2 and
z's sin and cos, is evaluated once per chunk. The residual bound is read
off the main sweep's rows at the m of RESIDUAL_M_COARSE, and a coarse
sweep runs only the m the main sweep lacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .functions import (
    DEFAULT_GRID,
    Evaluation,
    GridSpec,
    PrecisionBudgetError,
    SmoothFunction,
    check_probe,
    chunks,
    constant,
    is_integer,
    probe,
    seminorm_profile,
)
from .maps import DomainViolation, MapSpec
from .primitives import TWO_PI
from .tameness import PNormSpec, pnorm_eval

MAX_M = 2**14
ANCHOR_POINTS = 8192
RESIDUAL_M_COARSE = (16, 64, 256)


class DegenerateMapError(ValueError):
    """The outer function has no usable point of nonzero derivative."""


def check_sweep(k: int, l: int, m_list: Sequence[int] = (1,)):
    """The rules on the level l of u = 1/l and on a sweep's m list, which
    is nonempty and strictly ascending; k and each m obey `check_probe`."""
    if not is_integer(l) or l < 1:
        raise ValueError(f"l must be a positive integer, got {l!r}")
    if not m_list:
        raise ValueError("m list must not be empty")
    for m in m_list:
        check_probe(k, m)
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise ValueError("m values must be strictly ascending")


@dataclass(frozen=True)
class ProbeParams:
    """Quantifier bundle for one counterexample instance."""

    k: int
    l: int
    m: int
    s0: float

    def __post_init__(self):
        check_sweep(self.k, self.l, (self.m,))
        if not math.isfinite(self.s0):
            raise ValueError(f"s0 must be finite, got {self.s0!r}")

    @property
    def eps0(self) -> float:
        """The size 1/l of the constant direction u."""
        return 1.0 / self.l


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


def find_t0(map_spec: MapSpec, x: SmoothFunction | None = None) -> float:
    """Point where the leading derivative of phi is (maximally) nonzero.

    Ties break toward the smallest candidate; a maximum below tolerance
    signals the degenerate (estimate-satisfying) case.
    """
    t = map_spec.t0_candidates(x, ANCHOR_POINTS)
    vals = np.abs(map_spec.leading_primitive()(t))
    j = int(np.argmax(vals))
    if vals[j] < 1e-9:
        raise DegenerateMapError(
            f"no usable t0: phi derivative {map_spec.lead_order} vanishes "
            "on the candidates")
    return float(t[j])


def find_s0(map_spec: MapSpec, x: SmoothFunction, t0: float) -> float:
    """Anchor point where phi's argument equals t0: n*s0 + x(s0) = t0 for
    the pullback, x(s0) = t0 for the composition."""
    lo, hi = map_spec.s0_bracket(x, t0)
    g = lambda s: map_spec.phi_argument(x, s) - t0
    s = np.linspace(lo, hi, ANCHOR_POINTS + 1)
    vals = g(s)
    exact = np.nonzero(np.abs(vals) < 1e-12)[0]
    if exact.size:
        return float(s[exact[0]])
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if not flips.size:
        raise ValueError("no root bracket found: t0 not attained on the grid")
    # bisect the first bracket until its midpoint is one of its ends
    j = flips[0]
    a, b = float(s[j]), float(s[j + 1])
    lo_negative = vals[j] < 0.0
    mid = 0.5 * (a + b)
    while a < mid < b:
        gm = g(mid)
        if gm == 0.0:
            break
        if (gm < 0.0) == lo_negative:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return mid


def build_probe(params: ProbeParams, map_spec: MapSpec):
    """The oscillatory perturbation z and the constant direction u."""
    tag = map_spec.domain_tag
    z = probe(params.m, params.k, params.s0, tag)
    u = constant(params.eps0, tag)
    return z, u


def residual_tz(map_spec: MapSpec, x: SmoothFunction, params: ProbeParams,
                z: SmoothFunction, v: SmoothFunction, rho2: PNormSpec,
                grid: GridSpec | None = None):
    """One evaluation of v = df(x+z, u) - df(x, u) at the anchor, then one
    chunked grid pass over v.

    Returns ``(top_deriv, tz_sup, profile)``: |v^(top)(s0)|, the witness
    whose sqrt(m) growth the sweep fits; the sup over the grid of |T_z|,
    where T_z = v^(top)/eps0 - phi_lead(phi's argument at x + z) * z^(k)
    is what is left of the top derivative once the leading term is taken
    out; and the seminorms p_0 .. p_truncation of v that
    ``rho2.of_profile`` reads. Each chunk of `chunks` evaluates v and the
    leading term in one `Evaluation`, so the leading term reuses what v
    computed.

    The anchor evaluation takes v to order max(truncation, top) at s0 and
    at the grid point nearest s0. The coefficients at the grid point,
    max-accumulated, are lower bounds on v's seminorms. Let c be the first
    rung whose bound is at least 2^54 (``rho2.first_saturated``; never
    under "linear"). The chunked pass's value at that point differs from
    the anchor value only by rounding, far less than the factor 2, so the
    grid's seminorms from rung c up are at least 2^53, where the bounded
    P-norm term is exactly w_i. The pass therefore evaluates v only to
    order max(c - 1, top), and the profile holds the lower bounds, not the
    grid seminorms, at rungs c and above; ``rho2.of_profile`` is the same
    either way. With no cut the pass runs to max(truncation, top) and the
    whole profile is the grid's.
    """
    top = map_spec.top_order(params.k)
    lead = map_spec.leading_term(x, z, params.k)
    s = (grid or DEFAULT_GRID).points(v)
    order = max(rho2.truncation, top)
    fact = np.array([math.factorial(i) for i in range(order + 1)])
    j = int(np.searchsorted(s, params.s0).clip(1, s.size - 1))
    if params.s0 - s[j - 1] <= s[j] - params.s0:
        j -= 1
    anchor = Evaluation(np.array([params.s0, s[j]])).coeffs(v.node, order)
    top_deriv = abs(float(fact[top] * anchor[top, 0]))
    lower = np.maximum.accumulate(np.abs(anchor[:rho2.truncation + 1, 1])
                                  * fact[:rho2.truncation + 1])
    cut = rho2.first_saturated(lower)
    n_profile = rho2.truncation + 1 if cut is None else cut
    n = max(n_profile - 1, top)
    sup = np.zeros(n + 1)
    tz_sup = 0.0
    for ev in chunks(s, v.node, lead):
        coeffs = ev.coeffs(v.node, n)
        np.maximum(sup, np.abs(coeffs).max(axis=1) * fact[:n + 1], out=sup)
        tz = fact[top] * coeffs[top] / params.eps0 - ev.coeffs(lead, 0)[0]
        tz_sup = np.maximum(tz_sup, np.abs(tz).max())
    profile = np.concatenate([sup[:n_profile], lower[n_profile:]])
    return top_deriv, float(tz_sup), np.maximum.accumulate(profile)


def locate_anchor(map_spec: MapSpec, x: SmoothFunction):
    """(t0, s0, deriv_mag, degenerate) for a sweep or a probe family: t0
    and s0 from the map's search, its fixed interior s0 or its fallback
    anchor."""
    try:
        t0 = find_t0(map_spec, x)
        s0 = map_spec.interior_s0(x)
        degenerate = False
    except DegenerateMapError:
        t0, s0 = map_spec.fallback_anchor(x)
        degenerate = True
    if s0 is None:
        s0 = find_s0(map_spec, x, t0)
    deriv_mag = abs(float(map_spec.leading_primitive()(t0)))
    return t0, s0, deriv_mag, degenerate


def growth_sweep(map_spec: MapSpec, x: SmoothFunction,
                 rho1: PNormSpec, rho2: PNormSpec,
                 k: int, l: int, m_list: Sequence[int],
                 grid: GridSpec | None = None) -> SweepResult:
    """One GrowthRecord per m, plus the fitted log-log slope.

    Raises DomainViolation when x, or x + z at some m, leaves the map's
    domain; x is checked once, before the anchor search, and x + z once
    per m, before df(x + z, u) is built.
    """
    m_list = list(m_list)
    check_sweep(k, l, m_list)
    map_spec.require_domain(x)
    t0, s0, deriv_mag, degenerate = locate_anchor(map_spec, x)
    records = []
    for m in m_list:
        params = ProbeParams(k=k, l=l, m=m, s0=s0)
        z, u = build_probe(params, map_spec)
        if not records:
            # u is the same for every m, and so is df(x, u)
            rho1_u = pnorm_eval(rho1, u, grid)
            base = map_spec.gateaux(x, u)
        margin, ok = map_spec.in_domain(x + z)
        if not ok:
            raise DomainViolation(
                margin, f"x + z at m = {m} leaves the map's domain")
        v = map_spec.gateaux(x + z, u) - base
        top_deriv, tz_sup, v_profile = residual_tz(map_spec, x, params, z, v,
                                                   rho2, grid)
        record = GrowthRecord(
            m=m,
            p_km1_z=float(seminorm_profile(z, k - 1, grid)[k - 1]),
            rho1_z=pnorm_eval(rho1, z, grid),
            rho1_u=rho1_u,
            top_deriv_s0=top_deriv,
            predicted=params.eps0 * math.sqrt(TWO_PI * m) * deriv_mag,
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
                       deriv_mag=deriv_mag)


def estimate_residual_bound(map_spec: MapSpec, x: SmoothFunction,
                            k: int, l: int,
                            grid: GridSpec | None = None,
                            sweep: SweepResult | None = None) -> float:
    """Empirical upper bound for the residual: twice the maximum of
    sup|T_z| over a coarse sweep (m in RESIDUAL_M_COARSE), plus one; 1.0
    when the anchor is degenerate. A ``sweep`` of the same map, x, k, l
    and grid, for any rho1, rho2 and m list, has the coarse sweep's anchor
    and rows of v up to ``top``, hence its sup|T_z| bit for bit, so only
    the m of RESIDUAL_M_COARSE that it lacks are swept."""
    tz_sup = {r.m: r.tz_sup for r in sweep.records} if sweep else {}
    missing = [m for m in RESIDUAL_M_COARSE if m not in tz_sup]
    if missing and not (sweep and sweep.degenerate):
        sweep = growth_sweep(map_spec, x, PNormSpec(0), PNormSpec(0), k, l,
                             missing, grid)
        tz_sup.update((r.m, r.tz_sup) for r in sweep.records)
    if sweep.degenerate:
        return 1.0
    return 2.0 * max(tz_sup[m] for m in RESIDUAL_M_COARSE) + 1.0


def fix_m(map_spec: MapSpec, k: int, l: int, m_estimate: float,
          deriv_mag: float) -> int:
    """Smallest power-of-two m certifying the blow-up inequalities."""
    check_sweep(k, l)
    if not (math.isfinite(m_estimate) and m_estimate >= 0.0):
        raise ValueError(
            f"M estimate must be nonnegative and finite, got {m_estimate}")
    if not (math.isfinite(deriv_mag) and deriv_mag > 0.0):
        raise ValueError(
            f"|phi derivative at t0| must be positive and finite, got {deriv_mag}")
    m = 1
    while m <= MAX_M:
        if map_spec.certifies(m, k, l, m_estimate, deriv_mag):
            return m
        m *= 2
    raise PrecisionBudgetError(
        f"required m exceeds precision budget (max {MAX_M})")
