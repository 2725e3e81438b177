"""Metric P-norms built from the graded seminorms, and the estimate checker.

A P-norm here is the metric of a graded Frechet space truncated to its
first rungs: the sum of 2^(-i) * p_i / (1 + p_i) for i up to the
truncation, which satisfies the metric axioms (symmetry, subadditivity,
vanishing at zero). Truncation makes this a pseudo-metric surrogate for
the full graded metric: seminorms above the truncation level are ignored.

`check_tame_estimate` tests the uniform estimate
rho2(df(x+z, u) - df(x, u)) <= rho1(u) over a supplied probe family,
restricted to perturbations with rho1(z) <= 1. A perturbed base point that
leaves the map's domain counts as a violation of the membership clause:
each probe checks x + z once, with `in_domain`, and records an exit
without building anything. The probes left are then checked one u at a
time: df(x, u) and rho1(u) are built once per distinct u, and one
`seminorm_profiles` call evaluates -df(x, u) and x once per grid chunk for
all of that u's v's. Witnesses, and a side beyond double range, are
reported in probe order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .functions import (
    PrecisionBudgetError,
    SmoothFunction,
    is_integer,
    seminorm_profile,
    seminorm_profiles,
)
from .jets import MAX_ORDER
from .maps import MapSpec

# A term 2^(-i) * (p / (1 + p)) is exactly 2^(-i) when 1 + p rounds to p.
# It does for every p >= 2^54, where doubles are 4 apart. Below that it
# need not: for p = 2^53 + 2j, 1 + p is a tie that rounds to even, up for
# odd j, and p / (1 + p) is then 1 - 2^-52. So a rung is saturated once a
# lower bound on its seminorm reaches 2^54.
SATURATION = 2.0**54


@dataclass(frozen=True)
class PNormSpec:
    truncation: int = 12

    def __post_init__(self):
        t = self.truncation
        if not is_integer(t) or not 0 <= t <= MAX_ORDER:
            raise ValueError(
                f"truncation must be an integer in 0..{MAX_ORDER}")

    def of_profile(self, p) -> float:
        """The P-norm of a function whose seminorms are p_0, p_1, ..."""
        total = 0.0
        for i in range(self.truncation + 1):
            total += 2.0**-i * (p[i] / (1.0 + p[i]))
        return total

    def first_saturated(self, lower) -> int | None:
        """The first rung whose lower bound ``lower[i]`` is at least
        SATURATION, or None. From that rung upward every seminorm at or
        above the bound adds exactly 2^(-i), so ``of_profile`` needs no
        more than the bound there."""
        for i in range(self.truncation + 1):
            if lower[i] >= SATURATION:
                return i
        return None


def pnorm_eval(spec: PNormSpec, x: SmoothFunction) -> float:
    return spec.of_profile(seminorm_profile(x, spec.truncation))


@dataclass
class TameCheckReport:
    satisfied: bool
    witnesses: list = field(default_factory=list)   # (z, u, lhs, rhs)
    samples_checked: int = 0
    skipped_large_z: int = 0
    domain_exits: list = field(default_factory=list)  # (z, margin)


def check_tame_estimate(map_spec: MapSpec, x: SmoothFunction,
                        rho1: PNormSpec, rho2: PNormSpec,
                        probes) -> TameCheckReport:
    """Evaluate the uniform estimate over a probe family.

    ``probes`` is a nonempty sequence of (z, u) pairs. Pairs with
    rho1(z) > 1 are outside the quantifier's range and only counted. A
    rho2(v) or rho1(u) beyond double range raises PrecisionBudgetError: a
    NaN would compare false and read as "satisfied".
    """
    probes = list(probes)
    if not probes:
        raise ValueError("probe list must be nonempty")
    map_spec.require_domain(x)
    report = TameCheckReport(satisfied=True)
    by_u = {}   # u -> indices of the probes to check
    for i, (z, u) in enumerate(probes):
        if pnorm_eval(rho1, z) > 1.0:
            report.skipped_large_z += 1
            continue
        margin, ok = map_spec.in_domain(x + z)
        if not ok:
            report.domain_exits.append((z, margin))
            report.satisfied = False
            continue
        by_u.setdefault(u, []).append(i)
    sides = {}   # probe index -> (rho2(v), rho1(u))
    for u, checked in by_u.items():
        base = map_spec.gateaux(x, u)
        rhs = pnorm_eval(rho1, u)
        vs = [map_spec.gateaux(x + probes[i][0], u) - base for i in checked]
        for i, p in zip(checked, seminorm_profiles(vs, rho2.truncation)):
            sides[i] = rho2.of_profile(p), rhs
    for i in sorted(sides):
        lhs, rhs = sides[i]
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise PrecisionBudgetError(
                f"rho2(v) = {lhs:.12g}, rho1(u) = {rhs:.12g}: a value is "
                "beyond double range")
        report.samples_checked += 1
        if lhs > rhs:
            z, u = probes[i]
            report.witnesses.append((z, u, lhs, rhs))
            report.satisfied = False
    return report
