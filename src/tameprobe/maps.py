"""The two concrete nonlinear maps, their directional derivatives, and the
geometry of their counterexamples.

`CirclePullback` is the local coordinate form of pulling back a 1-form on
the circle through a winding-n immersion perturbed by a periodic function:
x -> phi(n*s + x) * (n + x'). `PostComposition` post-composes unit-interval
functions with a fixed diffeomorphism: x -> phi(x).

Directional derivatives are hard-coded analytic trees (the drivers
differentiate them several more times, which a numeric limit could not
support); `gateaux_fd` is the central-difference oracle used to validate
them. `apply` and `gateaux` only build trees: they check the domain tag,
but not membership, which can cost a grid pass. The loop that owns a
point checks it once, with `in_domain` or `require_domain`. This module
does no grid work: the pullback's membership reads
`functions.value_range`.

Everything the driver needs to know about one map lives on its class: which
derivative of phi carries the sqrt(m) blow-up (`lead_order`: phi' for the
pullback, phi'' for the composition; `leading_primitive` builds it with
phi's closed-form `derivative()`), the argument phi is evaluated at, and
the leading term of the top derivative of v (`leading_term`). The anchor
point s0 and the certified m are the driver's business alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import (
    PERIODIC,
    UNIT_INTERVAL,
    Affine,
    Constant,
    Node,
    PrimitiveCompose,
    SmoothFunction,
    add,
    mul,
    value_range,
)
from .primitives import ScalarPrimitive, is_finite

DOMAIN_MARGIN_TOL = 1e-9
FD_POINTS = 2049
# where PostComposition samples phi' to check that phi is increasing
PHI_CHECK_RANGE = (-10.0, 10.0)
PHI_CHECK_POINTS = 2001


class DomainViolation(Exception):
    """Raised when a point leaves the map's open domain: the base point x,
    or, in a sweep, a perturbed point x + z, which ``what`` then names."""

    def __init__(self, margin: float,
                 what: str = "base point outside map domain"):
        super().__init__(f"{what} (margin {margin:.3e})")
        self.margin = margin


@dataclass(frozen=True)
class SampledFunction:
    """Grid samples of a function on the common [0, 1] parameter range."""

    s: np.ndarray
    values: np.ndarray


class MapSpec:
    """Common surface of the two map variants.

    ``lead_order`` is the derivative of phi whose value at t0 scales the
    sqrt(m) growth of the top derivative of v = df(x+z, u) - df(x, u).
    """

    domain_tag: str
    lead_order: int
    phi: ScalarPrimitive

    def leading_primitive(self) -> ScalarPrimitive:
        lead = self.phi
        for _ in range(self.lead_order):
            lead = lead.derivative()
        return lead

    def top_order(self, k: int) -> int:
        """Derivative order of v at which a k-probe shows sqrt(m) growth."""
        return k + self.lead_order - 2

    def argument(self, x: SmoothFunction) -> Node:
        """The tree of the point phi is evaluated at, for base point x."""
        raise NotImplementedError

    def leading_term(self, x: SmoothFunction, z: SmoothFunction,
                     k: int) -> Node:
        """phi_lead(phi's argument at x + z) * z^(k), the part of
        v^(top) / eps0 that grows like sqrt(m) for a k-probe z.

        Its `PrimitiveCompose` is built as `gateaux(x + z, u)` builds its
        own where phi_lead is phi' (the pullback), so that a grid pass over
        both evaluates it once.
        """
        zk = z.node
        for _ in range(k):
            zk = zk.diff()
        return mul(PrimitiveCompose(self.leading_primitive(),
                                    self.argument(x + z)), zk)

    def _check_tag(self, x: SmoothFunction):
        if x.domain != self.domain_tag:
            raise ValueError(
                f"expected {self.domain_tag} function, got {x.domain}")

    def in_domain(self, x: SmoothFunction):
        """(margin, ok): a lower bound on x's distance from the edge of the
        map's open domain, and whether it clears DOMAIN_MARGIN_TOL. Here
        the domain is every function of the tag."""
        self._check_tag(x)
        return float("inf"), True

    def require_domain(self, x: SmoothFunction):
        """Raise DomainViolation unless x is in the map's domain."""
        margin, ok = self.in_domain(x)
        if not ok:
            raise DomainViolation(margin)

    def apply(self, x: SmoothFunction) -> SmoothFunction:
        raise NotImplementedError

    def gateaux(self, x: SmoothFunction, u: SmoothFunction) -> SmoothFunction:
        raise NotImplementedError


class CirclePullback(MapSpec):
    """x -> phi(n*s + x(s)) * (n + x'(s)) on 1-periodic functions."""

    domain_tag = PERIODIC
    lead_order = 1

    def __init__(self, phi: ScalarPrimitive, n: int):
        if n == 0:
            raise ValueError("winding number n must be nonzero")
        if not is_finite(n):
            raise ValueError("winding number n must be finite in double "
                             "precision")
        if n != int(n):
            raise ValueError(f"winding number n must be an integer, got {n!r}")
        if not phi.is_one_periodic:
            raise ValueError("phi must be 1-periodic for the pullback map")
        self.phi = phi
        self.n = int(n)

    def argument(self, x):
        return add(Affine(float(self.n), 0.0), x.node)

    def in_domain(self, x: SmoothFunction):
        """A lower bound on the infimum of |n + x'|, from the enclosure
        (lo, hi) of x' that `value_range` gives, and whether it clears the
        positivity tolerance. The bound is proven when x' is a constant or
        one sinusoid, and otherwise holds up to the grid's resolution."""
        self._check_tag(x)
        lo, hi = value_range(x.derivative())
        margin = max(self.n + lo, -(self.n + hi), 0.0)
        return margin, margin > DOMAIN_MARGIN_TOL

    def apply(self, x: SmoothFunction) -> SmoothFunction:
        self._check_tag(x)
        inner = self.argument(x)
        node = mul(PrimitiveCompose(self.phi, inner),
                   add(Constant(float(self.n)), x.node.diff()))
        return SmoothFunction(node, PERIODIC)

    def gateaux(self, x: SmoothFunction, u: SmoothFunction) -> SmoothFunction:
        self._check_tag(x)
        inner = self.argument(x)
        term1 = mul(PrimitiveCompose(self.phi.derivative(), inner),
                    u.node,
                    add(Constant(float(self.n)), x.node.diff()))
        # zero for a constant direction u, and then left out
        term2 = mul(PrimitiveCompose(self.phi, inner), u.node.diff())
        return SmoothFunction(add(term1, term2), PERIODIC)


class PostComposition(MapSpec):
    """x -> phi(x(s)) on smooth functions of the unit interval."""

    domain_tag = UNIT_INTERVAL
    lead_order = 2

    def __init__(self, phi: ScalarPrimitive):
        t = np.linspace(*PHI_CHECK_RANGE, PHI_CHECK_POINTS)
        if not np.all(phi.derivative()(t) > 0.0):
            raise ValueError("phi must have positive derivative (sampled on [-10, 10])")
        self.phi = phi

    def argument(self, x):
        return x.node

    def apply(self, x: SmoothFunction) -> SmoothFunction:
        self._check_tag(x)
        return SmoothFunction(PrimitiveCompose(self.phi, x.node), UNIT_INTERVAL)

    def gateaux(self, x: SmoothFunction, u: SmoothFunction) -> SmoothFunction:
        self._check_tag(x)
        node = mul(PrimitiveCompose(self.phi.derivative(), x.node), u.node)
        return SmoothFunction(node, UNIT_INTERVAL)


def gateaux_fd(map_spec: MapSpec, x: SmoothFunction, u: SmoothFunction,
               t: float) -> SampledFunction:
    """Central-difference approximation of the directional derivative.

    Both perturbed base points must stay inside the map's domain.
    """
    if not (is_finite(t) and t > 0.0):
        raise ValueError("step t must be positive and finite")
    xp, xm = x + t * u, x + (-t) * u
    map_spec.require_domain(xp)
    map_spec.require_domain(xm)
    fp = map_spec.apply(xp)
    fm = map_spec.apply(xm)
    if x.domain == PERIODIC:
        s = np.arange(FD_POINTS) / FD_POINTS
    else:
        s = np.linspace(0.0, 1.0, FD_POINTS)
    vals = (fp.evaluate(s) - fm.evaluate(s)) / (2.0 * t)
    return SampledFunction(s, vals)
