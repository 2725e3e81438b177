"""Expression trees for smooth functions and their graded sup-seminorms.

Two ambient domains are supported: 1-periodic smooth functions on the real
line, and smooth functions on the unit interval (derivatives at the
endpoints are those of the global formula, i.e. of the smooth extension).

The seminorm of grade i is the sup over the domain and over all derivative
orders l <= i of |f^(l)(s)|. Sups are taken on a structurally sized grid;
trees consisting of a single sinusoid node get an exact closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .jets import MAX_ORDER, compose_series, convolve_trunc
from .primitives import TWO_PI, ScalarPrimitive, trig_cycle, trig_taylor

PERIODIC = "periodic"
UNIT_INTERVAL = "unit_interval"

_CHUNK = 1 << 16
MIN_GRID_POINTS = 4096
# 2^24 points is 128 MiB per row of float64; the ex2 sweep at the CLI's cap
# m = 16384 over x = zero evaluates v on 2^21 + 65 points
MAX_GRID_POINTS = 2**24


class PrecisionBudgetError(RuntimeError):
    """A computation would leave the double-precision or grid budget: a
    value beyond double range, a grid above MAX_GRID_POINTS points, or a
    certified m above the driver's cap."""


# ---------------------------------------------------------------------------
# nodes

class Node:
    """Base class for expression-tree nodes."""

    def coeffs(self, s: np.ndarray, order: int) -> np.ndarray:
        """Taylor coefficients, shape (order+1, len(s))."""
        raise NotImplementedError

    def diff(self) -> "Node":
        raise NotImplementedError

    def max_frequency(self) -> float:
        """Structural bound on frequency content, cycles per unit."""
        raise NotImplementedError

    def affine_slope(self) -> Optional[float]:
        """Slope a such that node - a*s is 1-periodic; None if unknown."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Node):
    c: float

    def coeffs(self, s, order):
        out = np.zeros((order + 1, s.size))
        out[0] = self.c
        return out

    def diff(self):
        return Constant(0.0)

    def max_frequency(self):
        return 0.0

    def affine_slope(self):
        return 0.0


@dataclass(frozen=True)
class Affine(Node):
    a: float
    b: float

    def coeffs(self, s, order):
        out = np.zeros((order + 1, s.size))
        out[0] = self.a * s + self.b
        if order >= 1:
            out[1] = self.a
        return out

    def diff(self):
        return Constant(self.a)

    def max_frequency(self):
        return 0.0

    def affine_slope(self):
        return self.a


@dataclass(frozen=True)
class SinusoidProbe(Node):
    """s -> amplitude * sin(2*pi*frequency*(s - phase))."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        # diff shifts the phase by a quarter period, 0.25 / frequency
        if not (math.isfinite(self.frequency) and self.frequency != 0.0
                and math.isfinite(0.25 / self.frequency)):
            raise ValueError("sinusoid frequency must be nonzero with a "
                             f"finite period, got {self.frequency!r}")

    def coeffs(self, s, order):
        theta = TWO_PI * self.frequency * (s - self.phase)
        return trig_taylor(theta, self.amplitude, TWO_PI * self.frequency,
                           order, 0)

    def diff(self):
        # d/ds sin(th) = 2*pi*f*cos(th); cos is sin shifted a quarter period
        w = TWO_PI * self.frequency
        return SinusoidProbe(self.amplitude * w, self.frequency,
                             self.phase - 0.25 / self.frequency)

    def max_frequency(self):
        return abs(self.frequency)

    def affine_slope(self):
        f = self.frequency
        if self.amplitude == 0.0 or abs(f - round(f)) < 1e-12:
            return 0.0
        return None


@dataclass(frozen=True)
class Sum(Node):
    children: tuple

    def __init__(self, *children):
        object.__setattr__(self, "children", tuple(children))

    def coeffs(self, s, order):
        out = self.children[0].coeffs(s, order)
        for ch in self.children[1:]:
            out = out + ch.coeffs(s, order)
        return out

    def diff(self):
        return add(*[ch.diff() for ch in self.children])

    def max_frequency(self):
        return max(ch.max_frequency() for ch in self.children)

    def affine_slope(self):
        total = 0.0
        for ch in self.children:
            a = ch.affine_slope()
            if a is None:
                return None
            total += a
        return total


@dataclass(frozen=True)
class Product(Node):
    children: tuple

    def __init__(self, *children):
        object.__setattr__(self, "children", tuple(children))

    def coeffs(self, s, order):
        out = self.children[0].coeffs(s, order)
        for ch in self.children[1:]:
            out = convolve_trunc(out, ch.coeffs(s, order))
        return out

    def diff(self):
        terms = []
        for i, ch in enumerate(self.children):
            factors = list(self.children)
            factors[i] = ch.diff()
            terms.append(mul(*factors))
        return add(*terms)

    def max_frequency(self):
        return sum(ch.max_frequency() for ch in self.children)

    def affine_slope(self):
        slopes = [ch.affine_slope() for ch in self.children]
        if all(a == 0.0 for a in slopes):
            return 0.0
        return None


@dataclass(frozen=True)
class Scale(Node):
    c: float
    child: Node

    def coeffs(self, s, order):
        return self.c * self.child.coeffs(s, order)

    def diff(self):
        return scale(self.c, self.child.diff())

    def max_frequency(self):
        return self.child.max_frequency()

    def affine_slope(self):
        a = self.child.affine_slope()
        return None if a is None else self.c * a


@dataclass(frozen=True)
class PrimitiveCompose(Node):
    primitive: ScalarPrimitive
    child: Node

    def coeffs(self, s, order):
        inner = self.child.coeffs(s, order)
        ode = self.primitive.ode
        # the ODE supplies every row of g past the first len(ode)
        outer = self.primitive.taylor_coeffs(inner[0],
                                             min(len(ode) - 1, order))
        return compose_series(outer, inner, ode)

    def diff(self):
        return mul(PrimitiveCompose(self.primitive.derivative(), self.child),
                   self.child.diff())

    def max_frequency(self):
        a = self.child.affine_slope()
        if self.primitive.is_one_periodic:
            base = abs(a) if a is not None else 0.0
            return base + self.child.max_frequency()
        return self.child.max_frequency()

    def affine_slope(self):
        a = self.child.affine_slope()
        if a == 0.0:
            return 0.0
        if a is not None and self.primitive.is_one_periodic \
                and abs(a - round(a)) < 1e-12:
            return 0.0
        return None


class Memo(Node):
    """``child`` with its last evaluation kept.

    A call with points equal to the last call's (``np.array_equal``) and
    the same order returns the kept coefficients without evaluating the
    child again. The result is always a copy, since callers may overwrite
    what they get (``compose_series`` overwrites its ``inner``). The kept
    evaluation is one chunk of coefficients at most, as ``seminorm_profile``
    evaluates a chunk at a time.
    """

    def __init__(self, child: Node):
        self.child = child
        self._last = None   # (points, order, coefficients)

    def coeffs(self, s, order):
        last = self._last
        if last is None or last[1] != order or not np.array_equal(last[0], s):
            # a grid chunk is a view, which would keep the whole grid alive
            last = self._last = (s.copy(), order, self.child.coeffs(s, order))
        return last[2].copy()

    def diff(self):
        return self.child.diff()

    def max_frequency(self):
        return self.child.max_frequency()

    def affine_slope(self):
        return self.child.affine_slope()


# ---------------------------------------------------------------------------
# folding constructors
#
# Every tree the package builds goes through these. Each gives the node of
# the same value as Sum / Product / Scale with the identically zero and
# unit terms left out, so no grid pass evaluates them; the remaining
# children keep their order, so the arithmetic on them is unchanged. The
# raw classes stay available for trees that must keep such terms.

def _is_constant(node: Node, c: float) -> bool:
    return isinstance(node, Constant) and node.c == c


def add(*nodes: Node) -> Node:
    """Sum of ``nodes`` without its Constant(0.0) summands."""
    kept = [nd for nd in nodes if not _is_constant(nd, 0.0)]
    if not kept:
        return Constant(0.0)
    return kept[0] if len(kept) == 1 else Sum(*kept)


def mul(*nodes: Node) -> Node:
    """Product of ``nodes``: Constant(0.0) if a factor is, else the product
    without its Constant(1.0) factors."""
    if any(_is_constant(nd, 0.0) for nd in nodes):
        return Constant(0.0)
    kept = [nd for nd in nodes if not _is_constant(nd, 1.0)]
    if not kept:
        return Constant(1.0)
    return kept[0] if len(kept) == 1 else Product(*kept)


def scale(c: float, node: Node) -> Node:
    """``c * node``, folded as ``mul`` folds a constant factor c."""
    if c == 0.0 or _is_constant(node, 0.0):
        return Constant(0.0)
    return node if c == 1.0 else Scale(c, node)


# ---------------------------------------------------------------------------
# smooth functions

@dataclass(frozen=True)
class SmoothFunction:
    """An element of one of the two ambient smooth-function spaces."""

    node: Node
    domain: str

    def __post_init__(self):
        if self.domain not in (PERIODIC, UNIT_INTERVAL):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        if self.domain == PERIODIC:
            a = self.node.affine_slope()
            if a is None or abs(a) > 1e-12:
                raise ValueError(
                    "tree is not structurally 1-periodic "
                    f"(affine slope {a!r})")

    # -- arithmetic -------------------------------------------------------
    def _combine(self, other):
        if not isinstance(other, SmoothFunction):
            return NotImplemented
        if other.domain != self.domain:
            raise ValueError("domain tags differ")
        return other

    def __add__(self, other):
        other = self._combine(other)
        if other is NotImplemented:
            return other
        return SmoothFunction(add(self.node, other.node), self.domain)

    def __sub__(self, other):
        other = self._combine(other)
        if other is NotImplemented:
            return other
        return SmoothFunction(add(self.node, scale(-1.0, other.node)),
                              self.domain)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return SmoothFunction(scale(float(other), self.node), self.domain)
        other = self._combine(other)
        if other is NotImplemented:
            return other
        return SmoothFunction(mul(self.node, other.node), self.domain)

    __rmul__ = __mul__

    def __neg__(self):
        return SmoothFunction(scale(-1.0, self.node), self.domain)

    def derivative(self) -> "SmoothFunction":
        return SmoothFunction(self.node.diff(), self.domain)

    # -- evaluation -------------------------------------------------------
    def _check_arg(self, s: np.ndarray):
        if self.domain == UNIT_INTERVAL:
            if np.any(s < 0.0) or np.any(s > 1.0):
                raise ValueError("argument outside [0, 1] for unit-interval function")

    def evaluate(self, s):
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        self._check_arg(arr)
        vals = self.node.coeffs(arr, 0)[0]
        return float(vals[0]) if np.isscalar(s) or np.ndim(s) == 0 else vals


# ---------------------------------------------------------------------------
# grids and seminorms

@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling recipe for sup computations.

    The grid has ``max(MIN_GRID_POINTS, factor * ceil(f_max))`` base points plus
    one or two extra; the odd total breaks phase locking against integer
    frequencies, so the sampled phases of a frequency-m sinusoid fill its
    period densely rather than aliasing to ``factor`` distinct values.
    A grid above MAX_GRID_POINTS points raises PrecisionBudgetError.
    """

    factor: int = 64

    def points(self, f: SmoothFunction) -> np.ndarray:
        f_max = f.node.max_frequency()
        n = max(MIN_GRID_POINTS, self.factor * math.ceil(f_max)) \
            if math.isfinite(f_max) else math.inf
        size = n + 1 if f.domain == PERIODIC else n + 2
        if size > MAX_GRID_POINTS:
            # an int size past double range has no float to format
            shown = size if size < 1e300 else math.inf
            raise PrecisionBudgetError(
                f"a grid of {shown:.4g} points exceeds the cap of "
                f"{MAX_GRID_POINTS}")
        if f.domain == PERIODIC:
            return np.arange(size) / size
        return np.linspace(0.0, 1.0, size)


DEFAULT_GRID = GridSpec()


def _closed_form_amplitudes(f: SmoothFunction, max_order: int):
    """Exact per-order sup of |f^(l)| when f is a single sinusoid node."""
    node = f.node
    scale = 1.0
    if isinstance(node, Scale):
        scale = abs(node.c)
        node = node.child
    if not isinstance(node, SinusoidProbe):
        return None
    freq = abs(node.frequency)
    if f.domain == UNIT_INTERVAL and freq < 1.0:
        # partial period; the sup of the trig factor may be below 1
        return None
    w = TWO_PI * freq
    amp = scale * abs(node.amplitude)
    return np.array([amp * w**l for l in range(max_order + 1)])


def seminorm_profile(f: SmoothFunction, max_order: int,
                     grid: GridSpec | None = None) -> np.ndarray:
    """All graded seminorms p_0 .. p_max_order of f in one pass."""
    if not 0 <= max_order <= MAX_ORDER:
        raise ValueError(f"order {max_order} outside 0..{MAX_ORDER}")
    closed = _closed_form_amplitudes(f, max_order)
    if closed is not None:
        return np.maximum.accumulate(closed)
    grid = grid or DEFAULT_GRID
    s = grid.points(f)
    fact = np.array([math.factorial(l) for l in range(max_order + 1)])
    sup = np.zeros(max_order + 1)
    for lo in range(0, s.size, _CHUNK):
        c = f.node.coeffs(s[lo:lo + _CHUNK], max_order)
        np.maximum(sup, np.abs(c).max(axis=1) * fact, out=sup)
    return np.maximum.accumulate(sup)


def _check_probe(m: int, k: int):
    if m < 1:
        raise ValueError("m must be a positive integer")
    if k % 2 != 1 or k < 1:
        raise ValueError("k must be odd and positive")


def probe_deriv_closed_form(m: int, k: int, s0: float, i: int, s):
    """Exact i-th derivative of the oscillatory probe.

    The probe is s -> (2*pi*m)^(-k+1/2) * sin(2*pi*m*(s - s0)); its i-th
    derivative is (2*pi*m)^(i-k+1/2) times the shifted trig cycle.
    """
    _check_probe(m, k)
    if not 0 <= i <= MAX_ORDER:
        raise ValueError(f"derivative order {i} out of range")
    w = TWO_PI * m
    theta = w * (np.asarray(s, dtype=float) - s0)
    out = w**(i - k + 0.5) * trig_cycle(theta, i)
    return float(out) if np.ndim(s) == 0 else out


def probe(m: int, k: int, s0: float, domain: str = PERIODIC) -> SmoothFunction:
    """The oscillatory probe as an expression tree."""
    _check_probe(m, k)
    amp = (TWO_PI * m)**(-k + 0.5)
    return SmoothFunction(SinusoidProbe(amp, float(m), s0), domain)


def constant(c: float, domain: str = PERIODIC) -> SmoothFunction:
    return SmoothFunction(Constant(float(c)), domain)


def zero(domain: str = PERIODIC) -> SmoothFunction:
    return constant(0.0, domain)
