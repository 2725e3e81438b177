"""Expression trees for smooth functions and their graded sup-seminorms.

Two ambient domains are supported: 1-periodic smooth functions on the real
line, and smooth functions on the unit interval (derivatives at the
endpoints are those of the global formula, i.e. of the smooth extension).

The seminorm of grade i is the sup over the domain and over all derivative
orders l <= i of |f^(l)(s)|. Sups are taken on a structurally sized grid;
trees consisting of a single sinusoid node get an exact closed form.

A grid pass evaluates its trees one chunk of points at a time, and
`chunks` is the only loop over the chunks of a grid: it gives each chunk
one `Evaluation`. Before the loop, `find_shared` compares the pass's
trees by value and names the operator nodes and sinusoids that occur more
than once. A node evaluates its operands through the context, which
evaluates each repeated node once per chunk, to the highest order asked,
and serves lower orders as row slices. The context also keeps each sin
and cos it computes until `Evaluation.drop_pairs`: a sinusoid's
derivatives keep its phase and step its ``shift``, so z, z' and z^(k) of
one tree read one sin and one cos. Kept arrays are read-only, and so are
a `Constant`'s coefficients, a broadcast view of one column; no code
writes into coefficients it did not allocate. Nothing outlives a pass; the
functions that `seminorm_profiles` is given share one pass per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import primitives
from .jets import MAX_ORDER, compose_series, convolve_trunc
from .primitives import TWO_PI, ScalarPrimitive, trig_halves, trig_rows

PERIODIC = "periodic"
UNIT_INTERVAL = "unit_interval"

# the arrays a chunk keeps for its repeated nodes are (order + 1) * _CHUNK
# floats each, and its sines and cosines _CHUNK floats each
_CHUNK = 1 << 14
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

    def coeffs(self, s, order: int) -> np.ndarray:
        """Taylor coefficients, shape (order+1, number of points).

        ``s`` is the `Evaluation` of a chunk, through which the node
        evaluates its operands, or an array of points, which stands for an
        evaluation that keeps nothing. The result may be read-only.
        """
        raise NotImplementedError

    def values(self, s):
        """The node's values at the points ``s``, as an array the caller
        owns; a float for a scalar."""
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        vals = Evaluation(arr).coeffs(self, 0)[0]
        # copies only a read-only row, such as a constant's
        vals = np.require(vals, requirements="W")
        return float(vals[0]) if np.ndim(s) == 0 else vals

    def operands(self) -> tuple:
        """The nodes whose coefficients ``coeffs`` combines."""
        return ()

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
        # rows past the first are zero: a read-only view of one column
        col = np.zeros((order + 1, 1))
        col[0] = self.c
        return np.broadcast_to(col, (order + 1, _context(s).points.size))

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
        s = _context(s).points
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
    """s -> amplitude * trig_cycle(2*pi*frequency*(s - phase), shift): sin
    for shift 0, cos for 1, -sin for 2, ...; ``diff`` keeps the phase and
    steps the shift."""

    amplitude: float
    frequency: float
    phase: float = 0.0
    shift: int = 0

    def __post_init__(self):
        # a quarter period, 0.25 / frequency, must be a finite double
        if not (math.isfinite(self.frequency) and self.frequency != 0.0
                and math.isfinite(0.25 / self.frequency)):
            raise ValueError("sinusoid frequency must be nonzero with a "
                             f"finite period, got {self.frequency!r}")
        if not (type(self.shift) is int and self.shift >= 0):
            raise ValueError("sinusoid shift must be a nonnegative int, "
                             f"got {self.shift!r}")

    def coeffs(self, s, order):
        return trig_rows(_context(s).sin_cos(self, order), self.amplitude,
                         TWO_PI * self.frequency, order, self.shift)

    def diff(self):
        # d/ds sin(th) = 2*pi*f*cos(th), one step along the trig cycle
        w = TWO_PI * self.frequency
        return SinusoidProbe(self.amplitude * w, self.frequency, self.phase,
                             self.shift + 1)

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
        ev = _context(s)
        out = ev.coeffs(self.children[0], order)
        for ch in self.children[1:]:
            out = out + ev.coeffs(ch, order)
        return out

    def operands(self):
        return self.children

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
        ev = _context(s)
        out = ev.coeffs(self.children[0], order)
        for ch in self.children[1:]:
            out = convolve_trunc(out, ev.coeffs(ch, order))
        return out

    def operands(self):
        return self.children

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
        return self.c * _context(s).coeffs(self.child, order)

    def operands(self):
        return (self.child,)

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
        inner = _context(s).coeffs(self.child, order)
        ode = self.primitive.ode
        # the ODE supplies every row of g past the first len(ode)
        outer = self.primitive.taylor_coeffs(inner[0],
                                             min(len(ode) - 1, order))
        return compose_series(outer, inner, ode)

    def operands(self):
        return (self.child,)

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


# ---------------------------------------------------------------------------
# evaluation contexts

@dataclass(frozen=True)
class Sharing:
    """The nodes whose coefficients each chunk of one grid pass keeps, from
    `find_shared`.

    ``slots`` maps the id of each node object whose value repeats to the
    slot of that value; ``objects`` holds those objects, so that no other
    object can take their ids while the pass runs.
    """

    slots: dict
    objects: tuple


NOTHING_SHARED = Sharing({}, ())


def find_shared(*roots: Node) -> Sharing:
    """The nodes that repeat in the trees ``roots``, compared by value.

    An operator node (one with operands) or a sinusoid is kept when its
    value occurs twice, in any of the trees. The operands of a second
    occurrence are not visited, since the kept value stands for them.
    Constant and affine leaves are never kept: rebuilding them costs less
    than keeping them.
    """
    seen, repeated, visited = set(), set(), []
    todo = list(roots)
    while todo:
        node = todo.pop()
        leaf = isinstance(node, SinusoidProbe)
        if not (leaf or node.operands()):
            continue
        visited.append(node)
        # one hash of the subtree per node: set.add tells by the size
        size = len(seen)
        seen.add(node)
        if len(seen) == size:
            repeated.add(node)
        elif not leaf:
            todo.extend(node.operands())
    objects = tuple(nd for nd in visited if nd in repeated) if repeated \
        else ()
    slot_of = {}
    slots = {id(nd): slot_of.setdefault(nd, len(slot_of)) for nd in objects}
    return Sharing(slots, objects)


class Evaluation:
    """One chunk of a grid pass: its points, the coefficients of the nodes
    that the pass's `Sharing` names, and the sines and cosines its
    sinusoids have read.

    A node asks ``coeffs`` for its operands. A node the sharing names is
    evaluated once, to the highest order asked so far; a lower order is a
    row slice of the kept, read-only array.
    """

    def __init__(self, points: np.ndarray,
                 sharing: Sharing = NOTHING_SHARED):
        self.points = points
        self._sharing = sharing
        self._kept = {}   # slot -> coefficients
        self._trig = {}   # (frequency, phase) -> [sin, cos]

    def coeffs(self, node: Node, order: int) -> np.ndarray:
        slot = self._sharing.slots.get(id(node))
        if slot is None:
            return node.coeffs(self, order)
        kept = self._kept.get(slot)
        if kept is None or kept.shape[0] <= order:
            kept = self._kept[slot] = node.coeffs(self, order)
            kept.flags.writeable = False
        return kept[:order + 1]

    def sin_cos(self, node: "SinusoidProbe", order: int):
        """[sin, cos] at ``node``'s frequency and phase. Each half is
        computed when a node first reads it (`trig_halves` tells which
        halves rows 0..order read) and kept until `drop_pairs`; a half
        that no node has read yet is None."""
        pair = self._trig.setdefault((node.frequency, node.phase),
                                     [None, None])
        missing = [j for j in trig_halves(order, node.shift)
                   if pair[j] is None]
        if missing:
            theta = TWO_PI * node.frequency * (self.points - node.phase)
            for j in missing:
                pair[j] = primitives.trig_cycle(theta, j)
        return pair

    def drop_pairs(self):
        """Release the kept sines and cosines; kept coefficients stay."""
        self._trig.clear()


def chunks(points: np.ndarray, *roots: Node):
    """The `Evaluation` of each slice of at most _CHUNK of ``points``, in
    order, keeping what repeats in the trees ``roots``."""
    sharing = find_shared(*roots)
    for lo in range(0, points.size, _CHUNK):
        yield Evaluation(points[lo:lo + _CHUNK], sharing)


def _context(s) -> Evaluation:
    """``s`` if it is an `Evaluation`, else one that keeps nothing for
    the points ``s``."""
    return s if isinstance(s, Evaluation) else Evaluation(s)


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
        self._check_arg(np.asarray(s, dtype=float))
        return self.node.values(s)


# ---------------------------------------------------------------------------
# grids and seminorms

def is_integer(val) -> bool:
    """An int or a numpy integer, not a bool (a float has no __index__)."""
    return type(val) is not bool and hasattr(val, "__index__")


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling recipe for sup computations.

    The grid has ``max(MIN_GRID_POINTS, factor * ceil(f_max))`` base points plus
    one or two extra; the odd total breaks phase locking against integer
    frequencies, so a frequency-m sinusoid is sampled at phase angles that
    fill its period densely, not aliased to ``factor`` distinct values.
    A grid above MAX_GRID_POINTS points raises PrecisionBudgetError.
    """

    factor: int = 64

    def __post_init__(self):
        if not is_integer(self.factor) or self.factor < 1:
            raise ValueError("grid factor must be a positive integer")

    def size(self, f: SmoothFunction) -> int:
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
        return size

    def points(self, f: SmoothFunction) -> np.ndarray:
        size = self.size(f)
        if f.domain == PERIODIC:
            # dividing in place holds one float copy, not an int one too
            s = np.arange(size, dtype=float)
            s /= size
            return s
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
    return seminorm_profiles([f], max_order, grid)[0]


def seminorm_profiles(fs, max_order: int, grid: GridSpec | None) -> list:
    """`seminorm_profile` of each function of ``fs``, in their order.

    The functions without a closed form are grouped by grid, and each
    group is one pass over `chunks`: each chunk evaluates the group's trees
    one after another in one `Evaluation`, so a node that repeats across
    them is evaluated once per chunk. A tree's coefficients, sines and
    cosines are released before the next tree is evaluated.
    """
    if not 0 <= max_order <= MAX_ORDER:
        raise ValueError(f"order {max_order} outside 0..{MAX_ORDER}")
    grid = grid or DEFAULT_GRID
    profiles = [_closed_form_amplitudes(f, max_order) for f in fs]
    groups = {}   # (domain, grid size) -> indices into fs
    for i, f in enumerate(fs):
        if profiles[i] is None:
            groups.setdefault((f.domain, grid.size(f)), []).append(i)
            profiles[i] = np.zeros(max_order + 1)
    fact = np.array([math.factorial(l) for l in range(max_order + 1)])
    for members in groups.values():
        s = grid.points(fs[members[0]])   # one grid alive at a time
        for ev in chunks(s, *(fs[i].node for i in members)):
            for i in members:
                # no coefficients stay bound while the next tree runs
                sup = np.abs(ev.coeffs(fs[i].node, max_order)).max(axis=1)
                np.maximum(profiles[i], sup * fact, out=profiles[i])
                ev.drop_pairs()
    return [np.maximum.accumulate(p) for p in profiles]


def check_probe(k: int, m: int = 1):
    """A probe's m >= 1 and odd k <= MAX_ORDER, the order z is evaluated to."""
    if not is_integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1 or k % 2 != 1:
        raise ValueError(f"k must be odd and positive, got {k}")
    if k > MAX_ORDER:
        raise ValueError(f"k = {k} exceeds the order cap {MAX_ORDER}")
    if not is_integer(m) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")


def probe(m: int, k: int, s0: float, domain: str = PERIODIC) -> SmoothFunction:
    """The oscillatory probe s -> (2*pi*m)^(-k+1/2) * sin(2*pi*m*(s - s0))
    as an expression tree."""
    check_probe(k, m)
    amp = (TWO_PI * m)**(-k + 0.5)
    return SmoothFunction(SinusoidProbe(amp, float(m), s0), domain)


def constant(c: float, domain: str = PERIODIC) -> SmoothFunction:
    return SmoothFunction(Constant(float(c)), domain)


def zero(domain: str = PERIODIC) -> SmoothFunction:
    return constant(0.0, domain)
