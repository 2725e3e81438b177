"""Expression trees for smooth functions and their graded sup-seminorms.

Two ambient domains are supported: 1-periodic smooth functions on the real
line, and smooth functions on the unit interval (derivatives at the
endpoints are those of the global formula, i.e. of the smooth extension).

The seminorm of grade i is the sup over the domain and over all derivative
orders l <= i of |f^(l)(s)|. Sups are taken on one grid, `GRID`, of
GRID_FACTOR points per unit of a function's highest frequency; trees
consisting of a single sinusoid node get an exact closed form.
`value_range` encloses a function's values: exactly for a constant or one
sinusoid, and otherwise from one grid pass to order 1.

A grid is a recipe, not an array: `GridSpec.points` writes any run of a
grid's points, and no pass holds a grid. A grid pass evaluates its trees
one chunk of points at a time, and `chunks` is the only loop over the
chunks of a grid: it builds each chunk's points and gives the chunk one
`Evaluation`. Chunks are sized by the coefficients they hold: at most
_CHUNK points, and at most _CHUNK_FLOATS floats in an array of the pass's
order. All chunks of a pass have one point count; the last ends at the
grid's last point, so it re-reads a few points of the one before. Before
the loop, `find_shared` compares the pass's trees by value and names the
operator nodes and sinusoids that occur more than once. A node evaluates
its operands through the context, which evaluates each repeated node once
per chunk, to the highest order asked, and serves lower orders as row
slices. The context also keeps the sin and cos pair of each frequency and
phase it reads until `Evaluation.drop_pairs`: a sinusoid's derivatives
keep its phase and step its ``shift``, so z, z' and z^(k) of one tree read
one sin and one cos.

Lifetimes. The pass owns its buffers: every array a node, a kernel or the
pass itself writes, the chunk's points too, comes from
`Evaluation.empty`, which hands out a buffer of the pass that no live
array holds (by its reference count), else allocates one that the pass
keeps. So the chunks of a pass reuse one set of arrays, and nothing
written can alias an array still alive. Kept arrays are read-only, and so
are a `Constant`'s coefficients, a broadcast view of one column; no code
writes into coefficients it did not ask `empty` for. No `Evaluation`
outlives its chunk and no buffer its pass; the functions that
`seminorm_profiles` is given share one pass per grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .jets import MAX_ORDER, compose_series, convolve_trunc
from .primitives import (
    TWO_PI,
    PrecisionBudgetError,
    ScalarPrimitive,
    is_finite,
    trig_pair,
    trig_rows,
)

PERIODIC = "periodic"
UNIT_INTERVAL = "unit_interval"

# a chunk has at most _CHUNK points, and at most _CHUNK_FLOATS coefficients
# in each (order + 1)-row array, 512 KiB; its sines and cosines are one row
_CHUNK = 1 << 14
_CHUNK_FLOATS = 1 << 16
MIN_GRID_POINTS = 4096
# grid points per frequency unit of a function's highest frequency
GRID_FACTOR = 64
# no pass holds a grid, so the cap bounds one pass's work, not its memory:
# ceil(2^24 / floor(2^16 / 17)) = 4,353 chunks at order 16, 1,024 at order
# 3 or below; the ex2 sweep at the CLI's cap m = 16384 over x = zero
# evaluates v on 2^21 + 65 points
MAX_GRID_POINTS = 2**24


# ---------------------------------------------------------------------------
# nodes

class Node:
    """Base class for expression-tree nodes."""

    def coeffs(self, s, order: int) -> np.ndarray:
        """Taylor coefficients, shape (order+1, number of points).

        ``s`` is the `Evaluation` of a chunk, through which the node
        evaluates its operands and from which it takes the array it
        writes (`Evaluation.empty`). The result may be read-only.
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

    def spectrum(self) -> tuple:
        """(slope, f_max), read off the tree in one walk: the slope a such
        that node - a*s is 1-periodic, None if unknown, and a structural
        bound on the node's frequency content, in cycles per unit."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Node):
    c: float

    def coeffs(self, s, order):
        # rows past the first are zero: a read-only view of one column
        col = np.zeros((order + 1, 1))
        col[0] = self.c
        return np.broadcast_to(col, (order + 1, s.points.size))

    def diff(self):
        return Constant(0.0)

    def spectrum(self):
        return 0.0, 0.0


@dataclass(frozen=True)
class Affine(Node):
    a: float
    b: float

    def coeffs(self, s, order):
        pts = s.points
        out = s.empty((order + 1, pts.size))
        np.multiply(self.a, pts, out=out[0])
        out[0] += self.b
        out[1:] = 0.0
        if order >= 1:
            out[1] = self.a
        return out

    def diff(self):
        return Constant(self.a)

    def spectrum(self):
        return self.a, 0.0


@dataclass(frozen=True)
class SinusoidProbe(Node):
    """s -> amplitude * trig_cycle(2*pi*frequency*(s - phase), shift): sin
    for shift 0, cos for 1, -sin for 2, ...; ``diff`` keeps the phase and
    steps the shift. The amplitude is finite, and a derivative whose
    amplitude would leave double range is a PrecisionBudgetError."""

    amplitude: float
    frequency: float
    phase: float = 0.0
    shift: int = 0

    def __post_init__(self):
        if not is_finite(self.amplitude):
            raise ValueError("sinusoid amplitude must be finite, got "
                             f"{self.amplitude!r}")
        # a quarter period, 0.25 / frequency, must be a finite double
        if not (is_finite(self.frequency) and self.frequency != 0.0
                and math.isfinite(0.25 / self.frequency)):
            raise ValueError("sinusoid frequency must be nonzero with a "
                             f"finite period, got {self.frequency!r}")
        if not is_finite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase!r}")
        if not (type(self.shift) is int and self.shift >= 0):
            raise ValueError("sinusoid shift must be a nonnegative int, "
                             f"got {self.shift!r}")

    def coeffs(self, s, order):
        return trig_rows(s.sin_cos(self), self.amplitude,
                         TWO_PI * self.frequency, order, self.shift,
                         out=s.empty((order + 1, s.points.size)))

    def diff(self):
        # d/ds sin(th) = 2*pi*f*cos(th), one step along the trig cycle
        amplitude = self.amplitude * (TWO_PI * self.frequency)
        if not is_finite(amplitude):
            raise PrecisionBudgetError(f"the derivative of {self!r} leaves "
                                       "double range")
        return SinusoidProbe(amplitude, self.frequency, self.phase,
                             self.shift + 1)

    def spectrum(self):
        f = self.frequency
        periodic = self.amplitude == 0.0 or abs(f - round(f)) < 1e-12
        return (0.0 if periodic else None), abs(f)


@dataclass(frozen=True)
class Sum(Node):
    children: tuple

    def __init__(self, *children):
        object.__setattr__(self, "children", tuple(children))

    def coeffs(self, s, order):
        out = s.coeffs(self.children[0], order)
        for ch in self.children[1:]:
            out = np.add(out, s.coeffs(ch, order), out=s.empty(out.shape))
        return out

    def operands(self):
        return self.children

    def diff(self):
        return add(*[ch.diff() for ch in self.children])

    def spectrum(self):
        slope, f_max = 0.0, 0.0
        for ch in self.children:
            a, f = ch.spectrum()
            slope = None if slope is None or a is None else slope + a
            f_max = max(f_max, f)
        return slope, f_max


@dataclass(frozen=True)
class Product(Node):
    children: tuple

    def __init__(self, *children):
        object.__setattr__(self, "children", tuple(children))

    def coeffs(self, s, order):
        out = s.coeffs(self.children[0], order)
        for ch in self.children[1:]:
            out = convolve_trunc(out, s.coeffs(ch, order),
                                 out=s.empty(out.shape))
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

    def spectrum(self):
        slopes, f_max = [], 0.0
        for ch in self.children:
            a, f = ch.spectrum()
            slopes.append(a)
            f_max += f
        if len(slopes) == 2 and isinstance(self.children[1], Constant):
            # c * node, as `mul(node, Constant(c))` builds it; 0 stays 0
            a = slopes[0]
            return (a and self.children[1].c * a), f_max
        return (0.0 if all(a == 0.0 for a in slopes) else None), f_max


@dataclass(frozen=True)
class PrimitiveCompose(Node):
    primitive: ScalarPrimitive
    child: Node

    def coeffs(self, s, order):
        inner = s.coeffs(self.child, order)
        ode = self.primitive.ode
        # the ODE supplies every row of g past the first len(ode)
        outer = self.primitive.taylor_coeffs(inner[0],
                                             min(len(ode) - 1, order))
        return compose_series(outer, inner, ode, s.empty)

    def operands(self):
        return (self.child,)

    def diff(self):
        return mul(PrimitiveCompose(self.primitive.derivative(), self.child),
                   self.child.diff())

    def spectrum(self):
        a, f = self.child.spectrum()
        if not self.primitive.is_one_periodic:
            return (0.0 if a == 0.0 else None), f
        if a is None:
            return None, f
        # phi of a*s + (1-periodic) turns |a| times per unit; an inf slope
        # (c * a past double range) is no integer, and round() would raise
        integer = math.isfinite(a) and abs(a - round(a)) < 1e-12
        return (0.0 if integer else None), abs(a) + f


# ---------------------------------------------------------------------------
# evaluation contexts

def find_shared(*roots: Node) -> dict:
    """The nodes that repeat in the trees ``roots``, compared by value, as
    a dict from the id of each node object whose value repeats to the slot
    of that value.

    An operator node (one with operands) or a sinusoid is kept when its
    value occurs twice, in any of the trees. The operands of a second
    occurrence are not visited, since the kept value stands for them.
    Constant and affine leaves are never kept: rebuilding them costs less
    than keeping them.

    The ids stay valid while ``roots`` live: `chunks` holds the roots that
    own the nodes, and no `Evaluation` outlives its pass.
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
    slot_of = {}   # with no repeats, no subtree is hashed again
    return {id(nd): slot_of.setdefault(nd, len(slot_of))
            for nd in visited if repeated and nd in repeated}


def _references_when_free() -> int:
    """What `sys.getrefcount` reads in `_buffer`'s loop for an array that
    only the list holds: 3 on CPython 3.11, for the list, the loop and the
    call."""
    for buf in [np.empty(0)]:
        return sys.getrefcount(buf)


_FREE = _references_when_free()


def _buffer(buffers: dict, shape: tuple) -> np.ndarray:
    """An uninitialised float array of ``shape``: the first of ``buffers``,
    a pass's arrays by shape, that nothing else holds, else a new one that
    the pass keeps."""
    same_shape = buffers.get(shape)
    if same_shape is None:
        same_shape = buffers[shape] = []
    for buf in same_shape:
        # a name or a view of it would add one reference
        if sys.getrefcount(buf) == _FREE:
            return buf
    buf = np.empty(shape)
    same_shape.append(buf)
    return buf


class Evaluation:
    """One chunk of a grid pass: its points, the coefficients of the nodes
    whose ids ``slots`` (from `find_shared`) maps, and the sines and cosines
    its sinusoids have read.

    A node asks ``coeffs`` for its operands. A node ``slots`` names is
    evaluated once, to the highest order asked so far; a lower order is a
    row slice of the kept, read-only array. ``buffers`` are the pass's,
    shared by its chunks (see `empty`); an evaluation of its own points
    has buffers of its own.
    """

    def __init__(self, points: np.ndarray, slots: dict | None = None,
                 buffers: dict | None = None):
        self.points = points
        self._slots = {} if slots is None else slots
        self._buffers = {} if buffers is None else buffers
        self._kept = {}   # slot -> coefficients
        self._trig = {}   # (frequency, phase) -> (sin, cos)

    def empty(self, shape) -> np.ndarray:
        """An array of ``shape`` to write, from the pass's buffers: no
        array alive shares its memory."""
        return _buffer(self._buffers, shape)

    def abs_max(self, c: np.ndarray):
        """The max of |c| along its last axis; |c| goes to a buffer."""
        return np.abs(c, out=self.empty(c.shape)).max(axis=-1)

    def coeffs(self, node: Node, order: int) -> np.ndarray:
        slot = self._slots.get(id(node))
        if slot is None:
            return node.coeffs(self, order)
        kept = self._kept.get(slot)
        if kept is None or kept.shape[0] <= order:
            # a read-only view: the buffer stays writable for its next use
            kept = self._kept[slot] = node.coeffs(self, order).view()
            kept.flags.writeable = False
        return kept[:order + 1]

    def sin_cos(self, node: "SinusoidProbe"):
        """(sin, cos) at ``node``'s frequency and phase, computed when a
        node first reads them and kept until `drop_pairs`."""
        key = (node.frequency, node.phase)
        pair = self._trig.get(key)
        if pair is None:
            theta = np.subtract(self.points, node.phase,
                                out=self.empty(self.points.shape))
            theta *= TWO_PI * node.frequency
            pair = self._trig[key] = trig_pair(theta)
        return pair

    def drop_pairs(self):
        """Release the kept sines and cosines; kept coefficients stay."""
        self._trig.clear()


def chunks(f: "SmoothFunction", *roots: Node, order: int):
    """The `Evaluation` of each chunk of f's grid, in order, keeping what
    repeats in the trees ``roots``, which the pass evaluates to at most
    ``order``.

    A chunk holds at most _CHUNK points and at most _CHUNK_FLOATS
    coefficients per (order + 1)-row array; call that many points cap.
    The grid's size points split into count = ceil(size / cap) chunks of
    step = ceil(size / count) points each, so every chunk of a pass has
    one shape and the pass's buffers are one set. The last chunk starts at
    size - step: it re-reads fewer than count points of the chunk before
    it, which no max, min or sup over the grid sees. Each chunk's points
    are built when it starts, into a buffer of the pass."""
    slots, buffers, size = find_shared(*roots), {}, GRID.size(f)
    cap = min(_CHUNK, _CHUNK_FLOATS // (order + 1))
    count = -(-size // cap)
    step = -(-size // count)
    for i in range(count):
        lo = min(i * step, size - step)
        points = GRID.points(f.domain, size, lo, lo + step,
                             out=_buffer(buffers, (step,)))
        yield Evaluation(points, slots, buffers)


# ---------------------------------------------------------------------------
# folding constructors
#
# Every tree the package builds goes through these. Each gives the node of
# the same value as Sum / Product with the identically zero and unit terms
# left out, so no grid pass evaluates them; the remaining children keep
# their order, so the arithmetic on them is unchanged. c * node is
# `mul(node, Constant(c))`: a constant last factor is one multiply. The
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


# ---------------------------------------------------------------------------
# smooth functions

@dataclass(frozen=True)
class SmoothFunction:
    """An element of one of the two ambient smooth-function spaces. A
    periodic one is structurally 1-periodic: the slope its node's
    `spectrum` reads is 0 to within 1e-12."""

    node: Node
    domain: str

    def __post_init__(self):
        if self.domain not in (PERIODIC, UNIT_INTERVAL):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        if self.domain == PERIODIC:
            a, _ = self.node.spectrum()
            if a is None or not abs(a) <= 1e-12:   # nan is not periodic
                raise ValueError(
                    "tree is not structurally 1-periodic "
                    f"(affine slope {a!r})")

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, SmoothFunction):
            return NotImplemented
        if other.domain != self.domain:
            raise ValueError("domain tags differ")
        return SmoothFunction(add(self.node, other.node), self.domain)

    def __sub__(self, other):
        if not isinstance(other, SmoothFunction):
            return NotImplemented
        return self + -other

    def __mul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        if not is_finite(c):
            raise ValueError(f"a scale must be finite, got {c!r}")
        return SmoothFunction(mul(self.node, Constant(float(c))), self.domain)

    __rmul__ = __mul__

    def __neg__(self):
        return SmoothFunction(mul(self.node, Constant(-1.0)), self.domain)

    def derivative(self) -> "SmoothFunction":
        return SmoothFunction(self.node.diff(), self.domain)

    # -- evaluation -------------------------------------------------------
    def evaluate(self, s):
        if self.domain == UNIT_INTERVAL:
            arr = np.asarray(s, dtype=float)
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError("argument outside [0, 1] for unit-interval function")
        return self.node.values(s)


# ---------------------------------------------------------------------------
# grids and seminorms

def is_integer(val) -> bool:
    """An int or a numpy integer, not a bool (a float has no __index__)."""
    return type(val) is not bool and hasattr(val, "__index__")


class GridSpec:
    """Uniform sampling recipe for sup computations.

    The grid has ``max(MIN_GRID_POINTS, GRID_FACTOR * ceil(f_max))`` base
    points, f_max being the frequency bound of f's `Node.spectrum`, plus
    one or two extra; the odd total breaks phase locking against
    integer frequencies, so a frequency-m sinusoid is sampled at phase angles
    that fill its period densely, not aliased to GRID_FACTOR distinct values.
    A grid above MAX_GRID_POINTS points raises PrecisionBudgetError.
    """

    def size(self, f: SmoothFunction) -> int:
        _, f_max = f.node.spectrum()
        n = max(MIN_GRID_POINTS, GRID_FACTOR * math.ceil(f_max)) \
            if math.isfinite(f_max) else math.inf
        size = n + 1 if f.domain == PERIODIC else n + 2
        if size > MAX_GRID_POINTS:
            # an int size past double range has no float to format
            shown = size if size < 1e300 else math.inf
            raise PrecisionBudgetError(
                f"a grid of {shown:.4g} points exceeds the cap of "
                f"{MAX_GRID_POINTS}")
        return size

    def points(self, domain: str, size: int, lo: int, hi: int,
               out: np.ndarray) -> np.ndarray:
        """Points lo .. hi - 1 of the grid of ``size`` points (see `size`) on
        ``domain``, written to ``out``, an array of hi - lo floats: bit for
        bit those of ``arange(size) / size`` (periodic) or
        ``linspace(0, 1, size)`` (unit interval)."""
        s = np.arange(lo, hi, dtype=float)
        if domain == PERIODIC:
            return np.divide(s, size, out=out)
        # linspace's rule: j times the step 1 / (size - 1), and 1 exactly
        np.multiply(s, 1.0 / (size - 1), out=out)
        if hi == size:
            out[-1] = 1.0
        return out


GRID = GridSpec()


def _closed_form_amplitudes(f: SmoothFunction, max_order: int):
    """Exact per-order sup of |f^(l)| when f is a sinusoid or c times one."""
    node, factor = f.node, 1.0
    if isinstance(node, Product) and len(node.children) == 2 \
            and isinstance(node.children[1], Constant):
        node, factor = node.children[0], abs(node.children[1].c)
    if not isinstance(node, SinusoidProbe):
        return None
    freq = abs(node.frequency)
    if f.domain == UNIT_INTERVAL and freq < 1.0:
        # partial period; the sup of the trig factor may be below 1
        return None
    w = TWO_PI * freq
    amp = factor * abs(node.amplitude)
    return np.array([amp * w**l for l in range(max_order + 1)])


def value_range(f: SmoothFunction):
    """(lo, hi), an enclosure of the values of f: exact for a constant and
    for one sinusoid (`_closed_form_amplitudes`). Otherwise one pass over
    f's grid takes f to order 1 and widens the grid's min and max by
    h * sup|f'|, h being the grid step. Off the grid, f is at most (h/2)
    sup|f'| beyond its nearest grid value; the other half covers the grid's
    error in sup|f'|, below 6% for a trigonometric polynomial sampled at
    GRID_FACTOR = 64 points per frequency unit (Bernstein's inequality), so
    the enclosure holds up to the grid's resolution."""
    if isinstance(f.node, Constant):
        return f.node.c, f.node.c
    amp = _closed_form_amplitudes(f, 0)
    if amp is not None:
        return -float(amp[0]), float(amp[0])
    lo, hi, slope = np.inf, -np.inf, 0.0   # running min, max and sup|f'|
    for i, ev in enumerate(chunks(f, f.node, order=1)):
        if i == 0:
            h = ev.points[1] - ev.points[0]   # the grid's step
        c = ev.coeffs(f.node, 1)
        lo, hi = np.minimum(lo, c[0].min()), np.maximum(hi, c[0].max())
        slope = np.maximum(slope, ev.abs_max(c[1]))
    pad = h * slope
    return float(lo - pad), float(hi + pad)


def seminorm_profile(f: SmoothFunction, max_order: int) -> np.ndarray:
    """All graded seminorms p_0 .. p_max_order of f in one pass."""
    return seminorm_profiles([f], max_order)[0]


def seminorm_profiles(fs, max_order: int) -> list:
    """`seminorm_profile` of each function of ``fs``, in their order.

    The functions without a closed form are grouped by grid, and each
    group is one pass over `chunks`: each chunk evaluates the group's trees
    one after another in one `Evaluation`, so a node that repeats across
    them is evaluated once per chunk. A tree's coefficients, sines and
    cosines are released before the next tree is evaluated.
    """
    if not 0 <= max_order <= MAX_ORDER:
        raise ValueError(f"order {max_order} outside 0..{MAX_ORDER}")
    profiles = [_closed_form_amplitudes(f, max_order) for f in fs]
    groups = {}   # (domain, grid size) -> indices into fs
    for i, f in enumerate(fs):
        if profiles[i] is None:
            groups.setdefault((f.domain, GRID.size(f)), []).append(i)
            profiles[i] = np.zeros(max_order + 1)
    fact = np.array([math.factorial(l) for l in range(max_order + 1)])
    for members in groups.values():
        for ev in chunks(fs[members[0]], *(fs[i].node for i in members),
                         order=max_order):
            for i in members:
                # no coefficients stay bound while the next tree runs
                sup = ev.abs_max(ev.coeffs(fs[i].node, max_order))
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
    if not is_finite(m):
        raise ValueError("m must be finite in double precision")


def probe(m: int, k: int, s0: float, domain: str = PERIODIC) -> SmoothFunction:
    """The oscillatory probe s -> (2*pi*m)^(-k+1/2) * sin(2*pi*m*(s - s0))
    as an expression tree."""
    check_probe(k, m)
    amp = (TWO_PI * m)**(-k + 0.5)
    return SmoothFunction(SinusoidProbe(amp, float(m), s0), domain)


def constant(c: float, domain: str = PERIODIC) -> SmoothFunction:
    """The constant function c, for a finite c."""
    if not is_finite(c):
        raise ValueError(f"constant must be finite, got {c!r}")
    return SmoothFunction(Constant(float(c)), domain)


def zero(domain: str = PERIODIC) -> SmoothFunction:
    return constant(0.0, domain)
