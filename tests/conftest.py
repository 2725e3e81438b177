import math
import random

import numpy as np

from tameprobe import primitives
from tameprobe.driver import locate_anchor
from tameprobe.functions import (
    GRID,
    PERIODIC,
    UNIT_INTERVAL,
    Constant,
    Product,
    SinusoidProbe,
    SmoothFunction,
    Sum,
    constant,
    mul,
    probe,
)
from tameprobe.jets import MAX_ORDER
from tameprobe.maps import PostComposition
from tameprobe.primitives import Exp, trig_cycle

TWO_PI = 2.0 * math.pi

# trees with no closed form for their values or their derivative's: sums
# of sinusoids and products; as x, the pullback's domain holds each for
# some winding numbers and not for others
GRID_PATH_TREES = {
    "sum": Sum(SinusoidProbe(0.1, 1.0, 0.1), SinusoidProbe(0.004, 9.0, 0.37)),
    "sum-base-plus-probe": Sum(SinusoidProbe(0.04, 3.0, 0.2),
                               SinusoidProbe(1e-3, 16.0, 0.2)),
    "sum-near-edge": Sum(SinusoidProbe(0.15, 1.0), SinusoidProbe(0.01, 2.0,
                                                                 0.5)),
    "sum-offset": Sum(Constant(-2.5), SinusoidProbe(0.7, 3.0, 0.2),
                      mul(SinusoidProbe(0.05, 16.0, 0.6), Constant(-2.0))),
    "sum-steep": Sum(SinusoidProbe(3.0, 1.0), SinusoidProbe(0.01, 5.0, 0.1)),
    "product": Product(SinusoidProbe(0.3, 1.0, 0.1),
                       Sum(Constant(1.5), SinusoidProbe(0.2, 2.0, 0.3))),
    "product-small": Product(SinusoidProbe(0.05, 1.0, 0.1),
                             SinusoidProbe(0.1, 2.0, 0.3)),
}


def random_small_function(rng, domain=PERIODIC, n_terms=2, scale=0.3,
                          max_freq=4, with_const=True):
    """Random low-frequency tree with first derivative bounded by ~scale.

    The amplitude budget keeps perturbed base points inside the pullback
    map's domain for winding number 1.
    """
    nodes = []
    for _ in range(n_terms):
        f = int(rng.integers(1, max_freq + 1))
        amp = scale * rng.uniform(0.2, 1.0) / (TWO_PI * f * n_terms)
        nodes.append(SinusoidProbe(amp, float(f), float(rng.uniform(0.0, 1.0))))
    if with_const:
        nodes.append(Constant(float(rng.uniform(-scale, scale))))
    return SmoothFunction(Sum(*nodes), domain)


def whole_grid(f):
    """Every point of f's grid in one array, as an oracle builds it; no
    pass of the package holds one."""
    size = GRID.size(f)
    return GRID.points(f.domain, size, 0, size, np.empty(size))


def probe_deriv_closed_form(m, k, s0, i, s):
    """Exact i-th derivative of the oscillatory probe, an oracle that
    shares no code with its tree.

    The probe is s -> (2*pi*m)^(-k+1/2) * sin(2*pi*m*(s - s0)); its i-th
    derivative is (2*pi*m)^(i-k+1/2) times the shifted trig cycle.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if k % 2 != 1 or k < 1:
        raise ValueError("k must be odd and positive")
    if not 0 <= i <= MAX_ORDER:
        raise ValueError(f"derivative order {i} out of range")
    w = TWO_PI * m
    theta = w * (np.asarray(s, dtype=float) - s0)
    out = w**(i - k + 0.5) * trig_cycle(theta, i)
    return float(out) if np.ndim(s) == 0 else out


def count_trig(monkeypatch):
    """The (points, half) of every `trig_cycle` call from now on."""
    calls = []
    real = primitives.trig_cycle

    def counted(theta, i):
        calls.append((np.size(theta), i))
        return real(theta, i)

    monkeypatch.setattr(primitives, "trig_cycle", counted)
    return calls


_STENCILS = {
    1: ([1, -1], [1, -1], 2.0),
    2: ([1, 0, -1], [1, -2, 1], 1.0),
    3: ([2, 1, -1, -2], [1, -2, 2, -1], 2.0),
    4: ([2, 1, 0, -1, -2], [1, -4, 6, -4, 1], 1.0),
}


def fd_derivative(fn, s, order, h):
    """Central-difference derivative with two Richardson steps.

    Second-order stencils at steps h, h/2, h/4 extrapolated to sixth order.
    """
    offsets, weights, denom = _STENCILS[order]

    def estimate(step):
        total = 0.0
        for o, w in zip(offsets, weights):
            total += w * fn(s + o * step)
        return total / (denom * step**order)

    def refine(step):
        return (4.0 * estimate(step / 2.0) - estimate(step)) / 3.0

    return (16.0 * refine(h / 2.0) - refine(h)) / 15.0


def anchored_probes(map_spec, x, pairs, l=8):
    """The (z, u) probes of (m, k) pairs, anchored as the CLI anchors them."""
    _, s0, _, _ = locate_anchor(map_spec, x)
    tag = map_spec.domain_tag
    u = constant(1.0 / l, tag)
    return [(probe(m, k, s0, tag), u) for m, k in pairs]


def ex4_map():
    """ex4 with phi(t) = t + e^t, and the base point x = sinusoid:0.3,1.5."""
    return (PostComposition(Exp((0.0, 1.0))),
            SmoothFunction(SinusoidProbe(0.3, 1.5), UNIT_INTERVAL))


def ex4_seed0_family():
    """ex4 probed by the benchmark's seed-0 family: (m, k) for m = 1..64,
    k in {1, 3, 5}, and 16 drawn sinusoids z with u = 1/8, all in an order
    shuffled by the seed."""
    map_spec, x = ex4_map()
    rng = random.Random(0)
    entries = [(m, k) for m in range(1, 65) for k in (1, 3, 5)]
    for _ in range(16):
        entries.append((rng.uniform(0.001, 0.05),
                        rng.choice((0.5, 1.5, 2.0, 3.0, 7.0)), rng.random()))
    rng.shuffle(entries)
    probes = []
    for e in entries:
        if len(e) == 2:
            probes += anchored_probes(map_spec, x, [e])
        else:
            probes.append((SmoothFunction(SinusoidProbe(*e), UNIT_INTERVAL),
                           constant(0.125, UNIT_INTERVAL)))
    return map_spec, x, probes
