import math

import numpy as np

from tameprobe.functions import (
    PERIODIC,
    Constant,
    SinusoidProbe,
    SmoothFunction,
    Sum,
)
from tameprobe.jets import MAX_ORDER
from tameprobe.primitives import trig_cycle

TWO_PI = 2.0 * math.pi


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
