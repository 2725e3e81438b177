"""Univariate Taylor-jet arithmetic of bounded order.

A jet stores the value and Taylor coefficients of a smooth function at a
single base point. All high-order derivatives in the package are obtained
through jets; coefficients are Taylor-normalized (derivative / i!) and only
converted to raw derivatives at extraction time.

The array kernels (`convolve_trunc`, `compose_series`) operate on stacked
coefficient arrays of shape ``(order + 1, npoints)`` so that grid sweeps
can reuse the same code paths vectorized over many base points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_ORDER = 16


def convolve_trunc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated Cauchy product along axis 0.

    ``out[i] = sum_j a[j] * b[i - j]``, each row as a single contraction
    in ascending j so results are bit-for-bit reproducible across runs.
    """
    out = np.empty_like(a)
    for i in range(a.shape[0]):
        np.einsum("j...,j...->...", a[:i + 1], b[i::-1], out=out[i])
    return out


def compose_series(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Substitute the series ``inner`` into ``outer`` (Horner form).

    ``outer`` holds Taylor coefficients of g at the inner value; ``inner``
    holds the inner function's coefficients at the base point. The constant
    term of ``inner`` is ignored (it is already absorbed into ``outer``).
    """
    n = outer.shape[0]
    w = inner.copy()
    w[0] = 0.0
    if n > 1 and not np.any(w[2:]):
        # linear inner: out[i] = outer[i] * w1^i, no convolutions needed
        out = np.empty_like(outer)
        out[0] = outer[0]
        power = np.ones_like(w[0])
        for i in range(1, n):
            power = power * w[1]
            out[i] = outer[i] * power
        return out
    out = np.zeros_like(outer)
    out[0] = outer[n - 1]
    for i in range(n - 2, -1, -1):
        out = convolve_trunc(out, w)
        out[0] += outer[i]
    return out


@dataclass(frozen=True)
class TaylorJet:
    """Value plus Taylor coefficients of a smooth function at a point.

    ``coeffs[i]`` is the i-th derivative divided by i!.
    """

    base_point: float
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a nonempty 1-d array")
        if c.size - 1 > MAX_ORDER:
            raise ValueError(f"jet order {c.size - 1} exceeds cap {MAX_ORDER}")
        if not np.all(np.isfinite(c)):
            raise ValueError("jet coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @property
    def value(self) -> float:
        return float(self.coeffs[0])


def deriv_from_jet(j: TaylorJet, i: int) -> float:
    """Raw i-th derivative, i.e. ``i! * coeffs[i]``."""
    if not 0 <= i <= j.order:
        raise ValueError(f"derivative order {i} out of range for jet of order {j.order}")
    return float(math.factorial(i) * j.coeffs[i])
