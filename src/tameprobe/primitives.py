"""Scalar smooth primitives with exact Taylor-coefficient recurrences.

Each primitive is an infinitely differentiable map R -> R that can report
its truncated Taylor expansion at any point. Coefficients are stored in
Taylor form (i-th derivative divided by i!), which keeps downstream series
products and compositions numerically tame even when large frequency
factors appear in the raw derivatives.

A sinusoid evaluates its sine and cosine once, as one pair (`trig_pair`),
for all orders, and `trig_rows`, which builds every sinusoid's rows from
that pair, writes each row in place, into an array of its caller's if
given one.

Each primitive g also declares the linear ODE with constant coefficients
that it satisfies, ``g^(r) = sum_{i<r} ode[i] * g^(i)``. Composition
(`jets.compose_series`) runs on this recurrence, so it needs only the
first r derivatives of g at the inner value.

There are four families, each a frozen dataclass closed under
differentiation: `Sin`, `Cos`, `Polynomial` and `Exp` (e^t plus a
polynomial). ``derivative()`` returns g' as one of the four in closed form,
so a derivative of any order costs what g itself costs, and primitives with
equal parameters compare and hash equal. A non-finite parameter is a
ValueError; a derivative's polynomial coefficient past double range is a
PrecisionBudgetError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class PrecisionBudgetError(RuntimeError):
    """A computation would leave the double-precision or grid budget: a
    value beyond double range, a grid above MAX_GRID_POINTS points, or a
    certified m above the driver's cap."""


# sin(theta + i*pi/2) cycle used by trigonometric derivatives
_TRIG_CYCLE = (np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t))


def trig_cycle(theta, i):
    """i-th derivative pattern of sin: sin, cos, -sin, -cos, ..."""
    return _TRIG_CYCLE[i % 4](theta)


def trig_pair(theta):
    """(sin(theta), cos(theta)), each evaluated once."""
    return trig_cycle(theta, 0), trig_cycle(theta, 1)


def trig_rows(pair, amplitude, w, order, shift, out=None):
    """Taylor coefficients in s of amplitude * trig_cycle(theta, shift),
    for a phase theta that grows at rate w, from ``pair`` = (sin(theta),
    cos(theta)); shift 0 is sin, 1 is cos. They are written to ``out``, of
    shape (order + 1,) + theta's, if given.

    Row i is trig_cycle(theta, i + shift) scaled by amplitude * w^i / i!;
    its sign flip goes on the scalar factor, which rounds the same as on
    the array. Each row is written in place and divided there; 0! and 1!
    divide exactly, so rows 0 and 1 skip the division.
    """
    if out is None:
        out = np.empty((order + 1,) + pair[shift % 2].shape)
    for i in range(order + 1):
        j = shift + i
        sign = -1.0 if j % 4 >= 2 else 1.0
        np.multiply(sign * amplitude * w**i, pair[j % 2], out=out[i])
        if i > 1:
            out[i] /= math.factorial(i)
    return out


class ScalarPrimitive:
    """Base class for smooth scalar primitives.

    Subclasses implement ``taylor_coeffs(t, order)`` returning an array of
    shape ``(order + 1,) + t.shape`` with entry ``i`` equal to
    ``g^(i)(t) / i!`` and ``derivative()`` returning g' in closed form, and
    declare ``ode``, the coefficients ``(a_0, .., a_{r-1})`` of the ODE
    ``g^(r) = sum_i a_i * g^(i)``.
    """

    ode: tuple

    def taylor_coeffs(self, t: np.ndarray, order: int) -> np.ndarray:
        raise NotImplementedError

    def derivative(self) -> "ScalarPrimitive":
        raise NotImplementedError

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = self.taylor_coeffs(arr, 0)[0]
        return float(out[0]) if arr.ndim == 0 else out

    @property
    def is_one_periodic(self) -> bool:
        return False


@dataclass(frozen=True)
class Sin(ScalarPrimitive):
    """t -> amplitude * sin(omega * t)."""

    omega: float = 1.0
    amplitude: float = 1.0
    # steps along the trig cycle; `Cos` is one step on
    shift = 0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and math.isfinite(self.amplitude)):
            raise ValueError(f"{self!r}: omega and amplitude must be finite")

    def taylor_coeffs(self, t, order):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return trig_rows(trig_pair(self.omega * t), self.amplitude,
                         self.omega, order, self.shift)

    def derivative(self):
        # sin' = cos and cos' = -sin, each times omega
        if self.shift:
            return Sin(self.omega, -self.amplitude * self.omega)
        return Cos(self.omega, self.amplitude * self.omega)

    @property
    def ode(self):
        return (-self.omega**2, 0.0)

    @property
    def is_one_periodic(self):
        k = self.omega / TWO_PI
        return self.amplitude == 0.0 or abs(k - round(k)) < 1e-12


class Cos(Sin):
    """t -> amplitude * cos(omega * t)."""

    shift = 1


def _finite_coeffs(coeffs) -> tuple:
    """``coeffs`` as a tuple of floats, each finite, else ValueError."""
    coeffs = tuple(float(c) for c in coeffs)
    if not all(map(math.isfinite, coeffs)):
        raise ValueError(f"coefficients must be finite, got {coeffs!r}")
    return coeffs


def _derivative_coeffs(coeffs: tuple) -> tuple:
    """Ascending coefficients of p' for those of p; () for a constant. One
    beyond double range is a PrecisionBudgetError, not a constructor's."""
    derived = tuple(j * coeffs[j] for j in range(1, len(coeffs)))
    if not all(map(math.isfinite, derived)):
        raise PrecisionBudgetError(f"the derivative of the polynomial "
                                   f"{coeffs!r} leaves double range")
    return derived


def _poly_rows(coeffs: tuple, t):
    """The Taylor rows p^(i)(t) / i! of the polynomial with ascending
    ``coeffs``, up to its degree."""
    for i in range(len(coeffs)):
        yield np.polyval(coeffs[::-1], t) / math.factorial(i)
        coeffs = _derivative_coeffs(coeffs)


@dataclass(frozen=True)
class Polynomial(ScalarPrimitive):
    """t -> c0 + c1*t + ... + cd*t^d (coefficients in ascending order)."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = _finite_coeffs(self.coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def ode(self):
        # derivative d+1 of a degree-d polynomial vanishes
        return (0.0,) * len(self.coeffs)

    def taylor_coeffs(self, t, order):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((order + 1,) + t.shape)
        for i, row in zip(range(order + 1), _poly_rows(self.coeffs, t)):
            out[i] = row
        return out

    def derivative(self):
        return Polynomial(_derivative_coeffs(self.coeffs) or (0.0,))

    @property
    def is_one_periodic(self):
        # only constants are periodic polynomials
        return all(c == 0.0 for c in self.coeffs[1:])


@dataclass(frozen=True)
class Exp(ScalarPrimitive):
    """t -> exp(t) + p(t), p given by the tuple of its ascending
    coefficients ``poly`` (empty for exp alone); ``Exp((0.0, 1.0))`` is
    t + e^t, a globally increasing diffeomorphism of R."""

    poly: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "poly", _finite_coeffs(self.poly))

    @property
    def ode(self):
        # len(poly) derivatives leave e^t, which is its own derivative
        return (0.0,) * len(self.poly) + (1.0,)

    def taylor_coeffs(self, t, order):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        e = np.exp(t)
        out = np.empty((order + 1,) + t.shape)
        for i in range(order + 1):
            out[i] = e / math.factorial(i)
        for i, row in zip(range(order + 1), _poly_rows(self.poly, t)):
            out[i] += row
        return out

    def derivative(self):
        return Exp(_derivative_coeffs(self.poly))
