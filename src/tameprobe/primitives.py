"""Scalar smooth primitives with exact Taylor-coefficient recurrences.

Each primitive is an infinitely differentiable map R -> R that can report
its truncated Taylor expansion at any point. Coefficients are stored in
Taylor form (i-th derivative divided by i!), which keeps downstream series
products and compositions numerically tame even when large frequency
factors appear in the raw derivatives.

Each primitive g also declares the linear ODE with constant coefficients
that it satisfies, ``g^(r) = sum_{i<r} ode[i] * g^(i)``. Composition
(`jets.compose_series`) runs on this recurrence, so it needs only the
first r derivatives of g at the inner value.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# sin(theta + i*pi/2) cycle used by trigonometric derivatives
_TRIG_CYCLE = (np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t))


def trig_cycle(theta, i):
    """i-th derivative pattern of sin: sin, cos, -sin, -cos, ..."""
    return _TRIG_CYCLE[i % 4](theta)


def trig_taylor(theta, amplitude, w, order, shift):
    """Taylor coefficients in s of amplitude * trig_cycle(theta, shift),
    for a phase theta that grows at rate w; shift 0 is sin, 1 is cos.

    Row i needs trig_cycle(theta, i + shift); the cycle is evaluated for
    the first two rows only, and rows i >= 2 take the sign flip of row
    i - 2 on the scalar factor, which rounds the same as on the array.
    """
    base = [trig_cycle(theta, shift + i) for i in range(min(order, 1) + 1)]
    out = np.empty((order + 1,) + theta.shape)
    for i in range(order + 1):
        sign = -1.0 if i % 4 >= 2 else 1.0
        out[i] = sign * amplitude * w**i * base[i % 2] / math.factorial(i)
    return out


class ScalarPrimitive:
    """Base class for smooth scalar primitives.

    Subclasses implement ``taylor_coeffs(t, order)`` returning an array of
    shape ``(order + 1,) + t.shape`` with entry ``i`` equal to
    ``g^(i)(t) / i!``, and declare ``ode``, the coefficients
    ``(a_0, .., a_{r-1})`` of the ODE ``g^(r) = sum_i a_i * g^(i)``.
    """

    ode: tuple

    def taylor_coeffs(self, t: np.ndarray, order: int) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = self.taylor_coeffs(arr, 0)[0]
        return float(out[0]) if arr.ndim == 0 else out

    def derivative(self) -> "ScalarPrimitive":
        return DerivedPrimitive(self, 1)

    @property
    def is_one_periodic(self) -> bool:
        return False


class Sin(ScalarPrimitive):
    """t -> amplitude * sin(omega * t)."""

    def __init__(self, omega: float = 1.0, amplitude: float = 1.0):
        self.omega = float(omega)
        self.amplitude = float(amplitude)

    def taylor_coeffs(self, t, order):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return trig_taylor(self.omega * t, self.amplitude, self.omega, order, 0)

    @property
    def ode(self):
        return (-self.omega**2, 0.0)

    @property
    def is_one_periodic(self):
        k = self.omega / TWO_PI
        return self.amplitude == 0.0 or abs(k - round(k)) < 1e-12

    def __repr__(self):
        return f"Sin(omega={self.omega!r}, amplitude={self.amplitude!r})"


class Cos(ScalarPrimitive):
    """t -> amplitude * cos(omega * t)."""

    def __init__(self, omega: float = 1.0, amplitude: float = 1.0):
        self.omega = float(omega)
        self.amplitude = float(amplitude)

    def taylor_coeffs(self, t, order):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        # cos = sin shifted by one cycle step
        return trig_taylor(self.omega * t, self.amplitude, self.omega, order, 1)

    @property
    def ode(self):
        return (-self.omega**2, 0.0)

    @property
    def is_one_periodic(self):
        k = self.omega / TWO_PI
        return self.amplitude == 0.0 or abs(k - round(k)) < 1e-12

    def __repr__(self):
        return f"Cos(omega={self.omega!r}, amplitude={self.amplitude!r})"


class Exp(ScalarPrimitive):
    """t -> exp(t)."""

    ode = (1.0,)

    def taylor_coeffs(self, t, order):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        e = np.exp(t)
        out = np.empty((order + 1,) + t.shape)
        for i in range(order + 1):
            out[i] = e / math.factorial(i)
        return out

    def __repr__(self):
        return "Exp()"


class Polynomial(ScalarPrimitive):
    """t -> c0 + c1*t + ... + cd*t^d (coefficients in ascending order)."""

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        # derivative d+1 of a degree-d polynomial vanishes
        self.ode = (0.0,) * len(self.coeffs)

    def taylor_coeffs(self, t, order):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((order + 1,) + t.shape)
        d = list(self.coeffs)
        for i in range(order + 1):
            if d:
                out[i] = np.polyval(d[::-1], t) / math.factorial(i)
            # differentiate in place for the next row
            d = [j * d[j] for j in range(1, len(d))]
        return out

    @property
    def is_one_periodic(self):
        # only constants are periodic polynomials
        return all(c == 0.0 for c in self.coeffs[1:])

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


class AffineMap(ScalarPrimitive):
    """t -> a*t + b."""

    ode = (0.0, 0.0)

    def __init__(self, a: float, b: float):
        self.a = float(a)
        self.b = float(b)

    def taylor_coeffs(self, t, order):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((order + 1,) + t.shape)
        out[0] = self.a * t + self.b
        if order >= 1:
            out[1] = self.a
        return out

    @property
    def is_one_periodic(self):
        return self.a == 0.0

    def __repr__(self):
        return f"AffineMap({self.a!r}, {self.b!r})"


class IdentityPlusExp(ScalarPrimitive):
    """t -> t + exp(t); a globally increasing diffeomorphism of R."""

    # g'' = exp(t) is not a multiple of g' = 1 + exp(t), but g''' = g''
    ode = (0.0, 0.0, 1.0)

    def taylor_coeffs(self, t, order):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = Exp().taylor_coeffs(t, order)
        out[0] = out[0] + t
        if order >= 1:
            out[1] = out[1] + 1.0
        return out

    def __repr__(self):
        return "IdentityPlusExp()"


class DerivedPrimitive(ScalarPrimitive):
    """k-th derivative of another primitive, computed from its jet."""

    def __init__(self, base: ScalarPrimitive, k: int):
        if isinstance(base, DerivedPrimitive):
            k += base.k
            base = base.base
        self.base = base
        self.k = int(k)
        # If g^(r) = sum_{i<r} a_i g^(i) with a_0 = 0, then h = g' satisfies
        # h^(r-1) = sum_{1<=i<r} a_i h^(i-1): each derivative can drop one
        # leading zero coefficient, and composition costs O(r n^2)
        ode = tuple(base.ode)
        for _ in range(self.k):
            if len(ode) == 1 or ode[0] != 0.0:
                break
            ode = ode[1:]
        self.ode = ode

    def taylor_coeffs(self, t, order):
        c = self.base.taylor_coeffs(t, order + self.k)
        out = np.empty((order + 1,) + c.shape[1:])
        for i in range(order + 1):
            # g^(k) coefficient i = c_{k+i} * (k+i)! / i!
            out[i] = c[self.k + i] * math.perm(self.k + i, self.k)
        return out

    @property
    def is_one_periodic(self):
        return self.base.is_one_periodic

    def __repr__(self):
        return f"DerivedPrimitive({self.base!r}, {self.k})"
