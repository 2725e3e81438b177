import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tameprobe import primitives
from tameprobe.cli import parse_phi
from tameprobe.functions import (
    Affine,
    Constant,
    Evaluation,
    PrimitiveCompose,
    SinusoidProbe,
    Sum,
)
from tameprobe.jets import MAX_ORDER, compose_series, convolve_trunc
from tameprobe.primitives import (
    Cos,
    Exp,
    Polynomial,
    ScalarPrimitive,
    Sin,
    trig_cycle,
)

TWO_PI = 2.0 * math.pi


def prim_jet(prim, t, order):
    """Taylor coefficients of a primitive at t."""
    return prim.taylor_coeffs(np.array([t]), order)[:, 0]


def tree_jet(node, s, order):
    """Taylor coefficients of an expression-tree node at s."""
    return node.coeffs(Evaluation(np.array([s])), order)[:, 0]


def mul(a, b):
    """Truncated product of two one-point series via convolve_trunc."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a, b = a[:, None], b[:, None]
    return convolve_trunc(a, b, np.empty_like(a))[:, 0]


def deriv(c, i):
    """Raw i-th derivative from Taylor coefficients: i! * c[i]."""
    return float(math.factorial(i) * c[i])


def of_s(prim):
    """The tree s -> prim(s)."""
    return PrimitiveCompose(prim, Affine(1.0, 0.0))


def horner_compose(outer, inner):
    """Oracle: substitute the series ``inner`` into the full series ``outer``
    of g at the inner value (Horner form, O(n^3) per point)."""
    n = outer.shape[0]
    w = inner.copy()
    w[0] = 0.0
    out = np.zeros_like(outer)
    out[0] = outer[n - 1]
    for i in range(n - 2, -1, -1):
        out = convolve_trunc(out, w, np.empty_like(out))
        out[0] += outer[i]
    return out


# one primitive of every kind, with its ODE as declared; the keys are the
# cases' test ids, kept from the constructors they were first written with
# (affine a t + b, t + e^t, and k-th derivatives of a base primitive)
CUBIC = Polynomial([0.5, -1.0, 0.25, 0.125])
ODE_CASES = {
    "Sin(omega=6.283185307179586, amplitude=0.7)":
        Sin(omega=TWO_PI, amplitude=0.7),
    "Cos(omega=3.0, amplitude=1.0)": Cos(omega=3.0),
    "Exp()": Exp(),
    "IdentityPlusExp()": Exp((0.0, 1.0)),
    "AffineMap(2.0, -1.0)": Polynomial([-1.0, 2.0]),
    "Polynomial([0.5, -1.0, 0.25, 0.125])": CUBIC,
    "DerivedPrimitive(Sin(omega=6.283185307179586, amplitude=1.0), 2)":
        Sin(omega=TWO_PI).derivative().derivative(),
    "DerivedPrimitive(IdentityPlusExp(), 1)": Exp((0.0, 1.0)).derivative(),
    "DerivedPrimitive(IdentityPlusExp(), 2)":
        Exp((0.0, 1.0)).derivative().derivative(),
    "DerivedPrimitive(Polynomial([0.5, -1.0, 0.25, 0.125]), 2)":
        CUBIC.derivative().derivative(),
    "DerivedPrimitive(AffineMap(2.0, -1.0), 1)":
        Polynomial([-1.0, 2.0]).derivative(),
}
ODE_PRIMITIVES = list(ODE_CASES.values())


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestAdd:
    def test_coefficientwise(self):
        out = tree_jet(Sum(Affine(2.0, 1.0), Affine(-2.0, 3.0)), 0.0, 1)
        np.testing.assert_array_equal(out, [4.0, 0.0])

    def test_zero_identity(self):
        a = of_s(Polynomial([2.0, -1.0, 0.5]))
        np.testing.assert_array_equal(
            tree_jet(Sum(a, Constant(0.0)), 1.5, 2),
            tree_jet(a, 1.5, 2))

    def test_additive_inverse(self):
        out = tree_jet(Sum(of_s(Sin()), of_s(Sin(amplitude=-1.0))), 0.7, 5)
        np.testing.assert_array_equal(out, np.zeros(6))


class TestMul:
    def test_truncated_product(self):
        out = mul([1, 1], [1, -1])
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_unit_identity(self):
        a = np.array([2.0, 3.0, -1.0, 0.25])
        one = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(mul(a, one), a)

    def test_sin_times_cos(self):
        # sin(s)*cos(s) = (1/2) sin(2s); oracle is the primitive jet routine
        prod = mul(prim_jet(Sin(), 0.0, 3), prim_jet(Cos(), 0.0, 3))
        direct = prim_jet(Sin(omega=2.0, amplitude=0.5), 0.0, 3)
        np.testing.assert_allclose(prod, direct, rtol=1e-14, atol=1e-14)


class TestCompose:
    def test_sin_of_linear(self):
        out = tree_jet(PrimitiveCompose(Sin(), Affine(TWO_PI, 0.0)), 0.0, 2)
        np.testing.assert_allclose(out, [0.0, TWO_PI, 0.0], atol=1e-14)

    def test_exp_of_zero_jet(self):
        out = compose_series(Exp().taylor_coeffs(np.array([0.0]), 0),
                             np.zeros((4, 1)), Exp().ode, np.empty)
        np.testing.assert_allclose(out[:, 0], [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_inner_is_only_read(self):
        inner = Sum(Affine(2.0, 0.1), SinusoidProbe(0.3, 2.0, 0.1)).coeffs(
            Evaluation(np.linspace(0.0, 1.0, 17)), 6)
        want = inner.copy()
        inner.flags.writeable = False
        out = compose_series(Sin().taylor_coeffs(inner[0], 1), inner,
                             Sin().ode, np.empty)
        assert np.array_equal(inner, want)
        assert out.shape == inner.shape

    def test_sin_of_square_matches_symbolic(self):
        import sympy

        s = sympy.Symbol("s")
        expr = sympy.sin(s**2)
        square = of_s(Polynomial([0.0, 0.0, 1.0]))
        out = tree_jet(PrimitiveCompose(Sin(), square), 1.0, 4)
        for i in range(5):
            expected = float(sympy.diff(expr, s, i).subs(s, 1))
            assert deriv(out, i) == pytest.approx(expected, rel=1e-10)

    def test_sin_of_square_matches_finite_differences(self):
        from conftest import fd_derivative

        fn = lambda s: math.sin(s * s)
        square = of_s(Polynomial([0.0, 0.0, 1.0]))
        out = tree_jet(PrimitiveCompose(Sin(), square), 1.0, 4)
        for i, h in ((1, 1e-3), (2, 1e-3), (3, 1e-2)):
            expected = fd_derivative(fn, 1.0, i, h)
            assert deriv(out, i) == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("prim", [Sin(), Cos(), Exp()])
    def test_primitive_recurrences_match_symbolic(self, prim):
        import sympy

        s = sympy.Symbol("s")
        sym = {"Sin": sympy.sin(s), "Cos": sympy.cos(s),
               "Exp": sympy.exp(s)}[type(prim).__name__]
        inner = of_s(Polynomial([0.1, 2.0, -0.5, 0.25]))
        poly = 0.1 + 2 * s - 0.5 * s**2 + 0.25 * s**3
        expr = sym.subs(s, poly)
        out = tree_jet(PrimitiveCompose(prim, inner), 0.4, 6)
        for i in range(7):
            expected = float(sympy.diff(expr, s, i).subs(s, 0.4))
            assert deriv(out, i) == pytest.approx(expected, rel=1e-10,
                                                           abs=1e-12)


class TestOdeRecurrence:
    """`compose_series` runs on each primitive's ODE; Horner on the full
    outer series is the oracle."""

    @pytest.mark.parametrize("prim", ODE_PRIMITIVES, ids=list(ODE_CASES))
    @pytest.mark.parametrize("order", range(13))
    def test_matches_horner(self, prim, order):
        s = np.linspace(0.0, 1.0, 7)
        inner = PrimitiveCompose(Sin(omega=TWO_PI, amplitude=0.3),
                                 Affine(1.0, 0.0)).coeffs(Evaluation(s),
                                                          order)
        inner[0] += 0.2
        inner[1:2] += 1.0
        expected = horner_compose(prim.taylor_coeffs(inner[0], order), inner)
        r = len(prim.ode)
        got = compose_series(prim.taylor_coeffs(inner[0], min(r - 1, order)),
                             inner.copy(), prim.ode, np.empty)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("cls", sorted(_subclasses(ScalarPrimitive),
                                           key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_every_primitive_satisfies_its_ode(self, cls):
        # (i+r)!/i! c_{i+r} = sum_j a_j (i+j)!/i! c_{i+j}, rows from taylor_coeffs
        prims = [p for p in ODE_PRIMITIVES if type(p) is cls]
        assert prims, f"{cls.__name__} has no case in ODE_PRIMITIVES"
        t = np.linspace(-1.5, 1.5, 11)
        for prim in prims:
            assert isinstance(prim.ode, tuple) and prim.ode
            r = len(prim.ode)
            c = prim.taylor_coeffs(t, r + 6)
            for i in range(7):
                lhs = math.perm(i + r, r) * c[i + r]
                rhs = sum(a * math.perm(i + j, j) * c[i + j]
                          for j, a in enumerate(prim.ode))
                np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("prim", ODE_PRIMITIVES, ids=list(ODE_CASES))
    def test_one_term(self, prim):
        # compose_series contracts g^(r) from the one g^(q) it names
        assert sum(a != 0.0 for a in prim.ode) <= 1

    def test_two_terms_rejected(self):
        # g'' = g' + g: the level reads one term, and a second is an error
        inner = ode_inner(4, linear=False)
        outer = Exp().taylor_coeffs(inner[0], 1)
        with pytest.raises(ValueError):
            compose_series(outer, inner, (1.0, 1.0), np.empty)

    @pytest.mark.parametrize("linear", [True, False],
                             ids=["linear", "nonlinear"])
    @pytest.mark.parametrize("prim", ODE_PRIMITIVES, ids=list(ODE_CASES))
    def test_bit_identical_to_chain_loop(self, prim, linear):
        # the ODE level contracts its first term into the row and scales
        # it there; the oracle adds it to a zeroed row, which can differ
        # only in the sign of a zero, and array_equal takes -0.0 == 0.0
        r = len(prim.ode)
        for order in range(MAX_ORDER + 1):
            inner = ode_inner(order, linear)
            outer = prim.taylor_coeffs(inner[0], min(r - 1, order))
            assert np.array_equal(compose_series(outer, inner, prim.ode,
                                                 np.empty),
                                  chain_compose(outer, inner, prim.ode)), \
                order

    def test_linear_inner(self):
        # sin(2 pi (3 s + b)) = sin(6 pi (s + b/3)); rows scale like (6 pi)^i / i!
        s = np.linspace(0.05, 0.95, 5)
        node = PrimitiveCompose(Sin(omega=TWO_PI), Affine(3.0, 0.2))
        expected = Sin(omega=TWO_PI * 3.0).taylor_coeffs(s + 0.2 / 3.0, 12)
        scale = np.abs(expected).max(axis=1, keepdims=True)
        np.testing.assert_allclose(node.coeffs(Evaluation(s), 12) / scale,
                                   expected / scale, rtol=0, atol=1e-12)


def chain_compose(outer, inner, ode):
    """Oracle: `compose_series` with every level G_i, i < r, run from the
    one above and G_r contracted from the ODE, whatever the ODE."""
    n, r = inner.shape[0], len(ode)
    d = next((j for j in range(n - 1, 0, -1) if inner[j].any()), 0)
    g = [np.empty(inner.shape)] + [np.empty((n - i,) + inner.shape[1:])
                                   for i in range(1, min(r, n))]
    dw = inner[1:d + 1] * np.arange(1.0, d + 1).reshape(
        (d,) + (1,) * (inner.ndim - 1))
    for i, row in enumerate(g):
        row[0] = outer[i] * math.factorial(i)
    for k in range(1, n):
        top = min(k, d)
        dwk = dw[:top]
        for i in range(min(r, n - k)):
            out = g[i][k]
            if i + 1 < r:
                np.einsum("j...,j...->...", dwk, g[i + 1][k - top:k][::-1],
                          out=out)
            else:
                out[...] = 0.0
                for q, a in enumerate(ode):
                    if a:
                        out += a * np.einsum("j...,j...->...", dwk,
                                             g[q][k - top:k][::-1])
            out /= k
    return g[0]


def ode_inner(order, linear):
    """Coefficients of a linear or a nonlinear inner function on 5 points."""
    s = Evaluation(np.linspace(-0.4, 0.6, 5))
    if linear:
        return Affine(1.5, 0.2).coeffs(s, order)
    return Sum(Affine(0.7, 0.1), SinusoidProbe(0.3, 1.5, 0.2)).coeffs(s, order)


class TestExpOwnRecurrence:
    """For g^(r) = g^(r-1), `compose_series` runs G_{r-1} on its own
    recurrence and reads G_{r-2} off it: bit for bit the general chain
    loop, with fewer contractions."""

    @pytest.mark.parametrize("linear", [True, False],
                             ids=["linear", "nonlinear"])
    @pytest.mark.parametrize("poly", [(), (1.0,), (0.5, -1.0),
                                      (0.25, 1.0, -0.5)],
                             ids=lambda p: f"len{len(p)}")
    def test_bit_identical_to_chain_loop(self, poly, linear):
        prim = Exp(poly)
        r = len(prim.ode)
        for order in range(13):
            inner = ode_inner(order, linear)
            outer = prim.taylor_coeffs(inner[0], min(r - 1, order))
            got = compose_series(outer, inner, prim.ode, np.empty)
            want = chain_compose(outer, inner, prim.ode)
            assert np.array_equal(got, want), order

    @pytest.mark.parametrize("prim, counts", [
        (Exp((1.0,)), (23, 12)),
        (Exp((0.0, 1.0)), (33, 23)),
        (Exp(), None),
        (Sin(omega=TWO_PI, amplitude=0.7), None),
        (Cos(omega=3.0), None),
        (CUBIC, None),
    ], ids=["ode(0,1)", "ode(0,0,1)", "Exp()", "Sin", "Cos", "Polynomial"])
    def test_einsum_calls(self, monkeypatch, prim, counts):
        # at n = 13 the chain loop makes 23 contractions for ODE (0, 1) and
        # 33 for (0, 0, 1); other ODEs keep the chain loop's count
        calls = []
        real = np.einsum

        def counting(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        inner = ode_inner(12, linear=False)
        outer = prim.taylor_coeffs(inner[0], len(prim.ode) - 1)
        monkeypatch.setattr(np, "einsum", counting)
        chain_compose(outer, inner, prim.ode)
        chained = len(calls)
        calls.clear()
        compose_series(outer, inner, prim.ode, np.empty)
        assert (chained, len(calls)) == (counts or (chained, chained))


class TestFamilies:
    """The four primitive families are frozen dataclasses, closed under a
    closed-form derivative(), and compare by value."""

    FAMILIES = sorted(_subclasses(ScalarPrimitive), key=lambda c: c.__name__)

    def test_four_frozen_families(self):
        assert [c.__name__ for c in self.FAMILIES] == ["Cos", "Exp",
                                                       "Polynomial", "Sin"]
        for prim in ODE_PRIMITIVES:
            assert type(prim.derivative()) in self.FAMILIES
            name = dataclasses.fields(prim)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(prim, name, 0.0)

    @pytest.mark.parametrize("cls", FAMILIES, ids=lambda c: c.__name__)
    def test_derivative_matches_shifted_rows(self, cls):
        # row i of g' is (i + 1) times row i + 1 of g
        prims = [p for p in ODE_PRIMITIVES if type(p) is cls]
        assert prims, f"{cls.__name__} has no case in ODE_PRIMITIVES"
        t = np.linspace(-1.5, 1.5, 11)
        for prim in prims:
            for n in range(13):
                got = prim.derivative().taylor_coeffs(t, n)
                rows = prim.taylor_coeffs(t, n + 1)[1:]
                want = np.arange(1, n + 2)[:, None] * rows
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_ode_lengths(self):
        # t + e^t, then phi' and phi'' as the two maps compose them
        chain = [Exp((0.0, 1.0))]
        for _ in range(2):
            chain.append(chain[-1].derivative())
        assert [len(p.ode) for p in chain] == [3, 2, 1]
        assert len(Sin(omega=TWO_PI).derivative().derivative().ode) == 2

    def test_value_equality(self):
        assert Sin(TWO_PI).derivative() == Cos(TWO_PI, TWO_PI)
        assert hash(Sin(TWO_PI).derivative()) == hash(Cos(TWO_PI, TWO_PI))
        assert Sin(1.0, 2.0) != Cos(1.0, 2.0)
        assert parse_phi("affine:2,1") == Polynomial([1.0, 2.0])
        # (t + e^t)'' is e^t, the case Exp() above
        assert Exp((0.0, 1.0)).derivative().derivative() == Exp()
        keyed = {Exp((0.0, 1.0)).derivative(): "phi'"}
        assert keyed[Exp((1.0,))] == "phi'"


class TestTrigOnce:
    """Sin, Cos and SinusoidProbe evaluate sin and cos once per call, and
    their rows equal the per-order trig cycle bit for bit."""

    @staticmethod
    def per_order(theta, amplitude, w, order, shift):
        return np.array([amplitude * w**i * trig_cycle(theta, i + shift)
                         / math.factorial(i) for i in range(order + 1)])

    @pytest.mark.parametrize("order", range(13))
    def test_bit_identical(self, order):
        t = np.linspace(-0.9, 1.3, 101)
        for omega, amp in ((TWO_PI, 1.0), (TWO_PI * 4096, 0.3), (-2.5, -1.7)):
            theta = omega * t
            assert np.array_equal(Sin(omega, amp).taylor_coeffs(t, order),
                                  self.per_order(theta, amp, omega, order, 0))
            assert np.array_equal(Cos(omega, amp).taylor_coeffs(t, order),
                                  self.per_order(theta, amp, omega, order, 1))
        node = SinusoidProbe((TWO_PI * 64)**-2.5, 64.0, 0.3)
        w = TWO_PI * node.frequency
        assert np.array_equal(
            node.coeffs(Evaluation(t), order),
            self.per_order(w * (t - node.phase), node.amplitude, w, order, 0))

    @staticmethod
    def one_line(pair, amplitude, w, order, shift):
        # each row as one expression, with a temporary per product
        out = np.empty((order + 1,) + pair[shift % 2].shape)
        for i in range(order + 1):
            j = shift + i
            sign = -1.0 if j % 4 >= 2 else 1.0
            out[i] = sign * amplitude * w**i * pair[j % 2] / math.factorial(i)
        return out

    @pytest.mark.parametrize("shift", range(4))
    def test_rows_written_in_place(self, shift):
        theta = np.linspace(-3.0, 40.0, 257)
        pair = (np.sin(theta), np.cos(theta))
        for order in range(MAX_ORDER + 1):
            for amp, w in ((1.0, TWO_PI), (-0.37, TWO_PI * 4096),
                           ((TWO_PI * 64)**-2.5, TWO_PI * 64)):
                got = primitives.trig_rows(pair, amp, w, order, shift)
                want = self.one_line(pair, amp, w, order, shift)
                assert got.tobytes() == want.tobytes(), (order, amp)

    def test_trig_cycle_called_twice(self, monkeypatch):
        calls = []
        real = primitives.trig_cycle

        def counted(theta, i):
            calls.append(i)
            return real(theta, i)

        monkeypatch.setattr(primitives, "trig_cycle", counted)
        SinusoidProbe(1.0, 3.0).coeffs(
            Evaluation(np.linspace(0.0, 1.0, 9)), 12)
        assert calls == [0, 1]
        calls.clear()
        # rows of cos take the sign of -sin and -cos on their scalar factor
        Cos(TWO_PI).taylor_coeffs(np.zeros(3), 12)
        assert calls == [0, 1]
        calls.clear()
        # order 0 reads the pair too
        Cos(TWO_PI).taylor_coeffs(np.zeros(3), 0)
        SinusoidProbe(1.0, 3.0, 0.2, 3).coeffs(Evaluation(np.zeros(3)), 0)
        assert calls == [0, 1, 0, 1]


def full_convolve(a, b):
    """Oracle: the truncated Cauchy product contracting every row of b."""
    out = np.empty_like(a)
    for i in range(a.shape[0]):
        np.einsum("j...,j...->...", a[:i + 1], b[i::-1], out=out[i])
    return out


class TestConvolveDegree:
    """convolve_trunc contracts only up to b's degree, with results equal
    to the full contraction."""

    @pytest.mark.parametrize("points", [1, 4096])
    @pytest.mark.parametrize("order", range(13))
    def test_matches_full_contraction(self, order, points):
        rng = np.random.default_rng(order)
        n = order + 1
        a = rng.standard_normal((n, points))
        for d in range(n):
            b = rng.standard_normal((n, points))
            b[d + 1:] = 0.0
            assert np.array_equal(convolve_trunc(a, b, np.empty_like(a)),
                                  full_convolve(a, b))
        if n >= 3:
            # a zero row below the top one does not lower the degree
            b = rng.standard_normal((n, points))
            b[n // 2] = 0.0
            assert np.array_equal(convolve_trunc(a, b, np.empty_like(a)),
                                  full_convolve(a, b))

    def test_constant_factor_contracts_one_row(self, monkeypatch):
        # a constant factor is one multiply, with no contraction at all
        rows = []
        real = np.einsum

        def counting(spec, x, y, **kw):
            rows.append(x.shape[0])
            return real(spec, x, y, **kw)

        monkeypatch.setattr(np, "einsum", counting)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((13, 5))
        b = np.zeros((13, 5))
        b[0] = 2.0
        assert np.array_equal(convolve_trunc(a, b, np.empty_like(a)),
                              2.0 * a)
        assert rows == []

    @pytest.mark.parametrize("order", [0, 1, 12])
    def test_constant_view_equals_full_array(self, order):
        # a Constant's coefficients are a stride-0 view, whose degree is
        # read off one column; the product's bytes are the full array's
        rng = np.random.default_rng(order)
        s = np.linspace(0.0, 1.0, 4097)
        a = rng.standard_normal((order + 1, s.size))
        b = Constant(-0.3).coeffs(Evaluation(s), order)
        assert b.strides[-1] == 0
        assert (convolve_trunc(a, b, np.empty_like(a)).tobytes()
                == convolve_trunc(a, np.array(b), np.empty_like(a)).tobytes())

    @pytest.mark.parametrize("degree", range(4))
    def test_broadcast_column_keeps_its_degree(self, degree):
        rng = np.random.default_rng(degree)
        a = rng.standard_normal((4, 9))
        col = np.zeros((4, 1))
        col[:degree + 1, 0] = rng.standard_normal(degree + 1)
        cols = [col]
        if degree >= 2:
            # a zero row below the top one does not lower the degree
            cols.append(col.copy())
            cols[-1][1] = 0.0
        for c in cols:
            b = np.broadcast_to(c, (4, 9))
            assert (convolve_trunc(a, b, np.empty_like(a)).tobytes()
                    == convolve_trunc(a, np.array(b),
                                      np.empty_like(a)).tobytes())


class TestDerivFromJet:
    """Raw derivatives read off Taylor coefficients: i! * c[i]."""

    def test_sine_slope(self):
        j = prim_jet(Sin(omega=TWO_PI), 0.0, 3)
        assert deriv(j, 1) == pytest.approx(TWO_PI, rel=1e-15)

    def test_value(self):
        assert deriv(np.array([3.5, 1.0, 2.0]), 0) == 3.5

    def test_probe_third_derivative(self):
        # closed-form sinusoid differentiation: z'''(s0) = -(2 pi m)^(1/2)
        m, k = 4, 3
        amp = (TWO_PI * m)**(-k + 0.5)
        j = prim_jet(Sin(omega=TWO_PI * m, amplitude=amp), 0.0, 3)
        assert deriv(j, 3) == pytest.approx(-math.sqrt(8 * math.pi),
                                                     rel=1e-12)


coeff_lists = st.lists(st.floats(-10, 10, allow_nan=False), min_size=10,
                       max_size=10)


class TestProperties:
    @given(coeff_lists, coeff_lists)
    # drawn examples whose Leibniz sums cancel to well below their terms
    @example([0, 0, 10, 0, 0.03125, 0, 0, 4, 0, 0],
             [0, 0, -10, 0, 0, 0.07819416803256551, 0, 4, 0, 0])
    @example([0, 7.123046875, -4.568359375, 0, 0, -5.059927875688887, 0.25,
              9.9453125, 0, -6.7578125],
             [-4.8359375, 0, -8.90234375, -8, 8.3671875, 0, 0, -9.3359375,
              8.078125, 0])
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_leibniz_identity(self, ca, cb):
        a, b = np.array(ca), np.array(cb)
        prod = mul(a, b)
        for i in range(10):
            terms = [math.comb(i, j) * deriv(a, j) * deriv(b, i - j)
                     for j in range(i + 1)]
            got = deriv(prod, i)
            # both sides round each of up to ten terms of the sum, and their
            # errors scale with the terms, not with the (cancelled) result
            bound = 64 * np.finfo(float).eps * sum(abs(t) for t in terms)
            assert abs(got - sum(terms)) <= bound

    def test_reproducibility(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        first = mul(a, b)
        second = mul(a, b)
        np.testing.assert_array_equal(first, second)

    def test_commutativity_and_associativity(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        c = rng.standard_normal(8)
        np.testing.assert_allclose(mul(a, b), mul(b, a),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(mul(mul(a, b), c), mul(a, mul(b, c)),
                                   rtol=1e-12, atol=1e-10)
