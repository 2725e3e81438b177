import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tameprobe.functions import (
    Affine,
    Constant,
    Identity,
    PrimitiveCompose,
    Sum,
)
from tameprobe.jets import (
    MAX_ORDER,
    TaylorJet,
    compose_series,
    convolve_trunc,
    deriv_from_jet,
)
from tameprobe.primitives import Cos, Exp, Polynomial, Sin

TWO_PI = 2.0 * math.pi


def prim_jet(prim, t, order):
    return TaylorJet(t, prim.taylor_coeffs(np.array([t]), order)[:, 0])


def tree_jet(node, s, order):
    """Jet of an expression-tree node at s, from its coefficient kernel."""
    return TaylorJet(s, node.coeffs(np.array([s]), order)[:, 0])


def mul(a, b):
    """Truncated product of two single-point jets via convolve_trunc."""
    return TaylorJet(a.base_point,
                     convolve_trunc(a.coeffs[:, None], b.coeffs[:, None])[:, 0])


def of_s(prim):
    """The tree s -> prim(s)."""
    return PrimitiveCompose(prim, Identity())


class TestConstruction:
    def test_order(self):
        j = TaylorJet(0.0, [1.0, 2.0, 3.0])
        assert j.order == 2
        assert j.value == 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TaylorJet(0.0, [1.0, np.nan])
        with pytest.raises(ValueError):
            TaylorJet(0.0, [np.inf])

    def test_rejects_excess_order(self):
        with pytest.raises(ValueError):
            TaylorJet(0.0, np.zeros(MAX_ORDER + 2))

    def test_immutable(self):
        j = TaylorJet(0.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            j.coeffs[0] = 5.0


class TestAdd:
    def test_coefficientwise(self):
        out = tree_jet(Sum(Affine(2.0, 1.0), Affine(-2.0, 3.0)), 0.0, 1)
        np.testing.assert_array_equal(out.coeffs, [4.0, 0.0])

    def test_zero_identity(self):
        a = of_s(Polynomial([2.0, -1.0, 0.5]))
        np.testing.assert_array_equal(
            tree_jet(Sum(a, Constant(0.0)), 1.5, 2).coeffs,
            tree_jet(a, 1.5, 2).coeffs)

    def test_additive_inverse(self):
        out = tree_jet(Sum(of_s(Sin()), of_s(Sin(amplitude=-1.0))), 0.7, 5)
        np.testing.assert_array_equal(out.coeffs, np.zeros(6))


class TestMul:
    def test_truncated_product(self):
        out = mul(TaylorJet(0.0, [1, 1]), TaylorJet(0.0, [1, -1]))
        np.testing.assert_array_equal(out.coeffs, [1.0, 0.0])

    def test_unit_identity(self):
        a = TaylorJet(0.0, [2.0, 3.0, -1.0, 0.25])
        one = TaylorJet(0.0, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(mul(a, one).coeffs, a.coeffs)

    def test_sin_times_cos(self):
        # sin(s)*cos(s) = (1/2) sin(2s); oracle is the primitive jet routine
        prod = mul(prim_jet(Sin(), 0.0, 3), prim_jet(Cos(), 0.0, 3))
        direct = prim_jet(Sin(omega=2.0, amplitude=0.5), 0.0, 3)
        np.testing.assert_allclose(prod.coeffs, direct.coeffs,
                                   rtol=1e-14, atol=1e-14)


class TestCompose:
    def test_sin_of_linear(self):
        out = tree_jet(PrimitiveCompose(Sin(), Affine(TWO_PI, 0.0)), 0.0, 2)
        np.testing.assert_allclose(out.coeffs, [0.0, TWO_PI, 0.0], atol=1e-14)

    def test_exp_of_zero_jet(self):
        out = compose_series(Exp().taylor_coeffs(np.array([0.0]), 3),
                             np.zeros((4, 1)))
        np.testing.assert_allclose(out[:, 0], [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_sin_of_square_matches_symbolic(self):
        import sympy

        s = sympy.Symbol("s")
        expr = sympy.sin(s**2)
        square = of_s(Polynomial([0.0, 0.0, 1.0]))
        out = tree_jet(PrimitiveCompose(Sin(), square), 1.0, 4)
        for i in range(5):
            expected = float(sympy.diff(expr, s, i).subs(s, 1))
            assert deriv_from_jet(out, i) == pytest.approx(expected, rel=1e-10)

    def test_sin_of_square_matches_finite_differences(self):
        from conftest import fd_derivative

        fn = lambda s: math.sin(s * s)
        square = of_s(Polynomial([0.0, 0.0, 1.0]))
        out = tree_jet(PrimitiveCompose(Sin(), square), 1.0, 4)
        for i, h in ((1, 1e-3), (2, 1e-3), (3, 1e-2)):
            expected = fd_derivative(fn, 1.0, i, h)
            assert deriv_from_jet(out, i) == pytest.approx(expected, rel=1e-6)

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
            assert deriv_from_jet(out, i) == pytest.approx(expected, rel=1e-10,
                                                           abs=1e-12)


class TestDerivFromJet:
    def test_sine_slope(self):
        j = prim_jet(Sin(omega=TWO_PI), 0.0, 3)
        assert deriv_from_jet(j, 1) == pytest.approx(TWO_PI, rel=1e-15)

    def test_value(self):
        j = TaylorJet(0.0, [3.5, 1.0, 2.0])
        assert deriv_from_jet(j, 0) == 3.5

    def test_probe_third_derivative(self):
        # closed-form sinusoid differentiation: z'''(s0) = -(2 pi m)^(1/2)
        m, k = 4, 3
        amp = (TWO_PI * m)**(-k + 0.5)
        j = prim_jet(Sin(omega=TWO_PI * m, amplitude=amp), 0.0, 3)
        assert deriv_from_jet(j, 3) == pytest.approx(-math.sqrt(8 * math.pi),
                                                     rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            deriv_from_jet(TaylorJet(0.0, [1.0, 2.0]), 2)


coeff_lists = st.lists(st.floats(-10, 10, allow_nan=False), min_size=10,
                       max_size=10)


class TestProperties:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_leibniz_identity(self, ca, cb):
        a = TaylorJet(0.0, ca)
        b = TaylorJet(0.0, cb)
        prod = mul(a, b)
        for i in range(10):
            expected = sum(math.comb(i, j) * deriv_from_jet(a, j)
                           * deriv_from_jet(b, i - j) for j in range(i + 1))
            got = deriv_from_jet(prod, i)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_reproducibility(self):
        rng = np.random.default_rng(7)
        a = TaylorJet(0.0, rng.standard_normal(8))
        b = TaylorJet(0.0, rng.standard_normal(8))
        first = mul(a, b).coeffs
        second = mul(a, b).coeffs
        np.testing.assert_array_equal(first, second)

    def test_commutativity_and_associativity(self):
        rng = np.random.default_rng(11)
        a = TaylorJet(0.0, rng.standard_normal(8))
        b = TaylorJet(0.0, rng.standard_normal(8))
        c = TaylorJet(0.0, rng.standard_normal(8))
        np.testing.assert_allclose(mul(a, b).coeffs, mul(b, a).coeffs,
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(mul(mul(a, b), c).coeffs,
                                   mul(a, mul(b, c)).coeffs,
                                   rtol=1e-12, atol=1e-10)
