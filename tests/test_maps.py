import math
import re

import numpy as np
import pytest

from conftest import GRID_PATH_TREES, random_small_function, whole_grid
from tameprobe.cli import EXIT_CONFIG, main, parse_x
from tameprobe import PrecisionBudgetError
from tameprobe.driver import ANCHOR_FALLBACK, find_s0
from tameprobe.functions import (
    _CHUNK,
    GRID,
    PERIODIC,
    UNIT_INTERVAL,
    Affine,
    Constant,
    Evaluation,
    GridSpec,
    PrimitiveCompose,
    Product,
    SinusoidProbe,
    SmoothFunction,
    Sum,
    constant,
    mul,
    probe,
    seminorm_profile,
    zero,
)
from tameprobe.maps import (
    DOMAIN_MARGIN_TOL,
    CirclePullback,
    DomainViolation,
    MapSpec,
    PostComposition,
    gateaux_fd,
)
from tameprobe.primitives import Cos, Exp, Polynomial, Sin

TWO_PI = 2.0 * math.pi


def pullback_sin(n=1):
    return CirclePullback(Sin(omega=TWO_PI), n)


class TestConstruction:
    def test_zero_winding_rejected(self):
        with pytest.raises(ValueError):
            CirclePullback(Sin(omega=TWO_PI), 0)

    @pytest.mark.parametrize("n", [10**400, math.inf, math.nan],
                             ids=["int-past-double", "inf", "nan"])
    def test_winding_past_double_range_rejected(self, n):
        with pytest.raises(ValueError, match="must be finite"):
            CirclePullback(Sin(omega=TWO_PI), n)

    @pytest.mark.parametrize("n", [0.5, -2.25])
    def test_fractional_winding_rejected(self, n):
        # int(0.5) == 0 was stored, and a sweep ended in "base point
        # outside map domain"
        with pytest.raises(ValueError,
                           match=f"winding number n must be an integer, "
                                 f"got {n}"):
            CirclePullback(Sin(omega=TWO_PI), n)

    def test_integral_float_winding_accepted(self):
        assert CirclePullback(Sin(omega=TWO_PI), 2.0).n == 2

    def test_nonperiodic_phi_rejected(self):
        with pytest.raises(ValueError):
            CirclePullback(Sin(omega=1.0), 1)

    @pytest.mark.parametrize("omega", [math.inf, math.nan],
                             ids=["inf", "nan"])
    def test_non_finite_omega_rejected(self, omega):
        # round() in is_one_periodic raised OverflowError for inf and
        # "cannot convert float NaN to integer" for nan
        with pytest.raises(ValueError, match="must be finite"):
            CirclePullback(Sin(omega=omega), 1)
        with pytest.raises(ValueError, match="must be finite"):
            Cos(omega=omega)

    def test_nan_amplitude_rejected(self):
        # it constructed
        with pytest.raises(ValueError, match="must be finite"):
            Sin(TWO_PI, amplitude=math.nan)

    @pytest.mark.parametrize("make", [
        lambda: Polynomial((0.0, math.inf)),
        lambda: Exp((math.nan, 1.0)),
        lambda: Exp((0.0, math.nan)),
    ], ids=["poly-inf", "exp-nan", "exp-nan-slope"])
    def test_non_finite_coefficients_rejected(self, make):
        # the first two constructed, and the map took them; the third was
        # refused as "phi must have positive derivative"
        with pytest.raises(ValueError, match="coefficients must be finite"):
            PostComposition(make())

    @pytest.mark.parametrize("phi", [Polynomial((0.0, 1.0, 0.0, 1e308)),
                                     Exp((0.0, 1.0, 1e308))],
                             ids=["poly", "exp"])
    def test_derivative_past_double_range(self, phi):
        # finite coefficients whose derivative's leave double range: a
        # budget error, not the constructor's ValueError
        with pytest.raises(PrecisionBudgetError, match="leaves double range"):
            phi.derivative()
        with pytest.raises(PrecisionBudgetError, match="leaves double range"):
            PostComposition(phi)

    def test_nonincreasing_phi_rejected(self):
        with pytest.raises(ValueError):
            PostComposition(Sin(omega=TWO_PI))

    def test_diffeomorphism_accepted(self):
        PostComposition(Exp((0.0, 1.0)))
        PostComposition(Polynomial([1.0, 2.0]))


class TestInDomain:
    def test_zero_base_point(self):
        margin, ok = pullback_sin().in_domain(zero())
        assert ok and margin == pytest.approx(1.0, rel=1e-12)

    def test_steep_perturbation_excluded(self):
        # x' has sup 2, so |1 + x'| reaches zero somewhere
        x = SmoothFunction(SinusoidProbe(2.0 / TWO_PI, 1.0, 0.0), PERIODIC)
        margin, ok = pullback_sin().in_domain(x)
        assert not ok and margin < 1e-9

    @pytest.mark.parametrize("n", [1, 2, -1])
    @pytest.mark.parametrize("amp, freq", [
        (0.01, 1.0), (0.15, 1.0), (-0.02, 3.0), (1e-4, 64.0), (0.001, 50.0),
    ])
    def test_margin_bounds_sinusoid_infimum(self, n, amp, freq):
        x = SmoothFunction(SinusoidProbe(amp, freq, 0.1), PERIODIC)
        margin, ok = pullback_sin(n).in_domain(x)
        infimum = abs(n) - TWO_PI * abs(amp * freq)
        h = GRID.points(x.domain, GRID.size(x), 0, 2)[1]
        p2 = seminorm_profile(x, 2)[2]
        assert ok
        assert infimum - 2.0 * h * p2 <= margin <= infimum

    @pytest.mark.parametrize("n, node, c, amp, freq", [
        (1, SinusoidProbe(0.01, 1.0, 0.1), 1.0, 0.01, 1.0),
        (-2, mul(SinusoidProbe(0.015, 3.0, 0.7), Constant(-3.0)), 3.0, 0.015,
         3.0),
        # x + z at the base point const:5000
        (1, Sum(Constant(5000.0), SinusoidProbe(1e-3, 16.0, 0.2)), 1.0,
         1e-3, 16.0),
    ], ids=["sinusoid", "scaled", "const+sinusoid"])
    def test_sinusoid_margin_needs_no_grid(self, monkeypatch, n, node, c,
                                           amp, freq):
        # |n| - sup|x'| is the infimum of |n + x'| when x' is one sinusoid
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for a closed-form margin")

        monkeypatch.setattr(GridSpec, "points", no_grid)
        margin, ok = pullback_sin(n).in_domain(SmoothFunction(node, PERIODIC))
        assert ok and margin == abs(n) - c * (amp * (TWO_PI * freq))

    def test_margin_inside_grid_deduction_accepted(self, capsys):
        # at n = 21, k = 1, m = 64 the infimum of |21 + z'| is
        # 21 - sqrt(2 pi 64) = 0.947, less than the grid bound's
        # h * sup|z''| = 1.97 deduction, which refused it
        z = probe(64, 1, 0.0)
        margin, ok = pullback_sin(21).in_domain(z)
        assert ok and margin == pytest.approx(21.0 - math.sqrt(TWO_PI * 64),
                                              rel=1e-13)
        # at m = 128, sqrt(2 pi 128) = 28.4 > 21 and the grid pass decides
        assert pullback_sin(21).in_domain(probe(128, 1, 0.0)) == (0.0, False)
        code = main(["demo", "ex2", "--n", "21", "--k", "1",
                     "--m-list", "64,128"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == ("error: x + z at m = 128 leaves "
                                           "the map's domain (margin "
                                           "0.000e+00)\n")

    def test_margin_below_dense_minimum(self):
        x = SmoothFunction(SinusoidProbe(0.1, 1.0, 0.1), PERIODIC) + \
            SmoothFunction(SinusoidProbe(0.004, 9.0, 0.37), PERIODIC)
        margin, ok = pullback_sin().in_domain(x)
        s = np.arange(2**20) / 2**20
        assert ok
        assert margin <= np.abs(1.0 + x.derivative().evaluate(s)).min()

    def test_tangent_between_grid_points_excluded(self):
        # 1 + x' = 1 + cos(2 pi s) touches zero at s = 1/2, off the grid
        x = SmoothFunction(SinusoidProbe(1.0 / TWO_PI, 1.0, 0.0), PERIODIC)
        assert 0.5 not in whole_grid(x)
        margin, ok = pullback_sin().in_domain(x)
        assert not ok and margin < 1e-9

    @pytest.mark.parametrize("c", [5000.0, -3.0, 0.25])
    def test_constant_base_point(self, c):
        # n + x' = 1 everywhere and x'' = 0: the bound takes sup|x''|, not
        # p_2(x), which counts sup|x| too, off the grid minimum
        margin, ok = pullback_sin().in_domain(constant(c))
        assert ok and margin == 1.0

    def test_composition_always_true(self):
        _, ok = PostComposition(Exp((0.0, 1.0))).in_domain(
            zero(UNIT_INTERVAL))
        assert ok

    @pytest.mark.parametrize("n", [1, -2])
    @pytest.mark.parametrize("x", ["zero", "const:5000"])
    def test_constant_derivative_needs_no_grid(self, monkeypatch, n, x):
        # x' = 0, so the infimum of |n + x'| is |n|, with no grid
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for a constant x'")

        monkeypatch.setattr(GridSpec, "points", no_grid)
        margin, ok = pullback_sin(n).in_domain(parse_x(x, PERIODIC))
        assert ok and margin == abs(n)

    @pytest.mark.parametrize("n", [1, 2, -1, 21])
    @pytest.mark.parametrize("name", sorted(GRID_PATH_TREES))
    def test_grid_margin_as_before(self, n, name):
        # the grid path's margin is the grid minimum of |n + x'| less
        # h * sup|x''|, as `in_domain` computed it before `value_range`
        x = SmoothFunction(GRID_PATH_TREES[name], PERIODIC)
        dx = x.derivative()
        s = whole_grid(x)
        signed = n + dx.evaluate(s)
        nearest = max(signed.min(), -signed.max())
        want = 0.0 if nearest <= 0.0 else max(
            nearest - (s[1] - s[0]) * seminorm_profile(dx.derivative(), 0)[0],
            0.0)
        margin, ok = pullback_sin(n).in_domain(x)
        assert abs(margin - want) <= 4.0 * math.ulp(want)
        assert ok == (want > DOMAIN_MARGIN_TOL)


class TestInteriorS0:
    """ex4 with phi = t + e^t anchors at the interior ANCHOR_FALLBACK only
    when x is constant: then every anchor grid point ties, and x attains
    t0 everywhere."""

    @pytest.mark.parametrize("x", ["zero", "const:0.4", "sinusoid:0,3",
                                   "sinusoid:0,0.5"])
    def test_constant_x(self, x):
        mp = PostComposition(Exp((0.0, 1.0)))
        assert find_s0(mp, parse_x(x, UNIT_INTERVAL)) == ANCHOR_FALLBACK

    @pytest.mark.parametrize("freq", [8, 16, 32])
    def test_aliased_sinusoid_is_not_constant(self, freq):
        # x vanishes at every j/16, where a sampled test called it constant;
        # the anchor is x's first maximum, at s = 1 / (4 freq)
        x = parse_x(f"sinusoid:0.3,{freq}", UNIT_INTERVAL)
        assert np.all(np.abs(x.evaluate(np.linspace(0, 1, 17))) < 1e-14)
        s0 = find_s0(PostComposition(Exp((0.0, 1.0))), x)
        assert s0 == 0.25 / freq

    @pytest.mark.parametrize("freq", [8, 16])
    def test_demo_anchor_attains_t0(self, capsys, freq):
        desc = f"sinusoid:0.3,{freq}"
        assert main(["demo", "ex4", "--phi", "t_plus_exp", "--x", desc,
                     "--m-list", "256,1024,4096"]) == 0
        anchor = re.search(r"t0 = (\S+)  s0 = (\S+)",
                           capsys.readouterr().out)
        t0, s0 = float(anchor[1]), float(anchor[2])
        x = parse_x(desc, UNIT_INTERVAL)
        assert abs(x.evaluate(s0) - t0) < 1e-12


class TestApply:
    def test_pullback_at_zero(self):
        f = pullback_sin().apply(zero())
        s = np.linspace(-1.0, 2.0, 101)
        np.testing.assert_allclose(f.evaluate(s), np.sin(TWO_PI * s),
                                   atol=1e-14)
        assert f.evaluate(0.25) == pytest.approx(1.0, rel=1e-15)

    def test_composition_at_zero(self):
        f = PostComposition(Exp((0.0, 1.0))).apply(zero(UNIT_INTERVAL))
        assert f.evaluate(0.3) == pytest.approx(1.0, rel=1e-15)

    def test_output_is_periodic(self):
        rng = np.random.default_rng(31)
        x = random_small_function(rng)
        f = pullback_sin(n=2).apply(x)
        assert f.domain == PERIODIC
        for s in rng.uniform(-2, 2, 8):
            assert f.evaluate(s + 1.0) == pytest.approx(f.evaluate(s),
                                                        abs=1e-12)


MAPS = [(pullback_sin(), PERIODIC),
        (PostComposition(Exp((0.0, 1.0))), UNIT_INTERVAL)]


class TestTreeBuilders:
    """apply and gateaux build trees and check only the domain tag; the
    loop that owns a point checks its membership."""

    @pytest.mark.parametrize("map_spec, domain", MAPS, ids=["ex2", "ex4"])
    def test_no_membership_check(self, monkeypatch, map_spec, domain):
        def refuse(spec, f):
            raise AssertionError("in_domain called by a tree builder")

        for cls in (MapSpec, type(map_spec)):
            monkeypatch.setattr(cls, "in_domain", refuse)
        # for ex2 n + x' crosses zero here, and the trees are built anyway
        x = SmoothFunction(SinusoidProbe(2.0 / TWO_PI, 1.0, 0.0), domain)
        u = constant(0.125, domain)
        assert map_spec.apply(x).domain == domain
        assert map_spec.gateaux(x, u).domain == domain

    @pytest.mark.parametrize("map_spec, domain", MAPS, ids=["ex2", "ex4"])
    def test_wrong_tag_rejected(self, map_spec, domain):
        other = UNIT_INTERVAL if domain == PERIODIC else PERIODIC
        x = zero(other)
        for build in (map_spec.apply, map_spec.in_domain,
                      map_spec.require_domain,
                      lambda f: map_spec.gateaux(f, f)):
            with pytest.raises(ValueError, match=f"expected {domain}"):
                build(x)

    def test_require_domain(self):
        steep = SmoothFunction(SinusoidProbe(2.0 / TWO_PI, 1.0, 0.0),
                               PERIODIC)
        pullback_sin().require_domain(zero())
        with pytest.raises(DomainViolation) as exc:
            pullback_sin().require_domain(steep)
        assert exc.value.margin < 1e-9


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestPhiArgument:
    """phi's argument is the value of the tree `argument` builds; it equals
    the closed formulas n*s + x(s) for ex2 and x(s) for ex4 bit for bit."""

    SCALARS = (0.0, 0.3, 1.0 / 3.0, 0.5, 1.0)

    @pytest.mark.parametrize("n", [1, -2])
    @pytest.mark.parametrize("x", ["zero", "const:0.1", "sinusoid:0.02,1,0.3"])
    def test_pullback(self, n, x):
        mp, xf = pullback_sin(n), parse_x(x, PERIODIC)
        # s0's bracket may leave [0, 1]
        s = np.linspace(-1.5, 2.5, 4001)
        assert np.array_equal(bits(mp.argument(xf).values(s)),
                              bits(n * s + xf.evaluate(s)))
        for t in self.SCALARS + (-0.7, 2.25):
            got = mp.argument(xf).values(t)
            assert type(got) is float
            assert bits(got) == bits(n * t + xf.evaluate(t))

    def test_composition(self):
        mp = PostComposition(Exp((0.0, 1.0)))
        xf = parse_x("sinusoid:0.3,1.5", UNIT_INTERVAL)
        s = np.linspace(0.0, 1.0, 4001)
        assert np.array_equal(bits(mp.argument(xf).values(s)),
                              bits(xf.evaluate(s)))
        for t in self.SCALARS:
            got = mp.argument(xf).values(t)
            assert type(got) is float and bits(got) == bits(xf.evaluate(t))


class TestGateaux:
    def test_constant_direction_at_zero(self):
        g = pullback_sin().gateaux(zero(), constant(0.125))
        assert g.evaluate(0.0) == pytest.approx(0.125 * TWO_PI, rel=1e-13)

    def test_oscillating_direction_at_zero(self):
        u = SmoothFunction(SinusoidProbe(1.0, 1.0, 0.0), PERIODIC)
        g = pullback_sin().gateaux(zero(), u)
        # phi'(0)*u(0)*1 + phi(0)*u'(0) = 2pi*0 + 0*2pi
        assert g.evaluate(0.0) == pytest.approx(0.0, abs=1e-14)

    def test_linear_in_direction(self):
        rng = np.random.default_rng(37)
        x = random_small_function(rng)
        u = random_small_function(rng)
        m = pullback_sin()
        s = np.linspace(0.0, 1.0, 257)
        np.testing.assert_allclose(m.gateaux(x, 2.0 * u).evaluate(s),
                                   2.0 * m.gateaux(x, u).evaluate(s),
                                   rtol=1e-12, atol=1e-14)

    def test_composition_formula(self):
        m = PostComposition(Exp((0.0, 1.0)))
        x = zero(UNIT_INTERVAL)
        u = constant(0.5, UNIT_INTERVAL)
        # phi'(0) * u = (1 + e^0) * 0.5
        assert m.gateaux(x, u).evaluate(0.2) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("map_spec, domain", [
        (pullback_sin(), PERIODIC),
        (PostComposition(Exp((0.0, 1.0))), UNIT_INTERVAL),
    ], ids=["ex2", "ex4"])
    def test_built_twice_compares_equal(self, map_spec, domain):
        # phi' is built afresh on every call, and compares by value
        rng = np.random.default_rng(41)
        x = random_small_function(rng, domain)
        u = random_small_function(rng, domain)
        assert map_spec.gateaux(x, u) == map_spec.gateaux(x, u)


class TestGateauxFd:
    @pytest.mark.parametrize("make", [
        lambda rng: (pullback_sin(),
                     random_small_function(rng),
                     random_small_function(rng)),
        lambda rng: (PostComposition(Exp((0.0, 1.0))),
                     random_small_function(rng, UNIT_INTERVAL),
                     random_small_function(rng, UNIT_INTERVAL)),
    ])
    def test_second_order_convergence(self, make):
        rng = np.random.default_rng(41)
        m, x, u = make(rng)
        u = 5.0 * u  # enough curvature for a clean error ratio
        g = m.gateaux(x, u)
        errs = {}
        for t in (1e-2, 1e-3):
            fd = gateaux_fd(m, x, u, t)
            errs[t] = np.max(np.abs(fd.values - g.evaluate(fd.s)))
        ratio = errs[1e-2] / errs[1e-3]
        assert 80.0 <= ratio <= 120.0

    def test_sup_distance_small_inputs(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            m = pullback_sin()
            x = random_small_function(rng)
            u = random_small_function(rng)
            g = m.gateaux(x, u)
            fd = gateaux_fd(m, x, u, 1e-4)
            scale = 1.0 + np.max(np.abs(g.evaluate(fd.s)))
            assert np.max(np.abs(fd.values - g.evaluate(fd.s))) <= 1e-5 * scale

    def test_affine_composition_exact(self):
        m = PostComposition(Polynomial([1.0, 2.0]))
        rng = np.random.default_rng(47)
        x = random_small_function(rng, UNIT_INTERVAL)
        u = random_small_function(rng, UNIT_INTERVAL)
        g = m.gateaux(x, u)
        for t in (1e-1, 1e-4, 1e-7):
            fd = gateaux_fd(m, x, u, t)
            np.testing.assert_allclose(fd.values, g.evaluate(fd.s),
                                       rtol=1e-9, atol=1e-9)

    def test_zero_direction(self):
        fd = gateaux_fd(pullback_sin(), zero(), zero(), 1e-3)
        np.testing.assert_allclose(fd.values, 0.0, atol=1e-12)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            gateaux_fd(pullback_sin(), zero(), zero(), 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_nonfinite_step(self, t):
        # nan ended in DomainViolation (margin nan)
        with pytest.raises(ValueError, match="step t must be positive"):
            gateaux_fd(pullback_sin(), zero(), zero(), t)

    def test_domain_violation_raised(self):
        # both points x +- t u are checked before apply builds anything
        x = SmoothFunction(SinusoidProbe(2.0 / TWO_PI, 1.0, 0.0), PERIODIC)
        with pytest.raises(DomainViolation) as exc:
            gateaux_fd(pullback_sin(), x, zero(), 1e-3)
        assert exc.value.margin < 1e-9


class TestDegenerateStability:
    def test_constant_phi_pullback(self):
        m = CirclePullback(Polynomial([0.7, 0.0]), 1)
        rng = np.random.default_rng(53)
        x = random_small_function(rng)
        z = probe(16, 3, 0.0)
        u = random_small_function(rng)
        v = m.gateaux(x + z, u) - m.gateaux(x, u)
        s = np.linspace(0.0, 1.0, 513)
        np.testing.assert_allclose(v.evaluate(s), 0.0, atol=1e-14)

    def test_affine_phi_composition(self):
        m = PostComposition(Polynomial([-1.0, 3.0]))
        rng = np.random.default_rng(59)
        x = random_small_function(rng, UNIT_INTERVAL)
        z = probe(16, 3, 0.5, UNIT_INTERVAL)
        u = random_small_function(rng, UNIT_INTERVAL)
        v = m.gateaux(x + z, u) - m.gateaux(x, u)
        s = np.linspace(0.0, 1.0, 513)
        np.testing.assert_allclose(v.evaluate(s), 0.0, atol=1e-14)


def unfolded_diff(node):
    """Derivative tree without folding, for the node types of the base
    points and probes below."""
    if isinstance(node, Constant):
        return Constant(0.0)
    if isinstance(node, Sum):
        return Sum(*[unfolded_diff(ch) for ch in node.children])
    return node.diff()


def unfolded_gateaux(map_spec, x_node, u_node):
    """The directional-derivative tree with every zero and unit term kept."""
    if isinstance(map_spec, PostComposition):
        return Product(PrimitiveCompose(map_spec.phi.derivative(), x_node),
                       u_node)
    n = float(map_spec.n)
    inner = Sum(Affine(n, 0.0), x_node)
    return Sum(Product(PrimitiveCompose(map_spec.phi.derivative(), inner),
                       u_node, Sum(Constant(n), unfolded_diff(x_node))),
               Product(PrimitiveCompose(map_spec.phi, inner),
                       unfolded_diff(u_node)))


class TestFoldedTrees:
    """v = df(x+z, u) - df(x, u) built through the folding constructors
    has bit-identical coefficients to the unfolded tree, on the same grid."""

    CASES = [pytest.param(pullback_sin(n), x, id=f"ex2-n{n}-{x}")
             for n in (1, 2)
             for x in ("zero", "const:0.1", "sinusoid:0.02,1")] + \
        [pytest.param(PostComposition(Exp((0.0, 1.0))), "sinusoid:0.3,1.5",
                      id="ex4-sinusoid:0.3,1.5")]

    @pytest.mark.parametrize("m", [16, 4096])
    @pytest.mark.parametrize("map_spec, x_desc", CASES)
    def test_bit_identical(self, map_spec, x_desc, m):
        domain = map_spec.domain_tag
        x = parse_x(x_desc, domain)
        z = probe(m, 3, 0.2, domain)
        u = constant(0.125, domain)
        v = map_spec.gateaux(x + z, u) - map_spec.gateaux(x, u)
        raw = Sum(unfolded_gateaux(map_spec, Sum(x.node, z.node), u.node),
                  Product(unfolded_gateaux(map_spec, x.node, u.node),
                          Constant(-1.0)))
        assert v.node.max_frequency() == raw.max_frequency()
        s = whole_grid(v)
        assert s.size == GRID.size(SmoothFunction(raw, domain))
        # every 16th point of the first chunk: the arithmetic is per point
        s = s[:_CHUNK:16]
        for order in range(13):
            assert np.array_equal(v.node.coeffs(Evaluation(s), order),
                                  raw.coeffs(Evaluation(s), order))

    def test_constant_direction_drops_second_term(self):
        # phi'(s + 0) * u * (1 + 0') + phi(s + 0) * u' is phi'(s) * u
        g = pullback_sin().gateaux(zero(), constant(0.125)).node
        assert isinstance(g, Product)
        lead, u = g.children
        assert u == Constant(0.125)
        assert isinstance(lead, PrimitiveCompose)
        assert lead.child == Affine(1.0, 0.0)
