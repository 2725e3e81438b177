import functools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_trig,
    probe_deriv_closed_form,
    random_small_function,
    whole_grid,
)
from tameprobe import driver, functions, primitives, tameness
from tameprobe.cli import DEFAULT_M_LIST, parse_phi, parse_x
from tameprobe.cli import main as cli_main
from tameprobe.driver import (
    ANCHOR_FALLBACK,
    ANCHOR_POINTS,
    RESIDUAL_M_COARSE,
    PrecisionBudgetError,
    estimate_residual_bound,
    find_s0,
    find_t0,
    fix_m,
    growth_sweep,
    locate_anchor,
    residual_tz,
)
from tameprobe.functions import (
    _CHUNK,
    PERIODIC,
    UNIT_INTERVAL,
    Constant,
    Evaluation,
    GridSpec,
    PrimitiveCompose,
    Product,
    SinusoidProbe,
    SmoothFunction,
    Sum,
    add,
    constant,
    find_shared,
    mul,
    probe,
    seminorm_profile,
    seminorm_profiles,
    zero,
)
from tameprobe.maps import CirclePullback, PostComposition
from tameprobe.primitives import Cos, Exp, Polynomial, Sin
from tameprobe.tameness import SATURATION, PNormSpec

TWO_PI = 2.0 * math.pi


def pullback_sin(n=1):
    return CirclePullback(Sin(omega=TWO_PI), n)


def composition_exp():
    return PostComposition(Exp((0.0, 1.0)))


class TestProbeParams:
    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            probe(16, 4, 0.0)

    @pytest.mark.parametrize("s0", [math.nan, math.inf])
    def test_non_finite_s0_rejected(self, s0):
        # s0 is the sinusoid's phase, and probe() built one with a NaN phase
        with pytest.raises(ValueError, match="phase must be finite"):
            probe(16, 3, s0)


class TestFindT0:
    def test_sin_pullback(self):
        # |phi'| = 2pi at both 0 and 0.5; the tie breaks to the first
        mp = pullback_sin()
        assert find_t0(mp, zero(), find_s0(mp, zero())) == 0.0

    def test_constant_phi_degenerate(self):
        # phi' vanishes everywhere: the anchor falls back to 0.5
        mp = CirclePullback(Polynomial([0.3, 0.0]), 1)
        assert find_s0(mp, zero()) == ANCHOR_FALLBACK
        assert locate_anchor(mp, zero()) == (0.5, 0.5, 0.0, True)

    def test_composition_at_zero_base(self):
        mp, x = composition_exp(), zero(UNIT_INTERVAL)
        assert find_t0(mp, x, find_s0(mp, x)) == 0.0

    def test_affine_composition_degenerate(self):
        # phi'' vanishes everywhere: the anchor falls back to 0.5
        mp, x = PostComposition(Polynomial([1.0, 2.0])), zero(UNIT_INTERVAL)
        assert find_s0(mp, x) == ANCHOR_FALLBACK
        assert locate_anchor(mp, x) == (0.0, 0.5, 0.0, True)


class TestFindS0:
    def test_zero_base_point(self):
        assert find_s0(pullback_sin(), zero()) == 0.0

    def test_winding_two(self):
        # |phi'| = 2pi |sin(2pi t)| at t = -2s peaks first at s = 1/8
        assert find_s0(CirclePullback(Cos(omega=TWO_PI), -2), zero()) == 0.125

    def test_perturbed_base_point(self):
        rng = np.random.default_rng(73)
        x = random_small_function(rng)
        m = pullback_sin()
        s0 = find_s0(m, x)
        assert 0.0 <= s0 < 1.0
        assert s0 + x.evaluate(s0) == find_t0(m, x, s0)

    def test_composition_constant_base(self):
        assert find_s0(composition_exp(),
                       zero(UNIT_INTERVAL)) == ANCHOR_FALLBACK

    def test_tied_nonzero_lead(self):
        # phi'' = 0.02 at every point, so no grid point is better than
        # another, though x is not constant
        mp = PostComposition(Polynomial([0.0, 1.0, 0.01]))
        x = parse_x("sinusoid:0.3,1.5", UNIT_INTERVAL)
        t0, s0, deriv_mag, degenerate = locate_anchor(mp, x)
        assert (s0, t0) == (ANCHOR_FALLBACK, x.evaluate(0.5))
        assert deriv_mag == pytest.approx(0.02, rel=1e-15)
        assert not degenerate


# the paper's default base points, and ones where phi's argument has no
# zero on the anchor grid, winds backwards or carries a large constant
GRID_ANCHOR_CASES = {
    "ex2-zero": (pullback_sin, "zero"),
    "ex2-n2-sinusoid": (lambda: pullback_sin(2), "sinusoid:0.02,1,0.3"),
    "ex2-const-5000": (pullback_sin, "const:5000"),
    "ex2-const-1e8": (pullback_sin, "const:1e8"),
    "ex2-cos-n-2": (lambda: CirclePullback(Cos(omega=TWO_PI), -2), "zero"),
    "ex4-zero": (composition_exp, "zero"),
    "ex4-sinusoid": (composition_exp, "sinusoid:0.3,1.5"),
}


class TestAnchor:
    @pytest.mark.parametrize("case", sorted(GRID_ANCHOR_CASES))
    def test_anchor_is_a_grid_maximum(self, case):
        make_map, x = GRID_ANCHOR_CASES[case]
        mp = make_map()
        x = parse_x(x, mp.domain_tag)
        t0, s0, deriv_mag, degenerate = locate_anchor(mp, x)
        if mp.domain_tag == PERIODIC:
            grid = np.arange(ANCHOR_POINTS) / ANCHOR_POINTS
        else:
            grid = np.linspace(0.0, 1.0, ANCHOR_POINTS + 1)
        assert not degenerate
        assert s0 in grid
        assert mp.argument(x).values(s0) == t0
        lead = np.abs(mp.leading_primitive()(mp.argument(x).values(grid)))
        assert abs(deriv_mag - lead.max()) <= np.spacing(lead.max())

    @pytest.mark.parametrize("n, x, fires", [
        (1, "const:1e300", True),
        (1, "const:1e8", False),
        (10**12, "zero", True),
    ], ids=["const-1e300", "const-1e8", "winding-1e12"])
    def test_precision_guard(self, n, x, fires):
        # doubles near 1e300 are 1.5e284 apart, near 1e8 1.5e-8 and near
        # 1e12 1.2e-4, against ANCHOR_SPACING_MAX = 2^-20 = 9.5e-7
        mp = CirclePullback(Cos(omega=TWO_PI), n)
        x = parse_x(x, PERIODIC)
        if fires:
            with pytest.raises(PrecisionBudgetError,
                               match="exceeds the precision budget"):
                find_s0(mp, x)
        else:
            assert 0.0 <= find_s0(mp, x) < 1.0


class TestBuildProbe:
    def test_seminorm_levels(self):
        k, l, m = 3, 8, 64
        z, u = probe(m, k, 0.25), constant(1.0 / l)
        assert seminorm_profile(z, k - 1)[k - 1] == pytest.approx(
            (TWO_PI * m)**-0.5, rel=1e-12)
        assert seminorm_profile(u, l)[l] == pytest.approx(1.0 / l, rel=1e-15)
        assert z.evaluate(0.25) == 0.0

    def test_small_once_m_large(self):
        # (2 pi m)^(-1/2) <= 1/k already at m = 2 for k = 3
        k, m = 3, 2
        z = probe(m, k, 0.0)
        assert seminorm_profile(z, k - 1)[k - 1] <= 1.0 / k


def two_pass_residual(mp, x, m, s0, v, order, k=3, l=8):
    """The residual and the seminorms of v, the difference for the k-probe
    of frequency m at s0 and u = 1/l, from two separate grid passes: v at
    order top for T_z, then `seminorm_profile` for the seminorms. Returns
    (sup|T_z|, sup|v^(top)/eps0|, profile); T_z's leading term is computed
    from phi's argument and the probe's closed form."""
    top, eps0 = mp.top_order(k), 1.0 / l
    lead = mp.leading_primitive()
    s = whole_grid(v)
    fact = math.factorial(top)
    z = probe(m, k, s0)
    tz, scaled_top = np.empty_like(s), np.empty_like(s)
    for lo in range(0, s.size, _CHUNK):
        sc = s[lo:lo + _CHUNK]
        scaled_top[lo:lo + _CHUNK] = \
            fact * v.node.coeffs(Evaluation(sc), top)[top] / eps0
        c = mp.argument(x).values(sc) + z.evaluate(sc)
        zk = probe_deriv_closed_form(m, k, s0, k, sc)
        tz[lo:lo + _CHUNK] = scaled_top[lo:lo + _CHUNK] - lead(c) * zk
    return (float(np.max(np.abs(tz))), float(np.max(np.abs(scaled_top))),
            seminorm_profile(v, order))


def difference(mp, x, z, u):
    return mp.gateaux(x + z, u) - mp.gateaux(x, u)


def anchored_difference(mp, x, m, k=3, l=8):
    """s0, z and v for a k-probe of frequency m at x's anchor and u = 1/l."""
    _, s0, _, _ = locate_anchor(mp, x)
    z = probe(m, k, s0, mp.domain_tag)
    return s0, z, difference(mp, x, z, constant(1.0 / l, mp.domain_tag))


def sweep_anchor(s0, m):
    """(s0, s1), the anchor `growth_sweep` gives `residual_tz` for the
    frequency-m probe at s0: s1 is a quarter period of the probe away, on
    the side that keeps it in [0, 1]."""
    q = 0.25 / m
    return s0, s0 + q if s0 + q <= 1.0 else s0 - q


def map_residual(mp, x, s0, z, v, rho2, k=3, l=8):
    """residual_tz of v for the k-probe z at s0 and u = 1/l, at the
    sweep's anchor and with the leading term and top order that the map
    gives."""
    return residual_tz(v, mp.leading_term(x, z, k), mp.top_order(k),
                       sweep_anchor(s0, z.node.frequency), 1.0 / l, rho2)


def record_coeff_orders(mpatch, node):
    """Patch ``node``'s class so that each ``coeffs`` call on ``node``
    itself appends (points, order) to the returned list."""
    calls = []
    cls = type(node)
    original = cls.coeffs

    def coeffs(self, s, order):
        if self is node:
            calls.append((s.points.size, order))
        return original(self, s, order)

    mpatch.setattr(cls, "coeffs", coeffs)
    return calls


def uncut_residual(*args):
    """residual_tz with no rung ever called saturated, so the pass runs to
    the whole truncation and every rung of the profile is the grid's."""
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(tameness, "SATURATION", math.inf)
        return map_residual(*args)


class TestResidual:
    CASES = {
        "ex2-zero": (pullback_sin, zero),
        "ex2-sinusoid": (pullback_sin,
                         lambda: SmoothFunction(SinusoidProbe(0.02, 1.0, 0.2),
                                                PERIODIC)),
        "ex4-zero": (composition_exp, lambda: zero(UNIT_INTERVAL)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("m", [16, 64])
    @pytest.mark.parametrize("order", [0, "top", 12])
    def test_one_pass_matches_two_passes(self, case, m, order):
        self.check_against_two_passes(case, m, order)

    def test_pass_spans_chunks(self):
        # v's grid at m = 1024 has 64 * 2049 + 1 points: nine chunks
        assert 64 * 2049 + 1 > 8 * _CHUNK
        self.check_against_two_passes("ex2-zero", 1024, "top")

    def check_against_two_passes(self, case, m, order):
        make_map, make_x = self.CASES[case]
        mp, x = make_map(), make_x()
        s0, z, v = anchored_difference(mp, x, m)
        if order == "top":
            order = mp.top_order(3)
        _, tz_sup, profile = uncut_residual(mp, x, s0, z, v, PNormSpec(order))
        want_tz, top_sup, want_profile = two_pass_residual(mp, x, m, s0, v,
                                                           order)
        # a cancellation residual of terms the size of v^(top) / eps0
        assert abs(tz_sup - want_tz) <= 1e-12 * top_sup
        assert np.array_equal(profile, want_profile)
        assert math.isfinite(tz_sup)
        assert np.isfinite(profile).all()

    def test_constant_phi_residual_vanishes(self):
        mp = CirclePullback(Polynomial([0.3, 0.0]), 1)
        z = probe(16, 3, 0.0)
        v = difference(mp, zero(), z, constant(0.125))
        _, tz_sup, profile = map_residual(mp, zero(), 0.0, z, v, PNormSpec(0))
        assert tz_sup == pytest.approx(0.0, abs=1e-14)
        assert profile.shape == (1,)

    def test_top_derivative_consistency(self):
        # T_z at the anchor is tiny for this variant, so |v^(top)(s0)| is
        # the leading term eps0 * |phi''(t0)| * sqrt(2 pi m)
        res = growth_sweep(composition_exp(), zero(UNIT_INTERVAL),
                           PNormSpec(), PNormSpec(), 3, 8, [32])
        r = res.records[0]
        assert r.top_deriv_s0 == pytest.approx(r.predicted, rel=1e-6)


CUT_CASES = {
    "ex2-zero": (pullback_sin, zero),
    "ex4-sinusoid": (composition_exp,
                     lambda: SmoothFunction(SinusoidProbe(0.3, 1.5),
                                            UNIT_INTERVAL)),
}


@functools.lru_cache(maxsize=None)
def cut_and_uncut(case, m):
    """residual_tz under the default P-norm (order 12), cut and uncut,
    plus the order of the cut pass's grid evaluation of v."""
    make_map, make_x = CUT_CASES[case]
    mp, x = make_map(), make_x()
    s0, z, v = anchored_difference(mp, x, m)
    rho2 = PNormSpec()
    with pytest.MonkeyPatch.context() as mpatch:
        calls = record_coeff_orders(mpatch, v.node)
        cut = map_residual(mp, x, s0, z, v, rho2)
    grid_order, = {order for points, order in calls if points > 2}
    return cut, uncut_residual(mp, x, s0, z, v, rho2), grid_order


class TestSaturationCut:
    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    @pytest.mark.parametrize("m", [16, 4096])
    def test_tz_sup_unchanged(self, case, m):
        (_, tz_sup, _), (_, want, _), _ = cut_and_uncut(case, m)
        assert tz_sup == want

    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    @pytest.mark.parametrize("m", [16, 4096])
    @pytest.mark.parametrize("rho2", [PNormSpec()], ids=["default"])
    def test_pnorm_unchanged(self, case, m, rho2):
        (_, _, profile), (_, _, full), grid_order = cut_and_uncut(case, m)
        assert grid_order < rho2.truncation   # the pass was cut
        assert rho2.of_profile(profile) == rho2.of_profile(full)

    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    @pytest.mark.parametrize("m", [16, 4096])
    def test_cut_is_sound(self, case, m):
        (_, _, profile), (_, _, full), grid_order = cut_and_uncut(case, m)
        cut = grid_order + 1
        assert profile.shape == full.shape == (13,)
        assert np.array_equal(profile[:cut], full[:cut])
        # from the cut rung up every term of the grid's profile is its
        # weight 2^-i, as it is for the filled rungs, which are saturated
        assert (full[cut:] / (1.0 + full[cut:]) == 1.0).all()
        assert (profile[cut:] >= SATURATION).all()
        # the filled rungs are v's values at s0 and s1, each point
        # evaluated alone (test_oracle pins them to the closed form)
        make_map, make_x = CUT_CASES[case]
        s0, _, v = anchored_difference(make_map(), make_x(), m)
        fact = np.array([math.factorial(i) for i in range(13)])
        at = np.array([v.node.coeffs(Evaluation(np.array([s])), 12)[:, 0]
                       for s in sweep_anchor(s0, m)])
        lower = np.abs(at).max(axis=0) * fact
        want = np.maximum.accumulate(np.concatenate([full[:cut],
                                                     lower[cut:]]))
        assert profile[cut:] == pytest.approx(want[cut:], rel=1e-13)
        # points of the domain bound the seminorms from below, and the grid
        # reaches 1 - pi/64 of each (Bernstein's inequality at 64 points
        # per unit of frequency), so the two lower bounds are that close
        assert (profile[cut:] * (1.0 - math.pi / 64) <= full[cut:]).all()

    def test_pass_shrinks(self, monkeypatch):
        mp = pullback_sin()
        s0, z, v = anchored_difference(mp, zero(), 4096)
        calls = record_coeff_orders(monkeypatch, v.node)
        map_residual(mp, zero(), s0, z, v, PNormSpec(12))
        # s0 and s1 to order 12, then the chunks to order 5
        assert calls[0] == (2, 12)
        assert {order for _, order in calls[1:]} == {5}
        calls.clear()
        uncut_residual(mp, zero(), s0, z, v, PNormSpec(12))
        assert {order for points, order in calls if points > 2} == {12}


class TestResidualTakesNoMap:
    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    @pytest.mark.parametrize("m", [16, 4096])
    def test_zero_lead_leaves_the_scaled_top_derivative(self, case, m):
        # with no leading term taken out, sup|T_z| is the sup of
        # top! v^(top) / eps0, whatever map built v
        make_map, make_x = CUT_CASES[case]
        mp, x = make_map(), make_x()
        s0, _, v = anchored_difference(mp, x, m)
        _, tz_sup, _ = residual_tz(v, Constant(0.0), mp.top_order(3),
                                   sweep_anchor(s0, m), 0.125, PNormSpec())
        _, want, _ = two_pass_residual(mp, x, m, s0, v, 0)
        assert tz_sup == want


class TestSharedEvaluation:
    """v and T_z's leading term are evaluated in one context per chunk."""

    def test_trig_per_chunk(self, monkeypatch):
        # ex2 at x = 0: z and z' read one sin/cos pair, and phi' at s + z
        # and at s one each; the leading term phi'(s + z) z^(3) reads phi'
        # at s + z and z's pair from the chunk's context
        mp = pullback_sin()
        s0, z, v = anchored_difference(mp, zero(), 1024)
        sizes = []
        real = primitives.trig_cycle

        def counted(theta, i):
            sizes.append(np.size(theta))
            return real(theta, i)

        monkeypatch.setattr(primitives, "trig_cycle", counted)
        map_residual(mp, zero(), s0, z, v, PNormSpec(2))
        # the two-point anchor evaluates v alone; the pass takes v's
        # 131,137-point grid to order 2 in nine chunks of 14,571 points
        assert GridSpec().size(v) == 131137
        assert Counter(sizes) == {2: 6, 14571: 6 * 9}

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("x_node", [Constant(0.0),
                                        SinusoidProbe(0.02, 1.0, 0.2)],
                             ids=["zero", "sinusoid"])
    def test_leading_term_shares_the_composition(self, n, x_node,
                                                 monkeypatch):
        # phi'(n s + x + z) in T_z's leading term is, by value, the one in
        # df(x + z, u), so a pass over both evaluates it once
        mp, x = pullback_sin(n), SmoothFunction(x_node, PERIODIC)
        _, z, v = anchored_difference(mp, x, 64)
        lead = mp.leading_term(x, z, 3)
        composition, zk = lead.children
        assert isinstance(composition, PrimitiveCompose)
        assert composition == mp.gateaux(
            x + z, constant(0.125)).node.children[0]
        slots = find_shared(v.node, lead)
        assert id(composition) in slots
        # z^(k) keeps z's phase, so it reads z's sin and cos: after v, the
        # leading term computes no sine or cosine of its own
        assert (zk.frequency, zk.phase, zk.shift) == (
            z.node.frequency, z.node.phase, 3)
        ev = Evaluation(np.linspace(0.0, 1.0, 33), slots)
        ev.coeffs(v.node, mp.top_order(3))
        calls = count_trig(monkeypatch)
        ev.coeffs(lead, 0)
        assert calls == []


ANCHOR_CASES = {
    "ex2-zero": (pullback_sin, zero),
    "ex2-sinusoid": (pullback_sin,
                     lambda: SmoothFunction(SinusoidProbe(0.05, 3.0, 0.2),
                                            PERIODIC)),
    "ex4-sinusoid": CUT_CASES["ex4-sinusoid"],
}


class TestAnchorEvaluation:
    def test_anchor_at_the_right_end_steps_back(self, monkeypatch):
        # demo ex4 --phi t_plus_exp --x sinusoid:0.3,1,0.74 anchors near 1;
        # at m = 16, s0 + 1/64 passes 1, so s1 = s0 - 1/64, and at m = 4096
        # s1 = s0 + 1/16384 is still in [0, 1]
        anchors = []
        real = driver.residual_tz

        def residual(v, lead, top, anchor, *args):
            anchors.append(anchor)
            return real(v, lead, top, anchor, *args)

        monkeypatch.setattr(driver, "residual_tz", residual)
        res = growth_sweep(PostComposition(parse_phi("t_plus_exp")),
                           parse_x("sinusoid:0.3,1,0.74", UNIT_INTERVAL),
                           PNormSpec(), PNormSpec(), 3, 8, [16, 4096])
        s0 = res.s0
        assert s0 == 0.989990234375
        assert anchors == [(s0, s0 - 1 / 64), (s0, s0 + 1 / 16384)]
        assert all(0.0 <= s <= 1.0 for anchor in anchors for s in anchor)

    @pytest.mark.parametrize("anchor", [(-0.25, 0.5), (0.5, 1.25),
                                        (0.5, math.nan), (math.inf, 0.5)],
                             ids=["below", "above", "nan", "inf"])
    def test_anchor_off_the_unit_interval_rejected(self, anchor):
        # off [0, 1] a unit-interval v reads its smooth extension
        mp = composition_exp()
        _, z, v = anchored_difference(mp, zero(UNIT_INTERVAL), 16)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            residual_tz(v, mp.leading_term(zero(UNIT_INTERVAL), z, 3),
                        mp.top_order(3), anchor, 0.125, PNormSpec())

    @pytest.mark.parametrize("case", sorted(ANCHOR_CASES))
    @pytest.mark.parametrize("m", [16, 4096])
    def test_top_derivative_is_the_one_point_value(self, case, m):
        # the witness comes from a two-point evaluation to order
        # max(truncation, top); it must equal v evaluated at s0 alone to
        # order top, bit for bit
        make_map, make_x = ANCHOR_CASES[case]
        mp, x = make_map(), make_x()
        s0, z, v = anchored_difference(mp, x, m)
        on_grid = s0 in whole_grid(v)
        assert on_grid == (case == "ex2-zero")
        top = mp.top_order(3)
        want = math.factorial(top) * v.node.coeffs(
            Evaluation(np.array([s0])), top)[top, 0]
        top_deriv, _, _ = map_residual(mp, x, s0, z, v, PNormSpec())
        assert top_deriv == abs(want)

    @pytest.mark.parametrize("case", sorted(ANCHOR_CASES))
    def test_sweep_evaluates_v_off_the_grid_once_per_m(self, case,
                                                       monkeypatch):
        roots, small = [], []
        real_residual, real_coeffs = driver.residual_tz, Sum.coeffs

        def residual(v, *args):
            roots.append(v.node)
            return real_residual(v, *args)

        def coeffs(self, s, order):
            if s.points.size <= 2:
                small.append(self)
            return real_coeffs(self, s, order)

        monkeypatch.setattr(driver, "residual_tz", residual)
        monkeypatch.setattr(Sum, "coeffs", coeffs)
        make_map, make_x = ANCHOR_CASES[case]
        growth_sweep(make_map(), make_x(), PNormSpec(), PNormSpec(), 3, 8,
                     [16, 64])
        assert len(roots) == 2
        for root in roots:
            assert type(root) is Sum
            assert sum(node is root for node in small) == 1


class TestNoWholeGrid:
    """A pass builds its points one chunk at a time, into buffers it owns
    and reuses; no pass holds a whole grid."""

    def test_sweep_builds_a_chunk_at_a_time(self, monkeypatch):
        # ex2 at the CLI's cap m = 16384: v's grid has 2^21 + 65 points
        sizes = []
        points = GridSpec.points

        def recording(grid, domain, size, lo, hi, out=None):
            s = points(grid, domain, size, lo, hi, out)
            sizes.append(s.size)
            return s

        monkeypatch.setattr(GridSpec, "points", recording)
        growth_sweep(pullback_sin(), zero(), PNormSpec(2), PNormSpec(2), 3,
                     8, [16384])
        n = 2**21 + 65
        # rho1(u)'s one-chunk pass, then one pass over v's grid to order
        # 2, in as many chunks as of _CHUNK points, all of one size; the
        # two anchor points are no grid's
        assert 128 * _CHUNK < n <= 129 * _CHUNK
        assert sizes == [4097] + [16258] * 129

    @staticmethod
    def functions(seed, m, k):
        """x, y from `random_small_function`, the probe z and its s0, and
        three trees that share one grid (a sinusoid of frequency m + 4 in
        each sets it) and a composition that repeats within and across
        them, then y and z on grids of their own."""
        rng = np.random.default_rng(seed)
        x, y = random_small_function(rng), random_small_function(rng)
        s0 = float(rng.uniform())
        z = probe(m, k, s0)
        rep = PrimitiveCompose(Sin(omega=TWO_PI), add(x.node, z.node))
        top = SinusoidProbe(1e-3, m + 4.0, 0.1)
        trees = (Sum(Product(rep, y.node), mul(rep, Constant(-2.0)), top),
                 Sum(rep, x.node, top),
                 Sum(Product(x.node, y.node), rep, top))
        fs = [SmoothFunction(t, PERIODIC) for t in trees] + [y, z]
        return x, z, s0, fs

    def passes(self, seed, m, k, order):
        """A many-function seminorm pass and a residual pass."""
        x, z, s0, fs = self.functions(seed, m, k)
        mp = pullback_sin()
        v = difference(mp, x, z, constant(0.125))
        return (seminorm_profiles(fs, order),
                residual_tz(v, mp.leading_term(x, z, k), mp.top_order(k),
                            sweep_anchor(s0, m), 0.125, PNormSpec(order)))

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(512, 600),
           k=st.sampled_from([1, 3]), order=st.integers(0, 12))
    def test_reuse_never_aliases_a_live_array(self, seed, m, k, order):
        # every array handed out is first filled with NaN: an array that
        # aliased a live one, or a read of what a kernel did not write,
        # shows in the result
        reused = []
        real = functions._buffer

        def poisoned(buffers, shape):
            held = {id(b) for same in buffers.values() for b in same}
            out = real(buffers, shape)
            reused.append(id(out) in held)
            out.fill(np.nan)
            return out

        def fresh(buffers, shape):
            return np.full(shape, np.nan)

        with pytest.MonkeyPatch.context() as mpatch:
            mpatch.setattr(functions, "_buffer", poisoned)
            profiles, (top, tz_sup, profile) = self.passes(seed, m, k, order)
            mpatch.setattr(functions, "_buffer", fresh)
            want_profiles, want = self.passes(seed, m, k, order)
        # three trees on one grid of three chunks or more, and buffers
        # reused
        sizes = {GridSpec().size(f) for f in self.functions(seed, m, k)[3]}
        assert len(sizes) == 3 and max(sizes) > 2 * _CHUNK
        assert sum(reused) > 3 * len(reused) / 4
        assert all(np.array_equal(a, b)
                   for a, b in zip(profiles, want_profiles, strict=True))
        assert (top, tz_sup) == want[:2]
        assert np.array_equal(profile, want[2])


class TestGrowthSweep:
    def test_oscillatory_sweep(self):
        res = growth_sweep(pullback_sin(), zero(), PNormSpec(), PNormSpec(),
                           3, 8, [16, 32, 64])
        assert res.violation
        assert not res.degenerate
        assert 0.4 <= res.slope <= 0.6
        for r in res.records:
            assert r.p_km1_z == pytest.approx((TWO_PI * r.m)**-0.5, rel=1e-9)
            assert r.rho1_u == res.records[0].rho1_u

    def test_ratio_approaches_one(self):
        res = growth_sweep(pullback_sin(), zero(), PNormSpec(), PNormSpec(),
                           3, 8, [256, 512])
        for r in res.records:
            assert r.top_deriv_s0 / r.predicted == pytest.approx(1.0, abs=0.01)

    def test_slope_stable_under_grid_refinement(self, monkeypatch):
        args = (pullback_sin(), zero(), PNormSpec(), PNormSpec(), 3, 8,
                [16, 32, 64])
        coarse = growth_sweep(*args)
        monkeypatch.setattr(functions, "GRID_FACTOR", 128)
        fine = growth_sweep(*args)
        assert abs(coarse.slope - fine.slope) <= 0.02

    def test_degenerate_composition(self):
        res = growth_sweep(PostComposition(Polynomial([1.0, 2.0])),
                           zero(UNIT_INTERVAL), PNormSpec(), PNormSpec(),
                           3, 8, [16, 32])
        assert res.degenerate
        assert res.slope is None
        assert not res.violation
        assert all(r.top_deriv_s0 == 0.0 for r in res.records)

    def test_constant_base_anchor_is_interior(self):
        res = growth_sweep(composition_exp(), zero(UNIT_INTERVAL),
                           PNormSpec(), PNormSpec(), 3, 8, [16, 32])
        assert res.s0 == 0.5

    def test_degenerate_pullback_anchor(self):
        # phi' vanishes everywhere: s0 falls back to 0.5, t0 to 0.5 + x(0.5)
        x = random_small_function(np.random.default_rng(79))
        mp = CirclePullback(Polynomial([0.3, 0.0]), 1)
        res = growth_sweep(mp, x, PNormSpec(), PNormSpec(), 3, 8, [16, 32])
        assert res.degenerate
        assert res.s0 == 0.5
        assert res.t0 == 0.5 + x.evaluate(0.5)

    def test_degenerate_composition_anchor(self):
        # phi'' vanishes everywhere: s0 falls back to 0.5, t0 to x(0.5)
        x = random_small_function(np.random.default_rng(83), UNIT_INTERVAL)
        res = growth_sweep(PostComposition(Polynomial([1.0, 2.0])), x,
                           PNormSpec(), PNormSpec(), 3, 8, [16, 32])
        assert res.degenerate
        assert res.s0 == 0.5
        assert res.t0 == x.evaluate(0.5)

    def test_one_domain_check_per_point(self, monkeypatch):
        # x once, before the anchor search, then x + z once per m; building
        # df(x, u) and df(x + z, u) checks nothing
        checked = []
        in_domain = CirclePullback.in_domain

        def counted(spec, f):
            checked.append(f)
            return in_domain(spec, f)

        monkeypatch.setattr(CirclePullback, "in_domain", counted)
        x = SmoothFunction(SinusoidProbe(0.05, 2.0), PERIODIC)
        m_list = [16, 32, 64]
        res = growth_sweep(pullback_sin(), x, PNormSpec(), PNormSpec(), 3, 8,
                           m_list)
        assert len(checked) == len(m_list) + 1
        assert checked[0] == x
        for f, m in zip(checked[1:], m_list):
            assert f == x + probe(m, 3, res.s0)

    def test_rejects_bad_input(self):
        # descending m, even k, l = 0 and an empty m_list
        for k, l, m_list in [(3, 8, [32, 16]), (2, 8, [16, 32]),
                             (3, 0, [16, 32]), (3, 8, [])]:
            with pytest.raises(ValueError):
                growth_sweep(pullback_sin(), zero(), PNormSpec(),
                             PNormSpec(), k, l, m_list)

    @pytest.mark.parametrize("k", [17, 19])
    def test_k_above_order_cap_rejected_at_entry(self, k):
        # k = 19 died in seminorm_profiles ("order 18 outside 0..16"), and
        # k = 17 ran to a slope of None
        with pytest.raises(ValueError, match="k = .* exceeds the order cap 16"):
            growth_sweep(pullback_sin(), zero(), PNormSpec(), PNormSpec(),
                         k, 8, [16, 32])

    @pytest.mark.parametrize("k, l, m_list, match", [
        (3.0, 8, [16], "k must be an integer, got 3.0"),
        (True, 8, [16], "k must be an integer, got True"),
        (3, 8.0, [16], "l must be a positive integer, got 8.0"),
        (3, True, [16], "l must be a positive integer, got True"),
        (3, 8, [16.5], "m must be a positive integer, got 16.5"),
        (3, 8, [True, 16], "m must be a positive integer, got True"),
    ], ids=["k-float", "k-bool", "l-float", "l-bool", "m-float", "m-bool"])
    def test_non_integer_rejected_at_entry(self, k, l, m_list, match):
        # k = 3.0 raised a TypeError deep in the sweep, m = 16.5 "tree is
        # not structurally 1-periodic", and the rest ran
        with pytest.raises(ValueError, match=match):
            growth_sweep(pullback_sin(), zero(), PNormSpec(), PNormSpec(),
                         k, l, m_list)

    def test_m_list_rules_use_one_wording(self):
        with pytest.raises(ValueError, match="^m list must not be empty$"):
            growth_sweep(pullback_sin(), zero(), PNormSpec(), PNormSpec(),
                         3, 8, [])
        with pytest.raises(ValueError, match="m values must be strictly"):
            growth_sweep(pullback_sin(), zero(), PNormSpec(), PNormSpec(),
                         3, 8, [16, 16])


class TestDoubleRange:
    @pytest.mark.parametrize("phi, c, fields", [
        (Exp((0.0, 1.0)), 800.0, "top_deriv_s0, predicted, tz_sup, rho2_v"),
        (Polynomial([0.0, 1.0, 0.0, 1.0]), 1e200, "rho2_v"),
        (Exp((0.0, 1.0)), 700.0, "rho2_v"),
    ], ids=["exp-800", "cubic-1e200", "exp-700"])
    def test_nonfinite_record_raises(self, phi, c, fields):
        # any field counts: a NaN rho2(v) alone would read as no violation
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(PrecisionBudgetError,
                               match=f"^{fields} not finite at m = 16"):
                growth_sweep(PostComposition(phi),
                             constant(c, UNIT_INTERVAL), PNormSpec(),
                             PNormSpec(), 3, 8, [16, 32])


# each map's |phi_lead(t0)| at x = 0: |phi'(0)| = 2 pi for ex2's sin 2 pi t,
# |phi''(0)| = 1 for ex4's t + e^t
LEADS = pytest.mark.parametrize("lead", [TWO_PI, 1.0],
                                ids=["pullback_sin", "composition_exp"])


def certified_m_by_ratio(k, l, m_estimate, deriv_mag):
    """The smallest power of two m <= MAX_M with 2 pi m above k^2 and
    ((l + M) / |phi_lead|)^2: the certificate in its squared form, the
    reference that `fix_m`'s root form must agree with."""
    bound = max(k**2, ((l + m_estimate) / deriv_mag)**2) / TWO_PI
    m = 1
    while m <= driver.MAX_M:
        if m > bound:
            return m
        m *= 2
    raise PrecisionBudgetError("no m up to MAX_M")


class TestFixM:
    def test_pullback_inequalities(self):
        m = fix_m(3, 8, 0.0, TWO_PI)
        assert m == 2

    def test_composition_bound(self):
        m = fix_m(3, 8, 0.0, 1.0)
        assert m == 16

    @LEADS
    @pytest.mark.parametrize("deriv_mag", [0.0, math.nan])
    def test_rejects_bad_deriv_mag(self, lead, deriv_mag):
        assert fix_m(3, 8, 1.0, lead) == certified_m_by_ratio(3, 8, 1.0, lead)
        with pytest.raises(ValueError, match="positive and finite"):
            fix_m(3, 8, 1.0, deriv_mag)

    @LEADS
    @pytest.mark.parametrize("k, l, m_estimate, match", [
        (3, 8, math.nan, "nonnegative and finite"),
        (3, 8, math.inf, "nonnegative and finite"),
        (3, 8, -1.0, "nonnegative and finite"),
        (2, 8, 1.0, "odd and positive"),
        (0, 8, 1.0, "odd and positive"),
        (-1, 8, 1.0, "odd and positive"),
        (17, 8, 1.0, "k = 17 exceeds the order cap 16"),
        (3, 0, 0.0, "l must be a positive"),
        (3, -5, 0.0, "l must be a positive"),
    ])
    def test_rejects_bad_input(self, lead, k, l, m_estimate, match):
        with pytest.raises(ValueError, match=match):
            fix_m(k, l, m_estimate, lead)

    def test_composition_huge_estimate(self):
        # l + M near 1e257 is far past where (l + M)^2 leaves double
        # range; the inequality never squares it
        assert fix_m(3, 8, 1e257, math.exp(600.0)) == 2

    def test_budget_guard(self):
        with pytest.raises(PrecisionBudgetError):
            fix_m(3, 8, 1e9, TWO_PI)

    def test_certificate_holds(self):
        mp = pullback_sin()
        sweep = growth_sweep(mp, zero(), PNormSpec(), PNormSpec(), 3, 8,
                             RESIDUAL_M_COARSE)
        big_m = estimate_residual_bound(sweep)
        m = fix_m(3, 8, big_m, TWO_PI)
        root = math.sqrt(TWO_PI * m)
        assert 1.0 / root <= 1.0 / 3.0
        assert 8 + big_m < root * TWO_PI

    def test_one_inequality_in_either_form(self):
        # the root form fix_m tests and the squared ratio are one
        # inequality; they could part only where (l + M) / |phi_lead|
        # lies within an ulp of (2 pi m)^(1/2), which no draw here reaches
        rng = np.random.default_rng(20070202)
        n = 10_000
        ks = rng.choice(np.arange(1, 16, 2), n)
        ls = rng.choice([1, 2, 3, 8, 64, 10**6], n)
        estimates = 10.0 ** rng.uniform(-3.0, 4.0, n)
        mags = 10.0 ** rng.uniform(-6.0, 3.0, n)
        budget = 0
        for k, l, m_est, mag in zip(ks.tolist(), ls.tolist(),
                                    estimates.tolist(), mags.tolist()):
            try:
                want = certified_m_by_ratio(k, l, m_est, mag)
            except PrecisionBudgetError:
                with pytest.raises(PrecisionBudgetError):
                    fix_m(k, l, m_est, mag)
                budget += 1
                continue
            assert fix_m(k, l, m_est, mag) == want, (k, l, m_est, mag)
        # both outcomes are drawn
        assert 0 < budget < n

class TestEstimateResidualBound:
    def test_positive_and_stable(self):
        sweep = growth_sweep(pullback_sin(), zero(), PNormSpec(),
                             PNormSpec(), 3, 8, [32])
        got = estimate_residual_bound(sweep)
        again = estimate_residual_bound(sweep)
        assert got == again > 1.0

    def test_degenerate_default(self):
        const = CirclePullback(Polynomial([0.1, 0.0]), 1)
        sweep = growth_sweep(const, zero(), PNormSpec(), PNormSpec(), 3, 8,
                             RESIDUAL_M_COARSE)
        assert estimate_residual_bound(sweep) == 1.0

    @staticmethod
    def count_sweeps(monkeypatch):
        """The m lists of the sweeps estimate_residual_bound runs."""
        calls = []

        def counted(*args):
            calls.append(list(args[6]))
            return growth_sweep(*args)

        monkeypatch.setattr(driver, "growth_sweep", counted)
        return calls

    # M of the standalone sweep over RESIDUAL_M_COARSE, bit for bit
    @pytest.mark.parametrize("make, x, rho2, want", [
        (pullback_sin, "zero", PNormSpec(), 24.542805543450232),
        (lambda: pullback_sin(2), "sinusoid:0.02,1,0.3", PNormSpec(),
         50.44150808488339),
        (composition_exp, "zero", PNormSpec(), 1.000296840763502),
        (composition_exp, "zero", PNormSpec(16), 1.000296840763502),
    ], ids=["ex2", "ex2-n2-sinusoid", "ex4", "ex4-linear16"])
    def test_read_off_main_sweep(self, monkeypatch, make, x, rho2, want):
        mp = make()
        x = parse_x(x, mp.domain_tag)
        main = growth_sweep(mp, x, PNormSpec(), rho2, 3, 8, DEFAULT_M_LIST)
        # a main sweep that lacks every m of RESIDUAL_M_COARSE
        apart = growth_sweep(mp, x, PNormSpec(), rho2, 3, 8, (32, 128))
        calls = self.count_sweeps(monkeypatch)
        assert estimate_residual_bound(main) == want
        assert calls == []
        assert estimate_residual_bound(apart) == want
        assert calls == [list(RESIDUAL_M_COARSE)]

    def test_sweeps_only_missing_m(self, monkeypatch, capsys):
        calls = self.count_sweeps(monkeypatch)
        assert cli_main(["demo", "ex2", "--m-list", "32,64,128"]) == 0
        assert calls == [[16, 256]]
        assert "residual bound M = 24.5428055435;" in capsys.readouterr().out

    def test_degenerate_main_sweep(self, monkeypatch):
        const = CirclePullback(Polynomial([0.1, 0.0]), 1)
        main = growth_sweep(const, zero(), PNormSpec(), PNormSpec(), 3, 8,
                            [32])
        calls = self.count_sweeps(monkeypatch)
        assert estimate_residual_bound(sweep=main) == 1.0
        assert calls == []
