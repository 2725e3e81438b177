import functools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import (
    count_trig,
    probe_deriv_closed_form,
    random_small_function,
)
from tameprobe import driver, primitives
from tameprobe.cli import DEFAULT_M_LIST, parse_x
from tameprobe.cli import main as cli_main
from tameprobe.driver import (
    RESIDUAL_M_COARSE,
    DegenerateMapError,
    PrecisionBudgetError,
    ProbeParams,
    build_probe,
    estimate_residual_bound,
    find_s0,
    find_t0,
    fix_m,
    growth_sweep,
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
    SinusoidProbe,
    SmoothFunction,
    Sum,
    constant,
    find_shared,
    seminorm_profile,
    zero,
)
from tameprobe.maps import CirclePullback, PostComposition
from tameprobe.primitives import Exp, Polynomial, Sin
from tameprobe.tameness import SATURATION, PNormSpec

TWO_PI = 2.0 * math.pi


def pullback_sin(n=1):
    return CirclePullback(Sin(omega=TWO_PI), n)


def composition_exp():
    return PostComposition(Exp((0.0, 1.0)))


class TestProbeParams:
    def test_valid(self):
        ProbeParams(k=3, l=8, m=16, s0=0.0)

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            ProbeParams(k=4, l=8, m=16, s0=0.0)

    def test_eps0_is_one_over_l(self):
        assert ProbeParams(k=3, l=8, m=16, s0=0.0).eps0 == 0.125
        assert ProbeParams(k=3, l=3, m=16, s0=0.0).eps0 == 1.0 / 3.0

    @pytest.mark.parametrize("s0", [math.nan, math.inf])
    def test_non_finite_s0_rejected(self, s0):
        # a NaN s0 became the probe's phase
        with pytest.raises(ValueError, match="s0 must be finite"):
            ProbeParams(k=3, l=8, m=16, s0=s0)


class TestFindT0:
    def test_sin_pullback(self):
        # |phi'| = 2pi at both 0 and 0.5; tie breaks to the smaller
        assert find_t0(pullback_sin()) == 0.0

    def test_constant_phi_degenerate(self):
        with pytest.raises(DegenerateMapError):
            find_t0(CirclePullback(Polynomial([0.3, 0.0]), 1))

    def test_composition_at_zero_base(self):
        assert find_t0(composition_exp(), zero(UNIT_INTERVAL)) == 0.0

    def test_affine_composition_degenerate(self):
        with pytest.raises(DegenerateMapError):
            find_t0(PostComposition(Polynomial([1.0, 2.0])),
                    zero(UNIT_INTERVAL))


class TestFindS0:
    def test_zero_base_point(self):
        assert find_s0(pullback_sin(), zero(), 0.0) == pytest.approx(0.0,
                                                                     abs=1e-12)

    def test_winding_two(self):
        assert find_s0(pullback_sin(n=2), zero(), 1.0) == pytest.approx(
            0.5, abs=1e-12)

    def test_perturbed_base_point(self):
        rng = np.random.default_rng(73)
        x = random_small_function(rng)
        m = pullback_sin()
        t0 = 0.3
        s0 = find_s0(m, x, t0)
        assert s0 + x.evaluate(s0) == pytest.approx(t0, abs=1e-10)

    @pytest.mark.parametrize("map_spec, x", [
        (pullback_sin(1), SmoothFunction(SinusoidProbe(0.05, 1.0, 0.2),
                                         PERIODIC)),
        (pullback_sin(2), SmoothFunction(SinusoidProbe(0.05, 3.0, 0.1),
                                         PERIODIC)),
        (composition_exp(), SmoothFunction(SinusoidProbe(0.3, 1.5),
                                           UNIT_INTERVAL)),
    ], ids=["ex2-n1", "ex2-n2", "ex4"])
    @pytest.mark.parametrize("t0", [0.1, 0.2371, -0.05])
    def test_root_bracketed_to_old_tolerance(self, map_spec, x, t0):
        # the root must lie within 1e-13 of s0, the xtol brentq was run at
        s0 = find_s0(map_spec, x, t0)
        g = lambda s: map_spec.phi_argument(x, s) - t0
        assert isinstance(s0, float)
        assert g(s0 - 1e-13) * g(s0 + 1e-13) <= 0.0

    def test_composition_constant_base(self):
        assert find_s0(composition_exp(), zero(UNIT_INTERVAL), 0.0) == 0.0

    def test_composition_unreachable_t0(self):
        with pytest.raises(ValueError):
            find_s0(composition_exp(), zero(UNIT_INTERVAL), 5.0)


class TestBuildProbe:
    def test_seminorm_levels(self):
        k, l, m = 3, 8, 64
        params = ProbeParams(k=k, l=l, m=m, s0=0.25)
        z, u = build_probe(params, pullback_sin())
        assert seminorm_profile(z, k - 1)[k - 1] == pytest.approx(
            (TWO_PI * m)**-0.5, rel=1e-12)
        assert seminorm_profile(u, l)[l] == pytest.approx(1.0 / l, rel=1e-15)
        assert z.evaluate(0.25) == 0.0

    def test_small_once_m_large(self):
        # (2 pi m)^(-1/2) <= 1/k already at m = 2 for k = 3
        k, m = 3, 2
        params = ProbeParams(k=k, l=8, m=m, s0=0.0)
        z, _ = build_probe(params, pullback_sin())
        assert seminorm_profile(z, k - 1)[k - 1] <= 1.0 / k


def two_pass_residual(mp, x, params, z, v, order):
    """The residual and the seminorms of v from two separate grid passes:
    v at order top for T_z, then `seminorm_profile` for the seminorms.
    Returns (sup|T_z|, sup|v^(top)/eps0|, profile); T_z's leading term is
    computed from phi's argument and the probe's closed form."""
    top = mp.top_order(params.k)
    lead = mp.leading_primitive()
    s = GridSpec().points(v)
    fact = math.factorial(top)
    tz, scaled_top = np.empty_like(s), np.empty_like(s)
    for lo in range(0, s.size, _CHUNK):
        sc = s[lo:lo + _CHUNK]
        scaled_top[lo:lo + _CHUNK] = \
            fact * v.node.coeffs(sc, top)[top] / params.eps0
        c = mp.phi_argument(x, sc) + z.evaluate(sc)
        zk = probe_deriv_closed_form(params.m, params.k, params.s0, params.k,
                                     sc)
        tz[lo:lo + _CHUNK] = scaled_top[lo:lo + _CHUNK] - lead(c) * zk
    return (float(np.max(np.abs(tz))), float(np.max(np.abs(scaled_top))),
            seminorm_profile(v, order))


def difference(mp, x, z, u):
    return mp.gateaux(x + z, u) - mp.gateaux(x, u)


def anchored_difference(mp, x, m, k=3, l=8):
    """ProbeParams, z and v for a k-probe of frequency m at x's anchor."""
    t0 = find_t0(mp, x)
    s0 = mp.interior_s0(x)
    if s0 is None:
        s0 = find_s0(mp, x, t0)
    params = ProbeParams(k=k, l=l, m=m, s0=s0)
    z, u = build_probe(params, mp)
    return params, z, difference(mp, x, z, u)


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
        # v's grid at m = 1024 has 64 * 1024 + 1 points: two chunks
        assert 64 * 1024 + 1 > _CHUNK
        self.check_against_two_passes("ex2-zero", 1024, "top")

    def check_against_two_passes(self, case, m, order):
        # a linear P-norm never cuts the pass, so every rung is the grid's
        make_map, make_x = self.CASES[case]
        mp, x = make_map(), make_x()
        params, z, v = anchored_difference(mp, x, m)
        if order == "top":
            order = mp.top_order(params.k)
        _, tz_sup, profile = residual_tz(mp, x, params, z, v,
                                         PNormSpec(order, "linear"))
        want_tz, top_sup, want_profile = two_pass_residual(mp, x, params, z,
                                                           v, order)
        # a cancellation residual of terms the size of v^(top) / eps0
        assert abs(tz_sup - want_tz) <= 1e-12 * top_sup
        assert np.array_equal(profile, want_profile)
        assert math.isfinite(tz_sup)
        assert np.isfinite(profile).all()

    def test_constant_phi_residual_vanishes(self):
        mp = CirclePullback(Polynomial([0.3, 0.0]), 1)
        params = ProbeParams(k=3, l=8, m=16, s0=0.0)
        z, u = build_probe(params, mp)
        v = difference(mp, zero(), z, u)
        _, tz_sup, profile = residual_tz(mp, zero(), params, z, v,
                                         PNormSpec(0))
        assert tz_sup == pytest.approx(0.0, abs=1e-14)
        assert profile.shape == (1,)

    def test_top_derivative_consistency(self):
        # T_z at the anchor is tiny for this variant, so |v^(top)(s0)| is
        # the leading term eps0 * |phi''(t0)| * sqrt(2 pi m)
        res = growth_sweep(composition_exp(), zero(UNIT_INTERVAL),
                           PNormSpec(), PNormSpec(), 3, 8, [32])
        r = res.records[0]
        assert r.top_deriv_s0 == pytest.approx(r.predicted, rel=1e-6)


CUSTOM_WEIGHTS = tuple(0.3 + 0.1 * i for i in range(13))
UNCUT = PNormSpec(12, "linear")
CUT_CASES = {
    "ex2-zero": (pullback_sin, zero),
    "ex4-sinusoid": (composition_exp,
                     lambda: SmoothFunction(SinusoidProbe(0.3, 1.5),
                                            UNIT_INTERVAL)),
}


@functools.lru_cache(maxsize=None)
def cut_and_uncut(case, m, weights=None):
    """residual_tz under a bounded order-12 P-norm and under ``UNCUT``,
    plus the order of the cut pass's grid evaluation of v."""
    make_map, make_x = CUT_CASES[case]
    mp, x = make_map(), make_x()
    params, z, v = anchored_difference(mp, x, m)
    rho2 = PNormSpec(12, weights=weights)
    with pytest.MonkeyPatch.context() as mpatch:
        calls = record_coeff_orders(mpatch, v.node)
        cut = residual_tz(mp, x, params, z, v, rho2)
    grid_order, = {order for points, order in calls if points > 2}
    return rho2, cut, residual_tz(mp, x, params, z, v, UNCUT), grid_order


class TestSaturationCut:
    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    @pytest.mark.parametrize("m", [16, 4096])
    def test_tz_sup_unchanged(self, case, m):
        _, (_, tz_sup, _), (_, want, _), _ = cut_and_uncut(case, m)
        assert tz_sup == want

    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    @pytest.mark.parametrize("m", [16, 4096])
    @pytest.mark.parametrize("weights", [None, CUSTOM_WEIGHTS],
                             ids=["default", "custom"])
    def test_pnorm_unchanged(self, case, m, weights):
        rho2, (_, _, profile), (_, _, full), grid_order = cut_and_uncut(
            case, m, weights)
        assert grid_order < rho2.truncation   # the pass was cut
        assert rho2.of_profile(profile) == rho2.of_profile(full)

    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    @pytest.mark.parametrize("m", [16, 4096])
    def test_cut_is_sound(self, case, m):
        _, (_, _, profile), (_, _, full), grid_order = cut_and_uncut(case, m)
        cut = grid_order + 1
        assert profile.shape == full.shape == (13,)
        assert np.array_equal(profile[:cut], full[:cut])
        # the grid saturates at the cut rung, and the filled rungs are
        # saturated lower bounds
        assert full[cut] >= 2.0**53
        assert (profile[cut:] >= SATURATION).all()
        assert (profile[cut:] <= full[cut:] * (1.0 + 1e-12)).all()

    def test_pass_shrinks(self, monkeypatch):
        mp = pullback_sin()
        params, z, v = anchored_difference(mp, zero(), 4096)
        calls = record_coeff_orders(monkeypatch, v.node)
        residual_tz(mp, zero(), params, z, v, PNormSpec(12))
        # s0 and its nearest grid point to order 12, then the chunks to
        # order 5
        assert calls[0] == (2, 12)
        assert {order for _, order in calls[1:]} == {5}
        calls.clear()
        residual_tz(mp, zero(), params, z, v, UNCUT)
        assert {order for points, order in calls if points > 2} == {12}


class TestSharedEvaluation:
    """v and T_z's leading term are evaluated in one context per chunk."""

    def test_trig_per_chunk(self, monkeypatch):
        # ex2 at x = 0: z and z' read one sin/cos pair, and phi' at s + z
        # and at s one each; the leading term phi'(s + z) z^(3) reads phi'
        # at s + z and z's pair from the chunk's context
        mp = pullback_sin()
        params, z, v = anchored_difference(mp, zero(), 1024)
        sizes = []
        real = primitives.trig_cycle

        def counted(theta, i):
            sizes.append(np.size(theta))
            return real(theta, i)

        monkeypatch.setattr(primitives, "trig_cycle", counted)
        residual_tz(mp, zero(), params, z, v, PNormSpec(2))
        n = GridSpec().points(v).size
        chunks = Counter(min(_CHUNK, n - lo) for lo in range(0, n, _CHUNK))
        assert 2 not in chunks
        # the two-point anchor evaluates v alone
        assert Counter(sizes) == {2: 6, **{size: 6 * count
                                           for size, count in chunks.items()}}

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("x_node", [Constant(0.0),
                                        SinusoidProbe(0.02, 1.0, 0.2)],
                             ids=["zero", "sinusoid"])
    def test_leading_term_shares_the_composition(self, n, x_node,
                                                 monkeypatch):
        # phi'(n s + x + z) in T_z's leading term is, by value, the one in
        # df(x + z, u), so a pass over both evaluates it once
        mp, x = pullback_sin(n), SmoothFunction(x_node, PERIODIC)
        params, z, v = anchored_difference(mp, x, 64)
        lead = mp.leading_term(x, z, params.k)
        composition, zk = lead.children
        assert isinstance(composition, PrimitiveCompose)
        assert composition == mp.gateaux(
            x + z, constant(params.eps0)).node.children[0]
        sharing = find_shared(v.node, lead)
        assert id(composition) in sharing.slots
        # z^(k) keeps z's phase, so it reads z's sin and cos: after v, the
        # leading term computes no sine or cosine of its own
        assert (zk.frequency, zk.phase, zk.shift) == (
            z.node.frequency, z.node.phase, params.k)
        ev = Evaluation(np.linspace(0.0, 1.0, 33), sharing)
        ev.coeffs(v.node, mp.top_order(params.k))
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
    @pytest.mark.parametrize("case", sorted(ANCHOR_CASES))
    @pytest.mark.parametrize("m", [16, 4096])
    def test_top_derivative_is_the_one_point_value(self, case, m):
        # the witness comes from a two-point evaluation to order
        # max(truncation, top); it must equal v evaluated at s0 alone to
        # order top, bit for bit
        make_map, make_x = ANCHOR_CASES[case]
        mp, x = make_map(), make_x()
        params, z, v = anchored_difference(mp, x, m)
        on_grid = params.s0 in GridSpec().points(v)
        assert on_grid == (case == "ex2-zero")
        top = mp.top_order(params.k)
        want = math.factorial(top) * v.node.coeffs(np.array([params.s0]),
                                                   top)[top, 0]
        top_deriv, _, _ = residual_tz(mp, x, params, z, v, PNormSpec())
        assert top_deriv == abs(want)

    @pytest.mark.parametrize("case", sorted(ANCHOR_CASES))
    def test_sweep_evaluates_v_off_the_grid_once_per_m(self, case,
                                                       monkeypatch):
        roots, small = [], []
        real_residual, real_coeffs = driver.residual_tz, Sum.coeffs

        def residual(map_spec, x, params, z, v, *args):
            roots.append(v.node)
            return real_residual(map_spec, x, params, z, v, *args)

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

    def test_slope_stable_under_grid_refinement(self):
        args = (pullback_sin(), zero(), PNormSpec(), PNormSpec(), 3, 8,
                [16, 32, 64])
        coarse = growth_sweep(*args)
        fine = growth_sweep(*args, grid=GridSpec(factor=128))
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
        # phi' vanishes everywhere: t0 falls back to 0, s0 solves s + x(s) = 0
        x = random_small_function(np.random.default_rng(79))
        mp = CirclePullback(Polynomial([0.3, 0.0]), 1)
        res = growth_sweep(mp, x, PNormSpec(), PNormSpec(), 3, 8, [16, 32])
        assert res.degenerate
        assert res.t0 == 0.0
        assert res.s0 == find_s0(mp, x, 0.0)

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
            z, _ = build_probe(ProbeParams(k=3, l=8, m=m, s0=res.s0),
                               pullback_sin())
            assert f == x + z

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


class TestFixM:
    def test_pullback_inequalities(self):
        m = fix_m(pullback_sin(), 3, 8, 0.0, TWO_PI)
        assert m == 2

    def test_composition_bound(self):
        m = fix_m(composition_exp(), 3, 8, 0.0, 1.0)
        assert m == 16

    @pytest.mark.parametrize("make", [pullback_sin, composition_exp])
    @pytest.mark.parametrize("deriv_mag", [0.0, math.nan])
    def test_rejects_bad_deriv_mag(self, make, deriv_mag):
        with pytest.raises(ValueError, match="positive and finite"):
            fix_m(make(), 3, 8, 1.0, deriv_mag)

    @pytest.mark.parametrize("make", [pullback_sin, composition_exp])
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
    def test_rejects_bad_input(self, make, k, l, m_estimate, match):
        with pytest.raises(ValueError, match=match):
            fix_m(make(), k, l, m_estimate, TWO_PI)

    def test_composition_huge_estimate(self):
        # (l + M)^2 alone is beyond double range; the squared ratio is not
        assert fix_m(composition_exp(), 3, 8, 1e257, math.exp(600.0)) == 2

    def test_budget_guard(self):
        with pytest.raises(PrecisionBudgetError):
            fix_m(pullback_sin(), 3, 8, 1e9, TWO_PI)

    def test_certificate_holds(self):
        mp = pullback_sin()
        big_m = estimate_residual_bound(mp, zero(), 3, 8)
        m = fix_m(mp, 3, 8, big_m, TWO_PI)
        root = math.sqrt(TWO_PI * m)
        assert 1.0 / root <= 1.0 / 3.0
        assert 8 + big_m < root * TWO_PI


class TestEstimateResidualBound:
    def test_positive_and_stable(self):
        got = estimate_residual_bound(pullback_sin(), zero(), 3, 8)
        again = estimate_residual_bound(pullback_sin(), zero(), 3, 8)
        assert got == again > 1.0

    def test_degenerate_default(self):
        const = CirclePullback(Polynomial([0.1, 0.0]), 1)
        got = estimate_residual_bound(const, zero(), 3, 8)
        assert got == 1.0

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
         51.224655208310594),
        (composition_exp, "zero", PNormSpec(), 1.000296840763502),
        (composition_exp, "zero", PNormSpec(16, "linear"),
         1.000296840763502),
    ], ids=["ex2", "ex2-n2-sinusoid", "ex4", "ex4-linear16"])
    def test_read_off_main_sweep(self, monkeypatch, make, x, rho2, want):
        mp, grid = make(), GridSpec()
        x = parse_x(x, mp.domain_tag)
        main = growth_sweep(mp, x, PNormSpec(), rho2, 3, 8, DEFAULT_M_LIST,
                            grid)
        calls = self.count_sweeps(monkeypatch)
        assert estimate_residual_bound(mp, x, 3, 8, grid, main) == want
        assert calls == []
        assert estimate_residual_bound(mp, x, 3, 8, grid) == want
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
        assert estimate_residual_bound(const, zero(), 3, 8,
                                       sweep=main) == 1.0
        assert calls == []
