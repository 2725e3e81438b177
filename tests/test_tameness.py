import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    anchored_probes,
    ex4_map,
    ex4_seed0_family,
    random_small_function,
)
from tameprobe.functions import (
    PERIODIC,
    UNIT_INTERVAL,
    _CHUNK,
    Constant,
    Evaluation,
    PrecisionBudgetError,
    PrimitiveCompose,
    Product,
    SinusoidProbe,
    SmoothFunction,
    constant,
    probe,
    seminorm_profile,
    zero,
)
from tameprobe.jets import MAX_ORDER
from tameprobe.maps import CirclePullback, DomainViolation, PostComposition
from tameprobe.primitives import Exp, Polynomial, Sin
from tameprobe.tameness import (
    SATURATION,
    PNormSpec,
    TameCheckReport,
    check_tame_estimate,
    pnorm_eval,
)

TWO_PI = 2.0 * math.pi


class TestPNormSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PNormSpec(truncation=-1)
        with pytest.raises(ValueError):
            PNormSpec(truncation=MAX_ORDER + 1)
        # a P-norm is its truncation: no transform or weights to pass
        with pytest.raises(TypeError):
            PNormSpec(12, "linear")
        with pytest.raises(TypeError):
            PNormSpec(2, weights=(1.0, 0.5, 0.25))

    @pytest.mark.parametrize("truncation", [1.5, 2.0, True, "2"])
    def test_truncation_must_be_an_integer(self, truncation):
        # 1.5 was accepted, and of_profile then failed with a TypeError
        with pytest.raises(ValueError, match="truncation must be an integer"):
            PNormSpec(truncation=truncation)

    def test_first_saturated(self):
        below = SATURATION * (1.0 - 2.0**-53)
        lower = [1.0, 1e6, below, SATURATION, 1e30]
        assert PNormSpec(4).first_saturated(lower) == 3
        assert PNormSpec(2).first_saturated(lower) is None
        assert PNormSpec(4).first_saturated([math.nan] * 5) is None

    def test_saturated_term_is_its_weight(self):
        # from 2^54 on, 1 + p rounds to p and rung i adds exactly 2^-i
        spec = PNormSpec(2)
        for p in (SATURATION, 3.0 * 2.0**53, 2.0**54 + 4.0, 1e30):
            assert spec.of_profile([0.0, 0.0, p]) == 0.25
            assert spec.of_profile([0.0, p, p]) == 0.5 + 0.25
        # below 2^54 it need not: 1 + p for p = 2^53 + 2 is a tie that
        # rounds up to even, so the term falls short of its weight
        p = 2.0**53 + 2.0
        assert 1.0 + p == p + 2.0
        assert spec.of_profile([0.0, 0.0, p]) < 0.25


class TestPNormEval:
    def test_zero(self):
        assert pnorm_eval(PNormSpec(), zero()) == 0.0

    def test_constant_one_defining_sum(self):
        # oracle: direct evaluation of the defining sum with the graded
        # seminorms of the constant function, which are all equal to 1
        spec = PNormSpec(truncation=6)
        expected = sum(2.0**-i * 1.0 / 2.0 for i in range(7))
        assert pnorm_eval(spec, constant(1.0)) == pytest.approx(expected,
                                                                rel=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(61)
        spec = PNormSpec()
        for _ in range(10):
            x = random_small_function(rng, scale=1.5)
            y = random_small_function(rng, scale=1.5)
            assert pnorm_eval(spec, x - y) == pnorm_eval(spec, y - x)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(67)
        spec = PNormSpec()
        for _ in range(10):
            x = random_small_function(rng, scale=1.5)
            y = random_small_function(rng, scale=1.5)
            assert pnorm_eval(spec, x + y) <= \
                pnorm_eval(spec, x) + pnorm_eval(spec, y) + 1e-12

    def test_monotone_in_truncation(self):
        rng = np.random.default_rng(71)
        f = random_small_function(rng, scale=2.0)
        vals = [pnorm_eval(PNormSpec(truncation=n), f) for n in range(8)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_bounded_transform_saturates(self):
        f = SmoothFunction(SinusoidProbe(0.01, 2.0, 0.0), PERIODIC)
        spec = PNormSpec(truncation=8)
        prof = seminorm_profile(f, 8)
        expected = sum(2.0**-i for i in range(9) if prof[i] > 0.0)
        assert pnorm_eval(spec, 1e9 * f) == pytest.approx(expected, abs=1e-6)
        assert expected <= 2.0


class TestCheckTameEstimate:
    def pullback(self, phi=None, n=1):
        return CirclePullback(phi or Sin(omega=TWO_PI), n)

    def default_probes(self, m_values, k=3, l=8, domain=PERIODIC, s0=0.0):
        u = constant(1.0 / l, domain)
        return [(probe(m, k, s0, domain), u) for m in m_values]

    def test_affine_composition_satisfied(self):
        m = PostComposition(Polynomial([1.0, 2.0]))
        probes = self.default_probes([16, 64], domain=UNIT_INTERVAL, s0=0.5)
        report = check_tame_estimate(m, zero(UNIT_INTERVAL), PNormSpec(),
                                     PNormSpec(), probes)
        assert report.satisfied
        assert report.samples_checked == 2
        assert not report.witnesses

    def test_constant_phi_satisfied(self):
        m = self.pullback(Polynomial([0.4, 0.0]))
        report = check_tame_estimate(m, zero(), PNormSpec(), PNormSpec(),
                                     self.default_probes([16, 64]))
        assert report.satisfied

    def test_oscillatory_sweep_finds_witness(self):
        report = check_tame_estimate(self.pullback(), zero(), PNormSpec(),
                                     PNormSpec(),
                                     self.default_probes([16, 64]))
        assert not report.satisfied
        assert report.witnesses
        for _, _, lhs, rhs in report.witnesses:
            assert lhs > rhs

    def test_nonfinite_lhs_raises(self):
        # rho2(v) is NaN here, and NaN > rhs would read as "satisfied"
        probes = self.default_probes([16], domain=UNIT_INTERVAL, s0=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(PrecisionBudgetError, match="rho2.v. = nan"):
                check_tame_estimate(PostComposition(Exp((0.0, 1.0))),
                                    constant(800.0, UNIT_INTERVAL),
                                    PNormSpec(), PNormSpec(), probes)

    def test_nonfinite_rhs_raises(self):
        # z = 0 passes rho1(z) <= 1, and u's seminorms are infinite, so
        # rho1(u) sums inf / (1 + inf) = nan; `constant` refuses inf, so u
        # is a raw node
        z = SmoothFunction(SinusoidProbe(0.0, 1.0), PERIODIC)
        u = SmoothFunction(Constant(math.inf), PERIODIC)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(PrecisionBudgetError, match="rho1.u. = nan"):
                check_tame_estimate(self.pullback(), zero(), PNormSpec(),
                                    PNormSpec(), [(z, u)])

    def test_large_z_skipped(self):
        big = SmoothFunction(SinusoidProbe(10.0, 1.0, 0.0), PERIODIC)
        probes = [(big, constant(0.125))]
        report = check_tame_estimate(self.pullback(), zero(), PNormSpec(),
                                     PNormSpec(), probes)
        assert report.skipped_large_z == 1
        assert report.samples_checked == 0
        assert report.satisfied  # nothing in range was violated

    def test_domain_exit_counts_as_violation(self):
        # rho1 truncated at grade 0 admits steep z with rho1(z) <= 1
        rho1 = PNormSpec(truncation=0)
        steep = SmoothFunction(SinusoidProbe(1.2 / TWO_PI, 1.0, 0.0), PERIODIC)
        report = check_tame_estimate(self.pullback(), zero(), rho1,
                                     PNormSpec(), [(steep, constant(0.125))])
        assert not report.satisfied
        assert len(report.domain_exits) == 1

    def test_one_domain_check_per_probe(self, monkeypatch):
        # x once up front, then x + z once per probe; building df(x, u)
        # and df(x + z, u) checks nothing
        checked = []
        in_domain = CirclePullback.in_domain

        def counted(spec, f):
            checked.append(f)
            return in_domain(spec, f)

        monkeypatch.setattr(CirclePullback, "in_domain", counted)
        probes = self.default_probes([16, 32, 64])
        report = check_tame_estimate(self.pullback(), zero(), PNormSpec(),
                                     PNormSpec(), probes)
        assert report.samples_checked == 3
        assert len(checked) == 1 + 3

    def test_probe_monotonicity(self):
        m = self.pullback()
        few = self.default_probes([64])
        more = self.default_probes([64, 128])
        r_few = check_tame_estimate(m, zero(), PNormSpec(), PNormSpec(), few)
        r_more = check_tame_estimate(m, zero(), PNormSpec(), PNormSpec(), more)
        if not r_few.satisfied:
            assert not r_more.satisfied

    def test_base_point_outside_domain(self):
        steep = SmoothFunction(SinusoidProbe(2.0 / TWO_PI, 1.0, 0.0), PERIODIC)
        with pytest.raises(DomainViolation) as exc:
            check_tame_estimate(self.pullback(), steep, PNormSpec(),
                                PNormSpec(), self.default_probes([16]))
        assert exc.value.margin < 1e-9

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            check_tame_estimate(self.pullback(), zero(), PNormSpec(),
                                PNormSpec(), [])


def check_per_probe(map_spec, x, rho1, rho2, probes):
    """Oracle: the estimate checked with v = df(x+z, u) - df(x, u) and
    rho1(u) built and evaluated afresh for every probe."""
    report = TameCheckReport(satisfied=True)
    for z, u in probes:
        if pnorm_eval(rho1, z) > 1.0:
            report.skipped_large_z += 1
            continue
        margin, ok = map_spec.in_domain(x + z)
        if not ok:
            report.domain_exits.append((z, margin))
            report.satisfied = False
            continue
        v = map_spec.gateaux(x + z, u) - map_spec.gateaux(x, u)
        lhs, rhs = pnorm_eval(rho2, v), pnorm_eval(rho1, u)
        report.samples_checked += 1
        if lhs > rhs:
            report.witnesses.append((z, u, lhs, rhs))
            report.satisfied = False
    return report


def ex2_family():
    """ex2 with phi = sin(2 pi t), n = 2 at x = sinusoid:0.05,2; m = 64
    takes v onto a finer grid than the others."""
    map_spec = CirclePullback(Sin(omega=TWO_PI), 2)
    x = SmoothFunction(SinusoidProbe(0.05, 2.0), PERIODIC)
    pairs = [(m, k) for m in (1, 4, 16, 64) for k in (1, 3, 5)]
    return map_spec, x, anchored_probes(map_spec, x, pairs)


def alternating_family():
    """ex2 at x = 0 with two u constants, and v's grid (4097 points for
    m = 16, 8257 for m = 64) changing from one probe to the next; u = 0
    makes both halves of v the zero constant."""
    map_spec = CirclePullback(Sin(omega=TWO_PI), 1)
    z16, z64 = probe(16, 3, 0.0), probe(64, 3, 0.0)
    u1, u2 = constant(0.125), constant(0.3)
    probes = [(z16, u1), (z64, u1), (z16, u2), (z64, u2), (z16, u1),
              (z64, u2), (z16, u2), (z64, u1), (z16, zero()), (z64, zero())]
    return map_spec, zero(), probes


class TestSharedBaseHalf:
    """check_tame_estimate builds df(x, u) and rho1(u) once per distinct u,
    and one pass per u and grid evaluates -df(x, u) and x once per chunk
    for all of that u's probes."""

    # (checked, skipped, witnesses) are those of the benchmark's output
    @pytest.mark.parametrize("family, counts", [
        (ex4_seed0_family, (144, 64, 22)),
        (ex2_family, None),
        (alternating_family, None),
    ], ids=["ex4-seed0", "ex2", "alternating"])
    def test_report_equals_per_probe_oracle(self, family, counts):
        map_spec, x, probes = family()
        got = check_tame_estimate(map_spec, x, PNormSpec(), PNormSpec(),
                                  probes)
        want = check_per_probe(map_spec, x, PNormSpec(), PNormSpec(), probes)
        assert want.samples_checked > 0 and want.witnesses
        if counts is not None:
            assert (want.samples_checked, want.skipped_large_z,
                    len(want.witnesses)) == counts
        # lhs and rhs of every witness compare by ==
        assert got == want

    def test_base_half_evaluated_once_per_grid(self, monkeypatch):
        # ex4's base half is Product(PrimitiveCompose(phi', x), u), and
        # -df(x, u) is that times Constant(-1.0); four probes share a
        # 4098-point grid, then two share an 8194-point one
        map_spec, x = ex4_map()
        probes = anchored_probes(map_spec, x, [(2, 3), (2, 5), (3, 3),
                                               (3, 5), (128, 3), (128, 5)])
        want = check_per_probe(map_spec, x, PNormSpec(), PNormSpec(), probes)
        minus_base = (-map_spec.gateaux(x, probes[0][1])).node
        phi_x = PrimitiveCompose(map_spec.phi.derivative(), x.node)
        base_calls, all_calls, kept = [], [], []
        product_coeffs, context_coeffs = Product.coeffs, Evaluation.coeffs

        def counted(node, s, order):
            all_calls.append(order)
            if node.children[0] == phi_x:
                base_calls.append((s.points.size, order))
            return product_coeffs(node, s, order)

        def overwriting(ev, node, order):
            # what the context keeps cannot be overwritten by a caller
            out = context_coeffs(ev, node, order)
            if node == minus_base:
                kept.append(out.base)
                with pytest.raises(ValueError, match="read-only"):
                    out[...] = np.nan
            return out

        monkeypatch.setattr(Product, "coeffs", counted)
        monkeypatch.setattr(Evaluation, "coeffs", overwriting)
        got = check_tame_estimate(map_spec, x, PNormSpec(), PNormSpec(),
                                  probes)
        assert got == want
        assert got.samples_checked == 6
        assert base_calls == [(4098, 12), (8194, 12)]
        # each probe's df(x + z, u), and per grid df(x, u) and -df(x, u)
        assert len(all_calls) == 6 + 2 + 2
        # one kept array per grid, read by each of its probes' trees
        assert len(kept) == 6 and len({id(a) for a in kept}) == 2

    def test_one_memo_at_a_time(self, monkeypatch):
        # df(x, u) is built once per distinct u, and its coefficients are
        # kept only in its own u's pass, so u1, u1, u2, u1 on one grid
        # build and evaluate the base half twice (three times when only
        # the last u's coefficients were kept)
        map_spec, x = ex4_map()
        z = probe(2, 3, 0.5, UNIT_INTERVAL)
        u1, u2 = constant(0.125, UNIT_INTERVAL), constant(0.3, UNIT_INTERVAL)
        probes = [(z, u1), (z, u1), (z, u2), (z, u1)]
        want = check_per_probe(map_spec, x, PNormSpec(), PNormSpec(), probes)
        phi_x = PrimitiveCompose(map_spec.phi.derivative(), x.node)
        built, evaluated = [], []
        gateaux, product_coeffs = PostComposition.gateaux, Product.coeffs

        def counted_gateaux(spec, at, u):
            if at == x:
                built.append(u)
            return gateaux(spec, at, u)

        def counted_coeffs(node, s, order):
            if node.children[0] == phi_x:
                evaluated.append(s.points.size)
            return product_coeffs(node, s, order)

        monkeypatch.setattr(PostComposition, "gateaux", counted_gateaux)
        monkeypatch.setattr(Product, "coeffs", counted_coeffs)
        report = check_tame_estimate(map_spec, x, PNormSpec(), PNormSpec(),
                                     probes)
        assert report == want
        assert report.samples_checked == 4
        assert built == [u1, u2]
        assert evaluated == [4098] * 2

    def test_one_base_half_alive_at_a_time(self, monkeypatch):
        # three u's, interleaved, on a grid of three chunks: no context
        # outlives its chunk, and no u's pass, with the buffers that hold
        # its base half, outlives the call, so at most one -df(x, u) is
        # held at any time
        map_spec, x = ex4_map()
        zs = [probe(600, k, 0.5, UNIT_INTERVAL) for k in (3, 5)]
        us = [constant(c, UNIT_INTERVAL) for c in (0.125, 0.3, 0.0)]
        probes = [(z, u) for u in us for z in zs]
        probes = probes[::2] + probes[1::2]
        # u = 0 folds df(x, u) to zero, so two u's keep a base half
        minus_bases = {(-map_spec.gateaux(x, u)).node for u in us[:2]}
        contexts, buffers, peak, chunks = [], [], [], []
        context_coeffs = Evaluation.coeffs

        def live(refs):
            return {id(ref()) for ref in refs} - {id(None)}

        def tracking(ev, node, order):
            out = context_coeffs(ev, node, order)
            if node in minus_bases:
                contexts.append(weakref.ref(ev))
                buffers.append((node, weakref.ref(out.base)))
                chunks.append(ev.points.size)
            held = {nd for nd, ref in buffers if ref() is not None}
            peak.append((len(live(contexts)), len(held)))
            return out

        monkeypatch.setattr(Evaluation, "coeffs", tracking)
        report = check_tame_estimate(map_spec, x, PNormSpec(), PNormSpec(),
                                     probes)
        assert report.samples_checked == 6
        # each u's two trees read their base half in each of three chunks
        assert chunks == [n for n in (_CHUNK, _CHUNK, 38402 - 2 * _CHUNK)
                          for _ in range(2)] * 2
        # one context and one u's buffers at a time, and none after
        assert [max(col) for col in zip(*peak)] == [1, 1]
        assert live(contexts) == set()
        assert live(ref for _, ref in buffers) == set()

    def test_x_evaluated_once_per_grid(self, monkeypatch):
        # the seed-0 family has one u and puts every v on one 4098-point
        # grid, so its one pass evaluates x once (twice when the base
        # half and the perturbed halves kept x apart)
        map_spec, x, probes = ex4_seed0_family()
        calls = []
        sinusoid_coeffs = SinusoidProbe.coeffs

        def counted(node, s, order):
            if node == x.node:
                calls.append((s.points.size, order))
            return sinusoid_coeffs(node, s, order)

        monkeypatch.setattr(SinusoidProbe, "coeffs", counted)
        report = check_tame_estimate(map_spec, x, PNormSpec(), PNormSpec(),
                                     probes)
        assert report.samples_checked == 144
        assert calls == [(4098, 12)]

    def test_membership_check_keeps_x_memo(self, monkeypatch):
        # the membership checks come first and read x + z's derivatives,
        # not x; then x is evaluated to order 12 once per grid of v (4097
        # points for m <= 16 and 8321 for m = 64), not once more for each
        # base half
        map_spec, x, probes = ex2_family()
        calls = []
        sinusoid_coeffs = SinusoidProbe.coeffs

        def counted(node, s, order):
            if node == x.node and order == 12:
                calls.append(s.points.size)
            return sinusoid_coeffs(node, s, order)

        monkeypatch.setattr(SinusoidProbe, "coeffs", counted)
        check_tame_estimate(map_spec, x, PNormSpec(), PNormSpec(), probes)
        assert calls == [4097, 8321]

    @pytest.mark.parametrize("c", [0.0, 0.3])
    def test_constant_x_not_wrapped(self, monkeypatch, c):
        # a zero x still folds out of x + z
        map_spec = PostComposition(Exp((0.0, 1.0)))
        x = constant(c, UNIT_INTERVAL)
        z, u = probe(2, 3, 0.5, UNIT_INTERVAL), constant(0.125, UNIT_INTERVAL)
        seen = []
        gateaux = PostComposition.gateaux

        def recording(spec, at, u):
            seen.append(at)
            return gateaux(spec, at, u)

        monkeypatch.setattr(PostComposition, "gateaux", recording)
        check_tame_estimate(map_spec, x, PNormSpec(), PNormSpec(), [(z, u)])
        # the base half is built once for u, before the perturbed halves
        assert seen == [x, x + z]
        assert (seen[1] == z) == (c == 0.0)


MAPS = {
    "ex2": lambda: CirclePullback(Sin(omega=TWO_PI), 2),
    "ex4": lambda: PostComposition(Exp((0.0, 1.0))),
}
BASE_POINTS = {
    "ex2": (SinusoidProbe(0.05, 2.0), Constant(0.0)),
    "ex4": (SinusoidProbe(0.3, 1.5), Constant(0.0), Constant(0.3)),
}


@st.composite
def probe_families(draw):
    """(variant, x, probes): a few distinct probes, drawn again and again.
    A probe's z is an (m, k) probe, with m on either side of the frequency
    256 at which v's grid passes one 16,384-point chunk, or an explicit
    sinusoid; its u is one of a few constants, zero among them. Probes
    that share m draw k on their own, so some z's differ only in k."""
    variant = draw(st.sampled_from(sorted(MAPS)))
    domain = PERIODIC if variant == "ex2" else UNIT_INTERVAL
    x = SmoothFunction(draw(st.sampled_from(BASE_POINTS[variant])), domain)
    s0 = draw(st.sampled_from((0.0, 0.3) if variant == "ex2" else (0.5,)))
    ms = draw(st.lists(st.sampled_from((1, 3, 16, 250, 300)), min_size=1,
                       max_size=2))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            z = probe(draw(st.sampled_from(ms)),
                      draw(st.sampled_from((1, 3, 5))), s0, domain)
        else:
            z = SmoothFunction(SinusoidProbe(
                draw(st.sampled_from((1e-4, 0.01))),
                draw(st.sampled_from((1.5, 2.0, 7.0, 300.0)[
                    variant == "ex2":])),
                draw(st.sampled_from((0.0, 0.25)))), domain)
        u = constant(draw(st.sampled_from((0.125, 0.3, 0.0))), domain)
        pool.append((z, u))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=6))
    return MAPS[variant](), x, [pool[i] for i in picks]


def ex4_k_family():
    """z's that differ only in k on a grid of two chunks, repeated, with
    u = 1/8 and u = 0."""
    map_spec, x = ex4_map()
    z3, z5 = (probe(300, k, 0.5, UNIT_INTERVAL) for k in (3, 5))
    u, u0 = constant(0.125, UNIT_INTERVAL), constant(0.0, UNIT_INTERVAL)
    return map_spec, x, [(z3, u), (z5, u0), (z5, u), (z3, u), (z3, u0)]


@given(probe_families())
@example(ex4_k_family())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_check_equals_per_probe_oracle(family):
    map_spec, x, probes = family
    assert check_tame_estimate(map_spec, x, PNormSpec(), PNormSpec(),
                               probes) == \
        check_per_probe(map_spec, x, PNormSpec(), PNormSpec(), probes)
