import math

import numpy as np
import pytest

from conftest import (
    GRID_PATH_TREES,
    count_trig,
    ex4_seed0_family,
    fd_derivative,
    probe_deriv_closed_form,
    random_small_function,
    whole_grid,
)
from tameprobe import functions
from tameprobe.functions import (
    MAX_GRID_POINTS,
    PERIODIC,
    UNIT_INTERVAL,
    _CHUNK,
    Affine,
    Constant,
    Evaluation,
    GridSpec,
    PrecisionBudgetError,
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
    value_range,
)
from tameprobe.jets import MAX_ORDER
from tameprobe.maps import CirclePullback, PostComposition
from tameprobe.primitives import Cos, Exp, Polynomial, Sin
from tameprobe.tameness import PNormSpec, pnorm_eval

TWO_PI = 2.0 * math.pi
IDENTITY = Affine(1.0, 0.0)


def sin_2pi(domain=PERIODIC):
    return SmoothFunction(SinusoidProbe(1.0, 1.0, 0.0), domain)


class TestEvaluate:
    def test_constant(self):
        f = SmoothFunction(Constant(3.0), PERIODIC)
        assert f.evaluate(0.0) == 3.0
        assert f.evaluate(17.25) == 3.0

    def test_constant_values_are_writable(self):
        # a constant's coefficients are a read-only view; its values are not
        vals = constant(2.0).evaluate(np.linspace(0.0, 1.0, 5))
        assert vals.flags.writeable and np.all(vals == 2.0)
        vals[0] = -1.0
        assert np.all(constant(2.0).evaluate(np.zeros(2)) == 2.0)
        assert type(constant(2.0).evaluate(0.5)) is float

    def test_sin(self):
        assert sin_2pi().evaluate(0.25) == pytest.approx(1.0, rel=1e-15)

    def test_probe_value(self):
        # closed form: amplitude (2 pi m)^(-k+1/2) times sin(pi/2)
        z = probe(4, 3, 0.0)
        assert z.evaluate(1.0 / 16.0) == pytest.approx((8 * math.pi)**-2.5,
                                                       rel=1e-14)

    def test_unit_interval_domain_check(self):
        f = SmoothFunction(IDENTITY, UNIT_INTERVAL)
        assert f.evaluate(1.0) == 1.0
        with pytest.raises(ValueError):
            f.evaluate(1.5)
        with pytest.raises(ValueError):
            f.evaluate(-0.1)

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        f = random_small_function(rng)
        for s in rng.uniform(-5, 5, 10):
            assert f.evaluate(s + 1.0) == pytest.approx(f.evaluate(s),
                                                        abs=1e-12)


class TestConstantCoeffs:
    def test_read_only_view_of_one_column(self):
        s = np.linspace(0.0, 1.0, 9)
        for order in range(MAX_ORDER + 1):
            got = Constant(2.5).coeffs(Evaluation(s), order)
            want = np.zeros((order + 1, s.size))
            want[0] = 2.5
            assert np.array_equal(got, want)
            assert not got.flags.writeable
            # no (order + 1) x N array is filled
            assert got.base.size == order + 1

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_constant_is_finite(self, c):
        # the raw node still takes any float; `constant` is where a
        # caller's number enters
        with pytest.raises(ValueError, match="constant must be finite"):
            constant(c)
        assert Constant(c).c is c


class TestPeriodicStructure:
    def test_affine_rejected(self):
        with pytest.raises(ValueError):
            SmoothFunction(Affine(1.0, 0.0), PERIODIC)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            SmoothFunction(IDENTITY, PERIODIC)

    def test_winding_composition_accepted(self):
        # integer-slope argument under a 1-periodic outer function
        node = PrimitiveCompose(Sin(omega=TWO_PI), Sum(Affine(2.0, 0.0),
                                                       SinusoidProbe(0.1, 1.0, 0.0)))
        f = SmoothFunction(node, PERIODIC)
        assert f.evaluate(0.3 + 1.0) == pytest.approx(f.evaluate(0.3), abs=1e-12)

    def test_nonperiodic_composition_rejected(self):
        node = PrimitiveCompose(Sin(omega=1.0), Affine(2.0, 0.0))
        with pytest.raises(ValueError):
            SmoothFunction(node, PERIODIC)


def jet_at(f, s, order):
    """Taylor coefficients of f at the single point s."""
    return f.node.coeffs(Evaluation(np.array([s])), order)[:, 0]


class TestJetAt:
    def test_constant(self):
        f = SmoothFunction(Constant(2.5), PERIODIC)
        np.testing.assert_array_equal(jet_at(f, 0.3, 4), [2.5, 0, 0, 0, 0])

    def test_identity(self):
        f = SmoothFunction(IDENTITY, UNIT_INTERVAL)
        np.testing.assert_array_equal(jet_at(f, 0.5, 2), [0.5, 1.0, 0.0])

    def test_sum_linearity(self):
        rng = np.random.default_rng(5)
        a = random_small_function(rng)
        b = random_small_function(rng)
        j = jet_at(a + b, 0.4, 6)
        expected = jet_at(a, 0.4, 6) + jet_at(b, 0.4, 6)
        np.testing.assert_allclose(j, expected, rtol=1e-14, atol=1e-16)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        f = random_small_function(rng, scale=1.0)
        j = jet_at(f, 0.37, 3)
        for i, h in ((1, 1e-3), (2, 1e-3), (3, 1e-2)):
            fd = fd_derivative(f.evaluate, 0.37, i, h)
            assert math.factorial(i) * j[i] == pytest.approx(
                fd, rel=1e-6, abs=1e-8)


class TestSeminorms:
    def test_sup_of_sin(self):
        assert seminorm_profile(sin_2pi(), 0)[0] == pytest.approx(1.0,
                                                                   rel=1e-12)

    def test_zero_function(self):
        f = SmoothFunction(Constant(0.0), PERIODIC)
        assert seminorm_profile(f, 5)[5] == 0.0

    def test_probe_closed_form(self):
        assert seminorm_profile(probe(4, 3, 0.0), 2)[2] == pytest.approx(
            (8 * math.pi)**-0.5, rel=1e-12)

    @pytest.mark.parametrize("m,k", [(16, 3), (1024, 5), (2**14, 9)])
    def test_grid_matches_analytic(self, m, k):
        z = probe(m, k, 0.125)
        analytic = seminorm_profile(z, k)
        forced_grid = SmoothFunction(Sum(z.node, Constant(0.0)), PERIODIC)
        grid_profile = seminorm_profile(forced_grid, k)
        np.testing.assert_allclose(grid_profile, analytic, rtol=1e-3)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(21)
        f = random_small_function(rng, scale=2.0)
        prof = seminorm_profile(f, 9)
        assert np.all(np.diff(prof) >= 0.0)

    def test_subadditive(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = random_small_function(rng, scale=2.0)
            b = random_small_function(rng, scale=2.0)
            pa = seminorm_profile(a, 6)
            pb = seminorm_profile(b, 6)
            pab = seminorm_profile(a + b, 6)
            assert np.all(pab <= pa + pb + 1e-12)

    def test_homogeneous(self):
        rng = np.random.default_rng(29)
        f = random_small_function(rng, scale=2.0)
        pf = seminorm_profile(f, 6)
        pcf = seminorm_profile(3.5 * f, 6)
        np.testing.assert_allclose(pcf, 3.5 * pf, rtol=1e-12)
        # analytic path is exactly homogeneous
        z = probe(8, 3, 0.0)
        np.testing.assert_array_equal(seminorm_profile(2.0 * z, 3),
                                      2.0 * seminorm_profile(z, 3))


    @pytest.mark.parametrize("order", [-1, MAX_ORDER + 1])
    def test_order_out_of_range(self, order):
        # -1 returned an empty profile, which callers then indexed
        with pytest.raises(ValueError, match=f"order {order} outside"):
            seminorm_profile(sin_2pi(), order)


class TestValueRange:
    @pytest.mark.parametrize("c", [0.0, -3.5, 5000.0])
    def test_constant_exact(self, c):
        assert value_range(constant(c)) == (c, c)

    @pytest.mark.parametrize("domain", [PERIODIC, UNIT_INTERVAL])
    def test_sinusoid_exact(self, domain):
        f = SmoothFunction(SinusoidProbe(-0.3, 2.0, 0.1), domain)
        assert value_range(f) == (-0.3, 0.3)
        f = SmoothFunction(mul(SinusoidProbe(0.3, 2.0, 0.1), Constant(-2.0)),
                           domain)
        assert value_range(f) == (-0.6, 0.6)

    @pytest.mark.parametrize("name", sorted(GRID_PATH_TREES))
    def test_encloses_a_dense_sample(self, name):
        f = SmoothFunction(GRID_PATH_TREES[name], PERIODIC)
        lo, hi = value_range(f)
        vals = f.evaluate(np.arange(2**20) / 2**20)
        assert lo <= vals.min() and vals.max() <= hi
        # each end is padded by h * sup|f'|, and by no more
        h = GridSpec().points(f.domain, GridSpec().size(f), 0, 2)[1]
        assert hi - lo <= vals.max() - vals.min() \
            + 2.0 * h * seminorm_profile(f, 1)[1] * 1.01

    def test_one_grid_pass(self, monkeypatch):
        # one walk over f's grid, a chunk's points at a time; the step is
        # read off the first chunk, and f's tree is walked once for the size
        built, walks = [], []
        points, size_of = GridSpec.points, GridSpec.size

        def counted(grid, domain, size, lo, hi, out=None):
            built.append((domain, size, lo, hi))
            return points(grid, domain, size, lo, hi, out)

        def walked(grid, f):
            walks.append(f)
            return size_of(grid, f)

        def refuse(*args):
            raise AssertionError("value_range took a seminorm")

        monkeypatch.setattr(GridSpec, "points", counted)
        monkeypatch.setattr(GridSpec, "size", walked)
        monkeypatch.setattr(functions, "seminorm_profile", refuse)
        monkeypatch.setattr(functions, "seminorm_profiles", refuse)
        f = SmoothFunction(GRID_PATH_TREES["product"], PERIODIC)
        value_range(f)
        assert built == [(PERIODIC, 4097, 0, 4097)]
        assert walks == [f]
        # a grid of three chunks
        built.clear()
        walks.clear()
        f = SmoothFunction(Product(SinusoidProbe(0.3, 1.0, 0.1),
                                   SinusoidProbe(1e-3, 600.0)), PERIODIC)
        value_range(f)
        assert walks == [f]
        size = size_of(GridSpec(), f)
        assert 2 * _CHUNK < size <= 3 * _CHUNK
        assert built == [(PERIODIC, size, lo, min(lo + _CHUNK, size))
                         for lo in range(0, size, _CHUNK)]


class TestProbeClosedForm:
    def test_zero_at_anchor(self):
        assert probe_deriv_closed_form(4, 3, 0.3, 0, 0.3) == 0.0

    @pytest.mark.parametrize("k", [3, 5, 7, 9])
    def test_top_derivative_sign(self, k):
        m, s0 = 8, 0.2
        got = probe_deriv_closed_form(m, k, s0, k, s0)
        expected = (-1.0)**((k - 1) // 2) * math.sqrt(TWO_PI * m)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_even_order_vanishes_at_anchor(self):
        assert probe_deriv_closed_form(4, 3, 0.0, 2, 0.0) == pytest.approx(
            0.0, abs=1e-16)

    def test_matches_tree_jets(self):
        m, k, s0 = 16, 5, 0.1
        z = probe(m, k, s0)
        j = jet_at(z, 0.37, k)
        for i in range(k + 1):
            assert math.factorial(i) * j[i] == pytest.approx(
                probe_deriv_closed_form(m, k, s0, i, 0.37), rel=1e-11)

    def test_validation(self):
        with pytest.raises(ValueError):
            probe_deriv_closed_form(0, 3, 0.0, 1, 0.0)
        with pytest.raises(ValueError):
            probe_deriv_closed_form(4, 2, 0.0, 1, 0.0)
        with pytest.raises(ValueError):
            probe_deriv_closed_form(4, 3, 0.0, 17, 0.0)

    @pytest.mark.parametrize("m, k", [(0, 3), (-2, 3), (4, 2), (4, -1)])
    def test_probe_validation(self, m, k):
        # m = 0 ended in a ZeroDivisionError
        with pytest.raises(ValueError, match="must be"):
            probe(m, k, 0.0)

    @pytest.mark.parametrize("m, k, match", [
        (16, 17, "k = 17 exceeds the order cap 16"),
        (16, 3.0, "k must be an integer, got 3.0"),
        (16.5, 3, "m must be a positive integer, got 16.5"),
    ], ids=["k-above-cap", "k-float", "m-float"])
    def test_probe_rules(self, m, k, match):
        with pytest.raises(ValueError, match=match):
            probe(m, k, 0.0)


class TestGridSpec:
    def test_scales_with_frequency(self):
        g = GridSpec()
        z = probe(256, 3, 0.0)
        assert g.size(z) >= 64 * 256

    def test_minimum(self):
        g = GridSpec()
        f = SmoothFunction(Constant(1.0), PERIODIC)
        assert g.size(f) >= 4096

    def test_cap_is_inclusive(self, monkeypatch):
        # the minimal grids have 4097 (periodic) and 4098 points
        monkeypatch.setattr(functions, "MAX_GRID_POINTS", 4097)
        assert GridSpec().size(sin_2pi()) == 4097
        with pytest.raises(PrecisionBudgetError,
                           match="a grid of 4098 points exceeds the cap of "
                                 "4097"):
            GridSpec().size(sin_2pi(UNIT_INTERVAL))

    def test_cap(self):
        # 64 * 2^18 + 1 points; raised before anything is allocated
        with pytest.raises(PrecisionBudgetError, match="1.678e\\+07 points"):
            GridSpec().size(probe(2**18, 3, 0.0))
        assert MAX_GRID_POINTS == 2**24

    def test_unbounded_frequency(self):
        # frequencies add up in a product, here past double range
        big = SinusoidProbe(1.0, 1e308)
        f = SmoothFunction(Product(big, big), UNIT_INTERVAL)
        assert f.node.spectrum()[1] == math.inf
        with pytest.raises(PrecisionBudgetError, match="a grid of inf points"):
            GridSpec().size(f)


def old_grid(f):
    """f's whole grid as it was built before a grid became a recipe."""
    size = GridSpec().size(f)
    if f.domain == PERIODIC:
        s = np.arange(size, dtype=float)
        s /= size
        return s
    return np.linspace(0.0, 1.0, size)


# frequencies of sinusoids whose grids span one, two and three chunks
CHUNK_COUNTS = {1: 200.0, 2: 300.0, 3: 600.0}


class TestGridRecipe:
    """No pass holds a grid: a pass builds one chunk's points at a time."""

    @pytest.mark.parametrize("domain", [PERIODIC, UNIT_INTERVAL])
    @pytest.mark.parametrize("count", sorted(CHUNK_COUNTS))
    def test_chunks_tile_the_old_grid(self, domain, count):
        f = SmoothFunction(SinusoidProbe(0.1, CHUNK_COUNTS[count]), domain)
        # the pass reuses its buffers, so each chunk's points are copied
        parts = [ev.points.copy() for ev in functions.chunks(f, f.node)]
        assert len(parts) == count
        assert max(p.size for p in parts) <= _CHUNK
        old = old_grid(f)
        assert np.concatenate(parts).tobytes() == old.tobytes()
        # any run of points, into a caller's array
        out = np.empty(7)
        for lo in (0, 1, old.size // 2, old.size - 7):
            assert GridSpec().points(domain, old.size, lo, lo + 7,
                                     out=out) is out
            assert out.tobytes() == old[lo:lo + 7].tobytes()


# a composition that occurs twice in one tree, next to a sinusoid of its own
# phase; its grid spans three chunks
REPEATED = PrimitiveCompose(Sin(omega=TWO_PI),
                            Sum(IDENTITY, SinusoidProbe(1e-4, 300.0, 0.3)))
WITH_REPEAT = Sum(Product(REPEATED, SinusoidProbe(0.2, 300.0, 0.3, 2)),
                  mul(REPEATED, Constant(-3.0)))


def kept_nodes(slots, *roots):
    """The node objects of the trees ``roots`` whose ids ``slots`` (from
    `find_shared`) maps, each once."""
    found, todo = {}, list(roots)
    while todo:
        node = todo.pop()
        if id(node) in slots:
            found[id(node)] = node
        todo.extend(node.operands())
    return list(found.values())


class TestEvaluation:
    def test_shared_node_evaluated_once_per_chunk(self, monkeypatch):
        calls = []
        compose_coeffs = PrimitiveCompose.coeffs

        def counted(node, s, order):
            calls.append(order)
            return compose_coeffs(node, s, order)

        f = SmoothFunction(WITH_REPEAT, PERIODIC)
        s = whole_grid(f)
        assert 2 * _CHUNK < s.size <= 3 * _CHUNK
        want = np.maximum.accumulate(
            np.abs(WITH_REPEAT.coeffs(Evaluation(s), 6)).max(axis=1)
            * [math.factorial(i) for i in range(7)])
        monkeypatch.setattr(PrimitiveCompose, "coeffs", counted)
        got = seminorm_profile(f, 6)
        assert calls == [6] * 3
        assert np.array_equal(got, want)

    def test_lower_order_is_a_read_only_slice(self):
        s = np.linspace(0.0, 1.0, 101)
        ev = Evaluation(s, find_shared(WITH_REPEAT))
        high = ev.coeffs(REPEATED, 6)
        for order in range(7):
            low = ev.coeffs(REPEATED, order)
            assert np.shares_memory(low, high)
            assert np.array_equal(low, REPEATED.coeffs(Evaluation(s), order))
        with pytest.raises(ValueError, match="read-only"):
            high[0, 0] = 1.0
        # a higher order than kept is evaluated again, and kept instead
        ev = Evaluation(s, find_shared(WITH_REPEAT))
        ev.coeffs(REPEATED, 1)
        assert np.array_equal(ev.coeffs(REPEATED, 6), high)
        assert ev.coeffs(REPEATED, 3).base is ev.coeffs(REPEATED, 6).base

    def test_repeats_found_by_value(self):
        # equal, not identical: the second occurrence is built anew
        twin = PrimitiveCompose(Sin(omega=TWO_PI),
                                Sum(IDENTITY, SinusoidProbe(1e-4, 300.0, 0.3)))
        assert twin == REPEATED and twin is not REPEATED
        tree = Sum(REPEATED, mul(twin, Constant(2.0)))
        slots = find_shared(tree)
        assert slots == {id(REPEATED): 0, id(twin): 0}
        # the operands of a second occurrence are not visited, so the
        # sinusoid under it is seen once and not kept; constants and affine
        # leaves are never kept
        assert [type(nd) for nd in kept_nodes(slots, tree)] == \
            [PrimitiveCompose] * 2
        assert find_shared(Sum(Constant(2.0), Constant(2.0), IDENTITY,
                               IDENTITY)) == {}

    def test_nothing_kept_without_repeats(self, monkeypatch):
        # the v's check_tame_estimate checks on ex4's seed-0 family, in one
        # pass: they share -df(x, u) and x, and nothing else repeats; z
        # occurs once in each v, and each v's pairs are released before the
        # next v runs
        map_spec, x, probes = ex4_seed0_family()
        u = probes[0][1]
        base = map_spec.gateaux(x, u)
        vs = [map_spec.gateaux(x + z, u) - base for z, _ in probes
              if pnorm_eval(PNormSpec(), z) <= 1.0]
        assert len(vs) == 144
        roots = [v.node for v in vs]
        assert set(kept_nodes(find_shared(*roots), *roots)) == \
            {(-base).node, x.node}
        pairs = []
        sin_cos = Evaluation.sin_cos

        def recording(ev, node):
            out = sin_cos(ev, node)
            pairs.append(len(ev._trig))
            return out

        monkeypatch.setattr(Evaluation, "sin_cos", recording)
        seminorm_profiles(vs, 12)
        # the first v reads x's pair, then its z's; x is kept as a node from
        # then on, so every later v holds its own z's pair alone
        assert pairs == [1, 2] + [1] * 143

    def test_repeated_sinusoid_is_kept(self, monkeypatch):
        # a sinusoid leaf whose whole value repeats is kept as a node, as
        # a repeated operator node is
        leaf = SinusoidProbe(0.3, 2.0, 0.1)
        tree = Sum(PrimitiveCompose(Sin(omega=TWO_PI), leaf),
                   mul(SinusoidProbe(0.3, 2.0, 0.1), Constant(2.0)))
        assert set(kept_nodes(find_shared(tree), tree)) == {leaf}
        calls = []
        sinusoid_coeffs = SinusoidProbe.coeffs

        def counted(node, s, order):
            calls.append(order)
            return sinusoid_coeffs(node, s, order)

        f = SmoothFunction(tree, PERIODIC)
        want = seminorm_profile(f, 6)
        monkeypatch.setattr(SinusoidProbe, "coeffs", counted)
        assert np.array_equal(seminorm_profile(f, 6), want)
        assert calls == [6]

    def test_pairs_released_between_trees(self, monkeypatch):
        # within a tree z, z' and z^(3) read one pair; the next tree of a
        # many-function pass, which reads z'' and z^(4), builds its own
        z = probe(16, 3, 0.1).node
        z2 = z.diff().diff()
        trees = [Sum(z, Product(z.diff(), SinusoidProbe(1.0, 2.0)),
                     z2.diff()),
                 Sum(mul(z2, Constant(2.0)), z2.diff().diff())]
        fs = [SmoothFunction(t, PERIODIC) for t in trees]
        want = [seminorm_profile(f, 4) for f in fs]
        calls = count_trig(monkeypatch)
        got = functions.seminorm_profiles(fs, 4)
        # one pair for z per tree, and one for the frequency-2 factor
        assert calls == [(4097, 0), (4097, 1)] * 3
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_many_function_pass_equals_separate_calls(self):
        # closed forms, two domains, grids of one and of three chunks,
        # repeats inside and across trees, and a function given twice
        fs = [SmoothFunction(WITH_REPEAT, PERIODIC),
              SmoothFunction(mul(REPEATED, Constant(2.0)), PERIODIC),
              probe(16, 3, 0.1),
              SmoothFunction(REPEATED, UNIT_INTERVAL),
              SmoothFunction(Sum(REPEATED, SinusoidProbe(0.1, 3.0)), PERIODIC),
              probe(3, 1, 0.0),
              SmoothFunction(WITH_REPEAT, PERIODIC)]
        got = seminorm_profiles(fs, 6)
        assert len(got) == len(fs)
        for f, p in zip(fs, got):
            assert np.array_equal(p, seminorm_profile(f, 6))

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_sinusoid_diff_steps_the_shift(self, k):
        m, s0 = 16, 0.1
        node = probe(m, k, s0).node
        s = np.linspace(0.0, 1.0, 33)
        for i in range(k + 1):
            assert (node.frequency, node.phase, node.shift) == (m, s0, i)
            np.testing.assert_allclose(
                node.coeffs(Evaluation(s), 0)[0],
                probe_deriv_closed_form(m, k, s0, i, s),
                rtol=1e-12, atol=1e-12 * (TWO_PI * m)**(i - k + 0.5))
            node = node.diff()

    @pytest.mark.parametrize("shift", [-1, 1.0, True, np.int64(2)])
    def test_shift_is_a_nonnegative_int(self, shift):
        with pytest.raises(ValueError, match="shift must be a nonnegative"):
            SinusoidProbe(1.0, 2.0, 0.0, shift)


class TestConstantMultiple:
    """c * f, -f and f - g multiply by a Constant as the last factor of a
    product, which `convolve_trunc` takes as one multiply: their
    coefficients are np.multiply(c, coeffs), bit for bit."""

    @staticmethod
    def same_bits(a, b):
        return np.array_equal(a, b) and \
            np.array_equal(np.signbit(a), np.signbit(b))

    # no terms: f is a constant, whose rows past the first are zeros
    @pytest.mark.parametrize("n_terms", [0, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_last_factor_is_the_constant(self, seed, n_terms):
        rng = np.random.default_rng(seed)
        f, g = (random_small_function(rng, n_terms=n_terms)
                for _ in range(2))
        s = np.linspace(0.0, 1.0, 257)
        cases = [(c * f, c, f) for c in (-2.5, 0.3, rng.uniform(-3.0, 3.0))]
        cases += [(f * 0.3, 0.3, f), (-f, -1.0, f),
                  (SmoothFunction((f - g).node.children[-1], PERIODIC),
                   -1.0, g)]
        for got, c, base in cases:
            assert got.node == Product(base.node, Constant(c))
            for order in (0, 1, 4, 12):
                want = np.multiply(c, base.node.coeffs(Evaluation(s), order))
                assert self.same_bits(got.node.coeffs(Evaluation(s), order),
                                      want)

    def test_slope_is_c_times_the_factors(self):
        # sin(2 pi * (-2 s)) is 1-periodic, of frequency 2
        minus_2s = mul(IDENTITY, Constant(-2.0))
        assert minus_2s.spectrum()[0] == -2.0
        f = SmoothFunction(PrimitiveCompose(Sin(omega=TWO_PI), minus_2s),
                           PERIODIC)
        assert f.node.spectrum()[1] == 2.0


class TestFolding:
    A = SinusoidProbe(0.1, 2.0, 0.0)
    B = Affine(2.0, 1.0)
    C = Constant(0.5)

    def test_zero_summand_dropped(self):
        assert add(self.A, Constant(0.0), self.B) == Sum(self.A, self.B)
        assert add(Constant(0.0), Constant(0.0)) == Constant(0.0)

    def test_zero_factor_annihilates(self):
        assert mul(self.A, self.B, Constant(0.0)) == Constant(0.0)
        assert mul(Constant(0.0), Constant(1.0)) == Constant(0.0)

    def test_unit_factor_dropped(self):
        assert mul(Constant(1.0), self.A, Constant(1.0), self.B) == \
            Product(self.A, self.B)
        assert mul(Constant(1.0), Constant(1.0)) == Constant(1.0)

    def test_single_operand_returned(self):
        assert add(self.A) is self.A
        assert mul(self.A) is self.A
        assert add(Constant(0.0), self.A) is self.A
        assert mul(self.A, Constant(1.0)) is self.A

    def test_no_reordering_or_flattening(self):
        # other constants stay where they are, and nested nodes stay nested
        inner = Sum(self.B, self.C)
        assert add(self.C, Constant(0.0), self.A, inner) == \
            Sum(self.C, self.A, inner)
        assert mul(self.B, Constant(1.0), self.C, self.A) == \
            Product(self.B, self.C, self.A)
        assert mul(self.A, Constant(2.0)) == Product(self.A, Constant(2.0))

    def test_scale(self):
        assert mul(Constant(0.0), Constant(-1.0)) == Constant(0.0)
        assert mul(self.A, Constant(0.0)) == Constant(0.0)
        assert mul(self.A, Constant(1.0)) is self.A
        assert mul(self.A, Constant(-1.0)) == Product(self.A, Constant(-1.0))

    def test_raw_constructors_do_not_fold(self):
        assert Sum(self.A, Constant(0.0)).children == (self.A, Constant(0.0))
        assert Product(self.A, Constant(1.0)).children == \
            (self.A, Constant(1.0))

    def test_derivatives_fold(self):
        # d/ds of sin(2 pi s) * s: the product rule's s' = 1 is left
        # out, and a constant's derivative drops out of a sum
        sin = PrimitiveCompose(Sin(omega=TWO_PI), IDENTITY)
        first, second = Product(sin, IDENTITY).diff().children
        assert isinstance(first, Product) and len(first.children) == 2
        assert second is sin
        assert Sum(self.A, self.C).diff() == self.A.diff()
        assert mul(self.C, Constant(3.0)).diff() == Constant(0.0)
        fn = SmoothFunction(Sum(self.A, self.C), PERIODIC)
        assert (fn - fn.derivative().derivative() * 0.0).node == fn.node


# The two methods that `Node.spectrum` replaced, kept as its reference.

def reference_max_frequency(node):
    if isinstance(node, (Constant, Affine)):
        return 0.0
    if isinstance(node, SinusoidProbe):
        return abs(node.frequency)
    if isinstance(node, Sum):
        return max(reference_max_frequency(ch) for ch in node.children)
    if isinstance(node, Product):
        return sum(reference_max_frequency(ch) for ch in node.children)
    a = reference_affine_slope(node.child)
    if node.primitive.is_one_periodic:
        base = abs(a) if a is not None else 0.0
        return base + reference_max_frequency(node.child)
    return reference_max_frequency(node.child)


def reference_affine_slope(node):
    if isinstance(node, Constant):
        return 0.0
    if isinstance(node, Affine):
        return node.a
    if isinstance(node, SinusoidProbe):
        f = node.frequency
        if node.amplitude == 0.0 or abs(f - round(f)) < 1e-12:
            return 0.0
        return None
    if isinstance(node, Sum):
        total = 0.0
        for ch in node.children:
            a = reference_affine_slope(ch)
            if a is None:
                return None
            total += a
        return total
    if isinstance(node, Product):
        if len(node.children) == 2 and isinstance(node.children[1], Constant):
            a = reference_affine_slope(node.children[0])
            return None if a is None else node.children[1].c * a
        slopes = [reference_affine_slope(ch) for ch in node.children]
        if all(a == 0.0 for a in slopes):
            return 0.0
        return None
    a = reference_affine_slope(node.child)
    if a == 0.0:
        return 0.0
    if a is not None and node.primitive.is_one_periodic \
            and abs(a - round(a)) < 1e-12:
        return 0.0
    return None


def map_trees():
    """v = df(x + z, u) - df(x, u) and the leading term of ex2 (the
    pullback of sin(2 pi t), n = 1 and 2) and of ex4 (t + e^t)."""
    ex2 = [(CirclePullback(Sin(omega=TWO_PI), n), x)
           for n in (1, 2) for x in (constant(0.0),
                                     SmoothFunction(SinusoidProbe(0.02, 1.0),
                                                    PERIODIC))]
    ex4 = [(PostComposition(Exp((0.0, 1.0))),
            SmoothFunction(SinusoidProbe(0.3, 1.5), UNIT_INTERVAL))]
    for map_spec, x in ex2 + ex4:
        domain = map_spec.domain_tag
        u = constant(0.125, domain)
        for m in (16, 4096):
            z = probe(m, 3, 0.2, domain)
            yield (map_spec.gateaux(x + z, u) - map_spec.gateaux(x, u)).node
            yield map_spec.leading_term(x, z, 3)


# a child of each slope: unknown, 0, an integer and not an integer
SLOPED = [SinusoidProbe(0.1, 1.5), SinusoidProbe(0.1, 2.0, 0.3),
          Affine(3.0, 0.2), Affine(-2.0, 0.0), Affine(2.5, 0.1),
          Sum(Affine(1.0, 0.0), SinusoidProbe(0.1, 1.5))]
# periodic: Sin and Cos of 2 pi t, a constant polynomial; not: the rest
PHIS = [Sin(omega=TWO_PI), Cos(omega=2 * TWO_PI, amplitude=0.5),
        Polynomial((0.7,)), Sin(omega=1.0), Exp((0.0, 1.0)),
        Polynomial((0.0, 1.0))]


def spectrum_cases():
    rng = np.random.default_rng(5)
    yield from GRID_PATH_TREES.values()
    for domain in (PERIODIC, UNIT_INTERVAL):
        for n_terms in (0, 1, 3):
            yield random_small_function(rng, domain, n_terms=n_terms).node
    yield from map_trees()
    for phi in PHIS:
        for child in SLOPED:
            yield PrimitiveCompose(phi, child)
            yield PrimitiveCompose(phi, PrimitiveCompose(Sin(omega=TWO_PI),
                                                         child))
    for child in SLOPED:
        yield mul(child, Constant(-1.5))
        yield Product(child, Constant(2.0), Constant(3.0))
        yield Product(Constant(2.0), child)


class TestSpectrum:
    """`Node.spectrum` is the retired `affine_slope` and `max_frequency`,
    None included, read in one walk."""

    def test_matches_the_retired_methods(self):
        cases = list(spectrum_cases())
        assert len(cases) > 100
        for node in cases:
            want = (reference_affine_slope(node),
                    reference_max_frequency(node))
            got = node.spectrum()
            # `==` would take None for 0.0 in neither order, and 0.0 for -0.0
            assert got == want and [type(v) for v in got] == \
                [type(v) for v in want], node

    def test_the_children_take_every_kind_of_slope(self):
        slopes = [child.spectrum()[0] for child in SLOPED]
        assert slopes == [None, 0.0, 3.0, -2.0, 2.5, None]

    def test_a_nan_slope_is_not_periodic(self):
        # abs(nan) > 1e-12 is false: the check let a nan slope through
        with pytest.raises(ValueError, match="affine slope nan"):
            SmoothFunction(mul(IDENTITY, Constant(math.nan)), PERIODIC)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
    def test_a_slope_of_0_stays_0_whatever_c(self, c):
        # c * 0.0 is nan for an infinite c
        node = mul(SinusoidProbe(0.1, 2.0, 0.3), Constant(c))
        assert node.spectrum() == (0.0, 2.0)

    def test_a_non_finite_slope_is_not_periodic(self):
        # c * a past double range: the retired rule raised OverflowError
        # from round(inf); a 1-periodic phi of it has no grid
        steep = mul(Affine(1e300, 0.0), Constant(1e300))
        node = PrimitiveCompose(Sin(omega=TWO_PI), steep)
        assert node.spectrum() == (None, math.inf)
        with pytest.raises(PrecisionBudgetError, match="inf points"):
            GridSpec().size(SmoothFunction(node, UNIT_INTERVAL))
