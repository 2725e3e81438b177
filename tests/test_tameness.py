import math
import warnings

import numpy as np
import pytest

from conftest import random_small_function
from tameprobe.functions import (
    PERIODIC,
    UNIT_INTERVAL,
    PrecisionBudgetError,
    SinusoidProbe,
    SmoothFunction,
    constant,
    probe,
    seminorm_profile,
    zero,
)
from tameprobe.jets import MAX_ORDER
from tameprobe.maps import CirclePullback, DomainViolation, PostComposition
from tameprobe.primitives import AffineMap, IdentityPlusExp, Sin
from tameprobe.tameness import (
    SATURATION,
    PNormSpec,
    check_tame_estimate,
    pnorm_eval,
)

TWO_PI = 2.0 * math.pi


class TestPNormSpec:
    def test_default_weights(self):
        spec = PNormSpec()
        assert spec.weight(0) == 1.0
        assert spec.weight(3) == 0.125

    def test_validation(self):
        with pytest.raises(ValueError):
            PNormSpec(truncation=-1)
        with pytest.raises(ValueError):
            PNormSpec(truncation=MAX_ORDER + 1)
        with pytest.raises(ValueError):
            PNormSpec(transform="exotic")
        with pytest.raises(ValueError):
            PNormSpec(truncation=2, weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            PNormSpec(truncation=1, weights=(1.0, -1.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                PNormSpec(truncation=2, weights=(1.0, bad, 0.5))

    def test_first_saturated(self):
        below = SATURATION * (1.0 - 2.0**-53)
        lower = [1.0, 1e6, below, SATURATION, 1e30]
        assert PNormSpec(4).first_saturated(lower) == 3
        assert PNormSpec(2).first_saturated(lower) is None
        assert PNormSpec(4, "linear").first_saturated(lower) is None
        assert PNormSpec(4).first_saturated([math.nan] * 5) is None

    def test_saturated_term_is_its_weight(self):
        # fl(w * p) / p misses w for these weights and seminorms
        weights = (0.4, 0.7, 1.3)
        spec = PNormSpec(2, weights=weights)
        for p in (2.0**53, 3.0 * 2.0**53, SATURATION, 1e30):
            assert spec.of_profile([0.0, 0.0, p]) == weights[2]
            assert spec.of_profile([0.0, p, p]) == weights[1] + weights[2]

    def test_dict_round_trip(self):
        weights = [1.0, 0.5, 0.25, 0.125, 0.0625]
        spec = PNormSpec(truncation=4, transform="linear",
                         weights=tuple(weights))
        assert PNormSpec.from_dict({"truncation": 4, "transform": "linear",
                                    "weights": weights}) == spec
        assert PNormSpec.from_dict({}) == PNormSpec()


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

    def test_linear_transform(self):
        spec = PNormSpec(truncation=2, transform="linear",
                         weights=(1.0, 1.0, 1.0))
        f = constant(2.0)
        assert pnorm_eval(spec, f) == pytest.approx(6.0, rel=1e-14)

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
        m = PostComposition(AffineMap(2.0, 1.0))
        probes = self.default_probes([16, 64], domain=UNIT_INTERVAL, s0=0.5)
        report = check_tame_estimate(m, zero(UNIT_INTERVAL), PNormSpec(),
                                     PNormSpec(), probes)
        assert report.satisfied
        assert report.samples_checked == 2
        assert not report.witnesses

    def test_constant_phi_satisfied(self):
        m = self.pullback(AffineMap(0.0, 0.4))
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
                check_tame_estimate(PostComposition(IdentityPlusExp()),
                                    constant(800.0, UNIT_INTERVAL),
                                    PNormSpec(), PNormSpec(), probes)

    def test_nonfinite_rhs_raises(self):
        # z = 0 passes rho1(z) <= 1, and rho1(u) = 1e300 * 1e10 overflows
        z = SmoothFunction(SinusoidProbe(0.0, 1.0), PERIODIC)
        rho1 = PNormSpec(2, "linear", (1e300, 1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(PrecisionBudgetError, match="rho1.u. = inf"):
                check_tame_estimate(self.pullback(), zero(), rho1,
                                    PNormSpec(), [(z, constant(1e10))])

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
