"""A 50-digit oracle for the numbers a sweep row prints.

v = df(x + z, u) - df(x, u) is written in closed form in mpmath, which
shares no code with numpy, and differentiated there at s0 to the map's top
order. With u = eps0:
- ex2 (phi = sin 2*pi*t, winding n): v = eps0 [2 pi cos(2 pi (n s + x + z))
  (n + x' + z') - 2 pi cos(2 pi (n s + x)) (n + x')], top order k - 1;
- ex4 (phi = t + e^t): v = eps0 [e^(x + z) - e^x], top order k.
`predicted` is eps0 sqrt(2 pi m) |phi_lead(t0)|.

The cases are x = zero at n = 1, whose s0 lies on v's grid, and two
off-grid s0: ex2 at n = 2 with x = sinusoid:0.02,1,0.3 (s0 =
0.7467041015625) and ex4 with x = sinusoid:0.3,1.5 (s0 = 0.1666259765625).

The error is measured relative to the 50-digit value, in units of
EPS = 2^-52. Observed at k = 3, l = 8 with numpy 2.4.6, the worst of
`top_deriv_s0` and `predicted` over m = 16, 256 and 4096 is 2.34 EPS for
the x = zero cases (`top_deriv_s0`, ex2, m = 16), 19.33 EPS for ex2 at
n = 2 (`top_deriv_s0`, m = 16; `predicted` 1.11 EPS) and 0.77 EPS for ex4
at the sinusoid (`predicted`; `top_deriv_s0` 0.71 EPS). Each case allows
1.7 times its worst.

The sweep's rung cut reads v at its two anchor points, s0 and s1 = s0 +-
1/(4m), as lower bounds on v's seminorms; they are bounds only if they are
values of v there. So at m = 16 and 4096 v's Taylor coefficients at both
points, to order 12, are pinned against the closed form's (`mp.taylor`).
v = a - b, a = df(x + z, u) and b = df(x, u), and a coefficient can be far
smaller than a's and b's, so its error is measured in units of EPS times
the larger of a's and b's coefficients of its order at the two points. So
is T_z(s0) = top! v^(top)(s0) / eps0 - phi_lead(t0) z^(k)(s0), with t0
the sweep's and z^(3)(s0) = -(2 pi m)^(1/2), in units of EPS times the larger of its two
terms. Observed with numpy 2.4.6, the worst over both m and both points
is 3.14 EPS for ex2 (T_z at m = 16; coefficients 1.99, order 10 at
m = 4096), 30.41 EPS for ex2 at n = 2 (the order-1 coefficient at
m = 4096; T_z 19.73 at m = 16), 2.14 EPS for ex4 (the order-9 coefficient
at m = 16; T_z 0.80) and 1.75 EPS for ex4 at the sinusoid (the order-12
coefficient at m = 4096; T_z 1.39). Each case allows 1.7 times its
worst.
"""

import functools
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from tameprobe import driver
from tameprobe.cli import parse_phi, parse_x
from tameprobe.driver import growth_sweep
from tameprobe.functions import Evaluation, constant, probe
from tameprobe.maps import CirclePullback, PostComposition
from tameprobe.tameness import PNormSpec

K, L = 3, 8
M_LIST = (16, 256, 4096)
ANCHOR_M = (16, 4096)
ORDER = 12
EPS = 2.0**-52


def sinusoid_mp(amp, freq, phase=0.0):
    """s -> amp sin(2 pi freq (s - phase)) and its derivative, at mpmath's
    precision; the numbers are the doubles the CLI reads."""
    amp, w, phase = mpf(amp), 2 * mp.pi * mpf(freq), mpf(phase)
    return (lambda s: amp * mp.sin(w * (s - phase)),
            lambda s: amp * w * mp.cos(w * (s - phase)))


def probe_mp(m, s0):
    """z and z' of the k = K probe at s0, at mpmath's precision."""
    w = 2 * mp.pi * m
    amp = w**(mpf(1) / 2 - K)
    return (lambda s: amp * mp.sin(w * (s - s0)),
            lambda s: amp * w * mp.cos(w * (s - s0)))


def zero_mp():
    return lambda s: mpf(0), lambda s: mpf(0)


def v_ex2(n, x_mp):
    def v(m, s0, eps0):
        (z, dz), (x, dx) = probe_mp(m, s0), x_mp()
        tau = 2 * mp.pi
        return lambda s: eps0 * (
            tau * mp.cos(tau * (n * s + x(s) + z(s))) * (n + dx(s) + dz(s))
            - tau * mp.cos(tau * (n * s + x(s))) * (n + dx(s)))
    return v


def v_ex4(x_mp):
    def v(m, s0, eps0):
        (z, _), (x, _) = probe_mp(m, s0), x_mp()
        return lambda s: eps0 * (mp.exp(x(s) + z(s)) - mp.exp(x(s)))
    return v


def ex2_lead(t0):
    return 2 * mp.pi * mp.cos(2 * mp.pi * t0)


# (map, x descriptor, v, phi_lead, allowed error in EPS of the row and of
# the anchor)
CASES = {
    "ex2": (lambda: CirclePullback(parse_phi("sin"), 1), "zero",
            v_ex2(1, zero_mp), ex2_lead, 4, 5.3),
    "ex4": (lambda: PostComposition(parse_phi("t_plus_exp")), "zero",
            v_ex4(zero_mp), mp.exp, 4, 3.6),
    "ex2-n2-sinusoid": (lambda: CirclePullback(parse_phi("sin"), 2),
                        "sinusoid:0.02,1,0.3",
                        v_ex2(2, lambda: sinusoid_mp(0.02, 1.0, 0.3)),
                        ex2_lead, 33, 52),
    "ex4-sinusoid": (lambda: PostComposition(parse_phi("t_plus_exp")),
                     "sinusoid:0.3,1.5",
                     v_ex4(lambda: sinusoid_mp(0.3, 1.5)), mp.exp, 1.32, 3.0),
}


@functools.lru_cache(maxsize=None)
def sweep(case):
    """The case's map, x, its sweep over M_LIST, and per m the v, leading
    term, top order and anchor that the sweep gave `residual_tz`."""
    make_map, x = CASES[case][:2]
    map_spec = make_map()
    x = parse_x(x, map_spec.domain_tag)
    calls, real = [], driver.residual_tz

    def residual(v, lead, top, anchor, eps0, rho2):
        calls.append((v, lead, top, anchor))
        return real(v, lead, top, anchor, eps0, rho2)

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(driver, "residual_tz", residual)
        res = growth_sweep(map_spec, x, PNormSpec(), PNormSpec(), K, L,
                           M_LIST)
    return map_spec, x, res, calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_row_matches_50_digit_oracle(case):
    _, _, v_mp, phi_lead, ulps, _ = CASES[case]
    map_spec, _, res, _ = sweep(case)
    top = map_spec.top_order(K)
    errors = []
    with mp.workdps(50):
        eps0, s0 = mpf(1) / L, mpf(res.s0)
        for r in res.records:
            want_top = abs(mp.diff(v_mp(r.m, s0, eps0), s0, top))
            want_pred = (eps0 * mp.sqrt(2 * mp.pi * r.m)
                         * abs(phi_lead(mpf(res.t0))))
            errors.append((r.m,
                           float(abs(r.top_deriv_s0 - want_top) / want_top),
                           float(abs(r.predicted - want_pred) / want_pred)))
    assert len(errors) == len(M_LIST)
    # a NaN compares false, so it fails too
    assert all(e <= ulps * EPS for _, *pair in errors for e in pair), errors


@pytest.mark.parametrize("case", sorted(CASES))
def test_anchor_matches_50_digit_oracle(case):
    _, _, v_mp, phi_lead, _, ulps = CASES[case]
    map_spec, x, res, calls = sweep(case)
    u = constant(1.0 / L, map_spec.domain_tag)
    errors = []
    with mp.workdps(50):
        eps0, s0 = mpf(1) / L, mpf(res.s0)
        for r, (v, lead, top, anchor) in zip(res.records, calls):
            if r.m not in ANCHOR_M:
                continue
            # s0, and a quarter period of z from it
            assert anchor[0] == res.s0
            assert abs(anchor[1] - res.s0) == 0.25 / r.m

            def at(f):
                return Evaluation(np.array(anchor)).coeffs(f.node, ORDER)

            got = at(v)
            z = probe(r.m, K, res.s0, map_spec.domain_tag)
            a, b = at(map_spec.gateaux(x + z, u)), at(map_spec.gateaux(x, u))
            scale = np.maximum(np.abs(a), np.abs(b)).max(axis=1)
            want = [mp.taylor(v_mp(r.m, s0, eps0), mpf(s), ORDER)
                    for s in anchor]
            errors += [(r.m, i, float(abs(got[i, j] - want[j][i]) / scale[i]))
                       for i in range(ORDER + 1) for j in range(2)]
            tz = (math.factorial(top) * got[top, 0] * L
                  - Evaluation(np.array(anchor[:1])).coeffs(lead, 0)[0, 0])
            terms = (mp.factorial(top) * want[0][top] / eps0,
                     phi_lead(mpf(res.t0)) * -mp.sqrt(2 * mp.pi * r.m))
            errors.append((r.m, "T_z", float(abs(tz - (terms[0] - terms[1]))
                                             / max(map(abs, terms)))))
    assert len(errors) == len(ANCHOR_M) * (2 * (ORDER + 1) + 1)
    assert all(e <= ulps * EPS for *_, e in errors), max(
        errors, key=lambda e: e[-1])
