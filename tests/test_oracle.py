"""A 50-digit oracle for the numbers a sweep row prints.

v = df(x + z, u) - df(x, u) is written in closed form in mpmath, which
shares no code with numpy, and differentiated there at s0 to the map's top
order. For x = zero, n = 1 and u = eps0:
- ex2 (phi = sin 2*pi*t): v = eps0 [2 pi cos(2 pi (s + z)) (1 + z')
  - 2 pi cos(2 pi s)], top order k - 1;
- ex4 (phi = t + e^t): v = eps0 [e^z - 1], top order k.
`predicted` is eps0 sqrt(2 pi m) |phi_lead(t0)|.

The error is measured relative to the 50-digit value, in units of
EPS = 2^-52. Observed at k = 3, l = 8 with numpy 2.4.6: at most 2.34 EPS
for `top_deriv_s0` (ex2, m = 16) and 0.72 EPS for `predicted`. ULPS
allows 1.7 times the worst of them.
"""

import pytest
from mpmath import mp, mpf

from tameprobe.cli import parse_phi
from tameprobe.driver import growth_sweep
from tameprobe.functions import UNIT_INTERVAL, zero
from tameprobe.maps import CirclePullback, PostComposition
from tameprobe.tameness import PNormSpec

K, L = 3, 8
M_LIST = (16, 256, 4096)
EPS = 2.0**-52
ULPS = 4


def probe_mp(m, s0):
    """z and z' of the k = K probe at s0, at mpmath's precision."""
    w = 2 * mp.pi * m
    amp = w**(mpf(1) / 2 - K)
    return (lambda s: amp * mp.sin(w * (s - s0)),
            lambda s: amp * w * mp.cos(w * (s - s0)))


def v_ex2(m, s0, eps0):
    z, dz = probe_mp(m, s0)
    tau = 2 * mp.pi
    return lambda s: eps0 * (tau * mp.cos(tau * (s + z(s))) * (1 + dz(s))
                             - tau * mp.cos(tau * s))


def v_ex4(m, s0, eps0):
    z, _ = probe_mp(m, s0)
    return lambda s: eps0 * (mp.exp(z(s)) - 1)


CASES = {
    "ex2": (lambda: CirclePullback(parse_phi("sin"), 1), zero, v_ex2,
            lambda t0: 2 * mp.pi * mp.cos(2 * mp.pi * t0)),
    "ex4": (lambda: PostComposition(parse_phi("t_plus_exp")),
            lambda: zero(UNIT_INTERVAL), v_ex4, mp.exp),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_row_matches_50_digit_oracle(case):
    make_map, make_x, v_mp, phi_lead = CASES[case]
    map_spec = make_map()
    res = growth_sweep(map_spec, make_x(), PNormSpec(), PNormSpec(), K, L,
                       M_LIST)
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
    assert all(e <= ULPS * EPS for _, *pair in errors for e in pair), errors
