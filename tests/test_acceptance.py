"""End-to-end acceptance checks.

Each test prints exactly one ``[criterion N] PASS/FAIL`` line (outside the
pytest capture, so it is visible in any run) and then asserts, so a verbose
run doubles as an acceptance report.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_small_function
from tameprobe.driver import estimate_residual_bound, fix_m, growth_sweep
from tameprobe.functions import (
    PERIODIC,
    UNIT_INTERVAL,
    Constant,
    SmoothFunction,
    Sum,
    constant,
    probe,
    seminorm_profile,
    zero,
)
from tameprobe.maps import CirclePullback, PostComposition, gateaux_fd
from tameprobe.primitives import Exp, Polynomial, Sin
from tameprobe.tameness import PNormSpec, check_tame_estimate, pnorm_eval

TWO_PI = 2.0 * math.pi
M_RANGE = tuple(2**e for e in range(4, 13))


def report(capsys, criterion: int, ok: bool, detail: str):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def ex2_sweep():
    start = time.perf_counter()
    result = growth_sweep(CirclePullback(Sin(omega=TWO_PI), 1), zero(),
                          PNormSpec(), PNormSpec(), 3, 8, M_RANGE)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def ex4_sweep():
    return growth_sweep(PostComposition(Exp((0.0, 1.0))),
                        zero(UNIT_INTERVAL), PNormSpec(), PNormSpec(),
                        3, 8, M_RANGE)


def test_criterion_1_pullback_blowup_rate(ex2_sweep, capsys):
    result, elapsed = ex2_sweep
    last = result.records[-1]
    ratio = last.top_deriv_s0 / last.predicted
    ok = (abs(result.slope - 0.5) <= 0.05 and 0.95 <= ratio <= 1.05
          and elapsed < 30.0)
    report(capsys, 1, ok, f"slope = {result.slope:.4f} (target 0.500±0.05), "
                  f"top/predicted at m=4096: {ratio:.4f} (target [0.95,1.05]), "
                  f"sweep took {elapsed:.1f}s (< 30s)")


def test_criterion_2_composition_blowup_rate(ex4_sweep, capsys):
    result = ex4_sweep
    ok = result.slope is not None and abs(result.slope - 0.5) <= 0.05
    report(capsys, 2, ok, f"slope = {result.slope:.4f} (target 0.500±0.05)")


def test_criterion_3_estimate_violation_witness(ex2_sweep, capsys):
    result, _ = ex2_sweep
    flags = [r.rho1_z <= 1.0 and r.rho2_v > r.rho1_u for r in result.records]
    first = flags.index(True) if any(flags) else None
    persists = first is not None and all(flags[first:])
    ok = result.violation and persists
    detail = ("no witness" if first is None else
              f"first witness at m = {result.records[first].m}, "
              f"persists through m = {result.records[-1].m}")
    report(capsys, 3, ok, detail)


def test_criterion_4_degenerate_consistency(capsys):
    cases = [
        (CirclePullback(Polynomial([0.3, 0.0]), 1), zero(), 0.0),
        (PostComposition(Polynomial([1.0, 2.0])), zero(UNIT_INTERVAL), 0.5),
    ]
    worst = 0.0
    all_satisfied = True
    for map_spec, x, s0 in cases:
        probes = []
        u = constant(1.0 / 8, map_spec.domain_tag)
        for m in (16, 64, 256):
            z = probe(m, 3, s0, map_spec.domain_tag)
            probes.append((z, u))
            v = map_spec.gateaux(x + z, u) - map_spec.gateaux(x, u)
            s = np.linspace(0.0, 1.0, 4097)
            worst = max(worst, float(np.max(np.abs(v.evaluate(s)))))
        rep = check_tame_estimate(map_spec, x, PNormSpec(), PNormSpec(),
                                  probes)
        all_satisfied = all_satisfied and rep.satisfied
    ok = worst <= 1e-12 and all_satisfied
    report(capsys, 4, ok, f"sup|v| = {worst:.3e} (<= 1e-12) over both degenerate "
                  f"variants, estimate satisfied = {all_satisfied}")


def test_criterion_5_residual_boundedness(ex2_sweep, capsys):
    result, _ = ex2_sweep
    window = [r for r in result.records if 2**6 <= r.m <= 2**12]
    base = window[0].tz_sup
    worst = max(r.tz_sup / base for r in window)
    ok = worst <= 2.0
    report(capsys, 5, ok, f"max sup|T_z|(m) / sup|T_z|(2^6) = {worst:.3f} (<= 2, "
                  f"no sqrt-m growth)")


def test_criterion_6_probe_seminorm_closed_form(capsys):
    worst_analytic = 0.0
    worst_grid = 0.0
    for k in (3, 5, 7, 9):
        for m in (16, 256, 2048, 16384):
            z = probe(m, k, 0.25, PERIODIC)
            grid_z = SmoothFunction(Sum(z.node, Constant(0.0)), PERIODIC)
            analytic = seminorm_profile(z, k)
            sampled = seminorm_profile(grid_z, k)
            for i in range(k + 1):
                expected = (TWO_PI * m)**(i - k + 0.5)
                worst_analytic = max(worst_analytic,
                                     abs(analytic[i] / expected - 1.0))
                worst_grid = max(worst_grid,
                                 abs(sampled[i] / expected - 1.0))
    ok = worst_analytic <= 1e-9 and worst_grid <= 1e-3
    report(capsys, 6, ok, f"p_i(z_m) vs (2 pi m)^(i-k+1/2): analytic rel err "
                  f"{worst_analytic:.2e} (<= 1e-9), grid rel err "
                  f"{worst_grid:.2e} (<= 1e-3), m up to 2^14, k in 3..9")


def test_criterion_7_gateaux_matches_fd_oracle(capsys):
    rng = np.random.default_rng(20260823)
    worst_dist = 0.0
    worst_ratio = (math.inf, 0.0)
    ratios = []
    for map_spec, domain in (
        (CirclePullback(Sin(omega=TWO_PI), 1), PERIODIC),
        (PostComposition(Exp((0.0, 1.0))), UNIT_INTERVAL),
    ):
        for _ in range(20):
            x = random_small_function(rng, domain=domain)
            u = random_small_function(rng, domain=domain)
            exact = map_spec.gateaux(x, u)
            fd = gateaux_fd(map_spec, x, u, 1e-4)
            dist = float(np.max(np.abs(fd.values - exact.evaluate(fd.s))))
            worst_dist = max(worst_dist, dist)
            errs = []
            for t in (1e-2, 1e-3):
                g = gateaux_fd(map_spec, x, u, t)
                errs.append(float(np.max(np.abs(g.values
                                                - exact.evaluate(g.s)))))
            ratios.append(errs[0] / errs[1])
    worst_ratio = (min(ratios), max(ratios))
    ok = worst_dist <= 1e-5 and 60.0 <= worst_ratio[0] and worst_ratio[1] <= 140.0
    report(capsys, 7, ok, f"sup distance at t=1e-4: {worst_dist:.2e} (<= 1e-5) over "
                  f"40 random (x,u); error ratio t=1e-2 / t=1e-3 in "
                  f"[{worst_ratio[0]:.1f}, {worst_ratio[1]:.1f}] "
                  f"(target [60, 140])")


def test_criterion_8_pnorm_metric_axioms(capsys):
    rng = np.random.default_rng(8128)
    spec = PNormSpec()
    zero_ok = pnorm_eval(spec, zero()) == 0.0
    symmetric = True
    worst_slack = -math.inf
    for _ in range(1000):
        x = random_small_function(rng, scale=1.5)
        y = random_small_function(rng, scale=1.5)
        dxy = pnorm_eval(spec, x - y)
        symmetric = symmetric and dxy == pnorm_eval(spec, y - x)
        worst_slack = max(worst_slack,
                          pnorm_eval(spec, x + y)
                          - pnorm_eval(spec, x) - pnorm_eval(spec, y))
    ok = zero_ok and symmetric and worst_slack <= 1e-12
    report(capsys, 8, ok, f"1000 pairs: symmetry exact = {symmetric}, worst triangle "
                  f"slack = {worst_slack:.2e} (<= 1e-12), rho(0) = 0 is "
                  f"{zero_ok}")


def test_criterion_9_fix_m_certificates(ex2_sweep, ex4_sweep, capsys):
    ex2 = CirclePullback(Sin(omega=TWO_PI), 1)
    m_est2 = estimate_residual_bound(ex2, zero(), 3, 8, ex2_sweep[0])
    m2 = fix_m(3, 8, m_est2, TWO_PI)
    root2 = math.sqrt(TWO_PI * m2)
    ok2 = (1.0 / root2 <= 1.0 / 3.0) and (8.0 + m_est2 < root2 * TWO_PI)

    ex4 = PostComposition(Exp((0.0, 1.0)))
    m_est4 = estimate_residual_bound(ex4, zero(UNIT_INTERVAL), 3, 8,
                                     ex4_sweep)
    deriv4 = 1.0  # second derivative of t + e^t at t0 = 0
    m4 = fix_m(3, 8, m_est4, deriv4)
    ok4 = m4 > max(3.0**2, (8.0 + m_est4)**2 / deriv4**2) / TWO_PI

    ok = ok2 and ok4
    report(capsys, 9, ok, f"pullback: m = {m2} with M = {m_est2:.2f} satisfies "
                  f"(2 pi m)^(-1/2) <= 1/k and l + M < (2 pi m)^(1/2)|phi'|; "
                  f"composition: m = {m4} with M = {m_est4:.2f} exceeds "
                  f"(2 pi)^(-1) max(k^2, (l+M)^2/|phi''|^2)")


def test_criterion_10_violation_attributed_to_top_rung(capsys):
    # rho1 = p_0/(1 + p_0) only, so rho1(u) = (1/8)/(1 + 1/8) = 1/9; the
    # violation must need rho2's rung top_order (k - 1 for ex2, k for ex4)
    rho1 = PNormSpec(0)
    m_list = (1024, 4096)
    ok, parts = True, []
    for name, map_spec, x in (
        ("ex2", CirclePullback(Sin(omega=TWO_PI), 1), zero()),
        ("ex4", PostComposition(Exp((0.0, 1.0))), zero(UNIT_INTERVAL)),
    ):
        top = map_spec.top_order(3)
        for truncation, expected in ((top - 1, False), (top, True)):
            result = growth_sweep(map_spec, x, rho1, PNormSpec(truncation),
                                  3, 8, m_list)
            violated = [r.rho1_z <= 1.0 and r.rho2_v > r.rho1_u
                        for r in result.records]
            ok = ok and violated == [expected] * len(m_list)
            rho2 = ", ".join(f"{r.rho2_v:.4f}" for r in result.records)
            parts.append(f"{name} truncation {truncation}: rho2(v) = {rho2}")
    report(capsys, 10, ok, f"rho1(u) = {1 / 9:.4f}; violated at m = 1024, "
                  f"4096 from rung top_order on, not below: "
                  + "; ".join(parts))
