"""The claims the benchmark times, their inputs, and the output checks.

Each workload is one `tameprobe` CLI call (a claim). The reason each was
chosen is its ``why`` in BENCHMARK.json. Only ``ex4-check-tame`` draws its
inputs from the seed; the two ex2 workloads are the paper's fixed
configurations and ignore it.

Every claim's output is checked. Where a stored reference exists (the
output of the commit that defined the benchmark), numbers must match it to
``RTOL`` relative; seed-independent invariants are checked for every seed.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
RTOL = 1e-12

SWEEP_LO_CONFIG = {
    "variant": "ex2", "phi": "sin", "n": 1, "k": 3, "l": 8,
    "rho1": {"truncation": 2}, "rho2": {"truncation": 2},
    "m_list": [16, 64, 256, 1024, 4096, 16384], "format": "csv",
}

EX4_FREQUENCIES = (0.5, 1.5, 2.0, 3.0, 7.0)

# argv templates; {config}, {output} and {probes} name files in the run's
# work directory
WORKLOADS = {
    "ex2-demo": {
        "argv": ["demo", "ex2", "--phi", "sin", "--n", "1", "--k", "3",
                 "--l", "8"],
        "seed_use": "none: the paper's headline configuration",
    },
    "ex2-sweep-lo": {
        "argv": ["sweep", "--config", "{config}", "-o", "{output}"],
        "seed_use": "none: config " + json.dumps(SWEEP_LO_CONFIG),
    },
    "ex4-check-tame": {
        "argv": ["check-tame", "ex4", "--phi", "t_plus_exp",
                 "--x", "sinusoid:0.3,1.5", "--probes", "{probes}"],
        "seed_use": "probe file: 16 descriptors with amplitude, frequency "
                    "and phase drawn from the seed, and the order of all "
                    "208 probes shuffled by it",
    },
}

# Layers a workload's claim never enters; every other per-layer metric
# must be nonzero on it, so that a renamed import cannot zero a layer
# unnoticed.
ABSENT_LAYERS = {
    "ex2-demo": ("tameness.check_tame_estimate",),
    "ex2-sweep-lo": ("tameness.check_tame_estimate",
                     "driver.estimate_residual_bound", "driver.fix_m"),
    "ex4-check-tame": ("driver.residual_tz", "driver.growth_sweep",
                       "driver.estimate_residual_bound", "driver.fix_m"),
}


def probe_family(seed: int) -> list:
    """The ex4 probe file: (m, k) pairs m = 1..64, k in {1, 3, 5}, and 16
    explicit sinusoid descriptors, in an order shuffled by the seed."""
    rng = random.Random(seed)
    entries = [{"m": m, "k": k} for m in range(1, 65) for k in (1, 3, 5)]
    for _ in range(16):
        entries.append({"z": {"amplitude": rng.uniform(0.001, 0.05),
                              "frequency": rng.choice(EX4_FREQUENCIES),
                              "phase": rng.random()},
                        "u": {"constant": 0.125}})  # eps0 = 1/l, l = 8
    rng.shuffle(entries)
    return entries


def build_inputs(name: str, seed: int, workdir: Path):
    """Write the workload's input files into ``workdir``.

    Returns the claim's argv and the path of the file the claim writes, or
    None when its output goes to stdout.
    """
    files = {"config": workdir / "sweep-lo.json",
             "output": workdir / "sweep-lo.csv",
             "probes": workdir / "probes.json"}
    if name == "ex2-sweep-lo":
        files["config"].write_text(json.dumps(SWEEP_LO_CONFIG))
    elif name == "ex4-check-tame":
        files["probes"].write_text(json.dumps(probe_family(seed)))
    argv = [a.format(**{k: str(v) for k, v in files.items()})
            for a in WORKLOADS[name]["argv"]]
    return argv, files["output"] if name == "ex2-sweep-lo" else None


def reference(name: str, seed: int):
    """The stored output for this workload and seed, or None."""
    if name == "ex4-check-tame":
        if seed != DEFAULT_SEED:
            return None
        path = REFERENCE_DIR / f"{name}.seed{seed}.txt"
    elif name == "ex2-sweep-lo":
        path = REFERENCE_DIR / f"{name}.csv"
    else:
        path = REFERENCE_DIR / f"{name}.txt"
    return path.read_text()


# ---------------------------------------------------------------------------
# comparison against the reference

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_MANTISSA = re.compile(r"[-+]?\d*\.?(\d*)(?:[eE]([-+]?\d+))?$")
# sweep table columns: Tz_sup is a cancellation residual of terms the size
# of top_deriv_s0, so it is compared on that scale
_TOP_COLUMN, _TZ_COLUMN, _TABLE_WIDTH = 4, 6, 8


def _last_place(token: str) -> float:
    """One unit in the last printed digit of a decimal token."""
    frac, exp = _MANTISSA.match(token).groups()
    return 10.0 ** (int(exp or 0) - len(frac))


def _close(got: str, ref: str, tol: float) -> bool:
    if not re.search(r"[.eE]", ref):
        return got == ref
    # a change below rtol can still flip the last printed digit
    return abs(float(got) - float(ref)) <= tol + _last_place(ref)


def compare_text(got: str, ref: str, rtol: float = RTOL) -> list:
    """Problems found comparing output text with its reference: the text
    must match exactly, integers exactly and other numbers within
    ``rtol`` of their scale."""
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if len(got_lines) != len(ref_lines):
        return [f"{len(got_lines)} lines, reference has {len(ref_lines)}"]
    problems = []
    for no, (g, r) in enumerate(zip(got_lines, ref_lines), 1):
        if _NUMBER.sub("#", g) != _NUMBER.sub("#", r):
            problems.append(f"line {no}: {g!r} != {r!r}")
            continue
        g_nums, r_nums = _NUMBER.findall(g), _NUMBER.findall(r)
        scales = [abs(float(t)) for t in r_nums]
        if r[:1].isdigit() and len(r_nums) == _TABLE_WIDTH:
            scales[_TZ_COLUMN] = max(scales[_TZ_COLUMN], scales[_TOP_COLUMN])
        for col, (gt, rt, scale) in enumerate(zip(g_nums, r_nums, scales)):
            if not _close(gt, rt, rtol * scale):
                problems.append(f"line {no} number {col}: {gt} != {rt}")
    return problems


# ---------------------------------------------------------------------------
# seed-independent invariants

def _slope_near_half(slope: float) -> list:
    return [] if abs(slope - 0.5) <= 0.05 else [f"slope {slope} not ~1/2"]


_DEMO_FIELDS = (r"^fitted slope = (\S+)$", r"^estimate violated = (\S+)$",
                r"certified m = (\d+)$")


def _demo_invariants(text: str) -> list:
    found = [re.search(p, text, re.M) for p in _DEMO_FIELDS]
    if not all(found):
        return ["summary lines missing"]
    slope, violated, m_star = (f.group(1) for f in found)
    want_m = re.search(_DEMO_FIELDS[2], reference("ex2-demo", DEFAULT_SEED),
                       re.M).group(1)
    problems = _slope_near_half(float(slope))
    if violated != "True":
        problems.append("estimate not violated")
    if m_star != want_m:
        problems.append(f"certified m {m_star} != {want_m}")
    return problems


def _sweep_invariants(text: str) -> list:
    lines = text.splitlines()
    header = "m,p_km1_z,rho1_z,rho1_u,top_deriv_s0,predicted,Tz_sup,rho2_v"
    if not lines or lines[0] != header:
        return ["CSV header missing"]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != len(SWEEP_LO_CONFIG["m_list"]):
        return [f"{len(rows)} CSV rows"]
    problems = []
    if not any(r[2] <= 1.0 and r[7] > r[3] for r in rows):
        problems.append("estimate not violated")
    xs = [math.log(r[0]) for r in rows]
    ys = [math.log(r[4]) for r in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)
    return problems + _slope_near_half(slope)


def _check_tame_invariants(text: str) -> list:
    problems = []
    if not re.search(r"^satisfied = False$", text, re.M):
        problems.append("estimate not reported as violated")
    if not re.search(r"^witness: ", text, re.M):
        problems.append("no witness")
    return problems


INVARIANTS = {"ex2-demo": _demo_invariants,
              "ex2-sweep-lo": _sweep_invariants,
              "ex4-check-tame": _check_tame_invariants}


def check_claim(name: str, seed: int, code, stdout: str, written) -> list:
    """Problems with one claim's result; empty when the claim is correct.

    ``written`` is the text of the file the claim wrote, if any.
    """
    if code != 0:
        return [f"exit code {code}"]
    text = stdout if written is None else written
    ref = reference(name, seed)
    problems = [] if ref is None else compare_text(text, ref)
    try:
        problems += INVARIANTS[name](text)
    except ValueError as exc:
        problems.append(f"unparsable output: {exc}")
    return problems
