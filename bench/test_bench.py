"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from spans import Tracer

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
TIMED = (".s", "self_s", "overhead_s")


def traced_counts(name, seed, tmp_path):
    cli = run.import_tameprobe()
    argv, output = workloads.build_inputs(name, seed, tmp_path)
    tracer = Tracer()
    claim = run.run_claim(cli, name, seed, argv, output, tracer)
    assert claim["ok"]
    (totals,) = tracer.per_claim().values()
    return {k: v for k, v in totals.items() if not k.endswith(TIMED)}


@pytest.mark.parametrize("name", NAMES)
def test_computed_counts_repeat_exactly(name, tmp_path):
    first = traced_counts(name, 5, tmp_path)
    second = traced_counts(name, 5, tmp_path)
    assert first == second
    assert first["jets.convolve_trunc.calls"] > 0


def test_tracer_restores_the_package(tmp_path):
    cli = run.import_tameprobe()
    import tameprobe.functions as functions
    import tameprobe.jets as jets
    before = (cli.main, functions.convolve_trunc, jets.convolve_trunc,
              functions.SinusoidProbe.coeffs)
    tracer = Tracer()
    tracer.install()
    assert functions.convolve_trunc is jets.convolve_trunc
    assert functions.convolve_trunc is not before[1]
    tracer.uninstall()
    assert (cli.main, functions.convolve_trunc, jets.convolve_trunc,
            functions.SinusoidProbe.coeffs) == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["functions.seminorm_profile", -1, 1, 0.0, 10.0, None],
        ["functions.GridSpec.points", 0, 1, 1.0, 2.0, {"points": 7}],
        ["jets.convolve_trunc", 0, 1, 3.0, 6.0, {"madds": 4, "bytes": 8}],
        ["functions.seminorm_profile", -1, 1, 10.0, 11.0, None],
    ]
    (t,) = tracer.per_claim().values()
    assert t["functions.seminorm_profile.self_s"] == 6.0 + 1.0
    assert t["functions.seminorm_profile.grid_points"] == 7
    assert t["functions.seminorm_profile.closed_form_frac"] == 0.5
    assert t["jets.convolve_trunc.madds"] == 4


def test_probe_family_is_seeded():
    a, b = workloads.probe_family(7), workloads.probe_family(7)
    assert a == b
    assert a != workloads.probe_family(8)
    assert len(a) == 64 * 3 + 16
    pairs = {(e["m"], e["k"]) for e in a if "m" in e}
    assert pairs == {(m, k) for m in range(1, 65) for k in (1, 3, 5)}


@pytest.mark.parametrize("name", NAMES)
def test_references_pass_their_own_checks(name):
    ref = workloads.reference(name, workloads.DEFAULT_SEED)
    stdout, written = ("", ref) if name == "ex2-sweep-lo" else (ref, None)
    assert workloads.check_claim(name, workloads.DEFAULT_SEED, 0, stdout,
                                 written) == []
    assert workloads.check_claim(name, workloads.DEFAULT_SEED, 2, stdout,
                                 written) == ["exit code 2"]


def _with_row(csv, m, column, factor):
    lines = csv.splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == str(m):
            fields[column] = format(float(fields[column]) * factor, ".17g")
            lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_compare_text_tolerance():
    ref = workloads.reference("ex2-sweep-lo", workloads.DEFAULT_SEED)
    assert workloads.compare_text(ref, ref) == []
    # rho2_v (column 7) is compared on its own scale
    assert workloads.compare_text(_with_row(ref, 4096, 7, 1 + 1e-13), ref) == []
    assert workloads.compare_text(_with_row(ref, 4096, 7, 1 + 1e-9), ref)
    # Tz_sup (column 6) is 0.74 at m = 4096, top_deriv_s0 is 126: a 1e-11
    # relative change is below 1e-12 of top_deriv_s0
    assert workloads.compare_text(_with_row(ref, 4096, 6, 1 + 1e-11), ref) == []
    assert workloads.compare_text(_with_row(ref, 4096, 6, 1 + 1e-8), ref)
    assert workloads.compare_text(ref.replace("16384,", "16385,"), ref)


def test_compare_text_allows_last_printed_digit():
    ref = "fitted slope = 0.498628\ncertified m = 8\n"
    assert workloads.compare_text("fitted slope = 0.498629\ncertified m = 8\n",
                                  ref) == []
    assert workloads.compare_text("fitted slope = 0.498631\ncertified m = 8\n",
                                  ref)
    assert workloads.compare_text("fitted slope = 0.498628\ncertified m = 16\n",
                                  ref)


def test_benchmark_json_names_every_metric_once():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s", "claim_s"}
    assert set(workloads.WORKLOADS) == set(NAMES) == set(workloads.ABSENT_LAYERS)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           NAMES[0], "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
