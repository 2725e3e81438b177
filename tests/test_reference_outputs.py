"""The benchmark's three claims at seed 0, run in-process, pass the
benchmark's own output checks against the stored references in
`bench/reference/`; the check-tame claim at seeds 1 and 7, which have no
stored reference, passes its seed-independent invariants. `bench/` is
only read."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from tameprobe import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads",
                                               BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def problems(name, seed, workdir):
    """What the benchmark's output checks find wrong with one claim."""
    argv, output = workloads.build_inputs(name, seed, workdir)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    written = None if output is None else output.read_text()
    return workloads.check_claim(name, seed, code, stdout.getvalue(), written)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_claim_matches_reference(name, tmp_path):
    assert problems(name, workloads.DEFAULT_SEED, tmp_path) == []


@pytest.mark.parametrize("seed", [1, 7])
def test_check_tame_seed_passes_invariants(seed, tmp_path):
    # no output is stored for these seeds, so only the invariants apply
    assert workloads.reference("ex4-check-tame", seed) is None
    assert problems("ex4-check-tame", seed, tmp_path) == []
