"""The benchmark's three claims at seed 0, run in-process, pass the
benchmark's own output checks against the stored references in
`bench/reference/`. `bench/` is only read."""

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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_claim_matches_reference(name, tmp_path):
    seed = workloads.DEFAULT_SEED
    argv, output = workloads.build_inputs(name, seed, tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    written = None if output is None else output.read_text()
    assert workloads.check_claim(name, seed, code, stdout.getvalue(),
                                 written) == []
