"""Benchmark for tameprobe's claims, end to end or layer by layer.

    python3 bench/run.py --workload ex2-demo --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

Run from anywhere; it uses the ``src/`` tree next to ``bench/``. A claim is
one in-process call of ``tameprobe.cli.main(argv)`` with its output
captured. One closed-loop client runs claims back to back for about
``--seconds`` seconds, and every claim's output is checked (see
workloads.py).

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json: set-up time (median over fresh interpreters that import
tameprobe and build the inputs), median claim wall and CPU time, and the
process's peak resident memory. With ``--trace 1`` untraced and traced
claims alternate, and the result holds the per-layer metrics of the traced
claims (see spans.py) plus the tracing overhead. ``--workload all`` runs
every workload in its own process and prints one table.

The last line of stdout is the result as JSON. A summary, the environment
and the spans of traced claims go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_tameprobe():
    """Import tameprobe from this tree's ``src``, never from elsewhere."""
    if not (SRC / "tameprobe" / "cli.py").is_file():
        raise BenchError(f"no tameprobe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tameprobe.cli
    if SRC.resolve() not in Path(tameprobe.cli.__file__).resolve().parents:
        raise BenchError(f"tameprobe imported from {tameprobe.cli.__file__}")
    return tameprobe.cli


def environment() -> dict:
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "git_revision": None, "git_dirty": None}
    git = ["git", "-C", str(ROOT)]
    try:
        top = subprocess.run(git + ["rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            env["git_revision"] = lines[1]
            status = subprocess.run(git + ["status", "--porcelain"],
                                    capture_output=True, text=True, timeout=30)
            env["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


# ---------------------------------------------------------------------------
# set-up

def setup_child(name: str, seed: int):
    """Body of one set-up measurement: import, then build the inputs."""
    start = time.perf_counter()
    import_tameprobe()
    import_s = time.perf_counter() - start
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR))
    try:
        workloads.build_inputs(name, seed, workdir)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"import_s": import_s}))


def measure_setup(name: str, seed: int):
    """Wall times of fresh interpreters doing the set-up, and their
    import times."""
    walls, imports = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchError(f"set-up failed: {done.stderr.strip()}")
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
    return walls, imports


# ---------------------------------------------------------------------------
# claims

def run_claim(cli, name, seed, argv, output, tracer=None) -> dict:
    if output is not None and output.exists():
        output.unlink()
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crashing claim is a failed claim, not a crash
        code = None
        err.write(traceback.format_exc())
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    written = None
    if output is not None:
        written = output.read_text() if output.exists() else ""
    problems = workloads.check_claim(name, seed, code, out.getvalue(),
                                     written)
    if problems:
        print(f"claim failed: {problems[:3]} {err.getvalue()[-2000:]}",
              file=sys.stderr)
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "ok": not problems}


def run_claims(cli, name, seed, argv, output, seconds, tracer=None) -> list:
    """Closed loop: the next claim starts when the previous one returns,
    while the next round still fits in ``seconds``. With a tracer, each
    round is one untraced and one traced claim, in alternating order so
    that neither side always runs first."""
    claims, rounds = [], 0
    start = time.perf_counter()
    while True:
        order = [None] if tracer is None else [None, tracer]
        if rounds % 2:
            order.reverse()
        for t in order:
            if t is not None:
                t.claim = len(claims)
            claims.append(run_claim(cli, name, seed, argv, output, t))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return claims


# ---------------------------------------------------------------------------
# metrics

def end_to_end(claims, setup_walls) -> dict:
    plain = [c for c in claims if not c["traced"]]
    return {
        "setup_s": statistics.median(setup_walls),
        "claim_s": statistics.median(c["wall_s"] for c in plain),
        "cpu_s": statistics.median(c["cpu_s"] for c in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(claims, tracer, spec, import_times) -> dict:
    """Median over traced claims of each per-layer metric."""
    per_claim = list(tracer.per_claim().values())
    plain = [c["wall_s"] for c in claims if not c["traced"]]
    traced = [c["wall_s"] for c in claims if c["traced"]]
    metrics = {}
    for m in spec["per_layer"]:
        key = m["name"]
        if key == "tameprobe.import.s":
            metrics[key] = statistics.median(import_times)
        elif key == "trace.overhead_s":
            metrics[key] = statistics.median(traced) - statistics.median(plain)
        else:
            metrics[key] = statistics.median(t.get(key, 0.0) for t in per_claim)
    return metrics


def layers_to_cover(name, metrics) -> list:
    """The per-layer metrics that must be nonzero on this workload."""
    skip = ("trace.",) + workloads.ABSENT_LAYERS[name]
    return [k for k in metrics if not k.startswith(skip)]


def run_one(args, spec) -> int:
    name, seed = args.workload, args.seed
    setup_walls, import_times = measure_setup(name, seed)
    cli = import_tameprobe()
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    try:
        argv, output = workloads.build_inputs(name, seed, workdir)
        claims = run_claims(cli, name, seed, argv, output, args.seconds,
                            tracer)
    finally:
        shutil.rmtree(workdir)
    failed = sum(not c["ok"] for c in claims)
    correct = failed == 0
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values = per_layer(claims, tracer, spec, import_times)
        covered = layers_to_cover(name, values)
        zero = [k for k in covered if values[k] == 0]
        if zero:
            correct = False
            print(f"layers reading zero on {name}: {zero}", file=sys.stderr)
        tracer.write(OUT_DIR / f"{name}-seed{seed}.spans.jsonl")
    else:
        values = end_to_end(claims, setup_walls)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(f"workload {name}  seed {seed}  trace {args.trace}  "
          f"claims {len(claims)}  failed {failed}")
    print(f"argv: tameprobe {' '.join(argv)}")
    print("env: " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for k, m in metrics.items():
        print(f"  {k:<44} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {failed / len(claims):.6g} "
          f"({failed}/{len(claims)} claims)")
    if args.trace:
        print(f"  layer coverage: {len(covered) - len(zero)} of "
              f"{len(covered)} per-layer metrics nonzero")
    record = {"workload": name, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "argv": argv,
              "seed_use": workloads.WORKLOADS[name]["seed_use"], "env": env,
              "setup_s": setup_walls, "claims": claims, "metrics": metrics,
              "correct": correct}
    (OUT_DIR / f"{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(claims),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own fresh process, as one table."""
    rows, ok = [], True
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            raise BenchError(f"{w['name']} failed: {done.stderr.strip()}")
        result = json.loads(done.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        result["metrics"]["failed_frac"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
        rows.append((w["name"], result))
    for name, result in rows:
        print(f"{name}  (claims {result['attempted']}, "
              f"correct {result['correct']})")
        for k, m in result["metrics"].items():
            print(f"  {k:<44} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_child:
            setup_child(args.workload, args.seed)
            return 0
        if args.workload == "all":
            return run_all(args, spec)
        return run_one(args, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
