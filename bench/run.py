"""Outside-in benchmark of vmint, standard library only.

    python3 bench/run.py                      # all workloads, a table
    python3 bench/run.py --workload ladder_modular --seed 1 --seconds 20
    python3 bench/run.py --workload cli_reductions --trace 1

With `--workload` the run measures that workload in this process (a
fresh one per workload) and prints, last, one JSON line
`{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  Without it,
each workload runs in its own child process and their results are
printed one after another.

A run: set-up builds the seeded input pool (its time, `setup_s`, is the
median wall time of fresh processes that import vmint and build the
pool); then ops run back to back, each timed alone, until their summed
time reaches `--seconds`; every output is checked exactly, untimed.  A
traced run first measures untraced for half the time, then replays the
same ops with the layer wrappers of `tracing` installed.

The program is imported from `src/` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_out"
WORKLOAD_NAMES = ("ladder_modular", "cli_reductions", "coupled_flow")
SETUP_REPEATS = 5
# A run must end well inside 180 s whatever --seconds asks for.
WALL_CAP_S = 140.0
CHILD_TIMEOUT_S = 900


class Measurement:
    """The outcome of one measured phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def timed(self) -> float:
        return sum(self.latencies)


def measure(workload, seconds: float, started: float, verified: dict,
            tracer=None, ops=None) -> Measurement:
    """Run `ops` ops, or whole passes over the pool until their summed
    time reaches `seconds`.

    Whole passes weigh every case of the pool equally, so a run's figures
    do not depend on where the clock happened to stop.
    """
    result = Measurement()
    pool = workload.pool

    def more() -> bool:
        if ops is not None:
            return result.attempted < ops
        if result.attempted % len(pool):
            return True
        return (result.timed < seconds
                and perf_counter() - started < WALL_CAP_S)

    while more():
        index = result.attempted % len(pool)
        case = pool[index]
        result.attempted += 1
        frame = tracer.begin_op(index) if tracer is not None else None
        start = perf_counter()
        try:
            raw = workload.op(case)
        except Exception as exc:  # a raising op is a failed op, not a crash
            elapsed = perf_counter() - start
            outcome = f"op {index} raised {type(exc).__name__}: {exc}"
        else:
            elapsed = perf_counter() - start
            outcome = None
        if frame is not None:
            tracer.end_op(frame)
        result.latencies.append(elapsed)
        if outcome is None:
            outcome = gate(workload, index, case, raw, verified)
        if outcome is not None:
            result.failed += 1
            result.errors.append(outcome)
    return result


def gate(workload, index: int, case, raw, verified: dict):
    """Check one output; an output equal to an already verified output of
    the same case is correct.  Returns an error message or None."""
    try:
        record = workload.collect(case, raw)
        summary, full = workload.describe(record)
        if verified.get(index, (None, None))[1] != full:
            workload.check(case, record)
            verified[index] = (summary, full)
    except Exception as exc:  # any gate exception rejects the output
        return f"op {index} rejected: {type(exc).__name__}: {exc}"
    return None


def digest(verified: dict, part: int) -> str:
    text = "\n".join(f"{i} {verified[i][part]}" for i in sorted(verified))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that import vmint and build the pool."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, __file__, "--workload", args.workload,
                        "--seed", str(args.seed), "--setup-only"],
                       check=True, timeout=60)
        samples.append(perf_counter() - start)
    return samples


def make_workload(args, workdir: Path):
    # Imported here: vmint only becomes importable once SRC is on the path.
    import workloads
    return workloads.WORKLOADS[args.workload](args.seed, workdir)


def end_to_end(result: Measurement, setup: list[float]) -> dict:
    times = result.latencies
    completed = result.attempted - result.failed
    return {
        "solves_per_s": (completed / result.timed, "1/s"),
        "p50_ms": (statistics.median(times) * 1e3, "ms"),
        "p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3
                   if len(times) > 1 else times[0] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def run_workload(args) -> int:
    started = perf_counter()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = make_workload(args, workdir)
        if args.setup_only:
            return 0
        verified: dict = {}
        if args.trace:
            return traced_run(args, workload, started, verified)
        setup = setup_seconds(args)
        result = measure(workload, args.seconds, started, verified)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it
    print_result(args, workload, result, verified,
                 end_to_end(result, setup))
    return 0


def traced_run(args, workload, started: float, verified: dict) -> int:
    import tracing
    untraced = measure(workload, args.seconds / 2, started, verified)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = measure(workload, 0, started, verified, tracer=tracer,
                     ops=untraced.attempted)
    metrics = tracing.layer_metrics(tracer, traced.attempted)
    metrics["trace.overhead_ratio"] = (traced.timed / untraced.timed, "ratio")
    metrics["cli.unverified_optima"] = (
        getattr(workload, "unverified", 0), "count")
    metrics["cli.optima"] = (getattr(workload, "optima", 0), "count")
    tracer.write_spans(SPANS / f"spans-{args.workload}-seed{args.seed}.jsonl")
    combined = Measurement()
    combined.attempted = untraced.attempted + traced.attempted
    combined.failed = untraced.failed + traced.failed
    combined.errors = untraced.errors + traced.errors
    combined.latencies = traced.latencies
    print_result(args, workload, combined, verified, metrics)
    return 0


def print_result(args, workload, result: Measurement, verified: dict,
                 metrics: dict) -> None:
    for error in result.errors[:20]:
        print(f"FAIL {error}")
    samples = len(result.latencies)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} pool={len(workload.pool)} ops={samples}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={samples})")
    print(f"fail_rate {result.failed / result.attempted:.6g} failed/attempted "
          f"(n={result.attempted})")
    if hasattr(workload, "unverified"):
        print(f"cli.unverified_optima {workload.unverified} of "
              f"{workload.optima} optimal reports")
    print(f"digest.status_values {digest(verified, 0)} "
          f"({len(verified)} of {len(workload.pool)} cases)")
    print(f"digest.outputs {digest(verified, 1)}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(args) -> int:
    """Each workload in its own fresh process; returns 1 on any failure."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            status = 1
            continue
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "vmint" / "__init__.py").is_file():
        print(f"bench: no vmint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
