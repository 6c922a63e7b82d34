"""logpair benchmark: one client drives `logpair.cli.main` in-process.

    python3 bench/run.py --workload pipeline|wide --seed N \
        --seconds S --trace 0|1

The client is a closed loop: it sends the next command of the seeded
mix (see workloads.py) only after the previous one returned.  A first,
untimed pass over the mix checks every output (see verify.py) and
warms the interpreter; every later pass must repeat its outputs byte
for byte.

--trace 0 runs whole timed passes until the commands have been busy
for `--seconds`, so every run measures the same mix of commands, and
prints the end-to-end metrics: throughput, per-command latency
percentiles, peak resident memory, and the set-up time of a fresh
interpreter that imports `logpair.cli` and builds its parser.
--trace 1 runs one untraced and one traced pass and prints per-layer
metrics from spans recorded around logpair's public functions (see
tracing.py); the spans are written to bench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record.
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

import tracing
import verify
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")
OUT_DIR = os.path.join(BENCH_DIR, "out")

MIN_OPS = 100           # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 15      # fresh interpreters per run; the median is reported
WALL_LIMIT_S = 140.0    # stop a pathologically slow run before 180 s

# timed inside the fresh interpreter, so that process start-up, which
# varies widely on a shared host and is not logpair's, stays out
SETUP_CODE = ("import sys, time; t0 = time.perf_counter(); "
              "sys.path.insert(0, sys.argv[1]); import logpair.cli; "
              "logpair.cli.build_parser(); print(time.perf_counter() - t0)")


def run_op(cli, op) -> tuple:
    """(exit code or None if it raised, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception:
            code = None
        elapsed = time.perf_counter() - t0
        if code is None:
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue(), elapsed


class Pass:
    """Outcomes of running each op of a mix once."""

    def __init__(self):
        self.latencies: list[float] = []
        self.digests: list[str] = []
        self.problems: list[tuple[int, list[str]]] = []


def run_pass(cli, ops, reference, first: Pass = None,
             deadline: float = None) -> Pass:
    """Run every op once.  Without `first`, check every output; with
    it, require each digest to repeat that checked pass byte for byte."""
    done = Pass()
    for i, op in enumerate(ops):
        if deadline is not None and time.perf_counter() > deadline:
            break
        code, out, err, elapsed = run_op(cli, op)
        d = verify.digest(code, out)
        if first is None:
            problems = verify.check(op, code, out, err, reference)
        else:
            problems = ([] if d == first.digests[i]
                        else ["output differs from the checked pass"])
        done.latencies.append(elapsed)
        done.digests.append(d)
        if problems:
            done.problems.append((i, problems))
    return done


def measure_setup(repeats: int) -> list[float]:
    """Seconds fresh interpreters take to import logpair.cli and build
    its parser; one untimed start first writes the bytecode cache."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, SRC]
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run(cmd, check=True, capture_output=True,
                              text=True, stdin=subprocess.DEVNULL)
        times.append(float(done.stdout))
    return times[1:]


def search_workers(cli, ops) -> int:
    """Threads that evaluated grid points in the largest search op of
    the mix, measured in an extra traced run of that op."""
    searches = [op for op in ops if op.kind == "search"]
    if not searches:
        return 0
    largest = max(searches, key=workloads.search_points)
    with tracing.Tracer() as tracer:
        run_op(cli, largest)
    return tracing.search_workers(tracer)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report_problems(passes: list[Pass], ops) -> int:
    """Print each failed op to stderr; return how many failed."""
    failed = 0
    for p in passes:
        for i, problems in p.problems:
            failed += 1
            print(f"FAILED {' '.join(ops[i].argv)[:160]}: "
                  f"{'; '.join(problems)}", file=sys.stderr)
    return failed


def timed_run(cli, args, ops, reference) -> tuple[dict, dict]:
    setup = measure_setup(SETUP_REPEATS)
    workers = search_workers(cli, ops)
    checked = run_pass(cli, ops, reference)
    start = time.perf_counter()
    deadline = start + WALL_LIMIT_S
    passes: list[Pass] = []
    busy = 0.0
    while (busy < args.seconds or len(passes) * len(ops) < MIN_OPS) \
            and time.perf_counter() < deadline:
        p = run_pass(cli, ops, reference, checked, deadline)
        passes.append(p)
        busy += sum(p.latencies)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [t for p in passes for t in p.latencies]
    attempted = len(ops) + len(latencies)
    failed = report_problems([checked] + passes, ops)
    metrics = {
        "ops_per_s": (statistics.median(
            len(p.latencies) / sum(p.latencies) for p in passes), "1/s"),
        "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    record = {
        "samples": {"op_p50_ms": len(latencies),
                    "op_p90_ms": len(latencies), "setup_s": len(setup)},
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "busy_s": busy,
        "wall_s": wall,
        "failed_ratio": failed / attempted,
        "search.workers": workers,
    }
    return _result(attempted, failed, metrics), record


def traced_run(cli, args, ops, reference) -> tuple[dict, dict]:
    checked = run_pass(cli, ops, reference)
    plain = run_pass(cli, ops, reference, checked)
    with tracing.Tracer() as tracer:
        traced = run_pass(cli, ops, reference, checked)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR,
                              f"spans-{args.workload}-{args.seed}.jsonl.gz")
    tracer.write(spans_path)
    attempted = 3 * len(ops)
    failed = report_problems([checked, plain, traced], ops)
    for prefix in tracer.missing:
        print(f"warning: {prefix} not found; its cells read 0",
              file=sys.stderr)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (
        sum(plain.latencies) / sum(traced.latencies), "ratio")
    record = {
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "missing_targets": tracer.missing,
        "note_errors": tracer.note_errors,
        "search.workers": metrics["search.workers"][0],
        "failed_ratio": failed / attempted,
    }
    return _result(attempted, failed, metrics), record


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "logpair", "cli.py")):
        print(f"bench: no logpair sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    import logpair.cli as cli

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        ops = workloads.build(args.workload, args.seed, workdir, ROOT)
        reference = verify.load_reference()
        run = traced_run if args.trace else timed_run
        result, record = run(cli, args, ops, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "LOGPAIR_THREADS": os.environ.get("LOGPAIR_THREADS"),
    })
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
