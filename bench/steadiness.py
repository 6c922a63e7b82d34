"""Run-to-run spread of the end-to-end metrics.

    python3 bench/steadiness.py [--workloads pipeline wide]
        [--seeds 1-10] [--seconds 20] [--out bench/steadiness.json]

Runs `run.py` once per (workload, seed), one run at a time, and
reports for each metric the ten values, their median and the spread:
the distance between the first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) over the median.  The
bounds in BENCHMARK.json are compared with these spreads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+",
                   default=["pipeline", "wide"])
    p.add_argument("--seeds", default="1-10", type=parse_seeds)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--out", default=None)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            walls.append(time.perf_counter() - t0)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(done.stderr, file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in values.items():
            s = spread(vs)
            rows[name] = {"median": statistics.median(vs), "spread": s,
                          "bound": bounds.get(name),
                          "values": vs}
            print(f"{workload:9s} {name:12s} median {statistics.median(vs):10.4f}"
                  f"  spread {s:.4f}  bound {bounds.get(name)}")
        report["workloads"][workload] = {
            "metrics": rows, "run_wall_s": max(walls)}
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
