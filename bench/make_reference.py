"""Regenerate bench/reference.json: the digest of (exit code, stdout)
for every op of the default seed of each workload, and for every op
the wide workload can draw (each ruled pencil instance and each ex3
parameter), keyed by the op's content key.

    python3 bench/make_reference.py

Run it only at a commit whose outputs the test suite and the selftest
criteria vouch for; an op whose output fails a structural check is
reported and nothing is written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import verify
import workloads


def all_ops(workdir: str) -> list:
    ops = []
    for name in workloads.WORKLOADS:
        sub = os.path.join(workdir, name)
        os.makedirs(sub)
        ops += workloads.build(name, verify.DEFAULT_SEED, sub, run.ROOT)
    inputs = workloads.Inputs(os.path.join(workdir, "wide-all"))
    os.makedirs(inputs.workdir)
    for g in range(workloads.WIDE_G[0], workloads.WIDE_G[1] + 1):
        for e in range(g + 1):
            ops.append(workloads.ruled_pencil_op(inputs, g, e))
    for a in range(workloads.EX3_A[0], workloads.EX3_A[1] + 1):
        ops.append(workloads.ex3_op(inputs, a))
    return ops


def main() -> int:
    sys.path.insert(0, run.SRC)
    import logpair.cli as cli

    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.WORK_ROOT)
    reference, bad = {}, 0
    try:
        for op in all_ops(workdir):
            if op.key in reference:
                continue
            code, out, err, _ = run.run_op(cli, op)
            problems = verify.check(op, code, out, err, {})
            if problems:
                bad += 1
                print(" ".join(op.argv)[:160], problems, file=sys.stderr)
            reference[op.key] = verify.digest(code, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print(f"{bad} ops failed their checks; reference not written",
              file=sys.stderr)
        return 1
    with open(verify.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} digests to {verify.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
