"""Self-tests of the benchmark.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
import tracing
import verify
import workloads

sys.path.insert(0, run.SRC)
import logpair.cli as cli  # noqa: E402

# functions each workload must reach; every target is reached by one
CALLED = {
    "pipeline": set(tracing.PREFIXES),
    "wide": {"cli.main", "jsonio.dumps", "jsonio.load_model",
             "jsonio.load_classes", "lattice.DivisorClass.init",
             "lattice.SurfaceModel.intersect", "dualgraph.classify_segments",
             "peeling.bark", "zariski.zariski_decompose",
             "invariants.log_chern", "pencil.analyze_adjoint_system",
             "examples.run_example"},
}
# cells the layer map predicts to be zero
PREDICTED_ZERO = {
    "pipeline": [],
    "wide": ["search.run_search.calls", "search.evaluate_constraints.calls"],
}


def _cost(op) -> int:
    if op.kind == "search":
        return workloads.search_points(op)
    return len(",".join(op.argv))


def small_subset(ops, per_kind: int = 6) -> list:
    """The cheapest ops of each subcommand (and each example name)."""
    groups: dict[tuple, list] = {}
    for op in ops:
        groups.setdefault((op.kind, op.argv[2] if op.kind == "example"
                           else ""), []).append(op)
    out = []
    for group in groups.values():
        out += sorted(group, key=_cost)[:per_kind]
    return out


class WorkDir(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK_ROOT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="test-", dir=run.WORK_ROOT)
        self.addCleanup(shutil.rmtree, self.dir, True)

    def build(self, workload: str, seed: int, name: str):
        sub = os.path.join(self.dir, name)
        os.makedirs(sub)
        return sub, workloads.build(workload, seed, sub, run.ROOT)


class Determinism(WorkDir):
    def test_same_seed_same_argv_and_input_bytes(self):
        for w in workloads.WORKLOADS:
            da, a = self.build(w, 7, w + "a")
            db, b = self.build(w, 7, w + "b")
            self.assertEqual([op.key for op in a], [op.key for op in b])
            self.assertEqual([[x.replace(da, "") for x in op.argv] for op in a],
                             [[x.replace(db, "") for x in op.argv] for op in b])
            self.assertEqual(sorted(os.listdir(da)), sorted(os.listdir(db)))
            for name in os.listdir(da):
                with open(os.path.join(da, name), "rb") as fa, \
                        open(os.path.join(db, name), "rb") as fb:
                    self.assertEqual(fa.read(), fb.read(), name)

    def test_other_seed_other_mix(self):
        for w in workloads.WORKLOADS:
            _, a = self.build(w, 7, w + "a")
            _, b = self.build(w, 8, w + "b")
            self.assertNotEqual([op.key for op in a], [op.key for op in b])

    def test_mix_sizes(self):
        for w in workloads.WORKLOADS:
            _, ops = self.build(w, 7, w)
            self.assertGreaterEqual(len(ops), run.MIN_OPS)


class SelfTime(unittest.TestCase):
    def test_nested_and_parallel_children(self):
        # (id, target, parent, thread, start, end, note)
        spans = [
            (0, 0, -1, 1, 0, 100, 0),     # root
            (1, 1, 0, 1, 10, 40, 0),      # nested child, same thread
            (2, 2, 1, 1, 15, 25, 0),      # grandchild
            (3, 3, 0, 2, 50, 80, 0),      # worker threads, overlapping
            (4, 3, 0, 3, 60, 95, 0),
            (5, 3, 0, 2, 90, 120, 0),     # runs past its parent's end
        ]
        self.assertEqual(tracing.self_times(spans),
                         {0: 100 - 30 - 50, 1: 20, 2: 10, 3: 30, 4: 35,
                          5: 30})

    def test_layer_totals_and_workers(self):
        run_i = tracing.PREFIXES.index("search.run_search")
        point = tracing.PREFIXES.index("search.evaluate_constraints")
        tracer = tracing.Tracer()
        tracer.spans = [
            (0, run_i, -1, 1, 0, 1000, 5),
            (1, point, 0, 2, 100, 600, 0),
            (2, point, 0, 3, 200, 700, 0),
            (3, point, 0, 1, 800, 900, 0),  # the reference instance
        ]
        m = tracing.layer_metrics(tracer)
        self.assertEqual(m["search.evaluate_constraints.calls"][0], 3)
        self.assertAlmostEqual(m["search.evaluate_constraints.total_s"][0],
                               1100e-9)
        self.assertAlmostEqual(m["search.run_search.self_s"][0], 300e-9)
        self.assertEqual(m["search.workers"][0], 2)
        self.assertAlmostEqual(m["search.rows_kept_ratio"][0], 5 / 3)


class Checks(unittest.TestCase):
    def test_reference_and_structural_failures_count(self):
        op = workloads.Op("zariski", ("zariski",), "k" * 32)
        good = json.dumps({"checks": {"all_ok": True}})
        ref = {op.key: verify.digest(0, good)}
        self.assertEqual(verify.check(op, 0, good, "", ref), [])
        self.assertTrue(verify.check(op, 0, good + " ", "", ref))
        bad = json.dumps({"checks": {"all_ok": False}})
        self.assertTrue(verify.check(op, 0, bad, "", {}))
        self.assertEqual(verify.check(op, 1, "", "error: no", {}), [])
        self.assertTrue(verify.check(op, 2, "", "internal error: x", {}))
        peel = workloads.Op("peel", ("peel",), "p" * 32)
        self.assertTrue(verify.check(peel, 1, "", "error: no", {}))
        self.assertTrue(verify.check(peel, None, "", "Traceback\nBoom", {}))

    def test_pencil_fiber_rederived(self):
        op = workloads.Op("pencil", ("pencil",), "q" * 32,
                          model=("p2_blowup", 0))
        fiber = {"fiber": [1, 0, 0, 0, 0, 0, 0, 0, -1], "g": 0}
        self.assertEqual(verify.check(op, 0, json.dumps(fiber), "", {}), [])
        fiber["g"] = 1
        self.assertTrue(verify.check(op, 0, json.dumps(fiber), "", {}))
        fiber = {"fiber": [1, 0, 0, 0, 0, 0, 0, 0, 0], "g": 0}
        self.assertTrue(verify.check(op, 0, json.dumps(fiber), "", {}))


class Tracing(WorkDir):
    def test_traced_digests_equal_untraced_and_wrappers_fire(self):
        reference = verify.load_reference()
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                _, ops = self.build(w, 7, w)
                ops = small_subset(ops)
                plain = run.run_pass(cli, ops, reference)
                self.assertEqual(plain.problems, [])
                with tracing.Tracer() as tracer:
                    traced = run.run_pass(cli, ops, reference, plain)
                self.assertEqual(traced.digests, plain.digests)
                self.assertEqual(tracer.missing, [])
                m = tracing.layer_metrics(tracer)
                for prefix in tracing.PREFIXES:
                    calls = m[f"{prefix}.calls"][0]
                    if prefix in CALLED[w]:
                        self.assertGreater(calls, 0, prefix)
                for cell in PREDICTED_ZERO[w]:
                    self.assertEqual(m[cell][0], 0, cell)

    def test_uninstall_restores_every_binding(self):
        import logpair.examples
        import logpair.lattice
        import logpair.linalg
        import logpair.peeling
        before = (cli.main, cli.bark, logpair.peeling.bark,
                  logpair.peeling.solve_linear, logpair.linalg.solve_linear,
                  logpair.examples.analyze_adjoint_system,
                  logpair.lattice.DivisorClass.__init__)
        with tracing.Tracer():
            self.assertIsNot(cli.bark, before[1])
            self.assertIs(cli.bark, logpair.peeling.bark)
            self.assertIs(logpair.peeling.solve_linear,
                          logpair.linalg.solve_linear)
        after = (cli.main, cli.bark, logpair.peeling.bark,
                 logpair.peeling.solve_linear, logpair.linalg.solve_linear,
                 logpair.examples.analyze_adjoint_system,
                 logpair.lattice.DivisorClass.__init__)
        self.assertEqual([a is b for a, b in zip(before, after)],
                         [True] * len(before))


class Result(WorkDir):
    def _run(self, *argv) -> tuple[dict, dict]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(run.main(list(argv)), 0)
        *_, record, result = out.getvalue().splitlines()
        return json.loads(record)["run_record"], json.loads(result)

    def test_result_lines_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            record, result = self._run("--workload", "pipeline", "--seed",
                                       "3", "--seconds", "0.1", "--trace",
                                       str(trace))
            self.assertEqual(sorted(result),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                {n: m["unit"] for n, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in bench[kind]})
            for key in ("python", "nproc", "commit", "seed",
                        "search.workers", "failed_ratio"):
                self.assertIn(key, record)

    def test_exits_nonzero_without_sources(self):
        bare = os.path.join(self.dir, "bare")
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns(".work", "out",
                                                      "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "wide", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("metrics", done.stdout)


if __name__ == "__main__":
    unittest.main()
