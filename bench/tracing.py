"""Spans around logpair's public functions, recorded from outside.

`Tracer.install` wraps each target function without editing the
package: it replaces the attribute in the defining module and in every
loaded ``logpair`` module that bound the same object through
``from ... import``.  Methods are replaced on their class.
`Tracer.uninstall` puts the originals back.

A span is (id, target index, parent id, thread id, start ns, end ns,
note).  The parent is the innermost open span of the same thread.  A
span opened in a thread with no open span (a worker of run_search's
thread pool) takes as parent the innermost open span of the client
thread, which is waiting on that pool.  `note` is a small summary of
the return value, or None when the call raised (or its summary
failed, which `note_errors` counts).  Spans stay in memory until
`write`.

A span's self time is its duration minus the part of its interval that
its children cover; children in parallel threads may overlap, so the
covered part is the length of their union.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter_ns
from typing import Callable, Optional


def _dims(args, result):
    return len(args[1])


def _matrix_dims(args, result):
    return len(args[0])


def _segments(args, result):
    segs = result.report.segments
    return (sum(1 for s in segs if s.admissible), len(segs))


def _zariski(args, result):
    return (result.rounds, len(result.support))


def _pencil(args, result):
    return len(result.fixed_parts)


def _rows(args, result):
    return result["row_count"]


# (metric prefix, module, attribute path, note of the return value)
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli.main", "logpair.cli", "main", None),
    ("jsonio.dumps", "logpair.jsonio", "dumps", None),
    ("jsonio.load_model", "logpair.jsonio", "load_model", None),
    ("jsonio.load_graph", "logpair.jsonio", "load_graph", None),
    ("jsonio.load_classes", "logpair.jsonio", "load_classes", None),
    ("lattice.DivisorClass.init", "logpair.lattice",
     "DivisorClass.__init__", None),
    ("lattice.SurfaceModel.intersect", "logpair.lattice",
     "SurfaceModel.intersect", _dims),
    ("linalg.solve_linear", "logpair.linalg", "solve_linear", _matrix_dims),
    ("linalg.is_negative_definite", "logpair.linalg",
     "is_negative_definite", None),
    ("dualgraph.classify_segments", "logpair.dualgraph",
     "classify_segments", None),
    ("peeling.bark", "logpair.peeling", "bark", _segments),
    ("zariski.zariski_decompose", "logpair.zariski", "zariski_decompose",
     _zariski),
    ("zariski.verify_decomposition", "logpair.zariski",
     "verify_decomposition", None),
    ("invariants.log_chern", "logpair.invariants", "log_chern", None),
    ("pencil.analyze_adjoint_system", "logpair.pencil",
     "analyze_adjoint_system", _pencil),
    ("examples.run_example", "logpair.examples", "run_example", None),
    ("search.run_search", "logpair.search", "run_search", _rows),
    ("search.evaluate_constraints", "logpair.search",
     "evaluate_constraints", None),
)

PREFIXES = [t[0] for t in TARGETS]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.note_errors = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            if threading.get_ident() == self._client:
                stack = self._client_stack
            else:
                stack = []
            self._local.stack = stack
            return stack

    def _wrap(self, index: int, fn, note: Optional[Callable]):
        next_id = self._ids.__next__
        record = self.spans.append
        client_stack = self._client_stack
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = client_stack[-1] if client_stack else -1
            sid = next_id()
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter_ns()
                stack.pop()
                record((sid, index, parent, get_ident(), t0, t1, None))
                raise
            t1 = perf_counter_ns()
            stack.pop()
            info = 0
            if note:
                try:
                    info = note(args, result)
                except Exception:
                    # a changed return type must not fail the traced op;
                    # the span then counts as one that returned nothing
                    info = None
                    self.note_errors += 1
            record((sid, index, parent, get_ident(), t0, t1, info))
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == "logpair" or name.startswith("logpair."))]
        for index, (prefix, module, path, note) in enumerate(TARGETS):
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                self.missing.append(prefix)
                continue
            wrapper = self._wrap(index, original, note)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines, one header line first."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "fields": ["id", "target", "parent", "thread", "start_ns",
                           "end_ns", "note"],
                "targets": PREFIXES}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span's own interval (all in ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, _, _, t0, t1, _ in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a finished trace: name -> (value, unit)."""
    spans = tracer.spans
    selfs = self_times(spans)
    n = len(TARGETS)
    calls, total, own = [0] * n, [0] * n, [0] * n
    notes: list[list] = [[] for _ in range(n)]
    for sid, index, _, _, t0, t1, note in spans:
        calls[index] += 1
        total[index] += t1 - t0
        own[index] += selfs[sid]
        notes[index].append(note)
    out: dict[str, tuple[float, str]] = {}
    for index, prefix in enumerate(PREFIXES):
        out[f"{prefix}.calls"] = (calls[index], "count")
        out[f"{prefix}.total_s"] = (total[index] / 1e9, "s")
        out[f"{prefix}.self_s"] = (own[index] / 1e9, "s")

    def returned(prefix):
        i = PREFIXES.index(prefix)
        return [v for v in notes[i] if v is not None], calls[i]

    dims, _ = returned("lattice.SurfaceModel.intersect")
    out["lattice.intersect.dim_mean"] = (_mean(dims), "coords")
    dims, _ = returned("linalg.solve_linear")
    out["linalg.solve_linear.dim_mean"] = (_mean(dims), "coords")
    segs, _ = returned("peeling.bark")
    kept = sum(a for a, _ in segs)
    classified = sum(t for _, t in segs)
    out["peeling.segments"] = (classified, "count")
    out["peeling.admissible_ratio"] = (
        kept / classified if classified else 0.0, "ratio")
    zs, _ = returned("zariski.zariski_decompose")
    out["zariski.rounds_mean"] = (_mean([r for r, _ in zs]), "rounds")
    out["zariski.support_mean"] = (_mean([s for _, s in zs]), "classes")
    found, attempted = returned("pencil.analyze_adjoint_system")
    out["pencil.found_ratio"] = (
        len(found) / attempted if attempted else 0.0, "ratio")
    out["pencil.fixed_parts_mean"] = (_mean(found), "classes")
    rows, _ = returned("search.run_search")
    points = calls[PREFIXES.index("search.evaluate_constraints")]
    out["search.rows_kept_ratio"] = (
        sum(rows) / points if points else 0.0, "ratio")
    out["search.workers"] = (search_workers(tracer), "threads")
    return out


def search_workers(tracer: Tracer) -> int:
    """Most threads that evaluated grid points under one run_search call:
    1 when it evaluated in the calling thread, 0 without a call."""
    run = PREFIXES.index("search.run_search")
    point = PREFIXES.index("search.evaluate_constraints")
    runs = {s[0]: s[3] for s in tracer.spans if s[1] == run}
    threads: dict[int, set] = {sid: set() for sid in runs}
    for _, index, parent, tid, *_ in tracer.spans:
        if index == point and parent in runs and tid != runs[parent]:
            threads[parent].add(tid)
    return max((len(t) or 1 for t in threads.values()), default=0)
