"""Seeded workload mixes for the logpair benchmark.

A workload is a list of ops; each op is one ``logpair`` command line.
Input JSON files are written into a work directory while the mix is
built, so writing them is never timed.  The same (workload, seed) pair
always gives the same argv lists and the same file bytes.

Each mix is stratified: the seed moves where an op sits in its input
space, not how much work the mix holds, so two seeds give mixes of
nearly the same cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("pipeline", "wide")

# ex4 search spans are drawn inside these ranges
G_RANGE = (2, 60)
X_RANGE = (4, 14)
Y_RANGE = (0, 6)

# the ruled family of the wide workload: hirzebruch(e, 4g+4) at x=8, y=1
WIDE_G = (2, 40)
WIDE_X, WIDE_Y = 8, 1
EX3_A = (2, 40)

SEXTIC_CLASS = "6,-2,-2,-2,-2,-2,-2,-2,-2"


@dataclass(frozen=True)
class Op:
    """One CLI command of a mix.

    ``key`` names the op by content (argv with every input file replaced
    by the sha256 of its bytes), so it does not depend on the work
    directory.  ``model`` is ("p2_blowup" | "hirzebruch", e) for pencil
    ops, whose fiber the checks re-derive.
    """
    kind: str
    argv: tuple
    key: str
    model: Optional[tuple] = None


class Inputs:
    """Writes input files into a work directory and builds ops over them."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0
        self.hashes: dict[str, str] = {}

    def write(self, doc) -> str:
        data = (json.dumps(doc, sort_keys=True) + "\n").encode()
        path = os.path.join(self.workdir, f"in{self.count:05d}.json")
        self.count += 1
        with open(path, "wb") as fh:
            fh.write(data)
        self.hashes[path] = hashlib.sha256(data).hexdigest()
        return path

    def existing(self, path: str) -> str:
        with open(path, "rb") as fh:
            self.hashes[path] = hashlib.sha256(fh.read()).hexdigest()
        return path

    def op(self, kind: str, argv: list, model: Optional[tuple] = None) -> Op:
        named = ["@" + self.hashes[a] if a in self.hashes else a
                 for a in argv]
        key = hashlib.sha256(json.dumps(named).encode()).hexdigest()[:32]
        return Op(kind, tuple(argv), key, model)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# -- search grids ----------------------------------------------------------


def grid_points(g_span, x_span, y_span) -> int:
    """Grid points `search ex4` evaluates: sum over g of (g+1) e-values."""
    gs = sum(g + 1 for g in range(g_span[0], g_span[1] + 1))
    return (gs * (x_span[1] - x_span[0] + 1)
            * (y_span[1] - y_span[0] + 1))


def search_points(op: Op) -> int:
    """Grid points of a `search ex4 --g .. --x .. --y ..` op."""
    return grid_points(*[tuple(map(int, op.argv[i].split(":")))
                         for i in (3, 5, 7)])


def _grid_span(rng: random.Random, target: float):
    """Seeded spans whose point count is within 5% of `target`."""
    for _ in range(100000):
        nx = rng.randint(1, X_RANGE[1] - X_RANGE[0] + 1)
        ny = rng.randint(1, Y_RANGE[1] - Y_RANGE[0] + 1)
        x_lo = rng.randint(X_RANGE[0], X_RANGE[1] - nx + 1)
        y_lo = rng.randint(Y_RANGE[0], Y_RANGE[1] - ny + 1)
        need = target / (nx * ny)
        g_lo = rng.randint(*G_RANGE)
        g, total = g_lo, 0
        while g <= G_RANGE[1] and total < need * 0.97:
            total += g + 1
            g += 1
        spans = ((g_lo, g - 1), (x_lo, x_lo + nx - 1), (y_lo, y_lo + ny - 1))
        if abs(grid_points(*spans) / target - 1) <= 0.05:
            return spans
    raise RuntimeError(f"no grid span near {target:.0f} points")


def search_op(inputs: Inputs, spans) -> Op:
    g, x, y = spans
    return inputs.op("search", ["search", "ex4", "--g", f"{g[0]}:{g[1]}",
                                "--x", f"{x[0]}:{x[1]}",
                                "--y", f"{y[0]}:{y[1]}"])


# -- pipeline --------------------------------------------------------------


def _chain_graph(rng: random.Random, tag: str, length: int,
                 minus_one: bool = False) -> tuple[list, list]:
    selfs = [rng.randint(-5, -2) for _ in range(length)]
    if minus_one:
        selfs[rng.randrange(length)] = -1
    vertices = [{"id": f"{tag}{i}", "genus": 0, "self": s}
                for i, s in enumerate(selfs)]
    edges = [{"u": f"{tag}{i}", "v": f"{tag}{i + 1}"}
             for i in range(length - 1)]
    return vertices, edges


def _star_graph(rng: random.Random, center_genus: int, arm_lengths,
                selfs) -> dict:
    vertices = [{"id": "X", "genus": center_genus, "self": rng.choice(selfs)}]
    edges = []
    for a, length in enumerate(arm_lengths):
        prev = "X"
        for i in range(length):
            vid = f"A{a}v{i}"
            vertices.append({"id": vid, "genus": 0,
                             "self": rng.choice(selfs)})
            edges.append({"u": prev, "v": vid})
            prev = vid
    return {"vertices": vertices, "edges": edges}


def random_graph(rng: random.Random, shape: str) -> dict:
    """A peel input: rods (one or two chain components, sometimes with
    a (-1) curve), twigs (arms off a genus-1 hub), or a fork (a
    rational three-armed star; many -2 weights make some of them
    inadmissible, so the `excluded` path runs)."""
    if shape == "rods":
        vertices, edges = _chain_graph(rng, "R", rng.randint(1, 6),
                                       minus_one=rng.random() < 0.2)
        if rng.random() < 0.5:
            v2, e2 = _chain_graph(rng, "S", rng.randint(1, 4))
            vertices, edges = vertices + v2, edges + e2
        return {"vertices": vertices, "edges": edges}
    if shape == "twigs":
        arms = [rng.randint(1, 4) for _ in range(3)]
        return _star_graph(rng, 1, arms, [-2, -3, -4, -5])
    arms = [rng.randint(1, 3) for _ in range(3)]
    return _star_graph(rng, 0, arms, [-2, -2, -2, -3, -4])


def random_zariski(rng: random.Random) -> tuple[int, list, list]:
    """(points n <= 8, class, candidate pool) on a plane blow-up; the
    pool mixes exceptional curves, lines through two or three points and
    conics through five; some draws need a second round, and some are
    not decomposable over their pool."""
    n = rng.randint(1, 8)
    x = [rng.randint(0, 3)] + [rng.randint(-3, 3) for _ in range(n)]

    def plane(degree, through):
        return [degree] + [-1 if i in through else 0 for i in range(n)]

    pool = [[0] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for k in (2, 3):
        if n >= k:
            for _ in range(3):
                line = plane(1, set(rng.sample(range(n), k)))
                if line not in pool:
                    pool.append(line)
    if n >= 5:
        pool.append(plane(2, set(rng.sample(range(n), 5))))
    rng.shuffle(pool)
    return n, x, pool[:rng.randint(1, min(8, len(pool)))]


def _pipeline(rng: random.Random, inputs: Inputs, root: str) -> list[Op]:
    ops = []
    for shape in ("rods", "twigs", "fork"):
        for _ in range(40):
            path = inputs.write(random_graph(rng, shape))
            ops.append(inputs.op("peel", ["peel", path]))
    for _ in range(100):
        n, x, pool = random_zariski(rng)
        model = inputs.write({"kind": "p2_blowup", "points": n})
        cands = inputs.write(pool)
        ops.append(inputs.op("zariski", ["zariski", model, "--class", _csv(x),
                                         "--candidates", cands]))
    fixtures = os.path.join(root, "fixtures")
    model = inputs.existing(os.path.join(fixtures, "sextic_model.json"))
    graph = inputs.existing(os.path.join(fixtures, "sextic_graph.json"))
    cands = inputs.existing(os.path.join(fixtures, "sextic_candidates.json"))
    for _ in range(20):
        ops.append(inputs.op("invariants", ["invariants", model, graph,
                                            "--class", SEXTIC_CLASS]))
        ops.append(inputs.op("pencil", ["pencil", model, "--divisor",
                                        SEXTIC_CLASS, "--candidates", cands],
                             model=("p2_blowup", 0)))
    # ten small grids, log-spaced over 1e2..3e2 points, on the default
    # thread pool; few enough that the 90th latency percentile stays on
    # the other ops
    for i in range(10):
        ops.append(search_op(inputs, _grid_span(rng, 100 * 3 ** (i / 9))))
    for _ in range(10):
        ops.append(inputs.op("example", ["example", "run", "ex2"]))
    for _ in range(6):
        for a in range(2, 7):
            ops.append(inputs.op("example",
                                 ["example", "run", "ex3", "--a", str(a)]))
    rng.shuffle(ops)
    return ops


# -- wide ------------------------------------------------------------------


def ruled_pencil_op(inputs: Inputs, g: int, e: int) -> Op:
    """`pencil` on hirzebruch(e, 4g+4) with the ex4 boundary at x=8, y=1
    and its fixed-part candidate (x-4) Dinf + (y+e-a-2) Gamma."""
    n = 4 * g + 4
    a = g + 1 - e
    model = inputs.write({"kind": "hirzebruch", "e": e, "points": n})
    cands = inputs.write([[WIDE_X - 4, WIDE_Y + e - a - 2] + [0] * n])
    divisor = _csv([WIDE_X, WIDE_Y] + [-2] * n)
    return inputs.op("pencil", ["pencil", model, "--divisor", divisor,
                                "--candidates", cands],
                     model=("hirzebruch", e))


def ex3_op(inputs: Inputs, a: int) -> Op:
    return inputs.op("example", ["example", "run", "ex3", "--a", str(a)])


def _wide(rng: random.Random, inputs: Inputs) -> list[Op]:
    ops = []
    for g in range(WIDE_G[0], WIDE_G[1] + 1):
        for _ in range(2):
            ops.append(ruled_pencil_op(inputs, g, rng.randint(0, g)))
    for lo in range(EX3_A[0], EX3_A[1] + 1, 2):
        bucket = list(range(lo, min(lo + 1, EX3_A[1]) + 1))
        for _ in range(2):
            ops.append(ex3_op(inputs, rng.choice(bucket)))
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, workdir: str, root: str) -> list[Op]:
    """The seeded mix of `workload`, with its inputs written to `workdir`."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs(workdir)
    if workload == "pipeline":
        return _pipeline(rng, inputs, root)
    if workload == "wide":
        return _wide(rng, inputs)
    raise ValueError(f"unknown workload {workload!r}")
