"""Canonical JSON interchange.

Exact rationals never pass through floats: integers serialize as JSON
numbers, everything else as "p/q" in lowest terms with positive q.
Result dataclasses serialize field by field through `to_jsonable`.
Emission is canonical (sorted keys, two-space indent, trailing
newline) so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields, is_dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Mapping, Optional, Sequence

from .dualgraph import DualGraph, Edge, Vertex
from .errors import InputError
from .lattice import RATIONAL_RE, DivisorClass, SurfaceModel, parse_rational

_INTEGER_RE = re.compile(r"[+-]?\d+")

# largest model file accepted: room for the 1,997 points that
# `example run ex3 --a 500` builds
MAX_MODEL_POINTS = 2_000

# largest candidate file accepted: four times the largest bundled or
# benchmark pool.  `zariski` may absorb one class per round, so its cost
# grows with the cube of the count: a 32-root chain on a model of
# MAX_MODEL_POINTS points takes about 2 s.
MAX_CANDIDATES = 32


def encode_rational(v: Fraction):
    if v.denominator == 1:
        return int(v)
    return f"{v.numerator}/{v.denominator}"


def _encode_class(c: DivisorClass) -> list:
    den = c.den
    if den == 1:
        return list(c.nums)
    out = []
    for n in c.nums:
        g = gcd(n, den)
        out.append(n // g if g == den else f"{n // g}/{den // g}")
    return out


def to_jsonable(obj) -> Any:
    if isinstance(obj, Fraction):
        return encode_rational(obj)
    if isinstance(obj, DivisorClass):
        return _encode_class(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, Mapping):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise InputError("JSON object keys must be strings")
            out[k] = to_jsonable(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        # a field serializes under its own name unless its metadata
        # carries a "json" key
        return {f.metadata.get("json", f.name):
                to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, float):
        raise InputError("floating point values cannot be serialized")
    raise InputError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _reject_float(s: str):
    raise InputError(f"floating point literal {s!r} in input; use p/q")


def _parse_coefficient(v):
    """parse_rational, except that integers stay ints, which keeps the
    class constructor on its all-integer path."""
    if type(v) is int:
        return v
    if isinstance(v, str) and _INTEGER_RE.fullmatch(v):
        return int(v)
    return parse_rational(v)


def parse_class(data, model: Optional[SurfaceModel] = None) -> DivisorClass:
    if not isinstance(data, Sequence) or isinstance(data, str):
        raise InputError("a divisor class must be an array of rationals")
    c = DivisorClass([_parse_coefficient(v) for v in data])
    if model is not None and len(c) != model.basis_size:
        raise InputError(
            f"class length {len(c)} does not match the model basis "
            f"size {model.basis_size}")
    return c


def parse_class_arg(text: str,
                    model: Optional[SurfaceModel] = None) -> DivisorClass:
    """Comma-separated coefficients from the command line, e.g.
    '3,-1,-1' or '1,1/2'."""
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise InputError("empty class vector")
    return parse_class(parts, model)


def _is_int(v) -> bool:
    """JSON integers only: booleans are ints to Python but not here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _points(data: Mapping, kind: str) -> int:
    points = data.get("points")
    if not _is_int(points) or points < 0:
        raise InputError(f"{kind} needs integer points >= 0")
    if points > MAX_MODEL_POINTS:
        raise InputError(
            f"model has {points} points; the limit is {MAX_MODEL_POINTS}")
    return points


def parse_model(data) -> SurfaceModel:
    if not isinstance(data, Mapping):
        raise InputError("model JSON must be an object")
    kind = data.get("kind")
    if kind == "p2_blowup":
        return SurfaceModel.plane_blowup(_points(data, kind))
    if kind == "hirzebruch":
        e = data.get("e")
        if not _is_int(e) or e < 0:
            raise InputError("hirzebruch needs integer e >= 0")
        return SurfaceModel.hirzebruch(e, _points(data, kind))
    if kind == "custom":
        gram = data.get("gram")
        if not isinstance(gram, list) or not gram:
            raise InputError("custom model needs a nonempty gram matrix")
        rows = [[parse_rational(v) for v in row] for row in gram]
        return SurfaceModel.custom(rows)
    raise InputError(
        f"unknown model kind {kind!r}; expected p2_blowup, hirzebruch "
        "or custom")


def load_model(path: str) -> SurfaceModel:
    return parse_model(_load_json(path))


def parse_graph(data) -> DualGraph:
    if not isinstance(data, Mapping):
        raise InputError("graph JSON must be an object")
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise InputError("graph JSON needs a nonempty vertices array")
    vertices = []
    vertex_classes = {}
    for rv in raw_vertices:
        if not isinstance(rv, Mapping):
            raise InputError("each vertex must be an object")
        vid = rv.get("id")
        if not isinstance(vid, str) or not vid:
            raise InputError("each vertex needs a nonempty string id")
        genus = rv.get("genus", 0)
        if not _is_int(genus):
            raise InputError(f"vertex {vid}: genus must be an integer")
        if "self" not in rv:
            raise InputError(f"vertex {vid}: missing self-intersection")
        self_int = parse_rational(rv["self"])
        if self_int.denominator != 1:
            raise InputError(
                f"vertex {vid}: self-intersection must be an integer")
        vertices.append(Vertex(vid, genus, int(self_int)))
        if "class" in rv:
            vertex_classes[vid] = rv["class"]
    edges = []
    for re_ in data.get("edges", []):
        if not isinstance(re_, Mapping):
            raise InputError("each edge must be an object")
        u, v = re_.get("u"), re_.get("v")
        if not isinstance(u, str) or not isinstance(v, str):
            raise InputError("each edge needs string endpoints u and v")
        mult = re_.get("mult", 1)
        if not _is_int(mult) or mult < 1:
            raise InputError(f"edge {u}-{v}: mult must be an integer >= 1")
        edges.append(Edge(u, v, mult))
    model = None
    class_map = None
    if "model" in data:
        model = parse_model(data["model"])
        raw_classes = data.get("classes")
        if raw_classes is not None:
            if not isinstance(raw_classes, Mapping):
                raise InputError("classes must map vertex ids to arrays")
            merged = dict(vertex_classes)
            merged.update(raw_classes)
        else:
            merged = vertex_classes
        if merged:
            class_map = {k: parse_class(v, model)
                         for k, v in merged.items()}
    elif "classes" in data or vertex_classes:
        raise InputError("classes require a model in the same file")
    return DualGraph(vertices, edges, model=model, class_map=class_map)


def load_graph(path: str) -> DualGraph:
    return parse_graph(_load_json(path))


def load_classes(path: str,
                 model: Optional[SurfaceModel] = None) -> list[DivisorClass]:
    data = _load_json(path)
    if isinstance(data, Mapping):
        data = data.get("candidates")
    if not isinstance(data, list):
        raise InputError(
            f"{path}: expected an array of classes or an object with a "
            "candidates array")
    if len(data) > MAX_CANDIDATES:
        raise InputError(
            f"{path} has {len(data)} classes; the limit is {MAX_CANDIDATES}")
    return [parse_class(item, model) for item in data]


def sha256_file(path: str) -> str:
    import hashlib  # only --manifest hashes, so start-up skips it
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(65536), b""):
                h.update(block)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return h.hexdigest()


def run_manifest(command: Sequence[str], input_paths: Sequence[str],
                 output_text: str, version: str) -> dict:
    import hashlib
    return {
        "command": list(command),
        "inputs": {p: sha256_file(p) for p in input_paths},
        "artifact_version": version,
        "output_sha256": hashlib.sha256(
            output_text.encode("utf-8")).hexdigest(),
    }


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> str:
    """Aligned plain-text table of string cells; numeric-looking cells
    right-align."""
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise InputError("table row width mismatch")
        for i, v in enumerate(row):
            widths[i] = max(widths[i], len(v))

    def is_num(s: str) -> bool:
        return bool(RATIONAL_RE.fullmatch(s))

    lines = ["  ".join(h.ljust(widths[i])
                       for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        out = []
        for i, v in enumerate(row):
            out.append(v.rjust(widths[i]) if is_num(v) else v.ljust(widths[i]))
        lines.append("  ".join(out).rstrip())
    return "\n".join(lines) + "\n"
