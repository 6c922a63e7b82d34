"""Canonical JSON interchange.

Exact rationals never pass through floats: integers serialize as JSON
numbers, everything else as "p/q" in lowest terms with positive q.
Result records (NamedTuples) serialize field by field, under the names
of their `_json_names` map where it renames a field.
Emission is canonical (sorted keys, two-space indent, trailing
newline) so identical inputs give byte-identical outputs.

`dumps` is the one definition of a report's JSON shape.  It writes the
text in one walk over the records, `Fraction`s and `DivisorClass`es,
with strings escaped by `json`'s own ASCII encoder; `--format table`
renders the parsed text.  A report that merges a record's fields into
a block of its own takes them from `record_fields`, the step `dumps`
uses for every record.  The byte contract, `json.dumps` of a reference
tree with sorted keys and an indent of two, lives in
tests/test_emit.py.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Mapping, Sequence

from .dualgraph import DualGraph, Edge, Vertex
from .errors import InputError
from .lattice import RATIONAL_RE, DivisorClass, SurfaceModel, parse_rational

# largest model file accepted: room for the 1,997 points that
# `example run ex3 --a 500` builds
MAX_MODEL_POINTS = 2_000

# largest custom Gram matrix accepted, in rows and in entries per row;
# parsing and checking a full one takes about 0.3 s
MAX_GRAM_ROWS = 256

# largest dual graph accepted, in vertices: every Gram solved is that of
# a chain or a three-branch star, which the elimination works through in
# about the square of its size, so a rod at the limit peels in about
# 0.05 s; with a class on every vertex of a MAX_MODEL_POINTS model the
# graph loads in about 0.2 s
MAX_GRAPH_VERTICES = 256

# largest candidate file accepted: four times the largest bundled or
# benchmark pool.  `zariski` may absorb one class per round and solves
# the support again each round, so its cost can grow with the fourth
# power of the count.  The worst case measured at the cap, a 32-root chain
# on a model of MAX_MODEL_POINTS points (32 rounds), takes about 0.04 s
# to decompose and 0.17 s as a whole `zariski` command.
MAX_CANDIDATES = 32


def record_fields(record, omit: Sequence[str] = ()) -> dict:
    """A record's fields but those named in `omit`, keyed by JSON name:
    a field keeps its own name unless the class's `_json_names` renames
    it.  The values are left as they are."""
    names = getattr(record, "_json_names", {})
    return {names.get(f, f): v for f, v in zip(record._fields, record)
            if f not in omit}


def _emit(obj, indent: str) -> str:
    """The canonical text of obj whose last line starts at `indent`.
    Object members are emitted in sorted key order; a fault is reported
    for the first member, in insertion order, that has one.  The type
    tests are ordered by cost; the types they separate are disjoint."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, DivisorClass):
        den = obj.den
        return _block("[]", [_rational(n, den) for n in obj.nums], indent)
    if isinstance(obj, Fraction):
        return _rational(obj.numerator, obj.denominator)
    inner = indent + "  "
    if isinstance(obj, dict):
        members = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise InputError("JSON object keys must be strings")
            members[k] = _emit(v, inner)
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        # a record, tested before plain tuples
        members = {k: _emit(v, inner)
                   for k, v in record_fields(obj).items()}
    elif isinstance(obj, (list, tuple)):
        return _block("[]", [_emit(v, inner) for v in obj], indent)
    elif isinstance(obj, float):
        raise InputError("floating point values cannot be serialized")
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
    return _block("{}", [f"{encode_basestring_ascii(k)}: {v}"
                         for k, v in sorted(members.items())], indent)


def _rational(num: int, den: int) -> str:
    """The JSON text of num/den for den > 0: a bare integer, or a "p/q"
    string in lowest terms, which needs no escaping."""
    if den == 1:
        return f"{num}"
    g = gcd(num, den)
    if g == den:
        return f"{num // g}"
    return f'"{num // g}/{den // g}"'


def _block(brackets: str, items: list, indent: str) -> str:
    """Items one per line, indented one level below `indent`."""
    if not items:
        return brackets
    inner = indent + "  "
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{indent}{brackets[1]}")


def dumps(obj) -> str:
    try:
        return _emit(obj, "") + "\n"
    except ValueError:  # an int past the limit of its conversion to text
        raise InputError("the report holds a number of more than "
                         f"{sys.get_int_max_str_digits():,} digits")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # JSON text is UTF-8, so a file that does not decode is not JSON
        raise InputError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to read")
    except ValueError:  # json.load's last: an integer of too many digits
        raise InputError(f"{path} holds an integer with too many digits")


def _reject_float(s: str):
    raise InputError(f"floating point literal {s!r} in input; use p/q")


def parse_class(data, model: SurfaceModel) -> DivisorClass:
    if not isinstance(data, Sequence) or isinstance(data, str):
        raise InputError("a divisor class must be an array of rationals")
    return model.divisor(data)


def parse_class_arg(text: str, model: SurfaceModel) -> DivisorClass:
    """Comma-separated coefficients from the command line, e.g.
    '3,-1,-1' or '1,1/2'."""
    parts = text.split(",")
    if parts == [""]:
        raise InputError("empty class vector")
    return parse_class(parts, model)


def _points(data: Mapping, kind: str) -> int:
    points = data.get("points")
    if type(points) is not int or points < 0:
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
        if type(e) is not int or e < 0:
            raise InputError("hirzebruch needs integer e >= 0")
        return SurfaceModel.hirzebruch(e, _points(data, kind))
    if kind == "custom":
        gram = data.get("gram")
        if (not isinstance(gram, list) or not gram
                or not all(isinstance(row, list) for row in gram)):
            raise InputError("custom model needs a nonempty gram matrix "
                             "of rows")
        size = max(len(gram), *map(len, gram))
        if size > MAX_GRAM_ROWS:
            raise InputError(f"gram matrix has a side of {size}; the limit "
                             f"is {MAX_GRAM_ROWS}")
        return SurfaceModel.custom(gram)
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
    if len(raw_vertices) > MAX_GRAPH_VERTICES:
        raise InputError(f"graph has {len(raw_vertices)} vertices; the limit "
                         f"is {MAX_GRAPH_VERTICES}")
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise InputError("graph edges must be an array")
    if "classes" in data:
        raise InputError('a top-level "classes" map is not supported; give '
                         'each vertex its own "class" array')
    vertices = []
    vertex_classes = {}
    for rv in raw_vertices:
        if not isinstance(rv, Mapping):
            raise InputError("each vertex must be an object")
        vid = rv.get("id")
        if not isinstance(vid, str) or not vid:
            raise InputError("each vertex needs a nonempty string id")
        genus = rv.get("genus", 0)
        if type(genus) is not int:
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
    for re_ in raw_edges:
        if not isinstance(re_, Mapping):
            raise InputError("each edge must be an object")
        u, v = re_.get("u"), re_.get("v")
        if not isinstance(u, str) or not isinstance(v, str):
            raise InputError("each edge needs string endpoints u and v")
        mult = re_.get("mult", 1)
        if type(mult) is not int:
            raise InputError(f"edge {u}-{v}: mult must be an integer")
        edges.append(Edge(u, v, mult))
    model = None
    class_map = None
    if "model" in data:
        model = parse_model(data["model"])
        if vertex_classes:
            class_map = {k: parse_class(v, model)
                         for k, v in vertex_classes.items()}
    elif vertex_classes:
        raise InputError("classes require a model in the same file")
    return DualGraph(vertices, edges, model=model, class_map=class_map)


def load_graph(path: str) -> DualGraph:
    return parse_graph(_load_json(path))


def load_classes(path: str, model: SurfaceModel) -> list[DivisorClass]:
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

    lines = ["  ".join(h.ljust(widths[i])
                       for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        out = []
        for i, v in enumerate(row):
            out.append(v.rjust(widths[i]) if RATIONAL_RE.fullmatch(v)
                       else v.ljust(widths[i]))
        lines.append("  ".join(out).rstrip())
    return "\n".join(lines) + "\n"
