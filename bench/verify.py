"""Output checks for benchmark ops.

Two kinds of check feed the failure count:

* exact: the digest of (exit code, stdout) must equal the reference
  digest recorded for the op's content key, when the reference has one.
  `reference.json` holds every op of the default seed plus every op the
  wide workload can draw;
* structural, on every op of every seed: properties that any correct
  output has, re-derived here without calling logpair.

Exit code 1 is a correct outcome only where the input can legitimately
have no answer (NotDecomposableError for zariski, NoPencilError for
pencil); exit code 2, an exception or any other exit 1 is a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
DEFAULT_SEED = 1

# subcommands whose inputs may have no answer, reported as exit 1
EXIT1_KINDS = ("zariski", "pencil")


def digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _q(v) -> Fraction:
    return Fraction(v) if isinstance(v, str) else Fraction(int(v))


def _pairing(model: tuple, a: list, b: list) -> Fraction:
    kind, e = model
    if kind == "p2_blowup":
        head = a[0] * b[0]
        tail = range(1, len(a))
    else:
        head = e * a[0] * b[0] + a[0] * b[1] + a[1] * b[0]
        tail = range(2, len(a))
    return head - sum(a[i] * b[i] for i in tail)


def _canonical(model: tuple, size: int) -> list:
    kind, e = model
    if kind == "p2_blowup":
        return [-3] + [1] * (size - 1)
    return [-2, e - 2] + [1] * (size - 2)


def _check_pencil(doc: dict, model: tuple) -> list[str]:
    fiber = [_q(v) for v in doc["fiber"]]
    square = _pairing(model, fiber, fiber)
    if square != 0:
        return [f"fiber square is {square}, not 0"]
    genus = _pairing(model, fiber, _canonical(model, len(fiber))) / 2 + 1
    if genus.denominator != 1:
        return [f"fiber genus {genus} is not an integer"]
    if genus != doc["g"]:
        return [f"fiber genus {genus} differs from reported g={doc['g']}"]
    return []


def _check_peel(doc: dict) -> list[str]:
    bad = [v for v in doc["coefficients"].values() if not 0 < _q(v) <= 1]
    problems = [f"bark coefficient {v} outside (0, 1]" for v in bad]
    if doc["bound_ok"] is not True:
        problems.append("bound_ok is false")
    return problems


def structural(op, stdout: str) -> list[str]:
    """Properties of a successful op's JSON output."""
    doc = json.loads(stdout)
    if op.kind == "peel":
        return _check_peel(doc)
    if op.kind == "zariski":
        return [] if doc["checks"]["all_ok"] is True else ["all_ok is false"]
    if op.kind == "pencil":
        return _check_pencil(doc, op.model)
    if op.kind == "invariants":
        return [] if doc["checks"]["noether"] is True else ["noether fails"]
    if op.kind == "example":
        return [] if doc["noether_holds"] is True else ["noether fails"]
    if op.kind == "search":
        if doc["row_count"] != len(doc["rows"]):
            return [f"row_count {doc['row_count']} != {len(doc['rows'])} rows"]
        return []
    return [f"no check for op kind {op.kind!r}"]


def check(op, code, stdout: str, stderr: str, reference: dict) -> list[str]:
    """Every problem with one op's outcome; empty when it is correct.
    `code` is None when the call raised."""
    if code is None:
        return ["raised: " + stderr.strip().splitlines()[-1]]
    problems = []
    want = reference.get(op.key)
    if want is not None and want != digest(code, stdout):
        problems.append("output differs from the reference digest")
    if code == 0:
        try:
            problems += structural(op, stdout)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"malformed output: {exc!r}")
    elif not (code == 1 and op.kind in EXIT1_KINDS
              and stderr.startswith("error: ")):
        problems.append(f"exit {code}: {stderr.strip()[:200]}")
    return problems
