"""The byte contract of `dumps`, against a two-pass reference.

`dumps` is the package's one JSON walker.  `to_jsonable` below is the
reference: it builds the plain tree a report stands for, and
`dumps(x)` must give exactly the text of
`json.dumps(to_jsonable(x), sort_keys=True, indent=2) + "\\n"`.  An
input that cannot be serialized must raise the same `InputError` text
as `to_jsonable` does on it.  The values are nested dicts, lists,
tuples and records (with and without `_json_names`) of `Fraction`,
`DivisorClass`, bool, int, None and strings with quotes, backslashes,
control and non-ASCII characters, drawn twice: by a seeded
`random.Random`, which always runs, and by hypothesis, derandomized,
when it is installed.  The error draws also hold floats, non-string
keys and values of unknown types.
"""

import json
import random
from fractions import Fraction
from typing import Mapping, NamedTuple

import pytest

from logpair import DivisorClass, InputError, ZariskiDecomposition
from logpair.jsonio import dumps, encode_rational


def to_jsonable(obj):
    """The plain tree of ints, strings, lists and dicts that obj
    serializes as, raising the InputError that `dumps` must raise."""
    if isinstance(obj, Fraction):
        return encode_rational(obj)
    if isinstance(obj, DivisorClass):
        return [encode_rational(Fraction(n, obj.den)) for n in obj.nums]
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
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        # a record, tested before plain tuples: a field serializes under
        # its own name unless the class's _json_names renames it
        names = getattr(obj, "_json_names", {})
        return {names.get(f, f): to_jsonable(v)
                for f, v in zip(obj._fields, obj)}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float):
        raise InputError("floating point values cannot be serialized")
    raise InputError(f"cannot serialize {type(obj).__name__}")


class Pair(NamedTuple):
    left: object
    right: object


class Renamed(NamedTuple):
    cls: object
    plain: object
    other: object = None

    _json_names = {"cls": "class", "other": "Other"}


def reference(x) -> str:
    return json.dumps(to_jsonable(x), sort_keys=True, indent=2) + "\n"


def outcome(emit, x):
    try:
        return emit(x)
    except InputError as exc:
        return ("InputError", str(exc))


# characters JSON escapes or spells as \u: quotes, backslash, controls,
# DEL, Latin-1, a line separator, BMP and astral code points
CHARS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028",
         "€", "\U0001f600", "a", "B", "z", "0", " ", "/"]
ODD = [b"bytes", {1, 2}, frozenset(), object(), complex(1, 2), range(3),
       Ellipsis]


def random_text(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 6)))


def random_leaf(rng, bad):
    kind = rng.randrange(12 if bad else 9)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice((True, False))
    if kind == 2:
        return rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30))
    if kind == 3:
        return random_text(rng)
    if kind in (4, 5):
        return Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    if kind == 6:
        return DivisorClass([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                             for _ in range(rng.randint(0, 5))])
    if kind == 7:
        return [] if rng.random() < 0.5 else {}
    if kind == 8:
        return ()
    if kind == 9:
        return rng.choice((1.5, -0.0, float("inf"), 2.0))
    if kind == 10:
        return rng.choice(ODD)
    return {rng.choice((1, None, (1,), 2.5)): None}


def random_value(rng, depth, bad=False):
    if depth == 0 or rng.random() < 0.3:
        return random_leaf(rng, bad)
    kids = [random_value(rng, depth - 1, bad)
            for _ in range(rng.randint(0, 4))]
    kind = rng.randrange(6)
    if kind == 0:
        return kids
    if kind == 1:
        return tuple(kids)
    if kind == 2:
        return Pair(kids[0] if kids else None, kids)
    if kind == 3:
        return Renamed(*(kids + [None, None])[:3])
    keys = [random_text(rng) for _ in kids]
    if bad and kids and rng.random() < 0.3:
        keys[rng.randrange(len(keys))] = rng.choice((0, True, None, 1.5))
    return dict(zip(keys, kids))


def test_seeded_values_match_the_reference():
    rng = random.Random(1907)
    texts = set()
    for _ in range(600):
        x = random_value(rng, 4)
        got = dumps(x)
        assert got == reference(x)
        texts.add(got)
    assert len(texts) > 400


def test_seeded_bad_values_raise_the_reference_error():
    rng = random.Random(2111)
    seen = set()
    for _ in range(600):
        x = random_value(rng, 4, bad=True)
        want = outcome(reference, x)
        assert outcome(dumps, x) == want
        if isinstance(want, tuple):
            seen.add(want[1].split()[0])
    # floats, non-string keys and unknown types all came up
    assert {"floating", "JSON", "cannot"} <= seen


def test_fixed_values():
    z = ZariskiDecomposition(DivisorClass([1, 0]), DivisorClass([0, 2]),
                             [0], [Fraction(2)], 1)
    for x in [z, Renamed("a", Fraction(1, 3)), {"": [], "a": {}}, (),
              "\"\\\x00é\U0001f600", True, 0, -7, None, Fraction(-4, 6),
              DivisorClass([]), DivisorClass([Fraction(1, 2), 3]),
              {"b": True, "a": 1, "B": [False, None]}, [[[]]], [{}]]:
        assert dumps(x) == reference(x)


@pytest.mark.parametrize("x,message", [
    (1.5, "floating point values cannot be serialized"),
    ({1: 2}, "JSON object keys must be strings"),
    ({"a": [b"x"]}, "cannot serialize bytes"),
    # insertion order decides which of two faults is reported
    ({"b": 1.0, 1: 0}, "floating point values cannot be serialized"),
    ({1: 0, "b": 1.0}, "JSON object keys must be strings"),
    ([Pair({2: 0}, 1.0)], "JSON object keys must be strings"),
    (Renamed(set(), 1.0), "cannot serialize set"),
])
def test_fixed_errors(x, message):
    with pytest.raises(InputError) as want:
        to_jsonable(x)
    assert str(want.value) == message
    with pytest.raises(InputError) as got:
        dumps(x)
    assert str(got.value) == message


def test_hypothesis_values_match_the_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    text = st.text(st.sampled_from(CHARS) | st.characters(), max_size=8)
    fractions = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                          st.integers(1, 10 ** 6))
    good = (st.none() | st.booleans() | st.integers() | text | fractions
            | st.lists(fractions, max_size=6).map(DivisorClass))
    bad = (st.floats() | st.sampled_from(ODD)
           | st.dictionaries(st.integers() | st.none(), st.none(),
                             min_size=1, max_size=2))

    def nest(leaves):
        return st.recursive(leaves, lambda kids: (
            st.lists(kids, max_size=4)
            | st.lists(kids, max_size=4).map(tuple)
            | st.dictionaries(text, kids, max_size=4)
            | st.builds(Pair, kids, kids)
            | st.builds(Renamed, kids, kids, kids)), max_leaves=12)

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(nest(good), nest(good | bad))
    def check(x, y):
        assert dumps(x) == reference(x)
        assert outcome(dumps, y) == outcome(reference, y)

    check()
