"""Round-trip properties of the JSON interchange.

A model written by `describe_model` and read back by `parse_model` is
the same model, for all three kinds, and a class written by `dumps`
and read back by `load_classes` or `parse_class_arg` is the same
class.
The examples come from hypothesis, run derandomized so every run draws
the same ones; without hypothesis the module is skipped.
"""

import json
from fractions import Fraction

import pytest

from logpair import DivisorClass, SurfaceModel
from logpair.jsonio import (MAX_MODEL_POINTS, describe_model, dumps,
                            load_classes, parse_class_arg, parse_model)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, max_examples=80,
                    deadline=None)

RATIONALS = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 36))

# a Gram entry as a model file may spell it: 0 often, an int, or a
# "p" / "p/q" string
GRAM_ENTRIES = st.one_of(st.just(0), st.integers(-9, 9),
                         RATIONALS.map(str))


@st.composite
def custom_grams(draw):
    n = draw(st.integers(1, 8))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(GRAM_ENTRIES)
    return rows


MODELS = st.one_of(
    st.integers(0, MAX_MODEL_POINTS).map(SurfaceModel.plane_blowup),
    st.builds(SurfaceModel.hirzebruch, st.integers(0, 40),
              st.integers(0, MAX_MODEL_POINTS)),
    custom_grams().map(SurfaceModel.custom),
)


@SETTINGS
@given(MODELS)
def test_describe_parse_model_round_trip(model):
    text = dumps(describe_model(model))
    back = parse_model(json.loads(text))
    assert back == model
    assert hash(back) == hash(model)
    assert dumps(describe_model(back)) == text


@SETTINGS
@given(custom_grams(), st.lists(RATIONALS, min_size=8, max_size=8),
       st.lists(RATIONALS, min_size=8, max_size=8))
def test_custom_pairing_survives_round_trip(gram, xs, ys):
    # the integer rows are rebuilt from the file, so pairings agree too
    model = SurfaceModel.custom(gram)
    back = parse_model(json.loads(dumps(describe_model(model))))
    assert back == model
    n = model.basis_size
    a, b = model.divisor(xs[:n]), model.divisor(ys[:n])
    assert back.intersect(a, b) == model.intersect(a, b)


CLASSES = st.lists(RATIONALS, min_size=1, max_size=24).map(DivisorClass)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    # module scope: hypothesis reuses one file across its examples
    return tmp_path_factory.mktemp("classes") / "candidates.json"


# candidates on one model share its basis length
SAME_LENGTH_CLASSES = st.integers(1, 24).flatmap(lambda n: st.lists(
    st.lists(RATIONALS, min_size=n, max_size=n).map(DivisorClass),
    min_size=1, max_size=6))


@SETTINGS
@given(classes=SAME_LENGTH_CLASSES)
def test_dumps_load_classes_round_trip(path, classes):
    model = SurfaceModel.plane_blowup(len(classes[0]) - 1)
    path.write_text(dumps(classes), encoding="utf-8")
    assert load_classes(str(path), model) == classes
    path.write_text(dumps({"candidates": classes}), encoding="utf-8")
    assert load_classes(str(path), model) == classes


@SETTINGS
@given(CLASSES)
def test_dumps_parse_class_arg_round_trip(c):
    text = ",".join(str(v) for v in json.loads(dumps(c)))
    model = SurfaceModel.plane_blowup(len(c) - 1)
    assert parse_class_arg(text, model) == c
