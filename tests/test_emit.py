"""The --json emitter against json.dumps, its oracle."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinfill.cli import encode_json


def oracle(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


# Every character, lone surrogates included, plus the ones that JSON
# escapes or that ASCII output spells as \uXXXX, drawn often.
chars = st.one_of(st.characters(exclude_categories=()),
                  st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\ud800\udfff'
                                  '\xe9\U0001f600'))
texts = st.text(chars, max_size=8)
ints = st.one_of(st.integers(-2**70, 2**70), st.integers(-3, 3))
int_lists = st.lists(st.one_of(ints, st.booleans()), max_size=6)
leaves = st.one_of(texts, ints, st.booleans(), st.none(), int_lists,
                   int_lists.map(tuple))
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=30)


@given(documents)
@settings(max_examples=400, deadline=None)
def test_emitter_equals_json_dumps(doc):
    assert encode_json(doc) == oracle(doc)


@pytest.mark.parametrize("doc", [
    [], {}, (), [[]], {"": {}}, [True, 1, False, 0], [1, None],
    2**64 + 1, -2**64, "\ud800", {" ": [-1, 2**65]},
])
def test_emitter_edge_cases(doc):
    assert encode_json(doc) == oracle(doc)


@pytest.mark.parametrize("doc", [
    1.5, [1, 2.0], {"d": Fraction(1, 2)}, Fraction(3), {1: "a"},
    {"a": {None: 1}}, [{"x": {2: 3}}],
])
def test_emitter_refuses_inexact_values_and_keys(doc):
    with pytest.raises(TypeError):
        encode_json(doc)
