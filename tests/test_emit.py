"""The --json emitter against json.dumps, its oracle."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinfill.cli import _analyze, encode_json
from spinfill.graphs import graph_to_doc
from spinfill.spinc import SpinCClass

from conftest import PD_CODES, banana_graph, two33_graph
from oracles import spinc_rows


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
    # a spin-c record is written only in a list of records
    {"c": SpinCClass((1,), Fraction(1, 2), None)},
    [SpinCClass((1,), Fraction(1, 2), None), 1],
])
def test_emitter_refuses_inexact_values_and_keys(doc):
    with pytest.raises(TypeError):
        encode_json(doc)


@st.composite
def spinc_tables(draw):
    """Spin-c records of one form: rank 1 to 4, with c1 (and so spin)
    when det is odd and a state index on PD input."""
    m = draw(st.integers(1, 4))
    odd, pd = draw(st.booleans()), draw(st.booleans())
    coords = st.lists(ints, min_size=m, max_size=m).map(tuple)
    c1s = st.one_of(coords, st.just((0,) * m))
    ds = st.one_of(st.fractions(max_denominator=60),
                   st.integers(-9, 9).map(Fraction))
    return [SpinCClass(draw(coords), draw(ds), draw(c1s) if odd else None,
                       k if pd else None)
            for k in range(draw(st.integers(0, 4)))]


@given(spinc_tables(), documents)
@settings(max_examples=150, deadline=None)
def test_records_are_written_as_their_rows(table, other):
    report = {"spinc": table, "other": other, "nested": [[table], table]}
    rows = spinc_rows(table)
    assert encode_json(report) == oracle(
        {"spinc": rows, "other": other, "nested": [[rows], rows]})


@pytest.mark.parametrize("kind, doc", [
    ("diagram", {"pd": PD_CODES["trefoil"]}),
    ("diagram", {"pd": PD_CODES["figure_eight"]}),
    ("graph", graph_to_doc(banana_graph(6))),
    ("graph", graph_to_doc(two33_graph())),
])
def test_report_tables_are_written_as_their_rows(kind, doc):
    report = _analyze(doc, kind, with_mk1=True)
    assert report["spinc"] and all(type(c) is SpinCClass
                                   for c in report["spinc"])
    assert encode_json(report) == oracle(
        dict(report, spinc=spinc_rows(report["spinc"])))
