import pytest
from hypothesis import given
from hypothesis import strategies as st

from symreduce.jsontext import dumps

from . import oracles

# Characters each with its own escape rule: quote, backslash, the short
# escapes, other controls, DEL, non-ASCII, a lone surrogate and astral
# code points.
_TRICKY = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u2028\ufeff\ud800\udfff\U0001f600\U0010ffff'
_CHARACTERS = st.one_of(st.sampled_from(_TRICKY), st.characters(exclude_categories=()))
_TEXT = st.text(_CHARACTERS, max_size=12)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, 1, -1, True, False]),
    st.integers(min_value=10**30),
    st.integers(max_value=-(10**30)),
    _TEXT,
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_TEXT, children, max_size=5),
    ),
    max_leaves=40,
)


@given(_PAYLOADS)
def test_payloads_match_json_dumps(payload):
    assert dumps(payload) == oracles.json_text(payload)


@given(st.lists(st.sampled_from(["list", "tuple", "dict", "empty"]), max_size=200), _LEAVES)
def test_deep_nesting_matches_json_dumps(shape, leaf):
    payload = leaf
    for kind in reversed(shape):
        wrap = {"list": [payload], "tuple": (payload, 0), "dict": {"k": payload, "": []}, "empty": [{}, payload, []]}
        payload = wrap[kind]
    assert dumps(payload) == oracles.json_text(payload)


def test_every_code_point_matches_json_dumps():
    text = "".join(map(chr, range(0x110000)))
    assert dumps(text) == oracles.json_text(text)


def test_scalars_and_empty_containers():
    assert [dumps(x) for x in (None, True, False, 0, 1, -7, "", [], (), {})] == [
        "null", "true", "false", "0", "1", "-7", '""', "[]", "[]", "{}",
    ]
    assert dumps({"b": [1, {}], "a": ()}) == '{\n  "a": [],\n  "b": [\n    1,\n    {}\n  ]\n}'


@pytest.mark.parametrize(
    "payload",
    [1.0, float("nan"), [0.5], {"a": 1e300}, {1: 2}, {None: 1}, {True: 1}, {"a": 1, 2: 3}, set(), b"", object()],
    # A bare object's repr holds its address, so its case id is spelled out.
    ids=lambda p: "object()" if type(p) is object else repr(p),
)
def test_other_types_raise_type_error(payload):
    with pytest.raises(TypeError):
        dumps(payload)
