"""The command line's JSON writer gives the bytes of the indented, sorted dump."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from isofib.cli import _JSON_CHUNK, _json_text, _print_json  # noqa: E402

# quotes, backslashes, control characters, non-ASCII and astral text
TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€ \U0001f600'),
                         st.characters()), max_size=8)
# small ones of either sign and 1000-digit ones of either sign
INTEGERS = st.one_of(st.integers(-10**6, 10**6), st.integers(10**999, 10**1000 - 1),
                     st.integers(-(10**1000) + 1, -(10**999)))
VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), INTEGERS, TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20,
)
SHARED = {"type": "III", "multiplicity": 9}


@settings(max_examples=150, deadline=None)
@given(VALUES)
@example([])
@example({"": {}, "a": [[], {}], "b": [[]]})  # empty containers are written inline
# one object held many times, in one list and at several depths
@example([SHARED, [SHARED, SHARED], SHARED, {"a": [SHARED]}, [[SHARED]] * 2, [SHARED] * 3])
def test_the_writer_gives_the_bytes_of_the_indented_sorted_dump(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "one"}, [{"a": 0.0}], {"a": (None,)}])
def test_a_float_a_tuple_or_an_int_key_is_refused(value):
    with pytest.raises(TypeError):
        _json_text(value)


def test_the_printed_text_is_the_dump_across_write_chunks(capsys):
    # a list of n items is 2n + 1 pieces, so this listing spans three writes
    value = {"entries": [SHARED] * (_JSON_CHUNK + 1), "rows": [{"p": p} for p in range(100)]}
    _print_json(value)
    assert capsys.readouterr().out == json.dumps(value, indent=2, sort_keys=True) + "\n"
