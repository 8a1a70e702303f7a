"""Property tests: the writer's escaping and name checks are exact.

``escape_text``/``escape_attribute`` and ``_validate_name`` are checked
against the straightforward per-character definitions over arbitrary
text, lone surrogates included, so serialized documents stay
byte-identical whatever characters a payload carries.
"""

from hypothesis import given, settings, strategies as st

from repro.xmlcore.errors import XmlWriteError
from repro.xmlcore.writer import _validate_name, escape_attribute, escape_text

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}

#: Any code point (surrogates too), with markup characters over-drawn.
any_text = st.text(
    st.one_of(
        st.sampled_from(list("<>&\"' ;#x0")),
        st.characters(exclude_categories=()),
    ),
    max_size=60,
)


def _reference_invalid(local):
    return (
        not local or local[0].isdigit() or any(ch in local for ch in " <>&\"'")
    )


@settings(max_examples=400, deadline=None)
@given(any_text)
def test_escape_text_matches_per_character_mapping(value):
    assert escape_text(value) == "".join(
        _TEXT_ESCAPES.get(ch, ch) for ch in value
    )


@settings(max_examples=400, deadline=None)
@given(any_text)
def test_escape_attribute_matches_per_character_mapping(value):
    assert escape_attribute(value) == "".join(
        _ATTR_ESCAPES.get(ch, ch) for ch in value
    )


@settings(max_examples=400, deadline=None)
@given(st.one_of(any_text, st.sampled_from(["", "1a", "²x", "a b", "a'"])))
def test_validate_name_rejects_exactly_the_invalid_names(local):
    try:
        _validate_name(local)
    except XmlWriteError:
        rejected = True
    else:
        rejected = False
    assert rejected == _reference_invalid(local)
