"""Unit tests for the XML parser."""

import pytest

from repro.xmlcore import (
    QName,
    XmlLimitError,
    XmlLimits,
    XmlParseError,
    parse,
    parse_document,
)


class TestBasics:
    def test_simple_element(self):
        root = parse("<a/>")
        assert root.name == QName("a")
        assert not root.content

    def test_nested_elements(self):
        root = parse("<a><b><c/></b></a>")
        assert root.children[0].children[0].name.local == "c"

    def test_text_content(self):
        assert parse("<a>hello</a>").text == "hello"

    def test_attributes_double_and_single_quotes(self):
        root = parse("<a x=\"1\" y='2'/>")
        assert root.get("x") == "1"
        assert root.get("y") == "2"

    def test_whitespace_around_equals(self):
        assert parse('<a x = "1"/>').get("x") == "1"

    def test_declaration_parsed(self):
        doc = parse_document('<?xml version="1.1" encoding="latin-1"?><a/>')
        assert doc.version == "1.1"
        assert doc.encoding == "latin-1"

    def test_standalone_parsed(self):
        doc = parse_document('<?xml version="1.0" standalone="yes"?><a/>')
        assert doc.standalone == "yes"

    def test_bom_stripped(self):
        assert parse("﻿<a/>").name.local == "a"

    def test_comments_skipped(self):
        root = parse("<a><!-- note --><b/><!-- end --></a>")
        assert [c.name.local for c in root.children] == ["b"]

    def test_processing_instruction_skipped(self):
        root = parse("<a><?php echo ?><b/></a>")
        assert len(root.children) == 1

    def test_doctype_skipped(self):
        root = parse('<!DOCTYPE html><a/>')
        assert root.name.local == "a"

    def test_cdata_preserved_verbatim(self):
        assert parse("<a><![CDATA[1 < 2 & x]]></a>").text == "1 < 2 & x"


class TestEntities:
    def test_predefined_entities(self):
        assert parse("<a>&lt;&gt;&amp;&quot;&apos;</a>").text == "<>&\"'"

    def test_decimal_char_ref(self):
        assert parse("<a>&#65;</a>").text == "A"

    def test_hex_char_ref(self):
        assert parse("<a>&#x41;</a>").text == "A"

    def test_entity_in_attribute(self):
        assert parse('<a x="a&amp;b"/>').get("x") == "a&b"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a>&nbsp;</a>")


class TestNamespaces:
    def test_default_namespace(self):
        root = parse('<a xmlns="urn:x"><b/></a>')
        assert root.name == QName("urn:x", "a")
        assert root.children[0].name == QName("urn:x", "b")

    def test_prefixed_namespace(self):
        root = parse('<p:a xmlns:p="urn:x"/>')
        assert root.name == QName("urn:x", "a")
        assert root.prefix_hint == "p"

    def test_default_namespace_undeclared(self):
        root = parse('<a xmlns="urn:x"><b xmlns=""/></a>')
        assert root.children[0].name == QName(None, "b")

    def test_inner_redeclaration_shadows(self):
        root = parse('<p:a xmlns:p="urn:x"><p:b xmlns:p="urn:y"/></p:a>')
        assert root.children[0].name == QName("urn:y", "b")

    def test_unprefixed_attribute_has_no_namespace(self):
        root = parse('<a xmlns="urn:x" k="v"/>')
        assert root.get(QName("k")) == "v"

    def test_prefixed_attribute_resolved(self):
        root = parse('<a xmlns:n="urn:n" n:k="v"/>')
        assert root.get(QName("urn:n", "k")) == "v"

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<p:a/>")

    def test_xml_prefix_predeclared(self):
        root = parse('<a xml:lang="en"/>')
        assert root.get(QName("http://www.w3.org/XML/1998/namespace", "lang")) == "en"

    def test_nsscope_recorded(self):
        root = parse('<a xmlns:t="urn:t" type="t:x"/>')
        assert root.resolve_qname_value("t:x") == QName("urn:t", "x")


class TestWellFormedness:
    @pytest.mark.parametrize(
        "text",
        [
            "<a>",  # unterminated
            "<a></b>",  # mismatched tags
            "<a/><b/>",  # two roots
            "<a x=1/>",  # unquoted attribute
            '<a x="1" x="2"/>',  # duplicate attribute
            '<a x="<"/>',  # raw < in attribute value
            "text only",  # no element
            "<a><!-- unterminated </a>",
            "<a><![CDATA[x</a>",
            "",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(XmlParseError):
            parse(text)

    def test_duplicate_attribute_via_prefixes_rejected(self):
        with pytest.raises(XmlParseError):
            parse('<a xmlns:p="urn:x" xmlns:q="urn:x" p:k="1" q:k="2"/>')

    def test_content_after_root_rejected(self):
        with pytest.raises(XmlParseError):
            parse("<a/>junk")

    def test_error_reports_position(self):
        try:
            parse("<a>\n  <b>\n</a>")
        except XmlParseError as exc:
            assert exc.line >= 2
        else:  # pragma: no cover
            pytest.fail("expected XmlParseError")

    def test_trailing_comment_allowed(self):
        assert parse("<a/><!-- bye -->").name.local == "a"


def _nested(depth):
    return "<a>" * depth + "</a>" * depth


def _parse_error(text, limits=None):
    with pytest.raises(XmlParseError) as excinfo:
        parse(text, limits=limits)
    return excinfo.value


class TestLimitOrdering:
    """Budget-vs-well-formedness ordering that fuzz triage depends on."""

    def test_default_depth_boundary(self):
        assert parse(_nested(160)).name.local == "a"
        with pytest.raises(XmlLimitError) as excinfo:
            parse(_nested(161))
        assert excinfo.value.message == "element nesting deeper than 160"
        assert excinfo.value.limit == "max_depth"
        assert excinfo.value.position == 3 * 160

    def test_text_run_of_exactly_max_length_accepted(self):
        limit = XmlLimits().max_text_length
        assert len(parse("<a>" + "x" * limit + "</a>").text) == limit
        with pytest.raises(XmlLimitError) as excinfo:
            parse("<a>" + "x" * (limit + 1) + "</a>")
        assert excinfo.value.limit == "max_text_length"

    def test_attribute_length_checked_before_lt(self):
        limits = XmlLimits(max_text_length=8)
        with pytest.raises(XmlLimitError) as excinfo:
            parse('<a x="0123<5678"/>', limits=limits)
        assert excinfo.value.message == "attribute value longer than 8"
        assert type(_parse_error('<a x="0123<567"/>', limits)) is XmlParseError

    def test_unknown_entity_before_reference_budget_is_parse_error(self):
        text = "<a>" + "&amp;" * 9_999 + "&nbsp;" + "&amp;" * 5 + "</a>"
        error = _parse_error(text)
        assert type(error) is XmlParseError
        assert error.message == "unknown entity &nbsp;"

    def test_reference_past_budget_is_limit_error(self):
        assert parse("<a>" + "&amp;" * 10_000 + "</a>").text == "&" * 10_000
        error = _parse_error("<a>" + "&amp;" * 10_001 + "</a>")
        assert type(error) is XmlLimitError
        assert error.limit == "max_entity_references"

    def test_duplicate_default_namespace_declaration_accepted(self):
        root = parse('<a xmlns="urn:one" xmlns="urn:two"/>')
        assert root.name == QName("urn:two", "a")
