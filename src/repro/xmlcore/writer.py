"""Namespace-aware XML serializer.

Produces either compact or pretty-printed output.  Prefixes are assigned
per element subtree: an element's ``prefix_hint`` is honoured when
possible (so WSDLs can reproduce the conventional ``wsdl:``, ``xsd:``,
``soap:`` and .NET's ``s:`` prefixes), otherwise ``ns0``, ``ns1``, … are
generated.
"""

from __future__ import annotations

import re

from repro.xmlcore.errors import XmlWriteError
from repro.xmlcore.model import Document, Element
from repro.xmlcore.names import XML_NS

_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"}
)
_NAME_FORBIDDEN = re.compile("[ <>&\"']")


def escape_text(value):
    """Escape character data for element content."""
    return value.translate(_TEXT_ESCAPES)


def escape_attribute(value):
    """Escape character data for a double-quoted attribute value."""
    return value.translate(_ATTR_ESCAPES)


def _validate_name(local):
    if not local or local[0].isdigit() or _NAME_FORBIDDEN.search(local):
        raise XmlWriteError(f"invalid XML name: {local!r}")


class _PrefixAllocator:
    """Allocates stable, non-colliding prefixes for namespace URIs."""

    def __init__(self):
        self._counter = 0
        self._taken = {"xml", "xmlns"}

    def mark_taken(self, prefix):
        if prefix:
            self._taken.add(prefix)

    def allocate(self, uri, hint):
        if uri == XML_NS:
            return "xml"
        if hint and hint not in self._taken:
            self._taken.add(hint)
            return hint
        while True:
            prefix = f"ns{self._counter}"
            self._counter += 1
            if prefix not in self._taken:
                self._taken.add(prefix)
                return prefix


def serialize(root, pretty=True, xml_declaration=True):
    """Serialize an :class:`Element` tree to a string."""
    if not isinstance(root, Element):
        raise XmlWriteError(f"expected Element, got {type(root).__name__}")
    parts = []
    if xml_declaration:
        parts.append('<?xml version="1.0" encoding="UTF-8"?>')
        if pretty:
            parts.append("\n")
    allocator = _PrefixAllocator()
    _write_element(parts, root, {XML_NS: "xml"}, allocator, 0, pretty)
    if pretty:
        parts.append("\n")
    return "".join(parts)


def serialize_document(document, pretty=True):
    """Serialize a :class:`Document` (prolog + root element)."""
    if not isinstance(document, Document):
        raise XmlWriteError(f"expected Document, got {type(document).__name__}")
    return serialize(document.root, pretty=pretty, xml_declaration=True)


def _qualify(name, scope, allocator, new_declarations, hint=None):
    """Return the serialized form of ``name``, declaring namespaces as needed."""
    _validate_name(name.local)
    if name.namespace is None:
        return name.local
    prefix = scope.get(name.namespace)
    if prefix is None:
        prefix = allocator.allocate(name.namespace, hint)
        scope[name.namespace] = prefix
        new_declarations.append((prefix, name.namespace))
    if prefix == "":
        return name.local
    return f"{prefix}:{name.local}"


def _write_element(parts, element, scope, allocator, depth, pretty):
    scope = dict(scope)
    new_declarations = []

    # Explicit namespace declarations (attributes named ``xmlns`` or
    # ``xmlns:foo`` in no namespace) take effect before qualification, so
    # builders can pin the prefixes used inside QName-valued attribute
    # values like ``type="xsd:string"``.
    explicit = []
    for attr_name, attr_value in element.attributes.items():
        if attr_name.namespace is None and (
            attr_name.local == "xmlns" or attr_name.local.startswith("xmlns:")
        ):
            prefix = "" if attr_name.local == "xmlns" else attr_name.local[6:]
            scope[str(attr_value)] = prefix
            allocator.mark_taken(prefix)
            explicit.append((attr_name.local, str(attr_value)))

    tag = _qualify(element.name, scope, allocator, new_declarations, element.prefix_hint)

    parts.append("<")
    parts.append(tag)

    attr_parts = []
    for attr_name, attr_value in element.attributes.items():
        if attr_name.namespace is None and (
            attr_name.local == "xmlns" or attr_name.local.startswith("xmlns:")
        ):
            continue
        rendered = _qualify(attr_name, scope, allocator, new_declarations)
        attr_parts.append(f'{rendered}="{escape_attribute(str(attr_value))}"')
    for local, uri in explicit:
        parts.append(f' {local}="{escape_attribute(uri)}"')

    for prefix, uri in new_declarations:
        if prefix == "":
            parts.append(f' xmlns="{escape_attribute(uri)}"')
        else:
            parts.append(f' xmlns:{prefix}="{escape_attribute(uri)}"')
    for rendered in attr_parts:
        parts.append(" ")
        parts.append(rendered)

    if not element.content:
        parts.append("/>")
        return

    parts.append(">")
    has_child_elements = any(isinstance(item, Element) for item in element.content)
    has_text = any(isinstance(item, str) and item.strip() for item in element.content)
    indent_children = pretty and has_child_elements and not has_text

    for item in element.content:
        if isinstance(item, str):
            if indent_children and not item.strip():
                continue
            parts.append(escape_text(item))
        else:
            if indent_children:
                parts.append("\n" + "  " * (depth + 1))
            _write_element(parts, item, scope, allocator, depth + 1, pretty)
    if indent_children:
        parts.append("\n" + "  " * depth)
    parts.append(f"</{tag}>")
