"""Pinned parse verdicts: the language ``xmlcore.parser`` accepts.

The fuzz triage matrices, the benchmark's stored references and every
campaign digest depend on exactly which documents the parser accepts,
which tree it builds for them, and which error (class, message,
position) it raises for the rest.  This test reduces a deterministic
input set to one canonical outcome string per parse and pins the
sha256 of all of them in ``tests/data/parse_verdicts.sha256``.

The input set:

* every WSDL of the quick corpus, as deployed on the three servers;
* the ``WsdlMutator`` mutants of ``wsinterop fuzz --quick --sample 2
  --seed 7``;
* a fixed number of seeded random edits of those documents, aimed at
  the parser's token boundaries.

Every input is parsed under the default :class:`XmlLimits` and under a
tight one, so the order in which budgets and well-formedness are
checked is pinned too.  A changed digest means the accepted language,
a tree or a diagnostic moved; re-pin it only for a deliberate,
documented change of behaviour.
"""

import hashlib
import os
import random

from repro.appservers import container_for
from repro.core.campaign import Campaign, CampaignConfig
from repro.faults.campaign import FuzzCampaign, FuzzCampaignConfig
from repro.faults.corpus import WsdlMutator
from repro.typesystem import QUICK_DOTNET_QUOTAS, QUICK_JAVA_QUOTAS
from repro.xmlcore import Element, XmlLimits, parse_document
from repro.xmlcore.errors import XmlParseError

_PIN = os.path.join(
    os.path.dirname(__file__), "..", "data", "parse_verdicts.sha256"
)

FUZZ_SEED = 7
EDIT_SEED = 20140622
EDITS = 6000
#: Edits are made on documents up to this size, so each parse is cheap.
EDIT_BASE_LIMIT = 20_000
TIGHT_LIMITS = XmlLimits(
    max_depth=12, max_text_length=200, max_entity_references=3
)

#: Fragments that sit on the parser's token boundaries.
_TOKENS = (
    "<", ">", "/", "/>", "</", "&", ";", "=", '"', "'", " ", "\t", "\r",
    "\n", ":", "?", "!", "-", ".", "·", "é", "1", "_", "\x00", "\x0b",
    "￾", "&amp;", "&lt;", "&#65;", "&#x41;", "&#x+41;", "&# 65;",
    "&#xD800;", "&#x110000;", "&bogus;", "&;", "<!--", "-->", "<![CDATA[",
    "]]>", "<![CDATA[]]>", "<?", "?>", "<?pi x?>", "<?xml", "<!DOCTYPE",
    "<!DOCTYPE d [<!ELEMENT d ANY>]>", "xmlns=", 'xmlns=""',
    'xmlns="urn:e"', 'xmlns:p="urn:p"', 'xmlns:p=""', "p:", ":x", "a:b:c",
    ' a="1"', " a='1'", ' p:a="1"', "<x/>", "<x>", "</x>", "<p:x/>",
    "﻿", "&lt;&gt;&amp;&quot;", "&#65;&#66;&#x43;&#68;&bogus;",
    ' a="' + "x" * 240 + '<"', "<![CDATA[" + "y" * 240 + "]]>",
)
#: Single replacement characters: ASCII, plus non-ASCII ones (letters,
#: digits that are not decimal, numerals, a combining mark, separators,
#: noncharacters, a lone surrogate) whose Unicode properties are the same
#: in every supported Python, so the digest does not depend on its
#: Unicode database version.
_CHARS = tuple(map(chr, range(128))) + tuple(
    "é·ßİ中²½Ⅷ\u0300\u00a0\u2028\ufffe\uffff\ud800\U0001f600"
)


def quick_inputs():
    """The quick-corpus WSDLs and the seed-7 fuzz smoke's mutants."""
    base = CampaignConfig(
        java_quotas=QUICK_JAVA_QUOTAS, dotnet_quotas=QUICK_DOTNET_QUOTAS
    )
    fconfig = FuzzCampaignConfig(
        base=base, seed=FUZZ_SEED, sample_per_server=2
    )
    fuzz = FuzzCampaign(fconfig)
    campaign = Campaign(base)
    mutator = WsdlMutator(FUZZ_SEED)
    wsdls, mutants = [], []
    for server_id in base.server_ids:
        container = container_for(server_id)
        container.deploy_corpus(campaign.corpus_for(server_id))
        wsdls.extend(
            record.wsdl_text for record in container.deployed
            if record.wsdl_text
        )
        for record in fuzz._select(container.deployed):
            for kind in fconfig.mutation_kinds:
                for intensity in fconfig.intensities:
                    for index in range(fconfig.mutants_per_config):
                        mutants.append(mutator.mutate(
                            record.wsdl_text, kind, intensity,
                            server_id, record.service.name, index,
                        ).text)
    return wsdls, mutants


def random_edits(documents, count=EDITS, seed=EDIT_SEED):
    """``count`` seeded edits (1-3 splices each) of small ``documents``."""
    rng = random.Random(seed)
    bases = [text for text in documents if len(text) <= EDIT_BASE_LIMIT]
    for _ in range(count):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            op = rng.randrange(4)
            if op == 0:
                text = text[:at] + rng.choice(_TOKENS) + text[at:]
            elif op == 1:
                text = text[:at] + text[at + rng.randint(1, 8):]
            elif op == 2:
                text = text[:at] + text[at:at + rng.randint(1, 24)] + text[at:]
            else:
                text = text[:at] + rng.choice(_CHARS) + text[at + 1:]
        yield text


def _dump(element, scopes, out):
    scope = element.nsscope
    if id(scope) not in scopes:
        scopes[id(scope)] = len(scopes)
        out.append(f"scope#{scopes[id(scope)]}={list(scope.items())!r}")
    attributes = [
        (name.namespace, name.local, value)
        for name, value in element.attributes.items()
    ]
    out.append(
        f"<{element.name.namespace!r}|{element.name.local}"
        f"|{element.prefix_hint!r}|scope#{scopes[id(scope)]}"
        f"|{attributes!r}"
    )
    for item in element.content:
        if isinstance(item, Element):
            _dump(item, scopes, out)
        else:
            out.append(repr(item))
    out.append(">")


def outcome(text, limits=None):
    """One parse reduced to a canonical string: tree dump or error."""
    try:
        document = parse_document(text, limits=limits)
    except XmlParseError as error:
        return (
            f"{type(error).__name__}|{error.message}|{error.position}"
            f"|{error.line}|{error.column}"
        )
    out = [f"doc|{document.version!r}|{document.encoding!r}"
           f"|{document.standalone!r}"]
    _dump(document.root, {}, out)
    return "\n".join(out)


def all_outcomes():
    """Every (input, limits) outcome of the pinned set, in order."""
    wsdls, mutants = quick_inputs()
    documents = wsdls + mutants
    for text in documents + list(random_edits(documents)):
        yield outcome(text)
        yield outcome(text, TIGHT_LIMITS)


def verdict_digest():
    digest = hashlib.sha256()
    for item in all_outcomes():
        digest.update(item.encode("utf-8", "surrogatepass"))
        digest.update(b"\x00")
    return digest.hexdigest()


def test_parse_verdicts_match_pin():
    with open(_PIN, encoding="ascii") as handle:
        pinned = handle.read().strip()
    assert verdict_digest() == pinned, (
        "parse verdicts changed: the parser accepts a different language, "
        "builds a different tree or reports a different error"
    )
