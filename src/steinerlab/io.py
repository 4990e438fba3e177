"""Deterministic text serialization for complexes and maps.

Documents are JSON with a fixed schema version and canonical ordering, so
``emit`` is byte-stable and ``parse(emit(x)) == x``.  Coefficients are
decimal strings: the integers are unbounded by contract and must survive
any consumer.  ``parse`` validates structurally and then semantically,
embedding the failing report in the error.
"""

from __future__ import annotations

import json
from typing import Any, Union

from .core import (
    _CHUNK_DIGITS,
    BasedComplex,
    Chain,
    CheckReport,
    ComplexMap,
    MalformedError,
    SteinerlabError,
    _int_to_text,
    _text_to_int,
    validate_complex,
    validate_map,
)
from .names import Name, parse_name, render_name

FORMAT_VERSION = "steinerlab/1"


class ParseError(SteinerlabError):
    code = "PARSE_ERROR"


class ValidationError(SteinerlabError):
    code = "VALIDATION_ERROR"

    def __init__(self, message: str, report: CheckReport):
        super().__init__(message)
        self.report = report


def _chain_terms(chain: Chain) -> list[dict[str, str]]:
    return [
        {"generator": render_name(n), "coeff": _int_to_text(c)} for n, c in chain.items()
    ]


def complex_to_document(c: BasedComplex) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "complex",
        "degrees": [
            {"degree": deg, "generators": [render_name(g) for g in c.degrees[deg]]}
            for deg in sorted(c.degrees)
        ],
        "differential": [
            {"generator": render_name(g), "terms": _chain_terms(c.diff[g])}
            for deg in sorted(c.degrees)
            if deg >= 1
            for g in c.degrees[deg]
        ],
        "augmentation": [
            {"generator": render_name(g), "value": _int_to_text(c.aug[g])}
            for g in c.generators(0)
        ],
    }


def map_to_document(f: ComplexMap) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "map",
        "source": complex_to_document(f.source),
        "target": complex_to_document(f.target),
        "assignment": [
            {"generator": render_name(g), "terms": _chain_terms(f.of_gen(g))}
            for deg, g in f.source.all_generators()
        ],
    }


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"missing {key!r} in {where}")
    return doc[key]


def _parse_int(text: Any, where: str) -> int:
    """A JSON integer, or a decimal string of any length."""
    try:
        return _text_to_int(text) if isinstance(text, str) else int(text)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"bad integer {text!r} in {where}") from None


def _parse_degree(text: Any) -> int:
    """A degree: as :func:`_parse_int`, but short enough for messages to print."""
    if isinstance(text, str) and len(text) > _CHUNK_DIGITS:
        raise ParseError(f"bad integer in degrees: over {_CHUNK_DIGITS} digits")
    return _parse_int(text, "degrees")


def _parse_gen(text: Any, where: str) -> Name:
    if not isinstance(text, str):
        raise ParseError(f"generator name must be a string in {where}")
    try:
        return parse_name(text)
    except ValueError as exc:
        raise ParseError(f"bad generator name in {where}: {exc}") from None


def _put_once(table: dict, key: Any, value: Any, what: str, where: str) -> None:
    """``table[key] = value``, rejecting a key the section already listed."""
    if key in table:
        raise ParseError(f"{what} listed twice in {where}")
    table[key] = value


def _parse_terms(entry: dict, where: str) -> dict[Name, int]:
    terms: dict[Name, int] = {}
    for t in _need(entry, "terms", where):
        g = _parse_gen(_need(t, "generator", "terms"), "terms")
        coeff = _parse_int(_need(t, "coeff", "terms"), "terms")
        _put_once(terms, g, coeff, f"generator {render_name(g)}", f"terms of {where}")
    return terms


def document_to_complex(doc: dict[str, Any]) -> BasedComplex:
    if _need(doc, "format_version", "document") != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {doc['format_version']!r}")
    degrees: dict[int, list[Name]] = {}
    gen_degree: dict[Name, int] = {}
    for entry in _need(doc, "degrees", "document"):
        deg = _parse_degree(_need(entry, "degree", "degrees"))
        gens = [
            _parse_gen(g, f"degree {deg}") for g in _need(entry, "generators", "degrees")
        ]
        _put_once(degrees, deg, gens, f"degree {deg}", "degrees")
        for g in gens:
            _put_once(gen_degree, g, deg, f"generator {render_name(g)}", "degrees")
    diff: dict[Name, Chain] = {}
    for entry in _need(doc, "differential", "document"):
        g = _parse_gen(_need(entry, "generator", "differential"), "differential")
        if g not in gen_degree:
            raise ParseError(f"differential on unknown generator {render_name(g)}")
        chain = Chain(gen_degree[g] - 1, _parse_terms(entry, "differential"))
        _put_once(diff, g, chain, f"generator {render_name(g)}", "differential")
    aug: dict[Name, int] = {}
    for entry in _need(doc, "augmentation", "document"):
        g = _parse_gen(_need(entry, "generator", "augmentation"), "augmentation")
        value = _parse_int(_need(entry, "value", "augmentation"), "augmentation")
        _put_once(aug, g, value, f"generator {render_name(g)}", "augmentation")
    try:
        result = BasedComplex(degrees, diff, aug)
    except MalformedError as exc:
        raise ParseError(f"structurally malformed complex: {exc}") from None
    check = validate_complex(result)
    if not check.passed:
        failing = check.failures()[0]
        raise ValidationError(
            f"complex fails {failing.name} at {failing.witness}", check
        )
    return result


def document_to_map(doc: dict[str, Any]) -> ComplexMap:
    source = document_to_complex(_need(doc, "source", "map document"))
    target = document_to_complex(_need(doc, "target", "map document"))
    assignment: dict[Name, Chain] = {}
    for entry in _need(doc, "assignment", "map document"):
        g = _parse_gen(_need(entry, "generator", "assignment"), "assignment")
        if not source.has_generator(g):
            raise ParseError(f"assignment on unknown generator {render_name(g)}")
        chain = Chain(source.degree_of(g), _parse_terms(entry, "assignment"))
        _put_once(assignment, g, chain, f"generator {render_name(g)}", "assignment")
    try:
        result = ComplexMap(source, target, assignment)
    except MalformedError as exc:
        raise ParseError(f"structurally malformed map: {exc}") from None
    check = validate_map(result)
    if not check.passed:
        failing = check.failures()[0]
        raise ValidationError(f"map fails {failing.name} at {failing.witness}", check)
    return result


def emit(value: Union[BasedComplex, ComplexMap]) -> str:
    """Serialize deterministically; identical values give identical bytes."""
    if isinstance(value, BasedComplex):
        doc = complex_to_document(value)
    elif isinstance(value, ComplexMap):
        doc = map_to_document(value)
    else:
        raise TypeError(f"cannot emit {type(value).__name__}")
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def parse(text: str) -> Union[BasedComplex, ComplexMap]:
    """Parse a document emitted by :func:`emit`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except ValueError:  # a bare JSON integer over the int/str digit limit
        raise ParseError("invalid JSON: integer literal too long") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    kind = _need(doc, "kind", "document")
    if kind == "complex":
        return document_to_complex(doc)
    if kind == "map":
        return document_to_map(doc)
    raise ParseError(f"unknown document kind {kind!r}")
