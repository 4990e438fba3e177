"""Deterministic text serialization for complexes and maps.

A ``steinerlab/1`` document is JSON with a fixed schema version and
canonical ordering, laid out byte for byte as
``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"`` would write it, so
``emit`` is byte-stable and ``parse(emit(x)) == x``.  ``emit`` writes that
layout directly.  Coefficients and augmentation values are decimal strings:
the integers are unbounded by contract and must survive any consumer.
``parse`` accepts an integer as a JSON integer or a decimal string (never a
float or a boolean; a degree's string has at most 4000 digits), parses each
distinct generator name once, validates structurally and then semantically,
and embeds the failing report in the error.  Every error message shows the
document's values as ``names.shown`` does, so its length is bounded.

``parse`` caches, for the length of one call, each generator name and each
term coefficient by its text, so a term read before costs two dict lookups;
any other term is checked in full.  Each ``generators`` list is sorted by
``name_key`` and handed to ``BasedComplex`` as a canonical basis, with the
depth the name parser measured, so its names are not checked a second time.
A map's assignment reads its generators through its source's name cache
and its terms through its target's, so every chain of a parsed map is
keyed by basis objects.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Any, Callable, Union

from .core import (
    BasedComplex,
    Chain,
    CheckReport,
    ComplexMap,
    MalformedError,
    SteinerlabError,
    _adopt,
    _Canonical,
    _int_to_text,
    _positions,
    _short_int,
    _text_to_int,
    validate_complex,
    validate_map,
)
from .names import Name, name_key, parse_name_depth, render_name, shown

FORMAT_VERSION = "steinerlab/1"


class ParseError(SteinerlabError):
    code = "PARSE_ERROR"


class ValidationError(SteinerlabError):
    code = "VALIDATION_ERROR"

    def __init__(self, message: str, report: CheckReport):
        super().__init__(message)
        self.report = report


# -- emit ------------------------------------------------------------------
# Each writer below returns a JSON value in the ``indent=2`` layout; ``pad``
# is the indentation of the line the value starts on.

# A complex's generator positions and its names as JSON text, by position.
_BasisTable = tuple[dict[Name, int], list[str]]


def _basis_table(c: BasedComplex) -> _BasisTable:
    """Each generator's position, as :func:`~steinerlab.core._positions`
    numbers it, and every name as JSON text, listed by position.

    Bases are sorted by ``name_key``, so within one degree position order is
    name order, and each degree's names are one run of the list.
    """
    position = _positions(c)
    return position, [encode_basestring(render_name(g)) for g in position]


def _array(items: list[str], pad: str) -> str:
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _entry(name: str, key: str, value: str, pad: str) -> str:
    """The object ``{"generator": name, key: value}``."""
    return f'{{\n{pad}  "generator": {name},\n{pad}  "{key}": {value}\n{pad}}}'


def _terms_text(chain: Chain, table: _BasisTable, pad: str) -> str:
    """``chain`` as a ``terms`` array, in basis order; ``table`` is its complex's."""
    position, texts = table
    p2 = pad + "  "
    return _array(
        [
            _entry(texts[p], "coeff", f'"{_int_to_text(coeff)}"', p2)
            for p, coeff in sorted(
                (position[g], coeff) for g, coeff in chain._coeffs.items()
            )
        ],
        pad,
    )


def _complex_text(c: BasedComplex, table: _BasisTable, pad: str) -> str:
    p2, p4, p6 = pad + "  ", pad + "    ", pad + "      "
    texts = table[1]
    degree_entries: list[str] = []
    diff_entries: list[str] = []
    start = 0
    for deg, gens in c.degrees.items():
        names = texts[start : start + len(gens)]
        start += len(gens)
        degree_entries.append(
            f'{{\n{p6}"degree": {deg},\n'
            f'{p6}"generators": {_array(names, p6)}\n{p4}}}'
        )
        if deg:
            diff_entries += [
                _entry(name, "terms", _terms_text(c.diff[g], table, p6), p4)
                for g, name in zip(gens, names)
            ]
    # the vertices, when there are any, are the first run of ``texts``
    aug_entries = [
        _entry(name, "value", f'"{_int_to_text(c.aug[g])}"', p4)
        for g, name in zip(c.generators(0), texts)
    ]
    return (
        f'{{\n{p2}"format_version": "{FORMAT_VERSION}",\n{p2}"kind": "complex",\n'
        f"{p2}\"degrees\": {_array(degree_entries, p2)},\n"
        f"{p2}\"differential\": {_array(diff_entries, p2)},\n"
        f"{p2}\"augmentation\": {_array(aug_entries, p2)}\n{pad}}}"
    )


def _map_text(f: ComplexMap) -> str:
    source, target = _basis_table(f.source), _basis_table(f.target)
    entries = [
        _entry(name, "terms", _terms_text(f.of_gen(g), target, "      "), "    ")
        for g, name in zip(f.source._gen_degree, source[1])
    ]
    return (
        f'{{\n  "format_version": "{FORMAT_VERSION}",\n  "kind": "map",\n'
        f'  "source": {_complex_text(f.source, source, "  ")},\n'
        f'  "target": {_complex_text(f.target, target, "  ")},\n'
        f'  "assignment": {_array(entries, "  ")}\n}}'
    )


def emit(value: Union[BasedComplex, ComplexMap]) -> str:
    """Serialize deterministically; identical values give identical bytes."""
    if isinstance(value, BasedComplex):
        return _complex_text(value, _basis_table(value), "") + "\n"
    if isinstance(value, ComplexMap):
        return _map_text(value) + "\n"
    raise TypeError(f"cannot emit {type(value).__name__}")


# -- parse -----------------------------------------------------------------


def _need(doc: Any, key: str, where: str):
    """``doc[key]``, where ``doc`` must be a JSON object holding ``key``."""
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object in {where}")
    if key not in doc:
        raise ParseError(f"missing {key!r} in {where}")
    return doc[key]


def _need_list(doc: Any, key: str, where: str) -> list:
    """As :func:`_need`, for a value that must be a JSON array."""
    value = _need(doc, key, where)
    if not isinstance(value, list):
        raise ParseError(f"{key!r} in {where} must be a JSON array")
    return value


def _parse_int(value: Any, where: str) -> int:
    """A JSON integer, or a decimal string (in degrees, of at most 4000 digits)."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return (_short_int if where == "degrees" else _text_to_int)(value)
        except ValueError:
            pass
    raise ParseError(f"bad integer {shown(value)} in {where}")


def _parse_new_gen(text: Any, where: str, names: dict[str, Name]) -> tuple[Name, int]:
    """The name ``text`` renders, parsed and put in the cache ``names``
    (unless it is there already), and how deep it nests."""
    if not isinstance(text, str):
        raise ParseError(f"generator name must be a string in {where}")
    try:
        name, depth = parse_name_depth(text)
    except ValueError as exc:
        raise ParseError(f"bad generator name in {where}: {exc}") from None
    return names.setdefault(text, name), depth


def _parse_gen(text: Any, where: str, names: dict[str, Name]) -> Name:
    """The name ``text`` renders; ``names`` caches the names parsed so far."""
    try:
        return names[text]
    except (KeyError, TypeError):  # not parsed yet, or not a string
        return _parse_new_gen(text, where, names)[0]


def _listed_twice(key: Any, where: str) -> ParseError:
    what = "degree" if isinstance(key, int) else "generator"
    return ParseError(f"{what} {shown(key)} listed twice in {where}")


def _put_once(table: dict, key: Any, value: Any, where: str) -> None:
    """``table[key] = value``, rejecting a key (a degree or a generator) listed before."""
    if key in table:
        raise _listed_twice(key, where)
    table[key] = value


def _parse_terms(
    entry: Any, where: str, names: dict[str, Name], ints: dict[str, int]
) -> dict[Name, int]:
    """The terms of ``entry`` as a coefficient dict without zeros.

    A term whose generator text is in ``names`` and whose coefficient text is
    in ``ints`` costs those two lookups.  ``ints`` is keyed by text only, so a
    JSON ``true`` or ``1.0`` never matches ``"1"``; every other term is read
    and checked in full, in the order of its refusals, and cached."""
    terms: dict[Name, int] = {}
    for t in _need_list(entry, "terms", where):
        try:
            g, coeff = names[t["generator"]], ints[t["coeff"]]
        except (KeyError, TypeError):
            g = _parse_gen(_need(t, "generator", "terms"), "terms", names)
            text = _need(t, "coeff", "terms")
            coeff = _parse_int(text, "terms")
            if isinstance(text, str):
                ints[text] = coeff
        if g in terms:
            raise _listed_twice(g, "terms of " + where)
        terms[g] = coeff
    if 0 in terms.values():
        return {g: coeff for g, coeff in terms.items() if coeff}
    return terms


def _built(what: str, build: Callable[[], Any], validate: Callable[[Any], CheckReport]):
    """``build()``, unless it is structurally malformed or fails ``validate``."""
    try:
        value = build()
    except MalformedError as exc:
        raise ParseError(f"structurally malformed {what}: {exc}") from None
    check = validate(value)
    if not check.passed:
        failing = check.failures()[0]
        witness = shown((failing.witness,))  # a rendered name, shown as names are
        raise ValidationError(f"{what} fails {failing.name} at {witness}", check)
    return value


def document_to_complex(doc: Any) -> tuple[BasedComplex, dict[str, Name]]:
    """The complex ``doc`` describes, and the cache of its names by text:
    each basis object under the text it was read from."""
    if _need(doc, "format_version", "document") != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {shown(doc['format_version'])}")
    names: dict[str, Name] = {}
    ints: dict[str, int] = {}
    degrees: dict[int, _Canonical] = {}
    gen_degree: dict[Name, int] = {}
    for entry in _need_list(doc, "degrees", "document"):
        deg = _parse_int(_need(entry, "degree", "degrees"), "degrees")
        where = f"degree {shown(deg)}"
        gens, depth = [], 0
        for text in _need_list(entry, "generators", "degrees"):
            g, g_depth = _parse_new_gen(text, where, names)
            gens.append(g)
            depth = max(depth, g_depth)
        _put_once(degrees, deg, _Canonical(sorted(gens, key=name_key), depth), "degrees")
        for g in gens:
            _put_once(gen_degree, g, deg, "degrees")
    diff: dict[Name, Chain] = {}
    for entry in _need_list(doc, "differential", "document"):
        g = _parse_gen(_need(entry, "generator", "differential"), "differential", names)
        if g not in gen_degree:
            raise ParseError(f"differential on unknown generator {shown(g)}")
        # a differential on a vertex or below is left to BasedComplex to refuse
        degree = max(gen_degree[g] - 1, 0)
        chain = _adopt(degree, _parse_terms(entry, "differential", names, ints))
        _put_once(diff, g, chain, "differential")
    aug: dict[Name, int] = {}
    for entry in _need_list(doc, "augmentation", "document"):
        g = _parse_gen(_need(entry, "generator", "augmentation"), "augmentation", names)
        value = _parse_int(_need(entry, "value", "augmentation"), "augmentation")
        _put_once(aug, g, value, "augmentation")
    c = _built("complex", lambda: BasedComplex(degrees, diff, aug), validate_complex)
    return c, names


def document_to_map(doc: dict[str, Any]) -> ComplexMap:
    """The map ``doc`` describes, its assignment keyed by the source's basis
    objects and its terms by the target's."""
    source, source_names = document_to_complex(_need(doc, "source", "map document"))
    target, target_names = document_to_complex(_need(doc, "target", "map document"))
    ints: dict[str, int] = {}
    assignment: dict[Name, Chain] = {}
    for entry in _need_list(doc, "assignment", "map document"):
        g = _parse_gen(_need(entry, "generator", "assignment"), "assignment", source_names)
        if not source.has_generator(g):
            raise ParseError(f"assignment on unknown generator {shown(g)}")
        terms = _parse_terms(entry, "assignment", target_names, ints)
        _put_once(assignment, g, _adopt(source.degree_of(g), terms), "assignment")
    return _built("map", lambda: ComplexMap(source, target, assignment), validate_map)


def parse(text: str) -> Union[BasedComplex, ComplexMap]:
    """Parse a document emitted by :func:`emit`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except ValueError:  # a bare JSON integer over the int/str digit limit
        raise ParseError("invalid JSON: integer literal too long") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    kind = _need(doc, "kind", "document")
    if kind == "complex":
        return document_to_complex(doc)[0]
    if kind == "map":
        return document_to_map(doc)
    raise ParseError(f"unknown document kind {shown(kind)}")
