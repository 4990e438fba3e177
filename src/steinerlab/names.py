"""Structured generator names: nested tuples of string atoms.

A generator name is a non-empty tuple whose entries are either string atoms
or names again.  Atoms never contain the reserved characters ``.()``, so a
name renders unambiguously as dot-joined tokens with nested names in
parentheses, e.g. ``("j", ("0", "1"), ("u",))`` -> ``"j.(0.1).(u)"``.
The canonical total order on names is the lexicographic order of
:func:`name_key`; every sort in the library uses it.
"""

from __future__ import annotations

from typing import Tuple, Union

Name = Tuple["NamePart", ...]
NamePart = Union[str, "Name"]

_RESERVED = set(".()")


def check_name(name: object) -> Name:
    """Validate the nested-tuple shape of a name and return it."""
    if not isinstance(name, tuple) or not name:
        raise TypeError(f"generator name must be a non-empty tuple, got {name!r}")
    for part in name:
        if isinstance(part, str):
            if not part or _RESERVED & set(part):
                raise TypeError(f"bad name atom {part!r} in {name!r}")
        else:
            check_name(part)
    return name


def name_key(name: Name):
    """Deterministic sort key; atoms order before nested names."""
    return tuple(
        ("a", part) if isinstance(part, str) else ("t", name_key(part))
        for part in name
    )


def render_name(name: Name) -> str:
    return ".".join(
        part if isinstance(part, str) else "(" + render_name(part) + ")"
        for part in name
    )


def parse_name(text: str) -> Name:
    """Inverse of :func:`render_name`."""
    try:
        parts, pos = _parse_parts(text, 0)
    except RecursionError:
        raise ValueError(f"name nested too deeply ({len(text)} characters)") from None
    if pos != len(text):
        raise ValueError(f"trailing characters in name {text!r}")
    return parts


def _parse_parts(text: str, pos: int) -> tuple[Name, int]:
    parts: list[NamePart] = []
    n = len(text)
    while True:
        if pos >= n:
            raise ValueError(f"empty name component in {text!r}")
        if text[pos] == "(":
            sub, pos = _parse_parts(text, pos + 1)
            if pos >= n or text[pos] != ")":
                raise ValueError(f"unbalanced parentheses in name {text!r}")
            pos += 1
            parts.append(sub)
        else:
            start = pos
            while pos < n and text[pos] not in _RESERVED:
                pos += 1
            if pos == start:
                raise ValueError(f"empty name atom in {text!r} at {pos}")
            parts.append(text[start:pos])
        if pos < n and text[pos] == ".":
            pos += 1
            continue
        return tuple(parts), pos
