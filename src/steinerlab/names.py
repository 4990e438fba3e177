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

# The deepest a name may nest: ("u",) is one level, ("s", ("u",)) two.  Each
# walk over a name (check, key, render, parse, tuple comparison) takes one
# interpreter frame a level, so names this deep leave about half of the
# default recursion limit of 1000 to callers.  It is the top generator of
# disk(491), the largest disk `steinerlab gen disk` built before the bound
# existed (disk 492 ran out of stack).
MAX_NAME_DEPTH = 492

# A message shows a value in full up to these bounds and cut past them.
_SHOWN_CHARS = 40
_SHOWN_BITS = 100


def check_depth(depth: int) -> int:
    """Refuse names nested ``depth`` levels deep over the bound, before they
    are built; return ``depth``."""
    if depth > MAX_NAME_DEPTH:
        from .core import NameDepthError  # core imports this module first

        raise NameDepthError(
            f"name nested {depth} levels deep, past the bound of {MAX_NAME_DEPTH}"
        )
    return depth


def check_name(name: object) -> Name:
    """Validate the nested-tuple shape and the depth of a name and return it."""
    _check_parts(name, 1)
    return name


def name_depth(name: object) -> int:
    """Validate a name as :func:`check_name` does and return how deep it nests."""
    return _check_parts(name, 1)


def _check_parts(name: object, depth: int) -> int:
    if not isinstance(name, tuple) or not name:
        _malformed(f"generator name must be a non-empty tuple, got {name!r}")
    check_depth(depth)
    deepest = depth
    for part in name:
        if isinstance(part, str):
            if not part or not _RESERVED.isdisjoint(part):
                _malformed(f"bad name atom {part!r} in {name!r}")
        else:
            deepest = max(deepest, _check_parts(part, depth + 1))
    return deepest


def _malformed(message: str) -> None:
    from .core import MalformedError  # core imports this module first

    raise MalformedError(message)


def name_key(name: Name):
    """Deterministic sort key; atoms order before nested names.

    A nested name's key follows its ``"t"`` tag inline, which orders exactly
    as the pair ``("t", key)`` would with one tuple level per name level.
    """
    key = []
    for part in name:
        key.append(("a", part) if isinstance(part, str) else ("t",) + name_key(part))
    return tuple(key)


def render_name(name: Name) -> str:
    out = []
    for part in name:
        out.append(part if isinstance(part, str) else "(" + render_name(part) + ")")
    return ".".join(out)


def shown(value: object) -> str:
    """``value`` as every refusal message shows it: a string quoted, a name
    rendered with its non-printable characters escaped as ``repr`` escapes
    them, and any other value by a bounded ``repr``, each cut to 40
    characters, and an integer past 100 bits by its leading power of two.

    The text is cut further to 40 bytes of UTF-8, or 82 for a quoted string
    (room for 40 escaped characters), so printable ASCII is cut by characters
    alone."""
    if isinstance(value, int) and value.bit_length() > _SHOWN_BITS:
        bound = "at most -2**" if value < 0 else "at least 2**"
        return bound + str(value.bit_length() - 1)
    if isinstance(value, str):
        text, size = repr(value[:_SHOWN_CHARS]), 2 * _SHOWN_CHARS + 2
        more = len(value) > _SHOWN_CHARS
    else:
        import reprlib  # bounds the nesting and the length of lists and objects

        if isinstance(value, tuple):
            text = _escaped(render_name(value))
        else:
            text = reprlib.repr(value)
        text, size, more = text[:_SHOWN_CHARS], _SHOWN_CHARS, len(text) > _SHOWN_CHARS
    data = text.encode(errors="backslashreplace")  # as a stream writes it
    if len(data) > size:  # a character cut in two is dropped
        text, more = data[:size].decode(errors="ignore"), True
    return text + ("..." if more else "")


def _escaped(text: str) -> str:
    """``text`` with each non-printable character (a line break, a control
    character, a lone surrogate) written as ``repr`` writes it, so a message
    stays on one line; printable text is unchanged."""
    if text.isprintable():
        return text
    return "".join(ch if ch.isprintable() else repr(ch)[1:-1] for ch in text)


def parse_name(text: str) -> Name:
    """Inverse of :func:`render_name`."""
    return parse_name_depth(text)[0]


def parse_name_depth(text: str) -> tuple[Name, int]:
    """:func:`parse_name`, and how deep the name nests as :func:`name_depth`
    counts it, from the same single scan of ``text``."""
    parts, pos, depth = _parse_parts(text, 0, 1)
    if pos != len(text):
        raise ValueError(f"trailing characters in name {shown(text)}")
    return parts, depth


def _parse_parts(text: str, pos: int, depth: int) -> tuple[Name, int, int]:
    """The name at ``pos`` nested ``depth`` levels deep, the position after
    it and the deepest level it reaches."""
    parts: list[NamePart] = []
    n = len(text)
    deepest = depth
    while True:
        if pos >= n:
            raise ValueError(f"empty name component in {shown(text)}")
        if text[pos] == "(":
            check_depth(depth + 1)
            sub, pos, sub_deepest = _parse_parts(text, pos + 1, depth + 1)
            if pos >= n or text[pos] != ")":
                raise ValueError(f"unbalanced parentheses in name {shown(text)}")
            pos += 1
            parts.append(sub)
            if sub_deepest > deepest:
                deepest = sub_deepest
        else:
            start = pos
            while pos < n and text[pos] not in _RESERVED:
                pos += 1
            if pos == start:
                raise ValueError(f"empty name atom in {shown(text)} at {pos}")
            parts.append(text[start:pos])
        if pos < n and text[pos] == ".":
            pos += 1
            continue
        return tuple(parts), pos, deepest
