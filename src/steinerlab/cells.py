"""Cell tables: the finite data of cells in the strict omega-category
associated to a based complex.

A table of dimension n is a double sequence of non-negative chains
``minus[0..n]``, ``plus[0..n]`` with equal top entries, matching boundaries
``d(x[k]) = plus[k-1] - minus[k-1]``, and unit augmentation at level zero.
Composition along a level is pointwise addition above the glue level.
"""

from __future__ import annotations

from typing import Iterator

from .core import (
    BasedComplex,
    Chain,
    CheckItem,
    CheckReport,
    SteinerlabError,
    _first_failure,
    _new_object,
    _Record,
    _set_field,
    report,
)


class BadLevelError(SteinerlabError):
    code = "BAD_LEVEL"


class NotComposableError(SteinerlabError):
    code = "NOT_COMPOSABLE"


class InvalidResultError(SteinerlabError):
    code = "INVALID_RESULT"


class CellTable(_Record):
    __slots__ = ("ambient", "dim", "minus", "plus")

    def __init__(
        self,
        ambient: BasedComplex,
        dim: int,
        minus: tuple[Chain, ...],
        plus: tuple[Chain, ...],
    ):
        if dim < 0 or len(minus) != dim + 1 or len(plus) != dim + 1:
            raise BadLevelError("table entries must cover levels 0..dim")
        for k in range(dim + 1):
            if minus[k].degree != k or plus[k].degree != k:
                raise BadLevelError(f"level-{k} entry has the wrong degree")
        _set_field(self, "ambient", ambient)
        _set_field(self, "dim", dim)
        _set_field(self, "minus", minus)
        _set_field(self, "plus", plus)

    def __repr__(self) -> str:
        return f"<CellTable dim {self.dim} over {self.ambient!r}>"


def _boundary_failures(t: CellTable) -> Iterator[str]:
    """``side level k`` for each entry above level zero whose boundary is not
    ``plus[k-1] - minus[k-1]``, level by level, minus side first."""
    for k in range(1, t.dim + 1):
        expected = t.plus[k - 1] - t.minus[k - 1]
        for label, chain in (("minus", t.minus[k]), ("plus", t.plus[k])):
            if t.ambient.d(chain) != expected:
                yield f"{label} level {k}"


def validate_table(t: CellTable) -> CheckReport:
    """Check the four table axioms, with level witnesses."""
    top_ok = t.minus[t.dim] == t.plus[t.dim]
    unnatural = (
        f"level {k}"
        for k in range(t.dim + 1)
        if not (t.minus[k].is_nonnegative() and t.plus[k].is_nonnegative())
    )
    natural = _first_failure("ENTRIES_NATURAL", unnatural)
    boundary = _first_failure("BOUNDARY_COMPAT", _boundary_failures(t))
    unit_ok = t.ambient.eps(t.minus[0]) == 1 and t.ambient.eps(t.plus[0]) == 1
    return report(
        CheckItem("TOP_MATCH", top_ok, None if top_ok else f"level {t.dim}"),
        natural,
        boundary,
        CheckItem("UNIT_AUGMENTATION", unit_ok, None if unit_ok else "level 0"),
    )


def _truncated(t: CellTable, k: int, minus: tuple, plus: tuple) -> CellTable:
    """The level-``k`` table over ``t``'s complex from ``t``'s own entries,
    whose degrees need no check.  Callers slice, so a bad ``k`` gets here."""
    if not (0 <= k <= t.dim):
        raise BadLevelError(f"level {k} out of range 0..{t.dim}")
    table = _new_object(CellTable)
    _set_field(table, "ambient", t.ambient)
    _set_field(table, "dim", k)
    _set_field(table, "minus", minus)
    _set_field(table, "plus", plus)
    return table


def source(t: CellTable, k: int) -> CellTable:
    """Truncate at level k with the minus entry on top."""
    return _truncated(t, k, t.minus[: k + 1], t.plus[:k] + t.minus[k : k + 1])


def target(t: CellTable, k: int) -> CellTable:
    """Truncate at level k with the plus entry on top."""
    return _truncated(t, k, t.minus[:k] + t.plus[k : k + 1], t.plus[: k + 1])


def identity_table(t: CellTable) -> CellTable:
    """Degenerate extension by the zero chain one level up."""
    z = Chain(t.dim + 1)
    return CellTable(t.ambient, t.dim + 1, t.minus + (z,), t.plus + (z,))


def is_degenerate(t: CellTable) -> bool:
    """True when the table carries no new top content (an identity cell)."""
    return t.dim >= 1 and t.minus[t.dim].is_zero()


def _glues(t: CellTable, u: CellTable, p: int) -> bool:
    """Whether ``target(t, p) == source(u, p)`` for two tables over one
    complex, read off the entries without building either truncation."""
    return (
        t.plus[p] == u.minus[p]
        and t.minus[:p] == u.minus[:p]
        and t.plus[:p] == u.plus[:p]
    )


def compose_tables(u: CellTable, t: CellTable, p: int) -> CellTable:
    """Compose ``t`` then ``u`` along level ``p``.

    Entries above the glue level add; at the glue level the minus side comes
    from ``t`` and the plus side from ``u``; below, the shared entries are
    kept.  The result is re-validated.
    """
    if u.ambient != t.ambient:
        raise NotComposableError("tables live in different complexes")
    if t.dim != u.dim or not (0 <= p < t.dim):
        raise NotComposableError(f"need equal dimensions above level {p}")
    if not _glues(t, u, p):
        raise NotComposableError("target of first does not match source of second")
    above = range(p + 1, t.dim + 1)
    minus = t.minus[: p + 1] + tuple(t.minus[k] + u.minus[k] for k in above)
    plus = t.plus[:p] + (u.plus[p],) + tuple(t.plus[k] + u.plus[k] for k in above)
    result = CellTable(t.ambient, t.dim, minus, plus)
    check = validate_table(result)
    if not check.passed:
        raise InvalidResultError(
            f"composite table is invalid: {check.failures()[0].name}"
        )
    return result
