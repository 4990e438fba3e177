"""Basis-theoretic analysis: differential splitting, atoms, unitality, the
generation preorder, strong loop-freeness, and the combined verdict.

The differential splits as ``d = plus - minus`` after cancellation; atoms
descend through these parts; the preorder is generated by "occurs in the
negative boundary of" and "the positive boundary contains", and strong
loop-freeness asks that its closure is antisymmetric.  Parts are split
without sorting, and the linear extension is Kahn's algorithm on a heap of
``name_key`` ranks.  Past validation, :func:`is_steiner` walks each atom down
its plus side only: ``d∘d = 0`` gives both entries one differential at each
level, so the minus entry is the negative part of the chain whose positive
part is the plus entry, and ``ε∘d₁ = 0`` gives the two level-zero entries one
augmentation.  The two-sided :func:`atom_table` holds on any complex and is
the oracle.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush

from .cells import CellTable
from .core import (
    BasedComplex,
    Chain,
    CheckItem,
    CheckReport,
    DegreeMismatchError,
    SizeLimitError,
    _adopt,
    _first_failure,
    _Record,
    _set_field,
    add_scaled,
    chain_of,
    max_generators,
    report,
    validate_complex,
)
from .names import Name, name_key, render_name, shown


def _split(dx: dict[Name, int]) -> tuple[dict[Name, int], dict[Name, int]]:
    """The positive part of a sparse chain and its negated negative part."""
    return {n: v for n, v in dx.items() if v > 0}, {n: -v for n, v in dx.items() if v < 0}


def pos_neg_parts(c: BasedComplex, x: Chain) -> tuple[Chain, Chain]:
    """Split ``d(x)`` as (positive part, negated negative part).

    Cancellation inside ``d(x)`` happens before the split; the parts satisfy
    ``d(x) = plus - minus`` with both sides non-negative.
    """
    if x.degree == 0:
        raise DegreeMismatchError("no parts in degree 0", code="DEGREE_ZERO")
    return tuple(_adopt(x.degree - 1, part) for part in _split(c.d(x)._coeffs))


def atom_table(c: BasedComplex, b: Name) -> CellTable:
    """The canonical cell of a generator: equal top entries, descending
    through positive/negative parts of the whole chain at each level.  A
    table of more levels than the complex has generators is refused unbuilt
    if it also has more than the generator limit."""
    n = c.degree_of(b)
    if n >= len(c._gen_degree) and n >= max_generators():
        raise SizeLimitError(
            f"atom table of {shown(n + 1)} levels exceeds STEINERLAB_MAX_GENERATORS"
        )
    top = chain_of(n, b)
    minus, plus = [top], [top]
    for k in range(n, 0, -1):
        plus_parts = _split(c.d(plus[-1])._coeffs)
        # The top entries are one chain: split it once for both sides.
        minus_parts = plus_parts if minus[-1] is plus[-1] else _split(c.d(minus[-1])._coeffs)
        plus.append(_adopt(k - 1, plus_parts[0]))
        minus.append(_adopt(k - 1, minus_parts[1]))
    return CellTable(c, n, tuple(reversed(minus)), tuple(reversed(plus)))


def _plus_floor(c: BasedComplex, b: Name) -> Chain:
    """``atom_table(c, b).plus[0]`` on a complex with ``d∘d = 0``, reached
    through one differential and its positive part per level.  The walk stops
    at an empty part, whose floor is zero whatever the degree."""
    part = {b: 1}
    for _ in range(c.degree_of(b)):
        if not part:
            break
        dx: dict[Name, int] = {}
        for name, coeff in part.items():
            add_scaled(dx, c.diff[name]._coeffs, coeff)
        part = {n: v for n, v in dx.items() if v > 0}
    return _adopt(0, part)


def _atom_floors(c: BasedComplex, b: Name) -> tuple[Chain, Chain]:
    """Both level-zero entries of the atom of ``b``."""
    t = atom_table(c, b)
    return t.minus[0], t.plus[0]


def _unitality(c: BasedComplex, floors) -> CheckItem:
    """``UNITALITY``: the witness is the first generator, in basis order,
    with an entry of ``floors(c, b)`` whose augmentation is not one."""
    non_unital = (
        b for _, b in c.all_generators() if any(c.eps(x) != 1 for x in floors(c, b))
    )
    return _first_failure("UNITALITY", map(render_name, non_unital))


def unitality_check(c: BasedComplex) -> CheckReport:
    """Every atom must reach augmentation one at level zero on both sides."""
    return report(_unitality(c, _atom_floors))


class PreorderRelation(_Record):
    """Generating edges of the preorder on the basis of one complex."""

    __slots__ = ("elements", "edges")

    def __init__(self, elements: tuple[Name, ...], edges: tuple[tuple[Name, Name], ...]):
        _set_field(self, "elements", elements)
        _set_field(self, "edges", edges)

    def successors(self) -> dict[Name, list[Name]]:
        out: dict[Name, list[Name]] = {e: [] for e in self.elements}
        for a, b in self.edges:
            out[a].append(b)
        return out


def _preorder(c: BasedComplex, order) -> PreorderRelation:
    """:func:`preorder`, each part of each differential listed in ``order``.
    Edges join adjacent degrees, so none is a loop."""
    elements = tuple(g for _, g in c.all_generators())
    edges: list[tuple[Name, Name]] = []
    for degree, g in c.all_generators():
        if degree:
            plus, minus = _split(c.diff[g]._coeffs)
            edges += [(x, g) for x in order(minus)] + [(g, y) for y in order(plus)]
    return PreorderRelation(elements, tuple(edges))


def preorder(c: BasedComplex) -> PreorderRelation:
    """Generated by: x below g for x in the negative part of d(g), and g
    below y for y in the positive part."""
    return _preorder(c, lambda part: sorted(part, key=name_key))


def is_strongly_loopfree(c: BasedComplex) -> CheckReport:
    """Antisymmetry of the generated preorder: no directed cycle through two
    or more distinct generators.  The witness is a cycle on failure; a linear
    extension is attached on success."""
    rel = _preorder(c, list)  # edge order cannot change the result
    succ = rel.successors()
    indegree = Counter(b for _, b in rel.edges)
    rank = c._ranks()
    by_rank = list(rank)
    ready = [i for i, g in enumerate(by_rank) if not indegree[g]]  # sorted: a heap
    order: list[Name] = []
    while ready:
        node = by_rank[heappop(ready)]
        order.append(node)
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                heappush(ready, rank[nxt])
    if len(order) == len(rel.elements):
        extension = " < ".join(render_name(g) for g in order[:6])
        more = "" if len(order) <= 6 else " < ..."
        return report(CheckItem("STRONGLY_LOOPFREE", True, extension + more if order else None))
    remaining = {e for e in rel.elements if indegree[e] > 0}
    pred: dict[Name, list[Name]] = {e: [] for e in remaining}
    for a, b in rel.edges:
        if a in remaining and b in remaining:
            pred[b].append(a)
    seen: list[Name] = []
    node = min(remaining, key=name_key)
    while node not in seen:
        seen.append(node)
        node = min(pred[node], key=name_key)
    cycle = [node] + list(reversed(seen[seen.index(node) + 1 :])) + [node]
    witness = " <= ".join(render_name(g) for g in cycle)
    return report(CheckItem("STRONGLY_LOOPFREE", False, witness))


def is_steiner(c: BasedComplex) -> CheckReport:
    """Conjunction: valid complex, all atoms natural, unital, loop-free.

    Past validation, ``UNITALITY`` descends each atom once, through positive
    parts: ``d∘d = 0`` and ``ε∘d₁ = 0`` make the minus side agree (see the
    module docstring), so the witness is :func:`unitality_check`'s.
    ``ATOMS_NATURAL`` is a constant pass: entries below the top are parts of
    splits, positive by construction."""
    base = validate_complex(c)
    if not base.passed:
        return base
    unital = _unitality(c, lambda c, b: (_plus_floor(c, b),))
    atoms = report(CheckItem("ATOMS_NATURAL", True, None), unital)
    return base.merged(atoms).merged(is_strongly_loopfree(c))
