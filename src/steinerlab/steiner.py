"""Basis-theoretic analysis: differential splitting, atoms, unitality, the
generation preorder, strong loop-freeness, and the combined verdict.

The differential splits as ``d = plus - minus`` after cancellation; atoms
descend through these parts; the preorder is generated by "occurs in the
negative boundary of" and "the positive boundary contains", and strong
loop-freeness asks that its closure is antisymmetric.  Parts are split
without sorting.

:func:`is_steiner` numbers each generator by its place in basis order and
reads each differential once into a row ``{position: coeff}``, as compressed
sparse rows do; ``d∘d``, the unitality walk and the loop check run on these
rows, built per call, and map positions back to names only for a witness.
Past validation, the unitality walk follows each atom down its plus side
only: ``d∘d = 0`` gives both entries one differential at each level, so the
minus entry is the negative part of the chain whose positive part is the
plus entry, and ``ε∘d₁ = 0`` gives the two level-zero entries one
augmentation.  The two-sided :func:`atom_table` holds on any complex and is
the oracle.  Acyclicity is Kahn's algorithm taking ready positions in any
order; the linear extension reported replays it on a heap keyed by
``name_key`` until six generators are out, so it takes the least ready
generator by name and keys only generators that become ready.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

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
    _position_rows,
    _Record,
    _set_field,
    _validity,
    chain_of,
    max_generators,
    report,
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


def _floor(rows: list[dict[int, int]], i: int, degree: int) -> dict[int, int]:
    """The plus entry at level zero of the atom of the generator at position
    ``i``, of ``degree``, as ``{position: coeff}``: one differential and its
    positive part per level, over ``rows`` of a complex with ``d∘d = 0``.  The
    walk stops at an empty part, whose floor is zero whatever the degree."""
    part = {i: 1}
    for _ in range(degree):
        dx: dict[int, int] = {}
        for j, coeff in part.items():
            for k, v in rows[j].items():
                dx[k] = dx.get(k, 0) + coeff * v
        part = {k: v for k, v in dx.items() if v > 0}
        if not part:
            break
    return part


def _unitality(c: BasedComplex, rows: list[dict[int, int]]) -> CheckItem:
    """``UNITALITY`` on a complex with ``d∘d = 0`` and ``ε∘d₁ = 0``: the
    witness is the first generator, in basis order, whose plus floor has an
    augmentation other than one, summed by position over ``rows``."""
    aug = [c.aug[v] for v in c.generators(0)]  # vertices hold the first positions
    non_unital = (
        g
        for i, (g, degree) in enumerate(c._gen_degree.items())
        if sum(aug[j] * v for j, v in _floor(rows, i, degree).items()) != 1
    )
    return _first_failure("UNITALITY", map(render_name, non_unital))


def unitality_check(c: BasedComplex) -> CheckReport:
    """Every atom must reach augmentation one at level zero on both sides;
    the witness is the first generator, in basis order, whose atom does not."""

    def non_unital(b: Name) -> bool:
        t = atom_table(c, b)
        return c.eps(t.minus[0]) != 1 or c.eps(t.plus[0]) != 1

    failing = (b for _, b in c.all_generators() if non_unital(b))
    return report(_first_failure("UNITALITY", map(render_name, failing)))


class PreorderRelation(_Record):
    """Generating edges of the preorder on the basis of one complex."""

    __slots__ = ("elements", "edges")

    def __init__(self, elements: tuple[Name, ...], edges: tuple[tuple[Name, Name], ...]):
        _set_field(self, "elements", elements)
        _set_field(self, "edges", edges)


def preorder(c: BasedComplex) -> PreorderRelation:
    """Generated by: x below g for x in the negative part of d(g), and g
    below y for y in the positive part.  Edges join adjacent degrees, so
    none is a loop."""
    elements = tuple(g for _, g in c.all_generators())
    edges: list[tuple[Name, Name]] = []
    for degree, g in c.all_generators():
        if degree:
            plus, minus = _split(c.diff[g]._coeffs)
            edges += [(x, g) for x in sorted(minus, key=name_key)]
            edges += [(g, y) for y in sorted(plus, key=name_key)]
    return PreorderRelation(elements, tuple(edges))


def is_strongly_loopfree(c: BasedComplex) -> CheckReport:
    """Antisymmetry of the generated preorder: no directed cycle through two
    or more distinct generators.  The witness is a cycle on failure; a linear
    extension is attached on success."""
    return report(_loopfree(c, _position_rows(c)))


def _loopfree(c: BasedComplex, rows: list[dict[int, int]]) -> CheckItem:
    """The ``STRONGLY_LOOPFREE`` item over the rows of ``c``.  Kahn's
    algorithm, taking ready generators in any order, decides acyclicity; the
    text of either verdict is the one of the name-ordered algorithm."""
    succ: list[list[int]] = [[] for _ in rows]
    indegree = [0] * len(rows)
    for i, row in enumerate(rows):
        for j, v in row.items():
            if v > 0:  # i below j
                succ[i].append(j)
                indegree[j] += 1
            else:  # j below i
                succ[j].append(i)
                indegree[i] += 1
    left = indegree.copy()
    ready = [i for i, k in enumerate(left) if not k]
    done = 0
    while ready:
        i = ready.pop()
        done += 1
        for j in succ[i]:
            left[j] -= 1
            if not left[j]:
                ready.append(j)
    if done < len(rows):
        return CheckItem("STRONGLY_LOOPFREE", False, _cycle(c, succ, left))
    return CheckItem("STRONGLY_LOOPFREE", True, _extension(c, succ, indegree))


def _extension(c: BasedComplex, succ: list[list[int]], indegree: list[int]) -> str | None:
    """The first six generators of the linear extension that takes the least
    ready generator by name first, then ``" < ..."`` if more follow; None on
    an empty complex.  Kahn's algorithm on a heap of ``(name_key, position)``
    stops after six, so only generators that become ready get a key."""
    names = list(c._gen_degree)
    left = indegree.copy()
    ready = [(name_key(names[i]), i) for i, k in enumerate(left) if not k]
    heapify(ready)
    order: list[Name] = []
    while ready and len(order) < 6:
        i = heappop(ready)[1]
        order.append(names[i])
        for j in succ[i]:
            left[j] -= 1
            if not left[j]:
                heappush(ready, (name_key(names[j]), j))
    if not order:
        return None
    return " < ".join(map(render_name, order)) + (" < ..." if len(names) > 6 else "")


def _cycle(c: BasedComplex, succ: list[list[int]], left: list[int]) -> str:
    """A cycle among the generators Kahn's algorithm left unplaced (``left[i]``
    edges into each still unread): from the least of them by name, step to
    the least predecessor left until one repeats."""
    names = list(c._gen_degree)
    remaining = {i for i, k in enumerate(left) if k}
    pred: dict[int, list[int]] = {i: [] for i in remaining}
    for i in remaining:
        for j in succ[i]:
            if j in remaining:
                pred[j].append(i)

    def key(i: int):
        return name_key(names[i])

    seen: list[int] = []
    node = min(remaining, key=key)
    while node not in seen:
        seen.append(node)
        node = min(pred[node], key=key)
    cycle = [node] + list(reversed(seen[seen.index(node) + 1 :])) + [node]
    return " <= ".join(render_name(names[i]) for i in cycle)


def is_steiner(c: BasedComplex) -> CheckReport:
    """Conjunction: valid complex, all atoms natural, unital, loop-free.

    The three walks read one table of position rows, built for this call.
    Past validation, ``UNITALITY`` descends each atom once, through positive
    parts: ``d∘d = 0`` and ``ε∘d₁ = 0`` make the minus side agree (see the
    module docstring), so the witness is :func:`unitality_check`'s.
    ``ATOMS_NATURAL`` is a constant pass: entries below the top are parts of
    splits, positive by construction."""
    rows = _position_rows(c)
    base = _validity(c, rows)
    if not base.passed:
        return base
    atoms = report(CheckItem("ATOMS_NATURAL", True, None), _unitality(c, rows))
    return base.merged(atoms).merged(report(_loopfree(c, rows)))
