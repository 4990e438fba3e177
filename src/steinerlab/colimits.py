"""Finite colimits of complex maps by exact integer elimination.

Pushouts and coequalizers are computed degreewise as cokernels of integer
relation matrices.  Elimination uses unit pivots chosen deterministically
(smallest absolute coefficient, then basis position, i.e. name order, then
row); whenever the quotient is degreewise free and spanned by surviving
original generators, a genuine :class:`~steinerlab.core.BasedComplex` is
returned together with its legs.  Otherwise the result carries a torsion
witness (an elementary divisor greater than one) or a non-based diagnostic
instead of a complex.  The pivot comes off a heap of row entries, and a
column -> rows index hands each pivot only the rows that hold its column, so
a pivot costs the rows it changes rather than a rescan of all of them.
Eliminated generators resolve to survivors in one loop, without recursion,
however long the chain of identifications.  Relation rows, legs and
projections are read from each chain's dict without sorting: rows are keyed
by ``core._positions`` of the ambient, the numbering ``is_steiner`` reads,
and chains compare as dicts.

A relation set whose rows are all ``x - y`` (two terms, coefficients 1 and
-1), as the boundary coequalizers give by gluing along basis inclusions,
is not eliminated: a union-find resolves each class of identified positions
to its highest one, which is the survivor the pivot rule keeps (see
:func:`_unit_classes`).  Every other row set goes to the eliminator, the
union-find's oracle in the tests.  The survivors are a subsequence of the
ambient's canonical bases, so they are handed to ``BasedComplex`` as
canonical bases with their exact depth, and each projection image is read
straight off the resolved table.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Optional

from .core import (
    BasedComplex,
    Chain,
    ComplexMap,
    CompositionError,
    MalformedError,
    SteinerlabError,
    _adopt,
    _Canonical,
    _positions,
    _Record,
    _set_field,
    _tagged_union,
    add_scaled,
)
from .names import Name, name_depth, name_key, render_name


class NonBasedPushoutError(SteinerlabError):
    code = "NON_BASED_PUSHOUT"


class PushoutResult(_Record):
    """Computed colimit with diagnostics.

    When ``based`` is true, ``complex`` is the colimit presentation and
    ``leg_a``/``leg_b`` are valid maps making the square commute exactly.
    Otherwise ``complex`` and the legs are ``None``; ``torsion_witness``
    holds ``(degree, divisor)`` when a degreewise quotient fails to be free,
    and ``reason`` describes the failure either way.
    """

    __slots__ = ("complex", "leg_a", "leg_b", "based", "torsion_witness", "reason")

    def __init__(
        self,
        complex: Optional[BasedComplex],
        leg_a: Optional[ComplexMap],
        leg_b: Optional[ComplexMap],
        based: bool,
        torsion_witness: Optional[tuple[int, int]] = None,
        reason: Optional[str] = None,
    ):
        _set_field(self, "complex", complex)
        _set_field(self, "leg_a", leg_a)
        _set_field(self, "leg_b", leg_b)
        _set_field(self, "based", based)
        _set_field(self, "torsion_witness", torsion_witness)
        _set_field(self, "reason", reason)

    def require_based(self) -> BasedComplex:
        if not self.based or self.complex is None:
            raise NonBasedPushoutError(self.reason or "colimit is not based")
        return self.complex


class _Eliminator:
    """Quotient of one graded piece by integer relations, via unit pivots.

    Rows map positions of one degree's generators (as ``core._positions``
    numbers them, so in basis order) to non-zero coefficients.  The pivot is
    the entry of smallest absolute value, then position, then row.  A unit
    pivot eliminates its generator from every other row, parked ones
    included, so rows never hold eliminated generators.  A non-unit pivot
    reduces the other rows by floor division, or is parked in ``residual``
    if it reduces none; a pass that changed a parked row runs again on the
    parked rows.

    A pass keys its live rows by a sequence number: the rows it starts with
    get ``0..n-1`` and a reducing non-unit pivot row comes back with the next
    one.  Removing rows keeps the relative order of the others, and a row
    that comes back goes last, so sequence order is the order of a list of
    the live rows.  The pivot is the least valid entry of a heap keyed
    ``(|coeff|, position, seq)``; an entry is valid while its row is live
    and still holds that absolute value there, and every change pushes a
    fresh entry.  A column -> sequence-numbers index lets a pivot touch only
    the rows that hold its column.
    """

    def __init__(self, relations: list[dict[int, int]]):
        self.rows = relations
        self.expr: dict[int, dict[int, int]] = {}
        self.residual: list[dict[int, int]] = []

    def run(self) -> Optional[tuple[int, str]]:
        """Eliminate; return (divisor, kind) on failure, None on success."""
        while self._main_pass():
            self.rows = [row for row in self.residual if row]
            self.residual = []
        if not self.residual:
            return None
        divisors = _diagonal_divisors(self.residual)
        bad = [d for d in divisors if d not in (0, 1)]
        if bad:
            return bad[0], "torsion"
        return 1, "non-based"

    def _main_pass(self) -> bool:
        """Pivot until no row is left; return whether a parked row changed."""
        live = dict(enumerate(row for row in self.rows if row))
        self.rows = []
        parked = self.residual
        holders: dict[int, set[int]] = {}
        heap = []
        for seq, row in live.items():
            for g, c in row.items():
                holders.setdefault(g, set()).add(seq)
                heap.append((abs(c), g, seq))
        heapify(heap)

        def update(seq: int, terms: dict[int, int], scale: int) -> None:
            row = live[seq]
            add_scaled(row, terms, scale)
            for h in terms:
                c = row.get(h)
                if c:
                    holders.setdefault(h, set()).add(seq)
                    heappush(heap, (abs(c), h, seq))
                else:
                    holders[h].discard(seq)
            if not row:
                del live[seq]

        next_seq = len(live)
        parked_changed = False
        while live:
            size, col, seq = heappop(heap)
            prow = live.get(seq)
            if prow is None or abs(prow.get(col, 0)) != size:
                continue
            del live[seq]
            for g in prow:
                holders[g].discard(seq)
            coeff = prow[col]
            if size == 1:
                expr = {h: -coeff * c for h, c in prow.items() if h != col}
                self.expr[col] = expr
                for other in parked:
                    c = other.pop(col, 0)
                    if c:
                        parked_changed = True
                        add_scaled(other, expr, c)
                for t in holders.pop(col, ()):
                    update(t, expr, live[t].pop(col))
            else:
                # No live entry is smaller than the pivot, so every other
                # holder of its column is reduced by a non-zero quotient.
                targets = tuple(holders.get(col, ()))
                for t in targets:
                    update(t, prow, -(live[t][col] // coeff))
                if targets:
                    live[next_seq] = prow
                    for g, c in prow.items():
                        holders.setdefault(g, set()).add(next_seq)
                        heappush(heap, (abs(c), g, next_seq))
                    next_seq += 1
                else:
                    parked.append(prow)
        return parked_changed

    def resolved(self) -> dict[int, dict[int, int]]:
        """Every eliminated position expressed in the surviving positions.

        A pivot row never holds a generator eliminated before it, so each
        expression only needs those of generators eliminated later.
        """
        out: dict[int, dict[int, int]] = {}
        for col in reversed(self.expr):
            total: dict[int, int] = {}
            for h, c in self.expr[col].items():
                add_scaled(total, out.get(h, {h: 1}), c)
            out[col] = total
        return out


def _diagonal_divisors(rows: list[dict[int, int]]) -> list[int]:
    """Diagonalize a small integer matrix by unimodular row/column operations.

    Any diagonal form reached this way presents the same quotient group, so
    the absolute diagonal entries detect torsion without needing the
    divisibility-ordered Smith chain.
    """
    cols = sorted({g for row in rows for g in row})
    mat = [[row.get(g, 0) for g in cols] for row in rows]
    nrows, ncols = len(mat), len(cols)
    divisors: list[int] = []
    t = 0
    while t < nrows and t < ncols:
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if mat[i][j] and (best is None or abs(mat[i][j]) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        mat[t], mat[bi] = mat[bi], mat[t]
        if bj != t:
            for row in mat:
                row[t], row[bj] = row[bj], row[t]
        p = mat[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            q = mat[i][t] // p
            if q:
                for j in range(ncols):
                    mat[i][j] -= q * mat[t][j]
            if mat[i][t]:
                dirty = True
        for j in range(t + 1, ncols):
            q = mat[t][j] // p
            if q:
                for row in mat:
                    row[j] -= q * row[t]
            if mat[t][j]:
                dirty = True
        if dirty:
            continue
        divisors.append(abs(p))
        t += 1
    return divisors


def _unit_classes(rows: list[dict[int, int]]) -> Optional[dict[int, dict[int, int]]]:
    """The resolved table of relation rows that are all ``x - y``, or None
    when some row is not: two terms, coefficients 1 and -1.

    Each class of identified positions resolves to its highest position, by
    a union-find that links the lower root under the higher (Tarjan 1975).
    This is the table :class:`_Eliminator` reaches on such rows: every entry
    has absolute value one, so its heap pivots on the lowest live position,
    whose row partner is higher, and substituting the pivot leaves every
    other row ``x - y`` or empty.  The highest position of a class is never
    a pivot, so it is the class's one survivor.
    """
    parent: dict[int, int] = {}
    up = parent.get

    def root(p: int) -> int:
        while True:  # path halving
            q = up(p, p)
            if q == p:
                return p
            parent[p] = p = up(q, q)

    for row in rows:
        if len(row) != 2:
            return None
        (x, a), (y, b) = row.items()
        if a + b or (a != 1 and a != -1):
            return None
        x, y = root(x), root(y)
        if x < y:
            parent[x] = y
        elif y < x:
            parent[y] = x
    return {p: {root(p): 1} for p in parent}


def quotient_by_relations(ambient: BasedComplex, relations: list[Chain]) -> PushoutResult:
    """Quotient a based complex by homogeneous relations spanning a subcomplex.

    A based quotient comes with the projection as both legs; otherwise the
    result carries the torsion witness, if any, and the reason.
    """
    position, degree_of = _positions(ambient), ambient._gen_degree.get
    by_degree: dict[int, list[dict[int, int]]] = {}
    for rel in relations:
        stray = [g for g in rel._coeffs if degree_of(g) != rel.degree]
        if stray:
            raise MalformedError(
                f"relation term {render_name(min(stray, key=name_key))} is not a"
                f" degree {rel.degree} generator of the ambient complex"
            )
        if rel._coeffs:
            row = {position[g]: c for g, c in rel._coeffs.items()}
            by_degree.setdefault(rel.degree, []).append(row)
    # positions differ across degrees, so one table holds every degree's
    resolved = _unit_classes([row for rows in by_degree.values() for row in rows])
    if resolved is None:
        resolved = {}
        for degree in sorted(by_degree):
            elim = _Eliminator(by_degree[degree])
            failure = elim.run()
            if failure is not None:
                divisor, kind = failure
                witness = (degree, divisor) if kind == "torsion" else None
                reason = f"degree {degree}: {kind} quotient"
                return PushoutResult(None, None, None, False, witness, reason)
            resolved.update(elim.resolved())

    names = list(ambient._gen_degree)

    def project(chain: Chain) -> Chain:
        out: dict[int, int] = {}
        for name, coeff in chain._coeffs.items():
            p = position[name]
            add_scaled(out, resolved.get(p, {p: 1}), coeff)
        return _adopt(chain.degree, {names[p]: c for p, c in out.items()})

    # survivors keep the ambient's basis order, so each basis stays canonical
    degrees: dict[int, list[Name]] = {}
    diff: dict[Name, Chain] = {}
    aug: dict[Name, int] = {}
    images: dict[Name, Chain] = {}
    for p, (g, degree) in enumerate(ambient._gen_degree.items()):
        terms = resolved.get(p)
        if terms is not None:
            images[g] = _adopt(degree, {names[q]: c for q, c in terms.items()})
            continue
        images[g] = _adopt(degree, {g: 1})
        degrees.setdefault(degree, []).append(g)
        if degree:
            diff[g] = project(ambient.diff[g])
        else:
            aug[g] = ambient.aug[g]
    depth = ambient._depth
    if resolved:  # the deepest names may all be gone
        depth = _depth_below(degrees.values(), depth)
    bases = {degree: _Canonical(gens, depth) for degree, gens in degrees.items()}
    quotient = BasedComplex(bases, diff, aug)
    projection = ComplexMap(ambient, quotient, images)
    return PushoutResult(quotient, projection, projection, True)


def _depth_below(bases: Iterable[list[Name]], ceiling: int) -> int:
    """How deep the deepest name of ``bases`` nests, known to be at most
    ``ceiling``: the scan stops at the first name that deep."""
    depth = 0
    for basis in bases:
        for g in basis:
            depth = max(depth, name_depth(g))
            if depth == ceiling:
                return depth
    return depth


def pushout(f: ComplexMap, g: ComplexMap) -> PushoutResult:
    """Pushout of the span ``target(f) <- source -> target(g)``."""
    if f.source != g.source:
        raise CompositionError("pushout legs must share a source", code="SOURCE_MISMATCH")
    ambient, tables = _tagged_union([("l", f.target), ("r", g.target)])
    left, right = tables.get("l", {}), tables.get("r", {})
    relations = []
    for deg, c in f.source.all_generators():
        row = {left[n]: v for n, v in f.of_gen(c)._coeffs.items()}
        add_scaled(row, {right[n]: v for n, v in g.of_gen(c)._coeffs.items()}, -1)
        relations.append(_adopt(deg, row))
    result = quotient_by_relations(ambient, relations)
    if not result.based:
        return result
    quotient, projection = result.complex, result.leg_a

    def leg(part: BasedComplex, table: dict[Name, Name]) -> ComplexMap:
        images = {x: projection.of_gen(table[x]) for x in part._gen_degree}
        return ComplexMap(part, quotient, images)

    return PushoutResult(quotient, leg(f.target, left), leg(g.target, right), True)


def coequalizer(f: ComplexMap, g: ComplexMap) -> PushoutResult:
    """Coequalizer of a parallel pair; both legs are the projection."""
    if f.source != g.source or f.target != g.target:
        raise CompositionError("coequalizer needs a parallel pair of maps")
    relations = []
    for deg, c in f.source.all_generators():
        row = dict(f.of_gen(c)._coeffs)
        add_scaled(row, g.of_gen(c)._coeffs, -1)
        relations.append(_adopt(deg, row))
    return quotient_by_relations(f.target, relations)


def induced_from_pushout(
    result: PushoutResult, u: ComplexMap, v: ComplexMap
) -> ComplexMap:
    """Factor a commuting cocone ``(u, v)`` through a based pushout."""
    quotient = result.require_based()
    assignment: dict[Name, Chain] = {}
    for _, g in quotient.all_generators():
        if g[0] == "l":
            assignment[g] = u.of_gen(g[1])
        else:
            assignment[g] = v.of_gen(g[1])
    return ComplexMap(quotient, u.target, assignment)


def induced_from_coequalizer(result: PushoutResult, w: ComplexMap) -> ComplexMap:
    """Factor a coequalizing map ``w`` through a based coequalizer."""
    quotient = result.require_based()
    return ComplexMap(
        quotient,
        w.target,
        {g: w.of_gen(g) for _, g in quotient.all_generators()},
    )
