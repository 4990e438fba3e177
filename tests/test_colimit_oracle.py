"""Cross-check the elimination engine against independent references.

For random integer relation matrices the engine's verdict (based / torsion /
non-based-but-free) must agree with the Smith normal form computed by a
mature library, and the projection must kill exactly the relation span.
The heap-driven pivot loop must also pick the same pivots, in the same
order, as the full rescan it replaced, which is kept here as its oracle.
Relation sets whose rows are all ``x - y`` are resolved by union-find; the
eliminator is their oracle.
"""

import random
from collections import Counter

import pytest

from steinerlab import BasedComplex, Chain, ComplexMap, colimits, join_pushout, shape_library
from steinerlab import suspension_pushout, unit
from steinerlab.colimits import _Eliminator, _unit_classes, quotient_by_relations
from steinerlab.core import _positions, add_scaled

try:
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
except ImportError:  # pragma: no cover - sympy is a test extra
    smith_normal_form = None

needs_sympy = pytest.mark.skipif(smith_normal_form is None, reason="needs sympy")


def _ambient(width: int) -> BasedComplex:
    names = [(f"g{i}",) for i in range(width)]
    return BasedComplex({1: names}, {n: Chain(0) for n in names}, {})


def _random_case(rng: random.Random):
    width = rng.randint(1, 5)
    height = rng.randint(1, 5)
    rows = []
    for _ in range(height):
        row = {
            (f"g{i}",): rng.randint(-4, 4)
            for i in range(width)
            if rng.random() < 0.7
        }
        rows.append({k: v for k, v in row.items() if v})
    return width, rows


def _sparse_case(rng: random.Random):
    """Up to 30 x 30, density 5-30%, non-zero coefficients in -3..3."""
    width = rng.randint(1, 30)
    height = rng.randint(1, 30)
    density = rng.uniform(0.05, 0.3)
    rows = []
    for _ in range(height):
        row = {
            (f"g{i}",): rng.choice((-3, -2, -1, 1, 2, 3))
            for i in range(width)
            if rng.random() < density
        }
        if row:
            rows.append(row)
    return width, rows


def _assert_rechecks(result):
    """Every leg of a based result, adopted without a per-term check, is the
    map ``ComplexMap`` builds from its source, target and assignment."""
    for m in (result.leg_a, result.leg_b):
        assert list(m.assignment) == list(m.source._gen_degree)
        assert ComplexMap(m.source, m.target, m.assignment) == m


def _check_against_smith(width, rows):
    ambient = _ambient(width)
    relations = [Chain(1, row) for row in rows]
    result = quotient_by_relations(ambient, relations)
    quotient, projection = result.complex, result.leg_a
    witness, reason = result.torsion_witness, result.reason

    dense = Matrix(
        [[row.get((f"g{i}",), 0) for i in range(width)] for row in rows]
    )
    snf = smith_normal_form(dense)
    divisors = [abs(snf[i, i]) for i in range(min(snf.rows, snf.cols))]
    has_torsion = any(d not in (0, 1) for d in divisors)
    rank = sum(1 for d in divisors if d != 0)

    if quotient is not None:
        _assert_rechecks(result)
        assert not has_torsion
        assert quotient.size == width - rank
        # the projection kills exactly the relations
        assert projection is not None
        for rel in relations:
            assert projection(rel).is_zero()
        for _, g in quotient.all_generators():
            items = projection.of_gen(g).items()
            assert items == [(g, 1)]
    elif witness is not None:
        assert has_torsion
        assert witness[1] not in (0, 1)
    else:
        assert not has_torsion
        assert reason is not None and "non-based" in reason


@needs_sympy
@pytest.mark.parametrize("seed", range(120))
def test_engine_agrees_with_smith_normal_form(seed):
    rng = random.Random(seed)
    _check_against_smith(*_random_case(rng))


LARGE_SEEDS = range(1000, 1080)


@needs_sympy
@pytest.mark.parametrize("seed", LARGE_SEEDS)
def test_engine_agrees_with_smith_normal_form_sparse(seed):
    _check_against_smith(*_sparse_case(random.Random(seed)))


class _RescanEliminator(_Eliminator):
    """The elimination loop before the pivot heap: a full rescan per pivot.

    ``seen`` counts what a case exercised: passes, non-unit pivots that
    reduced or were parked, and rows the zero-row filter dropped.
    """

    def __init__(self, relations):
        super().__init__(relations)
        self.seen = Counter()

    def _main_pass(self) -> bool:
        self.seen["passes"] += 1
        rows, parked = self.rows, self.residual
        parked_changed = False
        while rows:
            _, col, idx = min(
                (abs(c), g, i) for i, row in enumerate(rows) for g, c in row.items()
            )
            prow = rows.pop(idx)
            coeff = prow[col]
            if abs(coeff) == 1:
                expr = {h: -coeff * c for h, c in prow.items() if h != col}
                self.expr[col] = expr
                parked_changed = parked_changed or any(col in row for row in parked)
                for other in rows + parked:
                    c = other.pop(col, 0)
                    if c:
                        add_scaled(other, expr, c)
                self.seen["emptied"] += sum(1 for r in rows if not r)
                rows[:] = [r for r in rows if r]
            else:
                reduced = False
                for other in rows:
                    q = other.get(col, 0) // coeff
                    if q:
                        reduced = True
                        add_scaled(other, prow, -q)
                self.seen["emptied"] += sum(1 for r in rows if not r)
                rows[:] = [r for r in rows if r]
                self.seen["reduced" if reduced else "parked"] += 1
                (rows if reduced else parked).append(prow)
        return parked_changed


def _position_rows(rows):
    return [{int(g[0][1:]): c for g, c in row.items()} for row in rows]


ORACLE_SEEDS = range(2000, 2300)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_pivot_heap_matches_rescan(seed):
    rows = _position_rows(_sparse_case(random.Random(seed))[1])
    fast = _Eliminator([dict(r) for r in rows])
    slow = _RescanEliminator([dict(r) for r in rows])
    assert fast.run() == slow.run()
    assert list(fast.expr) == list(slow.expr)
    assert fast.expr == slow.expr
    assert fast.residual == slow.residual
    assert fast.resolved() == slow.resolved()


def test_seeded_cases_reach_every_branch():
    seen = Counter()
    for seed in ORACLE_SEEDS:
        elim = _RescanEliminator(_position_rows(_sparse_case(random.Random(seed))[1]))
        elim.run()
        seen.update(elim.seen)
        seen["reruns"] += elim.seen["passes"] > 1
    assert seen["reruns"] and seen["reduced"] and seen["parked"] and seen["emptied"]


def test_large_smith_cases_reach_the_parked_rerun(monkeypatch):
    passes = []
    main_pass = _Eliminator._main_pass

    def counted(self):
        passes.append(self)
        return main_pass(self)

    monkeypatch.setattr(_Eliminator, "_main_pass", counted)
    reruns = 0
    for seed in LARGE_SEEDS:
        width, rows = _sparse_case(random.Random(seed))
        passes.clear()
        quotient_by_relations(_ambient(width), [Chain(1, row) for row in rows])
        reruns += len(passes) > len(set(map(id, passes)))
    assert reruns >= 5


def _graph_ambient(rng: random.Random) -> BasedComplex:
    """Vertices ``v.i`` and edges ``e.i``, each edge between two vertices."""
    vertices = [("v", str(i)) for i in range(rng.randint(2, 40))]
    edges = [("e", str(i)) for i in range(rng.randint(2, 40))]
    diff = {}
    for e in edges:
        x, y = rng.sample(vertices, 2)
        diff[e] = Chain(0, {x: 1, y: -1})
    return BasedComplex({0: vertices, 1: edges}, diff, {v: 1 for v in vertices})


def _unit_pair_case(rng: random.Random):
    """``x - y`` relations in both degrees of a graph: a long chain of
    identifications, random pairs, and redundant rows (repeats, reversals
    and the chain's ends), each with a random sign and term order."""
    ambient = _graph_ambient(rng)
    relations = []
    for degree in (0, 1):
        gens = list(ambient.generators(degree))
        chain = rng.sample(gens, rng.randint(2, len(gens)))
        pairs = list(zip(chain, chain[1:]))
        pairs += [tuple(rng.sample(gens, 2)) for _ in range(rng.randint(0, len(gens)))]
        pairs += [rng.choice(pairs)[:: rng.choice((1, -1))] for _ in range(rng.randint(1, 5))]
        pairs.append((chain[-1], chain[0]))
        for x, y in pairs:
            sign = rng.choice((1, -1))
            relations.append(Chain(degree, {x: sign, y: -sign}))
    rng.shuffle(relations)
    return ambient, relations


def _quotient(monkeypatch, ambient, relations, eliminate=False):
    """``quotient_by_relations``, forced through the eliminator when
    ``eliminate``, and the row sets it handed to the eliminator."""
    handed = []

    class Recorded(_Eliminator):
        def __init__(self, rows):
            handed.append([dict(row) for row in rows])
            super().__init__(rows)

    with monkeypatch.context() as m:
        m.setattr(colimits, "_Eliminator", Recorded)
        if eliminate:
            m.setattr(colimits, "_unit_classes", lambda rows: None)
        return quotient_by_relations(ambient, relations), handed


def _rows(ambient, relations):
    position = _positions(ambient)
    return [{position[g]: c for g, c in rel._coeffs.items()} for rel in relations]


UNIT_SEEDS = range(3000, 3080)


@pytest.mark.parametrize("seed", UNIT_SEEDS)
def test_unit_relations_by_union_find_match_the_eliminator(seed, monkeypatch):
    ambient, relations = _unit_pair_case(random.Random(seed))
    fast, handed = _quotient(monkeypatch, ambient, relations)
    slow, _ = _quotient(monkeypatch, ambient, relations, eliminate=True)
    assert handed == []
    assert (fast.based, fast.reason, fast.torsion_witness) == (True, None, None)
    assert (slow.based, slow.reason, slow.torsion_witness) == (True, None, None)
    assert fast.complex.degrees == slow.complex.degrees
    assert fast.complex == slow.complex
    assert fast.leg_a.assignment == slow.leg_a.assignment
    assert fast.leg_b is fast.leg_a
    _assert_rechecks(fast)
    _assert_rechecks(slow)

    resolved = {}
    for degree in (0, 1):
        elim = _Eliminator([r for r, rel in zip(_rows(ambient, relations), relations)
                            if rel.degree == degree])
        assert elim.run() is None
        resolved.update(elim.resolved())
    assert _unit_classes(_rows(ambient, relations)) == resolved


def test_unit_pair_cases_reach_every_shape():
    """The seeded cases hold redundant rows, long chains, and ``x - y`` rows
    in both sign orders, with the lower position listed first and second."""
    redundant = longest = 0
    shapes = set()
    for seed in UNIT_SEEDS:
        ambient, relations = _unit_pair_case(random.Random(seed))
        rows = _rows(ambient, relations)
        resolved = _unit_classes(rows)
        redundant += len(rows) > len(resolved)
        classes = Counter(next(iter(terms)) for terms in resolved.values())
        longest = max(longest, *classes.values())
        for row in rows:
            (x, a), (y, _) = row.items()
            shapes.add((x < y, a))
    assert redundant == len(UNIT_SEEDS)
    assert longest >= 30
    assert shapes == {(True, 1), (True, -1), (False, 1), (False, -1)}


def test_a_mixed_row_set_takes_the_eliminator(monkeypatch):
    g0, g1, g2, g3 = [(f"g{i}",) for i in range(4)]
    ambient = _ambient(4)
    pairs = [Chain(1, {g0: 1, g1: -1}), Chain(1, {g2: -1, g1: 1})]
    _, handed = _quotient(monkeypatch, ambient, pairs)
    assert handed == []
    # g0 = g1 = g2 by the pairs and g2 = 2 g3: only g3 survives
    result, handed = _quotient(monkeypatch, ambient, pairs + [Chain(1, {g3: 2, g2: -1})])
    assert handed == [_rows(ambient, pairs) + [{3: 2, 2: -1}]]
    assert result.require_based().degrees == {1: (g3,)}
    _assert_rechecks(result)
    assert [result.leg_a.of_gen(g) for g in (g0, g1, g2, g3)] == [
        Chain(1, {g3: 2})
    ] * 3 + [Chain(1, {g3: 1})]
    # a lone unit term, two terms of one sign, three terms: none is x - y
    for odd in ({g3: 1}, {g3: 1, g0: 1}, {g3: 1, g0: -1, g2: 1}):
        rows = _rows(ambient, pairs + [Chain(1, odd)])
        assert _unit_classes(rows) is None
        _, handed = _quotient(monkeypatch, ambient, pairs + [Chain(1, odd)])
        assert handed == [rows]


def test_pushout_legs_recheck():
    """The legs of the join and suspension pushouts of every library shape."""
    for c in shape_library(big=True).values():
        for result in (join_pushout(c, unit()), join_pushout(unit(), c), suspension_pushout(c)):
            _assert_rechecks(result)
