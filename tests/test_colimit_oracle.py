"""Cross-check the elimination engine against independent references.

For random integer relation matrices the engine's verdict (based / torsion /
non-based-but-free) must agree with the Smith normal form computed by a
mature library, and the projection must kill exactly the relation span.
The heap-driven pivot loop must also pick the same pivots, in the same
order, as the full rescan it replaced, which is kept here as its oracle.
"""

import random
from collections import Counter

import pytest

from steinerlab import BasedComplex, Chain
from steinerlab.colimits import _Eliminator, quotient_by_relations
from steinerlab.core import add_scaled

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
