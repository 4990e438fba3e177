import random

import pytest

from steinerlab import (
    BasedComplex,
    Chain,
    CheckItem,
    chain_of,
    cube,
    direct_sum,
    disk,
    gray_tensor,
    interval,
    oriental,
    pos_neg_parts,
    preorder,
    is_steiner,
    is_strongly_loopfree,
    shape_library,
    suspension,
    unit,
    unitality_check,
    validate_complex,
    wedge,
    zero,
)
from steinerlab.acceptance import (
    fixture_broken_augmentation,
    fixture_broken_d2,
    fixture_loop,
    fixture_non_unital,
    random_steiner_complex,
)
from steinerlab.cells import CellTable
from steinerlab.core import (
    DegreeMismatchError,
    _adopt,
    _d2_failures,
    _position_rows,
    _positions,
    coproduct,
    report,
)
from steinerlab.names import name_key, parse_name, render_name
from steinerlab.steiner import _floor, atom_table


def _plus_floor(c: BasedComplex, b) -> Chain:
    """``atom_table(c, b).plus[0]`` on a complex with ``d∘d = 0``: the row
    walk of ``is_steiner``, read back as names."""
    degree = c.degree_of(b)  # refuses an unknown generator
    part = _floor(_position_rows(c), _positions(c)[b], degree)
    names = list(c._gen_degree)
    return _adopt(0, {names[j]: v for j, v in part.items()})


def test_pos_neg_triangle():
    plus, minus = pos_neg_parts(oriental(2), chain_of(2, ("0", "1", "2")))
    assert plus == Chain(1, {("0", "1"): 1, ("1", "2"): 1})
    assert minus == Chain(1, {("0", "2"): 1})


def test_pos_neg_disks():
    for n in range(1, 5):
        top = ("u",)
        for _ in range(n):
            top = ("s", top)
        plus, minus = pos_neg_parts(disk(n), chain_of(n, top))
        assert len(plus.items()) == 1 and len(minus.items()) == 1


def test_pos_neg_linearity_without_cancellation():
    c = oriental(2)
    x = chain_of(2, ("0", "1", "2"))
    plus, minus = pos_neg_parts(c, x + x)
    p1, m1 = pos_neg_parts(c, x)
    assert plus == 2 * p1 and minus == 2 * m1


def test_pos_neg_rejects_vertices():
    with pytest.raises(DegreeMismatchError):
        pos_neg_parts(oriental(1), chain_of(0, ("0",)))


def test_split_identity():
    for c in (oriental(3), cube(3)):
        for deg, g in c.all_generators():
            if deg == 0:
                continue
            plus, minus = pos_neg_parts(c, chain_of(deg, g))
            assert plus - minus == c.d(chain_of(deg, g))
            assert plus.is_zero() or plus.is_nonnegative()
            assert minus.is_zero() or minus.is_nonnegative()


def test_atom_triangle_worked_example():
    t = atom_table(oriental(2), ("0", "1", "2"))
    assert t.minus[2] == t.plus[2] == chain_of(2, ("0", "1", "2"))
    assert t.minus[1] == Chain(1, {("0", "2"): 1})
    assert t.plus[1] == Chain(1, {("0", "1"): 1, ("1", "2"): 1})
    assert t.minus[0] == Chain(0, {("0",): 1})
    assert t.plus[0] == Chain(0, {("2",): 1})


def test_atom_disk_levels_are_single_generators():
    t = atom_table(disk(3), ("s", ("s", ("s", ("u",)))))
    for k in range(3):
        assert len(t.minus[k].items()) == 1
        assert len(t.plus[k].items()) == 1


def test_atom_square():
    t = atom_table(cube(2), ("ii",))
    assert t.plus[1] == Chain(1, {("i0",): 1, ("1i",): 1})
    assert t.minus[1] == Chain(1, {("0i",): 1, ("i1",): 1})
    assert t.minus[0] == chain_of(0, ("00",))
    assert t.plus[0] == chain_of(0, ("11",))


def test_unitality():
    assert unitality_check(oriental(4)).passed
    assert unitality_check(unit()).passed
    rep = unitality_check(fixture_non_unital())
    assert not rep.passed and rep.checks[0].witness == "e"


def test_preorder_examples():
    rel = preorder(oriental(2))
    edges = set(rel.edges)
    assert (("0", "2"), ("0", "1", "2")) in edges
    assert (("0", "1", "2"), ("0", "1")) in edges
    assert preorder(unit()).edges == ()
    rel2 = preorder(disk(2))
    edges2 = set(rel2.edges)
    top = ("s", ("s", ("u",)))
    assert (("s", ("b0",)), top) in edges2
    assert (top, ("s", ("b1",))) in edges2


def test_strong_loopfreeness():
    assert is_strongly_loopfree(cube(4)).passed
    assert is_strongly_loopfree(zero()).passed
    rep = is_strongly_loopfree(fixture_loop())
    assert not rep.passed
    witness = rep.checks[0].witness
    assert witness and witness.count("<=") >= 4


def test_is_steiner():
    for n in range(5):
        assert is_steiner(oriental(n)).passed
        assert is_steiner(cube(n)).passed
    assert not is_steiner(fixture_loop()).passed


def test_is_steiner_closed_under_tensor_and_join():
    from steinerlab import gray_tensor, join, shape_library

    lib = shape_library()
    for a in lib.values():
        for b in lib.values():
            if a.size * b.size <= 300:
                assert is_steiner(gray_tensor(a, b)).passed
            if a.size + b.size + a.size * b.size <= 300:
                assert is_steiner(join(a, b)).passed


def test_duals_preserve_steiner():
    from steinerlab import dual_co, dual_op, shape_library

    for c in shape_library().values():
        assert is_steiner(dual_op(c)).passed
        assert is_steiner(dual_co(c)).passed


# -- the one-pass analysis against a sorted, item-by-item oracle ---------------


def _oracle_atom(c, b):
    """The atom of ``b``, each level split from the name-sorted items of d."""

    def parts(x):
        dx = c.d(x).items()
        plus = Chain(x.degree - 1, {n: v for n, v in dx if v > 0})
        return plus, Chain(x.degree - 1, {n: -v for n, v in dx if v < 0})

    n = c.degree_of(b)
    minus = [chain_of(n, b)]
    plus = [chain_of(n, b)]
    for _ in range(n):
        plus.insert(0, parts(plus[0])[0])
        minus.insert(0, parts(minus[0])[1])
    return CellTable(c, n, tuple(minus), tuple(plus))


def _oracle_edges(c):
    """The preorder's edges in its public order: per generator, the negative
    part of its differential, then the positive part, each by name."""
    edges = []
    for degree, g in c.all_generators():
        if degree:
            dg = c.diff[g].items()
            edges += [(x, g) for x, v in dg if v < 0] + [(g, y) for y, v in dg if v > 0]
    return edges


def _oracle_loopfree(c):
    """Kahn's algorithm re-sorting the ready list after every step; on a
    cycle, walk least predecessors from the least generator left."""
    elements = [g for _, g in c.all_generators()]
    edges = _oracle_edges(c)
    indegree = {e: sum(1 for _, b in edges if b == e) for e in elements}
    ready = sorted((e for e in elements if not indegree[e]), key=name_key)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for a, b in edges:
            if a == node:
                indegree[b] -= 1
                if not indegree[b]:
                    ready = sorted(ready + [b], key=name_key)
    if len(order) == len(elements):
        text = " < ".join(render_name(g) for g in order[:6])
        text += " < ..." if len(order) > 6 else ""
        return CheckItem("STRONGLY_LOOPFREE", True, text or None)
    remaining = {e for e in elements if indegree[e]}
    seen = []
    node = min(remaining, key=name_key)
    while node not in seen:
        seen.append(node)
        node = min((a for a, b in edges if b == node and a in remaining), key=name_key)
    cycle = [node] + seen[seen.index(node) + 1 :][::-1] + [node]
    return CheckItem("STRONGLY_LOOPFREE", False, " <= ".join(render_name(g) for g in cycle))


def _oracle_unitality(c):
    """The first generator, in basis order, whose atom is not unital."""
    for _, b in c.all_generators():
        t = _oracle_atom(c, b)
        if c.eps(t.minus[0]) != 1 or c.eps(t.plus[0]) != 1:
            return CheckItem("UNITALITY", False, render_name(b))
    return CheckItem("UNITALITY", True, None)


def _oracle_is_steiner(c):
    base = validate_complex(c)
    if not base.passed:
        return list(base.checks)
    # both parts of every split are non-negative, so every atom is natural
    natural = CheckItem("ATOMS_NATURAL", True, None)
    return list(base.checks) + [natural, _oracle_unitality(c), _oracle_loopfree(c)]


def _random_graph(rng):
    """A seeded directed graph, often with cycles; some edges have the
    non-unital boundary y + z - 2x."""
    vs = [(f"v{i}",) for i in range(rng.randint(3, 6))]
    diff = {}
    for i in range(rng.randint(1, 8)):
        x, y, z = rng.sample(vs, 3)
        terms = {y: 1, z: 1, x: -2} if rng.random() < 0.15 else {y: 1, x: -1}
        diff[(f"e{i}",)] = Chain(0, terms)
    return BasedComplex({0: vs, 1: list(diff)}, diff, {v: 1 for v in vs})


def _differential_corpus():
    rng = random.Random(20261018)
    corpus = list(shape_library().values()) + [fixture_loop(), fixture_non_unital()]
    # invalid complexes: is_steiner stops at validation; atoms are still compared
    corpus += [fixture_broken_d2(), fixture_broken_augmentation()]
    corpus += [random_steiner_complex(rng) for _ in range(25)]
    graphs = []
    for _ in range(25):
        g = _random_graph(rng)
        graphs.append(g)
        corpus += [g, gray_tensor(g, interval()), suspension(g)]
    # unions and wedges: several generators of in-degree zero, and linear
    # extensions whose first six generators interleave degrees
    shapes = list(shape_library().values())
    for _ in range(12):
        a, b = rng.choice(shapes), rng.choice(shapes + graphs)
        corpus += [
            direct_sum(a, b),
            coproduct([("p", a), ("q", rng.choice(graphs)), ("r", b)]),
            wedge(a, rng.choice(a.generators(0)), b, rng.choice(b.generators(0))),
        ]
    return corpus


def _interleaves(c, item):
    """Whether ``item`` extends the preorder of ``c`` from two or more
    generators of in-degree zero, listing a generator of some degree after
    one of a higher degree among its first six."""
    if item.name != "STRONGLY_LOOPFREE" or not item.passed or not item.witness:
        return False
    targets = {b for _, b in _oracle_edges(c)}
    if sum(g not in targets for _, g in c.all_generators()) < 2:
        return False
    first = [parse_name(text) for text in item.witness.split(" < ") if text != "..."]
    degrees = [c.degree_of(g) for g in first]
    return degrees != sorted(degrees)


def test_is_steiner_matches_sorted_oracle():
    verdicts = set()
    interleaved = 0
    for c in _differential_corpus():
        rep = is_steiner(c)
        expected = _oracle_is_steiner(c)
        assert list(rep.checks) == expected
        assert rep.lines() == report(*expected).lines()
        assert unitality_check(c).checks == (_oracle_unitality(c),)
        assert is_strongly_loopfree(c).checks == (_oracle_loopfree(c),)
        assert list(preorder(c).edges) == _oracle_edges(c)
        for _, b in c.all_generators():
            assert atom_table(c, b) == _oracle_atom(c, b)
        verdicts.add(tuple(item.passed for item in rep.checks))
        interleaved += _interleaves(c, expected[-1])
    # the corpus reaches each outcome: all pass, not unital, not loop-free
    assert {(True,) * 6, (True,) * 4 + (False, True), (True,) * 5 + (False,)} <= verdicts
    assert interleaved


def test_report_text_is_pinned():
    extensions = {
        "0000 < 000i < 0001 < 00i1 < 00ii < 00i0 < ...": cube(4),
        "0 < 0.5 < 0.4.5 < 0.4 < 0.3.4 < 0.3.4.5 < ...": oriental(5),
        "b0 < s.(b0) < s.(s.(b0)) < s.(s.(s.(u))) < s.(s.(b1)) < s.(b1) < ...": disk(3),
    }
    for text, c in extensions.items():
        assert is_strongly_loopfree(c).checks[0].witness == text
    assert is_steiner(fixture_loop()).lines()[-1] == (
        "FAIL  STRONGLY_LOOPFREE  [e <= y <= f <= x <= e]"
    )


def test_is_steiner_builds_no_atom_table(monkeypatch):
    from steinerlab import steiner

    built = []
    real = steiner.atom_table

    def counted(c, b):
        built.append(b)
        return real(c, b)

    monkeypatch.setattr(steiner, "atom_table", counted)
    for c in (cube(4), oriental(5)):
        assert is_steiner(c).passed
    assert built == []


def test_one_sided_walk_matches_two_sided_atoms():
    """Past validation, ``is_steiner`` reads only the plus side of each atom:
    its ``UNITALITY`` item is :func:`unitality_check`'s, and each generator's
    one-sided floor is the plus entry at level zero of its atom table."""
    non_unital = 0
    for c in _differential_corpus():
        if not validate_complex(c).passed:
            continue
        (expected,) = unitality_check(c).checks
        assert [i for i in is_steiner(c).checks if i.name == "UNITALITY"] == [expected]
        non_unital += not expected.passed
        for _, b in c.all_generators():
            assert _plus_floor(c, b) == atom_table(c, b).plus[0]
    assert non_unital


def test_the_unitality_walk_stops_at_an_empty_part():
    """A generator of degree 10**50 with zero boundary has floor zero: it
    fails ``UNITALITY`` at once, without a walk through every degree."""
    far = 10**50
    c = BasedComplex({0: [("v",)], far: [("e",)]}, {("e",): Chain(far - 1)}, {("v",): 1})
    assert _plus_floor(c, ("e",)) == Chain(0)
    assert [(i.name, i.witness) for i in is_steiner(c).failures()] == [("UNITALITY", "e")]


def test_atom_tables_past_the_generator_limit_are_refused(monkeypatch):
    """A table of six levels over two generators is built under a limit of
    six and refused under five; the three-generator interval's tables,
    shorter than it is, are built whatever the limit."""
    from steinerlab import SizeLimitError

    c = BasedComplex({0: [("v",)], 5: [("e",)]}, {("e",): Chain(4)}, {("v",): 1})
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "6")
    assert atom_table(c, ("e",)).dim == 5
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "5")
    with pytest.raises(SizeLimitError, match="^atom table of 6 levels exceeds"):
        atom_table(c, ("e",))
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "1")
    assert atom_table(interval(), ("i",)).dim == 1


def _oracle_d2_failures(c):
    """Each generator whose d(d g) is not zero, in basis order, summed by
    name over the complex's differentials."""
    for degree, g in c.all_generators():
        if degree >= 2:
            total = {}
            for h, coeff in c.diff[g]._coeffs.items():
                for k, v in c.diff[h]._coeffs.items():
                    total[k] = total.get(k, 0) + coeff * v
            if any(total.values()):
                yield g


def _perturbed(c, rng):
    """``c`` with one coefficient of one differential of degree at least
    one moved by one, or None when it has no such differential."""
    gens = [(deg, g) for deg, g in c.all_generators() if deg and c.generators(deg - 1)]
    if not gens:
        return None
    deg, g = rng.choice(gens)
    terms = dict(c.diff[g]._coeffs)
    h = rng.choice(c.generators(deg - 1))
    terms[h] = terms.get(h, 0) + rng.choice((-1, 1))
    return BasedComplex(c.degrees, {**c.diff, g: Chain(deg - 1, terms)}, c.aug)


def test_row_walk_for_d2_matches_name_keyed_walk():
    """The row walk of ``D2_ZERO`` fails at the generators, in the order,
    that a walk keyed by names fails at: on valid shapes, on the broken
    fixture and on seeded single-coefficient perturbations."""
    rng = random.Random(20261020)
    corpus = _differential_corpus() + [cube(3), oriental(4)]
    corpus += [_perturbed(c, rng) for c in corpus for _ in range(3)]
    late_witnesses = 0
    for c in filter(None, corpus):
        expected = list(_oracle_d2_failures(c))
        assert list(_d2_failures(c, _position_rows(c))) == expected
        witness = render_name(expected[0]) if expected else None
        assert validate_complex(c).checks[0] == CheckItem("D2_ZERO", not expected, witness)
        upper = [g for deg, g in c.all_generators() if deg >= 2]
        late_witnesses += bool(expected) and expected[0] != upper[0]
    assert [render_name(g) for g in _oracle_d2_failures(fixture_broken_d2())] == ["c"]
    assert late_witnesses
