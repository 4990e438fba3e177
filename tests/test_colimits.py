import pytest

from steinerlab import (
    BasedComplex,
    Chain,
    ComplexMap,
    CompositionError,
    MalformedError,
    chain_of,
    coequalizer,
    compose,
    disk,
    disk_inclusion,
    graded_counts,
    identity_map,
    interval,
    join_pushout,
    oriental,
    pushout,
    suspension_pushout,
    unit,
    validate_complex,
)
from steinerlab.colimits import induced_from_coequalizer, quotient_by_relations
from steinerlab.names import name_key


def test_pushout_wedge_of_intervals():
    # glue the endpoint of one interval to the start of another
    f = disk_inclusion(0, 1, "target")
    g = disk_inclusion(0, 1, "source")
    result = pushout(f, g)
    assert result.based
    c = result.require_based()
    assert graded_counts(c) == {0: 3, 1: 2}
    assert validate_complex(c).passed
    # the square commutes exactly
    assert compose(f, result.leg_a) == compose(g, result.leg_b)


def test_pushout_of_identities_is_unit():
    ident = identity_map(unit())
    result = pushout(ident, ident)
    c = result.require_based()
    assert graded_counts(c) == {0: 1}
    assert result.leg_a == result.leg_b


def test_pushout_with_torsion_is_not_based():
    """u -> 2*0 in the interval against u -> 2*u: 2*0 = 4*u leaves torsion of
    order 2 in degree 0, so there is no complex and neither leg."""
    f = ComplexMap(unit(), interval(), {("u",): chain_of(0, ("0",), 2)})
    g = ComplexMap(unit(), unit(), {("u",): chain_of(0, ("u",), 2)})
    result = pushout(f, g)
    assert (result.based, result.torsion_witness, result.reason) == (
        False, (0, 2), "degree 0: torsion quotient"
    )
    assert result.complex is None and result.leg_a is None and result.leg_b is None


def test_pushout_source_mismatch():
    with pytest.raises(CompositionError):
        pushout(identity_map(unit()), identity_map(disk(1)))


def test_coequalizer_of_equal_maps_is_identity():
    f = disk_inclusion(0, 2, "source")
    result = coequalizer(f, f)
    c = result.require_based()
    assert c == disk(2)
    assert result.leg_a == identity_map(disk(2))


def _free_degree_one(names):
    return BasedComplex(
        {1: [(n,) for n in names]},
        {(n,): Chain(0) for n in names},
        {},
    )


def test_coequalizer_torsion_witness():
    c = _free_degree_one(["c"])
    a = _free_degree_one(["x"])
    f = ComplexMap(c, a, {("c",): Chain(1, {("x",): 3})})
    g = ComplexMap(c, a, {("c",): Chain(1, {("x",): 1})})
    result = coequalizer(f, g)
    assert not result.based
    assert result.torsion_witness == (1, 2)
    with pytest.raises(Exception):
        result.require_based()


def test_coequalizer_non_based_but_free():
    c = _free_degree_one(["c"])
    a = _free_degree_one(["x", "y"])
    f = ComplexMap(c, a, {("c",): Chain(1, {("x",): 2})})
    g = ComplexMap(c, a, {("c",): Chain(1, {("y",): -3})})
    result = coequalizer(f, g)
    assert not result.based
    assert result.torsion_witness is None
    assert "non-based" in (result.reason or "")


def test_coequalizer_gcd_relations_still_based():
    # relations 2x and 3x combine to x: the quotient is free on y alone
    c = _free_degree_one(["c", "d"])
    a = _free_degree_one(["x", "y"])
    f = ComplexMap(
        c,
        a,
        {("c",): Chain(1, {("x",): 2}), ("d",): Chain(1, {("x",): 3})},
    )
    g = ComplexMap(c, a, {("c",): Chain(1), ("d",): Chain(1)})
    result = coequalizer(f, g)
    assert result.based
    assert graded_counts(result.require_based()) == {1: 1}


def test_induced_map_from_coequalizer():
    f = disk_inclusion(0, 1, "source")
    g = disk_inclusion(0, 1, "source")
    result = coequalizer(f, g)
    c = result.require_based()
    assert c == disk(1)
    w = identity_map(disk(1))
    induced = induced_from_coequalizer(result, w)
    assert compose(result.leg_a, induced) == w


def test_coequalizer_of_a_long_path_collapses_without_recursion():
    # i -> v_i against i -> v_(i+1) identifies 1201 vertices in one chain
    length = 1200
    vertex = [(f"v{i:04d}",) for i in range(length + 1)]
    edges = [(f"e{i:04d}",) for i in range(length)]
    point = [(str(i),) for i in range(length)]
    points = BasedComplex({0: point}, {}, {p: 1 for p in point})
    path = BasedComplex(
        {0: vertex, 1: edges},
        {e: Chain(0, {vertex[i + 1]: 1, vertex[i]: -1}) for i, e in enumerate(edges)},
        {v: 1 for v in vertex},
    )
    f = ComplexMap(points, path, {p: Chain(0, {vertex[i]: 1}) for i, p in enumerate(point)})
    g = ComplexMap(points, path, {p: Chain(0, {vertex[i + 1]: 1}) for i, p in enumerate(point)})
    result = coequalizer(f, g)
    c = result.require_based()
    assert graded_counts(c) == {0: 1, 1: length}
    assert validate_complex(c).passed
    survivor = c.generators(0)[0]
    assert all(result.leg_a.of_gen(v) == Chain(0, {survivor: 1}) for v in vertex)


def test_quotient_rejects_relations_off_the_ambient_basis():
    a = _free_degree_one(["x", "y"])
    cases = [
        # an unknown name
        (Chain(1, {("z",): 1}), "z", 1),
        # a known name in the wrong degree
        (Chain(0, {("x",): 1}), "x", 0),
        # two strays: the name_key-least is the witness, whatever the order
        (Chain(1, {("z",): 1, ("x",): 1, ("w",): 1}), "w", 1),
    ]
    for rel, stray, degree in cases:
        with pytest.raises(MalformedError) as caught:
            quotient_by_relations(a, [Chain(1, {("x",): 1}), rel])
        assert str(caught.value) == (
            f"relation term {stray} is not a degree {degree} generator of the"
            " ambient complex"
        )


def _two_intervals():
    """Intervals e: a -> b and f: c -> d, side by side."""
    a, b, c, d, e, f = [(n,) for n in "abcdef"]
    return BasedComplex(
        {0: [a, b, c, d], 1: [e, f]},
        {e: Chain(0, {b: 1, a: -1}), f: Chain(0, {d: 1, c: -1})},
        {v: 1 for v in (a, b, c, d)},
    )


def test_quotient_by_based_relations_in_two_degrees():
    # a = c and b = d in degree 0, e = f in degree 1: one interval is left.
    # Each unit pivot is the lower position, so c, d and f survive.
    a, b, c, d, e, f = [(n,) for n in "abcdef"]
    relations = [
        Chain(1, {e: 1, f: -1}),
        Chain(0, {a: 1, c: -1}),
        Chain(0, {b: 1, d: -1}),
    ]
    result = quotient_by_relations(_two_intervals(), relations)
    q = result.require_based()
    assert q.degrees == {0: (c, d), 1: (f,)}
    assert q.diff == {f: Chain(0, {d: 1, c: -1})}
    assert q.aug == {c: 1, d: 1}
    assert validate_complex(q).passed
    images = {a: c, b: d, c: c, d: d}
    assert {g: result.leg_a.of_gen(g) for g in images} == {
        g: Chain(0, {h: 1}) for g, h in images.items()
    }
    assert result.leg_a.of_gen(e) == result.leg_a.of_gen(f) == Chain(1, {f: 1})
    assert result.leg_b == result.leg_a


def test_quotient_reports_the_lowest_failing_degree():
    # degree 0 is free but not based (2a + 3b), degree 1 has torsion (2e);
    # elimination stops at degree 0, which is reported with no witness
    a, b, e = ("a",), ("b",), ("e",)
    relations = [Chain(1, {e: 2}), Chain(0, {a: 2, b: 3})]
    result = quotient_by_relations(_two_intervals(), relations)
    assert not result.based
    assert result.complex is result.leg_a is result.leg_b is None
    assert result.torsion_witness is None
    assert result.reason == "degree 0: non-based quotient"
    # on its own, the degree-1 relation is torsion
    alone = quotient_by_relations(_two_intervals(), relations[:1])
    assert alone.torsion_witness == (1, 2)
    assert alone.reason == "degree 1: torsion quotient"


def _assert_canonical(q: BasedComplex) -> None:
    """Each basis of ``q`` is in ``name_key`` order, and ``q`` records the
    depth a complex built from plain lists measures."""
    plain = BasedComplex({d: list(b) for d, b in q.degrees.items()}, q.diff, q.aug)
    for basis in q.degrees.values():
        assert list(basis) == sorted(basis, key=name_key)
    assert plain == q
    assert q._depth == plain._depth


def _deep_vertices():
    """Vertices ``0``, ``a.(b.(c))`` (three levels deep), ``m`` and ``z``,
    in that basis order, and an edge ``e: m -> z``."""
    zero, deep, m, z, e = ("0",), ("a", ("b", ("c",))), ("m",), ("z",), ("e",)
    ambient = BasedComplex(
        {0: [z, m, deep, zero], 1: [e]},
        {e: Chain(0, {z: 1, m: -1})},
        {v: 1 for v in (zero, deep, m, z)},
    )
    return ambient, zero, deep, m, z, e


@pytest.mark.parametrize("mixed", [False, True])
def test_quotient_depth_is_exact_when_the_deepest_name_goes(mixed):
    ambient, zero, deep, m, z, e = _deep_vertices()
    assert ambient._depth == 3
    # with mixed rows the eliminator runs; without, the union-find
    extra = [Chain(1, {e: 1})] if mixed else []
    # deep sorts below m, so it is eliminated
    gone = quotient_by_relations(ambient, [Chain(0, {deep: 1, m: -1})] + extra)
    q = gone.require_based()
    assert deep not in q._gen_degree and gone.leg_a.of_gen(deep) == Chain(0, {m: 1})
    assert q._depth == 1
    _assert_canonical(q)
    # zero sorts below deep, so deep survives
    kept = quotient_by_relations(ambient, [Chain(0, {zero: -1, deep: 1})] + extra)
    q = kept.require_based()
    assert q.generators(0) == (deep, m, z) and q._depth == 3
    _assert_canonical(q)
    # no relation: the ambient itself
    same = quotient_by_relations(ambient, extra).require_based()
    assert same._depth == 3
    _assert_canonical(same)


@pytest.mark.parametrize(
    "make",
    [
        lambda: join_pushout(oriental(2), disk(1)),
        lambda: suspension_pushout(oriental(3)),
        lambda: pushout(disk_inclusion(0, 1, "target"), disk_inclusion(0, 1, "source")),
        lambda: pushout(disk_inclusion(1, 2, "source"), disk_inclusion(1, 2, "target")),
        lambda: coequalizer(disk_inclusion(0, 1, "source"), disk_inclusion(0, 1, "target")),
    ],
)
def test_quotient_bases_are_canonical(make):
    _assert_canonical(make().require_based())
