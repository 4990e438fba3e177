"""Canonical assembly: tensor, join, suspension, the duals, coproducts and
``parse`` hand ``BasedComplex`` bases already in name order, with their name
depth, instead of having them sorted and walked.  Every result here is checked
against the general path: rebuilt from plain dicts and lists it is equal,
each basis is its ``name_key`` sort, its depth is the deepest ``check_name``
depth, and every chain holds only non-zero ``int`` coefficients.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from steinerlab import (
    BasedComplex,
    Chain,
    NameDepthError,
    antijoin,
    antisuspension,
    coequalizer,
    cube,
    disk,
    dual_co,
    dual_coop,
    dual_op,
    emit,
    equal_presentation,
    gray_tensor,
    interval,
    join,
    join_pushout,
    oriental,
    parse,
    shape_library,
    suspension,
    suspension_pushout,
    unit,
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
from steinerlab.core import ComplexMap, coproduct
from steinerlab.names import MAX_NAME_DEPTH, name_depth, name_key
from steinerlab.ops import cube_selfduality, swap_iso_co, swap_iso_op
from steinerlab.retract import (
    RetractionPair,
    q2,
    s2,
    section_ell,
    section_q_cube,
    section_xi,
)


def assert_canonical(c: BasedComplex) -> None:
    for gens in c.degrees.values():
        assert type(gens) is tuple
        assert list(gens) == sorted(gens, key=name_key)
    generators = [g for _, g in c.all_generators()]
    assert c._depth == max((name_depth(g) for g in generators), default=0)
    for chain in c.diff.values():
        assert all(type(v) is int and v for v in chain._coeffs.values())
    rebuilt = BasedComplex(
        {deg: list(reversed(gens)) for deg, gens in c.degrees.items()},
        {g: Chain(ch.degree, dict(ch._coeffs)) for g, ch in c.diff.items()},
        dict(c.aug),
    )
    assert rebuilt == c


def _weighted() -> BasedComplex:
    """Vertices of augmentation 2 and 0, so that some join and suspension
    terms vanish."""
    return BasedComplex(
        {0: [("x",), ("y",), ("z",)], 1: [("e",)]},
        {("e",): Chain(0, {("y",): 1, ("x",): -1})},
        {("x",): 2, ("y",): 2, ("z",): 0},
    )


def _inputs() -> list[BasedComplex]:
    rng = random.Random(20)
    fixtures = [fixture_broken_d2(), fixture_broken_augmentation(),
                fixture_non_unital(), fixture_loop()]
    draws = [random_steiner_complex(rng, budget=30) for _ in range(12)]
    return list(shape_library(big=True).values()) + fixtures + draws + [_weighted(), zero()]


INPUTS = _inputs()


def test_unary_results_are_canonical():
    for a in INPUTS:
        for build in (suspension, antisuspension, dual_op, dual_co, dual_coop):
            assert_canonical(build(a))
        assert_canonical(suspension(suspension(dual_co(a))))


def test_tensor_and_join_results_are_canonical():
    checked = 0
    for a in INPUTS:
        for b in INPUTS:
            if a.size * b.size > 80:
                continue
            for build in (gray_tensor, join, antijoin):
                assert_canonical(build(a, b))
            checked += 1
    assert checked > 400


def test_coproducts_are_canonical():
    a, b, c = oriental(2), cube(2), fixture_loop()
    nested = coproduct([
        (("f", "1"), a), ("x", b), (("f",), c), (("g", ("h",)), a),
        ("a", zero()), (("f", "0"), c), ("b", unit()),
    ])
    assert_canonical(nested)
    assert [g[0] for g in nested.generators(0)][:3] == ["b", "x", "x"]
    # a tag used twice falls back to sorting, with the same result
    twice = coproduct([("x", interval()), ("y", unit()), ("x", suspension(zero()))])
    assert_canonical(twice)
    for a in INPUTS:
        assert_canonical(coproduct([(("p", ("q",)), a), ("p", suspension(a))]))


def test_colimit_quotients_are_canonical():
    small = [x for x in INPUTS if x.size <= 7]
    for a in small:
        assert_canonical(suspension_pushout(a).require_based())
        for b in small:
            if a.size * b.size <= 21:
                assert_canonical(join_pushout(a, b).require_based())
    point = unit()
    for x in (oriental(2), cube(2), suspension(interval())):
        v = x.generators(0)[0]
        assert_canonical(wedge(x, v, oriental(1), ("1",)))
    assert_canonical(shape_library(big=True)["theta212"])
    i = interval()
    ends = [ComplexMap(point, i, {("u",): Chain(0, {v: 1})}) for v in (("0",), ("1",))]
    assert_canonical(coequalizer(*ends).require_based())


relaxed = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@relaxed
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_join_matches_pushout_on_random_steiner_complexes(s, t):
    a = random_steiner_complex(random.Random(s), budget=10)
    b = random_steiner_complex(random.Random(t), budget=10)
    assume(a.size * b.size <= 60)
    j = join(a, b)
    oracle = join_pushout(a, b).require_based()
    assert equal_presentation(j, oracle)
    assert_canonical(j)
    assert_canonical(oracle)


# -- name depth, refused before building ---------------------------------------


def _nested(depth: int):
    name = ("a",)
    for _ in range(depth - 1):
        name = (name,)
    return name


def _vertex(name) -> BasedComplex:
    return BasedComplex({0: [name]}, {}, {name: 1})


@pytest.mark.parametrize(
    "build",
    [
        suspension,
        lambda x: gray_tensor(x, unit()),
        lambda x: gray_tensor(interval(), x),
        lambda x: join(x, unit()),
        lambda x: join(zero(), x),
        lambda x: coproduct([("x", x)]),
    ],
    ids=["suspension", "tensor", "tensor-right", "join",
         "join-right", "coproduct"],
)
def test_depth_refused_before_building(build, monkeypatch):
    deep = _vertex(_nested(MAX_NAME_DEPTH))
    assert deep._depth == MAX_NAME_DEPTH
    built = []
    original = BasedComplex.__init__

    def counting_init(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(BasedComplex, "__init__", counting_init)
    with pytest.raises(NameDepthError) as info:
        build(deep)
    assert info.value.code == "NAME_DEPTH"
    assert f"nested {MAX_NAME_DEPTH + 1} levels deep" in str(info.value)
    assert not built
    assert "_check_parts" not in {entry.name for entry in info.traceback}


def test_depth_at_the_bound_is_built():
    below = _vertex(_nested(MAX_NAME_DEPTH - 1))
    for c in (suspension(below), gray_tensor(below, interval()), join(unit(), below),
              coproduct([(("t",), below)])):
        assert c._depth == MAX_NAME_DEPTH
        assert_canonical(c)
    assert dual_op(below)._depth == MAX_NAME_DEPTH - 1
    # the tag's own depth counts too
    assert coproduct([(_nested(MAX_NAME_DEPTH - 1), unit())])._depth == MAX_NAME_DEPTH
    with pytest.raises(NameDepthError):
        coproduct([(_nested(MAX_NAME_DEPTH), unit())])


def _basis_ids(c: BasedComplex) -> set[int]:
    return {id(g) for gens in c.degrees.values() for g in gens}


def assert_keys_are_basis_objects(x: BasedComplex | ComplexMap) -> None:
    """Every generator a differential is given on, and every term of every
    differential, is the very name object of ``x``'s basis.  For a map, that
    holds of its source and its target, every generator it is given on is a
    source basis object and every term of every image a target one."""
    if isinstance(x, ComplexMap):
        assert_keys_are_basis_objects(x.source)
        assert_keys_are_basis_objects(x.target)
        source, target = _basis_ids(x.source), _basis_ids(x.target)
        assert all(id(g) in source for g in x.assignment)
        assert all(id(h) in target for chain in x.assignment.values() for h in chain._coeffs)
        return
    basis = _basis_ids(x)
    assert all(id(g) in basis for g in x.diff)
    assert all(id(h) in basis for chain in x.diff.values() for h in chain._coeffs)


def test_builders_key_every_chain_by_basis_objects():
    for c in shape_library(big=True).values():
        assert_keys_are_basis_objects(c)
    for n in range(6):
        assert_keys_are_basis_objects(cube(n))
        assert_keys_are_basis_objects(oriental(n))


def test_derived_constructors_key_every_chain_by_basis_objects():
    library = list(shape_library().values())
    for a in library:
        for build in (suspension, antisuspension, dual_op, dual_co, dual_coop):
            assert_keys_are_basis_objects(build(a))
        for b in library:
            for build in (gray_tensor, join, antijoin):
                assert_keys_are_basis_objects(build(a, b))
            assert_keys_are_basis_objects(coproduct([("x", a), ("y", b)]))


def test_cubes_and_orientals_are_canonical():
    """``cube`` hands its bases over in word order, unsorted and unchecked."""
    for n in range(6):
        assert_canonical(cube(n))
        assert_canonical(oriental(n))


def test_parsed_complexes_keep_depth_and_basis_objects():
    """``parse`` hands an emitted document's bases over as they are listed,
    with the exact depth, and keys every chain by the parsed basis objects."""
    library = shape_library(big=True)
    values = [*library.values(), *(disk(n) for n in range(21)),
              gray_tensor(library["cube2"], library["oriental2"]),
              suspension(library["theta212"])]
    for x in values:
        y = parse(emit(x))
        assert y._depth == x._depth
        assert_keys_are_basis_objects(y)
        assert_canonical(y)


def test_parsed_maps_key_every_chain_by_basis_objects():
    """``parse`` reads a map's assignment through the name caches of its
    source and target: the retraction pairs and the dualities."""
    pairs = [RetractionPair(s2(), q2())]
    for n in range(4):
        pairs += [section_q_cube(n), section_xi(n), section_ell(n)]
    maps = [m for pair in pairs for m in (pair.embed, pair.retract)]
    maps += [cube_selfduality(n, which) for n in range(4) for which in ("op", "co")]
    library = shape_library()
    for a, b in ((library["cube2"], library["oriental2"]), (library["disk2"], interval())):
        maps += [swap_iso_op(a, b), swap_iso_co(a, b)]
    for m in maps:
        y = parse(emit(m))
        assert y == m
        assert_keys_are_basis_objects(y)
