import pytest

from steinerlab import (
    BasedComplex,
    atom_table,
    coequalizer,
    compose_tables,
    invert_basis_bijection,
    two_points,
    Chain,
    CheckItem,
    ComplexMap,
    CompositionError,
    MalformedError,
    boundary_disk,
    chain_of,
    compose,
    direct_sum,
    disk,
    equal_presentation,
    graded_counts,
    identity_map,
    interval,
    oriental,
    cube,
    unit,
    validate_complex,
    validate_map,
    verify_mutually_inverse,
    zero,
)
from steinerlab.colimits import quotient_by_relations
from steinerlab.core import SizeLimitError, SteinerlabError, basis_renaming_map, sole_generator
from steinerlab.ops import cube_selfduality
from steinerlab.retract import q2, s2
from steinerlab.steiner import pos_neg_parts


def test_chain_arithmetic_is_exact_and_sparse():
    a = Chain(1, {("x",): 2, ("y",): -1})
    b = Chain(1, {("x",): -2, ("z",): 5})
    s = a + b
    assert s.coeff(("x",)) == 0 and ("x",) not in dict(s.items())
    assert (10**30 * a).coeff(("x",)) == 2 * 10**30
    assert a - a == Chain(1)


def test_chain_repr_renders_huge_coefficients():
    big = 10**5000
    assert repr(Chain(0, {("a",): big})) == "<+1" + "0" * 5000 + "a (deg 0)>"
    assert repr(Chain(0, {("a",): -big - 1})) == "<-1" + "0" * 4999 + "1a (deg 0)>"


def test_chain_degree_mismatch():
    with pytest.raises(Exception):
        Chain(0, {("x",): 1}) + Chain(1, {("x",): 1})


def test_validate_disk_passes():
    assert validate_complex(disk(2)).passed


def test_validate_d2_failure_witness():
    c = BasedComplex(
        {0: [("v",)], 1: [("e",)], 2: [("c",)]},
        {("e",): chain_of(0, ("v",)), ("c",): chain_of(1, ("e",))},
        {("v",): 1},
    )
    rep = validate_complex(c)
    by_name = {i.name: i for i in rep.checks}
    assert not by_name["D2_ZERO"].passed and by_name["D2_ZERO"].witness == "c"


def test_validate_augmentation_failure_witness():
    c = BasedComplex(
        {0: [("x",), ("y",)], 1: [("e",)]},
        {("e",): Chain(0, {("x",): 1, ("y",): 1})},
        {("x",): 1, ("y",): 1},
    )
    rep = validate_complex(c)
    by_name = {i.name: i for i in rep.checks}
    assert not by_name["AUG_KILLS_D1"].passed and by_name["AUG_KILLS_D1"].witness == "e"


def test_validate_negative_augmentation():
    c = BasedComplex({0: [("x",)]}, {}, {("x",): -1})
    rep = validate_complex(c)
    assert not rep.passed
    assert rep.failures()[0].name == "AUG_NONNEGATIVE"


def test_malformed_differential_rejected():
    with pytest.raises(MalformedError):
        BasedComplex(
            {0: [("v",)], 1: [("e",)]},
            {("e",): chain_of(0, ("missing",))},
            {("v",): 1},
        )


def test_bool_coefficients_and_augmentations_rejected():
    # bool is an int subclass that would emit as "True", which parse refuses
    a, b, e = ("a",), ("b",), ("e",)
    with pytest.raises(MalformedError, match="non-integer coefficient True"):
        Chain(0, {b: True, a: -1})
    with pytest.raises(MalformedError, match="non-integer coefficient False"):
        chain_of(0, a, False)
    with pytest.raises(MalformedError, match="non-integer augmentation True"):
        BasedComplex({0: [a, b], 1: [e]}, {e: Chain(0, {b: 1, a: -1})}, {a: True, b: 1})
    with pytest.raises(MalformedError, match="non-integer augmentation '1'"):
        BasedComplex({0: [a]}, {}, {a: "1"})


def test_missing_differential_rejected():
    a, b, e, f = ("a",), ("b",), ("e",), ("f",)
    with pytest.raises(MalformedError, match="^missing differential for f$"):
        BasedComplex({0: [a, b], 1: [e, f]}, {e: Chain(0, {b: 1, a: -1})}, {a: 1, b: 1})
    # a zero differential is given as the zero chain
    loop = BasedComplex({0: [a], 1: [e]}, {e: Chain(0)}, {a: 1})
    assert loop.diff[e].is_zero()


def test_validate_map_identity_and_negative():
    assert validate_map(identity_map(cube(2))).passed
    assert validate_map(s2()).passed
    bad = ComplexMap(unit(), unit(), {("u",): Chain(0, {("u",): -1})})
    rep = validate_map(bad)
    by_name = {i.name: i for i in rep.checks}
    assert not by_name["POSITIVITY"].passed


def test_validate_map_names_where_augmentation_moves():
    """Sending the vertex 1 of two points to 0 + 1 keeps the chain rule (there
    is nothing in degree one) and positivity, but ε(0 + 1) = 2, not 1."""
    points = two_points()
    doubling = ComplexMap(
        points, points, {("0",): chain_of(0, ("0",)), ("1",): Chain(0, {("0",): 1, ("1",): 1})}
    )
    assert [(i.name, i.passed, i.witness) for i in validate_map(doubling).checks] == [
        ("CHAIN_RULE", True, None),
        ("AUG_PRESERVED", False, "1"),
        ("POSITIVITY", True, None),
    ]


def test_map_degree_mismatch_rejected():
    from steinerlab import DegreeMismatchError

    with pytest.raises(DegreeMismatchError):
        ComplexMap(
            interval(),
            interval(),
            {
                ("0",): chain_of(0, ("0",)),
                ("1",): chain_of(0, ("1",)),
                ("i",): chain_of(0, ("0",)),
            },
        )


def test_compose_identities_and_associativity():
    f = s2()
    assert compose(f, identity_map(f.target)) == f
    assert compose(identity_map(f.source), f) == f
    g = q2()
    assert compose(f, g) == identity_map(oriental(2))
    h = compose(g, f)
    assert compose(compose(f, g), f) == compose(f, compose(g, f))
    assert compose(compose(g, f), g) == compose(g, compose(f, g))
    assert compose(h, h) == h


def test_compose_mismatch_raises():
    with pytest.raises(CompositionError):
        compose(s2(), s2())


def test_direct_sum_counts_and_units():
    assert graded_counts(direct_sum(unit(), unit())) == {0: 2}
    assert equal_presentation(direct_sum(unit(), unit()), boundary_disk(1))
    assert graded_counts(direct_sum(disk(1), disk(2))) == {0: 4, 1: 3, 2: 1}
    a = oriental(2)
    summed = direct_sum(zero(), a)
    assert equal_presentation(summed, a)


def test_graded_counts_examples():
    assert graded_counts(cube(3)) == {0: 8, 1: 12, 2: 6, 3: 1}
    assert graded_counts(oriental(3)) == {0: 4, 1: 6, 2: 4, 3: 1}
    assert graded_counts(disk(4)) == {0: 2, 1: 2, 2: 2, 3: 2, 4: 1}
    assert graded_counts(unit()) == {0: 1}
    assert graded_counts(zero()) == {}


def test_equal_presentation_examples():
    assert equal_presentation(cube(2), cube(2))
    assert equal_presentation(cube(1), oriental(1))
    assert not equal_presentation(cube(2), oriental(2))


def test_verify_mutually_inverse_detects_one_sided():
    rep = verify_mutually_inverse(s2(), q2())
    # q2 sends the vertex 01 to 2, which s2 sends to 11: the first vertex moved
    assert [(i.name, i.passed, i.witness) for i in rep.checks] == [
        ("LEFT_THEN_RIGHT_IS_ID", True, None),
        ("RIGHT_THEN_LEFT_IS_ID", False, "01"),
    ]
    ident = identity_map(interval())
    assert verify_mutually_inverse(ident, ident).passed


def test_verify_mutually_inverse_names_an_edge_not_sent_back():
    """The globe ``disk(2)`` retracts onto its source edge: the interval goes
    in along ``s.(b0)``, and both edges come back to ``i``.  Interval, globe,
    interval is the identity; globe, interval, globe sends the target edge
    ``s.(b1)`` to ``s.(b0)``, and fixes the vertices and the edge before it."""
    i, globe = interval(), disk(2)
    (b0, b1), (lower, upper), (top,) = (globe.generators(d) for d in range(3))
    embed = ComplexMap(
        i, globe, {("0",): chain_of(0, b0), ("1",): chain_of(0, b1), ("i",): chain_of(1, lower)}
    )
    retract = ComplexMap(
        globe,
        i,
        {b0: chain_of(0, ("0",)), b1: chain_of(0, ("1",)), lower: chain_of(1, ("i",)),
         upper: chain_of(1, ("i",)), top: Chain(2)},
    )
    rep = verify_mutually_inverse(embed, retract)
    assert [(item.name, item.passed, item.witness) for item in rep.checks] == [
        ("LEFT_THEN_RIGHT_IS_ID", True, None),
        ("RIGHT_THEN_LEFT_IS_ID", False, "s.(b1)"),
    ]


def test_generator_cap(monkeypatch):
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "5")
    with pytest.raises(SizeLimitError):
        BasedComplex({0: [(str(i),) for i in range(6)]}, {}, {(str(i),): 1 for i in range(6)})
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "10")
    BasedComplex({0: [(str(i),) for i in range(6)]}, {}, {(str(i),): 1 for i in range(6)})


def test_map_refuses_assignments_off_its_source():
    assignment = {
        ("u",): chain_of(0, ("u",)),
        ("zzz",): chain_of(5, ("nope",)),
        ("yyy",): chain_of(0, ("u",)),
    }
    with pytest.raises(MalformedError, match="^assignment for unknown generator yyy$"):
        ComplexMap(unit(), unit(), assignment)
    with pytest.raises(MalformedError, match="^generator name must be a non-empty"):
        ComplexMap(unit(), unit(), {**assignment, 5: chain_of(0, ("u",))})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BasedComplex({0: ["a"]}, {}, {"a": 1}),
         "generator name must be a non-empty tuple, got 'a'"),
        (lambda: BasedComplex({0: [("a.b",)]}, {}, {("a.b",): 1}),
         "bad name atom 'a.b' in ('a.b',)"),
        (lambda: cube_selfduality(2, "x"), "which must be 'op' or 'co', got 'x'"),
    ],
    ids=["plain string name", "reserved character", "unknown duality"],
)
def test_bad_library_arguments_are_coded_errors(build, message):
    with pytest.raises(MalformedError) as err:
        build()
    assert str(err.value) == message and err.value.code == "MALFORMED"


def test_first_failure_stops_at_the_first_witness():
    from steinerlab.core import _first_failure

    assert _first_failure("X", iter(())) == CheckItem("X", True, None)
    witnesses = iter(["a", "b"])
    assert _first_failure("X", witnesses) == CheckItem("X", False, "a")
    assert next(witnesses) == "b"  # nothing past the first is taken


def test_summary_fails_at_the_first_failing_item_of_the_first_failing_report():
    from steinerlab.core import _summary, report

    good = report(CheckItem("A", True, "extension"))
    bare = report(CheckItem("B", True), CheckItem("C", False), CheckItem("D", False, "d"))
    witnessed = report(CheckItem("E", False, "e"))
    assert _summary("X") == _summary("X", good) == CheckItem("X", True, None)
    assert _summary("X", good, bare, witnessed) == CheckItem("X", False, "C")
    assert _summary("X", witnessed, bare) == CheckItem("X", False, "E at e")


_A, _E = ("a",), ("e",)
_NOPE = Chain(1, {("nope",): 1})
_NOT_A_NAME = "generator name must be a non-empty tuple, got 5"


@pytest.mark.parametrize(
    "build, code, message",
    [
        (lambda: BasedComplex({-1: [_A]}, {}, {}), "MALFORMED", "negative degree -1"),
        (lambda: BasedComplex({0: [_A], 1: [_A]}, {}, {_A: 1}), "MALFORMED",
         "duplicate generator a"),
        (lambda: BasedComplex({0: [_A]}, {_E: Chain(0)}, {_A: 1}), "MALFORMED",
         "differential on unknown generator e"),
        (lambda: BasedComplex({0: [_A]}, {_A: Chain(0)}, {_A: 1}), "MALFORMED",
         "differential on degree-0 generator a"),
        (lambda: BasedComplex({0: [_A], 1: [_E]}, {_E: Chain(1)}, {_A: 1}), "MALFORMED",
         "differential of e has degree 1, expected 0"),
        (lambda: BasedComplex({0: [_A]}, {}, {}), "MALFORMED", "missing augmentation for a"),
        (lambda: BasedComplex({0: [_A], 1: [_E]}, {_E: Chain(0)}, {_A: 1, _E: 1}),
         "MALFORMED", "augmentation on non-vertex e"),
        (lambda: ComplexMap(interval(), unit(), {}), "MALFORMED",
         "no assignment for generator 0"),
        (lambda: ComplexMap(unit(), unit(), {("u",): chain_of(0, ("v",))}), "MALFORMED",
         "assignment of u has stray term v"),
        (lambda: interval().renamed(lambda g: ("x",)), "MALFORMED",
         "renaming is not injective"),
        (lambda: Chain(-1), "MALFORMED", "chain degree must be >= 0, got -1"),
        (lambda: unit().degree_of(("z",)), "MALFORMED", "unknown generator z"),
        (lambda: unit().d(Chain(0)), "DEGREE_ZERO", "no differential in degree 0"),
        (lambda: interval().eps(chain_of(1, ("i",))), "DEGREE_MISMATCH",
         "augmentation applies to degree-0 chains"),
        (lambda: cube(2).d(_NOPE), "MALFORMED", "chain term nope is not a degree 1 generator"),
        (lambda: identity_map(cube(2))(_NOPE), "MALFORMED",
         "chain term nope is not a degree 1 generator"),
        (lambda: cube(2).eps(Chain(0, {("nope",): 1})), "MALFORMED",
         "chain term nope is not a degree 0 generator"),
        (lambda: pos_neg_parts(cube(2), _NOPE), "MALFORMED",
         "chain term nope is not a degree 1 generator"),
        (lambda: cube(2).d(Chain(1, {("00",): 1})), "MALFORMED",
         "chain term 00 is not a degree 1 generator"),
        (lambda: cube(2).d(Chain(2, {("i0",): 1})), "MALFORMED",
         "chain term i0 is not a degree 2 generator"),
        # a key that is not a name is refused as a name before strays are ordered
        (lambda: cube(2).d(Chain(1, {5: 1})), "MALFORMED", _NOT_A_NAME),
        (lambda: ComplexMap(unit(), unit(), {("u",): Chain(0, {5: 1})}), "MALFORMED",
         _NOT_A_NAME),
        (lambda: BasedComplex({0: [_A], 1: [_E]}, {_E: Chain(0, {5: 1})}, {_A: 1}),
         "MALFORMED", _NOT_A_NAME),
        (lambda: basis_renaming_map(unit(), unit(), lambda g: 5), "MALFORMED", _NOT_A_NAME),
        (lambda: quotient_by_relations(unit(), [Chain(0, {5: 1})]), "MALFORMED",
         _NOT_A_NAME),
        (lambda: basis_renaming_map(interval(), oriental(1), lambda g: ("0", "1")),
         "MALFORMED", "assignment of 0 has stray term 0.1"),
    ],
    ids=[
        "negative degree", "duplicate generator", "differential on unknown",
        "differential on vertex", "differential degree", "missing augmentation",
        "augmentation on non-vertex", "missing assignment", "bad target term",
        "non-injective renaming", "negative chain degree", "unknown degree_of",
        "d in degree 0", "eps off degree 0", "d of a stray term", "map of a stray term",
        "eps of a stray term", "parts of a stray term", "d of a vertex in degree 1",
        "d of an edge in degree 2", "d of a non-name key", "map image of a non-name key",
        "differential of a non-name key", "renaming onto a non-name",
        "relation of a non-name key", "renaming onto a wrong degree",
    ],
)
def test_structural_refusals_are_coded(build, code, message):
    from steinerlab.core import SteinerlabError

    with pytest.raises(SteinerlabError) as err:
        build()
    assert (err.value.code, str(err.value)) == (code, message)


def _two_vertices_onto_one() -> ComplexMap:
    points = two_points()
    return ComplexMap(points, unit(), {g: chain_of(0, ("u",)) for _, g in points.all_generators()})


@pytest.mark.parametrize(
    "build, code, message",
    [
        (lambda: coequalizer(identity_map(interval()), identity_map(unit())),
         "SOURCE_TARGET_MISMATCH", "coequalizer needs a parallel pair of maps"),
        (lambda: compose_tables(atom_table(interval(), ("i",)),
                                atom_table(oriental(1), ("0", "1")), 0),
         "NOT_COMPOSABLE", "tables live in different complexes"),
        (lambda: invert_basis_bijection(s2()),
         "MALFORMED", "not one generator with coefficient 1: [0i i1]"),
        (lambda: invert_basis_bijection(_two_vertices_onto_one()),
         "MALFORMED", "map is not bijective on bases"),
        (lambda: sole_generator(Chain(1, {("a",): 2})),
         "MALFORMED", "not one generator with coefficient 1: [a]"),
        (lambda: verify_mutually_inverse(s2(), s2()),
         "SOURCE_TARGET_MISMATCH", "maps are not a candidate inverse pair"),
        (lambda: zero().top_degree, "EMPTY", "empty complex has no top degree"),
    ],
    ids=["coequalizer of a non-parallel pair", "tables across complexes",
         "invert a non-basis map", "invert a non-bijection", "sole generator",
         "not an inverse pair", "top degree of zero"],
)
def test_library_refusals_are_coded(build, code, message):
    with pytest.raises(SteinerlabError) as err:
        build()
    assert (err.value.code, str(err.value)) == (code, message)


def test_a_bad_generator_limit_is_coded(monkeypatch):
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "lots")
    with pytest.raises(SizeLimitError, match="^bad STEINERLAB_MAX_GENERATORS value 'lots'$"):
        BasedComplex({0: [("a",)]}, {}, {("a",): 1})
