import random

from steinerlab import (
    BasedComplex,
    Chain,
    ComplexMap,
    antijoin,
    antisuspension,
    basis_renaming_map,
    boundary_disk,
    chain_of,
    compose,
    cube,
    cube_selfduality,
    disk,
    dual_co,
    dual_coop,
    dual_op,
    ell_map,
    emit,
    equal_presentation,
    graded_counts,
    gray_tensor,
    gray_tensor_map,
    identity_map,
    interval,
    invert_basis_bijection,
    join,
    join_pushout,
    left_p_map,
    oriental,
    p_map,
    parse,
    q_susp_map,
    shape_library,
    susp_coop_iso,
    suspension,
    suspension_map,
    suspension_pushout,
    swap_iso_co,
    swap_iso_op,
    unit,
    validate_complex,
    validate_map,
    verify_mutually_inverse,
    zero,
)
from steinerlab.acceptance import fixture_non_unital, random_steiner_complex
from steinerlab.retract import q2


# -- Gray tensor --------------------------------------------------------------


def test_tensor_of_intervals_is_square():
    t = gray_tensor(interval(), interval())
    assert graded_counts(t) == {0: 4, 1: 4, 2: 1}
    assert equal_presentation(t, cube(2))


def test_square_top_cell_differential():
    # d(i (x) i) = (1-0) (x) i - i (x) (1-0)
    c = cube(2)
    assert c.diff[("ii",)] == Chain(
        1, {("1i",): 1, ("0i",): -1, ("i0",): 1, ("i1",): -1}
    )


def test_tensor_unit_laws():
    a = oriental(2)
    left = gray_tensor(unit(), a)
    right = gray_tensor(a, unit())
    assert left.renamed(lambda g: g[2]) == a
    assert right.renamed(lambda g: g[1]) == a


def test_tensor_associativity_under_reassociation():
    shapes = [interval()] + [disk(n) for n in (1, 2, 3)] + [
        oriental(n) for n in (1, 2, 3)
    ]
    pair_cache = {}

    def tensor(i, j):
        if (i, j) not in pair_cache:
            pair_cache[(i, j)] = gray_tensor(shapes[i], shapes[j])
        return pair_cache[(i, j)]

    for i in range(len(shapes)):
        for j in range(len(shapes)):
            for k in range(len(shapes)):
                if shapes[i].size * shapes[j].size * shapes[k].size > 1200:
                    continue
                lhs = gray_tensor(tensor(i, j), shapes[k])
                rhs = gray_tensor(shapes[i], tensor(j, k))
                reassoc = lhs.renamed(
                    lambda g: ("t", g[1][1], ("t", g[1][2], g[2]))
                )
                assert reassoc == rhs


def test_tensor_map_functoriality():
    ident = gray_tensor_map(identity_map(cube(1)), identity_map(oriental(1)))
    assert ident == identity_map(gray_tensor(cube(1), oriental(1)))
    f = gray_tensor_map(q2(), identity_map(unit()))
    assert validate_map(f).passed
    from steinerlab.retract import s2

    ss = gray_tensor_map(s2(), s2())
    assert validate_map(ss).passed


# -- dualities -----------------------------------------------------------------


def test_duals_are_involutions():
    for c in shape_library().values():
        assert dual_op(dual_op(c)) == c
        assert dual_co(dual_co(c)) == c
        assert dual_op(dual_co(c)) == dual_co(dual_op(c)) == dual_coop(c)


def test_dual_op_disk2_signs():
    d = disk(2)
    od = dual_op(d)
    top = ("s", ("s", ("u",)))
    edge = ("s", ("b0",))
    assert od.diff[top] == d.diff[top]
    assert od.diff[edge] == -1 * d.diff[edge]


def test_dual_co_fixes_interval():
    assert dual_co(interval()) == interval()


def test_dual_co_map_on_inclusions_and_wedge_legs():
    from steinerlab import disk_inclusion, dual_co_map, wedge_with_legs

    def check(f):
        g = dual_co_map(f)
        assert g.source == dual_co(f.source) and g.target == dual_co(f.target)
        assert validate_map(g).passed
        assert dual_co_map(g) == f

    pairs = []  # composable (first, then) pairs of library maps
    for i in range(1, 4):
        _, leg_l, leg_r = wedge_with_legs(disk(i), ("b1",), oriental(2), ("0",))
        check(leg_l)
        check(leg_r)
        for side in ("source", "target"):
            for j in range(i + 1):
                f = disk_inclusion(j, i, side)
                check(f)
                pairs.append((f, leg_l))
                pairs += [(f, disk_inclusion(i, i + 1, s)) for s in ("source", "target")]
    for f, g in pairs:
        assert dual_co_map(compose(f, g)) == compose(dual_co_map(f), dual_co_map(g))


def test_swap_isos_are_isomorphisms():
    pairs = [(interval(), disk(2)), (oriental(1), oriental(2)), (cube(2), interval())]
    for a, b in pairs:
        for swap in (swap_iso_op, swap_iso_co):
            f = swap(a, b)
            assert validate_map(f).passed
            inv = invert_basis_bijection(f)
            assert validate_map(inv).passed
            assert verify_mutually_inverse(f, inv).passed


def test_swap_iso_unit_is_plain_renaming():
    a = oriental(2)
    f = swap_iso_op(unit(), a)
    assert validate_map(f).passed
    for _, g in f.source.all_generators():
        items = f.of_gen(g).items()
        assert len(items) == 1 and items[0][1] == 1


def test_swap_iso_naturality():
    from steinerlab.retract import s2

    square_maps = [
        (identity_map(oriental(2)), q2()),
        (s2(), identity_map(interval())),
    ]
    for f, g in square_maps:
        lhs = compose(
            gray_tensor_map(
                __dual_map(f), __dual_map(g)
            ),
            swap_iso_op(f.target, g.target),
        )
        rhs = compose(
            swap_iso_op(f.source, g.source),
            __dual_map(gray_tensor_map(g, f)),
        )
        assert lhs == rhs


def __dual_map(f: ComplexMap) -> ComplexMap:
    from steinerlab.ops import dual_op_map

    return dual_op_map(f)


def test_join_swap_iso():
    from steinerlab.ops import join_swap_iso_op

    for a in (unit(), interval(), oriental(2)):
        for b in (unit(), disk(2)):
            f = join_swap_iso_op(a, b)
            assert validate_map(f).passed
            inv = invert_basis_bijection(f)
            assert validate_map(inv).passed
            assert verify_mutually_inverse(f, inv).passed


def test_oriental_self_duality_via_reversal():
    from retract_oracle import oriental_reversal

    for n in range(5):
        f = oriental_reversal(n)
        assert validate_map(f).passed
        assert verify_mutually_inverse(f, invert_basis_bijection(f)).passed


def test_cube_selfduality_examples():
    f0 = cube_selfduality(0, "op")
    assert f0 == identity_map(unit())
    f1 = cube_selfduality(1, "op")
    assert f1.of_gen(("0",)) == chain_of(0, ("1",))
    assert f1.of_gen(("i",)) == chain_of(1, ("i",))
    for n in range(4):
        for which in ("op", "co"):
            f = cube_selfduality(n, which)
            assert validate_map(f).passed
            assert verify_mutually_inverse(f, invert_basis_bijection(f)).passed


# -- join ------------------------------------------------------------------------


def test_join_of_points_is_edge():
    j = join(unit(), unit())
    assert equal_presentation(j, oriental(1))
    edge = ("j", ("u",), ("u",))
    assert j.diff[edge] == Chain(
        0, {("jr", ("u",)): 1, ("jl", ("u",)): -1}
    )


def test_join_units():
    a = oriental(2)
    assert join(zero(), a).renamed(lambda g: g[1]) == a
    assert join(a, zero()).renamed(lambda g: g[1]) == a


def _rename_oriental_join(n: int):
    """Renaming of join(oriental(n), oriental(m)) onto subset names."""

    def rename(g):
        if g[0] == "jl":
            return g[1]
        if g[0] == "jr":
            return tuple(str(int(v) + n + 1) for v in g[1])
        return g[1] + tuple(str(int(v) + n + 1) for v in g[2])

    return rename


def test_join_associativity_matches_orientals():
    for a_dim in range(3):
        for b_dim in range(3 - a_dim):
            for c_dim in range(3 - a_dim - b_dim):
                total = a_dim + b_dim + c_dim + 2
                ab = join(oriental(a_dim), oriental(b_dim)).renamed(
                    _rename_oriental_join(a_dim)
                )
                lhs = join(ab, oriental(c_dim)).renamed(
                    _rename_oriental_join(a_dim + b_dim + 1)
                )
                bc = join(oriental(b_dim), oriental(c_dim)).renamed(
                    _rename_oriental_join(b_dim)
                )
                rhs = join(oriental(a_dim), bc).renamed(
                    _rename_oriental_join(a_dim)
                )
                assert lhs == oriental(total) == rhs
                assert equal_presentation(lhs, oriental(total))


def test_join_is_three_part_on_library_pairs():
    lib = shape_library()
    for a in lib.values():
        for b in lib.values():
            if a.size + b.size + a.size * b.size > 200:
                continue
            j = join(a, b)
            ca, cb, cj = graded_counts(a), graded_counts(b), graded_counts(j)
            expected: dict[int, int] = {}
            for k, v in ca.items():
                expected[k] = expected.get(k, 0) + v
            for k, v in cb.items():
                expected[k] = expected.get(k, 0) + v
            for ka, va in ca.items():
                for kb, vb in cb.items():
                    expected[ka + kb + 1] = expected.get(ka + kb + 1, 0) + va * vb
            assert cj == expected
            assert validate_complex(j).passed
            # the two outer parts include as sub- and quotient-presentations
            left = basis_renaming_map(a, j, lambda g: ("jl", g))
            right = basis_renaming_map(b, j, lambda g: ("jr", g))
            assert validate_map(left).passed
            assert validate_map(right).passed


def test_join_matches_pushout_oracle():
    # vertices of augmentation 2 and 0, besides the unital shapes
    weighted = BasedComplex(
        {0: [("x",), ("y",), ("z",)], 1: [("e",)]},
        {("e",): Chain(0, {("y",): 1, ("x",): -1})},
        {("x",): 2, ("y",): 2, ("z",): 0},
    )
    rng = random.Random(3)
    inputs = list(shape_library().values()) + [zero(), fixture_non_unital(), weighted]
    inputs += [random_steiner_complex(rng, budget=10) for _ in range(6)]
    checked = 0
    for a in inputs:
        for b in inputs:
            if a.size * b.size > 21:
                continue
            j = join(a, b)
            assert equal_presentation(j, join_pushout(a, b).require_based())
            assert parse(emit(j)) == j
            checked += 1
    assert checked > 200


def test_antijoin_examples():
    aj = antijoin(unit(), unit())
    assert equal_presentation(aj, oriental(1))
    # the co dual fixes degree-one differentials, so the two point-joins agree
    assert aj == join(unit(), unit())
    a = oriental(1)
    expect = dual_co(oriental(2))
    got = antijoin(a, unit()).renamed(
        lambda g: g[1]
        if g[0] == "jl"
        else (("2",) if g[0] == "jr" else g[1] + ("2",))
    )
    assert got == expect
    for a in (oriental(1), disk(2)):
        for b in (unit(), interval()):
            assert graded_counts(antijoin(a, b)) == graded_counts(join(a, b))


# -- suspension ---------------------------------------------------------------------


def test_suspension_examples():
    assert suspension(unit()) == disk(1)
    for n in range(1, 5):
        assert suspension(disk(n - 1)) == disk(n)
    assert suspension(boundary_disk(1)) == boundary_disk(2)
    for n in range(7):
        s = suspension(oriental(n))
        expected = {0: 2}
        for k, v in graded_counts(oriental(n)).items():
            expected[k + 1] = v
        assert graded_counts(s) == expected


def test_suspension_pushout_matches_closed_form():
    for label, a in shape_library().items():
        if a.size > 30:
            continue
        result = suspension_pushout(a)
        q = result.require_based()

        def rename(g):
            if g == ("r", ("0",)):
                return ("b0",)
            if g == ("r", ("1",)):
                return ("b1",)
            return ("s", g[1][1])

        assert q.renamed(rename) == suspension(a), label


def test_antisuspension_pushout_matches_co_dual():
    from steinerlab.ops import antisuspension_pushout

    for label, a in shape_library().items():
        if a.size > 30:
            continue
        result = antisuspension_pushout(a)
        q = result.require_based()

        def rename(g):
            if g == ("r", ("0",)):
                return ("b0",)
            if g == ("r", ("1",)):
                return ("b1",)
            return ("s", g[1][2])

        assert q.renamed(rename) == antisuspension(a), label


def test_antisuspension_signs():
    a = oriental(1)
    s, anti = suspension(a), antisuspension(a)
    assert graded_counts(s) == graded_counts(anti)
    top = ("s", ("0", "1"))
    assert anti.diff[top] == -1 * s.diff[top]
    vertex = ("s", ("0",))
    assert anti.diff[vertex] == s.diff[vertex]
    assert antisuspension(unit()) == disk(1)


def test_susp_coop_iso_library():
    for label, c in shape_library().items():
        f = susp_coop_iso(c)
        assert validate_map(f).passed, label
        inv = ComplexMap(f.target, f.source, f.assignment)
        assert verify_mutually_inverse(f, inv).passed, label


def test_suspension_map_functorial():
    f = q2()
    sf = suspension_map(f)
    assert validate_map(sf).passed
    assert suspension_map(identity_map(cube(2))) == identity_map(suspension(cube(2)))


# -- quotient maps -------------------------------------------------------------------


def test_p_map_ell_map_q_susp_are_valid_quotients():
    for a in (unit(), interval(), oriental(2)):
        for f in (p_map(a), ell_map(a), q_susp_map(a), left_p_map(a)):
            assert validate_map(f).passed


def test_p_map_of_edge_is_square_to_triangle():
    f = p_map(oriental(1))
    # rename the tensor source to cube words and the join target to subsets
    letter_to_subset = {"0": ("0",), "1": ("1",), "i": ("0", "1")}
    split = basis_renaming_map(
        cube(2),
        f.source,
        lambda g: ("t", letter_to_subset[g[0][0]], (g[0][1],)),
    )
    from retract_oracle import right_cone_renaming

    glue = right_cone_renaming(2)
    assert compose(compose(split, f), glue) == q2()


def test_q_susp_of_unit_is_disk_renaming():
    f = q_susp_map(unit())
    assert validate_map(f).passed
    for _, g in f.source.all_generators():
        items = f.of_gen(g).items()
        assert len(items) == 1 and items[0][1] == 1
