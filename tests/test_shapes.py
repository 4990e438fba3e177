import random

import pytest
from math import comb

from steinerlab import (
    BadDimsError,
    BasedComplex,
    Chain,
    ComplexMap,
    MalformedError,
    NameDepthError,
    ThetaSpec,
    antioriental,
    boundary_decomposition_check,
    boundary_disk,
    compose,
    cube,
    disk,
    disk_inclusion,
    dual_co,
    dual_op,
    emit,
    equal_presentation,
    graded_counts,
    gray_tensor,
    interval,
    oriental,
    oriental_via_join,
    random_theta_spec,
    shape_library,
    suspension,
    theta,
    top_cell_decomposition_check,
    truncate_top,
    two_points,
    unit,
    validate_complex,
    validate_map,
    wedge,
    wedge_with_legs,
    zero,
)
from steinerlab.core import SizeLimitError
from steinerlab.names import MAX_NAME_DEPTH
from steinerlab.shapes import EmptyComplexError, disk_top_gen
from steinerlab.steiner import is_steiner

from retract_oracle import theta_pushout, wedge_pushout


def test_basic_cells():
    assert graded_counts(unit()) == {0: 1}
    assert graded_counts(zero()) == {}
    assert validate_complex(interval()).passed
    assert interval().diff[("i",)] == Chain(0, {("1",): 1, ("0",): -1})


def test_disk_family():
    assert disk(0) == unit()
    assert graded_counts(disk(3)) == {0: 2, 1: 2, 2: 2, 3: 1}
    for n in range(1, 7):
        assert equal_presentation(boundary_disk(n), truncate_top(disk(n)))
        assert boundary_disk(n) == truncate_top(disk(n))
    with pytest.raises(BadDimsError):
        disk(-1)


def _suspension_tower(base, n):
    """``base``, its suspension, ..., its n-fold suspension: the iterated
    construction the closed-form disks are checked against."""
    tower = [base]
    for _ in range(n):
        tower.append(suspension(tower[-1]))
    return tower


def test_disks_match_the_suspension_tower():
    disks, boundaries = _suspension_tower(unit(), 59), _suspension_tower(zero(), 59)
    for n in range(60):
        assert disk(n) == disks[n] and disk(n)._depth == disks[n]._depth
        assert boundary_disk(n) == boundaries[n]
        assert boundary_disk(n)._depth == boundaries[n]._depth


def test_disks_past_the_name_depth_bound_are_refused_before_recursing():
    # disk(n) tops out in a name n + 1 levels deep; 1200 levels of recursion
    # would exhaust the stack, so the refusal must come first
    for build in (disk, boundary_disk):
        for n in (MAX_NAME_DEPTH, 1200):
            with pytest.raises(NameDepthError, match=f"disk dimension {n} "):
                build(n)


def test_cube_family():
    assert cube(0) == unit()
    assert cube(1) == interval()
    for n in range(7):
        counts = graded_counts(cube(n))
        for k in range(n + 1):
            assert counts[k] == comb(n, k) * 2 ** (n - k)
        assert sum(counts.values()) == 3**n


def test_cube_matches_the_iterated_tensor_of_intervals():
    """The word-index faces of ``cube`` against the tensor formula."""
    tensor = unit()
    for n in range(6):
        assert equal_presentation(cube(n), tensor)
        tensor = gray_tensor(tensor, interval())


def test_cube_concatenation():
    def rename(g):
        left = "" if g[1] == ("u",) else g[1][0]
        right = "" if g[2] == ("u",) else g[2][0]
        word = left + right
        return ("u",) if word == "" else (word,)

    for m in range(9):
        for n in range(9 - m):
            t = gray_tensor(cube(m), cube(n))
            assert t.renamed(rename) == cube(m + n)
            assert equal_presentation(t, cube(m + n))


def test_oriental_family():
    o2 = oriental(2)
    assert o2.diff[("0", "1", "2")] == Chain(
        1, {("1", "2"): 1, ("0", "2"): -1, ("0", "1"): 1}
    )
    for n in range(9):
        assert oriental_via_join(n) == oriental(n)
    for n in range(9):
        counts = graded_counts(oriental(n))
        for k in range(n + 1):
            assert counts[k] == comb(n + 1, k + 1)


def test_antioriental():
    assert antioriental(1) == oriental(1)
    a2 = antioriental(2)
    assert a2.diff[("0", "1", "2")] == Chain(
        1, {("0", "2"): 1, ("0", "1"): -1, ("1", "2"): -1}
    )
    assert validate_complex(antioriental(4)).passed
    assert is_steiner(antioriental(4)).passed


def test_disk_inclusion():
    f = disk_inclusion(0, 1, "source")
    assert f.of_gen(("u",)) == Chain(0, {("b0",): 1})
    for j, i, k in [(0, 1, 2), (1, 2, 4), (0, 2, 3)]:
        for side in ("source", "target"):
            left = compose(disk_inclusion(j, i, side), disk_inclusion(i, k, side))
            assert left == disk_inclusion(j, k, side)
    assert validate_map(disk_inclusion(2, 4, "target")).passed
    with pytest.raises(BadDimsError):
        disk_inclusion(3, 2, "source")
    with pytest.raises(BadDimsError):
        disk_inclusion(1, 2, "middle")


def test_theta_examples():
    spec = ThetaSpec((1, 1), (0,), (("target", "source"),))
    t = theta(spec)
    assert graded_counts(t) == {0: 3, 1: 2}
    assert validate_complex(t).passed
    assert theta(ThetaSpec((3,))) == disk(3)
    spec2 = ThetaSpec((2, 1), (1,), (("target", "source"),))
    t2 = theta(spec2)
    assert graded_counts(t2) == {0: 2, 1: 2, 2: 1}
    assert validate_complex(t2).passed and is_steiner(t2).passed
    # gluing along a vertex instead keeps the edge separate
    spec3 = ThetaSpec((2, 1), (0,), (("target", "source"),))
    t3 = theta(spec3)
    assert graded_counts(t3) == {0: 3, 1: 3, 2: 1}
    assert is_steiner(t3).passed


def test_theta_random_specs_validate():
    rng = random.Random(7)
    for _ in range(15):
        spec = random_theta_spec(rng, max_dim=3, max_disks=4)
        t = theta(spec)
        assert validate_complex(t).passed
        assert is_steiner(t).passed


def test_theta_matches_the_pushout_oracle():
    """Equal complexes and equal ``emit`` bytes on 1200 seeded specs, half
    with arbitrary sides, half composable."""
    rng = random.Random(1401)
    for i in range(1200):
        spec = random_theta_spec(rng, max_dim=4, max_disks=6, composable=i % 2 == 1)
        expected = theta_pushout(spec)
        got = theta(spec)
        assert got == expected, spec
        assert emit(got) == emit(expected), spec


def test_wedge_examples():
    w = wedge(interval(), ("1",), interval(), ("0",))
    assert graded_counts(w) == {0: 3, 1: 2}
    w2 = wedge(oriental(2), ("2",), oriental(1), ("0",))
    assert graded_counts(w2) == {0: 4, 1: 4, 2: 1}
    w3 = wedge(unit(), ("u",), unit(), ("u",))
    assert graded_counts(w3) == {0: 1}
    from steinerlab import BadBasepointError

    with pytest.raises(BadBasepointError):
        wedge(interval(), ("i",), interval(), ("0",))


def test_wedge_matches_the_pushout_oracle():
    pointed = [(c, v) for c in shape_library().values() for v in c.generators(0)]
    for a, x in pointed:
        for b, y in pointed:
            assert wedge_with_legs(a, x, b, y) == wedge_pushout(a, x, b, y), (x, y)


def test_wedge_builds_no_legs(monkeypatch):
    """``wedge`` glues the two name tables and makes no leg map."""
    from steinerlab import shapes

    args = (oriental(2), ("2",), cube(2), ("00",))
    expected = wedge_with_legs(*args)[0]

    def refuse(*args):
        raise AssertionError("built a leg")

    monkeypatch.setattr(shapes, "basis_renaming_map", refuse)
    assert wedge(*args) == expected


def test_truncate_top():
    for n in range(1, 5):
        assert truncate_top(disk(n)) == boundary_disk(n)
        got = truncate_top(oriental(n))
        assert graded_counts(got) == {
            k: comb(n + 1, k + 1) for k in range(n)
        }
    assert graded_counts(truncate_top(cube(2))) == {0: 4, 1: 4}
    # a complex of vertices loses its augmentations with them
    for c in (unit(), oriental(0), two_points()):
        assert truncate_top(c) == zero()
    with pytest.raises(EmptyComplexError):
        truncate_top(zero())


def test_truncate_commutes_with_duals():
    for c in (oriental(3), cube(2)):
        assert truncate_top(dual_op(c)) == dual_op(truncate_top(c))
        assert truncate_top(dual_co(c)) == dual_co(truncate_top(c))


def test_boundary_decomposition_small():
    for family, n in (("oriental", 2), ("cube", 3)):
        result = boundary_decomposition_check(family, n)
        assert result.passed
        assert [item.name for item in result.checks] == [
            f"{family}:{n}:COLIMIT_BASED",
            f"{family}:{n}:INDUCED_ISO",
            f"{family}:{n}:EQUALS_TRUNCATION",
            f"{family}:{n}:COLIMIT_VALID",
        ]
    with pytest.raises(BadDimsError):
        boundary_decomposition_check("oriental", 1)
    with pytest.raises(MalformedError, match="^unknown family 'sphere'$"):
        boundary_decomposition_check("sphere", 3)


def test_top_cell_decomposition_small():
    for family, n in (("oriental", 1), ("oriental", 2), ("cube", 2)):
        result = top_cell_decomposition_check(family, n)
        assert result.passed
        assert [item.name for item in result.checks] == [
            f"{family}:{n}:UNIQUE_TOP_CELL",
            f"{family}:{n}:ATTACH_VALID",
            f"{family}:{n}:COLIMIT_BASED",
            f"{family}:{n}:INDUCED_ISO",
            f"{family}:{n}:EQUALS_SHAPE",
        ]
    with pytest.raises(BadDimsError):
        top_cell_decomposition_check("cube", 0)
    with pytest.raises(MalformedError, match="^unknown family 'sphere'$"):
        top_cell_decomposition_check("sphere", 3)



def _items(result):
    return [(item.name, item.passed, item.witness) for item in result.checks]


def test_boundary_decomposition_fails_when_the_cofaces_do_not_commute(monkeypatch):
    """A cube coface that appends its letter, whatever the position, still
    gives chain maps, so the colimit is based; but a double face reaches the
    cube with its two letters in either order, and the cocone does not
    coequalize.  The witness is the first double face, in basis order, whose
    two images differ."""
    from steinerlab import shapes

    def append(pos, letters, g):
        return (shapes._cube_word(g) + letters[0],)

    monkeypatch.setattr(shapes, "_cube_coface", append)
    for n, witness in ((2, "(e.0.1.0.1).(u)"), (3, "(e.0.1.0.1).(0)")):
        assert _items(boundary_decomposition_check("cube", n)) == [
            (f"cube:{n}:COLIMIT_BASED", True, None),
            (f"cube:{n}:COCONE_COEQUALIZES", False, witness),
        ]


def test_decomposition_checks_stop_at_a_colimit_that_is_not_based(monkeypatch):
    from steinerlab import colimits
    from steinerlab.colimits import PushoutResult

    def not_based(*maps):
        reason = "degree 1: torsion quotient"
        return PushoutResult(None, None, None, False, (1, 2), reason)

    monkeypatch.setattr(colimits, "coequalizer", not_based)
    monkeypatch.setattr(colimits, "pushout", not_based)
    for family, n in (("cube", 3), ("oriental", 3)):
        assert _items(boundary_decomposition_check(family, n)) == [
            (f"{family}:{n}:COLIMIT_BASED", False, "degree 1: torsion quotient"),
        ]
        assert _items(top_cell_decomposition_check(family, n)) == [
            (f"{family}:{n}:UNIQUE_TOP_CELL", True, "1"),
            (f"{family}:{n}:ATTACH_VALID", True, None),
            (f"{family}:{n}:COLIMIT_BASED", False, "degree 1: torsion quotient"),
        ]

def test_decomposition_checks_report_an_induced_map_that_does_not_decode(monkeypatch):
    """An induced image that is not one generator with coefficient 1 fails
    INDUCED_ISO, and the comparison with the expected shape is not made.
    The boundary check's induced map is a renaming, which carries its name
    table, so it is replaced by a map without one whose images are doubled;
    the top-cell check still decodes through ``sole_generator``."""
    from steinerlab import colimits, core

    real = colimits.induced_from_coequalizer

    def doubled(result, w):
        f = real(result, w)
        return ComplexMap(f.source, f.target, {g: 2 * c for g, c in f.assignment.items()})

    def refuse(chain):
        raise MalformedError("not one generator with coefficient 1")

    monkeypatch.setattr(colimits, "induced_from_coequalizer", doubled)
    monkeypatch.setattr(core, "sole_generator", refuse)
    assert _items(boundary_decomposition_check("cube", 2)) == [
        ("cube:2:COLIMIT_BASED", True, None),
        ("cube:2:INDUCED_ISO", False, None),
        ("cube:2:COLIMIT_VALID", True, None),
    ]
    assert _items(top_cell_decomposition_check("oriental", 2)) == [
        ("oriental:2:UNIQUE_TOP_CELL", True, "1"),
        ("oriental:2:ATTACH_VALID", True, None),
        ("oriental:2:COLIMIT_BASED", True, None),
        ("oriental:2:INDUCED_ISO", False, None),
    ]


def test_top_cell_decomposition_names_where_the_attaching_map_fails(monkeypatch):
    """An atom table whose level-zero plus entry is its minus entry gives an
    attaching map that breaks the chain rule; ATTACH_VALID names where."""
    from steinerlab import steiner
    from steinerlab.cells import CellTable

    real = steiner.atom_table

    def bent(c, b):
        t = real(c, b)
        return CellTable(t.ambient, t.dim, t.minus, (t.minus[0],) + t.plus[1:])

    monkeypatch.setattr(steiner, "atom_table", bent)
    for family in ("cube", "oriental"):
        items = _items(top_cell_decomposition_check(family, 2))
        assert items[1] == (f"{family}:2:ATTACH_VALID", False, "CHAIN_RULE at s.(b0)")


def test_boundary_decomposition_names_where_the_colimit_fails(monkeypatch):
    """A coequalizer whose first vertex has augmentation -1 fails
    COLIMIT_VALID at the first edge meeting that vertex."""
    from steinerlab import colimits
    from steinerlab.colimits import PushoutResult

    real = colimits.coequalizer

    def negative(*maps):
        r = real(*maps)
        c = r.complex
        aug = {**c.aug, c.generators(0)[0]: -1}
        return PushoutResult(BasedComplex(c.degrees, c.diff, aug), r.leg_a, r.leg_b, True)

    monkeypatch.setattr(colimits, "coequalizer", negative)
    for family, edge in (("cube", "(f.0.0).(i)"), ("oriental", "(f.0).(0.1)")):
        items = _items(boundary_decomposition_check(family, 2))
        assert items[-1] == (f"{family}:2:COLIMIT_VALID", False, f"AUG_KILLS_D1 at {edge}")


def test_top_cell_decomposition_stops_at_two_top_cells(monkeypatch):
    from steinerlab import shapes

    two_edges = theta(ThetaSpec((1, 1), (0,), (("target", "source"),)))
    monkeypatch.setattr(shapes, "cube", lambda n: two_edges)
    assert _items(top_cell_decomposition_check("cube", 1)) == [
        ("cube:1:UNIQUE_TOP_CELL", False, "2"),
    ]


@pytest.mark.parametrize("build", [cube, oriental, antioriental, oriental_via_join])
def test_dimensions_past_the_int_text_limit_are_refused_by_size(build):
    """10**4400 has more digits than the interpreter turns into text; its
    refusal shows the count by powers of two."""
    with pytest.raises(SizeLimitError) as err:
        build(10**4400)
    assert str(err.value) == (
        "complex with at least 2**at least 2**14616 generators exceeds"
        " STEINERLAB_MAX_GENERATORS"
    )


def test_oriental_via_join_refuses_as_oriental_does(monkeypatch):
    with pytest.raises(BadDimsError, match="^oriental dimension must be >= 0, got -1$"):
        oriental_via_join(-1)
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "30")
    with pytest.raises(SizeLimitError, match="^complex with 31 generators exceeds"):
        oriental_via_join(4)


def test_disks_build_deep_in_the_stack():
    """Disks iterate suspensions in a loop: a few frames at any dimension,
    so a caller 300 frames short of the recursion limit builds a 200-disk."""
    import inspect
    import sys

    def descend(k):
        return descend(k - 1) if k else disk(200)

    top = descend(sys.getrecursionlimit() - len(inspect.stack(0)) - 300)
    assert graded_counts(top) == {**{k: 2 for k in range(200)}, 200: 1}
    assert top.generators(200) == (disk_top_gen(200),)


def test_disks_built_from_threads_at_once():
    """Threads building disks together from an empty memo each get the disk
    of the suspension tower, and the memo then keeps one disk per dimension."""
    import sys
    import threading

    disk.cache_clear()
    results = []

    def work():
        for n in range(0, 30, 2):
            results.append((n, disk(n)))

    interval_before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval_before)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6 * 15
    assert all(graded_counts(c) == graded_counts(disk(n)) and c.top_degree == n
               for n, c in results)
    tower = _suspension_tower(unit(), 28)
    assert all(c == tower[n] for n, c in results)
    assert all(disk(n) is disk(n) for n in range(0, 30, 2))


def test_theta_spec_checks_every_disk_dimension():
    # A single disk meets no glue bound, so only the disk check refuses it.
    with pytest.raises(BadDimsError, match="disk dimension must be >= 0, got -1"):
        ThetaSpec((-1,))
    with pytest.raises(NameDepthError):
        ThetaSpec((1, MAX_NAME_DEPTH), (0,), (("target", "source"),))
