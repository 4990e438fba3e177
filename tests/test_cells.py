import pytest

from steinerlab import (
    CellTable,
    Chain,
    NotComposableError,
    InvalidResultError,
    chain_of,
    compose_tables,
    cube,
    disk,
    identity_table,
    is_degenerate,
    oriental,
    source,
    target,
    validate_table,
)
from steinerlab.cells import BadLevelError
from steinerlab.steiner import atom_table


def _edge_atom(i, j):
    return atom_table(oriental(2), (str(i), str(j)))


def test_validate_atoms():
    assert validate_table(atom_table(oriental(2), ("0", "1", "2"))).passed
    assert validate_table(atom_table(cube(2), ("ii",))).passed


def test_validate_rejects_bad_augmentation():
    o2 = oriental(2)
    t = CellTable(
        o2,
        0,
        (Chain(0, {("0",): 2}),),
        (Chain(0, {("0",): 2}),),
    )
    rep = validate_table(t)
    assert not rep.passed
    assert any(i.name == "UNIT_AUGMENTATION" for i in rep.failures())


def test_validate_rejects_negative_entries():
    o2 = oriental(2)
    t = CellTable(
        o2,
        0,
        (Chain(0, {("0",): -1, ("1",): 2}),),
        (Chain(0, {("0",): -1, ("1",): 2}),),
    )
    rep = validate_table(t)
    assert any(i.name == "ENTRIES_NATURAL" for i in rep.failures())


def test_source_target_truncation():
    t = atom_table(oriental(2), ("0", "1", "2"))
    s1 = source(t, 1)
    assert s1.dim == 1 and s1.minus[1] == s1.plus[1] == Chain(1, {("0", "2"): 1})
    t1 = target(t, 1)
    assert t1.plus[1] == Chain(1, {("0", "1"): 1, ("1", "2"): 1})
    assert target(t, t.dim) == t
    assert source(t, t.dim) == t
    with pytest.raises(BadLevelError):
        source(t, 5)


def test_truncations_equal_checked_tables():
    """``source``/``target`` skip the constructor's degree checks; the tables
    they return equal the ones the public constructor builds and checks."""
    for c in (cube(3), oriental(4), disk(3)):
        for _, g in c.all_generators():
            t = atom_table(c, g)
            for k in range(t.dim + 1):
                expected_source = CellTable(c, k, t.minus[: k + 1], t.plus[:k] + (t.minus[k],))
                expected_target = CellTable(c, k, t.minus[:k] + (t.plus[k],), t.plus[: k + 1])
                assert source(t, k) == expected_source
                assert target(t, k) == expected_target
            for bad in (-1, t.dim + 1):
                for truncate in (source, target):
                    with pytest.raises(BadLevelError):
                        truncate(t, bad)
    # the public constructor still refuses an entry of the wrong degree
    t = atom_table(oriental(2), ("0", "1", "2"))
    with pytest.raises(BadLevelError, match="level-1 entry has the wrong degree"):
        CellTable(t.ambient, 1, t.minus[:1] + t.minus[2:], t.plus[:2])


def test_globularity():
    t = atom_table(oriental(3), ("0", "1", "2", "3"))
    for k in range(t.dim + 1):
        for j in range(k + 1):
            assert source(source(t, k), j) == source(t, j)
            assert target(target(t, k), j) == target(t, j)
            if j < k:
                assert source(target(t, k), j) == source(t, j)
                assert target(source(t, k), j) == target(t, j)


def test_identity_table():
    vertex = atom_table(oriental(1), ("0",))
    ident = identity_table(vertex)
    assert ident.dim == 1
    assert ident.minus[1].is_zero() and ident.plus[1].is_zero()
    assert validate_table(ident).passed
    assert source(ident, 0) == vertex
    assert is_degenerate(ident)
    assert not is_degenerate(atom_table(oriental(2), ("0", "1")))


def test_compose_triangle_edges():
    t01, t12 = _edge_atom(0, 1), _edge_atom(1, 2)
    z = compose_tables(t12, t01, 0)
    assert z.minus[1] == z.plus[1] == Chain(1, {("0", "1"): 1, ("1", "2"): 1})
    assert z.minus[0] == chain_of(0, ("0",))
    assert z.plus[0] == chain_of(0, ("2",))
    # matches the positive side of the triangle atom
    full = atom_table(oriental(2), ("0", "1", "2"))
    assert z.minus[1] == full.plus[1]


def test_compose_units():
    t = _edge_atom(0, 1)
    left = identity_table(source(t, 0))
    right = identity_table(target(t, 0))
    assert compose_tables(t, left, 0) == t
    assert compose_tables(right, t, 0) == t


def test_compose_rejects_mismatch():
    with pytest.raises(NotComposableError):
        compose_tables(_edge_atom(0, 1), _edge_atom(1, 2), 0)
    with pytest.raises(NotComposableError):
        compose_tables(
            atom_table(oriental(2), ("0", "1", "2")), _edge_atom(0, 1), 0
        )


def test_compose_associativity_on_edges():
    o3 = oriental(3)
    a = atom_table(o3, ("0", "1"))
    b = atom_table(o3, ("1", "2"))
    c = atom_table(o3, ("2", "3"))
    lhs = compose_tables(c, compose_tables(b, a, 0), 0)
    rhs = compose_tables(compose_tables(c, b, 0), a, 0)
    assert lhs == rhs


def test_invalid_result_detected():
    o2 = oriental(2)
    good = _edge_atom(0, 1)
    # a corrupt second factor whose top entry has a negative coefficient but
    # whose source still matches the target of the first factor
    bad = CellTable(
        o2,
        1,
        (chain_of(0, ("1",)), Chain(1, {("1", "2"): 2, ("0", "1"): -1})),
        (chain_of(0, ("0",)), Chain(1, {("1", "2"): 2, ("0", "1"): -1})),
    )
    with pytest.raises((NotComposableError, InvalidResultError)):
        compose_tables(bad, good, 0)
