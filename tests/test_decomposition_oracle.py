"""The decomposition checks on name tables against their chain-path oracles.

``boundary_decomposition_check`` and ``top_cell_decomposition_check`` read
renamings as name tables: the cocone compares names, the coequalizer of two
renamings reads its rows off their tables, and ``EQUALS_*`` compares each
generator with the expected shape.  ``decomposition_oracle`` keeps the paths
through checked one-term chains and a ``_glued`` complex.  Whole reports must
be equal, on the shapes and on seeded perturbations of their renamings.
"""

from __future__ import annotations

import random

import pytest

import decomposition_oracle as oracle
from steinerlab import (
    BasedComplex,
    Chain,
    ComplexMap,
    MalformedError,
    boundary_decomposition_check,
    cube,
    invert_basis_bijection,
    oriental,
    shape_library,
    shapes,
    top_cell_decomposition_check,
    truncate_top,
)
from steinerlab.core import _adopt, basis_renaming_map

SHAPES = [("cube", n) for n in range(2, 7)] + [("oriental", n) for n in range(2, 9)]
CHECKS = [
    (boundary_decomposition_check, oracle.boundary_report),
    (top_cell_decomposition_check, oracle.top_cell_report),
]


@pytest.mark.parametrize("family, n", SHAPES)
def test_reports_match_the_chain_path(family, n):
    for check, reference in CHECKS:
        assert check(family, n) == reference(family, n)


def test_truncation_keeps_bases_and_depth():
    cases = list(shape_library(big=True).values()) + [cube(4), oriental(5)]
    for c in cases:
        if c.size:
            got, expected = truncate_top(c), oracle.truncate_top(c)
            assert got == expected and got._depth == expected._depth
            assert got.degrees == expected.degrees


def _perturbed(kind: str, rng: random.Random):
    """A rename that differs from the one given at one seeded generator:
    ``merge`` sends it where another generator of its degree goes, ``degree``
    to a target generator of another degree.  None when the maps offer no
    such choice."""

    def perturb(source: BasedComplex, target: BasedComplex, rename):
        gens = list(source._gen_degree)
        g = rng.choice(gens)
        degree = source._gen_degree[g]
        if kind == "merge":
            others = [h for h in gens if h != g and source._gen_degree[h] == degree]
            if not others:
                return None
            value = rename(rng.choice(others))
        else:
            wrong = [h for h, d in target._gen_degree.items() if d != degree]
            if not wrong:
                return None
            value = rng.choice(wrong)
        return lambda x: value if x == g else rename(x)

    return perturb


def _renamings(kind: str, seed: int, at: int):
    """The table path and the chain path, each perturbing its ``at``-th
    renaming the same way (one generator of equal seeds each)."""

    def build(make):
        rng, calls = random.Random(seed), []

        def renaming(source, target, rename):
            calls.append(None)
            if len(calls) == at:
                rename = _perturbed(kind, rng)(source, target, rename) or rename
            return make(source, target, rename)

        return renaming

    return build(basis_renaming_map), build(oracle.chain_renaming)


PERTURBED = [
    (check, reference, family, n, at, seed)
    for check, reference, renamings in (
        (boundary_decomposition_check, oracle.boundary_report, 3),
        (top_cell_decomposition_check, oracle.top_cell_report, 2),
    )
    for family, n in (("cube", 2), ("cube", 3), ("oriental", 3), ("oriental", 4))
    for at in range(1, renamings + 1)
    for seed in range(4)
]


@pytest.mark.parametrize("check, reference, family, n, at, seed", PERTURBED)
def test_two_sources_onto_one_target_match_the_chain_path(
    check, reference, family, n, at, seed, monkeypatch
):
    tables, chains = _renamings("merge", seed, at)
    monkeypatch.setattr(shapes, "basis_renaming_map", tables)
    assert check(family, n) == reference(family, n, chains)


def test_merged_renamings_reach_the_items_tables_decide():
    """The seeded merges fail the cocone, the induced bijection and the
    top-cell comparison; the altered shapes below fail the others."""
    failed = set()
    for check, reference, family, n, at, seed in PERTURBED:
        _, chains = _renamings("merge", seed, at)
        for item in reference(family, n, chains).failures():
            failed.add(item.name.rsplit(":", 1)[1])
    assert {"COCONE_COEQUALIZES", "INDUCED_ISO", "EQUALS_SHAPE"} <= failed


@pytest.mark.parametrize("check, reference, family, n, at, seed", PERTURBED)
def test_a_wrong_degree_is_refused_as_the_chain_path_refuses(
    check, reference, family, n, at, seed, monkeypatch
):
    tables, chains = _renamings("degree", seed, at)
    monkeypatch.setattr(shapes, "basis_renaming_map", tables)
    with pytest.raises(MalformedError) as fast:
        check(family, n)
    with pytest.raises(MalformedError) as slow:
        reference(family, n, chains)
    assert str(fast.value) == str(slow.value)
    assert "has stray term" in str(fast.value)


def _altered(c: BasedComplex, kind: str) -> BasedComplex:
    """``c`` with one fact changed: a vertex's augmentation, a coefficient
    of the last differential, or one generator more."""
    degrees = {d: list(gens) for d, gens in c.degrees.items()}
    diff, aug = dict(c.diff), dict(c.aug)
    if kind == "augmentation":
        vertex = c.generators(0)[0]
        aug[vertex] += 1
    elif kind == "differential":
        g = next(reversed(c.diff))
        diff[g] = _adopt(diff[g].degree, {h: 2 * k for h, k in diff[g]._coeffs.items()})
    else:
        degrees[0].append(("extra",))
        aug[("extra",)] = 1
    return BasedComplex(degrees, diff, aug)


@pytest.mark.parametrize("kind", ["augmentation", "differential", "extra"])
def test_equals_items_match_the_glued_comparison(kind):
    for c in (cube(2), cube(3), oriental(2), oriental(3), shape_library()["disk2"]):
        expected = _altered(c, kind)
        fast = shapes._induced_iso_items(
            "x", basis_renaming_map(c, expected, lambda g: g), "SHAPE", expected
        )
        slow = oracle.induced_iso_items(
            "x", oracle.chain_renaming(c, expected, lambda g: g), "SHAPE", expected
        )
        assert fast == slow
        assert not all(item.passed for item in fast)
        same = shapes._induced_iso_items(
            "x", basis_renaming_map(c, c, lambda g: g), "SHAPE", c
        )
        assert all(item.passed for item in same) and len(same) == 2


def test_renamings_carry_their_tables_and_equal_checked_maps():
    c = cube(3)
    f = basis_renaming_map(c, c, lambda g: g)
    assert f._table is not None
    assert f == oracle.chain_renaming(c, c, lambda g: g)
    assert f.assignment[("0i1",)] == Chain(1, {("0i1",): 1})
    # the inverse of a bijection is a renaming too, the map ComplexMap checks
    swap = basis_renaming_map(oriental(1), oriental(1), {("0",): ("1",), ("1",): ("0",),
                                                         ("0", "1"): ("0", "1")}.get)
    inverse = invert_basis_bijection(swap)
    assert inverse._table == swap._table
    assert inverse == ComplexMap(inverse.source, inverse.target, inverse.assignment)
