"""The map checks on coefficient dicts against their Chain-based oracles.

``validate_map``, ``verify_mutually_inverse`` and ``RetractionPair.verify``
sum coefficient dicts and build no composite map; ``map_check_oracle``
keeps them as first written, on chains and ``compose``.  Every report must
be equal as a whole, verdicts and witnesses, on the retraction pairs, the
duality isomorphisms and seeded perturbations of each.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

import map_check_oracle as oracle
from steinerlab import (
    Chain,
    ComplexMap,
    RetractionPair,
    ThetaSpec,
    cube_selfduality,
    disk,
    interval,
    invert_basis_bijection,
    oriental,
    section_ell,
    section_q_cube,
    section_xi,
    swap_iso_co,
    swap_iso_op,
    theta_left_inverse,
    theta_retract_into_oriental,
    validate_map,
    verify_mutually_inverse,
    zeta,
)
from steinerlab.names import name_key, render_name
from steinerlab.shapes import cube, random_theta_spec

_KINDS = ("coefficient", "negated", "extra")


@lru_cache(maxsize=None)
def _pairs() -> tuple[tuple[str, ComplexMap, ComplexMap], ...]:
    """``(label, embed, retract)``: the sections, the wedge inclusions and the
    theta retracts, each a retraction pair."""
    pairs = [
        (f"{name}({n})", build(n))
        for name, build in (
            ("section_xi", section_xi),
            ("section_q_cube", section_q_cube),
            ("section_ell", section_ell),
        )
        for n in range(5)
    ]
    pairs += [
        (f"zeta({n},{total - n})",
         RetractionPair(zeta(n, total - n), theta_left_inverse(n, total - n)))
        for total in range(5)
        for n in range(total + 1)
    ]
    rng = random.Random(29)
    specs = [
        ThetaSpec(dims, glue, (("target", "source"),) * len(glue))
        for dims, glue in (((2, 1, 2), (1, 1)), ((1, 1, 1), (0, 0)), ((2, 2), (0,)))
    ]
    while len(specs) < 10:
        spec = random_theta_spec(rng, max_dim=4, max_disks=4, composable=True)
        if sum(spec.dims) <= 5:
            specs.append(spec)
    pairs += [(f"theta{s.dims}|{s.glue}", theta_retract_into_oriental(s)) for s in specs]
    return tuple((label, pair.embed, pair.retract) for label, pair in pairs)


@lru_cache(maxsize=None)
def _isos() -> tuple[tuple[str, ComplexMap, ComplexMap], ...]:
    """``(label, map, inverse)``: the duality isomorphisms of ``ops``."""
    shapes = [("interval", interval()), ("disk(2)", disk(2)), ("oriental(2)", oriental(2)),
              ("cube(2)", cube(2))]
    maps = [
        (f"swap_{which}:{la}*{lb}", swap(a, b))
        for la, a in shapes
        for lb, b in shapes
        for which, swap in (("op", swap_iso_op), ("co", swap_iso_co))
    ]
    maps += [(f"cube_selfduality({n},{which})", cube_selfduality(n, which))
             for n in range(5) for which in ("op", "co")]
    return tuple((label, f, invert_basis_bijection(f)) for label, f in maps)


def _reports(f: ComplexMap, g: ComplexMap):
    """The reports of the three checks on ``(f, g)``, where ``g`` goes back
    from ``f``'s target: the library's, then the oracle's."""
    ours = (validate_map(f), validate_map(g), verify_mutually_inverse(f, g),
            RetractionPair(f, g).verify())
    theirs = (oracle.validate_map(f), oracle.validate_map(g),
              oracle.verify_mutually_inverse(f, g), oracle.verify(f, g))
    return ours, theirs


def _perturbed(f: ComplexMap, rng: random.Random, kind: str) -> ComplexMap:
    """``f`` with one image changed: one coefficient moved, the whole image
    negated, or one term of the right degree added."""
    target = f.target
    if kind == "extra":
        gens = [(d, g) for d, g in f.source.all_generators() if target.generators(d)]
    else:
        gens = [(d, g) for d, g in f.source.all_generators() if f.of_gen(g)._coeffs]
    degree, g = rng.choice(gens)
    coeffs = dict(f.of_gen(g)._coeffs)
    if kind == "coefficient":
        h = rng.choice(sorted(coeffs, key=name_key))
        coeffs[h] += rng.choice((-2, -1, 1, 2))
    elif kind == "negated":
        coeffs = {h: -k for h, k in coeffs.items()}
    else:
        fresh = [h for h in target.generators(degree) if h not in coeffs]
        h = rng.choice(fresh or list(target.generators(degree)))
        coeffs[h] = coeffs.get(h, 0) + rng.choice((-1, 1))
    assignment = dict(f.assignment)
    assignment[g] = Chain(degree, coeffs)
    return ComplexMap(f.source, target, assignment)


def _perturbed_case(seed: int):
    """A seeded retraction pair or duality isomorphism with one image of one
    side perturbed, as ``(label, f, g)``."""
    rng = random.Random(seed)
    label, f, g = rng.choice(_pairs() + _isos())
    kind = _KINDS[seed % 3]
    if rng.random() < 0.5:
        return f"{label} embed {kind}", _perturbed(f, rng, kind), g
    return f"{label} retract {kind}", f, _perturbed(g, rng, kind)


def test_unperturbed_reports_match_the_oracle():
    for label, f, g in _pairs() + _isos():
        ours, theirs = _reports(f, g)
        assert ours == theirs, label


@pytest.mark.parametrize("seed", range(90))
def test_perturbed_reports_match_the_oracle(seed):
    label, f, g = _perturbed_case(seed)
    ours, theirs = _reports(f, g)
    assert ours == theirs, label


def test_perturbations_fail_every_item_past_the_first_generator():
    """The seeds make every item fail, each at least once at a witness that
    is not the first generator of its degree, so no check passes the test by
    stopping early or by looking at one generator only."""
    failing, deep = set(), set()
    for seed in range(90):
        _, f, g = _perturbed_case(seed)
        maps_f, maps_g, inverse, pair = _reports(f, g)[0]
        located = [(item, f.source) for item in maps_f.checks]
        located += [(item, g.source) for item in maps_g.checks]
        located += zip(inverse.checks, (f.source, g.source))
        located += zip(pair.checks[2:], (f.source, g.source))
        for item, source in located:
            if item.passed:
                continue
            failing.add(item.name)
            rendered = {render_name(x): (d, x) for d, x in source.all_generators()}
            degree, x = rendered[item.witness]
            if x != source.generators(degree)[0]:
                deep.add(item.name)
    every = {"CHAIN_RULE", "AUG_PRESERVED", "POSITIVITY", "LEFT_THEN_RIGHT_IS_ID",
             "RIGHT_THEN_LEFT_IS_ID", "COMPOSITE_IDENTITY", "SPLITTING_IDEMPOTENT"}
    assert failing == deep == every

