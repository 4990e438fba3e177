"""The acceptance battery: every exit criterion as an executable check.

Each criterion function returns a :class:`CheckReport`; ``run_all`` runs the
battery in order.  All randomness is seeded, so the battery is deterministic
across runs.  Bounds follow the stated criteria; everything is exact integer
equality, there are no tolerances anywhere.  Each criterion lists its cases
in one table and checks each row the same way; an item over a sub-report is
built by ``core._summary``, so a failing one names where it failed.
"""

from __future__ import annotations

import random
from math import comb

from . import colimits  # noqa: F401 - the battery loads every library module
from .basic import interval, unit
from .cells import (
    _glues,
    compose_tables,
    identity_table,
    source,
    target,
    validate_table,
)
from .core import (
    BasedComplex,
    Chain,
    CheckItem,
    CheckReport,
    ComplexMap,
    _first_failure,
    _summary,
    equal_presentation,
    graded_counts,
    invert_basis_bijection,
    report,
    validate_complex,
    validate_map,
    verify_mutually_inverse,
)
from .io import emit, parse
from .ops import (
    cube_selfduality,
    dual_co,
    dual_coop,
    dual_op,
    gray_tensor,
    join,
    join_pushout,
    suspension,
    susp_coop_iso,
    swap_iso_co,
    swap_iso_op,
)
from .retract import (
    RetractionPair,
    phi_map,
    q2,
    rho_map,
    s2,
    section_ell,
    section_q_cube,
    section_xi,
    theta_left_inverse,
    theta_retract_into_oriental,
    zeta,
)
from .shapes import (
    ThetaSpec,
    antioriental,
    boundary_decomposition_check,
    boundary_disk,
    cube,
    disk,
    oriental,
    oriental_via_join,
    random_theta_spec,
    shape_library,
    theta,
    top_cell_decomposition_check,
)
from .steiner import atom_table, is_steiner, is_strongly_loopfree, unitality_check


# -- deterministic random inputs -----------------------------------------------

_SEED = 20240917


def random_steiner_complex(rng: random.Random, budget: int = 90) -> BasedComplex:
    """A random complex built from closure operations that preserve the
    loop-free unital property: small library leaves combined by suspension,
    tensor, join, and duals."""
    leaves = [unit(), interval(), disk(2), oriental(1), oriental(2), cube(2)]
    current = rng.choice(leaves)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(6)
        if op == 0:
            current = suspension(current)
        elif op == 1:
            current = dual_op(current)
        elif op == 2:
            current = dual_co(current)
        elif op in (3, 4):
            other = rng.choice(leaves)
            combined = (
                gray_tensor(current, other) if op == 3 else join(current, other)
            )
            if combined.size > budget:
                continue
            current = combined
        else:
            current = dual_coop(current)
        if current.size > budget:
            break
    return current


# -- negative fixtures ------------------------------------------------------------


def fixture_broken_d2() -> BasedComplex:
    """d of d is a non-zero vertex difference: fails D2_ZERO only."""
    return BasedComplex(
        {0: [("v",), ("w",)], 1: [("e",)], 2: [("c",)]},
        {
            ("e",): Chain(0, {("v",): 1, ("w",): -1}),
            ("c",): Chain(1, {("e",): 1}),
        },
        {("v",): 1, ("w",): 1},
    )


def fixture_broken_augmentation() -> BasedComplex:
    """An edge whose boundary has augmentation two: fails AUG_KILLS_D1."""
    return BasedComplex(
        {0: [("x",), ("y",)], 1: [("e",)]},
        {("e",): Chain(0, {("x",): 1, ("y",): 1})},
        {("x",): 1, ("y",): 1},
    )


def fixture_non_unital() -> BasedComplex:
    """A valid complex whose edge atom has augmentation two on the positive
    side: fails unitality only."""
    return BasedComplex(
        {0: [("x",), ("y",), ("z",)], 1: [("e",)]},
        {("e",): Chain(0, {("y",): 1, ("z",): 1, ("x",): -2})},
        {("x",): 1, ("y",): 1, ("z",): 1},
    )


def fixture_loop() -> BasedComplex:
    """Two edges running in opposite directions: a two-generator cycle in
    the preorder, failing strong loop-freeness."""
    return BasedComplex(
        {0: [("x",), ("y",)], 1: [("e",), ("f",)]},
        {
            ("e",): Chain(0, {("y",): 1, ("x",): -1}),
            ("f",): Chain(0, {("x",): 1, ("y",): -1}),
        },
        {("x",): 1, ("y",): 1},
    )


# -- criterion 1: validity battery -------------------------------------------------


def criterion_validity() -> CheckReport:
    """Each shape is Steiner; :func:`is_steiner` validates it first."""
    families = (
        ("disk", disk), ("boundary_disk", boundary_disk),
        ("oriental", oriental), ("antioriental", antioriental),
    )
    cases = [(f"{family}({n})", build(n)) for n in range(9) for family, build in families]
    cases += [(f"cube({n})", cube(n)) for n in range(7)]
    rng = random.Random(_SEED)
    for idx in range(25):
        spec = random_theta_spec(rng, max_dim=3, max_disks=4)
        cases.append((f"theta#{idx}:{spec.dims}|{spec.glue}", theta(spec)))
    return report(*(_summary(f"valid+steiner:{label}", is_steiner(c)) for label, c in cases))


# -- criterion 2: counting oracles ---------------------------------------------------

# Each family, the dimensions checked, and its number of k-cells in dimension n.
_COUNTS = (
    ("cube", cube, range(7), lambda n, k: comb(n, k) * 2 ** (n - k)),
    ("oriental", oriental, range(9), lambda n, k: comb(n + 1, k + 1)),
)


def criterion_counts() -> CheckReport:
    items: list[CheckItem] = []
    for family, build, dims, count in _COUNTS:
        for n in dims:
            counts = graded_counts(build(n))
            ok = counts == {k: count(n, k) for k in range(n + 1)}
            items.append(CheckItem(f"{family}({n}) counts", ok, None if ok else str(counts)))
    return report(*items)


# -- criterion 3: construction cross-checks --------------------------------------------


def criterion_join_oracles() -> CheckReport:
    items = [
        CheckItem(f"oriental_via_join({n})", oriental_via_join(n) == oriental(n))
        for n in range(7)
    ]
    cases = [(f"disk({k})", disk(k)) for k in range(4)]
    cases += [(f"oriental({k})", oriental(k)) for k in range(4)]
    cases.append(("cube(2)", cube(2)))
    for label, a in cases:
        ok = equal_presentation(join(a, unit()), join_pushout(a, unit()).require_based())
        items.append(CheckItem(f"join({label}, unit) closed form", ok))
    return report(*items)


# -- criterion 4: duality identities -----------------------------------------------------


def criterion_dualities() -> CheckReport:
    items: list[CheckItem] = []
    lib = shape_library()
    for label, c in lib.items():
        ok = (
            dual_op(dual_op(c)) == c
            and dual_co(dual_co(c)) == c
            and dual_op(dual_co(c)) == dual_co(dual_op(c))
            and dual_op(dual_co(c)) == dual_coop(c)
            and validate_complex(dual_op(c)).passed
            and validate_complex(dual_co(c)).passed
        )
        items.append(CheckItem(f"involutions:{label}", ok))
    pairs = [
        ("interval", interval()),
        ("disk(2)", disk(2)),
        ("oriental(2)", oriental(2)),
        ("cube(2)", cube(2)),
    ]
    bijections = [
        (f"swap_{which}:{la}*{lb}", swap(a, b))
        for la, a in pairs
        for lb, b in pairs
        for which, swap in (("op", swap_iso_op), ("co", swap_iso_co))
    ]
    bijections += [
        (f"cube_selfduality({n},{which})", cube_selfduality(n, which))
        for n in range(6)
        for which in ("op", "co")
    ]
    # Each candidate isomorphism with its inverse: both valid, mutually inverse.
    isos = [(label, f, invert_basis_bijection(f)) for label, f in bijections]
    rng = random.Random(_SEED + 1)
    for idx in range(50):
        c = random_steiner_complex(rng)
        f = susp_coop_iso(c)
        inverse = ComplexMap(f.target, f.source, f.assignment)
        isos.append((f"susp_coop_iso#{idx}(size={c.size})", f, inverse))
    items += [
        _summary(label, validate_map(f), validate_map(inv), verify_mutually_inverse(f, inv))
        for label, f, inv in isos
    ]
    return report(*items)


# -- criterion 5: retraction theorems ------------------------------------------------------


def criterion_retractions() -> CheckReport:
    pairs = [("q2 after s2 is the identity", RetractionPair(s2(), q2()))]
    pairs += [
        (f"phi sections rho:{label}", RetractionPair(phi_map(a), rho_map(a)))
        for label, a in [
            ("unit", unit()),
            ("interval", interval()),
            ("oriental(2)", oriental(2)),
            ("cube(2)", cube(2)),
        ]
    ]
    pairs += [(f"section_q_cube({n})", section_q_cube(n)) for n in range(5)]
    pairs += [(f"section_xi({n})", section_xi(n)) for n in range(5)]
    pairs += [(f"section_ell({n})", section_ell(n)) for n in range(4)]
    splits = [(n, total - n) for total in range(5) for n in range(total + 1)]
    pairs += [
        (f"zeta/theta({n},{m})", RetractionPair(zeta(n, m), theta_left_inverse(n, m)))
        for n, m in splits
    ]
    rng = random.Random(_SEED + 2)
    specs: list[ThetaSpec] = []
    while len(specs) < 10:
        spec = random_theta_spec(rng, max_dim=4, max_disks=4, composable=True)
        if sum(spec.dims) <= 4:
            specs.append(spec)
    for idx, spec in enumerate(specs):
        pair = theta_retract_into_oriental(spec)
        n_target = (
            pair.retract.source.top_degree if pair.retract.source.degrees else 0
        )
        label = f"theta_retract#{idx}:{spec.dims}|{spec.glue}->oriental({n_target})"
        pairs.append((label, pair))
    return report(*(_summary(label, pair.verify()) for label, pair in pairs))


# -- criterion 6: decomposition colimits -----------------------------------------------------


def criterion_decompositions() -> CheckReport:
    checks = (
        ("boundary_decomposition", boundary_decomposition_check),
        ("top_cell_decomposition", top_cell_decomposition_check),
    )
    return report(*(
        _summary(f"{label}({family},{n})", check(family, n))
        for label, check in checks
        for family, dims in (("oriental", range(2, 7)), ("cube", range(2, 6)))
        for n in dims
    ))


# -- criterion 7: atom and cell calculus -------------------------------------------------------


def _degenerate_at(t, dim: int):
    """Pad a table with identity levels up to the stated dimension."""
    while t.dim < dim:
        t = identity_table(t)
    return t


def _composable_pairs(pool):
    """Triples (t, u, p) of tables in ``pool``, t then u composable along p."""
    return [
        (t, u, p)
        for t in pool
        for u in pool
        if t.dim == u.dim
        for p in range(t.dim)
        if _glues(t, u, p)
    ]


def criterion_cells() -> CheckReport:
    items: list[CheckItem] = []
    lib = shape_library(big=True)
    invalid = (
        f"{label}:{g}"
        for label, c in lib.items()
        for _, g in c.all_generators()
        if not validate_table(atom_table(c, g)).passed
    )
    items.append(_first_failure("all library atoms validate", invalid))

    t = atom_table(oriental(2), ("0", "1", "2"))
    ok = (
        t.minus[1] == Chain(1, {("0", "2"): 1})
        and t.plus[1] == Chain(1, {("0", "1"): 1, ("1", "2"): 1})
        and t.minus[0] == Chain(0, {("0",): 1})
        and t.plus[0] == Chain(0, {("2",): 1})
    )
    items.append(CheckItem("triangle atom matches the worked table", ok))

    for label, shape in [("oriental(3)", oriental(3)), ("cube(3)", cube(3))]:
        top_dim = shape.top_degree
        pool = [
            _degenerate_at(atom_table(shape, g), top_dim)
            for _, g in shape.all_generators()
        ]
        pairs = _composable_pairs(pool)
        extended = list(dict.fromkeys(pool + [compose_tables(u, t, p) for t, u, p in pairs]))
        assoc = [
            compose_tables(w, left, p) == compose_tables(compose_tables(w, u, p), t, p)
            for t, u, p in _composable_pairs(extended)
            for left in (compose_tables(u, t, p),)
            for w in extended
            if _glues(left, w, p)
        ]
        items.append(
            CheckItem(
                f"associativity on {label} ({len(assoc)} triples)",
                bool(assoc) and all(assoc),
            )
        )
        unit_ok = all(
            compose_tables(t_, _degenerate_at(source(t_, p), t_.dim), p) == t_
            and compose_tables(_degenerate_at(target(t_, p), t_.dim), t_, p) == t_
            for t_ in pool
            for p in range(t_.dim)
        )
        items.append(CheckItem(f"identity tables are units on {label}", unit_ok))
        inter = [
            compose_tables(compose_tables(d, c, p), compose_tables(b, a, p), q)
            == compose_tables(compose_tables(d, b, q), compose_tables(c, a, q), p)
            for a, b, p in pairs
            for c, d, p2 in pairs
            if p2 == p
            for q in range(p + 1, a.dim)
            if _glues(a, c, q) and _glues(b, d, q)
        ]
        items.append(CheckItem(f"interchange on {label} ({len(inter)} squares)", all(inter)))

    loop_item = is_strongly_loopfree(fixture_loop()).checks[0]
    items.append(
        CheckItem(
            "loop fixture fails with a cycle witness",
            (not loop_item.passed) and bool(loop_item.witness),
            loop_item.witness,
        )
    )
    return report(*items)


# -- criterion 8: robustness ---------------------------------------------------------------------


# Each negative fixture, the check it fails, and the one item failing there
# with its witness.
_FIXTURES = (
    ("d2", fixture_broken_d2, validate_complex, "D2_ZERO", "c"),
    ("augmentation", fixture_broken_augmentation, validate_complex, "AUG_KILLS_D1", "e"),
    ("non-unital", fixture_non_unital,
     lambda c: validate_complex(c).merged(unitality_check(c)), "UNITALITY", "e"),
)


def _round_trips(value) -> bool:
    text = emit(value)
    again = parse(text)
    return again == value and emit(again) == text


def criterion_robustness() -> CheckReport:
    items = [
        CheckItem(
            f"{label} fixture fails {name} with witness",
            [(i.name, i.witness) for i in check(fixture()).failures()] == [(name, witness)],
        )
        for label, fixture, check, name, witness in _FIXTURES
    ]
    stable = all(_round_trips(c) for c in shape_library().values())
    items.append(CheckItem("serialization round-trips byte-stably", stable))
    items.append(CheckItem("map serialization round-trips byte-stably", _round_trips(s2())))
    return report(*items)


CRITERIA = [
    ("1 validity battery", criterion_validity),
    ("2 counting oracles", criterion_counts),
    ("3 construction cross-checks", criterion_join_oracles),
    ("4 duality identities", criterion_dualities),
    ("5 retraction theorems", criterion_retractions),
    ("6 decomposition colimits", criterion_decompositions),
    ("7 atom and cell calculus", criterion_cells),
    ("8 robustness", criterion_robustness),
]


def run_all() -> list[tuple[str, CheckReport]]:
    return [(name, fn()) for name, fn in CRITERIA]
