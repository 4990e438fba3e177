"""The acceptance battery: every exit criterion as an executable check.

Each criterion function returns a :class:`CheckReport`; ``run_all`` runs the
battery in order.  All randomness is seeded, so the battery is deterministic
across runs.  Bounds follow the stated criteria; everything is exact integer
equality, there are no tolerances anywhere.
"""

from __future__ import annotations

import random
from math import comb

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
from .steiner import atom_table, is_steiner, is_strongly_loopfree


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
    items: list[CheckItem] = []

    def battery(label: str, c: BasedComplex) -> None:
        ok = validate_complex(c).passed and is_steiner(c).passed
        items.append(CheckItem(f"valid+steiner:{label}", ok))

    for n in range(9):
        battery(f"disk({n})", disk(n))
        battery(f"boundary_disk({n})", boundary_disk(n))
        battery(f"oriental({n})", oriental(n))
        battery(f"antioriental({n})", antioriental(n))
    for n in range(7):
        battery(f"cube({n})", cube(n))
    rng = random.Random(_SEED)
    for idx in range(25):
        spec = random_theta_spec(rng, max_dim=3, max_disks=4)
        battery(f"theta#{idx}:{spec.dims}|{spec.glue}", theta(spec))
    return report(*items)


# -- criterion 2: counting oracles ---------------------------------------------------


def criterion_counts() -> CheckReport:
    items: list[CheckItem] = []
    for n in range(7):
        counts = graded_counts(cube(n))
        expected = {k: comb(n, k) * 2 ** (n - k) for k in range(n + 1)}
        ok = counts == expected and sum(counts.values()) == 3**n
        items.append(CheckItem(f"cube({n}) counts", ok, None if ok else str(counts)))
    for n in range(9):
        counts = graded_counts(oriental(n))
        expected = {k: comb(n + 1, k + 1) for k in range(n + 1)}
        ok = counts == expected
        items.append(
            CheckItem(f"oriental({n}) counts", ok, None if ok else str(counts))
        )
    return report(*items)


# -- criterion 3: construction cross-checks --------------------------------------------


def criterion_join_oracles() -> CheckReport:
    items: list[CheckItem] = []
    for n in range(7):
        ok = oriental_via_join(n) == oriental(n)
        items.append(CheckItem(f"oriental_via_join({n})", ok))
    cases = [(f"disk({k})", disk(k)) for k in range(4)]
    cases += [(f"oriental({k})", oriental(k)) for k in range(4)]
    cases.append(("cube(2)", cube(2)))
    for label, a in cases:
        ok = equal_presentation(join(a, unit()), join_pushout(a, unit()).require_based())
        items.append(CheckItem(f"join({label}, unit) closed form", ok))
    return report(*items)


# -- criterion 4: duality identities -----------------------------------------------------


def _is_iso(f: ComplexMap, inv: ComplexMap) -> bool:
    """``f`` and ``inv`` are valid maps and mutually inverse."""
    return (
        validate_map(f).passed
        and validate_map(inv).passed
        and verify_mutually_inverse(f, inv).passed
    )


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
    for la, a in pairs:
        for lb, b in pairs:
            for which, swap in (("op", swap_iso_op), ("co", swap_iso_co)):
                f = swap(a, b)
                ok = _is_iso(f, invert_basis_bijection(f))
                items.append(CheckItem(f"swap_{which}:{la}*{lb}", ok))
    for n in range(6):
        for which in ("op", "co"):
            f = cube_selfduality(n, which)
            ok = _is_iso(f, invert_basis_bijection(f))
            items.append(CheckItem(f"cube_selfduality({n},{which})", ok))
    rng = random.Random(_SEED + 1)
    for idx in range(50):
        c = random_steiner_complex(rng)
        f = susp_coop_iso(c)
        ok = _is_iso(f, ComplexMap(f.target, f.source, f.assignment))
        items.append(CheckItem(f"susp_coop_iso#{idx}(size={c.size})", ok))
    return report(*items)


# -- criterion 5: retraction theorems ------------------------------------------------------


def criterion_retractions() -> CheckReport:
    ok = RetractionPair(s2(), q2()).verify().passed
    items = [CheckItem("q2 after s2 is the identity", ok)]
    for label, a in [
        ("unit", unit()),
        ("interval", interval()),
        ("oriental(2)", oriental(2)),
        ("cube(2)", cube(2)),
    ]:
        ok = RetractionPair(phi_map(a), rho_map(a)).verify().passed
        items.append(CheckItem(f"phi sections rho:{label}", ok))
    for n in range(5):
        items.append(
            CheckItem(f"section_q_cube({n})", section_q_cube(n).verify().passed)
        )
    for n in range(5):
        items.append(CheckItem(f"section_xi({n})", section_xi(n).verify().passed))
    for n in range(4):
        items.append(CheckItem(f"section_ell({n})", section_ell(n).verify().passed))
    for total in range(5):
        for n in range(total + 1):
            m = total - n
            ok = RetractionPair(zeta(n, m), theta_left_inverse(n, m)).verify().passed
            items.append(CheckItem(f"zeta/theta({n},{m})", ok))
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
        items.append(
            CheckItem(
                f"theta_retract#{idx}:{spec.dims}|{spec.glue}->oriental({n_target})",
                pair.verify().passed,
            )
        )
    return report(*items)


# -- criterion 6: decomposition colimits -----------------------------------------------------


def criterion_decompositions() -> CheckReport:
    items: list[CheckItem] = []
    for label, check, family, dims in (
        ("boundary_decomposition", boundary_decomposition_check, "oriental", range(2, 7)),
        ("boundary_decomposition", boundary_decomposition_check, "cube", range(2, 6)),
        ("top_cell_decomposition", top_cell_decomposition_check, "oriental", range(2, 7)),
        ("top_cell_decomposition", top_cell_decomposition_check, "cube", range(2, 6)),
    ):
        for n in dims:
            sub = check(family, n)
            items.append(
                CheckItem(
                    f"{label}({family},{n})",
                    sub.passed,
                    None if sub.passed else sub.failures()[0].name,
                )
            )
    return report(*items)


# -- criterion 7: atom and cell calculus -------------------------------------------------------


def _degenerate_at(t, dim: int):
    """Pad a table with identity levels up to the stated dimension."""
    while t.dim < dim:
        t = identity_table(t)
    return t


def _composable_pairs(pool):
    """Indices (i, j, p) with pool[i] then pool[j] composable along p."""
    return [
        (i, j, p)
        for i, t in enumerate(pool)
        for j, u in enumerate(pool)
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
        composites = [compose_tables(pool[j], pool[i], p) for i, j, p in pairs]
        seen = set()
        extended = []
        for t_ in pool + composites:
            key = (tuple(t_.minus), tuple(t_.plus))
            if key not in seen:
                seen.add(key)
                extended.append(t_)
        assoc_checked = 0
        assoc_ok = True
        for i, j, p in _composable_pairs(extended):
            left = compose_tables(extended[j], extended[i], p)
            for u in extended:
                if _glues(left, u, p):
                    one = compose_tables(u, left, p)
                    right = compose_tables(
                        compose_tables(u, extended[j], p), extended[i], p
                    )
                    assoc_ok = assoc_ok and one == right
                    assoc_checked += 1
        items.append(
            CheckItem(
                f"associativity on {label} ({assoc_checked} triples)",
                assoc_ok and assoc_checked > 0,
            )
        )
        unit_ok = True
        for t_ in pool:
            for p in range(t_.dim):
                left_unit = _degenerate_at(source(t_, p), t_.dim)
                right_unit = _degenerate_at(target(t_, p), t_.dim)
                unit_ok = (
                    unit_ok
                    and compose_tables(t_, left_unit, p) == t_
                    and compose_tables(right_unit, t_, p) == t_
                )
        items.append(CheckItem(f"identity tables are units on {label}", unit_ok))
        inter_checked = 0
        inter_ok = True
        for i, j, p in pairs:
            for k, l, p2 in pairs:
                if p2 != p:
                    continue
                a, b, c, d = pool[i], pool[j], pool[k], pool[l]
                for q in range(p + 1, a.dim):
                    if not (_glues(a, c, q) and _glues(b, d, q)):
                        continue
                    rows = compose_tables(
                        compose_tables(d, c, p), compose_tables(b, a, p), q
                    )
                    cols = compose_tables(
                        compose_tables(d, b, q), compose_tables(c, a, q), p
                    )
                    inter_ok = inter_ok and rows == cols
                    inter_checked += 1
        items.append(
            CheckItem(
                f"interchange on {label} ({inter_checked} squares)", inter_ok
            )
        )

    loop = fixture_loop()
    loop_report = is_strongly_loopfree(loop)
    loop_item = loop_report.checks[0]
    items.append(
        CheckItem(
            "loop fixture fails with a cycle witness",
            (not loop_item.passed) and bool(loop_item.witness),
            loop_item.witness,
        )
    )
    return report(*items)


# -- criterion 8: robustness ---------------------------------------------------------------------


def criterion_robustness() -> CheckReport:
    items: list[CheckItem] = []
    d2 = validate_complex(fixture_broken_d2())
    by_name = {item.name: item for item in d2.checks}
    items.append(
        CheckItem(
            "d2 fixture fails D2_ZERO with witness",
            (not by_name["D2_ZERO"].passed)
            and by_name["D2_ZERO"].witness == "c"
            and by_name["AUG_KILLS_D1"].passed,
        )
    )
    aug = validate_complex(fixture_broken_augmentation())
    by_name = {item.name: item for item in aug.checks}
    items.append(
        CheckItem(
            "augmentation fixture fails AUG_KILLS_D1 with witness",
            (not by_name["AUG_KILLS_D1"].passed)
            and by_name["AUG_KILLS_D1"].witness == "e"
            and by_name["D2_ZERO"].passed,
        )
    )
    nu = fixture_non_unital()
    from .steiner import unitality_check

    unital = unitality_check(nu)
    items.append(
        CheckItem(
            "non-unital fixture fails UNITALITY with witness",
            validate_complex(nu).passed
            and not unital.passed
            and unital.checks[0].witness == "e",
        )
    )
    lib = shape_library()
    stable = True
    for label, c in lib.items():
        text = emit(c)
        again = parse(text)
        if again != c or emit(again) != text:
            stable = False
            break
    items.append(CheckItem("serialization round-trips byte-stably", stable))
    f = s2()
    stable_map = parse(emit(f)) == f and emit(parse(emit(f))) == emit(f)
    items.append(CheckItem("map serialization round-trips byte-stably", stable_map))
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
