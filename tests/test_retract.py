import random

import pytest

from steinerlab import (
    BadDimsError,
    Chain,
    RetractionPair,
    ThetaSpec,
    UnsupportedSpecError,
    antioriental,
    boundary_disk,
    chain_of,
    compose,
    cube,
    disk,
    e_s_kappa,
    ell_map,
    gray_tensor,
    h_map,
    identity_map,
    interval,
    invert_basis_bijection,
    join,
    left_p_map,
    oriental,
    phi_map,
    q2,
    q_susp_map,
    rho_map,
    s2,
    section_ell,
    section_q_cube,
    section_xi,
    suspension,
    theta_left_inverse,
    theta_retract_into_oriental,
    unit,
    validate_map,
    xi,
    zeta,
)
from steinerlab import retract, shapes
from steinerlab.core import SizeLimitError
from steinerlab.retract import ell_oriental, q_cube

from retract_oracle import (
    right_cone_renaming,
    section_ell_composite,
    section_q_cube_recursive,
    section_xi_recursive,
    split_last_letter,
    xi_recursive,
)


def test_q2_s2_are_the_worked_maps():
    assert validate_map(q2()).passed and validate_map(s2()).passed
    assert compose(s2(), q2()) == identity_map(oriental(2))
    assert q2().of_gen(("i1",)).is_zero()
    assert q2().of_gen(("01",)) == chain_of(0, ("2",))
    assert q2().of_gen(("11",)) == chain_of(0, ("2",))
    assert s2().of_gen(("0", "2")) == Chain(1, {("0i",): 1, ("i1",): 1})
    assert s2().of_gen(("0", "1", "2")) == chain_of(2, ("ii",))


def test_h_map_idempotent():
    for x in (unit(), oriental(1)):
        h = h_map(x)
        assert validate_map(h).passed
        assert compose(h, h) == h
    assert h_map(unit()).source == gray_tensor(cube(2), unit())


def test_h_map_of_unit_is_the_square_idempotent():
    from steinerlab import basis_renaming_map, invert_basis_bijection

    unwrap = basis_renaming_map(
        gray_tensor(cube(2), unit()), cube(2), lambda g: g[1]
    )
    conjugated = compose(compose(invert_basis_bijection(unwrap), h_map(unit())), unwrap)
    assert conjugated == compose(q2(), s2())


def test_rho_phi_section_and_chain_rule_on_random_chains():
    rng = random.Random(11)
    for a in (unit(), interval(), oriental(2)):
        phi, rho = phi_map(a), rho_map(a)
        assert compose(phi, rho) == identity_map(phi.source)
        src = phi.source
        trg = phi.target
        for degree in (1, 2):
            gens = src.generators(degree)
            if not gens:
                continue
            for _ in range(200):
                picks = {g: rng.randint(0, 3) for g in gens}
                z = Chain(degree, picks)
                if z.is_zero():
                    continue
                assert trg.d(phi(z)) == phi(src.d(z))


def test_e_s_kappa_identities():
    for a in (unit(), oriental(1), oriental(2)):
        e, s = e_s_kappa(a)
        cone = join(unit(), a)
        quotient = left_p_map(cone)
        assert validate_map(e).passed and validate_map(s).passed
        assert compose(s, quotient) == identity_map(s.source)
        assert compose(e, e) == e
        assert compose(e, quotient) == quotient
        # the 0 end collapses by augmentation onto the apex: a base chain V
        # plus k times the apex lands on (eps(V) + k) times the 0-apex
        apex = ("jl", ("u",))
        for _, y in a.all_generators():
            if a.degree_of(y) != 0:
                continue
            v = Chain(0, {("t", ("0",), ("jr", y)): 1, ("t", ("0",), apex): 2})
            image = e(v)
            assert image == Chain(0, {("t", ("0",), apex): a.aug[y] + 2})


def test_q_cube_and_sections():
    for n in range(4):
        pair = section_q_cube(n)
        assert pair.retract == q_cube(n)
        assert pair.verify().passed


def test_section_q_cube_matches_the_recursive_oracle():
    for n in range(8):
        assert section_q_cube(n).embed == section_q_cube_recursive(n)
    with pytest.raises(BadDimsError, match="^cube dimension must be >= 0, got -1$"):
        section_q_cube(-1)


def test_cube_and_oriental_quotients_match_their_suspension_oracles():
    for n in range(4):
        assert q_cube(n) == compose(split_last_letter(n + 1), q_susp_map(cube(n)))
        assert ell_oriental(n) == compose(
            invert_basis_bijection(right_cone_renaming(n + 1)), ell_map(oriental(n))
        )


def test_xi_and_sections():
    for n in range(5):
        assert validate_map(xi(n)).passed
        assert section_xi(n).verify().passed
    assert xi(2) == q2()
    assert section_xi(2).embed == s2()


def test_xi_and_section_match_the_recursive_oracle():
    for n in range(8):
        assert xi(n) == xi_recursive(n)
        assert section_xi(n).embed == section_xi_recursive(n)


def test_xi_fixes_top_cells():
    for n in range(1, 7):
        top = ("i" * n,)
        image = xi(n).of_gen(top)
        assert image == chain_of(n, tuple(str(v) for v in range(n + 1)))


def test_sections_memoize():
    """section_ell keeps one pair per dimension; the cube comparison and its
    section are rebuilt, over the memoized cube and oriental."""
    assert section_ell(3) is section_ell(3)
    assert section_xi(3) == section_xi(3)
    assert section_xi(3).embed.target is cube(3)


@pytest.mark.parametrize(
    "build, n",
    [
        (cube, 6),
        (oriental, 7),
        (antioriental, 7),
        (disk, 60),
        (boundary_disk, 60),
        (section_ell, 5),
    ],
)
def test_memoized_builders_refuse_a_lowered_limit(build, n, monkeypatch):
    """A memo hit is refused like a first build once the limit is lowered."""
    build(n)
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "100")
    with pytest.raises(SizeLimitError) as err:
        build(n)
    assert err.value.code == "SIZE_LIMIT"


def test_section_ell():
    for n in range(4):
        pair = section_ell(n)
        assert pair.retract == ell_oriental(n)
        assert pair.verify().passed
    # the 0 case is the identity up to renaming: single-generator images
    for _, g in section_ell(0).embed.source.all_generators():
        items = section_ell(0).embed.of_gen(g).items()
        assert len(items) == 1 and items[0][1] == 1


def test_section_ell_matches_the_composite_oracle():
    for n in range(9):
        assert section_ell(n) == section_ell_composite(n)


def test_oriental_retractions_build_no_cube(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a cube")

    for module, name in ((shapes, "cube"), (retract, "cube"), (retract, "xi")):
        monkeypatch.setattr(module, name, refuse)
    section_ell.cache_clear()
    assert section_ell(6).verify().passed
    spec = ThetaSpec((2, 1, 2), (1, 1), (("target", "source"),) * 2)
    assert theta_retract_into_oriental(spec).verify().passed


def test_theta_retract_refuses_its_target_before_folding(monkeypatch):
    def refuse(*args):
        raise AssertionError("folded")

    monkeypatch.setattr(retract, "_theta_retract", refuse)
    spec = ThetaSpec((6, 5, 7), (1, 1), (("target", "source"),) * 2)
    with pytest.raises(SizeLimitError, match="^complex with 131071 generators "):
        theta_retract_into_oriental(spec)


def test_theta_left_inverse_refuses_its_source_first(monkeypatch):
    def refuse(*args):
        raise AssertionError("built the wedge")

    monkeypatch.setattr(retract, "_oriental_wedge", refuse)
    with pytest.raises(SizeLimitError, match="^complex with 262143 generators "):
        theta_left_inverse(10, 7)


def test_zeta_theta_pairs():
    for n, m in [(0, 0), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]:
        z, t = zeta(n, m), theta_left_inverse(n, m)
        assert validate_map(z).passed and validate_map(t).passed
        assert compose(z, t) == identity_map(z.source)
    # zeta with a trivial side is an isomorphism
    z, t = zeta(2, 0), theta_left_inverse(2, 0)
    assert compose(z, t) == identity_map(z.source)
    assert compose(t, z) == identity_map(t.source)


def test_theta_kills_two_cell_of_triangle():
    t = theta_left_inverse(1, 1)
    assert t.of_gen(("0", "1", "2")).is_zero()
    long_edge = t.of_gen(("0", "2"))
    assert len(long_edge.items()) == 2


def test_theta_retract_examples():
    pair = theta_retract_into_oriental(ThetaSpec((0,)))
    assert pair.verify().passed
    assert pair.retract.source == oriental(0)

    # two suspensions of the point, each lifted through one suspension
    # section: the 2-disk embeds into the triangle
    pair = theta_retract_into_oriental(ThetaSpec((2,)))
    assert pair.verify().passed
    assert pair.embed.source == suspension(suspension(unit()))
    assert pair.retract.source == oriental(2)

    pair = theta_retract_into_oriental(
        ThetaSpec((1, 1), (0,), (("target", "source"),))
    )
    assert pair.verify().passed
    assert pair.retract.source == oriental(2)


@pytest.mark.parametrize(
    "dims, glue",
    [
        ((2, 2, 2), (0, 1)),
        ((3, 2, 3), (1, 0)),
        ((2, 3, 3, 2), (1, 2, 0)),
        ((1, 2, 2, 1), (0, 1, 0)),
        ((3, 3, 3, 3), (0, 2, 1)),
    ],
)
def test_theta_retract_of_nested_blocks(dims, glue):
    """A disk glued above the lowest glue level joins the block before it."""
    spec = ThetaSpec(dims, glue, (("target", "source"),) * len(glue))
    pair = theta_retract_into_oriental(spec)
    assert pair.verify().passed
    assert pair.retract.source == oriental(sum(dims) - sum(glue))


def test_theta_retract_rejects_non_pasting():
    spec = ThetaSpec((1, 1), (0,), (("source", "source"),))
    with pytest.raises(UnsupportedSpecError):
        theta_retract_into_oriental(spec)


def test_retraction_pair_reports_failures():
    assert RetractionPair(s2(), q2()).verify().passed
    # the other way round the square does not come back: q2 kills an edge
    backwards = RetractionPair(q2(), s2()).verify()
    assert [(item.name, item.witness) for item in backwards.failures()] == [
        ("COMPOSITE_IDENTITY", "01")
    ]
    assert [item.name for item in backwards.checks if item.passed] == [
        "EMBED_VALID",
        "RETRACT_VALID",
        "SPLITTING_IDEMPOTENT",
    ]


def test_verify_names_where_a_composite_is_not_the_identity():
    """Swapping the ends of the interval neither undoes the identity nor is
    idempotent: both composites first differ at the vertex 0."""
    from steinerlab import ComplexMap

    i = interval()
    swap = ComplexMap(
        i, i, {("0",): chain_of(0, ("1",)), ("1",): chain_of(0, ("0",)), ("i",): chain_of(1, ("i",))}
    )
    checks = RetractionPair(identity_map(i), swap).verify().checks
    assert [(c.name, c.passed, c.witness) for c in checks] == [
        ("EMBED_VALID", True, None),
        ("RETRACT_VALID", False, "CHAIN_RULE at i"),
        ("COMPOSITE_IDENTITY", False, "0"),
        ("SPLITTING_IDEMPOTENT", False, "0"),
    ]


def test_verify_refuses_a_retract_into_another_complex():
    """A retract into a complex with the embed's names but another
    augmentation sends each generator to its namesake, yet is no identity."""
    from steinerlab import BasedComplex, ComplexMap, CompositionError

    i = interval()
    doubled = BasedComplex(dict(i.degrees), dict(i.diff), {("0",): 2, ("1",): 2})
    namesake = ComplexMap(i, doubled, {g: chain_of(d, g) for d, g in i.all_generators()})
    with pytest.raises(CompositionError):
        RetractionPair(identity_map(i), namesake).verify()


def test_verify_refuses_a_retract_out_of_another_complex():
    """A retract out of a complex with the embed's target's names but another
    augmentation is refused too, although its images are the namesakes."""
    from steinerlab import BasedComplex, ComplexMap, CompositionError

    i = interval()
    doubled = BasedComplex(dict(i.degrees), dict(i.diff), {("0",): 2, ("1",): 2})
    namesake = ComplexMap(doubled, i, {g: chain_of(d, g) for d, g in i.all_generators()})
    with pytest.raises(CompositionError, match="^target of first map differs"):
        RetractionPair(identity_map(i), namesake).verify()


def test_verify_names_a_retract_that_is_not_positive():
    """On the square, ``0i ↦ i0 + 1i − i1`` and ``ii ↦ 0`` keep the chain
    rule (both have boundary ``01 − 00``, and ``d(ii)`` goes to zero) and
    the augmentation, and the map is idempotent; but ``0i`` gets a negative
    coefficient, and it is the first edge not fixed."""
    from steinerlab import ComplexMap

    square = cube(2)
    images = {g: chain_of(d, g) for d, g in square.all_generators()}
    images[("0i",)] = Chain(1, {("i0",): 1, ("1i",): 1, ("i1",): -1})
    images[("ii",)] = Chain(2)
    checks = RetractionPair(identity_map(square), ComplexMap(square, square, images)).verify()
    assert [(c.name, c.passed, c.witness) for c in checks.checks] == [
        ("EMBED_VALID", True, None),
        ("RETRACT_VALID", False, "POSITIVITY at 0i"),
        ("COMPOSITE_IDENTITY", False, "0i"),
        ("SPLITTING_IDEMPOTENT", True, None),
    ]


def test_verify_names_where_the_idempotent_is_not():
    """Swapping the last two of three points is a valid map, but its square is
    the identity: neither the composite nor the idempotent holds at ``b``, the
    first point moved."""
    from steinerlab import BasedComplex, ComplexMap

    a, b, c = ("a",), ("b",), ("c",)
    points = BasedComplex({0: [a, b, c]}, {}, {a: 1, b: 1, c: 1})
    swap = ComplexMap(points, points, {a: chain_of(0, a), b: chain_of(0, c), c: chain_of(0, b)})
    checks = RetractionPair(identity_map(points), swap).verify().checks
    assert [(c.name, c.passed, c.witness) for c in checks] == [
        ("EMBED_VALID", True, None),
        ("RETRACT_VALID", True, None),
        ("COMPOSITE_IDENTITY", False, "b"),
        ("SPLITTING_IDEMPOTENT", False, "b"),
    ]


@pytest.mark.parametrize("build", [xi, section_xi, section_ell, section_q_cube])
def test_negative_dimensions_are_refused(build):
    with pytest.raises(BadDimsError):
        build(-1)
    with pytest.raises(BadDimsError):
        build(-5)


def test_theta_retract_refuses_negative_disks():
    with pytest.raises(BadDimsError):
        theta_retract_into_oriental(ThetaSpec((-1,)))


def test_verify_names_where_an_invalid_map_fails():
    """``EMBED_VALID`` and ``RETRACT_VALID`` fail at the first failing check
    of their map, with its witness."""
    from steinerlab import ComplexMap

    i = interval()
    collapse = ComplexMap(
        i, i, {("0",): chain_of(0, ("0",)), ("1",): chain_of(0, ("1",)), ("i",): Chain(1)}
    )
    for embed, retract, verdicts in (
        (collapse, identity_map(i), [(False, "CHAIN_RULE at i"), (True, None)]),
        (identity_map(i), collapse, [(True, None), (False, "CHAIN_RULE at i")]),
    ):
        checks = RetractionPair(embed, retract).verify().checks
        assert [(c.name, c.passed, c.witness) for c in checks[:2]] == [
            ("EMBED_VALID", *verdicts[0]),
            ("RETRACT_VALID", *verdicts[1]),
        ]
