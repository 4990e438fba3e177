"""The recursive cube sections, the composite oriental suspension section
and the pushout wedge and theta, kept as the oracles for the closed forms of
:func:`steinerlab.retract.xi`, :func:`steinerlab.retract.section_xi`,
:func:`steinerlab.retract.section_q_cube`,
:func:`steinerlab.retract.section_ell` and for the direct
:func:`steinerlab.shapes.wedge_with_legs` and :func:`steinerlab.shapes.theta`.

``xi_recursive(n)`` tensors the previous comparison with the interval and
applies the right-cone quotient; ``section_xi_recursive(n)`` lifts the
previous section through :func:`section_p_oriental`, which carries the
section of the left-sided cone quotient across the op dualities.
``section_q_cube_recursive(n)`` lifts the previous section through the
suspension comparison :func:`steinerlab.retract.phi_map`.
``section_ell_composite(n)`` runs through ``cube(n+1)``: the suspended
section of ``xi(n)``, then the section of the cube quotient, then ``xi(n+1)``.
``wedge_pushout`` glues at the marked vertices by a pushout and renames the
result; ``theta_pushout`` glues the disks of a theta spec by one pushout
each.  Nothing here shares code with the closed forms beyond the shapes
themselves, except that ``section_ell_composite`` composes the cube
sections, each checked against its own recursion.
"""

from __future__ import annotations

from functools import lru_cache

from steinerlab.basic import interval, unit
from steinerlab.colimits import pushout
from steinerlab.core import (
    BasedComplex,
    ComplexMap,
    _adopt,
    basis_renaming_map,
    chain_of,
    compose,
    identity_map,
    invert_basis_bijection,
    sole_generator,
)
from steinerlab.names import Name
from steinerlab.ops import (
    cube_selfduality,
    dual_op,
    dual_op_map,
    gray_tensor,
    gray_tensor_map,
    join,
    p_map,
    suspension,
    suspension_map,
    swap_iso_op,
)
from steinerlab.retract import (
    RetractionPair,
    _cube_word_name,
    _shift_subset,
    e_s_kappa,
    ell_oriental,
    phi_map,
    section_q_cube,
    section_xi,
    xi,
)
from steinerlab.shapes import (
    ThetaSpec,
    _cube_word,
    _right_cone_name,
    cube,
    disk,
    disk_inclusion,
    oriental,
)


def split_first_letter(n: int) -> ComplexMap:
    """Rename ``cube(n)`` as ``interval (x) cube(n-1)``."""
    return basis_renaming_map(
        cube(n),
        gray_tensor(interval(), cube(n - 1)),
        lambda g: ("t", (_cube_word(g)[0],), _cube_word_name(_cube_word(g)[1:])),
    )


def split_last_letter(n: int) -> ComplexMap:
    """Rename ``cube(n)`` as ``cube(n-1) (x) interval``."""
    return basis_renaming_map(
        cube(n),
        gray_tensor(cube(n - 1), interval()),
        lambda g: ("t", _cube_word_name(_cube_word(g)[:-1]), (_cube_word(g)[-1],)),
    )


def right_cone_renaming(n: int) -> ComplexMap:
    """Rename ``join(oriental(n-1), unit)`` as ``oriental(n)``: the new
    vertex becomes ``n``."""
    return basis_renaming_map(
        join(oriental(n - 1), unit()), oriental(n), lambda g: _right_cone_name(g, n)
    )


def left_cone_renaming(n: int) -> ComplexMap:
    """Rename ``join(unit, oriental(n-1))`` as ``oriental(n)``: the new
    vertex becomes ``0`` and old vertices shift up."""

    def rename(g: Name) -> Name:
        if g[0] == "jl":
            return ("0",)
        if g[0] == "jr":
            return _shift_subset(g[1], 1)
        return ("0",) + _shift_subset(g[2], 1)

    return basis_renaming_map(join(unit(), oriental(n - 1)), oriental(n), rename)


def oriental_reversal(n: int) -> ComplexMap:
    """Self-duality of the oriental: vertex reversal onto the op dual."""
    return basis_renaming_map(
        oriental(n),
        dual_op(oriental(n)),
        lambda g: tuple(str(n - int(v)) for v in reversed(g)),
    )


def p_oriental(n: int) -> ComplexMap:
    """The quotient ``oriental(n) (x) interval -> oriental(n+1)``."""
    return compose(p_map(oriental(n)), right_cone_renaming(n + 1))


@lru_cache(maxsize=None)
def section_p_oriental(n: int) -> ComplexMap:
    """A section of :func:`p_oriental`, transported across the op dualities
    from the section of the left-sided quotient."""
    if n == 0:
        table = {
            ("0",): ("t", ("0",), ("0",)),
            ("1",): ("t", ("0",), ("1",)),
            ("0", "1"): ("t", ("0",), ("i",)),
        }
        return basis_renaming_map(
            oriental(1), gray_tensor(oriental(0), interval()), lambda g: table[g]
        )
    _, s = e_s_kappa(oriental(n - 1))
    cone_rename = left_cone_renaming(n)
    double_rename = _double_cone_renaming(n + 1)
    to_tensor = gray_tensor_map(identity_map(interval()), cone_rename)
    s_renamed = compose(compose(invert_basis_bijection(double_rename), s), to_tensor)
    swap = invert_basis_bijection(swap_iso_op(oriental(n), interval()))
    unswap = gray_tensor_map(
        invert_basis_bijection(oriental_reversal(n)),
        invert_basis_bijection(cube_selfduality(1, "op")),
    )
    return compose(
        compose(compose(oriental_reversal(n + 1), dual_op_map(s_renamed)), swap),
        unswap,
    )


def _double_cone_renaming(n: int) -> ComplexMap:
    """Rename ``join(unit, join(unit, oriental(n-2)))`` as ``oriental(n)``."""
    inner = left_cone_renaming(n - 1)

    def rename(g: Name) -> Name:
        if g[0] == "jl":
            return ("0",)
        if g[0] == "jr":
            return _shift_subset(sole_generator(inner.of_gen(g[1])), 1)
        return ("0",) + _shift_subset(sole_generator(inner.of_gen(g[2])), 1)

    return basis_renaming_map(
        join(unit(), join(unit(), oriental(n - 2))), oriental(n), rename
    )


@lru_cache(maxsize=None)
def xi_recursive(n: int) -> ComplexMap:
    """The comparison ``cube(n) -> oriental(n)``, inductively the quotient of
    the previous comparison tensored with the interval."""
    if n == 0:
        return basis_renaming_map(cube(0), oriental(0), lambda g: ("0",))
    step = gray_tensor_map(xi_recursive(n - 1), identity_map(interval()))
    return compose(compose(split_last_letter(n), step), p_oriental(n - 1))


@lru_cache(maxsize=None)
def section_xi_recursive(n: int) -> ComplexMap:
    """The section of :func:`xi_recursive`, lifted one interval factor at a
    time through :func:`section_p_oriental`."""
    if n == 0:
        return basis_renaming_map(oriental(0), cube(0), lambda g: ("u",))
    lift = gray_tensor_map(section_xi_recursive(n - 1), identity_map(interval()))
    merge = invert_basis_bijection(split_last_letter(n))
    return compose(compose(section_p_oriental(n - 1), lift), merge)


@lru_cache(maxsize=None)
def section_q_cube_recursive(n: int) -> ComplexMap:
    """The embedding half of :func:`steinerlab.retract.section_q_cube`, by
    recursion through the suspension comparison."""
    if n == 0:
        return basis_renaming_map(
            suspension(unit()),
            cube(1),
            lambda g: {("b0",): ("0",), ("b1",): ("1",), ("s", ("u",)): ("i",)}[g],
        )
    split = suspension_map(split_first_letter(n))
    phi = phi_map(cube(n - 1))
    lift = gray_tensor_map(identity_map(interval()), section_q_cube_recursive(n - 1))
    merge = invert_basis_bijection(split_first_letter(n + 1))
    return compose(compose(compose(split, phi), lift), merge)


@lru_cache(maxsize=None)
def section_ell_composite(n: int) -> RetractionPair:
    """Section of :func:`steinerlab.retract.ell_oriental` composed out of the
    cube sections."""
    lift = suspension_map(section_xi(n).embed)
    embed = compose(compose(lift, section_q_cube(n).embed), xi(n + 1))
    return RetractionPair(embed, ell_oriental(n))


def wedge_pushout(
    a: BasedComplex, marked_a: Name, b: BasedComplex, marked_b: Name
) -> tuple[BasedComplex, ComplexMap, ComplexMap]:
    """The wedge and its legs as the pushout of the two marked vertices,
    renamed ``wl.x`` / ``wr.y`` with the shared basepoint ``w0``."""
    point = unit()
    f = ComplexMap(point, a, {("u",): chain_of(0, marked_a)})
    g = ComplexMap(point, b, {("u",): chain_of(0, marked_b)})
    result = pushout(f, g)
    quotient = result.require_based()
    table: dict[Name, Name] = {sole_generator(result.leg_a.of_gen(marked_a)): ("w0",)}
    for _, x in a.all_generators():
        if x != marked_a:
            table[("l", x)] = ("wl", x)
    for _, y in b.all_generators():
        if y != marked_b:
            table[("r", y)] = ("wr", y)
    renamed = quotient.renamed(lambda g_: table[g_])

    def relabeled(leg: ComplexMap) -> ComplexMap:
        return ComplexMap(
            leg.source,
            renamed,
            {
                x: _adopt(deg, {table[h]: c for h, c in leg.of_gen(x)._coeffs.items()})
                for deg, x in leg.source.all_generators()
            },
        )

    return renamed, relabeled(result.leg_a), relabeled(result.leg_b)


def theta_pushout(spec: ThetaSpec) -> BasedComplex:
    """Iterated pushout of disks along disk inclusions; always based."""
    current = disk(spec.dims[0])
    incl_last = identity_map(current)
    for pos, j in enumerate(spec.glue):
        side_left, side_right = spec.sides[pos]
        left = compose(disk_inclusion(j, spec.dims[pos], side_left), incl_last)
        right = disk_inclusion(j, spec.dims[pos + 1], side_right)
        result = pushout(left, right)
        current = result.require_based()
        assert result.leg_b is not None
        incl_last = result.leg_b
    return current
