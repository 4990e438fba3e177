"""The recursive cube-to-oriental comparison, kept as the oracle for the
closed forms of :func:`steinerlab.retract.xi` and
:func:`steinerlab.retract.section_xi`.

``xi_recursive(n)`` tensors the previous comparison with the interval and
applies the right-cone quotient; ``section_xi_recursive(n)`` lifts the
previous section through :func:`section_p_oriental`, which carries the
section of the left-sided cone quotient across the op dualities.  Nothing
here shares code with the closed forms beyond the shapes themselves.
"""

from __future__ import annotations

from functools import lru_cache

from steinerlab.basic import interval, unit
from steinerlab.core import (
    ComplexMap,
    basis_renaming_map,
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
    swap_iso_op,
)
from steinerlab.retract import _cube_word_name, _shift_subset, e_s_kappa
from steinerlab.shapes import _cube_word, _right_cone_name, cube, oriental


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
