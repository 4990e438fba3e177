"""The decomposition checks as they were before renamings kept their name
tables, kept as the oracles for
:func:`steinerlab.shapes.boundary_decomposition_check` and
:func:`steinerlab.shapes.top_cell_decomposition_check`.

Every renaming here is a checked :class:`ComplexMap` of one-term chains
with no name table, so the colimits take their generic paths: the
coequalizer subtracts the two images of each generator, and the induced
map is a checked map.  The cocone is compared through
``ComplexMap.__call__``, the induced bijection is decoded with
``sole_generator``, and ``EQUALS_*`` compares the colimit, renamed into one
``_glued`` complex, with the expected shape.  The boundary is truncated by
plain bases, sorted again by ``BasedComplex``.
"""

from __future__ import annotations

from typing import Callable

from steinerlab.colimits import (
    coequalizer,
    induced_from_coequalizer,
    induced_from_pushout,
    pushout,
)
from steinerlab.core import (
    BasedComplex,
    CheckItem,
    CheckReport,
    ComplexMap,
    MalformedError,
    _first_failure,
    _glued,
    _summary,
    chain_of,
    report,
    sole_generator,
    validate_complex,
    validate_map,
)
from steinerlab.names import Name, render_name
from steinerlab.shapes import (
    _decomposition_data,
    _family,
    boundary_disk,
    disk,
    disk_side_gen,
    disk_top_gen,
)
from steinerlab.steiner import atom_table

Renaming = Callable[[BasedComplex, BasedComplex, Callable[[Name], Name]], ComplexMap]


def chain_renaming(
    source: BasedComplex, target: BasedComplex, rename: Callable[[Name], Name]
) -> ComplexMap:
    """Each source generator sent to the one-term chain of its new name,
    checked term by term by ``ComplexMap``."""
    return ComplexMap(
        source, target, {g: chain_of(deg, rename(g)) for deg, g in source.all_generators()}
    )


def truncate_top(c: BasedComplex) -> BasedComplex:
    top = c.top_degree
    degrees = {deg: list(gens) for deg, gens in c.degrees.items() if deg != top}
    diff = {g: ch for g, ch in c.diff.items() if c.degree_of(g) != top}
    return BasedComplex(degrees, diff, c.aug if top else {})


def induced_iso_items(
    prefix: str, induced: ComplexMap, label: str, expected: BasedComplex
) -> list[CheckItem]:
    """INDUCED_ISO by decoding every image, then EQUALS_<label> on the
    ``_glued`` renaming of the colimit."""
    table = None
    try:
        decoded = {g: sole_generator(chain) for g, chain in induced.assignment.items()}
        size = induced.target.size
        if len(set(decoded.values())) == size and len(decoded) == size:
            table = decoded
    except MalformedError:
        pass
    items = [CheckItem(f"{prefix}:INDUCED_ISO", table is not None, None)]
    if table is not None:
        renamed = _glued([(induced.source, table)])
        items.append(CheckItem(f"{prefix}:EQUALS_{label}", renamed == expected, None))
    return items


def boundary_report(family: str, n: int, renaming: Renaming = chain_renaming) -> CheckReport:
    shape, face_cop, double_cop, coface = _decomposition_data(family, n)

    def leg(into_first: bool) -> ComplexMap:
        def rename(gen: Name) -> Name:
            f, h = gen[0][1::2], gen[0][2::2]
            if into_first:
                return (("f",) + f, coface(int(h[0]) - 1, h[1:], gen[1]))
            return (("f",) + h, coface(int(f[0]), f[1:], gen[1]))

        return renaming(double_cop, face_cop, rename)

    r, s = leg(True), leg(False)
    result = coequalizer(r, s)
    items = [CheckItem(f"{family}:{n}:COLIMIT_BASED", result.based, result.reason)]
    if not result.based:
        return report(*items)
    boundary = truncate_top(shape)
    cocone = renaming(
        face_cop, boundary, lambda gen: coface(int(gen[0][1]), gen[0][2:], gen[1])
    )
    coequalizes = _first_failure(
        f"{family}:{n}:COCONE_COEQUALIZES",
        (
            render_name(e)
            for _, e in double_cop.all_generators()
            if cocone(r.of_gen(e)) != cocone(s.of_gen(e))
        ),
    )
    if not coequalizes.passed:
        items.append(coequalizes)
        return report(*items)
    induced = induced_from_coequalizer(result, cocone)
    items += induced_iso_items(f"{family}:{n}", induced, "TRUNCATION", boundary)
    items.append(
        _summary(f"{family}:{n}:COLIMIT_VALID", validate_complex(result.require_based()))
    )
    return report(*items)


def top_cell_report(family: str, n: int, renaming: Renaming = chain_renaming) -> CheckReport:
    shape = _family(family)[0](n)
    tops = shape.generators(n)
    items = [CheckItem(f"{family}:{n}:UNIQUE_TOP_CELL", len(tops) == 1, str(len(tops)))]
    if len(tops) != 1:
        return report(*items)
    top = tops[0]
    boundary = truncate_top(shape)
    table = atom_table(shape, top)
    bd = boundary_disk(n)
    attach_assignment = {}
    for k in range(n):
        attach_assignment[disk_side_gen(k, "source")] = table.minus[k]
        attach_assignment[disk_side_gen(k, "target")] = table.plus[k]
    attach = ComplexMap(bd, boundary, attach_assignment)
    include = renaming(bd, disk(n), lambda g: g)
    items.append(_summary(f"{family}:{n}:ATTACH_VALID", validate_map(attach)))
    result = pushout(include, attach)
    items.append(CheckItem(f"{family}:{n}:COLIMIT_BASED", result.based, result.reason))
    if not result.based:
        return report(*items)
    u = renaming(boundary, shape, lambda g: g)
    v_assignment = dict(attach_assignment)
    v_assignment[disk_top_gen(n)] = chain_of(n, top)
    v = ComplexMap(disk(n), shape, v_assignment)
    induced = induced_from_pushout(result, v, u)
    items += induced_iso_items(f"{family}:{n}", induced, "SHAPE", shape)
    return report(*items)
