"""The map checks as they were first written, on :class:`Chain` values and
composite maps, kept as the oracles for :func:`steinerlab.core.validate_map`,
:func:`steinerlab.core.verify_mutually_inverse` and
:meth:`steinerlab.retract.RetractionPair.verify`, which sum coefficient
dicts instead.

``validate_map`` applies the map to each differential and the target's
differential to each image, two chains per generator; the identity checks
build each composite with :func:`steinerlab.core.compose` and compare every
image with the one expected, one more chain per generator.  Nothing here
shares code with the checks it tests beyond :func:`compose`, the chain
arithmetic and the item builders ``_first_failure`` and ``_summary``.
"""

from __future__ import annotations

from typing import Callable

from steinerlab.core import (
    Chain,
    CheckItem,
    CheckReport,
    ComplexMap,
    CompositionError,
    _first_failure,
    _summary,
    chain_of,
    compose,
    report,
)
from steinerlab.names import Name, render_name


def first_difference(
    name: str, f: ComplexMap, image: Callable[[int, Name], Chain]
) -> CheckItem:
    """The item ``name`` comparing ``f`` with the map that sends each source
    generator ``x`` of degree ``d`` to ``image(d, x)``: it fails at the first
    generator in basis order whose two images differ, or passes."""
    differing = (
        x for d, x in f.source.all_generators() if f.of_gen(x) != image(d, x)
    )
    return _first_failure(name, map(render_name, differing))


def validate_map(f: ComplexMap) -> CheckReport:
    """The chain rule, augmentation preservation, and positivity."""
    source, target, image = f.source, f.target, f.of_gen
    unchained = (
        g
        for degree, g in source.all_generators()
        if degree and f(source.diff[g]) != target.d(image(g))
    )
    moved = (g for g in source.generators(0) if target.eps(image(g)) != source.aug[g])
    negative = (g for _, g in source.all_generators() if not image(g).is_nonnegative())
    return report(
        _first_failure("CHAIN_RULE", map(render_name, unchained)),
        _first_failure("AUG_PRESERVED", map(render_name, moved)),
        _first_failure("POSITIVITY", map(render_name, negative)),
    )


def verify_mutually_inverse(f: ComplexMap, g: ComplexMap) -> CheckReport:
    """Pass iff ``compose(f, g)`` and ``compose(g, f)`` are both identities."""
    if f.source != g.target or f.target != g.source:
        raise CompositionError("maps are not a candidate inverse pair")
    return report(
        first_difference("LEFT_THEN_RIGHT_IS_ID", compose(f, g), chain_of),
        first_difference("RIGHT_THEN_LEFT_IS_ID", compose(g, f), chain_of),
    )


def verify(embed: ComplexMap, retract: ComplexMap) -> CheckReport:
    """The report of ``RetractionPair(embed, retract).verify()``."""
    idem = compose(retract, embed)
    return report(
        _summary("EMBED_VALID", validate_map(embed)),
        _summary("RETRACT_VALID", validate_map(retract)),
        first_difference("COMPOSITE_IDENTITY", compose(embed, retract), chain_of),
        first_difference(
            "SPLITTING_IDEMPOTENT", compose(idem, idem), lambda _, x: idem.of_gen(x)
        ),
    )
