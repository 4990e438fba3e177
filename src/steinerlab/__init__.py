"""steinerlab: exact-integer calculator for based augmented directed complexes.

The package models strict higher-categorical shapes through their chain-level
presentations: finitely based augmented directed complexes with unbounded
integer coefficients.  It provides the Gray tensor product, join, antijoin,
suspension, the op/co/coop involutions, the disk/cube/oriental/theta shape
families, basis analysis (atoms, unitality, strong loop-freeness), cell
tables with composition, finite colimits by exact elimination, and verified
chain-level sections and retractions between cubes, orientals, and wedges.

Names resolve on first use (PEP 562): ``import steinerlab`` loads no
submodule, and ``from steinerlab import cube`` loads only what ``cube``
needs.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_PUBLIC = {
    "basic": ("interval", "two_points", "unit", "zero"),
    "cells": (
        "BadLevelError", "CellTable", "InvalidResultError", "NotComposableError",
        "compose_tables", "identity_table", "is_degenerate", "source", "target",
        "validate_table",
    ),
    "colimits": (
        "NonBasedPushoutError", "PushoutResult", "coequalizer",
        "induced_from_coequalizer", "induced_from_pushout", "pushout",
    ),
    "core": (
        "BasedComplex", "Chain", "CheckItem", "CheckReport", "ComplexMap",
        "CompositionError", "DegreeMismatchError", "MalformedError",
        "NameDepthError", "SizeLimitError", "SteinerlabError",
        "basis_renaming_map", "chain_of", "compose", "direct_sum",
        "equal_presentation", "graded_counts", "identity_map",
        "invert_basis_bijection", "validate_complex", "validate_map",
        "verify_mutually_inverse",
    ),
    "io": ("ParseError", "ValidationError", "emit", "parse"),
    "names": ("Name", "name_key", "parse_name", "render_name"),
    "ops": (
        "antijoin", "antisuspension", "antisuspension_pushout", "cube_selfduality",
        "dual_co", "dual_co_map", "dual_coop", "dual_op", "dual_op_map", "ell_map",
        "gray_tensor", "gray_tensor_map", "join", "join_pushout",
        "join_swap_iso_op", "left_p_map", "p_map", "q_susp_map", "susp_coop_iso",
        "suspension", "suspension_map", "suspension_pushout", "swap_iso_co",
        "swap_iso_op",
    ),
    "retract": (
        "RetractionPair", "UnsupportedSpecError", "e_s_kappa", "ell_oriental",
        "h_map", "phi_map", "q2", "q_cube", "rho_map", "s2", "section_ell",
        "section_q_cube", "section_xi", "theta_left_inverse",
        "theta_retract_into_oriental", "xi", "zeta",
    ),
    "shapes": (
        "BadBasepointError", "BadDimsError", "EmptyComplexError", "ThetaSpec",
        "antioriental", "boundary_decomposition_check", "boundary_disk", "cube",
        "disk", "disk_inclusion", "oriental", "oriental_via_join",
        "random_theta_spec", "shape_library", "theta",
        "top_cell_decomposition_check", "truncate_top", "wedge", "wedge_with_legs",
    ),
    "steiner": (
        "PreorderRelation", "atom_table", "is_steiner", "is_strongly_loopfree",
        "pos_neg_parts", "preorder", "unitality_check",
    ),
}
_SUBMODULES = (*_PUBLIC, "acceptance", "cli")
# name -> the submodule it comes from; a submodule's name maps to itself
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
_OWNER.update((module, module) for module in _SUBMODULES)

# ``import *`` gives the public names and the library submodules.
__all__ = [*(name for names in _PUBLIC.values() for name in names), *_PUBLIC]


def __getattr__(name: str):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{owner}")
    if owner == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
