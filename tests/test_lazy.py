"""What each entry point loads, and the package namespace it resolves lazily.

The boundary tests run a fresh interpreter without a bytecode cache, as a
one-shot ``steinerlab`` call does, and read back which ``steinerlab``
modules it loaded.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steinerlab

SRC = Path(__file__).resolve().parent.parent / "src"

# The public namespace of steinerlab 0.1.0 when every name was imported
# eagerly: each name, grouped by the module that defines it.
EXPORTS = {
    "basic": ["interval", "two_points", "unit", "zero"],
    "cells": [
        "BadLevelError", "CellTable", "InvalidResultError", "NotComposableError",
        "compose_tables", "identity_table", "is_degenerate", "source", "target",
        "validate_table",
    ],
    "colimits": [
        "NonBasedPushoutError", "PushoutResult", "coequalizer",
        "induced_from_coequalizer", "induced_from_pushout", "pushout",
    ],
    "core": [
        "BasedComplex", "Chain", "CheckItem", "CheckReport", "ComplexMap",
        "CompositionError", "DegreeMismatchError", "MalformedError",
        "NameDepthError", "SizeLimitError", "SteinerlabError",
        "basis_renaming_map", "chain_of", "compose", "direct_sum",
        "equal_presentation", "graded_counts", "identity_map",
        "invert_basis_bijection", "validate_complex", "validate_map",
        "verify_mutually_inverse",
    ],
    "io": ["ParseError", "ValidationError", "emit", "parse"],
    "names": ["Name", "name_key", "parse_name", "render_name"],
    "ops": [
        "antijoin", "antisuspension", "antisuspension_pushout", "cube_selfduality",
        "dual_co", "dual_co_map", "dual_coop", "dual_op", "dual_op_map", "ell_map",
        "gray_tensor", "gray_tensor_map", "join", "join_pushout",
        "join_swap_iso_op", "left_p_map", "p_map", "q_susp_map", "susp_coop_iso",
        "suspension", "suspension_map", "suspension_pushout", "swap_iso_co",
        "swap_iso_op",
    ],
    "retract": [
        "RetractionPair", "UnsupportedSpecError", "e_s_kappa", "ell_oriental",
        "h_map", "phi_map", "q2", "q_cube", "rho_map", "s2", "section_ell",
        "section_q_cube", "section_xi", "theta_left_inverse",
        "theta_retract_into_oriental", "xi", "zeta",
    ],
    "shapes": [
        "BadBasepointError", "BadDimsError", "EmptyComplexError", "ThetaSpec",
        "antioriental", "boundary_decomposition_check", "boundary_disk", "cube",
        "disk", "disk_inclusion", "oriental", "oriental_via_join",
        "random_theta_spec", "shape_library", "theta",
        "top_cell_decomposition_check", "truncate_top", "wedge", "wedge_with_legs",
    ],
    "steiner": [
        "PreorderRelation", "atom_table", "is_steiner", "is_strongly_loopfree",
        "pos_neg_parts", "preorder", "unitality_check",
    ],
}
# ``from steinerlab import *`` also gave these submodules.
STAR_MODULES = [
    "basic", "cells", "colimits", "core", "io", "names", "ops", "retract",
    "shapes", "steiner",
]
LIBRARY = {f"steinerlab.{m}" for m in STAR_MODULES} | {"steinerlab.acceptance"}


def _loaded(code: str) -> set[str]:
    """The steinerlab modules loaded after ``code`` runs in a fresh
    interpreter that writes no bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'steinerlab' or m.startswith('steinerlab.'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_only_the_package():
    assert _loaded("import steinerlab") == {"steinerlab"}


# What ``gen cube 2`` loads: the CLI, the core, the shapes and the writer.
GEN_MODULES = {
    "steinerlab", "steinerlab.cli", "steinerlab.core", "steinerlab.names",
    "steinerlab.basic", "steinerlab.shapes", "steinerlab.io",
}


def _cli_call(argv: list[str]) -> str:
    return (
        "import contextlib, io\n"
        "from steinerlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0"
    )


def test_gen_cube_loads_only_what_it_uses():
    assert _loaded(_cli_call(["gen", "cube", "2"])) == GEN_MODULES


def test_gen_wedge_loads_no_colimits():
    # A wedge is glued directly, without a pushout.
    argv = ["gen", "wedge", "interval", "1", "interval", "0"]
    assert _loaded(_cli_call(argv)) == GEN_MODULES


def test_gen_theta_loads_no_colimits():
    # A theta is glued by renaming its disks, without a pushout.
    argv = ["gen", "theta", "2,1,2", "--glue", "1,1"]
    assert _loaded(_cli_call(argv)) == GEN_MODULES


# ``ops`` loads ``colimits`` only where a pushout oracle runs.
OPS_MODULES = GEN_MODULES | {"steinerlab.ops"}


def test_op_loads_no_colimits():
    assert _loaded(_cli_call(["op", "susp", "oriental:3"])) == OPS_MODULES


def test_gen_antioriental_loads_no_colimits():
    assert _loaded(_cli_call(["gen", "antioriental", "3"])) == OPS_MODULES


def test_verify_retract_loads_no_colimits():
    loaded = _loaded(_cli_call(["verify-retract", "xi", "3"]))
    assert loaded == OPS_MODULES - {"steinerlab.io"} | {"steinerlab.retract"}


def test_atoms_of_a_shape_reference_loads_no_writer():
    # The atom terms are rendered by the CLI itself.
    loaded = _loaded(_cli_call(["atoms", "cube:2", "--json"]))
    assert "steinerlab.steiner" in loaded and "steinerlab.io" not in loaded


def test_acceptance_loads_every_library_module():
    # The benchmark worker imports acceptance before it patches the modules
    # it finds loaded, so every module with a traced function must be here.
    assert _loaded("import steinerlab.acceptance") == {"steinerlab"} | LIBRARY


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_public_names_resolve_to_their_definitions(module):
    owner = importlib.import_module(f"steinerlab.{module}")
    for name in EXPORTS[module]:
        assert getattr(steinerlab, name) is getattr(owner, name), name
        assert name in dir(steinerlab)


def test_submodules_resolve_as_attributes():
    for module in STAR_MODULES + ["acceptance"]:
        assert getattr(steinerlab, module) is importlib.import_module(
            f"steinerlab.{module}"
        )


def test_star_import_and_version():
    namespace: dict = {}
    exec("from steinerlab import *", namespace)
    public = {name for names in EXPORTS.values() for name in names}
    assert {n for n in namespace if n != "__builtins__"} == public | set(STAR_MODULES)
    assert steinerlab.__version__ == "0.1.0"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        steinerlab.no_such_name
    assert not hasattr(steinerlab, "no_such_name")
    with pytest.raises(ImportError):
        exec("from steinerlab import no_such_name", {})
