"""Command-line interface.

Subcommands: ``gen`` (emit a shape), ``op`` (apply an operation), ``info``,
``atoms``, ``check`` (named verification suites), ``verify-retract``, and
``suite`` (the full acceptance battery).  Exit codes: 0 pass, 1 verified
failure, 2 usage or input error.  Stdout is deterministic; timing and
diagnostics go to stderr.  ``--json`` switches reports to JSON; text output
writes each line through ``_write_line``, which escapes its non-printable
characters, so a name holding a line break stays on its line.  Integer
arguments are read as document degrees are (``core._short_int``), a
subcommand given the wrong number of arguments is refused by ``_takes`` with
its usage line, and every error message shows an argument as ``names.shown``
does, cut to 40 characters.

``names`` loads with this module; each handler imports the other library
modules it uses, so one call loads only those: ``gen cube 2`` adds ``core``,
``basic``, ``shapes`` and ``io``; ``atoms`` on a shape reference loads no
``io``; and only ``suite`` and ``check identities`` load ``acceptance``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .names import Name, _escaped, parse_name, render_name, shown

if TYPE_CHECKING:
    from .core import BasedComplex, CheckReport
    from .shapes import ThetaSpec


class UsageError(Exception):
    pass


def _takes(params: Sequence[str], count: int, usage: str) -> Sequence[str]:
    """``params`` when there are ``count`` of them; else ``UsageError(usage)``."""
    if len(params) != count:
        raise UsageError(usage)
    return params


def _shape_builders() -> dict:
    """The one-dimension shape families, by CLI name.  Built per call so that
    the current module attributes are looked up."""
    from .shapes import antioriental, boundary_disk, cube, disk, oriental

    return {
        "disk": disk,
        "boundary-disk": boundary_disk,
        "cube": cube,
        "oriental": oriental,
        "antioriental": antioriental,
    }


def _parse_shape_ref(text: str) -> Optional[BasedComplex]:
    if text in ("unit", "zero", "interval"):
        from . import basic

        return getattr(basic, text)()
    if ":" in text:
        kind, _, arg = text.partition(":")
        builders = _shape_builders()
        if kind in builders:
            from .core import _short_int

            try:
                n = _short_int(arg)
            except ValueError:
                raise UsageError(f"bad shape parameter in {shown(text)}") from None
            return builders[kind](n)
    return None


def _load_complex(ref: str) -> BasedComplex:
    shape = _parse_shape_ref(ref)
    if shape is not None:
        return shape
    if ref == "-":
        text = sys.stdin.read()
    else:
        path = Path(ref)
        if not path.exists():
            raise UsageError(f"no such file or shape reference: {shown(ref)}")
        text = path.read_text()
    from .core import BasedComplex
    from .io import parse

    value = parse(text)
    if not isinstance(value, BasedComplex):
        raise UsageError(f"{shown(ref)} does not contain a complex document")
    return value


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_line(line: str) -> None:
    """Write one line of text output, its non-printable characters escaped
    as ``names._escaped`` escapes them, so a name holding a line break stays
    on its line; printable text is written as it is."""
    sys.stdout.write(_escaped(line) + "\n")


def _name_arg(text: str) -> Name:
    """A generator name given on the command line; bad text is a usage error,
    and an over-deep name keeps its ``NAME_DEPTH`` code."""
    from .core import NameDepthError

    try:
        return parse_name(text)
    except NameDepthError:
        raise
    except ValueError as exc:
        raise UsageError(f"bad generator name {shown(text)}: {exc}") from None


def _ints(values: Sequence[str], what: str) -> list[int]:
    from .core import _short_int

    ints = []
    for text in values:
        try:
            ints.append(_short_int(text))
        except ValueError:
            raise UsageError(f"{what} must be integers, got {shown(text)}") from None
    return ints


def _parse_csv_ints(text: str, what: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(_ints(text.split(","), what))


_SIDE_CODES = {"ts": ("target", "source"), "st": ("source", "target"),
               "ss": ("source", "source"), "tt": ("target", "target")}


def _parse_sides(text: str) -> tuple[tuple[str, str], ...]:
    tokens = text.split(",") if text else []
    for token in tokens:
        if token not in _SIDE_CODES:
            raise UsageError(f"bad side code {shown(token)}; use ts, st, ss, or tt")
    return tuple(_SIDE_CODES[token] for token in tokens)


def _theta_spec(dims_text: str, args) -> ThetaSpec:
    """A theta spec from a dims list and the ``--glue``/``--sides`` options;
    sides default to target-into-left, source-into-right."""
    from .shapes import ThetaSpec

    dims = _parse_csv_ints(dims_text, "dims")
    glue = _parse_csv_ints(args.glue, "glue")
    if args.sides:
        sides = _parse_sides(args.sides)
    else:
        sides = tuple(("target", "source") for _ in glue)
    return ThetaSpec(dims, glue, sides)


def _report_payload(report: CheckReport) -> dict:
    return {
        "passed": report.passed,
        "checks": [
            {"name": item.name, "passed": item.passed, "witness": item.witness}
            for item in report.checks
        ],
    }


def _print_report(report: CheckReport, as_json: bool) -> int:
    if as_json:
        sys.stdout.write(json.dumps(_report_payload(report), indent=2) + "\n")
    else:
        for line in report.lines():
            _write_line(line)
        _write_line("PASSED" if report.passed else "FAILED")
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    from .io import emit
    from .shapes import theta, wedge

    kind = args.shape
    builders = _shape_builders()
    if kind in builders:
        params = _takes(args.params, 1, f"gen {kind} takes one dimension parameter")
        (n,) = _ints(params, "dimension")
        value = builders[kind](n)
    elif kind == "theta":
        (dims,) = _takes(args.params, 1, "gen theta takes a comma-separated dims list")
        value = theta(_theta_spec(dims, args))
    elif kind == "wedge":
        ref_a, gen_a, ref_b, gen_b = _takes(
            args.params, 4, "gen wedge takes: complex_a gen_a complex_b gen_b"
        )
        a, b = _load_complex(ref_a), _load_complex(ref_b)
        value = wedge(a, _name_arg(gen_a), b, _name_arg(gen_b))
    else:
        raise UsageError(f"unknown shape {shown(kind)}")
    _write_output(emit(value), args.out)
    return 0


def _cmd_op(args) -> int:
    from . import ops
    from .io import emit

    op = args.operation
    binary = {"tensor": ops.gray_tensor, "join": ops.join, "antijoin": ops.antijoin}
    unary = {
        "susp": ops.suspension,
        "antisusp": ops.antisuspension,
        "op": ops.dual_op,
        "co": ops.dual_co,
        "coop": ops.dual_coop,
    }
    if op in binary:
        a, b = _takes(args.inputs, 2, f"op {op} takes two inputs")
        value = binary[op](_load_complex(a), _load_complex(b))
    elif op in unary:
        (a,) = _takes(args.inputs, 1, f"op {op} takes one input")
        value = unary[op](_load_complex(a))
    else:
        raise UsageError(f"unknown operation {shown(op)}")
    _write_output(emit(value), args.out)
    return 0


def _cmd_info(args) -> int:
    from .core import graded_counts, validate_complex

    c = _load_complex(args.input)
    counts = graded_counts(c)
    check = validate_complex(c)
    if args.json:
        payload = {
            "graded_counts": {str(k): v for k, v in counts.items()},
            "total_generators": c.size,
            "top_degree": max(counts) if counts else None,
            "validation": _report_payload(check),
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        _write_line(f"graded counts: {counts}")
        _write_line(f"total generators: {c.size}")
        _write_line(f"top degree: {max(counts) if counts else 'empty'}")
        _write_line("validation: " + ("passed" if check.passed else "FAILED"))
        for line in check.lines():
            _write_line("  " + line)
    return 0 if check.passed else 1


def _cmd_atoms(args) -> int:
    from .core import _int_to_text
    from .steiner import atom_table

    c = _load_complex(args.input)
    if args.gen:
        name = _name_arg(args.gen)
        gens = [(c.degree_of(name), name)]
    else:
        gens = list(c.all_generators())
    payload = []
    for _, g in gens:
        table = atom_table(c, g)
        entry = {"generator": render_name(g), "dim": table.dim}
        for side, chains in (("minus", table.minus), ("plus", table.plus)):
            entry[side] = [
                [{"generator": render_name(h), "coeff": _int_to_text(k)}
                 for h, k in chain.items()]
                for chain in chains
            ]
        payload.append(entry)
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for entry in payload:
            _write_line(f"atom {entry['generator']} (dim {entry['dim']})")
            for side in ("minus", "plus"):
                for level, terms in enumerate(entry[side]):
                    rendered = " + ".join(
                        (f"{t['coeff']}*" if t["coeff"] != "1" else "")
                        + t["generator"]
                        for t in terms
                    )
                    _write_line(f"  {side}[{level}] = {rendered if rendered else '0'}")
    return 0


def _cmd_check(args) -> int:
    which = args.suite
    if which == "steiner":
        from .steiner import is_steiner

        (ref,) = _takes(args.params, 1, "check steiner takes one complex input")
        report = is_steiner(_load_complex(ref))
    elif which in ("boundary-decomp", "top-cell"):
        usage = f"check {which} takes: <cube|oriental> <n>"
        family, n_text = _takes(args.params, 2, usage)
        if family not in ("cube", "oriental"):
            raise UsageError(usage)
        from .shapes import boundary_decomposition_check, top_cell_decomposition_check

        (n,) = _ints([n_text], "dimension")
        fn = (
            boundary_decomposition_check
            if which == "boundary-decomp"
            else top_cell_decomposition_check
        )
        report = fn(family, n)
    elif which == "identities":
        _takes(args.params, 0, "check identities takes no inputs")
        from . import acceptance

        report = acceptance.criterion_dualities()
    else:
        raise UsageError(f"unknown suite {shown(which)}")
    return _print_report(report, args.json)


def _cmd_verify_retract(args) -> int:
    from . import retract

    kind = args.kind
    sections = {"xi": retract.section_xi, "q-cube": retract.section_q_cube,
                "ell": retract.section_ell}
    if kind in sections:
        params = _takes(args.params, 1, f"verify-retract {kind} takes one dimension")
        (n,) = _ints(params, "dimension")
        pair = sections[kind](n)
    elif kind == "zeta":
        params = _takes(args.params, 2, "verify-retract zeta takes two dimensions")
        n, m = _ints(params, "dimensions")
        pair = retract.RetractionPair(retract.zeta(n, m), retract.theta_left_inverse(n, m))
    elif kind == "theta":
        (dims,) = _takes(args.params, 1, "verify-retract theta takes a dims list")
        pair = retract.theta_retract_into_oriental(_theta_spec(dims, args))
    else:
        raise UsageError(f"unknown retraction {shown(kind)}")
    return _print_report(pair.verify(), args.json)


def _cmd_suite(args) -> int:
    from . import acceptance

    t0 = time.time()
    results = acceptance.run_all()
    all_passed = all(rep.passed for _, rep in results)
    if args.json:
        payload = {
            "passed": all_passed,
            "criteria": [
                {"criterion": name, **_report_payload(rep)} for name, rep in results
            ],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        width = max(len(name) for name, _ in results)
        for name, rep in results:
            status = "PASS" if rep.passed else "FAIL"
            _write_line(f"{status}  {name:<{width}}  ({len(rep.checks)} checks)")
            if not rep.passed:
                for item in rep.failures():
                    witness = f"  [{item.witness}]" if item.witness else ""
                    _write_line(f"      FAIL {item.name}{witness}")
        _write_line("PASSED" if all_passed else "FAILED")
    sys.stderr.write(f"suite completed in {time.time() - t0:.1f}s\n")
    return 0 if all_passed else 1


# The options several subcommands share, each declared once.  A subcommand
# adds them after its own arguments, so its usage line lists them last.
_SHARED_OPTIONS = {
    "--glue": {"default": ""},
    "--sides": {"default": ""},
    "--out": {},
    "--json": {"action": "store_true"},
}


def _add_shared(parser: argparse.ArgumentParser, *options: str) -> None:
    for option in options:
        parser.add_argument(option, **_SHARED_OPTIONS[option])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinerlab",
        description="Exact-integer calculator for based augmented directed complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a shape")
    p_gen.add_argument("shape")
    p_gen.add_argument("params", nargs="*")
    _add_shared(p_gen, "--glue", "--sides", "--out")
    p_gen.set_defaults(fn=_cmd_gen)

    p_op = sub.add_parser("op", help="apply an operation to complexes")
    p_op.add_argument("operation")
    p_op.add_argument("inputs", nargs="*")
    _add_shared(p_op, "--out")
    p_op.set_defaults(fn=_cmd_op)

    p_info = sub.add_parser("info", help="graded counts and validation summary")
    p_info.add_argument("input")
    _add_shared(p_info, "--json")
    p_info.set_defaults(fn=_cmd_info)

    p_atoms = sub.add_parser("atoms", help="print atom tables")
    p_atoms.add_argument("input")
    p_atoms.add_argument("--gen")
    _add_shared(p_atoms, "--json")
    p_atoms.set_defaults(fn=_cmd_atoms)

    p_check = sub.add_parser("check", help="run a named verification suite")
    p_check.add_argument("suite", help="steiner, boundary-decomp, top-cell or identities")
    p_check.add_argument("params", nargs="*")
    _add_shared(p_check, "--json")
    p_check.set_defaults(fn=_cmd_check)

    p_verify = sub.add_parser("verify-retract", help="build and verify a retraction pair")
    p_verify.add_argument("kind", help="xi, q-cube, ell, zeta or theta")
    p_verify.add_argument("params", nargs="*")
    _add_shared(p_verify, "--glue", "--sides", "--json")
    p_verify.set_defaults(fn=_cmd_verify_retract)

    p_suite = sub.add_parser("suite", help="run the full acceptance battery")
    _add_shared(p_suite, "--json")
    p_suite.set_defaults(fn=_cmd_suite)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # refused here, to show them as every refusal shows a value
            parser.error(f"unrecognized arguments: {shown(' '.join(extra))}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    from .core import SteinerlabError

    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"[Errno {exc.errno}] {exc.strerror}: {shown(exc.filename)}"
        sys.stderr.write(f"error [IO_ERROR]: {exc}\n")
        return 2
    except SteinerlabError as exc:
        sys.stderr.write(f"error [{exc.code}]: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
