"""One pass of an in-process workload, in a fresh interpreter.

Reads ``{"ops": [...], "trace": bool}`` as JSON on stdin, runs every op
through steinerlab's public functions, checks each result against its known
answer, and writes one JSON object to stdout: each op's latency and
failure reason and, when traced, the raw span record.  Only the program
calls inside an op are timed; the checks run after the clock stops.

    PYTHONPATH=src python3 bench/worker.py < ops.json
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import steinerlab as sl
import steinerlab.acceptance as fixtures

import answers
from spans import Tracer

DIGESTS_PATH = Path(__file__).parent / "digests.json"
DIGESTS = (json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists()
           else {"build": {}, "cli": {}})

CALLS = {
    "tensor": "gray_tensor", "join": "join", "antijoin": "antijoin",
    "susp": "suspension", "antisusp": "antisuspension",
    "dual_op": "dual_op", "dual_co": "dual_co", "dual_coop": "dual_coop",
    "unit": "unit", "interval": "interval",
}


def evaluate(expr):
    """Build an expression such as ``["tensor", ["cube", 2], ["unit"]]``."""
    head, *args = expr
    if head in answers.SHAPE_COUNTS:
        return getattr(sl, head)(args[0])
    return getattr(sl, CALLS[head])(*(evaluate(a) for a in args))


def counts(c) -> dict:
    return {deg: len(gens) for deg, gens in c.degrees.items()}


def diff_dicts(c) -> dict:
    return {g: dict(chain.items()) for g, chain in c.diff.items()}


def table_levels(t):
    return [dict(ch.items()) for ch in t.minus], [dict(ch.items()) for ch in t.plus]


def _spec(op):
    """The first spec ``random_theta_spec`` draws whose size is in the op's band."""
    rng = random.Random(op["spec_seed"])
    lo, hi = op["size"]
    while True:
        spec = sl.random_theta_spec(rng, op["max_dim"], op["max_disks"], op["composable"])
        if lo <= sum(answers.theta_counts(spec.dims, spec.glue).values()) < hi:
            return spec


def _free(names):
    """Generators in degree one with zero differential."""
    gens = [(n,) for n in names]
    return sl.BasedComplex({1: gens}, {g: sl.Chain(0) for g in gens}, {})


def _picks(c, seed, k, degree):
    """k generators of one degree: an atom's cost depends on its degree."""
    gens = c.generators(degree)
    return random.Random(seed).sample(gens, min(k, len(gens)))


# -- ops: each returns what its check needs --------------------------------------


def run_shape(op):
    x = evaluate(op["expr"])
    report = sl.validate_complex(x)
    text = sl.emit(x)
    y = sl.parse(text)
    return x, report, text, y, sl.emit(y)


def run_construct(op):
    x = evaluate(op["expr"])
    return x, sl.validate_complex(x)


def run_oriental_via_join(op):
    return sl.oriental_via_join(op["n"])


def run_theta(op):
    spec = _spec(op)
    return spec, sl.theta(spec)


def run_wedge(op):
    return sl.wedge(evaluate(op["a"]), (op["pa"],), evaluate(op["b"]), (op["pb"],))


def run_decomposition(op):
    fn = (sl.boundary_decomposition_check if op["check"] == "boundary"
          else sl.top_cell_decomposition_check)
    return fn(op["family"], op["n"])


def run_relations(op):
    rows = op["rows"]
    source = _free([f"c{i}" for i in range(len(rows))])
    a = _free(op["a"])
    b = _free(op["b"]) if op["colimit"] == "pushout" else a

    def leg(target, side):
        return sl.ComplexMap(source, target, {
            (f"c{i}",): sl.Chain(1, {(n,): v for n, v in row[side].items()})
            for i, row in enumerate(rows)
        })

    colimit = sl.pushout if op["colimit"] == "pushout" else sl.coequalizer
    return colimit(leg(a, 0), leg(b, 1))


def run_steiner(op):
    x = evaluate(op["expr"])
    report = sl.is_steiner(x)
    tables = [sl.atom_table(x, g) for g in _picks(x, op["pick"], op["atoms"], x.top_degree)]
    return x, report, tables


def run_atom(op):
    x = evaluate(op["expr"])
    (g,) = _picks(x, op["pick"], 1, max(x.top_degree - op["depth"], 0))
    return x, g, sl.atom_table(x, g)


def run_compose(op):
    x = evaluate(op["expr"])
    top = x.top_degree
    pool = []
    for _, g in x.all_generators():
        t = sl.atom_table(x, g)
        while t.dim < top:
            t = sl.identity_table(t)
        pool.append(t)
    pairs = [
        (t, u, p)
        for t in pool for u in pool for p in range(top)
        if sl.target(t, p) == sl.source(u, p)
    ]
    chosen = random.Random(op["pick"]).sample(pairs, min(op["pairs"], len(pairs)))
    return x, [(t, u, p, sl.compose_tables(u, t, p)) for t, u, p in chosen]


def run_retract(op):
    builder = op["builder"]
    if builder == "zeta":
        n, m = op["n"], op["m"]
        pair = sl.RetractionPair(sl.zeta(n, m), sl.theta_left_inverse(n, m))
        return None, pair, pair.verify()
    if builder == "theta":
        spec = sl.ThetaSpec(tuple(op["dims"]), tuple(op["glue"]),
                            tuple(tuple(pair) for pair in op["sides"]))
        try:
            pair = sl.theta_retract_into_oriental(spec)
        except sl.UnsupportedSpecError as exc:
            return spec, exc, None
        return spec, pair, pair.verify()
    pair = getattr(sl, builder)(op["n"])
    return None, pair, pair.verify()


def run_fixture_validity(op):
    return sl.validate_complex(getattr(fixtures, "fixture_" + op["fixture"])())


def run_fixture_steiner(op):
    return sl.is_steiner(getattr(fixtures, "fixture_" + op["fixture"])())


# -- checks: None when the result matches the known answer -----------------------


def check_shape(op, res):
    x, report, text, y, again = res
    if counts(x) != answers.expr_counts(op["expr"]):
        return f"graded counts {counts(x)}"
    if not report.passed:
        return "fails validation"
    key = answers.expr_key(op["expr"])
    if DIGESTS["build"].get(key) != answers.digest(text.encode("utf-8")):
        return f"emit digest of {key} differs from the recorded one"
    if y != x:
        return "parse(emit(x)) != x"
    if again != text:
        return "emit(parse(emit(x))) != emit(x)"
    return None


def check_construct(op, res):
    x, report = res
    if counts(x) != answers.expr_counts(op["expr"]):
        return f"graded counts {counts(x)}"
    return None if report.passed else "fails validation"


def check_oriental_via_join(op, x):
    n = op["n"]
    if counts(x) != answers.oriental_counts(n):
        return f"graded counts {counts(x)}"
    faces = answers.oriental_faces(n)
    got = {".".join(g): {".".join(h): c for h, c in d.items()}
           for g, d in diff_dicts(x).items()}
    return None if got == faces else "differential is not the alternating face sum"


def check_theta(op, res):
    spec, x = res
    want = answers.theta_counts(spec.dims, spec.glue)
    return None if counts(x) == want else f"graded counts {counts(x)}, want {want}"


def check_wedge(op, x):
    want = answers.wedge_counts(answers.expr_counts(op["a"]), answers.expr_counts(op["b"]))
    return None if counts(x) == want else f"graded counts {counts(x)}, want {want}"


def check_decomposition(op, report):
    want = 4 if op["check"] == "boundary" else 5
    if not report.passed:
        return "; ".join(report.lines())
    return None if len(report.checks) == want else f"{len(report.checks)} checks, want {want}"


def check_relations(op, result):
    verdict = op["verdict"]
    if verdict == "based":
        if not result.based:
            return f"not based: {result.reason}"
        size = result.complex.size
        return None if size == op["survivors"] else f"{size} survivors, want {op['survivors']}"
    if result.based:
        return f"based, want {verdict}"
    if verdict == "torsion":
        want = tuple(op["witness"])
        return None if result.torsion_witness == want else f"witness {result.torsion_witness}, want {want}"
    if result.torsion_witness is not None or "non-based" not in (result.reason or ""):
        return f"want a non-based verdict, got {result.torsion_witness} {result.reason}"
    return None


def _cell_check(x, t, diff=None):
    minus, plus = table_levels(t)
    return answers.cell_problem(diff or diff_dicts(x), x.aug, minus, plus)


def check_steiner(op, res):
    x, report, tables = res
    if counts(x) != answers.expr_counts(op["expr"]):
        return f"graded counts {counts(x)}"
    if not report.passed:
        return "; ".join(report.lines())
    diff = diff_dicts(x)
    for t in tables:
        problem = _cell_check(x, t, diff)
        if problem:
            return f"atom is not a cell: {problem}"
    return None


# Bottom source and target vertices of the top cell, by family.
TOP_VERTICES = {
    "cube": lambda n: (("0" * n,), ("1" * n,)),
    "oriental": lambda n: (("0",), (str(n),)),
    "disk": lambda n: (("b0",), ("b1",)),
}


def check_atom(op, res):
    x, g, t = res
    problem = _cell_check(x, t)
    if problem:
        return f"atom of {g} is not a cell: {problem}"
    if t.dim != x.degree_of(g) or dict(t.minus[t.dim].items()) != {g: 1}:
        return "top entry is not the generator"
    head, n = op["expr"]
    if head in TOP_VERTICES and x.degree_of(g) == n:
        low, high = TOP_VERTICES[head](n)
        if dict(t.minus[0].items()) != {low: 1} or dict(t.plus[0].items()) != {high: 1}:
            return "top cell does not run from the first to the last vertex"
    return None


def check_compose(op, res):
    x, done = res
    if not done:
        return "no composable pairs"
    diff = diff_dicts(x)
    for t, u, p, out in done:
        tm, tp = table_levels(t)
        um, up = table_levels(u)
        want = answers.composite(tm, tp, um, up, p)
        if table_levels(out) != want:
            return f"composite along {p} differs from the formula"
        problem = _cell_check(x, out, diff)
        if problem:
            return f"composite is not a cell: {problem}"
    return None


RETRACT_COUNTS = {
    "section_xi": lambda n: (answers.oriental_counts(n), answers.cube_counts(n)),
    "section_q_cube": lambda n: (answers.suspension_counts(answers.cube_counts(n)),
                                 answers.cube_counts(n + 1)),
    "section_ell": lambda n: (answers.suspension_counts(answers.oriental_counts(n)),
                              answers.oriental_counts(n + 1)),
}


def check_retract(op, res):
    spec, pair, report = res
    builder = op["builder"]
    if builder == "theta":
        composable = all(side == ("target", "source") for side in spec.sides)
        if not composable:
            ok = isinstance(pair, sl.UnsupportedSpecError)
            return None if ok else "non-composable spec was accepted"
        if isinstance(pair, Exception):
            return f"composable spec refused: {pair}"
        want = (answers.theta_counts(spec.dims, spec.glue), None)
    elif builder == "zeta":
        n, m = op["n"], op["m"]
        want = (answers.wedge_counts(answers.oriental_counts(n), answers.oriental_counts(m)),
                answers.oriental_counts(n + m))
    else:
        want = RETRACT_COUNTS[builder](op["n"])
    if not report.passed or len(report.checks) != 4:
        return "; ".join(report.lines())
    if counts(pair.embed.source) != want[0]:
        return f"source counts {counts(pair.embed.source)}"
    if want[1] is not None and counts(pair.embed.target) != want[1]:
        return f"target counts {counts(pair.embed.target)}"
    return None


def _fixture_check(op, report, witness_ok):
    for item in report.checks:
        if item.name == op["check"]:
            if item.passed or not witness_ok(item.witness):
                return f"{item.name} passed={item.passed} witness={item.witness}"
        elif not item.passed:
            return f"{item.name} also fails"
    names = [item.name for item in report.checks]
    return None if op["check"] in names else f"no {op['check']} check"


def check_fixture_validity(op, report):
    return _fixture_check(op, report, lambda w: w == op["witness"])


def _is_cycle(witness):
    steps = (witness or "").split(" <= ")
    return len(steps) >= 3 and steps[0] == steps[-1] and {"e", "f"} <= set(steps)


def check_fixture_steiner(op, report):
    if "witness" in op:
        return _fixture_check(op, report, lambda w: w == op["witness"])
    return _fixture_check(op, report, _is_cycle)


OPS = {name[4:]: fn for name, fn in globals().items() if name.startswith("run_")}
CHECKS = {name[6:]: fn for name, fn in globals().items() if name.startswith("check_")}


def run_pass(ops, tracer=None, checks=CHECKS):
    """Run and check every op; returns [[id, ms, why]], why None if correct."""
    results = []
    for op in ops:
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        try:
            res = OPS[op["kind"]](op)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = exc
        took = time.perf_counter() - start
        if tracer:
            tracer.active = False
        if error is not None:
            why = f"raised {type(error).__name__}: {error}"
        else:
            try:
                why = checks[op["kind"]](op, res)
            except Exception as exc:
                why = f"check raised {type(exc).__name__}: {exc}"
        results.append([op["id"], took * 1000, why])
    return results


def main() -> int:
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    results = run_pass(job["ops"], tracer)
    out = {"ops": results, "trace": tracer.raw() if tracer else None}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
