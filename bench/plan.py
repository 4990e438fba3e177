"""Seeded op lists for the four workloads.

Each workload is a fixed skeleton of op slots.  The seed picks, within each
slot, among variants of the same size and cost (an oriental or its dual,
argument order, marked vertex, sub-seeds for theta specs and relation sets)
and shuffles the order, so inputs change with the seed while the total work
stays nearly the same.  Ops are plain JSON data; nothing here imports
steinerlab, and the program only sees the inputs an op describes.
"""

from __future__ import annotations

import json
import random
from math import gcd

from answers import expr_key

WORKLOADS = ("build", "glue", "analyze", "cli")

# Builders whose results steinerlab memoizes; a construction op draws each
# argument at most once per pass.
SHAPE_RANGES = {
    "cube": range(1, 7),
    "oriental": range(1, 9),
    "disk": range(1, 9),
    "boundary_disk": range(1, 9),
    "antioriental": range(1, 8),
}


def _o(n):
    """An n-oriental or its co-dual: same size, same cost."""
    return [["oriental", n], ["antioriental", n]]


def _c(n):
    return [["cube", n]]


def _d(n):
    return [["disk", n]]


def _b(n):
    return [["boundary_disk", n]]


def _pair_variants(head, left, right):
    """Both argument orders of every left/right choice."""
    out = []
    for a in left:
        for b in right:
            out.append([head, a, b])
            if a != b:
                out.append([head, b, a])
    return out


def _unary_variants(heads, args):
    return [[h, a] for h in heads for a in args]


DUALS = ("dual_op", "dual_co", "dual_coop")

BUILD_SLOTS = (
    [
        _pair_variants("tensor", a, b)
        for a, b in [
            (_o(1), _o(1)), (_o(1), _o(2)), (_o(2), _o(2)), (_c(1), _o(2)),
            (_c(2), _o(2)), (_c(2), _c(2)), (_o(2), _o(3)), (_o(3), _o(3)),
            (_c(2), _o(3)), (_c(3), _o(2)), (_c(3), _o(3)), (_c(3), _c(3)),
            (_o(4), _o(3)), (_o(4), _o(4)), (_c(2), _o(4)), (_d(4), _c(3)),
            (_b(4), _o(4)), (_d(3), _o(3)), (_c(4), _o(2)), (_b(3), _c(2)),
        ]
    ]
    + [
        _unary_variants(["susp"], a)
        for a in (_o(5), _c(4), _o(6), _c(5), _d(8))
    ]
    + [
        _unary_variants(["antisusp"], a)
        for a in (_o(5), _c(4), _o(6), _c(5), _b(8))
    ]
    + [_unary_variants(DUALS, a) for a in (_o(6), _c(5), _o(7), _c(4), _d(6), _o(8))]
    + [_unary_variants(DUALS, a) for a in (_o(2), _o(3), _o(4), _c(2), _c(3), _d(3), _d(5), _b(5))]
    + [
        _unary_variants([head], a)
        for head in ("susp", "antisusp")
        for a in (_o(2), _o(3), _o(4), _c(2), _c(3), _d(4), _b(4))
    ]
    + [
        _pair_variants("tensor", a, b)
        for a, b in [(_o(1), _c(1)), (_d(1), _d(2)), (_b(2), _o(2)), (_c(1), _c(1)),
                     (_b(2), _b(3)), (_d(2), _c(2))]
    ]
    + [
        _unary_variants(DUALS, _unary_variants(["susp"], _pair_variants("tensor", _o(1), _o(2)))),
        _unary_variants(["susp"], _unary_variants(DUALS, _o(3))),
        _unary_variants(["antisusp"], _unary_variants(["susp"], _c(2))),
        _unary_variants(DUALS, _pair_variants("tensor", _d(2), _b(2))),
        _unary_variants(DUALS, _pair_variants("tensor", _o(2), _c(2))),
        _unary_variants(["susp"], _pair_variants("tensor", _o(3), _o(3))),
        _unary_variants(["antisusp"], _pair_variants("tensor", _c(2), _o(3))),
        _unary_variants(DUALS, _unary_variants(["susp"], _o(6))),
    ]
)

GLUE_JOIN_SLOTS = [
    _pair_variants("join", a, b)
    for a, b in [
        (_o(1), _o(1)), (_o(1), _o(2)), (_o(2), _o(2)), (_c(1), _o(2)),
        (_c(2), _o(1)), (_d(2), _o(2)), (_c(2), _c(1)), (_o(2), _o(3)),
    ]
] + [
    _pair_variants("join", a, [["unit"]])
    for a in (_o(1), _o(2), _o(3), _c(1), _c(2), _d(3))
] + [
    _pair_variants("antijoin", a, b)
    for a, b in [(_o(1), _o(2)), (_c(1), _c(2)), (_o(2), _o(2)), (_d(2), _o(2))]
]

GLUE_WEDGE_SLOTS = [
    (_o(2), _o(2)), (_c(2), _o(3)), (_o(3), _c(2)), (_d(3), _o(2)),
    (_c(3), _c(2)), (_o(4), _o(3)), (_c(3), _c(3)), (_o(4), _d(4)),
]

# (kind, colimit, ambient width, relations)
RELATION_SLOTS = [
    (kind, colimit, width, rels)
    for kind in ("based", "torsion", "nonbased")
    for colimit in ("pushout", "coequalizer")
    for width, rels in ((16, 10), (48, 32), (96, 64))
] + [
    ("based", colimit, width, rels)
    for colimit in ("pushout", "coequalizer")
    for width, rels in ((96, 64), (96, 64), (96, 64), (12, 6), (12, 6), (24, 12))
]

# Generator-count bands for theta specs: an op redraws its spec until the
# size lands in its band, so the seed changes the spec but not its cost.
THETA_BANDS = ([3, 8], [8, 14], [14, 30])
COPRIME = [(a, b) for a in range(2, 8) for b in range(a + 1, 9) if gcd(a, b) == 1]

UNIT, INTERVAL = [["unit"]], [["interval"]]
# Closure recipes: tensors, joins, suspensions and duals of small Steiner
# leaves, so every result is Steiner.  The structure of each is fixed; the
# seed picks duals, leaf variants and argument order, which keep its cost.
RECIPES = [
    ["D", ["tensor", _o(2), _c(1)]],
    ["susp", ["D", ["join", _o(1), UNIT]]],
    ["tensor", ["susp", _o(1)], _o(1)],
    ["D", ["join", _o(2), _c(1)]],
    ["join", ["D", ["susp", _o(1)]], UNIT],
    ["tensor", ["D", _c(2)], _d(2)],
    ["D", ["susp", ["tensor", _o(2), _o(1)]]],
    ["join", ["D", _o(2)], _o(1)],
    ["tensor", ["join", _o(1), UNIT], INTERVAL],
    ["D", ["tensor", ["susp", _c(2)], _o(1)]],
    ["susp", ["D", ["tensor", _c(2), _o(2)]]],
    ["tensor", ["D", ["join", _o(1), _o(1)]], INTERVAL],
    ["join", ["D", _d(2)], INTERVAL],
    ["D", ["join", ["susp", UNIT], _o(2)]],
    ["tensor", ["D", ["susp", _o(2)]], _c(1)],
    ["D", ["tensor", _o(3), _c(1)]],
]

# Theta specs realized as retracts of orientals: (dims, glue, sides of every
# gluing).  Only target-into-left, source-into-right gluings are supported;
# the last two must be refused.
TS, ST, TT = ["target", "source"], ["source", "target"], ["target", "target"]
THETA_RETRACTS = [
    ([1], [], TS), ([2], [], TS), ([3], [], TS), ([1, 1], [0], TS), ([2, 2], [1], TS),
    ([2, 2], [0], TS), ([2, 1, 2], [1, 1], TS), ([1, 1, 1], [0, 0], TS),
    ([1, 1], [0], ST), ([2, 2], [1], TT),
]

ZETA_PAIRS = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3)]


def vertices(expr):
    """Rendered vertex names of a shape, from its naming convention."""
    head, n = expr
    if head == "cube":
        words = [""]
        for _ in range(n):
            words = [w + ch for w in words for ch in "01"]
        return words
    if head in ("oriental", "antioriental"):
        return [str(v) for v in range(n + 1)]
    if head == "disk":
        return ["u"] if n == 0 else ["b0", "b1"]
    raise ValueError(f"no vertices listed for {head}")


def _build(rng):
    """Every memoized shape once, then operations on shapes already built.

    Disks recurse on dimension and antiorientals reuse orientals, so the
    shapes keep one fixed order: each op then builds the same levels
    whatever the seed."""
    shapes = [{"kind": "shape", "expr": [head, n]}
              for head, ns in SHAPE_RANGES.items() for n in ns]
    derived = [{"kind": "shape", "expr": rng.choice(slot)} for slot in BUILD_SLOTS]
    derived += [
        {"kind": "fixture_validity", "fixture": "broken_d2", "check": "D2_ZERO", "witness": "c"},
        {"kind": "fixture_validity", "fixture": "broken_augmentation", "check": "AUG_KILLS_D1", "witness": "e"},
    ]
    rng.shuffle(derived)
    return shapes + derived


def _relation_set(rng, kind, colimit, width, rels):
    """Integer relations whose colimit verdict is known by construction.

    Relation i is ``f(c_i) - g(c_i)``.  Every based relation owns a private
    generator with coefficient one, so unit pivots always exist and exactly
    ``rels`` generators are eliminated.  A torsion set adds ``k * t`` on a
    fresh generator (witness k); a non-based set adds ``a * s + b * t`` with
    coprime a, b >= 2 on fresh generators, a free quotient that no
    surviving generator spans.
    """
    based = rels if kind == "based" else rels - 1
    a_gens = [f"p{i}" for i in range(based)] + [f"x{i}" for i in range(width - rels)]
    shared_a = a_gens[based:]
    b_gens = [f"y{i}" for i in range(width // 2)]
    shared_b = b_gens if colimit == "pushout" else shared_a
    rows = []
    for i in range(based):
        f = {f"p{i}": 1}
        f.update({g: rng.choice((-3, -2, -1, 1, 2, 3)) for g in rng.sample(shared_a, 2)})
        g = {h: rng.choice((-2, -1, 1, 2)) for h in rng.sample(shared_b, 2)}
        rows.append([f, g])
    op = {"kind": "relations", "colimit": colimit, "verdict": kind}
    if kind == "torsion":
        k = rng.randint(2, 9)
        a_gens = a_gens + ["t"]
        rows.append([{"t": k}, {}])
        op["witness"] = [1, k]
    elif kind == "nonbased":
        a, b = rng.choice(COPRIME)
        a_gens = a_gens + ["s"]
        if colimit == "pushout":
            b_gens = b_gens + ["t"]
        else:
            a_gens = a_gens + ["t"]
        rows.append([{"s": a * rng.choice((-1, 1))}, {"t": b * rng.choice((-1, 1))}])
    rng.shuffle(rows)
    if colimit == "coequalizer":
        b_gens = a_gens
    ambient = len(a_gens) + (len(b_gens) if colimit == "pushout" else 0)
    op.update(a=a_gens, b=b_gens, rows=rows, survivors=ambient - rels)
    return op


def _glue(rng):
    ops = [{"kind": "construct", "expr": rng.choice(slot)} for slot in GLUE_JOIN_SLOTS]
    ops += [{"kind": "oriental_via_join", "n": n} for n in range(2, 7)]
    ops += [
        {"kind": "theta", "spec_seed": rng.randrange(2**31), "composable": i % 2 == 0,
         "max_dim": 3, "max_disks": 4, "size": THETA_BANDS[i % 3]}
        for i in range(30)
    ]
    for left, right in GLUE_WEDGE_SLOTS:
        a, b = rng.choice(left), rng.choice(right)
        if rng.random() < 0.5:
            a, b = b, a
        ops.append(
            {"kind": "wedge", "a": a, "b": b,
             "pa": rng.choice(vertices(a)), "pb": rng.choice(vertices(b))}
        )
    ops += [
        {"kind": "decomposition", "check": "boundary", "family": family, "n": n}
        for family, ns in (("cube", range(2, 5)), ("oriental", range(2, 7)))
        for n in ns
    ]
    ops += [
        {"kind": "decomposition", "check": "top_cell", "family": family, "n": n}
        for family, ns in (("cube", range(1, 6)), ("oriental", range(1, 8)))
        for n in ns
    ]
    ops += [_relation_set(rng, *slot) for slot in RELATION_SLOTS]
    rng.shuffle(ops)
    return ops


def _instantiate(rng, template):
    """Pick a variant of a recipe template: ``D`` becomes one of the three
    duals, a list of leaf variants becomes one of them, and the arguments
    of a tensor or join may swap."""
    head = template[0]
    if isinstance(head, list):  # leaf variants
        return rng.choice(template)
    if head == "D":
        return [rng.choice(DUALS), _instantiate(rng, template[1])]
    args = [_instantiate(rng, t) for t in template[1:]]
    if head in ("tensor", "join") and rng.random() < 0.5:
        args.reverse()
    return [head, *args]


def _analyze(rng):
    """Read-side ops over shapes built up front, with every memoized
    retraction step in one fixed relative order, so no op's cost depends on
    what the shuffle ran before it."""
    steiner = ([["cube", n] for n in range(2, 6)] + [["oriental", n] for n in range(1, 8)]
               + [["disk", 2], ["disk", 3], ["disk", 5]]
               + [["boundary_disk", n] for n in range(2, 5)])
    atoms = [["cube", 2], ["cube", 3], ["cube", 4], ["oriental", 3], ["oriental", 4],
             ["oriental", 5], ["disk", 4], ["boundary_disk", 3], ["oriental", 2], ["disk", 6]]
    composes = [["oriental", 2], ["cube", 2], ["oriental", 3], ["cube", 3], ["disk", 3],
                ["oriental", 3], ["disk", 2], ["oriental", 2]]
    ops = [{"kind": "steiner", "expr": expr, "atoms": 2, "pick": rng.randrange(2**31)}
           for expr in steiner]
    ops += [{"kind": "steiner", "expr": _instantiate(rng, template), "atoms": 2,
             "pick": rng.randrange(2**31)} for template in RECIPES]
    ops += [{"kind": "atom", "expr": expr, "depth": i % 2, "pick": rng.randrange(2**31)}
            for i, expr in enumerate(atoms * 3)]
    ops += [{"kind": "compose", "expr": expr, "pairs": 6, "pick": rng.randrange(2**31)}
            for expr in composes]
    ops += [
        {"kind": "fixture_steiner", "fixture": "loop", "check": "STRONGLY_LOOPFREE"},
        {"kind": "fixture_steiner", "fixture": "non_unital", "check": "UNITALITY", "witness": "e"},
    ]
    rng.shuffle(ops)
    # Sections recurse on dimension and on each other, and theta retracts
    # reuse them and the oriental wedges of zeta: a fixed relative order makes
    # every retract op build the same pieces whatever the seed.
    retracts = [{"kind": "retract", "builder": name, "n": n}
                for name, ns in (("section_xi", range(1, 6)),
                                 ("section_q_cube", range(1, 5)),
                                 ("section_ell", range(1, 5)))
                for n in ns]
    retracts += [{"kind": "retract", "builder": "zeta", "n": n, "m": m} for n, m in ZETA_PAIRS]
    retracts += [{"kind": "retract", "builder": "theta", "dims": dims, "glue": glue,
                  "sides": [sides] * len(glue)} for dims, glue, sides in THETA_RETRACTS]
    positions = sorted(rng.sample(range(len(ops) + len(retracts)), len(retracts)))
    for pos, op in zip(positions, retracts):
        ops.insert(pos, op)
    shapes = sorted({json.dumps(op["expr"]) for op in ops
                     if op["kind"] in ("atom", "compose") or
                     (op["kind"] == "steiner" and op["expr"][0] in SHAPE_RANGES)})
    return [{"kind": "construct", "expr": json.loads(e)} for e in shapes] + ops


# -- cli ---------------------------------------------------------------------------

# category -> (ops per pass, variants).  A variant is (argv, stdin file or
# None, expected exit code).
CLI_CATEGORIES = {
    "gen": (20, [
        (["gen", "cube", str(n)], None, 0) for n in range(0, 4)
    ] + [
        (["gen", "oriental", str(n)], None, 0) for n in range(0, 5)
    ] + [
        (["gen", "disk", str(n)], None, 0) for n in range(0, 5)
    ] + [
        (["gen", "boundary-disk", str(n)], None, 0) for n in range(1, 5)
    ] + [
        (["gen", "antioriental", str(n)], None, 0) for n in range(1, 4)
    ] + [
        (["gen", "theta", "2,1,2", "--glue", "1,1"], None, 0),
        (["gen", "theta", "1,1", "--glue", "0"], None, 0),
        (["gen", "theta", "2,2", "--glue", "1", "--sides", "st"], None, 0),
        (["gen", "wedge", "cube:1", "1", "oriental:2", "0"], None, 0),
        (["gen", "wedge", "oriental3.json", "3", "disk:2", "b0"], None, 0),
    ]),
    "op": (18, [
        (["op", op, a, b], None, 0)
        for op in ("tensor", "join", "antijoin")
        for a, b in (("cube:1", "oriental:2"), ("oriental:2", "unit"), ("disk:2", "interval"),
                     ("oriental2.json", "cube:1"))
    ] + [
        (["op", op, ref], None, 0)
        for op in ("susp", "antisusp", "op", "co", "coop")
        for ref in ("oriental:3", "cube:2", "oriental3.json")
    ] + [
        (["op", op, "-"], "oriental2.json", 0) for op in ("susp", "coop")
    ]),
    "info": (10, [
        (["info", ref] + extra, None, 0)
        for ref in ("cube:3", "oriental:4", "boundary-disk:3", "oriental3.json", "antioriental:3")
        for extra in ([], ["--json"])
    ] + [
        (["info", "-"], "oriental2.json", 0),
        (["info", "-", "--json"], "oriental3.json", 0),
    ]),
    "atoms": (5, [
        (["atoms", "cube:2", "--gen", "ii"], None, 0),
        (["atoms", "oriental:2"], None, 0),
        (["atoms", "oriental:3", "--json"], None, 0),
        (["atoms", "disk:2"], None, 0),
        (["atoms", "oriental3.json", "--gen", "0.1.3"], None, 0),
    ]),
    "check": (12, [
        (["check", "steiner", ref], None, 0)
        for ref in ("oriental:3", "cube:3", "oriental2.json", "disk:3")
    ] + [
        (["check", "steiner", "loop.json"], None, 1),
    ] + [
        (["check", "boundary-decomp", family, str(n)], None, 0)
        for family, ns in (("cube", (2, 3)), ("oriental", (2, 3, 4)))
        for n in ns
    ] + [
        (["check", "top-cell", family, str(n)], None, 0)
        for family, ns in (("cube", (1, 2, 3)), ("oriental", (1, 2, 3, 4)))
        for n in ns
    ]),
    "verify": (7, [
        (["verify-retract", "xi", str(n)], None, 0) for n in (1, 2, 3)
    ] + [
        (["verify-retract", "q-cube", str(n)], None, 0) for n in (1, 2)
    ] + [
        (["verify-retract", "ell", str(n)], None, 0) for n in (1, 2)
    ] + [
        (["verify-retract", "zeta", n, m], None, 0) for n, m in (("1", "1"), ("1", "2"), ("2", "1"))
    ] + [
        (["verify-retract", "theta", "2,1,2", "--glue", "1,1"], None, 0),
    ]),
    # Calls that take two to three times a light call, so the slowest tenth
    # of a pass is made of these rather than of light calls that ran slowly.
    "heavy": (12, [
        (argv.split(), None, 0)
        for argv in (
            "verify-retract q-cube 4", "verify-retract xi 4", "verify-retract ell 3",
            "op antijoin oriental:3 oriental:2", "op join disk:7 oriental:2",
            "op join antioriental:3 oriental:2", "op join oriental:2 antioriental:3",
            "op join oriental:3 oriental:2", "op tensor cube:3 cube:3",
            "check steiner antioriental:7", "check steiner oriental:7",
            "check steiner cube:5", "check boundary-decomp cube 4",
        )
    ]),
    "malformed": (12, [
        (["gen", "blob", "3"], None, 2),
        (["gen", "cube", "x"], None, 2),
        (["gen", "theta", "2,1", "--glue", "5"], None, 2),
        (["op", "tensor", "cube:1"], None, 2),
        (["op", "frob", "cube:1"], None, 2),
        (["info", "no-such-file.json"], None, 2),
        (["info", "-"], "not_json.txt", 2),
        (["info", "bad_version.json"], None, 2),
        (["info", "broken_d2.json"], None, 2),
        (["check", "steiner"], None, 2),
        (["check", "nosuch"], None, 2),
        (["verify-retract", "zeta", "2"], None, 2),
    ]),
}

# Inputs that steinerlab mishandles at the time the benchmark was written
# (ROADMAP item 4).  They run in every cli pass and count as failed ops while
# the defect lasts; "expect" is the correct behaviour.
CLI_DEFECTS = [
    {"id": "defect.big_coefficient", "argv": ["op", "susp", "big_coefficient.json"],
     "stdin": None, "expect": 0, "stdout": "suspended_big_point"},
    {"id": "defect.duplicate_differential", "argv": ["info", "dup_differential.json"],
     "stdin": None, "expect": 2},
    {"id": "defect.duplicate_degrees", "argv": ["info", "dup_degrees.json"],
     "stdin": None, "expect": 2},
    {"id": "defect.directory_input", "argv": ["info", "a_directory"],
     "stdin": None, "expect": 2},
]
KNOWN_DEFECTS = frozenset(d["id"] for d in CLI_DEFECTS)


def cli_key(argv, stdin) -> str:
    return " ".join(argv) + (f" < {stdin}" if stdin else "")


def _cli(rng):
    ops = []
    for name, (count, variants) in CLI_CATEGORIES.items():
        for argv, stdin, code in rng.sample(variants, count):
            ops.append({"kind": "cli", "id": cli_key(argv, stdin), "argv": argv,
                        "stdin": stdin, "expect": code})
    ops += [dict(d, kind="cli") for d in CLI_DEFECTS]
    rng.shuffle(ops)
    return ops


GENERATORS = {"build": _build, "glue": _glue, "analyze": _analyze, "cli": _cli}


def generate(workload: str, seed: int) -> list:
    """The op list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = GENERATORS[workload](rng)
    for i, op in enumerate(ops):
        op.setdefault("id", f"{i}:{op['kind']}")
    return ops


def build_catalogue():
    """Every expression a build op can emit, for recording digests."""
    exprs = [[head, n] for head, ns in SHAPE_RANGES.items() for n in ns]
    for slot in BUILD_SLOTS:
        exprs += slot
    return {expr_key(e): e for e in exprs}


def cli_catalogue():
    """Every cli op with a recorded stdout digest (exit code 0 or 1)."""
    return {
        cli_key(argv, stdin): (argv, stdin)
        for _, variants in CLI_CATEGORIES.values()
        for argv, stdin, code in variants
        if code != 2
    }
