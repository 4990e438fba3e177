"""A seeded, bounded fuzz of the readers of outside text.

Mutated documents go through ``parse``, random command lines through
``cli.main``.  A document either parses and round-trips byte for byte or is
refused with a coded ``SteinerlabError``; a command exits 0, 1 or 2; and no
refusal writes a line of 200 bytes or more.
"""

from __future__ import annotations

import copy
import json
import random

from steinerlab import cube, disk, emit, interval, oriental, parse, theta, ThetaSpec
from steinerlab.cli import main
from steinerlab.core import SteinerlabError
from steinerlab.retract import s2

SEED = 20261019
DOCUMENTS = 240
COMMANDS = 80
LINE_BYTES = 200

_BASES = [
    interval(), oriental(2), cube(2), disk(2), s2(),
    theta(ThetaSpec((2, 1), (0,), (("target", "source"),))),
]
_LONG_STRINGS = [
    "x" * 5000, "9" * 5000, "-" + "9" * 4999, "(" * 2500 + ")" * 2500, "a." * 2500,
]
_WRONG_VALUES = [5, -1, 0.5, True, None, [], {}, "x", list(range(3000)), {"a": 1}]


def _deep_name(rng: random.Random) -> str:
    k = rng.choice([100, 491, 492, 600])
    return "(" * k + "a" + ")" * k


def _slots(node, out):
    """Every (container, key) pair under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _mutate(doc, rng: random.Random) -> str:
    """``doc`` with one to three random mutations, as JSON text."""
    for _ in range(rng.randint(1, 3)):
        slots = _slots(doc, [])
        if not slots:
            break
        container, key = rng.choice(slots)
        op = rng.randrange(7)
        if op == 0 and isinstance(container, dict):
            del container[key]
        elif op == 1:
            container[key] = copy.deepcopy(rng.choice(_WRONG_VALUES))
        elif op == 2 and isinstance(container[key], list) and container[key]:
            container[key].append(copy.deepcopy(rng.choice(container[key])))
        elif op == 3:
            container[key] = rng.choice(_LONG_STRINGS)
        elif op == 4:
            container[key] = _deep_name(rng)
        elif op == 5 and isinstance(container[key], str):
            # the same text everywhere: a long name kept consistent stays valid
            old, new = json.dumps(container[key]), json.dumps("n" * 5000)
            return json.dumps(doc).replace(old, new)
        elif op == 6:
            container[key] = "BIG"
            return json.dumps(doc).replace('"BIG"', "9" * rng.choice([4000, 5000]))
    return json.dumps(doc)


def _check_refusal(exc: SteinerlabError) -> None:
    assert isinstance(exc.code, str) and exc.code
    line = f"error [{exc.code}]: {exc}\n"
    assert len(line.encode()) < LINE_BYTES, line[:300]


def test_mutated_documents_round_trip_or_are_refused_briefly():
    rng = random.Random(SEED)
    parsed = refused = 0
    for _ in range(DOCUMENTS):
        text = _mutate(json.loads(emit(rng.choice(_BASES))), rng)
        try:
            value = parse(text)
        except SteinerlabError as exc:
            _check_refusal(exc)
            refused += 1
            continue
        again = emit(value)
        assert parse(again) == value and emit(parse(again)) == again
        parsed += 1
    assert parsed and refused  # both outcomes are exercised


def _command(rng: random.Random, path: str, out: str) -> list[str]:
    def integer() -> str:
        return rng.choice(
            ["-1", "0", "1", "2", "3", "1" * 5000, "-" + "1" * 5000, "1" * 3000,
             "-" + "1" * 3000, "x", "", "1_0", "+2", "٣"]
        )

    def dims() -> str:
        return ",".join(integer() for _ in range(rng.randint(1, 3)))

    def ref() -> str:
        return rng.choice(
            ["cube:2", "oriental:2", "disk:1", "interval", "unit", "zero", "nope",
             "cube:" + integer(), "oriental:" + integer(), "r" * 3000, path]
        )

    def name() -> str:
        return rng.choice(["0", "ii", "a.(", "a" * 5000, "x" * 3000 + ")", _deep_name(rng)])

    shape = rng.choice(["disk", "boundary-disk", "cube", "oriental", "antioriental",
                        "s" * 3000])
    commands = [
        ["gen", shape, integer()],
        ["gen", "theta", dims(), "--glue", dims()],
        ["gen", "theta", "1,1", "--glue", "0", "--sides", rng.choice(["ts", "q" * 3000])],
        ["gen", "wedge", ref(), name(), ref(), name()],
        ["gen", "cube", integer(), "--out", out],
        ["op", rng.choice(["tensor", "join", "o" * 3000]), ref(), ref()],
        ["op", rng.choice(["susp", "co"]), ref()],
        ["info", ref()],
        ["atoms", ref(), "--gen", name()],
        ["check", "steiner", ref()],
        ["check", rng.choice(["boundary-decomp", "top-cell"]),
         rng.choice(["cube", "oriental"]), integer()],
        ["verify-retract", rng.choice(["xi", "q-cube", "ell"]), integer()],
        ["verify-retract", "zeta", integer(), integer()],
        ["verify-retract", "theta", dims(), "--glue", dims()],
    ]
    return rng.choice(commands)


def test_random_command_lines_exit_with_a_code_and_brief_errors(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "mutated.json"
    out = str(tmp_path / ("o" * 3000))  # a file name too long to create
    codes = set()
    for _ in range(COMMANDS):
        path.write_text(_mutate(json.loads(emit(rng.choice(_BASES))), rng))
        argv = _command(rng, str(path), out)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        for line in err.splitlines():
            assert len(line.encode()) < LINE_BYTES, (argv[:2], line[:300])
        codes.add(code)
    assert {0, 2} <= codes


_WIDE = ["\U0001F600" * 50, "\U0001F601" * 50]  # 4 bytes a character


def _stray_term_documents():
    """Two refusals that each show two long names: a differential term and a
    map term that name no generator of the right degree."""
    from steinerlab import BasedComplex, Chain, ComplexMap, chain_of, unit

    a, b = (_WIDE[0],), (_WIDE[1],)
    c = BasedComplex({0: [("v",)], 1: [a, b]}, {a: Chain(0), b: Chain(0)}, {("v",): 1})
    doc = json.loads(emit(c))
    entry = next(e for e in doc["differential"] if e["generator"] == _WIDE[0])
    entry["terms"] = [{"generator": _WIDE[1], "coeff": "1"}]
    yield json.dumps(doc)
    point = BasedComplex({0: [a]}, {}, {a: 1})
    doc = json.loads(emit(ComplexMap(point, unit(), {a: chain_of(0, ("u",))})))
    doc["assignment"][0]["terms"][0]["generator"] = _WIDE[1]
    yield json.dumps(doc)


def test_two_long_names_are_refused_briefly():
    refusals = []
    for text in _stray_term_documents():
        try:
            parse(text)
        except SteinerlabError as exc:
            _check_refusal(exc)
            refusals.append(str(exc))
    assert [message.split(" of ")[0] for message in refusals] == [
        "structurally malformed complex: differential",
        "structurally malformed map: assignment",
    ]
