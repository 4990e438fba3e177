import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from steinerlab import (
    BasedComplex,
    Chain,
    ParseError,
    ValidationError,
    cube,
    emit,
    oriental,
    parse,
    shape_library,
)
from steinerlab.cli import main
from steinerlab.retract import s2


def test_round_trip_complexes():
    for label, c in shape_library().items():
        text = emit(c)
        again = parse(text)
        assert again == c, label
        assert emit(again) == text, label


def test_round_trip_map():
    text = emit(s2())
    again = parse(text)
    assert again == s2()
    assert emit(again) == text


def test_emit_is_deterministic():
    assert emit(cube(3)) == emit(cube(3))


_GOLDEN = Path(__file__).with_name("emit_digests.json")


def golden_values() -> dict:
    """Every value whose ``emit`` digest is pinned in ``emit_digests.json``."""
    from steinerlab import (
        BasedComplex,
        Chain,
        ThetaSpec,
        section_q_cube,
        section_xi,
        theta,
        theta_left_inverse,
        theta_retract_into_oriental,
        wedge_with_legs,
        zero,
        zeta,
    )

    big = 10**5000
    odd = [("é\"\\x",), (" ",), ("a", ("b",))]
    values = {f"shape {label}": c for label, c in shape_library(big=True).items()}
    for n in range(4):
        values[f"section_xi({n}) embed"] = section_xi(n).embed
        values[f"section_xi({n}) retract"] = section_xi(n).retract
        values[f"section_q_cube({n}) embed"] = section_q_cube(n).embed
        values[f"section_q_cube({n}) retract"] = section_q_cube(n).retract
    w, left, right = wedge_with_legs(oriental(2), ("2",), cube(2), ("00",))
    values["wedge oriental2.2 cube2.00"] = w
    values["wedge oriental2.2 cube2.00 left leg"] = left
    values["wedge oriental2.2 cube2.00 right leg"] = right
    values["zeta(2, 3)"] = zeta(2, 3)
    values["theta_left_inverse(2, 3)"] = theta_left_inverse(2, 3)
    for dims, glue in (
        ((2, 1, 2), (1, 1)),
        ((1, 1, 1), (0, 0)),
        ((3, 3, 3, 3), (0, 2, 1)),
    ):
        spec = ThetaSpec(dims, glue, (("target", "source"),) * len(glue))
        pair = theta_retract_into_oriental(spec)
        label = f"theta_retract {','.join(map(str, dims))} | {','.join(map(str, glue))}"
        values[f"{label} embed"] = pair.embed
        values[f"{label} retract"] = pair.retract
    codes = {"s": "source", "t": "target"}
    for dims, glue, sides in (
        ((2, 2), (1,), ("st",)),
        ((2, 2), (1,), ("ss",)),
        ((2, 2), (1,), ("tt",)),
        ((1, 2), (1,), ("ts",)),
        ((1, 1, 1, 1), (0, 0, 0), ("ts", "ts", "ts")),
    ):
        spec = ThetaSpec(dims, glue, tuple((codes[a], codes[b]) for a, b in sides))
        label = f"theta {','.join(map(str, dims))} | {','.join(map(str, glue))}"
        values[f"{label} | {','.join(sides)}"] = theta(spec)
    values["zero"] = zero()
    values["odd atoms, 10**5000"] = BasedComplex(
        {0: odd, 1: [("e",)]},
        {("e",): Chain(0, {odd[0]: big, odd[1]: -big})},
        dict.fromkeys(odd, big),
    )
    return values


def test_emit_bytes_are_pinned():
    digests = json.loads(_GOLDEN.read_text())
    values = golden_values()
    assert sorted(values) == sorted(digests)
    for label, value in values.items():
        text = emit(value)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digests[label], label
        assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
        assert parse(text) == value, label


def test_oriental_document_has_face_terms():
    doc = json.loads(emit(oriental(2)))
    entries = {e["generator"]: e["terms"] for e in doc["differential"]}
    terms = {t["generator"]: t["coeff"] for t in entries["0.1.2"]}
    assert terms == {"1.2": "1", "0.2": "-1", "0.1": "1"}


def test_parse_rejects_invalid_json():
    with pytest.raises(ParseError):
        parse("{not json")


def test_parse_rejects_broken_complex():
    doc = json.loads(emit(oriental(1)))
    # corrupt the edge differential so the augmentation check fails
    doc["differential"][0]["terms"] = [
        {"generator": "0", "coeff": "1"},
        {"generator": "1", "coeff": "1"},
    ]
    with pytest.raises(ValidationError) as err:
        parse(json.dumps(doc))
    assert not err.value.report.passed


def test_parse_rejects_unknown_generator():
    doc = json.loads(emit(oriental(1)))
    doc["differential"][0]["terms"] = [{"generator": "nope", "coeff": "1"}]
    with pytest.raises(ParseError):
        parse(json.dumps(doc))


def test_parse_rejects_broken_d2():
    from steinerlab.acceptance import fixture_broken_d2

    with pytest.raises(ValidationError) as err:
        parse(emit(fixture_broken_d2()))
    assert any(i.name == "D2_ZERO" for i in err.value.report.failures())


_REPEATED_ENTRIES = {
    "degree": (
        lambda doc: doc["degrees"].append(dict(doc["degrees"][0])),
        "degree 0 listed twice in degrees",
    ),
    "degree generator": (
        lambda doc: doc["degrees"][0]["generators"].append("1"),
        "generator 1 listed twice in degrees",
    ),
    # a second, empty entry for i would otherwise turn d(i) = 1 - 0 into 0
    "differential": (
        lambda doc: doc["differential"].append({"generator": "i", "terms": []}),
        "generator i listed twice in differential",
    ),
    "augmentation": (
        lambda doc: doc["augmentation"].append({"generator": "0", "value": "5"}),
        "generator 0 listed twice in augmentation",
    ),
    "differential term": (
        lambda doc: doc["differential"][0]["terms"].append({"generator": "1", "coeff": "0"}),
        "generator 1 listed twice in terms of differential",
    ),
    "assignment": (
        lambda doc: doc["assignment"].append(dict(doc["assignment"][0])),
        "generator 0 listed twice in assignment",
    ),
    "assignment term": (
        lambda doc: doc["assignment"][0]["terms"].append(doc["assignment"][0]["terms"][0]),
        "generator 00 listed twice in terms of assignment",
    ),
    # a bad name is reported with the section it was found in
    "degree bad name": (
        lambda doc: doc["degrees"][0]["generators"].append("a..b"),
        "bad generator name in degree 0: empty name atom in 'a..b' at 2",
    ),
    "differential bad name": (
        lambda doc: doc["differential"][0].update(generator="a..b"),
        "bad generator name in differential: empty name atom in 'a..b' at 2",
    ),
    "augmentation bad name": (
        lambda doc: doc["augmentation"][0].update(generator="("),
        "bad generator name in augmentation: empty name component in '('",
    ),
    "differential term bad name": (
        lambda doc: doc["differential"][0]["terms"][0].update(generator="a."),
        "bad generator name in terms: empty name component in 'a.'",
    ),
    "assignment bad name": (
        lambda doc: doc["assignment"][0].update(generator="(0"),
        "bad generator name in assignment: unbalanced parentheses in name '(0'",
    ),
    "assignment term bad name": (
        lambda doc: doc["assignment"][0]["terms"][0].update(generator="0)"),
        "bad generator name in terms: trailing characters in name '0)'",
    ),
}


@pytest.mark.parametrize("section", list(_REPEATED_ENTRIES))
def test_parse_rejects_repeated_entries(section):
    from steinerlab import interval

    repeat, message = _REPEATED_ENTRIES[section]
    doc = json.loads(emit(s2() if section.startswith("assignment") else interval()))
    repeat(doc)
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "value",
    [
        "1_0", " 1", "1\n", "\u0661", "1e3", "+-1", "1" * 5000 + "_0", float("inf"),
        # JSON numbers and booleans that are not integers
        0.9, 1.0, True,
    ],
)
def test_parse_rejects_non_decimal_integers(value):
    from steinerlab import interval

    doc = json.loads(emit(interval()))
    doc["augmentation"][0]["value"] = value
    with pytest.raises(ParseError, match="bad integer"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("first", ["1", 1], ids=["text", "json"])
@pytest.mark.parametrize("value", [True, 1.0, "1_0", "\u0661"])
def test_term_coefficients_are_checked_behind_the_cache(first, value):
    """A coefficient that equals a cached one as a JSON value, or looks like
    it, is still refused."""
    doc = json.loads(emit(oriental(2)))
    terms = doc["differential"][-1]["terms"]
    terms[0]["coeff"], terms[1]["coeff"] = first, value
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc))
    assert str(err.value) == f"bad integer {value!r} in terms"


def test_term_generators_are_checked_behind_the_cache():
    doc = json.loads(emit(oriental(1)))
    terms = doc["differential"][0]["terms"]
    terms[0]["generator"], terms[1]["generator"] = "1", 1
    with pytest.raises(ParseError) as err:
        parse(json.dumps(doc))
    assert str(err.value) == "generator name must be a string in terms"


def test_zero_coefficients_are_stored_nowhere():
    doc = json.loads(emit(oriental(2)))
    extra = [("2", "0"), ("1", "0"), ("0", 0), ("0", "-0")]  # the second "0" is cached
    for entry, (g, coeff) in zip(doc["differential"], extra):
        entry["terms"].append({"generator": g, "coeff": coeff})
    parsed = parse(json.dumps(doc))
    assert parsed == oriental(2)
    for g, chain in parsed.diff.items():
        assert chain._coeffs == oriental(2).diff[g]._coeffs
        assert 0 not in chain._coeffs.values()


def _shuffled(doc: dict, rng) -> dict:
    """``doc`` with every list the parser reads in any order shuffled."""
    for entry in doc["degrees"]:
        rng.shuffle(entry["generators"])
    for entry in doc["differential"]:
        rng.shuffle(entry["terms"])
    rng.shuffle(doc["differential"])
    rng.shuffle(doc["augmentation"])
    return doc


def test_parse_sorts_bases_listed_out_of_order():
    """A document with every list shuffled parses to the same complex, depth
    and bytes as the document as emitted."""
    import random

    from steinerlab import gray_tensor, suspension

    rng = random.Random(25)
    library = shape_library(big=True)
    values = [*library.values(), gray_tensor(library["cube2"], oriental(2)),
              suspension(library["theta212"])]
    reordered = 0
    for value in values:
        text = emit(value)
        doc = _shuffled(json.loads(text), rng)
        reordered += doc != json.loads(text)
        original, shuffled = parse(text), parse(json.dumps(doc))
        assert shuffled == original == value
        assert emit(shuffled) == emit(original) == text
        assert shuffled._depth == original._depth == value._depth
    assert reordered > len(values) // 2


def test_big_coefficients_survive():
    from steinerlab import BasedComplex, Chain

    big = 10**40
    c = BasedComplex(
        {0: [("x",), ("y",)], 1: [("e",)]},
        {("e",): Chain(0, {("x",): big, ("y",): -big})},
        {("x",): 1, ("y",): 1},
    )
    assert parse(emit(c)) == c
    # above the interpreter's 4300-digit int/str conversion limit
    huge = BasedComplex({0: [("u",)]}, {}, {("u",): 10**5000})
    text = emit(huge)
    assert '"value": "1' + "0" * 5000 + '"' in text
    assert parse(text) == huge
    assert emit(parse(text)) == text


def test_cli_op_on_huge_coefficient(tmp_path, capsys):
    aug = "1" + "0" * 5000
    point = tmp_path / "point.json"
    point.write_text(
        json.dumps(
            {
                "format_version": "steinerlab/1",
                "kind": "complex",
                "degrees": [{"degree": 0, "generators": ["u"]}],
                "differential": [],
                "augmentation": [{"generator": "u", "value": aug}],
            }
        )
    )
    expected = {
        "format_version": "steinerlab/1",
        "kind": "complex",
        "degrees": [
            {"degree": 0, "generators": ["b0", "b1"]},
            {"degree": 1, "generators": ["s.(u)"]},
        ],
        "differential": [
            {
                "generator": "s.(u)",
                "terms": [
                    {"generator": "b0", "coeff": "-" + aug},
                    {"generator": "b1", "coeff": aug},
                ],
            }
        ],
        "augmentation": [
            {"generator": "b0", "value": "1"},
            {"generator": "b1", "value": "1"},
        ],
    }
    assert main(["op", "susp", str(point)]) == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


# -- CLI ---------------------------------------------------------------------


def test_cli_gen_info_round_trip(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["gen", "cube", "3", "--out", str(out)]) == 0
    assert main(["info", str(out)]) == 0
    text = capsys.readouterr().out
    assert "{0: 8, 1: 12, 2: 6, 3: 1}" in text


def test_cli_op_pipeline(tmp_path, capsys):
    a = tmp_path / "a.json"
    assert main(["gen", "oriental", "1", "--out", str(a)]) == 0
    assert main(["op", "join", str(a), "unit"]) == 0
    document = capsys.readouterr().out
    value = parse(document)
    from steinerlab import graded_counts

    assert graded_counts(value) == {0: 3, 1: 3, 2: 1}


def test_cli_verify_retract(capsys):
    assert main(["verify-retract", "xi", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out
    assert main(["verify-retract", "zeta", "2", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


# SHA-256 of the stdout of ``steinerlab suite --json``, the whole acceptance
# report: any change to a check's name, verdict, witness or count shows here.
SUITE_JSON_SHA256 = "6115beee761c926a87d83003e009acfc51c528189147ef0ccd9561b828d67bf1"


def test_cli_suite_json_bytes_are_pinned(capsys):
    assert main(["suite", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SUITE_JSON_SHA256


def test_cli_check_steiner_failure(tmp_path, capsys):
    from steinerlab.acceptance import fixture_loop

    bad = tmp_path / "loop.json"
    bad.write_text(emit(fixture_loop()))
    code = main(["check", "steiner", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "STRONGLY_LOOPFREE" in out and "<=" in out


def test_cli_check_decompositions(capsys):
    assert main(["check", "boundary-decomp", "oriental", "3"]) == 0
    assert main(["check", "top-cell", "cube", "2"]) == 0
    capsys.readouterr()


def test_cli_check_identities(capsys):
    assert main(["check", "identities", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


@pytest.mark.parametrize("params", [["foo", "bar"], ["cube:2"]], ids=["two", "one"])
def test_cli_check_identities_takes_no_inputs(params, capsys):
    assert main(["check", "identities", *params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: check identities takes no inputs\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("gen cube", "gen cube takes one dimension parameter"),
        ("gen oriental 1 2", "gen oriental takes one dimension parameter"),
        ("gen theta", "gen theta takes a comma-separated dims list"),
        ("gen theta 1 2", "gen theta takes a comma-separated dims list"),
        ("gen wedge interval 1 interval", "gen wedge takes: complex_a gen_a complex_b gen_b"),
        ("gen pyramid 3", "unknown shape 'pyramid'"),
        ("op tensor cube:1", "op tensor takes two inputs"),
        ("op join unit unit unit", "op join takes two inputs"),
        ("op susp", "op susp takes one input"),
        ("op coop unit unit", "op coop takes one input"),
        ("op nonsense unit", "unknown operation 'nonsense'"),
        ("check steiner", "check steiner takes one complex input"),
        ("check steiner unit unit", "check steiner takes one complex input"),
        ("check boundary-decomp cube", "check boundary-decomp takes: <cube|oriental> <n>"),
        ("check top-cell pyramid 3", "check top-cell takes: <cube|oriental> <n>"),
        ("check top-cell cube 2 3", "check top-cell takes: <cube|oriental> <n>"),
        ("check nosuch", "unknown suite 'nosuch'"),
        ("verify-retract xi", "verify-retract xi takes one dimension"),
        ("verify-retract q-cube 1 2", "verify-retract q-cube takes one dimension"),
        ("verify-retract zeta 2", "verify-retract zeta takes two dimensions"),
        ("verify-retract theta", "verify-retract theta takes a dims list"),
        ("verify-retract nosuch 1", "unknown retraction 'nosuch'"),
    ],
)
def test_cli_usage_refusals_are_pinned(argv, message, capsys):
    """Each argument-count and unknown-kind refusal (``check identities`` is
    pinned above): its exact stderr line, exit 2 and nothing on stdout."""
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_cli_gen_wedge(capsys):
    assert main(["gen", "wedge", "interval", "1", "interval", "0"]) == 0
    from steinerlab import graded_counts

    value = parse(capsys.readouterr().out)
    assert graded_counts(value) == {0: 3, 1: 2}


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["gen", "disk"]) == 2
    assert main(["op", "nonsense", "unit"]) == 2
    assert main(["check", "boundary-decomp", "pyramid", "3"]) == 2
    assert main(["info", "/does/not/exist.json"]) == 2
    assert main(["gen", "theta", "2,2", "--glue", "1", "--sides", "xx"]) == 2
    assert main(["gen", "cube", "x"]) == 2
    assert main(["info", "cube:x"]) == 2
    capsys.readouterr()
    assert main(["info", str(tmp_path)]) == 2
    assert "error [IO_ERROR]" in capsys.readouterr().err
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"kind": "complex", "note": "\xff"}')
    assert main(["info", str(not_utf8)]) == 2
    assert "error [IO_ERROR]" in capsys.readouterr().err
    huge_degree = tmp_path / "huge_degree.json"
    huge_degree.write_text('{"kind": "complex", "degrees": [{"degree": 1' + "0" * 5000 + "}]}")
    assert main(["info", str(huge_degree)]) == 2
    assert "error [PARSE_ERROR]" in capsys.readouterr().err
    huge_degree.write_text(
        json.dumps({"format_version": "steinerlab/1", "kind": "complex",
                    "degrees": [{"degree": "1" + "0" * 5000, "generators": []}]})
    )
    assert main(["info", str(huge_degree)]) == 2
    assert "error [PARSE_ERROR]" in capsys.readouterr().err
    wrong_type = tmp_path / "wrong_type.json"
    for doc, message in _wrong_json_types():
        wrong_type.write_text(json.dumps(doc))
        assert main(["info", str(wrong_type)]) == 2, message
        assert capsys.readouterr().err == f"error [PARSE_ERROR]: {message}\n"


def test_cli_rejects_deep_json_nesting(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["info", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err == "error [PARSE_ERROR]: invalid JSON: arrays or objects nested too deeply\n"


def test_cli_rejects_deeply_nested_name(tmp_path, capsys):
    from steinerlab import unit

    name = "(" * 5000 + "a" + ")" * 5000
    deep = tmp_path / "deep_name.json"
    deep.write_text(emit(unit()).replace('"u"', json.dumps(name)))
    assert main(["info", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [PARSE_ERROR]: bad generator name in degree 0: name nested")


def test_cli_refuses_names_past_the_depth_bound(tmp_path, capsys):
    from steinerlab import unit

    name = "(" * 600 + "a" + ")" * 600
    deep = tmp_path / "deep600.json"
    deep.write_text(emit(unit()).replace('"u"', json.dumps(name)))
    assert main(["info", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [PARSE_ERROR]: bad generator name in degree 0: name nested")
    for argv in (["gen", "disk", "1200"], ["gen", "boundary-disk", "1200"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error [NAME_DEPTH]: disk dimension 1200 ")


@pytest.mark.parametrize(
    "argv, good",
    [
        (["atoms", "cube:2", "--gen", "{}"], "ii"),
        (["gen", "wedge", "disk:1", "{}", "disk:1", "b0"], "b1"),
    ],
    ids=["atoms --gen", "gen wedge"],
)
def test_cli_name_arguments(argv, good, capsys):
    """A malformed name argument is a usage error; an over-deep one keeps its code."""
    assert main([a.format("a.(") for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: bad generator name 'a.(': ")
    deep = "(" * 600 + "a" + ")" * 600
    assert main([a.format(deep) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [NAME_DEPTH]: name nested 493 levels deep")
    assert main([a.format(good) for a in argv]) == 0
    capsys.readouterr()


_HASH_SEED_COMMANDS = [
    "suite --json",
    "check steiner cube:4",
    "atoms --json oriental:3",
    "gen theta 2,1,2 --glue 1,1",
    "check --json boundary-decomp cube 4",
    "op tensor cube:2 oriental:3",
    "op join oriental:2 disk:2",
    "gen disk 40",
    "gen disk 300",
    "gen boundary-disk 300",
    "info --json oriental:4",
    "verify-retract xi 3",
    "verify-retract ell 3",
    "verify-retract xi 4 --json",
    "verify-retract q-cube 4 --json",
    "gen wedge oriental:2 2 cube:2 00",
    "verify-retract theta 2,1,2 --glue 1,1 --json",
    "verify-retract theta 3,3,3,3 --glue 0,2,1 --json",
    "gen theta 2,2 --glue 1 --sides st",
    "gen theta " + ",".join(["1"] * 100) + " --glue " + ",".join(["0"] * 99),
    "check steiner oriental:7",
    "check --json steiner antioriental:5",
    "atoms --json cube:3",
    "op susp cube:3",
    "op antijoin oriental:2 cube:2",
]


def test_cli_stdout_does_not_depend_on_hash_seed():
    """Set iteration order follows the hash seed; no stdout byte may.  Each
    command's two seeds run side by side."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for command in _HASH_SEED_COMMANDS:
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "steinerlab.cli", *command.split()],
                env={**env, "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for seed in ("0", "1")
        ]
        outs = [run.communicate() for run in runs]
        assert [run.returncode for run in runs] == [0, 0], (command, outs[0][1])
        assert outs[0][0] == outs[1][0], command


def _wrong_json_types():
    """Documents with a JSON value of the wrong type, each with its parse error."""
    from steinerlab import interval

    def edit(value, change):
        doc = json.loads(emit(value))
        change(doc)
        return doc

    empty = {"format_version": "steinerlab/1", "kind": "complex",
             "differential": [], "augmentation": []}
    return [
        ({**empty, "degrees": [5]}, "expected a JSON object in degrees"),
        ({**empty, "degrees": 5}, "'degrees' in document must be a JSON array"),
        # read loosely, each of the next three would be interval() itself
        (edit(interval(), lambda d: d["degrees"][1].update(degree=True)),
         "bad integer True in degrees"),
        (edit(interval(), lambda d: d["degrees"][0].update(degree=0.9)),
         "bad integer 0.9 in degrees"),
        (edit(interval(), lambda d: d["degrees"][0].update(generators="01")),
         "'generators' in degrees must be a JSON array"),
        (edit(interval(), lambda d: d["differential"][0]["terms"].__setitem__(0, 7)),
         "expected a JSON object in terms"),
        (edit(interval(), lambda d: d["differential"][0].update(terms=5)),
         "'terms' in differential must be a JSON array"),
        (edit(s2(), lambda d: d.update(source=5)), "expected a JSON object in document"),
    ]


def test_cli_refuses_oversized_results_before_building(capsys):
    # 3**40 cube words and 6561**2 tensor pairs: refused from their counts
    for argv in (["gen", "cube", "40"], ["op", "tensor", "cube:8", "cube:8"]):
        assert main(argv) == 2
        assert "error [SIZE_LIMIT]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # totals of more than 4300 digits, which plain int formatting refuses
        ["gen", "cube", "10000"],
        ["gen", "oriental", "20000"],
        ["verify-retract", "q-cube", "10000"],
        # dimensions deeper than the interpreter's recursion limit
        ["verify-retract", "xi", "2000"],
        ["verify-retract", "ell", "5000"],
        # dimensions whose counts alone would take seconds to compute and print
        ["gen", "cube", "20000000"],
        ["gen", "oriental", "20000000"],
        ["verify-retract", "xi", "20000000"],
        ["verify-retract", "q-cube", "20000000"],
        ["verify-retract", "ell", "20000000"],
        ["check", "boundary-decomp", "cube", "20000000"],
        # the 491-disk sits in oriental(491), a count of 149 digits
        ["verify-retract", "theta", "491"],
        ["verify-retract", "theta", "16"],
    ],
)
def test_cli_refuses_huge_dimensions_by_size(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [SIZE_LIMIT]: complex with ")
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize(
    "argv, count",
    [
        # the face coproduct, 2n 3^(n-1), past the limit while cube(9) is not
        (["check", "boundary-decomp", "cube", "9"], 118098),
        # the target cube(11), past the limit while the suspended cube(10) is not
        (["verify-retract", "q-cube", "10"], 177147),
    ],
)
def test_cli_refuses_cube_pipelines_by_count(argv, count, monkeypatch, capsys):
    from steinerlab import core, shapes

    def refuse(*args):
        raise AssertionError("built a coproduct")

    monkeypatch.setattr(core, "coproduct", refuse)
    monkeypatch.setattr(shapes, "coproduct", refuse)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        f"error [SIZE_LIMIT]: complex with {count} generators exceeds"
        " STEINERLAB_MAX_GENERATORS\n"
    )


@pytest.mark.parametrize(
    "argv, count, smaller",
    [
        # the target cube(11) before the oriental(11) it sections
        (["verify-retract", "xi", "11"], 177147, "oriental"),
        # oriental(17) before the wedge of oriental(10) and oriental(7)
        (["verify-retract", "zeta", "10", "7"], 262143, "_oriental_wedge"),
    ],
)
def test_cli_refuses_retract_targets_first(argv, count, smaller, monkeypatch, capsys):
    from steinerlab import retract

    def refuse(*args):
        raise AssertionError("built the smaller complex first")

    monkeypatch.setattr(retract, smaller, refuse)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        f"error [SIZE_LIMIT]: complex with {count} generators exceeds"
        " STEINERLAB_MAX_GENERATORS\n"
    )


def test_cli_refuses_a_missing_differential(tmp_path, capsys):
    doc = json.loads(emit(oriental(2)))
    doc["differential"] = []
    path = tmp_path / "no_differential.json"
    path.write_text(json.dumps(doc))
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error [PARSE_ERROR]: structurally malformed complex:"
        " missing differential for 0.1\n"
    )


@pytest.mark.parametrize(
    "extra_degrees, generator, message",
    [
        ([], "0", "differential on degree-0 generator 0"),
        ([{"degree": -1, "generators": ["m"]}], "m", "negative degree -1"),
    ],
    ids=["vertex", "degree -1"],
)
def test_cli_refuses_a_differential_below_degree_one(
    extra_degrees, generator, message, tmp_path, capsys
):
    """The parser leaves such a differential to ``BasedComplex``, whose
    structural refusal it reports."""
    from steinerlab import interval

    doc = json.loads(emit(interval()))
    doc["degrees"] += extra_degrees
    doc["differential"].append({"generator": generator, "terms": []})
    path = tmp_path / "low_differential.json"
    path.write_text(json.dumps(doc))
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error [PARSE_ERROR]: structurally malformed complex: {message}\n"
    )


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["gen", "cube", "1_0"], "dimension must be integers, got '1_0'"),
        (["gen", "oriental", "\u0663"], "dimension must be integers, got '\u0663'"),
        (["info", "cube: 2"], "bad shape parameter in 'cube: 2'"),
        (["gen", "theta", "2,2", "--glue", " 1"], "glue must be integers, got ' 1'"),
        (["verify-retract", "zeta", "1", "2 "], "dimensions must be integers, got '2 '"),
        (["gen", "cube", "1" * 5000], "dimension must be integers, got '" + "1" * 40 + "'..."),
        (["info", "cube:" + "1" * 5000], "bad shape parameter in 'cube:" + "1" * 35 + "'..."),
    ],
    ids=["underscore", "arabic-indic digit", "space in shape", "space in glue",
         "space in zeta", "5000 digits", "5000-digit shape"],
)
def test_cli_integers_follow_the_document_grammar(argv, shown, capsys):
    """Integer arguments are read as document integers are (an optional sign
    and ASCII digits, at most 4000 of them); an error quotes at most 40
    characters of the argument."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {shown}\n"
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize(
    "family, n, shape, faces, doubles",
    [
        ("cube", 5, 243, 810, 1080),
        ("oriental", 4, 31, 75, 70),
        ("oriental", 6, 127, 441, 651),
    ],
)
def test_boundary_decomposition_counts_its_coproducts(
    family, n, shape, faces, doubles, monkeypatch, capsys
):
    """The closed-form counts are the built sizes, the largest is the limit
    at which the check still runs, and one less refuses it unbuilt."""
    from steinerlab import shapes
    from steinerlab.core import coproduct

    built = []

    def recording(parts):
        built.append(coproduct(parts))
        return built[-1]

    monkeypatch.setattr(shapes, "coproduct", recording)
    largest = max(shape, faces, doubles)
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", str(largest))
    assert main(["check", "boundary-decomp", family, str(n)]) == 0
    assert [c.size for c in built] == [faces, doubles]
    assert capsys.readouterr().out.splitlines()[-1] == "PASSED"
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", str(largest - 1))
    monkeypatch.setattr(shapes, "coproduct", None)  # refused before it is called
    assert main(["check", "boundary-decomp", family, str(n)]) == 2
    assert capsys.readouterr().err == (
        f"error [SIZE_LIMIT]: complex with {largest} generators exceeds"
        " STEINERLAB_MAX_GENERATORS\n"
    )


def test_cli_verify_retract_theta_of_many_disks(monkeypatch, capsys):
    """A spec of 1500 disks glued at one level is folded, not recursed on."""
    dims = ",".join(["0"] * 1500)
    glue = ",".join(["0"] * 1499)
    assert main(["verify-retract", "theta", dims, "--glue", glue]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASSED"
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "2000")
    assert main(["verify-retract", "theta", dims.replace("0", "1"), "--glue", glue]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [SIZE_LIMIT]: complex with ")


@pytest.mark.parametrize("count", [492, 5000])
def test_cli_gen_theta_refuses_deep_names(count, capsys):
    """Disk 0 of ``count`` one-disks would nest its edge ``count + 1`` deep."""
    dims = ",".join(["1"] * count)
    glue = ",".join(["0"] * (count - 1))
    assert main(["gen", "theta", dims, "--glue", glue]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error [NAME_DEPTH]: name nested 493 levels deep, past the bound of 492\n"
    )


def test_cli_gen_theta_counts_the_glued_complex(monkeypatch, capsys):
    """30 one-disks glued at vertices have 61 generators; the limit is
    checked on that count, not on a larger intermediate complex."""
    dims, glue = ",".join(["1"] * 30), ",".join(["0"] * 29)
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "61")
    assert main(["gen", "theta", dims, "--glue", glue]) == 0
    assert parse(capsys.readouterr().out).size == 61
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "60")
    assert main(["gen", "theta", dims, "--glue", glue]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error [SIZE_LIMIT]: complex with 61 generators exceeds"
        " STEINERLAB_MAX_GENERATORS\n"
    )


def test_cli_theta_glue_and_sides(capsys):
    from steinerlab import graded_counts

    assert main(["gen", "theta", "2,2", "--glue", "1", "--sides", "st"]) == 0
    value = parse(capsys.readouterr().out)
    assert graded_counts(value) == {0: 2, 1: 3, 2: 2}
    assert main(["verify-retract", "theta", "2,1,2", "--glue", "1,1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASSED"


def test_cli_atoms(capsys):
    assert main(["atoms", "oriental:2", "--gen", "0.1.2"]) == 0
    out = capsys.readouterr().out
    assert "minus[1] = 0.2" in out
    assert "plus[1] = 0.1 + 1.2" in out


def test_cli_gen_deterministic(capsys):
    assert main(["gen", "oriental", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "oriental", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-retract", "xi", "-1"],
        ["verify-retract", "ell", "-1"],
        ["verify-retract", "q-cube", "-1"],
        ["verify-retract", "zeta", "-1", "1"],
        ["verify-retract", "theta", "-1"],
        ["verify-retract", "theta", "2,-1", "--glue", "0"],
        ["gen", "theta", "-1"],
    ],
)
def test_cli_negative_dimensions_are_bad_dims(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [BAD_DIMS]: ")


def test_cli_gen_theta_negative_keeps_its_message(capsys):
    assert main(["gen", "theta", "-1"]) == 2
    assert capsys.readouterr().err == (
        "error [BAD_DIMS]: disk dimension must be >= 0, got -1\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-retract", "ell", "-5"], "oriental dimension must be >= 0, got -5"),
        (["verify-retract", "q-cube", "-2"], "cube dimension must be >= 0, got -2"),
    ],
)
def test_cli_negative_section_dimension_names_itself(argv, message, capsys):
    """A section's negative dimension is refused as itself, not as its
    target's dimension n+1."""
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error [BAD_DIMS]: {message}\n"


_HUGE = "1" * 3000  # a 3000-digit argument: 9962 bits


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "disk", _HUGE],
         "error [NAME_DEPTH]: disk dimension at least 2**9962 needs names nested"
         " at least 2**9962 levels deep, past the bound of 492"),
        (["gen", "cube", _HUGE],
         "error [SIZE_LIMIT]: complex with at least 2**at least 2**9962 generators"
         " exceeds STEINERLAB_MAX_GENERATORS"),
        (["gen", "cube", "-" + _HUGE],
         "error [BAD_DIMS]: cube dimension must be >= 0, got at most -2**9962"),
        (["gen", "theta", "1,1", "--glue", _HUGE],
         "error [BAD_DIMS]: glue dimension at least 2**9962 exceeds adjacent disks 1, 1"),
        (["verify-retract", "zeta", "-" + _HUGE, "1"],
         "error [BAD_DIMS]: oriental dimension must be >= 0, got at most -2**9962"),
        (["info", "r" * 3000],
         "error [IO_ERROR]: [Errno 36] File name too long: '" + "r" * 40 + "'..."),
        (["check", "c" * 3000], "usage error: unknown suite '" + "c" * 40 + "'..."),
        (["verify-retract", "k" * 3000, "2"],
         "usage error: unknown retraction '" + "k" * 40 + "'..."),
    ],
    ids=["disk", "cube", "negative cube", "theta glue", "negative zeta", "long reference",
         "long suite", "long retraction"],
)
def test_cli_refusals_show_huge_arguments_briefly(argv, message, capsys):
    """A refusal shows an integer past 100 bits by its leading power of two
    and a string by its first 40 characters."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
    assert len(captured.err.encode()) < 200


def test_cli_refuses_a_long_generator_limit_briefly(monkeypatch, capsys):
    monkeypatch.setenv("STEINERLAB_MAX_GENERATORS", "9" * 2999 + "x")
    assert main(["info", "cube:2"]) == 2
    assert capsys.readouterr().err == (
        "error [SIZE_LIMIT]: bad STEINERLAB_MAX_GENERATORS value '" + "9" * 40 + "'...\n"
    )


def _interval_doc(change) -> str:
    from steinerlab import interval

    doc = json.loads(emit(interval()))
    change(doc)
    return json.dumps(doc)


_LONG = "x" * 5000


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d["differential"][0]["terms"][0].update(coeff=_LONG),
         "bad integer '" + "x" * 40 + "'... in terms"),
        (lambda d: d["differential"][0]["terms"][0].update(coeff=list(range(3000))),
         "bad integer [0, 1, 2, 3, 4, 5, ...] in terms"),
        (lambda d: d.update(format_version=_LONG),
         "unsupported format version '" + "x" * 40 + "'..."),
        (lambda d: d.update(kind=_LONG), "unknown document kind '" + "x" * 40 + "'..."),
        (lambda d: d["differential"][0].update(generator=_LONG),
         "differential on unknown generator " + "x" * 40 + "..."),
        (lambda d: d["degrees"][0]["generators"].append(_LONG + ")"),
         "bad generator name in degree 0: trailing characters in name '"
         + "x" * 40 + "'..."),
        (lambda d: d["degrees"][0].update(degree="-" + "1" * 3999),
         "structurally malformed complex: negative degree at most -2**13281"),
    ],
    ids=["coeff", "coeff list", "format_version", "kind", "name", "bad name",
         "3999-digit degree"],
)
def test_cli_refusals_show_long_document_values_briefly(change, message, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(_interval_doc(change))
    assert main(["info", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error [PARSE_ERROR]: {message}\n"
    assert len(captured.err.encode()) < 200


def test_cli_shows_a_name_with_a_line_break_on_one_line(tmp_path, capsys):
    path = tmp_path / "stray.json"
    path.write_text(_interval_doc(
        lambda d: d["differential"][0]["terms"][0].update(generator="x\ny")))
    assert main(["info", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err == (
        "error [PARSE_ERROR]: structurally malformed complex:"
        " differential of i has stray term x\\ny\n"
    )


def _rename_vertex_zero(doc):
    doc["degrees"][0]["generators"][0] = "x\ny"
    doc["differential"][0]["terms"][0]["generator"] = "x\ny"
    doc["augmentation"][0]["generator"] = "x\ny"


def test_cli_text_output_keeps_a_name_with_a_line_break_on_its_line(tmp_path, capsys):
    """Text output escapes the line break; ``--json`` writes the name as it is."""
    path = tmp_path / "renamed.json"
    path.write_text(_interval_doc(_rename_vertex_zero))
    assert main(["atoms", str(path)]) == 0
    assert capsys.readouterr().out == (
        "atom 1 (dim 0)\n  minus[0] = 1\n  plus[0] = 1\n"
        "atom x\\ny (dim 0)\n  minus[0] = x\\ny\n  plus[0] = x\\ny\n"
        "atom i (dim 1)\n  minus[0] = x\\ny\n  minus[1] = i\n  plus[0] = 1\n  plus[1] = i\n"
    )
    assert main(["atoms", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)[1]["generator"] == "x\ny"


def test_cli_report_shows_a_witness_with_a_line_break_on_its_line(tmp_path, capsys):
    from steinerlab.acceptance import fixture_loop

    path = tmp_path / "loop.json"
    path.write_text(emit(fixture_loop()).replace('"e"', '"a\\nb"'))
    assert main(["check", "steiner", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-2:] == [
        "FAIL  STRONGLY_LOOPFREE  [a\\nb <= y <= f <= x <= a\\nb]", "FAILED"
    ]
    assert out.count("\n") == 7


def test_a_failing_document_shows_its_witness_as_a_name():
    from steinerlab.acceptance import fixture_broken_d2

    with pytest.raises(ValidationError) as err:
        parse(emit(fixture_broken_d2()))
    assert str(err.value) == "complex fails D2_ZERO at c"


@pytest.mark.parametrize(
    "text, message",
    [
        (_interval_doc(lambda d: d.pop("augmentation")), "missing 'augmentation' in document"),
        (_interval_doc(lambda d: d["degrees"][0]["generators"].__setitem__(0, 5)),
         "generator name must be a string in degree 0"),
        (_interval_doc(lambda d: d.update(format_version="steinerlab/2")),
         "unsupported format version 'steinerlab/2'"),
        ("[1, 2]", "document must be a JSON object"),
        (_interval_doc(lambda d: d.update(kind="graph")), "unknown document kind 'graph'"),
    ],
    ids=["missing key", "non-string name", "format version", "not an object", "kind"],
)
def test_parse_refusals_are_coded(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.code, str(err.value)) == ("PARSE_ERROR", message)


@pytest.mark.parametrize(
    "change, error, message",
    [
        (lambda a: a.append({"generator": "zz", "terms": []}), ParseError,
         "assignment on unknown generator zz"),
        (lambda a: a.pop(), ParseError,
         "structurally malformed map: no assignment for generator 0.1.2"),
        # 0 -> 2*00 breaks the chain rule first at the edge 0.1
        (lambda a: a[0]["terms"][0].update(coeff="2"), ValidationError,
         "map fails CHAIN_RULE at 0.1"),
    ],
    ids=["unknown generator", "missing assignment", "chain rule"],
)
def test_parse_refuses_bad_maps(change, error, message):
    doc = json.loads(emit(s2()))
    change(doc["assignment"])
    with pytest.raises(error) as err:
        parse(json.dumps(doc))
    assert str(err.value) == message
    assert err.value.code == error.code


def _far_degree_doc(degree: int) -> str:
    """A vertex ``v`` and a generator ``e`` of ``degree`` with ``d(e) = 0``: a
    valid complex, not unital at ``e``."""
    doc = json.loads(emit(BasedComplex({0: [("v",)], 2: [("e",)]}, {("e",): Chain(1)},
                                       {("v",): 1})))
    doc["degrees"][1]["degree"] = degree
    return json.dumps(doc)


def test_cli_walks_no_degree_below_an_empty_part(tmp_path, capsys):
    """``check steiner`` stops the unitality walk at ``e``'s empty boundary,
    and ``atoms`` refuses a table of more levels than the generator limit."""
    path = tmp_path / "far.json"
    path.write_text(_far_degree_doc(10**50))
    start = time.perf_counter()
    assert main(["check", "steiner", str(path)]) == 1
    assert time.perf_counter() - start < 1
    assert "FAIL  UNITALITY  [e]\n" in capsys.readouterr().out
    assert main(["atoms", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error [SIZE_LIMIT]: atom table of at least 2**166 levels exceeds"
        " STEINERLAB_MAX_GENERATORS\n"
    )
