import pytest
from hypothesis import given, strategies as st

from steinerlab import BasedComplex, Chain, NameDepthError, emit, parse
from steinerlab.names import MAX_NAME_DEPTH, check_name, name_key, parse_name, render_name

atoms = st.text(
    alphabet=st.sampled_from("01iubsjwlrx2345"), min_size=1, max_size=4
)
names = st.recursive(
    st.tuples(atoms),
    lambda children: st.lists(st.one_of(atoms, children), min_size=1, max_size=4).map(
        tuple
    ),
    max_leaves=8,
)


@given(names)
def test_render_parse_round_trip(name):
    assert parse_name(render_name(name)) == name


@given(names, names)
def test_name_key_total_order(a, b):
    ka, kb = name_key(a), name_key(b)
    assert (ka == kb) == (a == b)
    assert (ka < kb) or (kb < ka) or (ka == kb)


def _pair_key(name):
    """The key as nested ``(tag, key)`` pairs: two tuple levels a name level."""
    return tuple(("a", p) if isinstance(p, str) else ("t", _pair_key(p)) for p in name)


@given(names, names)
def test_name_key_orders_like_pair_key(a, b):
    assert (name_key(a) < name_key(b)) == (_pair_key(a) < _pair_key(b))


def _nested(atom: str, depth: int):
    name = (atom,)
    for _ in range(depth - 1):
        name = ("s", name)
    return name


def _at_stack_depth(frames, fn):
    return fn() if frames == 0 else _at_stack_depth(frames - 1, fn)


def test_names_at_the_depth_bound_leave_stack_to_callers():
    # Two names as deep as allowed, equal down to the last atom, so sorting
    # and comparing them walks every level; run 400 frames down the stack.
    low, high = _nested("a", MAX_NAME_DEPTH), _nested("b", MAX_NAME_DEPTH)

    def round_trip():
        c = BasedComplex({0: [high, low]}, {}, {low: 1, high: 1})
        assert c.generators(0) == (low, high)
        text = emit(c)
        assert parse(text) == c and emit(parse(text)) == text
        assert parse_name(render_name(high)) == high

    _at_stack_depth(400, round_trip)


def test_names_past_the_depth_bound_are_refused():
    too_deep = _nested("a", MAX_NAME_DEPTH + 1)
    with pytest.raises(NameDepthError) as exc:
        check_name(too_deep)
    assert exc.value.code == "NAME_DEPTH"
    with pytest.raises(ValueError, match="name nested"):
        parse_name(render_name(too_deep))
    assert check_name(_nested("a", MAX_NAME_DEPTH)) == _nested("a", MAX_NAME_DEPTH)


def test_render_examples():
    assert render_name(("0", "2", "3")) == "0.2.3"
    assert render_name(("j", ("0", "1"), ("u",))) == "j.(0.1).(u)"
    assert parse_name("s.(b0)") == ("s", ("b0",))


def test_parse_rejects_garbage():
    # the last is nested past the interpreter's recursion limit
    for bad in ["", "a..b", "(", "a.(b", "a)b", "a.", "(" * 5000 + "a" + ")" * 5000]:
        try:
            parse_name(bad)
        except ValueError:
            continue
        raise AssertionError(f"{bad!r} should not parse")


@pytest.mark.parametrize(
    "value, text",
    [
        ("a.(", "'a.('"),
        ("x" * 40, "'" + "x" * 40 + "'"),
        ("x" * 41, "'" + "x" * 40 + "'..."),
        (("j", ("0", "1")), "j.(0.1)"),
        (("a" * 50,), "a" * 40 + "..."),
        (-7, "-7"),
        (True, "True"),
        (2**100 - 1, str(2**100 - 1)),
        (2**100, "at least 2**100"),
        (-(10**3000), "at most -2**9965"),
        (0.5, "0.5"),
        (None, "None"),
        (list(range(3000)), "[0, 1, 2, 3, 4, 5, ...]"),
        ({"k": [[[[[[[[1]]]]]]]]}, "{'k': [[[[[[...]]]]]]}"),
        ("\\" * 40, repr("\\" * 40)),
        ("\x00" * 50, "'" + "\\x00" * 20 + "\\..."),
        ("\U0001F600" * 50, "'" + "\U0001F600" * 20 + "..."),
        (("\U0001F600" * 50,), "\U0001F600" * 10 + "..."),
        (("é" * 50,), "é" * 20 + "..."),
        (("\ud800" * 50,), "\\ud800" * 6 + "\\ud8..."),
    ],
    ids=["string", "40 characters", "41 characters", "name", "long name", "integer",
         "boolean", "100 bits", "101 bits", "-3000 digits", "float", "null",
         "long list", "deep object", "40 backslashes", "escaped", "wide string",
         "wide name", "two-byte name", "lone surrogates"],
)
def test_shown_bounds_every_value(value, text):
    """A string is quoted and cut to 40 characters, a name rendered and cut,
    an integer past 100 bits shown by its leading power of two, and any other
    value by a bounded ``repr``.  Past printable ASCII the text is cut to 40
    bytes as a stream writes them, 82 for a quoted string, then "..."."""
    from steinerlab.names import shown

    assert shown(value) == text


@pytest.mark.parametrize(
    "name, text",
    [
        (("x\ny",), "x\\ny"),
        (("a\x00", ("\t",)), "a\\x00.(\\t)"),
        (("\u2028" * 30,), "\\u2028" * 6 + "\\u20..."),
        (("a'b\\c", "é"), "a'b\\c.é"),
    ],
    ids=["line break", "control characters", "long escapes", "printable"],
)
def test_shown_escapes_what_a_name_cannot_print(name, text):
    """A name's non-printable characters are written as ``repr`` escapes
    them, so a message keeps to one line; printable text is unchanged."""
    from steinerlab.names import shown

    assert shown(name) == text


def test_parse_errors_quote_at_most_40_characters():
    with pytest.raises(ValueError) as err:
        parse_name("a" * 3000 + ")")
    assert str(err.value) == "trailing characters in name '" + "a" * 40 + "'..."
