from hypothesis import given, strategies as st

from steinerlab.names import name_key, parse_name, render_name

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
