import json
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from locic import ast
from locic.codecs import Codec, CodecError, decode_json, encode_json, parse_codec
from locic.checker import codec_of


def test_int_codec_examples():
    c = parse_codec("Int")
    assert c.serialize(42) == b"42"
    assert c.deserialize(b"42") == 42
    assert c.deserialize(c.serialize(-7)) == -7


def test_tuple_codec_example():
    c = parse_codec("(Int, Str)")
    assert c.serialize((1, "a")) == b'[1,"a"]'
    assert c.deserialize(b'[1,"a"]') == (1, "a")


def test_unit_and_bool_codecs():
    assert parse_codec("Unit").serialize(None) == b"null"
    assert parse_codec("Unit").deserialize(b"null") is None
    assert parse_codec("Bool").serialize(True) == b"true"
    assert parse_codec("Bool").deserialize(b"false") is False


def test_nested_tuple_codec():
    c = parse_codec("((Int, Str), Bool)")
    value = ((3, "x"), True)
    assert c.deserialize(c.serialize(value)) == value


def test_type_mismatch_is_decode_error():
    with pytest.raises(CodecError):
        parse_codec("Int").deserialize(b"true")
    with pytest.raises(CodecError):
        parse_codec("Bool").deserialize(b"1")
    with pytest.raises(CodecError):
        parse_codec("Str").deserialize(b"[]")
    with pytest.raises(CodecError):
        parse_codec("(Int, Str)").deserialize(b"[1]")


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("leaf, good, bad", [("Int", b"1", b"true"), ("Bool", b"true", b"1")])
def test_reader_refuses_bools_for_ints_and_ints_for_bools_at_every_depth(depth, leaf, good, bad):
    codec_id, wrap = leaf, b"%s"
    for level in range(depth):  # the leaf sits first, then last, in each tuple
        codec_id = f"({codec_id}, Str)" if level % 2 else f"(Unit, {codec_id})"
        wrap = (b'[%s,"s"]' if level % 2 else b"[null,%s]").replace(b"%s", wrap)
    c = parse_codec(codec_id)
    assert c.serialize(c.deserialize(wrap % good)) == wrap % good
    with pytest.raises(CodecError, match=f"expected an? {leaf}"):
        c.deserialize(wrap % bad)


def test_lone_surrogates_are_codec_errors():
    with pytest.raises(CodecError, match="cannot serialize"):
        parse_codec("Str").serialize("a\ud800b")
    with pytest.raises(CodecError, match="cannot serialize"):
        parse_codec("(Int, Str)").serialize((1, "\udfff"))
    with pytest.raises(CodecError, match="non-canonical"):
        parse_codec("Str").deserialize(b'"\\ud800"')


def test_an_int_too_long_to_print_is_a_codec_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        with pytest.raises(CodecError, match="cannot serialize"):
            parse_codec("Int").serialize(10**5000)
        with pytest.raises(CodecError, match="invalid encoding"):
            parse_codec("Int").deserialize(b"1" * 5001)
    finally:
        sys.set_int_max_str_digits(limit)


# --- the JSON kernel ---------------------------------------------------------

def _outcome(fn, arg):
    """What `fn(arg)` gives: its result, or the type of what it raised."""
    try:
        return fn(arg)
    except (ValueError, TypeError, RecursionError) as e:
        return type(e)


def _stdlib_dumps(doc):
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False)


# controls, quotes, backslashes, non-ASCII and lone surrogates, among any text
_texts = st.text(st.sampled_from('\x00\x1f\x7f"\\/é☃\U0001F600\ud800\udfff') | st.characters(),
                 max_size=8)
# around the 4,300 digits past which CPython refuses to print an int
_long_ints = st.builds(lambda digits, sign: sign * (10**digits - 1),
                       st.integers(4_295, 4_305), st.sampled_from([1, -1]))
_json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | _long_ints | _texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=12)


_LEAF_CODECS = {int: parse_codec("Int"), str: parse_codec("Str")}


@settings(max_examples=300, deadline=None)
@given(_json_docs)
def test_the_json_kernel_encodes_and_decodes_as_the_stdlib_does(doc):
    text = _outcome(encode_json, doc)
    assert text == _outcome(_stdlib_dumps, doc)
    if isinstance(text, str):
        assert _outcome(decode_json, text) == _outcome(json.loads, text)
    codec = _LEAF_CODECS.get(type(doc))
    if codec is not None:
        # a lone surrogate, or an int too long to print, is a CodecError
        want = _outcome(lambda d: _stdlib_dumps(d).encode("utf-8"), doc)
        try:
            assert codec.serialize(doc) == want
        except CodecError:
            assert not isinstance(want, bytes)


def test_the_json_kernel_fails_on_deep_nesting_as_the_stdlib_does():
    deep = []
    for _ in range(100_000):
        deep = [deep]
    assert _outcome(encode_json, deep) is _outcome(_stdlib_dumps, deep) is RecursionError
    text = "[" * 100_000
    assert _outcome(decode_json, text) is _outcome(json.loads, text) is RecursionError


def test_non_canonical_encodings_rejected():
    with pytest.raises(CodecError):
        parse_codec("Int").deserialize(b" 42")
    with pytest.raises(CodecError):
        parse_codec("Int").deserialize(b"42 ")
    with pytest.raises(CodecError):
        parse_codec("(Int, Str)").deserialize(b'[1, "a"]')  # embedded space


def test_serialize_type_mismatch_raises():
    with pytest.raises(CodecError):
        parse_codec("Int").serialize("nope")
    with pytest.raises(CodecError):
        parse_codec("Int").serialize(True)  # bools are not ints


@pytest.mark.parametrize("codec_id, value, message", [
    ("Int", True, "Int codec cannot serialize True"),
    ("Bool", 1, "Bool codec cannot serialize 1"),
    ("Str", b"x", "Str codec cannot serialize b'x'"),
    ("Unit", 0, "Unit codec cannot serialize 0"),
    ("(Int, Str)", (1,), "(Int, Str) codec cannot serialize (1,)"),
    ("(Int, Str)", [1, "a"], "(Int, Str) codec cannot serialize [1, 'a']"),
    ("(Int, Str)", (1, 2), "Str codec cannot serialize 2"),
    # a refusal inside a tuple names the innermost type that refused
    ("((Int, Str), Bool)", ((1,), True), "(Int, Str) codec cannot serialize (1,)"),
])
def test_writer_refusal_texts(codec_id, value, message):
    with pytest.raises(CodecError, match=f"^{re.escape(message)}$"):
        parse_codec(codec_id).serialize(value)


def test_unknown_codec_id():
    with pytest.raises(CodecError):
        parse_codec("Float")
    with pytest.raises(CodecError):
        parse_codec("(Int)")
    with pytest.raises(CodecError):
        parse_codec(3)


def test_codec_id_round_trip():
    for codec_id in ("Int", "Bool", "Str", "Unit", "(Int, Str)", "((Int, Int), (Str, Bool))"):
        codec = parse_codec(codec_id)
        assert codec.id == str(codec.ty) == codec_id
        assert parse_codec(codec.id) == codec
    assert parse_codec("((Int, Str), Bool)").ty == \
        ast.TTuple((ast.TTuple((ast.INT, ast.STR)), ast.BOOL))


@settings(max_examples=300, deadline=None)
@given(st.one_of(helpers.TYPE_EXPRS, helpers.DATA_TYPE_EXPRS))
def test_a_codec_is_built_from_exactly_the_plain_data_types(ty):
    codec = codec_of(ty)
    # primitives and tuples are the only types whose text has no `[`
    if "[" not in str(ty):
        assert codec == parse_codec(str(ty)) == Codec(ty)
        assert codec.id == str(ty)
    else:
        assert codec is None
        with pytest.raises(CodecError):
            parse_codec(str(ty))


# An id is a type's text in the language's own grammar, but only a data
# type's, and only its one canonical text: another spacing names no codec.
@pytest.mark.parametrize("codec_id", ["Float", "(Int)", "3", "", "Int # c", "Int\n",
                                      "Stream[Int]", "Remote[P]", "Future[Int]",
                                      "(Int,Str)", "( Int , Str )", " Int", "( Int,Str)"])
def test_a_codec_id_that_is_not_a_data_types_text_is_refused(codec_id):
    with pytest.raises(CodecError) as refused:
        parse_codec(codec_id)
    assert str(refused.value) == f"unknown codec '{codec_id}'"


def test_a_codec_id_nested_past_the_type_grammars_limit_is_refused():
    deep = "(Int, " * 300 + "Str" + ")" * 300
    with pytest.raises(CodecError, match="^unknown codec "):
        parse_codec(deep)


def test_builtin_codecs():
    for codec_id in ("Int", "Bool", "Str", "Unit"):
        assert parse_codec(codec_id).id == codec_id


values_by_codec = {
    "Int": st.integers(),
    "Bool": st.booleans(),
    "Str": st.text(),
    "Unit": st.none(),
    "(Int, Str)": st.tuples(st.integers(), st.text()),
    "(Bool, (Int, Int))": st.tuples(st.booleans(), st.tuples(st.integers(), st.integers())),
}


@pytest.mark.parametrize("codec_id", sorted(values_by_codec))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_codec_round_trip(codec_id, data):
    value = data.draw(values_by_codec[codec_id])
    c = parse_codec(codec_id)
    assert c.deserialize(c.serialize(value)) == value


@pytest.mark.parametrize("codec_id", sorted(values_by_codec))
def test_corruption_never_accepted_silently(codec_id):
    rng = random.Random(hash(codec_id) & 0xFFFF)
    c = parse_codec(codec_id)
    samples = [c.serialize(v) for v in _samples(codec_id)]
    for _ in range(300):
        data = bytearray(rng.choice(samples))
        mutation = rng.randrange(3)
        if mutation == 0 and data:
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        elif mutation == 1 and data:
            del data[rng.randrange(len(data))]
        else:
            data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
        try:
            value = c.deserialize(bytes(data))
        except CodecError:
            continue
        # accepted: then the bytes must be exactly the canonical encoding
        assert c.serialize(value) == bytes(data)


def _samples(codec_id):
    return {
        "Int": [0, 42, -123456],
        "Bool": [True, False],
        "Str": ["", "hello", 'quo"te'],
        "Unit": [None],
        "(Int, Str)": [(1, "a"), (-2, "")],
        "(Bool, (Int, Int))": [(True, (1, 2))],
    }[codec_id]


# --- against the reference codec ------------------------------------------------

class _Int(int):
    """An `int` subclass: an Int codec writes it; a reader never makes one."""


_PRIM_VALUES = {"Int": [0, -7, 2**70, _Int(5)], "Bool": [True, False],
                "Str": ["", 'é"\\\n\x00'], "Unit": [None]}
_WRONG_VALUES = [True, 1, "1", None, [1, "a"], (1,), (1, "a", None), b"x"]


def _data_types():
    """Every data type of at most three levels (a primitive is one) whose
    tuples have two items, and every triple of primitives."""
    prims = [ast.TPrim(name) for name in ("Int", "Bool", "Str", "Unit")]
    two_levels = prims + [ast.TTuple((a, b)) for a in prims for b in prims]
    return (prims + [ast.TTuple((a, b)) for a in two_levels for b in two_levels]
            + [ast.TTuple((a, b, c)) for a in prims for b in prims for c in prims])


def _values(ty, k: int) -> list:
    """A few values of `ty`, the k-th of each primitive's samples first."""
    if isinstance(ty, ast.TPrim):
        samples = _PRIM_VALUES[ty.name]
        return samples[k % len(samples):] + samples[:k % len(samples)]
    columns = [_values(item, k + n) for n, item in enumerate(ty.items)]
    return [tuple(column[n % len(column)] for column in columns) for n in range(3)]


def _payloads(good: bytes) -> list[bytes]:
    """Non-canonical, wrong-arity and malformed variants of `good`."""
    text = good.decode("utf-8")
    return [b" " + good, good + b" ", good.replace(b",", b", "), good[:-1], good + b"]",
            b"[" + good + b"]", b"[" + good + b",1]", good.replace(b"[", b"[1,", 1),
            text.replace("é", "\\u00e9").encode(), good.replace(b"0", b"-0"),
            good.replace(b"7", b"7.0"), b"", b"\xff" + good, b"[]", b"{}"]


def _same(fn, reference, arg) -> None:
    """`fn(arg)` and `reference(arg)` return equal values of one shape, or
    refuse with one text."""
    def outcome(f):
        try:
            return "ok", repr(f(arg))
        except CodecError as e:
            return "refused", str(e)
    assert outcome(fn) == outcome(reference), arg


def test_codecs_match_the_reference_codec_on_every_small_data_type():
    types = _data_types()
    canonical = [parse_codec(str(ty)).serialize(_values(ty, 0)[0]) for ty in types[::7]]
    for k, ty in enumerate(types):
        codec = Codec(ty)
        serialize, deserialize = helpers.reference_codec(ty)
        for value in _values(ty, k) + _WRONG_VALUES:
            _same(codec.serialize, serialize, value)
        good = codec.serialize(_values(ty, k)[0])
        for payload in [good] + _payloads(good) + canonical:  # others: mostly wrong types
            _same(codec.deserialize, deserialize, payload)


def test_codecs_match_the_reference_codec_300_levels_deep():
    def nested(leaf):
        ty, value = ast.STR, leaf
        for level in range(300):
            ty = ast.TTuple((ast.INT, ty)) if level % 2 else ast.TTuple((ty, ast.BOOL))
            value = (level, value) if level % 2 else (value, True)
        return ty, value

    ty, value = nested("leaf")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)  # a type's text takes three frames per level
    try:
        codec = Codec(ty)
        serialize, deserialize = helpers.reference_codec(ty)
        good = serialize(value)
        assert codec.serialize(value) == good and codec.deserialize(good) == value
        wrong = good.replace(b'"leaf"', b"1")  # the innermost item refuses
        for payload in [good, wrong, good.replace(b"true", b"1", 1)] + _payloads(good):
            _same(codec.deserialize, deserialize, payload)
        for bad in [value[:1], (value[0], 1), (True, value[1]), nested(1)[1],
                    (_Int(value[0]), value[1])]:  # the last is an Int's value
            _same(codec.serialize, serialize, bad)
    finally:
        sys.setrecursionlimit(limit)
