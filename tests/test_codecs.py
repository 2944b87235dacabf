import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locic.codecs import CodecError, parse_codec, parse_shape, shape_id


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


def test_unknown_codec_id():
    with pytest.raises(CodecError):
        parse_codec("Float")
    with pytest.raises(CodecError):
        parse_codec("(Int)")
    with pytest.raises(CodecError):
        parse_codec(3)


def test_shape_id_round_trip():
    for codec_id in ("Int", "Bool", "Str", "Unit", "(Int, Str)", "((Int, Int), (Str, Bool))"):
        assert shape_id(parse_shape(codec_id)) == codec_id


def test_builtin_codecs():
    for codec_id in ("Int", "Bool", "Str", "Unit"):
        assert parse_codec(codec_id).id == codec_id
    # an id is normalized to the form shape_id writes
    assert parse_codec("( Int,Str)").id == "(Int, Str)"


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
