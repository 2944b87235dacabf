"""Value serialization.

Each codec converts between one value type and its canonical JSON bytes.
Serialization is total for well-typed values; deserialization is strict:
bytes decode successfully only if they are exactly the canonical encoding
of some value of the codec's type, so corrupted input is either rejected
or re-encodes to itself.

A codec's id names its type: `Int`, `Bool`, `Str`, `Unit`, or a tuple such
as `(Int, (Str, Bool))`. `parse_codec` builds the codec an id names. The
splitter builds each access plan's codec once, so nothing looks codecs up
while a peer runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any


class CodecError(Exception):
    pass


# Type shapes: "Int" | "Bool" | "Str" | "Unit" | ("tuple", (shape, ...))
Shape = Any


def shape_id(shape: Shape) -> str:
    if isinstance(shape, str):
        return shape
    tag, items = shape
    return "(" + ", ".join(shape_id(i) for i in items) + ")"


def parse_shape(codec_id: str) -> Shape:
    shape, rest = _parse_shape(codec_id)
    if rest:
        raise CodecError(f"unknown codec '{codec_id}'")
    return shape


def _parse_shape(s: str) -> tuple[Shape, str]:
    s = s.lstrip()
    if s.startswith("("):
        rest = s[1:]
        items = []
        while True:
            item, rest = _parse_shape(rest)
            items.append(item)
            rest = rest.lstrip()
            if rest.startswith(","):
                rest = rest[1:]
                continue
            if rest.startswith(")"):
                if len(items) < 2:
                    raise CodecError(f"malformed tuple codec id near '{s}'")
                return ("tuple", tuple(items)), rest[1:]
            raise CodecError(f"malformed codec id near '{s}'")
    for prim in ("Int", "Bool", "Str", "Unit"):
        if s.startswith(prim):
            return prim, s[len(prim):]
    raise CodecError(f"unknown codec '{s}'")


def _to_json_value(shape: Shape, value: Any) -> Any:
    if shape == "Int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise CodecError(f"Int codec cannot serialize {value!r}")
        return value
    if shape == "Bool":
        if not isinstance(value, bool):
            raise CodecError(f"Bool codec cannot serialize {value!r}")
        return value
    if shape == "Str":
        if not isinstance(value, str):
            raise CodecError(f"Str codec cannot serialize {value!r}")
        return value
    if shape == "Unit":
        if value is not None:
            raise CodecError(f"Unit codec cannot serialize {value!r}")
        return None
    tag, items = shape
    if not isinstance(value, tuple) or len(value) != len(items):
        raise CodecError(f"{shape_id(shape)} codec cannot serialize {value!r}")
    return [_to_json_value(i, v) for i, v in zip(items, value)]


def _from_json_value(shape: Shape, value: Any) -> Any:
    if shape == "Int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise CodecError(f"expected an Int, got {value!r}")
        return value
    if shape == "Bool":
        if not isinstance(value, bool):
            raise CodecError(f"expected a Bool, got {value!r}")
        return value
    if shape == "Str":
        if not isinstance(value, str):
            raise CodecError(f"expected a Str, got {value!r}")
        return value
    if shape == "Unit":
        if value is not None:
            raise CodecError(f"expected Unit, got {value!r}")
        return None
    tag, items = shape
    if not isinstance(value, list) or len(value) != len(items):
        raise CodecError(f"expected a {shape_id(shape)}, got {value!r}")
    return tuple(_from_json_value(i, v) for i, v in zip(items, value))


@dataclass(frozen=True)
class Codec:
    id: str
    shape: Shape

    def serialize(self, value: Any) -> bytes:
        doc = _to_json_value(self.shape, value)
        return json.dumps(doc, separators=(",", ":"), ensure_ascii=False).encode("utf-8")

    def deserialize(self, data: bytes) -> Any:
        try:
            doc = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CodecError(f"codec {self.id}: invalid encoding: {e}") from None
        try:
            value = _from_json_value(self.shape, doc)
        except CodecError as e:
            raise CodecError(f"codec {self.id}: {e}") from None
        if self.serialize(value) != data:
            raise CodecError(f"codec {self.id}: non-canonical encoding")
        return value


def parse_codec(codec_id: str) -> Codec:
    """The codec `codec_id` names; CodecError if it names none."""
    if not isinstance(codec_id, str):
        raise CodecError(f"unknown codec {codec_id!r}")
    shape = parse_shape(codec_id)
    return Codec(shape_id(shape), shape)
