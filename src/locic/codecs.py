"""Value serialization.

A codec is built from a data type: a primitive (`ast.TPrim`) or a tuple of
data types (`ast.TTuple`). It converts between the values of that type and
their canonical JSON bytes. Serialization is total for well-typed values;
deserialization is strict: bytes decode successfully only if they are
exactly the canonical encoding of some value of the codec's type, so
corrupted input is either rejected or re-encodes to itself. One walk of the
type compiles the codec's writer and its reader, on the codec's first use;
a tuple of primitives is read and written with no call per item.

A codec's id is its type's text (`str(ty)`): `Int`, `Bool`, `Str`, `Unit`,
or a tuple such as `(Int, (Str, Bool))`. `parse_codec` reads an id back with
the language's own type grammar (`parser.parse_type`) and accepts only a
data type's canonical text. The checker builds each access plan's codec
once, so nothing looks codecs up while a peer runs.
"""

from __future__ import annotations

import json
from functools import cached_property
from json.encoder import c_encode_basestring, c_make_encoder
from json.scanner import c_make_scanner
from typing import Any, Callable

from . import ast
from .records import record


class CodecError(Exception):
    pass


# The one compact encoder and strict decoder shared by codecs and the wire,
# built once from CPython's C accelerator (`_json`). They have the settings
# of `json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)` and
# `json.JSONDecoder()`, without the Python wrappers that those classes run,
# and that build a new C encoder, on every call. The encoder keeps no
# circular-reference markers: every document encoded here is a tree, built
# afresh by a codec's writer or by `wire` from immutable fields, or parsed
# from JSON text, so none can hold itself. (A cyclic one would end in a
# RecursionError, not a crash.)
_encode = c_make_encoder(None, json.JSONEncoder().default, c_encode_basestring, None,
                         ":", ",", False, False, True)
_scan = c_make_scanner(json.JSONDecoder())


def encode_json(doc: Any) -> str:
    """The compact JSON text of `doc`: ValueError for an int too long to
    print, TypeError for a value JSON has no form for."""
    return "".join(_encode(doc, 0))


def scan_json(text: str) -> tuple[Any, int]:
    """The JSON value at the start of `text` and the index just past it;
    JSONDecodeError if none starts there, RecursionError if it nests too
    deep."""
    try:
        return _scan(text, 0)
    except StopIteration as e:  # the scanner's "no value starts here"
        raise json.JSONDecodeError("Expecting value", text, e.value) from None


# a primitive's Python type, the types its writer also refuses, and its noun
_PRIMITIVES = {"Int": (int, bool, "an Int"), "Bool": (bool, (), "a Bool"),
               "Str": (str, (), "a Str"), "Unit": (type(None), (), "Unit")}

Writer = Callable[[Any], Any]  # a value -> the JSON document it encodes to
Reader = Callable[[Any], Any]  # a parsed JSON document -> the value it holds


def _compile(ty: ast.TypeExpr) -> tuple[Writer, Reader]:
    """The writer and the reader of a data type; each raises CodecError on
    what the type does not hold. A tuple of primitives whose items all have
    exactly their Python types is checked in one C pass (`map(type, ...)`);
    anything else goes item by item, which accepts an `int` subclass, say,
    and names the innermost type that refuses."""
    if isinstance(ty, ast.TPrim):
        kind, refused, noun = _PRIMITIVES[ty.name]

        def write(value: Any) -> Any:
            if not isinstance(value, kind) or isinstance(value, refused):
                raise CodecError(f"{ty} codec cannot serialize {value!r}")
            return value

        def read(doc: Any) -> Any:
            if type(doc) is not kind:
                raise CodecError(f"expected {noun}, got {doc!r}")
            return doc
        return write, read
    writers, readers = zip(*map(_compile, ty.items))
    size = len(writers)
    # the items' exact types if all are primitives; a nested tuple never matches
    flat = (None if any(isinstance(item, ast.TTuple) for item in ty.items)
            else tuple(_PRIMITIVES[item.name][0] for item in ty.items))

    def write_tuple(value: Any) -> list:
        if type(value) is tuple and tuple(map(type, value)) == flat:
            return list(value)
        if not isinstance(value, tuple) or len(value) != size:
            raise CodecError(f"{ty} codec cannot serialize {value!r}")
        return [write(v) for write, v in zip(writers, value)]

    def read_tuple(doc: Any) -> tuple:
        if type(doc) is list and tuple(map(type, doc)) == flat:
            return tuple(doc)
        if type(doc) is not list or len(doc) != size:
            raise CodecError(f"expected a {ty}, got {doc!r}")
        return tuple(read(d) for read, d in zip(readers, doc))
    return write_tuple, read_tuple


def decode_json(text: str) -> Any:
    """The one JSON value `text` holds, with no whitespace around it;
    JSONDecodeError otherwise, RecursionError if it nests too deep."""
    try:
        doc, end = _scan(text, 0)  # not `scan_json`: one call less per payload
    except StopIteration as e:
        raise json.JSONDecodeError("Expecting value", text, e.value) from None
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return doc


@record
class Codec:
    """The codec of one data type."""

    ty: ast.TypeExpr

    @cached_property
    def id(self) -> str:
        return str(self.ty)

    @cached_property
    def _coders(self) -> tuple[Writer, Reader]:
        """The writer and the reader, compiled on first use."""
        return _compile(self.ty)

    def serialize(self, value: Any) -> bytes:
        doc = self._coders[0](value)
        try:
            return "".join(_encode(doc, 0)).encode("utf-8")
        except ValueError as e:  # a lone surrogate, or an int too long to print
            raise CodecError(f"{self.id} codec cannot serialize this value: {e}") from None

    def deserialize(self, data: bytes) -> Any:
        try:
            text = data.decode("utf-8")
            doc = decode_json(text)
        except (ValueError, RecursionError) as e:  # also an overlong int, or deep nesting
            raise CodecError(f"codec {self.id}: invalid encoding: {e}") from None
        try:
            value = self._coders[1](doc)
        except CodecError as e:
            raise CodecError(f"codec {self.id}: {e}") from None
        # the document re-encodes to the bytes it came from only if they were canonical
        if "".join(_encode(doc, 0)) != text:
            raise CodecError(f"codec {self.id}: non-canonical encoding")
        return value


def parse_codec(codec_id: str) -> Codec:
    """The codec of the data type whose text is exactly `codec_id`, read by
    the language's type grammar; CodecError for any other id."""
    from . import parser  # imported on first call, so `import locic.runtime` loads no parser

    if not isinstance(codec_id, str):
        raise CodecError(f"unknown codec {codec_id!r}")
    try:
        ty = parser.parse_type(codec_id)
    except parser.ParseError:  # also a type nested past parser.MAX_NESTING
        ty = None
    if ty is None or str(ty) != codec_id or ast.non_data_part(ty) is not None:
        raise CodecError(f"unknown codec '{codec_id}'")
    return Codec(ty)
