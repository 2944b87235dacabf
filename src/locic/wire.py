"""Wire protocol: length-prefixed frames carrying canonical-JSON envelopes.

A frame is a 4-byte big-endian unsigned length followed by that many bytes,
one envelope. An envelope starts with its header, a compact JSON object
whose `t` field names the variant. An ok `res` and a `chanmsg` carry a
value: its payload bytes (the codec's canonical JSON) follow the header
raw, up to the end of the frame, as in `{"t":"chanmsg","chan":2}41`. Every
other variant is its header alone.

The hot variants (`req`, an ok `res`, `chanopen` and `chanmsg`) are written
from byte templates, and `decode_envelope` reads a frame that matches its
template exactly by slicing: the id must be canonical digits, and the value
part of a `req` or `chanopen` must be in the receiver's served-value table
(`value_parts`), which holds the values it can be asked for. Any other frame
goes to the general decoder, so both paths accept the same frames and refuse
the rest with the same errors.
"""

from __future__ import annotations

import functools
import struct
from typing import Iterable, Union

from .codecs import encode_json, scan_json
from .records import record
from .sigs import ModuleSig, PeerSig, ValueSig

MAX_FRAME_LEN = 64 * 1024 * 1024
PROTO_VERSION = 3


class ProtocolError(Exception):
    pass


# --- framing ----------------------------------------------------------

def frame(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_LEN:
        raise ProtocolError(f"frame length {len(payload)} exceeds {MAX_FRAME_LEN}")
    return struct.pack(">I", len(payload)) + payload


class Framer:
    """Incremental unframer; buffers partial reads."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buf.extend(data)
        out: list[bytes] = []
        while True:
            if len(self._buf) < 4:
                return out
            (length,) = struct.unpack_from(">I", self._buf)
            if length > MAX_FRAME_LEN:
                raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_LEN}")
            if len(self._buf) < 4 + length:
                return out
            out.append(bytes(self._buf[4 : 4 + length]))
            del self._buf[: 4 + length]


# --- envelopes --------------------------------------------------------

@record
class Hello:
    module: ModuleSig
    peer: PeerSig
    proto_version: int = PROTO_VERSION


@record
class HelloAck:
    accepted: bool
    reason: str = ""


@record
class Request:
    id: int
    value: ValueSig


@record
class Response:
    id: int
    ok: bool
    payload: bytes = b""
    error: str = ""


@record
class ChanOpen:
    chan: int
    value: ValueSig


@record
class ChanMsg:
    chan: int
    payload: bytes


@record
class ChanClose:
    chan: int


Envelope = Union[Hello, HelloAck, Request, Response, ChanOpen, ChanMsg, ChanClose]


def _dumps(doc: dict) -> bytes:
    return encode_json(doc).encode("utf-8")


@functools.lru_cache(maxsize=1024)
def _value_fields(value: ValueSig) -> bytes:
    """The `"mod","path","val"` members that name `value`, as JSON."""
    return _dumps({"mod": value.module.name, "path": value.module.path,
                   "val": value.canonical})[1:-1]


def value_parts(values: Iterable[ValueSig]) -> dict[bytes, ValueSig]:
    """The served-value table: the canonical value part (`"mod":…,"path":…,
    "val":…}`) of a req or chanopen frame that names each of `values`."""
    return {_value_fields(v) + b"}": v for v in values}


def encode_envelope(e: Envelope) -> bytes:
    # the hot variants are templates: ids are ints, and a payload follows its header raw
    if isinstance(e, Request):
        return b'{"t":"req","id":%d,%s}' % (e.id, _value_fields(e.value))
    if isinstance(e, Response) and e.ok:
        return b'{"t":"res","id":%d,"ok":true}%s' % (e.id, e.payload)
    if isinstance(e, ChanMsg):
        return b'{"t":"chanmsg","chan":%d}%s' % (e.chan, e.payload)
    if isinstance(e, Response):
        return _dumps({"t": "res", "id": e.id, "ok": False, "error": e.error})
    if isinstance(e, ChanOpen):
        return b'{"t":"chanopen","chan":%d,%s}' % (e.chan, _value_fields(e.value))
    if isinstance(e, Hello):
        return _dumps({
            "t": "hello",
            "mod": e.module.name, "path": list(e.module.path),
            "peer": e.peer.peer_name,
            "peerMod": e.peer.module.name, "peerPath": list(e.peer.module.path),
            "ver": e.proto_version,
        })
    if isinstance(e, HelloAck):
        return _dumps({"t": "helloack", "accepted": e.accepted, "reason": e.reason})
    if isinstance(e, ChanClose):
        return _dumps({"t": "chanclose", "chan": e.chan})
    raise TypeError(f"not an envelope: {e!r}")


def _field(doc: dict, name: str, kind: type):
    """`doc[name]`, which must be a JSON value of exactly type `kind`."""
    if name not in doc:
        raise ProtocolError(f"envelope missing field '{name}'")
    value = doc[name]
    if type(value) is not kind:
        raise ProtocolError(f"envelope field '{name}' has the wrong type")
    return value


def _payload(tail: bytes) -> bytes:
    """The payload: the bytes after the header, which must be some."""
    if not tail:
        raise ProtocolError("envelope missing its payload")
    return tail


def _module(doc: dict, name: str, path: str) -> ModuleSig:
    parts = _field(doc, path, list)
    if not all(type(p) is str for p in parts):
        raise ProtocolError(f"envelope field '{path}' has the wrong type")
    return ModuleSig(_field(doc, name, str), tuple(parts))


def _value(doc: dict) -> ValueSig:
    return ValueSig(_field(doc, "val", str), _module(doc, "mod", "path"))


def _canonical_id(digits: bytes) -> int | None:
    """The int that `digits` writes in canonical form: ASCII digits, no sign,
    no leading zero, at most 16 of them; None for anything else."""
    if digits.isdigit() and len(digits) <= 16 and (digits[0] != 48 or len(digits) == 1):
        return int(digits)
    return None


def decode_envelope(data: bytes, served: dict[bytes, ValueSig] = {}) -> Envelope:
    """The envelope `data` holds: a header, one JSON object with no
    whitespace before it, in valid UTF-8 and with every string valid
    Unicode; then the payload for a variant that carries one, and nothing
    for any other. The payload may be any bytes but none: its codec judges
    them. A frame that is exactly a hot variant's template, naming a value
    in `served` if it names one, is read by slicing; every other frame by
    `_decode_json_envelope`."""
    head = data[:16]
    if head == b'{"t":"res","id":':
        end = data.find(b",", 16, 33)
        if end > 0 and data.startswith(b',"ok":true}', end) and len(data) > end + 11:
            rid = _canonical_id(data[16:end])
            if rid is not None:
                return Response(rid, True, data[end + 11:])
    elif head == b'{"t":"chanmsg","':
        end = data.find(b"}", 22, 39)
        if end > 0 and data.startswith(b'chan":', 16) and len(data) > end + 1:
            chan = _canonical_id(data[22:end])
            if chan is not None:
                return ChanMsg(chan, data[end + 1:])
    elif head == b'{"t":"req","id":':
        end = data.find(b",", 16, 33)
        if end > 0:
            value = served.get(data[end + 1:])
            rid = _canonical_id(data[16:end])
            if value is not None and rid is not None:
                return Request(rid, value)
    elif head == b'{"t":"chanopen",':
        end = data.find(b",", 23, 40)
        if end > 0 and data.startswith(b'"chan":', 16):
            value = served.get(data[end + 1:])
            chan = _canonical_id(data[23:end])
            if value is not None and chan is not None:
                return ChanOpen(chan, value)
    return _decode_json_envelope(data)


def _decode_json_envelope(data: bytes) -> Envelope:
    """`decode_envelope` for any frame: the header parsed as JSON."""
    try:
        # an undecodable byte becomes a lone surrogate, so a payload may hold any byte
        text = data.decode("utf-8", "surrogateescape")
        doc, end = scan_json(text)
        # strict UTF-8 refuses such a surrogate in the header, and gives its length in bytes
        size = end if text.isascii() else len(text[:end].encode("utf-8"))
        if text.find("\\u", 0, end) != -1:  # a \u escape can name a lone surrogate too
            encode_json(doc).encode("utf-8")
    except (ValueError, RecursionError) as e:  # also an overlong int, or deep nesting
        raise ProtocolError(f"malformed envelope: {e}") from None
    if type(doc) is not dict:
        raise ProtocolError("envelope is not an object")
    tail = data[size:]
    t = _field(doc, "t", str)
    if t == "res" and _field(doc, "ok", bool):
        return Response(_field(doc, "id", int), True, payload=_payload(tail))
    if t == "chanmsg":
        return ChanMsg(_field(doc, "chan", int), _payload(tail))
    if tail:
        raise ProtocolError(f"malformed envelope: {len(tail)} bytes after a '{t}' header")
    if t == "res":
        return Response(_field(doc, "id", int), False, error=_field(doc, "error", str))
    if t == "req":
        return Request(_field(doc, "id", int), _value(doc))
    if t == "chanopen":
        return ChanOpen(_field(doc, "chan", int), _value(doc))
    if t == "chanclose":
        return ChanClose(_field(doc, "chan", int))
    if t == "hello":
        return Hello(module=_module(doc, "mod", "path"),
                     peer=PeerSig(_field(doc, "peer", str), _module(doc, "peerMod", "peerPath")),
                     proto_version=_field(doc, "ver", int))
    if t == "helloack":
        return HelloAck(_field(doc, "accepted", bool), _field(doc, "reason", str))
    raise ProtocolError(f"unknown envelope variant '{t}'")
