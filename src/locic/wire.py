"""Wire protocol: length-prefixed frames carrying canonical-JSON envelopes.

Frames are a 4-byte big-endian unsigned payload length followed by the
payload; envelopes are JSON objects whose `t` field names the variant,
with binary fields base64-encoded.
"""

from __future__ import annotations

import base64
import functools
import struct
from typing import Union

from .codecs import decode_json, encode_json
from .records import record
from .sigs import ModuleSig, PeerSig, ValueSig

MAX_FRAME_LEN = 64 * 1024 * 1024
PROTO_VERSION = 2


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

    @property
    def pending(self) -> int:
        return len(self._buf)


def unframe(data: bytes) -> list[bytes]:
    """One-shot unframing of whole frames; use Framer for streamed input."""
    framer = Framer()
    out = framer.feed(data)
    if framer.pending:
        raise ProtocolError(f"{framer.pending} trailing bytes after the last frame")
    return out


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


def encode_envelope(e: Envelope) -> bytes:
    # the hot variants are templates: ids are ints and base64 needs no escaping
    if isinstance(e, Request):
        return b'{"t":"req","id":%d,%s}' % (e.id, _value_fields(e.value))
    if isinstance(e, Response) and e.ok:
        return b'{"t":"res","id":%d,"ok":true,"payload":"%s"}' % (e.id, base64.b64encode(e.payload))
    if isinstance(e, ChanMsg):
        return b'{"t":"chanmsg","chan":%d,"payload":"%s"}' % (e.chan, base64.b64encode(e.payload))
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


def _payload(doc: dict) -> bytes:
    try:
        return base64.b64decode(_field(doc, "payload", str), validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise ProtocolError("envelope field 'payload' is not valid base64") from None


def _module(doc: dict, name: str, path: str) -> ModuleSig:
    parts = _field(doc, path, list)
    if not all(type(p) is str for p in parts):
        raise ProtocolError(f"envelope field '{path}' has the wrong type")
    return ModuleSig(_field(doc, name, str), tuple(parts))


def _value(doc: dict) -> ValueSig:
    return ValueSig(_field(doc, "val", str), _module(doc, "mod", "path"))


def decode_envelope(data: bytes) -> Envelope:
    """The envelope `data` holds: exactly one JSON object, with no
    whitespace around it and every string valid Unicode."""
    try:
        text = data.decode("utf-8")
        doc = decode_json(text)
        if "\\u" in text:  # a \u escape can name a lone surrogate, which UTF-8 cannot carry
            encode_json(doc).encode("utf-8")
    except (ValueError, RecursionError) as e:  # also an overlong int, or deep nesting
        raise ProtocolError(f"malformed envelope: {e}") from None
    if type(doc) is not dict:
        raise ProtocolError("envelope is not an object")
    t = _field(doc, "t", str)
    if t == "res":
        if _field(doc, "ok", bool):
            return Response(_field(doc, "id", int), True, payload=_payload(doc))
        return Response(_field(doc, "id", int), False, error=_field(doc, "error", str))
    if t == "req":
        return Request(_field(doc, "id", int), _value(doc))
    if t == "chanmsg":
        return ChanMsg(_field(doc, "chan", int), _payload(doc))
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
