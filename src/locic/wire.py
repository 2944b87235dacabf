"""Wire protocol: length-prefixed frames carrying canonical-JSON envelopes.

Frames are a 4-byte big-endian unsigned payload length followed by the
payload; envelopes are JSON objects whose `t` field names the variant,
with binary fields base64-encoded.
"""

from __future__ import annotations

import base64
import json
import struct
from dataclasses import dataclass
from typing import Union

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

@dataclass(frozen=True)
class Hello:
    module: ModuleSig
    peer: PeerSig
    proto_version: int = PROTO_VERSION


@dataclass(frozen=True)
class HelloAck:
    accepted: bool
    reason: str = ""


@dataclass(frozen=True)
class Request:
    id: int
    value: ValueSig


@dataclass(frozen=True)
class Response:
    id: int
    ok: bool
    payload: bytes = b""
    error: str = ""


@dataclass(frozen=True)
class ChanOpen:
    chan: int
    value: ValueSig


@dataclass(frozen=True)
class ChanMsg:
    chan: int
    payload: bytes


@dataclass(frozen=True)
class ChanClose:
    chan: int


Envelope = Union[Hello, HelloAck, Request, Response, ChanOpen, ChanMsg, ChanClose]


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _dumps(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def encode_envelope(e: Envelope) -> bytes:
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
    if isinstance(e, Request):
        return _dumps({
            "t": "req", "id": e.id,
            "mod": e.value.module.name, "path": list(e.value.module.path),
            "val": e.value.canonical,
        })
    if isinstance(e, Response):
        if e.ok:
            return _dumps({"t": "res", "id": e.id, "ok": True, "payload": _b64(e.payload)})
        return _dumps({"t": "res", "id": e.id, "ok": False, "error": e.error})
    if isinstance(e, ChanOpen):
        return _dumps({
            "t": "chanopen", "chan": e.chan,
            "mod": e.value.module.name, "path": list(e.value.module.path),
            "val": e.value.canonical,
        })
    if isinstance(e, ChanMsg):
        return _dumps({"t": "chanmsg", "chan": e.chan, "payload": _b64(e.payload)})
    if isinstance(e, ChanClose):
        return _dumps({"t": "chanclose", "chan": e.chan})
    raise TypeError(f"not an envelope: {e!r}")


class _Fields:
    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise ProtocolError("envelope is not an object")
        self.doc = doc

    def get(self, name: str, kinds) -> object:
        if name not in self.doc:
            raise ProtocolError(f"envelope missing field '{name}'")
        value = self.doc[name]
        if not isinstance(value, kinds) or (kinds is int and isinstance(value, bool)):
            raise ProtocolError(f"envelope field '{name}' has the wrong type")
        return value

    def int_(self, name: str) -> int:
        value = self.get(name, int)
        return value  # type: ignore[return-value]

    def str_(self, name: str) -> str:
        return self.get(name, str)  # type: ignore[return-value]

    def bool_(self, name: str) -> bool:
        return self.get(name, bool)  # type: ignore[return-value]

    def bytes_(self, name: str) -> bytes:
        raw = self.str_(name)
        try:
            return base64.b64decode(raw.encode("ascii"), validate=True)
        except Exception:
            raise ProtocolError(f"envelope field '{name}' is not valid base64") from None

    def path(self, name: str) -> tuple[str, ...]:
        value = self.get(name, list)
        if not all(isinstance(p, str) for p in value):  # type: ignore[union-attr]
            raise ProtocolError(f"envelope field '{name}' has the wrong type")
        return tuple(value)  # type: ignore[arg-type]


def decode_envelope(data: bytes) -> Envelope:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ProtocolError(f"malformed envelope: {e}") from None
    f = _Fields(doc)
    t = f.str_("t")
    if t == "hello":
        return Hello(
            module=ModuleSig(f.str_("mod"), f.path("path")),
            peer=PeerSig(f.str_("peer"), ModuleSig(f.str_("peerMod"), f.path("peerPath"))),
            proto_version=f.int_("ver"),
        )
    if t == "helloack":
        return HelloAck(f.bool_("accepted"), f.str_("reason"))
    if t == "req":
        sig = ValueSig(f.str_("val"), ModuleSig(f.str_("mod"), f.path("path")))
        return Request(f.int_("id"), sig)
    if t == "res":
        if f.bool_("ok"):
            return Response(f.int_("id"), True, payload=f.bytes_("payload"))
        return Response(f.int_("id"), False, error=f.str_("error"))
    if t == "chanopen":
        sig = ValueSig(f.str_("val"), ModuleSig(f.str_("mod"), f.path("path")))
        return ChanOpen(f.int_("chan"), sig)
    if t == "chanmsg":
        return ChanMsg(f.int_("chan"), f.bytes_("payload"))
    if t == "chanclose":
        return ChanClose(f.int_("chan"))
    raise ProtocolError(f"unknown envelope variant '{t}'")
