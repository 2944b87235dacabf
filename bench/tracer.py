"""Spans and counts recorded around locic's public functions.

`install()` wraps the module functions and methods listed in `SPANS` so that
each call records a span (name, start, end, parent, thread). A span's self
time is its duration minus the time its child spans on the same thread
cover, so summing self time over a layer's spans gives the time spent in
that layer. Counts are taken at the same boundaries. Aggregates are kept
for every span; the first `KEEP_SPANS` spans are also kept whole and written out
as JSON lines when the run ends.

Nothing inside locic changes: the wrappers replace attributes from outside,
and `uninstall()` puts the originals back.
"""

from __future__ import annotations

import collections
import itertools
import json
import statistics
import threading
import time
from array import array

from locic import (arch, checker, codecs, parser, runtime, splitter, transmit,
                   transport, wire)

_clock = time.perf_counter

# (owner, attribute, span name). The layer of a span is the part of its name
# before the dot. transmit binds the envelope functions by name, so they are
# wrapped where transmit looks them up as well as in wire.
SPANS = (
    (parser, "parse_program", "parser.parse_program"),
    (parser, "tokenize", "parser.tokenize"),
    (arch, "resolve_architecture", "arch.resolve_architecture"),
    (arch, "effective_ties", "arch.effective_ties"),
    (checker, "check_module", "checker.check_module"),
    (splitter, "split", "splitter.split"),
    (splitter, "emit_component", "splitter.emit_component"),
    (splitter, "read_component", "splitter.read_component"),
    (runtime, "simulate", "runtime.simulate"),
    (runtime.PeerInstance, "connect", "runtime.connect"),
    (runtime.PeerInstance, "activate", "runtime.activate"),
    (runtime.PeerInstance, "stop", "runtime.stop"),
    (runtime.PeerInstance, "fire", "runtime.fire"),
    (codecs.Codec, "serialize", "codecs.serialize"),
    (codecs.Codec, "deserialize", "codecs.deserialize"),
    (wire, "encode_envelope", "wire.encode_envelope"),
    (wire, "decode_envelope", "wire.decode_envelope"),
    (transmit, "encode_envelope", "wire.encode_envelope"),
    (transmit, "decode_envelope", "wire.decode_envelope"),
)
COMPILE_LAYERS = ("parser", "arch", "checker", "splitter")
STALE_SEND_S = 1.0  # a send not delivered within this long was dropped
KEEP_SPANS = 5000


class Tracer:
    def __init__(self):
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.calls = collections.Counter()
        self.total = collections.Counter()  # inclusive seconds per span name
        self.self_time = collections.Counter()  # exclusive seconds per layer
        self.counts = collections.Counter()
        self.samples = collections.defaultdict(lambda: array("d"))
        self.spans: list[tuple] = []
        self._sent: dict[bytes, collections.deque] = collections.defaultdict(collections.deque)
        self._saved: list[tuple] = []

    # -- spans --

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def begin(self, name: str) -> list:
        stack = self._stack()
        frame = [name, _clock(), 0.0, next(self._ids), stack[-1][3] if stack else 0]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        end = _clock()
        stack = self._stack()
        stack.pop()
        name, start, children, span_id, parent = frame
        dur = end - start
        if stack:
            stack[-1][2] += dur
        with self._lock:
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name.split(".", 1)[0]] += dur - children
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
        return dur

    def span(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(frame)

        return traced

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        if self.enabled:
            with self._lock:
                self.samples[name].append(value)

    # -- installation --

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self.span(getattr(owner, attr), name))
        self._patch_sizes(parser, "tokenize", "parser.tokens", len)
        self._patch_sizes(splitter, "emit_component", "splitter.emit_bytes",
                          lambda text: len(text.encode("utf-8")))
        self._patch_closures()
        self._patch_envelopes()
        self._patch_pull()
        self._patch_transport()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch_sizes(self, owner, attr: str, counter: str, size) -> None:
        tracer = self
        original = getattr(owner, attr)

        def sized(*args):
            result = original(*args)
            tracer.count(counter, size(result))
            return result

        self._patch(owner, attr, sized)

    def _patch_closures(self) -> None:
        tracer = self
        for owner in (arch.Architecture, splitter.PeerComponent):
            original = owner.super_closure

            def counted(obj, p, _original=original):
                current = tracer.current()
                if current is not None and current.split(".", 1)[0] in COMPILE_LAYERS:
                    tracer.count("arch.closure_calls")
                return _original(obj, p)

            self._patch(owner, "super_closure", counted)

    def _patch_envelopes(self) -> None:
        tracer = self
        encode = transmit.encode_envelope  # already a span

        def encode_counted(env):
            data = encode(env)
            tracer.count("wire.bytes_out", len(data))
            if isinstance(env, wire.ChanMsg):
                tracer.count("wire.chanmsg_bytes", len(data))
                tracer.count("wire.chanmsg_payload_bytes", len(env.payload))
            return data

        self._patch(transmit, "encode_envelope", encode_counted)

    def _patch_pull(self) -> None:
        tracer = self
        original = transmit.Endpoint.pull

        def pull(ep, sig, result_codec):
            start = _clock()
            future = original(ep, sig, result_codec)
            tracer.count("transmit.pulls")
            future.on_settle(lambda _f: tracer.sample("transmit.pull_rtt", _clock() - start))
            return future

        self._patch(transmit.Endpoint, "pull", pull)

    def _patch_transport(self) -> None:
        # Each connection is FIFO, so the k-th send of some bytes pairs with
        # the k-th delivery of the same bytes. Pairing by content needs no
        # access to the transport's internals; equal messages sent to two
        # connections within one fire() may pair crosswise, which moves single
        # waits by the gap between the two sends but leaves their sum intact.
        tracer = self
        Connection = transport.Connection
        send, open_ = Connection.send, Connection.open
        thread_start = threading.Thread.start

        def traced_send(conn, data):
            if tracer.enabled:
                tracer.count("transport.sends")
                with tracer._lock:
                    tracer._sent[bytes(data)].append(_clock())
            return send(conn, data)

        def traced_open(conn, on_message, on_close):
            def on_message_traced(data):
                if not tracer.enabled:
                    return on_message(data)
                now = _clock()
                with tracer._lock:
                    queue = tracer._sent.get(data)
                    while queue and now - queue[0] > STALE_SEND_S:
                        queue.popleft()
                    sent = queue.popleft() if queue else None
                if sent is not None:
                    tracer.sample("transport.queue_wait", now - sent)
                frame = tracer.begin("transport.handler")
                try:
                    return on_message(data)
                finally:
                    tracer.end(frame)

            if not tracer.enabled:
                return open_(conn, on_message, on_close)
            frame = tracer.begin("transport.open")
            try:
                return open_(conn, on_message_traced, on_close)
            finally:
                tracer.end(frame)

        def counted_start(thread):
            if tracer.current() == "transport.open":
                tracer.count("transport.threads")
            return thread_start(thread)

        self._patch(Connection, "send", traced_send)
        self._patch(Connection, "open", traced_open)
        self._patch(threading.Thread, "start", counted_start)

    # -- results --

    def snapshot(self) -> collections.Counter:
        with self._lock:
            return collections.Counter(self.counts) + collections.Counter(
                {f"calls:{k}": v for k, v in self.calls.items()})

    def mean_us(self, name: str) -> float:
        return self.total[name] / self.calls[name] * 1e6 if self.calls[name] else 0.0

    def p50_us(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) * 1e6 if values else 0.0

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span_id, name, start, end, parent, thread in self.spans:
                f.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                    "parent": parent, "thread": thread}) + "\n")


def layer_metrics(t: Tracer, before: collections.Counter, after: collections.Counter,
                  ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics. Compile-layer figures are per module compiled over
    the whole traced process; runtime counts are per timed operation."""
    delta = after - before
    modules = t.calls["parser.parse_program"]
    splits = t.calls["splitter.split"]

    def per(x, n):
        return x / n if n else 0.0

    emit_s = t.total["splitter.emit_component"]
    return {
        "parser.ms_per_op": (per(t.self_time["parser"], modules) * 1e3, "ms"),
        "parser.tokens_per_s": (per(t.counts["parser.tokens"], t.self_time["parser"]), "1/s"),
        "arch.ms_per_op": (per(t.self_time["arch"], modules) * 1e3, "ms"),
        "arch.closure_calls": (per(t.counts["arch.closure_calls"], modules), "count"),
        "checker.ms_per_op": (per(t.self_time["checker"], modules) * 1e3, "ms"),
        "splitter.split_ms_per_op": (per(t.total["splitter.split"], splits) * 1e3, "ms"),
        "splitter.emit_ms_per_op": (per(emit_s, splits) * 1e3, "ms"),
        "splitter.emit_mb_per_s": (per(t.counts["splitter.emit_bytes"] / 1e6, emit_s), "MB/s"),
        "runtime.handshake_us": (t.mean_us("runtime.connect"), "us"),
        "runtime.activate_us": (t.mean_us("runtime.activate"), "us"),
        "runtime.stop_us": (t.mean_us("runtime.stop"), "us"),
        "runtime.fire_us": (t.mean_us("runtime.fire"), "us"),
        "transport.threads_per_op": (per(delta["transport.threads"], ops), "count"),
        "transport.sends_per_op": (per(delta["transport.sends"], ops), "count"),
        "transport.queue_wait_p50_us": (t.p50_us("transport.queue_wait"), "us"),
        "transport.handler_us": (t.mean_us("transport.handler"), "us"),
        "transmit.pulls_per_op": (per(delta["transmit.pulls"], ops), "count"),
        "transmit.pull_rtt_p50_us": (t.p50_us("transmit.pull_rtt"), "us"),
        "codecs.serialize_per_msg": (per(delta["calls:codecs.serialize"], ops), "count"),
        "codecs.serialize_us": (t.mean_us("codecs.serialize"), "us"),
        "codecs.deserialize_us": (t.mean_us("codecs.deserialize"), "us"),
        "wire.encode_us": (t.mean_us("wire.encode_envelope"), "us"),
        "wire.decode_us": (t.mean_us("wire.decode_envelope"), "us"),
        "wire.bytes_per_op": (per(delta["wire.bytes_out"], ops), "bytes"),
        "wire.bytes_per_msg": (per(t.counts["wire.chanmsg_bytes"],
                                   t.counts["wire.chanmsg_payload_bytes"]), "ratio"),
    }
