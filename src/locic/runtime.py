"""Peer instance lifecycle.

A peer instance loads one component, establishes connections that are
validated against the component's tie table during a hello handshake,
waits until every single tie has its remote, evaluates slots in source
order, and serves remote dispatch: a request or channel-open looks up the
access plan of the value it names and reads the plan's slot. Remote-access
sites in slot bodies produce futures (pull) or stream handles (connected
channels) shaped by the tie multiplicity.

Every instance in a process runs on the transport's one event loop, so an
instance starts no thread and holds no lock. A request or channel-open for
a slot that is not evaluated yet is a deferred response: it waits in the
slot's cell, is answered as soon as the slot evaluates, and fails with
"peer stopped" if the instance stops first. `connect`, `activate`,
`wait_settled` and `simulate` hand their work to the loop and wait for one
completion; the other public methods run on the loop whichever thread calls
them. A blocking call made from a callback on the loop cannot wait, so it
times out at once.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable

from . import transmit, transport, wire
from .arch import PeerId, parse_peer_name
from .ast import Multiplicity
from .checker import (StreamT, TBinOp, TBoolLit, TIntLit, TRef, TStreamMap,
                      TStreamSource, TStrLit, TTupleExpr, TypedExpr)
from .codecs import CodecError
from .sigs import PeerSig
from .splitter import (STREAM, AccessPlan, PeerComponent, Placeholder,
                       RemoteCall, codec_of)
from .transmit import DEFERRED, PENDING, Endpoint, FutureSlot, StreamHandle
from .transport import on_loop
from .wire import ChanOpen, Hello, HelloAck, Request, Response

CONFIGURED, CONNECTING, RUNNING, STOPPED = "configured", "connecting", "running", "stopped"

DEFAULT_TIMEOUT = 10.0

# how a failed handshake failed, besides a rejection
_HANDSHAKE_TIMED_OUT = "handshake timed out"
_CLOSED_IN_HANDSHAKE = "connection closed during handshake"


class StartError(Exception):
    pass


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class RemoteRef:
    """Identity of one connected remote instance."""

    peer: PeerSig
    link_id: int

    def __str__(self) -> str:
        return f"{self.peer.peer_name}#{self.link_id}"


def slot_futures(value: Any) -> list[FutureSlot]:
    """The pull futures a slot value holds: one, one per remote, or none."""
    if isinstance(value, FutureSlot):
        return [value]
    if isinstance(value, list):
        return [fut for _, fut in value]
    return []


class _Link:
    def __init__(self, link_id: int, endpoint: Endpoint, remote_sig: PeerSig,
                 remote_pid: PeerId, matched: list[PeerId]):
        self.link_id = link_id
        self.endpoint = endpoint
        self.remote_sig = remote_sig
        self.remote_pid = remote_pid
        self.matched = matched  # tie-table peers this remote counts toward
        self.live = False

    @property
    def ref(self) -> RemoteRef:
        return RemoteRef(self.remote_sig, self.link_id)


class _Handshake:
    """One connection's hello exchange; `result` settles to the admitted
    link or fails with the reason."""

    def __init__(self, opener: bool, expected: PeerId | None = None):
        self.opener = opener
        self.expected = expected
        self.result = FutureSlot()
        self.link: _Link | None = None
        self.endpoint: Endpoint | None = None


class _SlotCell:
    PLACEHOLDER, PENDING, READY, ERROR = "placeholder", "pending", "ready", "error"

    def __init__(self, name: str, plan):
        self.name = name
        self.plan = plan
        self.state = self.PLACEHOLDER if isinstance(plan, Placeholder) else self.PENDING
        self.value: Any = None
        self.error: str | None = None
        self.waiters: list[Callable[[], None]] = []  # deferred responses


class PeerInstance:
    def __init__(self, component: PeerComponent, label: str | None = None):
        self.component = component
        self.label = label or str(component.peer)
        self.state = CONFIGURED
        self._links: list[_Link] = []
        self._watchers: list[Callable[[], bool]] = []
        self._next_link_id = itertools.count(1)
        self._listeners: list[transport.Listener] = []
        self._slots: dict[str, _SlotCell] = {
            name: _SlotCell(name, plan) for name, plan in component.slots
        }
        self._slot_order = [name for name, _ in component.slots]
        self._evaluated = False
        # tie-table entries resolved to peer ids once
        self._tie_entries: list[tuple[PeerId, Multiplicity]] = []
        for sig, mult in component.tie_table.items():
            pid = component.peer_for_sig(sig)
            if pid is not None:
                self._tie_entries.append((pid, mult))
        self._tie_entries.sort()

    # -- waiting on the loop ------------------------------------------------

    def _until(self, check: Callable[[], bool]) -> None:
        """Run `check` now and after every change to links, evaluation or
        state, until it returns True."""
        if not check():
            self._watchers.append(check)

    def _changed(self) -> None:
        if self._watchers:
            watchers, self._watchers = self._watchers, []
            self._watchers = [w for w in watchers if not w()] + self._watchers

    def _await(self, check: Callable[[FutureSlot], bool], timeout: float,
               expire: Callable[[FutureSlot], None]) -> FutureSlot:
        """Run check(done) on the loop now and after every change until it
        returns True; wait up to `timeout` for it to settle `done`, and
        failing that settle it with expire(done) on the loop."""
        done = FutureSlot()
        transmit.run_and_wait(done, self._until,
                              lambda: done.state != PENDING or check(done), timeout=timeout)
        if done.state == PENDING:
            transport.loop().call(expire, done)
        return done

    # -- connection management ------------------------------------------

    @on_loop
    def listen(self, spec: str) -> transport.Listener:
        listener = transport.listen(spec, self._on_inbound)
        self._listeners.append(listener)
        return listener

    def connect(self, spec: str, expected_peer: str | None = None,
                timeout: float = DEFAULT_TIMEOUT) -> RemoteRef:
        expected = self._resolve_peer_name(expected_peer) if expected_peer else None
        conn = transport.connect(spec)  # a TCP connect blocks this thread, not the loop
        hs = _Handshake(opener=True, expected=expected)
        transmit.run_and_wait(hs.result, self._open_link, conn, hs, timeout=timeout)
        if hs.result.state == PENDING:
            transport.loop().call(self._handshake_timed_out, hs)
        if hs.result.state == transmit.READY:
            return hs.result.value.ref
        if hs.result.error == _HANDSHAKE_TIMED_OUT:
            raise StartError(f"handshake with {spec} timed out")
        if hs.result.error == _CLOSED_IN_HANDSHAKE:
            raise StartError(f"connection to {spec} closed during handshake")
        raise StartError(f"connection to {spec} rejected: {hs.result.error}")

    def _open_link(self, conn: transport.Connection, hs: _Handshake) -> None:
        ep = self._make_endpoint(conn, opener=True, hs=hs)
        try:
            ep.send(Hello(self.component.root_module, self.component.sig))
        except transport.ConnectionClosed:
            hs.result.fail(_CLOSED_IN_HANDSHAKE)

    def _handshake_timed_out(self, hs: _Handshake) -> None:
        if hs.result.state == PENDING:
            hs.result.fail(_HANDSHAKE_TIMED_OUT)
            hs.endpoint.close(_HANDSHAKE_TIMED_OUT)

    def _resolve_peer_name(self, name: str) -> PeerId:
        pid = parse_peer_name(name)
        if pid not in self.component.peer_table:
            raise StartError(f"unknown peer '{name}'")
        return pid

    def _make_endpoint(self, conn: transport.Connection, opener: bool,
                       hs: _Handshake) -> Endpoint:
        ep = Endpoint(conn, opener,
                      on_control=lambda env: self._on_control(ep, hs, env),
                      on_request=lambda req: self._handle_request(hs, req),
                      on_chan_open=lambda env: self._handle_chan_open(hs, env),
                      on_closed=lambda reason: self._on_link_closed(hs, reason))
        hs.endpoint = ep
        ep.start()  # `ep` is bound, so even the first envelope finds it
        return ep

    @on_loop
    def _on_inbound(self, conn: transport.Connection) -> None:
        self._make_endpoint(conn, opener=False, hs=_Handshake(opener=False))

    def _validate_hello(self, hello: Hello) -> tuple[PeerId, list[PeerId]] | str:
        """Returns (remote peer id, matched tie entries) or a rejection reason."""
        if hello.proto_version != wire.PROTO_VERSION:
            return (f"protocol version {hello.proto_version} is not supported "
                    f"(expected {wire.PROTO_VERSION})")
        if hello.module != self.component.root_module:
            return (f"module signature mismatch: remote compiled from "
                    f"'{hello.module}', local from '{self.component.root_module}'")
        remote_pid = self.component.peer_for_sig(hello.peer)
        if remote_pid is None:
            return f"unknown peer signature '{hello.peer}'"
        closure = self.component.super_closure(remote_pid)
        matched = sorted(pid for pid, _ in self._tie_entries if pid in closure)
        return remote_pid, matched

    def _admit(self, hello: Hello, expected: PeerId | None) -> _Link | str:
        outcome = self._validate_hello(hello)
        if isinstance(outcome, str):
            return outcome
        remote_pid, matched = outcome
        if expected is not None and expected not in self.component.super_closure(remote_pid):
            return f"expected a {expected} instance, remote is {remote_pid}"
        bounds = {pid: mult for pid, mult in self._tie_entries
                  if mult in (Multiplicity.SINGLE, Multiplicity.OPTIONAL)}
        for pid in matched:
            if pid not in bounds:
                continue
            held = sum(1 for link in self._links if pid in link.matched)
            if held >= 1:
                return (f"tie to {pid} is {bounds[pid].keyword}; "
                        f"an instance is already connected")
        link = _Link(next(self._next_link_id), None, hello.peer, remote_pid, matched)  # type: ignore[arg-type]
        self._links.append(link)
        self._changed()
        return link

    def _drop_link(self, link: _Link) -> None:
        if link in self._links:
            self._links.remove(link)
            self._changed()

    def _on_control(self, ep: Endpoint, hs: _Handshake, env) -> None:
        if isinstance(env, Hello):
            admitted = self._admit(env, hs.expected)
            if isinstance(admitted, str):
                ep.try_send(HelloAck(False, admitted))
                ep.close()
                hs.result.fail(admitted)
                return
            admitted.endpoint = ep
            hs.link = admitted
            try:
                ep.send(HelloAck(True))
                if not hs.opener:
                    ep.send(Hello(self.component.root_module, self.component.sig))
            except transport.ConnectionClosed:
                self._drop_link(admitted)
                hs.result.fail("connection lost during handshake")
                return
            if hs.opener:
                # connector admitted the acceptor's hello: handshake complete
                self._mark_live(admitted)
                hs.result.resolve(admitted)
        elif isinstance(env, HelloAck):
            if not env.accepted:
                if hs.link is not None:
                    self._drop_link(hs.link)
                hs.result.fail(env.reason or "rejected")
                ep.close()
                return
            if not hs.opener and hs.link is not None:
                self._mark_live(hs.link)
                hs.result.resolve(hs.link)

    def _mark_live(self, link: _Link) -> None:
        link.live = True
        self._changed()

    def _wait_live_links(self, count: int, timeout: float) -> bool:
        """Wait until at least `count` links are live at this end."""
        def enough(done: FutureSlot) -> bool:
            if sum(1 for link in self._links if link.live) < count:
                return False
            done.resolve(True)
            return True

        done = self._await(enough, timeout, lambda done: done.resolve(False))
        return done.state == transmit.READY and done.value

    def _on_link_closed(self, hs: _Handshake, reason: str) -> None:
        if hs.link is not None:
            self._drop_link(hs.link)
        hs.result.fail(f"connection closed: {reason}")

    # -- activation -------------------------------------------------------

    def _unmet_single_ties(self) -> list[PeerId]:
        unmet = []
        for pid, mult in self._tie_entries:
            if mult is not Multiplicity.SINGLE:
                continue
            live = sum(1 for link in self._links if link.live and pid in link.matched)
            if live != 1:
                unmet.append(pid)
        return unmet

    def activate(self, timeout: float = DEFAULT_TIMEOUT) -> None:
        """Wait for single ties, then evaluate slots in order and serve dispatch."""
        if self.state == STOPPED:
            raise StartError("instance is stopped")

        def ties_met(done: FutureSlot) -> bool:
            if self.state == STOPPED:
                done.fail("stopped while connecting")
            elif self._unmet_single_ties():
                self.state = CONNECTING
                return False
            else:
                self.state = RUNNING
                self.evaluate_slots()
                done.resolve(None)
            return True

        def timed_out(done: FutureSlot) -> None:
            unmet = ", ".join(str(p) for p in self._unmet_single_ties())
            done.fail(f"timed out waiting for single ties to: {unmet}")

        done = self._await(ties_met, timeout, timed_out)
        if done.state == transmit.FAILED:
            raise StartError(done.error)

    @on_loop
    def evaluate_slots(self) -> None:
        if self._evaluated:
            return
        self._evaluated = True
        for name in self._slot_order:
            cell = self._slots[name]
            if cell.state == _SlotCell.PLACEHOLDER:
                continue
            try:
                cell.value = self._eval(cell.plan.body, {})
                cell.state = _SlotCell.READY
            except EvalError as e:
                cell.error = str(e)
                cell.state = _SlotCell.ERROR
            self._answer_waiters(cell)
        self._changed()

    @staticmethod
    def _answer_waiters(cell: _SlotCell) -> None:
        waiters, cell.waiters = cell.waiters, []
        for answer in waiters:
            answer()

    # -- expression evaluation ---------------------------------------------

    def _read_slot(self, name: str) -> Any:
        cell = self._slots.get(name)
        if cell is None:
            raise EvalError(f"unknown value '{name}'")
        if cell.state == _SlotCell.PLACEHOLDER:
            raise EvalError(f"value '{name}' is not placed on this peer")
        if cell.state == _SlotCell.ERROR:
            raise EvalError(f"value '{name}' failed to initialize: {cell.error}")
        if cell.state != _SlotCell.READY:
            raise EvalError(f"value '{name}' is not yet initialized")
        return cell.value

    def _links_for(self, target: PeerId) -> list[_Link]:
        return sorted(
            (link for link in self._links
             if link.live and target in self.component.super_closure(link.remote_pid)),
            key=lambda link: link.link_id)

    def _eval(self, e: TypedExpr, env: dict[str, Any]) -> Any:
        if isinstance(e, (TIntLit, TBoolLit, TStrLit)):
            return e.value
        if isinstance(e, TRef):
            if e.is_var:
                return env[e.name]
            return self._read_slot(e.name)
        if isinstance(e, TBinOp):
            left = self._eval(e.left, env)
            right = self._eval(e.right, env)
            if e.op == "+":
                return left + right
            if e.op == "-":
                return left - right
            if e.op == "*":
                return left * right
            if e.op == "<":
                return left < right
            return left == right
        if isinstance(e, TTupleExpr):
            return tuple(self._eval(i, env) for i in e.items)
        if isinstance(e, TStreamSource):
            return self._fresh_stream(e.ty)
        if isinstance(e, TStreamMap):
            return self._eval_stream_map(e, env)
        if isinstance(e, RemoteCall):
            return self._eval_remote_call(e)
        raise EvalError(f"cannot evaluate {type(e).__name__}")

    @staticmethod
    def _fresh_stream(ty) -> StreamHandle:
        return StreamHandle(codec_of(ty.elem) if isinstance(ty, StreamT) else None)

    def _eval_stream_map(self, e: TStreamMap, env: dict[str, Any]) -> StreamHandle:
        source = self._eval(e.source, env)
        if not isinstance(source, StreamHandle):
            raise EvalError("'.map' applied to a non-stream value")
        derived = self._fresh_stream(e.ty)
        captured = dict(env)

        def on_emit(value):
            inner = dict(captured)
            inner[e.var] = value
            try:
                derived.emit(self._eval(e.body, inner))
            except (EvalError, transmit.StreamClosed):
                pass

        unsubscribe = source.subscribe(on_emit)
        source.on_close(derived.close)
        derived.on_close(unsubscribe)
        return derived

    def _eval_remote_call(self, call: RemoteCall) -> Any:
        links = self._links_for(call.target_peer_id)
        codec = call.plan.codec
        if call.plan.mode == STREAM:
            if not links:
                handle = StreamHandle(codec)
                handle.close()
                return handle
            return links[0].endpoint.open_stream(call.value_sig, codec)
        if call.mult is Multiplicity.SINGLE:
            if not links:
                slot = FutureSlot()
                slot.fail(f"no connected instance of {call.target_peer_id}")
                return slot
            return links[0].endpoint.pull(call.value_sig, codec)
        if call.mult is Multiplicity.OPTIONAL:
            if not links:
                return None
            return links[0].endpoint.pull(call.value_sig, codec)
        return [(link.ref, link.endpoint.pull(call.value_sig, codec)) for link in links]

    # -- serving ------------------------------------------------------------

    def _handle_request(self, hs: _Handshake, req: Request):
        if hs.link is None or not hs.link.live:  # only a live, admitted link is served
            return Response(req.id, False, error="connection not admitted")
        plan = self.component.dispatch.get(req.value)
        if plan is None:
            return Response(req.id, False, error=f"value not found: {req.value.canonical}")
        if plan.mode == STREAM:
            return Response(req.id, False, error=(f"'{req.value.canonical}' is a stream; "
                                                  f"open a channel to access it"))
        cell = self._slots[plan.slot]
        if self._defers(cell):
            cell.waiters.append(lambda: hs.endpoint.try_send(self._response(req, plan, cell)))
            return DEFERRED
        return self._response(req, plan, cell)

    def _defers(self, cell: _SlotCell) -> bool:
        """Whether a request for `cell` waits for it to evaluate."""
        return cell.state == _SlotCell.PENDING and self.state != STOPPED

    @staticmethod
    def _response(req: Request, plan: AccessPlan, cell: _SlotCell) -> Response:
        if cell.state != _SlotCell.READY:
            return Response(req.id, False, error=(f"value '{cell.name}' is unavailable: "
                                                  f"{cell.error or 'peer stopped'}"))
        try:
            return Response(req.id, True, payload=plan.codec.serialize(cell.value))
        except CodecError as e:
            return Response(req.id, False, error=str(e))

    def _handle_chan_open(self, hs: _Handshake, env: ChanOpen):
        """The evaluated local stream the channel attaches to, None to
        refuse it, or DEFERRED until its slot evaluates."""
        plan = self.component.dispatch.get(env.value)
        if plan is None or plan.mode != STREAM or hs.link is None or not hs.link.live:
            return None
        cell = self._slots[plan.slot]
        if self._defers(cell):
            cell.waiters.append(lambda: hs.endpoint.attach(env.chan, self._stream_of(cell)))
            return DEFERRED
        return self._stream_of(cell)

    @staticmethod
    def _stream_of(cell: _SlotCell) -> StreamHandle | None:
        ready = cell.state == _SlotCell.READY and isinstance(cell.value, StreamHandle)
        return cell.value if ready else None

    # -- local producer API ---------------------------------------------------

    @on_loop
    def fire(self, name: str, value: Any) -> None:
        """Emit into a locally placed stream; reaches local subscribers and
        every attached remote channel."""
        handle = self._read_slot(name)
        if not isinstance(handle, StreamHandle):
            raise EvalError(f"value '{name}' is not a stream")
        # the type check; attached channels send these same bytes
        payload = None if handle.codec is None else handle.codec.serialize(value)
        handle.emit(value, payload)

    def slot(self, name: str) -> Any:
        return self._read_slot(name)

    def slot_state(self, name: str) -> str:
        return self._slots[name].state

    def slot_error(self, name: str) -> str | None:
        return self._slots[name].error

    @property
    def slot_names(self) -> list[str]:
        return list(self._slot_order)

    @on_loop
    def links(self) -> list[RemoteRef]:
        return [link.ref for link in self._links if link.live]

    # -- settlement and reporting ---------------------------------------------

    def wait_settled(self, timeout: float = DEFAULT_TIMEOUT) -> bool:
        """Wait until every pull future in evaluated slots reaches a terminal state."""
        def evaluated(done: FutureSlot) -> bool:
            if not self._evaluated and self.state != STOPPED:
                return False
            futures = [fut for cell in self._slots.values() if cell.state == _SlotCell.READY
                       for fut in slot_futures(cell.value) if fut.state == PENDING]
            left = [len(futures)]

            def one_settled(_fut):
                left[0] -= 1
                if left[0] == 0:
                    done.resolve(True)

            for fut in futures:
                fut.on_settle(one_settled)
            if not futures:
                done.resolve(True)
            return True

        done = self._await(evaluated, timeout, lambda done: done.resolve(False))
        return done.state == transmit.READY and done.value

    def format_value(self, value: Any) -> str:
        if isinstance(value, FutureSlot):
            if value.state == transmit.READY:
                return self.format_value(value.value)
            if value.state == transmit.FAILED:
                return f"<failed: {value.error}>"
            return "<pending>"
        if isinstance(value, StreamHandle):
            return "<stream>"
        if value is None:
            return "<none>"
        if isinstance(value, list):
            parts = [f"({ref}, {self.format_value(fut)})" for ref, fut in value]
            return "[" + ", ".join(parts) + "]"
        if isinstance(value, tuple):
            return "(" + ", ".join(self.format_value(v) for v in value) + ")"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, str):
            return json.dumps(value, ensure_ascii=False)
        return str(value)

    def settled_lines(self) -> list[str]:
        lines = []
        for name in self._slot_order:
            cell = self._slots[name]
            if cell.state == _SlotCell.PLACEHOLDER:
                continue
            if cell.state == _SlotCell.ERROR:
                lines.append(f"{name} = <failed: {cell.error}>")
            else:
                lines.append(f"{name} = {self.format_value(cell.value)}")
        return lines

    def slot_report(self) -> list[dict]:
        report = []
        for name in self._slot_order:
            cell = self._slots[name]
            if cell.state == _SlotCell.PLACEHOLDER:
                continue
            if cell.state == _SlotCell.ERROR:
                report.append({"name": name, "status": "failed", "error": cell.error})
            else:
                report.append({"name": name, "status": "settled",
                               "value": self.format_value(cell.value)})
        return report

    # -- shutdown ---------------------------------------------------------------

    @on_loop
    def stop(self) -> None:
        """Close listeners and connections; pending futures fail. Idempotent."""
        if self.state == STOPPED:
            return
        self.state = STOPPED
        for listener in self._listeners:
            listener.close()
        # deferred responses go out before the connections close; their
        # slots never evaluate now, so they fail with "peer stopped"
        for cell in self._slots.values():
            self._answer_waiters(cell)
        for link in list(self._links):
            if link.endpoint is not None:
                link.endpoint.close("peer stopped")
        self._changed()


def start(component: PeerComponent, listen_specs: list[str],
          connect_specs: list[tuple[str, str | None]],
          timeout: float = DEFAULT_TIMEOUT,
          label: str | None = None) -> PeerInstance:
    """Configure, connect, and activate one peer instance."""
    instance = PeerInstance(component, label=label)
    try:
        for spec in listen_specs:
            instance.listen(spec)
        for spec, expected in connect_specs:
            instance.connect(spec, expected, timeout)
        instance.activate(timeout)
    except (transport.CommError, StartError):
        instance.stop()
        raise
    return instance


# --- deterministic multi-peer simulation on the mem transport -----------------

_sim_counter = itertools.count(1)


def simulate(components: dict[PeerId, PeerComponent], peer_names: list[str],
             timeout: float = DEFAULT_TIMEOUT) -> list[PeerInstance]:
    """Instantiate the named peers on the mem transport, wiring every pair
    related by a tie. Once every link is live at both ends, activate them
    all on the loop, in the order given, and wait for settlement. An
    instance that evaluates first leaves its pulls to the others deferred
    until they evaluate.

    The caller owns the returned instances and must stop them.
    """
    token = next(_sim_counter)
    pids = []
    for name in peer_names:
        pid = parse_peer_name(name)
        if pid not in components:
            raise StartError(f"unknown peer '{name}'")
        pids.append(pid)

    counters: dict[PeerId, int] = {}
    instances: list[PeerInstance] = []
    for pid in pids:
        counters[pid] = counters.get(pid, 0) + 1
        label = f"{pid}#{counters[pid]}"
        instances.append(PeerInstance(components[pid], label=label))

    # tie tables hold declared targets; a tie to a super-peer also covers its
    # sub-peers, so wiring matches over the super-closures of both sides
    tie_pairs = set()
    for pid, component in components.items():
        for sig in component.tie_table:
            target = component.peer_for_sig(sig)
            if target is not None:
                tie_pairs.add((pid, target))

    def tied(p: PeerId, q: PeerId) -> bool:
        any_component = next(iter(components.values()))
        closure_p = any_component.super_closure(p)
        closure_q = any_component.super_closure(q)
        return any((a, b) in tie_pairs or (b, a) in tie_pairs
                   for a in closure_p for b in closure_q)

    try:
        for idx, instance in enumerate(instances):
            instance.listen(f"mem:sim{token}-{idx}")
        wired = [0] * len(instances)
        for j in range(len(instances)):
            for i in range(j):
                if tied(pids[i], pids[j]):
                    instances[j].connect(f"mem:sim{token}-{i}", str(pids[i]), timeout)
                    wired[i] += 1
                    wired[j] += 1
        # `connect` returns once the connecting end is live; the accepting end
        # goes live on the final HelloAck, and no instance may evaluate before
        deadline = time.monotonic() + timeout
        for instance, count in zip(instances, wired):
            if not instance._wait_live_links(count, max(deadline - time.monotonic(), 0)):
                raise StartError(f"{instance.label}: timed out waiting for its links")
        for instance in instances:
            try:
                instance.activate(timeout)
            except StartError as e:
                raise StartError(f"{instance.label}: {e}") from None
        for instance in instances:
            instance.wait_settled(timeout)
        return instances
    except BaseException:
        for instance in instances:
            instance.stop()
        raise
