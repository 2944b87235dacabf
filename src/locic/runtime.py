"""Peer instance lifecycle.

A peer instance loads one component, establishes connections, each a
`_Link` that its endpoint calls, validated against the component's tie
table during a hello handshake (closed if it has not completed by its
deadline), waits until every single tie has its remote, evaluates the slots
available on its peer in source order, and serves remote dispatch: a
request or channel-open reads the access plan of the value it names.
Remote-access sites in slot bodies produce futures (pull) or stream handles
(connected channels) shaped by the tie multiplicity. Every body, a slot's
or a `.map`'s, is compiled once into a closure (`_compile`): a slot's when
it evaluates, a `.map`'s when its stream is made. Slot reads, remote pulls
and evaluation errors still happen at each call, so at each mapped message.

Every instance in a process runs on the transport's one event loop, so an
instance starts no thread and holds no lock. A request or channel-open for
a slot that is not evaluated yet is a deferred response: it waits in the
slot's cell, is answered as soon as the slot evaluates, fails with "peer
stopped" if the instance stops first, and is dropped if its link closes.
Other threads cross only at the public methods: `listen`, `fire`, `links`
and `stop` run on the loop (`transport.on_loop`); `connect`, `activate`
and `wait_settled` run their work on the loop and then wait for one
completion (`Loop.run_until`): while no other thread drives the loop, the
calling thread drives it, so `simulate` runs every instance on its
caller's thread. `slot`, `slot_state` and the reports only read. The
futures and streams a slot holds are loop-only (`transmit`). A blocking
call made from a callback on the loop cannot wait, so it times out at once.
"""

from __future__ import annotations

import itertools
import json
import operator
from typing import Any, Callable

from . import ast, transmit, transport, wire
from .arch import PeerId, parse_peer_name
from .ast import Multiplicity
from .checker import (STREAM, RemoteCall, TBinOp, TRef, TStreamMap, TStreamSource, TTupleExpr,
                      TypedExpr, codec_of)
from .codecs import CodecError
from .records import record
from .sigs import PeerSig
from .splitter import PeerComponent
from .transmit import DEFERRED, Endpoint, FutureSlot, StreamHandle
from .transport import on_loop
from .wire import ChanOpen, Hello, HelloAck, Request, Response

CONFIGURED, CONNECTING, RUNNING, STOPPED = "configured", "connecting", "running", "stopped"

DEFAULT_TIMEOUT = 10.0

# how a failed handshake failed, besides a rejection
_HANDSHAKE_TIMED_OUT = "handshake timed out"
_CLOSED_IN_HANDSHAKE = "connection closed during handshake"


# the binary operators on Ints; any other operator is `==`
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "<": operator.lt}


class StartError(Exception):
    pass


class EvalError(Exception):
    pass


@record
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
    """One connection, from its first byte: it starts its endpoint on `conn`
    and is the owner that endpoint calls. Its handshake is open while
    `deadline`, its timer, is set, and settles once, keeping neither that
    timer nor `waiter`, the future `connect` waits on. The remote's identity,
    shared with the instance, is filled in when its hello is admitted."""

    def __init__(self, instance: PeerInstance, conn: transport.Connection, opener: bool,
                 timeout: float, expected: PeerId | None = None,
                 waiter: FutureSlot | None = None):
        self.instance = instance
        self.opener = opener
        self.expected = expected
        self.waiter = waiter
        self.link_id = 0
        self.remote_sig: PeerSig | None = None
        self.remote_pid: PeerId | None = None
        self.matched: tuple[PeerId, ...] = ()  # tie-table peers this remote counts toward
        self.live = False
        self.deadline: transport.Timer | None = transport.loop().call_later(
            timeout, self.timed_out)
        self.endpoint = Endpoint(conn, opener, self, instance._served)
        instance._links.append(self)
        self.endpoint.start()  # the link holds its endpoint before any envelope arrives

    @property
    def ref(self) -> RemoteRef:
        return RemoteRef(self.remote_sig, self.link_id)

    def settle(self, failure: str | None = None) -> None:
        """End the handshake, if still open: cancel its deadline and hand
        `connect` why it failed, None once the link is live."""
        if self.deadline is not None:
            self.deadline.cancel()
            waiter, self.deadline, self.waiter = self.waiter, None, None
            if waiter is not None:
                waiter.resolve(failure)

    def timed_out(self) -> None:
        if self.deadline is not None:
            self.instance._drop_link(self, _HANDSHAKE_TIMED_OUT)
            self.endpoint.close(_HANDSHAKE_TIMED_OUT)

    def on_control(self, env) -> None:
        instance, ep = self.instance, self.endpoint
        if isinstance(env, Hello):
            refused = instance._admit(self, env)
            if refused is not None:
                ep.try_send(HelloAck(False, refused))
                ep.close()
                self.settle(refused)
                return
            try:
                ep.send(HelloAck(True))
                if not self.opener:
                    ep.send(instance._hello)
            except transport.ConnectionClosed:
                instance._drop_link(self, "connection lost during handshake")
                return
            if self.opener:  # connector admitted the acceptor's hello: handshake complete
                instance._mark_live(self)
        elif isinstance(env, HelloAck):
            if not env.accepted:
                instance._drop_link(self, env.reason or "rejected")
                ep.close()
            elif not self.opener and self.remote_pid is not None:
                instance._mark_live(self)

    def on_closed(self, reason: str) -> None:
        self.instance._drop_link(self, f"connection closed: {reason}")

    def on_request(self, req: Request):
        if not self.live:  # only a link the handshake admitted and completed is served
            return Response(req.id, False, error="connection not admitted")
        instance = self.instance
        plan = instance.component.dispatch.get(req.value)
        if plan is None:
            return Response(req.id, False, error=f"value not found: {req.value.canonical}")
        if plan.mode == STREAM:
            return Response(req.id, False, error=(f"'{req.value.canonical}' is a stream; "
                                                  f"open a channel to access it"))
        cell = instance._slots[plan.slot]
        if instance._defers(cell):
            cell.waiters.append((self, req))
            return DEFERRED
        if cell.state != _SlotCell.READY:
            return Response(req.id, False, error=(f"value '{cell.name}' is unavailable: "
                                                  f"{cell.error or 'peer stopped'}"))
        if cell.payload is None:  # a READY value never changes; serve its bytes again
            try:
                cell.payload = plan.codec.serialize(cell.value)
            except CodecError as e:
                return Response(req.id, False, error=str(e))
        return Response(req.id, True, payload=cell.payload)

    def on_chan_open(self, env: ChanOpen):
        instance = self.instance
        plan = instance.component.dispatch.get(env.value)
        if plan is None or plan.mode != STREAM or not self.live:
            return None
        cell = instance._slots[plan.slot]
        if instance._defers(cell):
            cell.waiters.append((self, env))
            return DEFERRED
        ready = cell.state == _SlotCell.READY and isinstance(cell.value, StreamHandle)
        return cell.value if ready else None


class _SlotCell:
    """A slot this peer evaluates."""

    PENDING, READY, ERROR = "pending", "ready", "error"

    def __init__(self, name: str, body: TypedExpr):
        self.name = name
        self.body = body
        self.state = self.PENDING
        self.value: Any = None
        self.error: str | None = None
        self.payload: bytes | None = None  # the READY value, once serialized
        self.waiters: list[tuple[_Link, Request | ChanOpen]] = []  # deferred responses


class PeerInstance:
    def __init__(self, component: PeerComponent, label: str | None = None):
        self.component = component
        self.label = label or str(component.peer)
        self.state = CONFIGURED
        self._links: list[_Link] = []  # one per open connection, admitted or not
        self._watchers: list[Callable[[], bool]] = []
        self._next_link_id = itertools.count(1)
        self._listeners: list[transport.Listener] = []
        # in source order; a slot placed on another peer has no cell
        self._slots: dict[str, _SlotCell] = {
            name: _SlotCell(name, plan.body) for name, plan in component.slots
            if plan is not None
        }
        self._evaluated = False
        self._gather: dict[PeerId, list[_Link]] = {}  # see _links_for
        self._tie_entries = sorted(component.tie_table.items())
        # a known remote's signature -> that signature, its peer id and the
        # tie-table entries it counts toward, shared by the remote's links
        sigs = {pid: component.sig_of(pid) for pid in component.peer_table}
        self._remotes = {sig: (sig, pid, component.ties_to(pid)) for pid, sig in sigs.items()}
        self._served = wire.value_parts(component.dispatch)
        self._hello = Hello(component.root_module, component.sig)  # sent on every link

    # -- waiting on the loop ------------------------------------------------

    def _changed(self) -> None:
        self._gather.clear()
        if self._watchers:
            watchers, self._watchers = self._watchers, []
            self._watchers = [w for w in watchers if not w()] + self._watchers

    def _await(self, check: Callable[[], bool], timeout: float) -> bool:
        """Run check() on the loop now and after every change to links,
        evaluation or state, until it returns True or `timeout` passes;
        returns whether it did."""
        done, loop = FutureSlot(), transport.loop()

        def watch() -> bool:
            if not done.done() and check():
                done.resolve(True)
            return done.done()

        loop.call(lambda: watch() or self._watchers.append(watch))
        if not loop.run_until(done, timeout):
            loop.call(done.resolve, False)
        return done.value

    # -- connection management ------------------------------------------

    @on_loop
    def listen(self, spec: str) -> transport.Listener:
        listener = transport.listen(spec, self._on_inbound)
        self._listeners.append(listener)
        return listener

    def connect(self, spec: str, expected_peer: str | None = None,
                timeout: float = DEFAULT_TIMEOUT) -> RemoteRef:
        expected = self._resolve_peer_name(expected_peer) if expected_peer else None
        done, loop = FutureSlot(), transport.loop()
        link = loop.call(self._open_link, spec, timeout, expected, done)
        # the handshake deadline settles `done`, so the wait needs none
        if not loop.run_until(done):  # on the loop thread nothing is waited for
            loop.call(link.timed_out)
        failure = done.value
        if failure is None:
            return link.ref
        if failure == _HANDSHAKE_TIMED_OUT:
            raise StartError(f"handshake with {spec} timed out")
        if failure == _CLOSED_IN_HANDSHAKE:
            raise StartError(f"connection to {spec} closed during handshake")
        raise StartError(f"connection to {spec} rejected: {failure}")

    def _open_link(self, spec: str, timeout: float, expected: PeerId | None,
                   done: FutureSlot) -> _Link:
        link = _Link(self, transport.connect(spec), True, timeout, expected, done)
        try:
            link.endpoint.send(self._hello)
        except transport.ConnectionClosed:
            link.settle(_CLOSED_IN_HANDSHAKE)
        return link

    def _resolve_peer_name(self, name: str) -> PeerId:
        pid = parse_peer_name(name)
        if pid not in self.component.peer_table:
            raise StartError(f"unknown peer '{name}'")
        return next(own for own in self.component.peer_table if own == pid)  # the table's own

    def _on_inbound(self, conn: transport.Connection) -> None:
        _Link(self, conn, False, DEFAULT_TIMEOUT)

    def _admit(self, link: _Link, hello: Hello) -> str | None:
        """Admit the remote that said `hello` on `link`; None, or why not."""
        if link.remote_pid is not None:
            return "hello received twice"
        if hello.proto_version != wire.PROTO_VERSION:
            return (f"protocol version {hello.proto_version} is not supported "
                    f"(expected {wire.PROTO_VERSION})")
        if hello.module != self.component.root_module:
            return (f"module signature mismatch: remote compiled from "
                    f"'{hello.module}', local from '{self.component.root_module}'")
        remote = self._remotes.get(hello.peer)
        if remote is None:
            return f"unknown peer signature '{hello.peer}'"
        _, remote_pid, matched = remote
        if link.expected is not None and link.expected not in self.component.super_closure(remote_pid):
            return f"expected a {link.expected} instance, remote is {remote_pid}"
        for pid in matched:
            mult = self.component.tie_table[pid]
            if mult is not Multiplicity.MULTIPLE and any(pid in other.matched for other in self._links):
                return f"tie to {pid} is {mult.keyword}; an instance is already connected"
        link.link_id = next(self._next_link_id)
        link.remote_sig, link.remote_pid, link.matched = remote
        return None

    def _drop_link(self, link: _Link, failure: str) -> None:
        """Forget `link` and its deferred responses; its handshake, if open, fails."""
        if link in self._links:
            self._links.remove(link)
            for cell in self._slots.values():
                if cell.waiters:
                    cell.waiters = [w for w in cell.waiters if w[0] is not link]
            self._changed()
        link.settle(failure)

    def _mark_live(self, link: _Link) -> None:
        link.live = True
        self._changed()
        link.settle()

    def _wait_live_links(self, count: int, timeout: float) -> bool:
        """Wait until at least `count` links are live at this end."""
        return self._await(lambda: sum(1 for link in self._links if link.live) >= count,
                           timeout)

    # -- activation -------------------------------------------------------

    def _unmet_single_ties(self) -> list[PeerId]:
        return [pid for pid, mult in self._tie_entries if mult is Multiplicity.SINGLE
                and sum(1 for link in self._links if link.live and pid in link.matched) != 1]

    def activate(self, timeout: float = DEFAULT_TIMEOUT) -> None:
        """Wait for single ties, then evaluate slots in order and serve dispatch."""
        if self.state == STOPPED:
            raise StartError("instance is stopped")

        def ties_met() -> bool:
            if self.state == STOPPED:
                return True
            if self._unmet_single_ties():
                self.state = CONNECTING
                return False
            self.state = RUNNING
            self.evaluate_slots()
            return True

        if not self._await(ties_met, timeout):
            unmet = ", ".join(str(p) for p in transport.loop().call(self._unmet_single_ties))
            waited = "timed out waiting for" if timeout > 0 else "unmet"
            raise StartError(f"{waited} single ties to: {unmet}")
        if not self._evaluated:
            raise StartError("stopped while connecting")

    def evaluate_slots(self) -> None:
        """Evaluate every slot in source order. Call it on the loop."""
        if self._evaluated:
            return
        self._evaluated = True
        for cell in self._slots.values():
            try:
                cell.value = self._compile(cell.body)(None)
                cell.state = _SlotCell.READY
            except EvalError as e:
                cell.error = str(e)
                cell.state = _SlotCell.ERROR
            self._answer_waiters(cell)
        self._changed()

    @staticmethod
    def _answer_waiters(cell: _SlotCell) -> None:
        """Answer the deferred responses, now that `cell` does not defer."""
        waiters, cell.waiters = cell.waiters, []
        for link, env in waiters:
            if isinstance(env, Request):
                link.endpoint.try_send(link.on_request(env))
            else:
                link.endpoint.attach(env.chan, link.on_chan_open(env))

    def _defers(self, cell: _SlotCell) -> bool:
        """Whether a request for `cell` waits for it to evaluate."""
        return cell.state == _SlotCell.PENDING and self.state != STOPPED

    # -- expression evaluation ---------------------------------------------

    def _read_slot(self, name: str) -> Any:
        cell = self._slots.get(name)
        if cell is None:
            if name in dict(self.component.slots):
                raise EvalError(f"value '{name}' is not placed on this peer")
            raise EvalError(f"unknown value '{name}'")
        if cell.state == _SlotCell.ERROR:
            raise EvalError(f"value '{name}' failed to initialize: {cell.error}")
        if cell.state != _SlotCell.READY:
            raise EvalError(f"value '{name}' is not yet initialized")
        return cell.value

    def _links_for(self, target: PeerId) -> list[_Link]:
        """The live links to instances of `target`, by link id; kept until a
        link goes live or drops, so one evaluation finds each target's once."""
        links = self._gather.get(target)
        if links is None:
            links = self._gather[target] = sorted(
                (link for link in self._links
                 if link.live and target in self.component.super_closure(link.remote_pid)),
                key=lambda link: link.link_id)
        return links

    def _compile(self, e: TypedExpr, var: str | None = None,
                 env: dict[str, Any] = {}) -> Callable[[Any], Any]:
        """`e` as a closure of the value of `var`, walked once; the variables
        of enclosing maps are fixed by `env`, which is never changed. Slot
        reads, remote accesses and new streams happen at each call."""
        if isinstance(e, ast.LITERALS):
            const = e.value
            return lambda _value: const
        if isinstance(e, TRef):
            name = e.name
            if not e.is_var:
                return lambda _value: self._read_slot(name)
            if name == var:
                return lambda value: value
            const = env[name]
            return lambda _value: const
        if isinstance(e, TBinOp):
            op = _BINOPS.get(e.op, operator.eq)
            left, right = self._compile(e.left, var, env), self._compile(e.right, var, env)
            return lambda value: op(left(value), right(value))
        if isinstance(e, TTupleExpr):
            items = [self._compile(i, var, env) for i in e.items]
            return lambda value: tuple([item(value) for item in items])
        if isinstance(e, TStreamSource):
            return lambda _value: self._fresh_stream(e.ty)
        if isinstance(e, TStreamMap):
            source = self._compile(e.source, var, env)
            return lambda value: self._eval_stream_map(e, source(value), {**env, var: value})
        if isinstance(e, RemoteCall):
            return lambda _value: self._eval_remote_call(e)
        raise EvalError(f"cannot evaluate {type(e).__name__}")

    @staticmethod
    def _fresh_stream(ty) -> StreamHandle:
        return StreamHandle(codec_of(ty.elem) if isinstance(ty, ast.TStream) else None)

    def _eval_stream_map(self, e: TStreamMap, source: Any, env: dict[str, Any]) -> StreamHandle:
        """The stream of `e`'s body on each value `source` emits; its body is
        compiled once, here, with the enclosing maps' variables in `env`."""
        if not isinstance(source, StreamHandle):
            raise EvalError("'.map' applied to a non-stream value")
        derived = self._fresh_stream(e.ty)
        body, emit = self._compile(e.body, e.var, env), derived.emit

        def on_emit(value):
            try:
                emit(body(value))
            except (EvalError, transmit.StreamClosed):
                pass

        unsubscribe = source.subscribe(on_emit, derived.close)
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

    @property
    def slot_names(self) -> list[str]:
        """The slots this peer evaluates, in source order."""
        return list(self._slots)

    @on_loop
    def links(self) -> list[RemoteRef]:
        return [link.ref for link in self._links if link.live]

    # -- settlement and reporting ---------------------------------------------

    def wait_settled(self, timeout: float = DEFAULT_TIMEOUT) -> bool:
        """Wait until every pull future in evaluated slots reaches a terminal state."""
        loop = transport.loop()
        deadline = loop.clock() + timeout
        if not self._await(lambda: self._evaluated or self.state == STOPPED, timeout):
            return False
        # a cell that failed or never evaluated holds no value, so no futures
        settled = loop.call(lambda: transmit.all_settled(
            [fut for cell in self._slots.values() for fut in slot_futures(cell.value)]))
        return loop.run_until(settled, max(deadline - loop.clock(), 0))

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
        try:
            return str(value)
        except ValueError:  # an Int past the interpreter's int-to-str digit limit
            import decimal  # only such an Int pays for the import

            return format(decimal.Decimal(value), "f")

    def slot_line(self, name: str) -> str:
        """`name = value`, or `name = <failed: why>` for a slot that failed."""
        cell = self._slots[name]
        if cell.state == _SlotCell.ERROR:
            return f"{name} = <failed: {cell.error}>"
        return f"{name} = {self.format_value(cell.value)}"

    def settled_lines(self) -> list[str]:
        return [self.slot_line(name) for name in self._slots]

    def slot_report(self) -> list[dict]:
        return [{"name": cell.name, "status": "failed", "error": cell.error}
                if cell.state == _SlotCell.ERROR else
                {"name": cell.name, "status": "settled", "value": self.format_value(cell.value)}
                for cell in self._slots.values()]

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
    except BaseException:  # also an interrupt: nothing half-started stays bound
        instance.stop()
        raise
    return instance


# --- deterministic multi-peer simulation on the mem transport -----------------

_sim_counter = itertools.count(1)


def simulate(components: dict[PeerId, PeerComponent], peer_names: list[str],
             timeout: float = DEFAULT_TIMEOUT) -> list[PeerInstance]:
    """Instantiate the named peers on the mem transport, wiring every pair
    related by a tie. Once every link is live at both ends, activate them
    all on the loop, in the order given, and wait for settlement. No link
    can arrive after that, so activation does not wait: a single tie that
    no listed peer meets fails at once. An instance that evaluates first
    leaves its pulls to the others deferred until they evaluate.

    The caller owns the returned instances and must stop them.
    """
    token = next(_sim_counter)
    pids = []
    for name in peer_names:
        pid = parse_peer_name(name)
        if pid not in components:
            raise StartError(f"unknown peer '{name}'")
        pids.append(pid)

    instances = [PeerInstance(components[pid], label=f"{pid}#{pids[:k + 1].count(pid)}")
                 for k, pid in enumerate(pids)]

    try:
        for idx, instance in enumerate(instances):
            instance.listen(f"mem:sim{token}-{idx}")
        wired = [0] * len(instances)
        for j in range(len(instances)):
            for i in range(j):
                # wired where either end's admission would count the other
                if components[pids[i]].ties_to(pids[j]) or components[pids[j]].ties_to(pids[i]):
                    instances[j].connect(f"mem:sim{token}-{i}", str(pids[i]), timeout)
                    wired[i] += 1
                    wired[j] += 1
        # `connect` returns once the connecting end is live; the accepting end
        # goes live on the final HelloAck, and no instance may evaluate before
        clock = transport.loop().clock
        deadline = clock() + timeout
        for instance, count in zip(instances, wired):
            if not instance._wait_live_links(count, max(deadline - clock(), 0)):
                raise StartError(f"{instance.label}: timed out waiting for its links")
        for instance in instances:
            try:
                instance.activate(0)
            except StartError as e:
                raise StartError(f"{instance.label}: {e}") from None
        for instance in instances:
            instance.wait_settled(timeout)
        return instances
    except BaseException:
        for instance in instances:
            instance.stop()
        raise
