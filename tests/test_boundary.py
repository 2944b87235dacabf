"""The thread boundary. Connections, futures, streams and endpoints are
loop-only objects: only the thread driving the loop touches them. Other
threads cross at a few public methods, marked `transport.on_loop`, and at the
calls that cross through `Loop.call` or `Loop.run_until` themselves."""

import collections
import threading

import helpers
from locic import runtime, transmit, transport
from locic.arch import PeerId
from locic.runtime import start
from locic.splitter import split

SESSION = """
    module Boundary {
      peer Hub { tie: multiple Spoke }
      peer Spoke { tie: single Hub }
      source s: Stream[Int] on Hub
      val x: Int on Hub = 5
      val mirror: Stream[Int] on Spoke = s.asLocal
      val doubled: Stream[Int] on Spoke = mirror.map(n => n * 2)
      val fx: Future[Int] on Spoke = x.asLocal
    }
"""

LOOP_ONLY = [
    (transport.Connection, "open"), (transport.Connection, "send"),
    (transport.Connection, "close"),
    (transmit.FutureSlot, "_settle"), (transmit.FutureSlot, "on_settle"),
    (transmit.StreamHandle, "emit"), (transmit.StreamHandle, "on_close"),
    (transmit.StreamHandle, "close"),
    (transmit.Endpoint, "pull"), (transmit.Endpoint, "open_stream"),
    (transmit.Endpoint, "attach"),
]

# the methods that other threads call, each running on the loop
BOUNDARY = {"StreamHandle.subscribe", "PeerInstance.listen", "PeerInstance.fire",
            "PeerInstance.links", "PeerInstance.stop"}


def _marked_on_loop() -> set[str]:
    """Every function and method in the runtime's layers that `on_loop` wraps."""
    guard = transport.on_loop(lambda: None).__code__
    marked = set()
    for module in (transport, transmit, runtime):
        for name, obj in vars(module).items():
            if not isinstance(obj, type):
                members = [(name, obj)]
            elif obj.__module__ == module.__name__:
                members = [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()]
            else:
                continue  # a class imported from elsewhere
            marked |= {label for label, fn in members
                       if getattr(fn, "__code__", None) is guard and hasattr(fn, "__wrapped__")}
    return marked


def test_a_tcp_session_that_the_daemon_drives_touches_loop_only_objects_on_the_loop(
        monkeypatch):
    marked = _marked_on_loop()  # before the recording wrappers replace any
    calls, off_loop = collections.Counter(), []

    def recording(cls, name):
        method, label = getattr(cls, name), f"{cls.__name__}.{name}"

        def record(*args, **kwargs):
            calls[label] += 1
            if transport.loop()._owner != threading.get_ident():
                off_loop.append(label)
            return method(*args, **kwargs)

        return record

    for cls, name in LOOP_ONLY:
        monkeypatch.setattr(cls, name, recording(cls, name))
    components = split(helpers.compile_clean(SESSION)[3])
    # the listening socket keeps the daemon driving whenever no call of this
    # thread's holds the loop, so each call below crosses to the daemon
    hub = start(components[PeerId((), "Hub")], ["tcp:127.0.0.1:0"], [], timeout=5)
    spoke = None
    try:
        spoke = start(components[PeerId((), "Spoke")], [],
                      [(hub._listeners[0].address, "Hub")], timeout=5)
        # the pull's answer follows the channel-open on the FIFO connection
        assert spoke.wait_settled(5) and spoke.slot("fx").value == 5
        got, all_in = [], threading.Event()

        def on_value(value):
            got.append(value)
            if len(got) == 3:
                all_in.set()

        spoke.slot("doubled").subscribe(on_value)
        for n in range(3):
            hub.fire("s", n)
        assert all_in.wait(5) and got == [0, 2, 4]
        assert [ref.peer.peer_name for ref in hub.links()] == ["Spoke"]
        assert len(spoke.links()) == 1
    finally:
        if spoke is not None:
            spoke.stop()
        hub.stop()
    assert transport.loop().call(lambda: spoke.slot("doubled").closed)
    assert off_loop == []
    assert set(calls) == {f"{cls.__name__}.{name}" for cls, name in LOOP_ONLY}
    # the boundary is exactly these methods; a new crossing is a decision
    assert marked == BOUNDARY
