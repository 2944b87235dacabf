"""The benchmark's tracer wraps locic's functions from outside; this checks
that every function it wraps still exists with the shape it calls, and that
uninstalling puts each original back. The tracer lives in `bench/tracer.py`
and is loaded from there, unchanged."""

import importlib.util
import threading
import time
from pathlib import Path

import helpers
from locic import runtime
from locic.splitter import split
from locic.transmit import READY

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _components(sample: str):
    _, _, _, tm = helpers.compile_clean((ROOT / "samples" / sample).read_text())
    return split(tm)


def test_tracer_hooks_wrap_and_restore():
    tracing = _load_tracer()
    streams, simple = _components("streams.loci"), _components("simple.loci")
    tracer = tracing.Tracer()
    tracer.install()
    # an attribute wrapped twice is saved twice; the first save is the original
    originals = {(owner, attr): original for owner, attr, original in reversed(tracer._saved)}
    try:
        instances = runtime.simulate(streams, ["Sensor", "Display"], timeout=5)
        try:
            sensor, display = instances
            got = []
            display.slot("mirror").subscribe(got.append)
            readings = sensor.slot("readings")
            deadline = time.time() + 5
            while not readings._subscribers and time.time() < deadline:
                time.sleep(0.005)  # the display's channel is attached
            sensor.fire("readings", 41)
            while got != [41] and time.time() < deadline:
                time.sleep(0.005)
            assert got == [41]
        finally:
            for instance in instances:
                instance.stop()
        # a pull goes through the wrapped `Endpoint.pull(ep, sig, codec)`
        instances = runtime.simulate(simple, ["MyPeer", "MyPeer"], timeout=5)
        for instance in instances:
            instance.stop()
        assert all(i.slot("j").state == READY for i in instances)
    finally:
        tracer.uninstall()
    assert (threading.Thread, "start") in originals
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    counts = tracer.counts
    assert tracer.calls["runtime.simulate"] == 2 and tracer.calls["runtime.fire"] == 1
    assert tracer.calls["codecs.serialize"] >= 1 and tracer.calls["codecs.deserialize"] >= 1
    assert tracer.calls["wire.encode_envelope"] >= 1 and tracer.calls["wire.decode_envelope"] >= 1
    assert counts["transmit.pulls"] == 2
    assert counts["wire.chanmsg_payload_bytes"] == len(b"41")
    assert counts["transport.sends"] >= 1
