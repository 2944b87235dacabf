"""The benchmark drives locic from outside. These tests check that every
function its tracer wraps still exists with the shape it calls, that
uninstalling puts each original back, and that the `compile` workload's own
output checks pass. The benchmark's files are loaded from `bench/`, unchanged."""

import importlib.util
import threading
import time
from pathlib import Path

import helpers
from locic import runtime
from locic.splitter import emit_component, split
from locic.transmit import READY

ROOT = Path(__file__).resolve().parents[1]


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _components(sample: str):
    _, _, _, tm = helpers.compile_clean((ROOT / "samples" / sample).read_text())
    return split(tm)


def test_tracer_hooks_wrap_and_restore():
    tracing = _load_bench("tracer")
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


def test_compile_workload_checks_pass():
    # the tie oracle, the slot marks, byte-stable emit, and read-then-emit,
    # on generated modules with included peers
    gen, workloads = _load_bench("gen"), _load_bench("workloads")
    pool = gen.inputs("compile", 7)["pool"][:4]
    assert any("include" in expected["source"] for expected in pool)
    checks = workloads.Checks()
    for expected in pool:
        ties, typed, components = workloads.compile_program(expected["source"])
        texts = {pid: emit_component(pc) for pid, pc in components.items()}
        workloads.check_module_output(checks, expected, ties, typed, components, texts)
    assert checks.failed == 0, checks.failures
