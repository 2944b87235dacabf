"""The benchmark drives locic from outside. These tests check that every
function its tracer wraps still exists with the shape it calls, that
uninstalling puts each original back, and that each workload's own output
checks pass. The benchmark's files are loaded from `bench/`, unchanged."""

import json
import threading
import time

import helpers
from locic import runtime
from locic.splitter import emit_component, split
from locic.transmit import READY


def _components(sample: str):
    _, _, _, tm = helpers.compile_clean((helpers.ROOT / "samples" / sample).read_text())
    return split(tm)


def test_tracer_hooks_wrap_and_restore():
    tracing = helpers.load_bench("tracer")
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
    # on one generated module with included peers of each size class
    gen, workloads = helpers.load_bench("gen"), helpers.load_bench("workloads")
    by_size = {}
    for expected in gen.inputs("compile", 7)["pool"]:
        by_size.setdefault(len(expected["evaluated"]) - gen.LIB_PEERS, expected)
    assert sorted(by_size) == [n_peers for n_peers, _, _ in gen.POOL_CLASSES] == [6, 16, 32, 48]
    pool = list(by_size.values())
    assert all("include" in expected["source"] for expected in pool)
    checks = workloads.Checks()
    for expected in pool:
        ties, typed, components = workloads.compile_program(expected["source"])
        texts = {pid: emit_component(pc) for pid, pc in components.items()}
        workloads.check_module_output(checks, expected, ties, typed, components, texts)
    assert checks.failed == 0, checks.failures


def test_runtime_workloads_run_without_failures():
    # a few settle sessions and one stream round over mem; the inputs pass
    # through JSON as they do on their way from bench/run.py
    gen, workloads = helpers.load_bench("gen"), helpers.load_bench("workloads")
    checks = workloads.Checks()
    settle = workloads.Settle(json.loads(json.dumps(gen.inputs("settle", 101))))
    settle.setup()
    result = settle.run(0.1, checks)
    settle.teardown()
    assert result["attempted"] >= 1 and result["failed"] == 0
    stream = workloads.Stream(json.loads(json.dumps(gen.inputs("stream", 501))))
    stream.setup()
    try:
        result = stream.run(0.05, checks)  # a round, once started, runs whole
    finally:
        stream.teardown()
    assert result["attempted"] >= len(stream.messages) and result["failed"] == 0
    assert checks.failed == 0, checks.failures
