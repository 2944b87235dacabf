"""One workload in a fresh interpreter: set up, run timed operations, check.

    python3 bench/workloads.py WORKLOAD INPUTS --start T --seconds N
                               [--probe] [--trace FILE]

INPUTS is the JSON file `run.py` generated from the seed; START is the
parent's `time.monotonic()` just before it started this interpreter, so
the set-up time runs from a fresh interpreter to the first timed
operation. With --probe the workload only sets up, tears down and reports
its set-up time. With --trace the spans of the run are recorded and the
per-layer metrics reported instead of the end-to-end ones.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import threading
import time
from array import array

_clock = time.perf_counter


def as_value(x):
    """JSON has no tuples; every list in the inputs stands for a locic tuple."""
    return tuple(as_value(i) for i in x) if isinstance(x, list) else x


class Latencies:
    """Operation latencies in a buffer allocated up front, so that what the
    benchmark itself holds in memory does not grow with the operation count
    and peak_rss_mb measures the program."""

    def __init__(self, seconds: float, max_rate: float):
        self.buf = array("d", bytes(8 * int(seconds * max_rate + 1000)))
        self.n = 0

    def append(self, seconds: float) -> None:
        if self.n < len(self.buf):
            self.buf[self.n] = seconds
        else:
            self.buf.append(seconds)
        self.n += 1

    def __len__(self) -> int:
        return self.n

    def values(self) -> array:
        return self.buf[:self.n]


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failed = 0
        self.failures: list[str] = []  # the first few messages

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)


# --- shared front end ----------------------------------------------------------

def compile_program(source: str):
    """parse, architecture, ties, check and split, as `locic split` does."""
    from locic import arch, checker, parser, splitter
    modules = parser.parse_program(source)
    main = modules[-1]
    a = arch.resolve_architecture(main, {m.name: m for m in modules[:-1]})
    ties = arch.effective_ties(a)
    typed = checker.check_module(main, a, ties)
    components = splitter.split(typed) if not typed.diagnostics else {}
    return ties, typed, components


def emitted_bytes(components) -> int:
    from locic import splitter
    return sum(len(splitter.emit_component(pc).encode("utf-8")) for pc in components.values())


# --- compile -----------------------------------------------------------------

def check_module_output(checks: Checks, expected: dict, ties, typed, components, texts) -> None:
    """Full checks of one module against the generator's oracle."""
    from locic import splitter
    checks.expect(not typed.diagnostics,
                  f"diagnostics: {[d.message for d in typed.diagnostics][:3]}")
    got = {f"{l} {r}": m.keyword for (l, r), m in ties.items()}
    checks.expect(got == expected["ties"], "effective ties differ from the oracle")
    checks.expect(sorted(str(p) for p in components) == sorted(expected["evaluated"]),
                  "components do not cover every peer")
    for pid, pc in components.items():
        names = [name for name, _ in pc.slots]
        marks = [isinstance(plan, splitter.Evaluate) for _, plan in pc.slots]
        checks.expect(names == expected["slot_order"], f"{pid}: slot order differs")
        checks.expect(marks == expected["evaluated"].get(str(pid)),
                      f"{pid}: evaluated slots differ from the super-closure oracle")
        text = texts[pid]
        checks.expect(splitter.emit_component(pc) == text, f"{pid}: emit is not byte-stable")
        again = splitter.emit_component(splitter.read_component(text))
        checks.expect(again == text, f"{pid}: read_component then emit changes the bytes")


class Compile:
    def __init__(self, inputs: dict):
        self.pool = inputs["pool"]
        self.digests: list[bytes | None] = [None] * len(self.pool)
        self.component_bytes = 0

    def setup(self) -> None:
        from locic import arch, checker, parser, splitter  # noqa: F401

    def teardown(self) -> None:
        pass

    def run(self, seconds: float, checks: Checks, tracer=None) -> dict:
        from locic import splitter
        latencies = Latencies(seconds, 200)
        failed = 0
        start = _clock()
        while True:
            for i, expected in enumerate(self.pool):
                t0 = _clock()
                try:
                    ties, typed, components = compile_program(expected["source"])
                    texts = {pid: splitter.emit_component(pc) for pid, pc in components.items()}
                except Exception as e:  # a crash is a failed operation, not a hang
                    failed += 1
                    checks.expect(False, f"module {i}: {type(e).__name__}: {e}")
                    continue
                latencies.append(_clock() - t0)
                if tracer is not None:
                    tracer.enabled = False
                digest = hashlib.sha256("".join(texts[p] for p in sorted(texts)).encode()).digest()
                if self.digests[i] is None:
                    check_module_output(checks, expected, ties, typed, components, texts)
                    self.digests[i] = digest
                    self.component_bytes += sum(len(t.encode("utf-8")) for t in texts.values())
                else:
                    checks.expect(digest == self.digests[i] and not typed.diagnostics,
                                  f"module {i}: output differs between passes")
                if tracer is not None:
                    tracer.enabled = True
            if _clock() - start >= seconds:
                break
        return {"latencies": latencies, "busy_s": sum(latencies.values()),
                "attempted": len(latencies) + failed, "failed": failed}


# --- settle ------------------------------------------------------------------

def check_session(checks: Checks, expected: dict, instances) -> bool:
    """Every pulled future holds the generator's value; the hub's gather has
    one entry per spoke, each holding the spoke's value. Returns False when
    a future did not settle to a value (a failed operation); a settled but
    wrong value is a failed check."""
    from locic import transmit
    pulled = {k: as_value(v) for k, v in expected["pulled"].items()}
    spoke_value = as_value(expected["spoke_value"])
    n_spokes = expected["peers"].count("Spoke")
    spokes = [i for i in instances if i.component.peer.name == "Spoke"]
    hubs = [i for i in instances if i.component.peer.name == "Hub"]
    checks.expect(len(spokes) == n_spokes and len(hubs) == 1, "wrong instances")
    futures = []
    for spoke in spokes:
        for name, value in pulled.items():
            futures.append((f"{spoke.label}.{name}", spoke.slot(name), value))
    for hub in hubs:
        gathered = hub.slot("g")
        checks.expect(len(gathered) == n_spokes,
                      f"gather has {len(gathered)} entries for {n_spokes} spokes")
        checks.expect(len({ref.link_id for ref, _ in gathered}) == len(gathered)
                      and all(ref.peer.peer_name == "Spoke" for ref, _ in gathered),
                      "gather entries are not one per spoke")
        futures += [(f"{hub.label}.g[{ref}]", fut, spoke_value) for ref, fut in gathered]
    settled = True
    for label, fut, value in futures:
        if fut.state != transmit.READY:
            settled = False
            continue
        checks.expect(fut.value == value, f"{label}: not the value the generator placed")
    return settled


class Settle:
    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.component_bytes = 0

    def setup(self) -> None:
        from locic import runtime  # noqa: F401
        _, typed, self.components = compile_program(self.inputs["source"])
        if typed.diagnostics:
            raise SystemExit(f"settle module does not check: {typed.diagnostics[0].message}")

    def teardown(self) -> None:
        self.component_bytes = emitted_bytes(self.components)

    def run(self, seconds: float, checks: Checks, tracer=None) -> dict:
        from locic import runtime
        latencies = Latencies(seconds, 500)
        failed = 0
        start = _clock()
        while _clock() - start < seconds:
            t0 = _clock()
            try:
                instances = runtime.simulate(self.components, self.inputs["peers"])
            except runtime.StartError as e:
                failed += 1
                checks.expect(False, f"session did not start: {e}")
                continue
            for instance in instances:
                instance.stop()
            latencies.append(_clock() - t0)
            if tracer is not None:
                tracer.enabled = False
            if not check_session(checks, self.inputs, instances):
                failed += 1
            if tracer is not None:
                tracer.enabled = True
        return {"latencies": latencies, "busy_s": sum(latencies.values()),
                "attempted": len(latencies) + failed, "failed": failed}


# --- stream ------------------------------------------------------------------

class Stream:
    """One load thread fires a seeded sequence; a window keeps at most
    `window` messages fired but not yet delivered at both displays."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.messages = [(k, as_value(v)) for k, v in inputs["messages"]]
        self.expected = {k: [as_value(v) for v in vs] for k, vs in inputs["expected"].items()}
        self.window = inputs["window"]
        self.instances = []
        self.component_bytes = 0

    def setup(self) -> None:
        from locic import runtime, transmit
        _, typed, self.components = compile_program(self.inputs["source"])
        if typed.diagnostics:
            raise SystemExit(f"stream module does not check: {typed.diagnostics[0].message}")
        self.instances = runtime.simulate(self.components, self.inputs["peers"])
        self.sensor = self.instances[0]
        self.displays = self.instances[1:]
        # the marker pull follows the stream accesses on each FIFO connection,
        # so once it settled both channels are attached at the sensor
        for display in self.displays:
            marker = display.slot("mk")
            if marker.state != transmit.READY or marker.value != 1:
                raise SystemExit(f"{display.label}: channel attachment not confirmed")

    def teardown(self) -> None:
        for instance in self.instances:
            instance.stop()
        self.component_bytes = emitted_bytes(self.components)

    def run(self, seconds: float, checks: Checks, tracer=None) -> dict:
        window = self.window
        ring_size = 2 * window
        fired_at = [0.0] * ring_size
        latencies = Latencies(seconds, 20_000)
        slots = threading.Semaphore(window)
        lock = threading.Lock()
        delivered = [0] * len(self.displays)  # per display, both streams
        done = [0, 0.0]  # messages delivered at every display, time of the last
        mismatches = [0]

        def subscriber(d: int, stream: str):
            expected = self.expected[stream]
            n = len(expected)
            seen = [0]

            def on_value(value):
                now = _clock()
                with lock:
                    k = seen[0]
                    seen[0] = k + 1
                    if value != expected[k % n]:
                        mismatches[0] += 1
                    delivered[d] += 1
                    # each connection is FIFO, so messages complete in fire order
                    complete = min(delivered)
                    newly = complete - done[0]
                    for i in range(done[0], complete):
                        latencies.append(now - fired_at[i % ring_size])
                    if newly:
                        done[0] = complete
                        done[1] = now
                for _ in range(newly):
                    slots.release()

            return on_value, seen

        seen = []
        for d, display in enumerate(self.displays):
            for stream in ("mapped", "mp"):
                callback, counter = subscriber(d, stream)
                display.slot(stream).subscribe(callback)
                seen.append((display.label, stream, counter))

        fired = 0
        stalled = False
        start = _clock()
        while not stalled and _clock() - start < seconds:
            for kind, value in self.messages:
                if not slots.acquire(timeout=10):
                    stalled = True
                    break
                fired_at[fired % ring_size] = _clock()
                self.sensor.fire(kind, value)
                fired += 1
        for _ in range(window):
            if not slots.acquire(timeout=10):
                break
        with lock:
            completed, last = done
        checks.expect(not stalled and completed == fired,
                      f"{fired - completed} of {fired} fired messages never arrived")
        checks.expect(mismatches[0] == 0,
                      f"{mismatches[0]} deliveries differ from the fired sequence")
        rounds = fired // len(self.messages)
        for label, stream, counter in seen:
            want = rounds * len(self.expected[stream])
            checks.expect(counter[0] == want,
                          f"{label}.{stream}: {counter[0]} deliveries, expected {want}")
        return {"latencies": latencies, "busy_s": max(last - start, 1e-9),
                "attempted": fired, "failed": fired - completed}


WORKLOADS = {"compile": Compile, "settle": Settle, "stream": Stream}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("inputs")
    ap.add_argument("--start", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace")
    args = ap.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as f:
        inputs = json.load(f)
    workload = WORKLOADS[args.workload](inputs)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    workload.setup()
    setup_s = time.monotonic() - args.start
    if args.probe:
        workload.teardown()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checks = Checks()
    before = tracer.snapshot() if tracer else None
    result = workload.run(args.seconds, checks, tracer)
    after = tracer.snapshot() if tracer else None
    workload.teardown()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = sorted(result["latencies"].values())
    ops = len(latencies)
    out = {
        "setup_s": setup_s,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "ops": ops,
        "busy_s": result["busy_s"],
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "op_p90_s": statistics.quantiles(latencies, n=10)[8] if ops > 1 else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "component_bytes": workload.component_bytes,
        "checks_failed": checks.failed,
        "failures": checks.failures,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer, before, after, ops)
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
