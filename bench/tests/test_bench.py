"""Tests of the benchmark itself: generators, oracles, checks, short runs.

    python3 -m pytest bench/tests -q

(run from the repository root; the root conftest puts src/ on the path).
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import workloads  # noqa: E402
from workloads import Checks  # noqa: E402


# --- generators -----------------------------------------------------------------

@pytest.mark.parametrize("workload", ["compile", "settle", "stream"])
def test_generators_are_deterministic_per_seed(workload):
    assert gen.inputs(workload, 3) == gen.inputs(workload, 3)
    assert gen.inputs(workload, 3) != gen.inputs(workload, 4)


def test_compile_pool_covers_the_language():
    pool = gen.compile_pool(0)
    sizes = sorted(len(m["evaluated"]) for m in pool)
    assert sizes[0] < sizes[-1]  # mixed sizes
    text = "".join(m["source"] for m in pool)
    for feature in ("include lib: Lib", "source ", ".map(", "(Int, Str)", " : ",
                    ": Future[", ": Option[Future[", ".asLocalFromAll"):
        assert feature in text
    assert re.search(r"val \w+: Stream\[.*\.asLocal$", text, re.MULTILINE)
    mults = {m for module in pool for m in module["ties"].values()}
    assert mults == set(gen.MULTS)


def test_settle_and_stream_payload_mix_is_fixed_across_seeds():
    a, b = gen.settle_module(1), gen.settle_module(2)
    assert len(a["source"]) == pytest.approx(len(b["source"]), abs=40)
    assert a["pulled"] != b["pulled"]
    lengths = sorted(len(v) for v in a["pulled"].values() if isinstance(v, str))
    assert lengths[0] == 1 and lengths[-1] == 1024
    s = gen.stream_inputs(1)
    assert len(s["messages"]) == gen.STREAM_ROUND
    assert len(s["expected"]["mapped"]) + len(s["expected"]["mp"]) == gen.STREAM_ROUND


# --- oracles against hand-worked modules ---------------------------------------------

# samples/p2p.loci, written as the generator's lists
P2P_SUPERS = {"mon.Monitor": [], "mon.Monitored": [],
              "Registry": ["mon.Monitor"], "Node": ["mon.Monitored"]}
P2P_TIES = {
    "mon.Monitor": [("mon.Monitored", "multiple")],
    "mon.Monitored": [("mon.Monitor", "single")],
    "Registry": [("mon.Monitored", "multiple"), ("Node", "multiple")],
    "Node": [("mon.Monitor", "single"), ("Registry", "single"), ("Node", "multiple")],
}


def test_tie_oracle_on_p2p_by_hand():
    assert gen.tie_oracle(P2P_SUPERS, P2P_TIES) == {
        ("mon.Monitor", "mon.Monitored"): "multiple",
        ("mon.Monitor", "Node"): "multiple",  # Node is a Monitored
        ("mon.Monitored", "mon.Monitor"): "single",
        ("mon.Monitored", "Registry"): "single",  # Registry is a Monitor
        ("Registry", "mon.Monitored"): "multiple",
        ("Registry", "Node"): "multiple",
        ("Node", "mon.Monitor"): "single",
        ("Node", "Registry"): "single",
        ("Node", "Node"): "multiple",
    }


def test_tie_oracle_keeps_the_most_specific_multiplicity():
    supers = {"A": [], "B": ["A"], "C": [], "D": ["C"]}
    ties = {"A": [("C", "multiple")], "B": [("D", "optional")], "C": [],
            "D": [("B", "single"), ("A", "multiple")]}
    assert gen.tie_oracle(supers, ties) == {
        ("A", "C"): "multiple", ("A", "D"): "multiple",
        ("B", "C"): "multiple",  # inherited from A
        ("B", "D"): "optional",  # own optional beats inherited multiple
        ("D", "A"): "multiple", ("D", "B"): "single",
    }


def test_slot_marks_follow_super_closures():
    supers = {"A": [], "B": ["A"], "C": ["B"], "E": []}
    placed = {"x": "A", "y": "B", "z": "E"}
    assert gen.slot_marks(supers, ["x", "y", "z"], placed) == {
        "A": [True, False, False],
        "B": [True, True, False],
        "C": [True, True, False],
        "E": [False, False, True],
    }


def test_literals_and_types_by_hand():
    value = ((7, "a b"), True)
    assert gen.literal(value) == '((7, "a b"), true)'
    assert gen.render_type(gen.type_of(value)) == "((Int, Str), Bool)"
    assert gen.render_type(("Seq", ("tuple", (("Remote", "lib.L0"), ("Future", gen.INT)))),
                           "lib") == "Seq[(Remote[L0], Future[Int])]"


def test_settle_expectations_match_the_source():
    s = gen.settle_module(5)
    for name, value in s["pulled"].items():
        i = name[1:]
        assert f"val h{i}: {gen.render_type(gen.type_of(value))} on Hub = " \
               f"{gen.literal(value)}\n" in s["source"]
        assert f"val p{i}: Future[" in s["source"]


def test_stream_expectations_apply_the_map_by_hand():
    s = gen.stream_inputs(5)
    line = next(l for l in s["source"].splitlines() if ".map(" in l)
    a, b = (int(x) for x in line.split("v * ")[1].rstrip(")").split(" + "))
    ints = [v for k, v in s["messages"] if k == "ints"]
    assert s["expected"]["mapped"] == [v * a + b for v in ints]
    assert s["expected"]["mp"] == [v for k, v in s["messages"] if k == "pairs"]


def test_generated_modules_check_and_match_the_oracle():
    module = gen.compile_module(gen.random.Random(1), 8, 16)
    checks = Checks()
    _run_compile_checks(checks, module)
    assert checks.failures == []


# --- every check fails on one wrong expected value ------------------------------------

def _run_compile_checks(checks: Checks, expected: dict, texts_edit=None) -> None:
    from locic import splitter
    ties, typed, components = workloads.compile_program(expected["source"])
    texts = {pid: splitter.emit_component(pc) for pid, pc in components.items()}
    if texts_edit:
        texts = texts_edit(texts)
    workloads.check_module_output(checks, expected, ties, typed, components, texts)


def _wrong_tie(m):
    key = next(iter(m["ties"]))
    m["ties"][key] = "single" if m["ties"][key] != "single" else "multiple"


def _wrong_mark(m):
    peer = next(iter(m["evaluated"]))
    m["evaluated"][peer][0] = not m["evaluated"][peer][0]


def _wrong_order(m):
    m["slot_order"][0], m["slot_order"][1] = m["slot_order"][1], m["slot_order"][0]


def _extra_peer(m):
    m["evaluated"]["Ghost"] = []


def _type_error(m):
    m["source"] = m["source"].replace("module Main {", "module Main {\n  val bad: Int on P0 = true")


@pytest.mark.parametrize("mutate, message", [
    (_wrong_tie, "effective ties"),
    (_wrong_mark, "evaluated slots"),
    (_wrong_order, "slot order"),
    (_extra_peer, "do not cover every peer"),
    (_type_error, "diagnostics"),
])
def test_compile_checks_fail_on_a_wrong_expectation(mutate, message):
    module = gen.compile_module(gen.random.Random(2), 6, 12)
    mutate(module)
    checks = Checks()
    _run_compile_checks(checks, module)
    assert any(message in f for f in checks.failures), checks.failures


def test_compile_checks_fail_on_unstable_bytes():
    module = gen.compile_module(gen.random.Random(2), 6, 12)
    checks = Checks()

    def add_blank_line(texts):
        first = next(iter(texts))
        return {**texts, first: texts[first] + "\n"}

    _run_compile_checks(checks, module, add_blank_line)
    assert any("not byte-stable" in f for f in checks.failures)
    assert any("read_component then emit" in f for f in checks.failures)


def test_compile_checks_fail_when_a_pass_differs_from_the_first():
    w = workloads.Compile({"pool": [gen.compile_module(gen.random.Random(2), 6, 12)]})
    w.digests[0] = b"not the first pass"
    checks = Checks()
    w.run(0.0, checks)
    assert any("differs between passes" in f for f in checks.failures), checks.failures


def _run(workload_cls, inputs, seconds=0.3):
    w = workload_cls(inputs)
    w.setup()
    checks = Checks()
    try:
        result = w.run(seconds, checks)
    finally:
        w.teardown()
    return result, checks


def test_settle_checks_fail_on_a_wrong_pulled_value():
    inputs = gen.settle_module(3)
    name = next(iter(inputs["pulled"]))
    inputs["pulled"][name] = "not what was placed"
    result, checks = _run(workloads.Settle, inputs)
    assert result["failed"] == 0
    assert any(f"Spoke#1.{name}" in f for f in checks.failures), checks.failures


def test_settle_checks_fail_on_a_wrong_spoke_value():
    inputs = gen.settle_module(3)
    inputs["spoke_value"] = [0, ""]
    _, checks = _run(workloads.Settle, inputs)
    assert any(".g[" in f for f in checks.failures), checks.failures


def test_settle_checks_fail_on_a_wrong_spoke_count():
    from locic import runtime
    inputs = gen.settle_module(3)
    w = workloads.Settle(inputs)
    w.setup()
    instances = runtime.simulate(w.components, inputs["peers"])
    try:
        checks = Checks()
        workloads.check_session(checks, {**inputs, "peers": ["Spoke"] * 3 + ["Hub"]}, instances)
    finally:
        for instance in instances:
            instance.stop()
    assert any("gather has 2 entries for 3 spokes" in f for f in checks.failures), checks.failures


@pytest.mark.parametrize("stream", ["mapped", "mp"])
def test_stream_checks_fail_on_a_wrong_delivery(stream):
    inputs = json.loads(json.dumps(gen.stream_inputs(3)))
    wrong = copy.deepcopy(inputs["expected"][stream][0])
    inputs["expected"][stream][0] = wrong + 1 if stream == "mapped" else [wrong[0] + 1, wrong[1]]
    result, checks = _run(workloads.Stream, inputs)
    assert result["failed"] == 0
    assert any("differ from the fired sequence" in f for f in checks.failures), checks.failures


# --- short runs of every workload pass -------------------------------------------------

@pytest.mark.parametrize("workload", ["compile", "settle", "stream"])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_passes_its_checks(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in spec["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
