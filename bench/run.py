"""locic benchmark: compile, settle and stream workloads.

    python3 bench/run.py --workload compile|settle|stream --seed N
                         --seconds S --trace 0|1

Run from the repository root. The inputs are generated from the seed
(`gen.py`); each workload runs in a fresh interpreter (`workloads.py`) with
`src/` on its path, so the toolchain is used as checked out. With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` a separate traced run reports the
per-layer metrics instead. The lines before it give each metric with its
sample count, and the machine's noise floor at the start and the end of
the run. Full results and traces go to bench/out/. The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 6  # fresh interpreters that only set up, besides the timed run
DEADLINE_S = 170.0  # the whole run, hung workloads included, ends within this


def noise_floor_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast this machine is now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def child(workload: str, inputs: Path, seconds: float, deadline: float, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every run
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), workload, str(inputs),
             "--start", repr(start), "--seconds", repr(seconds), *extra],
            env=env, cwd=ROOT, stdout=subprocess.PIPE,
            timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: workload interpreter did not finish in time") from None
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: workload interpreter exited with {proc.returncode}")
    return json.loads(lines[-1])


def metric(name: str, value: float, unit: str, n: int) -> tuple[str, dict]:
    print(f"{name} = {value:.6g} {unit} (n={n})")
    return name, {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("compile", "settle", "stream"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "locic" / "__init__.py").is_file():
        print(f"no locic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    noise_start = noise_floor_ms()
    inputs = OUT / f"{stem}.inputs.json"
    inputs.write_text(json.dumps(gen.inputs(args.workload, args.seed)), encoding="utf-8")

    if args.trace:
        trace = OUT / f"{stem}.trace.jsonl"
        res = child(args.workload, inputs, args.seconds, deadline, "--trace", str(trace))
        print(f"traced ops_per_s = {res['ops'] / res['busy_s']:.6g} 1/s (n={res['ops']})")
        metrics = dict(metric(name, value, unit, res["ops"])
                       for name, (value, unit) in res["layers"].items())
    else:
        child(args.workload, inputs, 0, deadline, "--probe")  # fills bytecode caches; not timed
        setups = [child(args.workload, inputs, 0, deadline, "--probe")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = child(args.workload, inputs, args.seconds, deadline)
        setups.append(res["setup_s"])
        n = res["ops"]
        metrics = dict([
            metric("setup_s", statistics.median(setups), "s", len(setups)),
            metric("ops_per_s", n / res["busy_s"], "1/s", n),
            metric("op_p50_us", res["op_p50_s"] * 1e6, "us", n),
            metric("peak_rss_mb", res["peak_rss_mb"], "MB", 1),
            metric("component_bytes", float(res["component_bytes"]), "bytes", 1),
        ])
        # printed, but not a BENCHMARK.json metric: it does not repeat within
        # any useful bound on a 2-core VM (see README)
        metric("op_p90_us", res["op_p90_s"] * 1e6, "us", n)
    noise_end = noise_floor_ms()
    print(f"noise floor: fixed loop {noise_start:.2f} ms at start, {noise_end:.2f} ms at end")
    for failure in res["failures"]:
        print(f"check failed: {failure}")
    print(f"attempted {res['attempted']}, failed {res['failed']}, "
          f"checks failed {res['checks_failed']}")
    (OUT / f"{stem}.trace{args.trace}.result.json").write_text(json.dumps(
        {"noise_floor_ms": [noise_start, noise_end], "child": res, "metrics": metrics},
        indent=1), encoding="utf-8")
    correct = res["checks_failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
