#!/usr/bin/env python3
"""Self-test of the benchmark's gate.

    python3 perfbench/selftest.py

On the held-out seed, for `search` (closed loop) and `serve` (open loop)
it runs the workload twice unmodified and once with the slowed fixture
(`--slow-ms`: a fixed sleep inside every timed operation, or before every
submit). The two unmodified runs must agree on latency_p50_s within its
BENCHMARK.json bound, in either direction; the slowed run must exceed
it. Exits 1 if either check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METRIC = "latency_p50_s"
HELD_OUT_SEED = 7919
RUN_SECONDS = 8


def run(workload, slow_ms=0.0):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(HELD_OUT_SEED), "--seconds", str(RUN_SECONDS),
         "--trace", "0", "--slow-ms", str(slow_ms)],
        capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"selftest: {workload} exited with code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"selftest: {workload} reported an incorrect run")
    return result["metrics"][METRIC]["value"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRIC)

    ok = True
    for workload in ("search", "serve"):
        base = run(workload)
        again = run(workload)
        # Three bounds' worth of delay, so the slowed run clears the gate
        # by a margin wider than run-to-run noise.
        delay_ms = 3.0 * bound * base * 1e3
        slow = run(workload, delay_ms)
        same = again / base - 1.0
        slowed = slow / base - 1.0
        passes = abs(same) <= bound
        caught = slowed > bound
        ok = ok and passes and caught
        print(f"{workload}: {METRIC} {base:.6f} s; unmodified again "
              f"{same:+.1%} ({'passes' if passes else 'FAILS'} the "
              f"{bound:.0%} bound); +{delay_ms:.2f} ms fixture {slowed:+.1%} "
              f"({'fails the bound, as it must' if caught else 'NOT CAUGHT'})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
