#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout. The first call configures and builds
perfbench/ (Release) into .bench_build/perfbench; later calls rebuild
only what changed. The benchmark's report is passed through. The last
line of standard output is the JSON result, with the metrics that
BENCHMARK.json lists, in its order and with its units.
`--workload all` runs every workload untraced and then traced, printing
each report; it exits with 1 if any run is incorrect.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DATA = ROOT / ".bench_build" / "perfbench-data"
WORKLOADS = ("search", "ld", "serve", "serve_churn")
RUN_TIMEOUT_S = 170
# Per-layer metrics that a workload has no layer for. They are reported as
# 0; any other listed metric the program does not report fails the run.
SERVICE_LAYERS = {
    "svc.submit_s", "svc.queue_wait_s", "svc.service_s", "svc.batch_s",
    "svc.batch_self_s", "svc.batch_rows_mean", "svc.batches",
    "svc.cache_hit_ratio", "svc.rejected", "svc.failed", "svc.update_s",
    "gen.lateness_p99_s", "gen.lateness_max_s",
}
COMPUTE_LAYERS = {
    "analyze.lint_s", "kern.execute_s", "kern.gwordops_per_s",
    "cpu.compare_s", "cpu.gwordops_per_s", "core.functional_overhead_x",
    "sim.virtual_s", "sim.estimate_s", "exec.pool.wait_s", "exec.pool.run_s",
}
NOT_EXERCISED = {
    "search": SERVICE_LAYERS,
    "ld": SERVICE_LAYERS,
    "serve": COMPUTE_LAYERS | {"svc.update_s"},
    "serve_churn": COMPUTE_LAYERS,
}


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds; compiler output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no src/ next to {HERE.name}/: run from a checkout of the "
            "repository")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def listed_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json lists for this kind of
    run."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"no {path.name} next to {HERE.name}/")
    spec = json.loads(path.read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run(argv, binary):
    DATA.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([str(binary), *argv, "--data-dir", str(DATA)],
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def select(result, workload, trace):
    """Replaces the program's metrics with the listed ones, in listed
    order; returns the problems found on the way."""
    measured = result["metrics"]
    absent = NOT_EXERCISED[workload] if trace else set()
    problems = []
    metrics = {}
    for name, unit in listed_metrics(trace):
        got = measured.get(name)
        if got is None:
            if name not in absent:
                problems.append(f"{name} is listed but was not measured")
            got = {"value": 0, "unit": unit}
        elif name in absent:
            problems.append(f"{name} was measured but is marked as not "
                            f"exercised on {workload}")
        elif got["unit"] != unit:
            problems.append(f"{name} is measured in {got['unit']}, listed "
                            f"in {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    result["metrics"] = metrics
    if problems:
        result["correct"] = False
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", choices=("0", "1"),
                        help="required unless --workload all")
    parser.add_argument("--slow-ms", type=float, default=0.0,
                        help="self-test fixture: delay added to every "
                             "timed operation")
    args = parser.parse_args()
    if args.workload != "all" and args.trace is None:
        parser.error("--trace is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        die(f"build failed: {err}")
    if args.workload != "all":
        sys.stdout.write(run_checked(binary, args.workload, args.trace, args))
        return
    correct = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            out = run_checked(binary, workload, trace, args)
            sys.stdout.write(out + "\n")
            correct &= json.loads(out.splitlines()[-1])["correct"]
    sys.exit(0 if correct else 1)


def run_checked(binary, workload, trace, args):
    """Runs one workload; returns its report ending in the JSON result
    with the listed metrics."""
    argv = ["--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", trace,
            "--slow-ms", str(args.slow_ms)]
    try:
        code, out = run(argv, binary)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        sys.stderr.write(out)
        die(f"{workload} exited with code {code}")
    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(out)
        die("the last line of the output is not a JSON result")
    problems = select(result, workload, trace == "1")
    report = [*lines[:-1], *(f"metrics: FAILED: {p}" for p in problems)]
    return "\n".join([*report, json.dumps(result)]) + "\n"


if __name__ == "__main__":
    main()
