#!/usr/bin/env python3
"""Builds the optsched benchmark from source and runs one workload (or all).

    python3 perfbench/run.py --workload <fib_fine|burst_locked|serve_zipf|all>
                             --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built with CMake under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) at the root of the checkout. Every metric is
printed by name and unit; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics. A
per-layer metric that a workload does not exercise (say ingress.* on
fib_fine) reads 0. Exit status: 0 when every output check passed, 1 when a
check failed or the build broke, 2 on a bad invocation or a missing source
tree. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fib_fine", "burst_locked", "serve_zipf")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no BENCHMARK.json at {ROOT}", 2)
    return json.loads(spec_path.read_text())


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no optsched source tree at {ROOT / 'src'}; nothing to build", 2)
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(max(len(os.sched_getaffinity(0)), 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench_bin",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(step)}", 1)
            if result.returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})", 1)
    return build_dir / "perfbench_bin"


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, result dict)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"{workload} printed nothing (exit {proc.returncode})", 1)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(proc.stdout, end="")
        fail(f"{workload} did not end with a JSON result (exit {proc.returncode})", 1)

    # Normalize to exactly the metric set BENCHMARK.json names for this mode.
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = raw["metrics"].get(name)
        if got is None:
            if not trace:
                fail(f"{workload} did not report end-to-end metric {name}", 1)
            got = {"value": 0.0, "unit": unit}
        elif got["unit"] != unit:
            fail(f"{workload} reported {name} in {got['unit']}, BENCHMARK.json says {unit}", 1)
        metrics[name] = {"value": got["value"], "unit": unit}
    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
              "metrics": metrics}
    return proc.returncode, lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0:
        fail("--seconds must be positive", 2)
    binary = build()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    worst_code = 0
    for name in names:
        code, lines, result = run_workload(binary, spec, name, args.seed, seconds,
                                           args.trace == 1)
        worst_code = max(worst_code, 0 if result["correct"] else max(code, 1))
        results[name] = result
        print("\n".join(lines))
        print(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<44} {entry['value']:>18.6f} {entry['unit']}")

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": e for w, r in results.items()
                             for m, e in r["metrics"].items()}}
    print(json.dumps(final))
    sys.exit(worst_code)


if __name__ == "__main__":
    main()
