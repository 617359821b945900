#!/usr/bin/env python3
"""Build and run the armbar end-to-end benchmark.

One run:
    python3 e2ebench/run.py --workload svc-warm --seed 1 --seconds 10 --trace 0

builds e2ebench (CMake, Release) from the sources of the enclosing
checkout into $CARGO_TARGET_DIR (default .bench_build), runs the workload
in its own process, and prints the workload's result as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of BENCHMARK.json.

Repeat mode (--repeat N) runs one workload N times, with seeds seed,
seed+1, ... (or the same seed with --same-seed), and prints each metric's
median, quartiles and spread (IQR over median).  With --same-seed --trace 1
it also reports whether the exact sim.* counts repeated.

--test builds and runs the benchmark's own unit tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print("e2ebench:", *args, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    """Configure (once) and build @target; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no armbar sources next to the benchmark in", ROOT)
        sys.exit(1)
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(bdir, target)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_once(binary, workload, seed, seconds, trace):
    """Run one workload process; returns its parsed result or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out after", RUN_TIMEOUT_S, "s")
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("workload failed with exit code", done.returncode)
        return None
    result = json.loads(lines[-1])
    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        log("metrics differ from BENCHMARK.json:",
            sorted(set(got.items()) ^ set(want.items())))
        return None
    return result


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def repeat(binary, args):
    results = []
    for i in range(args.repeat):
        seed = args.seed if args.same_seed else args.seed + i
        r = run_once(binary, args.workload, seed, args.seconds, args.trace)
        if r is None:
            return 1
        log(f"run {i + 1}/{args.repeat} seed {seed}: correct={r['correct']}"
            f" failed={r['failed']}/{r['attempted']}")
        results.append(r)
    summary = {}
    print(f"{args.workload}: {args.repeat} runs, trace {args.trace}")
    print(f"{'metric':28} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14}"
          f" {'spread':>8}")
    for name in results[0]["metrics"]:
        unit = results[0]["metrics"][name]["unit"]
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": unit, "values": vals}
        print(f"{name:28} {unit:6} {med:14.6g} {q1:14.6g} {q3:14.6g}"
              f" {spread:8.4f}")
    ok = all(r["correct"] for r in results)
    if args.same_seed and args.trace:
        counts = [tuple(r["metrics"][n]["value"] for n in r["metrics"]
                        if n.startswith("sim.") and
                        r["metrics"][n]["unit"] == "count")
                  for r in results]
        same = all(c == counts[0] for c in counts)
        print("sim.* counts identical across runs:", "yes" if same else "NO")
        ok = ok and same
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "all_correct": ok, "metrics": summary}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N times and print medians and quartiles")
    ap.add_argument("--same-seed", action="store_true",
                    help="with --repeat: reuse --seed for every run")
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    if args.test:
        tests = build("e2ebench_tests")
        return subprocess.run([tests]).returncode
    if not args.workload:
        ap.error("--workload is required")
    binary = build("e2ebench")
    if args.repeat > 0:
        return repeat(binary, args)
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
