#!/usr/bin/env python3
"""Print one bench/perf_history.jsonl row for a measured commit.

A row pins what one commit measured on one host, so later sessions can
compare against it without rebuilding the commit:

  python3 scripts/perf_history_row.py --commit <sha> \\
      --perf-sim run1.json run2.json ... --epcc-trace epcc_trace.json \\
      --e2e sweep-cold=cold.jsonl --e2e svc-warm=warm.jsonl \\
      --e2e svc-paced=paced.jsonl --e2e native-epcc=epcc.jsonl \\
      >> bench/perf_history.jsonl

--perf-sim    perf_sim JSON runs made with --hier (the row keeps the
              median plain and traced events/s, and both golden
              checksums, which must agree across the runs).
--epcc-trace  the result line of `e2ebench/run.py --workload native-epcc
              --trace 1` (its epcc.reference_us tags the host's speed).
--e2e W=FILE  end-to-end results of workload W: either result lines of
              single `run.py --trace 0` runs, one per line (the row keeps
              each metric's median), or the last line of a `run.py
              --repeat N` run (the row keeps its medians).

The host's CPU model and vCPU count are read from this machine, so run
the script where the measurements ran.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def sig6(x: float) -> float:
    return float(f"{x:.6g}")


def e2e_medians(path: str) -> dict:
    """Median of each end-to-end metric over the runs in @path."""
    with open(path, encoding="utf-8") as f:
        results = [json.loads(line) for line in f if line.strip()]
    if not results:
        sys.exit(f"perf_history_row: {path} holds no result")
    if len(results) == 1 and "runs" in results[0]:  # a --repeat summary
        r = results[0]
        if not r.get("all_correct"):
            sys.exit(f"perf_history_row: {path} holds an incorrect run")
        row = {k: sig6(v["median"]) for k, v in r["metrics"].items()}
        row["runs"] = r["runs"]
        return row
    if not all(r.get("correct") for r in results):
        sys.exit(f"perf_history_row: {path} holds an incorrect run")
    row = {k: sig6(statistics.median(r["metrics"][k]["value"]
                                     for r in results))
           for k in results[0]["metrics"]}
    row["runs"] = len(results)
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--commit", required=True)
    ap.add_argument("--perf-sim", required=True, nargs="+")
    ap.add_argument("--epcc-trace", required=True)
    ap.add_argument("--e2e", action="append", default=[], metavar="W=FILE")
    args = ap.parse_args()

    plain, traced, checksums = [], [], set()
    for path in args.perf_sim:
        with open(path, encoding="utf-8") as f:
            sim = json.load(f)
        t = sim.get("traced_events_per_sec",
                    sim.get("breakdown", {}).get("traced_events_per_sec"))
        if t is None or "hier_checksum_ns" not in sim:
            sys.exit("perf_history_row: run perf_sim with --hier (and, "
                     "before traced_events_per_sec existed, --breakdown)")
        plain.append(sim["events_per_sec"])
        traced.append(t)
        checksums.add((sim["checksum_ns"], sim["hier_checksum_ns"]))
    if len(checksums) != 1:
        sys.exit(f"perf_history_row: checksums differ between runs: "
                 f"{sorted(checksums)}")
    checksum_ns, hier_checksum_ns = checksums.pop()
    with open(args.epcc_trace, encoding="utf-8") as f:
        epcc = json.loads(f.read().strip().splitlines()[-1])

    e2e = {}
    for spec in args.e2e:
        workload, _, path = spec.partition("=")
        if not path:
            sys.exit(f"perf_history_row: bad --e2e '{spec}' (want W=FILE)")
        e2e[workload] = e2e_medians(path)

    row = {
        "commit": args.commit,
        "cpu": cpu_model(),
        "vcpus": os.cpu_count(),
        "epcc_reference_us": epcc["metrics"]["epcc.reference_us"]["value"],
        "e2e": e2e,
        "perf_sim": {
            "runs": len(plain),
            "events_per_sec": sig6(statistics.median(plain)),
            "traced_events_per_sec": sig6(statistics.median(traced)),
            "checksum_ns": checksum_ns,
            "hier_checksum_ns": hier_checksum_ns,
        },
    }
    print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
