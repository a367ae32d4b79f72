#!/usr/bin/env python3
"""Sensitivity check: flip one existing setting at a time and confirm the
benchmark attributes the change to the right layer.

- airline-mix with coalescing off reads coalesce.msgs_per_frame == 1.0 and a
  higher wire.bytes_per_acquire;
- airline-mix with the WAN retransmission floor reads a higher grant.p99_us;
- local-churn (no links) stays within its end-to-end bounds under both.

Run from the repository root: python3 perfbench/sensitivity.py [seed ...]
"""

import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))
CMD = BENCH["command"]
SECONDS = str(BENCH["run_seconds"])
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}


def run(workload, seed, trace, *extra):
    out = subprocess.run(
        CMD + ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
               "--trace", str(trace), *extra],
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} {extra} seed {seed}: incorrect run")
    return {k: v["value"] for k, v in result["metrics"].items()}


def median_of(runs, name):
    return statistics.median(r[name] for r in runs)


def main():
    seeds = [int(s) for s in sys.argv[1:]] or [11, 12, 13]
    failures = []

    base = [run("airline-mix", s, 1) for s in seeds]
    nocoal = [run("airline-mix", s, 1, "--coalesce", "0") for s in seeds]
    wan = [run("airline-mix", s, 1, "--rto", "wan") for s in seeds]
    for name in ["coalesce.msgs_per_frame", "wire.bytes_per_acquire", "grant.p99_us",
                 "reliable.retransmits_per_kmsg", "reliable.acks_per_data"]:
        print(f"airline-mix {name:32} base {median_of(base, name):10.4f}  "
              f"coalesce=0 {median_of(nocoal, name):10.4f}  "
              f"rto=wan {median_of(wan, name):10.4f}")
    if any(r["coalesce.msgs_per_frame"] != 1.0 for r in nocoal):
        failures.append("coalesce=0 did not read 1.0 messages per frame")
    if median_of(nocoal, "wire.bytes_per_acquire") <= median_of(base, "wire.bytes_per_acquire"):
        failures.append("coalesce=0 did not raise wire.bytes_per_acquire")
    if median_of(wan, "grant.p99_us") <= median_of(base, "grant.p99_us"):
        failures.append("rto=wan did not raise grant.p99_us")

    churn = {
        "base": [run("local-churn", s, 0) for s in seeds],
        "coalesce=0": [run("local-churn", s, 0, "--coalesce", "0") for s in seeds],
        "rto=wan": [run("local-churn", s, 0, "--rto", "wan") for s in seeds],
    }
    for name, m in BOUNDS.items():
        ref = median_of(churn["base"], name)
        for label in ["coalesce=0", "rto=wan"]:
            v = median_of(churn[label], name)
            worse = (v - ref) / ref if m["better"] == "lower" else (ref - v) / ref
            print(f"local-churn {name:16} base {ref:12.4f}  {label:10} {v:12.4f}  "
                  f"worse by {100 * worse:6.2f}% (bound {100 * m['bound']:.0f}%)")
            if worse > m["bound"]:
                failures.append(f"local-churn {name} moved under {label}")

    for f in failures:
        print("FAIL:", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
