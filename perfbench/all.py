#!/usr/bin/env python3
"""Runs every workload of the benchmark, untraced and traced, and checks
that the exact-count metrics repeat across two traced runs of one seed.

    python3 perfbench/all.py [--seed N] [--seconds S]

Run from the repository root. Prints each run's report; exits 1 if any
run fails or any exact count differs between the two same-seed runs.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A traced run tags each metric that must repeat exactly.
EXACT_TAG = "(exact count)"
# Runs like the others but is not listed in BENCHMARK.json, so not gated.
UNGATED = ["serve_closed"]


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["exact"] = [l.split()[0] for l in lines if l.endswith(EXACT_TAG)]
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    ok = True
    for workload in [w["name"] for w in bench["workloads"]] + UNGATED:
        results = [run(bench["command"], workload, opts.seed, seconds, trace)
                   for trace in (0, 1, 1)]
        if any(r is None or not r["correct"] for r in results):
            print(f"all: {workload}: a run failed")
            ok = False
            continue
        first, second = results[1]["metrics"], results[2]["metrics"]
        differ = [n for n in results[1]["exact"]
                  if first[n]["value"] != second[n]["value"]]
        for name in differ:
            print(f"all: {workload}: {name} did not repeat: "
                  f"{first[name]['value']} vs {second[name]['value']}")
        ok &= not differ and bool(results[1]["exact"])
        print(f"all: {workload}: {len(results[1]['exact'])} exact counts, "
              f"{len(differ)} differ across two runs of seed {opts.seed}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
