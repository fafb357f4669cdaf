#!/usr/bin/env python3
"""Runs the end-to-end benchmark in interleaved rounds and records the results.

Each of 10 rounds runs every workload once, each as its own e2e.sh process
with tracing off, in an order that rotates by one workload per round. Slow
drift of a shared host then lands on every workload alike instead of on
whichever ran last.

  python3 e2ebench/rounds.py --out A.json [--seeds 1,2,3]

Round i uses seed seeds[i % len(seeds)]. Workloads and the run length come
from BENCHMARK.json. The output holds every run's result line; compare two
such files, or read one file's spread, with e2ebench/e2e_compare.py. Exits 1
if any run fails or reports a wrong result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 10


def run_once(workload, seed, seconds):
    cmd = ["bash", os.path.join("e2ebench", "e2e.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, elapsed


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--seeds", default="1",
                   help="comma-separated seeds, cycled over the rounds")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    record = {"seconds": seconds, "runs": []}
    ok = True
    n = len(workloads)
    for rnd in range(ROUNDS):
        seed = seeds[rnd % len(seeds)]
        for workload in workloads[rnd % n:] + workloads[:rnd % n]:
            code, result, elapsed = run_once(workload, seed, seconds)
            good = code == 0 and result is not None and result["correct"]
            ok = ok and good
            print(f"round {rnd} seed {seed} {workload}: "
                  f"{'ok' if good else 'FAILED (exit %d)' % code} "
                  f"in {elapsed:.1f} s", file=sys.stderr)
            record["runs"].append({"round": rnd, "seed": seed,
                                   "workload": workload,
                                   "elapsed_s": elapsed, "result": result})
            with open(args.out, "w") as f:
                json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
