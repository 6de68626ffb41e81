"""Steadiness check: run each workload k times and compare spreads to bounds.

Usage (from the repository root)::

    python3 designbench/steady.py --runs 10 [--workload sim_mix ...]

Each run is a separate ``run.py`` process with its own ``--seed``.  For
every end-to-end metric the command prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance
over median) and whether the spread fits the metric's bound in
``BENCHMARK.json``; ``setup_s`` is reported but has no spread bound.
Beside each run it prints the median time of the calibration loop the
run interleaved with its operations, so a slow machine phase shows, and
it checks that every run failed the same share of its operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    calibration = next(
        (line.split()[3] for line in lines if "calibration loop" in line), "?"
    )
    return json.loads(lines[-1]), calibration


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        print(f"== {workload}: {args.runs} runs of {args.seconds} s")
        for k in range(args.runs):
            seed = args.first_seed + k
            result, calibration = run_once(
                bench["command"], workload, seed, args.seconds
            )
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            shares.add((result["failed"], result["attempted"]))
            share = result["failed"] / result["attempted"]
            print(f"  seed {seed:3d}  correct {result['correct']}  "
                  f"failed {result['failed']}/{result['attempted']} "
                  f"({share:.6f})  calibration {calibration} ms  "
                  f"throughput {values['throughput_ops_s'][-1]:.3f}")
            steady &= bool(result["correct"])
        ratios = {f / a for f, a in shares}
        if len(ratios) != 1:
            steady = False
            print(f"  FAILED SHARE DIFFERS between runs: {sorted(ratios)}")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, spec in bounds.items():
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            fits = name == "setup_s" or spread <= spec["bound"]
            steady &= fits
            print(f"  {name:22s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {spec['bound']:6.2f} "
                  f"{'ok' if fits else 'TOO WIDE'}"
                  f"{'' if spread <= spec['bound'] / 3 else ' (over 1/3)'}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
