#!/usr/bin/env python3
"""Spread report: run one workload repeatedly and show how steady each
end-to-end metric is.

    python3 perfbench/spread.py --workload ssb-flight [--runs 10] [--sets 1]

Run from the repository root. Run k uses seed k (1, 2, ..., runs), through
the command, run length and bounds listed in BENCHMARK.json. For every
metric it prints the per-run values, the median, the quartiles
(statistics.quantiles, n=4) and IQR/median next to the metric's bound. With --sets 2 it repeats the same seeds and prints how far
the second set's median moved from the first's. The header records nproc
and the CPU model, since every host-clock number depends on them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run with seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"run with seed {seed} reported wrong answers")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    print(f"workload {args.workload}, {args.runs} runs x {args.sets} sets, "
          f"{seconds} s each")
    print(f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu_model()}")

    sets = []
    for _ in range(args.sets):
        runs = [run_once(bench["command"], args.workload, seed, seconds)
                for seed in range(1, args.runs + 1)]
        sets.append(runs)

    medians = []
    for k, runs in enumerate(sets):
        print(f"\nset {k + 1}")
        set_medians = {}
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            unit = runs[0][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO NOISY")
            set_medians[name] = med
            print(f"  {name:<22} median {med:>14.6f} {unit:<6} q1 {q1:.6f} "
                  f"q3 {q3:.6f} iqr/median {spread:.4f} "
                  f"bound {bound} {verdict}")
            print("    runs: " + ", ".join(f"{v:.6g}" for v in values))
        medians.append(set_medians)

    for k in range(1, len(medians)):
        print(f"\nset {k + 1} median vs set 1")
        for name, first in medians[0].items():
            shift = medians[k][name] / first - 1 if first else float("nan")
            bound = bounds.get(name)
            print(f"  {name:<22} {shift:+.4f} (bound {bound})")


if __name__ == "__main__":
    main()
