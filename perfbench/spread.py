#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workload W ...] [--traced] [--out FILE]

For every workload it makes RUNS runs with seeds FIRST_SEED, FIRST_SEED + 1,
..., one at a time and each as long as BENCHMARK.json's run_seconds, and
prints each end-to-end metric's median, quartiles and spread
(interquartile distance over the median) next to the bound that
BENCHMARK.json fixes for it. `--traced` adds one traced run per workload.
`--out` writes everything, with the interpreter version and git commit, as
JSON. Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
FIRST_SEED = 1


def _run(command, workload, seed, seconds, trace):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def _git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in names:
        runs = [_run(bench["command"], name, FIRST_SEED + i, seconds, 0) for i in range(RUNS)]
        entry = {"runs": runs, "metrics": {}}
        print(f"{name}: {RUNS} runs, {statistics.median(r['wall_s'] for r in runs):.1f} s"
              f" each, failed {sorted(set(r['failed'] for r in runs))} of"
              f" {sorted(set(r['attempted'] for r in runs))},"
              f" correct {all(r['correct'] for r in runs)}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            summary = _summary(values)
            summary["bound"] = metric["bound"]
            entry["metrics"][metric["name"]] = summary
            flag = "" if summary["spread"] < metric["bound"] / 3 else "  <-- above bound/3"
            print(f"  {metric['name']:18} median {summary['median']:12.5g}"
                  f"  q1 {summary['q1']:12.5g}  q3 {summary['q3']:12.5g}"
                  f"  spread {summary['spread']:.4f} (bound {metric['bound']}){flag}")
        if args.traced:
            traced = _run(bench["command"], name, FIRST_SEED, seconds, 1)
            entry["traced"] = traced
            print(f"  traced: {traced['wall_s']:.1f} s, correct {traced['correct']}")
            for key, metric in traced["metrics"].items():
                print(f"    {key:26} {metric['value']:.6g} {metric['unit']}")
        report["workloads"][name] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
