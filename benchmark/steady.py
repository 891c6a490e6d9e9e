#!/usr/bin/env python3
"""Checks that the benchmark is steady enough to gate on.

  benchmark/steady.py spread [--seeds 10] [--workload W]
      Runs BENCHMARK.json's command once per seed on every workload and
      prints, for each end-to-end metric, the distance between the first
      and third quartile of its values (statistics.quantiles, n=4) as a
      share of their median, next to the metric's bound. A spread above a
      third of the bound is flagged. A run over every workload is written
      to benchmark/results/spread.json.

  benchmark/steady.py repeat
      Two independent sets of runs (each: every workload on seeds 1-3,
      medians taken), their differences, and whether each difference is
      within the metric's bound; written to
      benchmark/results/repeatability.json.

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
    ]
    started = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect or failed operations: {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"  {workload} seed {seed}: {time.time() - started:.1f} s", file=sys.stderr)
    return values


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative: better)."""
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def spread(args):
    workloads = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    flagged = 0
    report = {"seeds": list(range(1, args.seeds + 1)), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in workloads:
        runs = [run_once(workload, seed) for seed in report["seeds"]]
        print(f"{workload}")
        rows = report["workloads"][workload] = {}
        for metric in SPEC["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            share = (q3 - q1) / abs(median)
            gated = metric["name"] != "setup_s"
            mark = ""
            if gated and share > metric["bound"] / 3:
                mark = "  <-- above a third of the bound"
                flagged += 1
            if gated and share > metric["bound"]:
                mark = "  <-- ABOVE THE BOUND"
            print(f"  {metric['name']:<18} median {median:>12.4f} {metric['unit']:<8} "
                  f"spread {share:6.3f}  bound {metric['bound']:.2f}{mark}")
            rows[metric["name"]] = {"values": values, "median": median, "spread": share,
                                    "bound": metric["bound"]}
    print(f"{flagged} metric/workload pairs above a third of their bound")
    if not args.workload:
        write_report("spread.json", report)


def write_report(name, report):
    path = ROOT / SPEC["paths"][0] / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")


def repeat(_args):
    seeds = [1, 2, 3]
    sets = []
    for _ in range(2):
        medians = {}
        for w in SPEC["workloads"]:
            runs = [run_once(w["name"], seed) for seed in seeds]
            medians[w["name"]] = {
                m["name"]: statistics.median(r[m["name"]] for r in runs)
                for m in SPEC["end_to_end"]
            }
        sets.append(medians)
    report = {"seeds": seeds, "run_seconds": SPEC["run_seconds"], "sets": sets, "differences": {}}
    agree = True
    for w in SPEC["workloads"]:
        rows = {}
        for m in SPEC["end_to_end"]:
            first, second = (s[w["name"]][m["name"]] for s in sets)
            share = abs(second - first) / abs(first)
            within = share <= m["bound"]
            agree &= within
            rows[m["name"]] = {"difference": share, "bound": m["bound"], "within_bound": within}
        report["differences"][w["name"]] = rows
    report["all_within_bound"] = agree
    write_report("repeatability.json", report)
    print(f"all within bound: {agree}")
    return 0 if agree else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workload")
    p.set_defaults(func=spread)
    sub.add_parser("repeat").set_defaults(func=repeat)
    args = parser.parse_args()
    sys.exit(args.func(args))
