"""Run alternating parent/change pairs of bench/run.py and write a BENCH file.

Each tree is a source checkout with its own bench/ and src/.  Pair i runs
both trees on the workload with seed 100 + i for the change tree's
BENCHMARK.json run_seconds, parent first on even i and change first on odd
i, so drift in machine speed over the session falls on both sides.  The
compared metrics and which way each is better come from the same file.
Each side's row also lists every run's minor page faults and system CPU
seconds, taken over bench/run.py and the fresh interpreters it waits for.
One --trace 1 run per side and workload gives the per-layer rows, and the
tier-1 suite is timed once per side.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs lag_riesz=10 --pairs her_riesz=10 --pairs scans=10 \\
        --out BENCH_11.json

A gain on a metric counts when there are at least MIN_PAIRS pairs, the
change is better on at least nine tenths of them and the medians differ by
more than the interquartile range of the parent's runs; "gain" in each row
says whether all three hold.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
SEED0 = 100
MIN_PAIRS = 10


def run_bench(tree: Path, workload: str, seed: int, seconds,
              trace: int) -> dict:
    """One bench/run.py run: its # env line, printed metric lines, the final
    JSON object and the run's minor faults and system CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = res.stdout.splitlines()
    env = next(json.loads(l[len("# env "):]) for l in lines
               if l.startswith("# env "))
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 2 and not line.startswith(("#", "{")):
            try:
                printed[parts[0]] = float(parts[1])
            except ValueError:
                pass
    result = json.loads(lines[-1])
    return {"env": env, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "value_drift": printed["value_drift"],
            "minflt": after.ru_minflt - before.ru_minflt,
            "stime_s": after.ru_stime - before.ru_stime,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(xs: list) -> tuple:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def compare(runs: dict, metric: str, better: str) -> dict:
    par = [r["metrics"][metric] for r in runs["parent"]]
    chg = [r["metrics"][metric] for r in runs["change"]]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
    lo, hi = quartiles(par) if len(par) > 1 else (par[0], par[0])
    med_p, med_c = statistics.median(par), statistics.median(chg)
    return {"better": better, "parent_median": med_p, "change_median": med_c,
            "change_over_parent": med_c / med_p if med_p else None,
            "parent_iqr": hi - lo, "pairs_change_better": wins,
            "pairs": len(par), "parent_runs": par, "change_runs": chg,
            "gain": (len(par) >= MIN_PAIRS and wins >= 0.9 * len(par)
                     and sign * (med_c - med_p) > hi - lo)}


def tier1(tree: Path) -> dict:
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"], cwd=tree, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": "src"})
    return {"wall_s": time.perf_counter() - t0,
            "summary": res.stdout.strip().splitlines()[-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", action="append", required=True,
                        help="WORKLOAD=N, repeatable")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    end_to_end = {m["name"]: m["better"] for m in bench["end_to_end"]}

    report = {"command": "python3 bench/run.py --workload W --seed S "
                         f"--seconds {seconds} --trace 0",
              "workloads": {}}
    for spec in args.pairs:
        workload, n = spec.split("=")
        runs = {side: [] for side in SIDES}
        for i in range(int(n)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_bench(trees[side], workload,
                                            SEED0 + i, seconds, 0))
                print(f"{workload} pair {i} {side}: "
                      f"{runs[side][-1]['metrics']}", flush=True)
        row = {"seeds": [SEED0 + i for i in range(int(n))],
               "env": {side: runs[side][0]["env"] for side in SIDES},
               "metrics": {m: compare(runs, m, b)
                           for m, b in end_to_end.items()}}
        for side in SIDES:
            row[side] = {
                "correct": all(r["correct"] for r in runs[side]),
                "value_drift": max(r["value_drift"] for r in runs[side]),
                "failed": sum(r["failed"] for r in runs[side]),
                "attempted": sum(r["attempted"] for r in runs[side]),
                "minflt_runs": [r["minflt"] for r in runs[side]],
                "stime_s_runs": [r["stime_s"] for r in runs[side]]}
            row[side]["fail_frac"] = (row[side]["failed"]
                                      / row[side]["attempted"])
        row["per_layer"] = {}
        for side in SIDES:
            traced = run_bench(trees[side], workload, 0, seconds, 1)
            row["per_layer"][side] = traced["metrics"]
            row[side]["traced_value_drift"] = traced["value_drift"]
        report["workloads"][workload] = row
    report["tier1"] = {side: tier1(trees[side]) for side in SIDES}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
