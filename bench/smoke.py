"""Smoke test of the benchmark itself.

Runs one short job per workload, untraced once and traced twice, and checks
the output contract: the last line is the result object, every metric
declared in BENCHMARK.json is printed by name with its unit, the artifacts
pass the correctness gate, and the traced counts repeat exactly.

    python3 bench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, trace: int) -> tuple:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--jobs", "1"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if res.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {res.returncode}:\n"
                         f"{res.stderr}")
    lines = res.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            runs = [run(workload, trace) for _ in range(1 + trace)]
            for text, result in runs:
                where = f"{workload} --trace {trace}"
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(result)}")
                if result["correct"] is not True:
                    problems.append(f"{where}: correctness gate failed")
                if set(result["metrics"]) != set(declared):
                    problems.append(f"{where}: metrics differ from "
                                    f"BENCHMARK.json {section}")
                for name, unit in declared.items():
                    got = result["metrics"].get(name, {}).get("unit")
                    printed = any(line.split()[:1] == [name]
                                  and unit in line.split() for line in text)
                    if got != unit or not printed:
                        problems.append(f"{where}: {name} not printed in {unit}")
            if trace:
                counts = [{k: v["value"] for k, v in r["metrics"].items()
                           if v["unit"] == "count"} for _, r in runs]
                if counts[0] != counts[1]:
                    problems.append(f"{workload}: traced counts differ between "
                                    f"runs: {counts[0]} vs {counts[1]}")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
