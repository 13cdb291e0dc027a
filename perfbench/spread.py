"""Run the benchmark over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workloads catch,cli --seeds 1-10

Runs BENCHMARK.json's command once per (workload, seed), one after another,
with its run_seconds. For each metric it prints the median and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, next to the metric's bound, and each run's wall time. Raw
values go to .perfbench_out/spread-<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} ops failed",
                      file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        out = ROOT / ".perfbench_out" / f"spread-{workload}.json"
        out.write_text(json.dumps({**values, "run_wall_s": walls}, indent=1)
                       + "\n")
        print(f"{workload:10s} run wall: mean {statistics.mean(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            worst = max(worst, share / bounds[name])
            print(f"{workload:10s} {name:12s} median {med:12.6g}  "
                  f"iqr/median {share:7.4f}  bound {bounds[name]}  "
                  f"({share / bounds[name]:.2f} of bound)")
    print(f"worst spread: {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
