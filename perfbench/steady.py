"""Steadiness self-check: repeat a workload over seeds, report spreads.

    python3 perfbench/steady.py --workload kv-live --runs 10

runs ``perfbench/run.py`` once per seed (first-seed onwards, one after
another, each in its own process) with the run length of
BENCHMARK.json, and prints for every end-to-end metric its median and
the distance between its first and third quartile as a share of the
median, next to the metric's bound. A spread above a third of the
bound marks the metric as unsteady. The figures are written to
``perfbench/out/steady-<workload>.json``. Exits 1 when a run fails, a
metric is unsteady or the runs' shares of failed ops differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}"
                  f"{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}", flush=True)
    steady = True
    table = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        median, share = spread(values)
        ok = share <= metric["bound"] / 3.0
        steady = steady and ok
        table[name] = {"median": median, "iqr_share": share,
                       "bound": metric["bound"], "values": values}
        print(f"{name:20s} median {median:12.6g}  spread {share:7.4f}  "
              f"bound {metric['bound']:.3f}  "
              f"{'ok' if ok else 'UNSTEADY'}")
    failed_shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(failed_shares)}")
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(
        json.dumps(table, indent=2))
    return 0 if steady and len(failed_shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
