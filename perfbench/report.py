"""Run every workload once and print every metric by name, with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process (so peak RSS is per workload) through
run.py, which applies the correctness gate to every op.  The table ends with
each workload's failed ratio: failed ops over ops attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    results = {}
    for w in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results[w["name"]] = json.loads(lines[-1])

    names = list(results)
    metrics = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    width = max(len(m) for m in metrics + ["failed_ratio"]) + 8
    print("\n" + "metric".ljust(width) + "".join(n.rjust(20) for n in names))
    for m in metrics:
        cells = []
        for n in names:
            entry = results[n]["metrics"][m]
            cells.append(f"{entry['value']:.6g} {entry['unit']}".rjust(20))
        print(m.ljust(width) + "".join(cells))
    print("failed_ratio".ljust(width) + "".join(
        f"{r['failed'] / r['attempted']:.6g} ({r['failed']}/{r['attempted']})".rjust(20)
        for r in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
