"""Run one workload over several seeds and print each metric's spread.

    python3 benchmarks/spread.py --workload tau_exact --seeds 1-10 --seconds 20

The spread of a metric is the distance between the first and third quartiles
of its values (statistics.quantiles(values, n=4)) as a share of their median.
Also prints the share of failed operations, which must not vary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=os.path.dirname(HERE),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(lines[-2].partition(" ")[2])
        values.setdefault("raw_ops_per_s (report)", []).append(report["raw_ops_per_s"])
        shares.add(result["failed"] / result["attempted"])
        line = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {line}",
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k}: median {med:.6g} spread {spread:.4f} min {min(vs):.6g} max {max(vs):.6g}")
    print(f"failed share: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
