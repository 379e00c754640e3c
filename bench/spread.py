"""Run one workload on several seeds and report each metric's run-to-run spread.

    python3 bench/spread.py --workload terrain_crowd --seeds 1-10 [--seconds 30] [--trace 0]

Spread is the distance between the first and third quartile of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their median;
BENCHMARK.json's bounds were set from it.  Each run's JSON line is kept in
``bench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    extra = [] if args.seconds is None else ["--seconds", str(args.seconds)]
    log = BENCH / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    with log.open("a", encoding="utf-8") as fh:
        for seed in args.seeds:
            done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                                   "--seed", str(seed), "--trace", str(args.trace), *extra],
                                  capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results.append(result)
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", flush=True)

    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:34s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
