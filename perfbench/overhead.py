"""Tracing overhead: the traced run's end-to-end figures against the
untraced run's, workload by workload, on the same seeds.

    python3 perfbench/overhead.py --seeds 1,2,3 --seconds 20

Each traced run writes its own end-to-end figures next to its spans; the
overhead of a metric is the median, over the seeds, of traced/untraced - 1
(positive is slower). The side that runs first alternates from seed to
seed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    if trace:
        with open(os.path.join(HERE, "out", f"trace-{workload}-{seed}.json")) as handle:
            return json.load(handle)["end_to_end"]
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="ingest_file,chat_mixed,qa_mem,online_build")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        ratios: dict = {}
        for number, seed in enumerate(int(s) for s in args.seeds.split(",")):
            # alternate which side runs first, so that a drift of the
            # machine's speed does not favour one side
            if number % 2:
                traced = run(workload, seed, args.seconds, 1)
                plain = run(workload, seed, args.seconds, 0)
            else:
                plain = run(workload, seed, args.seconds, 0)
                traced = run(workload, seed, args.seconds, 1)
            for name, value in plain.items():
                if name == "peak_rss_mb" or not value:
                    continue
                ratios.setdefault(name, []).append(traced[name] / value - 1)
        cells = ", ".join(f"{name} {statistics.median(r):+.1%}" for name, r in ratios.items())
        print(f"{workload}: {cells}")


if __name__ == "__main__":
    main()
