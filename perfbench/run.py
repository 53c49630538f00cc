"""apexmem benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload qa_mem --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` next
to this directory; without it the run fails. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). A traced run also writes its spans and its
own end-to-end figures to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def end_to_end(rec, setups) -> dict:
    """The end-to-end metrics, ``name -> (value, unit)``. An operation's time
    is its CPU time in reference passes (see reference.py); set-up time is
    CPU time in seconds."""
    ratios = rec.in_reference_units()

    def median_ref(kinds) -> float:
        samples = [r for kind in kinds for r in ratios.get(kind, ())]
        return statistics.median(samples) if samples else 0.0

    return {
        "setup_s": (statistics.median(setups), "s"),
        "session_ref_p50": (median_ref(("session", "build")), "ref"),
        "question_ref_p50": (median_ref(("question",)), "ref"),
        "search_ref_p50": (median_ref(("search",)), "ref"),
        "sql_ref_p50": (median_ref(("sql",)), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def report_cpu_ms(rec) -> None:
    """Median CPU milliseconds per operation kind and per reference pass,
    for the reader; they move with the machine's speed."""
    by_kind = {}
    for kind, cpu in zip(rec.kinds, rec.op_cpu):
        by_kind.setdefault(kind, []).append(cpu)
    cells = [f"{kind} {statistics.median(v) * 1e3:.3f}" for kind, v in sorted(by_kind.items())]
    cells.append(f"reference pass {statistics.median(rec.ref_cpu) * 1e3:.4f}")
    print(f"CPU ms (median, {len(rec.kinds)} operations): " + ", ".join(cells),
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "apexmem", "__init__.py")):
        print(f"apexmem sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    rec = workloads.Recorder(tracer)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, os.path.join(OUT, f"work-{os.getpid()}"))
    try:
        workload.prepare()
        setups = []
        elapsed, rounds = 0.0, 0
        while rounds == 0 or elapsed < args.seconds:
            if rounds % workload.ROUNDS_PER_SETUP == 0:
                if rounds:
                    workload.end(rec)
                # every set-up, and the rounds after it, start from the same
                # collector state; without this a full collection lands in
                # some set-ups only
                gc.collect()
                rec.in_setup = True
                ref_before = rec.ref_total
                start = time.thread_time()
                workload.setup(rec)
                # the reference passes run next to set-up operations are
                # not set-up work
                setups.append(time.thread_time() - start - (rec.ref_total - ref_before))
                rec.in_setup = False
                workload.begin(rec)
            start = time.perf_counter()
            workload.round(rec)
            elapsed += time.perf_counter() - start
            rounds += 1
        workload.end(rec)
    finally:
        workload.close()
        rec.reference.close()

    for why, times in sorted(rec.failures.items()):
        print(f"failed {times}x: {why}", file=sys.stderr)
    for why in rec.broken[:10]:
        print(f"INCORRECT: {why}", file=sys.stderr)
    report_cpu_ms(rec)
    figures = end_to_end(rec, setups)
    if tracer:
        tracer.uninstall()
        table = tracer.summarize()
        counts = {**rec.counts, **tracer.counts}
        printed = tracing.layer_metrics(table, counts)
        tracer.dump(
            os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "rounds": rounds,
             "end_to_end": {k: v for k, (v, _u) in figures.items()}},
        )
    else:
        printed = figures
    print(json.dumps({
        "correct": not rec.broken,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in printed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
