"""Reference figures: ingest cost per turn and ``search`` latency as the
store grows, in memory and file-backed.

    python3 perfbench/baseline.py --seed 1 --turns 100,400

For each size N it ingests the first N generated turns (50 speakers) into
a fresh store, session by session, and reports total ingest time over N
(ms/turn) and the median of 20 exact-text ``search`` calls on the result.
These are reference figures for the README, not gated metrics.
"""
from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import workloads  # noqa: E402
from apexmem import extract  # noqa: E402
from apexmem.index import VectorIndex  # noqa: E402
from apexmem.store import Store  # noqa: E402
from apexmem.tools import ToolCall, ToolKit  # noqa: E402


def measure(corpus: gen.Corpus, n_turns: int, path: str) -> tuple:
    sessions, left = [], n_turns
    for specs in corpus.sessions:
        if left <= 0:
            break
        sessions.append(workloads.to_turns(specs[:left]))
        left -= len(sessions[-1])
    start = time.perf_counter()
    store = Store.open(path)
    index = VectorIndex(path=None if path == ":memory:" else VectorIndex.sidecar_path(path))
    failed = []
    for turns in sessions:
        outcomes = extract.ingest_session(store, index, workloads.EXTRACTOR,
                                          workloads.PROVIDER, workloads.PROVIDER, turns)
        failed += [o.error for o in outcomes if not o.ok]
    ingest_ms = (time.perf_counter() - start) * 1e3 / n_turns
    kit = ToolKit(store, index)
    texts = sorted({t.text for s in sessions for t in s})
    search_ms = []
    for number in range(20):
        start = time.perf_counter()
        kit.dispatch(ToolCall("search", {"query": texts[number % len(texts)], "k": 5}))
        search_ms.append((time.perf_counter() - start) * 1e3)
    store.close()
    if failed:
        raise SystemExit(f"{len(failed)} turns failed: {failed[:3]}")
    return ingest_ms, statistics.median(search_ms)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--turns", default="100,400")
    args = parser.parse_args()
    workloads.warm_up()
    corpus = gen.make_corpus(args.seed, 50, 2, 8, tag="baseline")
    workdir = os.path.join(HERE, "out", f"baseline-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    print("| turns | in-memory ingest | file-backed ingest | `search` tool (in-memory) |")
    print("|------:|-----------------:|-------------------:|--------------------------:|")
    try:
        for n_turns in (int(n) for n in args.turns.split(",")):
            memory_ms, search_ms = measure(corpus, n_turns, ":memory:")
            file_ms, _ = measure(corpus, n_turns, os.path.join(workdir, f"{n_turns}.sqlite"))
            print(f"| {n_turns} | {memory_ms:.1f} ms/turn | {file_ms:.1f} ms/turn "
                  f"({file_ms * n_turns / 1e3:.0f} s) | {search_ms:.1f} ms |")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
