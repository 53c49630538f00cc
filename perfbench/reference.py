"""The reference pass: a fixed piece of work, timed next to every operation,
that the end-to-end timings are expressed in.

The machine the benchmark runs on changes speed from one run to the next
and within a run, and an operation's time moves with it. A pass of fixed
work run right before each operation moves the same way, so an operation's
CPU time divided by the CPU time of the passes around it stays put while
the machine speeds up and slows down, and changes only when the program
does. The pass mixes the kinds of work the program does: tokenising text
with a regular expression and counting tokens, small NumPy dot products,
JSON encoding and an SQLite query. It imports nothing from apexmem, so no
change to the program can change it.
"""
from __future__ import annotations

import json
import math
import re
import sqlite3
import time
from collections import Counter

import numpy as np

_WORDS = re.compile(r"[a-z0-9]+")
_TEXTS = tuple(
    f"My favorite {prop} is {value}, said speaker {number}; the train was late again"
    for number, (prop, value) in enumerate(
        [("color", "blue"), ("city", "Oslo"), ("drink", "mate")] * 20)
)
_VECTORS = tuple(np.cos(np.arange(64) * (number + 1) * 0.1) for number in range(64))


class Reference:
    """One in-memory SQLite table and the pass over it; ``close()`` releases
    the connection."""

    def __init__(self):
        self._conn = sqlite3.connect(":memory:")
        self._conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, value TEXT)")
        self._conn.executemany(
            "INSERT INTO t (name, value) VALUES (?, ?)",
            [(f"n{number % 50}", f"v{number}") for number in range(500)],
        )
        for _ in range(20):  # compile, cache and allocate before the first timing
            self.run()

    def run(self) -> float:
        """Do the pass once; return its thread CPU time in seconds."""
        start = time.thread_time()
        counts: Counter = Counter()
        for text in _TEXTS:
            counts.update(_WORDS.findall(text.lower()))
        score = sum(math.log(1 + count) for count in counts.values())
        query = _VECTORS[0]
        score += max(float(np.dot(query, vector)) for vector in _VECTORS)
        blob = json.dumps([
            {"k": number, "v": [round(x, 6) for x in _VECTORS[number][:16].tolist()]}
            for number in range(16)
        ])
        rows = self._conn.execute(
            "SELECT value FROM t WHERE name = ? ORDER BY id DESC LIMIT 3", ("n7",)
        ).fetchall()
        elapsed = time.thread_time() - start
        if score <= 0 or not blob or len(rows) != 3:
            raise RuntimeError("the reference pass computed a wrong result")
        return elapsed

    def close(self) -> None:
        self._conn.close()
