"""Per-layer tracing for the benchmark, done entirely from outside the
program: each layer's public functions are wrapped in the namespace they
are called through, spans are kept in memory with parent links, and GC
pauses are read through ``gc.callbacks``.

A span is one row of five ``array('q')`` columns: the id of its name,
``parent`` (the row of the enclosing span, or -1), start and end in
nanoseconds, and a count. Arrays hold no Python objects, so the cyclic
collector neither tracks nor walks the spans, and the tracer adds no GC
work of its own. Spans are appended when they open, so a parent always
has a smaller row than its children. The benchmark opens one
``op.<kind>`` span around every operation it times, and the per-layer
metrics are computed from the spans under those.
"""
from __future__ import annotations

import gc
import json
import os
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

COLUMNS = ("name", "parent", "start_ns", "end_ns", "count")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.columns = {column: array("q") for column in COLUMNS}
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.enabled = True

    # -- spans -------------------------------------------------------------

    def intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, name: str) -> None:
        self._open(self.intern(name))

    def _open(self, ident: int) -> None:
        columns = self.columns
        row = len(columns["name"])
        columns["name"].append(ident)
        columns["parent"].append(self._stack[-1] if self._stack else -1)
        columns["end_ns"].append(0)
        columns["count"].append(0)
        self._stack.append(row)
        columns["start_ns"].append(time.perf_counter_ns())

    def close(self, count: Optional[Callable] = None, args=(), result=None) -> None:
        """Close the innermost span; ``count(args, result)``, taken after
        the clock is read, becomes the span's count."""
        end = time.perf_counter_ns()
        row = self._stack.pop()
        self.columns["end_ns"][row] = end
        if count is not None:
            self.columns["count"][row] = count(args, result)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._open(self._gc_id)
        elif self._stack and self.columns["name"][self._stack[-1]] == self._gc_id:
            self.close()

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Optional[Callable] = None,
        span: bool = True,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span named
        ``name``. ``count(args, result)`` gives the span's count; with
        ``span=False`` only ``counts[name]`` is added to."""
        original = getattr(owner, attr)
        tracer = self
        ident = self.intern(name)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if not span:
                result = original(*args, **kwargs)
                if tracer._stack:  # inside an operation
                    tracer.counts[name] += count(args, result)
                return result
            tracer._open(ident)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close()
                raise
            tracer.close(count, args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        import apexmem.agent as agent
        import apexmem.extract as extract
        import apexmem.index as index
        import apexmem.online as online
        import apexmem.resolve as resolve
        import apexmem.store as store
        import apexmem.tools as tools

        def file_size(args, _result):
            path = args[0].path
            return os.path.getsize(path) if path and os.path.exists(path) else 0

        targets = [
            (extract.ReferenceExtractor, "extract", "extract.extractor", None),
            (extract, "extract_turn", "extract.extract_turn", None),
            (resolve, "resolve_entity", "resolve.entity", None),
            (resolve, "resolve_property", "resolve.property", None),
            (store.Store, "_commit", "store.commit", None),
            (store.Store, "latest_fact", "store.latest_fact", None),
            (store.Store, "fact_history", "store.fact_history", None),
            (store.Store, "entity_row", "store.entity_row", None),
            (index, "upsert_embeddings", "index.upsert", lambda a, r: r),
            (index.VectorIndex, "embed", "index.embed", None),
            (index.VectorIndex, "save", "index.save", file_size),
            (index, "bm25_scores", "index.bm25", lambda a, r: len(a[0])),
            (online, "bm25_scores", "index.bm25", lambda a, r: len(a[0])),
            (index.VectorIndex, "dense_scores", "index.dense",
             lambda a, r: len(a[0].entries)),
            (tools, "hybrid_search", "index.hybrid", None),
            (tools.ToolKit, "dispatch", "tools.dispatch", None),
            (tools, "graph_sql", "tools.graph_sql", None),
            (tools, "validate_sql", "sqlguard.validate", None),
            (tools, "search", "tools.search", None),
            (tools, "property_search", "tools.property_search", None),
            (tools, "entity_lookup", "tools.entity_lookup", None),
            (tools, "build_entity_document", "tools.entity_document", None),
            (agent, "run_agent", "agent.run_agent", None),
            (agent.HeuristicPolicy, "step", "agent.policy", None),
            (online, "build_online", "online.build_online", None),
            (online, "score_relevance", "online.score_relevance", None),
        ]
        for owner, attr, name, count in targets:
            self.wrap(owner, attr, name, count)
        # rows read by upsert_embeddings; one span per call would cost more
        # than the call itself
        self.wrap(index, "kind_documents", "index.rows_scanned",
                  lambda a, r: len(r), span=False)
        self._gc_id = self.intern("python.gc")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- reduction ---------------------------------------------------------

    def summarize(self) -> Dict[str, dict]:
        """Per span name and root operation kind: calls, total and self
        nanoseconds, summed counts. Spans outside every operation (the
        warm-up, and set-up work that is not an operation) are left out."""
        names = self.columns["name"]
        parents = self.columns["parent"]
        durations = [end - start for start, end in
                     zip(self.columns["start_ns"], self.columns["end_ns"])]
        child_ns = [0] * len(names)
        root = [-1] * len(names)
        is_op = [name.startswith("op.") for name in self.names]
        for row, (ident, parent) in enumerate(zip(names, parents)):
            if is_op[ident]:
                root[row] = ident
            elif parent >= 0:
                root[row] = root[parent]
            if parent >= 0:
                child_ns[parent] += durations[row]
        table: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "count": 0}
        )
        for row, (ident, count) in enumerate(zip(names, self.columns["count"])):
            if root[row] < 0:
                continue
            name = self.names[ident]
            for key in (name, f"{name}@{self.names[root[row]]}"):
                entry = table[key]
                entry["calls"] += 1
                entry["total_ns"] += durations[row]
                entry["self_ns"] += durations[row] - child_ns[row]
                entry["count"] += count
        return table

    def dump(self, path: str, extra: dict) -> None:
        """Write the spans column by column; ``name`` holds indices into
        ``names``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = {column: values.tolist() for column, values in self.columns.items()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**extra, "names": self.names, "spans": spans}, handle)
            handle.write("\n")


OP_KINDS = ("session", "build", "question", "search", "sql", "property_search")
# operations that ingest turns; per-turn metrics read the spans under them
WRITE_OPS = ("op.session", "op.build")


def layer_metrics(table: Dict[str, dict], counts: Dict[str, float]) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``. A metric whose
    layer the workload does not reach reads 0."""

    def row(name: str, roots=None) -> dict:
        if roots is None:
            return table.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "count": 0})
        rows = [row(f"{name}@{r}") for r in roots]
        return {k: sum(r[k] for r in rows) for k in ("calls", "total_ns", "self_ns", "count")}

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    def ms(ns: float) -> float:
        return ns / 1e6

    turns = counts.get("turns", 0)
    questions = row("op.question")["calls"]
    builds = row("op.build")["calls"]
    ops = sum(row(f"op.{kind}")["calls"] for kind in OP_KINDS)
    rows_scanned = counts.get("index.rows_scanned", 0)
    upsert = row("index.upsert", WRITE_OPS)
    gc_ops = row("python.gc")

    def self_per_call(name: str) -> float:
        r = row(name)
        return per(ms(r["self_ns"]), r["calls"])

    def self_per_turn(name: str) -> float:
        return per(ms(row(name, WRITE_OPS)["self_ns"]), turns)

    fact_reads = row("store.latest_fact", ["op.question"])["self_ns"] + row(
        "store.fact_history", ["op.question"]
    )["self_ns"]
    return {
        "extract.extractor_ms": (self_per_turn("extract.extractor"), "ms/turn"),
        "extract.extract_turn_self_ms": (self_per_turn("extract.extract_turn"), "ms/turn"),
        "resolve.entity_ms": (self_per_turn("resolve.entity"), "ms/turn"),
        "resolve.property_ms": (self_per_turn("resolve.property"), "ms/turn"),
        "store.commit_ms": (self_per_turn("store.commit"), "ms/turn"),
        "store.offcpu_ms": (per(counts.get("write_offcpu_s", 0) * 1e3, turns), "ms/turn"),
        "store.commits_per_turn": (per(row("store.commit", WRITE_OPS)["calls"], turns), "calls/turn"),
        "store.append_log_bytes_per_turn": (
            per(counts.get("append_log_bytes", 0), counts.get("logged_turns", 0)), "B/turn"),
        "store.disk_bytes_per_turn": (
            per(counts.get("disk_bytes", 0), counts.get("disk_turns", 0)), "B/turn"),
        "store.fact_reads_ms": (per(ms(fact_reads), questions), "ms/question"),
        "store.entity_row_calls_per_question": (
            per(row("store.entity_row", ["op.question"])["calls"], questions), "calls/question"),
        "index.upsert_ms": (per(ms(upsert["self_ns"]), turns), "ms/turn"),
        "index.upsert_calls_per_turn": (per(upsert["calls"], turns), "calls/turn"),
        "index.rows_scanned_per_turn": (per(rows_scanned, turns), "rows/turn"),
        "index.embed_ms": (self_per_turn("index.embed"), "ms/turn"),
        "index.embed_useful_ratio": (per(row("index.upsert")["count"], rows_scanned), "ratio"),
        "index.save_ms": (self_per_turn("index.save"), "ms/turn"),
        "index.saves_per_turn": (per(row("index.save", WRITE_OPS)["calls"], turns), "calls/turn"),
        "index.save_bytes_per_turn": (per(row("index.save", WRITE_OPS)["count"], turns), "B/turn"),
        "index.bm25_ms": (self_per_call("index.bm25"), "ms/call"),
        "index.bm25_docs_per_call": (per(row("index.bm25")["count"], row("index.bm25")["calls"]), "docs/call"),
        "index.dense_ms": (self_per_call("index.dense"), "ms/call"),
        "index.dense_entries_per_call": (
            per(row("index.dense")["count"], row("index.dense")["calls"]), "entries/call"),
        "index.hybrid_self_ms": (self_per_call("index.hybrid"), "ms/call"),
        "tools.dispatch_self_ms": (self_per_call("tools.dispatch"), "ms/call"),
        "tools.graph_sql_ms": (self_per_call("tools.graph_sql"), "ms/call"),
        "sqlguard.validate_ms": (self_per_call("sqlguard.validate"), "ms/call"),
        "tools.search_self_ms": (self_per_call("tools.search"), "ms/call"),
        "tools.entity_lookup_ms": (self_per_call("tools.entity_lookup"), "ms/call"),
        "tools.entity_document_ms": (self_per_call("tools.entity_document"), "ms/call"),
        "agent.policy_ms": (per(ms(row("agent.policy")["self_ns"]), questions), "ms/question"),
        "agent.steps_per_question": (
            per(row("tools.dispatch", ["op.question"])["calls"], questions), "steps/question"),
        "online.score_relevance_ms": (self_per_call("online.score_relevance"), "ms/call"),
        "online.docs_selected_per_op": (per(counts.get("docs_selected", 0), builds), "docs/op"),
        "python.gc_ms": (per(ms(gc_ops["total_ns"]), ops), "ms/op"),
        "python.gc_collections_per_op": (per(gc_ops["calls"], ops), "count/op"),
    }

