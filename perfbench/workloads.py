"""The benchmark's four workloads, each a closed loop with one client.

A workload has ``prepare()``, run once and untimed, which makes the inputs
and pays the program's one-time costs; ``setup()``, program work only,
which makes what the rounds read; and ``round(rec)``, which attempts the
same operations every time it runs. A run attempts whole rounds until its
rounds have taken ``--seconds``, with a set-up before the first round and
again every ``ROUNDS_PER_SETUP`` rounds, so that the set-ups, whose median
is the set-up time, are spread over the whole run like the operations. Every
operation is timed on its own and its output is checked against the
generator's ground truth, or against a property the method must have.

The program is reached only through module attributes looked up at call
time (``extract.ingest_session``, ``agent.run_agent`` ...), so that the
traced run's wrappers see every call.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

from apexmem import agent, extract, online
from apexmem.extract import ReferenceExtractor
from apexmem.index import VectorIndex
from apexmem.ontology import Turn
from apexmem.resolve import RuleBasedProvider
from apexmem.store import Store
from apexmem.tools import ToolCall, ToolKit

import gen
from reference import Reference

SEARCH_K = 5
AS_OF_SQL = (
    "SELECT f.value_json FROM facts f JOIN entities e ON e.entity_id = f.subject_id"
    " WHERE e.entity_name = :name AND f.property_name = :prop AND f.valid_from <= :day"
    " ORDER BY f.valid_from DESC, f.id DESC LIMIT 1"
)
# reference passes an operation's time is divided by: the one right before
# it and those around it, a few milliseconds to a few seconds of the run
REF_WINDOW = 15
# operations that ingest turns
WRITE_KINDS = ("session", "build")
EXTRACTOR = ReferenceExtractor()
PROVIDER = RuleBasedProvider()


class Recorder:
    """Samples per operation kind, the operations attempted and failed, and
    counters; with a tracer, one ``op.<kind>`` span around each operation.

    Every operation is timed in thread CPU time, right after one reference
    pass (``reference.Reference``) also timed in thread CPU time; ``kinds``,
    ``op_cpu`` and ``ref_cpu`` hold one entry per operation, in the order
    they ran."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.reference = Reference()
        self.kinds: List[str] = []
        self.op_cpu: List[float] = []
        self.ref_cpu: List[float] = []
        self.ref_total = 0.0
        self.counts: Dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.broken: List[str] = []
        # operations run during set-up are timed but not counted as
        # attempted, so that the failed share does not depend on run length
        self.in_setup = False

    def timed(self, kind: str, fn, *args):
        """Run one operation; an exception makes it a failed operation and
        returns None."""
        self.attempted += not self.in_setup
        ref = self.reference.run()
        self.ref_total += ref
        if self.tracer:
            self.tracer.open(f"op.{kind}")
        start, wall = time.thread_time(), time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the operation failed; the run goes on
            result = None
            self.fail(kind, f"{type(exc).__name__}: {exc}")
        finally:
            elapsed = time.thread_time() - start
            wall = time.perf_counter() - wall
            if self.tracer:
                self.tracer.close()
        if kind in WRITE_KINDS:
            # time off the CPU, which the CPU time leaves out: fsync waits
            # on commit, and the machine running something else
            self.counts["write_offcpu_s"] += max(0.0, wall - elapsed)
        self.kinds.append(kind)
        self.op_cpu.append(elapsed)
        self.ref_cpu.append(ref)
        return result

    def in_reference_units(self) -> Dict[str, List[float]]:
        """Per operation kind, each operation's CPU time over the median CPU
        time of the REF_WINDOW reference passes centred on it."""
        half = REF_WINDOW // 2
        refs = self.ref_cpu
        ratios: Dict[str, List[float]] = defaultdict(list)
        for number, (kind, cpu) in enumerate(zip(self.kinds, self.op_cpu)):
            around = refs[max(0, number - half) : number + half + 1]
            ratios[kind].append(cpu / statistics.median(around))
        return ratios

    def fail(self, kind: str, why: str) -> None:
        if self.in_setup:
            self.broken.append(f"set-up {kind}: {why}")
            return
        self.failed += 1
        self.failures[f"{kind}: {why}"] += 1

    def check(self, kind: str, ok: bool, why: str) -> bool:
        """Count a wrong output as a failed operation."""
        if not ok:
            self.fail(kind, why)
        return ok

    def invariant(self, ok: bool, why: str) -> None:
        """A check on the whole store rather than on one operation; a
        breach makes the run incorrect."""
        if not ok:
            self.broken.append(why)

    @contextmanager
    def untraced(self):
        """Pause the tracer, for checks that are not operations."""
        if self.tracer:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.enabled = True


def to_turns(specs) -> List[Turn]:
    return [
        Turn(None, s.session_id, s.speaker, s.listener, s.text, s.anchor_datetime, s.ordinal)
        for s in specs
    ]


# -- operations shared by the workloads ------------------------------------

def ingest(rec: Recorder, store, index, turns: List[Turn]) -> None:
    outcomes = rec.timed(
        "session", extract.ingest_session, store, index, EXTRACTOR, PROVIDER, PROVIDER, turns
    )
    if outcomes is None:
        return
    rec.counts["turns"] += len(turns)
    errors = [o.error for o in outcomes if not o.ok]
    rec.check("session", not errors, f"turn failed: {errors[:1]}")


def ask(rec: Recorder, store, index, kit, text: str, question_date: str, expected: str,
        kind_of_miss: str = "wrong answer") -> None:
    config = agent.AgentConfig(question_date=question_date)
    policy = agent.HeuristicPolicy(store)
    transcript = rec.timed("question", agent.run_agent, store, index, policy, text, config, kit)
    if transcript is None:
        return
    answer = transcript.answer.text if transcript.answer else None
    rec.check("question", answer == expected, kind_of_miss)


def _turn_texts(search_text: str) -> List[str]:
    """Texts of the rows in the Turns section of a ``search`` result."""
    section = next(s for s in search_text.split("\n\n") if s.startswith("Turns:"))
    rows = section.split("\n")[3:]
    return [row.split(" | ")[2] for row in rows if not row.startswith("...")]


def search(rec: Recorder, kit, text: str, matches: int) -> None:
    """For a query equal to a stored turn's text, the first min(k, m) turns
    listed carry exactly that text, m being the turns that have it."""
    result = rec.timed("search", kit.dispatch, ToolCall("search", {"query": text, "k": SEARCH_K}))
    if result is None:
        return
    if not rec.check("search", result.ok, f"search error: {result.error}"):
        return
    listed = _turn_texts(result.text)[: min(SEARCH_K, matches)]
    rec.check("search", listed == [text] * min(SEARCH_K, matches),
              "exact-text turns not ranked first")


def as_of(rec: Recorder, kit, speaker: str, prop: str, day: str, expected: Optional[str]) -> None:
    """GraphSQL as-of lookup: the value in force on ``day``."""
    call = ToolCall("graph_sql", {
        "sql": AS_OF_SQL, "params": {"name": speaker, "prop": prop, "day": day}})
    result = rec.timed("sql", kit.dispatch, call)
    if result is None:
        return
    if not rec.check("sql", result.ok, f"sql error: {result.error}"):
        return
    rows = result.text.split("\n")[2:]
    value = json.loads(rows[0].strip("| ")) if rows else None
    rec.check("sql", value == expected, "as-of lookup returned another value")


def property_search(rec: Recorder, kit, prop: str) -> None:
    query = prop.replace("_", " ")
    result = rec.timed("property_search", kit.dispatch,
                       ToolCall("property_search", {"query": query, "k": 3}))
    if result is None:
        return
    rows = result.text.split("\n")[2:] if result.ok else []
    top = rows[0].split(" | ")[0].strip("| ") if rows else None
    rec.check("property_search", top == prop, "queried property not ranked first")


def log_bytes(store) -> int:
    conn = store.readonly_connection()
    try:
        return conn.execute("SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM append_log").fetchone()[0]
    finally:
        if conn is not store._conn:
            conn.close()


def expected_rows(corpus: gen.Corpus) -> Dict[str, int]:
    """Row counts of a store holding the whole corpus: every speaker and
    the listener, one fact and one piece of evidence per statement, one
    event with two participants per turn."""
    speakers = {t.speaker for s in corpus.sessions for t in s}
    statements = sum(len(h) for h in corpus.timeline.values())
    return {
        "entities": len(speakers) + 1, "properties": len(gen.PROPERTIES),
        "facts": statements, "events": corpus.n_turns, "evidence": statements,
        "event_participants": 2 * corpus.n_turns, "turns": corpus.n_turns,
    }


def warm_up() -> None:
    """Pay the one-time costs (lazy imports, regex compilation) before any
    timing: one turn, then one call of every operation kind."""
    store = Store.open(":memory:")
    index = VectorIndex()
    turns = to_turns(gen.make_corpus(0, 1, 0, 1).sessions[0])
    extract.ingest_session(store, index, EXTRACTOR, PROVIDER, PROVIDER, turns)
    kit = ToolKit(store, index)
    agent.run_agent(store, index, agent.HeuristicPolicy(store), "What is it?",
                    agent.AgentConfig(question_date=turns[0].anchor_datetime), kit)
    kit.dispatch(ToolCall("search", {"query": turns[0].text}))
    kit.dispatch(ToolCall("graph_sql", {"sql": "SELECT COUNT(*) FROM facts"}))
    kit.dispatch(ToolCall("property_search", {"query": "favorite"}))
    store.close()


# -- workloads ---------------------------------------------------------------

class Workload:
    ROUNDS_PER_SETUP = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Called once, untimed, before the first set-up: make the inputs
        and warm the program up."""
        warm_up()

    def setup(self, rec: Recorder) -> None:
        raise NotImplementedError

    def begin(self, rec: Recorder) -> None:
        """Called, untimed, after each set-up."""

    def round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def end(self, rec: Recorder) -> None:
        """Called, untimed, after the last round on each set-up."""

    def close(self) -> None:
        """Release what set-up made."""


class GrowingStore(Workload):
    """Each set-up opens a new store and pre-loads the first sessions; the
    round after it ingests the other sessions one by one, each followed by
    latest-value questions, one exact-text search and one as-of lookup
    about what has been ingested so far, then ``finish`` ends the round."""

    TAG = ""
    N_SPEAKERS, REVISIONS, SESSION_TURNS = 8, 3, 6
    PRELOAD = 1  # sessions ingested by set-up
    QUESTIONS_PER_SESSION = 1

    def prepare(self) -> None:
        super().prepare()
        corpus = gen.make_corpus(self.seed, self.N_SPEAKERS, self.REVISIONS,
                                 self.SESSION_TURNS, tag=self.TAG)
        rng = random.Random(f"{self.TAG}-reads:{self.seed}")
        self.corpus = corpus
        self.sessions = [to_turns(s) for s in corpus.sessions]
        # per session, reads about what has been ingested so far: questions
        # (speaker, prop, value), a search (text, turns with it) and an
        # as-of lookup (speaker, prop, day, value), at the session's end
        self.plan = []
        known: Dict[tuple, str] = {}
        seen: Counter = Counter()
        for number, (specs, facts) in enumerate(zip(corpus.sessions, corpus.session_facts)):
            for speaker, prop, value in facts:
                known[(speaker, prop)] = value
            seen.update(t.text for t in specs)
            if number < self.PRELOAD:
                continue
            asked = [rng.choice(sorted(known)) for _ in range(self.QUESTIONS_PER_SESSION)]
            looked_up = rng.choice(sorted(known))
            text = rng.choice(sorted(seen))
            self.plan.append((
                [(*key, known[key]) for key in asked],
                (text, seen[text]),
                (*looked_up, specs[-1].anchor_datetime[:10], known[looked_up]),
                specs[-1].anchor_datetime,
            ))
        self.expected_rows = expected_rows(corpus)

    def open_store(self):
        """A new, empty store and its vector index."""
        raise NotImplementedError

    def setup(self, rec: Recorder) -> None:
        self.store, self.index = self.open_store()
        for turns in self.sessions[: self.PRELOAD]:
            outcomes = extract.ingest_session(
                self.store, self.index, EXTRACTOR, PROVIDER, PROVIDER, turns)
            rec.invariant(all(o.ok for o in outcomes), "a pre-loaded turn failed")

    def round(self, rec: Recorder) -> None:
        store, index = self.store, self.index
        kit = ToolKit(store, index)
        for turns, (questions, (text, matches), lookup, now) in zip(
            self.sessions[self.PRELOAD :], self.plan
        ):
            ingest(rec, store, index, turns)
            for speaker, prop, value in questions:
                ask(rec, store, index, kit, gen.question_text(speaker, prop), now, value)
            search(rec, kit, text, matches)
            as_of(rec, kit, *lookup)
        self.finish(rec)

    def finish(self, rec: Recorder) -> None:
        raise NotImplementedError


class IngestFile(GrowingStore):
    """A file-backed store, where every turn commits and rewrites the JSON
    sidecar. The round ends with ``VectorIndex.save`` and ``Store.close``,
    and the reopened store is checked. The only workload on the persistence
    path."""

    TAG = "file"
    PRELOAD = 3

    def prepare(self) -> None:
        super().prepare()
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.setups = 0

    def open_store(self):
        self.path = os.path.join(self.workdir, f"store{self.setups}.sqlite")
        self.setups += 1
        return Store.open(self.path), VectorIndex(path=VectorIndex.sidecar_path(self.path))

    def finish(self, rec: Recorder) -> None:
        path, sidecar = self.path, self.index.path
        self.index.save()
        self.store.close()
        rec.counts["disk_bytes"] += os.path.getsize(path) + os.path.getsize(sidecar)
        rec.counts["disk_turns"] += self.corpus.n_turns

        with rec.untraced():
            store = Store.open(path, create_if_missing=False)
            self.check_store(rec, store, VectorIndex(path=sidecar))
            rec.counts["append_log_bytes"] += log_bytes(store)
            rec.counts["logged_turns"] += self.corpus.n_turns
            store.close()
        os.remove(path)
        os.remove(sidecar)

    def check_store(self, rec: Recorder, store, index) -> None:
        counts = store.row_counts()
        rec.invariant(counts == self.expected_rows, f"row counts {counts} != {self.expected_rows}")
        for (speaker, prop), history in self.corpus.timeline.items():
            entity = store.find_entity_by_name(speaker)
            facts = store.fact_history(entity["entity_id"], prop) if entity else []
            rec.invariant([(f.valid_from, f.value) for f in facts] == history,
                          f"fact_history of {speaker}.{prop} differs from the timeline")
        replayed = Store.replay(store.append_log())
        rec.invariant(replayed.canonical_dump() == store.canonical_dump(),
                      "replaying the append log gives another store")
        replayed.close()
        kinds = Counter(kind for kind, _doc in index.entries)
        table = {"entity": "entities", "property": "properties", "event": "events",
                 "evidence": "evidence", "turn": "turns"}
        vectors = {kind: kinds.get(kind, 0) for kind in table}
        rows = {kind: counts[name] for kind, name in table.items()}
        rec.invariant(vectors == rows, f"sidecar vectors {vectors} != rows {rows}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class ChatMixed(GrowingStore):
    """An in-memory store grown from empty, with two latest-value questions
    after every session. Writes and reads share the ``index`` and ``store``
    layers here, and there is no sidecar, so a saving in ``index.save``
    leaves this workload unchanged."""

    TAG = "chat"
    N_SPEAKERS = 16
    QUESTIONS_PER_SESSION = 2

    def open_store(self):
        return Store.open(":memory:"), VectorIndex()

    def finish(self, rec: Recorder) -> None:
        counts = self.store.row_counts()
        rec.invariant(counts == self.expected_rows,
                      f"row counts {counts} != {self.expected_rows}")
        self.store.close()


class QaMem(Workload):
    """A large in-memory store built during set-up, then read-only rounds of
    questions (half after the last revision, half between two revisions),
    exact-text searches, GraphSQL as-of lookups and property searches."""

    ROUNDS_PER_SETUP = 12
    N_SPEAKERS, REVISIONS, SESSION_TURNS = 40, 3, 8
    QUESTIONS, SEARCHES, LOOKUPS, PROPERTY_SEARCHES = 20, 6, 20, 3
    DISTINCT_ROUNDS = 16

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.store = None

    def prepare(self) -> None:
        super().prepare()
        corpus = gen.make_corpus(self.seed, self.N_SPEAKERS, self.REVISIONS,
                                 self.SESSION_TURNS, tag="qa")
        self.sessions = [to_turns(specs) for specs in corpus.sessions]
        rng = random.Random(f"qa-rounds:{self.seed}")
        texts = sorted(corpus.text_counts)
        self.plans = []
        for _ in range(self.DISTINCT_ROUNDS):
            questions = gen.qa_questions(corpus, rng, self.QUESTIONS)
            self.plans.append((
                questions,
                rng.sample(texts, self.SEARCHES),
                gen.qa_questions(corpus, rng, self.LOOKUPS),
                rng.sample([gen.prop_key(p) for p in gen.PROPERTIES], self.PROPERTY_SEARCHES),
            ))
        self.corpus = corpus
        self.rounds = 0

    def setup(self, rec: Recorder) -> None:
        """Build the whole store in memory, session by session."""
        if self.store is not None:
            self.store.close()
        self.store = store = Store.open(":memory:")
        self.index = index = VectorIndex()
        for turns in self.sessions:
            ingest(rec, store, index, turns)
        self.kit = ToolKit(store, index)

    def begin(self, rec: Recorder) -> None:
        self.dump = self.store.canonical_dump()
        with rec.untraced():
            rec.counts["append_log_bytes"] += log_bytes(self.store)
            rec.counts["logged_turns"] += self.corpus.n_turns

    def round(self, rec: Recorder) -> None:
        questions, texts, lookups, props = self.plans[self.rounds % len(self.plans)]
        self.rounds += 1
        store, index, kit = self.store, self.index, self.kit
        for q in questions:
            ask(rec, store, index, kit, q.text, q.question_date, q.expected,
                "answer is not the value in force at the question date"
                if q.between_revisions else "wrong latest value")
        for text in texts:
            search(rec, kit, text, self.corpus.text_counts[text])
        for q in lookups:
            as_of(rec, kit, q.speaker, q.prop, q.question_date[:10], q.expected)
        for prop in props:
            property_search(rec, kit, prop)

    def end(self, rec: Recorder) -> None:
        rec.invariant(self.store.canonical_dump() == self.dump,
                      "the store changed during read-only rounds")

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


class OnlineBuild(Workload):
    """Set-up loads the document corpora from JSON lines through
    ``online.document_from_json``; the rounds after it use them. Per case: a fresh store built by
    ``build_online`` from one corpus, then one question, one exact-text
    search and one as-of lookup on it. A round runs every case once."""

    ROUNDS_PER_SETUP = 8
    CASES, DOCS = 16, 4
    THETA = 0.2

    def prepare(self) -> None:
        super().prepare()
        self.specs = gen.online_cases(self.seed, self.CASES, self.DOCS)
        # one JSON line per document, in the corpus format build_online's
        # callers read
        self.lines = [
            [json.dumps({"doc_id": doc_id, "timestamp": stamp,
                         "turns": [vars(t) for t in turns]})
             for doc_id, stamp, turns in case.documents]
            for case in self.specs
        ]

    def setup(self, rec: Recorder) -> None:
        self.cases = [
            (case, [online.document_from_json(json.loads(line)) for line in lines])
            for case, lines in zip(self.specs, self.lines)
        ]

    def round(self, rec: Recorder) -> None:
        for case, docs in self.cases:
            self.run_case(rec, case, docs)

    def run_case(self, rec: Recorder, case, docs) -> None:
        store = Store.open(":memory:")
        index = VectorIndex()
        config = online.OnlineConfig(theta_rel=self.THETA)
        report = rec.timed("build", online.build_online, store, index, EXTRACTOR,
                           PROVIDER, PROVIDER, docs, case.question, config)
        if report is None:
            store.close()
            return
        selected = self.check_build(rec, report, docs)
        chosen = [d for d in docs if d.doc_id in selected]
        turns = sum(len(d.turns) for d in chosen)
        rec.counts["docs_selected"] += len(selected)
        rec.counts["turns"] += turns
        kit = ToolKit(store, index)
        expected = case.expected(selected)
        ask(rec, store, index, kit, case.question, case.question_date, expected)
        texts = Counter(t.text for d in chosen for t in d.turns)
        text = chosen[-1].turns[0].text
        search(rec, kit, text, texts[text])
        as_of(rec, kit, case.speaker, case.prop, case.question_date[:10],
              None if expected == gen.NOT_FOUND else expected)
        with rec.untraced():
            rec.counts["append_log_bytes"] += log_bytes(store)
            rec.counts["logged_turns"] += turns
        store.close()

    def check_build(self, rec: Recorder, report, docs) -> List[str]:
        """The selected documents are exactly those scoring strictly above
        theta, in timestamp order, and each was ingested without a failed
        turn."""
        scores = {s.doc_id: s.score for s in report.selected + report.skipped}
        by_time = sorted(docs, key=lambda d: d.timestamp)
        want = [d.doc_id for d in by_time if scores.get(d.doc_id, 0.0) > self.THETA]
        got = [s.doc_id for s in report.selected]
        ingested = list(report.outcomes)
        failed_turns = [o.error for outs in report.outcomes.values() for o in outs if not o.ok]
        rec.check("build", sorted(scores) == sorted(d.doc_id for d in docs)
                  and got == want and ingested == want and not failed_turns,
                  f"selection {got} / ingested {ingested} != {want}; failed turns {failed_turns[:1]}")
        return got


WORKLOADS = {
    "ingest_file": IngestFile,
    "chat_mixed": ChatMixed,
    "qa_mem": QaMem,
    "online_build": OnlineBuild,
}
