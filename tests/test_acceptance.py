"""End-to-end acceptance suite.

Each test exercises one acceptance criterion and prints a single
PASS line on success (pytest reports the failure otherwise).
"""
import random
import string
import time

import numpy as np
import pytest

from apexmem.agent import AgentConfig, HeuristicPolicy, ToolAction, run_agent
from apexmem.errors import Unnormalizable
from apexmem.extract import ReferenceExtractor, ingest_session, normalize_temporal
from apexmem.index import (
    TrigramEmbedder,
    VectorIndex,
    bm25_scores,
    cosine,
    hybrid_search,
    tokenize,
    upsert_embeddings,
)
from apexmem.online import OnlineConfig, RelevanceScore, build_online
from apexmem.ontology import DType, Event, Fact, Role, Turn
from apexmem.resolve import RuleBasedProvider, normalize_snake_case
from apexmem.sqlguard import WHITELISTED_TABLES, validate_sql
from apexmem.store import Store
from apexmem.synth import run_synth_eval
from apexmem.tools import _EXAMPLE_QUERIES, graph_sql
from conftest import CASE1_SESSIONS, ingest_case1, reference_pipeline
from test_index import _as_dict, oracle_bm25


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


# --- 1. Case-1 temporal resolution ---------------------------------------

def test_acceptance_1_case1_temporal_resolution():
    started = time.monotonic()
    store = Store.open(":memory:")
    index = VectorIndex()
    ingest_case1(store, index)

    alice = store.find_entity_by_name("Alice")["entity_id"]
    history = store.fact_history(alice, "favorite_restaurant")
    assert [f.value for f in history] == ["Italian Garden", "Sakura Sushi"]

    assert store.latest_fact(
        alice, "favorite_restaurant", "2024-04-01T00:00:00Z").value == "Sakura Sushi"
    assert store.latest_fact(
        alice, "favorite_restaurant", "2024-02-01T00:00:00Z").value == "Italian Garden"

    transcript = run_agent(
        store, index, HeuristicPolicy(),
        "What is Alice's favorite restaurant?",
        AgentConfig(question_date="2024-04-01T00:00:00Z"),
    )
    assert transcript.terminated_reason == "answered"
    assert transcript.answer.text == "Sakura Sushi"

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    store.close()
    _report("1 case-1 temporal resolution")


# --- 2. Append-only invariant suite ---------------------------------------

def _random_op(rng, store, entity_ids, turn_counter):
    choice = rng.randrange(4)
    created = f"2024-01-{rng.randrange(1, 29):02d}T00:00:00Z"
    if choice == 0 or not entity_ids:
        name = "".join(rng.choices(string.ascii_lowercase, k=8))
        entity_ids.append(
            store.append_entity(name, "Person", Role.Mentioned, [],
                                created_at=created)
        )
    elif choice == 1:
        name = "prop_" + "".join(rng.choices(string.ascii_lowercase, k=6))
        store.append_property(name, DType.str, created_at=created)
    elif choice == 2:
        ordinal = turn_counter[0]
        turn_counter[0] += 1
        store.append_turns([
            Turn(None, "fuzz", "A", "B",
                 "text " + "".join(rng.choices(string.ascii_lowercase, k=5)),
                 created, ordinal)
        ])
    else:
        subject = rng.choice(entity_ids)
        day = f"2024-02-{rng.randrange(1, 29):02d}"
        fact = Fact(None, subject, "fuzz_value",
                    rng.randrange(1000), DType.int, day, None, 1.0, created)
        store.append_event_bundle(
            Event(None, "conversation", created), [fact], [],
            [(subject, Role.Mentioned)],
        )


def _snapshot(store):
    return {t: store.all_rows(t) for t in WHITELISTED_TABLES}


def test_acceptance_2_append_only_invariants():
    started = time.monotonic()
    rng = random.Random(20240401)
    violations = 0
    for sequence in range(1000):
        store = Store.open(":memory:")
        entity_ids, turn_counter = [], [0]
        previous = _snapshot(store)
        for _ in range(rng.randrange(2, 7)):
            _random_op(rng, store, entity_ids, turn_counter)
            current = _snapshot(store)
            for table, rows in previous.items():
                if current[table][: len(rows)] != rows:
                    violations += 1
            previous = current
        replica = Store.replay(store.append_log())
        if replica.canonical_dump() != store.canonical_dump():
            violations += 1
        replica.close()
        store.close()
    assert violations == 0
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(f"2 append-only invariants (1000 sequences, {elapsed:.1f}s)")


# --- 3. GraphSQL safety fuzzing --------------------------------------------

_MUTATION_TEMPLATES = [
    "INSERT INTO {t} VALUES (1)",
    "UPDATE {t} SET x = 1",
    "DELETE FROM {t}",
    "DROP TABLE {t}",
    "ALTER TABLE {t} ADD COLUMN y",
    "CREATE TABLE {t}2 (x INT)",
    "REPLACE INTO {t} VALUES (1)",
    "PRAGMA table_info({t})",
    "ATTACH DATABASE 'x' AS evil",
    "VACUUM",
]
_SMUGGLE_WRAPPERS = [
    "{s}",
    "  {s}  ",
    "/* c */ {s}",
    "-- c\n{s}",
    "{s};",
    "{s}; SELECT 1",
    "SELECT 1; {s}",
    "WITH x AS (SELECT 1) {s}",
]
_PROBE_TABLES = ["facts", "entities", "sqlite_master", "append_log", "meta",
                 "lex_entities"]


def _fuzz_statements(rng, count):
    statements = []
    while len(statements) < count:
        kind = rng.randrange(3)
        if kind == 0:
            template = rng.choice(_MUTATION_TEMPLATES)
            wrapper = rng.choice(_SMUGGLE_WRAPPERS)
            statements.append(
                wrapper.format(s=template.format(t=rng.choice(_PROBE_TABLES)))
            )
        elif kind == 1:
            table = rng.choice(_PROBE_TABLES)
            statements.append(f"SELECT * FROM {table}")
        else:
            junk = "".join(rng.choices(string.printable, k=rng.randrange(1, 60)))
            statements.append(junk)
    return statements


def test_acceptance_3_graphsql_safety_fuzzing(tmp_path):
    started = time.monotonic()
    store = Store.open(str(tmp_path / "fuzz.sqlite"))
    index = VectorIndex()
    ingest_case1(store, index)
    alice = store.find_entity_by_name("Alice")["entity_id"]
    start_fact = Fact(None, alice, "sushi_start_date", "2024-03-20",
                      DType.str, "2024-03-20", None, 1.0,
                      "2024-03-20T10:00:00Z")
    store.append_event_bundle(
        Event(None, "conversation", "2024-03-20T10:00:00Z"), [start_fact], [], []
    )
    before = store.canonical_dump()

    rng = random.Random(7)
    statements = _fuzz_statements(rng, 10_000)
    escapes = 0
    for statement in statements:
        report = validate_sql(statement)
        if report.accepted and not report.tables_touched <= WHITELISTED_TABLES:
            escapes += 1
        graph_sql(store, statement)
    assert escapes == 0
    assert store.canonical_dump() == before, "store mutated by fuzzing"

    # appendix example queries validate and execute
    for category in ("SELECT", "AGGREGATE", "TEMPORAL"):
        assert validate_sql(_EXAMPLE_QUERIES[category]).accepted

    aggregate = graph_sql(store, _EXAMPLE_QUERIES["AGGREGATE"])
    assert aggregate.ok
    assert "| 4 |" in aggregate.text, aggregate.text

    temporal = graph_sql(store, _EXAMPLE_QUERIES["TEMPORAL"], {
        "question_date": "2024-04-01",
        "user_id": alice,
        "property_id": "sushi_start_date",
    })
    assert temporal.ok
    assert "| 12.0 |" in temporal.text or "| 12 |" in temporal.text, temporal.text

    select = graph_sql(
        store,
        "SELECT entity_name FROM entities WHERE entity_name LIKE '%Sakura%'"
    )
    assert select.ok and "Sakura Sushi" in select.text

    store.close()
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _report(f"3 graphsql safety fuzzing (10000 statements, {elapsed:.1f}s)")


# --- 4. Retrieval oracle equivalence ---------------------------------------

def test_acceptance_4_retrieval_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(4)
    vocabulary = ["".join(rng.choices(string.ascii_lowercase, k=5))
                  for _ in range(80)]

    corpus = [
        (i, " ".join(rng.choices(vocabulary, k=rng.randrange(3, 15))))
        for i in range(500)
    ]
    for query_terms in range(1, 6):
        query = " ".join(rng.choices(vocabulary, k=query_terms))
        got = bm25_scores(corpus, query)
        want = oracle_bm25(corpus, query)
        assert set(got) == set(want)
        for doc_id in want:
            assert abs(got[doc_id] - want[doc_id]) < 1e-9

    # dense scores vs brute-force cosine over a 1,000-entity store
    store = Store.open(":memory:")
    index = VectorIndex()
    embedder = TrigramEmbedder()
    names = []
    for i in range(1000):
        name = "entity " + " ".join(rng.choices(vocabulary, k=2)) + f" {i}"
        names.append(name)
        store.append_entity(name, "Topic", Role.Mentioned, [],
                            created_at="2024-01-01T00:00:00Z")
    upsert_embeddings(store, index)
    query_vec = embedder.embed("entity " + vocabulary[0])
    scored = _as_dict(index.dense_scores("entity", query_vec))
    assert len(scored) == 1000
    for doc_id, score in scored.items():
        brute = cosine(query_vec, embedder.embed(
            store.lexical_documents("entity")[doc_id - 1][1]))
        assert abs(score - brute) < 1e-9

    # hybrid rank order stable under unrelated-document padding
    query = names[0]
    baseline = [(doc_id, kind) for doc_id, kind, _ in
                hybrid_search(store, index, ("entity",), query, k=5)]
    for i in range(20):
        store.append_entity(f"zzz unrelated padding {i} qqqq wwww", "Topic",
                            Role.Mentioned, [], created_at="2024-01-01T00:00:00Z")
    upsert_embeddings(store, index)
    padded = [(doc_id, kind) for doc_id, kind, _ in
              hybrid_search(store, index, ("entity",), query, k=5)]
    assert padded == baseline
    store.close()

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(f"4 retrieval oracle equivalence ({elapsed:.1f}s)")


# --- 5. Agent budget and immutability --------------------------------------

class _FuzzPolicy:
    """Never answers; cycles through arbitrary tool calls, some invalid."""

    def __init__(self):
        self.calls = 0
        self._rng = random.Random(5)

    def step(self, question, history, named_params):
        self.calls += 1
        from apexmem.tools import ToolCall

        choice = self._rng.randrange(4)
        if choice == 0:
            return ToolAction("", ToolCall("schema_viewer", {}))
        if choice == 1:
            return ToolAction("", ToolCall("graph_sql",
                                           {"sql": "DELETE FROM facts"}))
        if choice == 2:
            return ToolAction("", ToolCall("search", {"query": "anything"}))
        return ToolAction("", ToolCall("entity_lookup", {"query": "alice"}))


def test_acceptance_5_agent_budget_and_immutability():
    started = time.monotonic()
    store = Store.open(":memory:")
    index = VectorIndex()
    ingest_case1(store, index)
    before = store.canonical_dump()

    policy = _FuzzPolicy()
    transcript = run_agent(store, index, policy, "unanswerable question")
    assert transcript.terminated_reason == "budget_exhausted"
    assert len(transcript.steps) == 40
    assert policy.calls == 40
    assert store.canonical_dump() == before

    store.close()
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(f"5 agent budget and immutability ({elapsed:.1f}s)")


# --- 6. Online gating --------------------------------------------------------

def _online_corpus():
    from apexmem.online import Document

    texts = [
        ("d1", "2024-01-15T10:00:00Z",
         "I love Italian Garden! Their pasta is the best in town."),
        ("d2", "2024-02-10T09:00:00Z", "The weather has been gloomy lately."),
        ("d3", "2024-03-20T10:00:00Z",
         "Italian Garden closed down last month. "
         "Now I go to Sakura Sushi every week instead."),
    ]
    return [
        Document(doc_id, ts, (Turn(None, doc_id, "Alice", "Assistant", text, ts, 0),))
        for doc_id, ts, text in texts
    ]


def test_acceptance_6_online_gating():
    started = time.monotonic()
    corpus = _online_corpus()
    fixture = [RelevanceScore("d1", 0.9), RelevanceScore("d2", 0.15),
               RelevanceScore("d3", 0.4)]

    store = Store.open(":memory:")
    extractor, entities, properties = reference_pipeline()
    report = build_online(
        store, VectorIndex(), extractor, entities, properties, corpus,
        "favorite restaurant?", OnlineConfig(theta_rel=0.2), scores=fixture,
    )
    assert [r.doc_id for r in report.selected] == ["d1", "d3"]
    store.close()

    # theta_rel = 0 must reproduce offline ingestion byte-for-byte
    online_store = Store.open(":memory:")
    extractor, entities, properties = reference_pipeline()
    build_online(
        online_store, VectorIndex(), extractor, entities, properties, corpus,
        "q", OnlineConfig(theta_rel=0.0),
        scores=[RelevanceScore(d.doc_id, 1.0) for d in corpus],
    )

    offline_store = Store.open(":memory:")
    extractor, entities, properties = reference_pipeline()
    for doc in corpus:
        ingest_session(offline_store, VectorIndex(), extractor, entities,
                       properties, list(doc.turns))
    assert online_store.canonical_dump() == offline_store.canonical_dump()
    online_store.close()
    offline_store.close()

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(f"6 online gating ({elapsed:.1f}s)")


# --- 7. Normalization fixtures ----------------------------------------------

def test_acceptance_7_normalization_fixtures():
    started = time.monotonic()

    valid_from, _ = normalize_temporal("yesterday", "2023-05-08T14:00:00Z")
    assert valid_from == "2023-05-07"

    rng = random.Random(7)
    alphabet = string.ascii_letters + string.digits + " _-!@.#"
    checked = 0
    for _ in range(10_000):
        raw = "".join(rng.choices(alphabet, k=rng.randrange(1, 40)))
        try:
            once = normalize_snake_case(raw)
        except Unnormalizable:
            continue
        assert normalize_snake_case(once) == once, raw
        checked += 1
    assert checked > 5000  # the alphabet should mostly normalize fine

    from test_ontology import ROUND_TRIP_CASES
    from apexmem.ontology import serialize_value, validate_dtype_value

    assert len({dtype for dtype, _ in ROUND_TRIP_CASES}) == 9
    for dtype, value in ROUND_TRIP_CASES:
        canonical = validate_dtype_value(value, dtype)
        assert validate_dtype_value(serialize_value(canonical, dtype), dtype) == canonical

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(f"7 normalization fixtures ({checked} snake_case strings, {elapsed:.1f}s)")


# --- 8. Synthetic temporal eval ----------------------------------------------

def test_acceptance_8_synthetic_temporal_eval():
    started = time.monotonic()
    append = run_synth_eval(seed=7, n_sessions=20, revisions_per_subject=3,
                            mode="append_only")
    eager = run_synth_eval(seed=7, n_sessions=20, revisions_per_subject=3,
                           mode="eager_update")

    assert append.latest_total > 0 and append.before_total > 0
    assert append.latest_correct == append.latest_total, "latest probes not 100%"
    assert append.before_accuracy > eager.before_accuracy, (
        f"append-only {append.before_accuracy} not above eager "
        f"{eager.before_accuracy}"
    )

    # deterministic across runs
    again = run_synth_eval(seed=7, n_sessions=20, revisions_per_subject=3,
                           mode="append_only")
    assert (again.latest_correct, again.before_correct) == (
        append.latest_correct, append.before_correct)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report(
        f"8 synthetic temporal eval (latest {append.latest_correct}/"
        f"{append.latest_total}, before {append.before_accuracy:.0%} vs "
        f"eager {eager.before_accuracy:.0%}, {elapsed:.1f}s)"
    )
