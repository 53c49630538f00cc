import ast
import hashlib
import json
import os
import re
import sqlite3
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import apexmem.store
from apexmem.agent import AgentConfig, HeuristicPolicy, run_agent
from apexmem.errors import (
    DanglingReference,
    IoFailure,
    SchemaMismatch,
    UnknownView,
    ValidationFailure,
)
from apexmem.extract import ingest_session
from apexmem.index import VectorIndex, upsert_embeddings
from apexmem.ontology import DType, Event, Evidence, Fact, Role, Turn, temporal_sort_key
from apexmem.store import SCHEMA_VERSION, Store, WHITELISTED_TABLES
from apexmem.tools import entity_lookup, graph_sql, search
from conftest import corpus_sessions, ingest_case1, load_gen, reference_pipeline


def _turn(session="s1", ordinal=0, text="hello world",
          anchor="2024-01-01T00:00:00Z"):
    return Turn(None, session, "Alice", "Assistant", text, anchor, ordinal)


def _event(anchor="2024-01-01T00:00:00Z"):
    return Event(id=None, event_type="conversation", anchor_datetime=anchor)


def test_open_creates_schema(tmp_path):
    path = str(tmp_path / "db.sqlite")
    store = Store.open(path)
    assert store.row_counts()["facts"] == 0
    store.close()
    again = Store.open(path, create_if_missing=False)
    again.close()


def test_open_rejects_foreign_schema(tmp_path):
    path = str(tmp_path / "other.sqlite")
    import sqlite3

    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
    conn.execute("INSERT INTO meta VALUES ('schema_version', '99')")
    conn.commit()
    conn.close()
    with pytest.raises(SchemaMismatch):
        Store.open(path)


def test_whitelisted_tables_exact():
    assert set(WHITELISTED_TABLES) == {
        "events", "facts", "evidence", "entities",
        "event_participants", "properties", "turns",
    }


def test_append_entity_and_lookup(store):
    entity_id = store.append_entity("Alice", "Person", Role.Speaker, ["Ali"],
                                    created_at="2024-01-01T00:00:00Z")
    row = store.find_entity_by_name("alice")
    assert row["entity_id"] == entity_id
    assert store.find_entity_by_name("ALI")["entity_id"] == entity_id
    assert store.find_entity_by_name("nobody") is None


def test_find_entity_by_name_semantics(store):
    created = "2024-01-01T00:00:00Z"
    sam = store.append_entity("Sam", "Person", Role.Speaker, [], created_at=created)
    sammy = store.append_entity("Samantha Jones", "Person", Role.Mentioned,
                                ["Sammy", "SAM"], created_at=created)
    place = store.append_entity("Italian Garden", "Place", Role.Mentioned,
                                ["the Garden"], created_at=created)
    # alias hit, matched case-insensitively after whitespace normalization
    assert store.find_entity_by_name("sammy")["entity_id"] == sammy
    assert store.find_entity_by_name("  THE   garden ") == store.entity_row(place)
    assert store.find_entity_by_name("italian GARDEN")["entity_id"] == place
    # "sam" is one entity's name and another's alias: the lowest id wins
    assert store.find_entity_by_name("sAm")["entity_id"] == sam
    assert store.find_entity_by_name("Samantha") is None
    assert store.find_entity_by_name("Jones") is None


def test_offset_timestamps_compare_as_instants(store):
    """22:00Z is later than 01:00+05:00 on the next day (20:00Z)."""
    extractor, entity_provider, property_provider = reference_pipeline()
    turns = [("s1", "My favorite color is blue.", "2024-05-01T22:00:00Z"),
             ("s2", "My favorite color is red.", "2024-05-02T01:00:00+05:00")]
    for session_id, text, anchor in turns:
        session = [Turn(None, session_id, "Alice", "Assistant", text, anchor, 0)]
        outcomes = ingest_session(store, VectorIndex(), extractor, entity_provider,
                                  property_provider, session)
        assert all(outcome.ok for outcome in outcomes)
    alice = store.find_entity_by_name("Alice")["entity_id"]
    assert store.latest_fact(alice, "favorite_color").value == "blue"
    assert store.max_anchor_datetime() == "2024-05-01T22:00:00Z"


def test_append_turns_rejects_duplicate_ordinal(store):
    store.append_turns([_turn(ordinal=0)])
    with pytest.raises(ValidationFailure):
        store.append_turns([_turn(ordinal=0)])


def test_append_turns_names_the_first_stored_turn_of_its_batch(store):
    store.append_turns([_turn("s1", 0), _turn("s2", 0)])
    before = store.canonical_dump()
    with pytest.raises(ValidationFailure, match=r"^duplicate turn \(s2, 0\)$"):
        store.append_turns([_turn("s3", 0), _turn("s2", 0), _turn("s1", 0)])
    assert store.canonical_dump() == before
    assert store.append_turns([]) == []


def test_append_turns_names_the_first_repeat_within_its_batch(store):
    store.append_turns([_turn("s1", 0)])
    before = store.canonical_dump()
    turn = _turn("s2", 0)
    with pytest.raises(ValidationFailure, match=r"^duplicate turn \(s2, 0\)$"):
        store.append_turns([turn, turn])
    # a repeat that comes before the stored turn of the batch is named first
    with pytest.raises(ValidationFailure, match=r"^duplicate turn \(s3, 1\)$"):
        store.append_turns([_turn("s3", 1), _turn("s3", 1), _turn("s1", 0)])
    assert store.canonical_dump() == before
    assert store.append_turns([turn]) == [2]


def test_turn_text_answers_the_last_batch_from_memory(tmp_path):
    """The texts of the batch just committed are not read back; older
    turns, and ids of a batch that was refused or whose commit failed, are
    read from SQLite."""
    path = str(tmp_path / "db.sqlite")
    store = Store.open(path)
    [first] = store.append_turns([_turn(ordinal=0, text="first")])
    [second] = store.append_turns([_turn(ordinal=1, text="second")])
    with pytest.raises(ValidationFailure):
        store.append_turns([_turn(ordinal=2, text="x"), _turn(ordinal=2, text="y")])
    store._conn.execute("PRAGMA busy_timeout = 50")
    other = sqlite3.connect(path, isolation_level=None)
    other.execute("BEGIN IMMEDIATE")
    with pytest.raises(IoFailure):
        store.append_turns([_turn(ordinal=2, text="x")])
    other.execute("ROLLBACK")
    other.close()
    statements = []
    store._conn.set_trace_callback(statements.append)
    assert store.turn_text(second) == "second"
    assert statements == []
    assert store.turn_text(first) == "first"
    assert store.turn_text(second + 1) is None
    assert len(statements) == 2
    store.close()


def test_event_bundle_commits_atomically(store):
    subject = store.append_entity("Alice", "Person", Role.Speaker, [],
                                  created_at="2024-01-01T00:00:00Z")
    [turn_id] = store.append_turns([_turn(text="my favorite color is blue")])
    fact = Fact(None, subject, "favorite_color", "blue", DType.str,
                "2024-01-01", None, 1.0, "2024-01-01T00:00:00Z")
    ev = Evidence(None, None, turn_id, (3, 25), "favorite color is blue", 0)
    committed = store.append_event_bundle(
        _event(), [fact], [ev], [(subject, Role.Speaker)]
    )
    assert len(committed.fact_ids) == 1
    assert len(committed.evidence_ids) == 1
    counts = store.row_counts()
    assert counts["events"] == 1 and counts["facts"] == 1


def test_event_bundle_rejects_dangling_subject(store):
    [turn_id] = store.append_turns([_turn()])
    fact = Fact(None, 999, "favorite_color", "blue", DType.str,
                "2024-01-01", None, 1.0, "2024-01-01T00:00:00Z")
    before = store.canonical_dump()
    with pytest.raises(DanglingReference):
        store.append_event_bundle(_event(), [fact], [], [])
    assert store.canonical_dump() == before  # nothing partially committed


def test_evidence_fact_index_outside_the_bundle_is_dangling(store):
    subject = store.append_entity("Alice", "Person", Role.Speaker, [],
                                  created_at="2024-01-01T00:00:00Z")
    [turn_id] = store.append_turns([_turn(text="my favorite color is blue")])

    def fact(value):
        return Fact(None, subject, "favorite_color", value, DType.str,
                    "2024-01-01", None, 1.0, "2024-01-01T00:00:00Z")

    store.append_event_bundle(_event(), [fact("blue"), fact("red")], [], [])
    # index 1 names no fact of a one-fact bundle, though fact id 1 exists
    ev = Evidence(None, None, turn_id, (3, 25), "favorite color is blue", 1)
    before = store.canonical_dump()
    with pytest.raises(DanglingReference, match="index 1"):
        store.append_event_bundle(_event(), [fact("green")], [ev], [])
    assert store.canonical_dump() == before


def test_entity_created_at_must_be_iso(store):
    before = store.canonical_dump()
    with pytest.raises(ValidationFailure):
        store.append_entity("Zed", "Person", created_at="soon")
    assert store.canonical_dump() == before


@pytest.mark.parametrize("stamps", [
    {"created_at": "soon"},
    {"valid_from": "soon"},
    {"valid_to": "soon"},
    {"bundle_created_at": "soon"},
])
def test_event_bundle_timestamps_must_be_iso(store, stamps):
    subject = store.append_entity("Alice", "Person", Role.Speaker, [],
                                  created_at="2024-01-01T00:00:00Z")
    stamps = {"created_at": "2024-01-01T00:00:00Z", "valid_from": None,
              "valid_to": None, "bundle_created_at": None, **stamps}
    fact = Fact(None, subject, "favorite_color", "blue", DType.str, stamps["valid_from"],
                stamps["valid_to"], 1.0, stamps["created_at"])
    counts = store.row_counts()
    with pytest.raises(ValidationFailure):
        store.append_event_bundle(_event(), [fact], [], [], stamps["bundle_created_at"])
    assert store.row_counts() == counts


def test_property_created_at_must_be_iso(store):
    counts = store.row_counts()
    with pytest.raises(ValidationFailure):
        store.append_property("favorite_color", DType.str, created_at="soon")
    assert store.row_counts() == counts


def test_evidence_quote_must_match_span(store):
    subject = store.append_entity("Alice", "Person", Role.Speaker, [],
                                  created_at="2024-01-01T00:00:00Z")
    [turn_id] = store.append_turns([_turn(text="hello world")])
    fact = Fact(None, subject, "likes", "x", DType.str,
                "2024-01-01", None, 1.0, "2024-01-01T00:00:00Z")
    bad = Evidence(None, None, turn_id, (0, 5), "WRONG", 0)
    with pytest.raises(ValidationFailure):
        store.append_event_bundle(_event(), [fact], [bad], [])


def test_fact_history_and_latest_resolution(store):
    subject = store.append_entity("Alice", "Person", Role.Speaker, [],
                                  created_at="2024-01-01T00:00:00Z")
    values = [("blue", "2024-01-01"), ("green", "2024-03-01"),
              ("red", "2024-02-01")]
    for value, valid_from in values:
        fact = Fact(None, subject, "favorite_color", value, DType.str,
                    valid_from, None, 1.0, valid_from + "T00:00:00Z")
        store.append_event_bundle(
            _event(valid_from + "T00:00:00Z"), [fact], [], []
        )
    history = store.fact_history(subject, "favorite_color")
    assert [f.value for f in history] == ["blue", "red", "green"]
    assert store.latest_fact(subject, "favorite_color",
                             "2024-02-15T00:00:00Z").value == "red"
    assert store.latest_fact(subject, "favorite_color",
                             "2025-01-01T00:00:00Z").value == "green"
    assert store.latest_fact(subject, "favorite_color",
                             "2023-01-01T00:00:00Z") is None


def test_fact_history_as_of_includes_the_cutoff_day(store):
    subject = store.append_entity("Alice", "Person", Role.Speaker, [],
                                  created_at="2023-06-01T00:00:00Z")
    values = [("amber", None, "2023-06-01"), ("blue", "2024-01-01", "2024-01-01"),
              ("green", "2024-03-01", "2024-03-01")]
    for value, valid_from, day in values:
        fact = Fact(None, subject, "favorite_color", value, DType.str,
                    valid_from, None, 1.0, day + "T09:00:00Z")
        store.append_event_bundle(_event(day + "T09:00:00Z"), [fact], [], [])

    def as_of(day):
        return [f.value for f in store.fact_history(subject, "favorite_color", day)]

    assert as_of("2024-03-01") == ["amber", "blue", "green"]
    assert as_of("2024-02-29") == ["amber", "blue"]
    assert as_of("2023-12-31") == ["amber"]  # an unset valid_from always counts
    assert store.latest_fact(subject, "favorite_color", "2024-01-01").value == "blue"


_PROPERTIES = ("favorite_color", "favorite_food", "hometown")
# instants that differ, coincide, or only compare right as UTC instants
_STAMPS = st.builds(
    lambda day, hour, zone: f"2024-01-{day:02d}T{hour:02d}:00:00{zone}",
    st.integers(1, 4), st.sampled_from([0, 3, 22]), st.sampled_from(["Z", "+05:00", "-03:00"]),
) | st.sampled_from(["2024-01-02", "2024-01-03"])


@settings(max_examples=60, deadline=None)
@given(
    facts=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.sampled_from(_PROPERTIES),
            st.none() | _STAMPS,
            st.sampled_from(["2024-01-02T00:00:00Z", "2024-01-03T00:00:00Z",
                             "2024-01-02T05:00:00+05:00"]),
        ),
        max_size=12,
    ),
    cutoffs=st.lists(st.none() | _STAMPS, min_size=1, max_size=4),
)
def test_subject_history_is_the_fact_history_of_each_property(facts, cutoffs):
    """Facts of two subjects, made in list order: valid_from unset or with
    offsets, created_at often tied."""
    store = Store.open(":memory:")
    subjects = [store.append_entity(name, "Person", Role.Speaker) for name in ("A", "B")]
    for number, (who, prop, valid_from, created_at) in enumerate(facts):
        fact = Fact(None, subjects[who], prop, f"v{number}", DType.str,
                    valid_from, None, 1.0, created_at)
        store.append_event_bundle(_event(created_at), [fact], [], [])
    for subject in subjects:
        props = sorted({prop for who, prop, *_ in facts if subjects[who] == subject})
        for as_of in cutoffs:
            history = store.subject_history(subject, as_of)
            assert list(history) == props
            assert history == {p: store.fact_history(subject, p, as_of) for p in props}
    store.close()


def test_replay_reconstructs_store(store, tmp_path):
    subject = store.append_entity("Alice", "Person", Role.Speaker, [],
                                  created_at="2024-01-01T00:00:00Z")
    store.append_turns([_turn()])
    fact = Fact(None, subject, "favorite_color", "blue", DType.str,
                "2024-01-01", None, 1.0, "2024-01-01T00:00:00Z")
    store.append_event_bundle(_event(), [fact], [], [(subject, Role.Speaker)])
    log = store.append_log()
    replica = Store.replay(log)
    assert replica.canonical_dump() == store.canonical_dump()
    replica.close()


def test_append_log_grows_monotonically(store):
    assert store.append_log() == []
    store.append_entity("A", "Person", Role.Speaker, [],
                        created_at="2024-01-01T00:00:00Z")
    first = store.append_log()
    store.append_entity("B", "Person", Role.Speaker, [],
                        created_at="2024-01-01T00:00:00Z")
    second = store.append_log()
    assert second[: len(first)] == first
    assert len(second) == len(first) + 1


def test_lexical_documents_derived_from_base_rows(case1_store):
    docs = case1_store.lexical_documents("entity")
    assert len(docs) == case1_store.row_counts()["entities"] >= 3
    assert any("Italian Garden" in text for _, text in docs)
    assert case1_store.lexical_documents("entity", after_id=docs[0][0]) == docs[1:]
    with pytest.raises(UnknownView):
        case1_store.lexical_documents("entities")


def test_search_text_of_each_kind(store):
    alice = store.append_entity("Alice", "Person", Role.Speaker, ["Ali", "Al"],
                                created_at="2024-01-01T00:00:00Z")
    bob = store.append_entity("Bob", "Person", Role.Mentioned, [],
                              created_at="2024-01-01T00:00:00Z")
    store.append_property("favorite_color", DType.str)
    [turn_id] = store.append_turns([_turn(text="my favorite color is blue")])
    evidence = Evidence(None, None, turn_id, (3, 25), "favorite color is blue")
    store.append_event_bundle(
        Event(None, "conversation", "2024-01-01T00:00:00Z", location="Rome"),
        evidence=[evidence],
    )
    store.append_event_bundle(_event())
    assert store.lexical_documents("entity") == [
        (alice, "Alice Al Ali"), (bob, "Bob")]
    assert store.lexical_documents("property") == [
        (1, "favorite color favorite_color str")]
    assert store.lexical_documents("event") == [
        (1, "conversation Rome"), (2, "conversation")]
    assert store.lexical_documents("evidence") == [(1, "favorite color is blue")]
    assert store.lexical_documents("turn") == [(turn_id, "my favorite color is blue")]


def test_append_log_holds_only_base_rows(case1_store):
    for _sequence, payload in case1_store.append_log():
        assert set(payload["rows"]) <= set(WHITELISTED_TABLES)


def test_case1_rows_and_log_keep_their_bytes(case1_store):
    """The row and log format of schema version 2, pinned: a change to either
    changes these hashes, and the replay of stored logs with them."""
    def sha256(data):
        return hashlib.sha256(data).hexdigest()

    assert sha256(case1_store.canonical_dump()) == (
        "7d7801b268ae9c614d06db8d3e8f1c095d8b2eb524bed8874533ab1733e2ed5c")
    assert sha256(json.dumps(case1_store.append_log()).encode()) == (
        "a3f7fc5f2e97eed9ee88155c1894835a59645fbf23e07e17776192c835a0db26")


def test_open_rejects_version_1_store(tmp_path):
    path = str(tmp_path / "v1.sqlite")
    Store.open(path).close()
    import sqlite3

    conn = sqlite3.connect(path)
    conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema_version'")
    conn.commit()
    conn.close()
    with pytest.raises(SchemaMismatch):
        Store.open(path)


def test_schema_version_recorded(store):
    assert store.schema_version() == SCHEMA_VERSION


def _index_names(store):
    return {
        row[0] for row in store._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' AND sql IS NOT NULL")
    }


def test_a_store_without_its_indexes_gains_them_when_opened(tmp_path):
    """Indexes are derived: a store that lacks them, as one written before
    they existed does, gets them on open with its rows unchanged."""
    path = str(tmp_path / "db.sqlite")
    store = Store.open(path)
    index = VectorIndex(path=VectorIndex.sidecar_path(path))
    ingest_case1(store, index)
    index.save()
    indexes = _index_names(store)
    before = store.canonical_dump()
    store.close()
    assert indexes == {"facts_subject", "event_participants_entity", "entities_name",
                       "facts_property"}

    raw = sqlite3.connect(path)
    for name in sorted(indexes):
        raw.execute(f"DROP INDEX {name}")
    raw.commit()
    raw.close()

    again = Store.open(path, create_if_missing=False)
    assert _index_names(again) == indexes
    assert again.canonical_dump() == before
    transcript = run_agent(
        again, VectorIndex(path=VectorIndex.sidecar_path(path)), HeuristicPolicy(),
        "What is Alice's favorite restaurant?",
        AgentConfig(question_date="2024-02-01T00:00:00Z"),
    )
    assert transcript.answer.text == "Italian Garden"
    again.close()


# a full read of a table that grows with the history: facts, event
# participants, or either under the aliases the statements give them
_TABLE_SCAN = re.compile(r"^SCAN (facts|f|p|event_participants)\b")


def test_question_path_reads_are_point_reads(case1_store):
    """A scaling guard: the reads a question makes of one subject, the
    benchmark's as-of GraphSQL lookup and property_search's usage count
    search an index instead of reading the whole table, so their cost does
    not grow with the store."""
    store = case1_store
    alice = store.find_entity_by_name("Alice")["entity_id"]
    statements = []
    store._conn.set_trace_callback(statements.append)
    store.fact_history(alice, "favorite_restaurant", "2024-02-01T00:00:00Z")
    store.subject_history(alice, "2024-02-01T00:00:00Z")
    store.entity_anchors(alice)
    as_of = (
        "SELECT f.value_json FROM facts f JOIN entities e ON e.entity_id = f.subject_id"
        " WHERE e.entity_name = :name AND f.property_name = :prop"
        " AND f.valid_from <= :day ORDER BY f.valid_from DESC, f.id DESC LIMIT 1"
    )
    looked_up = graph_sql(
        store, as_of,
        {"name": "Alice", "prop": "favorite_restaurant", "day": "2024-02-01"},
    )
    usage = store.property_usage(["favorite_restaurant", "Favorite_Restaurant"])
    store._conn.set_trace_callback(None)
    assert looked_up.ok and "Italian Garden" in looked_up.text
    assert usage == {"favorite_restaurant": 2, "Favorite_Restaurant": 0}
    reads = [sql for sql in statements if sql.lstrip().upper().startswith("SELECT")]
    # fact_history and subject_history share one read of the kept history
    assert len(reads) == 4
    plans = {
        sql: [row[3] for row in store._conn.execute("EXPLAIN QUERY PLAN " + sql)]
        for sql in reads
    }
    scans = {sql: steps for sql, steps in plans.items()
             if any(_TABLE_SCAN.match(step) for step in steps)}
    assert scans == {}
    # the lookup reads the one subject's facts, not every fact of the property
    assert "SEARCH f USING INDEX facts_subject (subject_id=? AND property_name=?)" in next(
        steps for sql, steps in plans.items() if "JOIN entities" in sql)


# a statement on a table that grows with every fact or event
_HISTORY_TABLES = re.compile(r"\b(facts|events|event_participants)\b")


def test_a_repeated_entity_lookup_reads_no_history(case1_store, index):
    """A scaling guard: the store keeps each subject's facts and each
    entity's anchors, so a second identical ``entity_lookup`` on a store
    with no new commit runs no statement on the tables that grow."""
    first = entity_lookup(case1_store, index, "Alice", as_of="2024-02-01T00:00:00Z")
    statements = []
    case1_store._conn.set_trace_callback(statements.append)
    again = entity_lookup(case1_store, index, "Alice", as_of="2024-02-01T00:00:00Z")
    case1_store._conn.set_trace_callback(None)
    assert first.ok and "Italian Garden" in first.text
    assert again == first
    assert [sql for sql in statements if _HISTORY_TABLES.search(sql)] == []


def _ingest(store, index, sessions):
    for session in sessions:
        for outcome in ingest_session(store, index, *reference_pipeline(), session):
            assert outcome.ok, outcome.error


def _sessions(prefix, count):
    return [
        [_turn(f"{prefix}{i}", 0, f"My favorite color is shade{i}.",
               f"2024-01-{i + 1:02d}T10:00:00Z")]
        for i in range(count)
    ]


def test_readonly_connection_is_owned_and_sees_new_commits(tmp_path):
    store = Store.open(str(tmp_path / "db.sqlite"))
    reader = store.readonly_connection()
    assert store.readonly_connection() is reader
    with pytest.raises(sqlite3.OperationalError):
        reader.execute("INSERT INTO meta (key, value) VALUES ('k', 'v')")

    def count():
        return reader.execute("SELECT COUNT(*) FROM entities").fetchone()[0]

    assert count() == 0
    store.append_entity("Alice", "Person", Role.Speaker)
    assert count() == 1
    _ingest(store, VectorIndex(), _sessions("s", 2))
    assert count() == store.row_counts()["entities"] > 1
    store.close()
    with pytest.raises(sqlite3.ProgrammingError):
        count()


def test_close_tolerates_a_reader_its_caller_closed(tmp_path):
    store = Store.open(str(tmp_path / "db.sqlite"))
    first = store.readonly_connection()
    first.close()
    second = store.readonly_connection()
    assert second is not first
    assert second.execute("SELECT COUNT(*) FROM turns").fetchone()[0] == 0
    second.close()
    store.close()


def test_reader_opens_the_store_whatever_its_path_holds(tmp_path):
    path = str(tmp_path / "a #1?x=%20.sqlite")
    store = Store.open(path)
    store.append_entity("Alice", "Person", Role.Speaker)
    reader = store.readonly_connection()
    assert reader.execute("SELECT COUNT(*) FROM entities").fetchone()[0] == 1
    with pytest.raises(sqlite3.OperationalError):
        reader.execute("DELETE FROM entities")
    store.close()
    assert sorted(os.listdir(tmp_path)) == ["a #1?x=%20.sqlite"]


def test_memory_store_reads_through_its_writer(store):
    assert store.readonly_connection() is store._conn


def _journal_mode(store):
    return store._conn.execute("PRAGMA journal_mode").fetchone()[0]


def test_file_store_runs_on_the_write_ahead_log(tmp_path, store):
    assert _journal_mode(store) == "memory"
    path = str(tmp_path / "db.sqlite")
    disk = Store.open(path)
    assert _journal_mode(disk) == "wal"
    assert disk._conn.execute("PRAGMA synchronous").fetchone()[0] == 2  # FULL
    _ingest(disk, VectorIndex(), _sessions("s", 3))
    disk.readonly_connection().execute("SELECT COUNT(*) FROM facts").fetchone()
    assert os.path.exists(path + "-wal")
    before = disk.canonical_dump()
    disk.close()
    assert sorted(os.listdir(tmp_path)) == ["db.sqlite"]

    raw = sqlite3.connect(path)
    assert raw.execute("PRAGMA journal_mode = DELETE").fetchone()[0] == "delete"
    raw.close()
    again = Store.open(path, create_if_missing=False)
    assert _journal_mode(again) == "wal"
    assert again.canonical_dump() == before
    again.close()
    assert sorted(os.listdir(tmp_path)) == ["db.sqlite"]


def test_commit_on_a_locked_store_raises_io_failure(tmp_path):
    path = str(tmp_path / "db.sqlite")
    store = Store.open(path)
    store._conn.execute("PRAGMA busy_timeout = 50")
    other = sqlite3.connect(path, isolation_level=None)
    other.execute("BEGIN IMMEDIATE")
    with pytest.raises(IoFailure) as caught:
        store.append_entity("Alice", "Person", Role.Speaker)
    assert path in str(caught.value) and "entity" in str(caught.value)
    assert store.row_counts()["entities"] == 0
    other.execute("ROLLBACK")
    other.close()
    assert store.append_entity("Alice", "Person", Role.Speaker) == 1
    assert len(store.append_log()) == 1
    store.close()


def _fact(subject, value="blue"):
    return Fact(None, subject, "favorite_color", value, DType.str,
                "2024-01-01", None, 1.0, "2024-01-01T00:00:00Z")


def test_two_handles_on_one_file_keep_ids_without_gaps(tmp_path):
    """Each handle allocates from the ids it holds in memory and reloads
    them when PRAGMA data_version shows a commit by the other, so ids and
    log sequences stay 1..n, and each handle's index catch-up sees the
    other's rows."""
    path = str(tmp_path / "db.sqlite")
    handles = [Store.open(path), Store.open(path)]
    indexes = [VectorIndex(), VectorIndex()]
    handles[0].append_turns([_turn(ordinal=0)])
    entity_ids, event_ids, fact_ids = [], [], []
    for step in range(6):
        writer, other = handles[step % 2], handles[1 - step % 2]
        entity_ids.append(writer.append_entity(
            f"Person{step}", "Person", Role.Mentioned, created_at="2024-01-01T00:00:00Z"))
        committed = other.append_event_bundle(
            _event(), [_fact(entity_ids[-1])], [], [(entity_ids[-1], Role.Mentioned)])
        event_ids.append(committed.event_id)
        fact_ids.extend(committed.fact_ids)
        for handle, index in zip(handles, indexes):
            upsert_embeddings(handle, index)
            assert ("entity", entity_ids[-1]) in index.entries
            assert ("event", committed.event_id) in index.entries
    handles[1].append_turns([_turn(ordinal=1)])
    assert entity_ids == event_ids == fact_ids == list(range(1, 7))
    for handle, index in zip(handles, indexes):
        assert [sequence for sequence, _ in handle.append_log()] == list(range(1, 15))
        assert handle.sequence == 14
        assert handle.last_ids() == {
            "entities": 6, "properties": 0, "facts": 6, "events": 6,
            "evidence": 0, "turns": 2, "append_log": 14,
        }
        assert upsert_embeddings(handle, index) == 1  # the last turn
        handle.close()


def test_replay_loads_the_ids_of_the_log(store):
    subject = store.append_entity("Alice", "Person", Role.Speaker, [],
                                  created_at="2024-01-01T00:00:00Z")
    store.append_turns([_turn()])
    store.append_event_bundle(_event(), [_fact(subject)], [], [(subject, Role.Speaker)])
    replica = Store.replay(store.append_log())
    assert replica.append_entity("Bob", "Person", created_at="2024-01-01T00:00:00Z") == 2
    assert replica.append_event_bundle(_event(), [_fact(2)]).fact_ids == [2]
    assert [sequence for sequence, _ in replica.append_log()] == [1, 2, 3, 4, 5]
    replica.close()


def test_a_failed_commit_leaves_the_ids_unchanged(tmp_path):
    """A bundle refused for a dangling reference, or rolled back on a
    locked store, takes no id: the next commit gets the one it would have."""
    path = str(tmp_path / "db.sqlite")
    store = Store.open(path)
    alice = store.append_entity("Alice", "Person", Role.Speaker, [],
                                created_at="2024-01-01T00:00:00Z")
    [turn_id] = store.append_turns([_turn(text="my favorite color is blue")])

    def bundle(quoted_turn=turn_id):
        ev = Evidence(None, None, quoted_turn, (3, 25), "favorite color is blue", 0)
        return store.append_event_bundle(_event(), [_fact(alice)], [ev],
                                         [(alice, Role.Speaker)])

    with pytest.raises(DanglingReference):
        bundle(quoted_turn=turn_id + 1)
    store._conn.execute("PRAGMA busy_timeout = 50")
    other = sqlite3.connect(path, isolation_level=None)
    other.execute("BEGIN IMMEDIATE")
    with pytest.raises(IoFailure):
        bundle()
    with pytest.raises(IoFailure):
        store.append_entity("Bob", "Person", created_at="2024-01-01T00:00:00Z")
    other.execute("ROLLBACK")
    other.close()
    committed = bundle()
    assert (committed.event_id, committed.fact_ids, committed.evidence_ids) == (1, [1], [1])
    assert store.append_entity("Bob", "Person", created_at="2024-01-01T00:00:00Z") == 2
    assert [sequence for sequence, _ in store.append_log()] == [1, 2, 3, 4]
    store.close()


_MEMO_OPS = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.sampled_from(["entity", "property", "read"]),
        st.sampled_from(["ada", "bo", "cy"]),
        st.lists(st.sampled_from(["x", "y"]), max_size=2, unique=True),
    ),
    max_size=12,
)


@settings(max_examples=25, deadline=None)
@given(_MEMO_OPS)
def test_remembered_rows_read_as_a_fresh_store_does(ops):
    """Entity and property rows a handle has read once, interleaved with
    appends on another handle, read as a freshly opened store reads them;
    an id the store lacks is never remembered as missing."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "db.sqlite")
        handles = [Store.open(path), Store.open(path)]
        for who, action, name, aliases in ops:
            handle = handles[who]
            if action == "entity":
                handle.append_entity(name, "Person", Role.Mentioned, aliases,
                                     created_at="2024-01-01T00:00:00Z")
            elif action == "property":
                handle.append_property(f"likes_{name}", DType.str)
            else:
                handle.entity_rows(range(1, 8))
                handle.property_rows(range(1, 5))
        fresh = Store.open(path)
        entity_ids, property_ids = range(0, 16), range(0, 6)
        for handle in handles:
            assert handle.entity_rows(entity_ids) == fresh.entity_rows(entity_ids)
            assert handle.property_rows(property_ids) == fresh.property_rows(property_ids)
            for entity_id in entity_ids:
                assert handle.entity_row(entity_id) == fresh.entity_row(entity_id)

        missing = fresh.last_ids()["entities"] + 1
        for handle in handles:
            with pytest.raises(DanglingReference):
                handle.append_event_bundle(_event(), [_fact(missing)])
        assert handles[0].append_entity("dee", "Person", aliases=["x"],
                                        created_at="2024-01-01T00:00:00Z") == missing
        # the other handle read the id as missing a moment ago
        assert handles[1].append_event_bundle(_event(), [_fact(missing)]).fact_ids
        for handle in handles:
            handle.entity_rows([missing])[missing]["aliases"].append("changed")
            handle.entity_row(missing)["aliases"].append("changed")
            assert handle.entity_row(missing) == fresh.entity_row(missing)
            assert handle.entity_row(missing)["aliases"] == ["x"]
            handle.close()
        fresh.close()


_HISTORY_OPS = st.lists(
    st.tuples(
        st.integers(0, 1),  # the handle
        st.sampled_from(["fact", "event", "read", "locked"]),
        st.integers(0, 1),  # the subject
        st.sampled_from(_PROPERTIES[:2]),  # the third is a property no one has
        st.none() | _STAMPS,  # valid_from, or the cutoff of a read
        st.sampled_from(["2024-01-02T00:00:00Z", "2024-01-02T05:00:00+05:00",
                         "2024-01-03T00:00:00Z"]),  # created_at and event anchor
        st.booleans(),  # a list value
    ),
    max_size=14,
)
_CUTOFFS = (None, "2024-01-01", "2024-01-02T03:00:00Z", "2024-01-02T02:00:00-03:00",
            "2024-01-03", "2024-01-04T22:00:00Z")


def _history_reads(store, subjects, as_of):
    return [
        (store.subject_history(subject, as_of),
         [store.fact_history(subject, prop, as_of) for prop in _PROPERTIES],
         [store.latest_fact(subject, prop, as_of) for prop in _PROPERTIES],
         store.entity_anchors(subject))
        for subject in subjects
    ]


def _scribble(reads):
    """Change every list the reads handed out, and every list value in them."""
    for by_property, histories, latest, _anchors in reads:
        for facts in [*by_property.values(), *histories, latest]:
            for fact in facts:
                if fact is not None and isinstance(fact.value, list):
                    fact.value.append("changed")
            facts.clear()
        by_property.clear()


@settings(max_examples=25, deadline=None)
@given(_HISTORY_OPS)
# a read between a refused commit and the other handle's commit of the id
# the refused one would have taken
@example([(1, "locked", 0, "favorite_color", None, "2024-01-02T00:00:00Z", False),
          (1, "read", 0, "favorite_color", None, "2024-01-02T00:00:00Z", False),
          (0, "fact", 0, "favorite_color", None, "2024-01-02T00:00:00Z", False)])
def test_kept_histories_read_as_a_fresh_store_does(ops):
    """Fact histories and event anchors a handle has read and kept,
    interleaved with appends on another handle and commits refused on a
    locked store, read as a freshly opened store and a replay of the log
    read them, at every cutoff; changing what a read handed out changes
    no later read."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "db.sqlite")
        handles = [Store.open(path), Store.open(path)]
        for handle in handles:  # a commit on the locked store fails at once
            handle._conn.execute("PRAGMA busy_timeout = 0")
        subjects = [handles[0].append_entity(name, "Person", Role.Speaker)
                    for name in ("A", "B")]
        for number, (who, action, subject, prop, valid_from, created_at,
                     listed) in enumerate(ops):
            handle, subject = handles[who], subjects[subject]
            value, dtype = ([f"v{number}", number], DType.list) if listed else (
                f"v{number}", DType.str)
            facts = [] if action == "event" else [
                Fact(None, subject, prop, value, dtype, valid_from, None, 1.0, created_at)]
            if action == "read":
                _scribble(_history_reads(handle, subjects, valid_from))
            elif action == "locked":
                other = sqlite3.connect(path, isolation_level=None)
                other.execute("BEGIN IMMEDIATE")
                with pytest.raises(IoFailure):
                    handle.append_event_bundle(_event(created_at), facts, [],
                                               [(subject, Role.Mentioned)])
                other.execute("ROLLBACK")
                other.close()
            else:
                handle.append_event_bundle(_event(created_at), facts, [],
                                           [(subject, Role.Mentioned)])
        fresh = Store.open(path)
        replica = Store.replay(fresh.append_log())
        for as_of in _CUTOFFS:
            expected = _history_reads(fresh, subjects, as_of)
            for store in [*handles, replica]:
                assert _history_reads(store, subjects, as_of) == expected
            _scribble(_history_reads(handles[0], subjects, as_of))
            assert _history_reads(handles[0], subjects, as_of) == expected
        for store in [*handles, replica, fresh]:
            store.close()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(["turn", "event", "read"]),
                          _STAMPS), max_size=12))
def test_latest_anchor_is_the_latest_of_a_full_scan(ops):
    """``max_anchor_datetime``, read by a handle between appends on it and
    on another handle of the file, is the latest of every turn and event
    anchor as an instant (of equal instants, the first as text)."""

    def full_scan(store):
        anchors = {row["anchor_datetime"]
                   for table in ("turns", "events") for row in store.all_rows(table)}
        return max(sorted(anchors), key=temporal_sort_key) if anchors else None

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "db.sqlite")
        handles = [Store.open(path), Store.open(path)]
        for number, (who, action, anchor) in enumerate(ops):
            handle = handles[who]
            if action == "turn":
                handle.append_turns([_turn(f"s{number}", anchor=anchor)])
            elif action == "event":
                handle.append_event_bundle(_event(anchor))
            else:
                assert handle.max_anchor_datetime() == full_scan(handle)
        for handle in handles:
            assert handle.max_anchor_datetime() == full_scan(handle)
            handle.close()


def test_file_backed_ingest_statements_per_turn(tmp_path):
    """A guard on the SQLite round trips of the write path: candidate rows
    are read with one statement per candidate set, not one per candidate;
    an entities or properties row is read once per store; ids come from
    memory, not from MAX(); the index reads only kinds with new rows; a
    batch of turns is checked for duplicates in one statement, and its
    texts are not read back."""
    corpus = load_gen().make_corpus(1, 8, 3, 6, tag="file")
    store = Store.open(str(tmp_path / "db.sqlite"))
    statements = []
    store._conn.set_trace_callback(statements.append)
    _ingest(store, VectorIndex(), corpus_sessions(corpus))
    store._conn.set_trace_callback(None)
    assert corpus.n_turns == 120
    assert len(statements) / corpus.n_turns <= 17
    assert [sql for sql in statements if "MAX(" in sql.upper()] == []
    store.close()


def test_a_file_backed_session_commits_once(tmp_path):
    """A 6-turn session is one write transaction: one BEGIN IMMEDIATE, one
    COMMIT and a savepoint per append. The ids are synced once, as soon as
    the write lock is held, and no append reads data_version."""
    path = str(tmp_path / "db.sqlite")
    corpus = load_gen().make_corpus(1, 8, 3, 6, tag="file")
    first, second = corpus_sessions(corpus)[:2]
    assert len(second) == 6
    # another handle commits first, so the session must sync its ids
    other = Store.open(path)
    _ingest(other, VectorIndex(), [first])
    store = Store.open(path)
    _ingest(other, VectorIndex(), [[_turn("elsewhere", 0)]])
    statements = []
    store._conn.set_trace_callback(statements.append)
    _ingest(store, VectorIndex(), [second])
    store._conn.set_trace_callback(None)
    transactions = [sql for sql in statements if sql.startswith(("BEGIN", "COMMIT"))]
    assert transactions == ["BEGIN IMMEDIATE", "COMMIT"]
    begun = statements.index("BEGIN IMMEDIATE")
    assert statements[begun + 1] == "PRAGMA data_version"
    first_append = statements.index("SAVEPOINT append")
    assert not any("data_version" in sql for sql in statements[first_append:])
    assert statements.count("SAVEPOINT append") == statements.count("RELEASE append") > 6
    log = store.append_log()
    assert [sequence for sequence, _ in log] == list(range(1, len(log) + 1))
    assert other.last_ids() == store.last_ids()
    other.close()
    store.close()


class _FailingCommit:
    """A connection whose COMMIT statement fails; all else goes through."""

    def __init__(self, conn, seen):
        self._conn = conn
        self._seen = seen

    def execute(self, sql, *args):
        if sql == "COMMIT":
            self._seen()
            raise sqlite3.OperationalError("disk I/O error")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _session_of(session_id, speaker, color, band, day):
    return [
        Turn(None, session_id, speaker, "Assistant", f"My favorite color is {color}.",
             f"2024-02-{day:02d}T10:00:00Z", 0),
        Turn(None, session_id, speaker, "Assistant", f"I love {band}!",
             f"2024-02-{day:02d}T10:05:00Z", 1),
    ]


_FIRST_SESSION = [_turn("s1", 0, "I love Italian Garden! Their pasta is good.")]
_SECOND_SESSION = _session_of("s2", "Bob", "ultramarine", "Zanzibar Quartet", 1)


def _sidecar_records(path):
    with open(path, "rb") as handle:
        return [json.loads(line) for line in handle]


def test_a_failed_session_commit_keeps_nothing_of_the_session(tmp_path):
    """When the session's COMMIT fails, the store and the sidecar keep what
    they held before it and the index serves no row of it; the same handles
    then ingest another session, which gets the ids the failed one had and
    reads as a freshly opened store does."""
    path = str(tmp_path / "db.sqlite")
    store = Store.open(path)
    index = VectorIndex(path=VectorIndex.sidecar_path(path))
    _ingest(store, index, [_FIRST_SESSION])
    before, committed = store.canonical_dump(), store.last_ids()
    sidecar = open(index.path, "rb").read()

    failed_ids = []
    real = store._conn
    store._conn = _FailingCommit(real, lambda: failed_ids.append(dict(store._last_ids)))
    with pytest.raises(IoFailure, match=re.escape(path)):
        ingest_session(store, index, *reference_pipeline(), _SECOND_SESSION)
    store._conn = real
    assert failed_ids and failed_ids[0]["entities"] > committed["entities"]

    assert store.last_ids() == committed
    assert store.canonical_dump() == before
    reopened = Store.open(path, create_if_missing=False)
    assert reopened.canonical_dump() == before
    reopened.close()
    assert open(index.path, "rb").read() == sidecar
    table = {kind: text[0] for kind, text in apexmem.store.SEARCH_TEXT.items()}
    for record in _sidecar_records(index.path):
        assert record["doc_id"] <= committed[table[record["kind"]]]
    assert all(doc_id <= committed[table[kind]] for kind, doc_id in index.entries)
    text = search(store, index, "Bob ultramarine Zanzibar Quartet", k=10).text
    assert "ultramarine" not in text and "Zanzibar" not in text

    other = _session_of("s3", "Carol", "vermilion", "Yodel Brass", 2)
    _ingest(store, index, [other])
    assert store.last_ids() == failed_ids[0]
    text = search(store, index, "Carol vermilion Yodel Brass", k=10).text
    assert "Yodel Brass" in text and "Zanzibar" not in text
    fresh = Store.open(path, create_if_missing=False)
    ids = range(1, failed_ids[0]["entities"] + 1)
    assert store.entity_rows(ids) == fresh.entity_rows(ids)
    assert store.property_rows(range(1, 5)) == fresh.property_rows(range(1, 5))
    assert [store.subject_history(i) for i in ids] == [fresh.subject_history(i) for i in ids]
    assert len(_sidecar_records(index.path)) == len(index.entries)
    fresh.close()
    store.close()


def test_a_session_on_a_locked_store_fails_before_any_write(tmp_path):
    """A session that cannot take the write lock raises IoFailure naming
    the store, and leaves its ids and kept rows as they were."""
    path = str(tmp_path / "db.sqlite")
    store = Store.open(path)
    index = VectorIndex()
    _ingest(store, index, [[_turn("s1", 0, "I love Italian Garden! Their pasta is good.")]])
    store.entity_rows(range(1, 4))
    kept = (dict(store._last_ids), dict(store._entity_memo), dict(store._property_memo),
            dict(store._batch_texts))
    before = store.canonical_dump()
    store._conn.execute("PRAGMA busy_timeout = 50")
    other = sqlite3.connect(path, isolation_level=None)
    other.execute("BEGIN IMMEDIATE")
    statements = []
    store._conn.set_trace_callback(statements.append)
    with pytest.raises(IoFailure) as caught:
        ingest_session(store, index, *reference_pipeline(), _SECOND_SESSION)
    store._conn.set_trace_callback(None)
    assert f"store {path} is locked" in str(caught.value)
    assert not any(sql.startswith(("INSERT", "SAVEPOINT")) for sql in statements)
    assert (dict(store._last_ids), dict(store._entity_memo), dict(store._property_memo),
            dict(store._batch_texts)) == kept
    other.execute("ROLLBACK")
    other.close()
    assert store.canonical_dump() == before
    assert all(o.ok for o in ingest_session(store, index, *reference_pipeline(),
                                             _SECOND_SESSION))
    store.close()


def test_a_failed_append_in_a_session_rolls_back_only_itself(tmp_path, monkeypatch):
    """An append that fails inside a session fails its turn alone; the other
    turns commit, with ids and log sequences that leave no gap."""
    path = str(tmp_path / "db.sqlite")
    store = Store.open(path)
    write = Store._write
    failed = []

    def failing_write(self, sequence, payload):
        if payload["op"] == "event_bundle" and not failed:
            failed.append(sequence)
            write(self, sequence, payload)  # the batch is written, then fails
            raise sqlite3.OperationalError("injected write failure")
        write(self, sequence, payload)

    monkeypatch.setattr(Store, "_write", failing_write)
    outcomes = ingest_session(store, VectorIndex(), *reference_pipeline(), _SECOND_SESSION)
    monkeypatch.undo()
    assert [outcome.ok for outcome in outcomes] == [False, True]
    assert outcomes[0].error == "injected write failure"
    assert outcomes[1].committed.event_id == 1
    reopened = Store.open(path, create_if_missing=False)
    assert reopened.row_counts()["events"] == 1
    assert [sequence for sequence, _ in reopened.append_log()] == list(
        range(1, store.sequence + 1))
    assert reopened.canonical_dump() == store.canonical_dump()
    reopened.close()
    store.close()


def test_only_the_store_touches_its_connection_and_private_members():
    """Every other module of the package reads the store through its public
    methods, so the schema and the connection rule live in store.py."""
    store = Store.open(":memory:")
    members = {*vars(Store), *vars(store)}
    store.close()
    private = {name for name in members if name.startswith("_") and not name.startswith("__")}
    package = os.path.dirname(os.path.abspath(apexmem.store.__file__))
    touched = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py") or filename == "store.py":
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename)
        touched.extend(
            f"{filename}:{node.lineno}: .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in private
        )
    assert "_conn" in private
    assert touched == []
