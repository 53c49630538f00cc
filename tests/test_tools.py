import gc
import hashlib
import json
import os
import re
import sys
import tempfile
import weakref
from collections import Counter
from datetime import date

import pytest
from hypothesis import example, given, settings, strategies as st

from apexmem import tools
from apexmem.extract import ingest_session
from apexmem.index import KINDS, VectorIndex, hybrid_search, upsert_embeddings
from apexmem.ontology import DType, Event, Fact, Role, Turn
from apexmem.sqlguard import SqlValidationReport
from apexmem.store import WHITELISTED_TABLES, Store, _Authorizer
from apexmem.tools import (
    _arg_error,
    CHAR_CAP,
    ROW_CAP,
    TOOL_ARG_SCHEMAS,
    TOOL_NAMES,
    ToolCall,
    ToolKit,
    build_entity_document,
    entity_lookup,
    ToolResult,
    graph_sql,
    property_search,
    read_latest_values,
    render_markdown_table,
    schema_viewer,
    search,
)
import as_of_oracle as oracle
from conftest import (
    AS_OF_DAYS,
    AS_OF_OPS,
    corpus_sessions,
    fixture_path,
    ingest_case1,
    load_gen,
    reference_pipeline,
    write_as_of_ops,
)


@pytest.fixture
def toolkit(store, index):
    ingest_case1(store, index)
    return ToolKit(store, index)


def test_tool_names_and_schemas_agree():
    assert set(TOOL_NAMES) == set(TOOL_ARG_SCHEMAS)


SCHEMA_TEXT = """\
Tables
------
- entities(entity_id, entity_name, entity_type, role, aliases_json, external_id, created_at)
- properties(property_id, property_name, dtype, description, created_at)
- facts(id, subject_id, property_name, value_json, dtype, valid_from, valid_to, confidence, created_at)
- events(id, event_type, anchor_datetime, location, created_at)
- evidence(id, fact_id, event_id, turn_id, span_start, span_end, quoted_text)
- event_participants(event_id, entity_id, role)
- turns(id, session_id, ordinal, speaker, listener, text, anchor_datetime)"""


def test_schema_viewer_text_is_pinned():
    assert schema_viewer().text == SCHEMA_TEXT


def test_schema_viewer_lists_tables_in_whitelist_order():
    listed = [line[2:line.index("(")] for line in schema_viewer().text.split("\n")
              if line.startswith("- ")]
    assert listed == list(WHITELISTED_TABLES)


def test_schema_viewer_lists_tables_and_examples():
    result = schema_viewer(include_examples=True, include_guide=True)
    assert result.ok
    for table in ("entities", "facts", "events", "evidence",
                  "event_participants", "properties", "turns"):
        assert table in result.text
    assert "AGGREGATE" in result.text


def test_render_markdown_table_escapes_pipes():
    text = render_markdown_table(["col"], [["a|b"]])
    assert "a\\|b" in text


def test_entity_lookup_returns_latest_values(toolkit):
    result = toolkit.dispatch(ToolCall("entity_lookup", {"query": "Alice"}))
    assert result.ok
    assert "favorite_restaurant" in result.text
    assert "Sakura Sushi" in result.text


def test_entity_document_includes_history(store, index):
    ingest_case1(store, index)
    alice = store.find_entity_by_name("Alice")
    document = build_entity_document(store, alice["entity_id"])
    history = document.split("Full fact history:")[1]
    assert "Italian Garden" in history and "Sakura Sushi" in history


def test_graph_sql_happy_path(toolkit):
    result = toolkit.dispatch(ToolCall("graph_sql", {
        "sql": "SELECT entity_name FROM entities ORDER BY entity_id",
    }))
    assert result.ok
    assert "Alice" in result.text


def test_graph_sql_rejection_is_in_band(toolkit):
    result = toolkit.dispatch(ToolCall("graph_sql", {"sql": "DELETE FROM facts"}))
    assert not result.ok
    assert "SqlRejected" in result.error


def test_graph_sql_runtime_error_is_in_band(toolkit):
    result = toolkit.dispatch(ToolCall("graph_sql", {
        "sql": "SELECT no_such_column FROM facts",
    }))
    assert not result.ok
    assert "SqlRuntimeError" in result.error


def test_graph_sql_missing_param_is_in_band(toolkit, store, monkeypatch):
    # the parameters are checked before the connection is taken, so the
    # authorizer is installed only for a statement that runs
    monkeypatch.setattr(store, "readonly_connection",
                        lambda: pytest.fail("connection taken"))
    result = toolkit.dispatch(ToolCall("graph_sql", {
        "sql": "SELECT * FROM facts WHERE valid_from <= :question_date",
    }))
    assert not result.ok
    assert result.error == "SqlRuntimeError: missing named parameter(s): question_date"


def test_graph_sql_binds_default_params(toolkit):
    result = toolkit.dispatch(
        ToolCall("graph_sql", {
            "sql": "SELECT date(:question_date) AS d",
        }),
        default_params={"question_date": "2024-04-01"},
    )
    assert result.ok
    assert "2024-04-01" in result.text


def test_the_guides_as_of_filter_hides_a_fact_stated_later(toolkit):
    """Case 1 states on 2024-03-20 that Italian Garden closed on 2024-02-01:
    asked at 2024-02-01, the guide's filter and its TEMPORAL example find no
    closure_date row, while the valid_from half alone finds one. The guide,
    the example and the GraphSQL fixtures spell the rule as one fragment."""
    guide = " ".join(schema_viewer(include_guide=True).text.split())
    assert tools.AS_OF_FACTS in guide and tools.AS_OF_FACTS in tools._EXAMPLE_QUERIES["TEMPORAL"]
    for name in ("graphsql_policy.json", "graphsql_repeat_policy.json"):
        with open(fixture_path(name)) as handle:
            lookups = [step["args"]["sql"] for step in json.load(handle)
                       if "question_date" in step.get("args", {}).get("sql", "")]
        assert lookups and all(tools.AS_OF_FACTS in sql for sql in lookups)
    valid = "(f.valid_from IS NULL OR date(f.valid_from) <= date(:question_date))"
    assert tools.AS_OF_FACTS.startswith(valid + " AND ")

    def closure_rows(as_of, question_date):
        result = toolkit.dispatch(
            ToolCall("graph_sql", {"sql": (
                "SELECT value_json FROM facts f WHERE subject_id = (SELECT entity_id"
                " FROM entities WHERE entity_name = 'Italian Garden')"
                f" AND property_name = 'closure_date' AND {as_of}")}),
            default_params={"question_date": question_date})
        assert result.ok, result.error
        return result.text.count('"2024-02-01"')

    assert closure_rows(tools.AS_OF_FACTS, "2024-02-01") == 0
    assert closure_rows(tools.AS_OF_FACTS, "2024-04-01") == 1
    assert closure_rows(valid, "2024-02-01") == 1

    # the TEMPORAL example applies the same rule
    garden = toolkit.store.find_entity_by_name("Italian Garden")["entity_id"]
    params = {"user_id": garden, "property_id": "closure_date"}
    for question_date, rows in (("2024-02-01", 0), ("2024-04-01", 1)):
        result = graph_sql(toolkit.store, tools._EXAMPLE_QUERIES["TEMPORAL"],
                           {**params, "question_date": question_date})
        assert result.ok and result.text.count('"2024-02-01"') == rows, result.text


def test_graph_sql_row_cap(store, index):
    subject = store.append_entity("Alice", "Person", Role.Speaker, [],
                                  created_at="2024-01-01T00:00:00Z")
    facts = [
        Fact(None, subject, "counter", i, DType.int, "2024-01-01", None, 1.0,
             "2024-01-01T00:00:00Z")
        for i in range(ROW_CAP + 50)
    ]
    store.append_event_bundle(
        Event(None, "conversation", "2024-01-01T00:00:00Z"), facts, [], []
    )
    result = graph_sql(store, "SELECT id FROM facts")
    assert result.ok
    assert "truncated" in result.text
    assert result.text.count("\n") <= ROW_CAP + 5
    assert len(result.text) <= CHAR_CAP + 100


def test_graph_sql_sees_rows_committed_after_a_truncated_result(tmp_path):
    """A result cut at ROW_CAP leaves its statement unfinished; the store's
    one reader must still see the commits that follow."""
    store = Store.open(str(tmp_path / "db.sqlite"))
    store.append_turns(
        Turn(None, "s0", "Alice", "Assistant", f"note {i}", "2024-01-01T00:00:00Z", i)
        for i in range(ROW_CAP + 50)
    )
    first = graph_sql(store, "SELECT id FROM turns")
    assert first.ok and "truncated" in first.text
    session = [Turn(None, "s1", "Alice", "Assistant", "My favorite color is blue.",
                    "2024-01-02T10:00:00Z", 0)]
    for outcome in ingest_session(store, VectorIndex(), *reference_pipeline(), session):
        assert outcome.ok, outcome.error
    second = graph_sql(store, "SELECT COUNT(*) AS n FROM turns")
    assert second.ok
    assert second.text.split("\n")[2] == f"| {ROW_CAP + 51} |"
    facts = graph_sql(store, "SELECT COUNT(*) AS n FROM facts")
    assert facts.text.split("\n")[2] == "| 1 |"
    store.close()


def test_graph_sql_leaves_store_untouched(toolkit, store):
    before = store.canonical_dump()
    toolkit.dispatch(ToolCall("graph_sql", {"sql": "SELECT * FROM facts"}))
    toolkit.dispatch(ToolCall("graph_sql", {"sql": "DELETE FROM facts"}))
    assert store.canonical_dump() == before


_LOG_READ = "SELECT sequence, payload FROM append_log ORDER BY sequence"


@pytest.mark.parametrize("on_disk", [False, True])
def test_authorizer_holds_without_the_validator(tmp_path, monkeypatch, on_disk):
    """Layer 3 on its own: with the validator accepting everything, GraphSQL
    still cannot read a table outside the whitelist or write, even right
    after the store prepared the same text on the same connection, and on a
    reader opened again after its caller closed it."""
    store = Store.open(str(tmp_path / "db.sqlite") if on_disk else ":memory:")
    ingest_case1(store, VectorIndex())
    monkeypatch.setattr(tools, "validate_sql",
                        lambda statement: SqlValidationReport("select", frozenset(), frozenset(), True))

    def refused():
        before = store.canonical_dump()
        for statement in (_LOG_READ, "SELECT * FROM meta",
                          "INSERT INTO meta (key, value) VALUES ('k', 'v')"):
            result = graph_sql(store, statement)
            assert not result.ok, statement
            assert re.search(r"^SqlRuntimeError: .*(prohibited|not authorized)",
                             result.error), result.error
        assert store.canonical_dump() == before

    assert store.append_log()  # the writer prepares _LOG_READ unguarded
    store.readonly_connection().execute(_LOG_READ).fetchall()  # and so may a reader
    refused()
    # outside GraphSQL's window the store reads as it did
    assert len(store.append_log()) == len(store.readonly_connection().execute(
        _LOG_READ).fetchall()) > 0
    refused()
    if on_disk:
        store.readonly_connection().close()
        refused()
    assert graph_sql(store, "SELECT COUNT(*) FROM entities").ok
    store.close()


def test_memory_store_commits_after_failed_and_truncated_graph_sql(store):
    """On ``:memory:`` GraphSQL runs on the writer; neither a runtime error
    nor a result cut at ROW_CAP may leave a statement open that blocks the
    next commit."""
    store.append_turns(
        Turn(None, "s0", "Alice", "Assistant", f"note {i}", "2024-01-01T00:00:00Z", i)
        for i in range(ROW_CAP + 5)
    )
    failed = graph_sql(store, "SELECT no_such_column FROM turns")
    assert not failed.ok and failed.error.startswith("SqlRuntimeError")
    assert store.append_entity("Alice", "Person", created_at="2024-01-01T00:00:00Z") == 1
    truncated = graph_sql(store, "SELECT id FROM turns")
    assert truncated.ok and "truncated" in truncated.text
    assert store.append_entity("Bob", "Person", created_at="2024-01-01T00:00:00Z") == 2
    count = graph_sql(store, "SELECT COUNT(*) AS n FROM entities")
    assert count.text.split("\n")[2] == "| 2 |"


def test_a_store_read_after_graph_sql_is_not_prepared_again(case1_store, monkeypatch):
    """The authorizer is installed once, so GraphSQL does not expire the
    statements the store prepared on the same connection: a read repeated
    between GraphSQL calls runs from the statement cache, without the
    callback."""
    store = case1_store
    alice = store.find_entity_by_name("Alice")["entity_id"]
    calls = []
    original = _Authorizer.__call__

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(_Authorizer, "__call__", counting)
    lookup = "SELECT entity_name FROM entities WHERE entity_id = :id"
    assert graph_sql(store, lookup, {"id": alice}).ok
    assert calls  # the statement was authorized when it was prepared
    # property_usage runs its statement on every call; the store keeps a
    # subject's history, so subject_history would run none the second time
    usage = store.property_usage(["favorite_restaurant"])
    assert graph_sql(store, lookup, {"id": alice}).ok
    calls.clear()
    assert store.property_usage(["favorite_restaurant"]) == usage
    assert calls == []


def test_search_sections(toolkit):
    result = toolkit.dispatch(ToolCall("search", {"query": "sushi restaurant"}))
    assert result.ok
    assert "Entities" in result.text
    assert "Sakura Sushi" in result.text


def test_property_search(toolkit):
    result = toolkit.dispatch(ToolCall("property_search", {"query": "restaurant"}))
    assert result.ok
    assert "favorite_restaurant" in result.text


CASE1_SEARCH_TEXT = """\
Entities:
| id | name | type | score |
| --- | --- | --- | --- |
| ent:1 | Alice | Person | 1.0000 |
| ent:2 | Assistant | Person | 0.3066 |
| ent:4 | Sakura Sushi | Place | 0.1160 |
| ent:3 | Italian Garden | Place | 0.0000 |

Properties:
| property_name | dtype | score |
| --- | --- | --- |
| favorite_restaurant | str | 1.0000 |
| closure_date | date | 0.0000 |

Events and evidence:
| kind | id | summary | score |
| --- | --- | --- | --- |
| event | 1 | conversation @ 2024-01-15T10:00:00Z | 1.0000 |
| event | 2 | conversation @ 2024-03-20T10:00:00Z | 1.0000 |
| evidence | 2 | I go to Sakura Sushi every week | 1.0000 |
| evidence | 1 | I love Italian Garden | 0.6416 |
| evidence | 3 | Italian Garden closed down last month | 0.5000 |

Turns:
| id | speaker | text | anchor_datetime | score |
| --- | --- | --- | --- | --- |
| 2 | Alice | Italian Garden closed down last month. Now I go to Sakura Sushi every week instead. | 2024-03-20T10:00:00Z | 1.0000 |
| 1 | Alice | I love Italian Garden! Their pasta is the best in town. | 2024-01-15T10:00:00Z | 0.5000 |"""

CASE1_PROPERTY_SEARCH_TEXT = """\
| property_name | dtype | usage_count | score |
| --- | --- | --- | --- |
| favorite_restaurant | str | 2 | 1.0000 |
| closure_date | date | 1 | 0.0000 |"""


def test_search_and_property_search_text_is_pinned(toolkit):
    assert toolkit.dispatch(ToolCall("search", {"query": "Alice restaurant"})) == ToolResult(
        ok=True, text=CASE1_SEARCH_TEXT)
    assert toolkit.dispatch(ToolCall("property_search", {"query": "restaurant"})) == ToolResult(
        ok=True, text=CASE1_PROPERTY_SEARCH_TEXT)


CASE1_SEARCH_TEXT_ON_FEB_1 = """\
Entities:
| id | name | type | score |
| --- | --- | --- | --- |
| ent:1 | Alice | Person | 1.0000 |
| ent:2 | Assistant | Person | 0.3066 |
| ent:3 | Italian Garden | Place | 0.0000 |

Properties:
| property_name | dtype | score |
| --- | --- | --- |
| favorite_restaurant | str | 1.0000 |

Events and evidence:
| kind | id | summary | score |
| --- | --- | --- | --- |
| event | 1 | conversation @ 2024-01-15T10:00:00Z | 1.0000 |
| evidence | 1 | I love Italian Garden | 1.0000 |

Turns:
| id | speaker | text | anchor_datetime | score |
| --- | --- | --- | --- | --- |
| 1 | Alice | I love Italian Garden! Their pasta is the best in town. | 2024-01-15T10:00:00Z | 1.0000 |"""


def test_every_tool_reads_case1_as_known_at_the_question_date(toolkit):
    """Asked at 2024-02-01, before the session of 2024-03-20, no tool shows
    a row that session stored: not Sakura Sushi, its event, turn and
    evidence, nor the closure_date property and fact; asked at 2024-04-01,
    every row is shown as without a question date."""
    def dispatch(tool, args, day):
        return toolkit.dispatch(ToolCall(tool, args), {"question_date": day})

    assert dispatch("search", {"query": "Alice restaurant"}, "2024-02-01") == ToolResult(
        ok=True, text=CASE1_SEARCH_TEXT_ON_FEB_1)
    assert dispatch("property_search", {"query": "restaurant"}, "2024-02-01").text == (
        "| property_name | dtype | usage_count | score |\n| --- | --- | --- | --- |\n"
        "| favorite_restaurant | str | 1 | 1.0000 |")
    lookup = dispatch("entity_lookup", {"query": "Italian Garden"}, "2024-02-01").text
    assert "closure_date" not in lookup and "2024-03-20" not in lookup
    assert "Sakura Sushi" not in lookup
    assert dispatch("search", {"query": "Alice restaurant"}, "2024-04-01") == ToolResult(
        ok=True, text=CASE1_SEARCH_TEXT)
    assert dispatch("property_search", {"query": "restaurant"}, "2024-04-01") == ToolResult(
        ok=True, text=CASE1_PROPERTY_SEARCH_TEXT)
    assert dispatch("entity_lookup", {"query": "Italian Garden"}, "2024-04-01") == (
        toolkit.dispatch(ToolCall("entity_lookup", {"query": "Italian Garden"})))


_AS_OF_QUERY = "note Ann Lee favorite color hometown conversation"


@settings(max_examples=25, deadline=None)
@given(AS_OF_OPS, st.lists(AS_OF_DAYS, min_size=1, max_size=3, unique=True))
def test_no_tool_shows_a_row_unknown_at_the_question_date(ops, days):
    """Each of the five tools, dispatched with a question date, shows only
    rows known then, as the oracle finds them: search and entity_lookup
    read as the oracle's, property_search counts its facts, and GraphSQL
    filtered by ``AS_OF_FACTS`` picks the facts ``Store.fact_history``
    keeps. What they show grows with the question date, and does not change
    when every stored stamp is written in another UTC offset."""
    kits = []
    for rewrite in range(2):
        store, index = Store.open(":memory:"), VectorIndex()
        write_as_of_ops(store, ops, rewrite)
        upsert_embeddings(store, index)
        kits.append(ToolKit(store, index))
    earlier = set()
    for day in sorted(days):
        named = {"question_date": day}
        shown = []
        for kit in kits:
            store, index = kit.store, kit.index
            known = oracle.known_ids(store, day)
            in_force = [fact["id"] for fact in oracle.facts_in_force(store, day)]
            assert kit.dispatch(ToolCall("schema_viewer", {"include_examples": True}),
                                named) == schema_viewer(include_examples=True)
            found = kit.dispatch(ToolCall("search", {"query": _AS_OF_QUERY, "k": 40}), named)
            assert found.text == oracle.search_text(store, index, _AS_OF_QUERY, 40, day)
            hits = hybrid_search(store, index, KINDS, _AS_OF_QUERY, 40, day)
            # k is above every row's count, so every known row is a hit
            assert {(kind, doc_id) for doc_id, kind, _score in hits} == {
                (kind, doc_id) for kind, ids in known.items() for doc_id in ids}
            looked_up = kit.dispatch(ToolCall("entity_lookup", {"query": "Ann Ben Cal Lee"}),
                                     named)
            assert looked_up.text == oracle.lookup(store, index, "Ann Ben Cal Lee", 5, day)
            values = {row[3] for row in read_latest_values(looked_up.text)}
            assert values <= {json.loads(fact["value_json"])
                              for fact in oracle.facts_in_force(store, day)}
            properties = kit.dispatch(ToolCall("property_search", {"query": "favorite hometown"}),
                                      named)
            rows = [row.split(" | ") for row in properties.text.split("\n")[2:]]
            usage = {cells[0].strip("| "): int(cells[2]) for cells in rows}
            names = {row["property_name"] for row in oracle.known_rows(store, day)["properties"]}
            assert set(usage) == names
            assert usage == oracle.usage(store, names, day)
            sql = kit.dispatch(ToolCall("graph_sql", {
                "sql": f"SELECT f.id FROM facts f WHERE {tools.AS_OF_FACTS} ORDER BY f.id"}), named)
            picked = [int(row.strip("| ")) for row in sql.text.split("\n")[2:]]
            by_rule = [fact.id for row in store.all_rows("entities") for facts in
                       store.subject_history(row["entity_id"], day).values() for fact in facts]
            assert picked == sorted(in_force) == sorted(by_rule)
            shown.append((sorted((kind, doc_id, score) for doc_id, kind, score in hits),
                          properties.text, picked,
                          [row[:4] for row in read_latest_values(looked_up.text)]))
        assert shown[0] == shown[1]
        hit_ids = {(kind, doc_id) for kind, doc_id, _score in shown[0][0]}
        assert earlier <= hit_ids
        earlier = hit_ids
    for kit in kits:
        kit.store.close()


def test_search_leaves_out_hits_the_store_lacks(toolkit, index):
    """An index can hold ids its store lacks, as when a vector sidecar
    outlives its store file: both searches answer in-band without them."""
    for kind in KINDS:
        assert index.upsert(kind, 9001, "Sakura Sushi favorite restaurant")
    for tool in ("search", "property_search"):
        result = toolkit.dispatch(ToolCall(tool, {"query": "Sakura Sushi favorite restaurant"}))
        assert result.ok, result.error
        assert "9001" not in result.text
        assert "favorite_restaurant" in result.text


def test_search_reads_one_row_per_hit():
    """On a store shaped like the benchmark's ``qa_mem``, ``search`` at k=5
    issues one point read per listed hit plus one read of new rows per index
    kind (23 statements: that store has 3 properties), and property_search
    one read of names and one of usage counts."""
    store = Store.open(":memory:")
    index = VectorIndex()
    corpus = load_gen().make_corpus(1, 40, 3, 8, tag="qa")
    for session in corpus_sessions(corpus):
        for outcome in ingest_session(store, index, *reference_pipeline(), session):
            assert outcome.ok, outcome.error
    statements = []
    store._conn.set_trace_callback(statements.append)
    for text in sorted(corpus.text_counts)[::25]:
        statements.clear()
        assert search(store, index, text, 5).ok
        assert len(statements) <= 23
        statements.clear()
        assert property_search(store, index, text, 5).ok
        assert len(statements) <= 3
    store._conn.set_trace_callback(None)
    store.close()


def test_dispatch_validates_args(toolkit):
    bad = toolkit.dispatch(ToolCall("entity_lookup", {"nope": 1}))
    assert not bad.ok
    unknown = toolkit.dispatch(ToolCall("time_travel", {}))
    assert not unknown.ok


@pytest.mark.parametrize("args, error", [
    ({"query": "x", "k": True}, "True is not of type 'integer'"),
    ({"query": "x", "k": 0}, "0 is less than the minimum of 1"),
    ({"query": 3}, "3 is not of type 'string'"),
    ({"k": 2}, "'query' is a required property"),
    ({"query": "x", "depth": 2}, "'depth' unexpected"),
    (["query"], "is not of type 'object'"),
])
def test_dispatch_rejects_bad_args_in_band(toolkit, args, error):
    result = toolkit.dispatch(ToolCall("search", args))
    assert not result.ok
    assert result.error.startswith("invalid arguments for search: ")
    assert error in result.error


def test_dispatch_accepts_integral_float_k(toolkit):
    """JSON Schema integers include 1.0, as jsonschema accepts it."""
    assert toolkit.dispatch(ToolCall("search", {"query": "sushi", "k": 2.0})).ok
    assert not toolkit.dispatch(ToolCall("search", {"query": "sushi", "k": 2.5})).ok


_ARG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([1.0, 0.0, 2.5, -1.0]),
    st.floats(allow_nan=True), st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.integers(), max_size=2),
)
_ARG_KEYS = st.sampled_from(
    ["query", "k", "sql", "params", "include_examples", "include_guide", "extra"]
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(TOOL_NAMES),
       st.one_of(st.dictionaries(_ARG_KEYS, _ARG_VALUES, max_size=4), _ARG_VALUES))
def test_arg_checker_agrees_with_jsonschema(tool, args):
    jsonschema = pytest.importorskip("jsonschema")
    schema = TOOL_ARG_SCHEMAS[tool]
    valid = jsonschema.Draft202012Validator(schema).is_valid(args)
    assert (_arg_error(tool, args) is None) == valid


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers() | st.sampled_from([10**30, -(10**30), 2**63, 1e300, 2.5, 0.5])
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
_SQL = st.sampled_from([
    "SELECT :v AS v",
    "SELECT entity_name FROM entities WHERE entity_id = :id",
    "SELECT * FROM facts WHERE valid_from <= :question_date",
    "DELETE FROM facts",
]) | st.text(max_size=12)
_CALL_ARGS = st.fixed_dictionaries({}, optional={
    "query": st.text(max_size=12) | _JSON,
    "k": st.integers(-2, 10) | st.sampled_from([10**30, 2**63, 1e300, 2.0, 2.5]) | _JSON,
    "sql": _SQL | _JSON,
    "params": st.dictionaries(st.sampled_from(["v", "id", "question_date", "x"]),
                              _JSON, max_size=3) | _JSON,
    "include_examples": st.booleans() | _JSON,
    "include_guide": st.booleans() | _JSON,
    "extra": _JSON,
})


def test_dispatch_answers_every_json_call_in_band(case1_store, index):
    """Any JSON-shaped call, whatever its tool name, argument types, nested
    parameters or size of ``k``, is answered with a ToolResult. The run's
    named parameters come from the program, so they are well formed."""
    kit = ToolKit(case1_store, index)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(TOOL_NAMES) | st.text(max_size=8), _CALL_ARGS | _JSON,
           st.sampled_from([None, {}, {"question_date": "2024-02-01"},
                            {"question_date": "2024-04-01", "range_start": "2024-03-01",
                             "range_end": "2024-03-31"}]))
    # an integer SQLite cannot hold, bound as a GraphSQL parameter
    @example("graph_sql", {"sql": "SELECT :v AS v", "params": {"v": 10**30}}, None)
    def check(tool, args, default_params):
        result = kit.dispatch(ToolCall(tool, args), default_params)
        assert isinstance(result, ToolResult)

    check()


def test_search_reads_each_row_once(monkeypatch):
    """Searches interleaved with ingests read each committed row of each
    kind once, however many searches follow it: retrieval cost does not
    grow with the history."""
    reads = []
    searching = False
    original = Store.lexical_documents

    def counting(self, kind, after_id=0):
        rows = original(self, kind, after_id)
        if searching:
            reads.extend((kind, doc_id) for doc_id, _ in rows)
        return rows

    monkeypatch.setattr(Store, "lexical_documents", counting)
    store = Store.open(":memory:")
    index = VectorIndex()
    places = ["Italian Garden", "Sakura Sushi", "Blue Lagoon", "Red Fort", "Green Leaf"]
    speakers = ["Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace"]
    for i in range(30):
        turn = Turn(None, f"s{i}", speakers[i % 7], "Assistant",
                    f"I love {places[i % 5]}! I go there every week.",
                    f"2024-01-{i % 28 + 1:02d}T10:00:00Z", 0)
        for outcome in ingest_session(store, index, *reference_pipeline(), [turn]):
            assert outcome.ok, outcome.error
        searching = True
        assert search(store, index, places[(i * 3) % 5]).ok
        searching = False
    counts = Counter(reads)
    assert max(counts.values()) == 1
    committed = {(kind, doc_id) for kind in KINDS
                 for doc_id, _ in original(store, kind)}
    assert set(counts) == committed
    store.close()


def test_arg_schemas_are_json_serializable():
    json.dumps(TOOL_ARG_SCHEMAS)


def test_arg_schemas_keep_their_bytes():
    """The schemas plugin policies are sent are built from the tool table;
    these are their bytes as they were written out by hand."""
    wire = json.dumps(TOOL_ARG_SCHEMAS).encode()
    assert len(wire) == 844
    assert hashlib.sha256(wire).hexdigest() == (
        "effb6a9a1385f9753aceed0351f64075de94f21dc183eb9cbe06f1e3e5f39807")


_TEXT = st.text(st.sampled_from(list("ab |\\\"'\n\té雪—()")), max_size=12)
_VALUES = st.one_of(
    st.tuples(st.just(DType.str), _TEXT),
    st.tuples(st.just(DType.bool), st.booleans()),
    st.tuples(st.just(DType.int), st.integers()),
    st.tuples(st.just(DType.float), st.floats(allow_nan=False, allow_infinity=False)),
    st.tuples(st.just(DType.date), st.dates()),
)
_ENTITY_NAMES = st.text(st.sampled_from(list("ab (é)—|")), min_size=1, max_size=10).filter(
    lambda name: name.strip())


def _latest_line(prop, value, valid_from):
    """A "Latest property values" row as build_entity_document renders it."""
    return render_markdown_table(["property", "value", "valid_from"],
                                 [[prop, json.dumps(value), valid_from]]).split("\n")[2]


@settings(max_examples=60, deadline=None)
@given(
    entities=st.lists(
        st.tuples(_ENTITY_NAMES, st.lists(
            st.tuples(st.sampled_from(["favorite_color", "shoe_size", "hometown"]),
                      _VALUES, st.none() | st.sampled_from(["2024-01-02", "2024-01-09"])),
            max_size=5)),
        min_size=1, max_size=3),
)
def test_read_latest_values_returns_the_rendered_latest_rows(entities):
    """The reader inverts the "Latest property values" table, and a text cut
    inside or after any of its rows, as the character cap cuts it, yields
    only its whole rows."""
    store = Store.open(":memory:")
    expected = []
    for name, facts in entities:
        entity_id = store.append_entity(name, "Place", Role.Mentioned)
        for prop, (dtype, value), valid_from in facts:
            fact = Fact(None, entity_id, prop, value, dtype, valid_from, None, 1.0,
                        "2024-01-05T00:00:00Z")
            store.append_event_bundle(Event(None, "conversation", "2024-01-05T00:00:00Z"),
                                      [fact])
        for prop, history in store.subject_history(entity_id).items():
            latest = history[-1]
            value = latest.value
            value = value.isoformat() if isinstance(value, date) else value
            expected.append((entity_id, store.entity_row(entity_id)["entity_name"], prop,
                             value, latest.valid_from or ""))
    text = "\n\n".join(build_entity_document(store, entity_id)
                       for entity_id in range(1, len(entities) + 1))
    store.close()
    assert read_latest_values(text) == expected

    position = 0
    for whole, (_id, _name, prop, value, valid_from) in enumerate(expected):
        line = _latest_line(prop, value, valid_from)
        start = text.index(f"\n{line}\n", position) + 1
        position = start + len(line)
        for end in range(start, position + 1):
            cut = read_latest_values(text[:end] + "\n... truncated")
            assert cut == expected[:whole + (end == position)]


def test_read_latest_values_of_a_lookup_cut_by_the_character_cap(store, index):
    entity_id = store.append_entity("Long Notes (draft)", "Product", Role.Mentioned)
    facts = [Fact(None, entity_id, f"note_{number:02d}", f"{number} | " + "x" * 900,
                  DType.str, None, None, 1.0, "2024-01-05T00:00:00Z")
             for number in range(40)]
    store.append_event_bundle(Event(None, "conversation", "2024-01-05T00:00:00Z"), facts)
    upsert_embeddings(store, index)
    full = read_latest_values(build_entity_document(store, entity_id))
    assert [row[2] for row in full] == [f"note_{number:02d}" for number in range(40)]
    result = entity_lookup(store, index, "Long Notes", k=1)
    assert result.text.endswith(f"truncated at {CHAR_CAP} characters")
    rows = read_latest_values(result.text)
    assert 0 < len(rows) < 40 and rows == full[:len(rows)]


# -- entity documents: kept fact lines and anchors in time order ------------

# instants that differ, coincide, or only compare right as UTC instants
_DOC_STAMPS = st.builds(
    lambda day, hour, zone: f"2024-01-{day:02d}T{hour:02d}:00:00{zone}",
    st.integers(1, 3), st.sampled_from([0, 3, 22]), st.sampled_from(["Z", "+05:00", "-03:00"]),
) | st.sampled_from(["2024-01-02", "2024-01-03"])
# few values, so that facts of one property often share one
_DOC_VALUES = st.sampled_from([
    (DType.str, "Sakura | Sushi"), (DType.str, "two\nlines"), (DType.str, "plain"),
    (DType.list, ["a|b", "c\nd"]), (DType.list, []), (DType.date, "2024-01-02"),
    (DType.datetime, "2024-01-02T05:00:00+05:00"), (DType.int, 7), (DType.bool, True),
])
_DOC_QUESTION_DATES = (None, "2024-01-01", "2024-01-02T03:00:00Z",
                       "2024-01-02T02:00:00-03:00", "2024-01-03")
_DOC_NAMES = ("Ann Lee", "Ben Lee", "Cal Lee")


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(0, 1),  # the handle
        st.sampled_from(["fact", "event", "lookup"]),
        st.integers(0, 2),  # the subject
        st.sampled_from(["favorite_color", "hometown"]),
        _DOC_VALUES,
        st.none() | _DOC_STAMPS,  # valid_from
        st.none() | _DOC_STAMPS,  # valid_to
        _DOC_STAMPS,  # created_at and the event's anchor
        st.sampled_from(_DOC_QUESTION_DATES),
    ),
    max_size=14,
))
def test_entity_lookup_reads_as_the_oracle(ops):
    """Appends on two handles of one file, interleaved with lookups at
    several question dates, and a replay of the log at the end: every
    lookup's text is the oracle's, however many of its fact lines were
    kept from an earlier lookup."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "db.sqlite")
        handles = [Store.open(path), Store.open(path)]
        indexes = [VectorIndex(), VectorIndex()]
        subjects = [handles[0].append_entity(name, "Person", Role.Speaker,
                                             created_at=f"2024-01-0{number + 1}")
                    for number, name in enumerate(_DOC_NAMES)]
        query = " ".join(_DOC_NAMES)

        def check(store, index, as_of):
            upsert_embeddings(store, index)
            got = entity_lookup(store, index, query, k=3, as_of=as_of)
            assert got.ok and got.text == oracle.lookup(store, index, query, 3, as_of)

        for who, action, subject, prop, (dtype, value), valid_from, valid_to, stamp, \
                as_of in ops:
            handle, subject = handles[who], subjects[subject]
            if action == "lookup":
                check(handle, indexes[who], as_of)
                continue
            if None not in (valid_from, valid_to) and (
                    oracle.instant(valid_to) < oracle.instant(valid_from)):
                valid_from, valid_to = valid_to, valid_from
            facts = [] if action == "event" else [
                Fact(None, subject, prop, value, dtype, valid_from, valid_to, 1.0, stamp)]
            handle.append_event_bundle(Event(None, "conversation", stamp), facts, [],
                                       [(subject, Role.Mentioned)])
        replica = Store.replay(handles[0].append_log())
        for store, index in [*zip(handles, indexes), (replica, VectorIndex())]:
            for as_of in _DOC_QUESTION_DATES:
                check(store, index, as_of)
                for subject in subjects:
                    assert build_entity_document(store, subject, as_of) == oracle.document(
                        store, subject, as_of)
        for store in [*handles, replica]:
            store.close()


def test_a_fact_line_is_kept_by_store():
    """Two stores whose facts share ids but not values render their own."""
    stores = [Store.open(":memory:"), Store.open(":memory:")]
    for store, value in zip(stores, ["Italian Garden", "Sakura Sushi"]):
        alice = store.append_entity("Alice", "Person", Role.Speaker)
        fact = Fact(None, alice, "favorite_restaurant", value, DType.str,
                    "2024-01-15", None, 1.0, "2024-01-15T10:00:00Z")
        assert store.append_event_bundle(Event(None, "conversation", "2024-01-15"),
                                         [fact]).fact_ids == [1]
    for store, value in zip(stores, ["Italian Garden", "Sakura Sushi"]):
        latest, history = build_entity_document(store, 1).split("\n\nFull fact history:\n")
        assert f'| favorite_restaurant | "{value}" | 2024-01-15 |' in latest
        assert history == oracle.table(
            ["property", "value", "valid_from", "valid_to", "created_at"],
            [["favorite_restaurant", json.dumps(value), "2024-01-15", "",
              "2024-01-15T10:00:00Z"]])
        store.close()


def test_anchors_are_listed_in_time_order(store, index):
    """Anchors with UTC offsets are stored as UTC instants and listed in
    time order, a date before its midnight; the day cut is the UTC day of
    the question date, and the last anchor is the latest listed."""
    alice = store.append_entity("Alice", "Person", Role.Speaker)
    # as UTC instants: 01-02T00, 01-02T01, 01-01T23, 01-02T01 again, 01-02
    for anchor in ["2024-01-02T05:00:00+05:00", "2024-01-02T01:00:00Z",
                   "2024-01-01T23:00:00Z", "2024-01-01T20:00:00-05:00", "2024-01-02"]:
        store.append_event_bundle(Event(None, "conversation", anchor),
                                  participants=[(alice, Role.Mentioned)])
    upsert_embeddings(store, index)
    in_time_order = ("2024-01-01T23:00:00Z", "2024-01-02", "2024-01-02T00:00:00Z",
                     "2024-01-02T01:00:00Z")
    assert store.entity_anchors(alice) == in_time_order
    for as_of, listed in [
        (None, in_time_order),
        ("2024-01-01", in_time_order[:1]),
        # 2024-01-02T03:00:00Z: its UTC day holds every anchor
        ("2024-01-01T22:00:00-05:00", in_time_order),
        ("2024-01-02", in_time_order),
        ("2024-01-02T00:00:00Z", in_time_order[:3]),
    ]:
        lines = f"\nlast_anchor: {listed[-1]}\nanchors: {', '.join(listed)}\n"
        assert lines in build_entity_document(store, alice, as_of)
        assert lines in entity_lookup(store, index, "Alice", k=1, as_of=as_of).text


def test_one_instant_in_three_offsets_is_one_anchor(store, index):
    """The same instant written in Z, +05:00 and -03:00 is stored once as
    UTC, so the entity has one anchor and it is the last anchor."""
    alice = store.append_entity("Alice", "Person", Role.Speaker)
    for anchor in ["2024-01-02T01:00:00Z", "2024-01-02T06:00:00+05:00",
                   "2024-01-01T22:00:00-03:00"]:
        store.append_event_bundle(Event(None, "conversation", anchor),
                                  participants=[(alice, Role.Mentioned)])
    upsert_embeddings(store, index)
    assert store.entity_anchors(alice) == ("2024-01-02T01:00:00Z",)
    lines = "\nlast_anchor: 2024-01-02T01:00:00Z\nanchors: 2024-01-02T01:00:00Z\n"
    assert lines in build_entity_document(store, alice)
    assert lines in entity_lookup(store, index, "Alice", k=1, as_of="2024-01-02").text


def test_a_repeated_lookup_renders_no_fact_line(case1_store, index, monkeypatch):
    """A scaling guard: the second identical lookup on an unchanged store
    takes every fact line from memory."""
    rendered = []
    original = tools._table_line
    monkeypatch.setattr(tools, "_table_line",
                        lambda cells: rendered.append(1) or original(cells))
    first = entity_lookup(case1_store, index, "Alice", k=3, as_of="2024-04-01")
    assert len(rendered) == 2 * 3  # two lines for each fact of the hits
    rendered.clear()
    assert entity_lookup(case1_store, index, "Alice", k=3, as_of="2024-04-01") == first
    assert rendered == []


def test_dropped_store_frees_its_fact_lines_at_once(index):
    """The kept lines are held by the store itself, so ``del`` of the store
    frees them without waiting for the cycle collector."""
    store = Store.open(":memory:")
    ingest_case1(store, index)
    assert entity_lookup(store, index, "Alice", k=3).ok
    kept = store.fact_lines(store.find_entity_by_name("Alice")["entity_id"])
    assert kept
    ref = weakref.ref(store)
    store.close()
    gc.disable()
    try:
        del store
        assert ref() is None
        assert sys.getrefcount(kept) == 2  # this name and the call's argument
    finally:
        gc.enable()
