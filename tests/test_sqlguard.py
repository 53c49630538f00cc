import itertools
import re
import sqlite3
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from apexmem import sqlguard
from apexmem.index import VectorIndex
from apexmem.sqlguard import VERDICTS_KEPT, WHITELISTED_TABLES, _tokenize, validate_sql
from apexmem.store import Store

from conftest import ingest_case1

ACCEPTED = [
    "SELECT * FROM facts",
    "select entity_name from entities where entity_id = 1;",
    "SELECT f.value_json FROM facts f JOIN evidence e ON e.fact_id = f.id",
    "WITH recent AS (SELECT * FROM facts) SELECT * FROM recent",
    "WITH RECURSIVE c(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM c WHERE n < 5) "
    "SELECT n FROM c",
    "SELECT count(*) FROM events WHERE anchor_datetime >= :question_date",
    "SELECT 'insert update delete' AS tricky FROM facts",
    "SELECT * FROM facts -- trailing comment\n",
    "SELECT * FROM facts /* block comment DROP TABLE facts */",
    "SELECT a.entity_id FROM entities a, event_participants b "
    "WHERE a.entity_id = b.entity_id",
]

REJECTED = [
    "",
    "   ",
    "INSERT INTO facts VALUES (1)",
    "UPDATE facts SET value_json = 'x'",
    "DELETE FROM facts",
    "DROP TABLE facts",
    "CREATE TABLE t (x INT)",
    "ALTER TABLE facts ADD COLUMN x",
    "PRAGMA writable_schema = 1",
    "ATTACH DATABASE 'x' AS y",
    "VACUUM",
    "REPLACE INTO facts VALUES (1)",
    "SELECT * FROM facts; DROP TABLE facts",
    "SELECT * FROM facts; SELECT * FROM events",
    "SELECT * FROM sqlite_master",
    "SELECT * FROM append_log",
    "SELECT * FROM meta",
    "SELECT * FROM lex_entities",
    "WITH x AS (SELECT 1) INSERT INTO facts VALUES (1)",
    "SELECT * FROM facts WHERE value_json = 'unterminated",
    "SELECT * FROM facts /* unterminated comment",
    "/**/INSERT INTO facts VALUES (1)",
    "-- comment only",
    "EXPLAIN SELECT * FROM facts",
    # an alias, ON, USING or a parenthesis does not end the FROM list
    "SELECT * FROM facts AS f, append_log",
    "SELECT * FROM facts AS f, entities AS e, append_log",
    "SELECT * FROM facts f JOIN entities e ON e.entity_id = 1, append_log",
    "SELECT * FROM facts JOIN evidence USING (id), append_log",
    "SELECT * FROM facts AS \"where\", append_log",
    # SQLite reads WITH and WINDOW as an alias here
    "SELECT * FROM facts with, append_log",
    "SELECT * FROM facts AS with, append_log",
    "SELECT * FROM facts window, append_log",
    "SELECT * FROM (append_log AS a)",
    "SELECT * FROM facts f JOIN (entities e, append_log) ON 1",
    # SQLite reads a table after IN, and a string where only a name may stand
    "SELECT * FROM facts WHERE id IN append_log",
    "SELECT * FROM 'append_log'",
    # a CTE's name shadows a table only inside the parenthesis of its WITH
    "SELECT * FROM (WITH append_log AS (SELECT 1) SELECT * FROM append_log), append_log",
]


@pytest.mark.parametrize("statement", ACCEPTED)
def test_accepts(statement):
    report = validate_sql(statement)
    assert report.accepted, report.reason


@pytest.mark.parametrize("statement", REJECTED)
def test_rejects(statement):
    report = validate_sql(statement)
    assert not report.accepted


# (statement, its (kind, text) tokens or None, the tokenizer's error)
TOKENIZED = [
    ("'it''s'", [("string", "'it''s'")], ""),
    ('"q id" `b` [t]', [("word", "q id"), ("word", "b"), ("word", "t")], ""),
    (":d:", [("param", "d"), ("punct", ":")], ""),
    (":1", [("punct", ":"), ("number", "1")], ""),
    ("1.5e-3 x2é", [("number", "1.5e-3"), ("word", "x2é")], ""),
    ("SELECT 1 -- c", [("word", "SELECT"), ("number", "1")], ""),
    ("SELECT /* c */ 1", [("word", "SELECT"), ("number", "1")], ""),
    ("SELECT /* a\nb */ 1", [("word", "SELECT"), ("number", "1")], ""),
    ("SELECT\t1\n\u3000", [("word", "SELECT"), ("number", "1")], ""),
    ("[a\nb]", [("word", "a\nb")], ""),
    ("SELECT 1;;",
     [("word", "SELECT"), ("number", "1"), ("punct", ";"), ("punct", ";")], ""),
    ("SELECT 'abc''", None, "unterminated string literal"),
    ("SELECT /* x", None, "unterminated block comment"),
    ("SELECT [x", None, "unterminated quoted identifier"),
]


@pytest.mark.parametrize("statement, expected, error", TOKENIZED)
def test_tokenize(statement, expected, error):
    tokens, found_error = _tokenize(statement)
    if expected is None:
        assert tokens is None
    else:
        assert [(t.kind, t.text) for t in tokens] == expected
    assert found_error == error


def test_tables_touched_reported():
    report = validate_sql(
        "SELECT * FROM facts f JOIN entities e ON e.entity_id = f.subject_id"
    )
    assert report.tables_touched == {"facts", "entities"}


@pytest.mark.parametrize("statement, tables", [
    ("SELECT * FROM facts AS f, entities AS e", {"facts", "entities"}),
    ("SELECT * FROM facts f JOIN entities e ON e.entity_id = f.subject_id, turns",
     {"facts", "entities", "turns"}),
    ("SELECT * FROM (facts f JOIN entities e ON 1), (SELECT * FROM turns) t, events",
     {"facts", "entities", "turns", "events"}),
    ("WITH a AS (SELECT * FROM b), b AS MATERIALIZED (SELECT * FROM c),"
     " c AS (SELECT * FROM facts) SELECT * FROM a", {"facts"}),
])
def test_every_table_source_is_reported(statement, tables):
    report = validate_sql(statement)
    assert report.accepted, report.reason
    assert report.tables_touched == tables


def test_cte_names_not_counted_as_tables():
    report = validate_sql("WITH recent AS (SELECT * FROM facts) SELECT * FROM recent")
    assert report.accepted
    assert "recent" not in report.tables_touched


def test_cte_name_cannot_smuggle_table():
    report = validate_sql(
        "WITH append_log AS (SELECT * FROM facts) SELECT * FROM append_log"
    )
    # the CTE shadows the internal table name; only `facts` is actually read
    assert report.accepted
    assert report.tables_touched == {"facts"}


def test_named_params_collected():
    report = validate_sql(
        "SELECT * FROM facts WHERE subject_id = :user_id "
        "AND valid_from <= :question_date"
    )
    assert report.params == {"user_id", "question_date"}


def test_whitelist_is_the_seven_public_tables():
    assert WHITELISTED_TABLES == frozenset({
        "events", "facts", "evidence", "entities",
        "event_participants", "properties", "turns",
    })


_FORBIDDEN_SNIPPETS = [
    "INSERT INTO facts VALUES (1)",
    "UPDATE facts SET x = 1",
    "DELETE FROM facts",
    "DROP TABLE facts",
]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_FORBIDDEN_SNIPPETS),
    st.sampled_from(["", "  ", "\n", "/* x */ ", "-- c\n"]),
    st.sampled_from(["", ";", " ;"]),
)
def test_forbidden_statements_never_accepted(snippet, prefix, suffix):
    report = validate_sql(prefix + snippet + suffix)
    assert not report.accepted


# The tokenizer as a regex of named groups, one per token form: the
# reference ``_tokenize`` is compared against.
_REFERENCE_PATTERN = re.compile(
    r"""
      \s+ | --[^\n]* | /\*.*?\*/
    | (?P<string> '[^']*(?:''[^']*)*'(?!') )
    | "(?P<dquoted>[^"]*)" | `(?P<bquoted>[^`]*)` | \[(?P<bracketed>[^\]]*)\]
    | :(?P<param>[A-Za-z_]\w*)
    | (?P<word>[A-Za-z_]\w*)
    | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<open_comment>/\*) | (?P<open_string>') | (?P<open_identifier>["`\[])
    | (?P<punct>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_REFERENCE_KINDS = {
    "string": "string", "dquoted": "word", "bquoted": "word", "bracketed": "word",
    "param": "param", "word": "word", "number": "number", "punct": "punct",
}
_REFERENCE_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_identifier": "unterminated quoted identifier",
}


def _reference_tokenize(statement):
    tokens = []
    for match in _REFERENCE_PATTERN.finditer(statement):
        group = match.lastgroup
        if group in _REFERENCE_KINDS:
            tokens.append((_REFERENCE_KINDS[group], match[group]))
        elif group is not None:
            return None, _REFERENCE_ERRORS[group]
    return tokens, ""


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("'\"`[]-/*:;(),._= \n\taZe9+\u00e9\u0663\u3000"), max_size=30))
def test_tokenize_matches_the_reference(statement):
    tokens, error = _tokenize(statement)
    found = None if tokens is None else [(t.kind, t.text) for t in tokens]
    assert (found, error) == _reference_tokenize(statement)


# -- layer 1 against SQLite ---------------------------------------------------

_SOURCE_TABLES = [*sorted(WHITELISTED_TABLES), "append_log", "sqlite_master", "main.facts"]
# aliases, some of them words that SQLite reads as a name in one place and
# as a keyword in another: WITH, WINDOW, RECURSIVE, MATERIALIZED and the
# words of a join
_ALIASES = ["", " a", " AS a", " AS b", ' AS "a"', " AS 'b'", " with", " AS with", " window",
            *(f"{as_}{word}" for word in ("recursive", "materialized", "left", "right", "full",
                                          "inner", "outer", "cross", "natural", "join")
              for as_ in (" ", " AS "))]
_JOINS = [", ", " JOIN ", " LEFT JOIN ", " CROSS JOIN ", " NATURAL JOIN "]
_CONSTRAINTS = ["", " ON 1", " ON a.id = 1", " USING (id)"]
# CTE names, two of them words of the WITH clause
_CTE_NAMES = ["c", "recursive", "materialized"]
_CTE_MODIFIERS = ["", " MATERIALIZED", " NOT MATERIALIZED"]


@st.composite
def _sources(draw, depth):
    """One table source: a table, a subquery or a parenthesised join."""
    form = draw(st.sampled_from(["table", "table", "subquery", "join"] if depth else ["table"]))
    if form == "table":
        source = draw(st.sampled_from(_SOURCE_TABLES + _CTE_NAMES))
    elif form == "subquery":
        source = f"({draw(_selects(depth - 1))})"
    else:
        source = f"({draw(_join_clauses(depth - 1))})"
    return source + draw(st.sampled_from(_ALIASES))


@st.composite
def _join_clauses(draw, depth):
    clause = draw(_sources(depth))
    for _ in range(draw(st.integers(0, 2))):
        join = draw(st.sampled_from(_JOINS))
        constraint = "" if "," in join or "NATURAL" in join else draw(st.sampled_from(_CONSTRAINTS))
        clause += join + draw(_sources(depth)) + constraint
    return clause


@st.composite
def _selects(draw, depth):
    select = f"SELECT * FROM {draw(_join_clauses(depth))}"
    where = draw(st.sampled_from(["", "in", "in_table", "exists"] if depth else ["", "in_table"]))
    if where == "in":
        select += f" WHERE 1 IN ({draw(_selects(depth - 1))})"
    elif where == "in_table":
        select += f" WHERE 1 IN {draw(st.sampled_from(_SOURCE_TABLES))}"
    elif where == "exists":
        select += f" WHERE EXISTS ({draw(_selects(depth - 1))})"
    return select


@st.composite
def _statements(draw):
    """Statements of the grammar layer 1 accepts, over whitelisted and probe
    tables: aliases with and without AS, comma lists, joins, subqueries and
    CTEs (RECURSIVE or not, with MATERIALIZED or not), some named like a
    table."""
    statement = draw(_selects(2))
    if draw(st.booleans()):
        statement += " UNION SELECT * FROM " + draw(_join_clauses(1))
    ctes = draw(st.lists(st.sampled_from(_CTE_NAMES + ["append_log", "facts"]),
                         max_size=2, unique=True))
    if ctes:
        bodies = [f"{name} AS{draw(st.sampled_from(_CTE_MODIFIERS))} ({draw(_selects(1))})"
                  for name in ctes]
        recursive = draw(st.sampled_from(["", " RECURSIVE"]))
        statement = f"WITH{recursive} {', '.join(bodies)} {statement}"
    return statement


@pytest.fixture(scope="module")
def sqlite_reads(tmp_path_factory):
    """The tables SQLite reads to prepare a statement on the case-1 store,
    as a recording authorizer sees them."""
    path = str(tmp_path_factory.mktemp("differential") / "case1.sqlite")
    store = Store.open(path)
    ingest_case1(store, VectorIndex())
    store.close()
    # no statement cache: the authorizer runs only when a statement is prepared
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, cached_statements=0)
    read = []

    def record(action, table, column, database, source):
        if action == sqlite3.SQLITE_READ:
            read.append(table)
        return sqlite3.SQLITE_OK

    conn.set_authorizer(record)

    def reads(statement):
        read.clear()
        try:
            conn.execute(statement).close()
        except sqlite3.Error:
            pass  # what was read before the error still counts
        return set(read)

    yield reads
    conn.close()


@settings(max_examples=250, deadline=None)
@given(statement=_statements())
def test_layer_one_reports_every_table_sqlite_reads(sqlite_reads, statement):
    """Differential: whenever layer 1 accepts, each table SQLite reads for
    the statement is in ``tables_touched`` and in the whitelist."""
    report = validate_sql(statement)
    if report.accepted:
        read = sqlite_reads(statement)
        assert read <= report.tables_touched <= WHITELISTED_TABLES, read


_fillers = itertools.count()


@settings(max_examples=20, deadline=None)
@given(st.one_of(
    st.builds(lambda snippet, prefix, suffix: prefix + snippet + suffix,
              st.sampled_from(_FORBIDDEN_SNIPPETS),
              st.sampled_from(["", "  ", "\n", "/* x */ ", "-- c\n"]),
              st.sampled_from(["", ";", " ;"])),
    _statements(),
))
def test_a_kept_verdict_is_the_verdict_of_a_fresh_validation(statement):
    """A kept verdict equals one computed afresh, also after more than
    VERDICTS_KEPT other texts have evicted it; no caller can change it."""
    fresh = sqlguard._validate(statement)
    kept = validate_sql(statement)
    assert kept == fresh
    assert validate_sql(statement) is kept
    for _ in range(VERDICTS_KEPT + 1):
        validate_sql(f"SELECT {next(_fillers)} FROM facts")
    assert statement not in sqlguard._verdicts
    assert validate_sql(statement) == fresh
    assert isinstance(kept.tables_touched, frozenset) and isinstance(kept.params, frozenset)
    with pytest.raises(FrozenInstanceError):
        kept.accepted = not kept.accepted
