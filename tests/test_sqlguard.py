import pytest
from hypothesis import given, settings, strategies as st

from apexmem.sqlguard import WHITELISTED_TABLES, _tokenize, validate_sql

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
