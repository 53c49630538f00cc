"""Read-only SQL-subset validator.

Validation parses the statement structurally (comments and string literals
are stripped by a real tokenizer, so they cannot smuggle keywords); a
keyword blacklist is kept as a second defense layer, and execution adds a
third: a SQLite authorizer that allows only reads of the whitelisted tables.
The ``Store`` holds it with the connection it is installed on
(``Store.guarded_reader``): the ``mode=ro`` connection for a file store and
the writer for a ``:memory:`` store.

``validate_sql`` keeps the verdicts of the last ``VERDICTS_KEPT`` (64)
statement texts, keyed by the exact text. A verdict depends on nothing but the text
and this module's constants, so a kept verdict is the one the text would get
again, and the reports are immutable, so no caller can change one another
caller reads. This weakens no layer: the keyword blacklist is part of every
verdict, and the authorizer still checks each statement when it is prepared.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import store

# membership form of the store's ordered whitelist
WHITELISTED_TABLES = frozenset(store.WHITELISTED_TABLES)

FORBIDDEN_KEYWORDS = frozenset(
    {
        "insert",
        "update",
        "delete",
        "drop",
        "alter",
        "create",
        "attach",
        "detach",
        "pragma",
        "replace",
        "truncate",
        "grant",
        "revoke",
        "vacuum",
        "reindex",
        "merge",
        "into",
    }
)

# Statement texts whose verdicts ``validate_sql`` keeps, oldest dropped
# first. The bound counts texts, not bytes: each entry holds its whole text
# besides a report of under 1 KiB, and ``graph_sql`` puts no limit on a
# statement's length, so a full memo holds 64 such texts, about 100 KiB at
# 1,000 characters each. Every measured workload repeats a single text (the
# guide's as-of lookup), which one entry keeps; the rest leaves room for the
# few templates a script or a model may repeat.
VERDICTS_KEPT = 64

# keywords that end a FROM clause at their own depth: the clauses after it,
# and the heads of a subquery, which end the clause of the parenthesis they
# open. A comma, ON, USING or an alias does not: a comma there joins one
# more table source. SQLite reads WITH and WINDOW as names where a name may
# stand, so they end a clause only where ``_is_clause_keyword`` says.
_FROM_CLAUSE_ENDS = frozenset({
    "where", "group", "order", "limit", "having", "union", "intersect",
    "except", "window", "select", "with", "values",
})


@dataclass(frozen=True)
class SqlValidationReport:
    statement_kind: Optional[str]  # "select" | "with_select"
    tables_touched: FrozenSet[str]
    params: FrozenSet[str]
    accepted: bool
    reason: str = ""


@dataclass(slots=True)
class _Token:
    kind: str  # word | param | punct | string | number
    text: str
    # what the parser compares: a bare word lower-cased, or a punctuation
    # character; "" for a quoted identifier, a string, a number or a param
    key: str = ""


# One alternative per token form, tried in order at each position; every
# position matches one (the last takes any character), and ``_tokenize``
# tells the forms apart by their first character and length. Whitespace
# (where \s is exactly str.isspace) and comments are skipped. A string ends
# at its first quote that is not doubled; a quoted identifier's inner text
# is a word. A lone quote, bracket or "/*" opens something never closed.
_TOKEN_PATTERN = re.compile(
    r"""
      \s+ | --[^\n]* | /\*.*?\*/
    | '[^']*(?:''[^']*)*'(?!') | "[^"]*" | `[^`]*` | \[[^\]]*\]
    | :[A-Za-z_]\w* | [A-Za-z_]\w* | \d+(?:\.\d+)?(?:[eE][+-]?\d+)?
    | /\* | .
    """,
    re.VERBOSE | re.DOTALL,
)
_WORD_STARTS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_UNCLOSED = {
    "/*": "unterminated block comment",
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
    "`": "unterminated quoted identifier",
    "[": "unterminated quoted identifier",
}


def _tokenize(statement: str) -> Tuple[Optional[List[_Token]], str]:
    """Tokenize, stripping comments; returns (tokens, error)."""
    tokens: List[_Token] = []
    append = tokens.append
    for text in _TOKEN_PATTERN.findall(statement):
        first = text[0]
        if first in _WORD_STARTS:
            append(_Token("word", text, text.lower()))
        elif first.isspace():
            continue
        elif first.isdecimal():  # \d is exactly str.isdecimal
            append(_Token("number", text))
        elif len(text) == 1 or text == "/*":
            if text in _UNCLOSED:
                return None, _UNCLOSED[text]
            append(_Token("punct", text, text))
        elif first == "'":
            append(_Token("string", text))
        elif first == ":":
            append(_Token("param", text[1:]))
        elif first in "\"`[":
            append(_Token("word", text[1:-1]))
        # what is left is a comment
    return tokens, ""


def _name(token: _Token) -> str:
    """The name a word or a string gives a table. SQLite reads a string as
    a name where only a name may stand, as after FROM."""
    if token.kind == "string":
        return token.text[1:-1].replace("''", "'").lower()
    return token.key or token.text.lower()


def _past_group(tokens: List[_Token], j: int) -> int:
    """The index after the parenthesised group that opens at ``j``, or ``j``
    if none opens there; an unclosed group runs to the end."""
    if j >= len(tokens) or tokens[j].key != "(":
        return j
    depth = 0
    for k in range(j, len(tokens)):
        if tokens[k].key == "(":
            depth += 1
        elif tokens[k].key == ")":
            depth -= 1
            if depth == 0:
                return k + 1
    return len(tokens)


def _cte_names(tokens: List[_Token], position: int) -> FrozenSet[str]:
    """The CTE names of the WITH clause at ``position``:
    WITH [RECURSIVE] name [(cols)] AS [[NOT] MATERIALIZED] (...) [, ...]."""
    names = set()
    j = position + 1
    if j < len(tokens) and tokens[j].key == "recursive":
        j += 1
    while j < len(tokens) and tokens[j].kind == "word":
        name = _name(tokens[j])
        j = _past_group(tokens, j + 1)  # optional column list
        if j >= len(tokens) or tokens[j].key != "as":
            break
        j += 1
        for modifier in ("not", "materialized"):
            if j < len(tokens) and tokens[j].key == modifier:
                j += 1
        if j >= len(tokens) or tokens[j].key != "(":
            break
        names.add(name)
        j = _past_group(tokens, j)
        if j >= len(tokens) or tokens[j].key != ",":
            break
        j += 1
    return frozenset(names)


def _is_clause_keyword(tokens: List[_Token], position: int) -> bool:
    """Whether the word at ``position`` is one of ``_FROM_CLAUSE_ENDS`` that
    SQLite reads as a keyword. WITH is one only where a SELECT may begin: at
    the start of the statement or after a parenthesis; elsewhere, as in
    ``FROM facts with, append_log``, it is a name. WINDOW is one only before
    a name and AS, as SQLite's tokenizer decides; elsewhere it is a name."""
    key = tokens[position].key
    if key == "with":
        return position == 0 or tokens[position - 1].key == "("
    if key == "window":
        return (position + 2 < len(tokens)
                and tokens[position + 1].kind in ("word", "string")
                and tokens[position + 2].key == "as")
    return key in _FROM_CLAUSE_ENDS


class _Level:
    """What ``_collect_tables`` knows of one parenthesis level."""

    __slots__ = ("in_from", "source_next", "ctes")

    def __init__(self, in_from: bool, ctes: FrozenSet[str]):
        # in a FROM clause, where a comma joins one more table source
        self.in_from = in_from
        # a table source may stand at the next token
        self.source_next = in_from
        # the CTE names in scope
        self.ctes = ctes


def _collect_tables(tokens: List[_Token]) -> FrozenSet[str]:
    """The names SQLite may read as tables: each table source of a FROM
    clause (after FROM, a JOIN, a comma of the clause, or the parenthesis of
    a parenthesised join) and each table after IN, unless a CTE of that name
    is in scope there. A CTE is in scope from its WITH to the end of the
    parenthesis that holds the WITH, the bodies of its clause included."""
    tables = set()
    levels = [_Level(False, frozenset())]
    table_next = False  # after IN, a table may stand at the next token
    for position, token in enumerate(tokens):
        level = levels[-1]
        key = token.key
        source_next, level.source_next = level.source_next, False
        if key == "(":
            levels.append(_Level(source_next, level.ctes))
        elif (source_next or table_next) and (
            token.kind == "string"
            or token.kind == "word" and not _is_clause_keyword(tokens, position)
        ):
            name = _name(token)
            if name not in level.ctes:
                tables.add(name)
        elif key == ")":
            if len(levels) > 1:
                levels.pop()
        elif key == ",":
            level.source_next = level.in_from
        elif key == "from" or key == "join":
            level.in_from = level.source_next = True
        elif key in _FROM_CLAUSE_ENDS and _is_clause_keyword(tokens, position):
            level.in_from = False
            if key == "with":
                level.ctes = level.ctes | _cte_names(tokens, position)
        table_next = key == "in"
    return frozenset(tables)


def _reject(reason: str) -> SqlValidationReport:
    return SqlValidationReport(None, frozenset(), frozenset(), False, reason)


def _validate(statement: str) -> SqlValidationReport:
    """The verdict on one statement, computed afresh."""
    if not statement or not statement.strip():
        return _reject("empty statement")

    tokens, error = _tokenize(statement)
    if tokens is None:
        return _reject(error)
    if not tokens:
        return _reject("empty statement")

    # single statement: a ';' may only appear as trailing punctuation
    for position, token in enumerate(tokens):
        if token.key == ";":
            if any(t.key != ";" for t in tokens[position + 1 :]):
                return _reject("multiple statements are not allowed")
            tokens = tokens[:position]
            break
    if not tokens:
        return _reject("empty statement")

    head = tokens[0].key
    if head not in ("select", "with"):
        return _reject("statement must start with SELECT or WITH")
    if head == "with" and not any(t.key == "select" for t in tokens):
        return _reject("WITH clause without a SELECT")

    for token in tokens:
        if token.kind == "word" and (token.key or token.text.lower()) in FORBIDDEN_KEYWORDS:
            return _reject(f"forbidden keyword: {token.text.upper()}")

    tables = _collect_tables(tokens)
    unknown = sorted(tables - WHITELISTED_TABLES)
    if unknown:
        return _reject(f"non-whitelisted table(s): {', '.join(unknown)}")

    params = frozenset(t.text for t in tokens if t.kind == "param")
    return SqlValidationReport(
        "select" if head == "select" else "with_select", tables, params, True, "")


# statement text -> its verdict, for the last VERDICTS_KEPT texts validated
_verdicts: Dict[str, SqlValidationReport] = {}


def validate_sql(statement: str) -> SqlValidationReport:
    """Accept iff: single statement, SELECT or WITH...SELECT head, no
    mutation/DDL keywords anywhere, every referenced table whitelisted.
    The verdicts of the last ``VERDICTS_KEPT`` texts are kept, so a
    repeated text is parsed once."""
    report = _verdicts.get(statement)
    if report is None:
        report = _validate(statement)
        if len(_verdicts) >= VERDICTS_KEPT:
            del _verdicts[next(iter(_verdicts))]  # the oldest
        _verdicts[statement] = report
    return report
