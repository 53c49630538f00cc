"""Read-only SQL-subset validator.

Validation parses the statement structurally (comments and string literals
are stripped by a real tokenizer, so they cannot smuggle keywords); a
keyword blacklist is kept as a second defense layer, and execution adds a
third: a SQLite authorizer that allows only reads of the whitelisted tables.
The ``Store`` holds it with the connection it is installed on
(``Store.guarded_reader``): the ``mode=ro`` connection for a file store and
the writer for a ``:memory:`` store.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

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

# keywords that end a FROM list; the join words (LEFT, INNER, ...) do not,
# since the table after their JOIN belongs to it
_FROM_LIST_BREAKERS = {
    "where", "group", "order", "limit", "having", "union", "intersect",
    "except", "select", "on", "using", "as", "window",
}

_JOIN_INTRODUCERS = {"from", "join"}


@dataclass
class SqlValidationReport:
    statement_kind: Optional[str]  # "select" | "with_select"
    tables_touched: Set[str]
    params: Set[str]
    accepted: bool
    reason: str = ""


@dataclass
class _Token:
    kind: str  # word | param | punct | string | number
    text: str


# One alternative per token form, tried in order at each position; every
# position matches one (the last takes any character). A match with no named
# group (whitespace, where \s is exactly str.isspace, or a comment) is
# skipped. A string ends at its first quote that is not doubled; a quoted
# identifier's inner text is a word.
_TOKEN_PATTERN = re.compile(
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
_TOKEN_KINDS = {
    "string": "string", "dquoted": "word", "bquoted": "word", "bracketed": "word",
    "param": "param", "word": "word", "number": "number", "punct": "punct",
}
_UNCLOSED = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_identifier": "unterminated quoted identifier",
}


def _tokenize(statement: str) -> Tuple[Optional[List[_Token]], str]:
    """Tokenize, stripping comments; returns (tokens, error)."""
    tokens: List[_Token] = []
    for match in _TOKEN_PATTERN.finditer(statement):
        group = match.lastgroup
        if group in _TOKEN_KINDS:
            tokens.append(_Token(_TOKEN_KINDS[group], match[group]))
        elif group is not None:
            return None, _UNCLOSED[group]
    return tokens, ""


def _past_group(tokens: List[_Token], j: int) -> int:
    """The index after the parenthesised group that opens at ``j``, or ``j``
    if none opens there; an unclosed group runs to the end."""
    if j >= len(tokens) or tokens[j].text != "(":
        return j
    depth = 0
    for k in range(j, len(tokens)):
        if tokens[k].text == "(":
            depth += 1
        elif tokens[k].text == ")":
            depth -= 1
            if depth == 0:
                return k + 1
    return len(tokens)


def _collect_cte_names(tokens: List[_Token]) -> Set[str]:
    """CTE names introduced by WITH name AS (...), recursively at any level."""
    names: Set[str] = set()
    for position, token in enumerate(tokens):
        if token.kind == "word" and token.text.lower() == "with":
            j = position + 1
            # WITH [RECURSIVE] name [(cols)] AS (...) [, name AS (...)]*
            if j < len(tokens) and tokens[j].text.lower() == "recursive":
                j += 1
            for _ in range(10000):
                if j >= len(tokens) or tokens[j].kind != "word":
                    break
                names.add(tokens[j].text.lower())
                j = _past_group(tokens, j + 1)  # optional column list
                if j < len(tokens) and tokens[j].kind == "word" and tokens[j].text.lower() == "as":
                    j = _past_group(tokens, j + 1)
                else:
                    break
                if j < len(tokens) and tokens[j].text == ",":
                    j += 1
                    continue
                break
    return names


def _collect_tables(tokens: List[_Token]) -> Set[str]:
    """Identifiers referenced as table sources after FROM / JOIN, including
    comma-separated FROM lists; subqueries contribute their own FROMs."""
    tables: Set[str] = set()
    depth = 0
    expect_table = False
    from_list_depth: Optional[int] = None
    for i, token in enumerate(tokens):
        if token.text == "(":
            depth += 1
            if expect_table:
                expect_table = False  # subquery
        elif token.text == ")":
            depth -= 1
            if from_list_depth is not None and depth < from_list_depth:
                from_list_depth = None
        elif token.kind == "word":
            lowered = token.text.lower()
            if lowered in _JOIN_INTRODUCERS:
                expect_table = True
                if lowered == "from":
                    from_list_depth = depth
            elif expect_table:
                tables.add(lowered)
                expect_table = False
            elif (
                from_list_depth is not None
                and lowered in _FROM_LIST_BREAKERS
                and depth == from_list_depth
            ):
                from_list_depth = None
        elif token.text == "," and from_list_depth is not None and depth == from_list_depth:
            # comma-separated FROM list; but only if the previous significant
            # token closed a table source (heuristic: previous token was a
            # word or ')')
            prev = tokens[i - 1]
            if prev.kind == "word" or prev.text == ")":
                expect_table = True
    return tables


def validate_sql(statement: str) -> SqlValidationReport:
    """Accept iff: single statement, SELECT or WITH...SELECT head, no
    mutation/DDL keywords anywhere, every referenced table whitelisted."""

    def reject(reason: str) -> SqlValidationReport:
        return SqlValidationReport(None, set(), set(), False, reason)

    if not statement or not statement.strip():
        return reject("empty statement")

    tokens, error = _tokenize(statement)
    if tokens is None:
        return reject(error)
    if not tokens:
        return reject("empty statement")

    # single statement: a ';' may only appear as trailing punctuation
    for position, token in enumerate(tokens):
        if token.kind == "punct" and token.text == ";":
            rest = tokens[position + 1 :]
            if any(t.text != ";" for t in rest):
                return reject("multiple statements are not allowed")
            tokens = tokens[:position]
            break
    if not tokens:
        return reject("empty statement")

    head = tokens[0]
    if head.kind != "word" or head.text.lower() not in ("select", "with"):
        return reject("statement must start with SELECT or WITH")
    statement_kind = "select" if head.text.lower() == "select" else "with_select"
    if statement_kind == "with_select" and not any(
        t.kind == "word" and t.text.lower() == "select" for t in tokens[1:]
    ):
        return reject("WITH clause without a SELECT")

    for token in tokens:
        if token.kind == "word" and token.text.lower() in FORBIDDEN_KEYWORDS:
            return reject(f"forbidden keyword: {token.text.upper()}")

    cte_names = _collect_cte_names(tokens)
    tables = _collect_tables(tokens) - cte_names
    params = {t.text for t in tokens if t.kind == "param"}

    unknown = sorted(tables - WHITELISTED_TABLES)
    if unknown:
        return reject(f"non-whitelisted table(s): {', '.join(unknown)}")

    return SqlValidationReport(statement_kind, tables, params, True, "")
