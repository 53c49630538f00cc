"""Read-only SQL-subset validator.

Validation parses the statement structurally (comments and string literals
are stripped by a real tokenizer, so they cannot smuggle keywords); a
keyword blacklist is kept as a second defense layer, and execution adds a
third (SQLite authorizer + query_only).
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

# keywords that end a FROM list
_FROM_LIST_BREAKERS = {
    "where", "group", "order", "limit", "having", "union", "intersect",
    "except", "select", "on", "using", "join", "left", "right", "inner",
    "outer", "cross", "natural", "as", "window",
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


def _tokenize(statement: str) -> Tuple[Optional[List[_Token]], str]:
    """Tokenize, stripping comments; returns (tokens, error)."""
    tokens: List[_Token] = []
    i = 0
    n = len(statement)
    while i < n:
        ch = statement[i]
        if ch.isspace():
            i += 1
            continue
        if statement.startswith("--", i):
            end = statement.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if statement.startswith("/*", i):
            end = statement.find("*/", i + 2)
            if end == -1:
                return None, "unterminated block comment"
            i = end + 2
            continue
        if ch == "'":
            j = i + 1
            while j < n:
                if statement[j] == "'":
                    if j + 1 < n and statement[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            if j >= n:
                return None, "unterminated string literal"
            tokens.append(_Token("string", statement[i : j + 1]))
            i = j + 1
            continue
        if ch in ('"', "`", "["):
            closer = {'"': '"', "`": "`", "[": "]"}[ch]
            j = statement.find(closer, i + 1)
            if j == -1:
                return None, "unterminated quoted identifier"
            tokens.append(_Token("word", statement[i + 1 : j]))
            i = j + 1
            continue
        if ch == ":":
            match = re.match(r":[A-Za-z_]\w*", statement[i:])
            if match:
                tokens.append(_Token("param", match.group(0)[1:]))
                i += match.end()
                continue
            tokens.append(_Token("punct", ch))
            i += 1
            continue
        match = re.match(r"[A-Za-z_]\w*", statement[i:])
        if match:
            tokens.append(_Token("word", match.group(0)))
            i += match.end()
            continue
        match = re.match(r"\d+(\.\d+)?([eE][+-]?\d+)?", statement[i:])
        if match:
            tokens.append(_Token("number", match.group(0)))
            i += match.end()
            continue
        tokens.append(_Token("punct", ch))
        i += 1
    return tokens, ""


def _collect_cte_names(tokens: List[_Token]) -> Set[str]:
    """CTE names introduced by WITH name AS (...), recursively at any level."""
    names: Set[str] = set()
    for position, token in enumerate(tokens):
        if token.kind == "word" and token.text.lower() == "with":
            j = position + 1
            # WITH [RECURSIVE] name [(cols)] AS (...) [, name AS (...)]*
            if j < len(tokens) and tokens[j].text.lower() == "recursive":
                j += 1
            depth_guard = 0
            while j < len(tokens) and depth_guard < 10000:
                depth_guard += 1
                if tokens[j].kind != "word":
                    break
                names.add(tokens[j].text.lower())
                j += 1
                # optional column list
                if j < len(tokens) and tokens[j].text == "(":
                    depth = 0
                    while j < len(tokens):
                        if tokens[j].text == "(":
                            depth += 1
                        elif tokens[j].text == ")":
                            depth -= 1
                            if depth == 0:
                                j += 1
                                break
                        j += 1
                if j < len(tokens) and tokens[j].kind == "word" and tokens[j].text.lower() == "as":
                    j += 1
                else:
                    break
                if j < len(tokens) and tokens[j].text == "(":
                    depth = 0
                    while j < len(tokens):
                        if tokens[j].text == "(":
                            depth += 1
                        elif tokens[j].text == ")":
                            depth -= 1
                            if depth == 0:
                                j += 1
                                break
                        j += 1
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
    i = 0
    while i < len(tokens):
        token = tokens[i]
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
                and lowered not in ("join", "left", "right", "inner", "outer", "cross", "natural")
            ):
                from_list_depth = None
        elif token.text == "," and from_list_depth is not None and depth == from_list_depth:
            # comma-separated FROM list; but only if the previous significant
            # token closed a table source (heuristic: previous token was a
            # word or ')')
            prev = tokens[i - 1]
            if prev.kind == "word" or prev.text == ")":
                expect_table = True
        i += 1
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
