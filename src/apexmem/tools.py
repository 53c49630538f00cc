"""Agent-facing tools: SchemaViewer, EntityLookup, GraphSQL, Search and
PropertySearch. Every tool is read-only and returns a rendered text block;
failures are returned in-band so the agent loop can recover.
"""
from __future__ import annotations

import datetime
import json
import re
import sqlite3
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .index import VectorIndex, hybrid_search
from .ontology import temporal_sort_key
from .sqlguard import validate_sql
from .store import WHITELISTED_TABLES, Store, table_columns

ROW_CAP = 200
CHAR_CAP = 20_000

DEFAULT_K = 5
_MINIMUM = 1  # of every integer argument


@dataclass(frozen=True)
class _Tool:
    """One agent tool. ``args`` are its arguments as (name, JSON type,
    required). ``run(toolkit, args, named)`` runs it on checked ``args``
    and the run's named parameters that ``reads`` lists (None: all)."""
    args: Tuple[Tuple[str, str, bool], ...]
    run: Callable[["ToolKit", dict, dict], "ToolResult"]
    reads: Optional[Tuple[str, ...]] = ()


_QUERY_ARGS = (("query", "string", True), ("k", "integer", False))

# Every runner looks its tool up in this module when it runs, so that a
# wrapper set on the module later (a tracer's) sees the call.
_TOOLS: Dict[str, _Tool] = {
    "schema_viewer": _Tool(
        (("include_examples", "boolean", False), ("include_guide", "boolean", False)),
        lambda kit, args, named: schema_viewer(**args)),
    "entity_lookup": _Tool(
        _QUERY_ARGS,
        lambda kit, args, named: entity_lookup(
            kit.store, kit.index, **args, as_of=named.get("question_date")),
        reads=("question_date",)),
    "graph_sql": _Tool(
        (("sql", "string", True), ("params", "object", False)),
        lambda kit, args, named: graph_sql(
            kit.store, args["sql"], {**named, **args.get("params", {})}),
        reads=None),
    "search": _Tool(
        _QUERY_ARGS, lambda kit, args, named: search(kit.store, kit.index, **args)),
    "property_search": _Tool(
        _QUERY_ARGS, lambda kit, args, named: property_search(kit.store, kit.index, **args)),
}

TOOL_NAMES = tuple(_TOOLS)


def _arg_schema(args: Tuple[Tuple[str, str, bool], ...]) -> dict:
    schema: dict = {"type": "object", "properties": {
        name: {"type": kind, "minimum": _MINIMUM} if kind == "integer" else {"type": kind}
        for name, kind, _required in args
    }}
    required = [name for name, _kind, is_required in args if is_required]
    if required:
        schema["required"] = required
    schema["additionalProperties"] = False
    return schema


# wire contract for external policy providers
TOOL_ARG_SCHEMAS: Dict[str, dict] = {name: _arg_schema(tool.args) for name, tool in _TOOLS.items()}

# JSON Schema's types, as jsonschema checks them: 1.0 is an integer, True is not
_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "integer": lambda value: not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ),
}


def _arg_error(tool: str, args: Any) -> Optional[str]:
    """The first way ``args`` breaks the named tool's schema, in
    jsonschema's words, or None."""
    declared = _TOOLS[tool].args
    if not isinstance(args, dict):
        return f"{args!r} is not of type 'object'"
    for name, _kind, required in declared:
        if required and name not in args:
            return f"{name!r} is a required property"
    names = [name for name, _kind, _required in declared]
    extra = [repr(name) for name in args if name not in names]
    if extra:
        return f"additional properties are not allowed ({', '.join(extra)} unexpected)"
    for name, kind, _required in declared:
        if name in args:
            value = args[name]
            if not _TYPE_CHECKS[kind](value):
                return f"{name}: {value!r} is not of type {kind!r}"
            if kind == "integer" and value < _MINIMUM:
                return f"{name}: {value!r} is less than the minimum of {_MINIMUM!r}"
    return None


@dataclass(frozen=True)
class ToolResult:
    ok: bool
    text: str = ""
    error: Optional[str] = None


@dataclass(frozen=True)
class ToolCall:
    tool: str
    args: dict


def _cell(value: Any) -> str:
    if isinstance(value, str):
        return value.replace("|", "\\|").replace("\n", " ")
    return json.dumps(value)


def _table_line(cells: Iterable[str]) -> str:
    """One line of a markdown table, from its rendered cells."""
    return "| " + " | ".join(cells) + " |"


def render_markdown_table(headers: List[str], rows: List[List[Any]]) -> str:
    lines = [_table_line(headers), _table_line("---" for _ in headers)]
    lines.extend(_table_line(map(_cell, row)) for row in rows)
    return "\n".join(lines)


_SCHEMA_COLUMNS = {
    table: ", ".join(columns) for table, columns in table_columns().items()
}

_EXAMPLE_QUERIES = {
    "SELECT": (
        "SELECT DISTINCT entity_id, entity_name, entity_type FROM entities "
        "WHERE entity_name LIKE '%Anthony%' COLLATE NOCASE"
    ),
    "JOIN": (
        "SELECT f.property_name, f.value_json, f.dtype FROM facts f "
        "JOIN evidence e ON e.fact_id = f.id WHERE e.event_id = 518"
    ),
    "AGGREGATE": (
        "SELECT COUNT(DISTINCT device_name) as device_count FROM ( "
        "SELECT 'Fitbit Versa 3' as device_name "
        "UNION SELECT 'nebulizer machine' as device_name "
        "UNION SELECT 'Accu-Chek Aviva Nano' as device_name "
        "UNION SELECT 'hearing aids' as device_name )"
    ),
    "TEMPORAL": (
        "SELECT f.value_json as start_date, date(:question_date) as question_date, "
        "julianday(:question_date) - julianday(json_extract(f.value_json, '$')) "
        "as days_difference, "
        "CAST((julianday(:question_date) - julianday(json_extract(f.value_json, '$')))"
        "/ 30.44 AS INTEGER) as months_approx, "
        "CAST((julianday(:question_date) - julianday(json_extract(f.value_json, '$')))"
        "/7 AS INTEGER) as weeks_approx "
        "FROM facts f WHERE f.subject_id = :user_id "
        "AND f.property_name = :property_id "
        "AND julianday(f.valid_from) <= julianday(:question_date) "
        "AND julianday(f.created_at) <= julianday(:question_date) "
        "ORDER BY julianday(f.created_at) DESC LIMIT 1"
    ),
}

_USAGE_GUIDE = """\
Usage guide
-----------
- entity_lookup: call first to canonicalize a person/place/thing name to an
  entity id and see its property values in force at the question date.
- search: broad hybrid retrieval; use for open-ended questions, or when you
  do not know which entity, event, or property holds the answer.
- property_search: find the canonical snake_case property name before
  filtering facts by property_name in SQL.
- graph_sql: precise reasoning - joins across entities/facts/events,
  aggregation (COUNT/SUM/AVG), and temporal arithmetic. Only single
  read-only SELECT (or WITH ... SELECT) statements over the whitelisted
  tables are accepted. Named parameters (:question_date etc.) are bound
  from the arguments.
- Temporal SQL: anchor_datetime and valid_from/valid_to are ISO-8601 text
  that may carry a UTC offset, so compare them with julianday(), never as
  strings; julianday(:question_date) -
  julianday(json_extract(f.value_json, '$')) gives a difference in days. To
  get the current value of a property, ORDER BY julianday(valid_from) DESC,
  julianday(created_at) DESC LIMIT 1. Superseded facts remain in the table:
  to reconstruct the state at the question date, filter by both
  julianday(valid_from) <= julianday(:question_date) and
  julianday(created_at) <= julianday(:question_date), since a fact stated
  after that date about an earlier time was not yet known then.
"""


def schema_viewer(include_examples: bool = False, include_guide: bool = False) -> ToolResult:
    sections = ["Tables", "------"]
    for table in WHITELISTED_TABLES:
        sections.append(f"- {table}({_SCHEMA_COLUMNS[table]})")
    if include_examples:
        sections.append("\nExample queries\n---------------")
        for category, query in _EXAMPLE_QUERIES.items():
            sections.append(f"[{category}]\n{query}\n")
    if include_guide:
        sections.append("\n" + _USAGE_GUIDE)
    return ToolResult(ok=True, text="\n".join(sections))


# the two tables of an entity document: headers and rule
_LATEST_HEAD = render_markdown_table(["property", "value", "valid_from"], [])
_HISTORY_HEAD = render_markdown_table(
    ["property", "value", "valid_from", "valid_to", "created_at"], [])

def _fact_lines(fact) -> Tuple[str, str]:
    """The fact's "Latest property values" line and its "Full fact history"
    line."""
    cells = [_cell(fact.property_name), _cell(json.dumps(_jsonable(fact.value))),
             _cell(fact.valid_from or "")]
    latest = _table_line(cells)
    cells += (_cell(fact.valid_to or ""), _cell(fact.created_at or ""))
    return latest, _table_line(cells)


def _day(iso: str) -> str:
    return temporal_sort_key(iso)[:10]


def build_entity_document(
    store: Store, entity_id: int, as_of: Optional[str] = None
) -> Optional[str]:
    """The rendered entity as known at ``as_of`` (a question date): its facts
    in force then, and the anchors of its events on or before that day. None
    for an entity the store lacks, or one first created after that day."""
    row = store.entity_row(entity_id)
    if row is None:
        return None
    day = None if as_of is None else _day(as_of)
    if day is not None and _day(row["created_at"]) > day:
        return None
    kept = store.fact_lines(entity_id)
    latest_lines = [_LATEST_HEAD]
    history_lines = [_HISTORY_HEAD]
    for history in store.subject_history(entity_id, as_of).values():
        for fact in history:
            lines = kept.get(fact.id)
            if lines is None:
                lines = kept[fact.id] = _fact_lines(fact)
            history_lines.append(lines[1])
        if history:  # the last fact in force holds the latest value
            latest_lines.append(lines[0])
    # anchors are in time order, so those on or before the day are a prefix
    anchors = store.entity_anchors(entity_id)
    if day is not None:
        anchors = anchors[:bisect_right(anchors, day, key=_day)]
    last_anchor = None
    if anchors:
        # of two spellings of the latest instant, the first as text
        latest = temporal_sort_key(anchors[-1])
        last_anchor = anchors[bisect_left(anchors, latest, key=temporal_sort_key)]
    return "\n".join([
        f"### {row['entity_name']} ({row['entity_type']}) — {Store.entity_alias(entity_id)}",
        f"last_anchor: {last_anchor or 'n/a'}",
        f"anchors: {', '.join(anchors) or 'n/a'}",
        "",
        "Latest property values:",
        *latest_lines,
        "",
        "Full fact history:",
        *history_lines,
    ])


def _jsonable(value: Any) -> Any:
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


_DOCUMENT_HEADER = re.compile(r"### (.*) \((\w+)\) — ent:(\d+)")


def read_latest_values(text: str) -> List[Tuple[int, str, str, Any, str]]:
    """The "Latest property values" rows of the entity documents in ``text``
    (an ``entity_lookup`` result), as (entity_id, entity_name, property,
    value, valid_from), with each value as ``build_entity_document`` wrote
    it: a date is its ISO text. A row cut by the character cap is left out."""
    rows = []
    entity = None
    lines = iter(text.split("\n"))
    for line in lines:
        header = _DOCUMENT_HEADER.fullmatch(line)
        if header:
            entity = (int(header[3]), header[1])
        if line != "Latest property values:" or entity is None:
            continue
        next(lines, None)  # the table's headers
        next(lines, None)  # and its rule
        for row in lines:
            # a cell's own "|" is escaped, so only separators follow a space
            cells = row[2:-2].split(" | ")
            if not (row.startswith("| ") and row.endswith(" |") and len(cells) == 3):
                break
            prop, value, valid_from = cells
            rows.append((*entity, prop, json.loads(value.replace("\\|", "|")), valid_from))
        entity = None
    return rows


def entity_lookup(
    store: Store,
    index: VectorIndex,
    query: str,
    k: int = DEFAULT_K,
    as_of: Optional[str] = None,
) -> ToolResult:
    if k < 1:
        return ToolResult(ok=False, error="k must be >= 1")
    hits = hybrid_search(store, index, ["entity"], query, k)
    documents = []
    for doc_id, _kind, _score in hits:
        doc = build_entity_document(store, doc_id, as_of)
        if doc is not None:
            documents.append(doc)
    if not documents:
        return ToolResult(ok=True, text="No matching entities.")
    return ToolResult(ok=True, text=_cap_text("\n\n".join(documents)))


def _cap_text(text: str) -> str:
    if len(text) <= CHAR_CAP:
        return text
    return text[:CHAR_CAP] + f"\n... truncated at {CHAR_CAP} characters"


# Ends every GraphSQL statement. The sqlite3 module reuses a prepared
# statement by its text, and the authorizer runs only when a statement is
# prepared; a statement the store prepared while the authorizer was not
# active, such as its read of append_log, must never come back from that
# cache to run as GraphSQL. No statement of the store ends with this comment.
_GRAPH_SQL_MARK = "\n/* graph_sql */"


def graph_sql(store: Store, statement: str, params: Optional[dict] = None) -> ToolResult:
    """Run one validated read-only statement on the store's guarded reader."""
    report = validate_sql(statement)
    if not report.accepted:
        return ToolResult(ok=False, error=f"SqlRejected: {report.reason}")

    params = params or {}
    missing = report.params - set(params)
    if missing:
        return ToolResult(
            ok=False,
            error=(
                "SqlRuntimeError: missing named parameter(s): "
                + ", ".join(sorted(missing))
            ),
        )
    bound = {name: params[name] for name in report.params}

    conn, authorizer = store.guarded_reader()
    cursor = conn.cursor()
    # the whitelist holds while the statement is prepared and stepped
    authorizer.active = True
    try:
        cursor.execute(statement + _GRAPH_SQL_MARK, bound)
        headers = [d[0] for d in cursor.description or []]
        rows = cursor.fetchmany(ROW_CAP + 1)
    # OverflowError: a parameter is an integer SQLite cannot hold
    except (sqlite3.Error, OverflowError) as exc:
        return ToolResult(ok=False, error=f"SqlRuntimeError: {exc}")
    finally:
        authorizer.active = False
        # an unfinished statement would keep the store's reader on
        # this snapshot, blind to later commits
        cursor.close()
    truncated = len(rows) > ROW_CAP
    rows = rows[:ROW_CAP]
    table = render_markdown_table(headers, [list(row) for row in rows])
    if truncated:
        table += f"\n... truncated: showing first {ROW_CAP} rows"
    return ToolResult(ok=True, text=_cap_text(table))


# The sections of ``search``: title, headers, and per index kind the columns
# of a hit's base row and the hit's cells but its score, from (doc_id, row)
_SEARCH_SECTIONS = (
    ("Entities", ["id", "name", "type", "score"], {
        "entity": (("entity_name", "entity_type"),
                   lambda doc_id, row: [Store.entity_alias(doc_id), *row]),
    }),
    ("Properties", ["property_name", "dtype", "score"], {
        "property": (("property_name", "dtype"), lambda doc_id, row: list(row)),
    }),
    ("Events and evidence", ["kind", "id", "summary", "score"], {
        "event": (("event_type", "anchor_datetime"),
                  lambda doc_id, row: ["event", doc_id, f"{row[0]} @ {row[1]}"]),
        "evidence": (("quoted_text",), lambda doc_id, row: ["evidence", doc_id, row[0]]),
    }),
    ("Turns", ["id", "speaker", "text", "anchor_datetime", "score"], {
        "turn": (("speaker", "text", "anchor_datetime"), lambda doc_id, row: [doc_id, *row]),
    }),
)


def search(store: Store, index: VectorIndex, query: str, k: int = DEFAULT_K) -> ToolResult:
    """Four ranked sections: entities, properties, events/evidence, turns.
    A hit whose row the store lacks is left out."""
    if k < 1:
        return ToolResult(ok=False, error="k must be >= 1")
    sections = []
    for title, headers, kinds in _SEARCH_SECTIONS:
        rows = []
        for doc_id, kind, score in hybrid_search(store, index, kinds, query, k):
            columns, cells = kinds[kind]
            row = store.kind_row(kind, doc_id, columns)
            if row is not None:
                rows.append([*cells(doc_id, row), f"{score.fused:.4f}"])
        sections.append(f"{title}:\n" + render_markdown_table(headers, rows))
    return ToolResult(ok=True, text=_cap_text("\n\n".join(sections)))


def property_search(store: Store, index: VectorIndex, query: str, k: int = DEFAULT_K) -> ToolResult:
    if k < 1:
        return ToolResult(ok=False, error="k must be >= 1")
    hits = hybrid_search(store, index, ["property"], query, k)
    found = store.property_rows(doc_id for doc_id, _kind, _score in hits)
    usage = store.property_usage(name for name, _dtype in found.values())
    rows = []
    for doc_id, _kind, score in hits:
        if doc_id in found:
            name, dtype = found[doc_id]
            rows.append([name, dtype, usage[name], f"{score.fused:.4f}"])
    return ToolResult(
        ok=True,
        text=render_markdown_table(
            ["property_name", "dtype", "usage_count", "score"], rows
        ),
    )


class ToolKit:
    """Validates and dispatches tool calls against one store snapshot."""

    def __init__(self, store: Store, index: VectorIndex):
        self.store = store
        self.index = index

    def dispatch(self, call: ToolCall, default_params: Optional[dict] = None) -> ToolResult:
        """Run one call. ``default_params`` are the run's named parameters;
        each tool gets those its entry in ``_TOOLS`` reads."""
        if call.tool not in TOOL_NAMES:
            return ToolResult(ok=False, error=f"unknown tool: {call.tool!r}")
        error = _arg_error(call.tool, call.args)
        if error:
            return ToolResult(ok=False, error=f"invalid arguments for {call.tool}: {error}")
        tool = _TOOLS[call.tool]
        args = {name: int(call.args[name]) if kind == "integer" else call.args[name]
                for name, kind, _required in tool.args if name in call.args}
        params = default_params or {}
        if tool.reads is not None:
            params = {name: params[name] for name in tool.reads if name in params}
        return tool.run(self, args, params)
