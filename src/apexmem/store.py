"""Append-only embedded relational store over SQLite.

Committed rows are never updated or deleted through the public interface;
revisions are new fact rows and conflicts are resolved at query time.
Every commit is recorded in an append log from which the store can be
replayed row-for-row.
"""
from __future__ import annotations

import json
import sqlite3
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.parse import quote

from . import ontology
from .errors import (
    DanglingReference,
    IoFailure,
    SchemaMismatch,
    UnknownView,
    ValidationFailure,
)
from .ontology import (
    DType,
    Entity,
    Event,
    Evidence,
    Fact,
    Role,
    Turn,
    temporal_sort_key,
)

SCHEMA_VERSION = "2"

WHITELISTED_TABLES = (
    "entities",
    "properties",
    "facts",
    "events",
    "evidence",
    "event_participants",
    "turns",
)

# Derived from the rows, so neither logged nor dumped. They make the question
# path's reads point reads: a subject's facts, an entity's events, the entity
# joined by name in an as-of GraphSQL lookup (without that index SQLite walks
# facts_subject in full for it), and the facts of each name property_usage
# counts. facts_property sorts by NOCASE so that only a statement asking for
# that collation can use it: on a plain (property_name) index the planner,
# which has no statistics, reads the as-of lookup's facts by property name,
# every subject's, instead of through entities_name and facts_subject.
_INDEXES = """
CREATE INDEX IF NOT EXISTS facts_subject ON facts (subject_id, property_name);
CREATE INDEX IF NOT EXISTS event_participants_entity ON event_participants (entity_id);
CREATE INDEX IF NOT EXISTS entities_name ON entities (entity_name);
CREATE INDEX IF NOT EXISTS facts_property ON facts (property_name COLLATE NOCASE);
"""

_DDL = f"""
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE append_log (
    sequence INTEGER PRIMARY KEY,
    payload TEXT NOT NULL
);
CREATE TABLE entities (
    entity_id INTEGER PRIMARY KEY,
    entity_name TEXT NOT NULL,
    entity_type TEXT NOT NULL,
    role TEXT NOT NULL,
    aliases_json TEXT NOT NULL,
    external_id TEXT,
    created_at TEXT NOT NULL
);
CREATE TABLE properties (
    property_id INTEGER PRIMARY KEY,
    property_name TEXT NOT NULL UNIQUE,
    dtype TEXT NOT NULL,
    description TEXT,
    created_at TEXT NOT NULL
);
CREATE TABLE facts (
    id INTEGER PRIMARY KEY,
    subject_id INTEGER NOT NULL,
    property_name TEXT NOT NULL,
    value_json TEXT NOT NULL,
    dtype TEXT NOT NULL,
    valid_from TEXT,
    valid_to TEXT,
    confidence REAL NOT NULL,
    created_at TEXT NOT NULL
);
CREATE TABLE events (
    id INTEGER PRIMARY KEY,
    event_type TEXT NOT NULL,
    anchor_datetime TEXT NOT NULL,
    location TEXT,
    created_at TEXT NOT NULL
);
CREATE TABLE evidence (
    id INTEGER PRIMARY KEY,
    fact_id INTEGER,
    event_id INTEGER NOT NULL,
    turn_id INTEGER NOT NULL,
    span_start INTEGER NOT NULL,
    span_end INTEGER NOT NULL,
    quoted_text TEXT NOT NULL
);
CREATE TABLE event_participants (
    event_id INTEGER NOT NULL,
    entity_id INTEGER NOT NULL,
    role TEXT NOT NULL
);
CREATE TABLE turns (
    id INTEGER PRIMARY KEY,
    session_id TEXT NOT NULL,
    ordinal INTEGER NOT NULL,
    speaker TEXT NOT NULL,
    listener TEXT NOT NULL,
    text TEXT NOT NULL,
    anchor_datetime TEXT NOT NULL,
    UNIQUE (session_id, ordinal)
);
INSERT INTO meta (key, value) VALUES ('schema_version', '{SCHEMA_VERSION}');
{_INDEXES}"""

_EPOCH = "1970-01-01T00:00:00Z"


def _read_schema() -> Tuple[Dict[str, Tuple[str, ...]], Dict[str, str], Dict[str, str]]:
    """Each table's columns in schema order, the column each id-bearing
    table allocates its ids by (its INTEGER PRIMARY KEY; the append log's
    ``sequence`` is one), and each table's INSERT of all its columns, read
    from ``_DDL`` through SQLite once."""
    conn = sqlite3.connect(":memory:")
    try:
        conn.executescript(_DDL)
        info = {table: conn.execute(f"PRAGMA table_info({table})").fetchall()
                for table in (*WHITELISTED_TABLES, "append_log")}
    finally:
        conn.close()
    columns = {table: tuple(row[1] for row in rows) for table, rows in info.items()}
    ids = {table: row[1] for table, rows in info.items()
           for row in rows if row[5] and row[2] == "INTEGER"}
    inserts = {
        table: f"INSERT INTO {table} ({', '.join(names)})"
               f" VALUES ({', '.join('?' * len(names))})"
        for table, names in columns.items()
    }
    return columns, ids, inserts


_COLUMNS, _ID_COLUMNS, _INSERTS = _read_schema()


# The search text of each index kind, derived from its base rows when read:
# kind -> (table, text columns, render), where render maps a row
# (id, *text columns) to the text.
SEARCH_TEXT = {
    "entity": (
        "entities", "entity_name, aliases_json",
        lambda row: " ".join([row[1], *json.loads(row[2])]),
    ),
    "property": (
        "properties", "property_name, dtype, description",
        lambda row: (
            f"{row[1].replace('_', ' ')} {row[1]} {row[2]} {row[3] or ''}".strip()
        ),
    ),
    "event": (
        "events", "event_type, location",
        # the non-empty parts of (event_type, location), space-joined
        lambda row: (
            f"{row[1]} {row[2]}" if row[1] and row[2] else row[1] or row[2] or ""
        ),
    ),
    "evidence": ("evidence", "quoted_text", itemgetter(1)),
    "turn": ("turns", "text", itemgetter(1)),
}


class _Authorizer:
    """GraphSQL's authorizer, installed once on a connection: installing one
    expires every statement the connection has prepared. While ``active``
    it lets a statement read only the whitelisted tables; at any other time
    it allows everything, so the store's own statements on the same
    connection (the writer itself for ``:memory:``) prepare as before."""

    def __init__(self):
        self.active = False

    def __call__(self, action, arg1, arg2, dbname, source):
        if not self.active:
            return sqlite3.SQLITE_OK
        if action in (sqlite3.SQLITE_SELECT, sqlite3.SQLITE_FUNCTION,
                      sqlite3.SQLITE_RECURSIVE):
            return sqlite3.SQLITE_OK
        if action == sqlite3.SQLITE_READ:
            if not arg1 or arg1 in WHITELISTED_TABLES or arg1.startswith("sqlite_temp"):
                return sqlite3.SQLITE_OK
        return sqlite3.SQLITE_DENY


def table_columns() -> Dict[str, Tuple[str, ...]]:
    """Column names of each whitelisted table, in schema order."""
    return {table: _COLUMNS[table] for table in WHITELISTED_TABLES}


@dataclass
class CommittedBundle:
    event_id: int
    fact_ids: list
    evidence_ids: list


@dataclass
class _Subject:
    """What a store keeps of one entity for its own life, each part with
    the last id it covers and extended with the rows above it: the
    entity's facts as subject (see ``_kept_history``), the anchors of its
    events, and the rendered lines of its facts by fact id, which the
    entity document fills."""
    facts_to: int = 0
    facts: Dict[str, List[tuple]] = field(default_factory=dict)
    events_to: int = 0
    anchors: Tuple[str, ...] = ()
    lines: Dict[int, Tuple[str, str]] = field(default_factory=dict)


def _cutoff(as_of: Optional[str]) -> Optional[str]:
    return None if as_of is None else temporal_sort_key(as_of)


class Store:
    """Handle to one store file. Single writer, multiple readers."""

    def __init__(self, conn: sqlite3.Connection, path: str):
        self._conn = conn
        self.path = path
        self._reader: Optional[sqlite3.Connection] = None
        # the connection GraphSQL last ran on, and the authorizer on it
        self._guarded: Optional[Tuple[sqlite3.Connection, _Authorizer]] = None
        # the highest committed id of each table in _ID_COLUMNS, and the
        # PRAGMA data_version they were read at
        self._last_ids: Dict[str, int] = {}
        self._data_version: Optional[int] = None
        # base rows are never updated, so each entities and properties row
        # is read from SQLite once per store and kept decoded: an entity as
        # its dict, a property as its (property_name, dtype)
        self._entity_memo: Dict[int, dict] = {}
        self._property_memo: Dict[int, Tuple[str, str]] = {}
        # the texts of the last batch of turns this handle committed, by id:
        # the turns that extraction checks and quotes next
        self._batch_texts: Dict[int, str] = {}
        self._subjects: Dict[int, _Subject] = defaultdict(_Subject)

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def open(cls, path: str, create_if_missing: bool = True) -> "Store":
        import os

        exists = path == ":memory:" or os.path.exists(path)
        if not exists and not create_if_missing:
            raise IoFailure(f"store does not exist: {path}")
        try:
            conn = sqlite3.connect(path)
        except sqlite3.Error as exc:
            raise IoFailure(str(exc)) from exc
        if path != ":memory:":
            try:
                # write-ahead log: a commit appends to -wal instead of
                # creating, syncing and deleting a rollback journal; FULL
                # still syncs the WAL before each commit returns
                conn.execute("PRAGMA journal_mode = WAL")
                conn.execute("PRAGMA synchronous = FULL")
            except sqlite3.Error as exc:
                conn.close()
                raise IoFailure(f"cannot open store {path}: {exc}") from exc
        store = cls(conn, path)
        if exists and store._has_schema():
            version = store._meta("schema_version")
            if version != SCHEMA_VERSION:
                conn.close()
                raise SchemaMismatch(
                    f"store schema version {version!r}, expected {SCHEMA_VERSION!r}"
                )
            # a store written before an index existed gains it here; a
            # present index costs no write
            store._create_schema(_INDEXES)
        else:
            store._create_schema(_DDL)
        store._load_ids()
        return store

    def close(self) -> None:
        # the reader goes first, so that the writer is the last connection:
        # it checkpoints the WAL and removes -wal and -shm
        if self._reader is not None:
            self._reader.close()  # a no-op if its caller closed it already
            self._reader = None
        self._conn.close()

    def _has_schema(self) -> bool:
        row = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
        ).fetchone()
        return row is not None

    def _create_schema(self, script: str) -> None:
        """Run ``script`` in one transaction: each CREATE would otherwise
        commit, and a file store sync, on its own."""
        with self._conn:
            self._conn.executescript("BEGIN;" + script)

    def schema_version(self) -> str:
        return self._meta("schema_version")

    def _meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    # -- id allocation -------------------------------------------------

    def _load_ids(self) -> None:
        """Read the highest id of each table, and the data version they are
        current at, in one statement and so from one snapshot."""
        row = self._conn.execute(
            "SELECT (SELECT data_version FROM pragma_data_version), "
            + ", ".join(f"(SELECT MAX({column}) FROM {table})"
                        for table, column in _ID_COLUMNS.items())
        ).fetchone()
        self._data_version = row[0]
        self._last_ids = {table: last or 0 for table, last in zip(_ID_COLUMNS, row[1:])}

    def _sync_ids(self) -> None:
        """Reload the ids if another connection has committed since they
        were read; a commit on this connection leaves data_version as it is.
        A ``:memory:`` store has no other connection, so it reads nothing."""
        if self.path == ":memory:":
            return
        if self._conn.execute("PRAGMA data_version").fetchone()[0] != self._data_version:
            self._load_ids()

    def last_ids(self) -> Dict[str, int]:
        """The highest committed id of each id-bearing table, by table name,
        with the append log's last sequence under ``append_log``."""
        self._sync_ids()
        return dict(self._last_ids)

    def peek_next_entity_id(self) -> int:
        return self.last_ids()["entities"] + 1

    @staticmethod
    def entity_alias(entity_id: int) -> str:
        return f"ent:{entity_id}"

    @property
    def sequence(self) -> int:
        return self.last_ids()["append_log"]

    # -- commits -------------------------------------------------------

    def _commit(self, payload: dict) -> None:
        """Apply one logged batch of row inserts atomically. The caller has
        synced the ids and numbered the rows from them; the ids advance only
        once the commit has succeeded."""
        sequence = self._last_ids["append_log"] + 1
        try:
            self._write(sequence, payload)
            self._conn.commit()
        except Exception as exc:
            self._conn.rollback()
            if isinstance(exc, sqlite3.OperationalError) and "locked" in str(exc):
                raise IoFailure(
                    f"store {self.path} is locked by another writer;"
                    f" {payload['op']} commit rolled back: {exc}"
                ) from exc
            raise
        self._last_ids["append_log"] = sequence
        for table, rows in payload["rows"].items():
            column = _ID_COLUMNS.get(table)
            if column is not None and rows:
                self._last_ids[table] = max(
                    self._last_ids[table], *(row[column] for row in rows)
                )

    def _write(self, sequence: int, payload: dict) -> None:
        """Insert one logged batch, each table's rows in one statement, and
        its log record under ``sequence``; the caller commits."""
        for table, rows in payload["rows"].items():
            if rows:
                columns = _COLUMNS[table]
                self._conn.executemany(
                    _INSERTS[table], [[row[c] for c in columns] for row in rows])
        self._conn.execute(
            _INSERTS["append_log"], (sequence, json.dumps(payload, sort_keys=True)))

    def append_entity(
        self,
        name: str,
        etype: ontology.EntityType,
        role: Role = Role.Mentioned,
        aliases: Iterable[str] = (),
        external_id: Optional[str] = None,
        created_at: str = _EPOCH,
    ) -> int:
        if isinstance(etype, str):
            etype = ontology.validate_entity_type(etype)
        # read as an instant by entity_lookup's as-of cut
        ontology.parse_iso_datetime(created_at)
        entity = Entity(None, name, etype, role, frozenset(aliases), external_id)
        entity_id = self.peek_next_entity_id()
        payload = {
            "op": "entity",
            "rows": {
                "entities": [
                    {
                        "entity_id": entity_id,
                        "entity_name": entity.name,
                        "entity_type": etype.value,
                        "role": role.value,
                        "aliases_json": json.dumps(sorted(entity.aliases)),
                        "external_id": external_id,
                        "created_at": created_at,
                    }
                ]
            },
        }
        self._commit(payload)
        return entity_id

    def append_property(
        self,
        property_name: str,
        dtype: DType,
        description: str = "",
        created_at: str = _EPOCH,
    ) -> int:
        ontology.validate_property_name(property_name)
        ontology.parse_iso_datetime(created_at)
        existing = self._conn.execute(
            "SELECT property_id FROM properties WHERE property_name = ?",
            (property_name,),
        ).fetchone()
        if existing:
            return existing[0]
        property_id = self.last_ids()["properties"] + 1
        payload = {
            "op": "property",
            "rows": {
                "properties": [
                    {
                        "property_id": property_id,
                        "property_name": property_name,
                        "dtype": dtype.value,
                        "description": description,
                        "created_at": created_at,
                    }
                ]
            },
        }
        self._commit(payload)
        return property_id

    def append_turns(self, turns: Iterable[Turn]) -> list:
        turns = list(turns)
        if not turns:
            return []
        keys = [(turn.session_id, turn.ordinal) for turn in turns]
        # the first turn of the batch whose (session_id, ordinal) is stored
        stored = self._conn.execute(
            "SELECT MIN(keys.key) FROM json_each(?) AS keys CROSS JOIN turns"
            " ON turns.session_id = json_extract(keys.value, '$[0]')"
            " AND turns.ordinal = json_extract(keys.value, '$[1]')",
            (json.dumps(keys),),
        ).fetchone()[0]
        # the first duplicate is that turn or an earlier repeat in the batch
        seen = set()
        for position, (session_id, ordinal) in enumerate(keys):
            if position == stored or (session_id, ordinal) in seen:
                raise ValidationFailure(f"duplicate turn ({session_id}, {ordinal})")
            seen.add((session_id, ordinal))
        next_id = self.last_ids()["turns"] + 1
        rows, ids = [], []
        for offset, turn in enumerate(turns):
            turn_id = next_id + offset
            rows.append(
                {
                    "id": turn_id,
                    "session_id": turn.session_id,
                    "ordinal": turn.ordinal,
                    "speaker": turn.speaker,
                    "listener": turn.listener,
                    "text": turn.text,
                    "anchor_datetime": turn.anchor_datetime,
                }
            )
            ids.append(turn_id)
        self._commit({"op": "turns", "rows": {"turns": rows}})
        self._batch_texts = {row["id"]: row["text"] for row in rows}
        return ids

    def append_event_bundle(
        self,
        event: Event,
        facts: Iterable[Fact] = (),
        evidence: Iterable[Evidence] = (),
        participants: Iterable[tuple] = (),
        created_at: Optional[str] = None,
    ) -> CommittedBundle:
        """Commit one event with its facts, evidence, and participants atomically."""
        facts = list(facts)
        evidence = list(evidence)
        participants = list(participants)
        # checked here, not in Fact, which every fact read builds
        for stamp in [created_at, *(stamp for fact in facts for stamp in
                                    (fact.created_at, fact.valid_from, fact.valid_to))]:
            if stamp is not None:
                ontology.parse_iso_datetime(stamp)
        created_at = created_at or event.anchor_datetime

        known = self._entity_dicts(
            [entity_id for entity_id, _role in participants]
            + [fact.subject_id for fact in facts]
        )
        for entity_id, _role in participants:
            if entity_id not in known:
                raise DanglingReference(f"unknown entity id {entity_id}")
        for fact in facts:
            if fact.subject_id not in known:
                raise DanglingReference(f"unknown subject id {fact.subject_id}")

        last_ids = self.last_ids()
        event_id = last_ids["events"] + 1
        fact_base = last_ids["facts"] + 1
        fact_ids = list(range(fact_base, fact_base + len(facts)))
        evidence_base = last_ids["evidence"] + 1

        rows: dict = {
            "events": [
                {
                    "id": event_id,
                    "event_type": event.event_type,
                    "anchor_datetime": event.anchor_datetime,
                    "location": event.location,
                    "created_at": created_at,
                }
            ],
            "facts": [],
            "evidence": [],
            "event_participants": [
                {"event_id": event_id, "entity_id": entity_id, "role": role.value}
                for entity_id, role in participants
            ],
        }

        for fact, fact_id in zip(facts, fact_ids):
            value_json = json.dumps(
                ontology.serialize_value(fact.value, fact.dtype), sort_keys=True
            )
            rows["facts"].append(
                {
                    "id": fact_id,
                    "subject_id": fact.subject_id,
                    "property_name": fact.property_name,
                    "value_json": value_json,
                    "dtype": fact.dtype.value,
                    "valid_from": fact.valid_from,
                    "valid_to": fact.valid_to,
                    "confidence": fact.confidence,
                    "created_at": fact.created_at or created_at,
                }
            )

        evidence_ids = []
        for offset, item in enumerate(evidence):
            evidence_id = evidence_base + offset
            turn_text = self.turn_text(item.turn_id)
            if turn_text is None:
                raise DanglingReference(f"unknown turn id {item.turn_id}")
            start, end = item.text_span
            if not (0 <= start < end <= len(turn_text)):
                raise ValidationFailure(
                    f"evidence span {item.text_span} outside turn text"
                )
            if turn_text[start:end] != item.quoted_text:
                raise ValidationFailure(
                    "quoted_text does not match the turn text at its span"
                )
            fact_ref = None
            if item.fact_id is not None:
                # fact_id is a position in this bundle's facts
                if not 0 <= item.fact_id < len(facts):
                    raise DanglingReference(
                        f"evidence fact index {item.fact_id} is outside the "
                        f"bundle's {len(facts)} facts"
                    )
                fact_ref = fact_ids[item.fact_id]
            rows["evidence"].append(
                {
                    "id": evidence_id,
                    "fact_id": fact_ref,
                    "event_id": event_id,
                    "turn_id": item.turn_id,
                    "span_start": start,
                    "span_end": end,
                    "quoted_text": item.quoted_text,
                }
            )
            evidence_ids.append(evidence_id)

        self._commit({"op": "event_bundle", "rows": rows})
        return CommittedBundle(event_id, fact_ids, evidence_ids)

    def turn_text(self, turn_id: int) -> Optional[str]:
        """The text of a committed turn, or None. Turns are never updated, so
        the last batch this handle committed is answered from memory."""
        text = self._batch_texts.get(turn_id)
        if text is not None:
            return text
        row = self._conn.execute(
            "SELECT text FROM turns WHERE id = ?", (turn_id,)
        ).fetchone()
        return row[0] if row else None

    # -- temporal fact queries -----------------------------------------

    def _kept_history(self, subject_id: int) -> Dict[str, List[tuple]]:
        """The subject's facts, decoded once and kept for the life of the
        store: by property name, in name order, the entries (valid_from key,
        created_at key, id, fact) in ascending order, the keys as
        ``temporal_sort_key`` makes them. Ids only grow, so an entry is
        extended with the facts above the last id it covers, in one
        statement, and with none when nothing was committed since."""
        self._sync_ids()
        last = self._last_ids["facts"]
        kept = self._subjects[subject_id]
        if kept.facts_to < last:
            added: Dict[str, List[tuple]] = {}
            for row in self._conn.execute(
                "SELECT * FROM facts WHERE subject_id = ? AND id > ? AND id <= ?",
                (subject_id, kept.facts_to, last),
            ):
                added.setdefault(row[2], []).append((
                    temporal_sort_key(row[5]), temporal_sort_key(row[8]), row[0],
                    self._row_to_fact(row),
                ))
            if added:
                # ids are unique, so the sorts never compare two facts
                merged = dict(kept.facts)
                for prop, entries in added.items():
                    merged[prop] = sorted([*merged.get(prop, ()), *entries])
                kept.facts = dict(sorted(merged.items()))
            kept.facts_to = last
        return kept.facts

    def fact_lines(self, subject_id: int) -> Dict[int, Tuple[str, str]]:
        """The subject's slot for its facts' rendered lines, by fact id,
        kept for the life of the store. A fact never changes, so its lines
        are rendered once, by whoever first fills the slot."""
        return self._subjects[subject_id].lines

    @staticmethod
    def _in_force(entries: Sequence[tuple], cutoff: Optional[str]) -> List[Fact]:
        """The as-of rule of the engine: with ``cutoff``, the
        ``temporal_sort_key`` of an as-of date, only the kept facts whose
        valid_from is unset (keyed "", before every cutoff) or at or before
        it. Since valid_from leads the kept order, they are a prefix of it.
        A fact with a list value is handed out with its own list."""
        end = len(entries) if cutoff is None else bisect_right(
            entries, cutoff, key=itemgetter(0))
        return [
            replace(fact, value=list(fact.value)) if fact.dtype is DType.list else fact
            for fact in map(itemgetter(3), entries[:end])
        ]

    def fact_history(
        self,
        subject_id: int,
        property_name: str,
        as_of: Optional[str] = None,
    ) -> list:
        """Matching facts, ascending by (valid_from, created_at, id) as
        instants, cut to ``as_of`` by the as-of rule (``_in_force``)."""
        return self._in_force(self._kept_history(subject_id).get(property_name, ()),
                              _cutoff(as_of))

    def subject_history(
        self, subject_id: int, as_of: Optional[str] = None
    ) -> Dict[str, List[Fact]]:
        """``fact_history`` of each property the subject has a fact of, even
        if none is in force at ``as_of``, by property name in name order."""
        cutoff = _cutoff(as_of)
        return {
            prop: self._in_force(entries, cutoff)
            for prop, entries in self._kept_history(subject_id).items()
        }

    def latest_fact(
        self,
        subject_id: int,
        property_name: str,
        as_of: Optional[str] = None,
    ) -> Optional[Fact]:
        """The last fact of ``fact_history``: the value in force at ``as_of``."""
        history = self.fact_history(subject_id, property_name, as_of)
        return history[-1] if history else None

    @staticmethod
    def _row_to_fact(row: tuple) -> Fact:
        return Fact(
            id=row[0],
            subject_id=row[1],
            property_name=row[2],
            value=json.loads(row[3]),  # Fact validates it under its dtype
            dtype=DType(row[4]),
            valid_from=row[5],
            valid_to=row[6],
            confidence=row[7],
            created_at=row[8],
        )

    # -- search text ---------------------------------------------------

    def lexical_documents(self, kind: str, after_id: int = 0) -> List[Tuple[int, str]]:
        """(doc_id, search text) of one index kind's rows whose id is above
        ``after_id``, ascending by doc_id."""
        if kind not in SEARCH_TEXT:
            raise UnknownView(f"unknown kind: {kind}")
        table, columns, render = SEARCH_TEXT[kind]
        key = _ID_COLUMNS[table]
        rows = self._conn.execute(
            f"SELECT {key}, {columns} FROM {table} WHERE {key} > ? ORDER BY {key}",
            (after_id,),
        )
        return [(row[0], render(row)) for row in rows]

    def kind_row(self, kind: str, doc_id: int, columns: Sequence[str]) -> Optional[tuple]:
        """The named columns of the base row behind one index document, or
        None if the store lacks it."""
        table = SEARCH_TEXT[kind][0]
        return self._conn.execute(
            f"SELECT {', '.join(columns)} FROM {table} WHERE {_ID_COLUMNS[table]} = ?",
            (doc_id,),
        ).fetchone()

    # -- introspection ---------------------------------------------------

    def row_counts(self) -> dict:
        return {
            table: self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in WHITELISTED_TABLES
        }

    @staticmethod
    def _entity_dict(row: tuple) -> dict:
        return {
            "entity_id": row[0],
            "entity_name": row[1],
            "entity_type": row[2],
            "role": row[3],
            "aliases": json.loads(row[4]),
            "external_id": row[5],
            "created_at": row[6],
        }

    @staticmethod
    def _fresh_entity(kept: dict) -> dict:
        """A caller's copy of a kept entity row, with its own aliases list."""
        return {**kept, "aliases": list(kept["aliases"])}

    def entity_row(self, entity_id: int) -> Optional[dict]:
        row = self._entity_dicts([entity_id]).get(entity_id)
        return None if row is None else self._fresh_entity(row)

    def _memo_rows(self, memo: Dict[int, object], table: str, columns: str,
                   ids: Iterable[int], decode) -> Dict[int, object]:
        """The row of each id that exists, by id, as ``decode`` makes it from
        the row's tuple. A row in ``memo`` is not read or decoded again; the
        others are read in one statement and kept there. An id found missing
        is not kept, since another connection may add it."""
        found, missing = {}, []
        for row_id in ids:
            row = memo.get(row_id)
            if row is None:
                missing.append(row_id)
            else:
                found[row_id] = row
        if missing:
            # the ids go in as one JSON array, so the statement text is the
            # same for any number of them and each connection prepares it once
            for row in self._conn.execute(
                f"SELECT {columns} FROM json_each(?) AS ids"
                f" CROSS JOIN {table} ON {table}.{_ID_COLUMNS[table]} = ids.value",
                (json.dumps(missing),),
            ):
                memo[row[0]] = found[row[0]] = decode(row)
        return found

    def _entity_dicts(self, entity_ids: Iterable[int]) -> Dict[int, dict]:
        """The kept entity rows; a caller outside the store gets copies."""
        return self._memo_rows(
            self._entity_memo, "entities", "entities.*", entity_ids, self._entity_dict,
        )

    def entity_rows(self, entity_ids: Iterable[int]) -> Dict[int, dict]:
        """``entity_row`` of each id that exists, in at most one statement."""
        return {entity_id: self._fresh_entity(row)
                for entity_id, row in self._entity_dicts(entity_ids).items()}

    def property_rows(self, property_ids: Iterable[int]) -> Dict[int, Tuple[str, str]]:
        """(property_name, dtype) of each id that exists, in at most one
        statement."""
        return self._memo_rows(
            self._property_memo, "properties", "property_id, property_name, dtype",
            property_ids, itemgetter(slice(1, None)),
        )

    def property_usage(self, names: Iterable[str]) -> Dict[str, int]:
        """Number of facts of each property name, in one statement. The
        NOCASE term selects the names' range of facts_property; the exact
        term keeps the count case-sensitive."""
        rows = self._conn.execute(
            "SELECT names.value, (SELECT COUNT(*) FROM facts"
            " WHERE property_name = names.value COLLATE NOCASE"
            " AND property_name = names.value) FROM json_each(?) AS names",
            (json.dumps(list(names)),),
        )
        return dict(rows.fetchall())

    def entity_anchors(self, entity_id: int) -> Tuple[str, ...]:
        """The distinct anchors of the events the entity takes part in, in
        time order: ascending by (``temporal_sort_key``, text), so that two
        spellings of one instant sort as text. Kept like a subject's facts,
        and extended with the events above the last id it covers."""
        self._sync_ids()
        last = self._last_ids["events"]
        kept = self._subjects[entity_id]
        if kept.events_to < last:
            added = {row[0] for row in self._conn.execute(
                "SELECT e.anchor_datetime FROM event_participants p"
                " JOIN events e ON e.id = p.event_id"
                " WHERE p.entity_id = ? AND p.event_id > ? AND p.event_id <= ?",
                (entity_id, kept.events_to, last),
            )}.difference(kept.anchors)
            if added:
                kept.anchors = tuple(sorted(
                    (*kept.anchors, *added), key=lambda a: (temporal_sort_key(a), a)))
            kept.events_to = last
        return kept.anchors

    def find_entity_by_name(self, name: str) -> Optional[dict]:
        """Case-insensitive match on canonical name or any alias; the lowest
        entity_id wins."""
        target = ontology.normalize_name(name).lower()
        for row in self._conn.execute("SELECT * FROM entities ORDER BY entity_id"):
            if row[1].lower() == target or any(
                alias.lower() == target for alias in json.loads(row[4])
            ):
                return self._entity_dict(row)
        return None

    def all_rows(self, table: str) -> list:
        if table not in WHITELISTED_TABLES:
            raise ValidationFailure(f"not a public table: {table}")
        cursor = self._conn.execute(f"SELECT * FROM {table}")
        columns = [c[0] for c in cursor.description]
        return [dict(zip(columns, row)) for row in cursor.fetchall()]

    def max_anchor_datetime(self) -> Optional[str]:
        anchors = [
            row[0]
            for row in self._conn.execute(
                "SELECT anchor_datetime FROM turns"
                " UNION SELECT anchor_datetime FROM events"
            ).fetchall()
        ]
        if not anchors:
            return None
        return max(anchors, key=temporal_sort_key)

    # -- replay and snapshots ----------------------------------------------

    def append_log(self) -> list:
        return [
            (row[0], json.loads(row[1]))
            for row in self._conn.execute(
                "SELECT sequence, payload FROM append_log ORDER BY sequence"
            ).fetchall()
        ]

    @classmethod
    def replay(cls, log: list) -> "Store":
        """Rebuild a store in memory by re-applying a recorded append log."""
        store = cls.open(":memory:")
        for sequence, payload in log:
            store._write(sequence, payload)
        store._conn.commit()
        store._load_ids()
        return store

    def canonical_dump(self) -> bytes:
        """Deterministic byte rendering of all committed rows.

        Used for replay equality and before/after immutability checks.
        """
        chunks = []
        for table in _COLUMNS:
            cursor = self._conn.execute(f"SELECT * FROM {table}")
            rows = sorted(repr(row) for row in cursor.fetchall())
            chunks.append(table + "\n" + "\n".join(rows))
        return "\n---\n".join(chunks).encode("utf-8")

    def readonly_connection(self) -> sqlite3.Connection:
        """The store's one read-only connection (the writer itself for
        ``:memory:``), opened on first use and closed by ``close()``.

        Each statement on it sees every row committed before it starts, so
        a caller must finish or close its cursors, or the connection stays
        on their snapshot. The caller must not rely on closing it: the
        store owns it, and opens a new one if it finds it closed."""
        if self.path == ":memory:":
            return self._conn
        if self._reader is not None:
            try:
                self._reader.in_transaction  # raises once the reader is closed
                return self._reader
            except sqlite3.ProgrammingError:
                pass
        try:
            # autocommit: no implicit BEGIN, so no statement can leave the
            # reader inside a transaction, pinned to an old snapshot
            self._reader = sqlite3.connect(
                f"file:{quote(self.path)}?mode=ro", uri=True, isolation_level=None
            )
        except sqlite3.Error as exc:
            raise IoFailure(f"cannot open a reader on store {self.path}: {exc}") from exc
        return self._reader

    def guarded_reader(self) -> Tuple[sqlite3.Connection, _Authorizer]:
        """``readonly_connection()`` with GraphSQL's authorizer on it. The
        authorizer is installed on the first call for each connection, so
        no statement the store prepared before is expired again."""
        conn = self.readonly_connection()
        if self._guarded is None or self._guarded[0] is not conn:
            self._guarded = (conn, _Authorizer())
            conn.set_authorizer(self._guarded[1])
        return self._guarded
