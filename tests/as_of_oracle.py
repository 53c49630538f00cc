"""A brute-force oracle of the as-of rule, built from ``Store.all_rows``
alone: it calls no other read method of the store, and compares stamps as
``datetime`` instants, not as the engine's sort keys. Its search ranking
takes each channel's raw scores from the index as given.

The rule: a question date D is an instant, and a date-only D is the last
second of its UTC day. A row is known at D when its known-at stamp is at or
before D: ``created_at`` for entities, properties, facts and events,
``anchor_datetime`` for turns, and the turn's ``anchor_datetime`` for
evidence. A fact is in force at D when its ``valid_from`` is unset or at or
before D. An entity document lists the anchor of an event known at D when
that anchor is at or before D. Nothing reads ``valid_to``.
"""
import json
from datetime import date, datetime, timezone
from itertools import groupby

from apexmem.index import POOL_MULTIPLIER, HybridScore, fuse
from apexmem.ontology import DType, Fact
from apexmem.tools import CHAR_CAP

# table -> (id column, known-at column) of each table with a known-at stamp
# of its own; evidence takes its turn's
KNOWN_AT = {
    "entities": ("entity_id", "created_at"),
    "properties": ("property_id", "created_at"),
    "facts": ("id", "created_at"),
    "events": ("id", "created_at"),
    "turns": ("id", "anchor_datetime"),
}
KIND_TABLES = {"entity": "entities", "property": "properties", "event": "events",
               "evidence": "evidence", "turn": "turns"}


def instant(stamp):
    """An ISO-8601 stamp as an aware UTC datetime, to the second."""
    text = stamp.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc).replace(microsecond=0)


def cutoff(as_of):
    """The last instant counted at ``as_of``, or None for no question date."""
    if as_of is None:
        return None
    try:
        day = date.fromisoformat(as_of.strip())
    except ValueError:
        return instant(as_of)
    return datetime(day.year, day.month, day.day, 23, 59, 59, tzinfo=timezone.utc)


def _by(end, stamp):
    return end is None or instant(stamp) <= end


def known_rows(store, as_of):
    """Each table's rows known at ``as_of``, by table name."""
    end = cutoff(as_of)
    rows = {table: store.all_rows(table) for table in (*KNOWN_AT, "evidence")}
    known = {table: [row for row in rows[table] if _by(end, row[column])]
             for table, (_id, column) in KNOWN_AT.items()}
    turn_anchors = {turn["id"]: turn["anchor_datetime"] for turn in rows["turns"]}
    known["evidence"] = [row for row in rows["evidence"]
                         if _by(end, turn_anchors[row["turn_id"]])]
    return known


def known_ids(store, as_of):
    """The ids of the rows of each index kind known at ``as_of``, by kind."""
    known = known_rows(store, as_of)
    return {kind: {row[KNOWN_AT.get(table, ("id",))[0]] for row in known[table]}
            for kind, table in KIND_TABLES.items()}


def _as_of_order(fact):
    valid_from = fact["valid_from"]
    return (fact["subject_id"], fact["property_name"], valid_from is not None,
            valid_from and instant(valid_from), instant(fact["created_at"]), fact["id"])


def facts_in_force(store, as_of):
    """The fact rows known and in force at ``as_of``, by subject, then by
    property name, then in the as-of order (valid_from, unset first;
    created_at; id)."""
    end = cutoff(as_of)
    return sorted((fact for fact in known_rows(store, as_of)["facts"]
                   if fact["valid_from"] is None or _by(end, fact["valid_from"])),
                  key=_as_of_order)


def fact(row):
    """The ``Fact`` of a fact row, its value decoded under its dtype."""
    return Fact(row["id"], row["subject_id"], row["property_name"],
                json.loads(row["value_json"]), DType(row["dtype"]), row["valid_from"],
                row["valid_to"], row["confidence"], row["created_at"])


def anchors(store, entity_id, as_of):
    """The distinct anchors of the entity's events known at ``as_of`` that
    are at or before it, in time order (equal instants as text)."""
    end = cutoff(as_of)
    events = {row["id"]: row["anchor_datetime"] for row in known_rows(store, as_of)["events"]}
    listed = {events[row["event_id"]] for row in store.all_rows("event_participants")
              if row["entity_id"] == entity_id and row["event_id"] in events}
    return tuple(sorted((anchor for anchor in listed if _by(end, anchor)),
                        key=lambda anchor: (instant(anchor), anchor)))


def usage(store, names, as_of):
    """The number of facts of each property name known at ``as_of``."""
    facts = known_rows(store, as_of)["facts"]
    return {name: sum(row["property_name"] == name for row in facts) for name in names}


def table(headers, rows):
    """A markdown table, each string cell escaped and any other JSON."""
    def cell(value):
        if isinstance(value, str):
            return value.replace("|", "\\|").replace("\n", " ")
        return json.dumps(value)

    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(cell(value) for value in row) + " |")
    return "\n".join(lines)


def _jsonable(value):
    return value.isoformat() if isinstance(value, date) else value


def _capped(text):
    if len(text) <= CHAR_CAP:
        return text
    return text[:CHAR_CAP] + f"\n... truncated at {CHAR_CAP} characters"


def document(store, entity_id, as_of=None):
    """The entity document at ``as_of``, each row rendered afresh: the
    latest fact in force of each property, the whole history in force, and
    the anchors; the last anchor is the last listed (of a date and its
    midnight, the midnight). None for an entity the store lacks or that is not known."""
    entity = next((row for row in store.all_rows("entities")
                   if row["entity_id"] == entity_id), None)
    if entity is None or not _by(cutoff(as_of), entity["created_at"]):
        return None
    latest_rows, history_rows = [], []
    subject_facts = [fact(row) for row in facts_in_force(store, as_of)
                     if row["subject_id"] == entity_id]
    for prop, history in groupby(subject_facts, key=lambda f: f.property_name):
        history = list(history)
        latest = history[-1]
        latest_rows.append([prop, json.dumps(_jsonable(latest.value)), latest.valid_from or ""])
        history_rows += [[prop, json.dumps(_jsonable(f.value)), f.valid_from or "",
                          f.valid_to or "", f.created_at or ""] for f in history]
    listed = anchors(store, entity_id, as_of)
    last_anchor = listed[-1] if listed else None
    return "\n".join([
        f"### {entity['entity_name']} ({entity['entity_type']}) — ent:{entity_id}",
        f"last_anchor: {last_anchor or 'n/a'}",
        f"anchors: {', '.join(listed) or 'n/a'}",
        "",
        "Latest property values:",
        table(["property", "value", "valid_from"], latest_rows),
        "",
        "Full fact history:",
        table(["property", "value", "valid_from", "valid_to", "created_at"], history_rows),
    ])


def hybrid(store, index, kinds, query, k, as_of):
    """``hybrid_search``'s ranking, worked out over the rows known at
    ``as_of``: each channel's scores of every row, as the index gives them,
    filtered to the known rows, sorted, and cut to the pool, then fused."""
    known = known_ids(store, as_of)
    query_vector = index.embed(query)
    pool = POOL_MULTIPLIER * k
    ranked = []
    for kind in sorted(set(kinds)):
        channels = []
        for scores in (index.dense_scores(kind, query_vector),
                       index.lexical_scores(store, kind, query)):
            channels.append({doc_id: value for doc_id, value in
                             zip(scores.doc_ids.tolist(), scores.values.tolist())
                             if doc_id in known[kind]})
        dense_all, lexical_all = channels
        dense, lexical = (
            dict(sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:pool])
            for scores in channels)
        for doc_id in lexical:
            dense.setdefault(doc_id, dense_all.get(doc_id, 0.0))
        lexical_raw = [lexical.get(doc_id, 0.0) for doc_id in dense]
        for (doc_id, dense_raw), lexical_score, score in zip(
                dense.items(), lexical_raw, fuse(list(dense.values()), lexical_raw)):
            ranked.append((-score, kind, doc_id, dense_raw, lexical_score))
    ranked.sort()
    return [(doc_id, kind, HybridScore(dense_raw, lexical_score, -negated))
            for negated, kind, doc_id, dense_raw, lexical_score in ranked[:k]]


def lookup(store, index, query, k, as_of):
    """``entity_lookup``'s text: the documents of the ranked known entities."""
    documents = [text for doc_id, _kind, _score in hybrid(store, index, ["entity"], query, k, as_of)
                 if (text := document(store, doc_id, as_of)) is not None]
    return _capped("\n\n".join(documents)) if documents else "No matching entities."


# search's sections: title, headers, and per kind the cells of a hit's row
_SECTIONS = (
    ("Entities", ["id", "name", "type", "score"], {
        "entity": lambda row: [f"ent:{row['entity_id']}", row["entity_name"],
                               row["entity_type"]]}),
    ("Properties", ["property_name", "dtype", "score"], {
        "property": lambda row: [row["property_name"], row["dtype"]]}),
    ("Events and evidence", ["kind", "id", "summary", "score"], {
        "event": lambda row: ["event", row["id"],
                              f"{row['event_type']} @ {row['anchor_datetime']}"],
        "evidence": lambda row: ["evidence", row["id"], row["quoted_text"]]}),
    ("Turns", ["id", "speaker", "text", "anchor_datetime", "score"], {
        "turn": lambda row: [row["id"], row["speaker"], row["text"], row["anchor_datetime"]]}),
)


def search_text(store, index, query, k, as_of):
    """``search``'s text: four sections of the ranked known rows."""
    rows = {kind: {row[KNOWN_AT.get(table, ("id",))[0]]: row
                   for row in store.all_rows(table)}
            for kind, table in KIND_TABLES.items()}
    sections = []
    for title, headers, kinds in _SECTIONS:
        cells = [[*kinds[kind](rows[kind][doc_id]), f"{score.fused:.4f}"]
                 for doc_id, kind, score in hybrid(store, index, kinds, query, k, as_of)]
        sections.append(f"{title}:\n" + table(headers, cells))
    return _capped("\n\n".join(sections))
