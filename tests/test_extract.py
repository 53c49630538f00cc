import pytest

from apexmem.errors import ApexMemError, UnparseableTemporal, ValidationFailure
from apexmem.extract import (
    ExtractionRequest,
    RawEventBundle,
    RawFact,
    RawParticipant,
    ReferenceExtractor,
    extract_turn,
    ingest_session,
    normalize_temporal,
)
from apexmem.index import upsert_embeddings
from apexmem.ontology import Turn
from apexmem.resolve import RuleBasedProvider
from conftest import CASE1_SESSIONS, ingest_case1, reference_pipeline

ANCHOR = "2023-05-08T14:00:00Z"


@pytest.mark.parametrize("expression,valid_from,valid_to", [
    # point expressions resolve to an open-ended interval starting that day
    ("yesterday", "2023-05-07", None),
    ("today", "2023-05-08", None),
    ("tomorrow", "2023-05-09", None),
    ("3 days ago", "2023-05-05", None),
    ("2 weeks ago", "2023-04-24", None),
    ("2023-01-15", "2023-01-15", None),
    # range expressions resolve to a closed calendar interval
    ("last week", "2023-05-01", "2023-05-07"),
    ("last month", "2023-04-01", "2023-04-30"),
])
def test_normalize_temporal_fixtures(expression, valid_from, valid_to):
    got_from, got_to = normalize_temporal(expression, ANCHOR)
    assert got_from == valid_from
    assert got_to == valid_to


def test_normalize_temporal_weekday_strictly_past():
    # 2023-05-08 is a Monday; "monday" must resolve to the previous Monday.
    got_from, _ = normalize_temporal("monday", ANCHOR)
    assert got_from == "2023-05-01"
    got_from, _ = normalize_temporal("friday", ANCHOR)
    assert got_from == "2023-05-05"


def test_normalize_temporal_last_month_clamps_day():
    got_from, got_to = normalize_temporal("last month", "2024-03-31T00:00:00Z")
    assert (got_from, got_to) == ("2024-02-01", "2024-02-29")


@pytest.mark.parametrize("expression,anchor", [
    ("tomorrow", "9999-12-31T00:00:00Z"),
    ("yesterday", "0001-01-01T00:00:00Z"),
    ("last week", "0001-01-03T00:00:00Z"),
    ("last month", "0001-01-15T00:00:00Z"),
    ("monday", "0001-01-01"),
    ("1 month ago", "0001-01-31"),
])
def test_a_relative_expression_outside_the_calendar_is_unparseable(expression, anchor):
    with pytest.raises(UnparseableTemporal, match="outside the calendar"):
        normalize_temporal(expression, anchor)


def test_normalize_temporal_rejects_unknown():
    with pytest.raises(UnparseableTemporal):
        normalize_temporal("once upon a time", ANCHOR)


def test_reference_extractor_signup_rule():
    turn = Turn(None, "c1", "Melanie", "Caroline",
                "I just signed up for a pottery class yesterday!", ANCHOR, 0)
    bundle = ReferenceExtractor().extract(ExtractionRequest(turn))
    props = {f.property_name: f.value for f in bundle.facts}
    assert props["activities_participated"] == "pottery class"
    assert bundle.event_type == "enrollment"
    assert bundle.temporal_expression == "yesterday"


def test_reference_extractor_has_children_rule():
    turn = Turn(None, "c1", "Melanie", "Caroline",
                "I have been swamped with the kids all week.", ANCHOR, 0)
    bundle = ReferenceExtractor().extract(ExtractionRequest(turn))
    props = {f.property_name: (f.value, f.dtype_name) for f in bundle.facts}
    assert props["has_children"] == (True, "bool")


def test_reference_extractor_food_cue_gates_restaurant():
    loves_food = Turn(None, "s", "A", "B",
                      "I love Italian Garden! Their pasta is great.",
                      ANCHOR, 0)
    loves_topic = Turn(None, "s", "A", "B", "I love Astronomy.", ANCHOR, 0)
    extractor = ReferenceExtractor()
    food = extractor.extract(ExtractionRequest(loves_food))
    topic = extractor.extract(ExtractionRequest(loves_topic))
    assert any(f.property_name == "favorite_restaurant" for f in food.facts)
    assert any(f.property_name == "likes" for f in topic.facts)


def test_extract_turn_requires_committed_turn(store, index):
    turn = Turn(None, "s", "A", "B", "hello", ANCHOR, 0)
    extractor = ReferenceExtractor()
    provider = RuleBasedProvider()
    with pytest.raises(ValidationFailure):
        extract_turn(store, index, extractor, provider, provider,
                     ExtractionRequest(turn))


def test_extract_turn_event_anchored_to_resolved_temporal(store, index):
    turn = Turn(None, "c1", "Melanie", "Caroline",
                "I just signed up for a pottery class yesterday!", ANCHOR, 0)
    [turn_id] = store.append_turns([turn])
    committed_turn = Turn(turn_id, "c1", "Melanie", "Caroline",
                          turn.text, ANCHOR, 0)
    provider = RuleBasedProvider()
    committed = extract_turn(store, index, ReferenceExtractor(), provider,
                             provider, ExtractionRequest(committed_turn))
    event = store.all_rows("events")[0]
    assert event["anchor_datetime"].startswith("2023-05-07")
    assert committed.fact_ids
    melanie = store.find_entity_by_name("Melanie")
    fact = store.latest_fact(melanie["entity_id"], "activities_participated",
                             "2030-01-01T00:00:00Z")
    assert fact.value == "pottery class"


class _FixedExtractor:
    def __init__(self, bundle):
        self.bundle = bundle

    def extract(self, request):
        return self.bundle


@pytest.mark.parametrize("fact", [
    RawFact("Alice", "!!!", "tea", "str"),
    RawFact("Alice", "favorite_drink", "tea", "str", validity_expression="someday"),
    RawFact("Alice", "birthday", "soon", "date"),
])
def test_a_turn_that_fails_validation_commits_nothing(store, index, fact):
    """A fact the extractor's output alone makes invalid fails the turn
    before its participants or the fact's subject are committed."""
    [turn_id] = store.append_turns([Turn(None, "s", "Zed", "Zed", "hello", ANCHOR, 0)])
    bundle = RawEventBundle(
        "conversation", participants=(RawParticipant("Zed", "Person", "Speaker"),),
        facts=(fact,))
    provider = RuleBasedProvider()
    with pytest.raises(ApexMemError):
        extract_turn(store, index, _FixedExtractor(bundle), provider, provider,
                     ExtractionRequest(Turn(turn_id, "s", "Zed", "Zed", "hello", ANCHOR, 0)))
    assert {table: n for table, n in store.row_counts().items() if n} == {"turns": 1}


def test_extract_links_evidence_spans(store, index):
    ingest_case1(store, index)
    rows = store.all_rows("evidence")
    assert rows
    for row in rows:
        turn_text = [t for t in store.all_rows("turns")
                     if t["id"] == row["turn_id"]][0]["text"]
        assert turn_text[row["span_start"]:row["span_end"]] == row["quoted_text"]
        assert row["fact_id"] is not None


def test_ingest_session_rejects_gap_in_ordinals(store, index):
    provider = RuleBasedProvider()
    turns = [
        Turn(None, "s", "A", "B", "hello", ANCHOR, 0),
        Turn(None, "s", "A", "B", "again", ANCHOR, 2),
    ]
    with pytest.raises(ValidationFailure):
        ingest_session(store, index, ReferenceExtractor(), provider, provider,
                       turns)


def test_a_session_that_fails_before_any_write_keeps_the_index(store, index):
    """A session whose first turn the store already holds fails before it
    writes a row, so the index keeps every vector it held: the next upsert
    embeds nothing again."""
    ingest_case1(store, index)
    held = dict(index.entries)
    with pytest.raises(ValidationFailure, match=r"duplicate turn \(s1, 0\)"):
        ingest_session(store, index, *reference_pipeline(), CASE1_SESSIONS[0])
    assert len(held) == 13
    assert dict(index.entries).keys() == held.keys()
    assert upsert_embeddings(store, index) == 0


def test_ingest_session_entity_dedupe_across_sessions(store, index):
    ingest_case1(store, index)
    names = [r["entity_name"] for r in store.all_rows("entities")]
    assert names.count("Alice") == 1
    assert names.count("Italian Garden") == 1
