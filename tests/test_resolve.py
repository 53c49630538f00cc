import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from apexmem.errors import InvalidDecision, Unnormalizable
from apexmem.extract import ReferenceExtractor, ingest_session
from apexmem.index import VectorIndex, upsert_embeddings
from apexmem.ontology import DType, EntityType, Role, Turn
from apexmem.store import Store
from apexmem.resolve import (
    DEFAULT_K,
    Candidate,
    ResolutionDecision,
    RuleBasedProvider,
    normalize_snake_case,
    resolve_entity,
    render_entity_text,
    resolve_property,
    retrieve_entity_candidates,
    retrieve_property_candidates,
)
from conftest import ingest_case1

SNAKE = re.compile(r"^[a-z][a-z0-9_]*$")


@pytest.mark.parametrize("raw,expected", [
    ("Favorite Restaurant", "favorite_restaurant"),
    ("favoriteRestaurant", "favorite_restaurant"),
    ("has-children", "has_children"),
    ("  event date!  ", "event_date"),
    ("HTTPServer", "http_server"),
    ("already_snake_case", "already_snake_case"),
])
def test_normalize_snake_case_fixtures(raw, expected):
    assert normalize_snake_case(raw) == expected


def test_normalize_snake_case_unnormalizable():
    with pytest.raises(Unnormalizable):
        normalize_snake_case("!!!")
    with pytest.raises(Unnormalizable):
        normalize_snake_case("12345")


@settings(max_examples=300, deadline=None)
@given(st.text(min_size=0, max_size=60))
def test_normalize_snake_case_idempotent(raw):
    try:
        once = normalize_snake_case(raw)
    except Unnormalizable:
        return
    assert SNAKE.match(once)
    assert normalize_snake_case(once) == once


def test_candidate_score_bounds():
    with pytest.raises(Exception):
        Candidate(1, "x", 1.5)


def test_rule_based_provider_exact_match():
    provider = RuleBasedProvider()
    candidates = [Candidate(7, "Alice (Person)", 0.4, name="Alice")]
    decision = provider.decide("alice", "", candidates)
    assert decision.decision == "choose_existing"
    assert decision.id == 7
    assert decision.confidence >= 0.95


def test_rule_based_provider_threshold_bands():
    provider = RuleBasedProvider()
    high = provider.decide("x", "", [Candidate(1, "t", 0.97, name="other")])
    assert high.decision == "choose_existing"
    low = provider.decide("x", "", [Candidate(1, "t", 0.3, name="other")])
    assert low.decision == "propose_new"
    mid = provider.decide("x", "", [Candidate(1, "t", 0.9, name="other")])
    assert mid.decision == "none"
    empty = provider.decide("x", "", [])
    assert empty.decision == "propose_new"


def test_resolve_entity_existing(store, index):
    ingest_case1(store, index)
    decision = resolve_entity(store, index, RuleBasedProvider(), "Sakura Sushi")
    assert decision.decision == "choose_existing"
    assert store.entity_row(decision.id)["entity_name"] == "Sakura Sushi"


def test_resolve_entity_proposes_new_with_fresh_id(store, index):
    ingest_case1(store, index)
    decision = resolve_entity(
        store, index, RuleBasedProvider(), "Zanzibar Observatory",
        etype=EntityType.Place,
    )
    assert decision.decision == "propose_new"
    assert decision.id == store.peek_next_entity_id()
    assert store.entity_row(decision.id) is None
    assert decision.etype is EntityType.Place


def test_resolve_entity_rejects_unknown_choice(store, index):
    class BadProvider:
        def decide(self, mention, context, candidates):
            return ResolutionDecision(decision="choose_existing", id=424242)

    with pytest.raises(InvalidDecision):
        resolve_entity(store, index, BadProvider(), "anything")


@pytest.mark.parametrize("resolve", [resolve_entity, resolve_property])
def test_a_provider_that_returns_no_decision_is_refused(store, index, resolve):
    class NoDecision:
        def decide(self, mention, context, candidates):
            return None

    with pytest.raises(InvalidDecision):
        resolve(store, index, NoDecision(), "shoe size")


def test_retrieve_entity_candidates_scores_in_unit_interval(store, index):
    ingest_case1(store, index)
    for candidate in retrieve_entity_candidates(store, index, "garden"):
        assert 0.0 <= candidate.score <= 1.0


def test_candidates_follow_the_ranking_and_skip_rows_the_store_lacks(store, index):
    """One read per candidate set gives the rows of the per-id reads: the
    dense ranking's order, with ids the store does not hold left out."""
    ingest_case1(store, index)
    index.upsert("entity", 9001, "Italian Garden restaurant")
    index.upsert("property", 9002, "favorite restaurant")
    for kind, mention in (("entity", "Italian Garden"), ("property", "favorite_restaurant")):
        ranked = index.dense_scores(kind, index.embed(mention)).top(10)
        retrieve = retrieve_entity_candidates if kind == "entity" else retrieve_property_candidates
        candidates = retrieve(store, index, mention)
        assert [c.id for c in candidates] == [i for i, _ in ranked if i < 9000]
        assert len(candidates) == len(ranked) - 1
    for candidate in retrieve_entity_candidates(store, index, "Italian Garden"):
        row = store.entity_row(candidate.id)
        assert candidate.name == row["entity_name"]
        assert candidate.text == render_entity_text(
            row["entity_name"], row["entity_type"], row["aliases"])
    assert store.entity_rows([]) == {} and store.property_rows([]) == {}
    assert set(store.entity_rows([1, 9001])) == {1}


def test_resolve_property_exact_match_short_circuits(store, index):
    ingest_case1(store, index)
    decision = resolve_property(
        store, index, RuleBasedProvider(), "favorite_restaurant", "X"
    )
    assert decision.decision == "choose_existing"
    assert decision.normalized_name == "favorite_restaurant"


def _counting_reads(monkeypatch) -> Counter:
    """Count the calls of each row read of ``Store``."""
    reads = Counter()
    for name in ("entity_row", "entity_rows", "property_rows"):
        def counting(self, *args, _name=name, _original=getattr(Store, name)):
            reads[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Store, name, counting)
    return reads


def test_a_chosen_candidate_is_not_read_again(store, index, monkeypatch):
    """choose_existing of a candidate takes the row its candidate read
    returned; only an id outside the candidates costs another read."""
    ingest_case1(store, index)
    reads = _counting_reads(monkeypatch)

    class FirstCandidate:
        def decide(self, mention, context, candidates):
            return ResolutionDecision(decision="choose_existing", id=candidates[0].id)

    entity = resolve_entity(store, index, FirstCandidate(), "Alice")
    prop = resolve_property(store, index, FirstCandidate(), "restaurant favourite")
    assert reads == {"entity_rows": 1, "property_rows": 1}
    assert store.entity_row(entity.id) is not None
    assert prop.normalized_name == store.property_rows([prop.id])[prop.id][0]


def test_resolve_property_proposes_normalized_name(store, index):
    decision = resolve_property(
        store, index, RuleBasedProvider(), "Shoe Size", 42
    )
    assert decision.decision == "propose_new"
    assert decision.normalized_name == "shoe_size"
    assert decision.dtype is DType.int


def test_resolve_property_rejects_empty_name(store, index):
    with pytest.raises(InvalidDecision):
        resolve_property(store, index, RuleBasedProvider(), "", "x")


def test_a_repeated_mention_reads_no_row_until_its_kind_grows(store, index, monkeypatch):
    """A list whose ranking is still kept is handed out again, as a new
    list of the same candidates; a new vector of the kind drops it."""
    ingest_case1(store, index)
    entities = retrieve_entity_candidates(store, index, "Alice")
    properties = retrieve_property_candidates(store, index, "favorite_restaurant")
    reads = _counting_reads(monkeypatch)
    for _ in range(3):
        again = retrieve_entity_candidates(store, index, "Alice")
        assert again == entities and again is not entities
        again.clear()  # the kept list is not the caller's
        assert retrieve_property_candidates(store, index, "favorite_restaurant") == properties
    assert reads == {}
    store.append_entity("Alicia", "Person", Role.Mentioned, created_at="2024-04-01")
    upsert_embeddings(store, index)
    grown = retrieve_entity_candidates(store, index, "Alice")
    assert reads == {"entity_rows": 1}
    assert "Alicia" in {c.name for c in grown}
    assert retrieve_property_candidates(store, index, "favorite_restaurant") == properties
    assert reads == {"entity_rows": 1}


def test_a_list_that_left_an_id_out_is_built_again(store, index, monkeypatch):
    """An id ranked without a row may get one later, so a list that left it
    out is not kept; once the row is committed, its candidate is listed."""
    ingest_case1(store, index)
    orphan = store.peek_next_entity_id()
    index.upsert("entity", orphan, "Italian Garden restaurant")
    reads = _counting_reads(monkeypatch)
    before = retrieve_entity_candidates(store, index, "Italian Garden")
    assert orphan not in {c.id for c in before}
    assert store.append_entity("Italian Garden Cafe", "Place", created_at="2024-04-01") == orphan
    after = retrieve_entity_candidates(store, index, "Italian Garden")
    assert reads == {"entity_rows": 2}
    assert [c.id for c in after] == [
        doc_id for doc_id, _ in index.nearest("entity", "Italian Garden", DEFAULT_K)]
    assert retrieve_entity_candidates(store, index, "Italian Garden") == after
    assert reads == {"entity_rows": 2}


def _fresh_candidates(store, index, kind, text):
    """The candidates of ``text`` built from a full scan and row reads."""
    ranked = index.dense_scores(kind, index.embed(text)).top(DEFAULT_K)
    ids = [doc_id for doc_id, _ in ranked]
    if kind == "entity":
        described = {
            entity_id: (row["entity_name"], render_entity_text(
                row["entity_name"], row["entity_type"], row["aliases"]))
            for entity_id, row in store.entity_rows(ids).items()}
    else:
        described = {property_id: (name, f"{name} ({dtype})")
                     for property_id, (name, dtype) in store.property_rows(ids).items()}
    return [Candidate(doc_id, described[doc_id][1], max(0.0, min(1.0, score)),
                      described[doc_id][0])
            for doc_id, score in ranked if doc_id in described]


class _Abort(BaseException):
    """Escapes ingest_session's per-turn handling: the session rolls back."""


class _CheckingProvider(RuleBasedProvider):
    """The reference decisions, after recording whether the candidates it
    is handed equal a fresh build. The mention "Zed Bar" fails its turn and
    "Quit" ends the session with an escaping exception."""

    def __init__(self, kind, state):
        self.kind, self.state = kind, state

    def decide(self, mention, context, candidates):
        text = mention if self.kind == "entity" else normalize_snake_case(mention)
        store, index = self.state["store"], self.state["index"]
        self.state["checks"].append(
            (candidates, _fresh_candidates(store, index, self.kind, text)))
        if mention == "Zed Bar":
            raise RuntimeError("the turn fails")
        if mention == "Quit":
            raise _Abort()
        return super().decide(mention, context, candidates)


_KIND_TEXTS = st.sampled_from(["Alice", "alice", "Sakura Sushi", "Zed Bar", "favorite_color",
                               "favourite colour", "sushi"])
_SESSION_TURNS = st.lists(st.tuples(
    st.sampled_from(["Alice", "Alicia", "Bob", "Quit"]),
    st.sampled_from(["Sakura Sushi", "Sakura Bar", "Italian Garden", "Zed Bar"]),
    st.sampled_from(["favorite color", "favourite colour", "favorite food"]),
    st.sampled_from(["blue", "green"]),
), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("session"), _SESSION_TURNS),
    st.tuples(st.sampled_from(["orphan", "query"]), st.sampled_from(["entity", "property"]),
              _KIND_TEXTS),
    st.tuples(st.just("switch")),
), max_size=12))
def test_kept_candidate_lists_equal_fresh_ones(steps):
    """Sessions with failed turns and rolled-back sessions, vectors indexed
    before their rows are committed, and one index used with two stores, in
    any order: every candidate list of either kind equals a fresh build."""
    stores = [Store.open(":memory:"), Store.open(":memory:")]
    state = {"store": stores[0], "index": VectorIndex(), "checks": []}
    extractor = ReferenceExtractor()
    entity_provider = _CheckingProvider("entity", state)
    property_provider = _CheckingProvider("property", state)
    try:
        for number, step in enumerate(steps):
            store, index = state["store"], state["index"]
            if step[0] == "session":
                turns = [Turn(None, f"s{number}", speaker, "Assistant",
                              f"I love {place}. My {prop} is {value}.",
                              f"2024-01-{1 + number:02d}T10:00:00Z", ordinal)
                         for ordinal, (speaker, place, prop, value) in enumerate(step[1])]
                try:
                    ingest_session(store, index, extractor, entity_provider,
                                   property_provider, turns)
                except _Abort:
                    pass
            elif step[0] == "orphan":
                table = "entities" if step[1] == "entity" else "properties"
                index.upsert(step[1], store.last_ids()[table] + 1, step[2])
            elif step[0] == "query":
                retrieve = (retrieve_entity_candidates if step[1] == "entity"
                            else retrieve_property_candidates)
                state["checks"].append(
                    (retrieve(store, index, step[2]),
                     _fresh_candidates(store, index, step[1], step[2])))
            else:
                state["store"] = stores[stores[0] is store]
            for kept, fresh in state["checks"]:
                assert kept == fresh
            state["checks"].clear()
    finally:
        for store in stores:
            store.close()
