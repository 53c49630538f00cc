import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from apexmem.errors import InvalidDecision, Unnormalizable
from apexmem.ontology import DType, EntityType, Role
from apexmem.store import Store
from apexmem.resolve import (
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


def test_a_chosen_candidate_is_not_read_again(store, index, monkeypatch):
    """choose_existing of a candidate takes the row its candidate read
    returned; only an id outside the candidates costs another read."""
    ingest_case1(store, index)
    reads = Counter()
    for name in ("entity_row", "entity_rows", "property_rows"):
        def counting(self, *args, _name=name, _original=getattr(Store, name)):
            reads[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Store, name, counting)

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
