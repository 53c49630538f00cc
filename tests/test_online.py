import pytest
from hypothesis import example, given, settings, strategies as st

from apexmem.errors import ValidationFailure
from apexmem.index import FUSION_ALPHA, VectorIndex, bm25_scores, cosine
from apexmem.online import (
    DEFAULT_THETA_REL,
    Document,
    OnlineConfig,
    RelevanceScore,
    build_online,
    document_from_json,
    score_relevance,
)
from apexmem.ontology import Turn
from apexmem.store import Store
from conftest import CASE1_SESSIONS, ingest_case1, reference_pipeline
from test_index import dict_minmax


def _doc(doc_id, timestamp, text):
    return Document(doc_id, timestamp, (
        Turn(None, doc_id, "Alice", "Assistant", text, timestamp, 0),
    ))


CORPUS = [
    _doc("d1", "2024-01-15T10:00:00Z",
         "I love Italian Garden! Their pasta is the best in town."),
    _doc("d2", "2024-02-10T09:00:00Z", "The weather has been gloomy lately."),
    _doc("d3", "2024-03-20T10:00:00Z",
         "Italian Garden closed down last month. "
         "Now I go to Sakura Sushi every week instead."),
]


def test_default_theta():
    assert DEFAULT_THETA_REL == 0.2
    assert OnlineConfig().theta_rel == 0.2
    with pytest.raises(Exception):
        OnlineConfig(theta_rel=1.5)


def test_score_relevance_unit_interval_and_degenerate():
    index = VectorIndex()
    scores = score_relevance(CORPUS, "favorite restaurant sushi", index)
    assert len(scores) == 3
    assert all(0.0 <= s.score <= 1.0 for s in scores)
    single = score_relevance(CORPUS[:1], "anything", index)
    assert single[0].score == 1.0


def oracle_score_relevance(corpus, question, index):
    """The relevance rule written with dicts: each channel min-max
    normalized, mixed by alpha, and the mix min-max normalized again."""
    question_vector = index.embed(question)
    keyed = list(enumerate(corpus))
    dense = {i: cosine(question_vector, index.embed(doc.text())) for i, doc in keyed}
    lexical = bm25_scores([(i, doc.text()) for i, doc in keyed], question)
    dense_norm = dict_minmax(dense)
    lexical_norm = dict_minmax({i: lexical.get(i, 0.0) for i, _ in keyed})
    fused = dict_minmax({
        i: FUSION_ALPHA * dense_norm[i] + (1.0 - FUSION_ALPHA) * lexical_norm[i]
        for i, _ in keyed
    })
    return [RelevanceScore(doc.doc_id, fused[i]) for i, doc in keyed]


_WORDS = ("sushi", "garden", "pasta", "weather", "Alice", "week")
_TEXTS = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5).map(" ".join)


@settings(max_examples=60, deadline=None)
@given(st.lists(_TEXTS, max_size=8), _TEXTS)
@example(["pasta"], "sushi")  # one document
@example(["sushi garden"] * 3, "sushi")  # all-equal scores in both channels
@example(["pasta", "weather"], "garden")  # no lexical hit
def test_score_relevance_matches_the_dict_oracle(texts, question):
    """Every relevance score is bit-equal to the dict-based rule's."""
    corpus = [_doc(f"d{i}", "2024-01-01T00:00:00Z", text) for i, text in enumerate(texts)]
    got = score_relevance(corpus, question, VectorIndex())
    want = oracle_score_relevance(corpus, question, VectorIndex())
    assert [(s.doc_id, s.score.hex()) for s in got] == [
        (s.doc_id, s.score.hex()) for s in want]


def test_gating_fixture_selects_docs_1_and_3(store, index):
    extractor, entities, properties = reference_pipeline()
    fixture_scores = [
        RelevanceScore("d1", 0.9),
        RelevanceScore("d2", 0.15),
        RelevanceScore("d3", 0.4),
    ]
    report = build_online(
        store, index, extractor, entities, properties, CORPUS,
        "What is Alice's favorite restaurant?",
        OnlineConfig(theta_rel=0.2), scores=fixture_scores,
    )
    assert [r.doc_id for r in report.selected] == ["d1", "d3"]
    assert [r.doc_id for r in report.skipped] == ["d2"]


def test_gating_is_strict_inequality(store, index):
    extractor, entities, properties = reference_pipeline()
    scores = [RelevanceScore("d1", 0.2), RelevanceScore("d2", 0.21),
              RelevanceScore("d3", 0.0)]
    report = build_online(
        store, index, extractor, entities, properties, CORPUS,
        "q", OnlineConfig(theta_rel=0.2), scores=scores,
    )
    assert [r.doc_id for r in report.selected] == ["d2"]


def test_selection_is_timestamp_ordered(store, index):
    extractor, entities, properties = reference_pipeline()
    shuffled = [CORPUS[2], CORPUS[0], CORPUS[1]]
    scores = [RelevanceScore(d.doc_id, 0.9) for d in shuffled]
    report = build_online(
        store, index, extractor, entities, properties, shuffled,
        "q", OnlineConfig(theta_rel=0.2), scores=scores,
    )
    assert [r.doc_id for r in report.selected] == ["d1", "d2", "d3"]


def test_theta_zero_reproduces_offline_ingestion(index):
    online_store = Store.open(":memory:")
    extractor, entities, properties = reference_pipeline()
    build_online(
        online_store, VectorIndex(), extractor, entities, properties,
        [CORPUS[0], CORPUS[2]], "q", OnlineConfig(theta_rel=0.0),
        scores=[RelevanceScore("d1", 0.5), RelevanceScore("d3", 0.5)],
    )

    offline_store = Store.open(":memory:")
    ingest_case1(offline_store, VectorIndex())

    online_alice = online_store.find_entity_by_name("Alice")
    offline_alice = offline_store.find_entity_by_name("Alice")
    online_fact = online_store.latest_fact(
        online_alice["entity_id"], "favorite_restaurant", "2024-04-01T00:00:00Z")
    offline_fact = offline_store.latest_fact(
        offline_alice["entity_id"], "favorite_restaurant", "2024-04-01T00:00:00Z")
    assert online_fact.value == offline_fact.value
    online_store.close()
    offline_store.close()


def test_document_timestamp_must_be_iso():
    with pytest.raises(ValidationFailure):
        _doc("d1", "March 1", "hi")
    with pytest.raises(ValidationFailure):
        document_from_json({"doc_id": "d1", "timestamp": "March 1", "turns": []})


def test_document_from_json_round_trip():
    doc = document_from_json({
        "doc_id": "d9",
        "timestamp": "2024-01-01T00:00:00Z",
        "turns": [{
            "ordinal": 0, "speaker": "A", "listener": "B",
            "text": "hi", "anchor_datetime": "2024-01-01T00:00:00Z",
        }],
    })
    assert doc.doc_id == "d9"
    assert doc.turns[0].text == "hi"
