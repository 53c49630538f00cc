"""Query-time graph construction: score corpus relevance to the question
and only ingest the relevant, temporally ordered subset.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import extract
from .errors import ValidationFailure
from .index import VectorIndex, bm25_scores, cosine, fuse, minmax_normalize
from .ontology import Turn, parse_iso_datetime, temporal_sort_key
from .store import Store

DEFAULT_THETA_REL = 0.2


@dataclass(frozen=True)
class OnlineConfig:
    theta_rel: float = DEFAULT_THETA_REL

    def __post_init__(self):
        if not 0.0 <= self.theta_rel <= 1.0:
            raise ValidationFailure(f"theta_rel out of range: {self.theta_rel}")


@dataclass(frozen=True)
class Document:
    doc_id: str
    timestamp: str
    turns: tuple

    def __post_init__(self):
        parse_iso_datetime(self.timestamp)

    def text(self) -> str:
        return "\n".join(turn.text for turn in self.turns)


@dataclass(frozen=True)
class RelevanceScore:
    doc_id: str
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValidationFailure(f"relevance score out of range: {self.score}")


@dataclass
class IngestionReport:
    selected: List[RelevanceScore] = field(default_factory=list)
    skipped: List[RelevanceScore] = field(default_factory=list)
    outcomes: Dict[str, list] = field(default_factory=dict)


def score_relevance(
    corpus: List[Document],
    question: str,
    index: Optional[VectorIndex] = None,
) -> List[RelevanceScore]:
    """Per-document fused hybrid score, min-max normalized to [0,1] over the
    corpus. A single document (or all-equal raw scores) normalizes to 1.0."""
    if not corpus:
        return []
    index = index or VectorIndex()
    question_vector = index.embed(question)
    texts = [doc.text() for doc in corpus]
    dense_raw = [cosine(question_vector, index.embed(text)) for text in texts]
    lexical_raw = bm25_scores(list(enumerate(texts)), question)
    fused = fuse(dense_raw, [lexical_raw.get(i, 0.0) for i in range(len(texts))])
    normalized = minmax_normalize(dict(enumerate(fused)))
    return [RelevanceScore(doc.doc_id, normalized[i]) for i, doc in enumerate(corpus)]


def build_online(
    store: Store,
    index: VectorIndex,
    extractor,
    entity_provider,
    property_provider,
    corpus: List[Document],
    question: str,
    config: Optional[OnlineConfig] = None,
    scores: Optional[List[RelevanceScore]] = None,
) -> IngestionReport:
    """Ingest documents scoring strictly above theta_rel, in ascending
    timestamp order. ``scores`` may inject precomputed relevance (fixtures,
    external scorers); by default they are computed here."""
    config = config or OnlineConfig()
    if scores is None:
        scores = score_relevance(corpus, question, index)
    by_id = {score.doc_id: score for score in scores}

    report = IngestionReport()
    selected = []
    for doc in corpus:
        score = by_id.get(doc.doc_id, RelevanceScore(doc.doc_id, 0.0))
        if score.score > config.theta_rel:
            selected.append((doc, score))
        else:
            report.skipped.append(score)

    selected.sort(key=lambda pair: temporal_sort_key(pair[0].timestamp))
    report.selected = [score for _doc, score in selected]

    for doc, _score in selected:
        outcomes = extract.ingest_session(
            store, index, extractor, entity_provider, property_provider,
            list(doc.turns),
        )
        report.outcomes[doc.doc_id] = outcomes
    return report


def document_from_json(raw: dict) -> Document:
    """Corpus JSONL contract: {doc_id, timestamp, turns: [turn objects]}."""
    turns = tuple(
        Turn(
            id=None,
            session_id=t.get("session_id", raw["doc_id"]),
            ordinal=t["ordinal"],
            speaker=t["speaker"],
            listener=t["listener"],
            text=t["text"],
            anchor_datetime=t["anchor_datetime"],
        )
        for t in raw["turns"]
    )
    return Document(doc_id=str(raw["doc_id"]), timestamp=raw["timestamp"], turns=turns)
