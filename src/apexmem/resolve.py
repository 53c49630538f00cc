"""Entity and property canonicalization: candidate retrieval over the
dense index plus a pluggable structured decision provider.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Protocol, Tuple

from . import ontology
from .errors import InvalidDecision, ProviderFailure, Unnormalizable
from .index import VectorIndex
from .ontology import DType, EntityType
from .store import Store

DEFAULT_K = 10

# rule-based provider thresholds: choose_existing at or above the upper
# bound (or on exact match), propose_new below the lower bound, "none"
# in the ambiguous band between them
CHOOSE_THRESHOLD = 0.95
PROPOSE_THRESHOLD = 0.80


@dataclass(frozen=True)
class Candidate:
    id: int
    text: str
    score: float
    name: str = ""

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise InvalidDecision(f"candidate score out of range: {self.score}")


@dataclass(frozen=True)
class ResolutionDecision:
    decision: str  # choose_existing | propose_new | none
    id: Optional[int] = None
    normalized_name: str = ""
    etype: Optional[EntityType] = None
    dtype: Optional[DType] = None
    aliases: frozenset = frozenset()
    confidence: float = 0.0
    rationale: str = ""

    def __post_init__(self):
        if self.decision not in ("choose_existing", "propose_new", "none"):
            raise InvalidDecision(f"unknown decision: {self.decision!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise InvalidDecision(f"confidence out of range: {self.confidence}")
        object.__setattr__(self, "aliases", frozenset(self.aliases))


class DecisionProvider(Protocol):
    def decide(
        self, mention: str, context: str, candidates: List[Candidate]
    ) -> ResolutionDecision: ...


def normalize_snake_case(raw: str) -> str:
    """Lowercase, collapse non-alphanumeric runs to single underscores."""
    if not raw:
        raise Unnormalizable("empty property name")
    # split CamelCase boundaries before lowering
    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])", "_", raw)
    lowered = re.sub(r"[^a-z0-9]+", "_", spaced.lower()).strip("_")
    lowered = re.sub(r"^[0-9_]+", "", lowered)
    if not lowered or not re.match(r"^[a-z][a-z0-9_]*$", lowered):
        raise Unnormalizable(f"cannot normalize to snake_case: {raw!r}")
    return lowered


def render_entity_text(name: str, etype: str, aliases: Iterable[str]) -> str:
    alias_text = ", ".join(sorted(aliases))
    rendered = f"{name} ({etype})"
    if alias_text:
        rendered += f" — {alias_text}"
    return rendered


def _describe_entities(store: Store, entity_ids: Iterable[int]) -> Dict[int, Tuple[str, str]]:
    return {
        entity_id: (row["entity_name"], render_entity_text(
            row["entity_name"], row["entity_type"], row["aliases"]))
        for entity_id, row in store.entity_rows(entity_ids).items()
    }


def _describe_properties(store: Store, property_ids: Iterable[int]) -> Dict[int, Tuple[str, str]]:
    return {property_id: (name, f"{name} ({dtype})")
            for property_id, (name, dtype) in store.property_rows(property_ids).items()}


def _retrieve(store: Store, index: VectorIndex, kind: str, text: str,
              describe: Callable[[Store, Iterable[int]], Dict[int, Tuple[str, str]]],
              ) -> List[Candidate]:
    """The top-DEFAULT_K stored rows of ``kind`` by cosine similarity to the
    embedding of ``text``: ``index.nearest``'s ranking as candidates, in its
    order. ``describe`` gives the (name, text) of each ranked id the store
    has; the others are left out. Rows are never changed, so a list in
    which every ranked id had a row is kept with its ranking
    (``VectorIndex.derive_nearest``), and a repeat reads no row; a list
    that left an id out is not, since that row may be committed later."""
    def build(ranked: List[Tuple[int, float]]) -> Tuple[Tuple[Candidate, ...], bool]:
        described = describe(store, (doc_id for doc_id, _ in ranked))
        candidates = []
        for doc_id, score in ranked:
            if doc_id in described:
                name, text = described[doc_id]
                candidates.append(Candidate(doc_id, text, max(0.0, min(1.0, score)), name))
        return tuple(candidates), len(candidates) == len(ranked)

    return list(index.derive_nearest(store, kind, text, DEFAULT_K, build))


def retrieve_entity_candidates(
    store: Store, index: VectorIndex, mention: str
) -> List[Candidate]:
    """Top-DEFAULT_K stored entities by cosine similarity to the mention embedding."""
    return _retrieve(store, index, "entity", mention, _describe_entities)


def retrieve_property_candidates(
    store: Store, index: VectorIndex, name: str
) -> List[Candidate]:
    return _retrieve(store, index, "property", name, _describe_properties)


class RuleBasedProvider:
    """Deterministic reference provider.

    choose_existing on an exact case-insensitive name/alias match or a top
    candidate score >= 0.95; propose_new when the best score < 0.80; "none"
    in the ambiguous band.
    """

    def decide(
        self, mention: str, context: str, candidates: List[Candidate]
    ) -> ResolutionDecision:
        normalized = ontology.normalize_name(mention)
        for candidate in candidates:
            if candidate.name.lower() == normalized.lower():
                return ResolutionDecision(
                    decision="choose_existing",
                    id=candidate.id,
                    normalized_name=candidate.name,
                    confidence=max(candidate.score, 0.95),
                    rationale="exact case-insensitive name match",
                )
        if candidates and candidates[0].score >= CHOOSE_THRESHOLD:
            best = candidates[0]
            return ResolutionDecision(
                decision="choose_existing",
                id=best.id,
                normalized_name=best.name,
                confidence=best.score,
                rationale="top candidate above similarity threshold",
            )
        if not candidates or candidates[0].score < PROPOSE_THRESHOLD:
            return ResolutionDecision(
                decision="propose_new",
                normalized_name=normalized,
                confidence=0.5,
                rationale="no sufficiently similar candidate",
            )
        return ResolutionDecision(
            decision="none",
            confidence=0.0,
            rationale="ambiguous: best candidate in the undecidable band",
        )


def _decide(
    provider: DecisionProvider, mention: str, context: str, candidates: List[Candidate]
) -> ResolutionDecision:
    """The provider's decision. A failure other than InvalidDecision is
    raised as ProviderFailure, and a value that is not a decision as
    InvalidDecision."""
    try:
        decision = provider.decide(mention, context, candidates)
    except InvalidDecision:
        raise
    except Exception as exc:
        raise ProviderFailure(str(exc)) from exc
    if not isinstance(decision, ResolutionDecision):
        raise InvalidDecision("provider returned a non-decision value")
    return decision


def resolve_entity(
    store: Store,
    index: VectorIndex,
    provider: DecisionProvider,
    mention: str,
    context: str = "",
    etype: Optional[EntityType] = None,
) -> ResolutionDecision:
    """Resolve a mention to an existing entity or a proposal for a new one."""
    candidates = retrieve_entity_candidates(store, index, mention)
    decision = _decide(provider, mention, context, candidates)
    if decision.decision == "choose_existing":
        # a candidate's row exists; only another id is read
        if decision.id not in {c.id for c in candidates} and (
            decision.id is None or store.entity_row(decision.id) is None
        ):
            raise InvalidDecision(
                f"choose_existing names unknown entity id {decision.id}"
            )
        return decision
    if decision.decision == "propose_new":
        name = decision.normalized_name or ontology.normalize_name(mention)
        resolved_etype = decision.etype or etype or EntityType.Topic
        return ResolutionDecision(
            decision="propose_new",
            id=store.peek_next_entity_id(),
            normalized_name=ontology.normalize_name(name),
            etype=resolved_etype,
            aliases=decision.aliases,
            confidence=decision.confidence,
            rationale=decision.rationale,
        )
    return decision


def resolve_property(
    store: Store,
    index: VectorIndex,
    provider: DecisionProvider,
    raw_name: str,
    example_value: Any = None,
) -> ResolutionDecision:
    """Resolve a raw property name to a canonical snake_case property."""
    if not raw_name:
        raise InvalidDecision("empty property name")
    try:
        normalized = normalize_snake_case(raw_name)
    except Unnormalizable as exc:
        raise InvalidDecision(str(exc)) from exc

    dtype = None
    if example_value is not None:
        dtype = ontology.infer_dtype(example_value)

    candidates = retrieve_property_candidates(store, index, normalized)
    for candidate in candidates:
        if candidate.name == normalized:
            return ResolutionDecision(
                decision="choose_existing",
                id=candidate.id,
                normalized_name=normalized,
                dtype=dtype,
                confidence=max(candidate.score, 0.95),
                rationale="exact property name match",
            )
    decision = _decide(provider, raw_name, "", candidates)
    if decision.decision == "choose_existing":
        name = next((c.name for c in candidates if c.id == decision.id), None)
        if name is None:
            row = store.property_rows([decision.id]).get(decision.id)
            if row is None:
                raise InvalidDecision(
                    f"choose_existing names unknown property id {decision.id}"
                )
            name = row[0]
        return ResolutionDecision(
            decision="choose_existing",
            id=decision.id,
            normalized_name=name,
            dtype=dtype,
            confidence=decision.confidence,
            rationale=decision.rationale,
        )
    if decision.decision == "propose_new":
        return ResolutionDecision(
            decision="propose_new",
            normalized_name=normalized,
            dtype=dtype or DType.str,
            confidence=decision.confidence,
            rationale=decision.rationale,
        )
    return decision
