"""Turn-level fact extraction and deterministic temporal normalization.

The shipped extractor is pattern-based so the whole engine is testable
without an LLM; real deployments plug an LLM extractor in through the
same RawEventBundle contract.
"""
from __future__ import annotations

import calendar
import re
from dataclasses import dataclass, replace
from datetime import date, timedelta
from typing import Any, List, Optional, Protocol, Tuple

from . import index as index_mod
from . import ontology, resolve
from .errors import (
    ExtractorFailure,
    ResolutionFailure,
    UnparseableTemporal,
    ValidationFailure,
)
from .index import VectorIndex
from .ontology import DType, EntityType, Event, Evidence, Fact, Role, Turn
from .store import CommittedBundle, Store

CONTEXT_WINDOW = 5

_WEEKDAYS = {
    name.lower(): number
    for number, name in enumerate(calendar.day_name)
}

# Relative expressions resolved against an anchor, in the order that
# agent.resolve_question_temporals tries them: the first one a question holds
# sets the question's range.
RELATIVE_EXPRESSIONS = ("last month", "last week", "yesterday", "today", "tomorrow")
# "N days/weeks/months ago"
AGO_PATTERN = r"(\d+)\s+(day|week|month)s?\s+ago"

_AGO_RE = re.compile(f"^{AGO_PATTERN}$")
_TEMPORAL_WORDS = "|".join(RELATIVE_EXPRESSIONS)


def _previous_month(anchor: date) -> Tuple[date, date]:
    first_of_month = anchor.replace(day=1)
    last_prev = first_of_month - timedelta(days=1)
    return last_prev.replace(day=1), last_prev


def _months_back(anchor: date, months: int) -> date:
    year, month = divmod(anchor.year * 12 + anchor.month - 1 - months, 12)
    day = min(anchor.day, calendar.monthrange(year, month + 1)[1])
    return date(year, month + 1, day)


def _relative_range(text: str, anchor: date) -> Optional[Tuple[date, Optional[date]]]:
    """The (start, end) days of a relative expression (lower-cased, trimmed)
    at the anchor's day, or None for text that is not one; end is set for
    an interval. Raises OverflowError or ValueError for a day outside the
    calendar."""
    if text == "yesterday":
        return anchor - timedelta(days=1), None
    if text == "today":
        return anchor, None
    if text == "tomorrow":
        return anchor + timedelta(days=1), None
    if text == "last week":
        start = anchor - timedelta(days=anchor.weekday() + 7)
        return start, start + timedelta(days=6)
    if text == "last month":
        return _previous_month(anchor)
    ago = _AGO_RE.match(text)
    if ago:
        amount, unit = int(ago.group(1)), ago.group(2)
        if unit == "month":
            return _months_back(anchor, amount), None
        return anchor - timedelta(days=amount * (7 if unit == "week" else 1)), None
    if text in _WEEKDAYS:
        # most recent past occurrence, strictly before the anchor date
        delta = (anchor.weekday() - _WEEKDAYS[text]) % 7 or 7
        return anchor - timedelta(days=delta), None
    return None


def normalize_temporal(expression: str, anchor: str) -> Tuple[str, Optional[str]]:
    """Resolve a temporal expression against an anchor timestamp.

    Returns (valid_from, valid_to); valid_to is only set for interval
    expressions like "last week" / "last month". Absolute ISO-8601 inputs
    pass through unchanged.
    """
    anchor_dt = ontology.parse_iso_datetime(anchor)
    anchor_date = anchor_dt.date()
    text = expression.strip().lower()

    if re.match(r"\d{4}-\d{2}-\d{2}(t|$)", text):
        return ontology.canonical_stamp(expression.strip()), None

    # the one range check of every relative expression
    try:
        resolved = _relative_range(text, anchor_date)
    except (OverflowError, ValueError) as exc:
        raise UnparseableTemporal(f"{expression!r} is outside the calendar") from exc
    if resolved is None:
        raise UnparseableTemporal(f"unrecognized temporal expression: {expression!r}")
    start, end = resolved
    return start.isoformat(), None if end is None else end.isoformat()


@dataclass(frozen=True)
class RawParticipant:
    mention: str
    etype_name: str
    role_name: str


@dataclass(frozen=True)
class RawFact:
    subject_mention: str
    property_name: str
    value: Any
    dtype_name: str
    validity_expression: Optional[str] = None
    confidence: float = 1.0
    span: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class RawEventBundle:
    event_type: str
    temporal_expression: Optional[str] = None
    location: Optional[str] = None
    participants: Tuple[RawParticipant, ...] = ()
    facts: Tuple[RawFact, ...] = ()


@dataclass(frozen=True)
class ExtractionRequest:
    turn: Turn
    context: Tuple[Turn, ...] = ()


class Extractor(Protocol):
    def extract(self, request: ExtractionRequest) -> RawEventBundle: ...


_FOOD_CUES = re.compile(
    r"\b(pasta|sushi|restaurant|food|pizza|cafe|eat|dinner|lunch|menu)\b", re.I
)


class ReferenceExtractor:
    """Deterministic pattern extractor covering copula assertions, explicit
    dates, and a small verb lexicon. Emits confidence 1.0 for every match."""

    def extract(self, request: ExtractionRequest) -> RawEventBundle:
        turn = request.turn
        text = turn.text
        speaker = turn.speaker
        facts: List[RawFact] = []
        participants: List[RawParticipant] = [
            RawParticipant(speaker, "Person", "Speaker")
        ]
        if turn.listener and turn.listener != speaker:
            participants.append(RawParticipant(turn.listener, "Person", "Listener"))
        event_type = "conversation"
        temporal: Optional[str] = None

        match = re.search(
            r"I (?:just )?signed up for (?:a |an |the )?"
            rf"(?P<val>[\w' ]+?)(?: (?P<t>{_TEMPORAL_WORDS}))?[.!?,]",
            text,
        )
        if match:
            value = match.group("val").strip()
            facts.append(
                RawFact(speaker, "activities_participated", value, "str",
                        span=match.span())
            )
            participants.append(RawParticipant(value, "Event", "Mentioned"))
            event_type = "enrollment"
            temporal = match.group("t") or temporal

        match = re.search(r"I love (?P<val>[A-Z][\w'& ]*)", text)
        if match:
            value = match.group("val").strip()
            prop = "favorite_restaurant" if _FOOD_CUES.search(text) else "likes"
            facts.append(RawFact(speaker, prop, value, "str", span=match.span()))
            etype = "Place" if prop == "favorite_restaurant" else "Topic"
            participants.append(RawParticipant(value, etype, "Mentioned"))

        match = re.search(
            r"I go to (?P<val>[A-Z][\w'& ]*?) every week", text
        )
        if match:
            value = match.group("val").strip()
            facts.append(
                RawFact(speaker, "favorite_restaurant", value, "str",
                        span=match.span())
            )
            participants.append(RawParticipant(value, "Place", "Mentioned"))

        match = re.search(
            rf"(?P<subj>[A-Z][\w'& ]*?) closed down (?P<t>{_TEMPORAL_WORDS})", text
        )
        if match:
            subject = match.group("subj").strip()
            facts.append(
                RawFact(
                    subject,
                    "closure_date",
                    match.group("t"),
                    "date",
                    validity_expression=match.group("t"),
                    span=match.span(),
                )
            )
            participants.append(RawParticipant(subject, "Place", "Mentioned"))

        match = re.search(
            r"[Mm]y (?P<prop>[a-z][a-z ]*?) is (?P<val>[\w'& -]+)", text
        )
        if match:
            facts.append(
                RawFact(
                    speaker,
                    match.group("prop"),
                    match.group("val").strip(" ."),
                    "str",
                    span=match.span(),
                )
            )

        match = re.search(
            rf"I went to (?:a |an |the )?(?P<val>[\w' ]+?) (?P<t>{_TEMPORAL_WORDS})\b",
            text,
        )
        if match:
            value = match.group("val").strip()
            facts.append(
                RawFact(speaker, "attended_event", value, "str", span=match.span())
            )
            participants.append(RawParticipant(value, "Event", "Mentioned"))
            event_type = "attendance"
            temporal = match.group("t") or temporal

        match = re.search(r"\bswamped with the kids\b", text)
        if match:
            facts.append(
                RawFact(speaker, "has_children", True, "bool", span=match.span())
            )

        return RawEventBundle(
            event_type=event_type,
            temporal_expression=temporal,
            participants=tuple(participants),
            facts=tuple(facts),
        )


def _resolve_temporal_value(raw: RawFact, anchor: str) -> Tuple[Any, Optional[str], Optional[str]]:
    """Resolve a fact's value and validity window."""
    valid_from: Optional[str]
    valid_to: Optional[str] = None
    if raw.validity_expression:
        valid_from, valid_to = normalize_temporal(raw.validity_expression, anchor)
    else:
        valid_from = ontology.parse_iso_datetime(anchor).date().isoformat()

    value = raw.value
    if (raw.dtype_name == "date" and isinstance(value, str)
            and not ontology.ISO_DATE_RE.fullmatch(value)):
        resolved, _ = normalize_temporal(value, anchor)
        value = resolved
    return value, valid_from, valid_to


def extract_turn(
    store: Store,
    index: VectorIndex,
    extractor: Extractor,
    entity_provider,
    property_provider,
    request: ExtractionRequest,
) -> CommittedBundle:
    """Run the full pipeline for one committed turn: extract, normalize,
    resolve, validate, commit. All that depends only on the extractor's
    output (spans, confidences, participant types and roles, property names,
    validity expressions, date values and dtype names) is checked before the
    first write, so a turn that fails it commits nothing. A turn that fails
    at resolution (a provider's "none", an unresolvable subject) keeps the
    entities resolved before it."""
    turn = request.turn
    if turn.id is None or store.turn_text(turn.id) is None:
        raise ValidationFailure("turn must be committed before extraction")

    try:
        bundle = extractor.extract(request)
    except Exception as exc:
        raise ExtractorFailure(str(exc)) from exc

    anchor = turn.anchor_datetime
    event_anchor = anchor
    if bundle.temporal_expression:
        event_anchor, _ = normalize_temporal(bundle.temporal_expression, anchor)
    participants = [
        (participant.mention, ontology.validate_entity_type(participant.etype_name),
         ontology.validate_role(participant.role_name))
        for participant in bundle.participants
    ]
    checked = []
    for raw in bundle.facts:
        if raw.span is not None:
            start, end = raw.span
            if not (0 <= start < end <= len(turn.text)):
                raise ValidationFailure(
                    f"evidence span {raw.span} outside turn text"
                )
        if not 0.0 <= raw.confidence <= 1.0:
            raise ValidationFailure(f"confidence out of range: {raw.confidence}")
        value, valid_from, valid_to = _resolve_temporal_value(raw, anchor)
        resolve.normalize_snake_case(raw.property_name)
        checked.append((raw, value, valid_from, valid_to, DType(raw.dtype_name)))

    index_mod.upsert_embeddings(store, index)

    # resolve participant mentions to entity ids
    entity_ids = {}
    participant_rows = []
    for mention, etype, role in participants:
        entity_id = _resolve_or_create(
            store, index, entity_provider, mention, turn.text, etype, created_at=anchor,
        )
        if entity_id is None:
            continue
        entity_ids[ontology.normalize_name(mention).lower()] = entity_id
        participant_rows.append((entity_id, role))

    facts: List[Fact] = []
    evidence: List[Evidence] = []
    for position, (raw, value, valid_from, valid_to, raw_dtype) in enumerate(checked):
        key = ontology.normalize_name(raw.subject_mention).lower()
        subject_id = entity_ids.get(key)
        if subject_id is None:
            subject_id = _resolve_or_create(
                store, index, entity_provider, raw.subject_mention, turn.text,
                EntityType.Person, created_at=anchor,
            )
            if subject_id is None:
                raise ResolutionFailure(
                    f"could not resolve fact subject {raw.subject_mention!r}"
                )
            entity_ids[key] = subject_id

        prop_decision = resolve.resolve_property(
            store, index, property_provider, raw.property_name, value
        )
        if prop_decision.decision == "none":
            raise ResolutionFailure(
                f"property resolution undecided for {raw.property_name!r}"
            )
        dtype = prop_decision.dtype or raw_dtype
        if prop_decision.decision == "propose_new":
            store.append_property(
                prop_decision.normalized_name, dtype, created_at=anchor
            )
        facts.append(
            Fact(
                id=None,
                subject_id=subject_id,
                property_name=prop_decision.normalized_name,
                value=value,
                dtype=dtype,
                valid_from=valid_from,
                valid_to=valid_to,
                confidence=raw.confidence,
                created_at=anchor,
            )
        )
        if raw.span is not None:
            start, end = raw.span
            evidence.append(
                Evidence(
                    id=None,
                    event_id=None,
                    turn_id=turn.id,
                    text_span=(start, end),
                    quoted_text=turn.text[start:end],
                    fact_id=position,
                )
            )

    event = Event(
        id=None,
        event_type=bundle.event_type,
        anchor_datetime=event_anchor,
        location=bundle.location,
    )
    committed = store.append_event_bundle(
        event, facts, evidence, participant_rows, created_at=anchor
    )
    index_mod.upsert_embeddings(store, index)
    return committed


def _resolve_or_create(
    store: Store,
    index: VectorIndex,
    provider,
    mention: str,
    context: str,
    etype: EntityType,
    created_at: str,
) -> Optional[int]:
    decision = resolve.resolve_entity(
        store, index, provider, mention, context, etype=etype
    )
    if decision.decision == "choose_existing":
        return decision.id
    if decision.decision == "propose_new":
        entity_id = store.append_entity(
            decision.normalized_name,
            decision.etype or etype,
            Role.Mentioned,
            decision.aliases,
            created_at=created_at,
        )
        index_mod.upsert_embeddings(store, index)
        return entity_id
    return None


@dataclass(frozen=True)
class TurnOutcome:
    turn_id: Optional[int]
    session_id: str
    ordinal: int
    ok: bool
    committed: Optional[CommittedBundle] = None
    error: Optional[str] = None


def in_ordinal_order(session: List[Turn]) -> List[Turn]:
    """The session's turns sorted by ordinal. Their ordinals must be
    contiguous; ``ValidationFailure`` names the session otherwise."""
    session = sorted(session, key=lambda t: t.ordinal)
    ordinals = [t.ordinal for t in session]
    if ordinals and ordinals != list(range(ordinals[0], ordinals[0] + len(ordinals))):
        raise ValidationFailure(
            f"session ordinals are not contiguous: session {session[0].session_id!r} "
            f"has ordinals {ordinals}")
    return session


def ingest_session(
    store: Store,
    index: VectorIndex,
    extractor: Extractor,
    entity_provider,
    property_provider,
    session: List[Turn],
) -> List[TurnOutcome]:
    """Commit the session's turns, then extract each in ordinal order with a
    sliding context window, all in one write session of the store. Per-turn
    failures are recorded, not raised, and each rolls back only its own
    appends. The vectors of the new rows are appended to the sidecar once,
    after the session's commit. If the commit fails (``IoFailure``), or an
    exception escapes, nothing of the session is kept: the store rolls it
    back, and an index that holds a row of it goes back to its sidecar, or
    to nothing without one. A failure before the session indexed any row,
    such as a turn already in the store, leaves the index as it was."""
    session = in_ordinal_order(session)
    try:
        with store.write_session():
            outcomes = _extract_session(
                store, index, extractor, entity_provider, property_provider, session)
    except BaseException:
        if index.holds_rows_above(store.last_ids()):
            index.reload()
        raise
    index.save()
    return outcomes


def _extract_session(store, index, extractor, entity_provider, property_provider,
                     session: List[Turn]) -> List[TurnOutcome]:
    turn_ids = store.append_turns(session)
    committed_turns = [replace(turn, id=turn_id) for turn_id, turn in zip(turn_ids, session)]

    outcomes = []
    for position, turn in enumerate(committed_turns):
        context = tuple(
            reversed(committed_turns[max(0, position - CONTEXT_WINDOW) : position])
        )
        try:
            committed = extract_turn(
                store,
                index,
                extractor,
                entity_provider,
                property_provider,
                ExtractionRequest(turn=turn, context=context),
            )
            outcomes.append(
                TurnOutcome(turn.id, turn.session_id, turn.ordinal, True, committed)
            )
        except Exception as exc:  # skip-and-log
            outcomes.append(
                TurnOutcome(
                    turn.id, turn.session_id, turn.ordinal, False, error=str(exc)
                )
            )
    return outcomes
