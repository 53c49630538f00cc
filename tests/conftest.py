import importlib.util
import os
import sys
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import strategies as st

from apexmem.extract import ReferenceExtractor, ingest_session
from apexmem.index import VectorIndex
from apexmem.ontology import DType, Event, Evidence, Fact, Role, Turn
from apexmem.resolve import RuleBasedProvider
from apexmem.store import Store

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.abspath(os.path.join(FIXTURES, name))


CASE1_SESSIONS = [
    [
        Turn(None, "s1", "Alice", "Assistant",
             "I love Italian Garden! Their pasta is the best in town.",
             "2024-01-15T10:00:00Z", 0),
    ],
    [
        Turn(None, "s2", "Alice", "Assistant",
             "Italian Garden closed down last month. "
             "Now I go to Sakura Sushi every week instead.",
             "2024-03-20T10:00:00Z", 0),
    ],
]


def load_gen():
    """perfbench/gen.py, the benchmark's corpus generator."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def corpus_sessions(corpus):
    """A generated corpus's sessions as lists of uncommitted turns."""
    return [
        [Turn(None, t.session_id, t.speaker, t.listener, t.text, t.anchor_datetime,
              t.ordinal) for t in specs]
        for specs in corpus.sessions
    ]


# -- generated stores for the as-of rule ---------------------------------------

# instants at and around the edges of four UTC days
AS_OF_INSTANTS = st.builds(
    lambda day, time: datetime(2024, 1, day, *time, tzinfo=timezone.utc),
    st.integers(1, 4), st.sampled_from([(0, 0, 0), (3, 0, 0), (21, 0, 0), (23, 59, 59)]),
)
# how a stamp is written: "" is date-only when the instant is midnight UTC
AS_OF_ZONES = ("Z", "+05:00", "-03:00", "")
AS_OF_NAMES = ("Ann Lee", "Ben Lee", "Cal Lee")
AS_OF_OPS = st.lists(
    st.tuples(
        st.sampled_from(["entity", "turn", "fact", "event"]),
        st.integers(0, 2),  # the entity, of those made so far
        st.sampled_from(["favorite_color", "hometown"]),
        st.none() | AS_OF_INSTANTS,  # valid_from
        AS_OF_INSTANTS,  # the known-at stamp: created_at, or a turn's anchor
        AS_OF_INSTANTS,  # an event's anchor
        st.integers(0, len(AS_OF_ZONES) - 1),  # how the op's stamps are written
    ),
    max_size=12,
)
# question dates as run_agent hands them to the tools: UTC days
AS_OF_DAYS = st.sampled_from(["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-04"])


def spell(instant: datetime, zone: str) -> str:
    """``instant`` written in ``zone`` (one of ``AS_OF_ZONES``)."""
    if zone == "" and instant.time() == datetime.min.time():
        return instant.date().isoformat()
    hours = {"+05:00": 5, "-03:00": -3}.get(zone, 0)
    local = (instant + timedelta(hours=hours)).strftime("%Y-%m-%dT%H:%M:%S")
    return local + (zone if hours else "Z")


def write_as_of_ops(store: Store, ops, rewrite: int = 0) -> None:
    """Append the rows ``AS_OF_OPS`` describes: entities (at most three),
    turns, facts of a property (each with its property row, an event and
    evidence on the last turn) and events of an entity. ``rewrite`` shifts
    every stamp to another of ``AS_OF_ZONES``, the same instant written in
    another offset."""
    entities, turns = [], []
    for number, (action, who, prop, valid_from, known, anchor, zone) in enumerate(ops):
        zone = AS_OF_ZONES[(zone + rewrite) % len(AS_OF_ZONES)]
        known = spell(known, zone)
        if action == "entity" and len(entities) < len(AS_OF_NAMES):
            entities.append(store.append_entity(
                AS_OF_NAMES[len(entities)], "Person", Role.Speaker, created_at=known))
        elif action == "turn":
            text = f"note {number} on {' '.join(AS_OF_NAMES)}"
            turns += store.append_turns([Turn(None, f"s{number}", "Ann Lee", "Ben Lee",
                                              text, known, 0)])
        elif action in ("fact", "event") and entities:
            subject = entities[who % len(entities)]
            facts, evidence = [], []
            if action == "fact":
                store.append_property(prop, DType.str, created_at=known)
                facts = [Fact(None, subject, prop, f"v{number}", DType.str,
                              valid_from and spell(valid_from, zone), None, 1.0, known)]
                if turns:
                    evidence = [Evidence(None, None, turns[-1], (0, 4), "note", 0)]
            store.append_event_bundle(
                Event(None, "conversation", spell(anchor, zone)), facts, evidence,
                [(subject, Role.Mentioned)], created_at=known)


def reference_pipeline():
    return ReferenceExtractor(), RuleBasedProvider(), RuleBasedProvider()


def ingest_case1(store: Store, index: VectorIndex):
    extractor, entity_provider, property_provider = reference_pipeline()
    for session in CASE1_SESSIONS:
        for outcome in ingest_session(
            store, index, extractor, entity_provider, property_provider, session
        ):
            assert outcome.ok, outcome.error


@pytest.fixture
def store():
    s = Store.open(":memory:")
    yield s
    s.close()


@pytest.fixture
def index():
    return VectorIndex()


@pytest.fixture
def case1_store(store, index):
    ingest_case1(store, index)
    return store
