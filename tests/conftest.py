import importlib.util
import os
import sys

import pytest

from apexmem.extract import ReferenceExtractor, ingest_session
from apexmem.index import VectorIndex
from apexmem.ontology import Turn
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
