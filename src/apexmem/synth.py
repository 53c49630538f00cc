"""Synthetic multi-session corpus with a known fact timeline, used to
measure temporal-resolution accuracy of append-only storage against an
eager-update (overwrite) ablation.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Dict, List, Tuple

from . import extract
from .agent import AgentConfig, HeuristicPolicy, run_agent
from .extract import ReferenceExtractor
from .index import VectorIndex
from .ontology import Turn
from .resolve import RuleBasedProvider
from .store import Store

_NAMES = (
    "Avery", "Blake", "Casey", "Devon", "Emerson", "Finley", "Harper",
    "Jordan", "Kendall", "Logan", "Morgan", "Parker", "Quinn", "Riley",
    "Sawyer", "Taylor",
)
_PROPERTIES = ("favorite color", "favorite city", "favorite drink")
_VALUES = {
    "favorite color": ("blue", "green", "red", "amber", "violet", "teal"),
    "favorite city": ("Lisbon", "Kyoto", "Oslo", "Quito", "Perth", "Tunis"),
    "favorite drink": ("coffee", "matcha", "cocoa", "chai", "cider", "mate"),
}
# what an append-only probe asks the agent, on the probe's date
QUESTION = "What is {subject}'s {property}?"


@dataclass(frozen=True)
class Probe:
    kind: str  # "latest" | "before"
    subject: str
    property_name: str
    as_of: str  # the question date: the value in force on it is expected
    expected: str


@dataclass
class SynthCorpus:
    sessions: List[List[Turn]]
    probes: List[Probe]
    # ground truth: (subject, property) -> ordered [(date, value)]
    timeline: Dict[Tuple[str, str], List[Tuple[str, str]]]


def generate_corpus(seed: int, n_sessions: int, revisions_per_subject: int = 3) -> SynthCorpus:
    """Deterministic corpus: each subject revises one property across
    sessions; probes ask for the latest value and, on the day before each
    revision, for the value then in force."""
    rng = random.Random(seed)
    n_subjects = max(1, min(len(_NAMES), n_sessions // 2 or 1))
    subjects = list(_NAMES[:n_subjects])

    timeline: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
    statements: List[Tuple[str, str, str, str]] = []  # (date, subject, prop, value)
    for number, subject in enumerate(subjects):
        prop = _PROPERTIES[number % len(_PROPERTIES)]
        values = list(_VALUES[prop])
        rng.shuffle(values)
        chosen = values[: revisions_per_subject + 1]
        history = []
        for revision, value in enumerate(chosen):
            day = 1 + number + revision * 30
            month = 1 + (day // 28) % 12
            date_str = f"2024-{month:02d}-{(day % 28) + 1:02d}"
            history.append((date_str, value))
            statements.append((date_str, subject, prop, value))
        history.sort(key=lambda item: item[0])
        key = (subject, prop.replace(" ", "_"))
        timeline[key] = history

    statements.sort(key=lambda s: s[0])
    per_session = max(1, len(statements) // n_sessions)
    sessions: List[List[Turn]] = []
    for start in range(0, len(statements), per_session):
        chunk = statements[start : start + per_session]
        session_id = f"synth-{len(sessions)}"
        turns = []
        for ordinal, (date_str, subject, prop, value) in enumerate(chunk):
            turns.append(
                Turn(
                    id=None,
                    session_id=session_id,
                    ordinal=ordinal,
                    speaker=subject,
                    listener="Assistant",
                    text=f"My {prop} is {value}.",
                    anchor_datetime=f"{date_str}T12:00:00Z",
                )
            )
        sessions.append(turns)

    probes: List[Probe] = []
    for (subject, prop_name), history in sorted(timeline.items()):
        probes.append(
            Probe("latest", subject, prop_name, "2030-01-01", history[-1][1])
        )
        for revision in range(1, len(history)):
            day_before = date.fromisoformat(history[revision][0]) - timedelta(days=1)
            before = history[revision - 1][1]
            probes.append(
                Probe("before", subject, prop_name, day_before.isoformat(), before)
            )
    return SynthCorpus(sessions, probes, timeline)


@dataclass
class SynthReport:
    seed: int
    n_sessions: int
    mode: str
    latest_total: int = 0
    latest_correct: int = 0
    before_total: int = 0
    before_correct: int = 0

    @property
    def latest_accuracy(self) -> float:
        return self.latest_correct / self.latest_total if self.latest_total else 1.0

    @property
    def before_accuracy(self) -> float:
        return self.before_correct / self.before_total if self.before_total else 1.0


def run_synth_eval(
    seed: int, n_sessions: int, revisions_per_subject: int = 3, mode: str = "append_only"
) -> SynthReport:
    """Ingest the generated corpus and ask each probe's ``QUESTION`` through
    ``run_agent`` and the reference policy, on the probe's date. mode
    "eager_update" simulates overwrite-on-revision storage: only the newest
    value per (subject, property) survives."""
    corpus = generate_corpus(seed, n_sessions, revisions_per_subject)
    report = SynthReport(seed=seed, n_sessions=n_sessions, mode=mode)

    if mode == "eager_update":
        # overwrite semantics: history is lost at ingestion time
        state = {key: history[-1][1] for key, history in corpus.timeline.items()}
        answers = [state.get((p.subject, p.property_name)) for p in corpus.probes]
    else:
        store = Store.open(":memory:")
        index = VectorIndex()
        extractor = ReferenceExtractor()
        entity_provider = RuleBasedProvider()
        property_provider = RuleBasedProvider()
        for session in corpus.sessions:
            extract.ingest_session(
                store, index, extractor, entity_provider, property_provider, session
            )
        policy = HeuristicPolicy()
        answers = []
        for probe in corpus.probes:
            question = QUESTION.format(
                subject=probe.subject, property=probe.property_name.replace("_", " ")
            )
            transcript = run_agent(store, index, policy, question,
                                   AgentConfig(question_date=probe.as_of))
            answers.append(transcript.answer.text if transcript.answer else None)
        store.close()

    for probe, answer in zip(corpus.probes, answers):
        if probe.kind == "latest":
            report.latest_total += 1
            report.latest_correct += int(answer == probe.expected)
        else:
            report.before_total += 1
            report.before_correct += int(answer == probe.expected)
    return report
