"""Seeded inputs for the benchmark, with their own ground truth.

Nothing here imports apexmem: the program under test receives only the
turns, documents and questions made here, and every check compares its
output with the timelines kept here.

Each speaker revises three properties ("favorite color", "favorite city",
"favorite drink") over several months. Every value in one (speaker,
property) timeline differs from the others, so the value in force at a
date is never also the latest value unless the date is after the last
revision. The as-of rule includes its boundary: a statement made on day D
is in force on D.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Dict, List, Optional, Tuple

PROPERTIES = ("favorite color", "favorite city", "favorite drink")
VALUES = {
    "favorite color": (
        "blue", "green", "crimson", "amber", "violet", "teal", "ochre",
        "indigo", "scarlet", "olive", "cobalt", "maroon",
    ),
    "favorite city": (
        "Lisbon", "Kyoto", "Oslo", "Quito", "Perth", "Tunis", "Hanoi",
        "Dakar", "Riga", "Lima", "Tbilisi", "Porto",
    ),
    "favorite drink": (
        "coffee", "matcha", "cocoa", "chai", "cider", "mate", "kefir",
        "lemonade", "espresso", "horchata", "kombucha", "rooibos",
    ),
}
# Openers that keep the reference extractor's "my <property> is <value>"
# pattern and trigger none of its other patterns.
_OPENERS = ("", "These days ", "Update: ", "For the record, ", "Honestly, ")
# Turns that carry no fact: the extractor commits an empty event for them.
_FILLERS = (
    "Thanks, that helps a lot.",
    "We talked about the weather for a while.",
    "Can you remind me about the meeting notes?",
    "That was a long week at work.",
    "Good morning, how are you doing?",
    "The train was late again today.",
)
_SYLLABLES = (
    "ka", "lo", "mir", "ta", "ven", "dra", "qui", "zu", "bel", "nor", "pha",
    "sto", "gri", "el", "wyn", "ox", "ru", "tal", "cy", "fen", "jo", "mak",
    "pry", "sil", "ul", "vex", "ham", "ib", "zor", "tre",
)
# Words the names must not be: the question words and the property words.
_RESERVED = frozenset(
    "what is are was were the a an of s who which how when where favorite "
    "color city drink assistant".split()
)
# RuleBasedProvider refuses a mention whose best candidate scores in
# [0.80, 0.95); names are kept far below that band.
MAX_NAME_SIMILARITY = 0.45
# every FILLER_EVERY-th statement is followed by a filler turn
FILLER_EVERY = 4
START = date(2023, 1, 2)
LISTENER = "Assistant"
NOT_FOUND = "I could not find an answer in memory."


def _trigrams(name: str) -> Counter:
    padded = f"  {name.lower()}  "
    return Counter(padded[i : i + 3] for i in range(len(padded) - 2))


def _cosine(a: Counter, b: Counter) -> float:
    dot = sum(count * b[gram] for gram, count in a.items())
    return dot / math.sqrt(sum(v * v for v in a.values()) * sum(v * v for v in b.values()))


def make_names(rng: random.Random, count: int) -> List[str]:
    """``count`` distinct names, pairwise far apart in trigram space."""
    names: List[str] = []
    grams = [_trigrams(LISTENER)]
    while len(names) < count:
        name = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        name = name.capitalize()
        if name.lower() in _RESERVED or not 4 <= len(name) <= 10:
            continue
        candidate = _trigrams(name)
        if all(_cosine(candidate, other) < MAX_NAME_SIMILARITY for other in grams):
            names.append(name)
            grams.append(candidate)
    return names


def prop_key(prop: str) -> str:
    """The snake_case property name the engine stores."""
    return prop.replace(" ", "_")


@dataclass(frozen=True)
class TurnSpec:
    """One turn as the program receives it."""

    session_id: str
    ordinal: int
    speaker: str
    listener: str
    text: str
    anchor_datetime: str


@dataclass(frozen=True)
class Question:
    speaker: str
    prop: str  # snake_case
    text: str
    question_date: str
    expected: str
    between_revisions: bool


Timeline = Dict[Tuple[str, str], List[Tuple[str, str]]]


class Corpus:
    """Sessions of turns in time order, plus the ground truth behind them."""

    def __init__(
        self,
        sessions: List[List[TurnSpec]],
        session_facts: List[List[Tuple[str, str, str]]],
        timeline: Timeline,
    ):
        self.sessions = sessions
        # per session, the (speaker, property, value) statements it makes
        self.session_facts = session_facts
        self.timeline = timeline
        self.text_counts = Counter(t.text for s in sessions for t in s)

    @property
    def n_turns(self) -> int:
        return sum(len(s) for s in self.sessions)

    def value_as_of(self, speaker: str, prop: str, day: str) -> Optional[str]:
        """Value in force on ``day`` (YYYY-MM-DD): the last statement made on
        or before it."""
        value = None
        for stated, stated_value in self.timeline.get((speaker, prop), ()):
            if stated <= day:
                value = stated_value
        return value


def question_text(speaker: str, prop: str) -> str:
    return f"What is {speaker}'s {prop.replace('_', ' ')}?"


def make_corpus(
    seed: int,
    n_speakers: int,
    revisions: int,
    turns_per_session: int,
    tag: str = "",
) -> Corpus:
    """Each speaker states ``revisions + 1`` distinct values for every
    property, a few weeks apart; statements and fillers are cut, in time
    order, into sessions of ``turns_per_session`` turns."""
    rng = random.Random(f"{tag}:{seed}")
    speakers = make_names(rng, n_speakers)
    statements = []  # (day, speaker, prop, value)
    for speaker in speakers:
        for prop in PROPERTIES:
            values = rng.sample(VALUES[prop], revisions + 1)
            day = START + timedelta(days=rng.randint(0, 60))
            for value in values:
                statements.append((day, speaker, prop, value))
                day += timedelta(days=rng.randint(20, 45))
    statements.sort(key=lambda s: (s[0], s[1], s[2]))

    timeline: Timeline = {}
    flat = []  # (day, speaker, text, statement or None)
    for number, (day, speaker, prop, value) in enumerate(statements):
        timeline.setdefault((speaker, prop_key(prop)), []).append((day.isoformat(), value))
        opener = rng.choice(_OPENERS)
        my = "my" if opener else "My"
        fact = (speaker, prop_key(prop), value)
        flat.append((day, speaker, f"{opener}{my} {prop} is {value}.", fact))
        if number % FILLER_EVERY == FILLER_EVERY - 1:
            flat.append((day, rng.choice(speakers), rng.choice(_FILLERS), None))

    sessions: List[List[TurnSpec]] = []
    session_facts: List[List[Tuple[str, str, str]]] = []
    for start in range(0, len(flat), turns_per_session):
        session_id = f"{tag}s{len(sessions)}"
        chunk = flat[start : start + turns_per_session]
        sessions.append(
            [
                TurnSpec(
                    session_id, ordinal, speaker, LISTENER, text,
                    f"{day.isoformat()}T09:{ordinal:02d}:00Z",
                )
                for ordinal, (day, speaker, text, _fact) in enumerate(chunk)
            ]
        )
        session_facts.append([fact for *_rest, fact in chunk if fact is not None])
    return Corpus(sessions, session_facts, timeline)


def qa_questions(corpus: Corpus, rng: random.Random, count: int) -> List[Question]:
    """``count`` questions (even): half ask after the last revision, half at
    a date strictly between two revisions of the property asked about."""
    keys = sorted(corpus.timeline)
    questions = []
    for number in range(count):
        speaker, prop = rng.choice(keys)
        history = corpus.timeline[(speaker, prop)]
        if number % 2 == 0:
            day = date.fromisoformat(history[-1][0]) + timedelta(days=30)
            between = False
        else:
            revision = rng.randrange(1, len(history))
            before = date.fromisoformat(history[revision - 1][0])
            after = date.fromisoformat(history[revision][0])
            day = before + timedelta(days=rng.randrange(1, (after - before).days))
            between = True
        day_text = day.isoformat()
        questions.append(
            Question(
                speaker, prop, question_text(speaker, prop),
                f"{day_text}T12:00:00Z",
                corpus.value_as_of(speaker, prop, day_text), between,
            )
        )
    return questions


@dataclass(frozen=True)
class OnlineCase:
    """One online-construction operation: a corpus of single-session
    documents and a question about one (speaker, property)."""

    documents: List[Tuple[str, str, List[TurnSpec]]]  # (doc_id, timestamp, turns)
    statements: Dict[str, List[Tuple[str, str, str, str]]]  # doc_id -> (day, speaker, prop, value)
    speaker: str
    prop: str
    question: str
    question_date: str

    def expected(self, selected: List[str]) -> str:
        """Latest value of the asked property among the selected documents'
        statements, or the engine's not-found reply when they hold none."""
        stated = sorted(
            (day, value)
            for doc_id in selected
            for day, speaker, prop, value in self.statements[doc_id]
            if speaker == self.speaker and prop_key(prop) == self.prop
        )
        return stated[-1][1] if stated else NOT_FOUND


def online_cases(seed: int, count: int, n_docs: int) -> List[OnlineCase]:
    """Each case: one target speaker who states one property in all
    documents but one, and a distractor document by another speaker about
    another property, so the target's entity only ever holds the asked
    property. Every case has the same make-up, so that every seed gives the
    program the same amount of work."""
    rng = random.Random(f"online:{seed}")
    names = make_names(rng, 24)
    cases = []
    for number in range(count):
        target, *others = rng.sample(names, 4)
        prop = rng.choice(PROPERTIES)
        other_props = [p for p in PROPERTIES if p != prop]
        n_target = n_docs - 1
        values = rng.sample(VALUES[prop], n_target)
        day = START + timedelta(days=rng.randint(0, 300))
        lines = []
        for index in range(n_docs):
            if index < n_target:
                speaker, stated_prop, value = target, prop, values[index]
            else:
                speaker = rng.choice(others)
                stated_prop = rng.choice(other_props)
                value = rng.choice(VALUES[stated_prop])
            lines.append((day, speaker, stated_prop, value))
            day += timedelta(days=rng.randint(3, 20))
        rng.shuffle(lines)  # corpus order is not time order
        documents, statements = [], {}
        for index, (day, speaker, stated_prop, value) in enumerate(lines):
            doc_id = f"c{number}d{index}"
            stamp = f"{day.isoformat()}T10:00:00Z"
            text = f"My {stated_prop} is {value}."
            documents.append(
                (doc_id, stamp, [TurnSpec(doc_id, 0, speaker, LISTENER, text, stamp)])
            )
            statements[doc_id] = [(day.isoformat(), speaker, stated_prop, value)]
        last = max(day for day, *_ in lines) + timedelta(days=1)
        cases.append(
            OnlineCase(
                documents, statements, target, prop_key(prop),
                question_text(target, prop_key(prop)), f"{last.isoformat()}T12:00:00Z",
            )
        )
    return cases
