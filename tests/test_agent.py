from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apexmem import extract
from apexmem.agent import (
    DEFAULT_MAX_TOOL_CALLS,
    AgentConfig,
    AgentStep,
    FinalAnswer,
    HeuristicPolicy,
    ScriptedPolicy,
    ToolAction,
    render_transcript,
    resolve_question_temporals,
    run_agent,
)
from apexmem.errors import ProviderFailure
from apexmem.extract import ingest_session
from apexmem.index import VectorIndex
from apexmem.ontology import Turn
from apexmem.store import Store
from apexmem.tools import ToolCall, ToolResult
from conftest import ingest_case1, reference_pipeline

NOT_FOUND = "I could not find an answer in memory."


def test_default_budget_is_40():
    assert DEFAULT_MAX_TOOL_CALLS == 40
    assert AgentConfig().max_tool_calls == 40
    with pytest.raises(Exception):
        AgentConfig(max_tool_calls=0)


def test_resolve_question_temporals():
    params = resolve_question_temporals(
        "Where did Alice eat yesterday?", "2024-04-01T00:00:00Z"
    )
    assert params == {"question_date": "2024-04-01", "range_start": "2024-03-31",
                      "range_end": "2024-03-31"}
    # expressions are tried in extract.RELATIVE_EXPRESSIONS' order, then "N ... ago"
    params = resolve_question_temporals(
        "What did Alice eat 3 weeks ago, yesterday and last month?",
        "2024-04-01T00:00:00Z",
    )
    assert params == {"question_date": "2024-04-01", "range_start": "2024-03-01",
                      "range_end": "2024-03-31"}
    params = resolve_question_temporals("What did Alice eat 3 weeks ago?", "2024-04-01")
    assert params["range_start"] == "2024-03-11"
    assert resolve_question_temporals("What did Alice eat?", "2024-04-01") == {
        "question_date": "2024-04-01"}


@settings(max_examples=60, deadline=None)
@given(
    amount=st.integers(0, 10**12),
    unit=st.sampled_from(["day", "week", "month"]),
    asked=st.dates(date(1, 1, 1), date(9999, 12, 31)),
)
# each of these ended run_agent with a bare OverflowError or ValueError
@example(amount=99999999, unit="day", asked=date(2024, 3, 1))
@example(amount=9999999999, unit="day", asked=date(2024, 3, 1))
@example(amount=99999, unit="month", asked=date(2024, 3, 1))
def test_an_ago_before_the_calendar_resolves_no_range(amount, unit, asked):
    """"N ... ago" resolves to its day while that day is a date, and to no
    range, never an exception, once it falls before 0001-01-01."""
    params = resolve_question_temporals(
        f"What happened {amount} {unit}s ago?", f"{asked.isoformat()}T12:00:00Z")
    if unit == "month":
        months = asked.year * 12 + asked.month - 1 - amount
        expected = f"{months // 12:04d}-{months % 12 + 1:02d}" if months >= 12 else None
        got = params.get("range_start", "")[:7] or None
    else:
        day = asked.toordinal() - amount * (7 if unit == "week" else 1)
        expected = date.fromordinal(day).isoformat() if day >= 1 else None
        got = params.get("range_start")
    assert got == expected


_EXPRESSIONS = st.sampled_from([
    *extract.RELATIVE_EXPRESSIONS, "monday", "sunday",
    "1 day ago", "2 weeks ago", "1 month ago", "13 months ago", "99999999 days ago",
])


def test_run_agent_answers_at_every_question_date(case1_store, index):
    """Questions holding each relative expression, asked at instants from
    0001-01-01 to 9999-12-31 written in several UTC offsets (or as a date):
    ``run_agent`` answers, and never raises. An expression whose day falls
    outside the calendar resolves no range."""
    @settings(max_examples=80, deadline=None)
    @given(_EXPRESSIONS,
           st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59),
                        timezones=st.just(timezone.utc)),
           st.sampled_from(["Z", "+05:00", "-05:00", "+14:00", "-12:00", "date"]))
    # each of these ended run_agent with a bare OverflowError
    @example("tomorrow", datetime(9999, 12, 31, tzinfo=timezone.utc), "Z")
    @example("yesterday", datetime(1, 1, 1, tzinfo=timezone.utc), "Z")
    @example("yesterday", datetime(1, 1, 1, 2, tzinfo=timezone.utc), "+05:00")
    @example("last week", datetime(1, 1, 3, tzinfo=timezone.utc), "Z")
    @example("last month", datetime(1, 1, 15, tzinfo=timezone.utc), "date")
    def check(expression, asked, zone):
        hours = {"+05:00": 5, "-05:00": -5, "+14:00": 14, "-12:00": -12}.get(zone, 0)
        try:
            local = asked + timedelta(hours=hours)
        except OverflowError:  # the instant has no local time in this offset
            local, zone = asked, "Z"
        if zone == "date":
            question_date = asked.date().isoformat()
        else:
            question_date = (local.replace(tzinfo=None).isoformat(timespec="seconds")
                             + (zone if hours else "Z"))
        question = f"What did Alice's favorite restaurant become {expression}?"
        transcript = run_agent(case1_store, index, HeuristicPolicy(), question,
                               AgentConfig(question_date=question_date))
        assert transcript.terminated_reason == "answered"
        params = transcript.named_params
        assert params["question_date"] == asked.date().isoformat()
        if "range_start" in params:
            assert date.fromisoformat(params["range_start"]) <= date.fromisoformat(
                params["range_end"])

    check()


def test_scripted_policy_answers(store, index):
    ingest_case1(store, index)
    policy = ScriptedPolicy([
        ToolAction("look up alice", ToolCall("entity_lookup", {"query": "Alice"})),
        FinalAnswer("Sakura Sushi", (), 1.0),
    ])
    transcript = run_agent(store, index, policy, "favorite restaurant?")
    assert transcript.terminated_reason == "answered"
    assert transcript.answer.text == "Sakura Sushi"
    assert len(transcript.steps) == 1
    assert transcript.steps[0].result.ok


def test_budget_exhaustion_is_exact(store, index):
    ingest_case1(store, index)

    class NeverAnswer:
        def __init__(self):
            self.calls = 0

        def step(self, question, history, named_params):
            self.calls += 1
            return ToolAction("poke", ToolCall("schema_viewer", {}))

    policy = NeverAnswer()
    config = AgentConfig(max_tool_calls=7)
    transcript = run_agent(store, index, policy, "unanswerable?", config)
    assert transcript.terminated_reason == "budget_exhausted"
    assert len(transcript.steps) == 7
    assert policy.calls == 7
    assert transcript.answer is None


def test_tool_errors_are_in_band_not_raised(store, index):
    ingest_case1(store, index)
    policy = ScriptedPolicy([
        ToolAction("bad sql", ToolCall("graph_sql", {"sql": "DROP TABLE facts"})),
        FinalAnswer("done", (), None),
    ])
    transcript = run_agent(store, index, policy, "q")
    assert transcript.terminated_reason == "answered"
    step = transcript.steps[0]
    assert not step.result.ok
    assert "SqlRejected" in step.result.error


def test_malformed_output_reprompted_once(store, index):
    ingest_case1(store, index)

    class Flaky:
        def __init__(self, outputs):
            self.outputs = list(outputs)

        def step(self, question, history, named_params):
            return self.outputs.pop(0)

    recovered = Flaky(["garbage", FinalAnswer("ok", (), None)])
    transcript = run_agent(store, index, recovered, "q")
    assert transcript.terminated_reason == "answered"

    hopeless = Flaky(["garbage", 12345])
    transcript = run_agent(store, index, hopeless, "q")
    assert transcript.terminated_reason == "provider_failure"


def test_policy_exception_raises_provider_failure(store, index):
    ingest_case1(store, index)

    class Broken:
        def step(self, question, history, named_params):
            raise RuntimeError("boom")

    with pytest.raises(ProviderFailure):
        run_agent(store, index, Broken(), "q")


def test_scripted_policy_exhaustion_raises(store, index):
    ingest_case1(store, index)
    policy = ScriptedPolicy([
        ToolAction("r", ToolCall("schema_viewer", {})),
    ])
    with pytest.raises(ProviderFailure):
        run_agent(store, index, policy, "q")


def test_store_untouched_by_agent_run(store, index):
    ingest_case1(store, index)
    before = store.canonical_dump()
    policy = ScriptedPolicy([
        ToolAction("r", ToolCall("graph_sql", {"sql": "SELECT * FROM facts"})),
        ToolAction("r", ToolCall("search", {"query": "sushi"})),
        FinalAnswer("done", (), None),
    ])
    run_agent(store, index, policy, "q")
    assert store.canonical_dump() == before


def test_heuristic_policy_answers_case1(store, index):
    ingest_case1(store, index)
    transcript = run_agent(
        store, index, HeuristicPolicy(),
        "What is Alice's favorite restaurant?",
        AgentConfig(question_date="2024-04-01T00:00:00Z"),
    )
    assert transcript.terminated_reason == "answered"
    assert transcript.answer.text == "Sakura Sushi"


def test_heuristic_policy_answers_at_the_question_date(store, index):
    ingest_case1(store, index)
    transcript = run_agent(
        store, index, HeuristicPolicy(),
        "What is Alice's favorite restaurant?",
        AgentConfig(question_date="2024-02-01"),
    )
    assert transcript.answer.text == "Italian Garden"
    lookup = transcript.steps[0]
    assert lookup.call.tool == "entity_lookup" and lookup.result.ok
    documents = lookup.result.text.split("### ")[1:]
    alice = next(doc for doc in documents if doc.startswith("Alice "))
    assert '"Italian Garden"' in alice
    assert "Sakura Sushi" not in alice
    assert "2024-03-20" not in alice
    assert "last_anchor: 2024-01-15T10:00:00Z" in alice
    # Sakura Sushi is first mentioned on 2024-03-20, after the question
    assert not any(doc.startswith("Sakura Sushi ") for doc in documents)


@pytest.fixture(scope="module")
def case1():
    store, index = Store.open(":memory:"), VectorIndex()
    ingest_case1(store, index)
    yield store, index
    store.close()


_UTC_OFFSETS = st.integers(-14 * 60, 14 * 60).map(
    lambda minutes: timezone(timedelta(minutes=minutes)))


@settings(max_examples=40, deadline=None)
@given(
    instant=st.datetimes(datetime(2024, 1, 10), datetime(2024, 4, 10),
                         timezones=st.just(timezone.utc)),
    offset=_UTC_OFFSETS,
    question=st.sampled_from([
        "What is Alice's favorite restaurant?", "What is Italian Garden's closure date?",
        "Where did Alice eat yesterday?", "What did Alice love 3 weeks ago?",
    ]),
)
# the same instant as 2024-03-20T04:30:00Z, on the day before in its own zone
@example(instant=datetime(2024, 3, 20, 4, 30, tzinfo=timezone.utc),
         offset=timezone(timedelta(hours=-5)), question="What is Alice's favorite restaurant?")
def test_every_spelling_of_an_instant_asks_the_same_question(case1, instant, offset, question):
    """The named parameters and the whole transcript depend on the instant
    a question is asked at, not on the UTC offset it is written with."""
    store, index = case1
    instant = instant.replace(microsecond=0)
    spellings = [instant.strftime("%Y-%m-%dT%H:%M:%SZ"), instant.astimezone(offset).isoformat()]
    params = [resolve_question_temporals(question, spelling) for spelling in spellings]
    assert params[0] == params[1]
    assert params[0]["question_date"] == instant.date().isoformat()
    transcripts = [
        run_agent(store, index, HeuristicPolicy(), question, AgentConfig(question_date=spelling))
        for spelling in spellings
    ]
    assert transcripts[0].named_params == params[0]
    assert render_transcript(transcripts[0]) == render_transcript(transcripts[1])


_COLORS = ("blue", "green", "red", "amber", "teal")


@settings(max_examples=30, deadline=None)
@given(
    statements=st.lists(
        st.tuples(st.integers(0, 60), st.sampled_from(_COLORS)),
        min_size=1, max_size=5,
    ),
    asked=st.integers(-5, 70),
)
@example(statements=[(0, "blue"), (30, "red")], asked=10)
@example(statements=[(0, "blue"), (30, "red")], asked=-1)
def test_heuristic_answer_is_the_last_value_stated_by_the_question_date(
    statements, asked
):
    """Statements are made ``days`` after 2024-01-01, in list order within a
    day; the question is asked ``asked`` days after it."""
    start = date(2024, 1, 1)
    statements = sorted(statements, key=lambda s: s[0])
    turns = [
        Turn(None, "s", "Alice", "Assistant", f"My favorite color is {value}.",
             f"{start + timedelta(days)}T10:{ordinal:02d}:00Z", ordinal)
        for ordinal, (days, value) in enumerate(statements)
    ]
    store = Store.open(":memory:")
    index = VectorIndex()
    for outcome in ingest_session(store, index, *reference_pipeline(), turns):
        assert outcome.ok, outcome.error
    transcript = run_agent(
        store, index, HeuristicPolicy(), "What is Alice's favorite color?",
        AgentConfig(question_date=str(start + timedelta(asked))),
    )
    store.close()
    stated = [value for days, value in statements if days <= asked]
    assert transcript.answer.text == (stated[-1] if stated else NOT_FOUND)


def test_render_transcript(store, index):
    ingest_case1(store, index)
    policy = ScriptedPolicy([
        ToolAction("look", ToolCall("entity_lookup", {"query": "Alice"})),
        FinalAnswer("Sakura Sushi", (), 0.9),
    ])
    transcript = run_agent(store, index, policy, "q")
    rendered = render_transcript(transcript)
    assert "step 1" in rendered
    assert "terminated: answered" in rendered


def test_unknown_citations_are_dropped(store, index):
    ingest_case1(store, index)
    policy = ScriptedPolicy([FinalAnswer("x", (999999,), None)])
    transcript = run_agent(store, index, policy, "q")
    assert transcript.terminated_reason == "answered"
    assert transcript.answer.cited_evidence == ()


def test_a_citation_that_is_no_stored_id_is_dropped(store, index):
    """A policy's citation that SQLite cannot bind as an id names no row,
    so it is dropped like an unknown id, and the run answers."""
    ingest_case1(store, index)
    for cited in ([1], 2 ** 70, -1, True, "1", 1.0):
        policy = ScriptedPolicy([FinalAnswer("x", (cited, 3), None)])
        transcript = run_agent(store, index, policy, "q")
        assert transcript.terminated_reason == "answered"
        assert transcript.answer.cited_evidence == ()


def test_citations_of_evidence_or_turns_are_kept(store, index):
    """Case 1 holds evidence 1-3 and turns 1-2: 3 is evidence alone, and
    after two more turns, 4 is a turn alone."""
    ingest_case1(store, index)

    def cite(item):
        policy = ScriptedPolicy([FinalAnswer("x", (item,), None)])
        return run_agent(store, index, policy, "q").answer.cited_evidence

    assert cite(3) == (3,)
    store.append_turns([
        Turn(None, "s3", "Alice", "Assistant", "Hello.", "2024-04-01T10:00:00Z", ordinal)
        for ordinal in (0, 1)
    ])
    assert store.row_counts()["evidence"] == 3
    assert cite(4) == (4,)


def test_one_heuristic_policy_answers_each_question_after_its_own_lookup(store, index):
    ingest_case1(store, index)
    policy = HeuristicPolicy()
    config = AgentConfig(question_date="2024-04-01T00:00:00Z")
    for question, answer in [("What is Alice's favorite restaurant?", "Sakura Sushi"),
                             ("What is Italian Garden's closure date?", "2024-02-01")]:
        transcript = run_agent(store, index, policy, question, config)
        assert [step.call.tool for step in transcript.steps] == ["entity_lookup"]
        assert transcript.steps[0].call.args["query"] == question
        assert transcript.answer.text == answer


def test_heuristic_policy_answers_a_date_as_its_iso_text(store, index):
    ingest_case1(store, index)
    transcript = run_agent(store, index, HeuristicPolicy(),
                           "What is Italian Garden's closure date?")
    assert transcript.terminated_reason == "answered"
    assert transcript.answer.text == "2024-02-01"


LOOKUP_TEXT = """\
### Alice Smith (Person) — ent:1
last_anchor: 2024-01-15T10:00:00Z
anchors: 2024-01-15T10:00:00Z

Latest property values:
| property | value | valid_from |
| --- | --- | --- |
| favorite_color | "blue \\| green" | 2024-01-15 |
| favorite_restaurant_city | "Rome" |  |
| shoe_size | 42 | 2024-01-15 |

Full fact history:
| property | value | valid_from | valid_to | created_at |
| --- | --- | --- | --- | --- |
| favorite_color | "red" | 2024-01-01 |  | 2024-01-01T10:00:00Z |

### Bob (Person) — ent:2
last_anchor: n/a
anchors: n/a

Latest property values:
| property | value | valid_from |
| --- | --- | --- |
| favorite_color | "teal" | 2024-01-15 |"""


@pytest.mark.parametrize("question, answer", [
    ("What is Alice's favorite color?", "blue | green"),
    ("What is Alice's shoe size?", "42"),
    # two words of favorite_restaurant_city overlap, one of favorite_color
    ("Which favorite city does Alice have?", "Rome"),
    # Bob's document is in the result, but no word of the name Bob is asked
    ("What is Carol's favorite color?", NOT_FOUND),
])
def test_heuristic_policy_answers_from_the_lookup_result_alone(question, answer):
    policy = HeuristicPolicy()
    named_params = {"question_date": "2024-02-01"}
    action = policy.step(question, [], named_params)
    assert action.call == ToolCall("entity_lookup", {"query": question, "k": 3})
    history = [AgentStep("", action.call, ToolResult(ok=True, text=LOOKUP_TEXT))]
    assert policy.step(question, history, named_params) == FinalAnswer(answer)
    failed = [AgentStep("", action.call, ToolResult(ok=False, error="boom"))]
    assert policy.step(question, failed, named_params) == FinalAnswer(NOT_FOUND)
