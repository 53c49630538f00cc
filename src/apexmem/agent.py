"""ReAct-style QnA loop: reason -> tool -> observe under a call budget,
with query-time temporal resolution and provenance-carrying answers.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple, Union

from . import extract
from .errors import ProviderFailure, UnparseableTemporal, ValidationFailure
from .index import VectorIndex, tokenize
from .ontology import parse_iso_datetime
from .store import Store
from .tools import ToolCall, ToolKit, ToolResult, read_latest_values

DEFAULT_MAX_TOOL_CALLS = 40
TRANSCRIPT_RESULT_CHARS = 600


@dataclass(frozen=True)
class AgentConfig:
    max_tool_calls: int = DEFAULT_MAX_TOOL_CALLS
    question_date: Optional[str] = None

    def __post_init__(self):
        if self.max_tool_calls < 1:
            raise ValidationFailure("max_tool_calls must be >= 1")


@dataclass(frozen=True)
class FinalAnswer:
    text: str
    cited_evidence: Tuple[int, ...] = ()
    confidence: Optional[float] = None


@dataclass(frozen=True)
class AgentStep:
    reasoning: str
    call: ToolCall
    result: ToolResult


@dataclass(frozen=True)
class ToolAction:
    reasoning: str
    call: ToolCall


@dataclass
class AgentTranscript:
    question: str
    steps: List[AgentStep] = field(default_factory=list)
    answer: Optional[FinalAnswer] = None
    terminated_reason: str = ""
    named_params: dict = field(default_factory=dict)


class PolicyProvider(Protocol):
    def step(
        self, question: str, history: List[AgentStep], named_params: dict
    ) -> Union[ToolAction, FinalAnswer]: ...


_AGO_IN_TEXT = re.compile(rf"\b{extract.AGO_PATTERN}\b", re.I)


def resolve_question_temporals(question: str, question_date: str) -> dict:
    """The named parameters of a question asked at ``question_date``: the UTC
    day of that date as ``question_date`` and, when the question holds a
    relative temporal expression, the range of the first one resolved
    against that date as ``range_start`` and ``range_end``. Expressions are
    tried in the order of ``extract.RELATIVE_EXPRESSIONS``, then "N ... ago"
    in the question's order; one that does not resolve is passed over."""
    params = {"question_date": parse_iso_datetime(question_date).date().isoformat()}
    lowered = question.lower()
    expressions = [pattern for pattern in extract.RELATIVE_EXPRESSIONS if pattern in lowered]
    expressions += [match.group(0).lower() for match in _AGO_IN_TEXT.finditer(question)]
    for expression in expressions:
        try:
            valid_from, valid_to = extract.normalize_temporal(expression, question_date)
        except UnparseableTemporal:
            continue
        params["range_start"] = valid_from
        params["range_end"] = valid_to or valid_from
        break
    return params


def run_agent(
    store: Store,
    index: VectorIndex,
    policy: PolicyProvider,
    question: str,
    config: Optional[AgentConfig] = None,
    toolkit: Optional[ToolKit] = None,
) -> AgentTranscript:
    """Drive the policy against the tools until it answers, fails, or the
    call budget runs out. Tool failures are passed back in-band and never
    terminate the loop. The question date reaches the policy and the tools
    through one dict, the named parameters that GraphSQL also binds."""
    config = config or AgentConfig()
    toolkit = toolkit or ToolKit(store, index)

    question_date = config.question_date or store.max_anchor_datetime() or "1970-01-01T00:00:00Z"
    named_params = resolve_question_temporals(question, question_date)

    transcript = AgentTranscript(question=question, named_params=named_params)
    retried = False

    while len(transcript.steps) < config.max_tool_calls:
        try:
            output = policy.step(question, list(transcript.steps), named_params)
        except Exception as exc:
            raise ProviderFailure(str(exc)) from exc

        if isinstance(output, FinalAnswer):
            for cited in output.cited_evidence:
                if (store.kind_row("evidence", cited, ("id",)) is None
                        and store.kind_row("turn", cited, ("id",)) is None):
                    output = FinalAnswer(output.text, (), output.confidence)
                    break
            transcript.answer = output
            transcript.terminated_reason = "answered"
            return transcript

        if not isinstance(output, ToolAction):
            if retried:
                transcript.terminated_reason = "provider_failure"
                return transcript
            retried = True
            # one bounded re-prompt: feed the malformed output back in-band
            transcript.steps.append(
                AgentStep(
                    reasoning="",
                    call=ToolCall("schema_viewer", {}),
                    result=ToolResult(
                        ok=False,
                        error=(
                            "malformed policy output; respond with a tool call "
                            "or a final answer: " + repr(output)[:200]
                        ),
                    ),
                )
            )
            continue

        result = toolkit.dispatch(output.call, default_params=named_params)
        transcript.steps.append(AgentStep(output.reasoning, output.call, result))

    transcript.terminated_reason = "budget_exhausted"
    return transcript


def render_transcript(transcript: AgentTranscript) -> str:
    """Deterministic, human-readable trace; each tool result is cut to
    ``TRANSCRIPT_RESULT_CHARS``."""
    lines = [f"question: {transcript.question}"]
    for number, step in enumerate(transcript.steps, start=1):
        lines.append(f"== step {number} ==")
        if step.reasoning:
            lines.append(f"reasoning: {step.reasoning}")
        lines.append(
            f"tool: {step.call.tool} args: {json.dumps(step.call.args, sort_keys=True)}"
        )
        body = step.result.text if step.result.ok else f"ERROR: {step.result.error}"
        if len(body) > TRANSCRIPT_RESULT_CHARS:
            body = body[:TRANSCRIPT_RESULT_CHARS] + "..."
        lines.append(f"result: {body}")
    lines.append(f"terminated: {transcript.terminated_reason}")
    if transcript.answer is not None:
        lines.append(f"answer: {transcript.answer.text}")
        if transcript.answer.cited_evidence:
            cited = ", ".join(str(i) for i in transcript.answer.cited_evidence)
            lines.append(f"cited: {cited}")
    return "\n".join(lines)


class ScriptedPolicy:
    """Replays a fixed list of ToolAction / FinalAnswer outputs."""

    def __init__(self, outputs: List[Union[ToolAction, FinalAnswer]]):
        self.outputs = list(outputs)
        self.position = 0

    def step(self, question, history, named_params):
        if self.position >= len(self.outputs):
            raise ProviderFailure("script exhausted without an answer")
        output = self.outputs[self.position]
        self.position += 1
        return output


_STOPWORDS = frozenset(
    "what is are was were the a an of s current currently in on at to for "
    "who whose which how many much did does do when where why".split()
)


class HeuristicPolicy:
    """Deterministic reference policy that reads nothing but its ``step``
    arguments: look up the question's subject, then answer with the latest
    value, in that lookup's result, of the property whose name best overlaps
    the question. The lookup already cuts each document to the question
    date."""

    def __init__(self, _unused=None):
        pass  # perfbench/workloads.py still passes the store

    def step(self, question, history, named_params):
        lookup = next(
            (step for step in reversed(history) if step.call.tool == "entity_lookup"), None
        )
        if lookup is None:
            return ToolAction(
                reasoning="canonicalize the subject of the question",
                call=ToolCall("entity_lookup", {"query": question, "k": 3}),
            )
        question_tokens = set(tokenize(question)) - _STOPWORDS
        best = None
        for entity_id, name, prop, value, _valid_from in read_latest_values(lookup.result.text):
            overlap = len(set(prop.split("_")) & question_tokens)
            if overlap == 0 or not set(tokenize(name)) & question_tokens:
                continue
            key = (overlap, entity_id, prop)
            if best is None or key > best[0]:
                best = (key, value)
        if best is None:
            return FinalAnswer("I could not find an answer in memory.")
        value = best[1]
        return FinalAnswer(value if isinstance(value, str) else json.dumps(value))
