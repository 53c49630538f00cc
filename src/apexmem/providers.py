"""Out-of-process plugin protocols.

Each provider exchange is a single JSON document each way over a byte
stream (the plugin process's stdin/stdout), so LLM-backed extractors,
embedders, decision providers, and policies can live outside this process.
"""
from __future__ import annotations

import json
import subprocess
from typing import List, Union

import numpy as np

from .agent import AgentStep, FinalAnswer, ToolAction
from .errors import EmbedderFailure, ExtractorFailure, ProviderFailure
from .extract import ExtractionRequest, RawEventBundle, RawFact, RawParticipant
from .ontology import DType, validate_entity_type
from .resolve import Candidate, ResolutionDecision
from .tools import TOOL_ARG_SCHEMAS, ToolCall


def _run(command: List[str], request: dict) -> dict:
    """One request/response round trip with a plugin process."""
    try:
        completed = subprocess.run(
            command,
            input=json.dumps(request).encode("utf-8"),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        raise ProviderFailure(f"plugin process failed: {exc}") from exc
    try:
        return json.loads(completed.stdout.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ProviderFailure(f"plugin returned invalid JSON: {exc}") from exc


# --- decision provider -------------------------------------------------

def decision_request(mention: str, context: str, candidates: List[Candidate]) -> dict:
    return {
        "mention": mention,
        "context": context,
        "candidates": [
            {"id": c.id, "text": c.text, "score": c.score} for c in candidates
        ],
    }


def decision_from_response(raw: dict) -> ResolutionDecision:
    if not isinstance(raw, dict):
        raise ProviderFailure(f"decision response is not an object: {raw!r}")
    return ResolutionDecision(
        decision=raw.get("decision", ""),
        id=raw.get("id"),
        normalized_name=raw.get("normalized_name", ""),
        etype=validate_entity_type(raw["etype"]) if raw.get("etype") else None,
        dtype=DType(raw["dtype"]) if raw.get("dtype") else None,
        aliases=frozenset(raw.get("aliases", ())),
        confidence=raw.get("confidence", 0.0),
        rationale=raw.get("rationale", ""),
    )


class SubprocessDecisionProvider:
    def __init__(self, command: List[str]):
        self.command = command

    def decide(self, mention, context, candidates) -> ResolutionDecision:
        response = _run(self.command, decision_request(mention, context, candidates))
        return decision_from_response(response)


# --- extractor ---------------------------------------------------------

def extraction_request(request: ExtractionRequest) -> dict:
    def turn_doc(turn):
        return {
            "id": turn.id,
            "session_id": turn.session_id,
            "ordinal": turn.ordinal,
            "speaker": turn.speaker,
            "listener": turn.listener,
            "text": turn.text,
            "anchor_datetime": turn.anchor_datetime,
        }

    return {
        "turn": turn_doc(request.turn),
        "context": [turn_doc(t) for t in request.context],
    }


def bundle_from_response(raw: dict) -> RawEventBundle:
    try:
        return RawEventBundle(
            event_type=raw["event_type"],
            temporal_expression=raw.get("temporal_expression"),
            location=raw.get("location"),
            participants=tuple(
                RawParticipant(p["mention"], p["etype"], p["role"])
                for p in raw.get("participants", ())
            ),
            facts=tuple(
                RawFact(
                    subject_mention=f["subject"],
                    property_name=f["property"],
                    value=f["value"],
                    dtype_name=f["dtype"],
                    validity_expression=f.get("validity"),
                    confidence=f.get("confidence", 1.0),
                    span=tuple(f["span"]) if f.get("span") else None,
                )
                for f in raw.get("facts", ())
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ExtractorFailure(f"malformed extractor response: {exc}") from exc


class SubprocessExtractor:
    def __init__(self, command: List[str]):
        self.command = command

    def extract(self, request: ExtractionRequest) -> RawEventBundle:
        response = _run(self.command, extraction_request(request))
        return bundle_from_response(response)


# --- embedder ----------------------------------------------------------

class SubprocessEmbedder:
    """Protocol: {"text": ...} -> {"vector": [...]}; dimension fixed at
    handshake ({"handshake": true} -> {"dimension": D})."""

    def __init__(self, command: List[str]):
        self.command = command
        try:
            response = _run(command, {"handshake": True})
        except ProviderFailure as exc:
            raise EmbedderFailure(str(exc)) from exc
        try:
            self.dimension = int(response["dimension"])
        except (KeyError, TypeError, ValueError) as exc:
            raise EmbedderFailure(f"bad handshake response: {response!r}") from exc

    def embed(self, text: str):
        try:
            response = _run(self.command, {"text": text})
        except ProviderFailure as exc:
            raise EmbedderFailure(str(exc)) from exc
        try:
            vector = np.asarray(response["vector"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise EmbedderFailure(f"bad embed response: {response!r}") from exc
        return vector


# --- policy ------------------------------------------------------------

def policy_request(question: str, history: List[AgentStep], named_params: dict) -> dict:
    return {
        "question": question,
        "history": [
            {
                "reasoning": step.reasoning,
                "tool": step.call.tool,
                "args": step.call.args,
                "result_text": step.result.text if step.result.ok else None,
                "result_error": step.result.error,
            }
            for step in history
        ],
        "available_tools": TOOL_ARG_SCHEMAS,
        "named_params": named_params,
    }


def policy_from_response(raw: dict) -> Union[ToolAction, FinalAnswer]:
    if "answer" in raw:
        return FinalAnswer(
            text=raw["answer"],
            cited_evidence=tuple(raw.get("cited_evidence", ())),
            confidence=raw.get("confidence"),
        )
    if "tool" in raw:
        return ToolAction(
            reasoning=raw.get("reasoning", ""),
            call=ToolCall(raw["tool"], raw.get("args", {})),
        )
    raise ProviderFailure(f"policy response has neither tool nor answer: {raw!r}")


class SubprocessPolicy:
    def __init__(self, command: List[str]):
        self.command = command

    def step(self, question, history, named_params):
        response = _run(self.command, policy_request(question, history, named_params))
        return policy_from_response(response)
