import re
import sys
import textwrap

import numpy as np
import pytest

from apexmem.errors import EmbedderFailure, ProviderFailure
from apexmem.ontology import DType, EntityType
from apexmem.providers import (
    SubprocessDecisionProvider,
    SubprocessEmbedder,
    SubprocessPolicy,
    decision_from_response,
    policy_from_response,
)
from apexmem.agent import FinalAnswer, ToolAction
from apexmem.resolve import Candidate, ResolutionDecision


def _script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return [sys.executable, str(path)]


def test_subprocess_decision_provider(tmp_path):
    command = _script(tmp_path, "decider.py", """
        import json, sys
        request = json.load(sys.stdin)
        best = request["candidates"][0] if request["candidates"] else None
        if best and best["score"] >= 0.9:
            out = {"decision": "choose_existing", "id": best["id"],
                   "confidence": best["score"]}
        else:
            out = {"decision": "propose_new",
                   "normalized_name": request["mention"].lower(),
                   "confidence": 0.5}
        json.dump(out, sys.stdout)
    """)
    provider = SubprocessDecisionProvider(command)
    chosen = provider.decide("Alice", "", [Candidate(3, "Alice", 0.95, name="Alice")])
    assert chosen.decision == "choose_existing" and chosen.id == 3
    proposed = provider.decide("Newbie", "", [])
    assert proposed.decision == "propose_new"


def test_decision_from_response_reads_the_reply_dict():
    reply = {"decision": "propose_new", "id": None, "normalized_name": "shoe_size",
             "etype": "Person", "dtype": "int", "aliases": ["kicks"],
             "confidence": 0.5, "rationale": "r"}
    assert decision_from_response(reply) == ResolutionDecision(
        decision="propose_new", normalized_name="shoe_size", etype=EntityType.Person,
        dtype=DType.int, aliases=("kicks",), confidence=0.5, rationale="r",
    )
    assert decision_from_response({"decision": "none"}) == ResolutionDecision("none")
    for reply in (["propose_new"], "none", None):
        with pytest.raises(ProviderFailure):
            decision_from_response(reply)


def test_subprocess_embedder_handshake_and_vectors(tmp_path):
    command = _script(tmp_path, "embedder.py", """
        import json, sys
        request = json.load(sys.stdin)
        if request.get("handshake"):
            json.dump({"dimension": 4}, sys.stdout)
        else:
            n = float(len(request["text"])) or 1.0
            json.dump({"vector": [1.0, 0.0, 0.0, n]}, sys.stdout)
    """)
    embedder = SubprocessEmbedder(command)
    assert embedder.dimension == 4
    vec = embedder.embed("hello")
    assert isinstance(vec, np.ndarray) and vec.shape == (4,)


def test_subprocess_embedder_failure(tmp_path):
    command = _script(tmp_path, "broken.py", "import sys; sys.exit(2)")
    with pytest.raises(EmbedderFailure):
        SubprocessEmbedder(command)


def test_subprocess_policy(tmp_path):
    command = _script(tmp_path, "policy.py", """
        import json, sys
        request = json.load(sys.stdin)
        if not request["history"]:
            json.dump({"tool": "schema_viewer", "args": {},
                       "reasoning": "orient"}, sys.stdout)
        else:
            json.dump({"answer": "42", "cited_evidence": []}, sys.stdout)
    """)
    policy = SubprocessPolicy(command)
    first = policy.step("q", [], {})
    assert isinstance(first, ToolAction)
    assert first.call.tool == "schema_viewer"


@pytest.mark.parametrize("raw, message", [
    (7, "policy response is not an object: 7"),
    ([], "policy response is not an object: []"),
    ({"answer": 5}, "field 'answer' is not a str: 5"),
    ({"answer": "a", "cited_evidence": 5}, "field 'cited_evidence' is not a list: 5"),
    ({"answer": "a", "cited_evidence": [1, [1]]}, "cites an id that is not an int: [1, [1]]"),
    ({"answer": "a", "cited_evidence": [True]}, "cites an id that is not an int: [True]"),
    ({"answer": "a", "cited_evidence": ["1"]}, "cites an id that is not an int: ['1']"),
    ({"tool": 3}, "field 'tool' is not a str: 3"),
    ({"tool": "search", "args": ["q"]}, "field 'args' is not a dict: ['q']"),
    ({"tool": "search", "reasoning": None}, "field 'reasoning' is not a str: None"),
])
def test_a_wrongly_typed_policy_response_is_a_provider_failure(raw, message):
    with pytest.raises(ProviderFailure, match=re.escape(message)):
        policy_from_response(raw)


def test_policy_response_fields_keep_their_values():
    answer = policy_from_response({"answer": "a", "cited_evidence": [1, 2 ** 70]})
    assert answer == FinalAnswer("a", (1, 2 ** 70), None)
    action = policy_from_response({"tool": "search", "args": {"query": "q"}})
    assert (action.reasoning, action.call.tool, action.call.args) == ("", "search", {"query": "q"})


def test_subprocess_policy_crash_raises(tmp_path):
    command = _script(tmp_path, "crash.py", "import sys; sys.exit(3)")
    policy = SubprocessPolicy(command)
    with pytest.raises(ProviderFailure):
        policy.step("q", [], {})
