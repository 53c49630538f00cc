"""One round of each benchmark workload as a smoke test. ``ingest_file``
ingests into a file-backed store, reopens it with its vector sidecar and
checks row counts, fact histories, replay equality and one vector per row.
``qa_mem`` asks questions dated at and between revisions of a 600-turn store
and checks each answer against the value in force at the question date.
``chat_mixed`` grows an in-memory store and reads it between sessions, and
``online_build`` builds a store at query time. All four check ``search``'s
text."""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["ingest_file", "chat_mixed", "qa_mem", "online_build"])
def test_one_round_is_correct(workload):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, completed.stderr
    assert result["failed"] == 0, completed.stderr
    assert result["attempted"] > 0
