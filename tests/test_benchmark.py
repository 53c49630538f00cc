"""One round of two benchmark workloads as smoke tests. ``ingest_file``
ingests into a file-backed store, reopens it with its vector sidecar and
checks row counts, fact histories, replay equality and one vector per row.
``qa_mem`` asks questions dated at and between revisions of a 600-turn store
and checks each answer against the value in force at the question date."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _one_round(workload: str) -> None:
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


def test_ingest_file_round_is_correct():
    _one_round("ingest_file")


def test_qa_mem_round_is_correct():
    _one_round("qa_mem")
