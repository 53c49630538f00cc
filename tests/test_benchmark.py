"""One round of the file-backed benchmark workload as a smoke test: it
ingests into a file-backed store, reopens it with its vector sidecar and
checks row counts, fact histories, replay equality and one vector per row."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ingest_file_round_is_correct():
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest_file",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, completed.stderr
    assert result["failed"] == 0, completed.stderr
    assert result["attempted"] > 0
