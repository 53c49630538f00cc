import json
import os
import shlex
import sys
from collections import Counter

import pytest
from click.testing import CliRunner

from apexmem.cli import load_config, main
from apexmem.index import VectorIndex
from apexmem.store import Store
from conftest import fixture_path


@pytest.fixture
def runner():
    return CliRunner()


def _ingest_case1(runner, tmp_path):
    store_path = str(tmp_path / "store.sqlite")
    result = runner.invoke(
        main, ["ingest", fixture_path("case1.jsonl"), "--store", store_path]
    )
    assert result.exit_code == 0, result.output
    return store_path


def test_ingest_reports_counts(runner, tmp_path):
    store_path = str(tmp_path / "store.sqlite")
    result = runner.invoke(
        main,
        ["ingest", fixture_path("case1.jsonl"), "--store", store_path, "--json"],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["turns"] == 2
    assert report["facts"] >= 3
    assert report["failed_turns"] == []


def test_ingest_twice_leaves_one_sidecar_line_per_row(runner, tmp_path):
    store_path = _ingest_case1(runner, tmp_path)
    later = tmp_path / "later.jsonl"
    later.write_text(json.dumps({
        "session_id": "s3", "ordinal": 0, "speaker": "Bob", "listener": "Alice",
        "text": "My favorite color is green.", "anchor_datetime": "2024-04-02T09:00:00Z",
    }) + "\n")
    result = runner.invoke(main, ["ingest", str(later), "--store", store_path])
    assert result.exit_code == 0, result.output
    store = Store.open(store_path, create_if_missing=False)
    counts = store.row_counts()
    store.close()
    with open(VectorIndex.sidecar_path(store_path), encoding="utf-8") as handle:
        keys = [(r["kind"], r["doc_id"]) for r in map(json.loads, handle)]
    assert len(keys) == len(set(keys))
    assert Counter(kind for kind, _ in keys) == {
        "entity": counts["entities"], "property": counts["properties"],
        "event": counts["events"], "evidence": counts["evidence"],
        "turn": counts["turns"],
    }
    assert counts["turns"] == 3


def test_ingest_parse_error_names_line(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"session_id": "s"}\n')
    result = runner.invoke(
        main, ["ingest", str(bad), "--store", str(tmp_path / "s.sqlite")]
    )
    assert result.exit_code == 1
    assert "line 1" in result.output


def test_ingest_bad_timestamp_names_line(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({
        "session_id": "s", "ordinal": 0, "speaker": "A", "listener": "B",
        "text": "hi", "anchor_datetime": "March 1",
    }) + "\n")
    result = runner.invoke(
        main, ["ingest", str(bad), "--store", str(tmp_path / "s.sqlite")]
    )
    assert result.exit_code == 1
    assert "parse error: line 1" in result.output


def test_qa_online_bad_timestamp_names_line(runner, tmp_path):
    with open(fixture_path("online_corpus.jsonl"), encoding="utf-8") as handle:
        first = handle.readline()
    bad = dict(json.loads(first), timestamp="March 1")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(first + json.dumps(bad) + "\n")
    store_path = tmp_path / "online.sqlite"
    result = runner.invoke(main, [
        "qa", "What is Alice's favorite restaurant?",
        "--store", str(store_path), "--online", str(corpus),
    ])
    assert result.exit_code == 1
    assert "parse error: line 2" in result.output
    assert not store_path.exists()


def test_qa_answers_case1(runner, tmp_path):
    store_path = _ingest_case1(runner, tmp_path)
    result = runner.invoke(main, [
        "qa", "What is Alice's favorite restaurant?",
        "--store", store_path, "--question-date", "2024-04-01T00:00:00Z",
    ])
    assert result.exit_code == 0, result.output
    assert "Sakura Sushi" in result.output


def test_qa_sends_the_question_date_to_a_plugin_policy(runner, tmp_path):
    store_path = _ingest_case1(runner, tmp_path)
    plugin = tmp_path / "policy.py"
    plugin.write_text(
        "import json, sys\n"
        "request = json.load(sys.stdin)\n"
        "json.dump({'answer': request['named_params']['question_date']}, sys.stdout)\n"
    )
    result = runner.invoke(main, [
        "qa", "What is Alice's favorite restaurant?",
        "--store", store_path, "--question-date", "2024-02-01",
        "--policy", shlex.join([sys.executable, str(plugin)]),
    ])
    assert result.exit_code == 0, result.output
    assert result.output.strip() == "2024-02-01"


def test_qa_trace_flag(runner, tmp_path):
    store_path = _ingest_case1(runner, tmp_path)
    result = runner.invoke(main, [
        "qa", "What is Alice's favorite restaurant?",
        "--store", store_path, "--trace",
    ])
    assert result.exit_code == 0
    assert "step 1" in result.output


def test_qa_budget_exhaustion_exit_code(runner, tmp_path):
    store_path = _ingest_case1(runner, tmp_path)
    script = tmp_path / "script.json"
    script.write_text(json.dumps(
        [{"tool": "schema_viewer", "args": {}}] * 3
    ))
    result = runner.invoke(main, [
        "qa", "q", "--store", store_path,
        "--max-tool-calls", "3", "--policy", f"script:{script}",
    ])
    assert result.exit_code == 2


def test_qa_provider_failure_exit_code(runner, tmp_path):
    store_path = _ingest_case1(runner, tmp_path)
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"tool": "schema_viewer", "args": {}}]))
    result = runner.invoke(main, [
        "qa", "q", "--store", store_path, "--policy", f"script:{script}",
    ])
    assert result.exit_code == 3


def test_qa_script_step_without_tool_or_answer_is_a_provider_failure(runner, tmp_path):
    store_path = _ingest_case1(runner, tmp_path)
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"reasoning": "neither"}]))
    result = runner.invoke(main, [
        "qa", "q", "--store", store_path, "--policy", f"script:{script}",
    ])
    assert result.exit_code == 3, result.output
    assert "provider failure: policy response has neither tool nor answer" in result.output


def test_qa_online_builds_from_corpus(runner, tmp_path):
    store_path = str(tmp_path / "online.sqlite")
    result = runner.invoke(main, [
        "qa", "What is Alice's favorite restaurant?",
        "--store", store_path,
        "--online", fixture_path("online_corpus.jsonl"),
        "--theta-rel", "0.1",
        "--question-date", "2024-04-01T00:00:00Z",
    ])
    assert result.exit_code == 0, result.output
    assert "Sakura Sushi" in result.output


def test_inspect_stats_and_history(runner, tmp_path):
    store_path = _ingest_case1(runner, tmp_path)
    stats = runner.invoke(main, ["inspect", "stats", "--store", store_path])
    assert stats.exit_code == 0
    assert "facts:" in stats.output

    history = runner.invoke(main, [
        "inspect", "history", "Alice", "favorite_restaurant",
        "--store", store_path,
    ])
    assert history.exit_code == 0
    assert "Italian Garden" in history.output
    assert "Sakura Sushi" in history.output


def test_inspect_unknown_entity_exit_code(runner, tmp_path):
    store_path = _ingest_case1(runner, tmp_path)
    result = runner.invoke(main, [
        "inspect", "history", "Nobody", "favorite_restaurant",
        "--store", store_path,
    ])
    assert result.exit_code == 1


def test_inspect_entity_document(runner, tmp_path):
    store_path = _ingest_case1(runner, tmp_path)
    result = runner.invoke(main, ["inspect", "entity", "1", "--store", store_path])
    assert result.exit_code == 0


def test_inspect_schema_needs_no_store(runner, tmp_path):
    missing = tmp_path / "missing.sqlite"
    for store_args in ([], ["--store", str(missing)]):
        result = runner.invoke(main, ["inspect", "schema", *store_args])
        assert result.exit_code == 0, result.output
        assert "- entities(entity_id, entity_name" in result.output
    assert not missing.exists()


@pytest.mark.parametrize("args", [
    ["stats"], ["entity", "1"], ["history", "Alice", "favorite_restaurant"],
])
def test_inspect_of_a_store_without_store_is_a_usage_error(runner, args):
    result = runner.invoke(main, ["inspect", *args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Usage:" in result.output
    assert "Missing option '--store'" in result.output


def test_synth_eval_command_deterministic(runner):
    args = ["synth-eval", "--seed", "7", "--n-sessions", "6", "--json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    assert first.output == second.output


def test_config_file_loading(tmp_path, monkeypatch):
    config = tmp_path / "conf"
    config.write_text("# comment\npolicy = reference\n\nbad line\n")
    assert load_config(str(config)) == {"policy": "reference"}
    monkeypatch.setenv("APEXMEM_CONFIG", str(config))
    assert load_config(None) == {"policy": "reference"}
    monkeypatch.delenv("APEXMEM_CONFIG")
    assert load_config(None) == {}


def test_conversion_fixture_ingests(runner, tmp_path):
    store_path = str(tmp_path / "conv.sqlite")
    result = runner.invoke(main, [
        "ingest", fixture_path("conversion.jsonl"), "--store", store_path,
        "--json",
    ])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["turns"] == 3
    assert report["failed_turns"] == []


@pytest.mark.parametrize("args", [["entity"], ["history", "Alice"], ["entity", "abc"]])
def test_inspect_bad_arguments_are_usage_errors(runner, tmp_path, args):
    store_path = _ingest_case1(runner, tmp_path)
    result = runner.invoke(main, ["inspect", *args, "--store", store_path])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Usage:" in result.output


@pytest.mark.parametrize("args, message", [
    (["--question-date", "garbage"], "not an ISO-8601 timestamp: 'garbage'"),
    (["--policy", "script:missing.json"], "policy script missing.json"),
])
def test_qa_bad_arguments_are_usage_errors(runner, tmp_path, args, message):
    store_path = _ingest_case1(runner, tmp_path)
    result = runner.invoke(main, ["qa", "q", "--store", store_path, *args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert message in result.output


@pytest.mark.parametrize("command", [
    ["inspect", "stats"],
    ["qa", "What is Alice's favorite restaurant?"],
])
def test_a_missing_store_is_named_and_not_created(runner, tmp_path, command):
    store_path = tmp_path / "missing.sqlite"
    result = runner.invoke(main, [*command, "--store", str(store_path)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: store does not exist: {store_path}" in result.output
    assert not store_path.exists()


@pytest.fixture
def open_stores(monkeypatch):
    """The stores opened and not closed yet."""
    live = []
    open_store, close_store = Store.open.__func__, Store.close

    def tracked_open(cls, *args, **kwargs):
        live.append(open_store(cls, *args, **kwargs))
        return live[-1]

    def tracked_close(self):
        live.remove(self)
        close_store(self)

    monkeypatch.setattr(Store, "open", classmethod(tracked_open))
    monkeypatch.setattr(Store, "close", tracked_close)
    return live


@pytest.mark.parametrize("steps, exit_code", [
    ([{"tool": "schema_viewer", "args": {}}] * 3, 2),  # budget exhausted
    ([{"tool": "schema_viewer", "args": {}}], 3),  # the script runs out
])
def test_qa_closes_its_store_on_a_failure_exit(runner, tmp_path, open_stores, steps, exit_code):
    store_path = _ingest_case1(runner, tmp_path)
    script = tmp_path / "script.json"
    script.write_text(json.dumps(steps))
    result = runner.invoke(main, [
        "qa", "q", "--store", store_path, "--max-tool-calls", "3", "--policy", f"script:{script}",
    ])
    assert result.exit_code == exit_code, result.output
    assert open_stores == []


def test_ingest_failure_ends_in_a_message_and_closes_its_store(runner, tmp_path, open_stores):
    gap = tmp_path / "gap.jsonl"
    gap.write_text("".join(json.dumps({
        "session_id": "s", "ordinal": ordinal, "speaker": "A", "listener": "B",
        "text": "hi", "anchor_datetime": "2024-01-01T00:00:00Z",
    }) + "\n" for ordinal in (0, 2)))
    result = runner.invoke(main, ["ingest", str(gap), "--store", str(tmp_path / "s.sqlite")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: session ordinals are not contiguous" in result.output
    assert open_stores == []


def test_an_ingest_failure_in_a_session_closes_its_store(runner, tmp_path, open_stores):
    """A gap in the ordinals ends the run before the store opens; a turn
    committed twice fails after it."""
    store_path = _ingest_case1(runner, tmp_path)
    result = runner.invoke(main, ["ingest", fixture_path("case1.jsonl"), "--store", store_path])
    assert result.exit_code == 1, result.output
    assert "error: duplicate turn" in result.output
    assert open_stores == []


def test_ingest_checks_every_session_before_it_commits_one(runner, tmp_path):
    """Session b's ordinals skip 1: the run ends before session a is
    committed, so the mended file can be ingested afterwards."""
    bad = fixture_path("bad_ordinals.jsonl")
    fresh = tmp_path / "fresh.sqlite"
    result = runner.invoke(main, ["ingest", bad, "--store", str(fresh)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: session ordinals are not contiguous: session 'b' has ordinals [0, 2]" \
        in result.output
    assert not fresh.exists()

    store_path = _ingest_case1(runner, tmp_path)
    stats = runner.invoke(main, ["inspect", "stats", "--store", store_path, "--json"]).output
    sidecar = open(VectorIndex.sidecar_path(store_path), "rb").read()
    result = runner.invoke(main, ["ingest", bad, "--store", store_path])
    assert result.exit_code == 1, result.output
    assert runner.invoke(main, ["inspect", "stats", "--store", store_path, "--json"]).output == stats
    assert open(VectorIndex.sidecar_path(store_path), "rb").read() == sidecar

    mended = tmp_path / "mended.jsonl"
    mended.write_text(open(bad, encoding="utf-8").read().replace('"ordinal": 2', '"ordinal": 1'))
    result = runner.invoke(main, ["ingest", str(mended), "--store", store_path, "--json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["turns"] == 4
