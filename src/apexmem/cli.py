"""Command-line surface: ingest transcripts, run QnA, inspect stores, and
run the synthetic temporal evaluation.

Providers default to the shipped reference implementations; external
plugin commands can be configured via a key=value config file (path in
APEXMEM_CONFIG or --config) with flags taking precedence.
"""
from __future__ import annotations

import json
import os
import shlex
import sys
from contextlib import closing
from typing import Optional

import click

from . import extract as extract_mod
from . import online as online_mod
from . import synth as synth_mod
from .agent import (
    AgentConfig,
    HeuristicPolicy,
    ScriptedPolicy,
    render_transcript,
    run_agent,
)
from .errors import ApexMemError, IoFailure, ParseError, ProviderFailure, ValidationFailure
from .extract import ReferenceExtractor
from .index import VectorIndex
from .ontology import Turn, parse_iso_datetime
from .providers import (
    SubprocessDecisionProvider,
    SubprocessEmbedder,
    SubprocessExtractor,
    SubprocessPolicy,
    policy_from_response,
)
from .resolve import RuleBasedProvider
from .store import Store
from .tools import build_entity_document, schema_viewer

CONFIG_ENV = "APEXMEM_CONFIG"


def load_config(path: Optional[str]) -> dict:
    """key=value text config; blank lines and # comments ignored."""
    path = path or os.environ.get(CONFIG_ENV)
    config: dict = {}
    if not path or not os.path.exists(path):
        return config
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            config[key.strip()] = value.strip()
    return config


def _provider(spec: Optional[str], reference_factory, subprocess_factory):
    if not spec or spec == "reference":
        return reference_factory()
    return subprocess_factory(shlex.split(spec))


def build_pipeline(config: dict):
    extractor = _provider(
        config.get("extractor"), ReferenceExtractor, SubprocessExtractor
    )
    decider = _provider(config.get("decision"), RuleBasedProvider, SubprocessDecisionProvider)
    embedder_spec = config.get("embedder")
    embedder = (
        SubprocessEmbedder(shlex.split(embedder_spec))
        if embedder_spec and embedder_spec != "reference"
        else None
    )
    return extractor, decider, embedder


def _open_store(path: str, create_if_missing: bool) -> Store:
    """The store at ``path``, closed when the command ends, however it ends.
    A store that cannot be opened ends the command with exit 1."""
    try:
        store = Store.open(path, create_if_missing=create_if_missing)
    except IoFailure as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    return click.get_current_context().with_resource(closing(store))


def open_index(store_path: str, embedder=None) -> VectorIndex:
    sidecar = VectorIndex.sidecar_path(store_path) if store_path != ":memory:" else None
    return VectorIndex(embedder=embedder, path=sidecar)


# what a malformed input line raises: bad JSON, a missing or mistyped field,
# or a value the ontology refuses (such as a timestamp that is not ISO-8601)
_LINE_ERRORS = (json.JSONDecodeError, KeyError, TypeError, ValueError, ValidationFailure)


def read_transcript(path: str):
    """JSONL transcript: one {session_id, ordinal, speaker, listener, text,
    anchor_datetime} object per line, grouped into sessions."""
    sessions: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                turn = Turn(
                    id=None,
                    session_id=str(raw["session_id"]),
                    ordinal=int(raw["ordinal"]),
                    speaker=raw["speaker"],
                    listener=raw["listener"],
                    text=raw["text"],
                    anchor_datetime=raw["anchor_datetime"],
                )
            except _LINE_ERRORS as exc:
                raise ParseError(f"line {line_number}: {exc}") from exc
            sessions.setdefault(turn.session_id, []).append(turn)
    return sessions


def read_corpus(path: str) -> list:
    """Parse an online corpus: one ``document_from_json`` object per line."""
    corpus = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                corpus.append(online_mod.document_from_json(json.loads(line)))
            except _LINE_ERRORS as exc:
                raise ParseError(f"line {line_number}: {exc}") from exc
    return corpus


@click.group()
@click.option("--config", "config_path", default=None, help="key=value config file")
@click.pass_context
def main(ctx, config_path):
    """Temporal property-graph conversational memory engine."""
    ctx.obj = load_config(config_path)


@main.command()
@click.argument("transcript", type=click.Path(exists=True))
@click.option("--store", "store_path", required=True, help="store file path")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@click.pass_obj
def ingest(config, transcript, store_path, as_json):
    """Ingest a JSONL transcript into a store."""
    try:
        sessions = read_transcript(transcript)
        # every session is checked before the first one is committed
        sessions = [extract_mod.in_ordinal_order(sessions[session_id])
                    for session_id in sorted(sessions)]
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(1)
    except ValidationFailure as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    extractor, decider, embedder = build_pipeline(config)
    store = _open_store(store_path, create_if_missing=True)
    index = open_index(store_path, embedder)

    failures = []
    turns = 0
    try:
        for session in sessions:
            outcomes = extract_mod.ingest_session(
                store, index, extractor, decider, decider, session,
            )
            turns += len(outcomes)
            failures.extend(o for o in outcomes if not o.ok)
    except ApexMemError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    counts = store.row_counts()
    summary = {
        "turns": turns,
        "events": counts["events"],
        "facts": counts["facts"],
        "entities": counts["entities"],
        "failed_turns": [
            {"session_id": o.session_id, "ordinal": o.ordinal, "error": o.error}
            for o in failures
        ],
    }
    if as_json:
        click.echo(json.dumps(summary, sort_keys=True))
    else:
        click.echo(
            f"ingested {summary['turns']} turns: {summary['events']} events, "
            f"{summary['facts']} facts, {summary['entities']} entities"
        )
        for failure in summary["failed_turns"]:
            click.echo(
                f"  failed turn ({failure['session_id']}, {failure['ordinal']}): "
                f"{failure['error']}",
                err=True,
            )


def _iso_timestamp(_ctx, _param, value: Optional[str]) -> Optional[str]:
    """``value``, refused as a bad parameter unless it is ISO-8601."""
    if value is not None:
        try:
            parse_iso_datetime(value)
        except ValidationFailure as exc:
            raise click.BadParameter(str(exc)) from None
    return value


def _load_policy(spec: Optional[str]):
    if not spec or spec == "reference":
        return HeuristicPolicy()
    if spec.startswith("script:"):
        path = spec[len("script:"):]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw_steps = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise click.BadParameter(
                f"policy script {path}: {exc}", param_hint="'--policy'") from None
        if not isinstance(raw_steps, list) or not all(isinstance(raw, dict) for raw in raw_steps):
            raise click.BadParameter(f"policy script {path}: not a list of objects",
                                     param_hint="'--policy'")
        # a step that is not a valid reply is a provider failure
        return ScriptedPolicy([policy_from_response(raw) for raw in raw_steps])
    return SubprocessPolicy(shlex.split(spec))


@main.command()
@click.argument("question")
@click.option("--store", "store_path", required=True)
@click.option("--question-date", default=None, callback=_iso_timestamp)
@click.option("--max-tool-calls", default=40, type=int)
@click.option("--trace", is_flag=True)
@click.option("--policy", "policy_spec", default=None,
              help='"reference", "script:<file>", or a plugin command')
@click.option("--online", "corpus_path", default=None, type=click.Path(exists=True),
              help="build the store online from this corpus JSONL first")
@click.option("--theta-rel", default=online_mod.DEFAULT_THETA_REL, type=float)
@click.option("--json", "as_json", is_flag=True)
@click.pass_obj
def qa(config, question, store_path, question_date, max_tool_calls, trace,
       policy_spec, corpus_path, theta_rel, as_json):
    """Answer a question using the agent loop. Exit 0 answered, 1 no such
    store or a bad corpus, 2 a bad argument, 3 provider failure, 4 budget
    exhausted. Only --online creates a store."""
    try:
        corpus = read_corpus(corpus_path) if corpus_path else None
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(1)

    extractor, decider, embedder = build_pipeline(config)
    store = _open_store(store_path, create_if_missing=corpus is not None)
    index = open_index(store_path, embedder)

    if corpus is not None:
        online_mod.build_online(
            store, index, extractor, decider, decider,
            corpus, question, online_mod.OnlineConfig(theta_rel=theta_rel),
        )

    agent_config = AgentConfig(
        max_tool_calls=max_tool_calls,
        question_date=question_date,
    )
    try:
        policy = _load_policy(policy_spec or config.get("policy"))
        transcript = run_agent(store, index, policy, question, agent_config)
    except ProviderFailure as exc:
        click.echo(f"provider failure: {exc}", err=True)
        sys.exit(3)

    if trace:
        click.echo(render_transcript(transcript), err=True)
    if transcript.terminated_reason == "provider_failure":
        click.echo("provider failure", err=True)
        sys.exit(3)
    if transcript.terminated_reason == "budget_exhausted":
        click.echo("budget exhausted without an answer", err=True)
        sys.exit(4)
    if as_json:
        click.echo(json.dumps({
            "answer": transcript.answer.text,
            "cited_evidence": list(transcript.answer.cited_evidence),
            "steps": len(transcript.steps),
        }, sort_keys=True))
    else:
        click.echo(transcript.answer.text)


# each inspect subcommand's arguments
_INSPECT_ARGS = {"schema": (), "stats": (), "entity": ("<id>",),
                 "history": ("<entity>", "<property>")}


@main.command()
@click.argument("subcommand", type=click.Choice(list(_INSPECT_ARGS)))
@click.argument("args", nargs=-1)
@click.option("--store", "store_path", default=None,
              help="store file path; schema, which is static, needs none")
@click.option("--json", "as_json", is_flag=True)
def inspect(subcommand, args, store_path, as_json):
    """Inspect a store: schema | entity <id> | history <entity> <property> | stats."""
    wanted = _INSPECT_ARGS[subcommand]
    if len(args) != len(wanted):
        raise click.UsageError(f"expected: inspect {' '.join((subcommand, *wanted))}")
    if subcommand == "schema":
        click.echo(schema_viewer().text)
        return
    if store_path is None:
        raise click.UsageError(f"Missing option '--store' for inspect {subcommand}.")
    if subcommand == "entity":
        try:
            entity_id = int(args[0].split(":")[-1])
        except ValueError:
            raise click.UsageError(f"not an entity id: {args[0]!r}") from None
    store = _open_store(store_path, create_if_missing=False)
    if subcommand == "stats":
        counts = store.row_counts()
        if as_json:
            click.echo(json.dumps(counts, sort_keys=True))
        else:
            for table in sorted(counts):
                click.echo(f"{table}: {counts[table]}")
    elif subcommand == "entity":
        doc = build_entity_document(store, entity_id)
        if doc is None:
            click.echo(f"unknown entity: {args[0]}", err=True)
            sys.exit(1)
        click.echo(doc)
    else:
        name, prop = args
        row = store.find_entity_by_name(name)
        if row is None:
            click.echo(f"unknown entity: {name}", err=True)
            sys.exit(1)
        history = store.fact_history(row["entity_id"], prop)
        if as_json:
            click.echo(json.dumps([
                {"value": str(f.value), "valid_from": f.valid_from,
                 "valid_to": f.valid_to, "created_at": f.created_at}
                for f in history
            ]))
        else:
            for fact in history:
                click.echo(
                    f"{fact.valid_from or '-'} .. {fact.valid_to or 'open'}: "
                    f"{fact.value}"
                )


@main.command("synth-eval")
@click.option("--seed", default=7, type=int)
@click.option("--n-sessions", default=20, type=int)
@click.option("--revisions", default=3, type=int)
@click.option("--mode", default="append_only",
              type=click.Choice(["append_only", "eager_update", "both"]))
@click.option("--json", "as_json", is_flag=True)
def synth_eval(seed, n_sessions, revisions, mode, as_json):
    """Score temporal-resolution accuracy on a generated corpus."""
    modes = ["append_only", "eager_update"] if mode == "both" else [mode]
    reports = [
        synth_mod.run_synth_eval(seed, n_sessions, revisions, mode=m) for m in modes
    ]
    if as_json:
        click.echo(json.dumps([
            {
                "mode": r.mode,
                "latest_accuracy": r.latest_accuracy,
                "before_accuracy": r.before_accuracy,
                "latest_total": r.latest_total,
                "before_total": r.before_total,
            }
            for r in reports
        ], sort_keys=True))
    else:
        for r in reports:
            click.echo(
                f"[{r.mode}] latest: {r.latest_correct}/{r.latest_total} "
                f"({r.latest_accuracy:.1%})  before-revision: "
                f"{r.before_correct}/{r.before_total} ({r.before_accuracy:.1%})"
            )


if __name__ == "__main__":
    main()
