import base64
import gc
import json
import math
import os
import re
import struct
import tempfile
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from apexmem import index as index_mod
from apexmem.errors import DimensionMismatch, EmbedderFailure, IoFailure, ZeroVector
from apexmem.index import (
    BM25_B,
    BM25_K1,
    KINDS,
    TrigramEmbedder,
    VectorIndex,
    bm25_scores,
    cosine,
    hybrid_search,
    minmax_normalize,
    tokenize,
    upsert_embeddings,
)
from apexmem.ontology import DType, Event, Evidence, Role, Turn
from apexmem.resolve import DEFAULT_K, retrieve_entity_candidates
from apexmem.store import Store
from apexmem.tools import search
from conftest import ingest_case1


def dict_minmax(scores):
    """``minmax_normalize`` as a dict formula of its own, so that the
    fusion oracles share no code with the fusion they check."""
    if not scores:
        return {}
    low, high = min(scores.values()), max(scores.values())
    if high == low:
        return {key: 1.0 for key in scores}
    return {key: (s - low) / (high - low) for key, s in scores.items()}


def _as_dict(scores):
    """doc_id -> score of a ``Scores``."""
    return dict(zip(scores.doc_ids.tolist(), scores.values.tolist()))


def oracle_bm25(corpus, query):
    """Independent textbook BM25 implementation."""
    docs = {doc_id: tokenize(text) for doc_id, text in corpus}
    n = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n if n else 0.0
    query_terms = tokenize(query)
    scores = {}
    for doc_id, terms in docs.items():
        score = 0.0
        for term in set(query_terms):
            df = sum(1 for t in docs.values() if term in t)
            if df == 0:
                continue
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            tf = terms.count(term)
            denom = tf + BM25_K1 * (1 - BM25_B + BM25_B * len(terms) / avgdl)
            score += idf * (tf * (BM25_K1 + 1)) / denom
        if score > 0.0:
            scores[doc_id] = score
    return scores


def test_tokenize_lowercases_and_splits():
    assert tokenize("Hello, World! foo_bar 42") == ["hello", "world", "foo", "bar", "42"]


def test_bm25_matches_oracle_small():
    corpus = [
        (1, "the quick brown fox"),
        (2, "the lazy dog sleeps"),
        (3, "quick quick fox runs"),
    ]
    got = bm25_scores(corpus, "quick fox")
    want = oracle_bm25(corpus, "quick fox")
    assert set(got) == set(want)
    for doc_id in want:
        assert got[doc_id] == pytest.approx(want[doc_id], abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abcdef ", min_size=1, max_size=30), min_size=1, max_size=20
    ),
    st.text(alphabet="abcdef ", min_size=1, max_size=15),
)
@example(texts=["a"], query="a a")  # a repeated query term counts once
def test_bm25_matches_oracle_property(texts, query):
    corpus = [(i, t) for i, t in enumerate(texts) if tokenize(t)]
    if not corpus:
        return
    got = bm25_scores(corpus, query)
    want = oracle_bm25(corpus, query)
    assert set(got) == set(want)
    for doc_id in want:
        assert abs(got[doc_id] - want[doc_id]) < 1e-9


def test_trigram_embedder_deterministic_and_normalized():
    embedder = TrigramEmbedder()
    a = embedder.embed("Italian Garden")
    b = embedder.embed("Italian Garden")
    assert np.array_equal(a, b)
    assert a.shape == (embedder.dimension,)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-9)


def test_cosine_errors():
    with pytest.raises(DimensionMismatch):
        cosine(np.ones(3), np.ones(4))
    with pytest.raises(ZeroVector):
        cosine(np.zeros(3), np.ones(3))


def test_cosine_bounds():
    embedder = TrigramEmbedder()
    a = embedder.embed("sushi restaurant")
    b = embedder.embed("sushi place")
    assert -1.0 - 1e-9 <= cosine(a, b) <= 1.0 + 1e-9
    assert cosine(a, a) == pytest.approx(1.0, abs=1e-9)


def test_minmax_normalize_degenerate_is_one():
    assert minmax_normalize({1: 0.7}) == {1: 1.0}
    assert minmax_normalize({1: 0.5, 2: 0.5}) == {1: 1.0, 2: 1.0}
    assert minmax_normalize({}) == {}


def test_minmax_normalize_spreads_to_unit_interval():
    got = minmax_normalize({1: 2.0, 2: 4.0, 3: 3.0})
    assert got == {1: 0.0, 2: 1.0, 3: 0.5}


def test_lexical_search_over_store(store, index):
    ingest_case1(store, index)
    hits = index.lexical_scores(store, "entity", "sakura sushi").top(3)
    assert hits
    top_id = hits[0][0]
    assert store.entity_row(top_id)["entity_name"] == "Sakura Sushi"


def test_vector_index_upsert_idempotent(store, index):
    ingest_case1(store, index)
    seen = upsert_embeddings(store, index)
    again = upsert_embeddings(store, index)
    assert again == 0 or again <= seen  # second pass adds nothing new
    before = dict(index.entries)
    upsert_embeddings(store, index)
    assert set(index.entries) == set(before)


def test_vector_index_persistence(tmp_path, store):
    path = str(tmp_path / "db.sqlite")
    disk_store = type(store).open(path)
    index = VectorIndex(path=VectorIndex.sidecar_path(path))
    ingest_case1(disk_store, index)
    index.save()
    reloaded = VectorIndex(path=VectorIndex.sidecar_path(path))
    assert set(reloaded.entries) == set(index.entries)
    assert reloaded.high_water == index.high_water
    for key, vec in index.entries.items():
        assert np.allclose(reloaded.entries[key], vec)
    disk_store.close()


def test_upsert_embeddings_reads_only_new_rows(store, index, monkeypatch):
    ingest_case1(store, index)
    scanned = []
    original = index_mod.kind_documents

    def counting(store_, kind, after_id=0):
        rows = original(store_, kind, after_id)
        scanned.extend(rows)
        return rows

    monkeypatch.setattr(index_mod, "kind_documents", counting)
    assert upsert_embeddings(store, index) == 0
    assert scanned == []
    new_id = store.append_entity("Carol", "Person", Role.Mentioned, [],
                                 created_at="2024-05-01T00:00:00Z")
    assert upsert_embeddings(store, index) == 1
    assert scanned == [(new_id, "Carol")]
    assert ("entity", new_id) in index.entries


def test_upsert_embeddings_resumes_after_embedder_failure(store):
    class FlakyEmbedder(TrigramEmbedder):
        fail_on = "Bob"

        def embed(self, text):
            if text == self.fail_on:
                raise RuntimeError("embedder down")
            return super().embed(text)

    embedder = FlakyEmbedder()
    index = VectorIndex(embedder)
    ids = [store.append_entity(name, "Person", Role.Mentioned, [],
                               created_at="2024-01-01T00:00:00Z")
           for name in ("Alice", "Bob", "Carol")]
    with pytest.raises(EmbedderFailure):
        upsert_embeddings(store, index)
    assert set(index.entries) == {("entity", ids[0])}
    embedder.fail_on = None
    assert upsert_embeddings(store, index) == 2
    assert set(index.entries) == {("entity", doc_id) for doc_id in ids}


def _disk_case1(tmp_path):
    """A file-backed store holding case 1, with its index saved."""
    path = str(tmp_path / "db.sqlite")
    disk_store = Store.open(path)
    index = VectorIndex(path=VectorIndex.sidecar_path(path))
    ingest_case1(disk_store, index)
    index.save()
    return disk_store, index


def _add_entities(store, names):
    return [store.append_entity(name, "Person", Role.Mentioned, [],
                                created_at="2024-05-01T00:00:00Z")
            for name in names]


def _sidecar_lines(index):
    with open(index.path, "rb") as handle:
        return handle.read().splitlines(keepends=True)


def test_save_appends_only_new_vectors(tmp_path):
    disk_store, index = _disk_case1(tmp_path)
    before = open(index.path, "rb").read()
    assert len(before.splitlines()) == len(index.entries)
    new_ids = _add_entities(disk_store, ["Carol", "Dave", "Erin"])
    assert upsert_embeddings(disk_store, index) == 3
    after = open(index.path, "rb").read()
    assert after.startswith(before)
    added = [json.loads(line) for line in after[len(before):].splitlines()]
    assert [(r["kind"], r["doc_id"]) for r in added] == [("entity", i) for i in new_ids]
    index.save()  # nothing new: the file is left as it is
    assert open(index.path, "rb").read() == after
    disk_store.close()


def test_save_with_nothing_new_creates_the_file(tmp_path):
    index = VectorIndex(path=str(tmp_path / "empty.vec"))
    index.save()
    assert open(index.path, "rb").read() == b""


def test_reload_is_bitwise_equal(tmp_path):
    disk_store, index = _disk_case1(tmp_path)
    _add_entities(disk_store, ["Carol"])
    upsert_embeddings(disk_store, index)
    reloaded = VectorIndex(path=index.path)
    assert reloaded.high_water == index.high_water
    assert list(reloaded.entries) == list(index.entries)
    for key, vector in index.entries.items():
        assert reloaded.entries[key].tobytes() == vector.tobytes()
    disk_store.close()


def test_full_rewrite_sidecar_loads_unchanged(tmp_path, store, index):
    """A sidecar written whole and sorted by (kind, doc_id) loads as it is,
    and later saves append to it."""
    ingest_case1(store, index)
    path = str(tmp_path / "sorted.vec")
    with open(path, "w", encoding="utf-8") as handle:
        for (kind, doc_id), vector in sorted(index.entries.items()):
            handle.write(json.dumps(
                {"kind": kind, "doc_id": doc_id, "vector": vector.tolist()}) + "\n")
    original = open(path, "rb").read()
    reloaded = VectorIndex(path=path)
    assert reloaded.high_water == index.high_water
    assert set(reloaded.entries) == set(index.entries)
    for key, vector in index.entries.items():
        assert reloaded.entries[key].tobytes() == vector.tobytes()
    (new_id,) = _add_entities(store, ["Carol"])
    assert upsert_embeddings(store, reloaded) == 1
    lines = _sidecar_lines(reloaded)
    assert b"".join(lines[:-1]) == original
    assert json.loads(lines[-1])["doc_id"] == new_id


def test_torn_last_record_is_dropped_and_embedded_again(tmp_path):
    disk_store, index = _disk_case1(tmp_path)
    lines = _sidecar_lines(index)
    torn = json.loads(lines[-1])
    with open(index.path, "wb") as handle:
        handle.write(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    reopened = VectorIndex(path=index.path)
    lost = (torn["kind"], torn["doc_id"])
    assert lost not in reopened.entries
    assert len(reopened.entries) == len(lines) - 1
    assert reopened.high_water[torn["kind"]] < torn["doc_id"]
    assert upsert_embeddings(disk_store, reopened) == 1
    assert reopened.entries[lost].tobytes() == index.entries[lost].tobytes()
    assert _sidecar_lines(reopened) == lines
    disk_store.close()


def test_malformed_middle_line_raises(tmp_path):
    disk_store, index = _disk_case1(tmp_path)
    lines = _sidecar_lines(index)
    lines[1] = lines[1][: len(lines[1]) // 2] + b"\n"
    with open(index.path, "wb") as handle:
        handle.write(b"".join(lines))
    with pytest.raises(ValueError):
        VectorIndex(path=index.path)
    disk_store.close()


def test_embedder_failure_leaves_prefix_on_disk(tmp_path):
    class FlakyEmbedder(TrigramEmbedder):
        def embed(self, text):
            if text == "Bob":
                raise RuntimeError("embedder down")
            return super().embed(text)

    path = str(tmp_path / "db.sqlite")
    disk_store = Store.open(path)
    ids = _add_entities(disk_store, ["Alice", "Bob", "Carol"])
    index = VectorIndex(FlakyEmbedder(), path=VectorIndex.sidecar_path(path))
    with pytest.raises(EmbedderFailure):
        upsert_embeddings(disk_store, index)
    on_disk = VectorIndex(path=index.path)
    assert set(on_disk.entries) == {("entity", ids[0])}
    assert upsert_embeddings(disk_store, on_disk) == 2
    assert [json.loads(line)["doc_id"] for line in _sidecar_lines(on_disk)] == ids
    disk_store.close()


def test_save_refuses_a_sidecar_that_lost_saved_records(tmp_path):
    disk_store, index = _disk_case1(tmp_path)
    with open(index.path, "wb"):
        pass
    _add_entities(disk_store, ["Carol"])
    with pytest.raises(IoFailure):
        upsert_embeddings(disk_store, index)
    disk_store.close()


def test_save_refuses_records_appended_by_another_writer(tmp_path):
    """Two indexes on one sidecar: the second one's whole records are never
    cut as if they were torn; the first index's save raises instead."""
    disk_store, first = _disk_case1(tmp_path)
    second = VectorIndex(path=first.path)
    _add_entities(disk_store, ["Carol"])
    assert upsert_embeddings(disk_store, second) == 1
    written = open(first.path, "rb").read()
    _add_entities(disk_store, ["Dave"])
    with pytest.raises(IoFailure):
        upsert_embeddings(disk_store, first)
    assert open(first.path, "rb").read() == written
    assert VectorIndex(path=first.path).high_water == second.high_water
    disk_store.close()


def test_in_memory_index_keeps_no_unsaved_list(store, index):
    ingest_case1(store, index)
    assert index.entries
    assert index._unsaved is None
    index.save()  # no file: nothing to do


def test_save_with_nothing_new_does_not_open_the_sidecar(tmp_path, monkeypatch):
    disk_store, index = _disk_case1(tmp_path)
    reopened = VectorIndex(path=index.path)

    def refused(*args, **kwargs):
        raise AssertionError("the sidecar was opened")

    monkeypatch.setattr(index_mod, "open", refused, raising=False)
    index.save()  # created the file
    reopened.save()  # loaded it
    disk_store.close()


def test_a_record_holds_the_bytes_of_its_nonzero_buckets(tmp_path):
    """Little-endian int32 buckets and float64 values, base64 encoded; a
    -0.0 is a nonzero bit pattern and is kept."""
    vector = np.zeros(TrigramEmbedder.dimension)
    vector[[1, 3, 200]] = [-0.0, 0.5, 5e-324]
    index = VectorIndex(_TableEmbedder({"v": vector}), path=str(tmp_path / "db.sqlite.vec"))
    index.upsert("entity", 7, "v")
    index.save()
    (line,) = _sidecar_lines(index)
    assert json.loads(line) == {
        "kind": "entity", "doc_id": 7,
        "buckets": base64.b64encode(struct.pack("<3i", 1, 3, 200)).decode("ascii"),
        "values": base64.b64encode(struct.pack("<3d", -0.0, 0.5, 5e-324)).decode("ascii"),
    }
    assert VectorIndex(path=index.path).entries["entity", 7].tobytes() == vector.tobytes()


def _write_sidecar(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(record) + "\n" for record in records)


def test_an_old_form_vector_of_another_dimension_is_refused(tmp_path):
    path = str(tmp_path / "db.sqlite.vec")
    _write_sidecar(path, [
        {"kind": "entity", "doc_id": 1, "vector": TrigramEmbedder().embed("Alice").tolist()},
        {"kind": "entity", "doc_id": 2, "vector": [0.5] * 10},
    ])
    with pytest.raises(DimensionMismatch, match=f"sidecar {re.escape(path)} line 2: "):
        VectorIndex(path=path)


def test_a_bucket_outside_the_dimension_is_refused(tmp_path):
    path = str(tmp_path / "db.sqlite.vec")
    _write_sidecar(path, [{
        "kind": "entity", "doc_id": 1,
        "buckets": base64.b64encode(struct.pack("<2i", 3, 256)).decode("ascii"),
        "values": base64.b64encode(struct.pack("<2d", 0.6, 0.8)).decode("ascii"),
    }])
    with pytest.raises(DimensionMismatch, match=f"sidecar {re.escape(path)} line 1: "):
        VectorIndex(path=path)


class _TableEmbedder:
    """Maps each text to the vector it was given."""

    dimension = TrigramEmbedder.dimension

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, text):
        return self.vectors[text]


def _sparse(entries):
    vector = np.zeros(_TableEmbedder.dimension)
    for bucket, value in entries.items():
        vector[bucket] = value
    return vector


# every float64: NaNs, infinities, subnormals and both zeros
_FLOATS = st.floats(width=64)
_ANY_VECTOR = st.one_of(
    # sparse, as the trigram embedder's are
    st.dictionaries(st.integers(0, _TableEmbedder.dimension - 1), _FLOATS, max_size=8)
    .map(_sparse),
    # dense, as a plugin embedder's may be
    st.lists(_FLOATS, min_size=_TableEmbedder.dimension, max_size=_TableEmbedder.dimension)
    .map(np.array),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_ANY_VECTOR, min_size=1, max_size=4), st.integers(min_value=0))
@example([_sparse({5: -0.0})], 0)
@example([_sparse({0: 5e-324, 9: -1e-310})], 17)
@example([np.linspace(-1.0, 1.0, _TableEmbedder.dimension), _sparse({200: 1.0})], 3)
def test_any_vector_reloads_bit_for_bit_and_a_torn_last_record_is_written_again(vectors, cut):
    """Save then reload gives every vector's bytes back. Cutting the file
    at any offset inside its last record drops exactly that record, and
    the next ``upsert_embeddings`` writes it again, byte for byte."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "db.sqlite.vec")
        embedder = _TableEmbedder({f"v{number}": v for number, v in enumerate(vectors)})
        store = Store.open(":memory:")
        _add_entities(store, list(embedder.vectors))
        index = VectorIndex(embedder, path=path)
        assert upsert_embeddings(store, index) == len(vectors)
        keys = list(index.entries)
        reloaded = VectorIndex(embedder, path=path)
        assert list(reloaded.entries) == keys
        assert [reloaded.entries[key].tobytes() for key in keys] == [
            vector.tobytes() for vector in vectors]
        saved = open(path, "rb").read()
        last = saved.rfind(b"\n", 0, len(saved) - 1) + 1
        with open(path, "r+b") as handle:
            handle.truncate(last + cut % (len(saved) - last))
        torn = VectorIndex(embedder, path=path)
        assert list(torn.entries) == keys[:-1]
        assert upsert_embeddings(store, torn) == 1
        assert open(path, "rb").read() == saved
        store.close()


def test_hybrid_search_finds_entity(store, index):
    ingest_case1(store, index)
    results = hybrid_search(store, index, ("entity",), "Sakura Sushi", k=3)
    assert results
    doc_id, kind, score = results[0]
    assert kind == "entity"
    assert store.entity_row(doc_id)["entity_name"] == "Sakura Sushi"
    assert 0.0 <= score.fused <= 1.0


def test_hybrid_dense_matches_brute_force(store, index):
    ingest_case1(store, index)
    embedder = TrigramEmbedder()
    query_vec = embedder.embed("Sakura Sushi")
    results = hybrid_search(store, index, ("entity",), "Sakura Sushi", k=10)
    for doc_id, _, score in results:
        doc_vec = index.entries[("entity", doc_id)]
        assert score.dense == pytest.approx(cosine(query_vec, doc_vec), abs=1e-9)


_WORDS = ["sakura", "sushi", "garden", "pasta", "blue", "red", "town", "walk"]


class _ScaledEmbedder(TrigramEmbedder):
    """Trigram vectors scaled by the text's length, so that no norm is 1."""

    def embed(self, text):
        return super().embed(text) * (1.0 + len(text))


def _append_entity(store, text):
    return store.append_entity(text, "Topic", Role.Mentioned, [],
                               created_at="2024-01-01T00:00:00Z")


def _append_row(store, kind, text, number):
    """A row of ``kind`` whose search text holds ``text``. An evidence row
    comes with the turn it quotes and its event."""
    if kind == "entity":
        _append_entity(store, text)
    elif kind == "property":
        store.append_property(f"{text.replace(' ', '_')}_{number}", DType.str)
    elif kind == "event":
        store.append_event_bundle(Event(None, text, "2024-01-01T00:00:00Z"))
    else:
        (turn_id,) = store.append_turns([Turn(None, f"s{number}", "Alice", "Bob", text,
                                              "2024-01-01T00:00:00Z", 0)])
        if kind == "evidence":
            store.append_event_bundle(
                Event(None, "conversation", "2024-01-01T00:00:00Z"),
                evidence=[Evidence(None, None, turn_id, (0, len(text)), text)])


class _RowPostings:
    """The BM25 postings as they were kept per row: every row tokenized,
    its terms posted, and each term's contribution summed per query. An
    oracle for ``_Postings``, which keeps them per distinct text."""

    def __init__(self):
        self.high_water = 0
        self.doc_ids = []
        self.lengths = []
        self.total_length = 0
        self.terms = {}

    def extend(self, documents):
        for doc_id, text in documents:
            tokens = tokenize(text)
            row = len(self.doc_ids)
            self.doc_ids.append(doc_id)
            self.lengths.append(len(tokens))
            self.total_length += len(tokens)
            for term, freq in Counter(tokens).items():
                rows, freqs = self.terms.setdefault(term, ([], []))
                rows.append(row)
                freqs.append(freq)
            self.high_water = doc_id

    def scores(self, query):
        n_docs = len(self.doc_ids)
        totals = np.zeros(n_docs)
        length_norms = np.empty(0)
        if n_docs:
            avgdl = self.total_length / n_docs
            length_norms = BM25_K1 * (1.0 - BM25_B + BM25_B * np.array(self.lengths) / avgdl)
        for term in dict.fromkeys(tokenize(query)):
            if term not in self.terms:
                continue
            rows, freqs = (np.array(column) for column in self.terms[term])
            df = len(rows)
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            totals[rows] += idf * freqs * (BM25_K1 + 1.0) / (freqs + length_norms[rows])
        positive = np.flatnonzero(totals > 0.0)
        return np.array(self.doc_ids, dtype=np.int64)[positive], totals[positive]


class _RowVectors:
    """The dense channel as it was kept per row: one matrix row per row of
    the kind, scored with one ``einsum``. An oracle for ``_Vectors``, which
    keeps one matrix row per distinct vector."""

    def __init__(self, dimension):
        self.high_water = 0
        self.doc_ids = []
        self.vectors = np.empty((0, dimension))

    def extend(self, embedder, documents):
        for doc_id, text in documents:
            self.doc_ids.append(doc_id)
            self.vectors = np.vstack([self.vectors, embedder.embed(text)])
            self.high_water = doc_id

    def scores(self, query_vector):
        norms = np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors))
        products = np.einsum("ij,j->i", self.vectors, query_vector)
        values = products / (norms * np.linalg.norm(query_vector))
        return np.array(self.doc_ids, dtype=np.int64), values


def _score_bits(doc_ids, values):
    return doc_ids.tolist(), [value.hex() for value in values.tolist()]


# few texts, so that most rows repeat an earlier one
_TEXT_POOL = ["sakura sushi", "sushi", "garden walk", "blue town pasta", "red"]


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(["append", "append and embed", "reload", "query"]),
        st.sampled_from(KINDS),
        st.sampled_from(_TEXT_POOL),
    ),
    min_size=1, max_size=30,
))
@example([("append and embed", "event", "sushi")] * 3
         + [("append", "evidence", "sushi"), ("reload", "turn", "red"),
            ("append and embed", "turn", "sushi"), ("query", "turn", "sushi")])
# a query repeated after its kind gained a row
@example([("append", "turn", "sushi"), ("query", "turn", "sushi"),
          ("append", "turn", "sakura sushi"), ("query", "turn", "sushi")])
def test_incremental_index_matches_oracles(steps):
    """Rows of every kind drawn from a few texts, embeddings, sidecar
    reloads and queries in any order: every kind's lexical and dense scores
    are bit-equal to those of the per-row postings and matrix, and within
    1e-9 of the from-scratch ``bm25_scores`` and ``cosine``."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "db.sqlite.vec")
        store = Store.open(":memory:")
        embedder = _ScaledEmbedder()
        index = VectorIndex(embedder, path=path)
        postings = {kind: _RowPostings() for kind in KINDS}
        vectors = {kind: _RowVectors(embedder.dimension) for kind in KINDS}
        for number, (action, kind, text) in enumerate(steps):
            if action == "reload":
                index.save()
                index = VectorIndex(embedder, path=path)
            elif action != "query":
                _append_row(store, kind, text, number)
                if action == "append and embed":
                    upsert_embeddings(store, index)
                    for each in KINDS:
                        vectors[each].extend(embedder, store.lexical_documents(
                            each, vectors[each].high_water))
            else:
                query_vector = embedder.embed(text)
                for each in KINDS:
                    postings[each].extend(store.lexical_documents(
                        each, postings[each].high_water))
                    got = index.lexical_scores(store, each, text)
                    assert _score_bits(got.doc_ids, got.values) == _score_bits(
                        *postings[each].scores(text))
                    want = bm25_scores(store.lexical_documents(each), text)
                    assert _as_dict(got).keys() == want.keys()
                    assert all(abs(score - want[doc_id]) < 1e-9
                               for doc_id, score in _as_dict(got).items())
                    got = index.dense_scores(each, query_vector)
                    assert _score_bits(got.doc_ids, got.values) == _score_bits(
                        *vectors[each].scores(query_vector))
                    embedded = store.lexical_documents(each)[:len(vectors[each].doc_ids)]
                    assert all(abs(score - cosine(query_vector, embedder.embed(doc))) < 1e-9
                               for score, (_, doc) in zip(got.values.tolist(), embedded))
        assert len(index.entries) == sum(len(kind.doc_ids) for kind in vectors.values())
        store.close()


def test_a_kind_of_one_text_holds_one_matrix_row():
    index = VectorIndex()
    for doc_id in range(1, 601):
        index.upsert("event", doc_id, "conversation")
    scores = index.dense_scores("event", index.embed("conversation"))
    vectors = index._vectors["event"]
    assert vectors.distinct == 1 and len(vectors.matrix) == 1
    assert len(index.entries) == 600
    assert scores.doc_ids.tolist() == list(range(1, 601))
    assert len(set(scores.values.tolist())) == 1


def test_a_repeated_lexical_query_computes_no_term_impact(store, index, monkeypatch):
    ingest_case1(store, index)
    query = "Alice restaurant Sakura Sushi"
    first = index.lexical_scores(store, "turn", query)
    assert len(first.doc_ids)
    idfs = []
    monkeypatch.setattr(index_mod, "math", SimpleNamespace(
        log=lambda value: idfs.append(value) or math.log(value)))
    again = index.lexical_scores(store, "turn", query)
    assert idfs == []
    assert _score_bits(again.doc_ids, again.values) == _score_bits(first.doc_ids, first.values)
    # a new row changes every term's weight: the kept impacts are dropped
    _append_row(store, "turn", "sushi", 99)
    index.lexical_scores(store, "turn", query)
    assert idfs


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=2, max_size=5, unique=True),
    st.lists(st.integers(0, 40), max_size=6),
)
def test_duplicate_texts_score_equal_and_rank_by_doc_id(rows, query_points):
    """The same text at arbitrary rows, folded in different batches and
    after matrix growth, gets bitwise-equal scores and ranks by doc_id."""
    store = Store.open(":memory:")
    index = VectorIndex()
    duplicate = "sakura sushi garden"
    ids = []
    for row in range(max(rows) + 1):
        text = duplicate if row in rows else f"filler {_WORDS[row % 8]} {row}"
        doc_id = _append_entity(store, text)
        if row in rows:
            ids.append(doc_id)
        if row in query_points:
            upsert_embeddings(store, index)
            hybrid_search(store, index, ("entity",), "sushi", 3)
    upsert_embeddings(store, index)

    lexical = [hit for hit in index.lexical_scores(store, "entity", duplicate).top(10)
               if hit[0] in ids]
    assert [doc_id for doc_id, _ in lexical] == ids
    assert len({score for _, score in lexical}) == 1

    hybrid = [hit for hit in hybrid_search(store, index, ("entity",), duplicate, 10)
              if hit[0] in ids]
    assert [doc_id for doc_id, _, _ in hybrid] == ids
    assert len({score for _, _, score in hybrid}) == 1
    store.close()


def test_dropped_index_is_freed_at_once(store):
    """Nothing in an index points back to it, so ``del`` frees it and its
    per-kind state without waiting for the cycle collector."""
    index = VectorIndex()
    ingest_case1(store, index)
    hybrid_search(store, index, KINDS, "Sakura Sushi", k=3)
    refs = [weakref.ref(index), weakref.ref(index.entries)]
    refs += [weakref.ref(state) for state in index._vectors.values()]
    refs += [weakref.ref(state) for state in index._postings.values()]
    gc.disable()
    try:
        del index
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_dense_scores_refuse_zero_vectors(store):
    class ZeroForBob(TrigramEmbedder):
        def embed(self, text):
            return np.zeros(self.dimension) if text == "Bob" else super().embed(text)

    index = VectorIndex(ZeroForBob())
    for name in ("Alice", "Bob"):
        _append_entity(store, name)
    upsert_embeddings(store, index)
    query = TrigramEmbedder().embed("Alice")
    for _ in range(2):  # the zero row stays and keeps refusing
        with pytest.raises(ZeroVector):
            index.dense_scores("entity", query)
    alice_only = VectorIndex()
    alice_only.upsert("entity", 1, "Alice")
    with pytest.raises(ZeroVector):
        alice_only.dense_scores("entity", np.zeros(TrigramEmbedder.dimension))


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(["upsert", "reload", "query", "query"]),
        st.sampled_from(["entity", "property"]),
        # few texts and ks, so that most queries repeat an earlier one
        st.sampled_from(["sakura sushi", "sushi", "blue", "garden walk"]),
        st.sampled_from([1, 3]),
    ),
    min_size=1, max_size=30,
))
def test_nearest_equals_a_fresh_scan(steps):
    """Upserts, reloads from the sidecar and repeated queries in any order:
    ``nearest`` returns what a full scan of the kind returns at that moment."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "db.sqlite.vec")
        index = VectorIndex(path=path)
        next_ids = Counter()
        for action, kind, text, k in steps:
            if action == "upsert":
                next_ids[kind] += 1
                index.upsert(kind, next_ids[kind], text)
            elif action == "reload":
                index.save()
                index = VectorIndex(path=path)
            else:
                fresh = index.dense_scores(kind, index.embed(text)).top(k)
                assert index.nearest(kind, text, k) == fresh


class _CountingEmbedder(TrigramEmbedder):
    def __init__(self):
        self.calls = Counter()

    def embed(self, text):
        self.calls[text] += 1
        return super().embed(text)


def test_a_repeated_mention_is_embedded_once_until_its_kind_grows(store):
    """A repeated mention reaches the embedder once, and its kind is scanned
    again only after it grows."""
    embedder = _CountingEmbedder()
    index = VectorIndex(embedder)
    scans = Counter()
    dense_scores = index.dense_scores

    def counting(kind, query_vector):
        scans[kind] += 1
        return dense_scores(kind, query_vector)

    index.dense_scores = counting
    _append_entity(store, "Alice")
    upsert_embeddings(store, index)
    first = retrieve_entity_candidates(store, index, "alice")
    assert retrieve_entity_candidates(store, index, "alice") == first
    index.nearest("property", "alice", 3)  # another kind leaves entity's kept
    assert retrieve_entity_candidates(store, index, "alice") == first
    assert scans == {"entity": 1, "property": 1}
    _append_entity(store, "Alicia")
    upsert_embeddings(store, index)
    grown = retrieve_entity_candidates(store, index, "alice")
    assert scans == {"entity": 2, "property": 1}
    assert [c.name for c in grown] == ["Alice", "Alicia"]
    # the kept list is not the caller's
    index.nearest("entity", "alice", DEFAULT_K).clear()
    assert [doc_id for doc_id, _ in index.nearest("entity", "alice", DEFAULT_K)] == [
        c.id for c in grown]
    assert scans == {"entity": 2, "property": 1}
    assert embedder.calls["alice"] == 1


def test_a_repeated_text_reaches_the_embedder_once(store, monkeypatch):
    """``embed`` keeps the vectors of recent texts, read-only, and evicts
    the oldest first."""
    embedder = _CountingEmbedder()
    index = VectorIndex(embedder)
    ingest_case1(store, index)
    query = "Alice restaurant"
    for _ in range(2):
        search(store, index, query)
        hybrid_search(store, index, ("entity",), query, 3)
    assert embedder.calls[query] == 1
    vector = index.embed(query)
    assert not vector.flags.writeable
    with pytest.raises(ValueError):
        vector[0] = 1.0
    monkeypatch.setattr(index_mod, "EMBEDDINGS_KEPT", 2)
    index._embedded.clear()
    for text in ("first", "second", "third", "second"):
        index.embed(text)
    index.embed("first")
    assert [embedder.calls[text] for text in ("first", "second", "third")] == [2, 1, 1]


def test_a_failed_call_keeps_nothing(store):
    class DownOnce(TrigramEmbedder):
        down = False

        def embed(self, text):
            if self.down:
                self.down = False
                raise RuntimeError("embedder down")
            return super().embed(text)

    embedder = DownOnce()
    index = VectorIndex(embedder)
    index.upsert("entity", 1, "Alice")
    # a text not embedded yet: "Alice" itself is kept by embed
    embedder.down = True
    with pytest.raises(EmbedderFailure):
        index.nearest("entity", "alice", 3)
    assert index.nearest("entity", "alice", 3) == [(1, pytest.approx(1.0))]
    embedder.down = True
    with pytest.raises(EmbedderFailure):
        index.embed("bob")
    assert "bob" not in index._embedded

    class ZeroForBob(TrigramEmbedder):
        def embed(self, text):
            return np.zeros(self.dimension) if text == "Bob" else super().embed(text)

    index = VectorIndex(ZeroForBob())
    index.upsert("entity", 1, "Bob")
    for _ in range(2):  # the zero row stays queued and keeps refusing
        with pytest.raises(ZeroVector):
            index.nearest("entity", "Alice", 3)


def oracle_hybrid_search(store, index, kinds, query, k):
    """``hybrid_search`` as it fused before: both channels' raw scores of
    every candidate through dicts, each normalized by ``dict_minmax``,
    and one ``HybridScore`` per candidate before the cut to ``k``."""
    query_vector = index.embed(query)
    pool = index_mod.POOL_MULTIPLIER * k
    results = []
    for kind in sorted(set(kinds)):
        dense_all = index.dense_scores(kind, query_vector)
        lexical_all = dict(index.lexical_scores(store, kind, query).top(pool))
        candidates = {doc_id for doc_id, _ in dense_all.top(pool)} | set(lexical_all)
        if not candidates:
            continue
        dense_raw = {doc_id: dense_all.get(doc_id, 0.0) for doc_id in candidates}
        lexical_raw = {doc_id: lexical_all.get(doc_id, 0.0) for doc_id in candidates}
        dense_norm = dict_minmax(dense_raw)
        lexical_norm = dict_minmax(lexical_raw)
        for doc_id in candidates:
            fused = (index_mod.FUSION_ALPHA * dense_norm[doc_id]
                     + (1.0 - index_mod.FUSION_ALPHA) * lexical_norm[doc_id])
            results.append((doc_id, kind, index_mod.HybridScore(
                dense_raw[doc_id], lexical_raw[doc_id], fused)))
    results.sort(key=lambda item: (-item[2].fused, item[1], item[0]))
    return results[:k]


def _bits(hits):
    return [(doc_id, kind, score.dense.hex(), score.lexical.hex(), score.fused.hex())
            for doc_id, kind, score in hits]


_FUSION_KINDS = ("entity", "property", "event", "turn")




@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(
        st.sampled_from(_FUSION_KINDS),
        st.lists(st.sampled_from(_WORDS[:4]), min_size=1, max_size=3),
        st.booleans(),  # embed every committed row after this one
    ), min_size=1, max_size=16),
    st.lists(st.tuples(
        st.lists(st.sampled_from(_WORDS[:5]), min_size=1, max_size=3),
        st.integers(1, 12),
        st.sets(st.sampled_from([*_FUSION_KINDS, "evidence"]), min_size=1),
    ), min_size=1, max_size=4),
)
# ties across kinds: one text in every kind
@example([(kind, ["sakura", "sushi"], True) for kind in _FUSION_KINDS],
         [(["sakura"], 2, set(_FUSION_KINDS))])
# an all-equal pool, larger k than rows, and a row committed but not embedded
@example([("entity", ["garden"], True), ("entity", ["garden"], True),
          ("entity", ["garden"], False)],
         [(["garden"], 12, {"entity"}), (["pasta"], 1, {"entity"})])
def test_fusion_matches_the_dict_oracle(rows, queries):
    """Fused hits, their order and every score are bit-equal to the
    dict-based fusion's, over any kinds, any k and rows not yet embedded."""
    store = Store.open(":memory:")
    index = VectorIndex()
    for number, (kind, words, embed) in enumerate(rows):
        _append_row(store, kind, " ".join(words), number)
        if embed:
            upsert_embeddings(store, index)
    for words, k, kinds in queries:
        query = " ".join(words)
        assert _bits(hybrid_search(store, index, kinds, query, k)) == _bits(
            oracle_hybrid_search(store, index, kinds, query, k))
    store.close()


def test_a_lexical_only_candidate_keeps_its_dense_score(store, index):
    """A row found by BM25 alone is fused with its own dense score, or with
    0.0 while it is committed but not yet embedded."""
    # k = 2: the dense pool is the 8 names closest to "red" as trigrams
    near = _add_entities(store, ["redd", "reds", "redder", "shred", "redo", "redden",
                                 "reddy", "reda", "redz", "sred"])
    (far,) = _add_entities(store, ["Red Lagoon Sushi Garden Walk"])
    upsert_embeddings(store, index)
    dense = index.dense_scores("entity", index.embed("red"))
    assert far not in dict(dense.top(8))
    dense = _as_dict(dense)
    hits = hybrid_search(store, index, ("entity",), "red", 2)
    assert hits[1][0] == far and hits[1][2].dense == dense[far] > 0.0
    assert _bits(hits) == _bits(oracle_hybrid_search(store, index, ("entity",), "red", 2))

    (pending,) = _add_entities(store, ["red"])
    hits = {doc_id: score for doc_id, _kind, score
            in hybrid_search(store, index, ("entity",), "red", 12)}
    assert set(hits) == {*near, far, pending}
    assert hits[pending].dense == 0.0 and hits[pending].lexical > 0.0
    assert _bits(hybrid_search(store, index, ("entity",), "red", 1)) == _bits(
        oracle_hybrid_search(store, index, ("entity",), "red", 1))
