"""Hybrid retrieval: dense vectors from a pluggable embedder plus BM25
lexical ranking over the search text of the store's rows, fused per query.

Rows are immutable and ids only grow, so both channels keep their state per
kind and only ever extend it: a query first folds in the rows added since
the last one, then scores every row with a few array operations. Many rows
share a text (every event reads "conversation"), so each channel scores
once per distinct vector or text and hands each row its text's score: the
dense matrix holds one row per distinct vector, and BM25 keeps per distinct
text its postings and each query term's impacts, until the kind gains a
row. Scores are bit-identical to scoring every row.
"""
from __future__ import annotations

import base64
import json
import math
import os
import re
import weakref
import zlib
from array import array
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmbedderFailure,
    IoFailure,
    UnknownView,
    ZeroVector,
)
from .store import SEARCH_TEXT, Store

# index kinds; the search text each one embeds is defined in store.SEARCH_TEXT
KINDS = tuple(SEARCH_TEXT)

BM25_K1 = 1.2
BM25_B = 0.75
FUSION_ALPHA = 0.5
POOL_MULTIPLIER = 4
# (text, k) results that ``VectorIndex.nearest`` keeps per kind
NEAREST_KEPT = 1024
# texts whose vectors ``VectorIndex.embed`` keeps
EMBEDDINGS_KEPT = 1024

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> List[str]:
    return _TOKEN_RE.findall(text.lower())


class TrigramEmbedder:
    """Deterministic test embedder: hashed character-trigram frequencies,
    L2-normalized. No model download, same text always maps to the same
    vector."""

    dimension = 256

    def embed(self, text: str) -> np.ndarray:
        vector = np.zeros(self.dimension, dtype=np.float64)
        padded = f"  {text.lower()}  "
        for i in range(len(padded) - 2):
            trigram = padded[i : i + 3]
            bucket = zlib.crc32(trigram.encode("utf-8")) % self.dimension
            vector[bucket] += 1.0
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            vector[0] = 1.0
            return vector
        return vector / norm


def cosine(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimensions {a.shape} vs {b.shape}")
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("cosine undefined for all-zero vectors")
    return float(np.dot(a, b) / (norm_a * norm_b))


def bm25_scores(corpus: List[Tuple[int, str]], query: str) -> Dict[int, float]:
    """BM25 over (doc_id, text) pairs. Only docs with positive score appear."""
    if not corpus:
        return {}
    docs = [(doc_id, tokenize(text)) for doc_id, text in corpus]
    n_docs = len(docs)
    avgdl = sum(len(tokens) for _, tokens in docs) / n_docs
    doc_freq: Counter = Counter()
    for _, tokens in docs:
        for term in set(tokens):
            doc_freq[term] += 1
    # a term repeated in the query counts once
    query_terms = list(dict.fromkeys(tokenize(query)))
    scores: Dict[int, float] = {}
    for doc_id, tokens in docs:
        tf = Counter(tokens)
        length = len(tokens)
        score = 0.0
        for term in query_terms:
            freq = tf.get(term, 0)
            if freq == 0:
                continue
            df = doc_freq[term]
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            denom = (freq + BM25_K1 * (1.0 - BM25_B + BM25_B * length / avgdl)
                     if avgdl else freq)
            score += idf * freq * (BM25_K1 + 1.0) / denom
        if score > 0.0:
            scores[doc_id] = score
    return scores


class Scores:
    """The scores of the rows of one kind, as two aligned arrays of doc_ids
    and values. ``rows`` maps a doc_id to its position; positions past the
    arrays' end are rows added after the scores were taken."""

    def __init__(self, doc_ids: np.ndarray, values: np.ndarray,
                 rows: Optional[Dict[int, int]] = None):
        self.doc_ids = doc_ids
        self.values = values
        self._rows = rows

    def get(self, doc_id: int, default: float) -> float:
        """The score of ``doc_id``, or ``default`` if it has none."""
        if self._rows is None:
            self._rows = dict(zip(self.doc_ids.tolist(), range(len(self.doc_ids))))
        row = self._rows.get(doc_id, len(self.values))
        return default if row >= len(self.values) else float(self.values[row])

    def top(self, k: int) -> List[Tuple[int, float]]:
        """The k best (doc_id, score), best first, ties by ascending doc_id."""
        doc_ids, values = self.doc_ids, self.values
        n = len(values)
        if k < 1:
            return []
        if k < n:
            # every row that ties with the k-th best competes for its place
            picked = np.flatnonzero(values >= np.partition(values, n - k)[n - k])
            doc_ids, values = doc_ids[picked], values[picked]
        order = np.lexsort((doc_ids, -values))[:k]
        return list(zip(doc_ids[order].tolist(), values[order].tolist()))


class _Postings:
    """Incremental BM25 statistics of one kind, kept per distinct text: each
    text's length, and per term the texts holding it and its frequency
    there. Each row holds its doc_id and its text's position. The total
    length and each term's document frequency count rows, the latter as
    the texts holding the term plus its ``repeats``, the rows that repeat
    one of them. ``extend`` appends rows above ``high_water``. Each term's
    impacts, its BM25 contribution to every text holding it, are kept until
    the kind gains a row, which changes the average length and the
    document frequencies."""

    def __init__(self):
        self.high_water = 0
        self.doc_ids = array("q")
        # per row, the position of its text
        self.texts = array("q")
        # per text: its position, its length and the terms it holds
        self.positions: Dict[str, int] = {}
        self.lengths = array("q")
        self.text_terms: List[Tuple[str, ...]] = []
        self.total_length = 0
        self.terms: Dict[str, Tuple[array, array]] = {}
        self.repeats: Dict[str, int] = {}
        # the row count the arrays below were taken at
        self.scored_rows = 0
        self.row_doc_ids = np.empty(0, dtype=np.int64)
        self.row_texts = np.empty(0, dtype=np.int64)
        self.length_norms = np.empty(0)
        # term -> (positions of the texts holding it, its impact on each)
        self.impacts: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def extend(self, documents: Iterable[Tuple[int, str]]) -> None:
        repeats = self.repeats
        for doc_id, text in documents:
            position = self.positions.get(text)
            if position is None:
                position = self.positions[text] = len(self.lengths)
                tokens = tokenize(text)
                counts = Counter(tokens)
                self.lengths.append(len(tokens))
                self.text_terms.append(tuple(counts))
                for term, freq in counts.items():
                    posting = self.terms.get(term)
                    if posting is None:
                        posting = self.terms[term] = (array("q"), array("q"))
                    posting[0].append(position)
                    posting[1].append(freq)
            else:
                for term in self.text_terms[position]:
                    repeats[term] = repeats.get(term, 0) + 1
            self.doc_ids.append(doc_id)
            self.texts.append(position)
            self.total_length += self.lengths[position]
            self.high_water = doc_id

    def scores(self, query: str) -> Scores:
        """BM25 of every row with a positive score. The arithmetic is that of
        ``bm25_scores``, term by term in the same order, done once per
        distinct text."""
        n_docs = len(self.doc_ids)
        if self.scored_rows != n_docs:
            self.scored_rows = n_docs
            self.row_doc_ids = np.array(self.doc_ids)
            self.row_texts = np.array(self.texts)
            # the part of each text's denominator that no term changes
            avgdl = self.total_length / n_docs
            self.length_norms = BM25_K1 * (
                1.0 - BM25_B + BM25_B * np.array(self.lengths) / avgdl
            )
            self.impacts.clear()
        totals = np.zeros(len(self.lengths))
        for term in dict.fromkeys(tokenize(query)):
            impact = self.impacts.get(term)
            if impact is None:
                posting = self.terms.get(term)
                if posting is None:
                    continue
                positions, freqs = np.array(posting[0]), np.array(posting[1])
                df = len(positions) + self.repeats.get(term, 0)
                idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                impact = self.impacts[term] = (positions, idf * freqs * (BM25_K1 + 1.0) / (
                    freqs + self.length_norms[positions]))
            totals[impact[0]] += impact[1]
        totals = totals[self.row_texts]
        positive = np.flatnonzero(totals > 0.0)
        return Scores(self.row_doc_ids[positive], totals[positive])


class _Vectors:
    """One kind's vectors: one float64 matrix row per distinct vector, with
    its norm, and per row of the kind, in doc_id order, its doc_id and the
    matrix row (``slots``) that holds its vector. A vector's bytes decide
    whether it is new, so rows with the same text share a matrix row
    whatever the embedder; only the bytes' hash is kept, and a vector that
    matches one is compared byte for byte. ``add`` only queues a row;
    ``fold`` copies the queued new vectors in as one block, growing the
    arrays about 1.25x when they are full."""

    def __init__(self, dimension: int):
        self.matrix = np.empty((0, dimension))
        self.norms = np.empty(0)
        self.distinct = 0
        self.doc_ids = np.empty(0, dtype=np.int64)
        self.slots = np.empty(0, dtype=np.intp)
        self.count = 0
        # doc_id -> row, and the hash of a vector's bytes -> its slot,
        # queued ones included
        self.rows: Dict[int, int] = {}
        self.keys: Dict[int, int] = {}
        # queued (doc_id, slot) rows, and the new vectors of slots from
        # ``distinct`` on
        self.pending: List[Tuple[int, int]] = []
        self.pending_vectors: List[np.ndarray] = []

    def add(self, doc_id: int, vector: np.ndarray) -> None:
        data = vector.tobytes()
        key = hash(data)
        slot = self.keys.get(key)
        if slot is None or self._stored(slot).tobytes() != data:
            slot = self.distinct + len(self.pending_vectors)
            self.keys.setdefault(key, slot)
            self.pending_vectors.append(vector)
        self.rows[doc_id] = self.count + len(self.pending)
        self.pending.append((doc_id, slot))

    def _stored(self, slot: int) -> np.ndarray:
        if slot >= self.distinct:
            return self.pending_vectors[slot - self.distinct]
        return self.matrix[slot]

    def vector(self, doc_id: int) -> np.ndarray:
        row = self.rows[doc_id]
        if row >= self.count:
            return self._stored(self.pending[row - self.count][1]).copy()
        return self._stored(int(self.slots[row])).copy()

    def fold(self) -> None:
        if not self.pending:
            return
        if self.pending_vectors:
            start = self.distinct
            stop = start + len(self.pending_vectors)
            if stop > len(self.matrix):
                capacity = max(stop, len(self.matrix) * 5 // 4)
                self.matrix = _grown(self.matrix, capacity, start)
                self.norms = _grown(self.norms, capacity, start)
            block = self.matrix[start:stop]
            block[:] = self.pending_vectors
            self.norms[start:stop] = np.sqrt(np.einsum("ij,ij->i", block, block))
            # cosine is undefined for a zero vector; the batch stays queued,
            # so every query of this kind raises
            if not self.norms[start:stop].all():
                raise ZeroVector("cosine undefined for all-zero vectors")
            self.distinct = stop
            self.pending_vectors.clear()
        start, stop = self.count, self.count + len(self.pending)
        if stop > len(self.doc_ids):
            capacity = max(stop, len(self.doc_ids) * 5 // 4)
            self.doc_ids = _grown(self.doc_ids, capacity, start)
            self.slots = _grown(self.slots, capacity, start)
        self.doc_ids[start:stop] = [doc_id for doc_id, _ in self.pending]
        self.slots[start:stop] = [slot for _, slot in self.pending]
        self.count = stop
        self.pending.clear()


def _grown(old: np.ndarray, capacity: int, used: int) -> np.ndarray:
    new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
    new[:used] = old[:used]
    return new


class _Entries(Mapping):
    """(kind, doc_id) -> vector over every kind's rows. It holds the per-kind
    state, not the index, so that dropping an index frees it at once."""

    def __init__(self, vectors: Dict[str, _Vectors]):
        self._vectors = vectors

    def __len__(self) -> int:
        return sum(len(kind.rows) for kind in self._vectors.values())

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        for kind, vectors in self._vectors.items():
            for doc_id in vectors.rows:
                yield kind, doc_id

    def __contains__(self, key) -> bool:
        kind, doc_id = key
        return kind in self._vectors and doc_id in self._vectors[kind].rows

    def __getitem__(self, key: Tuple[str, int]) -> np.ndarray:
        kind, doc_id = key
        if key not in self:
            raise KeyError(key)
        return self._vectors[kind].vector(doc_id)


def _record(kind: str, doc_id: int, vector: np.ndarray) -> str:
    """One sidecar line. ``buckets`` is base64 of the little-endian int32
    positions of the vector's nonzero entries, and ``values`` base64 of those
    entries as little-endian float64. Entries are picked by bit pattern, so
    -0.0 is kept and every vector reloads bit for bit. Earlier sidecars hold
    the whole vector as a JSON list, ``vector``, which still loads."""
    buckets = np.flatnonzero(vector.view(np.int64)).astype("<i4")
    return json.dumps({
        "kind": kind,
        "doc_id": doc_id,
        "buckets": base64.b64encode(buckets.tobytes()).decode("ascii"),
        "values": base64.b64encode(vector[buckets].astype("<f8").tobytes()).decode("ascii"),
    }) + "\n"


def kind_documents(store: Store, kind: str, after_id: int = 0) -> List[Tuple[int, str]]:
    """The (doc_id, text) rows of one kind that ``upsert_embeddings`` embeds,
    limited to ids above ``after_id``. The lexical channel reads the same
    rows from ``Store.lexical_documents`` itself, so that this counts the
    embedder's reads only."""
    return store.lexical_documents(kind, after_id)


class VectorIndex:
    """Exhaustively scanned vectors, one matrix per kind, persisted as an
    append-only sidecar file when it has a path; and the BM25 postings of
    the store it is searched with, which are derived and never saved."""

    def __init__(self, embedder=None, path: Optional[str] = None):
        self.embedder = embedder or TrigramEmbedder()
        self.path = path
        self.dimension = self.embedder.dimension
        self._vectors: Dict[str, _Vectors] = {}
        self.entries = _Entries(self._vectors)
        # highest doc_id held per kind; rows are immutable and ids only grow
        self.high_water: Dict[str, int] = {}
        # (kind, doc_id, vector) embedded since the last save, which save()
        # appends to the sidecar; an index without a file keeps no such list
        self._unsaved: Optional[List[Tuple[str, int, np.ndarray]]] = None
        # whether this index has loaded or created the sidecar, and the
        # bytes of whole records in it; anything past them is torn
        self._on_disk = False
        self._saved_bytes = 0
        # the store the postings were read from; another store resets them
        self._lexical_store = None
        self._postings: Dict[str, _Postings] = {}
        # per kind, the vector count and the nearest() results taken at it
        self._nearest: Dict[str, Tuple[int, Dict[Tuple[str, int], list]]] = {}
        # text -> its vector, for the last EMBEDDINGS_KEPT texts embedded
        self._embedded: Dict[str, np.ndarray] = {}
        if path is not None:
            self._unsaved = []
            self._load()

    @classmethod
    def sidecar_path(cls, store_path: str) -> str:
        return store_path + ".vec"

    def _load(self) -> None:
        """Read the sidecar's JSON lines. A final line without its newline is
        a record torn by a crash: it is dropped here and cut off by the next
        save, and ``upsert_embeddings`` embeds its row again. A record whose
        vector does not fit the embedder's dimension raises
        ``DimensionMismatch``; any other malformed line raises."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            for line_number, line in enumerate(handle, start=1):
                if not line.endswith(b"\n"):
                    break
                record = json.loads(line)
                self._put(record["kind"], record["doc_id"],
                          self._vector(record, line_number))
                self._saved_bytes += len(line)
        self._on_disk = True

    def _vector(self, record: dict, line_number: int) -> np.ndarray:
        """The vector of a sidecar record, in either form ``_record`` names."""
        where = f"sidecar {self.path} line {line_number}"
        if "vector" in record:
            vector = np.array(record["vector"], dtype=np.float64)
            if vector.shape != (self.dimension,):
                raise DimensionMismatch(
                    f"{where}: vector of shape {vector.shape}, expected ({self.dimension},)")
            return vector
        buckets = np.frombuffer(base64.b64decode(record["buckets"], validate=True), "<i4")
        values = np.frombuffer(base64.b64decode(record["values"], validate=True), "<f8")
        if buckets.size and not 0 <= buckets.min() <= buckets.max() < self.dimension:
            raise DimensionMismatch(
                f"{where}: buckets {buckets.min()}..{buckets.max()} "
                f"outside dimension {self.dimension}")
        vector = np.zeros(self.dimension)
        vector[buckets] = values
        return vector

    def save(self) -> None:
        """Append the vectors embedded since the last save to the sidecar,
        one ``_record`` line each, in the order they were embedded. The first
        save creates the file even when nothing is new; a later one with
        nothing new does not open it."""
        if self.path is None or (self._on_disk and not self._unsaved):
            return
        payload = "".join(
            _record(kind, doc_id, vector) for kind, doc_id, vector in self._unsaved
        ).encode("utf-8")
        with open(self.path, "a+b") as handle:
            size = handle.tell()
            if size < self._saved_bytes:
                raise IoFailure(f"sidecar {self.path} lost records saved to it")
            # cut a torn record, left by a crash or a failed write, so that
            # it is never joined onto the next one; whole records past the
            # saved bytes come from another writer and are never cut
            if size > self._saved_bytes:
                handle.seek(self._saved_bytes)
                if b"\n" in handle.read():
                    raise IoFailure(f"sidecar {self.path} was appended to by another writer")
                handle.truncate(self._saved_bytes)
            handle.write(payload)
        self._on_disk = True
        self._saved_bytes += len(payload)
        self._unsaved.clear()

    def embed(self, text: str) -> np.ndarray:
        """The embedder's vector of ``text``, as a read-only array. The
        vectors of the last ``EMBEDDINGS_KEPT`` texts are kept, so a repeated
        text reaches the embedder once; like ``nearest``, this relies on the
        embedder mapping the same text to the same vector. A call that
        raises keeps nothing."""
        kept = self._embedded
        vector = kept.get(text)
        if vector is not None:
            return vector
        try:
            vector = np.array(self.embedder.embed(text), dtype=np.float64)
        except Exception as exc:
            raise EmbedderFailure(str(exc)) from exc
        if vector.shape != (self.dimension,):
            raise EmbedderFailure(
                f"embedder returned dimension {vector.shape}, expected {self.dimension}"
            )
        vector.flags.writeable = False
        if len(kept) >= EMBEDDINGS_KEPT:
            del kept[next(iter(kept))]  # the oldest
        kept[text] = vector
        return vector

    def upsert(self, kind: str, doc_id: int, text: str) -> bool:
        if (kind, doc_id) in self.entries:
            return False
        vector = self.embed(text)
        self._put(kind, doc_id, vector)
        if self._unsaved is not None:
            self._unsaved.append((kind, doc_id, vector))
        return True

    def _put(self, kind: str, doc_id: int, vector: np.ndarray) -> None:
        vectors = self._vectors.get(kind)
        if vectors is None:
            vectors = self._vectors[kind] = _Vectors(self.dimension)
        vectors.add(doc_id, vector)
        self.high_water[kind] = max(self.high_water.get(kind, 0), doc_id)

    def dense_scores(self, kind: str, query_vector: np.ndarray) -> Scores:
        """Cosine similarity of the query to every vector of ``kind``."""
        query_vector = np.asarray(query_vector, dtype=np.float64)
        if query_vector.shape != (self.dimension,):
            raise DimensionMismatch(
                f"dimensions {query_vector.shape} vs ({self.dimension},)"
            )
        vectors = self._vectors.get(kind)
        if vectors is None:
            return Scores(np.empty(0, dtype=np.int64), np.empty(0))
        query_norm = np.linalg.norm(query_vector)
        if query_norm == 0.0:
            raise ZeroVector("cosine undefined for all-zero vectors")
        vectors.fold()
        n, distinct = vectors.count, vectors.distinct
        # one product per distinct vector; einsum runs on this thread, while
        # matrix @ vector may hand a large matrix to BLAS threads, which
        # cost more than they save here
        products = np.einsum("ij,j->i", vectors.matrix[:distinct], query_vector)
        cosines = products / (vectors.norms[:distinct] * query_norm)
        return Scores(vectors.doc_ids[:n], cosines[vectors.slots[:n]], vectors.rows)

    def nearest(self, kind: str, text: str, k: int) -> List[Tuple[int, float]]:
        """``dense_scores(kind, embed(text)).top(k)``, kept per kind until the
        kind gains a vector. A doc_id's vector never changes, so the count
        of a kind's vectors identifies the vectors it holds; the embedder
        must map the same text to the same vector. A call that raises keeps
        nothing."""
        vectors = self._vectors.get(kind)
        count = 0 if vectors is None else len(vectors.rows)
        held = self._nearest.get(kind)
        if held is None or held[0] != count:
            held = self._nearest[kind] = (count, {})
        kept = held[1]
        ranked = kept.get((text, k))
        if ranked is None:
            ranked = self.dense_scores(kind, self.embed(text)).top(k)
            if len(kept) >= NEAREST_KEPT:
                del kept[next(iter(kept))]  # the oldest
            kept[text, k] = ranked
        return list(ranked)

    def lexical_scores(self, store: Store, kind: str, query: str) -> Scores:
        """BM25 over every committed row of ``kind`` in ``store``, after
        reading in the rows added since the last query of that kind."""
        if self._lexical_store is None or self._lexical_store() is not store:
            self._lexical_store = weakref.ref(store)
            self._postings.clear()
        postings = self._postings.get(kind)
        if postings is None:
            postings = self._postings[kind] = _Postings()
        if _has_rows_above(store.last_ids(), kind, postings.high_water):
            postings.extend(store.lexical_documents(kind, postings.high_water))
        return postings.scores(query)


def _has_rows_above(last_ids: Dict[str, int], kind: str, high_water: int) -> bool:
    """Whether the store holds a row of ``kind`` above ``high_water``: ids
    only grow, so a table whose last id is not above it has nothing new."""
    return last_ids[SEARCH_TEXT[kind][0]] > high_water


def upsert_embeddings(store: Store, index: VectorIndex) -> int:
    """Index every row above the index's highest doc_id of its kind. Rows
    are read in ascending id order, so this is idempotent and resumable:
    partial progress is saved before an embedder failure propagates."""
    indexed = 0
    last_ids = store.last_ids()
    try:
        for kind in KINDS:
            after_id = index.high_water.get(kind, 0)
            if not _has_rows_above(last_ids, kind, after_id):
                continue
            for doc_id, text in kind_documents(store, kind, after_id):
                if index.upsert(kind, doc_id, text):
                    indexed += 1
    except EmbedderFailure:
        index.save()
        raise
    index.save()
    return indexed


def _minmax(scores: List[float]) -> List[float]:
    """Min-max to [0,1]; a single score or all-equal scores map to 1.0."""
    if not scores:
        return []
    low, high = min(scores), max(scores)
    if high == low:
        return [1.0] * len(scores)
    return [(s - low) / (high - low) for s in scores]


def minmax_normalize(scores: Dict[int, float]) -> Dict[int, float]:
    """Min-max to [0,1]; a single candidate or all-equal scores map to 1.0."""
    return dict(zip(scores, _minmax(list(scores.values()))))


def fuse(dense: List[float], lexical: List[float]) -> List[float]:
    """The fused score of each candidate from its raw dense and lexical
    scores: each channel min-max normalized over the candidates, then mixed
    by ``FUSION_ALPHA``."""
    return [FUSION_ALPHA * dense_norm + (1.0 - FUSION_ALPHA) * lexical_norm
            for dense_norm, lexical_norm in zip(_minmax(dense), _minmax(lexical))]


@dataclass(frozen=True)
class HybridScore:
    dense: float
    lexical: float
    fused: float


def hybrid_search(
    store: Store,
    index: VectorIndex,
    kinds: Iterable[str],
    query: str,
    k: int,
) -> List[Tuple[int, str, HybridScore]]:
    """Fused ranking over the union of dense and lexical candidate pools."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query_vector = index.embed(query)
    pool = POOL_MULTIPLIER * k
    # (-fused, kind, doc_id, dense, lexical) of every candidate; kind and
    # doc_id are unique, so the raw scores never decide the order
    rows = []
    for kind in sorted(set(kinds)):
        if kind not in KINDS:
            raise UnknownView(f"unknown kind: {kind}")
        dense_all = index.dense_scores(kind, query_vector)
        dense = dict(dense_all.top(pool))
        lexical = dict(index.lexical_scores(store, kind, query).top(pool))
        for doc_id in lexical:
            if doc_id not in dense:
                # a row committed but not yet embedded has no dense score
                dense[doc_id] = dense_all.get(doc_id, 0.0)
        lexical_raw = [lexical.get(doc_id, 0.0) for doc_id in dense]
        fused = fuse(list(dense.values()), lexical_raw)
        for (doc_id, dense_raw), lexical_score, score in zip(dense.items(), lexical_raw, fused):
            rows.append((-score, kind, doc_id, dense_raw, lexical_score))
    rows.sort()
    return [(doc_id, kind, HybridScore(dense_raw, lexical_score, -negated))
            for negated, kind, doc_id, dense_raw, lexical_score in rows[:k]]
