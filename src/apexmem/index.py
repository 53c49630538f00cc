"""Hybrid retrieval: dense vectors from a pluggable embedder plus BM25
lexical ranking over the search text of the store's rows, fused per query.
"""
from __future__ import annotations

import json
import math
import os
import re
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

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


def bm25_scores(
    corpus: List[Tuple[int, str]], query: str, k1: float = BM25_K1, b: float = BM25_B
) -> Dict[int, float]:
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
            denom = freq + k1 * (1.0 - b + b * length / avgdl) if avgdl else freq
            score += idf * freq * (k1 + 1.0) / denom
        if score > 0.0:
            scores[doc_id] = score
    return scores


def lexical_search(store: Store, kind: str, query: str, k: int) -> List[Tuple[int, float]]:
    """Top-k (doc_id, BM25 score), ties broken by ascending doc_id."""
    scores = bm25_scores(store.lexical_documents(kind), query)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def kind_documents(store: Store, kind: str, after_id: int = 0) -> List[Tuple[int, str]]:
    """The (doc_id, text) surface that both channels index for one kind,
    limited to ids above ``after_id``."""
    return store.lexical_documents(kind, after_id)


class VectorIndex:
    """Flat, exhaustively scanned vector index, persisted as an append-only
    sidecar file when it has a path."""

    def __init__(self, embedder=None, path: Optional[str] = None):
        self.embedder = embedder or TrigramEmbedder()
        self.path = path
        self.dimension = self.embedder.dimension
        self.entries: Dict[Tuple[str, int], np.ndarray] = {}
        # highest doc_id held per kind; rows are immutable and ids only grow
        self.high_water: Dict[str, int] = {}
        # keys embedded since the last save, which save() appends to the
        # sidecar; an index without a file keeps no such list
        self._unsaved: Optional[List[Tuple[str, int]]] = None
        # bytes of whole records in the sidecar; anything past them is torn
        self._saved_bytes = 0
        if path is not None:
            self._unsaved = []
            self._load()

    @classmethod
    def sidecar_path(cls, store_path: str) -> str:
        return store_path + ".vec"

    def _load(self) -> None:
        """Read the sidecar's JSON lines. A final line without its newline is
        a record torn by a crash: it is dropped here and cut off by the next
        save, and ``upsert_embeddings`` embeds its row again. Any other
        malformed line raises."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break
                record = json.loads(line)
                self._put(
                    record["kind"],
                    record["doc_id"],
                    np.array(record["vector"], dtype=np.float64),
                )
                self._saved_bytes += len(line)

    def save(self) -> None:
        """Append the vectors embedded since the last save to the sidecar,
        one JSON line each, in the order they were embedded. The file exists
        afterwards even when nothing was new."""
        if self.path is None:
            return
        payload = "".join(
            json.dumps({"kind": kind, "doc_id": doc_id,
                        "vector": self.entries[kind, doc_id].tolist()}) + "\n"
            for kind, doc_id in self._unsaved
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
        self._saved_bytes += len(payload)
        self._unsaved.clear()

    def embed(self, text: str) -> np.ndarray:
        try:
            vector = np.asarray(self.embedder.embed(text), dtype=np.float64)
        except Exception as exc:
            raise EmbedderFailure(str(exc)) from exc
        if vector.shape != (self.dimension,):
            raise EmbedderFailure(
                f"embedder returned dimension {vector.shape}, expected {self.dimension}"
            )
        return vector

    def upsert(self, kind: str, doc_id: int, text: str) -> bool:
        if (kind, doc_id) in self.entries:
            return False
        self._put(kind, doc_id, self.embed(text))
        if self._unsaved is not None:
            self._unsaved.append((kind, doc_id))
        return True

    def _put(self, kind: str, doc_id: int, vector: np.ndarray) -> None:
        self.entries[(kind, doc_id)] = vector
        self.high_water[kind] = max(self.high_water.get(kind, 0), doc_id)

    def dense_scores(self, kind: str, query_vector: np.ndarray) -> Dict[int, float]:
        scores = {}
        for (entry_kind, doc_id), vector in self.entries.items():
            if entry_kind == kind:
                scores[doc_id] = cosine(query_vector, vector)
        return scores


def upsert_embeddings(store: Store, index: VectorIndex) -> int:
    """Index every row above the index's highest doc_id of its kind. Rows
    are read in ascending id order, so this is idempotent and resumable:
    partial progress is saved before an embedder failure propagates."""
    indexed = 0
    try:
        for kind in KINDS:
            after_id = index.high_water.get(kind, 0)
            for doc_id, text in kind_documents(store, kind, after_id):
                if index.upsert(kind, doc_id, text):
                    indexed += 1
    except EmbedderFailure:
        index.save()
        raise
    index.save()
    return indexed


def minmax_normalize(scores: Dict[int, float]) -> Dict[int, float]:
    """Min-max to [0,1]; a single candidate or all-equal scores map to 1.0."""
    if not scores:
        return {}
    low = min(scores.values())
    high = max(scores.values())
    if high == low:
        return {doc_id: 1.0 for doc_id in scores}
    return {doc_id: (s - low) / (high - low) for doc_id, s in scores.items()}


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
    alpha: float = FUSION_ALPHA,
) -> List[Tuple[int, str, HybridScore]]:
    """Fused ranking over the union of dense and lexical candidate pools."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query_vector = index.embed(query)
    pool = POOL_MULTIPLIER * k
    results = []
    for kind in sorted(set(kinds)):
        if kind not in KINDS:
            raise UnknownView(f"unknown kind: {kind}")
        dense_all = index.dense_scores(kind, query_vector)
        dense_pool = sorted(dense_all.items(), key=lambda i: (-i[1], i[0]))[:pool]
        lexical_pool = lexical_search(store, kind, query, pool)
        lexical_all = dict(lexical_pool)
        candidates = {doc_id for doc_id, _ in dense_pool} | set(lexical_all)
        if not candidates:
            continue
        dense_raw = {doc_id: dense_all.get(doc_id, 0.0) for doc_id in candidates}
        lexical_raw = {doc_id: lexical_all.get(doc_id, 0.0) for doc_id in candidates}
        dense_norm = minmax_normalize(dense_raw)
        lexical_norm = minmax_normalize(lexical_raw)
        for doc_id in candidates:
            fused = alpha * dense_norm[doc_id] + (1.0 - alpha) * lexical_norm[doc_id]
            results.append(
                (
                    doc_id,
                    kind,
                    HybridScore(dense_raw[doc_id], lexical_raw[doc_id], fused),
                )
            )
    results.sort(key=lambda item: (-item[2].fused, item[1], item[0]))
    return results[:k]
